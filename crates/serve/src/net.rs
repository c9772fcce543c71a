//! The TCP front-end: a length-prefixed line protocol over the live
//! catalog, std-only (hand-rolled threads, following the repo's worker-
//! pool precedent — no async runtime).
//!
//! # Wire protocol
//!
//! Every message (both directions) is a **frame**: the payload's byte
//! length as ASCII decimal, a newline, then exactly that many payload
//! bytes. Commands (client → server), one per frame:
//!
//! * `query [deadline-ms=N] <rule>` — answer a query; the optional
//!   deadline bounds gate wait + compute.
//! * `add-view <rule>` / `drop-view <name>` — online DDL.
//! * `epoch` — current catalog epoch and view count.
//! * `ping` — liveness probe.
//! * `shutdown` — graceful drain: in-flight requests finish, then the
//!   server exits.
//!
//! Responses, one frame per request, first line one of:
//!
//! * `ok epoch=E completeness=L cached=B` + the rendered answer
//!   (queries), or `ok epoch=E views=N invalidated=K revalidated=K`
//!   (DDL), or `ok epoch=E views=N` (`epoch`), or `pong epoch=E`;
//! * `shed reason=R completeness=deadline_exceeded` — admission refused
//!   or the deadline expired waiting at the gate; the request did no
//!   work and the completeness marker says so honestly;
//! * `error code=2 [vp=VPnnn] <message>` — malformed input or an
//!   ill-typed query/view; code mirrors the CLI's exit code for the
//!   same input, and `vp=` carries the diagnostic id when static
//!   analysis produced one. **Errors are answered, never dropped**: a
//!   protocol-level error closes the connection only after the error
//!   frame is written.
//! * `bye` — acknowledging `shutdown`.
//!
//! The grammar and its executor live in [`crate::respond`]; this module
//! only frames them.
//!
//! # Threads
//!
//! Thread-per-connection, two kinds: one acceptor blocks in `accept`
//! (shutdown wakes it with a throw-away connection to its own address),
//! and each connection gets a handler thread that decodes a frame, runs
//! the command itself and writes the reply — a query first *enters* the
//! [`AdmissionGate`], so at most `workers` pipelines run at once and at
//! most `queue_capacity` requests wait for a turn. Handlers apply three
//! timeouts: `idle_timeout` (no frame starts — the connection is
//! reaped), `read_timeout` (a started frame stalls), `write_timeout` (a
//! response write stalls).
//!
//! # Fault injection
//!
//! `VIEWPLAN_FAULT=accept|read|write:nth` (see [`crate::ServeFaults`]) kills
//! the nth accepted connection / frame read / response write, exactly
//! once — the chaos harness drives clients through these and asserts
//! every request is still accounted for (answered, shed, or failed
//! loudly at the client; never silently dropped).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};
use viewplan_obs as obs;
use viewplan_obs::FaultPoint;
use viewplan_sync::thread::{self, JoinHandle};
use viewplan_sync::{AtomicBool, Mutex, Ordering};

use crate::admission::AdmissionGate;
use crate::catalog::LiveCatalog;
use crate::command::{respond, Reply};

/// Network front-end knobs.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Requests running their pipelines at once (admission permits).
    pub workers: usize,
    /// Requests allowed to wait for a permit; arrivals beyond are shed.
    pub queue_capacity: usize,
    /// A started frame must complete within this.
    pub read_timeout: Duration,
    /// A response write must complete within this.
    pub write_timeout: Duration,
    /// A connection with no frame activity this long is reaped.
    pub idle_timeout: Duration,
    /// Default per-request deadline when the client sends none.
    pub default_deadline: Option<Duration>,
    /// Largest accepted frame payload, bytes.
    pub max_frame: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            workers: 4,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            default_deadline: None,
            max_frame: 64 * 1024,
        }
    }
}

/// Room in front of a payload for any frame header: the twenty digits
/// of the largest `usize` and the newline.
const HEADER_ROOM: usize = 21;

/// Assembles one frame in `buf` — ASCII decimal payload length, `\n`,
/// payload — and returns it. The payload is written once, by `payload`,
/// straight behind room left for the header; the header is then written
/// backwards into that room, so nothing is copied to make space for it.
fn frame(buf: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) -> &[u8] {
    buf.clear();
    buf.resize(HEADER_ROOM, b'\n');
    payload(buf);
    let mut at = HEADER_ROOM - 1;
    let mut len = buf.len() - HEADER_ROOM;
    loop {
        at -= 1;
        buf[at] = b'0' + (len % 10) as u8;
        len /= 10;
        if len == 0 {
            return &buf[at..];
        }
    }
}

/// Writes one frame: ASCII decimal payload length, `\n`, payload.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(HEADER_ROOM + payload.len());
    w.write_all(frame(&mut buf, |b| b.extend_from_slice(payload.as_bytes())))?;
    w.flush()
}

/// Writes `reply` as one frame, its text formatted once, into `buf` (the
/// connection's, reused from reply to reply).
fn write_reply(w: &mut impl Write, buf: &mut Vec<u8>, reply: &Reply) -> io::Result<()> {
    // Formatting into a `Vec` cannot fail.
    w.write_all(frame(buf, |b| {
        let _ = write!(b, "{reply}");
    }))?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
///
/// No read asks for more than the shortest frame the bytes read so far
/// allow, so none crosses into the next frame: the first asks for 2
/// bytes (`0\n` is the shortest frame), each later one for the newline
/// plus the length the digits so far spell. Bytes after the newline
/// start the payload, and one `read_exact` fetches the rest. On an
/// unbuffered stream a 5-digit header then costs 3 reads, not one per
/// digit and one for the newline.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> io::Result<Option<String>> {
    let mut bytes: Vec<u8> = Vec::new();
    let mut len: usize = 0;
    let mut digits = 0;
    let header = loop {
        let have = bytes.len();
        let want = if have == 0 { 2 } else { 1 + len.min(max_frame) };
        bytes.resize(have + want, 0);
        let n = r.read(&mut bytes[have..])?;
        bytes.truncate(have + n);
        if n == 0 {
            if have == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof inside frame header",
            ));
        }
        let mut newline = None;
        for (at, &byte) in bytes.iter().enumerate().skip(have) {
            match byte {
                b'\n' if digits > 0 => {
                    newline = Some(at);
                    break;
                }
                d @ b'0'..=b'9' if digits < 8 => {
                    len = len * 10 + usize::from(d - b'0');
                    digits += 1;
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad frame header byte 0x{other:02x}"),
                    ));
                }
            }
        }
        if let Some(at) = newline {
            break at;
        }
    };
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds max {max_frame}"),
        ));
    }
    bytes.drain(..=header);
    let have = bytes.len();
    bytes.resize(len, 0);
    r.read_exact(&mut bytes[have..])?;
    String::from_utf8(bytes)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload is not utf-8"))
}

struct Shared {
    catalog: Arc<LiveCatalog>,
    config: NetConfig,
    gate: AdmissionGate,
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// Handler threads that may still be running; finished ones are
    /// reaped whenever a new one is pushed.
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        // ordering: cross-thread stop flag polled by the acceptor and
        // the handlers; SeqCst so a shutdown request is totally ordered
        // against the gate close that follows it.
        self.shutdown.load(Ordering::SeqCst)
    }

    fn request_shutdown(&self) {
        // ordering: see shutting_down — the store must not be reordered
        // after gate.close(), or a handler could be shed `shutting_down`
        // while still believing the server is live.
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.gate.close();
        // The acceptor blocks in `accept`: a throw-away connection makes
        // it look at the flag. A wildcard bind address is not
        // connectable everywhere; its loopback is.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // A failed connect would leave the acceptor blocked and `wait`
        // hanging, so it is retried: descriptor or port exhaustion
        // clears as the handlers exit on the flag. `ConnectionRefused`
        // means the listener is already gone.
        for _ in 0..40 {
            match TcpStream::connect_timeout(&wake, Duration::from_millis(250)) {
                Err(e) if e.kind() != io::ErrorKind::ConnectionRefused => {
                    thread::sleep(Duration::from_millis(25));
                }
                _ => return,
            }
        }
        eprintln!(
            "viewplan serve: cannot wake the acceptor at {wake}; it stops at the next connection"
        );
    }
}

/// A running network server. Dropping it does *not* stop it — call
/// [`NetServer::shutdown`] (or send a `shutdown` frame and
/// [`NetServer::wait`]).
pub struct NetServer {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the acceptor thread.
    pub fn start(
        catalog: Arc<LiveCatalog>,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            gate: AdmissionGate::new(config.workers, config.queue_capacity),
            catalog,
            config,
            addr: listener.local_addr()?,
            shutdown: AtomicBool::new(false),
            handlers: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = shared.clone();
            thread::Builder::new()
                .name("viewplan-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(NetServer {
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Requests shed so far (admission refusals + deadlines that lapsed
    /// waiting at the gate).
    pub fn shed(&self) -> u64 {
        self.shared.gate.shed_count()
    }

    /// Graceful shutdown: stop accepting, let admitted requests finish,
    /// join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.request_shutdown();
        self.wait();
    }

    /// Blocks until a `shutdown` frame (or [`NetServer::shutdown`] from
    /// another thread) stops the server, then joins every thread.
    pub fn wait(&mut self) {
        // The acceptor returns only once shutdown was requested.
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Handlers exit on their own once they see the shutdown flag
        // (their reads poll it) — after answering the request they are
        // running or waiting at the gate with.
        let handlers: Vec<_> = self.shared.handlers.lock().drain(..).collect();
        for t in handlers {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.shutting_down() {
            return;
        }
        let Ok((stream, _peer)) = accepted else {
            // Descriptor exhaustion and the like: back off, do not spin.
            thread::sleep(Duration::from_millis(25));
            continue;
        };
        obs::counter!("serve.net_accepted").incr();
        if shared.catalog.faults().fires(FaultPoint::Accept) {
            // Injected accept fault: the connection dies before its
            // first frame — clients must see a clean EOF and retry,
            // never a hang.
            continue;
        }
        // Every response is one complete frame in one write, so Nagle's
        // algorithm could only delay it.
        let _ = stream.set_nodelay(true);
        let shared2 = shared.clone();
        let spawned = thread::Builder::new()
            .name("viewplan-conn".to_string())
            .spawn(move || handle_connection(stream, &shared2));
        // On thread exhaustion, shedding the connection (dropped with
        // the closure) is the only honest option left.
        if let Ok(handle) = spawned {
            let mut handlers = shared.handlers.lock();
            handlers.retain(|h| !h.is_finished());
            handlers.push(handle);
        }
    }
}

/// The poll slice the socket's read timeout is armed with, once per
/// connection: short enough that the shutdown flag is honored promptly
/// while a handler waits for a frame.
fn poll_slice(config: &NetConfig) -> Duration {
    Duration::from_millis(50).min(config.idle_timeout.max(Duration::from_millis(1)))
}

/// Waits for the next frame to start, enforcing the idle timeout in
/// [`poll_slice`] steps; false when the connection is over instead (the
/// peer hung up, the server is shutting down, or it sat idle and is
/// reaped). Bytes already buffered are a frame that has started — a
/// client may send its next frame in the same segment as the previous
/// one — so the socket is only polled when the buffer is empty. The
/// poll fills the buffer, so the bytes that show a frame has started
/// are the ones `read_frame` then decodes, with no second read.
fn frame_started(reader: &mut BufReader<TcpStream>, shared: &Shared) -> bool {
    if !reader.buffer().is_empty() {
        return true;
    }
    let slice = poll_slice(&shared.config);
    let mut waited = Duration::ZERO;
    while !shared.shutting_down() {
        match reader.fill_buf() {
            Ok(buffered) => return !buffered.is_empty(),
            Err(e) if is_timeout(&e) => {
                waited += slice;
                if waited >= shared.config.idle_timeout {
                    obs::counter!("serve.net_reaped_idle").incr();
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
    false
}

fn is_timeout(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut
}

/// Reads a started frame under `read_timeout` for the frame as a whole:
/// the socket keeps its [`poll_slice`] timeout, and a read that times
/// out is retried until the frame's deadline.
struct FrameReader<'a> {
    inner: &'a mut BufReader<TcpStream>,
    deadline: Instant,
}

impl Read for FrameReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Err(e) if is_timeout(&e) && Instant::now() < self.deadline => {}
                other => return other,
            }
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    // Both timeouts are armed once: neither value changes over the
    // connection's life. Reads go through a buffer that `frame_started`
    // fills; `write_reply` assembles the whole frame in `out`, so writes
    // go straight to the socket.
    if stream
        .set_read_timeout(Some(poll_slice(&shared.config)))
        .and_then(|()| stream.set_write_timeout(Some(shared.config.write_timeout)))
        .is_err()
    {
        return;
    }
    let mut reader = BufReader::new(stream);
    let mut out = Vec::new();
    loop {
        if !frame_started(&mut reader, shared) {
            return;
        }
        let mut frame_reader = FrameReader {
            deadline: Instant::now() + shared.config.read_timeout,
            inner: &mut reader,
        };
        let frame = match read_frame(&mut frame_reader, shared.config.max_frame) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // A malformed header is answered before closing — the
                // client learns why instead of seeing a bare hangup.
                let _ = write_reply(reader.get_mut(), &mut out, &Reply::Error(e.to_string()));
                return;
            }
            Err(_) => return,
        };
        if shared.catalog.faults().fires(FaultPoint::Read) {
            // Injected read fault: the connection dies after a frame was
            // consumed — the hardest drop for a client to distinguish
            // from success, which is exactly what the retry layer and
            // the chaos accounting must cover.
            return;
        }
        let reply = respond(
            &frame,
            &shared.catalog,
            Some(&shared.gate),
            shared.config.default_deadline,
        );
        if matches!(reply, Reply::Bye) {
            let _ = write_reply(reader.get_mut(), &mut out, &reply);
            shared.request_shutdown();
            return;
        }
        if shared.catalog.faults().fires(FaultPoint::Write) {
            // Injected write fault: the answer was computed but never
            // delivered.
            return;
        }
        if write_reply(reader.get_mut(), &mut out, &reply).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ServeConfig;
    use viewplan_cq::parse_views;

    fn start_server(config: NetConfig) -> NetServer {
        let views = parse_views(
            "v1(A, B) :- a(A, B), a(B, B).\n\
             v2(C, D) :- a(C, E), b(C, D).",
        )
        .unwrap();
        let catalog = Arc::new(LiveCatalog::new(&views, ServeConfig::default()));
        NetServer::start(catalog, "127.0.0.1:0", config).unwrap()
    }

    fn roundtrip(stream: &mut TcpStream, payload: &str) -> String {
        write_frame(stream, payload).unwrap();
        read_frame(stream, 1 << 20)
            .unwrap()
            .expect("response frame")
    }

    #[test]
    fn frame_codec_round_trips_and_rejects_garbage() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello frame").unwrap();
        assert_eq!(buf, b"11\nhello frame");
        let mut r = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r, 64).unwrap().as_deref(),
            Some("hello frame")
        );
        assert_eq!(read_frame(&mut r, 64).unwrap(), None, "clean eof");

        let mut bad = io::Cursor::new(b"xx\npayload".to_vec());
        assert_eq!(
            read_frame(&mut bad, 64).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut oversized = io::Cursor::new(b"999\n".to_vec());
        assert_eq!(
            read_frame(&mut oversized, 64).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    /// A reader that counts the `read` calls made on it.
    struct Counted<R> {
        inner: R,
        reads: usize,
    }

    impl<R: Read> Read for Counted<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            self.inner.read(buf)
        }
    }

    fn counted(bytes: &[u8]) -> Counted<io::Cursor<Vec<u8>>> {
        Counted {
            inner: io::Cursor::new(bytes.to_vec()),
            reads: 0,
        }
    }

    #[test]
    fn a_five_digit_header_takes_three_reads() {
        let payload = "x".repeat(12_345);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut r = counted(&buf);
        assert_eq!(read_frame(&mut r, 1 << 20).unwrap(), Some(payload));
        assert!(r.reads <= 3, "{} reads", r.reads);
    }

    #[test]
    fn no_read_crosses_into_the_next_frame() {
        let mut r = counted(b"3\nbye2\nok");
        assert_eq!(read_frame(&mut r, 64).unwrap().as_deref(), Some("bye"));
        assert_eq!(read_frame(&mut r, 64).unwrap().as_deref(), Some("ok"));
        assert_eq!(read_frame(&mut r, 64).unwrap(), None);
        let mut r = counted(b"0\n0\n");
        assert_eq!(read_frame(&mut r, 64).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r, 64).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r, 64).unwrap(), None);
    }

    #[test]
    fn every_header_error_keeps_its_kind() {
        for (bytes, kind) in [
            (&b"\nxy"[..], io::ErrorKind::InvalidData),
            (b"1x\n", io::ErrorKind::InvalidData),
            (b"123456789\n", io::ErrorKind::InvalidData),
            (b"65\n", io::ErrorKind::InvalidData),
            (b"12", io::ErrorKind::UnexpectedEof),
            (b"5\nab", io::ErrorKind::UnexpectedEof),
        ] {
            let err = read_frame(&mut counted(bytes), 64).unwrap_err();
            assert_eq!(err.kind(), kind, "{:?}", String::from_utf8_lossy(bytes));
        }
        let err = read_frame(&mut counted(b"1x\n"), 64).unwrap_err();
        assert_eq!(err.to_string(), "bad frame header byte 0x78");
        let err = read_frame(&mut counted(b"65\n"), 64).unwrap_err();
        assert_eq!(err.to_string(), "frame of 65 bytes exceeds max 64");
    }

    #[test]
    fn query_ddl_and_control_frames_round_trip() {
        let mut server = start_server(NetConfig::default());
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(roundtrip(&mut conn, "ping"), "pong epoch=0");
        assert_eq!(roundtrip(&mut conn, "epoch"), "ok epoch=0 views=2");

        let answer = roundtrip(&mut conn, "query q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)");
        assert!(
            answer.starts_with("ok epoch=0 completeness=complete cached=false\n"),
            "{answer}"
        );
        assert!(answer.contains("q(X, Y) :- v1(X, Z), v2(Z, Y)"), "{answer}");
        let warm = roundtrip(&mut conn, "query q(U, W) :- a(U, T), a(T, T), b(T, W)");
        assert!(
            warm.starts_with("ok epoch=0 completeness=complete cached=true\n"),
            "{warm}"
        );

        let ddl = roundtrip(&mut conn, "add-view v3(A, B) :- b(A, B)");
        assert!(ddl.starts_with("ok epoch=1 views=3"), "{ddl}");
        let ddl = roundtrip(&mut conn, "drop-view v3");
        assert!(ddl.starts_with("ok epoch=2 views=2"), "{ddl}");

        server.shutdown();
    }

    #[test]
    fn errors_are_structured_frames_never_dropped_connections() {
        let mut server = start_server(NetConfig::default());
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let bad_arity = roundtrip(&mut conn, "query q(X) :- a(X, X, X)");
        assert!(
            bad_arity.starts_with("error code=2 vp=VP001 "),
            "{bad_arity}"
        );
        let parse = roundtrip(&mut conn, "query q(X) :- ");
        assert!(parse.starts_with("error code=2 parse error:"), "{parse}");
        let unknown = roundtrip(&mut conn, "frobnicate");
        assert!(
            unknown.starts_with("error code=2 unknown command"),
            "{unknown}"
        );
        let dup = roundtrip(&mut conn, "add-view v1(A, B) :- b(A, B)");
        assert!(
            dup.starts_with("error code=2 view `v1` already exists"),
            "{dup}"
        );
        // The connection survived every error above.
        assert_eq!(roundtrip(&mut conn, "ping"), "pong epoch=0");
        server.shutdown();
    }

    #[test]
    fn shutdown_frame_drains_and_stops_the_server() {
        let mut server = start_server(NetConfig::default());
        let addr = server.local_addr();
        let mut conn = TcpStream::connect(addr).unwrap();
        assert_eq!(roundtrip(&mut conn, "shutdown"), "bye");
        server.wait();
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may accept briefly after close; a write must fail.
                let mut c = TcpStream::connect(addr).unwrap();
                write_frame(&mut c, "ping").is_err()
                    || read_frame(&mut c, 64).ok().flatten().is_none()
            }
        );
    }

    #[test]
    fn shutdown_answers_a_request_already_waiting_at_the_gate() {
        let mut server = start_server(NetConfig {
            workers: 1,
            ..NetConfig::default()
        });
        let shared = server.shared.clone();
        let held = shared.gate.enter(None).expect("an empty gate admits");
        let mut waiting = TcpStream::connect(server.local_addr()).unwrap();
        write_frame(&mut waiting, "query q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)").unwrap();
        let give_up = Instant::now() + Duration::from_secs(10);
        while shared.gate.waiting() != 1 {
            assert!(
                Instant::now() < give_up,
                "the request never reached the gate"
            );
            std::thread::yield_now();
        }
        let mut control = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(roundtrip(&mut control, "shutdown"), "bye");
        assert_eq!(
            shared.gate.waiting(),
            1,
            "still waiting: the close shed nothing"
        );
        drop(held);
        // Admitted before the close: a promise, even though the server
        // is draining when its turn comes.
        let answer = read_frame(&mut waiting, 1 << 20)
            .unwrap()
            .expect("answered");
        assert!(
            answer.starts_with("ok epoch=0 completeness=complete "),
            "{answer}"
        );
        server.wait();
    }

    #[test]
    fn finished_handlers_are_reaped_under_connection_churn() {
        let mut server = start_server(NetConfig::default());
        for _ in 0..300 {
            let mut conn = TcpStream::connect(server.local_addr()).unwrap();
            assert_eq!(roundtrip(&mut conn, "ping"), "pong epoch=0");
        }
        // Each accept reaps the handlers that finished before it; only
        // the last few connections can still be winding down.
        let tracked = server.shared.handlers.lock().len();
        assert!(
            tracked <= 8,
            "{tracked} handler handles tracked after 300 connections"
        );
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped() {
        obs::set_enabled(true);
        let reaped = || obs::counter_value("serve.net_reaped_idle");
        let reaped_before = reaped();
        let mut server = start_server(NetConfig {
            idle_timeout: Duration::from_millis(120),
            ..NetConfig::default()
        });
        let mut idle = TcpStream::connect(server.local_addr()).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // The server hangs up on a connection that never starts a frame.
        assert_eq!(idle.read(&mut [0u8; 1]).unwrap(), 0, "hung up on");
        assert_eq!(reaped() - reaped_before, 1, "idle connection reaped");
        // The server itself is still healthy.
        let mut fresh = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(roundtrip(&mut fresh, "ping"), "pong epoch=0");
        server.shutdown();
    }

    #[test]
    fn zero_capacity_queue_sheds_honestly() {
        let mut server = start_server(NetConfig {
            queue_capacity: 1,
            workers: 1,
            default_deadline: Some(Duration::from_millis(1)),
            ..NetConfig::default()
        });
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        // With a 1ms default deadline and a fresh EWMA the first request
        // usually computes; either way every response is ok or an honest
        // shed — never silence.
        for _ in 0..4 {
            let r = roundtrip(&mut conn, "query q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)");
            assert!(r.starts_with("ok ") || r.starts_with("shed reason="), "{r}");
            if let Some(rest) = r.strip_prefix("shed ") {
                assert!(
                    rest.contains("completeness=deadline_exceeded"),
                    "sheds carry honest completeness: {r}"
                );
            }
        }
        server.shutdown();
    }
}
