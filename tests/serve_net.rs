//! End-to-end tests of `viewplan serve --listen` and `viewplan loadgen`:
//! the spawned binary speaking the length-prefixed frame protocol over a
//! real socket, line-for-line parity between the stdin and socket
//! front-ends, exit-code parity, overload shedding and drain at the
//! admission gate, and the `VIEWPLAN_FAULT` serving-fault points.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const VIEWS: &str = "v1(A, B) :- e(A, B).\nv2(A, B) :- f(A, B).\n";
const QUERY: &str = "q(X, Y) :- e(X, Y)";

fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

/// A `viewplan serve --listen 127.0.0.1:0` child plus the address it
/// printed to stderr. Dropping without [`Server::shutdown`] kills the
/// child so a failing test never leaks a listener.
struct Server {
    child: Child,
    addr: String,
    stderr: BufReader<std::process::ChildStderr>,
}

impl Server {
    fn start(views_path: &std::path::Path, faults: Option<&str>, extra: &[&str]) -> Server {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_viewplan"));
        cmd.arg("serve")
            .arg(views_path)
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        match faults {
            Some(f) => cmd.env("VIEWPLAN_FAULT", f),
            None => cmd.env_remove("VIEWPLAN_FAULT"),
        };
        let mut child = cmd.spawn().expect("failed to spawn viewplan serve");
        let mut stderr = BufReader::new(child.stderr.take().unwrap());
        let mut line = String::new();
        stderr.read_line(&mut line).unwrap();
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("expected a listening banner, got {line:?}"))
            .to_string();
        Server {
            child,
            addr,
            stderr,
        }
    }

    fn connect(&self) -> TcpStream {
        let conn = TcpStream::connect(&self.addr).expect("connect to spawned server");
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        conn.set_write_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        conn
    }

    /// Sends a `shutdown` frame and asserts the child drains and exits 0.
    fn shutdown(mut self) {
        let mut conn = self.connect();
        assert_eq!(roundtrip(&mut conn, "shutdown"), "bye");
        let status = self.child.wait().unwrap();
        assert!(status.success(), "server exited with {status}");
        let mut rest = String::new();
        self.stderr.read_to_string(&mut rest).unwrap();
        assert!(rest.contains("server stopped"), "stderr tail: {rest:?}");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn send(conn: &mut TcpStream, payload: &str) {
    let frame = format!("{}\n{payload}", payload.len());
    conn.write_all(frame.as_bytes()).unwrap();
    conn.flush().unwrap();
}

/// Reads one frame; `None` when the server closed the connection.
fn recv(conn: &mut TcpStream) -> Option<String> {
    let mut len = 0usize;
    let mut digits = 0;
    loop {
        let mut byte = [0u8; 1];
        match conn.read(&mut byte) {
            Ok(0) => return None,
            Ok(_) => {}
            Err(_) => return None,
        }
        match byte[0] {
            b'\n' if digits > 0 => break,
            d @ b'0'..=b'9' => {
                len = len * 10 + usize::from(d - b'0');
                digits += 1;
            }
            other => panic!("bad frame header byte 0x{other:02x}"),
        }
    }
    let mut payload = vec![0u8; len];
    conn.read_exact(&mut payload).ok()?;
    Some(String::from_utf8(payload).unwrap())
}

fn roundtrip(conn: &mut TcpStream, payload: &str) -> String {
    send(conn, payload);
    recv(conn).unwrap_or_else(|| panic!("connection dropped answering {payload:?}"))
}

#[test]
fn socket_serves_queries_and_ddl_end_to_end() {
    let views = temp_file("viewplan_net_views.vp", VIEWS);
    let server = Server::start(&views, None, &[]);
    let mut conn = server.connect();

    assert_eq!(roundtrip(&mut conn, "ping"), "pong epoch=0");
    let cold = roundtrip(&mut conn, &format!("query {QUERY}"));
    assert!(
        cold.starts_with("ok epoch=0 completeness=complete cached=false\n"),
        "{cold}"
    );
    assert!(cold.contains("v1(X, Y)"), "{cold}");
    let warm = roundtrip(&mut conn, "query q(U, W) :- e(U, W)");
    assert!(
        warm.starts_with("ok epoch=0 completeness=complete cached=true\n"),
        "{warm}"
    );

    // DDL over the same connection: epochs advance, traffic continues.
    let add = roundtrip(&mut conn, "add-view v3(A, B) :- e(A, B)");
    assert!(add.starts_with("ok epoch=1 views=3"), "{add}");
    let requeried = roundtrip(&mut conn, &format!("query {QUERY}"));
    assert!(requeried.starts_with("ok epoch=1 "), "{requeried}");
    let drop = roundtrip(&mut conn, "drop-view v3");
    assert!(drop.starts_with("ok epoch=2 views=2"), "{drop}");

    server.shutdown();
}

#[test]
fn two_frames_in_one_write_are_both_answered() {
    // The server reads through a buffer, so the second frame may already
    // sit in user space when the handler goes back to waiting on the
    // socket: it must be served from the buffer, not left until the idle
    // timeout reaps the connection.
    let views = temp_file("viewplan_net_pipelined_views.vp", VIEWS);
    let server = Server::start(&views, None, &["--idle-timeout-ms", "2000"]);
    let mut conn = server.connect();

    let query = format!("query {QUERY}");
    let both = format!("4\nping{}\n{query}", query.len());
    conn.write_all(both.as_bytes()).unwrap();
    conn.flush().unwrap();
    assert_eq!(recv(&mut conn).as_deref(), Some("pong epoch=0"));
    let answer = recv(&mut conn).expect("the pipelined frame is answered");
    assert!(answer.starts_with("ok epoch=0 "), "{answer}");
    // The connection is still in frame sync afterwards.
    assert_eq!(roundtrip(&mut conn, "ping"), "pong epoch=0");

    server.shutdown();
}

#[test]
fn socket_errors_are_structured_and_never_drop_the_connection() {
    let views = temp_file("viewplan_net_err_views.vp", VIEWS);
    let server = Server::start(&views, None, &[]);
    let mut conn = server.connect();

    // A validation failure carries the analyzer's diagnostic code.
    let bad = roundtrip(&mut conn, "query q(X) :- e(X, X, X)");
    assert!(bad.starts_with("error code=2 vp=VP001 "), "{bad}");
    let parse = roundtrip(&mut conn, "query q(X) :- ");
    assert!(parse.starts_with("error code=2 parse error:"), "{parse}");
    let unknown = roundtrip(&mut conn, "frobnicate");
    assert!(
        unknown.starts_with("error code=2 unknown command"),
        "{unknown}"
    );
    let dup = roundtrip(&mut conn, "add-view v1(A, B) :- e(A, B)");
    assert!(
        dup.starts_with("error code=2 view `v1` already exists"),
        "{dup}"
    );
    // The same connection still answers after every error above.
    assert_eq!(roundtrip(&mut conn, "ping"), "pong epoch=0");

    server.shutdown();
}

#[test]
fn stdin_and_socket_front_ends_print_identical_ddl_acks() {
    let views = temp_file("viewplan_net_parity_views.vp", VIEWS);

    // Socket: add then drop, capturing both acknowledgements.
    let server = Server::start(&views, None, &[]);
    let mut conn = server.connect();
    let _ = roundtrip(&mut conn, &format!("query {QUERY}"));
    let socket_add = roundtrip(&mut conn, "add-view v3(A, B) :- e(A, B)");
    let socket_drop = roundtrip(&mut conn, "drop-view v3");
    server.shutdown();

    // Stdin: the same request sequence, one line per request.
    let out = Command::new(env!("CARGO_BIN_EXE_viewplan"))
        .arg("serve")
        .arg(&views)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .env_remove("VIEWPLAN_FAULT")
        .spawn()
        .map(|mut child| {
            child
                .stdin
                .take()
                .unwrap()
                .write_all(
                    format!("{QUERY}.\nadd-view v3(A, B) :- e(A, B)\ndrop-view v3\n").as_bytes(),
                )
                .unwrap();
            child.wait_with_output().unwrap()
        })
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&socket_add),
        "stdin ack differs from socket ack {socket_add:?}:\n{stdout}"
    );
    assert!(
        stdout.contains(&socket_drop),
        "stdin ack differs from socket ack {socket_drop:?}:\n{stdout}"
    );
}

/// What the stdin front-end prints for a socket reply: an answer's
/// rendering plus a blank line and DDL acks verbatim on stdout, errors as
/// `error: …` on stderr.
fn as_stdin_prints(reply: &str) -> (String, String) {
    if let Some(error) = reply.strip_prefix("error code=2 ") {
        return (String::new(), format!("error: {error}\n"));
    }
    match reply.split_once('\n') {
        Some((_status, rendering)) => (format!("{rendering}\n"), String::new()),
        None => (format!("{reply}\n"), String::new()),
    }
}

#[test]
fn stdin_and_socket_front_ends_agree_line_for_line_on_one_script() {
    let views = temp_file("viewplan_net_script_views.vp", VIEWS);
    let script = [
        format!("query {QUERY}"),
        "query q(U, W) :- e(U, W)".to_string(),
        "query q(X) :- e(X, X, X)".to_string(),
        "query q(X) :- ".to_string(),
        "add-view v3(A, B) :- e(A, B)".to_string(),
        "add-view v3(A, B) :- f(A, B)".to_string(),
        "drop-view v3".to_string(),
        "drop-view v9".to_string(),
    ];

    let server = Server::start(&views, None, &[]);
    let mut conn = server.connect();
    let replies: Vec<String> = script.iter().map(|c| roundtrip(&mut conn, c)).collect();
    server.shutdown();
    for (reply, starts) in replies.iter().zip([
        "ok epoch=0 completeness=complete cached=false\n",
        "ok epoch=0 completeness=complete cached=true\n",
        "error code=2 vp=VP001 ",
        "error code=2 parse error:",
        "ok epoch=1 views=3 invalidated=",
        "error code=2 view `v3` already exists",
        "ok epoch=2 views=2 invalidated=",
        "error code=2 unknown view `v9`",
    ]) {
        assert!(reply.starts_with(starts), "{reply:?} vs {starts:?}");
    }

    // Stdin takes the same lines; a query may also come as a bare rule
    // with the trailing `.` of a problem file.
    let input: String = script
        .iter()
        .map(|line| match line.strip_prefix("query ") {
            Some(rule) if rule.ends_with(')') => format!("{rule}.\n"),
            _ => format!("{line}\n"),
        })
        .collect();
    let mut child = Command::new(env!("CARGO_BIN_EXE_viewplan"))
        .arg("serve")
        .arg(&views)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .env_remove("VIEWPLAN_FAULT")
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());

    let (stdout, stderr): (String, String) = replies.iter().map(|r| as_stdin_prints(r)).unzip();
    assert_eq!(String::from_utf8_lossy(&out.stdout), stdout);
    let errors: String = String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter(|l| l.starts_with("error: "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(errors, stderr);
}

#[test]
fn one_slot_gate_under_eight_clients_answers_or_sheds_every_request() {
    use viewplan::cq::parse_views;
    use viewplan::serve::net::{read_frame, write_frame};
    use viewplan::serve::{LiveCatalog, NetConfig, NetServer, ServeConfig};
    const CLIENTS: usize = 8;
    const REQUESTS: usize = 12;

    // Counters on: the end of the test reads what the requests did.
    viewplan::obs::set_enabled(true);
    let catalog = LiveCatalog::new(&parse_views(VIEWS).unwrap(), ServeConfig::default());
    let mut server = NetServer::start(
        std::sync::Arc::new(catalog),
        "127.0.0.1:0",
        NetConfig {
            workers: 1,
            queue_capacity: 1,
            default_deadline: Some(Duration::from_millis(40)),
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).unwrap();
                let mut sheds = 0;
                for r in 0..REQUESTS {
                    // Distinct shapes, so most requests miss the cache and
                    // hold the one permit long enough to be contended.
                    let body: Vec<String> = (0..=(c + r) % 5)
                        .map(|i| format!("e(X{i}, X{})", i + 1))
                        .collect();
                    let query = format!("query q{c}_{r}(X0) :- {}", body.join(", "));
                    write_frame(&mut conn, &query).unwrap();
                    let reply = read_frame(&mut conn, 1 << 20)
                        .unwrap()
                        .expect("every request is answered");
                    if reply.starts_with("shed reason=") {
                        assert!(
                            reply.ends_with(" completeness=deadline_exceeded"),
                            "{reply}"
                        );
                        sheds += 1;
                    } else {
                        assert!(reply.starts_with("ok epoch=0 "), "{reply}");
                    }
                }
                sheds
            })
        })
        .collect();
    let sheds_seen: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert_eq!(
        sheds_seen,
        server.shed(),
        "client-side sheds == server-side sheds"
    );
    server.shutdown();
    // The misses ran the pipeline, each on the connection thread the
    // gate let through.
    assert!(viewplan::obs::counter_value("corecover.runs") > 0);
}

#[test]
fn shutdown_lets_a_request_waiting_at_the_gate_finish() {
    // Five interchangeable views over a five-subgoal chain: 5^5 minimal
    // rewritings — long enough (about a second in a debug build) to keep
    // the one permit while the other connections act.
    let views: String = (0..5)
        .map(|i| format!("v{i}(A, B) :- e(A, B).\n"))
        .collect();
    let views = temp_file("viewplan_net_drain_views.vp", &views);
    let server = Server::start(
        &views,
        None,
        &[
            "--workers",
            "1",
            "--queue-capacity",
            "1",
            "--no-grouping",
            "--all-minimal",
        ],
    );
    let body: Vec<String> = (0..5).map(|i| format!("e(X{i}, X{})", i + 1)).collect();

    let mut slow = server.connect();
    send(
        &mut slow,
        &format!("query q(X0, X5) :- {}", body.join(", ")),
    );
    // The sleeps only order the three arrivals; the probe is what shows
    // that a request is waiting.
    std::thread::sleep(Duration::from_millis(10));
    let mut waiting = server.connect();
    send(&mut waiting, &format!("query {QUERY}"));
    std::thread::sleep(Duration::from_millis(10));
    // The one waiting slot is taken exactly when a request waits behind
    // a running one, and a third query is then refused on arrival. Were
    // the slow query over already, the probe would be answered `ok` and
    // the test would fail here instead of passing without a waiter.
    let mut control = server.connect();
    assert_eq!(
        roundtrip(&mut control, &format!("query {QUERY}")),
        "shed reason=queue_full completeness=deadline_exceeded",
        "no request is waiting at the gate"
    );
    assert_eq!(roundtrip(&mut control, "shutdown"), "bye");

    // Admitted before the close: a promise, even though the server is
    // already draining when its turn comes.
    let answer = recv(&mut waiting).expect("the waiting request is answered");
    assert!(
        answer.starts_with("ok epoch=0 completeness=complete "),
        "{answer}"
    );
    let answer = recv(&mut slow).expect("the running request is answered");
    assert!(
        answer.starts_with("ok epoch=0 completeness=complete "),
        "{answer}"
    );

    let mut server = server;
    let status = server.child.wait().unwrap();
    assert!(status.success(), "server exited with {status}");
}

#[test]
fn both_front_ends_reject_a_bad_views_file_with_exit_code_2() {
    // VP001 inside the view set: the arity of e/2 vs e/3 conflicts.
    let bad = temp_file(
        "viewplan_net_bad_views.vp",
        "v1(A, B) :- e(A, B).\nv2(A) :- e(A, A, A).\n",
    );
    for listen in [false, true] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_viewplan"));
        cmd.arg("serve").arg(&bad).stdin(Stdio::null());
        if listen {
            cmd.args(["--listen", "127.0.0.1:0"]);
        }
        let out = cmd.output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "listen={listen} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("VP001"));
    }
}

/// One serving fault per point: the affected request (at most) fails or
/// the connection closes, the *next* attempt succeeds, and the server
/// stays healthy throughout — no hang, no crash, no silent wrong answer.
#[test]
fn injected_serving_faults_degrade_one_request_then_recover() {
    for fault in ["accept:1", "read:1", "write:1"] {
        let views = temp_file(
            &format!("viewplan_net_fault_{}", fault.replace(':', "_")),
            VIEWS,
        );
        let server = Server::start(&views, Some(fault), &[]);
        // The faulted attempt: the stream may be dropped at accept, after
        // the read, or before the write — all surface as a lost
        // connection, never a corrupt frame.
        {
            let mut conn = server.connect();
            send(&mut conn, "ping");
            let _ = recv(&mut conn); // None (dropped) or a late pong — both fine
        }
        // Recovery: a fresh connection works; the one-shot fault is spent.
        let mut conn = server.connect();
        assert_eq!(
            roundtrip(&mut conn, "ping"),
            "pong epoch=0",
            "after {fault}"
        );
        let answer = roundtrip(&mut conn, &format!("query {QUERY}"));
        assert!(answer.starts_with("ok epoch=0 "), "after {fault}: {answer}");
        server.shutdown();
    }
}

#[test]
fn injected_swap_fault_fails_one_ddl_and_preserves_the_old_epoch() {
    let views = temp_file("viewplan_net_fault_swap.vp", VIEWS);
    let server = Server::start(&views, Some("swap:1"), &[]);
    let mut conn = server.connect();

    let failed = roundtrip(&mut conn, "add-view v3(A, B) :- e(A, B)");
    assert!(failed.starts_with("error code=2 "), "{failed}");
    // The failed swap left the catalog on the old epoch, still serving.
    assert_eq!(roundtrip(&mut conn, "ping"), "pong epoch=0");
    let answer = roundtrip(&mut conn, &format!("query {QUERY}"));
    assert!(answer.starts_with("ok epoch=0 "), "{answer}");
    // The retry succeeds: the one-shot fault was consumed.
    let retried = roundtrip(&mut conn, "add-view v3(A, B) :- e(A, B)");
    assert!(retried.starts_with("ok epoch=1 views=3"), "{retried}");

    server.shutdown();
}

#[test]
fn loadgen_cli_accounts_for_every_request() {
    let views = temp_file("viewplan_net_loadgen_views.vp", VIEWS);
    let queries = temp_file(
        "viewplan_net_loadgen_queries.vp",
        "q(X, Y) :- e(X, Y).\nq(X, Y) :- f(X, Y).\n",
    );
    let server = Server::start(&views, None, &[]);
    let out = Command::new(env!("CARGO_BIN_EXE_viewplan"))
        .arg("loadgen")
        .arg(&queries)
        .args([
            "--connect",
            &server.addr,
            "--clients",
            "3",
            "--requests",
            "8",
        ])
        .env_remove("VIEWPLAN_FAULT")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("24 offered"), "{stdout}");
    assert!(stdout.contains("24 ok"), "{stdout}");
    server.shutdown();
}

#[test]
fn loadgen_without_a_server_fails_cleanly() {
    let queries = temp_file("viewplan_net_orphan_queries.vp", "q(X, Y) :- e(X, Y).\n");
    // A bound-then-dropped listener yields a port nothing listens on.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let out = Command::new(env!("CARGO_BIN_EXE_viewplan"))
        .arg("loadgen")
        .arg(&queries)
        .args([
            "--connect",
            &format!("127.0.0.1:{port}"),
            "--clients",
            "1",
            "--requests",
            "2",
            "--max-retries",
            "1",
        ])
        .env_remove("VIEWPLAN_FAULT")
        .output()
        .unwrap();
    // Every request fails after retries: reported honestly, and the
    // accounting identity still closes (failed-after-retries bucket).
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    assert!(
        stdout.contains("failed after exhausting retries"),
        "{stdout}"
    );
}
