//! Closed-loop load generator for the network serving layer.
//!
//! Each client thread owns one connection and drives it closed-loop:
//! send a `query` frame, block for the response, repeat. Offered load is
//! therefore controlled by the client count — the standard way to push a
//! server into overload without open-loop coordinated omission.
//!
//! **Retry with jittered exponential backoff.** A connection that dies
//! mid-request (injected accept/read/write faults, or a real network
//! blip) is retried on a fresh connection up to `max_retries` times,
//! sleeping `base_backoff · 2^attempt · jitter` between attempts
//! (jitter uniform in [0.5, 1.0), from a deterministic xorshift PRNG so
//! runs are reproducible). Retries are counted (`serve.retries`), and a
//! request that exhausts its retries is a **loud** failure
//! (`failed_after_retries`) — the soak harness asserts it stays zero,
//! which combined with the accounting identity below proves no request
//! was ever silently dropped.
//!
//! **Accounting identity.** Every offered request ends in exactly one
//! bucket: `ok + shed + errors + failed_after_retries == offered`.
//!
//! **Epoch monotonicity.** Responses carry the serving epoch. Within one
//! closed-loop client, epochs must never go backwards (the catalog swap
//! publishes the new snapshot before any later request grabs one); a
//! regression is counted in `stale_epoch` and asserted zero by the DDL
//! soak.

use crate::net::{read_frame, write_frame};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use viewplan_obs as obs;
use viewplan_sync::thread;

/// Load-generator knobs.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests each client offers.
    pub requests_per_client: usize,
    /// Per-request deadline sent on the wire (`deadline-ms=N`).
    pub deadline_ms: Option<u64>,
    /// Retry attempts per request after a transport failure.
    pub max_retries: u32,
    /// Base backoff; attempt `k` sleeps `base · 2^k · jitter`.
    pub base_backoff: Duration,
    /// PRNG seed for the backoff jitter.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            clients: 4,
            requests_per_client: 25,
            deadline_ms: None,
            max_retries: 8,
            base_backoff: Duration::from_millis(2),
            seed: 20010521,
        }
    }
}

/// What a load-generator run observed (summed over clients).
#[derive(Clone, Debug, Default)]
pub struct LoadgenReport {
    /// Requests offered (clients × requests each).
    pub offered: u64,
    /// `ok …` responses.
    pub ok: u64,
    /// `shed …` responses (honest refusals).
    pub shed: u64,
    /// `error …` responses (structured, still answered).
    pub errors: u64,
    /// Transport-level retry attempts that were needed.
    pub retries: u64,
    /// Requests lost even after retrying — silent drops. Must be zero.
    pub failed_after_retries: u64,
    /// Per-client epoch regressions observed. Must be zero.
    pub stale_epoch: u64,
    /// `ok` responses answered from the cache.
    pub cached: u64,
    /// Wall-clock of the whole run.
    pub elapsed: Duration,
    /// Per-request latency, microseconds, successful (`ok`/`shed`/
    /// `error`-answered) requests only, unsorted.
    pub latency_us: Vec<u64>,
}

impl LoadgenReport {
    /// Completed requests per second over the run.
    pub fn throughput_rps(&self) -> f64 {
        let answered = (self.ok + self.shed + self.errors) as f64;
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            answered / secs
        } else {
            0.0
        }
    }

    /// The accounting identity: every offered request landed in exactly
    /// one bucket.
    pub fn accounted(&self) -> bool {
        self.ok + self.shed + self.errors + self.failed_after_retries == self.offered
    }

    /// Latency percentile in microseconds (nearest-rank on the recorded
    /// samples; 0 when nothing completed).
    pub fn latency_percentile(&self, q: f64) -> u64 {
        let mut sorted = self.latency_us.clone();
        sorted.sort_unstable();
        percentile(&sorted, q)
    }
}

/// Nearest-rank percentile over an ascending slice.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Deterministic xorshift64* PRNG for backoff jitter — reproducible runs
/// without pulling in a real RNG dependency.
struct Jitter(u64);

impl Jitter {
    fn new(seed: u64) -> Jitter {
        Jitter(seed.max(1))
    }

    /// Uniform in [0.5, 1.0).
    fn factor(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        0.5 + (self.0 >> 11) as f64 / (1u64 << 53) as f64 / 2.0
    }
}

/// One response, classified.
enum Answered {
    Ok { epoch: Option<u64>, cached: bool },
    Shed,
    Error,
}

fn classify(response: &str) -> Answered {
    let first = response.lines().next().unwrap_or("");
    if first.starts_with("ok ") || first.starts_with("pong") {
        Answered::Ok {
            epoch: first
                .split_whitespace()
                .find_map(|t| t.strip_prefix("epoch=")?.parse().ok()),
            cached: first.contains("cached=true"),
        }
    } else if first.starts_with("shed") {
        Answered::Shed
    } else {
        Answered::Error
    }
}

/// One closed-loop request: send the frame, read the response; any io
/// failure invalidates the connection (the caller reconnects on retry).
fn attempt(conn: &mut Option<TcpStream>, addr: SocketAddr, payload: &str) -> io::Result<String> {
    if conn.is_none() {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        *conn = Some(stream);
    }
    let result = (|| {
        let stream = conn
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "no connection"))?;
        write_frame(stream, payload)?;
        read_frame(stream, 1 << 20)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-request")
        })
    })();
    if result.is_err() {
        *conn = None;
    }
    result
}

fn client_loop(
    addr: SocketAddr,
    queries: Vec<String>,
    config: LoadgenConfig,
    client_id: usize,
) -> LoadgenReport {
    let mut report = LoadgenReport::default();
    let mut jitter = Jitter::new(config.seed.wrapping_mul(0x9e3779b97f4a7c15) ^ client_id as u64);
    let mut conn: Option<TcpStream> = None;
    let mut last_epoch: Option<u64> = None;
    for i in 0..config.requests_per_client {
        let src = &queries[i % queries.len()];
        let payload = match config.deadline_ms {
            Some(ms) => format!("query deadline-ms={ms} {src}"),
            None => format!("query {src}"),
        };
        report.offered += 1;
        let started = Instant::now();
        let mut answered = None;
        for attempt_no in 0..=config.max_retries {
            match attempt(&mut conn, addr, &payload) {
                Ok(response) => {
                    answered = Some(response);
                    break;
                }
                Err(_) if attempt_no < config.max_retries => {
                    report.retries += 1;
                    obs::counter!("serve.retries").incr();
                    let backoff = config
                        .base_backoff
                        .mul_f64(f64::from(1u32 << attempt_no.min(6)) * jitter.factor());
                    thread::sleep(backoff);
                }
                Err(_) => {}
            }
        }
        match answered {
            Some(response) => {
                report.latency_us.push(started.elapsed().as_micros() as u64);
                match classify(&response) {
                    Answered::Ok { epoch, cached } => {
                        report.ok += 1;
                        report.cached += u64::from(cached);
                        if let Some(e) = epoch {
                            // Closed-loop ordering: a later request grabs
                            // a later (or same) snapshot — going
                            // backwards means a stale epoch answered.
                            if last_epoch.is_some_and(|prev| e < prev) {
                                report.stale_epoch += 1;
                            }
                            last_epoch = Some(e);
                        }
                    }
                    Answered::Shed => report.shed += 1,
                    Answered::Error => report.errors += 1,
                }
            }
            None => report.failed_after_retries += 1,
        }
    }
    report
}

/// Runs the closed-loop load: `clients` threads, each offering
/// `requests_per_client` requests drawn round-robin from `queries`
/// (plain rule sources, e.g. `q(X) :- e(X, Y)`).
pub fn run_loadgen(addr: SocketAddr, queries: &[String], config: &LoadgenConfig) -> LoadgenReport {
    if queries.is_empty() || config.clients == 0 {
        return LoadgenReport::default();
    }
    let started = Instant::now();
    let mut handles = Vec::new();
    for client_id in 0..config.clients {
        let queries = queries.to_vec();
        let config = config.clone();
        let builder = thread::Builder::new().name(format!("viewplan-loadgen-{client_id}"));
        match builder.spawn(move || client_loop(addr, queries, config, client_id)) {
            Ok(h) => handles.push(h),
            Err(_) => break,
        }
    }
    let mut total = LoadgenReport::default();
    for h in handles {
        if let Ok(r) = h.join() {
            total.offered += r.offered;
            total.ok += r.ok;
            total.shed += r.shed;
            total.errors += r.errors;
            total.retries += r.retries;
            total.failed_after_retries += r.failed_after_retries;
            total.stale_epoch += r.stale_epoch;
            total.cached += r.cached;
            total.latency_us.extend(r.latency_us);
        }
    }
    total.elapsed = started.elapsed();
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LiveCatalog, NetConfig, NetServer, ServeConfig};
    use std::sync::Arc;
    use viewplan_cq::parse_views;

    fn start() -> NetServer {
        let views = parse_views(
            "v1(A, B) :- a(A, B), a(B, B).\n\
             v2(C, D) :- a(C, E), b(C, D).",
        )
        .unwrap();
        let catalog = Arc::new(LiveCatalog::new(&views, ServeConfig::default()));
        NetServer::start(catalog, "127.0.0.1:0", NetConfig::default()).unwrap()
    }

    #[test]
    fn closed_loop_run_accounts_for_every_request() {
        let mut server = start();
        let queries = vec![
            "q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)".to_string(),
            "q(U) :- a(U, U)".to_string(),
        ];
        let config = LoadgenConfig {
            clients: 3,
            requests_per_client: 10,
            ..LoadgenConfig::default()
        };
        let report = run_loadgen(server.local_addr(), &queries, &config);
        assert_eq!(report.offered, 30);
        assert_eq!(report.failed_after_retries, 0);
        assert_eq!(report.stale_epoch, 0);
        assert!(report.accounted(), "{report:?}");
        assert_eq!(report.ok, 30, "healthy server answers everything");
        assert!(report.cached > 0, "repeats hit the cache");
        assert!(report.latency_percentile(0.5) <= report.latency_percentile(0.99));
        assert!(report.throughput_rps() > 0.0);
        server.shutdown();
    }

    #[test]
    fn jitter_is_deterministic_and_in_range() {
        let mut a = Jitter::new(42);
        let mut b = Jitter::new(42);
        for _ in 0..100 {
            let f = a.factor();
            assert_eq!(f, b.factor());
            assert!((0.5..1.0).contains(&f), "{f}");
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.5), 50);
        assert_eq!(percentile(&sorted, 0.95), 95);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
