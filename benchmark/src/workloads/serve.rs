//! `serve_hot` and `serve_churn` — the served request, over TCP.
//!
//! Closed loop: one client connection, sending its next request when the
//! previous reply has arrived, against a `NetServer` with two workers
//! started in this process on `127.0.0.1:0`. The catalog holds the three
//! shapes on disjoint predicates.
//!
//! One connection, not two: with two, the server's six threads share this
//! machine's two vCPUs, and the 250 ms slices of a single `serve_hot` run
//! range from 2700 to 6000 queries per second (their upper quartile moves
//! 12 % between identical runs); with one they range from 2000 to 2800
//! (2.4 %). Every in-process workload shows the same: one busy vCPU is
//! steady on this host, two are not.
//!
//! * `serve_hot`: 3000 views, and 48 distinct canonical queries, far
//!   fewer than the cache's 4096 entries, each sent under one of 32 sets
//!   of variable names, so every request is a hit that still goes through
//!   canonicalise and denormalise. `core` does nothing; frame codec →
//!   `parse_query` → `validate` → `canonicalize` → cache probe →
//!   denormalise → `render` carry the request. Star hits render long
//!   answers (hundreds of rewritings), which keeps the mix compute-bound
//!   enough to repeat; a stream of nothing but 8 µs chain hits measures
//!   the scheduler and is deliberately not a workload.
//! * `serve_churn`: 600 views, Zipf(1.0) popularity over 3000 distinct
//!   canonical queries against a cache of 512 entries (working set ≫ cache, so
//!   evictions on every run), and every 200th request is replaced by an
//!   alternating `add-view`/`drop-view` of a view over the star
//!   predicates. The cache is used for eviction, `retarget` and
//!   invalidation, and the catalog swaps epochs under traffic. A hit-path
//!   gain that slows DDL or raises misses shows here. DDL is driven by
//!   request count, not by a timer.
//!
//! Checks, after the window: every reply is `ok` and `complete`; epochs
//! never go backwards on a connection; sent = ok + shed + errors; and
//! the first replies of each round are compared byte for byte with a
//! cacheless `BatchServer` over a static catalog in the same state (the
//! base catalog for even epochs, base + the extra view for odd ones),
//! whose rewritings are in turn checked to be equivalent to the query.

use super::{corecover_config, load_views, STRUCTURE_SEED};
use crate::gen::{distinct_queries, rename_variables, Checksum, Family, Rng, Shape, Zipf};
use crate::harness::{
    layer_summary, process_metrics, run_rounds, setup_metrics, span_mean_us, with_collection,
    Outcome, Phases, RunOptions, TraceSample, Verdicts, TRACED_WINDOW_SHARE,
};
use crate::metrics::{ratio, Values};
use crate::procinfo;
use crate::stats::{median, percentile, sorted, Latencies};
use std::collections::HashMap;
use std::io::Cursor;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use viewplan_core::is_equivalent_rewriting;
use viewplan_cq::{parse_query, Symbol, View, ViewSet};
use viewplan_engine::Engine;
use viewplan_obs as obs;
use viewplan_serve::net::{read_frame, write_frame};
use viewplan_serve::{BatchServer, CacheStats, LiveCatalog, NetConfig, NetServer, ServeConfig};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    Hot,
    Churn,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Hot => "serve_hot",
            Mix::Churn => "serve_churn",
        }
    }
}

const WORKERS: usize = 2;
/// Sets of variable names a query is sent under. A pool rather than
/// fresh names per request: the program interns every identifier for
/// the life of the process.
const NAME_SETS: usize = 32;
/// Replies per round compared with the reference server.
const KEPT_REPLIES: usize = 150;
/// The request after which the client reads the process's peak memory: a
/// fixed amount of work, so a faster server does not read a higher peak.
const RSS_MARK: usize = 2000;
const MAX_FRAME: usize = 1 << 22;
/// Length of the slices an untraced window is cut into; see
/// [`undisturbed`].
const SLICE: Duration = Duration::from_millis(250);

/// The view the client adds and drops: a join of two star relations, so
/// adding it touches every cached star answer.
const EXTRA_VIEW: &str = "vsx(A, B, C, D, E) :- s0(A, B, C), s1(A, D, E)";
const EXTRA_VIEW_NAME: &str = "vsx";

struct Sizes {
    views_per_shape: usize,
    distinct: usize,
    cache_capacity: usize,
    /// Steps in the client's request plan; the plan repeats after that.
    plan_len: usize,
    /// On `serve_churn`, a DDL statement takes the place of every
    /// this-many-th request.
    ddl_every: usize,
}

fn sizes(mix: Mix, smoke: bool) -> Sizes {
    let (distinct, cache_capacity) = match (mix, smoke) {
        (Mix::Hot, false) => (48, 4096),
        (Mix::Hot, true) => (12, 4096),
        (Mix::Churn, false) => (3000, 512),
        (Mix::Churn, true) => (200, 24),
    };
    Sizes {
        views_per_shape: match (mix, smoke) {
            (_, true) => 40,
            (Mix::Hot, false) => 1000,
            (Mix::Churn, false) => 200,
        },
        distinct,
        cache_capacity,
        plan_len: if smoke { 600 } else { 8192 },
        ddl_every: if smoke { 20 } else { 200 },
    }
}

#[derive(Clone)]
enum Step {
    /// A `query …` frame.
    Query { frame: String },
    /// Client 0's DDL turn; which statement is sent alternates.
    Ddl,
}

struct Inputs {
    view_text: String,
    /// Distinct queries under the variable prefix `X`, most popular first.
    queries: Vec<String>,
    /// The client's requests, in order.
    plan: Vec<Step>,
    checksum: u64,
}

/// The catalog and the distinct queries (for `serve_churn`, in popularity
/// order) come from the fixed structure seed; `--seed` draws each
/// request sequence and the variable names of every request.
/// A hit costs 10 µs or 1 ms depending on how many rewritings its answer
/// renders, so 48 queries *redrawn* per seed are a different traffic mix
/// per seed (throughput 14.3–17.4 k over ten seeds).
fn generate(mix: Mix, opts: &RunOptions, sizes: &Sizes) -> Inputs {
    let structure = Rng::new(STRUCTURE_SEED).fork("serve");
    let seeded = Rng::new(opts.seed).fork(mix.name());
    let mut checksum = Checksum::new();
    let mut families = Vec::new();
    let mut view_text = String::new();
    for shape in Shape::ALL {
        let mut rng = structure.fork(shape.name());
        let family = Family::new(shape, 10, &mut rng);
        let nd = match shape {
            Shape::Star => 2,
            Shape::Chain => 0,
            Shape::Random => 1,
        };
        for view in family.views(sizes.views_per_shape, nd, false, &mut rng) {
            view_text.push_str(&view);
            view_text.push_str(".\n");
        }
        families.push(family);
    }
    checksum.update(view_text.as_bytes());
    let mut rng = structure.fork(mix.name());
    // Hot queries use whole templates: a star hit then denormalises and
    // renders hundreds of rewritings, which keeps the stream compute-bound
    // enough to repeat. The churn mix needs 3000 distinct queries, more
    // than whole templates give, so it takes five to eight subgoals.
    let min_subgoals = match mix {
        Mix::Hot => 8,
        Mix::Churn => 5,
    };
    let queries = distinct_queries(&families, sizes.distinct, min_subgoals, 2, &mut rng);
    for q in &queries {
        checksum.update(q.as_bytes());
    }
    let zipf = Zipf::new(queries.len(), 1.0);
    let mut rng = seeded.fork("requests");
    let plan = (0..sizes.plan_len)
        .map(|i| {
            if mix == Mix::Churn && (i + 1) % sizes.ddl_every == 0 {
                return Step::Ddl;
            }
            let query = match mix {
                Mix::Hot => rng.below(queries.len()),
                Mix::Churn => zipf.sample(&mut rng),
            };
            let names = format!("N{}v", rng.below(NAME_SETS));
            let frame = format!("query {}", rename_variables(&queries[query], "X", &names));
            checksum.update(frame.as_bytes());
            Step::Query { frame }
        })
        .collect();
    Inputs {
        view_text,
        queries,
        plan,
        checksum: checksum.value(),
    }
}

fn serve_config(sizes: &Sizes) -> ServeConfig {
    ServeConfig {
        cache_capacity: sizes.cache_capacity,
        corecover: corecover_config(),
        engine: Engine::Columnar,
        ..ServeConfig::default()
    }
}

/// Every query the warm-up sends: all of them when they fit the cache,
/// else the most popular ones up to its capacity.
fn warm_up_frames(inputs: &Inputs, sizes: &Sizes) -> Vec<String> {
    inputs
        .queries
        .iter()
        .take(sizes.cache_capacity)
        .map(|q| format!("query {q}"))
        .collect()
}

fn roundtrip(stream: &mut TcpStream, frame: &str) -> std::io::Result<String> {
    write_frame(stream, frame)?;
    read_frame(stream, MAX_FRAME)?.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        )
    })
}

/// A running server with the client connected: what set-up builds.
struct Running {
    catalog: Arc<LiveCatalog>,
    server: NetServer,
    /// `None` only while the server is being dropped.
    client: Option<TcpStream>,
}

impl Running {
    fn start(inputs: &Inputs, sizes: &Sizes) -> Running {
        let views = load_views(&inputs.view_text);
        let catalog = {
            let _span = obs::span("core.prepare_views");
            Arc::new(LiveCatalog::new(&views, serve_config(sizes)))
        };
        let server = NetServer::start(
            catalog.clone(),
            "127.0.0.1:0",
            NetConfig {
                workers: WORKERS,
                ..NetConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("cannot start the server on a loopback port: {e}"));
        let addr: SocketAddr = server.local_addr();
        let mut client =
            TcpStream::connect(addr).unwrap_or_else(|e| panic!("cannot connect to {addr}: {e}"));
        // Requests are single small frames: without this, Nagle's
        // algorithm and delayed ACKs add tens of milliseconds.
        let _ = client.set_nodelay(true);
        for frame in warm_up_frames(inputs, sizes) {
            let reply = roundtrip(&mut client, &frame)
                .unwrap_or_else(|e| panic!("warm-up request failed: {e}"));
            assert!(reply.starts_with("ok "), "warm-up reply: {reply}");
        }
        Running {
            catalog,
            server,
            client: Some(client),
        }
    }

    fn client(&mut self) -> &mut TcpStream {
        self.client
            .as_mut()
            .unwrap_or_else(|| unreachable!("the connection lives as long as the server"))
    }
}

/// Closing the connection first lets the handler thread see end of file,
/// so `shutdown` has nothing to wait for.
impl Drop for Running {
    fn drop(&mut self) {
        self.client = None;
        self.server.shutdown();
    }
}

/// The header of a reply to a query: `ok epoch=E completeness=L cached=B`.
struct ReplyHeader {
    epoch: u64,
    complete: bool,
}

fn parse_header(reply: &str) -> Option<ReplyHeader> {
    let first = reply.lines().next()?;
    let mut words = first.split(' ');
    if words.next()? != "ok" {
        return None;
    }
    let mut header = ReplyHeader {
        epoch: 0,
        complete: false,
    };
    for word in words {
        match word.split_once('=')? {
            ("epoch", v) => header.epoch = v.parse().ok()?,
            ("completeness", v) => header.complete = v == "complete",
            _ => {}
        }
    }
    Some(header)
}

/// The M1 cost in a rendered answer's `plan[m1]: … (cost N)` line, which
/// follows the rewritings; `None` for "no equivalent rewriting".
fn m1_cost(reply: &str) -> Option<f64> {
    let (_, tail) = reply.rsplit_once("(cost ")?;
    tail.split_once(')')?.0.parse().ok()
}

#[derive(Default)]
struct ClientLog {
    /// `(completed at, latency)` per query, both in nanoseconds, the
    /// first counted from the start of the window.
    queries_ns: Vec<(u64, u64)>,
    /// `(is add-view, nanoseconds)` per DDL statement.
    ddl_ns: Vec<(bool, u64)>,
    /// `(step, reply)` of the first [`KEPT_REPLIES`] query replies.
    kept: Vec<(usize, String)>,
    sent: u64,
    ok: u64,
    shed: u64,
    errors: u64,
    incomplete: u64,
    epoch_regressions: u64,
    /// Σ ln(M1 cost) and count over the replies that carry a plan.
    ln_m1_cost: (f64, u64),
    /// First few replies that were not `ok`.
    bad_replies: Vec<String>,
    rss_at_mark_mb: f64,
}

/// What one TCP window measured.
struct NetWindow {
    log: ClientLog,
    wall: Duration,
    cache: CacheStats,
    shed_by_server: u64,
}

fn cache_stats(catalog: &LiveCatalog) -> CacheStats {
    catalog
        .server()
        .cache()
        .map(|c| c.stats())
        .unwrap_or_else(|| panic!("the benchmark's servers always have a cache"))
}

/// The client's closed loop for `seconds`: the measured window.
fn run_window(
    seconds: f64,
    inputs: &Inputs,
    running: &mut Running,
    mut sample: Option<&mut TraceSample>,
) -> NetWindow {
    let before = cache_stats(&running.catalog);
    let shed_before = running.server.shed();
    // One add or drop per epoch, so the parity says whether an earlier
    // window left the extra view in the catalog, and which statement of
    // the alternating pair comes first.
    let mut ddl_turn = (running.catalog.epoch() % 2) as usize;
    let plan = &inputs.plan;
    let mut log = ClientLog::default();
    let mut last_epoch = 0;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    while Instant::now() < deadline {
        let ddl_frame;
        let (frame, is_add) = match &plan[i % plan.len()] {
            Step::Query { frame } => (frame.as_str(), None),
            Step::Ddl => {
                let add = ddl_turn.is_multiple_of(2);
                ddl_turn += 1;
                ddl_frame = if add {
                    format!("add-view {EXTRA_VIEW}")
                } else {
                    format!("drop-view {EXTRA_VIEW_NAME}")
                };
                (ddl_frame.as_str(), Some(add))
            }
        };
        let _trace = sample.as_mut().and_then(|s| s.next_op());
        let began = Instant::now();
        let reply = {
            let _span = obs::span("bench.request");
            roundtrip(running.client(), frame)
        };
        let ns = began.elapsed().as_nanos() as u64;
        log.sent += 1;
        match reply {
            Err(e) => {
                log.errors += 1;
                log.bad_replies.push(e.to_string());
                break; // the connection is gone; the rest are not sent
            }
            Ok(reply) if reply.starts_with("shed ") => log.shed += 1,
            Ok(reply) if !reply.starts_with("ok ") => {
                log.errors += 1;
                if log.bad_replies.len() < 4 {
                    log.bad_replies.push(reply);
                }
            }
            Ok(_) if is_add.is_some() => {
                log.ok += 1;
                log.ddl_ns.push((is_add == Some(true), ns));
            }
            Ok(reply) => {
                log.ok += 1;
                log.queries_ns.push((start.elapsed().as_nanos() as u64, ns));
                match parse_header(&reply) {
                    Some(h) => {
                        log.incomplete += u64::from(!h.complete);
                        log.epoch_regressions += u64::from(h.epoch < last_epoch);
                        last_epoch = last_epoch.max(h.epoch);
                    }
                    None => log.incomplete += 1,
                }
                if let Some(cost) = m1_cost(&reply) {
                    log.ln_m1_cost.0 += cost.ln();
                    log.ln_m1_cost.1 += 1;
                }
                if log.kept.len() < KEPT_REPLIES {
                    log.kept.push((i % plan.len(), reply));
                }
            }
        }
        i += 1;
        if i == RSS_MARK {
            log.rss_at_mark_mb = procinfo::peak_rss_mb();
        }
    }
    if log.rss_at_mark_mb == 0.0 {
        log.rss_at_mark_mb = procinfo::peak_rss_mb();
    }
    let wall = start.elapsed();
    let after = cache_stats(&running.catalog);
    NetWindow {
        log,
        wall,
        cache: CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            coalesced: after.coalesced - before.coalesced,
            evictions: after.evictions - before.evictions,
            rejected_incomplete: after.rejected_incomplete - before.rejected_incomplete,
            invalidated: after.invalidated - before.invalidated,
            entries: after.entries,
        },
        shed_by_server: running.server.shed() - shed_before,
    }
}

impl NetWindow {
    fn query_latencies(&self) -> Vec<u64> {
        self.log.queries_ns.iter().map(|&(_, ns)| ns).collect()
    }

    /// The window cut into [`SLICE`]-long slices (the last, partial one
    /// left out; a window shorter than four slices is cut into four):
    /// per slice the queries completed per second and their median and
    /// 95th-percentile latency in µs.
    fn slices(&self) -> Vec<[f64; 3]> {
        let slice = SLICE.min(self.wall / 4).max(Duration::from_micros(1));
        let slice_ns = slice.as_nanos() as u64;
        let whole = (self.wall.as_nanos() as u64 / slice_ns) as usize;
        let mut per_slice: Vec<Vec<u64>> = vec![Vec::new(); whole];
        for &(at, ns) in &self.log.queries_ns {
            if let Some(slice) = per_slice.get_mut((at / slice_ns) as usize) {
                slice.push(ns);
            }
        }
        per_slice
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| {
                let l = Latencies::from_nanos(s);
                [
                    s.len() as f64 / slice.as_secs_f64(),
                    l.quantile_us(0.5),
                    l.quantile_us(0.95),
                ]
            })
            .collect()
    }

    fn sent(&self) -> u64 {
        self.log.sent
    }

    fn ops_per_second(&self) -> f64 {
        ratio(self.sent() as f64, self.wall.as_secs_f64())
    }

    fn ddl_ms(&self, add: Option<bool>) -> Vec<f64> {
        self.log
            .ddl_ns
            .iter()
            .filter(|(is_add, _)| add.is_none_or(|a| a == *is_add))
            .map(|(_, ns)| *ns as f64 / 1e6)
            .collect()
    }
}

/// Cacheless servers over the static catalog in its two states: index 0
/// the base catalog (even epochs), index 1 base + the extra view (odd).
struct Reference<'a> {
    servers: Vec<(ViewSet, BatchServer)>,
    /// The rendered answer per (catalog state, request text): the same
    /// frame comes back many times, and a cold answer costs milliseconds.
    rendered: HashMap<(usize, &'a str), String>,
}

impl<'a> Reference<'a> {
    fn new(mix: Mix, inputs: &'a Inputs, sizes: &Sizes) -> Reference<'a> {
        let config = ServeConfig {
            cache_capacity: 0,
            ..serve_config(sizes)
        };
        let base = load_views(&inputs.view_text);
        let mut states = vec![base.clone()];
        if mix == Mix::Churn {
            let mut with_extra = base;
            let extra = parse_query(EXTRA_VIEW).unwrap_or_else(|e| panic!("extra view: {e}"));
            with_extra.push(View::new(extra));
            states.push(with_extra);
        }
        Reference {
            servers: states
                .into_iter()
                .map(|views| {
                    let server = BatchServer::with_config(&views, config.clone());
                    (views, server)
                })
                .collect(),
            rendered: HashMap::new(),
        }
    }
}

/// Checks the log of one window and returns the output checksum (over the
/// reference answers of a sample of the distinct queries). Operations are
/// numbered by their step in the plan.
fn check<'a>(
    inputs: &'a Inputs,
    reference: &mut Reference<'a>,
    window: &NetWindow,
    verdicts: &mut Verdicts,
) -> u64 {
    let log = &window.log;
    verdicts.check(0, log.sent == log.ok + log.shed + log.errors, || {
        format!(
            "accounting: sent {} ≠ ok {} + shed {} + errors {}",
            log.sent, log.ok, log.shed, log.errors
        )
    });
    let last_step = inputs.plan.len() - 1;
    for n in 0..(log.shed + log.errors + log.incomplete + log.epoch_regressions) as usize {
        // One failed operation each; which step failed is not recorded,
        // so they are numbered from the end of the plan.
        verdicts.check(last_step - n.min(last_step), false, || {
            format!(
                "{} shed, {} errors, {} incomplete, {} epoch regressions; {}",
                log.shed,
                log.errors,
                log.incomplete,
                log.epoch_regressions,
                log.bad_replies.join(" | ")
            )
        });
    }
    for (step, reply) in &log.kept {
        let Step::Query { frame } = &inputs.plan[*step] else {
            continue;
        };
        let op = *step;
        let Some(header) = parse_header(reply) else {
            verdicts.check(op, false, || format!("unreadable reply header: {reply}"));
            continue;
        };
        let state = (header.epoch % 2) as usize;
        let Some((views, server)) = reference.servers.get(state) else {
            verdicts.check(op, false, || format!("epoch {} without DDL", header.epoch));
            continue;
        };
        let text = frame.strip_prefix("query ").unwrap_or(frame);
        let rendered = reference.rendered.entry((state, text)).or_insert_with(|| {
            let query = parse_query(text).unwrap_or_else(|e| panic!("generated query: {e}"));
            let answer = server
                .serve(&query)
                .unwrap_or_else(|e| panic!("reference server: {e}"));
            for r in &answer.rewritings {
                verdicts.check(op, is_equivalent_rewriting(r, &query, views), || {
                    format!("`{r}` is not equivalent to its query")
                });
            }
            answer.render()
        });
        let body = reply.split_once('\n').map_or("", |(_, b)| b);
        verdicts.check(op, body == rendered.as_str(), || {
            format!(
                "reply differs from the cacheless server at epoch {}",
                header.epoch
            )
        });
    }
    let mut outputs = Checksum::new();
    let sample_every = (inputs.queries.len() / 64).max(1);
    for text in inputs.queries.iter().step_by(sample_every) {
        let query = parse_query(text).unwrap_or_else(|e| panic!("generated query: {e}"));
        let answer = reference.servers[0]
            .1
            .serve(&query)
            .unwrap_or_else(|e| panic!("reference server: {e}"));
        outputs.update(answer.render().as_bytes());
    }
    outputs.value()
}

pub fn run(mix: Mix, opts: &RunOptions) -> Outcome {
    // One connection in a closed loop has one runnable thread at a time:
    // client, connection handler, worker, handler, client. Left to the
    // scheduler, those threads sometimes share a vCPU and sometimes do
    // not, and on this guest waking an idle vCPU costs ~30 µs a hop: ten
    // runs of `serve_hot` came out as seven at p50 = 227–234 µs and three
    // at 341 µs. On one processor every hand-off is a plain context
    // switch. Server threads inherit the affinity.
    procinfo::pin_to_one_cpu();
    let sizes = sizes(mix, opts.smoke);
    let mut phases = Phases::start();
    let inputs = generate(mix, opts, &sizes);
    phases.end("generate");
    let mut values = Values::default();
    let mut verdicts = Verdicts::default();

    // Each round starts a server of its own, warms its cache, measures,
    // and shuts it down when the next round's set-up begins.
    let mut run = run_rounds(
        opts,
        || Running::start(&inputs, &sizes),
        |running, _, seconds| run_window(seconds, &inputs, running, None),
    );
    phases.end("rounds");
    let mut reference = Reference::new(mix, &inputs, &sizes);
    let mut outputs_checksum = 0;
    for window in &run.windows {
        outputs_checksum = check(&inputs, &mut reference, window, &mut verdicts);
    }
    let attempted: u64 = run.windows.iter().map(NetWindow::sent).sum();
    phases.end("checks");

    if opts.traced {
        let window = &run.windows[0];
        setup_metrics(&run.setup_tree, &mut values);
        traced_run(
            mix,
            opts,
            &inputs,
            &sizes,
            &mut run.state,
            &mut reference,
            window,
            &mut values,
            &mut verdicts,
        );
        process_metrics(
            &mut values,
            attempted,
            verdicts.failed(),
            window.query_latencies().len(),
        );
        phases.end("traced window");
    } else {
        let [throughput, p50, p95] = undisturbed(&run.windows);
        values.set("setup_s", median(&run.setup_seconds));
        values.set("throughput_ops_s", throughput);
        values.set("latency_p50_us", p50);
        values.set("latency_p95_us", p95);
        values.set("peak_rss_mb", run.windows[0].log.rss_at_mark_mb);
        let (ln_sum, plans) = run.windows.iter().fold((0.0, 0), |(s, n), w| {
            (s + w.log.ln_m1_cost.0, n + w.log.ln_m1_cost.1)
        });
        values.set("chosen_plan_cost", ratio(ln_sum, plans as f64).exp());
    }
    drop(run);
    phases.end("shutdown");

    Outcome {
        attempted,
        failed: verdicts.failed(),
        values,
        inputs_checksum: inputs.checksum,
        outputs_checksum,
        failures: verdicts.into_messages(),
        phases: phases.finish(),
    }
}

/// Throughput, median latency and 95th-percentile latency of the least
/// disturbed quarter of the run: over the 250 ms slices of every round,
/// the upper quartile of queries per second and the lower quartiles of
/// the slices' p50 and p95. Interference on this shared two-vCPU guest
/// only ever slows a slice down, and does so for seconds at a time, so
/// whole-window figures move 15–20 % between identical runs; the
/// quartile needs only a quarter of the slices to have run undisturbed.
fn undisturbed(windows: &[NetWindow]) -> [f64; 3] {
    let slices: Vec<[f64; 3]> = windows.iter().flat_map(NetWindow::slices).collect();
    let column = |k: usize| sorted(&slices.iter().map(|s| s[k]).collect::<Vec<_>>());
    [
        percentile(&column(0), 0.75),
        percentile(&column(1), 0.25),
        percentile(&column(2), 0.25),
    ]
}

/// Per-stage times of the in-process replay, in nanoseconds.
#[derive(Default)]
struct Stages {
    parse: Vec<u64>,
    validate: Vec<u64>,
    canonicalize: Vec<u64>,
    hit: Vec<u64>,
    miss: Vec<u64>,
    render: Vec<u64>,
    codec: Vec<u64>,
}

fn timed<R>(into: &mut Vec<u64>, span: &'static str, body: impl FnOnce() -> R) -> R {
    let began = Instant::now();
    let out = {
        let _span = obs::span(span);
        body()
    };
    into.push(began.elapsed().as_nanos() as u64);
    out
}

/// Replays the plan against a fresh catalog in this thread, stage by
/// stage: the same requests without sockets, queues or other threads.
fn replay(mix: Mix, inputs: &Inputs, sizes: &Sizes, requests: usize, stages: &mut Stages) {
    let views = load_views(&inputs.view_text);
    let catalog = LiveCatalog::new(&views, serve_config(sizes));
    for frame in warm_up_frames(inputs, sizes) {
        let query = parse_query(frame.strip_prefix("query ").unwrap_or(&frame))
            .unwrap_or_else(|e| panic!("generated query: {e}"));
        let _ = catalog.server().serve(&query);
    }
    let mut ddl_turn = 0usize;
    for n in 0..requests {
        let frame = match &inputs.plan[n % inputs.plan.len()] {
            Step::Query { frame } => frame,
            Step::Ddl => {
                debug_assert_eq!(mix, Mix::Churn);
                let add = ddl_turn.is_multiple_of(2);
                ddl_turn += 1;
                let outcome = if add {
                    let _span = obs::span("serve.add_view");
                    let rule =
                        parse_query(EXTRA_VIEW).unwrap_or_else(|e| panic!("extra view: {e}"));
                    catalog.add_view(View::new(rule))
                } else {
                    let _span = obs::span("serve.drop_view");
                    catalog.drop_view(Symbol::new(EXTRA_VIEW_NAME))
                };
                outcome.unwrap_or_else(|e| panic!("replayed DDL failed: {e}"));
                continue;
            }
        };
        // Canonicalisation also happens inside `serve`; it is timed on
        // its own here, outside the operation's span, so it is not
        // counted twice in the layer shares.
        let text = frame.strip_prefix("query ").unwrap_or(frame);
        let _op = obs::span("bench.op");
        let mut both_ways = Vec::with_capacity(2);
        timed(&mut both_ways, "serve.frame_codec", || {
            through_the_codec(frame)
        });
        let query = timed(&mut stages.parse, "cq.parse_query", || {
            parse_query(text).unwrap_or_else(|e| panic!("generated query: {e}"))
        });
        let server = catalog.server();
        timed(&mut stages.validate, "analyze.validate", || {
            server
                .validate(&query)
                .unwrap_or_else(|e| panic!("generated query fails validation: {e}"))
        });
        let began = Instant::now();
        let answer = {
            let _span = obs::span("serve.serve");
            server
                .serve(&query)
                .unwrap_or_else(|e| panic!("replayed request failed: {e}"))
        };
        let ns = began.elapsed().as_nanos() as u64;
        if answer.from_cache {
            stages.hit.push(ns);
        } else {
            stages.miss.push(ns);
        }
        let rendered = timed(&mut stages.render, "serve.render", || {
            format!(
                "ok epoch={} completeness={} cached={}\n{}",
                answer.epoch,
                answer.completeness.label(),
                answer.from_cache,
                answer.render()
            )
        });
        timed(&mut both_ways, "serve.frame_codec", || {
            through_the_codec(&rendered)
        });
        stages.codec.push(both_ways.iter().sum());
        drop(_op);
        timed(&mut stages.canonicalize, "containment.canonicalize", || {
            viewplan_containment::canonicalize(&query)
        });
    }
}

/// Encodes `payload` as a frame and decodes it again.
fn through_the_codec(payload: &str) {
    let mut wire = Vec::with_capacity(payload.len() + 16);
    write_frame(&mut wire, payload).unwrap_or_else(|e| panic!("frame: {e}"));
    let back = read_frame(&mut Cursor::new(&wire), MAX_FRAME);
    assert!(
        matches!(&back, Ok(Some(p)) if p == payload),
        "the frame codec does not round-trip"
    );
}

fn p50_us(nanos: &[u64]) -> f64 {
    Latencies::from_nanos(nanos).quantile_us(0.5)
}

#[allow(clippy::too_many_arguments)] // one call site; a struct would only rename the arguments
fn traced_run<'a>(
    mix: Mix,
    opts: &RunOptions,
    inputs: &'a Inputs,
    sizes: &Sizes,
    running: &mut Running,
    reference: &mut Reference<'a>,
    untraced: &NetWindow,
    values: &mut Values,
    verdicts: &mut Verdicts,
) {
    // Transport alone: ping round trips, no pipeline behind them.
    let mut pings = Vec::with_capacity(300);
    for _ in 0..300 {
        let began = Instant::now();
        let reply = roundtrip(running.client(), "ping");
        pings.push(began.elapsed().as_nanos() as u64);
        verdicts.check(0, reply.is_ok_and(|r| r.starts_with("pong")), || {
            "ping failed".to_string()
        });
    }

    // The traced window over TCP.
    let mut sample = TraceSample::new();
    let (traced, net_tree, counts) = with_collection(|| {
        let before = obs::metrics_snapshot();
        let window = run_window(
            opts.seconds * TRACED_WINDOW_SHARE,
            inputs,
            running,
            Some(&mut sample),
        );
        (
            window,
            obs::span_tree(),
            obs::metrics_snapshot().delta_since(&before),
        )
    });
    check(inputs, reference, &traced, verdicts);

    // The same requests in process, stage by stage.
    let mut stages = Stages::default();
    let replayed = (traced.sent() as usize).min(if opts.smoke { 400 } else { 6000 });
    let replay_tree = with_collection(|| {
        replay(mix, inputs, sizes, replayed, &mut stages);
        obs::span_tree()
    });

    values.set("cq.parse_query_us", p50_us(&stages.parse));
    values.set("analyze.validate_us", p50_us(&stages.validate));
    values.set("containment.canonicalize_us", p50_us(&stages.canonicalize));
    values.set("serve.hit_us", p50_us(&stages.hit));
    values.set("serve.miss_ms", p50_us(&stages.miss) / 1e3);
    values.set("serve.render_us", p50_us(&stages.render));
    values.set("serve.frame_codec_us", p50_us(&stages.codec));
    // M1 planning inside `serve.compute`, by the program's own span.
    values.set(
        "cost.plan_m1_us",
        span_mean_us(&replay_tree, "optimizer.best_plan"),
    );
    let c = |name: &str| counts.counter(name) as f64;
    super::corecover_layer_metrics(&replay_tree, stages.parse.len(), &c, values);
    values.set(
        "serve.cache.hit_ratio",
        ratio(
            traced.cache.hits as f64,
            (traced.cache.hits + traced.cache.misses) as f64,
        ),
    );
    values.set("serve.cache.evictions", traced.cache.evictions as f64);
    values.set("serve.cache.coalesced", traced.cache.coalesced as f64);
    values.set("serve.cache.invalidated", traced.cache.invalidated as f64);
    values.set("serve.cache.resident", traced.cache.entries as f64);
    values.set(
        "serve.catalog.add_view_ms",
        median(&traced.ddl_ms(Some(true))),
    );
    values.set(
        "serve.catalog.drop_view_ms",
        median(&traced.ddl_ms(Some(false))),
    );
    values.set("serve.catalog.ddl_p50_ms", median(&traced.ddl_ms(None)));
    values.set("serve.catalog.epoch_swaps", c("serve.epoch_swaps"));
    let tcp = Latencies::from_nanos(&traced.query_latencies());
    let stage_sum = p50_us(&stages.codec)
        + p50_us(&stages.parse)
        + p50_us(&stages.validate)
        + p50_us(&stages.render)
        + p50_us(if stages.hit.len() >= stages.miss.len() {
            &stages.hit
        } else {
            &stages.miss
        });
    values.set("serve.net.ping_roundtrip_us", p50_us(&pings));
    values.set("serve.net.overhead_us", tcp.quantile_us(0.5) - stage_sum);
    values.set(
        "serve.net.queue_wait_us_p50",
        counts
            .histogram("serve.queue_wait_us")
            .map_or(0.0, |h| h.percentile(0.5)),
    );
    values.set("serve.net.shed", traced.shed_by_server as f64);
    values.set("serve.net.latency_p99_us", tcp.quantile_us(0.99));
    values.set("serve.net.latency_max_us", tcp.max_us());

    // Layer shares come from the replay, where one thread runs every
    // stage; how much of the client's time the request spans explain
    // comes from the TCP window.
    layer_summary(&replay_tree, Duration::ZERO, values);
    let requests: u64 = crate::layers::by_name(&net_tree)
        .get("bench.request")
        .map_or(0, |s| s.total_ns);
    values.set(
        "layers.self_time_over_wall",
        ratio(requests as f64, traced.wall.as_nanos() as f64),
    );
    values.set(
        "obs.trace_overhead_ratio",
        ratio(untraced.ops_per_second(), traced.ops_per_second()),
    );
    if let Err(e) = sample.write(mix.name()) {
        verdicts.check(0, false, || format!("trace export: {e}"));
    }
}
