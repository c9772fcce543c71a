//! What the five workloads share: run options, the measured loop, set-up
//! repetition, verdict bookkeeping, trace export and the layer summary.

use crate::layers::{self, Layer};
use crate::metrics::{ratio, Values};
use crate::procinfo;
use crate::stats::percentile;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use viewplan_obs::{self as obs, SpanNode, Trace};

/// The seed used when none is given: the paper's conference date, the
/// same constant the repo's sweeps use.
pub const DEFAULT_SEED: u64 = 20010521;

#[derive(Clone, Debug)]
pub struct RunOptions {
    pub seed: u64,
    /// How long the measured window lasts. A window always covers every
    /// operation of the workload's pool once, so it can run longer.
    pub seconds: f64,
    /// Per-layer run: collection on, spans recorded, per-layer metrics
    /// reported in place of the end-to-end ones.
    pub traced: bool,
    /// Small inputs so the whole suite finishes in seconds; numbers from
    /// a smoke run are not for comparison.
    pub smoke: bool,
}

/// What one workload run hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    pub inputs_checksum: u64,
    pub outputs_checksum: u64,
    /// The first few failed checks, for the human report.
    pub failures: Vec<String>,
    /// Wall seconds per phase of the run, for the human report.
    pub phases: Vec<(&'static str, f64)>,
}

/// Times the phases of a run for the human report.
pub struct Phases {
    last: Instant,
    done: Vec<(&'static str, f64)>,
}

impl Phases {
    pub fn start() -> Phases {
        Phases {
            last: Instant::now(),
            done: Vec::new(),
        }
    }

    /// Closes the phase that has been running since the last call.
    pub fn end(&mut self, name: &'static str) {
        let now = Instant::now();
        self.done.push((name, (now - self.last).as_secs_f64()));
        self.last = now;
    }

    pub fn finish(self) -> Vec<(&'static str, f64)> {
        self.done
    }
}

/// Pass/fail per operation. An operation that fails several checks is
/// one failed operation.
#[derive(Default)]
pub struct Verdicts {
    failed_ops: BTreeSet<usize>,
    messages: Vec<String>,
}

impl Verdicts {
    pub fn check(&mut self, op: usize, ok: bool, message: impl FnOnce() -> String) {
        if ok {
            return;
        }
        self.failed_ops.insert(op);
        if self.messages.len() < 8 {
            self.messages.push(format!("op {op}: {}", message()));
        }
    }

    pub fn failed(&self) -> u64 {
        self.failed_ops.len() as u64
    }

    pub fn into_messages(self) -> Vec<String> {
        self.messages
    }
}

/// Per-operation latencies and the wall time of one measured window.
pub struct Window {
    pub latencies_ns: Vec<u64>,
    pub wall: Duration,
    /// `VmHWM` when the first cycle ended: the peak over set-up plus a
    /// fixed amount of work. The program interns a fresh symbol for every
    /// variable it invents and never frees one, so memory grows with the
    /// operations done; read at the end of a timed window, a faster
    /// program would show a higher peak.
    pub peak_rss_mb: f64,
}

impl Window {
    pub fn ops(&self) -> usize {
        self.latencies_ns.len()
    }
}

/// Runs `op(i % cycle)` for `i = 0, 1, …` until `seconds` have passed
/// and every operation of the cycle has run once. Only `op` is on the
/// latency clock; `keep` receives the results of the first cycle (for
/// the correctness checks that run after the window) and later results
/// are dropped, both off the latency clock but inside the wall time.
pub fn measure<R>(
    seconds: f64,
    cycle: usize,
    mut op: impl FnMut(usize) -> R,
    mut keep: impl FnMut(usize, R),
) -> Window {
    let mut latencies_ns = Vec::with_capacity(cycle * 4);
    let mut peak_rss_mb = 0.0;
    let start = Instant::now();
    let mut i = 0;
    loop {
        let began = Instant::now();
        let out = op(i % cycle);
        latencies_ns.push(began.elapsed().as_nanos() as u64);
        if i < cycle {
            keep(i, out);
        }
        i += 1;
        if i == cycle {
            peak_rss_mb = procinfo::peak_rss_mb();
        }
        if i >= cycle && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Window {
        latencies_ns,
        wall: start.elapsed(),
        peak_rss_mb,
    }
}

/// How many times an untraced run sets up and measures.
const ROUNDS: usize = 3;
/// Set-ups are repeated beyond the rounds, up to this many, while all of
/// them together have taken less than [`CHEAP_SETUP_BUDGET_S`] seconds.
const CHEAP_SETUPS: usize = 9;
const CHEAP_SETUP_BUDGET_S: f64 = 0.5;
/// The share of `--seconds` each of a traced run's two windows gets.
pub const TRACED_WINDOW_SHARE: f64 = 0.4;

/// What [`run_rounds`] hands back: the last round's state, every round's
/// set-up time and window, and — from a traced run — the span tree that
/// set-up recorded.
pub struct Rounds<S, W> {
    pub state: S,
    pub setup_seconds: Vec<f64>,
    pub windows: Vec<W>,
    pub setup_tree: Vec<SpanNode>,
}

/// Runs the rounds of a run: set-up (`build`), then a measured window
/// (`window(state, round, seconds)`; warm-up is the window's business).
///
/// An untraced run does [`ROUNDS`] rounds with `--seconds` split between
/// their windows, so that a run sets up several times and reports the
/// median set-up time. The state of the previous round is dropped before
/// the next is built, so peak memory holds one while it is measured.
///
/// A traced run does one round. Collection is on while it sets up (the
/// set-up spans end up in `setup_tree`) and off again for its window,
/// which is the untraced base of the overhead ratio and gets
/// [`TRACED_WINDOW_SHARE`] of `--seconds`; the traced window follows in
/// the workload's `traced_run`.
pub fn run_rounds<S, W>(
    opts: &RunOptions,
    mut build: impl FnMut() -> S,
    mut window: impl FnMut(&mut S, usize, f64) -> W,
) -> Rounds<S, W> {
    let (rounds, seconds) = if opts.traced {
        (1, opts.seconds * TRACED_WINDOW_SHARE)
    } else {
        (ROUNDS, opts.seconds / ROUNDS as f64)
    };
    let mut setup_seconds = Vec::with_capacity(rounds);
    let mut windows = Vec::with_capacity(rounds);
    let mut setup_tree = Vec::new();
    let mut state = None;
    for round in 0..rounds {
        drop(state.take());
        obs::set_enabled(opts.traced);
        let began = Instant::now();
        let mut built = build();
        setup_seconds.push(began.elapsed().as_secs_f64());
        if opts.traced {
            setup_tree = obs::span_tree();
            obs::set_enabled(false);
        }
        windows.push(window(&mut built, round, seconds));
        state = Some(built);
    }
    // A set-up of a few milliseconds is at the mercy of one interrupt, and
    // a median of three with it: cheap set-ups are timed a few times more.
    while !opts.traced
        && setup_seconds.len() < CHEAP_SETUPS
        && setup_seconds.iter().sum::<f64>() < CHEAP_SETUP_BUDGET_S
    {
        let began = Instant::now();
        let extra = build();
        setup_seconds.push(began.elapsed().as_secs_f64());
        drop(extra);
    }
    let Some(state) = state else {
        unreachable!("there is at least one round")
    };
    Rounds {
        state,
        setup_seconds,
        windows,
        setup_tree,
    }
}

/// Each operation's undisturbed latency in nanoseconds: the lower
/// quartile over all its repetitions in `windows` (repetition `k` of
/// operation `i` is sample `k · cycle + i` of a window).
///
/// This machine is a two-vCPU guest on a shared host. Measured on it, the
/// same process running the same inputs slows by 5–25 % for seconds at a
/// time, and never speeds up: interference has one sign. The median over
/// a 12-second window moves with it (5.7 % spread between windows of one
/// 180-second run of `execute_views`); the lower quartile of each
/// operation's repetitions moves less (3.8–4.6 %), because it only needs a
/// quarter of the repetitions to have run undisturbed.
pub fn undisturbed_ns(windows: &[Window], cycle: usize) -> Vec<f64> {
    (0..cycle)
        .map(|i| {
            let repetitions: Vec<f64> = windows
                .iter()
                .flat_map(|w| w.latencies_ns.iter().skip(i).step_by(cycle.max(1)))
                .map(|&ns| ns as f64)
                .collect();
            percentile(&crate::stats::sorted(&repetitions), 0.25)
        })
        .collect()
}

/// The end-to-end timing metrics of an untraced run of an in-process
/// workload whose operations cycle through a pool of `cycle`: latency
/// percentiles over the operations' undisturbed latencies, throughput as
/// operations per second of undisturbed operation time, set-up time as
/// the median over the rounds, peak memory at the first round's mark.
pub fn timing_metrics(
    setup_seconds: &[f64],
    windows: &[Window],
    cycle: usize,
    values: &mut Values,
) {
    let per_op = crate::stats::sorted(&undisturbed_ns(windows, cycle));
    values.set("setup_s", crate::stats::median(setup_seconds));
    values.set(
        "throughput_ops_s",
        ratio(per_op.len() as f64, per_op.iter().sum::<f64>() / 1e9),
    );
    values.set("latency_p50_us", percentile(&per_op, 0.5) / 1e3);
    values.set("latency_p95_us", percentile(&per_op, 0.95) / 1e3);
    values.set(
        "peak_rss_mb",
        windows.first().map_or(0.0, |w| w.peak_rss_mb),
    );
}

/// How many operations of a traced run are also recorded span by span
/// (with ids and parents) for the Chrome trace file; the aggregated span
/// tree covers all of them.
const TRACE_SAMPLE_OPS: usize = 64;
/// Sampling also stops once this many spans are recorded. The export is
/// checked by parsing it back with `viewplan_obs::parse_json`, whose
/// string reader revalidates the rest of the document at every character:
/// 4 MB (26 000 spans, 64 `plan_search` operations) took 130 s to parse.
const TRACE_SAMPLE_SPANS: usize = 1500;

/// Records the first operations of a traced run — up to
/// [`TRACE_SAMPLE_OPS`] of them or [`TRACE_SAMPLE_SPANS`] spans — into a
/// `viewplan_obs::Trace`, kept in memory and written when the run ends.
pub struct TraceSample {
    trace: Trace,
    remaining: usize,
}

impl TraceSample {
    pub fn new() -> TraceSample {
        TraceSample {
            trace: Trace::new(),
            remaining: TRACE_SAMPLE_OPS,
        }
    }

    /// Hold the returned guard for the length of one operation.
    pub fn next_op(&mut self) -> Option<obs::TraceGuard> {
        if !obs::enabled() || self.remaining == 0 {
            return None;
        }
        if self.trace.span_count() >= TRACE_SAMPLE_SPANS {
            self.remaining = 0;
            return None;
        }
        self.remaining -= 1;
        Some(obs::trace::install(&self.trace))
    }

    /// Writes `<dir of this executable>/traces/<workload>.trace.json`
    /// after checking it with the program's own validator.
    pub fn write(&self, workload: &str) -> Result<PathBuf, String> {
        let text = self.trace.chrome_json();
        let doc = obs::parse_json(&text).map_err(|e| format!("trace is not JSON: {e:?}"))?;
        obs::validate_chrome_trace(&doc)?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let dir = exe
            .parent()
            .ok_or_else(|| "executable has no directory".to_string())?
            .join("traces");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{workload}.trace.json"));
        std::fs::write(&path, text).map_err(|e| e.to_string())?;
        Ok(path)
    }
}

/// The `share.*` metrics and `layers.self_time_over_wall` from the span
/// tree under `bench.op`, the benchmark's per-operation span: each
/// layer's self time as a share of the tree's, and the tree's total
/// against `wall`, the wall time of the traced window.
pub fn layer_summary(tree: &[SpanNode], wall: Duration, values: &mut Values) {
    let Some(root) = layers::root(tree, "bench.op") else {
        return;
    };
    let by_layer = layers::by_layer(std::slice::from_ref(root));
    let total: u64 = by_layer.values().sum();
    let share = |members: &[Layer]| {
        let ns: u64 = members
            .iter()
            .map(|l| by_layer.get(l).copied().unwrap_or(0))
            .sum();
        ratio(ns as f64, total as f64)
    };
    values.set("share.cq_analyze", share(&[Layer::Cq, Layer::Analyze]));
    values.set(
        "share.core_containment",
        share(&[Layer::Core, Layer::Containment]),
    );
    values.set("share.cost", share(&[Layer::Cost]));
    values.set("share.engine", share(&[Layer::Engine]));
    values.set("share.serve", share(&[Layer::Serve]));
    values.set("share.harness", share(&[Layer::Harness]));
    values.set(
        "layers.self_time_over_wall",
        ratio(total as f64, wall.as_nanos() as f64),
    );
}

/// Mean total time per call of span `name` anywhere in `tree`, in µs.
pub fn span_mean_us(tree: &[SpanNode], name: &str) -> f64 {
    layers::by_name(tree)
        .get(name)
        .map_or(0.0, layers::SpanStat::mean_total_us)
}

/// Self time of span `name` summed over `tree`, per operation, in ms.
pub fn span_self_ms_per_op(tree: &[SpanNode], name: &str, ops: usize) -> f64 {
    layers::by_name(tree)
        .get(name)
        .map_or(0.0, |s| ratio(s.self_ns as f64 / 1e6, ops as f64))
}

/// The set-up metrics of a traced run, from the spans set-up recorded:
/// mean time per call, 0 for a step the workload's set-up does not have.
pub fn setup_metrics(setup_tree: &[SpanNode], values: &mut Values) {
    for (metric, span) in [
        ("cq.parse_views_ms", "cq.parse_views"),
        ("analyze.gate_ms", "analyze.gate"),
        ("core.prepare_views_ms", "core.prepare_views"),
        ("engine.load_ms", "engine.load"),
        ("engine.materialize_ms", "engine.materialize"),
        ("cost.catalog_build_ms", "cost.catalog_build"),
    ] {
        values.set(metric, span_mean_us(setup_tree, span) / 1e3);
    }
}

/// What the traced window of an in-process workload recorded.
pub struct Traced {
    pub window: Window,
    pub tree: Vec<SpanNode>,
    /// Counters over the first cycle alone, so that they repeat exactly
    /// whatever the run length.
    counts: Option<obs::MetricsSnapshot>,
}

impl Traced {
    /// A counter's increase over the first cycle.
    pub fn count(&self, name: &str) -> f64 {
        self.counts.as_ref().map_or(0.0, |c| c.counter(name) as f64)
    }
}

/// Runs the traced window of an in-process workload: collection on, the
/// first operations sampled span by span and exported as
/// `<workload>.trace.json`, and the counters snapshotted when `window`
/// calls the hook it is given — which it does when its first cycle ends.
/// Sets `obs.trace_overhead_ratio` against the `untraced` window.
pub fn traced_window(
    workload: &str,
    untraced: &Window,
    values: &mut Values,
    verdicts: &mut Verdicts,
    window: impl FnOnce(&mut TraceSample, &mut dyn FnMut()) -> Window,
) -> Traced {
    let mut sample = TraceSample::new();
    let traced = with_collection(|| {
        let before = obs::metrics_snapshot();
        let mut counts = None;
        let window = window(&mut sample, &mut || {
            counts = Some(obs::metrics_snapshot().delta_since(&before));
        });
        Traced {
            window,
            tree: obs::span_tree(),
            counts,
        }
    });
    let per_op = |w: &Window| ratio(w.wall.as_secs_f64(), w.ops() as f64);
    values.set(
        "obs.trace_overhead_ratio",
        ratio(per_op(&traced.window), per_op(untraced)),
    );
    if let Err(e) = sample.write(workload) {
        verdicts.check(0, false, || format!("trace export: {e}"));
    }
    traced
}

/// The metrics every traced run reports about itself.
pub fn process_metrics(values: &mut Values, attempted: u64, failed: u64, samples: usize) {
    let (user, sys) = procinfo::cpu_seconds();
    values.set("proc.cpu_user_s", user);
    values.set("proc.cpu_sys_s", sys);
    values.set(
        "proc.invol_ctx_switches",
        procinfo::involuntary_context_switches() as f64,
    );
    values.set("bench.failed_ratio", ratio(failed as f64, attempted as f64));
    values.set("bench.samples", samples as f64);
}

/// Runs `body` with `viewplan_obs` collection on, starting from empty
/// counters and an empty span tree, and turns collection off again.
pub fn with_collection<R>(body: impl FnOnce() -> R) -> R {
    obs::set_enabled(true);
    obs::reset();
    let out = body();
    obs::set_enabled(false);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_covers_the_cycle_even_when_time_is_up() {
        let mut kept = Vec::new();
        let w = measure(0.0, 5, |i| i * 2, |i, out| kept.push((i, out)));
        assert_eq!(w.ops(), 5);
        assert_eq!(kept, vec![(0, 0), (1, 2), (2, 4), (3, 6), (4, 8)]);
    }

    #[test]
    fn measure_keeps_cycling_until_the_time_is_up() {
        let mut kept = 0;
        let w = measure(
            0.05,
            2,
            |_| std::thread::sleep(Duration::from_millis(2)),
            |_, ()| kept += 1,
        );
        assert!(w.ops() > 2, "only {} ops in 50 ms", w.ops());
        assert_eq!(kept, 2, "only the first cycle is kept");
        assert!(w.wall >= Duration::from_millis(50));
    }

    #[test]
    fn rounds_build_measure_and_keep_the_last_state() {
        let opts = RunOptions {
            seed: 1,
            seconds: 6.0,
            traced: false,
            smoke: true,
        };
        let mut built = 0;
        let r = run_rounds(
            &opts,
            || {
                built += 1;
                built
            },
            |state, round, seconds| (*state, round, seconds),
        );
        assert_eq!(r.state, 3, "the state of the last round");
        assert_eq!(r.windows, vec![(1, 0, 2.0), (2, 1, 2.0), (3, 2, 2.0)]);
        assert_eq!(
            r.setup_seconds.len(),
            9,
            "an instant set-up is timed nine times"
        );
        assert!(r.setup_tree.is_empty());
    }

    #[test]
    fn timing_metrics_use_each_operations_lower_quartile() {
        // Two operations, five repetitions over two windows. Operation 0
        // takes 1 µs undisturbed and is disturbed twice; operation 1
        // takes 3 µs.
        let window = |ns: &[u64]| Window {
            latencies_ns: ns.to_vec(),
            wall: Duration::from_millis(1),
            peak_rss_mb: ns.len() as f64,
        };
        let windows = [
            window(&[1000, 3000, 9000, 3000, 1000, 3000]),
            window(&[1000, 3000, 7000, 3000]),
        ];
        assert_eq!(undisturbed_ns(&windows, 2), vec![1000.0, 3000.0]);
        let mut values = Values::default();
        timing_metrics(&[0.3, 0.1, 0.2], &windows, 2, &mut values);
        assert_eq!(values.get("setup_s"), 0.2);
        assert_eq!(values.get("latency_p50_us"), 2.0);
        assert!((values.get("latency_p95_us") - 2.9).abs() < 1e-9);
        assert_eq!(values.get("throughput_ops_s"), 2.0 / 4e-6);
        assert_eq!(values.get("peak_rss_mb"), 6.0, "the first round's mark");
    }

    #[test]
    fn an_operation_fails_once_however_many_checks_it_fails() {
        let mut v = Verdicts::default();
        v.check(3, true, || unreachable!());
        v.check(3, false, || "first".into());
        v.check(3, false, || "second".into());
        v.check(4, false, || "third".into());
        assert_eq!(v.failed(), 2);
        assert_eq!(v.into_messages().len(), 3);
    }
}
