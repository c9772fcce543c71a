//! `viewplan-obs` — observability for the rewriting pipeline.
//!
//! The paper's experimental section (§7, Figures 6–9) is an exercise in
//! counting: view classes, view tuples, representative tuples, and
//! wall-clock per `CoreCover` phase. This crate gives every layer of the
//! system one shared, zero-dependency way to produce those numbers:
//!
//! * **Counters** ([`Counter`], [`counter!`]) — named, process-global,
//!   atomic. Hot loops bump them with a relaxed `fetch_add`.
//! * **Histograms** ([`Histogram`], [`histogram!`]) — log₂-bucketed
//!   distributions for quantities whose spread matters (intermediate
//!   relation sizes, per-check search nodes).
//! * **Spans** ([`span`]) — RAII phase timers. Nested spans build a
//!   phase tree (`corecover.run` → `corecover.set_cover` → …) aggregated
//!   by path across the whole process.
//! * **Reporters** ([`render_report`], [`json_report`],
//!   [`report_to_stderr`], [`write_json_report`], [`prometheus_text`]) —
//!   a human-readable phase tree, a machine-readable JSON dump, and a
//!   Prometheus text exposition of everything.
//! * **Traces** ([`trace::Trace`], [`trace_event!`]) — request-scoped
//!   span trees with typed events, recorded on the thread that installed
//!   the trace (a single-thread value); export as a Chrome trace or a
//!   rendered tree. Snapshots of the registry ([`metrics_snapshot`])
//!   subtract to isolate one request's share of the global counters.
//! * **The request context** ([`ctx`]) — the one thread-local slot that
//!   holds a request's budget, trace and policy word, confined to the
//!   thread that installed it; one [`CtxGuard`] type restores it.
//!
//! Collection is **off by default**: every instrumentation point first
//! checks one relaxed atomic bool, so instrumented hot loops cost ~one
//! predictable branch when stats are off. Turn collection on with
//! [`set_enabled`]`(true)` (the `viewplan` CLI does this for `--stats`).
//!
//! ```
//! use viewplan_obs as obs;
//! obs::set_enabled(true);
//! {
//!     let _run = obs::span("demo.run");
//!     let _phase = obs::span("demo.phase");
//!     obs::counter!("demo.widgets").add(3);
//! }
//! assert_eq!(obs::counter_value("demo.widgets"), 3);
//! assert!(obs::render_report().contains("demo.phase"));
//! obs::reset();
//! obs::set_enabled(false);
//! ```

pub mod budget;
pub mod ctx;
mod json;
mod metrics;
mod prometheus;
mod report;
mod span;
pub mod trace;

pub use budget::{BudgetSpec, Completeness, Fault, FaultPoint, Meter, Phase};
pub use ctx::CtxGuard;
pub use json::{parse as parse_json, Json};
pub use metrics::{
    counter_value, counters, histogram_snapshot, histograms, metrics_snapshot, Counter, Histogram,
    HistogramSnapshot, MetricsSnapshot,
};
pub use prometheus::{prometheus_text, write_prometheus};
pub use report::{json_report, render_report, report_to_stderr, write_json_report};
pub use span::{span, span_tree, Span, SpanNode};
pub use trace::{validate_chrome_trace, AttrValue, Trace, TraceNode};

/// What [`trace::install`] returns, under the name it had when each part
/// of the context had a guard type of its own.
pub type TraceGuard = CtxGuard;

use viewplan_sync::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric collection on or off process-wide. Off (the default)
/// makes every instrumentation point a single relaxed load + branch.
pub fn set_enabled(enabled: bool) {
    // ordering: standalone switch; collection points tolerate observing
    // it late, and counters carry their own synchronization.
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether collection is currently on.
#[inline(always)]
pub fn enabled() -> bool {
    // ordering: standalone switch read on the hot path; stale reads only
    // delay when collection turns on/off.
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes all counters and histograms and clears the span tree.
/// Registered metric names stay registered. Spans still open across a
/// `reset` will record into the fresh tree when they close.
pub fn reset() {
    metrics::reset();
    span::reset();
}

/// The registry and the enabled switch are process-global while `cargo
/// test` is concurrent, so every test in this crate that toggles
/// [`set_enabled`] or calls [`reset`] serializes on this lock.
#[cfg(test)]
pub(crate) mod testlock {
    use viewplan_sync::{Mutex, MutexGuard};

    static GUARD: Mutex<()> = Mutex::new(());

    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        GUARD.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testlock::serial;

    #[test]
    fn disabled_counters_stay_zero() {
        let _g = serial();
        set_enabled(false);
        reset();
        counter!("test.disabled").add(7);
        assert_eq!(counter_value("test.disabled"), 0);
    }

    #[test]
    fn enabled_counters_accumulate() {
        let _g = serial();
        set_enabled(true);
        reset();
        counter!("test.enabled").add(2);
        counter!("test.enabled").incr();
        assert_eq!(counter_value("test.enabled"), 3);
        set_enabled(false);
    }

    #[test]
    fn span_tree_nests_by_runtime_stack() {
        let _g = serial();
        set_enabled(true);
        reset();
        {
            let _outer = span("test.outer");
            let _inner = span("test.inner");
        }
        {
            let _outer = span("test.outer");
        }
        let tree = span_tree();
        let outer = tree
            .iter()
            .find(|n| n.name == "test.outer")
            .expect("outer span recorded");
        assert_eq!(outer.count, 2);
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].name, "test.inner");
        assert_eq!(outer.children[0].count, 1);
        set_enabled(false);
    }

    #[test]
    fn reset_clears_everything() {
        let _g = serial();
        set_enabled(true);
        reset();
        counter!("test.reset").incr();
        histogram!("test.reset_hist").record(5);
        {
            let _s = span("test.reset_span");
        }
        reset();
        assert_eq!(counter_value("test.reset"), 0);
        assert_eq!(histogram_snapshot("test.reset_hist").unwrap().count, 0);
        assert!(span_tree().iter().all(|n| n.name != "test.reset_span"));
        set_enabled(false);
    }

    #[test]
    fn json_report_parses_and_contains_metrics() {
        let _g = serial();
        set_enabled(true);
        reset();
        counter!("test.json_counter").add(11);
        histogram!("test.json_hist").record(100);
        {
            let _s = span("test.json_span");
        }
        let report = json_report();
        let parsed = parse_json(&report).expect("report is valid JSON");
        let counters = parsed.get("counters").expect("counters key");
        assert_eq!(
            counters.get("test.json_counter").and_then(Json::as_u64),
            Some(11)
        );
        let hists = parsed.get("histograms").expect("histograms key");
        assert_eq!(
            hists
                .get("test.json_hist")
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64),
            Some(1)
        );
        let spans = parsed.get("spans").expect("spans key");
        let names: Vec<&str> = spans
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|s| s.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"test.json_span"));
        set_enabled(false);
    }

    #[test]
    fn render_report_shows_phase_tree_and_counters() {
        let _g = serial();
        set_enabled(true);
        reset();
        {
            let _outer = span("test.render_outer");
            let _inner = span("test.render_inner");
        }
        counter!("test.render_counter").add(4);
        let report = render_report();
        let outer_at = report.find("test.render_outer").unwrap();
        let inner_at = report.find("test.render_inner").unwrap();
        assert!(outer_at < inner_at, "children render under parents");
        assert!(report.contains("test.render_counter"));
        assert!(report.contains('4'));
        set_enabled(false);
    }
}
