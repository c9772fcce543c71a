//! Prometheus text exposition of the metrics registry.
//!
//! [`prometheus_text`] renders every registered counter and histogram in
//! the [Prometheus text format] so `serve`/`batch --metrics-out PATH`
//! can drop a scrape-ready snapshot next to their results. Metric names
//! mangle to the Prometheus grammar (`serve.cache_hits` →
//! `viewplan_serve_cache_hits_total`); histograms expose the log₂
//! buckets cumulatively with each bucket's inclusive upper bound as the
//! `le` label, plus the conventional `_sum`/`_count` series.
//!
//! [Prometheus text format]:
//! https://prometheus.io/docs/instrumenting/exposition_formats/

use crate::metrics::{counters, histograms};
use std::fmt::Write as _;

/// `serve.cache_hits` → `serve_cache_hits`: every character outside
/// `[a-zA-Z0-9_]` becomes `_` (the Prometheus name grammar, minus the
/// colon reserved for recording rules).
fn mangle(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Renders the whole registry in the Prometheus text exposition format.
///
/// Every *registered* counter is rendered, zeros included. Registration
/// is lazy (a name only exists once some site touched it), so a
/// zero-valued counter means "this code path ran and the outcome never
/// happened" — exactly the series a scraper needs to compute ratios
/// like hit rates. Skipping zeros would also make the set of exposed
/// series depend on scheduling: paired outcome counters (cache hits vs
/// misses) register together on every probe, but which of them is
/// nonzero after a short run is a race. Histograms that never recorded
/// an observation are still omitted — an empty histogram has no
/// buckets, and no site touches one without recording.
pub(crate) fn prometheus_text() -> String {
    let mut out = String::new();
    for (name, value) in counters() {
        let m = mangle(name);
        let _ = writeln!(out, "# HELP viewplan_{m}_total {name}");
        let _ = writeln!(out, "# TYPE viewplan_{m}_total counter");
        let _ = writeln!(out, "viewplan_{m}_total {value}");
    }
    for (name, snap) in histograms() {
        if snap.count == 0 {
            continue;
        }
        let m = mangle(name);
        let _ = writeln!(out, "# HELP viewplan_{m} {name}");
        let _ = writeln!(out, "# TYPE viewplan_{m} histogram");
        let mut cumulative = 0u64;
        for b in &snap.buckets {
            cumulative += b.count;
            let _ = writeln!(out, "viewplan_{m}_bucket{{le=\"{}\"}} {cumulative}", b.hi);
        }
        let _ = writeln!(out, "viewplan_{m}_bucket{{le=\"+Inf\"}} {}", snap.count);
        let _ = writeln!(out, "viewplan_{m}_sum {}", snap.sum);
        let _ = writeln!(out, "viewplan_{m}_count {}", snap.count);
    }
    out
}

/// Writes the Prometheus text exposition of every counter and histogram
/// to `path`.
pub fn write_prometheus(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, prometheus_text())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mangling_replaces_dots_and_dashes() {
        let _serial = crate::testlock::serial();
        assert_eq!(mangle("serve.cache_hits"), "serve_cache_hits");
        assert_eq!(mangle("a-b.c"), "a_b_c");
    }

    #[test]
    fn exposition_has_counter_and_histogram_series() {
        let _serial = crate::testlock::serial();
        // The registry is process-global: record under unique names and
        // assert only on them.
        crate::set_enabled(true);
        crate::counter!("promtest.requests").add(3);
        crate::histogram!("promtest.latency_us").record(5);
        crate::histogram!("promtest.latency_us").record(300);
        let text = prometheus_text();
        assert!(text.contains("# TYPE viewplan_promtest_requests_total counter"));
        assert!(text.contains("viewplan_promtest_requests_total 3"));
        assert!(text.contains("# TYPE viewplan_promtest_latency_us histogram"));
        assert!(text.contains("viewplan_promtest_latency_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("viewplan_promtest_latency_us_sum 305"));
        assert!(text.contains("viewplan_promtest_latency_us_count 2"));
        // Bucket series are cumulative: the last finite bucket holds
        // every observation at or below its bound.
        assert!(text.contains("viewplan_promtest_latency_us_bucket{le=\"511\"} 2"));
        crate::set_enabled(false);
    }

    #[test]
    fn zero_valued_counters_are_exposed_once_registered() {
        let _serial = crate::testlock::serial();
        crate::set_enabled(true);
        // A paired-outcome funnel registers both names on every probe;
        // the one that never fired must still appear (value 0), or the
        // set of exposed series would depend on which outcome a short
        // run happened to see first.
        crate::counter!("promtest.zero_outcome").add(0);
        let text = prometheus_text();
        assert!(text.contains("# TYPE viewplan_promtest_zero_outcome_total counter"));
        assert!(text.contains("viewplan_promtest_zero_outcome_total 0"));
        crate::set_enabled(false);
    }
}
