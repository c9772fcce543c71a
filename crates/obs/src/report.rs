//! Reporters: a human-readable phase tree and a JSON dump.

use crate::json::write_escaped;
use crate::metrics::{counters, histograms};
use crate::span::{span_tree, SpanNode};
use std::fmt::Write as _;
use std::time::Duration;

pub(crate) fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 10_000 {
        format!("{nanos}ns")
    } else if nanos < 10_000_000 {
        format!("{:.1}µs", nanos as f64 / 1e3)
    } else if nanos < 10_000_000_000 {
        format!("{:.1}ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2}s", nanos as f64 / 1e9)
    }
}

fn render_span(out: &mut String, node: &SpanNode, depth: usize) {
    let indent = "  ".repeat(depth);
    let label = format!("{indent}{}", node.name);
    let _ = writeln!(
        out,
        "  {label:<44} {:>10}  ×{}",
        format_duration(node.total),
        node.count
    );
    for child in &node.children {
        render_span(out, child, depth + 1);
    }
}

/// Renders the full report: phase tree, then counters, then histograms.
/// Metrics that never fired are omitted.
pub(crate) fn render_report() -> String {
    let mut out = String::new();
    let tree = span_tree();
    out.push_str("── phases ─────────────────────────────────────────────\n");
    if tree.is_empty() {
        out.push_str("  (no spans recorded — was collection enabled?)\n");
    }
    for node in &tree {
        render_span(&mut out, node, 0);
    }
    let live: Vec<(&str, u64)> = counters().into_iter().filter(|&(_, v)| v > 0).collect();
    if !live.is_empty() {
        out.push_str("── counters ───────────────────────────────────────────\n");
        for (name, value) in live {
            let _ = writeln!(out, "  {name:<44} {value:>12}");
        }
    }
    let live_hists: Vec<_> = histograms()
        .into_iter()
        .filter(|(_, s)| s.count > 0)
        .collect();
    if !live_hists.is_empty() {
        out.push_str("── histograms ─────────────────────────────────────────\n");
        for (name, snap) in live_hists {
            let _ = writeln!(
                out,
                "  {name:<44} n={} mean={:.1} min={} max={}",
                snap.count,
                snap.mean(),
                snap.min,
                snap.max
            );
        }
    }
    out
}

/// Prints the phase tree and every counter and histogram to stderr (stderr so piped stdout stays
/// machine-readable).
pub fn report_to_stderr() {
    eprint!("{}", render_report());
}

fn span_to_json(out: &mut String, node: &SpanNode) {
    out.push_str("{\"name\":");
    write_escaped(out, node.name);
    let _ = write!(
        out,
        ",\"count\":{},\"total_ns\":{},\"children\":[",
        node.count,
        node.total.as_nanos()
    );
    for (i, child) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        span_to_json(out, child);
    }
    out.push_str("]}");
}

/// The full report as a JSON document:
///
/// ```json
/// {
///   "counters": {"corecover.view_tuples": 4, ...},
///   "histograms": {"engine.join_output_rows": {"count": ..., "sum": ...,
///       "min": ..., "max": ..., "buckets": [{"lo":.., "hi":.., "count":..}]}},
///   "spans": [{"name": "...", "count": 1, "total_ns": 12345,
///              "children": [...]}]
/// }
/// ```
pub(crate) fn json_report() -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (name, value)) in counters().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(&mut out, name);
        let _ = write!(out, ":{value}");
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, snap)) in histograms().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(&mut out, name);
        let _ = write!(
            out,
            ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
            snap.count, snap.sum, snap.min, snap.max
        );
        for (j, b) in snap.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"lo\":{},\"hi\":{},\"count\":{}}}",
                b.lo, b.hi, b.count
            );
        }
        out.push_str("]}");
    }
    out.push_str("},\"spans\":[");
    for (i, node) in span_tree().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        span_to_json(&mut out, node);
    }
    out.push_str("]}");
    out
}

/// Writes every counter, histogram and span as one JSON document to
/// `path`.
pub fn write_json_report(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, json_report())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting_picks_sensible_units() {
        assert_eq!(format_duration(Duration::from_nanos(900)), "900ns");
        assert_eq!(format_duration(Duration::from_micros(250)), "250.0µs");
        assert_eq!(format_duration(Duration::from_millis(35)), "35.0ms");
        assert_eq!(format_duration(Duration::from_secs(12)), "12.00s");
    }

    #[test]
    fn empty_report_mentions_missing_spans() {
        // Collection may be off and the tree empty in a fresh process;
        // render_report must still produce the banner.
        let report = render_report();
        assert!(report.contains("phases"));
    }

    #[test]
    fn json_report_is_always_valid_json() {
        let report = json_report();
        let parsed = crate::parse_json(&report).expect("valid JSON");
        assert!(parsed.get("counters").is_some());
        assert!(parsed.get("histograms").is_some());
        assert!(parsed.get("spans").is_some());
    }
}
