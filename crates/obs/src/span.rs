//! RAII span timers building an aggregated phase tree.
//!
//! `obs::span("corecover.set_cover")` starts a timer whose parent is
//! whatever span is currently open on the same thread; dropping the
//! guard records (count, total wall-clock) under the full path. The
//! aggregate is process-global, so repeated runs of the same phase fold
//! into one node — exactly what a per-phase profile of a 40-query sweep
//! wants.
//!
//! **Buffering.** The open spans are a per-thread frame stack kept
//! beside the thread's [request context](crate::ctx); closed spans are
//! staged there too and merged into the global aggregate only when that
//! stack empties. A thread therefore contributes one outermost span's
//! timings in one lock acquisition, and the hot path never touches the
//! global lock. When a [`crate::trace::Trace`] is installed, each span
//! additionally records start/end into the trace.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use viewplan_sync::Mutex;

#[derive(Clone, Copy, Default)]
pub(crate) struct SpanStat {
    count: u64,
    total: Duration,
}

/// Span stats keyed by full span path (root first).
pub(crate) type PathStats = BTreeMap<Vec<&'static str>, SpanStat>;

/// The process-wide aggregate.
fn aggregate() -> &'static Mutex<PathStats> {
    static AGGREGATE: OnceLock<Mutex<PathStats>> = OnceLock::new();
    AGGREGATE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Stages one run of the span at `path`.
pub(crate) fn stage(staged: &mut PathStats, path: Vec<&'static str>, elapsed: Duration) {
    let stat = staged.entry(path).or_default();
    stat.count += 1;
    stat.total += elapsed;
}

/// Merges a thread's staged span stats into the global aggregate under a
/// single lock acquisition.
pub(crate) fn merge_staged(staged: &mut PathStats) {
    if staged.is_empty() {
        return;
    }
    let mut agg = aggregate().lock();
    for (path, stat) in std::mem::take(staged) {
        let entry = agg.entry(path).or_default();
        entry.count += stat.count;
        entry.total += stat.total;
    }
}

/// An open phase timer; records on drop. Returned by [`span`].
pub struct Span {
    start: Option<Instant>,
}

/// Opens a span named `name`, nested under the innermost span already
/// open on this thread. When collection is disabled this is a no-op
/// costing one relaxed load.
pub fn span(name: &'static str) -> Span {
    if !crate::enabled() {
        return Span { start: None };
    }
    crate::ctx::open_span(name);
    Span {
        start: Some(Instant::now()),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            crate::ctx::close_span(start.elapsed());
        }
    }
}

/// One node of the aggregated phase tree.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Phase name (the last path component).
    pub name: &'static str,
    /// Number of times this phase ran.
    pub count: u64,
    /// Total wall-clock across all runs.
    pub total: Duration,
    /// Phases that ran nested inside this one.
    pub children: Vec<SpanNode>,
}

/// The aggregated phase tree (roots in first-recorded path order, which
/// for `BTreeMap` keys means lexicographic by path).
pub fn span_tree() -> Vec<SpanNode> {
    let agg = aggregate().lock();
    let mut roots: Vec<SpanNode> = Vec::new();
    for (path, stat) in agg.iter() {
        insert(&mut roots, path, *stat);
    }
    roots
}

fn insert(nodes: &mut Vec<SpanNode>, path: &[&'static str], stat: SpanStat) {
    let (head, rest) = match path {
        [] => return,
        [head, rest @ ..] => (*head, rest),
    };
    let idx = match nodes.iter().position(|n| n.name == head) {
        Some(idx) => idx,
        None => {
            nodes.push(SpanNode {
                name: head,
                count: 0,
                total: Duration::ZERO,
                children: Vec::new(),
            });
            nodes.len() - 1
        }
    };
    let node = &mut nodes[idx];
    if rest.is_empty() {
        node.count += stat.count;
        node.total += stat.total;
    } else {
        insert(&mut node.children, rest, stat);
    }
}

/// Clears the aggregated tree (open spans record into the fresh tree
/// when they close).
pub(crate) fn reset() {
    aggregate().lock().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Aggregation is global; these tests only assert on their own
    // uniquely named spans so they stay robust under parallel testing.

    #[test]
    fn disabled_span_records_nothing() {
        let _serial = crate::testlock::serial();
        crate::set_enabled(false);
        {
            let _s = span("span_test.disabled_unique");
        }
        assert!(span_tree()
            .iter()
            .all(|n| n.name != "span_test.disabled_unique"));
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        let _serial = crate::testlock::serial();
        crate::set_enabled(true);
        {
            let _a = span("span_test.sib_a");
        }
        {
            let _b = span("span_test.sib_b");
        }
        let tree = span_tree();
        let a = tree.iter().find(|n| n.name == "span_test.sib_a").unwrap();
        assert!(a.children.is_empty());
        assert!(tree.iter().any(|n| n.name == "span_test.sib_b"));
        crate::set_enabled(false);
    }

    #[test]
    fn count_accumulates_across_runs() {
        let _serial = crate::testlock::serial();
        crate::set_enabled(true);
        for _ in 0..3 {
            let _s = span("span_test.counted");
        }
        let tree = span_tree();
        let node = tree.iter().find(|n| n.name == "span_test.counted").unwrap();
        assert!(node.count >= 3);
        crate::set_enabled(false);
    }
}
