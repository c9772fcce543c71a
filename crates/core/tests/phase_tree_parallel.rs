//! Phase-tree and trace attribution are independent of the thread count.
//!
//! `parallel_map` re-attaches the spawning thread's span path and trace
//! context on every worker, and workers stage closed span stats in
//! per-thread buffers that merge atomically. The observable consequence,
//! pinned here: the aggregated phase tree (names, nesting, counts) and
//! the trace span tree (the multiset of root-to-leaf name paths) of a
//! CoreCover run are identical at `threads = 1` and `threads = 8`.
//!
//! The pool carries the two reference overrides the same way — the
//! execution engine and the acyclic containment route — pinned here by
//! counters that must stay at zero when the spawning thread asked for
//! the row engine or the homomorphism DFS.
//!
//! This file holds these tests alone in their own integration binary
//! because the span aggregate and the counters are process-global:
//! another test's work interleaving mid-run would perturb what is
//! compared here. The two tests take turns through [`serial`].

use viewplan_core::{parallel_map, CoreCover, CoreCoverConfig};
use viewplan_cq::{parse_query, parse_views};
use viewplan_obs as obs;

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

fn fixture() -> (viewplan_cq::ConjunctiveQuery, viewplan_cq::ViewSet) {
    // Example 1.1: four view tuples, so the parallel stage
    // (tuple-cores) sees real work.
    let query =
        parse_query("q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C)").unwrap();
    let views = parse_views(
        "
        v1(M, D, C)    :- car(M, D), loc(D, C).
        v2(S, M, C)    :- part(S, M, C).
        v3(S)          :- car(M, anderson), loc(anderson, C), part(S, M, C).
        v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).
        v5(M, D, C)    :- car(M, D), loc(D, C).
        ",
    )
    .unwrap();
    (query, views)
}

/// The phase tree flattened to (path, count) rows; durations vary run to
/// run and are excluded.
fn tree_shape(
    nodes: &[obs::SpanNode],
    prefix: &mut Vec<&'static str>,
    out: &mut Vec<(String, u64)>,
) {
    for node in nodes {
        prefix.push(node.name);
        out.push((prefix.join("/"), node.count));
        tree_shape(&node.children, prefix, out);
        prefix.pop();
    }
}

fn run_at(threads: usize) -> (Vec<(String, u64)>, Vec<String>) {
    let (query, views) = fixture();
    obs::reset();
    let trace = obs::Trace::new();
    let shape = {
        let _t = obs::trace::install(&trace);
        let config = CoreCoverConfig {
            threads,
            ..CoreCoverConfig::default()
        };
        let _ = CoreCover::new(&query, &views).with_config(config).run();
        let mut shape = Vec::new();
        tree_shape(&obs::span_tree(), &mut Vec::new(), &mut shape);
        shape
    };
    // Trace spans: the multiset of root-to-leaf name paths. Sibling
    // *order* under a parent depends on worker scheduling; the paths do
    // not.
    let mut paths = Vec::new();
    fn walk(nodes: &[obs::TraceNode], prefix: &mut Vec<&'static str>, out: &mut Vec<String>) {
        for node in nodes {
            prefix.push(node.name);
            out.push(prefix.join("/"));
            walk(&node.children, prefix, out);
            prefix.pop();
        }
    }
    walk(&trace.tree(), &mut Vec::new(), &mut paths);
    paths.sort();
    (shape, paths)
}

#[test]
fn phase_tree_and_trace_paths_match_between_serial_and_parallel_runs() {
    let _turn = serial();
    obs::set_enabled(true);
    let (serial_shape, serial_paths) = run_at(1);
    let (parallel_shape, parallel_paths) = run_at(8);
    // Sanity: the serial run recorded the pipeline, not an empty tree.
    assert!(
        serial_shape
            .iter()
            .any(|(p, _)| p.contains("corecover.run")),
        "serial run recorded no corecover.run span: {serial_shape:?}"
    );
    assert!(!serial_paths.is_empty(), "serial trace recorded no spans");
    assert_eq!(
        serial_shape, parallel_shape,
        "phase tree shape differs between threads=1 and threads=8"
    );
    assert_eq!(
        serial_paths, parallel_paths,
        "trace span paths differ between threads=1 and threads=8"
    );
    obs::set_enabled(false);
}

#[test]
fn engine_and_acyclic_overrides_reach_every_worker() {
    let _turn = serial();
    let (query, views) = fixture();
    obs::set_enabled(true);

    // Row engine pinned by the caller: evaluations on the eight workers
    // must not touch the columnar batch join. (Nothing in a rewrite
    // evaluates any more — view tuples are matched, not joined — so the
    // pool is driven directly, the way the serving and sweep layers
    // drive it around work that does execute plans.)
    obs::reset();
    let canonical = viewplan_engine::canonical_database(&query);
    let answers = {
        let _row = viewplan_engine::install(viewplan_engine::Engine::Row);
        parallel_map(8, views.as_slice(), |view| {
            viewplan_engine::evaluate(&view.definition, &canonical).len()
        })
    };
    assert!(answers.iter().all(|&rows| rows > 0));
    assert_eq!(
        obs::counter_value("engine.batch_joins"),
        0,
        "workers evaluated on the columnar engine under install(Engine::Row)"
    );

    // Homomorphism DFS pinned by the caller: the oracle checks on the
    // workers must not take the semijoin route. Covers the certificate
    // vouches for never reach a worker, so this needs covers it cannot
    // vouch for: every `vb*` joins `va` through its own copy of `X`.
    // (Cleared memo: a cached verdict would skip both routes.)
    let query = parse_query("q(P, R) :- e(P, X), g(X, Y), f(Y, R)").unwrap();
    let views = parse_views(
        "
        va(P, Y)     :- e(P, X), g(X, Y).
        vb1(X, R, P) :- e(P, X2), g(X2, Y2), f(Y2, R), g(X, Y2).
        vb2(R, X, P) :- e(P, X2), g(X2, Y2), f(Y2, R), g(X, Y2).
        vb3(P, R, X) :- e(P, X2), g(X2, Y2), f(Y2, R), g(X, Y2).
        ",
    )
    .unwrap();
    viewplan_containment::clear_containment_cache();
    obs::reset();
    let config = CoreCoverConfig {
        threads: 8,
        group_view_tuples: false,
        ..CoreCoverConfig::default()
    };
    let result = {
        let _dfs = viewplan_containment::install_acyclic(false);
        CoreCover::new(&query, &views)
            .with_config(config)
            .run_all_minimal()
    };
    assert_eq!(result.rewritings().len(), 3);
    assert_eq!(
        obs::counter_value("corecover.covers_oracle_checked"),
        3,
        "the oracle needs several covers to fan out"
    );
    assert!(obs::counter_value("containment.checks") > 0);
    assert_eq!(
        obs::counter_value("containment.acyclic_fast_path"),
        0,
        "workers took the semijoin fast path under install_acyclic(false)"
    );
    obs::set_enabled(false);
}
