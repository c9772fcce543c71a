//! Phase-tree and trace attribution are independent of the thread count.
//!
//! `parallel_map` forks the spawning thread's request context
//! (`viewplan_obs::ctx`) and enters it on every worker, and workers stage
//! closed span stats in per-thread buffers that merge atomically. The
//! observable consequence, pinned here: the aggregated phase tree (names,
//! nesting, counts) and the trace span tree (the multiset of
//! root-to-leaf name paths) of a CoreCover run are identical at
//! `threads = 1` and `threads = 8`.
//!
//! The second test pins the mechanism itself: every part of the context
//! — budget, trace, open spans, and both crates' policy bits — is
//! observed on each of eight workers.
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

/// Mutations this catches: `ctx::fork` (or `RequestCtx::enter`) losing
/// any one field — the budget, the trace, the frames, or either crate's
/// policy bits — and `parallel_map` spawning a worker without entering
/// the fork. Each part is read back on the worker through the same
/// reader the pipeline uses.
#[test]
fn every_part_of_the_request_context_reaches_every_worker() {
    let _turn = serial();
    obs::set_enabled(true);
    obs::reset();
    let budget = obs::BudgetSpec::new().node_budget(1).build();
    let trace = obs::Trace::new();
    // Eight items behind an eight-way barrier: no worker can take a
    // second item, so eight distinct threads each run `f` once.
    let barrier = std::sync::Barrier::new(8);
    let items: Vec<usize> = (0..8).collect();
    let seen = {
        let _budget = obs::budget::install(budget.clone());
        let _trace = obs::trace::install(&trace);
        let _row = viewplan_engine::install(viewplan_engine::Engine::Row);
        let _dfs = viewplan_containment::install_acyclic(false);
        let _outer = obs::span("ctx_pool.outer");
        parallel_map(8, &items, |_| {
            barrier.wait();
            let _item = obs::span("ctx_pool.item");
            let mut meter = obs::Meter::start(obs::Phase::Hom);
            let ticks = (0..3).take_while(|_| meter.tick()).count();
            (
                std::thread::current().id(),
                ticks,
                viewplan_engine::current_engine(),
                viewplan_containment::acyclic_enabled(),
            )
        })
    };
    obs::set_enabled(false);

    let threads: std::collections::HashSet<_> = seen.iter().map(|s| s.0).collect();
    assert_eq!(threads.len(), 8);
    assert!(!threads.contains(&std::thread::current().id()));
    // Policy: both crates' bits.
    assert!(seen
        .iter()
        .all(|s| s.2 == viewplan_engine::Engine::Row && !s.3));
    // Budget: each worker's search ran out at the spawner's 1-node cap.
    assert!(seen.iter().all(|s| s.1 == 1), "{seen:?}");
    assert_eq!(budget.abandoned(obs::Phase::Hom), 8);
    // Trace: eight item spans under the spawner's span, one buffer each.
    let roots = trace.tree();
    assert_eq!(roots.len(), 1, "{roots:?}");
    assert_eq!(roots[0].name, "ctx_pool.outer");
    assert_eq!(roots[0].children.len(), 8);
    let tids: std::collections::BTreeSet<u64> = roots[0].children.iter().map(|c| c.tid).collect();
    assert_eq!(tids.len(), 8);
    // Open spans: the aggregate nests the same way.
    let tree = obs::span_tree();
    let outer = tree.iter().find(|n| n.name == "ctx_pool.outer").unwrap();
    assert_eq!(outer.children.len(), 1);
    assert_eq!(
        (outer.children[0].name, outer.children[0].count),
        ("ctx_pool.item", 8)
    );
}
