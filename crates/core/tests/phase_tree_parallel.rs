//! The worker pool carries the whole request context.
//!
//! `parallel_map` forks the spawning thread's request context
//! (`viewplan_obs::ctx`) and enters it on every worker, and workers stage
//! closed span stats in per-thread buffers that merge atomically. Pinned
//! here: every part of the context — budget, trace, open spans, and both
//! crates' policy bits — is observed on each of eight workers.
//!
//! This test sits alone in its own integration binary because the span
//! aggregate and the counters are process-global: another test's work
//! interleaving mid-run would perturb what is compared here.

use viewplan_core::parallel_map;
use viewplan_obs as obs;

/// Mutations this catches: `ctx::fork` (or `RequestCtx::enter`) losing
/// any one field — the budget, the trace, the frames, or either crate's
/// policy bits — and `parallel_map` spawning a worker without entering
/// the fork. Each part is read back on the worker through the same
/// reader the pipeline uses.
#[test]
fn every_part_of_the_request_context_reaches_every_worker() {
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
