//! The observability counters mirror `CoreCoverStats` exactly.
//!
//! This file holds a single test on purpose: the metrics registry is
//! process-global, and keeping the test alone in its own integration
//! binary means no other test's counter bumps can race with the
//! before/after deltas taken here.

use viewplan_core::CoreCover;
use viewplan_cq::{parse_query, parse_views};
use viewplan_obs as obs;

#[test]
fn counters_agree_with_corecover_stats() {
    obs::set_enabled(true);

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

    let before = |name: &str| obs::counter_value(name);
    let snapshot = [
        "corecover.runs",
        "corecover.views",
        "corecover.view_classes",
        "corecover.view_tuples",
        "corecover.representative_tuples",
        "corecover.empty_core_tuples",
        "corecover.rewritings",
    ]
    .map(|name| (name, before(name)));

    let result = CoreCover::new(&query, &views).run();
    let stats = &result.stats;

    let delta = |name: &str| {
        let (_, start) = snapshot
            .iter()
            .find(|(n, _)| *n == name)
            .expect("snapshotted");
        obs::counter_value(name) - start
    };

    assert_eq!(delta("corecover.runs"), 1);
    assert_eq!(delta("corecover.views"), stats.views as u64);
    assert_eq!(delta("corecover.view_classes"), stats.view_classes as u64);
    assert_eq!(delta("corecover.view_tuples"), stats.view_tuples as u64);
    assert_eq!(
        delta("corecover.representative_tuples"),
        stats.representative_tuples as u64
    );
    assert_eq!(
        delta("corecover.empty_core_tuples"),
        stats.empty_core_tuples as u64
    );
    assert_eq!(delta("corecover.rewritings"), stats.rewritings as u64);

    // Sanity-pin the paper's Example 1.1 numbers so the mirror cannot be
    // trivially satisfied by all-zero stats.
    assert_eq!(stats.views, 5);
    assert_eq!(stats.view_classes, 4);
    assert_eq!(stats.view_tuples, 4);
    assert_eq!(stats.representative_tuples, 3);
    assert_eq!(stats.empty_core_tuples, 1);

    // The span tree recorded the CoreCover phases.
    let tree = obs::span_tree();
    let run = tree
        .iter()
        .find(|node| node.name == "corecover.run")
        .expect("corecover.run span recorded");
    let child_names: Vec<&str> = run.children.iter().map(|c| c.name).collect();
    for phase in [
        "corecover.group_views",
        "corecover.view_tuples",
        "corecover.tuple_cores",
        "corecover.set_cover",
    ] {
        assert!(child_names.contains(&phase), "missing phase {phase}");
    }

    // `corecover.rewritings` counts rewritings as they are built. A
    // CoreCover* run with no budget and no provenance builds none; a walk
    // builds the ones it reaches, fewest view tuples first under unit
    // weights, and `rewritings()` the rest, once.
    let built_before = obs::counter_value("corecover.rewritings");
    let lazy = CoreCover::new(&query, &views).run_all_minimal();
    assert_eq!(lazy.stats.rewritings, 0);
    assert_eq!(obs::counter_value("corecover.rewritings"), built_before);
    let mut walk = lazy.walk(|_| 1.0);
    let first = walk
        .next_within(None)
        .expect("a rewriting")
        .rewriting
        .clone();
    assert_eq!(obs::counter_value("corecover.rewritings") - built_before, 1);
    let pruned_before = obs::counter_value("corecover.covers_pruned_by_bound");
    assert_eq!(walk.next_within(Some((0.0, 0))).map(|f| f.cover), None);
    let unreached = obs::counter_value("corecover.covers_pruned_by_bound") - pruned_before;
    assert!(unreached > 0);
    let all = lazy.rewritings().len();
    assert!(all > 1, "{all} rewritings");
    assert_eq!(first.body.len(), 1, "{first}");
    assert!(lazy.rewritings().contains(&first));
    assert_eq!(
        obs::counter_value("corecover.rewritings") - built_before,
        all as u64
    );
    let _ = lazy.rewritings();
    assert_eq!(
        obs::counter_value("corecover.rewritings") - built_before,
        all as u64
    );

    // `analyze.views_pruned` counts the views the VP006 prune dropped:
    // here vg (foreign predicate), vmix (one foreign atom) and varity
    // (same predicate, other arity).
    let query = parse_query("q(X, Y) :- e(X, Z), f(Z, Y)").unwrap();
    let views = parse_views(
        "vall(X, Y) :- e(X, Z), f(Z, Y).\n\
         ve(X, Z) :- e(X, Z).\n\
         vf(Z, Y) :- f(Z, Y).\n\
         vg(A, B) :- g(A, B).\n\
         vmix(A) :- e(A, B), h(B).\n\
         varity(A) :- e(A, B, B).",
    )
    .unwrap();
    let pruned_before = obs::counter_value("analyze.views_pruned");
    let _ = CoreCover::new(&query, &views).run();
    assert_eq!(
        obs::counter_value("analyze.views_pruned") - pruned_before,
        3
    );
}
