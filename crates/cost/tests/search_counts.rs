//! Count-based tests of the plan searches: what the counters and the
//! symbol interner read after a search, not what the search returns.
//! Counters are process-global and collection is a process-wide switch,
//! so these tests live in a binary of their own and take turns.

mod common;

use common::{rename_family, RenameFamily};
use std::sync::Mutex;
use viewplan_cost::{
    try_optimal_m3_plan, CostModel, DropPolicy, ExactOracle, Optimizer, OptimizerConfig,
};
use viewplan_cq::{parse_query, parse_views, Symbol};
use viewplan_engine::{materialize_views, Database, Value};
use viewplan_obs as obs;

static TURN: Mutex<()> = Mutex::new(());

/// Runs `work` with collection on and returns the counters it moved.
fn counted<T>(work: impl FnOnce() -> T) -> (T, obs::MetricsSnapshot) {
    obs::set_enabled(true);
    let before = obs::metrics_snapshot();
    let out = work();
    (out, obs::metrics_snapshot().delta_since(&before))
}

/// The §6.2 verdict is a function of the renamed body, so it is tested
/// once per distinct body and its fresh name drawn once — not once per
/// (order, step, variable, variant) that arrives at that body.
#[test]
fn fresh_names_grow_with_distinct_rename_tests_not_with_attempts() {
    let _turn = TURN.lock().unwrap();
    let RenameFamily {
        query,
        views,
        rewriting,
        vdb,
        ..
    } = rename_family(3);
    let interned = || Symbol::fresh("probe").index();
    let before = interned();
    let (planned, counts) = counted(|| {
        let mut oracle = ExactOracle::new(&vdb);
        try_optimal_m3_plan(
            &query,
            &views,
            &rewriting,
            DropPolicy::SmartCostBased,
            &mut oracle,
        )
    });
    let growth = interned() - before;
    assert!(planned.unwrap().is_some());
    let attempts = counts.counter("m3.rename_attempts");
    let tests = counts.counter("m3.rename_tests");
    let accepted = counts.counter("m3.rename_drops");
    assert!(accepted > 0, "the family's renames are legal");
    assert!(
        tests * 3 < attempts,
        "{tests} tests for {attempts} attempts"
    );
    // One test interns its generation's name (at most) and what `expand`
    // renames apart: every variable of every view definition used.
    let per_test: u64 = 1 + rewriting
        .body
        .iter()
        .map(|atom| {
            let definition = &views.get(atom.predicate).unwrap().definition;
            definition.variables().len() as u64
        })
        .sum::<u64>();
    assert!(
        growth as u64 <= tests * per_test + 1,
        "{growth} symbols for {tests} tests of at most {per_test}"
    );
    // The replaced search named and tested every attempt.
    assert!(
        (growth as u64) < attempts * per_test / 3,
        "{growth} symbols"
    );
}

/// The budget contract with the bound in play: a search that has
/// already pruned against a complete plan and then runs out of nodes
/// reports `Truncated` and a plan no cheaper than the optimum.
#[test]
fn budget_exhausted_after_pruning_is_truncated_and_never_beats_the_optimum() {
    let _turn = TURN.lock().unwrap();
    let RenameFamily {
        query, views, vdb, ..
    } = rename_family(3);
    let model = CostModel::M3(DropPolicy::SmartCostBased);
    let config = OptimizerConfig::default();
    let plan = || {
        Optimizer::new(&query, &views)
            .with_config(config.clone())
            .try_plan(model, &mut ExactOracle::new(&vdb))
            .unwrap()
    };
    let (complete, all) = counted(plan);
    assert_eq!(complete.completeness, obs::Completeness::Complete);
    let optimum = complete.best.unwrap().cost;
    let nodes = all.counter("cost.m3_nodes");
    assert!(all.counter("cost.m3_pruned") > 0);

    let mut cut_after_pruning = 0;
    for allowance in 1..nodes {
        let budget = obs::BudgetSpec::new()
            .phase_nodes(obs::Phase::Plan, allowance)
            .build();
        let _installed = obs::budget::install(budget.clone());
        let (outcome, counts) = counted(plan);
        assert_eq!(
            outcome.completeness,
            obs::Completeness::Truncated,
            "allowance {allowance} of {nodes}"
        );
        assert!(budget.abandoned(obs::Phase::Plan) > 0);
        assert_eq!(counts.counter("cost.m3_nodes"), allowance);
        if let Some(best) = outcome.best {
            assert!(best.cost >= optimum, "allowance {allowance}");
            if counts.counter("cost.m3_pruned") > 0 {
                cut_after_pruning += 1;
            }
        }
    }
    assert!(cut_after_pruning > 0);
}

/// `cost.oracle_calls` counts the subset sizes a search asks for and
/// `cost.oracle_cache_hits` those that needed no join or evaluation —
/// for a grafted filter, the half of the table it leaves in place.
#[test]
fn a_grafted_filter_reuses_half_the_table() {
    let _turn = TURN.lock().unwrap();
    let query = parse_query("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)").unwrap();
    let views = parse_views(
        "v1(M, D, C) :- car(M, D), loc(D, C).\n\
         v2(S, M, C) :- part(S, M, C).\n\
         v3(S) :- car(M, a), loc(a, C), part(S, M, C).",
    )
    .unwrap();
    let mut base = Database::new();
    for m in 0..6 {
        base.insert("car", vec![Value::Int(m), Value::sym("a")]);
        base.insert("part", vec![Value::Int(m), Value::Int(m), Value::Int(7)]);
    }
    base.insert("loc", vec![Value::sym("a"), Value::Int(7)]);
    let vdb = materialize_views(&views, &base);
    let config = OptimizerConfig {
        max_filters: 1,
        ..OptimizerConfig::default()
    };
    let (outcome, counts) = counted(|| {
        Optimizer::new(&query, &views)
            .with_config(config)
            .try_plan(CostModel::M2, &mut ExactOracle::new(&vdb))
            .unwrap()
    });
    assert!(outcome.best.is_some());
    // One rewriting {v1, v2} and one filter v3: the base table asks for
    // 3 subsets; the graft asks for 7, of which those 3 are reused.
    assert_eq!(counts.counter("cost.plans_enumerated"), 2);
    assert_eq!(counts.counter("cost.oracle_calls"), 10);
    assert_eq!(counts.counter("cost.oracle_cache_hits"), 3);
}
