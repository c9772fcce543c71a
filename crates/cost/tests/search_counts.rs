//! Count-based tests of the plan searches: what the counters and the
//! symbol interner read after a search, not what the search returns.
//! Counters are process-global and collection is a process-wide switch,
//! so these tests live in a binary of their own and take turns.

mod common;

use common::exhaustive::{graft_unbounded, Exhaustive, Space};
use common::{generated, rename_family, Generated, RenameFamily};
use std::sync::Mutex;
use viewplan_core::{CoreCover, CoreCoverConfig};
use viewplan_cost::m2::M2Table;
use viewplan_cost::{
    try_optimal_m3_plan, Catalog, CostModel, DropPolicy, EstimateOracle, ExactOracle, Optimizer,
    OptimizerConfig,
};
use viewplan_cq::{parse_query, parse_views, Atom, Symbol};
use viewplan_engine::{materialize_views, Database, Value};
use viewplan_obs as obs;
use viewplan_workload::Shape;

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
/// for a grafted filter, the half of the table it leaves in place, and
/// the top subset the graft bound already measured.
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
    // One store sells a make of dealer `a`; 29 sell makes `a` lacks, so
    // `v3` holds one row and `v2` thirty: the filter can pay.
    let mut base = Database::new();
    for m in 0..6 {
        base.insert("car", vec![Value::Int(m), Value::sym("a")]);
    }
    base.insert("part", vec![Value::Int(0), Value::Int(0), Value::Int(7)]);
    for s in 1..30 {
        base.insert(
            "part",
            vec![Value::Int(s), Value::Int(10 + s), Value::Int(7)],
        );
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
    let best = outcome.best.unwrap();
    assert_eq!(best.plan.to_string(), "v3(S) ⋈ v2(S, M, C) ⋈ v1(M, a, C)");
    assert_eq!(best.cost, 40.0);
    // One rewriting {v1, v2} and one filter v3: the base table asks for
    // 3 subsets; the graft bound for {v1, v2, v3} by one join (37 + 1
    // is below the base cost 43, so the graft is tried); the graft for
    // 7, of which those 3 and {v1, v2, v3} are answered from the memo.
    assert_eq!(counts.counter("cost.plans_enumerated"), 2);
    assert_eq!(counts.counter("cost.grafts_pruned"), 0);
    assert_eq!(counts.counter("cost.oracle_calls"), 11);
    assert_eq!(counts.counter("cost.oracle_cache_hits"), 4);
}

/// `q` over `k` one-subgoal relations, a view per relation and one view
/// of them all: CoreCover* finds the `k`-view rewriting and the one-view
/// rewriting, and nothing else. No data, so every size is 0.
fn singletons_and_one_view_of_all(k: usize) -> Generated {
    let body: Vec<String> = (0..k).map(|i| format!("p{i}(X{i})")).collect();
    let query = parse_query(&format!("q(X0) :- {}", body.join(", "))).unwrap();
    let mut views: Vec<String> = (0..k).map(|i| format!("v{i}(X) :- p{i}(X).")).collect();
    views.push(format!("vall(X0) :- {}.", body.join(", ")));
    Generated {
        query,
        views: parse_views(&views.join("\n")).unwrap(),
        vdb: Database::new(),
    }
}

/// Each rewriting the walk builds is planned, skipped on its bound or
/// skipped as too wide — exactly one of the three — and each cover it
/// never reaches is counted as pruned by the bound. Under M2 without
/// filters and under M3 a planned rewriting is one enumerated plan.
/// Fails when the loop `break`s on a skip instead of `continue`-ing: the
/// rewritings after it are then counted nowhere.
#[test]
fn every_rewriting_built_is_planned_pruned_or_too_wide() {
    let _turn = TURN.lock().unwrap();
    let problems = [
        singletons_and_one_view_of_all(3),
        singletons_and_one_view_of_all(9),
        generated(Shape::Star, 12, 0, 4),
        generated(Shape::Chain, 12, 0, 5),
        generated(Shape::Random, 12, 0, 3),
    ];
    let config = OptimizerConfig {
        max_filters: 0,
        ..OptimizerConfig::default()
    };
    let models = [
        CostModel::M1,
        CostModel::M2,
        CostModel::M3(DropPolicy::Supplementary),
    ];
    let mut skipped = [(0, 0, 0); 3];
    for p in &problems {
        let result = CoreCover::new(&p.query, &p.views).run_all_minimal();
        let rewritings = result.clone().rewritings().len() as u64;
        let catalog = Catalog::from_database(&p.vdb);
        for (model, skipped) in models.into_iter().zip(&mut skipped) {
            let (_, counts) = counted(|| {
                Optimizer::new(&p.query, &p.views)
                    .with_config(config.clone())
                    .try_plan_generated(model, result.clone(), &mut EstimateOracle::new(&catalog))
            });
            let built = counts.counter("corecover.rewritings");
            let planned = counts.counter("cost.plans_enumerated");
            let pruned = counts.counter("cost.rewritings_pruned");
            let wide = counts.counter("cost.too_wide_skipped");
            let unreached = counts.counter("corecover.covers_pruned_by_bound");
            assert_eq!(
                planned + pruned + wide,
                built,
                "{model:?} {}: {planned} planned, {pruned} pruned, {wide} too wide",
                p.query
            );
            assert!(built <= rewritings, "{model:?} {}", p.query);
            assert_eq!(built < rewritings, unreached > 0, "{model:?} {}", p.query);
            *skipped = (skipped.0 + pruned, skipped.1 + wide, skipped.2 + unreached);
        }
    }
    // Every model left covers unbuilt somewhere; the nine-subgoal
    // rewriting is too wide for M3.
    assert!(
        skipped.iter().all(|&(_, _, unreached)| unreached > 0),
        "{skipped:?}"
    );
    assert_eq!(skipped[2].1, 1);
}

/// Over GMRs every rewriting has the same subgoal count, which under M1
/// is the bound and the cost: the first is planned, and the walk never
/// reaches the covers after it. Fails when M1 plans or skips another
/// GMR.
#[test]
fn m1_over_gmrs_enumerates_one_plan() {
    let _turn = TURN.lock().unwrap();
    for seed in 0..4 {
        let p = generated(Shape::Star, 40, seed as usize % 2, seed);
        let result = CoreCover::new(&p.query, &p.views).run();
        let rewritings = result.rewritings().len() as u64;
        let first = result.rewritings().first().map(|r| r.to_string());
        let (outcome, counts) = counted(|| {
            Optimizer::new(&p.query, &p.views)
                .try_plan_generated(CostModel::M1, result, &mut ExactOracle::new(&p.vdb))
                .unwrap()
        });
        assert_eq!(outcome.best.map(|b| b.rewriting.to_string()), first);
        assert_eq!(counts.counter("cost.plans_enumerated"), rewritings.min(1));
        assert_eq!(counts.counter("cost.rewritings_pruned"), 0);
        assert!(counts.counter("corecover.covers_pruned_by_bound") >= rewritings.saturating_sub(1));
    }
}

/// The bound pays where the search space is large: over a family of
/// 40-view star problems under M2, from estimates, the walk enumerates
/// strictly fewer plans than planning every rewriting did (and never
/// more on any one problem), and builds strictly fewer rewritings than
/// the space holds, for the same choice. Fails when the bound never
/// prunes.
#[test]
fn the_bound_enumerates_fewer_plans_on_a_40_view_star_family() {
    let _turn = TURN.lock().unwrap();
    let (mut bounded, mut exhaustive, mut built, mut space_size) = (0, 0, 0, 0);
    for seed in 0..4 {
        let p = generated(Shape::Star, 40, 1, seed);
        let catalog = Catalog::from_database(&p.vdb);
        let result = CoreCover::new(&p.query, &p.views).run_all_minimal();
        let space = Space::eager(
            &result,
            &p.views,
            true,
            CoreCoverConfig::default().max_rewritings,
        );
        let config = OptimizerConfig::default();
        let mut reference = Exhaustive::new(&p.query, &p.views, config.clone());
        let old = reference
            .try_plan_generated(CostModel::M2, &space, &mut EstimateOracle::new(&catalog))
            .unwrap();
        let (new, counts) = counted(|| {
            Optimizer::new(&p.query, &p.views)
                .with_config(config)
                .try_plan_generated(CostModel::M2, result, &mut EstimateOracle::new(&catalog))
                .unwrap()
        });
        let cost = |o: &viewplan_cost::PlanOutcome| o.best.as_ref().map(|b| b.cost.to_bits());
        assert_eq!(cost(&new), cost(&old), "seed {seed}");
        let enumerated = counts.counter("cost.plans_enumerated");
        assert!(enumerated <= reference.enumerated, "seed {seed}");
        bounded += enumerated;
        exhaustive += reference.enumerated;
        built += counts.counter("corecover.rewritings");
        space_size += space.rewritings.len() as u64;
    }
    assert!(bounded < exhaustive, "{bounded} plans against {exhaustive}");
    assert!(
        built < space_size,
        "{built} rewritings built of {space_size}"
    );
}

/// The graft bound on the 40-view star family under M2, from estimates.
/// Rewriting by rewriting, every filter the unbounded loop grafted is
/// either grafted or pruned by the bound — an accounting identity, since
/// both loops keep the same grafts and so walk the same filters — and the
/// table ends with the same body, order and cost bits. End to end the
/// optimizer counts the pruned grafts in `cost.grafts_pruned`, not among
/// the plans enumerated, and chooses what the exhaustive pipeline chose.
/// Fails when the bound never prunes, and when it prunes a graft that
/// would have stayed.
#[test]
fn every_filter_attempt_is_grafted_or_pruned_on_a_40_view_star_family() {
    let _turn = TURN.lock().unwrap();
    let config = OptimizerConfig::default();
    let (mut attempts, mut tried, mut pruned, mut kept, mut kept_unbounded) = (0, 0, 0, 0, 0);
    for seed in 0..4 {
        let p = generated(Shape::Star, 40, 1, seed);
        let catalog = Catalog::from_database(&p.vdb);
        let result = CoreCover::new(&p.query, &p.views).run_all_minimal();
        let cap = CoreCoverConfig::default().max_rewritings;
        let space = Space::eager(&result, &p.views, true, cap);
        let filters: Vec<&Atom> = space.filters.iter().collect();
        for r in &space.rewritings {
            let solve = |oracle: &mut EstimateOracle| M2Table::solve(&r.body, oracle).unwrap();
            let (mut bounded_oracle, mut oracle) =
                (EstimateOracle::new(&catalog), EstimateOracle::new(&catalog));
            let (Some(mut bounded), Some(mut unbounded)) =
                (solve(&mut bounded_oracle), solve(&mut oracle))
            else {
                continue;
            };
            let grafts = bounded.graft_filters(&filters, config.max_filters, &mut bounded_oracle);
            let rounds = config.max_filters;
            let (grafted, stayed) =
                graft_unbounded(&mut unbounded, &space.filters, rounds, &mut oracle);
            let context = format!("seed {seed} {r}");
            assert_eq!(grafts.tried + grafts.pruned, grafted, "{context}");
            assert_eq!(grafts.kept, stayed, "{context}");
            assert_eq!(bounded.body(), unbounded.body(), "{context}");
            let (order, ir, cost) = bounded.order();
            let (order_unbounded, ir_unbounded, cost_unbounded) = unbounded.order();
            assert_eq!(order, order_unbounded, "{context}");
            let bits = |sizes: &[f64]| sizes.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&ir), bits(&ir_unbounded), "{context}");
            assert_eq!(cost.to_bits(), cost_unbounded.to_bits(), "{context}");
            attempts += grafted;
            (tried, pruned) = (tried + grafts.tried, pruned + grafts.pruned);
            (kept, kept_unbounded) = (kept + grafts.kept, kept_unbounded + stayed);
        }
        let mut reference = Exhaustive::new(&p.query, &p.views, config.clone());
        let old = reference
            .try_plan_generated(CostModel::M2, &space, &mut EstimateOracle::new(&catalog))
            .unwrap();
        let (new, counts) = counted(|| {
            Optimizer::new(&p.query, &p.views)
                .with_config(config.clone())
                .try_plan_generated(CostModel::M2, result, &mut EstimateOracle::new(&catalog))
                .unwrap()
        });
        let chosen = |o: &viewplan_cost::PlanOutcome| {
            o.best.as_ref().map(|b| {
                (
                    b.rewriting.to_string(),
                    b.plan.to_string(),
                    b.cost.to_bits(),
                )
            })
        };
        assert_eq!(chosen(&new), chosen(&old), "seed {seed}");
        let planned = counts.counter("corecover.rewritings")
            - counts.counter("cost.rewritings_pruned")
            - counts.counter("cost.too_wide_skipped");
        let grafted = counts.counter("cost.plans_enumerated") - planned;
        assert!(
            grafted + counts.counter("cost.grafts_pruned") <= attempts,
            "seed {seed}"
        );
    }
    assert!(pruned > 0, "the bound never pruned: {tried} grafts tried");
    assert!(kept > 0, "no graft ever paid");
    assert_eq!(kept, kept_unbounded);
    assert_eq!(tried + pruned, attempts);
    println!("grafts: {attempts} attempted, {tried} tried, {pruned} pruned, {kept} kept");
}
