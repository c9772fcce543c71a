//! Property tests of the anytime-budget guarantees: under an
//! aggressively tight node budget, random workloads never panic, always
//! return a well-formed result with an honest [`Completeness`] marker,
//! produce *identical* results on every run (node caps are per-search,
//! so nothing earlier in the process can change outcomes), and every
//! rewriting they do return still verifies as equivalent to the query.
//!
//! Ordering matters inside a case: all budgeted runs happen before any
//! unbudgeted work. Complete containment verdicts are cached
//! process-globally, and an unbudgeted run in between would warm the
//! cache with verdicts a budget-truncated search could not reproduce.
//!
//! The plan search keeps the same promise under its own caps: a capped
//! plan never beats the unbudgeted optimum, and a capped run that says
//! `Complete` returned exactly the unbudgeted plan.

use proptest::prelude::*;
use viewplan::core::{CoreCoverResult, Rewriting};
use viewplan::cost::PlanOutcome;
use viewplan::obs::{BudgetSpec, Completeness, Phase};
use viewplan::prelude::*;

fn workload(seed: u64) -> Workload {
    let config = match seed % 3 {
        0 => WorkloadConfig::star(8, 1, seed),
        1 => WorkloadConfig::chain(8, 1, seed),
        _ => WorkloadConfig::random(8, 1, seed),
    };
    generate(&config)
}

/// One CoreCover* run under a per-search node cap of `cap`.
fn run_budgeted(w: &Workload, cap: u64) -> (Vec<Rewriting>, Completeness) {
    let _g = viewplan::obs::install_budget(BudgetSpec::new().node_budget(cap));
    let result = CoreCover::new(&w.query, &w.views)
        .try_run_all_minimal()
        .expect("generated workloads stay within 64 subgoals");
    (result.rewritings().to_vec(), result.stats.completeness)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tight_node_budgets_degrade_honestly_and_deterministically(
        seed in 0u64..500,
        cap in 1u64..40,
    ) {
        let w = workload(seed);

        // Budgeted runs first (see module docs): node-capped results must
        // repeat exactly.
        let (rewritings, completeness) = run_budgeted(&w, cap);
        let (again, completeness_again) = run_budgeted(&w, cap);
        prop_assert_eq!(&again, &rewritings, "cap {} not deterministic", cap);
        prop_assert_eq!(completeness_again, completeness);

        // A run that claims completeness must match the unbudgeted run
        // exactly — "complete" is a promise, not a guess.
        let full = CoreCover::new(&w.query, &w.views)
            .try_run_all_minimal()
            .expect("generated workloads stay within 64 subgoals");
        if completeness == Completeness::Complete {
            prop_assert_eq!(&rewritings, &full.rewritings().to_vec());
        }

        // Whatever survived the budget must still be a real rewriting.
        for r in &rewritings {
            let exp = expand(r, &w.views).expect("rewritings only use known views");
            prop_assert!(
                are_equivalent(&exp, &w.query),
                "budget-truncated run returned a non-equivalent rewriting: {}", r
            );
        }
    }
}

/// Views enough that most queries have several rewritings to plan.
fn planning_workload(seed: u64) -> Workload {
    let nondistinguished = (seed / 3 % 2) as usize;
    let config = match seed % 3 {
        0 => WorkloadConfig::star(20, nondistinguished, seed),
        1 => WorkloadConfig::chain(20, nondistinguished, seed),
        _ => WorkloadConfig::random(20, nondistinguished, seed),
    };
    generate(&config)
}

/// Plans `result` under `model` from estimated sizes, under a per-search
/// plan-node cap of `cap` when one is given.
fn planned(
    w: &Workload,
    catalog: &Catalog,
    result: &CoreCoverResult,
    model: CostModel,
    cap: Option<u64>,
) -> PlanOutcome {
    let budget = cap.map(|n| BudgetSpec::new().phase_nodes(Phase::Plan, n));
    let _g = budget.map(viewplan::obs::install_budget);
    Optimizer::new(&w.query, &w.views)
        .try_plan_generated(model, result.clone(), &mut EstimateOracle::new(catalog))
        .expect("generated rewritings fit both plan searches")
}

/// The chosen rewriting, plan and cost bits, with the number of every
/// fresh name an M3 rename drew (`B#27`) left out — two searches draw
/// different numbers for the same rename.
fn chosen(outcome: &PlanOutcome) -> Option<(String, String, u64)> {
    let best = outcome.best.as_ref()?;
    let mut plan = String::new();
    for c in best.plan.to_string().chars() {
        if !(c.is_ascii_digit() && plan.ends_with(|p: char| p == '#' || p.is_ascii_digit())) {
            plan.push(c);
        }
    }
    Some((best.rewriting.to_string(), plan, best.cost.to_bits()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The optimizer's half of the contract, now that rewritings whose
    /// bound cannot win are skipped: under a per-search cap anywhere from
    /// one plan node to the whole unbudgeted search, a plan never costs
    /// less than the unbudgeted optimum, and `Complete` means the
    /// unbudgeted plan, bit for bit. (Only the plan phase is capped, so
    /// the unbudgeted run may come first: the containment verdicts both
    /// runs use are complete either way.)
    #[test]
    fn plan_node_caps_never_beat_the_optimum_and_complete_is_the_optimum(
        seed in 0u64..500,
        m3 in any::<bool>(),
        pick in 0u64..1_000_000,
    ) {
        let w = planning_workload(seed);
        let result = CoreCover::new(&w.query, &w.views)
            .try_run_all_minimal()
            .expect("generated workloads stay within 64 subgoals");
        let mut base = Database::new();
        for (name, rows) in random_database(&w.query, 20, 20, seed) {
            for row in rows {
                base.insert(name, row.into_iter().map(Value::Int).collect());
            }
        }
        let catalog = Catalog::from_database(&materialize_views(&w.views, &base));
        let model = if m3 { CostModel::M3(DropPolicy::SmartCostBased) } else { CostModel::M2 };

        // The unbudgeted node total: M3 counts its nodes; M2 asks the
        // oracle for one subset per node (and for the reused half of a
        // graft), so its oracle calls bound its nodes from above.
        viewplan::obs::set_enabled(true);
        let before = viewplan::obs::metrics_snapshot();
        let full = planned(&w, &catalog, &result, model, None);
        let counts = viewplan::obs::metrics_snapshot().delta_since(&before);
        let nodes = counts.counter(if m3 { "cost.m3_nodes" } else { "cost.oracle_calls" });
        let cap = 1 + pick % nodes.max(1);

        let cut = planned(&w, &catalog, &result, model, Some(cap));
        prop_assert_eq!(full.completeness, Completeness::Complete);
        match (&cut.best, &full.best) {
            (Some(cut_best), Some(optimum)) => prop_assert!(
                cut_best.cost >= optimum.cost,
                "cap {} of {}: {} below the optimum {}", cap, nodes, cut_best.cost, optimum.cost
            ),
            (Some(_), None) => prop_assert!(false, "cap {}: a plan the unbudgeted run lacks", cap),
            (None, _) => {}
        }
        if cut.completeness == Completeness::Complete {
            prop_assert_eq!(chosen(&cut), chosen(&full), "cap {} of {}", cap, nodes);
        }
    }
}
