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

use proptest::prelude::*;
use viewplan::core::Rewriting;
use viewplan::obs::{BudgetSpec, Completeness};
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
    let _g = viewplan::obs::budget::install(BudgetSpec::new().node_budget(cap).build());
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
