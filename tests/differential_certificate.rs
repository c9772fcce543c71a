//! Differential test of cover certificates against the
//! expansion-equivalence oracle, both directions of trust.
//!
//! * The certificate never vouches for a cover the oracle rejects.
//! * What CoreCover returns is what the old pipeline returned — every
//!   cover of class representatives put to the oracle — plus the covers
//!   rescued by a class-mate retry. The reference is rebuilt here from
//!   the public parts (tuple classes, cover enumeration, variant dedup,
//!   `is_equivalent_rewriting`), not from CoreCover's own verdicts.
//! * Under a tight node budget nothing returned is non-equivalent, and
//!   a cover dropped for lack of proof is reported, not swallowed.
//!
//! Instances: the §7 star / chain / random shapes, where every cover
//! certifies, and chains over three repeating predicates whose views
//! hide join variables ([`overlapping`]), where cores overlap on hidden
//! variables and the oracle and the class-mate retry have real work.

use proptest::prelude::*;
use proptest::TestCaseError;
use rand::{rngs::StdRng, Rng, SeedableRng};
use viewplan::core::{
    all_irredundant_covers, all_minimum_covers, dedup_variants, is_equivalent_rewriting,
    CandidateVerdict, CoreCoverResult, CoreCoverStats, DecidedBy, Rewriting,
};
use viewplan::obs::BudgetSpec;
use viewplan::prelude::*;

fn workload(seed: u64, repeated_predicates: bool) -> Workload {
    if repeated_predicates {
        return overlapping(seed);
    }
    generate(&match seed % 3 {
        0 => WorkloadConfig::star(10, 1, seed),
        1 => WorkloadConfig::chain(10, 1, seed),
        _ => WorkloadConfig::random(10, 1, seed),
    })
}

/// The family of `examples/problems/overlap_*.vp`, at random: a chain
/// query of three to five hops over the predicates `e`, `g`, `f` (drawn
/// with repetition) that hides most interior variables; views that are
/// segments of the chain, some with a second copy of one hop entered
/// from a variable of its own (the `vb(X, R, P)` shape only the oracle
/// accepts), each body declared once or twice with different variables
/// exposed (the class-mates the retry needs).
fn overlapping(seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(3..=5usize);
    let preds: Vec<&str> = (0..n)
        .map(|_| ["e", "g", "f"][rng.gen_range(0..3usize)])
        .collect();
    let chain = |from: usize, to: usize, name: &dyn Fn(usize) -> String| -> String {
        let hops: Vec<String> = (from..to)
            .map(|i| format!("{}({}, {})", preds[i], name(i), name(i + 1)))
            .collect();
        hops.join(", ")
    };
    let x = |i: usize| format!("X{i}");
    let a = |i: usize| format!("A{i}");
    let mut head = vec![x(0)];
    head.extend((1..n).filter(|_| rng.gen_bool(0.3)).map(x));
    head.push(x(n));
    let query = format!("q({}) :- {}", head.join(", "), chain(0, n, &x));
    let mut views = String::new();
    let mut count = 0;
    for _ in 0..rng.gen_range(3..=6usize) {
        let len = rng.gen_range(1..=n);
        let start = rng.gen_range(0..=n - len);
        let mut body = chain(start, start + len, &a);
        let second_copy = rng.gen_bool(0.3);
        if second_copy {
            let i = rng.gen_range(start..start + len);
            body.push_str(&format!(", {}(B, {})", preds[i], a(i + 1)));
        }
        for _ in 0..rng.gen_range(1..=2usize) {
            let mut exposed: Vec<String> = (start..=start + len)
                .filter(|&i| rng.gen_bool(0.5) || (second_copy && (i == start || i == start + len)))
                .map(a)
                .collect();
            if second_copy {
                exposed.push("B".to_string());
            }
            if exposed.is_empty() {
                exposed.push(a(start));
            }
            views.push_str(&format!("v{count}({}) :- {body}.\n", exposed.join(", ")));
            count += 1;
        }
    }
    Workload {
        query: parse_query(&query).unwrap(),
        views: parse_views(&views).unwrap(),
    }
}

fn run(w: &Workload, all_minimal: bool, provenance: bool) -> CoreCoverResult {
    let cc = CoreCover::new(&w.query, &w.views).with_config(CoreCoverConfig {
        collect_provenance: provenance,
        ..CoreCoverConfig::default()
    });
    let result = if all_minimal {
        cc.try_run_all_minimal()
    } else {
        cc.try_run()
    };
    result.expect("generated workloads stay within 64 subgoals")
}

/// The pipeline before certificates: every cover of class
/// representatives, deduplicated, kept iff the oracle accepts it.
fn oracle_on_every_cover(
    w: &Workload,
    result: &CoreCoverResult,
    all_minimal: bool,
) -> Vec<Rewriting> {
    let qm = &result.minimized_query;
    let representatives: Vec<usize> = result
        .tuple_classes
        .iter()
        .map(|class| class[0])
        .filter(|&i| !result.cores[i].is_empty())
        .collect();
    let masks: Vec<u64> = representatives
        .iter()
        .map(|&i| result.cores[i].bitmask())
        .collect();
    let universe = u64::MAX >> (64 - qm.body.len());
    let covers = if all_minimal {
        all_irredundant_covers(universe, &masks, 10_000)
    } else {
        all_minimum_covers(universe, &masks)
    };
    let candidates = covers
        .iter()
        .map(|cover| {
            ConjunctiveQuery::new(
                qm.head.clone(),
                cover
                    .iter()
                    .map(|&k| result.view_tuples[representatives[k]].atom.clone())
                    .collect(),
            )
        })
        .collect();
    dedup_variants(candidates)
        .into_iter()
        .filter(|r| is_equivalent_rewriting(r, qm, &w.views))
        .collect()
}

/// Both directions for one instance; returns how many covers the oracle
/// decided, so callers can tell the fallback was exercised.
fn check_instance(w: &Workload, all_minimal: bool) -> Result<usize, TestCaseError> {
    let explained = run(w, all_minimal, true);
    let candidates = &explained.provenance.as_ref().expect("requested").candidates;
    let mut oracle_decided = 0;
    for c in candidates {
        match (c.decided_by, &c.verdict) {
            (Some(DecidedBy::Certificate), verdict) => {
                prop_assert_eq!(verdict, &CandidateVerdict::Accepted);
                prop_assert!(
                    is_equivalent_rewriting(&c.rewriting, &w.query, &w.views),
                    "certified but not a rewriting: {}",
                    c.rewriting
                );
            }
            (Some(DecidedBy::Oracle), _) => oracle_decided += 1,
            (None, verdict) => {
                prop_assert!(matches!(verdict, CandidateVerdict::DuplicateVariant { .. }));
            }
        }
    }
    let without_retries: Vec<Rewriting> = candidates
        .iter()
        .filter(|c| c.verdict == CandidateVerdict::Accepted && !c.retried)
        .map(|c| c.rewriting.clone())
        .collect();
    prop_assert_eq!(
        &without_retries,
        &oracle_on_every_cover(w, &explained, all_minimal)
    );
    for r in explained.rewritings() {
        prop_assert!(is_equivalent_rewriting(r, &w.query, &w.views), "{}", r);
    }
    // Provenance changes nothing that is returned. Without it a
    // CoreCover* run leaves its covers unbuilt, so it built none itself.
    let plain = run(w, all_minimal, false);
    prop_assert_eq!(plain.rewritings(), explained.rewritings());
    let built = if all_minimal {
        0
    } else {
        explained.stats.rewritings
    };
    prop_assert_eq!(
        plain.stats,
        CoreCoverStats {
            rewritings: built,
            ..explained.stats
        }
    );
    Ok(oracle_decided)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn certified_covers_are_rewritings_and_the_set_matches_the_oracle(
        seed in 0u64..2000,
        repeated_predicates in any::<bool>(),
        all_minimal in any::<bool>(),
    ) {
        check_instance(&workload(seed, repeated_predicates), all_minimal)?;
    }

    #[test]
    fn tight_node_budgets_return_no_unproven_cover(
        seed in 0u64..2000,
        cap in 1u64..60,
        all_minimal in any::<bool>(),
    ) {
        let w = workload(seed, true);
        // Budgeted runs first: complete containment verdicts are cached
        // process-wide, and unbudgeted work in between would hand the
        // budgeted search verdicts it could not have reached itself.
        let result = {
            let _g = viewplan::obs::budget::install(BudgetSpec::new().node_budget(cap).build());
            run(&w, all_minimal, true)
        };
        for r in result.rewritings() {
            prop_assert!(is_equivalent_rewriting(r, &w.query, &w.views), "{}", r);
        }
        let candidates = &result.provenance.as_ref().expect("requested").candidates;
        // Under a budget a failed oracle check proves nothing.
        prop_assert!(candidates.iter().all(|c| c.verdict != CandidateVerdict::NotEquivalent));
        if candidates.iter().any(|c| c.verdict == CandidateVerdict::Unverified) {
            prop_assert!(result.stats.truncated);
            prop_assert!(result.stats.completeness.is_incomplete());
        }
    }
}

/// The overlapping instances are there to exercise the fallback: over a
/// fixed range of seeds the oracle must both accept and reject covers
/// and the retry must rescue some, or the properties above test less
/// than they claim.
#[test]
fn overlapping_instances_reach_the_oracle_and_the_retry() {
    let (mut accepted, mut rejected, mut retried) = (0, 0, 0);
    for seed in 0..300 {
        let w = overlapping(seed);
        for all_minimal in [false, true] {
            check_instance(&w, all_minimal).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            let result = run(&w, all_minimal, true);
            for c in &result.provenance.as_ref().unwrap().candidates {
                match (c.decided_by, &c.verdict) {
                    _ if c.retried => retried += 1,
                    (Some(DecidedBy::Oracle), CandidateVerdict::Accepted) => accepted += 1,
                    (Some(DecidedBy::Oracle), _) => rejected += 1,
                    _ => {}
                }
            }
        }
    }
    assert!(
        accepted > 0 && rejected > 0 && retried > 0,
        "accepted {accepted}, rejected {rejected}, retried {retried}"
    );
}

/// On the §7 shapes, whose relations are all different, every cover
/// certifies — the property the `rewrite_cold` gain rests on.
#[test]
fn distinct_predicate_instances_never_reach_the_oracle() {
    for seed in 0..30 {
        let w = workload(seed, false);
        for all_minimal in [false, true] {
            let decided =
                check_instance(&w, all_minimal).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            assert_eq!(decided, 0, "seed {seed}");
        }
    }
}
