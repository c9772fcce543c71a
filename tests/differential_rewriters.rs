//! Differential testing across the three rewriting generators: CoreCover,
//! the naive Theorem 3.1 search, and MiniCon (equivalence-filtered). They
//! explore different spaces, but everything any of them emits must be a genuine equivalent rewriting, and none may beat
//! CoreCover's minimum subgoal count.
//!
//! The second half turns the same oracle on the serving layer: a warm,
//! batched, cached [`BatchServer`] must render answers byte-identical to
//! cold single-query runs at every thread count, and budget-truncated
//! answers must never poison the cache.

use proptest::prelude::*;
use std::collections::HashSet;
use viewplan::containment::canonicalize;
use viewplan::obs::BudgetSpec;
use viewplan::prelude::*;

fn all_generators(
    q: &ConjunctiveQuery,
    views: &ViewSet,
) -> Vec<(&'static str, Vec<ConjunctiveQuery>)> {
    vec![
        (
            "corecover",
            CoreCover::new(q, views).run().rewritings().to_vec(),
        ),
        ("naive", naive_gmrs(q, views)),
        ("minicon", minicon_rewritings(q, views, true, 300)),
    ]
}

#[test]
fn every_generator_emits_only_equivalent_rewritings() {
    for seed in 0..6 {
        for config in [
            WorkloadConfig::chain(10, 0, seed),
            WorkloadConfig::chain(10, 1, seed),
            WorkloadConfig::star(10, 0, seed),
        ] {
            let w = generate(&config);
            let qm = minimize(&w.query);
            for (name, rewritings) in all_generators(&w.query, &w.views) {
                for r in rewritings.iter().take(10) {
                    let exp = expand(r, &w.views).unwrap();
                    assert!(
                        are_equivalent(&exp, &qm),
                        "{name} emitted non-equivalent {r} (seed {seed})"
                    );
                }
            }
        }
    }
}

#[test]
fn corecover_minimum_is_a_global_lower_bound() {
    for seed in 0..6 {
        let w = generate(&WorkloadConfig::chain(10, 0, seed));
        let cc = CoreCover::new(&w.query, &w.views).run();
        let Some(gmr) = cc.rewritings().first() else {
            // If CoreCover finds nothing, nobody may find anything.
            for (name, rewritings) in all_generators(&w.query, &w.views) {
                assert!(
                    rewritings.is_empty(),
                    "{name} found a rewriting CoreCover missed (seed {seed})"
                );
            }
            continue;
        };
        for (name, rewritings) in all_generators(&w.query, &w.views) {
            for r in &rewritings {
                assert!(
                    r.body.len() >= gmr.body.len(),
                    "{name} beat the GMR size with {r} (seed {seed})"
                );
            }
        }
    }
}

#[test]
fn existence_is_agreed_on_by_complete_generators() {
    // CoreCover and the naive search are both complete for equivalent
    // rewritings (Theorem 3.1), so they agree on existence. MiniCon's
    // disjointness restriction can in principle miss overlap-requiring
    // rewritings, so only assert one direction for it: if MiniCon finds
    // one, CoreCover must.
    for seed in 0..8 {
        let w = generate(&WorkloadConfig::star(10, 1, seed));
        let cc_found = !CoreCover::new(&w.query, &w.views)
            .run()
            .rewritings()
            .is_empty();
        let naive_found = !naive_gmrs(&w.query, &w.views).is_empty();
        assert_eq!(cc_found, naive_found, "seed {seed}");
        let mc_found = !minicon_rewritings(&w.query, &w.views, true, 300).is_empty();
        if mc_found {
            assert!(
                cc_found,
                "MiniCon found one but CoreCover missed it (seed {seed})"
            );
        }
    }
}

/// Renames every variable of `q` with a per-variant suffix, producing a
/// distinct-looking query with the same canonical form.
fn renamed_variant(q: &ConjunctiveQuery, variant: usize) -> ConjunctiveQuery {
    let mut subst = Substitution::new();
    for v in q.variables() {
        subst.bind(v, Term::var(&format!("{v}__r{variant}")));
    }
    q.apply(&subst)
}

/// A workload stream with recurring traffic: each seed's query appears
/// verbatim, renamed, and verbatim again, so a warm cache sees both
/// exact repeats and variable-renamed repeats.
fn workload_stream(shape: usize, seed: u64, nqueries: usize) -> (ViewSet, Vec<ConjunctiveQuery>) {
    let make = match shape {
        0 => WorkloadConfig::star,
        1 => WorkloadConfig::chain,
        _ => WorkloadConfig::random,
    };
    let views = generate(&make(10, 1, seed)).views;
    let queries: Vec<ConjunctiveQuery> = (0..nqueries)
        .map(|i| generate(&make(10, 1, seed + i as u64)).query)
        .collect();
    let mut stream = queries.clone();
    stream.extend(
        queries
            .iter()
            .enumerate()
            .map(|(i, q)| renamed_variant(q, i)),
    );
    stream.extend(queries);
    (views, stream)
}

/// Cold oracle: every query served by a fresh, cache-less, serial server.
fn cold_renders(views: &ViewSet, stream: &[ConjunctiveQuery], config: &ServeConfig) -> Vec<String> {
    stream
        .iter()
        .map(|q| {
            let server = BatchServer::with_config(
                views,
                ServeConfig {
                    cache_capacity: 0,
                    ..config.clone()
                },
            );
            server.serve(q).expect("cold serve").render()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole contract, adversarially sampled: a warm cached batch
    /// renders byte-identically to cold single-query runs at thread
    /// counts 1, 2, and 8.
    #[test]
    fn batch_warm_renders_byte_identical_to_cold(
        (shape, seed, nqueries) in (0..3usize, 0..1000u64, 2..5usize)
    ) {
        let (views, stream) = workload_stream(shape, seed, nqueries);
        let config = ServeConfig::default();
        let cold = cold_renders(&views, &stream, &config);
        for threads in [1, 2, 8] {
            let server = BatchServer::with_config(&views, config.clone());
            let warm: Vec<String> = server
                .serve_batch(&stream, threads)
                .into_iter()
                .map(|(r, _)| r.expect("warm serve").render())
                .collect();
            prop_assert_eq!(
                &warm, &cold,
                "warm batch diverged from cold serial (shape {}, seed {}, threads {})",
                shape, seed, threads
            );
        }
    }

    /// Node budgets are deterministic, so a budgeted batch must still be
    /// byte-identical to budgeted cold runs — and truncated answers must
    /// never enter the cache (the poisoning rule), while complete ones
    /// all do.
    #[test]
    fn budgeted_batch_is_deterministic_and_never_caches_truncation(
        (shape, seed, budget) in (0..3usize, 0..1000u64, 20..2000u64)
    ) {
        let (views, stream) = workload_stream(shape, seed, 3);
        let config = ServeConfig {
            budget: BudgetSpec::new().node_budget(budget),
            ..ServeConfig::default()
        };
        let cold = cold_renders(&views, &stream, &config);
        let server = BatchServer::with_config(&views, config.clone());
        let answers: Vec<ServedAnswer> = server
            .serve_batch(&stream, 4)
            .into_iter()
            .map(|(r, _)| r.expect("budgeted serve"))
            .collect();
        let warm: Vec<String> = answers.iter().map(|a| a.render()).collect();
        prop_assert_eq!(&warm, &cold, "budgeted batch diverged (shape {shape}, seed {seed})");

        // The cache holds exactly the canonical keys that produced a
        // complete answer; every incomplete serving was counted and
        // dropped. (Node budgets are per-request and deterministic, so a
        // canonical query is either always complete or always truncated.)
        let mut complete_keys = HashSet::new();
        let mut incomplete_servings = 0u64;
        for (q, a) in stream.iter().zip(&answers) {
            if a.completeness.is_incomplete() {
                incomplete_servings += 1;
            } else {
                complete_keys.insert(canonicalize(q).key);
            }
        }
        let cache = server.cache().expect("cache is on by default");
        prop_assert_eq!(cache.len(), complete_keys.len());
        prop_assert_eq!(cache.stats().rejected_incomplete, incomplete_servings);
    }
}

/// Baseline agreement survives the serving layer: the cached server's
/// rewritings are exactly CoreCover's, warm or cold, and MiniCon never
/// finds a rewriting the server misses.
#[test]
fn served_rewritings_agree_with_baselines_under_caching() {
    for seed in 0..8 {
        let w = generate(&WorkloadConfig::star(10, 1, seed));
        let server = BatchServer::new(&w.views);
        // Serve twice: the second answer comes from the cache.
        let cold = server.serve(&w.query).expect("serve");
        let warm = server.serve(&w.query).expect("serve");
        assert_eq!(cold.render(), warm.render(), "seed {seed}");
        let direct = CoreCover::new(&w.query, &w.views).run();
        assert_eq!(
            cold.rewritings
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>(),
            direct
                .rewritings()
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>(),
            "served rewritings must match a direct CoreCover run (seed {seed})"
        );
        if !minicon_rewritings(&w.query, &w.views, true, 300).is_empty() {
            assert!(
                !cold.rewritings.is_empty(),
                "MiniCon found a rewriting the server missed (seed {seed})"
            );
        }
    }
}

#[test]
fn all_generators_answers_agree_on_data() {
    // Whatever each generator emits computes the same answer over the
    // materialized views.
    for seed in 0..4 {
        let w = generate(&WorkloadConfig::chain(8, 0, seed));
        let mut base = Database::new();
        for (name, rows) in random_database(&w.query, 25, 30, seed ^ 0x5a) {
            for row in rows {
                base.insert(name, row.into_iter().map(Value::Int).collect());
            }
        }
        let direct = evaluate(&w.query, &base);
        let vdb = materialize_views(&w.views, &base);
        for (name, rewritings) in all_generators(&w.query, &w.views) {
            for r in rewritings.iter().take(5) {
                assert_eq!(
                    direct,
                    evaluate(r, &vdb),
                    "{name}: {r} disagrees (seed {seed})"
                );
            }
        }
    }
}
