//! Cross-algorithm agreement: CoreCover vs. the naive Theorem 3.1
//! enumerator (an oracle for GMRs) and vs. MiniCon (which must never find
//! a *smaller* equivalent rewriting).

use viewplan::prelude::*;

#[test]
fn corecover_matches_naive_on_chain_workloads() {
    for seed in 0..10 {
        let w = generate(&WorkloadConfig::chain(12, 0, seed));
        let cc = CoreCover::new(&w.query, &w.views).run();
        let naive = naive_gmrs(&w.query, &w.views);
        // Same existence and same minimum size.
        assert_eq!(
            cc.rewritings().is_empty(),
            naive.is_empty(),
            "existence disagrees for seed {seed}"
        );
        if let (Some(a), Some(b)) = (cc.rewritings().first(), naive.first()) {
            assert_eq!(
                a.body.len(),
                b.body.len(),
                "GMR size disagrees, seed {seed}"
            );
        }
        // CoreCover's grouping collapses equivalent views, so the naive
        // count can only be ≥ CoreCover's.
        assert!(naive.len() >= cc.rewritings().len());
    }
}

#[test]
fn corecover_matches_naive_on_star_workloads() {
    for seed in 0..10 {
        let w = generate(&WorkloadConfig::star(12, 0, seed));
        let cc = CoreCover::new(&w.query, &w.views).run();
        let naive = naive_gmrs(&w.query, &w.views);
        assert_eq!(cc.rewritings().is_empty(), naive.is_empty());
        if let (Some(a), Some(b)) = (cc.rewritings().first(), naive.first()) {
            assert_eq!(a.body.len(), b.body.len());
        }
    }
}

#[test]
fn corecover_without_grouping_matches_naive_exactly() {
    // With grouping off, both algorithms search the same tuple space, so
    // the GMR *sets* must match up to variants.
    for seed in 0..6 {
        let w = generate(&WorkloadConfig::chain(8, 0, seed));
        let config = CoreCoverConfig {
            group_equivalent_views: false,
            group_view_tuples: false,
            ..CoreCoverConfig::default()
        };
        let cc = CoreCover::new(&w.query, &w.views).with_config(config).run();
        let naive = naive_gmrs(&w.query, &w.views);
        assert_eq!(cc.rewritings().len(), naive.len(), "seed {seed}");
        for r in cc.rewritings() {
            assert!(
                naive.iter().any(|n| is_variant(n, r)),
                "naive misses {r} (seed {seed})"
            );
        }
    }
}

#[test]
fn minicon_never_beats_corecover_on_size() {
    for seed in 0..6 {
        let w = generate(&WorkloadConfig::chain(10, 0, seed));
        let cc = CoreCover::new(&w.query, &w.views).run();
        let Some(gmr) = cc.rewritings().first() else {
            continue;
        };
        let mc = minicon_rewritings(&w.query, &w.views, true, 200);
        for r in &mc {
            assert!(
                r.body.len() >= gmr.body.len(),
                "MiniCon found a smaller rewriting {r} than the GMR {gmr} (seed {seed})"
            );
        }
    }
}

#[test]
fn every_corecover_rewriting_is_locally_minimal() {
    // GMRs are LMRs (§3.2: "a globally-minimal rewriting is also locally
    // minimal").
    for seed in 0..6 {
        let w = generate(&WorkloadConfig::star(10, 0, seed));
        let cc = CoreCover::new(&w.query, &w.views).run();
        for r in cc.rewritings().iter().take(5) {
            assert!(
                is_locally_minimal(r, &w.query, &w.views),
                "GMR {r} is not an LMR (seed {seed})"
            );
        }
    }
}

#[test]
fn every_returned_rewriting_is_equivalent_to_its_query() {
    // What Theorem 4.1 promises and cover assembly enforces: the default
    // configuration hands out equivalent rewritings only.
    for seed in 0..8 {
        for config in [
            WorkloadConfig::chain(15, 1, seed),
            WorkloadConfig::star(15, 1, seed),
        ] {
            let w = generate(&config);
            let result = CoreCover::new(&w.query, &w.views).run();
            for r in result.rewritings() {
                assert!(
                    viewplan::core::is_equivalent_rewriting(r, &w.query, &w.views),
                    "{r} is not a rewriting (seed {seed})"
                );
            }
        }
    }
}
