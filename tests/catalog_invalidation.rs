//! Property test of the live catalog's cache invalidation: after *any*
//! sequence of `add-view` / `drop-view` / query operations, every entry
//! still resident in the rewriting cache must render byte-identical to a
//! cold recompute under the catalog's current view set — i.e. the
//! epoch-tagged retargeting kept exactly the entries it was allowed to
//! keep.
//!
//! A second property covers the snapshot itself: DDL derives each epoch's
//! view classes from the previous epoch's instead of regrouping the
//! catalog, and that must be indistinguishable from preparing the new
//! view set from scratch.
//!
//! A third aims at `add-view`'s minimum-cover check, over the small
//! problems of the differential tests: serve five queries over all of a
//! problem's views but the last, add the last, and every resident entry
//! must render as a cold recompute does — under the default
//! configuration, under `all_minimal`, and without tuple grouping. It
//! fails, among others, for a check that re-stamps an entry when the
//! view's cores are all old candidates although tuple grouping is off
//! (first at seed 48), one that compares only the minimum cover size
//! (first at seed 234), and one that ignores whether the certificate
//! vouched for every cover (only on a hand-written instance; see
//! `HAND_WRITTEN`). Adding a problem's last two views one at a time, it
//! also fails for a check that keeps an entry without appending the
//! first view's new candidates to it (first at seed 41).

mod common;

use common::small_problem;
use proptest::prelude::*;
use proptest::TestCaseError;
use viewplan::core::{CoreCoverConfig, PreparedViews};
use viewplan::prelude::*;
use viewplan::serve::{BatchServer, LiveCatalog, ServeConfig};

/// Views the DDL ops may add and drop (the base set stays put). All
/// bodies agree on a/2, b/2, c/2, so any add passes the VP001 gate.
const CANDIDATES: [&str; 4] = [
    "w1(A, B) :- a(A, B), a(B, B)",
    "w2(C, D) :- a(C, E), b(C, D)",
    "w3(A, B) :- b(A, B)",
    "w4(A, B) :- a(A, B), c(B, B)",
];

const QUERIES: [&str; 5] = [
    "q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)",
    "q(X) :- a(X, X)",
    "q(X, Y) :- b(X, Y)",
    "q(X, Y) :- a(X, Y), c(Y, Y)",
    "q(X) :- zzz(X, X)",
];

/// Replays `ops` against a fresh catalog, then checks the oracle: warm
/// answers (and every resident cache entry) agree byte-for-byte with an
/// uncached server built from the catalog's final view set.
fn check_sequence(ops: &[(u32, u32)]) -> Result<(), TestCaseError> {
    let base = parse_views("v0(A, B) :- a(A, B).").unwrap();
    let catalog = LiveCatalog::new(&base, ServeConfig::default());
    for &(kind, idx) in ops {
        match kind % 3 {
            0 => {
                let src = CANDIDATES[idx as usize % CANDIDATES.len()];
                // Duplicate adds are rejected without swapping: a no-op.
                let _ = catalog.add_view(View {
                    definition: parse_query(src).unwrap(),
                });
            }
            1 => {
                let name = format!("w{}", idx as usize % CANDIDATES.len() + 1);
                // Unknown drops are rejected without swapping: a no-op.
                let _ = catalog.drop_view(Symbol::new(&name));
            }
            _ => {
                let q = parse_query(QUERIES[idx as usize % QUERIES.len()]).unwrap();
                catalog.server().serve(&q).unwrap();
            }
        }
    }

    let server = catalog.server();
    let cold = BatchServer::with_config(
        server.views(),
        ServeConfig {
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    );
    for src in QUERIES {
        let q = parse_query(src).unwrap();
        let warm = server.serve(&q).unwrap();
        let fresh = cold.serve(&q).unwrap();
        prop_assert_eq!(warm.render(), fresh.render(), "{}", q);
    }
    for (canonical, epoch, _) in server.cache().unwrap().entries() {
        prop_assert_eq!(epoch, server.epoch(), "stale-epoch resident {}", canonical);
        let warm = server.serve(&canonical).unwrap();
        let fresh = cold.serve(&canonical).unwrap();
        prop_assert_eq!(
            warm.render(),
            fresh.render(),
            "resident {} diverged from cold recompute",
            canonical
        );
    }
    Ok(())
}

/// A base set with a two-member class (`v0` ≡ `v1`, so dropping `v0`
/// drops a representative that has other members) and a shadowed name
/// (`dup` twice, at two arities).
const SNAPSHOT_BASE: &str = "v0(A, B) :- a(A, B).\n\
     v1(A, B) :- a(A, B).\n\
     dup(A) :- a(A, A).\n\
     dup(A, B) :- b(A, B).";

/// Views the snapshot property adds: some open a class, some join one
/// (`w5`/`w7` ≡ `v0`, `w6` ≡ `w2`; `w7` only semantically), and the base
/// names can come back after a drop.
const SNAPSHOT_CANDIDATES: [&str; 10] = [
    "w1(A, B) :- a(A, B), a(B, B)",
    "w2(C, D) :- a(C, E), b(C, D)",
    "w3(A, B) :- b(A, B)",
    "w4(A, B) :- a(A, B), c(B, B)",
    "w5(X, Y) :- a(X, Y)",
    "w6(X, Y) :- b(X, Y), a(X, Z)",
    "w7(A, B) :- a(A, B), a(A, C)",
    "v0(A, B) :- a(A, B)",
    "v1(A, B) :- a(A, B)",
    "dup(A) :- a(A, A)",
];

/// After every DDL step, the snapshot the catalog derived incrementally
/// equals the one prepared from scratch over the same views and epoch.
fn check_snapshots(ops: &[(u32, u32)]) -> Result<(), TestCaseError> {
    let catalog = LiveCatalog::new(&parse_views(SNAPSHOT_BASE).unwrap(), ServeConfig::default());
    for &(kind, idx) in ops {
        let src = SNAPSHOT_CANDIDATES[idx as usize % SNAPSHOT_CANDIDATES.len()];
        let definition = parse_query(src).unwrap();
        // Rejected steps (duplicate add, unknown drop) do not swap.
        let _ = if kind % 2 == 0 {
            catalog.add_view(View { definition })
        } else {
            catalog.drop_view(definition.head.predicate)
        };
        let server = catalog.server();
        let incremental = server.prepared();
        let scratch = PreparedViews::prepare_with_epoch(server.views(), server.epoch());
        prop_assert_eq!(incremental.classes(), scratch.classes(), "after {:?}", ops);
        prop_assert_eq!(incremental.representatives(), scratch.representatives());
        prop_assert_eq!(incremental.index(), scratch.index(), "after {:?}", ops);
        prop_assert_eq!(incremental.epoch(), scratch.epoch());
    }
    Ok(())
}

/// Seeds the add-last-view property runs per configuration.
const ADD_LAST_SEEDS: u64 = 2_000;

/// What adding the last view did across the seeds of one configuration.
#[derive(Default)]
struct AddLastTally {
    kept_by_cover: u64,
    invalidated: u64,
}

/// Serves `queries` over `views`, adds the views of `added` one at a
/// time, and after each add compares every resident entry with a cold
/// recompute under `config`; `label` names the instance in a failure.
fn check_add_last(
    label: &str,
    views: &ViewSet,
    added: &[View],
    queries: &[ConjunctiveQuery],
    config: &ServeConfig,
    tally: &mut AddLastTally,
) {
    let catalog = LiveCatalog::new(views, config.clone());
    for q in queries {
        catalog.server().serve(q).unwrap();
    }
    for view in added {
        let outcome = catalog
            .add_view(view.clone())
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        tally.kept_by_cover += outcome.kept_by_cover;
        tally.invalidated += outcome.invalidated;
        let server = catalog.server();
        let cold = BatchServer::with_config(
            server.views(),
            ServeConfig {
                cache_capacity: 0,
                ..config.clone()
            },
        );
        for (canonical, epoch, _) in server.cache().unwrap().entries() {
            assert_eq!(epoch, server.epoch(), "{label}: stale resident {canonical}");
            assert_eq!(
                server.serve(&canonical).unwrap().render(),
                cold.serve(&canonical).unwrap().render(),
                "{label}: resident {canonical} diverged after adding {}",
                view.definition
            );
        }
    }
}

/// Hand-written instances the seeds do not reach. The certificate's
/// counterexample (`crates/core/src/certificate.rs`): the one minimum
/// cover `va(P, Y), vb(X, R)` is no rewriting, the oracle says so, and
/// `va` has no class-mate to retry with. The added `va2` covers what
/// `va` covers — no new candidate under tuple grouping — but exposes
/// `X`, and the retry with it is a rewriting. Forty thousand seeds never
/// build this, so a check that keeps an entry whose cover the
/// certificate did not vouch for passes them all.
const HAND_WRITTEN: [(&str, &str, &str); 1] = [(
    "va(P, Y) :- e(P, X), g(X, Y).\n\
     vb(X, R) :- g(X, Y), f(Y, R).",
    "va2(P, X, Y) :- e(P, X), g(X, Y)",
    "q(P, R) :- e(P, X), g(X, Y), f(Y, R)",
)];

/// Runs the property over the seeds, adding each problem's last `added`
/// views (problems with fewer views are skipped), then over the
/// hand-written instances.
fn add_last_views_over_seeds(config: ServeConfig, added: usize) -> AddLastTally {
    let mut tally = AddLastTally::default();
    for seed in 0..ADD_LAST_SEEDS {
        // The seed's query and its four neighbours', over all of its
        // views but the last `added`.
        let w = small_problem(seed);
        let Some(kept) = w.views.len().checked_sub(added) else {
            continue;
        };
        let (rest, last) = w.views.as_slice().split_at(kept);
        let queries: Vec<_> = (seed..seed + 5).map(|s| small_problem(s).query).collect();
        let views = ViewSet::from_views(rest.iter().cloned());
        let label = format!("seed {seed}");
        check_add_last(&label, &views, last, &queries, &config, &mut tally);
    }
    for (i, (views, last, query)) in HAND_WRITTEN.into_iter().enumerate() {
        let last = [View::new(parse_query(last).unwrap())];
        let queries = [parse_query(query).unwrap()];
        let label = format!("hand-written instance {i}");
        let views = parse_views(views).unwrap();
        check_add_last(&label, &views, &last, &queries, &config, &mut tally);
    }
    tally
}

#[test]
fn adding_the_last_view_keeps_residents_equal_to_cold_recompute() {
    let tally = add_last_views_over_seeds(ServeConfig::default(), 1);
    // Both outcomes are reached, or the property tests less than it says.
    assert!(tally.kept_by_cover > 0 && tally.invalidated > 0);
}

#[test]
fn adding_the_last_view_under_all_minimal_evicts_what_it_reaches() {
    let tally = add_last_views_over_seeds(
        ServeConfig {
            all_minimal: true,
            ..ServeConfig::default()
        },
        1,
    );
    assert_eq!(tally.kept_by_cover, 0, "CoreCover* answers keep no cover");
    assert!(tally.invalidated > 0);
}

#[test]
fn adding_the_last_view_without_tuple_grouping_keeps_residents_equal() {
    let tally = add_last_views_over_seeds(
        ServeConfig {
            corecover: CoreCoverConfig {
                group_view_tuples: false,
                ..CoreCoverConfig::default()
            },
            ..ServeConfig::default()
        },
        1,
    );
    assert!(tally.kept_by_cover > 0 && tally.invalidated > 0);
}

/// Two adds in a row: a kept entry must carry the first view's new
/// candidates, or the second add can miss a minimum cover the two make
/// together (first at seed 41 when they are dropped).
#[test]
fn adding_the_last_two_views_one_at_a_time_keeps_residents_equal() {
    let tally = add_last_views_over_seeds(ServeConfig::default(), 2);
    assert!(tally.kept_by_cover > 0 && tally.invalidated > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_snapshots_equal_from_scratch(
        ops in proptest::collection::vec((0u32..2, 0u32..10), 1..16),
    ) {
        check_snapshots(&ops)?;
    }

    #[test]
    fn residents_always_match_cold_recompute(
        ops in proptest::collection::vec((0u32..3, 0u32..20), 1..12),
    ) {
        check_sequence(&ops)?;
    }
}
