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

use proptest::prelude::*;
use proptest::TestCaseError;
use viewplan::core::PreparedViews;
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
