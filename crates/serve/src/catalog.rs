//! The live view catalog: online `add-view` / `drop-view` without
//! draining traffic.
//!
//! A [`LiveCatalog`] wraps one [`BatchServer`] behind an epoch-versioned
//! `Arc` snapshot: readers grab the current server with a brief
//! read-lock clone and then serve entirely lock-free against it, while
//! the single DDL writer (serialized by its own mutex) derives the next
//! [`PreparedViews`] snapshot from the current one **off the hot path**
//! — before any lock that readers contend on — and publishes it with one
//! pointer swap. The derivation does not regroup the catalog: an added
//! view is compared only with the class representatives that share its
//! pairs and pass the prefilter against its body, a drop renumbers the
//! surviving class members, and the
//! snapshot's catalog index is rebuilt in one linear pass
//! ([`PreparedViews::with_view_added`],
//! [`PreparedViews::with_views_dropped`]). In-flight requests keep
//! the snapshot they started with alive through their `Arc`; new
//! requests see the new epoch immediately. There is no drain, no pause,
//! no request that observes a half-applied catalog.
//!
//! **Principled cache invalidation.** The swapped-in server shares the
//! old server's [`RewritingCache`], so the writer must settle every
//! cached entry for the new epoch. Evicting everything would be sound
//! but wasteful; the point of the epoch design is that most entries are
//! *provably* unaffected by a DDL step and can be revalidated in place:
//!
//! * `drop v`: an entry is affected iff its cached rewritings or chosen
//!   plan mention `v`, or its canonical query's body does. Rewritings
//!   that never used `v` remain exactly what a cold recompute produces —
//!   removing a view only shrinks the candidate space, and (because
//!   rewritings mention only class representatives, and representatives
//!   of untouched classes are stable under removal of `v`) the surviving
//!   output is unchanged. Dropping a non-representative view of a
//!   grouped class therefore evicts nothing.
//! * `add v`: an entry is affected iff its canonical query's body names
//!   `v`, or `v` passes the rewriter's prefilter against it
//!   ([`viewplan_core::can_yield_tuples`]: every `(predicate, arity)`
//!   pair and every join of `v`'s body is the query's). A view
//!   participates in a rewriting only through view tuples, which require
//!   a homomorphism from `v`'s body into the query's. A view that fails
//!   the prefilter has no tuple over the canonical query, so none over
//!   its minimization either (a subset of its body): no new rewriting,
//!   and no change to the cost ranking among the old ones. A cold
//!   recompute gives the cached answer, so the entry is re-stamped. The
//!   rule is tighter than "shares a predicate with `v`" and looser than
//!   running the matcher.
//!
//! The eviction predicate is checked end to end by the differential
//! oracle (`tests/catalog_invalidation.rs`): after *any* add/drop
//! sequence, every resident entry renders byte-identical to a cold
//! recompute under the current catalog.
//!
//! **Fault injection.** `VIEWPLAN_FAULT=swap:nth` (via the shared
//! [`ServeFaults`] arm) fails the nth swap after the new snapshot is
//! built but before it is published: the catalog stays on the old epoch,
//! the cache is untouched, and the caller gets an error — a crashed DDL
//! step must never leave readers on a half-swapped catalog.

use std::sync::Arc;
use viewplan_core::{body_signature, can_yield_tuples, PreparedViews, Signature};
use viewplan_cq::{ConjunctiveQuery, Symbol, View, ViewSet};
use viewplan_obs as obs;
use viewplan_obs::budget::FaultPoint;
use viewplan_sync::{Mutex, RwLock};

use crate::batch::{BatchServer, CachedAnswer, ServeConfig};
use crate::cache::RetargetOutcome;
use crate::fault::ServeFaults;

/// What one successful DDL step did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DdlOutcome {
    /// The epoch the catalog now serves at.
    pub epoch: u64,
    /// Views in the new catalog.
    pub views: usize,
    /// Cache entries evicted because the change could affect them.
    pub invalidated: u64,
    /// Cache entries revalidated in place to the new epoch.
    pub revalidated: u64,
}

/// An epoch-versioned, swappable [`BatchServer`]: many lock-free
/// readers, one serialized DDL writer.
pub struct LiveCatalog {
    server: RwLock<Arc<BatchServer>>,
    /// Serializes DDL steps so epoch arithmetic and snapshot builds
    /// never race each other; never held on the serve path.
    ddl: Mutex<()>,
    faults: Arc<ServeFaults>,
}

impl LiveCatalog {
    /// A catalog starting from the given view set, with no armed faults.
    pub fn new(views: &ViewSet, config: ServeConfig) -> LiveCatalog {
        LiveCatalog::with_faults(views, config, Arc::new(ServeFaults::new(None)))
    }

    /// A catalog sharing a fault arm with the network front-end (so one
    /// `VIEWPLAN_FAULT=swap:nth` countdown spans both layers).
    pub fn with_faults(
        views: &ViewSet,
        config: ServeConfig,
        faults: Arc<ServeFaults>,
    ) -> LiveCatalog {
        LiveCatalog {
            server: RwLock::new(Arc::new(BatchServer::with_config(views, config))),
            ddl: Mutex::new(()),
            faults,
        }
    }

    /// The shared serving-layer fault arm.
    pub fn faults(&self) -> &Arc<ServeFaults> {
        &self.faults
    }

    /// The current serving snapshot. The returned `Arc` pins the
    /// snapshot (and its epoch) for the caller's whole request, however
    /// many swaps happen meanwhile.
    pub fn server(&self) -> Arc<BatchServer> {
        self.server.read().clone()
    }

    /// The epoch currently being served.
    pub fn epoch(&self) -> u64 {
        self.server.read().epoch()
    }

    /// Adds a view under a fresh epoch. Rejects duplicate names and
    /// definitions whose body conflicts with the catalog's predicate
    /// arities (the same VP001 gate the serve path applies to queries).
    pub fn add_view(&self, view: View) -> Result<DdlOutcome, String> {
        let _ddl = self.ddl.lock();
        let current = self.server();
        let name = view.name();
        if current.views().get(name).is_some() {
            return Err(format!("view `{name}` already exists"));
        }
        current
            .validate(&view.definition)
            .map_err(|e| format!("invalid view definition: {e}"))?;
        let needs = Signature::of_view(&view);
        self.swap_to(
            &current,
            |snapshot, epoch| snapshot.with_view_added(view, epoch),
            move |canonical, _| {
                mentions(canonical, name) || can_yield_tuples(&needs, &body_signature(canonical))
            },
        )
    }

    /// Drops every view named `name` under a fresh epoch.
    pub fn drop_view(&self, name: Symbol) -> Result<DdlOutcome, String> {
        let _ddl = self.ddl.lock();
        let current = self.server();
        if current.views().get(name).is_none() {
            return Err(format!("unknown view `{name}`"));
        }
        self.swap_to(
            &current,
            |snapshot, epoch| snapshot.with_views_dropped(name, epoch),
            move |canonical, answer| {
                mentions(canonical, name)
                    || answer.rewritings().iter().any(|r| mentions(r, name))
                    || answer.best().is_some_and(|b| {
                        mentions(&b.rewriting, name)
                            || b.plan.steps.iter().any(|s| s.atom.predicate == name)
                    })
            },
        )
    }

    /// The common swap tail (DDL lock held): derive the next snapshot
    /// from the current one off the hot path, publish it, then settle the
    /// shared cache.
    // lock-order: the `ddl` mutex (held by the caller) is always taken
    // before the `server` write lock, and the write lock is released
    // before the cache's shard locks (inside retarget) are touched.
    fn swap_to(
        &self,
        current: &Arc<BatchServer>,
        next_snapshot: impl FnOnce(&PreparedViews, u64) -> PreparedViews,
        affected: impl Fn(&ConjunctiveQuery, &CachedAnswer) -> bool,
    ) -> Result<DdlOutcome, String> {
        let old_epoch = current.epoch();
        let new_epoch = old_epoch + 1;
        let prepared = Arc::new(next_snapshot(current.prepared(), new_epoch));
        if self.faults.fires(FaultPoint::Swap) {
            return Err(format!(
                "injected swap fault: catalog stays at epoch {old_epoch}"
            ));
        }
        let next = Arc::new(BatchServer::from_parts(
            prepared,
            current.config().clone(),
            current.cache_handle(),
        ));
        *self.server.write() = next.clone();
        obs::counter!("serve.epoch_swaps").incr();
        obs::trace_event!("serve.epoch_swap");
        // Retarget strictly after publishing: a reader racing this window
        // sees plain misses (new epoch, old-tagged entries), never stale
        // answers; see `RewritingCache::retarget`.
        let outcome = match current.cache_handle() {
            Some(cache) => cache.retarget(old_epoch, new_epoch, affected),
            None => RetargetOutcome::default(),
        };
        Ok(DdlOutcome {
            epoch: new_epoch,
            views: next.views().len(),
            invalidated: outcome.invalidated,
            revalidated: outcome.revalidated,
        })
    }
}

fn mentions(q: &ConjunctiveQuery, name: Symbol) -> bool {
    q.body.iter().any(|a| a.predicate == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_cq::{parse_query, parse_views};
    use viewplan_obs::budget::Fault;

    fn example41_views() -> ViewSet {
        parse_views(
            "v1(A, B) :- a(A, B), a(B, B).\n\
             v2(C, D) :- a(C, E), b(C, D).",
        )
        .unwrap()
    }

    fn view(src: &str) -> View {
        View {
            definition: parse_query(src).unwrap(),
        }
    }

    #[test]
    fn add_view_swaps_epoch_and_answers_improve() {
        let catalog = LiveCatalog::new(
            &parse_views("v2(C, D) :- a(C, E), b(C, D).").unwrap(),
            ServeConfig::default(),
        );
        let q = parse_query("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)").unwrap();
        let before = catalog.server().serve(&q).unwrap();
        assert!(before.rewritings.is_empty());
        assert_eq!(before.epoch, 0);

        let outcome = catalog
            .add_view(view("v1(A, B) :- a(A, B), a(B, B)"))
            .unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.views, 2);
        // The cached "no rewriting" entry shares predicate `a` with the
        // new view, so it must be evicted — and the recompute finds the
        // rewriting the new view enables.
        assert_eq!(outcome.invalidated, 1);
        let after = catalog.server().serve(&q).unwrap();
        assert!(!after.from_cache);
        assert_eq!(after.epoch, 1);
        // Body order follows view order (v2 predates the added v1).
        assert_eq!(
            after.rewritings[0].to_string(),
            "q(X, Y) :- v2(Z, Y), v1(X, Z)"
        );
    }

    #[test]
    fn drop_view_evicts_only_entries_touching_it() {
        let catalog = LiveCatalog::new(&example41_views(), ServeConfig::default());
        let uses_both = parse_query("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)").unwrap();
        let uses_neither = parse_query("q(X) :- zzz(X, X)").unwrap();
        catalog.server().serve(&uses_both).unwrap();
        catalog.server().serve(&uses_neither).unwrap();

        let outcome = catalog.drop_view(Symbol::new("v1")).unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.views, 1);
        assert_eq!((outcome.invalidated, outcome.revalidated), (1, 1));
        // The untouched entry still hits, now at the new epoch.
        let warm = catalog.server().serve(&uses_neither).unwrap();
        assert!(warm.from_cache);
        assert_eq!(warm.epoch, 1);
        // The evicted one recomputes without the dropped view.
        let cold = catalog.server().serve(&uses_both).unwrap();
        assert!(!cold.from_cache);
        assert!(cold.rewritings.is_empty());
    }

    /// Every resident entry renders what a server without a cache
    /// computes over the catalog's current views.
    fn assert_residents_match_cold_recompute(catalog: &LiveCatalog) {
        let server = catalog.server();
        let cold = BatchServer::with_config(
            server.views(),
            ServeConfig {
                cache_capacity: 0,
                ..ServeConfig::default()
            },
        );
        for (canonical, epoch, _) in server.cache().unwrap().entries() {
            assert_eq!(epoch, server.epoch(), "no stale-epoch residents");
            let warm = server.serve(&canonical).unwrap();
            let fresh = cold.serve(&canonical).unwrap();
            assert_eq!(warm.render(), fresh.render(), "{canonical}");
        }
    }

    #[test]
    fn add_view_keeps_an_entry_whose_joins_the_view_cannot_meet() {
        let catalog = LiveCatalog::new(&example41_views(), ServeConfig::default());
        let q = parse_query("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)").unwrap();
        catalog.server().serve(&q).unwrap();
        // Both of the query's predicates, but joined a(A, _) to b(_, A):
        // the query never joins a's first position to b's second.
        let outcome = catalog
            .add_view(view("w(A, C) :- a(A, B), b(C, A)"))
            .unwrap();
        assert_eq!((outcome.invalidated, outcome.revalidated), (0, 1));
        let warm = catalog.server().serve(&q).unwrap();
        assert!(warm.from_cache);
        assert_eq!(warm.epoch, 1);
        assert_residents_match_cold_recompute(&catalog);
    }

    #[test]
    fn add_view_evicts_an_entry_that_joins_through_a_constant() {
        let catalog = LiveCatalog::new(&example41_views(), ServeConfig::default());
        let q = parse_query("q(X, Y) :- a(X, k), b(k, Y)").unwrap();
        catalog.server().serve(&q).unwrap();
        // The view joins a's second position to b's first; the query
        // does too, through the constant `k` both subgoals hold.
        let outcome = catalog
            .add_view(view("w(A, C) :- a(A, B), b(B, C)"))
            .unwrap();
        assert_eq!((outcome.invalidated, outcome.revalidated), (1, 0));
        assert!(!catalog.server().serve(&q).unwrap().from_cache);
        assert_residents_match_cold_recompute(&catalog);
    }

    #[test]
    fn duplicate_add_unknown_drop_and_bad_arity_are_rejected() {
        let catalog = LiveCatalog::new(&example41_views(), ServeConfig::default());
        let err = catalog.add_view(view("v1(A, B) :- b(A, B)")).unwrap_err();
        assert!(err.contains("already exists"), "{err}");
        let err = catalog.drop_view(Symbol::new("nope")).unwrap_err();
        assert!(err.contains("unknown view"), "{err}");
        let err = catalog.add_view(view("v3(A) :- a(A, A, A)")).unwrap_err();
        assert!(err.contains("VP001"), "{err}");
        assert_eq!(catalog.epoch(), 0, "rejected DDL must not swap");
    }

    #[test]
    fn swap_fault_leaves_catalog_on_the_old_epoch() {
        let faults = Arc::new(ServeFaults::new(Some(Fault {
            point: FaultPoint::Swap,
            nth: 1,
        })));
        let catalog = LiveCatalog::with_faults(&example41_views(), ServeConfig::default(), faults);
        let q = parse_query("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)").unwrap();
        catalog.server().serve(&q).unwrap();

        let err = catalog.add_view(view("v3(A, B) :- b(A, B)")).unwrap_err();
        assert!(err.contains("injected swap fault"), "{err}");
        assert_eq!(catalog.epoch(), 0);
        // The cache was untouched by the failed swap: still warm.
        assert!(catalog.server().serve(&q).unwrap().from_cache);
        // The fault is one-shot; the retry succeeds.
        let outcome = catalog.add_view(view("v3(A, B) :- b(A, B)")).unwrap();
        assert_eq!(outcome.epoch, 1);
    }

    #[test]
    fn resident_entries_match_cold_recompute_after_ddl() {
        // The differential oracle in miniature (the proptest at the
        // workspace root drives arbitrary DDL sequences through this).
        let catalog = LiveCatalog::new(&example41_views(), ServeConfig::default());
        let queries = [
            parse_query("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)").unwrap(),
            parse_query("q(X) :- a(X, X)").unwrap(),
            parse_query("q(X) :- zzz(X, X)").unwrap(),
        ];
        for q in &queries {
            catalog.server().serve(q).unwrap();
        }
        catalog.add_view(view("v3(A, B) :- b(A, B)")).unwrap();
        catalog.drop_view(Symbol::new("v2")).unwrap();

        let server = catalog.server();
        let cold = BatchServer::with_config(
            server.views(),
            ServeConfig {
                cache_capacity: 0,
                ..ServeConfig::default()
            },
        );
        for q in &queries {
            let warm = server.serve(q).unwrap();
            let fresh = cold.serve(q).unwrap();
            assert_eq!(warm.render(), fresh.render(), "{q}");
        }
        assert_residents_match_cold_recompute(&catalog);
    }
}
