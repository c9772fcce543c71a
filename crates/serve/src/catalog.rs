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
//! old server's [`RewritingCache`](crate::RewritingCache), so the writer must
//! settle every cached entry for the new epoch. Evicting everything would be
//! sound but wasteful; the point of the epoch design is that most entries are
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
//! * `add v`: view tuples are per view, T(Q, V ∪ {v}) = T(Q, V) ∪
//!   T(Q, {v}), and `v` is appended last, so a cold recompute over the
//!   new catalog sees the old view tuples, cores, tuple classes and
//!   candidates in their old order with `v`'s after them. A tuple's core
//!   depends only on the query and the tuple (Lemma 4.2), and the GMRs
//!   are exactly the minimum covers of the candidates' cores (Corollary
//!   4.1). So an entry is kept unless some tuple of `v` over the
//!   minimized query has a nonempty core that is a *new candidate* —
//!   every such tuple without tuple grouping, one whose core no old
//!   candidate has with it (a core an old candidate has joins that
//!   candidate's class behind its representative) — and some minimum
//!   cover of the old and new candidates uses it. When none does, the
//!   minimum covers are the old ones in the old order, built from the
//!   old representatives; a cover the certificate vouched for is a
//!   rewriting whatever its class-mates are, and M1 ranks covers by
//!   size alone and grafts no filter, so the rewritings, the chosen
//!   plan and the rendered answer are byte for byte the cold
//!   recompute's. The entry is re-stamped, and its candidate list takes
//!   the new candidates, which a later `add` must count (two views can
//!   make a smaller cover together that neither makes alone). The check
//!   reads what the answer kept of step (4) — its candidate cores, and
//!   the minimized query when minimizing changed the canonical one
//!   ([`viewplan_core::CoreCoverResult::covered_cores`]) — and matches
//!   `v` alone; it runs before the swap, outside every shard lock, on
//!   the entries `v` reaches, and `retarget` only looks the decisions
//!   up. A candidate list that outlived a `drop` or a failed swap holds
//!   extra cores, none in a minimum cover; the argument still goes
//!   through, since a cover of the true candidates that uses `v` is then
//!   matched or beaten by one over the kept list that uses `v` too.
//!   Three cases keep today's rule and evict every entry `v` reaches —
//!   whose canonical body names `v` or passes its prefilter
//!   ([`viewplan_core::can_yield_tuples`]: every `(predicate, arity)`
//!   pair and every join of `v`'s body is the query's); a view that
//!   fails it has no tuple over the canonical query, nor over its
//!   minimization, and is re-stamped without a check:
//!   - an answer computed under `all_minimal`: CoreCover\* enumerates
//!     irredundant covers, not minimum ones, and keeps nothing;
//!   - an answer one of whose covers the certificate did not vouch for:
//!     the oracle's class-mate retry reads `v`'s tuples when they join
//!     a class, so a cover it rejected could pass;
//!   - an entry inserted between the decision and the swap, or whose
//!     check the ambient budget cut short.
//!
//! The eviction predicate is checked end to end by the differential
//! oracle (`tests/catalog_invalidation.rs`): after *any* add/drop
//! sequence, every resident entry renders byte-identical to a cold
//! recompute under the current catalog.
//!
//! **Fault injection.** `VIEWPLAN_FAULT=swap:nth` (via the shared
//! [`ServeFaults`] arm) fails the nth swap after the new snapshot is
//! built but before it is published: the catalog stays on the old epoch,
//! no entry is evicted or re-stamped, and the caller gets an error — a
//! crashed DDL step must never leave readers on a half-swapped catalog.
//! (A failed `add` may have appended candidates to the lists of answers
//! it would have kept; those are in no minimum cover, which is harmless,
//! as above.)

use std::collections::HashMap;
use std::sync::Arc;
use viewplan_core::all_minimum_covers_counted;
use viewplan_core::{
    body_signature, can_yield_tuples, core_masks, PreparedViews, Signature, ViewProgram,
};
use viewplan_cq::{ConjunctiveQuery, Symbol, View, ViewSet};
use viewplan_obs as obs;
use viewplan_obs::FaultPoint;
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
    /// Of `revalidated`, the entries an `add-view` reached (the
    /// prefilter flagged them) that the minimum-cover check kept.
    pub kept_by_cover: u64,
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
    pub(crate) fn faults(&self) -> &Arc<ServeFaults> {
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
        let reached = |canonical: &ConjunctiveQuery| {
            mentions(canonical, name) || may_yield_tuples(&needs, canonical)
        };
        // Decide every entry the view reaches and whose cover inputs were
        // kept, outside every shard lock; `retarget` only looks the
        // verdicts up. An entry inserted meanwhile is settled by the
        // prefilter alone.
        let verdicts: HashMap<*const CachedAnswer, Verdict> = match current.cache() {
            Some(cache) => {
                let added = ViewProgram::compile(&view);
                let group = current.config().corecover.group_view_tuples;
                cache
                    .entries_at(current.epoch(), |canonical, answer| {
                        answer.has_cover()
                            && !mentions(canonical, name)
                            && may_yield_tuples(&needs, canonical)
                    })
                    .into_iter()
                    .map(|(canonical, answer)| {
                        let keep = keeps_its_covers(&added, &canonical, &answer, group);
                        (Arc::as_ptr(&answer), Verdict { answer, keep })
                    })
                    .collect()
            }
            None => HashMap::new(),
        };
        let mut kept_by_cover = 0;
        let mut outcome = self.swap_to(
            &current,
            |snapshot, epoch| snapshot.with_view_added(view, epoch),
            |canonical, answer| match verdicts.get(&std::ptr::from_ref(answer)) {
                Some(decided) if std::ptr::eq(&*decided.answer, answer) => {
                    kept_by_cover += u64::from(decided.keep);
                    !decided.keep
                }
                _ => reached(canonical),
            },
        )?;
        obs::counter!("serve.cache_kept_by_cover").add(kept_by_cover);
        outcome.kept_by_cover = kept_by_cover;
        Ok(outcome)
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
            |canonical, answer| {
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
        affected: impl FnMut(&ConjunctiveQuery, &CachedAnswer) -> bool,
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
            kept_by_cover: 0,
        })
    }
}

fn mentions(q: &ConjunctiveQuery, name: Symbol) -> bool {
    q.body.iter().any(|a| a.predicate == name)
}

/// The prefilter ([`can_yield_tuples`]) of a view that `needs` against a
/// canonical query. The view's `(predicate, arity)` pairs are looked up
/// in the body as it stands first, which allocates nothing and already
/// rules out most entries; only a query holding them all builds its
/// signature for the join half of the test.
fn may_yield_tuples(needs: &Signature, canonical: &ConjunctiveQuery) -> bool {
    let has = |&(predicate, arity): &(Symbol, usize)| {
        canonical
            .body
            .iter()
            .any(|a| a.predicate == predicate && a.arity() == arity)
    };
    needs.pairs().iter().all(has) && can_yield_tuples(needs, &body_signature(canonical))
}

/// `add v`'s decision on one entry, taken before the swap. `answer` is
/// held so that no other answer can take its address before `retarget`
/// looks the decision up.
struct Verdict {
    answer: Arc<CachedAnswer>,
    keep: bool,
}

/// Whether `answer` (to `canonical`) survives adding the view compiled
/// into `added` last: true when no minimum cover of its old candidates and the
/// view's new ones uses a new one (module docs, "Principled cache
/// invalidation"). A kept answer's candidate list takes the new ones,
/// which a later `add` must see; since they are in no minimum cover,
/// keeping them is sound even if this swap fails or the entry goes.
fn keeps_its_covers(
    added: &ViewProgram,
    canonical: &ConjunctiveQuery,
    answer: &CachedAnswer,
    group_view_tuples: bool,
) -> bool {
    let Some(mut inputs) = answer.cover() else {
        return false;
    };
    let qm = inputs.minimized.as_deref().unwrap_or(canonical);
    // The cores of the view's tuples over the minimized query, from one
    // table of it, the nonempty ones only: an empty core is a filter
    // candidate, which step (4) does not cover with and an M1 plan never
    // grafts.
    let mut new: Vec<u64> = Vec::new();
    for core in core_masks(qm, added) {
        // With tuple grouping a core some candidate already has joins
        // that candidate's class behind its representative, and a
        // certified cover never reads a class-mate.
        let old = group_view_tuples && (inputs.cores.contains(&core) || new.contains(&core));
        if core != 0 && !old {
            new.push(core);
        }
    }
    if new.is_empty() {
        return true;
    }
    // A nonempty core means a nonempty body, so the shift is below 64.
    let universe = u64::MAX >> (64 - qm.body.len());
    let first_new = inputs.cores.len();
    inputs.cores.extend_from_slice(&new);
    let minimum = all_minimum_covers_counted(universe, &inputs.cores);
    let uses_new = minimum.covers.iter().flatten().any(|&k| k >= first_new);
    if minimum.truncated || uses_new {
        inputs.cores.truncate(first_new);
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_cq::{parse_query, parse_views};
    use viewplan_obs::Fault;

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
    fn add_view_keeps_an_entry_the_view_joins_only_through_a_constant() {
        let catalog = LiveCatalog::new(&example41_views(), ServeConfig::default());
        let q = parse_query("q(X, Y) :- a(X, k), b(k, Y)").unwrap();
        catalog.server().serve(&q).unwrap();
        // The view joins a's second position to b's first, and so does
        // the query, through the constant `k`: the prefilter flags the
        // entry. But `w(X, Y)` maps B to `k`, and a query constant never
        // maps to a view's existential, so the tuple's core is empty:
        // no new candidate, nothing to cover with, the entry is kept.
        let outcome = catalog
            .add_view(view("w(A, C) :- a(A, B), b(B, C)"))
            .unwrap();
        assert_eq!((outcome.invalidated, outcome.revalidated), (0, 1));
        assert_eq!(outcome.kept_by_cover, 1);
        assert!(catalog.server().serve(&q).unwrap().from_cache);
        assert_residents_match_cold_recompute(&catalog);
    }

    #[test]
    fn add_view_evicts_an_entry_whose_minimum_cover_the_view_enters() {
        let catalog = LiveCatalog::new(&example41_views(), ServeConfig::default());
        let q = parse_query("q(X, Y) :- a(X, k), b(k, Y)").unwrap();
        assert!(catalog.server().serve(&q).unwrap().rewritings.is_empty());
        // This view joins through the constant itself: `w(X, Y)` covers
        // both subgoals, a cover of one where there was none.
        let outcome = catalog
            .add_view(view("w(A, C) :- a(A, k), b(k, C)"))
            .unwrap();
        assert_eq!((outcome.invalidated, outcome.revalidated), (1, 0));
        assert_eq!(outcome.kept_by_cover, 0);
        let cold = catalog.server().serve(&q).unwrap();
        assert!(!cold.from_cache);
        assert_eq!(cold.rewritings[0].to_string(), "q(X, Y) :- w(X, Y)");
        assert_residents_match_cold_recompute(&catalog);
    }

    #[test]
    fn an_old_core_is_a_new_candidate_only_without_tuple_grouping() {
        // `w(X, Z, X)` covers exactly what `v1(X, Z)` covers. Grouped, it
        // joins v1's tuple class behind its representative and no
        // minimum cover changes; ungrouped, it is a candidate of its own
        // and `w(X, Z, X), v2(Z, Y)` is a second minimum cover.
        let q = parse_query("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)").unwrap();
        for (group_view_tuples, kept) in [(true, 1), (false, 0)] {
            let config = ServeConfig {
                corecover: viewplan_core::CoreCoverConfig {
                    group_view_tuples,
                    ..Default::default()
                },
                ..ServeConfig::default()
            };
            let catalog = LiveCatalog::new(&example41_views(), config.clone());
            catalog.server().serve(&q).unwrap();
            let outcome = catalog
                .add_view(view("w(A, B, C) :- a(A, B), a(B, B), a(C, B)"))
                .unwrap();
            assert_eq!(outcome.kept_by_cover, kept, "grouping {group_view_tuples}");
            assert_eq!(outcome.invalidated, 1 - kept);
            let server = catalog.server();
            let cold = BatchServer::with_config(
                server.views(),
                ServeConfig {
                    cache_capacity: 0,
                    ..config
                },
            );
            assert_eq!(
                server.serve(&q).unwrap().render(),
                cold.serve(&q).unwrap().render()
            );
        }
    }

    #[test]
    fn a_kept_entry_carries_the_candidates_the_view_brought() {
        // Two adds, neither of which changes the answer alone, whose new
        // candidates together make a second minimum cover: the first add
        // must leave its candidate on the entry for the second to see.
        let catalog = LiveCatalog::new(
            &parse_views(
                "v(A, B, C) :- a(A, B), b(B, C).\n\
                 u(A, B, C) :- c(A, B), d(B, C).",
            )
            .unwrap(),
            ServeConfig::default(),
        );
        let q = parse_query("q(X, Y, Z, W) :- a(X, Y), b(Y, Z), c(Z, W), d(W, X)").unwrap();
        catalog.server().serve(&q).unwrap();
        // {ab, cd} is the one minimum cover. `w1` covers {a, c} and `w2`
        // {b, d}: neither is in a cover of two alone, together they are.
        let first = catalog
            .add_view(view("w1(A, B, C, D) :- a(A, B), c(C, D)"))
            .unwrap();
        assert_eq!(first.kept_by_cover, 1);
        let second = catalog
            .add_view(view("w2(A, B, C, D) :- b(A, B), d(C, D)"))
            .unwrap();
        assert_eq!((second.invalidated, second.kept_by_cover), (1, 0));
        assert_residents_match_cold_recompute(&catalog);
        let after = catalog.server().serve(&q).unwrap();
        assert_eq!(after.rewritings.len(), 2, "{}", after.render());
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
