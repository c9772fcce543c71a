//! The rewriting cache: bounded, sharded, SIEVE, keyed on canonical
//! queries, versioned by catalog epoch.
//!
//! A serving workload repeats itself — the same query template arrives
//! again and again with freshly generated variable names. The cache key
//! is therefore the query canonicalized up to variable renaming
//! ([`viewplan_containment::canonicalize`]), so every variant of a query
//! hits one entry. The stored value is the full canonical-space answer
//! (rewritings, chosen plan, completeness) together with its wire body as
//! a template with the variables left open; on the way out the command
//! path fills the template with the request's own spellings, and
//! [`crate::BatchServer::serve`] renames the structured half for callers
//! that want `Rewriting`s.
//!
//! **Poisoning rule.** An answer whose completeness marker is anything
//! but [`Completeness::Complete`](viewplan_obs::Completeness::Complete) is
//! *never* stored — a budget-truncated answer is an artifact of one request's
//! deadline, and caching it would replay the degradation to every later
//! (possibly unbudgeted) request. Rejections are counted, not silent.
//!
//! **Epochs and online DDL.** Under a live catalog (`add-view` /
//! `drop-view` without draining traffic) an answer is only valid for the
//! view set that computed it. Every entry therefore carries the epoch it
//! is known valid for, and [`RewritingCache::get`] only hits when the
//! entry's epoch equals the *reader's snapshot* epoch. On a catalog swap
//! the single DDL writer calls [`RewritingCache::retarget`]: entries the
//! change cannot affect are revalidated in place (their epoch is bumped
//! to the new one — the principled part: only entries whose cached
//! rewriting touches a changed view are evicted), affected entries are
//! removed, and entries left behind by races (inserted under an epoch
//! older than the swap's source) are dropped — they can never hit again.
//! An insert racing the swap lands tagged with the *computing* snapshot's
//! epoch, so a new-epoch reader treats it as a miss rather than a stale
//! answer; the next swap sweeps it out. Static deployments stay at epoch
//! 0 throughout and never pay any of this.
//!
//! **Eviction.** The cache is sharded (key-hash → shard, each an
//! independent mutex) to keep worker threads from contending on one
//! lock. A key carries its hash from the moment it is built
//! ([`CanonicalQuery::hash64`]): the shard choice reads it and the
//! shard's map hashes that one word, so a probe never walks the key's
//! encoding to hash it, and cloning a key (the in-flight table, a stored
//! entry) shares the encoding. Each shard holds at most
//! `capacity / SHARDS` entries and evicts by SIEVE (Zhang et al., "SIEVE
//! is Simpler than LRU", NSDI '24): the shard keeps its keys in
//! insertion order, a hit sets the entry's visited bit and moves
//! nothing, and on overflow a hand walks from where it last stopped
//! (the oldest key at first) towards the newest, clearing visited bits,
//! until it meets an unvisited entry — the victim — and wraps to the
//! oldest key when it passes the newest. A key that was hit since the
//! hand last passed survives a scan of one-hit keys; under LRU that
//! scan would push it out. A served workload is a Zipf stream whose
//! tail is one-hit keys, so SIEVE keeps the head resident where LRU
//! gave its slots to the tail. The walk and the removal are linear in
//! the shard — shards are small (hundreds of entries) and eviction is
//! off the hit path, so simplicity wins over an intrusive list.
//!
//! Counters (when stats collection is on): `serve.cache_hits`,
//! `serve.cache_misses`, `serve.cache_coalesced`,
//! `serve.cache_evictions`, `serve.cache_rejected_incomplete`,
//! `serve.cache_invalidated`, and — counted by the catalog, which decides
//! it — `serve.cache_kept_by_cover` (entries an `add-view` reached that
//! the minimum-cover check kept; see [`crate::catalog`]). The
//! same numbers are always available programmatically through
//! [`RewritingCache::stats`], independent of whether obs collection is
//! enabled.

use std::collections::HashMap;
use std::sync::Arc;
use viewplan_containment::CanonicalQuery;
use viewplan_cq::ConjunctiveQuery;
use viewplan_obs as obs;
use viewplan_sync::{AtomicU64, Condvar, Mutex, Ordering};

use crate::batch::CachedAnswer;

/// Number of independent lock shards (power of two).
const SHARDS: usize = 8;

/// One cached entry: the canonical query it answers (kept for
/// invalidation predicates and the differential oracle, and shared with
/// the DDL writer's [`RewritingCache::entries_at`]), the epoch it is
/// known valid for, its SIEVE visited bit, and the canonical-space
/// answer.
struct Entry {
    visited: bool,
    epoch: u64,
    canonical: Arc<ConjunctiveQuery>,
    value: Arc<CachedAnswer>,
}

/// One shard: an independent map, its keys in insertion order, and the
/// SIEVE hand (module docs, "Eviction").
struct Shard {
    map: HashMap<CanonicalQuery, Entry>,
    /// The map's keys, oldest first.
    order: Vec<CanonicalQuery>,
    /// The position in `order` the next eviction looks at first.
    hand: usize,
}

impl Shard {
    /// Removes SIEVE's victim: the first unvisited entry from the hand
    /// on, clearing the visited bits it passes. False when the shard is
    /// empty.
    fn evict(&mut self) -> bool {
        // Every pass clears the bits it meets, so the second pass at the
        // latest finds a victim.
        while !self.order.is_empty() {
            if self.hand >= self.order.len() {
                self.hand = 0;
            }
            match self.map.get_mut(&self.order[self.hand]) {
                Some(entry) if entry.visited => {
                    entry.visited = false;
                    self.hand += 1;
                }
                found => {
                    debug_assert!(found.is_some(), "order and map hold the same keys");
                    let victim = self.order.remove(self.hand);
                    if self.map.remove(&victim).is_some() {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Drops from `order` the keys the map no longer holds, keeping the
    /// hand on the same surviving key.
    fn resync_order(&mut self) {
        let Shard { map, order, hand } = self;
        let (mut position, mut kept_before_hand) = (0, 0);
        order.retain(|key| {
            let kept = map.contains_key(key);
            if kept && position < *hand {
                kept_before_hand += 1;
            }
            position += 1;
            kept
        });
        *hand = kept_before_hand;
    }
}

/// Point-in-time cache statistics (see [`RewritingCache::stats`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Probes that found a current-epoch entry.
    pub hits: u64,
    /// Probes that found nothing (or only a wrong-epoch entry).
    pub misses: u64,
    /// Hits served by waiting on another request's in-flight compute
    /// (a subset of `hits`; see [`RewritingCache::get_or_join`]).
    pub coalesced: u64,
    /// Entries displaced by the SIEVE policy.
    pub evictions: u64,
    /// Insert attempts refused because the answer was not `Complete`.
    pub rejected_incomplete: u64,
    /// Entries evicted by DDL because the change could affect them.
    pub invalidated: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// What one [`RewritingCache::retarget`] pass did.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RetargetOutcome {
    /// Entries removed because the catalog change could affect them.
    pub(crate) invalidated: u64,
    /// Entries the change cannot affect, revalidated to the new epoch.
    pub(crate) revalidated: u64,
    /// Race leftovers (epoch older than the swap's source) removed.
    pub(crate) stale_dropped: u64,
}

/// Counter funnel for one cache lookup — the single registration site
/// for `serve.cache_hits` / `serve.cache_misses` (the xtask lint).
/// Both names are touched on *every* lookup (`add(0)` on the outcome
/// that did not happen): metric registration is lazy, and a workload of
/// racing concurrent misses used to leave `serve.cache_hits`
/// unregistered — and therefore absent from Prometheus/stats snapshots —
/// until the first hit landed, which made exposition output
/// thread-count-dependent. The exposition side holds up the other end
/// of the bargain by rendering registered counters even at zero, so
/// both series appear from the very first probe.
fn note_lookup(hit: bool) {
    let hits = obs::counter!("serve.cache_hits");
    let misses = obs::counter!("serve.cache_misses");
    if hit {
        hits.incr();
        misses.add(0);
        obs::trace_event!("serve.cache_hit");
    } else {
        misses.incr();
        hits.add(0);
        obs::trace_event!("serve.cache_miss");
    }
}

/// One in-flight compute for a `(key, epoch)` pair. The leader publishes
/// the finished answer (or an abort) through `state`; followers wait on
/// `ready` instead of redundantly recomputing the same canonical query.
struct Flight {
    state: Mutex<FlightState>,
    ready: Condvar,
}

enum FlightState {
    /// The leader is still computing.
    Pending,
    /// The leader finished with a complete answer; followers share it.
    Published(Arc<CachedAnswer>),
    /// The leader failed, was dropped, or produced an incomplete answer
    /// (which the poisoning rule forbids sharing — a follower with a
    /// healthier budget must recompute rather than inherit truncation).
    Aborted,
}

/// The outcome of [`RewritingCache::get_or_join`].
pub enum CacheProbe<'a> {
    /// A usable answer: resident in the cache, or published by a
    /// concurrent leader this probe coalesced onto.
    Hit(Arc<CachedAnswer>),
    /// This probe is the leader for its `(key, epoch)`: compute the
    /// answer and call [`FlightGuard::publish`] (dropping the guard
    /// without publishing aborts, waking followers to recompute).
    Miss(FlightGuard<'a>),
}

/// Leadership token for one in-flight compute (see [`CacheProbe::Miss`]).
pub struct FlightGuard<'a> {
    cache: &'a RewritingCache,
    key: CanonicalQuery,
    epoch: u64,
    flight: Arc<Flight>,
    done: bool,
}

impl FlightGuard<'_> {
    /// Stores the computed answer (subject to the cache's poisoning
    /// rule) and wakes followers: a complete answer is shared with them
    /// directly; an incomplete one aborts the flight so each follower
    /// recomputes under its own budget.
    pub fn publish(mut self, canonical: ConjunctiveQuery, value: Arc<CachedAnswer>) {
        self.done = true;
        let complete = !value.completeness().is_incomplete();
        self.cache
            .insert(self.key.clone(), canonical, value.clone(), self.epoch);
        let state = if complete {
            FlightState::Published(value)
        } else {
            FlightState::Aborted
        };
        self.cache
            .finish(&self.key, self.epoch, &self.flight, state);
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.cache
                .finish(&self.key, self.epoch, &self.flight, FlightState::Aborted);
        }
    }
}

/// A bounded, sharded, SIEVE-evicted map from canonical queries to served answers,
/// versioned by catalog epoch.
pub struct RewritingCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    /// In-flight computes by `(key, epoch)`: the epoch is part of the
    /// key so a request on a newer catalog snapshot never coalesces onto
    /// (or waits for) a pre-swap compute.
    inflight: Mutex<HashMap<(CanonicalQuery, u64), Arc<Flight>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    rejected_incomplete: AtomicU64,
    invalidated: AtomicU64,
}

impl RewritingCache {
    /// A cache holding at most (roughly) `capacity` entries across all
    /// shards. `capacity` is clamped to at least one entry per shard.
    pub fn new(capacity: usize) -> RewritingCache {
        RewritingCache {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        order: Vec::new(),
                        hand: 0,
                    })
                })
                .collect(),
            shard_capacity: capacity.div_ceil(SHARDS).max(1),
            inflight: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejected_incomplete: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CanonicalQuery) -> &Mutex<Shard> {
        &self.shards[(key.hash64() as usize) % SHARDS]
    }

    /// The raw resident-entry probe shared by [`RewritingCache::get`]
    /// and [`RewritingCache::get_or_join`]: sets the entry's visited
    /// bit on a hit, counts nothing (each public entry point tallies
    /// exactly one hit-or-miss per call, preserving hits + misses ==
    /// lookups).
    fn lookup(&self, key: &CanonicalQuery, epoch: u64) -> Option<Arc<CachedAnswer>> {
        let mut shard = self.shard(key).lock();
        match shard.map.get_mut(key) {
            Some(entry) if entry.epoch == epoch => {
                entry.visited = true;
                Some(entry.value.clone())
            }
            _ => None,
        }
    }

    fn note_hit(&self, coalesced: bool) {
        // ordering: monotone tallies; `stats` reads each independently.
        self.hits.fetch_add(1, Ordering::Relaxed);
        if coalesced {
            // ordering: monotone tally; see above.
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            obs::counter!("serve.cache_coalesced").incr();
        }
        note_lookup(true);
    }

    /// Probes the cache for an answer valid at `epoch` (the reader's
    /// catalog-snapshot epoch), marking the entry visited on a hit.
    /// An entry tagged with any other epoch is a miss — never a stale
    /// answer — and is left for [`RewritingCache::retarget`] to settle.
    pub fn get(&self, key: &CanonicalQuery, epoch: u64) -> Option<Arc<CachedAnswer>> {
        match self.lookup(key, epoch) {
            Some(value) => {
                self.note_hit(false);
                Some(value)
            }
            None => {
                // ordering: monotone tally; `stats` reads it alone.
                self.misses.fetch_add(1, Ordering::Relaxed);
                note_lookup(false);
                None
            }
        }
    }

    /// Probes the cache with miss coalescing: concurrent requests for
    /// the same `(key, epoch)` elect one leader ([`CacheProbe::Miss`])
    /// while the rest wait for its published answer instead of
    /// recomputing it. This closes the duplicate-miss race where N
    /// identical requests, all probing before any inserted, ran N
    /// identical pipeline computes. Exactly one hit-or-miss is tallied
    /// per call (hits + misses == lookups, the model-checked invariant),
    /// and a coalesced wait counts as a hit.
    // lock-order: `inflight` and the flight's `state` are never held
    // together — the inflight guard is dropped before the state lock is
    // taken in the follower wait loop.
    pub fn get_or_join(&self, key: &CanonicalQuery, epoch: u64) -> CacheProbe<'_> {
        loop {
            if let Some(value) = self.lookup(key, epoch) {
                self.note_hit(false);
                return CacheProbe::Hit(value);
            }
            let flight = {
                let mut inflight = self.inflight.lock();
                match inflight.get(&(key.clone(), epoch)) {
                    Some(flight) => flight.clone(),
                    None => {
                        // Double-check the cache before taking the
                        // lead: publish inserts the answer *before*
                        // finish unregisters its flight, so "no flight"
                        // after a stale initial probe can mean a whole
                        // compute came and went in between — its answer
                        // is resident, and electing a second leader
                        // here would recompute it (the duplicate-miss
                        // race the model checker pins).
                        // lock-order: `inflight` is held across the
                        // shard lock inside `lookup`; no path acquires
                        // a shard lock before `inflight`.
                        if let Some(value) = self.lookup(key, epoch) {
                            drop(inflight);
                            self.note_hit(false);
                            return CacheProbe::Hit(value);
                        }
                        let flight = Arc::new(Flight {
                            state: Mutex::new(FlightState::Pending),
                            ready: Condvar::new(),
                        });
                        inflight.insert((key.clone(), epoch), flight.clone());
                        // ordering: monotone tally; see `get`.
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        note_lookup(false);
                        return CacheProbe::Miss(FlightGuard {
                            cache: self,
                            key: key.clone(),
                            epoch,
                            flight,
                            done: false,
                        });
                    }
                }
            };
            let mut state = flight.state.lock();
            loop {
                match &*state {
                    FlightState::Pending => state = flight.ready.wait(state),
                    FlightState::Published(value) => {
                        let value = value.clone();
                        drop(state);
                        self.note_hit(true);
                        return CacheProbe::Hit(value);
                    }
                    // The leader gave up (error, panic, or incomplete
                    // answer): take another full pass — the next
                    // iteration elects a new leader (possibly us).
                    FlightState::Aborted => break,
                }
            }
        }
    }

    /// Resolves a flight: unregisters it and wakes every follower with
    /// the final state. Called with neither the inflight map nor the
    /// flight state held.
    // lock-order: `inflight` is released before the flight's `state` is
    // taken (same discipline as get_or_join).
    fn finish(&self, key: &CanonicalQuery, epoch: u64, flight: &Arc<Flight>, state: FlightState) {
        self.inflight.lock().remove(&(key.clone(), epoch));
        *flight.state.lock() = state;
        flight.ready.notify_all();
    }

    /// Stores an answer computed at `epoch` for `canonical` — unless it
    /// is incomplete (the poisoning rule; see the module docs), in which
    /// case the attempt is counted and dropped. Evicts the shard's SIEVE
    /// victim on overflow. An existing entry tagged with a *newer* epoch
    /// wins over the incoming one (a racing insert from a pre-swap
    /// compute must not clobber a revalidated or freshly computed
    /// answer).
    pub fn insert(
        &self,
        key: CanonicalQuery,
        canonical: ConjunctiveQuery,
        value: Arc<CachedAnswer>,
        epoch: u64,
    ) {
        if value.completeness().is_incomplete() {
            // ordering: monotone tally; `stats` reads it alone.
            self.rejected_incomplete.fetch_add(1, Ordering::Relaxed);
            obs::counter!("serve.cache_rejected_incomplete").incr();
            return;
        }
        let mut shard = self.shard(&key).lock();
        match shard.map.get_mut(&key) {
            Some(existing) => {
                if existing.epoch > epoch {
                    return;
                }
                // The key keeps its place in the order; arriving again
                // counts as a visit.
                *existing = Entry {
                    visited: true,
                    epoch,
                    canonical: Arc::new(canonical),
                    value,
                };
            }
            None => {
                if shard.map.len() >= self.shard_capacity && shard.evict() {
                    // ordering: monotone tally; `stats` reads it alone.
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    obs::counter!("serve.cache_evictions").incr();
                }
                shard.order.push(key.clone());
                shard.map.insert(
                    key,
                    Entry {
                        visited: false,
                        epoch,
                        canonical: Arc::new(canonical),
                        value,
                    },
                );
            }
        }
    }

    /// The DDL writer's swap-time pass: settle every entry for the move
    /// from `old_epoch` to `new_epoch`. Entries at `old_epoch` for which
    /// `affected` returns false are revalidated in place (epoch bumped —
    /// the answer provably cannot change, so evicting it would be
    /// wasteful, not wrong) and keep their place in the shard's order;
    /// affected entries are removed and counted as invalidated. Entries
    /// older than `old_epoch` are race leftovers (inserted by a compute
    /// that straddled an earlier swap) and are dropped — they could never
    /// hit again.
    ///
    /// `affected` runs under a shard lock: it must be cheap. Work that is
    /// not — `add-view`'s cover check — is done beforehand on the
    /// answers [`RewritingCache::entries_at`] hands out, and `affected`
    /// looks the decision up by the answer's address.
    ///
    /// Call this *after* publishing the new snapshot: readers between the
    /// publish and this pass see plain misses (their epoch is new, the
    /// entries are still old), never stale answers.
    pub fn retarget(
        &self,
        old_epoch: u64,
        new_epoch: u64,
        mut affected: impl FnMut(&ConjunctiveQuery, &CachedAnswer) -> bool,
    ) -> RetargetOutcome {
        let mut outcome = RetargetOutcome::default();
        for shard in &self.shards {
            let mut shard = shard.lock();
            let before = shard.map.len();
            shard.map.retain(|_, entry| {
                if entry.epoch < old_epoch {
                    outcome.stale_dropped += 1;
                    return false;
                }
                if entry.epoch == old_epoch {
                    if affected(&entry.canonical, &entry.value) {
                        outcome.invalidated += 1;
                        return false;
                    }
                    entry.epoch = new_epoch;
                    outcome.revalidated += 1;
                }
                true
            });
            if shard.map.len() < before {
                shard.resync_order();
            }
        }
        self.invalidated
            // ordering: monotone tally; `stats` reads it alone.
            .fetch_add(outcome.invalidated, Ordering::Relaxed);
        obs::counter!("serve.cache_invalidated").add(outcome.invalidated);
        outcome
    }

    /// The entries at `epoch` that `pick` selects, as `(canonical query,
    /// answer)`. `pick` runs under a shard lock; what the caller does
    /// with the result does not.
    pub fn entries_at(
        &self,
        epoch: u64,
        mut pick: impl FnMut(&ConjunctiveQuery, &CachedAnswer) -> bool,
    ) -> Vec<(Arc<ConjunctiveQuery>, Arc<CachedAnswer>)> {
        let mut picked = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            picked.extend(
                shard
                    .map
                    .values()
                    .filter(|e| e.epoch == epoch && pick(&e.canonical, &e.value))
                    .map(|e| (Arc::clone(&e.canonical), Arc::clone(&e.value))),
            );
        }
        picked
    }

    /// Every resident entry: `(canonical query, epoch, answer)`. Order is
    /// unspecified. This is the differential oracle's window: after any
    /// DDL sequence, each current-epoch entry must render byte-identical
    /// to a cold recompute under the current catalog.
    pub fn entries(&self) -> Vec<(ConjunctiveQuery, u64, Arc<CachedAnswer>)> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .map
                    .values()
                    .map(|e| {
                        (
                            ConjunctiveQuery::clone(&e.canonical),
                            e.epoch,
                            e.value.clone(),
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Panics unless every shard's insertion order and map hold the same
    /// keys, each once, with the hand inside the order (or one past its
    /// end). The invariant SIEVE rests on, for tests.
    pub fn assert_consistent(&self) {
        for shard in &self.shards {
            let shard = shard.lock();
            assert_eq!(shard.order.len(), shard.map.len(), "order and map sizes");
            let mut seen = std::collections::HashSet::with_capacity(shard.order.len());
            for key in &shard.order {
                assert!(
                    shard.map.contains_key(key),
                    "a key in the order is not in the map"
                );
                assert!(seen.insert(key), "a key appears twice in the order");
            }
            assert!(
                shard.hand <= shard.order.len(),
                "the hand is past the order"
            );
        }
    }

    /// Number of resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the cache's counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            // ordering: monotone tallies read independently; a snapshot
            // concurrent with lookups may straddle an in-flight probe,
            // which skews a count by at most the probes still running.
            hits: self.hits.load(Ordering::Relaxed),
            // ordering: see above.
            misses: self.misses.load(Ordering::Relaxed),
            // ordering: see above.
            coalesced: self.coalesced.load(Ordering::Relaxed),
            // ordering: see above.
            evictions: self.evictions.load(Ordering::Relaxed),
            // ordering: see above.
            rejected_incomplete: self.rejected_incomplete.load(Ordering::Relaxed),
            // ordering: see above.
            invalidated: self.invalidated.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_containment::canonicalize;
    use viewplan_cq::parse_query;
    use viewplan_obs::Completeness;

    fn answer(completeness: Completeness) -> Arc<CachedAnswer> {
        let canonical = keyed("q(X) :- e(X, Y)").1;
        Arc::new(CachedAnswer::new(
            &canonical,
            Vec::new(),
            None,
            completeness,
        ))
    }

    fn keyed(src: &str) -> (CanonicalQuery, ConjunctiveQuery) {
        let c = canonicalize(&parse_query(src).unwrap());
        (c.key, c.canonical)
    }

    fn key(src: &str) -> CanonicalQuery {
        keyed(src).0
    }

    fn put(cache: &RewritingCache, src: &str, completeness: Completeness, epoch: u64) {
        let (k, canonical) = keyed(src);
        cache.insert(k, canonical, answer(completeness), epoch);
    }

    #[test]
    fn hit_after_insert_and_variant_keys_collide() {
        let cache = RewritingCache::new(16);
        put(&cache, "q(X) :- e(X, Y)", Completeness::Complete, 0);
        assert!(cache.get(&key("q(A) :- e(A, B)"), 0).is_some());
        assert!(cache.get(&key("q(X) :- e(Y, X)"), 0).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn incomplete_answers_are_never_cached() {
        let cache = RewritingCache::new(16);
        put(&cache, "q(X) :- e(X, Y)", Completeness::Truncated, 0);
        put(&cache, "q(X) :- f(X, Y)", Completeness::DeadlineExceeded, 0);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().rejected_incomplete, 2);
    }

    #[test]
    fn a_full_cache_stays_within_capacity_and_keeps_the_newest_insert() {
        // Capacity 8 over 8 shards = 1 entry per shard: inserting two
        // keys that land in the same shard must evict one of them.
        let cache = RewritingCache::new(8);
        let sources: Vec<String> = (0..64).map(|i| format!("q(X) :- p{i}(X, Y)")).collect();
        for src in &sources {
            put(&cache, src, Completeness::Complete, 0);
        }
        assert!(cache.len() <= 8);
        assert!(cache.stats().evictions >= 56);
        // The most recent insert in some shard is still resident.
        assert!(cache.get(&key(sources.last().unwrap()), 0).is_some());
        cache.assert_consistent();
    }

    /// `count` distinct sources whose keys all land in the shard of
    /// `first`'s, `first` not among them.
    fn same_shard(first: &str, count: usize) -> Vec<String> {
        let shard = key(first).hash64() as usize % SHARDS;
        (0..)
            .map(|i| format!("q(X) :- s{i}(X, Y)"))
            .filter(|src| key(src).hash64() as usize % SHARDS == shard)
            .take(count)
            .collect()
    }

    #[test]
    fn a_scan_of_one_hit_keys_leaves_an_entry_hit_since_its_insertion() {
        // Four entries per shard. The hot key is inserted first and hit
        // once; then one-hit keys stream through its shard. LRU would
        // evict the hot key at the fourth of them (it is the least
        // recently used by then); SIEVE's hand clears its visited bit and
        // evicts the unvisited keys behind it instead.
        let cache = RewritingCache::new(4 * SHARDS);
        let hot = "q(X) :- hot(X, Y)";
        put(&cache, hot, Completeness::Complete, 0);
        assert!(cache.get(&key(hot), 0).is_some());
        let scan = same_shard(hot, 5);
        for src in &scan {
            put(&cache, src, Completeness::Complete, 0);
        }
        assert_eq!(cache.stats().evictions, 2);
        assert!(
            cache.get(&key(hot), 0).is_some(),
            "the hit entry was evicted"
        );
        // The victims are the oldest one-hit keys.
        assert!(cache.get(&key(&scan[0]), 0).is_none());
        assert!(cache.get(&key(&scan[4]), 0).is_some());
        cache.assert_consistent();
    }

    #[test]
    fn retarget_leaves_the_order_holding_the_keys_of_the_map() {
        let cache = RewritingCache::new(4 * SHARDS);
        let keys = same_shard("q(X) :- hot(X, Y)", 4);
        for src in &keys {
            put(&cache, src, Completeness::Complete, 0);
        }
        // Visit two, so the hand has bits to clear, and evict once to
        // move it off the oldest key.
        assert!(cache.get(&key(&keys[0]), 0).is_some());
        assert!(cache.get(&key(&keys[2]), 0).is_some());
        put(&cache, "q(X) :- hot(X, Y)", Completeness::Complete, 0);
        let evicted = keys
            .iter()
            .filter(|k| cache.get(&key(k), 0).is_none())
            .count();
        assert_eq!(evicted, 1);
        cache.assert_consistent();
        // Drop every other key, on both sides of the hand.
        let dropped = [&keys[0], &keys[2]].map(|src| keyed(src).1);
        let outcome = cache.retarget(0, 1, |canonical, _| dropped.contains(canonical));
        assert_eq!(outcome.invalidated, 2);
        cache.assert_consistent();
        // The shard still evicts, and only what it holds.
        for src in same_shard("q(X) :- hot(X, Y)", 12).iter().skip(4) {
            put(&cache, src, Completeness::Complete, 1);
            cache.assert_consistent();
        }
        assert!(cache.len() <= 4 * SHARDS);
    }

    #[test]
    fn wrong_epoch_entries_miss_instead_of_serving_stale() {
        let cache = RewritingCache::new(16);
        put(&cache, "q(X) :- e(X, Y)", Completeness::Complete, 0);
        // A reader on a newer (or older) snapshot must not see it.
        assert!(cache.get(&key("q(X) :- e(X, Y)"), 1).is_none());
        assert!(cache.get(&key("q(X) :- e(X, Y)"), 0).is_some());
    }

    #[test]
    fn retarget_revalidates_unaffected_and_evicts_affected() {
        let cache = RewritingCache::new(64);
        put(&cache, "q(X) :- e(X, Y)", Completeness::Complete, 0);
        put(&cache, "q(X) :- f(X, Y)", Completeness::Complete, 0);
        let outcome = cache.retarget(0, 1, |canonical, _| {
            canonical.body.iter().any(|a| a.predicate.as_str() == "e")
        });
        assert_eq!(
            outcome,
            RetargetOutcome {
                invalidated: 1,
                revalidated: 1,
                stale_dropped: 0
            }
        );
        assert_eq!(cache.stats().invalidated, 1);
        // The survivor now answers at the new epoch, not the old one.
        assert!(cache.get(&key("q(X) :- f(X, Y)"), 1).is_some());
        assert!(cache.get(&key("q(X) :- f(X, Y)"), 0).is_none());
        assert!(cache.get(&key("q(X) :- e(X, Y)"), 1).is_none());
    }

    #[test]
    fn retarget_drops_race_leftovers_and_newer_epoch_wins_on_insert() {
        let cache = RewritingCache::new(64);
        // A pre-swap compute's insert (epoch 0) arriving after the
        // catalog already moved 0 → 1 → 2: the 0-tagged entry is a race
        // leftover for the 1 → 2 retarget and must be dropped.
        put(&cache, "q(X) :- e(X, Y)", Completeness::Complete, 0);
        let outcome = cache.retarget(1, 2, |_, _| false);
        assert_eq!(outcome.stale_dropped, 1);
        assert!(cache.is_empty());
        // An old-epoch insert must not clobber a newer-epoch entry.
        put(&cache, "q(X) :- f(X, Y)", Completeness::Complete, 2);
        put(&cache, "q(X) :- f(X, Y)", Completeness::Complete, 1);
        assert!(cache.get(&key("q(X) :- f(X, Y)"), 2).is_some());
    }

    #[test]
    fn entries_exposes_canonical_queries_for_the_oracle() {
        let cache = RewritingCache::new(16);
        put(&cache, "q(A, B) :- e(A, B)", Completeness::Complete, 3);
        let entries = cache.entries();
        assert_eq!(entries.len(), 1);
        let (canonical, epoch, _) = &entries[0];
        assert_eq!(*epoch, 3);
        assert_eq!(canonical.to_string(), "q(__c0, __c1) :- e(__c0, __c1)");
    }
}
