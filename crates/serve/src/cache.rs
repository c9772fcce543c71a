//! The rewriting cache: bounded, sharded, LRU, keyed on canonical
//! queries, versioned by catalog epoch.
//!
//! A serving workload repeats itself — the same query template arrives
//! again and again with freshly generated variable names. The cache key
//! is therefore the query canonicalized up to variable renaming
//! ([`viewplan_containment::canonicalize`], the same canonical form the
//! containment memo cache uses), so every variant of a query hits one
//! entry. The stored value is the full canonical-space answer
//! (rewritings, chosen plan, completeness) together with its wire body as
//! a template with the variables left open; on the way out the command
//! path fills the template with the request's own spellings, and
//! [`crate::BatchServer::serve`] renames the structured half for callers
//! that want `Rewriting`s.
//!
//! **Poisoning rule.** An answer whose completeness marker is anything
//! but [`Completeness::Complete`] is *never* stored — a budget-truncated
//! answer is an artifact of one request's deadline, and caching it would
//! replay the degradation to every later (possibly unbudgeted) request.
//! This mirrors the containment cache's rule of never memoizing
//! truncated verdicts. Rejections are counted, not silent.
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
//! `capacity / SHARDS` entries and evicts its least-recently-used entry
//! on overflow, tracked by a per-shard monotone stamp bumped on every
//! touch. The LRU victim scan is linear
//! in the shard — shards are small (hundreds of entries) and eviction is
//! off the hit path, so simplicity wins over an intrusive list.
//!
//! Counters (when stats collection is on): `serve.cache_hits`,
//! `serve.cache_misses`, `serve.cache_coalesced`,
//! `serve.cache_evictions`, `serve.cache_rejected_incomplete`,
//! `serve.cache_invalidated`. The
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
/// invalidation predicates and the differential oracle), the epoch it is
/// known valid for, its LRU stamp, and the canonical-space answer.
struct Entry {
    stamp: u64,
    epoch: u64,
    canonical: ConjunctiveQuery,
    value: Arc<CachedAnswer>,
}

/// One shard: an independent map with its own LRU clock.
struct Shard {
    map: HashMap<CanonicalQuery, Entry>,
    tick: u64,
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
    /// Entries displaced by the LRU policy.
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
    pub invalidated: u64,
    /// Entries the change cannot affect, revalidated to the new epoch.
    pub revalidated: u64,
    /// Race leftovers (epoch older than the swap's source) removed.
    pub stale_dropped: u64,
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

/// A bounded, sharded, LRU map from canonical queries to served answers,
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
                        tick: 0,
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
    /// and [`RewritingCache::get_or_join`]: refreshes recency on a hit,
    /// counts nothing (each public entry point tallies exactly one
    /// hit-or-miss per call, preserving hits + misses == lookups).
    fn lookup(&self, key: &CanonicalQuery, epoch: u64) -> Option<Arc<CachedAnswer>> {
        let mut shard = self.shard(key).lock();
        shard.tick += 1;
        let now = shard.tick;
        match shard.map.get_mut(key) {
            Some(entry) if entry.epoch == epoch => {
                entry.stamp = now;
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
    /// catalog-snapshot epoch), refreshing the entry's recency on a hit.
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
    /// case the attempt is counted and dropped. Evicts the shard's LRU
    /// entry on overflow. An existing entry tagged with a *newer* epoch
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
        shard.tick += 1;
        let now = shard.tick;
        match shard.map.get(&key) {
            Some(existing) => {
                if existing.epoch > epoch {
                    return;
                }
            }
            None => {
                if shard.map.len() >= self.shard_capacity {
                    if let Some(victim) = shard
                        .map
                        .iter()
                        .min_by_key(|(_, e)| e.stamp)
                        .map(|(k, _)| k.clone())
                    {
                        shard.map.remove(&victim);
                        // ordering: monotone tally; `stats` reads it alone.
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                        obs::counter!("serve.cache_evictions").incr();
                    }
                }
            }
        }
        shard.map.insert(
            key,
            Entry {
                stamp: now,
                epoch,
                canonical,
                value,
            },
        );
    }

    /// The DDL writer's swap-time pass: settle every entry for the move
    /// from `old_epoch` to `new_epoch`. Entries at `old_epoch` for which
    /// `affected` returns false are revalidated in place (epoch bumped —
    /// the answer provably cannot change, so evicting it would be
    /// wasteful, not wrong); affected entries are removed and counted as
    /// invalidated. Entries older than `old_epoch` are race leftovers
    /// (inserted by a compute that straddled an earlier swap) and are
    /// dropped — they could never hit again.
    ///
    /// Call this *after* publishing the new snapshot: readers between the
    /// publish and this pass see plain misses (their epoch is new, the
    /// entries are still old), never stale answers.
    pub fn retarget(
        &self,
        old_epoch: u64,
        new_epoch: u64,
        affected: impl Fn(&ConjunctiveQuery, &CachedAnswer) -> bool,
    ) -> RetargetOutcome {
        let mut outcome = RetargetOutcome::default();
        for shard in &self.shards {
            let mut shard = shard.lock();
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
        }
        self.invalidated
            // ordering: monotone tally; `stats` reads it alone.
            .fetch_add(outcome.invalidated, Ordering::Relaxed);
        obs::counter!("serve.cache_invalidated").add(outcome.invalidated);
        outcome
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
                    .map(|e| (e.canonical.clone(), e.epoch, e.value.clone()))
                    .collect::<Vec<_>>()
            })
            .collect()
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
    fn lru_eviction_keeps_recently_used_entries() {
        // Capacity 8 over 8 shards = 1 entry per shard: inserting two
        // keys that land in the same shard must evict the stale one.
        let cache = RewritingCache::new(8);
        let sources: Vec<String> = (0..64).map(|i| format!("q(X) :- p{i}(X, Y)")).collect();
        for src in &sources {
            put(&cache, src, Completeness::Complete, 0);
        }
        assert!(cache.len() <= 8);
        assert!(cache.stats().evictions >= 56);
        // The most recent insert in some shard is still resident.
        assert!(cache.get(&key(sources.last().unwrap()), 0).is_some());
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
