//! Interleaving regression tests for the serving layer's three core
//! concurrency protocols, pinned by the `viewplan-sync` model checker:
//!
//! 1. **Cache contention / single-flight coalescing** — concurrent
//!    requests for the same canonical query elect exactly one leader;
//!    the rest share its published answer. Invariants: one compute per
//!    `(key, epoch)`, `hits + misses == lookups`, every thread gets the
//!    same `Arc` (no torn or duplicated insert).
//! 2. **Epoch publish vs. concurrent readers** — the DDL writer
//!    publishes the new snapshot *before* retargeting the cache, so a
//!    reader never observes a cache hit whose answer belongs to a
//!    different catalog version than its snapshot (no stale-epoch
//!    answer); and `add-view` decides its entries before the swap and
//!    settles them after it, racing an insert that evicts on the same
//!    shard without leaving the shard's order and map apart.
//! 3. **The admission gate** — the real `AdmissionGate` every served
//!    query passes: never more than `permits` running or `capacity`
//!    waiting, turns in arrival order, `close()` racing waiters and
//!    arrivals without losing or double-resolving anyone. (The
//!    accounting model — one permit or one shed per `enter`, one
//!    `serve.queue_wait_us` sample per permit — turns the process-wide
//!    obs switch on, which would change the code the models above run
//!    mid-exploration; it has `model_gate_accounting.rs` to itself.)
//!
//! These run in the standard suite at bounded budgets (small DFS
//! preemption bounds), so `cargo test` exhaustively re-explores every
//! schedule on each run; EXPERIMENTS.md records the measured
//! interleaving counts.

use std::sync::Arc;
use viewplan_containment::{canonicalize, CanonicalQuery};
use viewplan_cq::{parse_query, ConjunctiveQuery};
use viewplan_obs::Completeness;
use viewplan_serve::{AdmissionGate, CacheProbe, CachedAnswer, RewritingCache, ShedReason};
use viewplan_sync::model;
use viewplan_sync::{AtomicU64, AtomicUsize, Ordering, RwLock};

/// Model executions must be a pure function of the schedule, but global
/// lazy state (the symbol interner, obs counter registration) is
/// initialized on first touch. Parse the fixture query and warm every
/// code path once, single-threaded, before any model runs.
fn fixture() -> (CanonicalQuery, ConjunctiveQuery, Arc<CachedAnswer>) {
    let canonical = canonicalize(&parse_query("q(X, Y) :- e(X, Z), f(Z, Y)").unwrap());
    let answer = Arc::new(CachedAnswer::new(
        &canonical.canonical,
        Vec::new(),
        None,
        Completeness::Complete,
    ));
    // Warm-up pass: exercise the exact operations the models run so
    // every OnceLock / lazy registration settles before exploration.
    let cache = RewritingCache::new(16);
    match cache.get_or_join(&canonical.key, 0) {
        CacheProbe::Miss(flight) => flight.publish(canonical.canonical.clone(), answer.clone()),
        CacheProbe::Hit(_) => unreachable!("fresh cache cannot hit"),
    }
    let _ = cache.get(&canonical.key, 0);
    let _ = cache.entries_at(0, |_, _| true);
    cache.retarget(0, 1, |_, _| true);
    (canonical.key, canonical.canonical, answer)
}

/// A second key that lands in the fixture key's shard, found through the
/// public API: in a one-entry-per-shard cache, inserting it evicts the
/// fixture's entry. The search also warms the eviction path.
fn same_shard_key(
    key: &CanonicalQuery,
    canonical: &ConjunctiveQuery,
) -> (CanonicalQuery, ConjunctiveQuery) {
    let answer = |c: &ConjunctiveQuery| {
        Arc::new(CachedAnswer::new(
            c,
            Vec::new(),
            None,
            Completeness::Complete,
        ))
    };
    (0..)
        .map(|i| canonicalize(&parse_query(&format!("q(X) :- g{i}(X, Y)")).unwrap()))
        .find(|other| {
            let probe = RewritingCache::new(1);
            probe.insert(key.clone(), canonical.clone(), answer(canonical), 0);
            probe.insert(
                other.key.clone(),
                other.canonical.clone(),
                answer(&other.canonical),
                0,
            );
            probe.len() == 1
        })
        .map(|other| (other.key, other.canonical))
        .expect("some key shares the shard")
}

#[test]
fn concurrent_identical_misses_coalesce_onto_one_compute() {
    let (key, canonical, answer) = fixture();
    let report = model::check(&model::Config::dfs(2), move || {
        let cache = Arc::new(RewritingCache::new(16));
        let computes = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let cache = cache.clone();
                let computes = computes.clone();
                let key = key.clone();
                let canonical = canonical.clone();
                let answer = answer.clone();
                model::spawn(move || match cache.get_or_join(&key, 0) {
                    CacheProbe::Hit(value) => value,
                    CacheProbe::Miss(flight) => {
                        computes.fetch_add(1, Ordering::SeqCst);
                        flight.publish(canonical, answer.clone());
                        answer
                    }
                })
            })
            .collect();
        let answers: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        assert!(
            Arc::ptr_eq(&answers[0], &answers[1]),
            "both requests must observe the same published answer"
        );
        assert_eq!(
            computes.load(Ordering::SeqCst),
            1,
            "duplicate misses must coalesce onto exactly one compute"
        );
        let stats = cache.stats();
        assert_eq!(
            stats.hits + stats.misses,
            2,
            "exactly one hit-or-miss is tallied per lookup"
        );
        assert_eq!(stats.misses, 1, "only the leader counts a miss");
        assert_eq!(stats.hits, 1, "the follower counts a (coalesced) hit");
    });
    eprintln!("model cache_coalesce: {}", report.summary());
    assert!(report.ok(), "{}", report.summary());
    assert!(report.exhaustive, "DFS must exhaust the bounded schedules");
}

#[test]
fn aborted_leader_wakes_followers_to_reelect() {
    let (key, canonical, answer) = fixture();
    let report = model::check(&model::Config::dfs(2), move || {
        let cache = Arc::new(RewritingCache::new(16));
        // The quitter abandons its flight without publishing (a compute
        // error or panic); dropping the guard must abort the flight.
        let quitter = {
            let cache = cache.clone();
            let key = key.clone();
            model::spawn(move || {
                if let CacheProbe::Miss(flight) = cache.get_or_join(&key, 0) {
                    drop(flight);
                    true
                } else {
                    false
                }
            })
        };
        let worker = {
            let cache = cache.clone();
            let key = key.clone();
            let canonical = canonical.clone();
            let answer = answer.clone();
            model::spawn(move || match cache.get_or_join(&key, 0) {
                // The quitter never publishes, so a hit is impossible:
                // an aborted flight must loop and re-elect, not serve.
                CacheProbe::Hit(_) => false,
                CacheProbe::Miss(flight) => {
                    flight.publish(canonical, answer);
                    true
                }
            })
        };
        let quit_led = quitter.join().unwrap();
        assert!(
            worker.join().unwrap(),
            "the worker must become leader (never hang, never hit)"
        );
        let stats = cache.stats();
        let expected_misses = if quit_led { 2 } else { 1 };
        assert_eq!(stats.hits + stats.misses, 2);
        assert_eq!(stats.misses, expected_misses);
        assert_eq!(cache.len(), 1, "the worker's answer is resident");
    });
    eprintln!("model cache_abort: {}", report.summary());
    assert!(report.ok(), "{}", report.summary());
    assert!(report.exhaustive, "DFS must exhaust the bounded schedules");
}

/// The live catalog's swap protocol, reduced to its synchronization
/// skeleton: a snapshot pointer (`RwLock<Arc<_>>`, as in
/// `LiveCatalog::server`) published *before* the cache is retargeted.
/// The pinned invariant: whenever a reader's `get` hits, the answer is
/// the one computed under the reader's snapshot epoch — never the
/// pre-swap answer through a post-swap snapshot or vice versa.
#[test]
fn readers_never_observe_cross_epoch_answers_during_swap() {
    let (key, canonical, old_answer) = fixture();
    let new_answer = Arc::new(CachedAnswer::new(
        &canonical,
        Vec::new(),
        None,
        Completeness::Complete,
    ));
    let report = model::check(&model::Config::dfs(2), move || {
        let cache = Arc::new(RewritingCache::new(16));
        cache.insert(key.clone(), canonical.clone(), old_answer.clone(), 0);
        let snapshot = Arc::new(RwLock::new(Arc::new(0u64)));
        let swaps_seen = Arc::new(AtomicU64::new(0));

        let writer = {
            let cache = cache.clone();
            let snapshot = snapshot.clone();
            let key = key.clone();
            let canonical = canonical.clone();
            let new_answer = new_answer.clone();
            model::spawn(move || {
                // Publish first, retarget second — the order swap_to
                // uses. Readers between the two see plain misses (their
                // epoch is new, the entry is old), never stale answers.
                *snapshot.write() = Arc::new(1);
                cache.retarget(0, 1, |_, _| true);
                cache.insert(key, canonical, new_answer, 1);
            })
        };
        let reader = {
            let cache = cache.clone();
            let snapshot = snapshot.clone();
            let key = key.clone();
            let old_answer = old_answer.clone();
            let new_answer = new_answer.clone();
            let swaps_seen = swaps_seen.clone();
            model::spawn(move || {
                let epoch = **snapshot.read();
                if epoch == 1 {
                    swaps_seen.fetch_add(1, Ordering::SeqCst);
                }
                if let Some(hit) = cache.get(&key, epoch) {
                    let expected = if epoch == 0 { &old_answer } else { &new_answer };
                    assert!(
                        Arc::ptr_eq(&hit, expected),
                        "hit at epoch {epoch} must carry that epoch's answer"
                    );
                }
            })
        };
        writer.join();
        reader.join();
        // After the swap settles, epoch-1 readers get the new answer and
        // epoch-0 probes can never hit again.
        assert!(cache.get(&key, 0).is_none(), "pre-swap epoch is dead");
        let settled = cache.get(&key, 1).expect("post-swap answer resident");
        assert!(Arc::ptr_eq(&settled, &new_answer));
    });
    eprintln!("model epoch_swap: {}", report.summary());
    assert!(report.ok(), "{}", report.summary());
    assert!(report.exhaustive, "DFS must exhaust the bounded schedules");
}

/// `add-view`'s decide-then-settle protocol against an evicting insert
/// on the same shard. The writer decides outside every shard lock (here:
/// the fixture's answer is kept, anything else it saw is evicted),
/// publishes, and only then retargets, looking each entry's decision up
/// by its answer's address; an entry it did not decide falls to the
/// fallback rule (here: evict). The racing request reads its snapshot,
/// inserts another key into the one-entry shard — evicting the fixture
/// entry whenever it is still there — and probes both keys at its epoch.
/// Pinned: the shard's order and map agree afterwards, no answer
/// inserted at epoch 0 serves an epoch-1 read (only the decided one is
/// re-stamped), and hits + misses == lookups.
#[test]
fn an_evicting_insert_races_the_decide_then_settle_retarget() {
    let (key, canonical, kept_answer) = fixture();
    let (other_key, other_canonical) = same_shard_key(&key, &canonical);
    let other_answer = Arc::new(CachedAnswer::new(
        &other_canonical,
        Vec::new(),
        None,
        Completeness::Complete,
    ));
    let report = model::check(&model::Config::dfs(2), move || {
        let cache = Arc::new(RewritingCache::new(1));
        cache.insert(key.clone(), canonical.clone(), kept_answer.clone(), 0);
        let snapshot = Arc::new(RwLock::new(Arc::new(0u64)));
        let lookups = Arc::new(AtomicU64::new(0));

        let writer = {
            let (cache, snapshot) = (cache.clone(), snapshot.clone());
            let kept_answer = kept_answer.clone();
            model::spawn(move || {
                let decided: Vec<(Arc<CachedAnswer>, bool)> = cache
                    .entries_at(0, |_, _| true)
                    .into_iter()
                    .map(|(_, seen)| {
                        let keep = Arc::ptr_eq(&seen, &kept_answer);
                        (seen, keep)
                    })
                    .collect();
                *snapshot.write() = Arc::new(1);
                cache.retarget(0, 1, |_, value| {
                    let verdict = decided
                        .iter()
                        .find(|(seen, _)| std::ptr::eq(&**seen, value));
                    !verdict.is_some_and(|&(_, keep)| keep)
                });
            })
        };
        let request = {
            let (cache, snapshot, lookups) = (cache.clone(), snapshot.clone(), lookups.clone());
            let (key, other_key) = (key.clone(), other_key.clone());
            let (kept_answer, other_answer) = (kept_answer.clone(), other_answer.clone());
            let other_canonical = other_canonical.clone();
            model::spawn(move || {
                let epoch = **snapshot.read();
                cache.insert(
                    other_key.clone(),
                    other_canonical,
                    other_answer.clone(),
                    epoch,
                );
                lookups.fetch_add(2, Ordering::SeqCst);
                if let Some(hit) = cache.get(&key, epoch) {
                    assert!(Arc::ptr_eq(&hit, &kept_answer));
                }
                if let Some(hit) = cache.get(&other_key, epoch) {
                    assert!(Arc::ptr_eq(&hit, &other_answer));
                }
                epoch
            })
        };
        writer.join();
        let inserted_at = request.join().unwrap();
        cache.assert_consistent();
        lookups.fetch_add(2, Ordering::SeqCst);
        assert!(cache.get(&key, 0).is_none(), "pre-swap epoch is dead");
        assert_eq!(
            cache.get(&other_key, 1).is_some(),
            inserted_at == 1,
            "an answer inserted at epoch 0 never serves an epoch-1 read"
        );
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, lookups.load(Ordering::SeqCst));
    });
    eprintln!("model decide_settle: {}", report.summary());
    assert!(report.ok(), "{}", report.summary());
    assert!(report.exhaustive, "DFS must exhaust the bounded schedules");
}

/// A deeper seeded-random pass over the coalescing protocol with three
/// contending requests — too many schedules for exhaustive DFS in the
/// standard suite, so this samples a fixed pseudo-random slice (the seed
/// pins it; failures replay deterministically from the logged schedule).
#[test]
fn three_way_contention_random_walk() {
    let (key, canonical, answer) = fixture();
    let report = model::check(&model::Config::random(400, 0xC0A1E5CE), move || {
        let cache = Arc::new(RewritingCache::new(16));
        let computes = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let cache = cache.clone();
                let computes = computes.clone();
                let key = key.clone();
                let canonical = canonical.clone();
                let answer = answer.clone();
                model::spawn(move || match cache.get_or_join(&key, 0) {
                    CacheProbe::Hit(value) => value,
                    CacheProbe::Miss(flight) => {
                        computes.fetch_add(1, Ordering::SeqCst);
                        flight.publish(canonical, answer.clone());
                        answer
                    }
                })
            })
            .collect();
        let answers: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        assert!(answers.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 3);
        assert_eq!(stats.misses, 1);
    });
    eprintln!("model cache_3way: {}", report.summary());
    assert!(report.ok(), "{}", report.summary());
}

// ---------------------------------------------------------------------
// The admission gate
// ---------------------------------------------------------------------

/// (i) Three requests at a one-permit, one-waiter gate — the main
/// thread's, which holds the permit, and two arrivals behind it: in
/// every schedule at most one runs, at most one waits, and whoever finds
/// the waiting slot taken is shed `queue_full` on arrival.
#[test]
fn gate_never_exceeds_its_permits_or_its_capacity() {
    let report = model::check(&model::Config::dfs(2), || {
        let gate = Arc::new(AdmissionGate::new(1, 1));
        let running = Arc::new(AtomicUsize::new(1));
        let held = gate.enter(None).expect("an empty gate admits");
        let arrivals: Vec<_> = (0..2)
            .map(|_| {
                let (gate, running) = (gate.clone(), running.clone());
                model::spawn(move || {
                    let verdict = gate.enter(None);
                    if verdict.is_ok() {
                        let others = running.fetch_add(1, Ordering::SeqCst);
                        assert_eq!(others, 0, "more pipelines running than permits");
                        assert!(gate.waiting() <= 1, "more waiters than capacity");
                        running.fetch_sub(1, Ordering::SeqCst);
                    }
                    verdict.err()
                })
            })
            .collect();
        assert!(gate.waiting() <= 1, "more waiters than capacity");
        running.fetch_sub(1, Ordering::SeqCst);
        drop(held);
        let sheds: Vec<_> = arrivals
            .into_iter()
            .filter_map(|a| a.join().expect("each enter resolves"))
            .collect();
        assert!(sheds.len() <= 1, "one runs, one waits: at most one is shed");
        assert!(sheds.iter().all(|&r| r == ShedReason::QueueFull));
        assert_eq!(gate.waiting(), 0);
    });
    eprintln!("model gate_bounds: {}", report.summary());
    assert!(report.ok(), "{}", report.summary());
    assert!(report.exhaustive, "DFS must exhaust the bounded schedules");
}

/// (ii) `close()` racing two requests that wait behind a held permit,
/// then one more arrival: every `enter` resolves exactly once — a
/// request that reached the gate before the close runs ("an admitted
/// request is a promise"), one that lost the race is shed
/// `shutting_down`, the arrival after the close always is — and nothing
/// deadlocks.
#[test]
fn close_racing_waiters_and_an_arrival_resolves_each_enter_once() {
    let report = model::check(&model::Config::dfs(2), || {
        let gate = Arc::new(AdmissionGate::new(1, 2));
        let held = gate.enter(None).expect("an empty gate admits");
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let gate = gate.clone();
                model::spawn(move || gate.enter(None).map(drop))
            })
            .collect();
        gate.close();
        let queued = gate.waiting();
        assert_eq!(gate.enter(None).err(), Some(ShedReason::ShuttingDown));
        drop(held);
        let ran = waiters
            .into_iter()
            .map(|w| w.join().expect("each enter resolves"))
            .inspect(|verdict| {
                assert!(
                    matches!(verdict, Ok(()) | Err(ShedReason::ShuttingDown)),
                    "{verdict:?}"
                )
            })
            .filter(Result::is_ok)
            .count();
        assert_eq!(ran, queued, "exactly the requests queued at the close run");
        assert_eq!(gate.waiting(), 0, "closed and drained");
    });
    eprintln!("model gate_close: {}", report.summary());
    assert!(report.ok(), "{}", report.summary());
    assert!(report.exhaustive, "DFS must exhaust the bounded schedules");
}

/// (iii) No overtaking: with the one permit held and A seen waiting, a
/// later arrival B never runs before A — even when the permit is
/// released, and B arrives, before A has woken up to take it.
#[test]
fn a_new_arrival_never_overtakes_a_waiter() {
    let report = model::check(&model::Config::dfs(2), || {
        let gate = Arc::new(AdmissionGate::new(1, 2));
        let order = Arc::new(AtomicUsize::new(0));
        let held = gate.enter(None).expect("an empty gate admits");
        let arrival = |gate: &Arc<AdmissionGate>| {
            let (gate, order) = (gate.clone(), order.clone());
            model::spawn(move || {
                let _permit = gate.enter(None).expect("capacity 2 admits both");
                order.fetch_add(1, Ordering::SeqCst)
            })
        };
        let a = arrival(&gate);
        // Only schedules in which A already waits pin the order; in the
        // others B may legitimately arrive first.
        let a_waits = gate.waiting() == 1;
        let b = arrival(&gate);
        drop(held);
        let (a_ran, b_ran) = (a.join().unwrap(), b.join().unwrap());
        assert_eq!(a_ran + b_ran, 1, "both ran, one after the other");
        if a_waits {
            assert!(a_ran < b_ran, "B overtook the waiting A");
        }
    });
    eprintln!("model gate_fifo: {}", report.summary());
    assert!(report.ok(), "{}", report.summary());
    assert!(report.exhaustive, "DFS must exhaust the bounded schedules");
}

/// The seeded-random fallback: four arrivals and a close at a two-permit
/// gate — too many schedules to exhaust in the standard suite — checked
/// for the same bounds and accounting over a fixed pseudo-random slice.
#[test]
fn gate_four_way_contention_random_walk() {
    let report = model::check(&model::Config::random(400, 0x6A7E_CA11), || {
        let gate = Arc::new(AdmissionGate::new(2, 1));
        let running = Arc::new(AtomicUsize::new(0));
        let arrivals: Vec<_> = (0..4)
            .map(|_| {
                let (gate, running) = (gate.clone(), running.clone());
                model::spawn(move || {
                    let verdict = gate.enter(None);
                    if verdict.is_ok() {
                        assert!(running.fetch_add(1, Ordering::SeqCst) < 2);
                        assert!(gate.waiting() <= 1);
                        running.fetch_sub(1, Ordering::SeqCst);
                    }
                    verdict.is_ok()
                })
            })
            .collect();
        let closer = {
            let gate = gate.clone();
            model::spawn(move || gate.close())
        };
        let granted = arrivals
            .into_iter()
            .map(|a| a.join().expect("each enter resolves"))
            .filter(|&admitted| admitted)
            .count() as u64;
        closer.join();
        assert_eq!(gate.shed_count() + granted, 4);
        assert_eq!(gate.waiting(), 0);
    });
    eprintln!("model gate_4way: {}", report.summary());
    assert!(report.ok(), "{}", report.summary());
}
