//! A hand-rolled scoped worker pool, for running *requests* side by side.
//!
//! A request — one query through view tuples, tuple-cores, set cover and
//! verification — is one thread: the pipeline takes about half a
//! millisecond at a thousand views, and fanning its stages out measured
//! slower than serial or inside the noise on every workload tried
//! (EXPERIMENTS.md "PR 22"). Independent requests do scale with cores,
//! so the pool has exactly two callers: a batch of queries
//! (`BatchServer::serve_batch`) and the query instances of a sweep point
//! (`viewplan-bench`); an `xtask` lint keeps it that way. The build is
//! offline, so instead of rayon this module provides the one primitive
//! they need: an order-preserving [`parallel_map`] built on
//! [`std::thread::scope`].
//!
//! Workers pull item indices from a shared atomic counter (dynamic
//! scheduling: cheap items do not stall behind expensive ones) and tag
//! each result with its index; results are sorted back into input order
//! before returning. **Determinism:** the output `Vec` is exactly
//! `items.iter().map(f)` regardless of thread count or scheduling, so a
//! batch prints the same bytes at any `--threads`.
//!
//! The spawning thread's request context ([`obs::ctx`]: budget, trace,
//! open spans, policy word) is forked once and entered on every worker,
//! so `f` cannot tell which thread it runs on.

use viewplan_obs as obs;
use viewplan_sync::{thread, AtomicUsize, Mutex, Ordering};

/// Maps `f` over `items` on up to `threads` scoped workers, returning
/// results in input order. With `threads <= 1` (or fewer than two items)
/// this is a plain serial map with no thread or lock traffic.
///
/// Panics in `f` propagate to the caller when the scope joins, matching
/// the serial behavior of a panicking closure.
// lock-order: `panicked` then `collected` are only ever taken one at a
// time (never while holding the other), so no acquisition order exists to
// violate.
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let workers = threads.min(items.len());
    obs::counter!("parallel.batches").incr();
    obs::counter!("parallel.tasks").add(items.len() as u64);
    let parent = obs::ctx::fork();
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    // Workers catch panics from `f` so the original payload (not the
    // scope's generic "a scoped thread panicked") reaches the caller.
    let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _ctx = parent.enter();
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    // ordering: work-stealing index; only atomicity of
                    // the claim matters, results sync via `collected`.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&items[i]))) {
                        Ok(r) => local.push((i, r)),
                        Err(payload) => {
                            *panicked.lock() = Some(payload);
                            break;
                        }
                    }
                }
                collected.lock().extend(local);
            });
        }
    });
    if let Some(payload) = panicked.into_inner() {
        std::panic::resume_unwind(payload);
    }
    let mut tagged = collected.into_inner();
    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), items.len());
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let items: Vec<u64> = (0..97).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 3, 8, 200] {
            let par = parallel_map(threads, &items, |&x| x * x);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map(8, &empty, |&x| x).is_empty());
        assert_eq!(parallel_map(8, &[41u64], |&x| x + 1), vec![42]);
    }

    #[test]
    fn uneven_work_is_still_ordered() {
        // Make early items slow so late items finish first.
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(4, &items, |&x| {
            if x < 4 {
                thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u64> = (0..16).collect();
        let _ = parallel_map(4, &items, |&x| {
            if x == 7 {
                panic!("boom");
            }
            x
        });
    }
}
