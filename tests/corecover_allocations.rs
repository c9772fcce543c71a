//! Allocation guard for CoreCover's steps 1–3: a run allocates for what
//! it returns — a view tuple's atom, a tuple-core, a rewriting — and for
//! a setup of its own, never once per view matched, per join-order step
//! or per tuple-core search buffer. Views and tuples reuse one scratch
//! per run (`view_tuple.rs` and `tuple_core.rs`, "What a run allocates").
//! Counted with a `#[global_allocator]` that wraps the system one, so
//! this lives in a binary of its own with a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use viewplan::core::PreparedViews;
use viewplan::prelude::*;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// `n` views over the predicate and arity of `query`'s first subgoal
/// that demand a constant the query never mentions: each is matched, and
/// none yields a tuple.
fn tupleless_views(query: &ConjunctiveQuery, n: usize) -> ViewSet {
    let atom = &query.body[0];
    let rest = vec!["no_such_constant"; atom.arity() - 1].join(", ");
    let text: Vec<String> = (0..n)
        .map(|i| format!("none{i}(A) :- {}(A, {rest}).", atom.predicate))
        .collect();
    parse_views(&text.join("\n")).unwrap()
}

#[test]
fn a_run_allocates_per_tuple_and_rewriting_not_per_view_or_search() {
    for config in [
        WorkloadConfig::star(1000, 2, 20),
        WorkloadConfig::chain(1000, 0, 21),
        WorkloadConfig::random(1000, 1, 22),
    ] {
        let w = generate(&config);
        let prepared = PreparedViews::prepare(&w.views);
        let run = || CoreCover::with_prepared_views(&w.query, &prepared).run();
        // Once to register the counters and intern the query's symbols,
        // off the count.
        run();
        let (result, allocations) = counted(run);
        let (tuples, rewritings) = (result.stats.view_tuples, result.stats.rewritings);
        println!(
            "{:?}: {allocations} allocations for {tuples} view tuples and {rewritings} \
             rewritings ({:.1} per tuple or rewriting)",
            config.shape,
            allocations as f64 / (tuples + rewritings) as f64
        );
        assert!(tuples > 0 && rewritings > 0);
        // A tuple: its atom, its core's parts and subgoal set, a slot in
        // the cover search. A rewriting: its atoms, certificate and dedup
        // key, about a dozen. A setup of a few hundred: minimization, the
        // prune, the cover search. Star and random match several hundred
        // views, so a dozen allocations more per view matched or per
        // tuple-core search exceed this.
        let bound = 400 + 6 * tuples + 14 * rewritings;
        assert!(
            allocations <= bound,
            "{:?}: {allocations} allocations for {tuples} tuples and {rewritings} \
             rewritings, bound {bound}",
            config.shape
        );
    }

    // A view with no tuple allocates nothing: matching a thousand of them
    // costs what matching ten does.
    let query = minimize(&generate(&WorkloadConfig::star(10, 2, 20)).query);
    let (few, many) = (tupleless_views(&query, 10), tupleless_views(&query, 1000));
    view_tuples(&query, &many);
    let (tuples, for_few) = counted(|| view_tuples(&query, &few));
    assert!(tuples.is_empty());
    let (tuples, for_many) = counted(|| view_tuples(&query, &many));
    assert!(tuples.is_empty());
    println!("ten tuple-less views: {for_few} allocations, a thousand: {for_many}");
    assert_eq!(for_few, for_many);
}
