//! Allocation and width guards for a served hit.
//!
//! A `respond` hit parses the line into canonical variables and the cache
//! key in one pass, probes, and fills the stored template: each distinct
//! atom of the answer is spelled once and the body spliced from them. So
//! what a hit allocates is a fixed handful — the token list, the query's
//! atoms, the key, the reply — whatever the number of rewritings it
//! prints, and a query line costs time linear in its width, however many
//! distinct variables it names. Counted with a `#[global_allocator]`
//! that wraps the system one, so this lives in a binary of its own, and
//! its tests run one at a time ([`serial`]): the count is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use viewplan::prelude::*;
use viewplan::serve::command::{respond, Reply};
use viewplan::serve::LiveCatalog;

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

/// Held by each test for its whole body.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What `f` returns, and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// The most a hit may allocate. A hit on an eight-subgoal star query
/// allocates 32 times whether its answer prints 36 rewritings or 183; the
/// path this replaced — a token list grown as it went, the variables
/// hashed into three tables — allocated 41 times for each of them.
const HIT_ALLOCATIONS: usize = 36;

#[test]
fn a_hit_allocates_the_same_few_times_however_long_its_answer() {
    let _serial = serial();
    let views = generate(&WorkloadConfig::star(1000, 2, 7)).views;
    let catalog = LiveCatalog::new(&views, ServeConfig::default());
    let mut seen = Vec::new();
    for seed in 0..16 {
        let line = format!(
            "query {}",
            generate(&WorkloadConfig::star(0, 2, seed)).query
        );
        // A miss, then a hit off the count: counters register and the
        // answer is stored.
        respond(&line, &catalog, None, None);
        respond(&line, &catalog, None, None);
        let (reply, allocations) = counted(|| respond(&line, &catalog, None, None));
        let Reply::Answer(answer) = reply else {
            panic!("`{line}` was not answered: {reply}");
        };
        assert!(answer.from_cache, "{line}");
        let rewritings = answer.body.matches(" :- ").count();
        println!("{rewritings:>4} rewritings, {allocations} allocations");
        seen.push((rewritings, allocations));
    }
    let fewest = seen.iter().map(|&(r, _)| r).min().unwrap_or(0);
    let most = seen.iter().map(|&(r, _)| r).max().unwrap_or(0);
    assert!(
        most >= 100 && 4 * fewest <= most,
        "the answers should range from dozens of rewritings to hundreds: {seen:?}"
    );
    for (rewritings, allocations) in seen {
        assert!(
            allocations <= HIT_ALLOCATIONS,
            "a hit printing {rewritings} rewritings allocated {allocations} times, bound \
             {HIT_ALLOCATIONS}"
        );
    }
}

/// `query q(V0{head}) :- wide(V0, …, V{width-1})`: `width` distinct
/// variables over a predicate no view mentions.
fn wide_line(width: usize, head: &str) -> String {
    let args: Vec<String> = (0..width).map(|i| format!("V{i}")).collect();
    format!("query q(V0{head}) :- wide({})", args.join(", "))
}

/// The fastest of five replies to `line`.
fn fastest(catalog: &LiveCatalog, line: &str) -> Duration {
    (0..5)
        .map(|_| {
            let began = Instant::now();
            respond(line, catalog, None, None);
            began.elapsed()
        })
        .min()
        .unwrap_or_default()
}

/// Eight times the variables may take at most three times eight times as
/// long, answered or refused: a numbering that compared each spelling
/// against every one before it, or an unsafe-rule message that looked
/// each variable's spelling up among all of them, would take sixty-four.
#[test]
fn a_wide_query_is_answered_in_time_linear_in_its_width() {
    let _serial = serial();
    let catalog = LiveCatalog::new(
        &parse_views("v(A) :- w(A).").unwrap(),
        ServeConfig::default(),
    );
    for (head, answered) in [("", true), (", Lost", false)] {
        let (narrow, wide) = (wide_line(2_500, head), wide_line(20_000, head));
        // The first replies grow the canonical pool and store the answers.
        for line in [&wide, &narrow] {
            let reply = respond(line, &catalog, None, None);
            assert_eq!(matches!(reply, Reply::Answer(_)), answered, "{head}");
        }
        let (narrow, wide) = (fastest(&catalog, &narrow), fastest(&catalog, &wide));
        println!("head q(V0{head}): 2 500 variables {narrow:?}, 20 000 {wide:?}");
        assert!(
            wide < narrow * 24,
            "q(V0{head}): 8× the width took {:.1}× the time ({narrow:?} → {wide:?})",
            wide.as_secs_f64() / narrow.as_secs_f64()
        );
    }
}
