//! Allocation guard for the columnar join path: executing a plan allocates
//! per join and per output column, never per row or per key. Counted with
//! a `#[global_allocator]` that wraps the system one, so this lives in a
//! binary of its own with a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use viewplan_cq::parse_query;
use viewplan_engine::{execute_ordered, Database, Value};

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

/// Three `rows`-row integer relations, each a permutation-like map
/// `i -> (a*i + b) mod rows`, so the chain join has exactly `rows` rows.
fn chain_database(rows: i64) -> Database {
    let mut db = Database::new();
    for (name, a, b) in [("r", 3, 1), ("s", 5, 2), ("t", 7, 3)] {
        for i in 0..rows {
            db.insert(name, vec![Value::Int(i), Value::Int((a * i + b) % rows)]);
        }
    }
    db
}

#[test]
fn executing_a_plan_allocates_per_join_not_per_row() {
    let q = parse_query("q(A, B, C, D) :- r(A, B), s(B, C), t(C, D)").unwrap();
    let count = |rows: i64| {
        let db = chain_database(rows);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let trace = execute_ordered(&q.head, &q.body, &db);
        let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(trace.answer.len(), rows as usize);
        made
    };
    // Once to register the engine's metrics, off the count.
    count(100);
    let small = count(10_000);
    let large = count(40_000);
    println!("allocations: {small} at 10 000 rows, {large} at 40 000");
    assert!(small < 1_000, "{small} allocations at 10 000 rows");
    assert!(large < 1_000, "{large} allocations at 40 000 rows");
    assert!(
        large * 2 <= small * 3,
        "allocations grew with the input: {small} -> {large}"
    );
}
