//! Allocation guard for the columnar join path: executing a plan allocates
//! per join and per head column, never per row or per key, and the bytes
//! it allocates per answer row do not grow with the input; a product past
//! the row-number width is refused before it reserves anything. Counted
//! with a `#[global_allocator]` that wraps the system one, so this lives
//! in a binary of its own with a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use viewplan_cq::{parse_query, ConjunctiveQuery, Symbol};
use viewplan_engine::{execute_ordered, try_execute_ordered, Database, EngineError, Value};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is two relaxed counter bumps.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    /// A reallocation counts as one allocation of its new size.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A database where every relation of `q`'s body holds one row per
/// first-column value `i` in `0..rows`, its column `c > 0` holding
/// `(a·i + c) mod rows` for a per-relation `a`. Every value a join looks
/// up in a first column is there exactly once, so a star on the first
/// columns and a chain from last column to first column both have exactly
/// `rows` rows.
fn permutation_database(q: &ConjunctiveQuery, rows: i64) -> Database {
    let mut db = Database::new();
    for (k, atom) in q.body.iter().enumerate() {
        let a = 2 * k as i64 + 3;
        for i in 0..rows {
            let tuple = (0..atom.arity() as i64)
                .map(|c| Value::Int(if c == 0 { i } else { (a * i + c) % rows }))
                .collect();
            db.insert(atom.predicate, tuple);
        }
    }
    db
}

/// `(allocations, bytes)` made by `f`, and what it returned.
fn counting<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    let before = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let out = f();
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before.0;
    let bytes = BYTES.load(Ordering::Relaxed) - before.1;
    (made, bytes, out)
}

/// What executing `q`'s body in order over `rows` rows per relation
/// allocates: `(allocations, bytes)`.
fn allocated(q: &ConjunctiveQuery, rows: i64) -> (usize, usize) {
    let db = permutation_database(q, rows);
    let (made, bytes, trace) = counting(|| execute_ordered(&q.head, &q.body, &db));
    assert_eq!(trace.answer.len(), rows as usize, "{q}");
    (made, bytes)
}

#[test]
fn executing_a_plan_allocates_per_join_not_per_row() {
    // A chain of three two-column maps (four variables), and a wide star:
    // four relations on one key, seventeen variables in all.
    let chain = parse_query("q(A, B, C, D) :- r(A, B), s(B, C), t(C, D)").unwrap();
    let star = parse_query(
        "q(X, A, B, C, D, E, F, G, H, I, J, K, L, M, N, O, P) :- \
         s1(X, A, B, C, D), s2(X, E, F, G, H), s3(X, I, J, K, L), s4(X, M, N, O, P)",
    )
    .unwrap();
    // Once to register the engine's metrics, off the count.
    allocated(&chain, 100);
    // (plan, allocations at most, bytes per answer row at most). The
    // answer takes 4 bytes per head column per row — every word here
    // fits in 32 bits, so its columns are narrow — and builds no row
    // set: nothing looks its rows up. The first step lists its rows, 4
    // bytes per row; each keyed join takes about 32 for its index and
    // matches (4 more for a selection vector when a filter runs, and
    // these plans have none), and 4 per source it carries. In a debug
    // build the answer also checks that its rows are distinct
    // (`Relation::from_distinct_columns`): two buffers more, and about
    // 17 bytes per row.
    let (debug_allocations, debug_bytes) = if cfg!(debug_assertions) {
        (2, 17)
    } else {
        (0, 0)
    };
    let plans = [(&chain, 32, 100), (&star, 64, 200)];
    for (q, max_allocations, max_bytes_per_row) in plans {
        let max_allocations = max_allocations + debug_allocations;
        let max_bytes_per_row = max_bytes_per_row + debug_bytes;
        let (small, small_bytes) = allocated(q, 10_000);
        let (large, large_bytes) = allocated(q, 40_000);
        let (small_per_row, large_per_row) = (small_bytes / 10_000, large_bytes / 40_000);
        println!(
            "{}: {small} allocations, {small_bytes} bytes at 10 000 rows; \
             {large}, {large_bytes} at 40 000",
            q.head
        );
        assert!(
            small <= max_allocations,
            "{small} allocations at 10 000 rows"
        );
        assert!(
            large <= max_allocations,
            "{large} allocations at 40 000 rows"
        );
        for per_row in [small_per_row, large_per_row] {
            assert!(
                per_row <= max_bytes_per_row,
                "{}: {per_row} bytes per answer row",
                q.head
            );
        }
        assert!(
            large_per_row * 10 <= small_per_row * 11,
            "{}: bytes per answer row grew with the input: {small_per_row} -> {large_per_row}",
            q.head
        );
    }

    // A product of two 65 537-row relations has 65 537² > u32::MAX rows:
    // a typed error, with nothing reserved for the 2³² row-number pairs
    // (34 GB). The first step still lists its 65 537 rows.
    let product = parse_query("q(A, B) :- r(A), s(B)").unwrap();
    let mut db = Database::new();
    for i in 0..65_537 {
        db.insert_int("r", &[&[i]]);
        db.insert_int("s", &[&[i]]);
    }
    let (made, bytes, result) = counting(|| try_execute_ordered(&product.head, &product.body, &db));
    println!(
        "{}: refused, {made} allocations, {bytes} bytes",
        product.head
    );
    assert_eq!(
        result.err(),
        Some(EngineError::TooManyRows {
            relation: Symbol::new("s"),
            limit: u32::MAX as usize,
        })
    );
    assert!(
        bytes < 1 << 20,
        "{bytes} bytes allocated for a refused product"
    );
}
