//! Allocation guard for the M3 order search: with an estimating oracle a
//! search node allocates nothing. What a search allocates is its setup,
//! one plan per incumbent it finds, and one §6.2 test per distinct
//! renamed body — never anything per node or per rename attempt.
//! Counted with a `#[global_allocator]` that wraps the system one, so
//! this lives in a binary of its own with a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use viewplan_cost::{try_optimal_m3_plan, Catalog, DropPolicy, EstimateOracle, RelationStats};
use viewplan_cq::{parse_query, parse_views, ConjunctiveQuery, ViewSet};
use viewplan_obs as obs;

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

/// The chain `q(X0, Xn) :- p0(X0, X1), …` over one copy view per
/// relation, and its full-query rewriting `v0(X0, X1), …`: every inner
/// variable is a rename candidate once its first subgoal is placed, and
/// no rename is legal. Inner relations of about a thousand rows over two
/// or three distinct values keep every `GSR` small until both ends are
/// placed; the end relations, larger and with a distinct value per row,
/// make the last `GSR` (the head's pairs) dwarf the rest. So most prefixes
/// cost less than the best plan even with every unplaced relation's size
/// added, the bounds prune little, and the search grows factorially.
/// Cheapest first, the search meets a good plan early and replaces its
/// incumbent a few times at most.
fn chain(n: usize) -> (ConjunctiveQuery, ViewSet, ConjunctiveQuery, Catalog) {
    let atoms = |p: &str| -> Vec<String> {
        (0..n)
            .map(|i| format!("{p}{i}(X{i}, X{})", i + 1))
            .collect()
    };
    let query = parse_query(&format!("q(X0, X{n}) :- {}", atoms("p").join(", "))).unwrap();
    let rewriting = parse_query(&format!("q(X0, X{n}) :- {}", atoms("v").join(", "))).unwrap();
    let views: Vec<String> = (0..n)
        .map(|i| format!("v{i}(A, B) :- p{i}(A, B)."))
        .collect();
    let mut catalog = Catalog::new();
    for i in 0..n {
        let end = i == 0 || i == n - 1;
        let rows = 1000.0 + 37.0 * i as f64 + if end { 3000.0 } else { 0.0 };
        let distinct = |x: usize| {
            if x == 0 || x == n {
                rows
            } else {
                2.0 + (x % 2) as f64
            }
        };
        catalog.set(
            format!("v{i}").as_str(),
            RelationStats {
                cardinality: rows,
                distinct: vec![distinct(i), distinct(i + 1)],
            },
        );
    }
    (
        query,
        parse_views(&views.join("\n")).unwrap(),
        rewriting,
        catalog,
    )
}

/// Allocations, search nodes, rename attempts and distinct rename tests
/// of one search.
fn search(n: usize, policy: DropPolicy) -> [u64; 4] {
    let (query, views, rewriting, catalog) = chain(n);
    let before = obs::metrics_snapshot();
    let allocated = ALLOCATIONS.load(Ordering::Relaxed);
    let planned = try_optimal_m3_plan(
        &query,
        &views,
        &rewriting,
        policy,
        &mut EstimateOracle::new(&catalog),
    );
    let allocations = (ALLOCATIONS.load(Ordering::Relaxed) - allocated) as u64;
    assert!(planned.unwrap().is_some());
    let counts = obs::metrics_snapshot().delta_since(&before);
    [
        allocations,
        counts.counter("cost.m3_nodes"),
        counts.counter("m3.rename_attempts"),
        counts.counter("m3.rename_tests"),
    ]
}

#[test]
fn an_m3_search_allocates_per_incumbent_and_rename_test_not_per_node() {
    obs::set_enabled(true);
    let policies = [
        DropPolicy::Supplementary,
        DropPolicy::SmartAggressive,
        DropPolicy::SmartCostBased,
    ];
    // Once to register the counters and the query's symbols, off the count.
    for policy in policies {
        search(7, policy);
    }
    for policy in policies {
        let runs: Vec<[u64; 4]> = (4..=7).map(|n| search(n, policy)).collect();
        for (n, &[allocations, nodes, attempts, tests]) in (4..).zip(&runs) {
            println!(
                "{policy:?}, {n} subgoals: {allocations} allocations, {nodes} nodes, \
                 {attempts} rename attempts, {tests} rename tests"
            );
            // Setup and the incumbents take under a hundred; a §6.2 test
            // (expansion, equivalence, a fresh name) under three hundred.
            assert!(
                allocations <= 100 + 300 * tests,
                "{policy:?}, {n} subgoals: {allocations} allocations for {tests} tests"
            );
        }
        let [_, small, _, _] = runs[0];
        let [allocations, nodes, attempts, tests] = runs[3];
        // The bound above is slack enough for one allocation per test,
        // not for one per node or per attempt.
        assert!(
            nodes >= 50 * small,
            "{nodes} nodes at 7 subgoals, {small} at 4"
        );
        assert!(100 + 300 * tests < allocations + nodes);
        if policy != DropPolicy::Supplementary {
            assert!(100 + 300 * tests < allocations + attempts);
        }
    }
}
