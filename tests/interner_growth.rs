//! A certified cold rewrite interns nothing.
//!
//! `Symbol`s live in a process-global table that is never freed, so
//! whatever a request interns is leaked for the life of a server. The
//! rewrite path used to intern a fresh symbol per existential variable
//! of every view tuple it expanded (ROADMAP item 4(a)); tuple-cores no
//! longer expand anything, and on the §7 shapes every cover is certified
//! without the oracle's expansion, so a second pass over queries the
//! process has already seen must leave the table exactly as it was.
//!
//!
//! The same goes for what a *client* sends: a served query is parsed
//! straight into a fixed pool of canonical variables, its own spellings
//! kept only as slices of the request, so a stream of variable names
//! nobody has seen before leaves the table where it was (ROADMAP item
//! 4(d)/(e), the variable half; constants and predicates a client invents
//! are still interned — item 7(c)).
//!
//! Alone in its binary, and one test at a time ([`serial`]): the table is
//! process-global, and any other test parsing or rewriting beside these
//! would move the count.

use std::sync::{Mutex, MutexGuard, PoisonError};
use viewplan::core::PreparedViews;
use viewplan::cq::Symbol;
use viewplan::prelude::*;
use viewplan::serve::{command, LiveCatalog, Reply, ServeConfig};

/// Held by each test for its whole body.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn a_second_pass_over_the_same_queries_interns_nothing() {
    let _serial = serial();
    // One star view set; the star generator keeps the body fixed and
    // draws the head per seed, so every query runs over these views.
    let views = generate(&WorkloadConfig::star(300, 2, 1)).views;
    let queries: Vec<ConjunctiveQuery> = (0..50)
        .map(|seed| generate(&WorkloadConfig::star(0, 2, seed)).query)
        .collect();
    let prepared = PreparedViews::prepare(&views);
    let pass = || -> usize {
        queries
            .iter()
            .map(|q| {
                let result = CoreCover::with_prepared_views(q, &prepared).run();
                result.view_tuples.len() + result.rewritings().len()
            })
            .sum()
    };

    let first = pass();
    let interned = Symbol::interned_len();
    let second = pass();

    assert!(first > 0, "the pass rewrote nothing");
    assert_eq!(first, second);
    assert_eq!(
        Symbol::interned_len(),
        interned,
        "the second pass interned symbols"
    );
}

/// A chain of seven relations, one view per link and one per disjoint
/// adjacent pair: every body order of the seven-link chain query is a
/// different canonical query (the key keeps body order) over the same
/// vocabulary. The pairs are disjoint because a cover of overlapping
/// views goes to the expansion oracle, which still interns fresh names
/// of its own (ROADMAP item 4(a)) — not what this test is about.
const LINKS: usize = 7;

fn chain_catalog() -> ViewSet {
    let mut src = String::new();
    for i in 0..LINKS {
        src.push_str(&format!("v{i}(A, B) :- p{i}(A, B).\n"));
    }
    for i in (0..LINKS - 1).step_by(2) {
        src.push_str(&format!("w{i}(A, C) :- p{i}(A, B), p{}(B, C).\n", i + 1));
    }
    parse_views(&src).unwrap()
}

/// The `n`-th body order of the chain (its Lehmer code), with variable
/// `k` of the chain spelled `{stem}{letter k}`.
fn chain_query(order: usize, stem: &str) -> String {
    let var = |k: usize| format!("{stem}{}", (b'a' + k as u8) as char);
    let mut links: Vec<usize> = (0..LINKS).collect();
    let mut code = order;
    let body: Vec<String> = (0..LINKS)
        .map(|step| {
            let i = links.remove(code % (LINKS - step));
            code /= LINKS - step;
            format!("p{i}({}, {})", var(i), var(i + 1))
        })
        .collect();
    format!("query q({}, {}) :- {}", var(0), var(LINKS), body.join(", "))
}

fn answered(catalog: &LiveCatalog, line: &str) -> (bool, String) {
    match command::respond(line, catalog, None, None) {
        Reply::Answer(answer) => (answer.from_cache, answer.body),
        other => panic!("`{line}` was not answered: {other}"),
    }
}

/// Ten thousand requests, each spelling its variables as no request
/// before it did, half of them hits and half misses, intern nothing.
///
/// Fails at the parent commit, where `command::respond` parses with
/// `parse_query`: every spelling of every request is interned, and the
/// table ends 80 000 symbols larger than it started.
#[test]
fn a_stream_of_unique_variable_names_interns_nothing() {
    let _serial = serial();
    let catalog = LiveCatalog::new(&chain_catalog(), ServeConfig::default());
    // The warm-up request interns the query head's `q` and fills the
    // canonical pool.
    let (_, reference) = answered(&catalog, &chain_query(0, "W"));
    assert!(reference.contains("plan[m1]: "), "{reference}");
    let interned = Symbol::interned_len();

    let (mut hits, mut misses) = (0, 0);
    for n in 0..10_000 {
        // Orders 1, 1, 2, 2, …: a miss, then its hit under new names.
        let stem = format!("Q{n}");
        let (from_cache, body) = answered(&catalog, &chain_query(1 + n / 2, &stem));
        assert!(body.contains(&format!("q({stem}a, {stem}h) :- ")), "{body}");
        if from_cache {
            hits += 1;
        } else {
            misses += 1;
        }
    }
    assert_eq!((hits, misses), (5_000, 5_000));
    assert_eq!(
        Symbol::interned_len(),
        interned,
        "serving interned what its clients called their variables"
    );
}

/// A query wider than the pool's initial size is answered, and what it
/// adds to the table is canonical variables — once.
#[test]
fn a_query_wider_than_the_pool_grows_it_once() {
    let _serial = serial();
    let catalog = LiveCatalog::new(
        &parse_views("vw(A, B, C, D, E, F, G, H, I, J) :- wide(A, B, C, D, E, F, G, H, I, J).")
            .unwrap(),
        ServeConfig::default(),
    );
    // Thirty ten-place atoms over 300 distinct variables.
    let wide = |stem: &str| {
        let atoms: Vec<String> = (0..30)
            .map(|a| {
                let args: Vec<String> = (0..10).map(|k| format!("{stem}{}", 10 * a + k)).collect();
                format!("wide({})", args.join(", "))
            })
            .collect();
        format!("query q({stem}0) :- {}", atoms.join(", "))
    };
    answered(&catalog, "query q(A) :- wide(A, B, C, D, E, F, G, H, I, J)");
    let before = Symbol::interned_len();
    let (_, body) = answered(&catalog, &wide("First"));
    assert!(body.starts_with("q(First0) :- vw(First0, "), "{body}");
    let grown = Symbol::interned_len();
    assert!(
        grown > before && grown - before <= 300,
        "a 300-variable query added {} symbols",
        grown - before
    );
    // What was added is `__c64 ..= __c299`: interning those adds nothing.
    for i in 0..300 {
        Symbol::new(&format!("__c{i}"));
    }
    assert_eq!(Symbol::interned_len(), grown);
    let (from_cache, body) = answered(&catalog, &wide("Second"));
    assert!(from_cache && body.starts_with("q(Second0) :- vw(Second0, "));
    assert_eq!(Symbol::interned_len(), grown, "the pool grew twice");
}
