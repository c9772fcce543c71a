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
//! Alone in its binary: the table is process-global, and any other test
//! parsing or rewriting beside this one would move the count.

use viewplan::core::PreparedViews;
use viewplan::cq::Symbol;
use viewplan::prelude::*;

#[test]
fn a_second_pass_over_the_same_queries_interns_nothing() {
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
