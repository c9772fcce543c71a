//! Checks that read process-global `engine.*` counters before and after a
//! call. They live in their own binary, in one `#[test]` that runs them in
//! sequence: inside the unit-test binary sibling tests run joins on other
//! threads between the two reads, and the deltas came out wrong now and
//! then.

use viewplan_cq::parse_query;
use viewplan_engine::{evaluate, install, Database, Engine};
use viewplan_obs as obs;

/// The Yannakakis executor counts which way each query was routed.
fn reduction_and_fallback_counters_route() {
    let mut db = Database::new();
    db.insert_int("r", &[&[1, 2], &[2, 3], &[3, 4], &[9, 9]]);
    db.insert_int("s", &[&[2, 5], &[3, 6], &[7, 7]]);
    db.insert_int("t", &[&[5, 8], &[6, 8]]);
    let _g = install(Engine::Yannakakis);
    let before_fast = obs::counter_value("engine.yannakakis_reductions");
    let before_slow = obs::counter_value("engine.yannakakis_fallbacks");
    let acyclic = parse_query("q(A) :- r(A, B), s(B, C)").unwrap();
    evaluate(&acyclic, &db);
    assert_eq!(
        obs::counter_value("engine.yannakakis_reductions"),
        before_fast + 1
    );
    let cyclic = parse_query("q(A) :- r(A, B), s(B, C), t(C, A)").unwrap();
    evaluate(&cyclic, &db);
    assert_eq!(
        obs::counter_value("engine.yannakakis_fallbacks"),
        before_slow + 1
    );
}

/// A subgoal whose arity differs from the stored relation's counts every
/// tuple it skips, under the row and the columnar executor alike.
fn arity_mismatch_counts_skipped_tuples() {
    let mut db = Database::new();
    // Store binary facts under `r`, then query `r` at arity 3.
    db.insert_int("r", &[&[1, 1], &[2, 2]]);
    let q = parse_query("q(X) :- r(X, Y, Z)").unwrap();
    let before = obs::counter_value("engine.arity_mismatch_skips");
    for engine in [Engine::Row, Engine::Columnar] {
        let _g = install(engine);
        assert!(evaluate(&q, &db).is_empty());
    }
    let after = obs::counter_value("engine.arity_mismatch_skips");
    // Two tuples skipped per engine.
    assert_eq!(after - before, 4);
}

#[test]
fn global_counters_move_by_exactly_what_one_call_adds() {
    obs::set_enabled(true);
    reduction_and_fallback_counters_route();
    arity_mismatch_counts_skipped_tuples();
}
