//! Checks that read process-global `engine.*` counters before and after a
//! call. They live in their own binary, in one `#[test]` that runs them in
//! sequence: inside the unit-test binary sibling tests run joins on other
//! threads between the two reads, and the deltas came out wrong now and
//! then.

use viewplan_cq::parse_query;
use viewplan_engine::{evaluate, execute_ordered, install, Database, Engine};
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

/// The columnar join counts every chain entry its probes visit: with
/// one key value on both sides, each probe walks the whole chain, and a
/// Cartesian product walks none.
fn batch_probe_steps_count_chain_entries() {
    let mut db = Database::new();
    for x in 0..100 {
        db.insert_int("r", &[&[x, 5]]);
    }
    db.insert_int("s", &[&[5, 1], &[5, 2], &[5, 3], &[6, 4]]);
    db.insert_int("t", &[&[7]]);
    let _g = install(Engine::Columnar);
    let steps = || obs::counter_value("engine.batch_probe_steps");
    let before = steps();
    let q = parse_query("q(X, K, Y) :- r(X, K), s(K, Y)").unwrap();
    assert_eq!(execute_ordered(&q.head, &q.body, &db).answer.len(), 300);
    // `r` joins the unit table on no key and walks nothing; each of the
    // 100 probes into `s` walks the three entries under key 5 (key 6
    // hashes to another slot).
    assert_eq!(steps() - before, 300);
    let before = steps();
    let product = parse_query("q(X, Z) :- r(X, K), t(Z)").unwrap();
    assert_eq!(
        execute_ordered(&product.head, &product.body, &db)
            .answer
            .len(),
        100
    );
    assert_eq!(steps(), before);
}

#[test]
fn global_counters_move_by_exactly_what_one_call_adds() {
    obs::set_enabled(true);
    reduction_and_fallback_counters_route();
    arity_mismatch_counts_skipped_tuples();
    batch_probe_steps_count_chain_entries();
}
