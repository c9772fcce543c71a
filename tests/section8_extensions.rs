//! The paper's §8 closing example, end to end: when a view carries a
//! comparison predicate, equivalent rewritings become **unions of
//! conjunctive queries**, and a single-CQ rewriting with extra literals
//! can compete with a two-branch union.
//!
//! ```text
//! Q:  q(X, Y, U, W) :- p(X, Y), r(U, W), r(W, U)
//! V1: v1(A, B, C, D) :- p(A, B), r(C, D), C ≤ D
//! V2: v2(E, F)       :- r(E, F)
//!
//! P1: q(X, Y, U, W) :- v1(X, Y, U, W), v2(W, U)
//!     q(X, Y, U, W) :- v1(X, Y, W, U), v2(U, W)
//! P2: q(X, Y, U, W) :- v1(X, Y, C, D), v2(U, W), v2(W, U)
//! ```

use viewplan::engine::{evaluate, Database, Relation, Value};
use viewplan::extended::{
    evaluate_conditional, evaluate_union, Comparison, ConditionalQuery, ConstraintSet, UnionQuery,
};
use viewplan::prelude::{parse_query, Term};

/// Materializes V1 (with its comparison) and V2 from the base relations.
fn materialize_section8_views(base: &Database) -> Database {
    let mut vdb = Database::new();
    // v1(A, B, C, D) :- p(A, B), r(C, D), C ≤ D.
    let v1_def = ConditionalQuery::new(
        parse_query("v1(A, B, C, D) :- p(A, B), r(C, D)").unwrap(),
        ConstraintSet::from_comparisons([Comparison::le(Term::var("C"), Term::var("D"))]),
    );
    vdb.set("v1".into(), evaluate_conditional(&v1_def, base));
    // v2(E, F) :- r(E, F).
    let v2_def = parse_query("v2(E, F) :- r(E, F)").unwrap();
    vdb.set("v2".into(), evaluate(&v2_def, base));
    vdb
}

fn p1() -> UnionQuery {
    UnionQuery::plain(vec![
        parse_query("q(X, Y, U, W) :- v1(X, Y, U, W), v2(W, U)").unwrap(),
        parse_query("q(X, Y, U, W) :- v1(X, Y, W, U), v2(U, W)").unwrap(),
    ])
}

fn p2() -> ConditionalQuery {
    ConditionalQuery::plain(
        parse_query("q(X, Y, U, W) :- v1(X, Y, C, D), v2(U, W), v2(W, U)").unwrap(),
    )
}

fn sample_base(seed: i64) -> Database {
    let mut base = Database::new();
    for i in 0..6 {
        base.insert(
            "p",
            vec![
                Value::Int((i * 7 + seed) % 10),
                Value::Int((i * 3 + seed) % 10),
            ],
        );
    }
    // r with both symmetric pairs and one-directional edges, plus loops.
    base.insert_int("r", &[&[1, 2], &[2, 1], &[3, 5], &[4, 4], &[9, 6]]);
    base
}

/// Both P1 and P2 compute exactly Q's answer over the materialized views —
/// the closed-world equivalence §8 asserts.
#[test]
fn p1_and_p2_compute_the_query_answer() {
    let q = parse_query("q(X, Y, U, W) :- p(X, Y), r(U, W), r(W, U)").unwrap();
    for seed in 0..5 {
        let base = sample_base(seed);
        let direct = evaluate(&q, &base);
        let vdb = materialize_section8_views(&base);
        let via_p1 = evaluate_union(&p1(), &vdb);
        let via_p2 = evaluate_conditional(&p2(), &vdb);
        assert_eq!(direct, via_p1, "P1 disagrees (seed {seed})");
        assert_eq!(direct, via_p2, "P2 disagrees (seed {seed})");
    }
}

/// Neither single branch of P1 suffices: each misses the tuples whose
/// (U, W) ordering falls in the other branch — the union is essential.
#[test]
fn single_branches_of_p1_are_incomplete() {
    let q = parse_query("q(X, Y, U, W) :- p(X, Y), r(U, W), r(W, U)").unwrap();
    let base = sample_base(1);
    let direct = evaluate(&q, &base);
    let vdb = materialize_section8_views(&base);
    let u = p1();
    let mut incomplete = 0;
    for b in &u.branches {
        let partial = evaluate_conditional(b, &vdb);
        assert!(subset(&partial, &direct), "branches stay contained");
        if partial.len() < direct.len() {
            incomplete += 1;
        }
    }
    // The symmetric r-pairs (1,2)/(2,1) appear with both orientations, so
    // each branch misses the orientation the other covers.
    assert!(incomplete >= 1, "at least one branch must be incomplete");
}

/// The paper's cost observation: P2 uses fewer conjunctive queries (1 vs
/// 2) but more view subgoals per query (3 vs 2) — under an M1-style count
/// neither dominates, which is exactly why §8 leaves the UCQ cost question
/// open.
#[test]
fn p1_vs_p2_cost_shapes() {
    let u = p1();
    let single = p2();
    assert_eq!(u.branches.len(), 2);
    assert!(u.branches.iter().all(|b| b.relational.body.len() == 2));
    assert_eq!(single.relational.body.len(), 3);
    // Total subgoal counts: P1 = 4 across branches, P2 = 3 in one query.
    let p1_total: usize = u.branches.iter().map(|b| b.relational.body.len()).sum();
    assert_eq!(p1_total, 4);
}

/// P2 exploits the closed world: v1 only *guards* nonemptiness of p ⋈ the
/// ordered r-pair, while the full r-information flows through v2 twice.
/// Removing either v2 literal breaks it.
#[test]
fn p2_needs_both_v2_literals() {
    let q = parse_query("q(X, Y, U, W) :- p(X, Y), r(U, W), r(W, U)").unwrap();
    let base = sample_base(2);
    let direct = evaluate(&q, &base);
    let vdb = materialize_section8_views(&base);
    let broken =
        ConditionalQuery::plain(parse_query("q(X, Y, U, W) :- v1(X, Y, C, D), v2(U, W)").unwrap());
    let ans = evaluate_conditional(&broken, &vdb);
    assert!(ans.len() > direct.len(), "dropping r(W, U) must overshoot");
}

fn subset(a: &Relation, b: &Relation) -> bool {
    a.iter().all(|t| b.contains(&t))
}
