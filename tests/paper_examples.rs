//! End-to-end reproduction of every numbered example in the paper.

use viewplan::prelude::*;

fn carlocpart() -> (ConjunctiveQuery, ViewSet) {
    (
        parse_query("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)").unwrap(),
        parse_views(
            "v1(M, D, C) :- car(M, D), loc(D, C).\n\
             v2(S, M, C) :- part(S, M, C).\n\
             v3(S) :- car(M, a), loc(a, C), part(S, M, C).\n\
             v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).\n\
             v5(M, D, C) :- car(M, D), loc(D, C).",
        )
        .unwrap(),
    )
}

/// Example 1.1 + §2.1: P1–P5 are all equivalent rewritings; P1 ≡ P2 as
/// expansions but not as queries.
#[test]
fn example_11_rewritings() {
    let (q, views) = carlocpart();
    let ps: Vec<ConjunctiveQuery> = [
        "q1(S, C) :- v1(M, a, C1), v1(M1, a, C), v2(S, M, C)",
        "q1(S, C) :- v1(M, a, C), v2(S, M, C)",
        "q1(S, C) :- v3(S), v1(M, a, C), v2(S, M, C)",
        "q1(S, C) :- v4(M, a, C, S)",
        "q1(S, C) :- v1(M, a, C1), v5(M1, a, C), v2(S, M, C)",
    ]
    .iter()
    .map(|s| parse_query(s).unwrap())
    .collect();
    for p in &ps {
        let exp = expand(p, &views).unwrap();
        assert!(are_equivalent(&exp, &q), "{p} must be a rewriting");
    }
    // Equivalent as expansions…
    let e1 = expand(&ps[0], &views).unwrap();
    let e2 = expand(&ps[1], &views).unwrap();
    assert!(are_equivalent(&e1, &e2));
    // …but not equivalent as queries (P2 ⊏ P1 properly).
    assert!(is_contained_in(&ps[1], &ps[0]));
    assert!(!is_contained_in(&ps[0], &ps[1]));
}

/// §3.3: the canonical database and the view tuples of the running
/// example.
#[test]
fn section_33_view_tuples() {
    let (q, views) = carlocpart();
    let tuples = view_tuples(&minimize(&q), &views);
    // Sort before comparing: the tuple *set* is the specified result;
    // their enumeration order is an implementation detail.
    let mut printed: Vec<String> = tuples.iter().map(|t| t.to_string()).collect();
    printed.sort();
    assert_eq!(
        printed,
        [
            "v1(M, a, C)",
            "v2(S, M, C)",
            "v3(S)",
            "v4(M, a, C, S)",
            "v5(M, a, C)"
        ]
    );
}

/// Lemma 3.2's constructive transformation: P1 transforms into a
/// view-tuple-only rewriting equivalent to P2.
#[test]
fn lemma_32_transformation() {
    let (q, views) = carlocpart();
    // Apply the mapping {M1→M, C1→C} to P1 and drop the duplicate.
    let p1 = parse_query("q1(S, C) :- v1(M, a, C1), v1(M1, a, C), v2(S, M, C)").unwrap();
    let mut subst = Substitution::new();
    subst.bind(Symbol::new("M1"), Term::var("M"));
    subst.bind(Symbol::new("C1"), Term::var("C"));
    let transformed = p1.apply(&subst).dedup_subgoals();
    let p2 = parse_query("q1(S, C) :- v1(M, a, C), v2(S, M, C)").unwrap();
    assert_eq!(transformed, p2);
    let exp = expand(&transformed, &views).unwrap();
    assert!(are_equivalent(&exp, &q));
}

/// Example 3.1: the chain of three LMRs, each properly containing the
/// previous.
#[test]
fn example_31_lmr_chain() {
    let q = parse_query("q(X, Y, Z) :- e1(X, c), e2(Y, c), e3(Z, c)").unwrap();
    let views = parse_views("v(X, Y, Z, W) :- e1(X, W), e2(Y, W), e3(Z, W)").unwrap();
    let p1 = parse_query("q(X, Y, Z) :- v(X, Y, Z, c)").unwrap();
    let p2 = parse_query("q(X, Y, Z) :- v(X, Y, Z1, c), v(X1, Y1, Z, c)").unwrap();
    let p3 =
        parse_query("q(X, Y, Z) :- v(X, Y1, Z1, c), v(X2, Y, Z2, c), v(X3, Y3, Z, c)").unwrap();
    for p in [&p1, &p2, &p3] {
        assert!(is_locally_minimal(p, &q, &views));
    }
    assert!(is_contained_in(&p1, &p2) && !is_contained_in(&p2, &p1));
    assert!(is_contained_in(&p2, &p3) && !is_contained_in(&p3, &p2));
    // CoreCover finds the size-1 GMR (P1).
    let gmrs = CoreCover::new(&q, &views).run();
    assert_eq!(gmrs.rewritings().len(), 1);
    assert_eq!(gmrs.rewritings()[0].body.len(), 1);
}

/// Example 4.1 / Table 2: tuple-cores and the unique GMR.
#[test]
fn example_41_table_2() {
    let q = parse_query("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)").unwrap();
    let views = parse_views(
        "v1(A, B) :- a(A, B), a(B, B).\n\
         v2(C, D) :- a(C, E), b(C, D).",
    )
    .unwrap();
    let qm = minimize(&q);
    let tuples = view_tuples(&qm, &views);
    // Sort by tuple: Table 2 specifies the core *per tuple*, not an
    // enumeration order.
    let mut cores: Vec<(String, Vec<usize>)> = tuples
        .iter()
        .map(|t| {
            (
                t.to_string(),
                tuple_core(&qm, t, &views).subgoals.into_iter().collect(),
            )
        })
        .collect();
    cores.sort();
    assert_eq!(
        cores,
        vec![
            ("v1(X, Z)".to_string(), vec![0, 1]),
            ("v1(Z, Z)".to_string(), vec![1]),
            ("v2(Z, Y)".to_string(), vec![2]),
        ]
    );
    let gmrs = CoreCover::new(&q, &views).run();
    let mut printed: Vec<String> = gmrs.rewritings().iter().map(|r| r.to_string()).collect();
    printed.sort();
    assert_eq!(printed, ["q(X, Y) :- v1(X, Z), v2(Z, Y)"]);
}

/// Example 4.2: MiniCon leaves redundant subgoals; CoreCover does not.
#[test]
fn example_42_corecover_vs_minicon() {
    let k = 4;
    let mut q_body = Vec::new();
    let mut v_body = Vec::new();
    for i in 1..=k {
        q_body.push(format!("a{i}(X, Z{i}), b{i}(Z{i}, Y)"));
        v_body.push(format!("a{i}(X, Z{i}), b{i}(Z{i}, Y)"));
    }
    let q = parse_query(&format!("q(X, Y) :- {}", q_body.join(", "))).unwrap();
    let mut views_src = format!("v(X, Y) :- {}.\n", v_body.join(", "));
    for i in 1..k {
        views_src.push_str(&format!("v{i}(X, Y) :- a{i}(X, Z), b{i}(Z, Y).\n"));
    }
    let views = parse_views(&views_src).unwrap();

    let cc = CoreCover::new(&q, &views).run();
    assert_eq!(cc.rewritings().len(), 1);
    assert_eq!(cc.rewritings()[0].to_string(), "q(X, Y) :- v(X, Y)");

    let mc = minicon_rewritings(&q, &views, true, 1000);
    assert!(!mc.is_empty());
    // Every MiniCon rewriting uses k literals — all redundant beyond one.
    assert!(mc.iter().all(|r| r.body.len() == k));
}

/// §4.2's remark: the car-loc-part GMR is P4, found by the minimum cover
/// {v4}.
#[test]
fn section_42_carlocpart_gmr() {
    let (q, views) = carlocpart();
    let result = CoreCover::new(&q, &views).run();
    let mut printed: Vec<String> = result.rewritings().iter().map(|r| r.to_string()).collect();
    printed.sort();
    assert_eq!(printed, ["q1(S, C) :- v4(M, a, C, S)"]);
    // The naive Theorem 3.1 baseline agrees.
    let naive = naive_gmrs(&q, &views);
    assert_eq!(naive.len(), 1);
    assert!(is_variant(&naive[0], &result.rewritings()[0]));
}

/// §5.1 / Lemma 5.1: P3 (with the filtering subgoal v3) can be cheaper
/// than P2 under M2 when v3 is selective.
#[test]
fn section_51_filtering_subgoal() {
    let (_q, views) = carlocpart();
    let mut base = Database::new();
    for m in 0..25i64 {
        base.insert("car", vec![Value::Int(m), Value::sym("a")]);
    }
    for c in 0..4i64 {
        base.insert("loc", vec![Value::sym("a"), Value::Int(c)]);
    }
    base.insert("part", vec![Value::Int(77), Value::Int(1), Value::Int(2)]);
    for s in 0..150i64 {
        base.insert(
            "part",
            vec![Value::Int(s), Value::Int(s % 25), Value::Int(99)],
        );
    }
    let vdb = materialize_views(&views, &base);
    let mut oracle = ExactOracle::new(&vdb);

    let p2 = parse_query("q1(S, C) :- v1(M, a, C), v2(S, M, C)").unwrap();
    let p3 = parse_query("q1(S, C) :- v3(S), v1(M, a, C), v2(S, M, C)").unwrap();
    let (_, _, cost2) = optimal_m2_order(&p2.body, &mut oracle).unwrap();
    let (_, _, cost3) = optimal_m2_order(&p3.body, &mut oracle).unwrap();
    assert!(
        cost3 < cost2,
        "selective v3 must make P3 cheaper ({cost3} vs {cost2})"
    );
}

/// §8's closing example: rewritings as unions of conjunctive queries are
/// future work, but the single-CQ rewriting P2 there (without built-in
/// predicates) type-checks through our machinery as a containment test.
#[test]
fn section_8_shape_check() {
    // Without the built-in predicate C ≤ D we can still verify that the
    // machinery handles the query shape (two r-literals with swapped
    // arguments resist folding).
    let q = parse_query("q(X, Y, U, W) :- p(X, Y), r(U, W), r(W, U)").unwrap();
    let m = minimize(&q);
    assert_eq!(m.body.len(), 3, "r(U,W), r(W,U) must not fold");
}

// ---- Theorem 4.1 and overlapping tuple-cores (ROADMAP item 5(a)) ----
//
// Theorem 4.1 says a cover of the query's subgoals by tuple-cores is an
// equivalent rewriting. With Definition 4.1 as written (and as
// `tuple_core` implements it) that needs one more condition when cores
// overlap: the members' mappings must agree on the variables they
// share. The instances below are the minimal witnesses; what CoreCover
// does about them is in `viewplan_core::certificate`.

const OVERLAP_QUERY: &str = "q(P, R) :- e(P, X), g(X, Y), f(Y, R)";

fn decided(query: &str, views: &str) -> viewplan::core::CoreCoverResult {
    let q = parse_query(query).unwrap();
    let views = parse_views(views).unwrap();
    let config = CoreCoverConfig {
        collect_provenance: true,
        ..CoreCoverConfig::default()
    };
    CoreCover::new(&q, &views).with_config(config).run()
}

/// A cover of tuple-cores that is not a rewriting: `va(P, Y)` hides `X`,
/// `vb(X, R)` joins on it, and `va(P, Y), vb(X, R)` is a Cartesian
/// product. The cores {e, g} and {g, f} cover the query all the same.
#[test]
fn theorem_41_needs_agreement_on_shared_variables() {
    use viewplan::core::{CandidateVerdict, DecidedBy};
    let views = "va(P, Y) :- e(P, X), g(X, Y).\n\
                 vb(X, R) :- g(X, Y), f(Y, R).";
    viewplan::obs::set_enabled(true);
    let before = viewplan::obs::counter_value("corecover.nonequivalent_covers");
    let result = decided(OVERLAP_QUERY, views);
    let rejected = viewplan::obs::counter_value("corecover.nonequivalent_covers") - before;
    viewplan::obs::set_enabled(false);

    let cores: Vec<Vec<usize>> = result
        .cores
        .iter()
        .map(|c| c.subgoals.iter().copied().collect())
        .collect();
    assert_eq!(cores, [vec![0, 1], vec![1, 2]], "the cores do cover q");
    assert!(result.rewritings().is_empty(), "{:?}", result.rewritings());
    // Nothing else in this test binary produces a non-equivalent cover.
    assert_eq!(rejected, 1);
    let candidates = &result.provenance.as_ref().unwrap().candidates;
    assert_eq!(candidates.len(), 1);
    assert_eq!(
        candidates[0].rewriting.to_string(),
        "q(P, R) :- va(P, Y), vb(X, R)"
    );
    assert_eq!(candidates[0].verdict, CandidateVerdict::NotEquivalent);
    assert_eq!(candidates[0].decided_by, Some(DecidedBy::Oracle));
    // And it really is not one: four facts tell the two apart.
    let q = parse_query(OVERLAP_QUERY).unwrap();
    let view_set = parse_views(views).unwrap();
    assert!(!viewplan::core::is_equivalent_rewriting(
        &candidates[0].rewriting,
        &q,
        &view_set
    ));
    let mut base = Database::new();
    base.insert_int("e", &[&[1, 2]]);
    base.insert_int("g", &[&[2, 3], &[5, 6]]);
    base.insert_int("f", &[&[6, 7]]);
    let vdb = materialize_views(&view_set, &base);
    assert!(evaluate(&q, &base).is_empty());
    assert_eq!(evaluate(&candidates[0].rewriting, &vdb).len(), 1);
}

/// The certificate is sufficient, not necessary. With this `vb` the
/// cover {va, vb} *is* a rewriting, through a mapping that sends the
/// exposed `X` to `vb`'s own copy of it — nothing a per-member check can
/// see, so the oracle decides. Also pinned: the true GMR
/// `q(P, R) :- vb(X, R, P)` is in no cover, because `e(P, X)` can only
/// join `vb(X, R, P)`'s core by mapping `X` — an argument of the tuple
/// — away from itself, which Definition 4.1 property (1) forbids.
#[test]
fn a_cover_only_the_oracle_accepts() {
    use viewplan::core::{CandidateVerdict, DecidedBy};
    let views = "va(P, Y) :- e(P, X), g(X, Y).\n\
                 vb(X, R, P) :- e(P, X2), g(X2, Y2), f(Y2, R), g(X, Y2).";
    let result = decided(OVERLAP_QUERY, views);
    let printed: Vec<String> = result.rewritings().iter().map(|r| r.to_string()).collect();
    assert_eq!(printed, ["q(P, R) :- va(P, Y), vb(X, R, P)"]);
    let candidates = &result.provenance.as_ref().unwrap().candidates;
    assert_eq!(candidates[0].verdict, CandidateVerdict::Accepted);
    assert_eq!(candidates[0].decided_by, Some(DecidedBy::Oracle));

    let q = parse_query(OVERLAP_QUERY).unwrap();
    let view_set = parse_views(views).unwrap();
    let gmr = parse_query("q(P, R) :- vb(X, R, P)").unwrap();
    assert!(viewplan::core::is_equivalent_rewriting(&gmr, &q, &view_set));
    let vb_core: Vec<usize> = result.cores[1].subgoals.iter().copied().collect();
    assert_eq!(vb_core, [1, 2], "known gap: e(P, X) is not in vb's core");
}

/// §5.2 groups view tuples by covered subgoals alone, so class-mates can
/// differ in what they expose: `va(P, Y)` and `va2(P, X, Y)` both cover
/// {e, g}, and only `va2` joins with `vb(X, R)`. Whichever is declared
/// first represents the class; the answer must not depend on that.
#[test]
fn tuple_class_representatives_do_not_depend_on_declaration_order() {
    let va = "va(P, Y) :- e(P, X), g(X, Y).";
    let va2 = "va2(P, X, Y) :- e(P, X), g(X, Y).";
    let vb = "vb(X, R) :- g(X, Y), f(Y, R).";
    for (order, retried) in [([va, va2, vb], true), ([va2, va, vb], false)] {
        let result = decided(OVERLAP_QUERY, &order.join("\n"));
        assert_eq!(
            result.stats.representative_tuples, 2,
            "classes are not split"
        );
        let printed: Vec<String> = result.rewritings().iter().map(|r| r.to_string()).collect();
        assert_eq!(printed, ["q(P, R) :- va2(P, X, Y), vb(X, R)"], "{order:?}");
        let candidates = &result.provenance.as_ref().unwrap().candidates;
        assert_eq!(candidates[0].retried, retried, "{order:?}");
    }
}
