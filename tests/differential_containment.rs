//! Differential testing of the acyclic semijoin fast path against the
//! homomorphism DFS — the containment half of the acyclicity tentpole:
//! for every query pair, the semijoin verdict and the search verdict
//! must be the **same boolean**, with or without node budgets.
//!
//! Routing is also pinned down: acyclic patterns (star, chain) provably
//! take the fast path and cyclic ones (triangles) provably fall back to
//! the DFS, asserted through the `containment.acyclic_fast_path` /
//! `containment.acyclic_fallback` counters.

use proptest::prelude::*;
use viewplan::containment::containment_mapping;
use viewplan::obs::BudgetSpec;
use viewplan::prelude::*;

/// The homomorphism DFS's verdict for `q1 ⊑ q2`: `containment_mapping`
/// never takes the semijoin route.
fn dfs(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    containment_mapping(q2, q1).is_some()
}

/// Runs `is_contained_in(q1, q2)`, which routes on the pattern's shape,
/// beside the DFS and asserts the verdicts agree. Returns the shared
/// verdict.
fn both_routes(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    let fast = is_contained_in(q1, q2);
    let slow = dfs(q1, q2);
    assert_eq!(
        fast, slow,
        "semijoin fast path diverged from homomorphism search on\n  q1 = {q1}\n  q2 = {q2}"
    );
    fast
}

// ---------------------------------------------------------------------
// Generators. Containment pairs share the head predicate and arity, so
// the verdict depends on the bodies rather than failing trivially at
// the head.

/// A star: spokes `r{p}(H, S_i)` around one hub, head exposing the hub.
/// Acyclic for any spoke count — every spoke edge shares only `H` with
/// the rest, so GYO removes them one by one.
fn arb_star() -> impl Strategy<Value = ConjunctiveQuery> {
    prop::collection::vec(0..3usize, 1..=4).prop_map(|preds| {
        let body: Vec<Atom> = preds
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Atom::new(
                    format!("r{p}").as_str(),
                    vec![Term::var("H"), Term::var(&format!("S{i}"))],
                )
            })
            .collect();
        ConjunctiveQuery::new(Atom::new("q", vec![Term::var("H")]), body)
    })
}

/// A chain: `e{p_i}(X_i, X_{i+1})`, head pinning the chain's start.
fn arb_chain() -> impl Strategy<Value = ConjunctiveQuery> {
    prop::collection::vec(0..2usize, 1..=4).prop_map(|preds| {
        let body: Vec<Atom> = preds
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Atom::new(
                    format!("e{p}").as_str(),
                    vec![
                        Term::var(&format!("X{i}")),
                        Term::var(&format!("X{}", i + 1)),
                    ],
                )
            })
            .collect();
        ConjunctiveQuery::new(Atom::new("q", vec![Term::var("X0")]), body)
    })
}

/// A Boolean triangle `q() :- a(X,Y), b(Y,Z), c(Z,X)`: with no head pin
/// to break the cycle, the pattern is cyclic and must take the DFS.
fn arb_triangle() -> impl Strategy<Value = ConjunctiveQuery> {
    prop::collection::vec(0..2usize, 3).prop_map(|preds| {
        let vars = ["X", "Y", "Z"];
        let body: Vec<Atom> = (0..3)
            .map(|i| {
                Atom::new(
                    format!("e{}", preds[i]).as_str(),
                    vec![Term::var(vars[i]), Term::var(vars[(i + 1) % 3])],
                )
            })
            .collect();
        ConjunctiveQuery::new(Atom::new("q", vec![]), body)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Star ⊑ star: true whenever every spoke predicate of the pattern
    /// also hangs off the target's hub, false otherwise — a healthy mix
    /// of both verdicts, all decided on the fast path.
    #[test]
    fn routes_agree_on_star_pairs(q1 in arb_star(), q2 in arb_star()) {
        both_routes(&q1, &q2);
        both_routes(&q2, &q1);
    }

    /// Chain ⊑ chain with the start pinned: the pattern chain must fold
    /// onto the target chain from its first node.
    #[test]
    fn routes_agree_on_chain_pairs(q1 in arb_chain(), q2 in arb_chain()) {
        both_routes(&q1, &q2);
        both_routes(&q2, &q1);
    }

    /// Triangles are cyclic: both directions route through the DFS
    /// fallback, and mixed star/triangle pairs route per-pattern. The
    /// verdicts still agree (the fallback *is* the DFS).
    #[test]
    fn routes_agree_on_triangle_pairs(q1 in arb_triangle(), q2 in arb_triangle()) {
        both_routes(&q1, &q2);
        both_routes(&q2, &q1);
    }

    /// The fast path is budget-immune: a 1-node budget that would gut
    /// the DFS cannot touch the semijoin verdict, which must still equal
    /// the *unbudgeted* ground truth.
    #[test]
    fn fast_path_verdicts_survive_node_budgets(q1 in arb_star(), q2 in arb_star()) {
        let truth = dfs(&q1, &q2);
        let starved = {
            let _budget = viewplan::obs::budget::install(BudgetSpec::new().node_budget(1));
            is_contained_in(&q1, &q2)
        };
        prop_assert_eq!(starved, truth, "budget truncated a fast-path verdict");
    }
}

// ---------------------------------------------------------------------
// Routing proofs: the counters say which path ran.

/// Acyclic patterns bump `containment.acyclic_fast_path`; cyclic ones
/// bump `containment.acyclic_fallback`. Deltas use `>=` because the
/// proptests above share the process-global registry.
#[test]
fn counters_prove_routing() {
    viewplan::obs::set_enabled(true);
    let star1 = parse_query("q(H) :- r0(H, A), r1(H, B)").unwrap();
    let star2 = parse_query("q(H) :- r0(H, A)").unwrap();
    let tri1 = parse_query("q() :- e0(X, Y), e0(Y, Z), e0(Z, X)").unwrap();
    let tri2 = parse_query("q() :- e0(X, X)").unwrap();

    let fast_before = viewplan::obs::counter_value("containment.acyclic_fast_path");
    assert!(both_routes(&star1, &star2));
    let fast_after = viewplan::obs::counter_value("containment.acyclic_fast_path");
    assert!(
        fast_after > fast_before,
        "acyclic star pattern did not take the fast path ({fast_before} -> {fast_after})"
    );

    // `is_contained_in(q1, q2)` routes on q2's body — the pattern being
    // mapped — so the triangle goes on the right. The self-loop folds
    // the triangle, so the verdict is true *through the fallback*.
    let fallback_before = viewplan::obs::counter_value("containment.acyclic_fallback");
    assert!(both_routes(&tri2, &tri1));
    let fallback_after = viewplan::obs::counter_value("containment.acyclic_fallback");
    assert!(
        fallback_after > fallback_before,
        "cyclic triangle pattern did not fall back ({fallback_before} -> {fallback_after})"
    );
}

// ---------------------------------------------------------------------
// A fixed corpus: the routed check against the DFS.

/// A fixed corpus with known mixed verdicts, each checked both ways.
fn corpus() -> Vec<(ConjunctiveQuery, ConjunctiveQuery)> {
    let pairs = [
        ("q(H) :- r0(H, A), r1(H, B)", "q(H) :- r0(H, A)"),
        ("q(H) :- r0(H, A)", "q(H) :- r1(H, A)"),
        ("q(X0) :- e0(X0, X1), e0(X1, X2)", "q(X0) :- e0(X0, X1)"),
        ("q(X0) :- e0(X0, X1)", "q(X0) :- e1(X0, X1)"),
        ("q() :- e0(X, Y), e0(Y, Z), e0(Z, X)", "q() :- e0(X, X)"),
        ("q() :- e0(X, X)", "q() :- e0(X, Y), e0(Y, Z), e0(Z, X)"),
        ("q(X, X) :- e0(X, X)", "q(A, B) :- e0(A, B)"),
    ];
    pairs
        .iter()
        .map(|(a, b)| (parse_query(a).unwrap(), parse_query(b).unwrap()))
        .collect()
}

#[test]
fn routed_verdicts_agree_with_the_dfs_on_a_fixed_corpus() {
    let pairs = corpus();
    let truth: Vec<(bool, bool)> = pairs.iter().map(|(a, b)| (dfs(a, b), dfs(b, a))).collect();
    let got: Vec<(bool, bool)> = pairs
        .iter()
        .map(|(a, b)| (is_contained_in(a, b), is_contained_in(b, a)))
        .collect();
    assert_eq!(got, truth, "a routed verdict diverged");
}
