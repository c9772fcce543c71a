//! Figure 1 / Figure 2: the taxonomy of rewritings and the LMR partial
//! order, exercised end to end on the paper's examples.

use viewplan::core::{is_containment_minimal, is_minimal_as_query, lmr_partial_order};
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

/// Region 1 of Figure 1: minimal rewritings (no redundant subgoal as a
/// query). P3 lives here but not in region 2.
#[test]
fn figure1_region_minimal_but_not_lmr() {
    let (q, views) = carlocpart();
    let p3 = parse_query("q1(S, C) :- v3(S), v1(M, a, C), v2(S, M, C)").unwrap();
    assert!(is_minimal_as_query(&p3));
    assert!(!is_locally_minimal(&p3, &q, &views));
    // Dropping v3 yields P2, which IS locally minimal.
    let p2 = p3.without_subgoal(0);
    assert!(is_locally_minimal(&p2, &q, &views));
}

/// Region 2 → 3: among the LMRs {P1, P2, P4, P5}, P2 and P4 are
/// containment-minimal; P1 is not (P2 ⊏ P1).
#[test]
fn figure1_regions_lmr_and_cmr() {
    let (q, views) = carlocpart();
    let lmrs: Vec<ConjunctiveQuery> = [
        "q1(S, C) :- v1(M, a, C1), v1(M1, a, C), v2(S, M, C)", // P1
        "q1(S, C) :- v1(M, a, C), v2(S, M, C)",                // P2
        "q1(S, C) :- v4(M, a, C, S)",                          // P4
        "q1(S, C) :- v1(M, a, C1), v5(M1, a, C), v2(S, M, C)", // P5
    ]
    .iter()
    .map(|s| parse_query(s).unwrap())
    .collect();
    for p in &lmrs {
        assert!(is_locally_minimal(p, &q, &views), "{p}");
    }
    assert!(!is_containment_minimal(0, &lmrs)); // P1 contains P2
    assert!(is_containment_minimal(1, &lmrs)); // P2
    assert!(is_containment_minimal(2, &lmrs)); // P4
}

/// Figure 2(a): subgoal counts respect the containment order (Lemma 3.1:
/// contained LMR ⇒ no more subgoals).
#[test]
fn lemma31_containment_bounds_subgoal_count() {
    let (q, views) = carlocpart();
    let lmrs: Vec<ConjunctiveQuery> = [
        "q1(S, C) :- v1(M, a, C1), v1(M1, a, C), v2(S, M, C)",
        "q1(S, C) :- v1(M, a, C), v2(S, M, C)",
        "q1(S, C) :- v4(M, a, C, S)",
        "q1(S, C) :- v1(M, a, C1), v5(M1, a, C), v2(S, M, C)",
    ]
    .iter()
    .map(|s| parse_query(s).unwrap())
    .collect();
    for p in &lmrs {
        assert!(is_locally_minimal(p, &q, &views));
    }
    for (i, j) in lmr_partial_order(&lmrs) {
        assert!(
            lmrs[i].body.len() <= lmrs[j].body.len(),
            "Lemma 3.1 violated: P{i} ⊏ P{j} but more subgoals"
        );
    }
}

/// §3.2's e(X,X) example: region 6 of Figure 1 is nonempty (a GMR that is
/// not a CMR), and region 5 contains a same-size GMR (Prop 3.1).
#[test]
fn figure1_region6_gmr_not_cmr() {
    let q = parse_query("q(X) :- e(X, X)").unwrap();
    let views = parse_views("v(A, B) :- e(A, A), e(A, B)").unwrap();
    let p1 = parse_query("q(X) :- v(X, B)").unwrap(); // GMR, not CMR
    let p2 = parse_query("q(X) :- v(X, X)").unwrap(); // GMR and CMR
    for p in [&p1, &p2] {
        assert!(is_locally_minimal(p, &q, &views));
        assert_eq!(p.body.len(), 1);
    }
    let lmrs = vec![p1.clone(), p2.clone()];
    assert!(!is_containment_minimal(0, &lmrs));
    assert!(is_containment_minimal(1, &lmrs));
    // Prop 3.1: the CMR P2 is contained in P1 with the same size.
    assert!(is_contained_in(&p2, &p1));
    assert_eq!(p1.body.len(), p2.body.len());
}

/// Example 3.1 generalized to chains of length m (the paper: "we can
/// generalize this example to m base relations … and get a partial order
/// of LMRs that is a chain of length m").
#[test]
fn example31_generalizes_to_longer_chains() {
    for m in 2..=4usize {
        let body: Vec<String> = (1..=m).map(|i| format!("e{i}(X{i}, c)")).collect();
        let head: Vec<String> = (1..=m).map(|i| format!("X{i}")).collect();
        let q = parse_query(&format!("q({}) :- {}", head.join(", "), body.join(", "))).unwrap();
        let vbody: Vec<String> = (1..=m).map(|i| format!("e{i}(X{i}, W)")).collect();
        let views = parse_views(&format!(
            "v({}, W) :- {}",
            head.join(", "),
            vbody.join(", ")
        ))
        .unwrap();
        // LMR chain: k literals each keeping one coordinate, k = 1..m.
        let mut chain: Vec<ConjunctiveQuery> = Vec::new();
        for k in 1..=m {
            // k = 1 is the GMR v(X1..Xm, c); for k > 1 each literal keeps
            // a block of coordinates and fills the rest with fresh vars.
            let mut literals = Vec::new();
            for j in 0..k {
                let args: Vec<String> = (1..=m)
                    .map(|i| {
                        // literal j keeps coordinates i where i % k == j.
                        if (i - 1) % k == j {
                            format!("X{i}")
                        } else {
                            format!("F{j}_{i}")
                        }
                    })
                    .collect();
                literals.push(format!("v({}, c)", args.join(", ")));
            }
            let p = parse_query(&format!(
                "q({}) :- {}",
                head.join(", "),
                literals.join(", ")
            ))
            .unwrap();
            chain.push(p);
        }
        for p in &chain {
            assert!(is_locally_minimal(p, &q, &views), "m={m}: {p}");
        }
        let edges = lmr_partial_order(&chain);
        // The single-literal rewriting is below every longer one.
        for k in 1..m {
            assert!(edges.contains(&(0, k)), "m={m}: chain edge 0 ⊏ {k}");
        }
    }
}

/// CoreCover's GMRs are always inside the CMR region's size bound
/// (Prop 3.2: the CMRs contain a GMR, so no LMR can be smaller).
#[test]
fn gmrs_have_globally_minimum_size() {
    let (q, views) = carlocpart();
    let result = CoreCover::new(&q, &views).run();
    // Every GMR has the globally minimum size, so take the minimum rather
    // than relying on the enumeration order of the first one.
    let gmr_size = result
        .rewritings()
        .iter()
        .map(|r| r.body.len())
        .min()
        .expect("carlocpart has a rewriting");
    for src in [
        "q1(S, C) :- v1(M, a, C), v2(S, M, C)",
        "q1(S, C) :- v1(M, a, C1), v1(M1, a, C), v2(S, M, C)",
    ] {
        let p = parse_query(src).unwrap();
        assert!(is_locally_minimal(&p, &q, &views));
        assert!(p.body.len() >= gmr_size);
    }
}
