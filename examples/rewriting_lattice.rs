//! The rewriting taxonomy of Figures 1 and 2: minimal, locally-minimal
//! (LMR), containment-minimal (CMR), and globally-minimal (GMR)
//! rewritings, on the paper's running example.
//!
//! Run with: `cargo run --example rewriting_lattice`

use viewplan::core::{is_containment_minimal, is_minimal_as_query, lmr_partial_order};
use viewplan::prelude::*;

fn main() {
    let query = parse_query("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)").unwrap();
    let views = parse_views(
        "v1(M, D, C) :- car(M, D), loc(D, C).
         v2(S, M, C) :- part(S, M, C).
         v3(S) :- car(M, a), loc(a, C), part(S, M, C).
         v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).
         v5(M, D, C) :- car(M, D), loc(D, C).",
    )
    .unwrap();

    let named: Vec<(&str, ConjunctiveQuery)> = [
        ("P1", "q1(S, C) :- v1(M, a, C1), v1(M1, a, C), v2(S, M, C)"),
        ("P2", "q1(S, C) :- v1(M, a, C), v2(S, M, C)"),
        ("P3", "q1(S, C) :- v3(S), v1(M, a, C), v2(S, M, C)"),
        ("P4", "q1(S, C) :- v4(M, a, C, S)"),
        ("P5", "q1(S, C) :- v1(M, a, C1), v5(M1, a, C), v2(S, M, C)"),
    ]
    .iter()
    .map(|&(n, s)| (n, parse_query(s).unwrap()))
    .collect();

    println!("Figure 1 regions for the paper's P1–P5:\n");
    println!(
        "{:<4} {:>9} {:>9} {:>7} {:>9}",
        "", "minimal", "LMR", "#goals", "equiv?"
    );
    for (name, p) in &named {
        println!(
            "{:<4} {:>9} {:>9} {:>7} {:>9}",
            name,
            is_minimal_as_query(p),
            is_locally_minimal(p, &query, &views),
            p.body.len(),
            viewplan::core::is_equivalent_rewriting(p, &query, &views),
        );
    }

    // Figure 2(a): the LMR partial order.
    let lmrs: Vec<(&str, ConjunctiveQuery)> = named
        .iter()
        .filter(|(_, p)| is_locally_minimal(p, &query, &views))
        .map(|(n, p)| (*n, p.clone()))
        .collect();
    let queries: Vec<ConjunctiveQuery> = lmrs.iter().map(|(_, p)| p.clone()).collect();
    println!("\nProper containments among the LMRs (Figure 2a edges):");
    for (i, j) in lmr_partial_order(&queries) {
        println!("  {} ⊏ {}", lmrs[i].0, lmrs[j].0);
    }
    println!("\nContainment-minimal LMRs (CMRs):");
    for (k, (name, _)) in lmrs.iter().enumerate() {
        if is_containment_minimal(k, &queries) {
            println!("  {name}");
        }
    }

    // And the GMR, straight from CoreCover.
    let gmrs = CoreCover::new(&query, &views).run();
    println!("\nGlobally-minimal rewritings (CoreCover):");
    for r in gmrs.rewritings() {
        println!("  {r}");
    }

    // §3.2: a GMR that is not a CMR.
    println!("\n§3.2's subtlety — a GMR outside the CMR region:");
    let q2 = parse_query("q(X) :- e(X, X)").unwrap();
    let vs2 = parse_views("v(A, B) :- e(A, A), e(A, B)").unwrap();
    let p1 = parse_query("q(X) :- v(X, B)").unwrap();
    let p2 = parse_query("q(X) :- v(X, X)").unwrap();
    println!(
        "  P1 = {p1}: LMR {}, CMR {}",
        is_locally_minimal(&p1, &q2, &vs2),
        is_containment_minimal(0, &[p1.clone(), p2.clone()])
    );
    println!(
        "  P2 = {p2}: LMR {}, CMR {}",
        is_locally_minimal(&p2, &q2, &vs2),
        is_containment_minimal(1, &[p1.clone(), p2.clone()])
    );
    println!("  both have 1 subgoal → both are GMRs; only P2 is a CMR (Prop 3.1).");
}
