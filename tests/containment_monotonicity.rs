//! §5.3: cost model M2 is *containment monotonic* — if there is a
//! containment mapping from rewriting P1 onto P2 whose image covers all of
//! P2's subgoals, then P2's optimal plan is at most as costly as P1's.
//! Theorem 5.1 generalizes to any cost model with this property; here we
//! validate it empirically for M2 (and for M3's supplementary variant,
//! whose GSRs are projections of the same intermediates).

use viewplan::containment::HomomorphismSearch;
use viewplan::cost::{optimal_m2_order, ExactOracle};
use viewplan::prelude::*;

/// True iff there is a containment mapping from `p1` to `p2` whose image
/// includes every subgoal of `p2` (the premise of §5.3).
fn onto_containment(p1: &ConjunctiveQuery, p2: &ConjunctiveQuery) -> bool {
    let Some(initial) = viewplan::containment::head_bindings(p1, p2) else {
        return false;
    };
    let mut found = false;
    HomomorphismSearch::with_initial(&p1.body, &p2.body, initial).for_each(|phi| {
        let image: std::collections::HashSet<Atom> = p1.body.iter().map(|a| a.apply(phi)).collect();
        if p2.body.iter().all(|a| image.contains(a)) {
            found = true;
            true
        } else {
            false
        }
    });
    found
}

/// The paper's own instance: P2 vs P1 in the car-loc-part example
/// ("plan P2 … is at least as efficient as plan P1, since there is a
/// containment mapping from P1 to P2 such that all the subgoals of P2 are
/// images under the mapping").
#[test]
fn carlocpart_p2_dominates_p1_under_m2() {
    let p1 = parse_query("q1(S, C) :- v1(M, a, C1), v1(M1, a, C), v2(S, M, C)").unwrap();
    let p2 = parse_query("q1(S, C) :- v1(M, a, C), v2(S, M, C)").unwrap();
    assert!(onto_containment(&p1, &p2));
    assert!(!onto_containment(&p2, &p1));

    let views = parse_views(
        "v1(M, D, C) :- car(M, D), loc(D, C).\n\
         v2(S, M, C) :- part(S, M, C).",
    )
    .unwrap();
    for seed in 0..5 {
        let mut base = Database::new();
        let q = parse_query("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)").unwrap();
        for (name, rows) in random_database(&q, 30, 12, seed) {
            for mut row in rows {
                // Give dealer `a` a presence so the views are nonempty.
                if name.as_str() == "car" && row[1] % 3 == 0 {
                    base.insert(name, vec![Value::Int(row[0]), Value::sym("a")]);
                } else if name.as_str() == "loc" && row[0] % 3 == 0 {
                    base.insert(name, vec![Value::sym("a"), Value::Int(row[1])]);
                } else {
                    base.insert(name, row.drain(..).map(Value::Int).collect());
                }
            }
        }
        let vdb = materialize_views(&views, &base);
        let mut oracle = ExactOracle::new(&vdb);
        let Some((_, _, cost2)) = optimal_m2_order(&p2.body, &mut oracle) else {
            continue;
        };
        let Some((_, _, cost1)) = optimal_m2_order(&p1.body, &mut oracle) else {
            continue;
        };
        assert!(
            cost2 <= cost1,
            "M2 monotonicity violated (seed {seed}): cost(P2)={cost2} > cost(P1)={cost1}"
        );
    }
}

/// Randomized check over generated chain workloads: take any rewriting P
/// and inflate it with a renamed duplicate subgoal (which always yields an
/// onto-containment from the inflated version); the optimal M2 cost must
/// not improve.
#[test]
fn inflated_rewritings_never_cost_less_under_m2() {
    for seed in 0..6 {
        let w = generate(&WorkloadConfig::chain(15, 0, seed));
        let result = CoreCover::new(&w.query, &w.views).run();
        let Some(p) = result.rewritings().first() else {
            continue;
        };
        if p.body.len() < 2 {
            continue;
        }
        // Inflate: duplicate the first subgoal with fresh variables in
        // non-head positions that are not shared elsewhere.
        let mut inflated = p.clone();
        let mut dup = p.body[0].clone();
        let head_vars: std::collections::HashSet<Symbol> = p.head.variables().collect();
        let shared: std::collections::HashSet<Symbol> =
            p.body[1..].iter().flat_map(|a| a.variables()).collect();
        let mut subst = Substitution::new();
        for v in dup.variables().collect::<Vec<_>>() {
            if !head_vars.contains(&v) && !shared.contains(&v) {
                subst.bind(v, Term::Var(Symbol::fresh(v.as_str())));
            }
        }
        dup = dup.apply(&subst);
        if dup == p.body[0] {
            continue; // nothing to rename: duplicate would be identical
        }
        inflated.body.push(dup);
        assert!(onto_containment(&inflated, p), "seed {seed}");

        let mut base = Database::new();
        for (name, rows) in random_database(&w.query, 25, 30, seed ^ 0x99) {
            for row in rows {
                base.insert(name, row.into_iter().map(Value::Int).collect());
            }
        }
        let vdb = materialize_views(&w.views, &base);
        let mut oracle = ExactOracle::new(&vdb);
        let (_, _, cost_p) = optimal_m2_order(&p.body, &mut oracle).unwrap();
        let (_, _, cost_inflated) = optimal_m2_order(&inflated.body, &mut oracle).unwrap();
        assert!(
            cost_p <= cost_inflated,
            "seed {seed}: {cost_p} > {cost_inflated}"
        );
    }
}
