//! Cost model M1: the number of view subgoals (§3).
//!
//! Under M1 a physical plan is just the *set* of subgoals and its cost is
//! their count — a proxy for the number of joins. The optimal rewritings
//! are exactly the globally-minimal rewritings, which `CoreCover`
//! enumerates (Theorem 3.1 defines the search space, Corollary 4.1 the
//! covers ↔ GMRs correspondence), so this module only counts.

use viewplan_core::Rewriting;

/// The M1 cost of a rewriting: its number of subgoals.
pub fn m1_cost(rewriting: &Rewriting) -> usize {
    rewriting.body.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_core::CoreCover;
    use viewplan_cq::{parse_query, parse_views};

    #[test]
    fn gmr_has_minimum_m1_cost() {
        let q = parse_query("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)").unwrap();
        let views = parse_views(
            "v1(M, D, C) :- car(M, D), loc(D, C).\n\
             v2(S, M, C) :- part(S, M, C).\n\
             v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).",
        )
        .unwrap();
        let result = CoreCover::new(&q, &views).run();
        let best = result.rewritings();
        assert_eq!(best.len(), 1);
        assert_eq!(m1_cost(&best[0]), 1);
    }

    #[test]
    fn no_views_no_rewritings() {
        let q = parse_query("q(X) :- e(X, X)").unwrap();
        let views = parse_views("v(A, B) :- f(A, B)").unwrap();
        assert!(CoreCover::new(&q, &views).run().rewritings().is_empty());
    }
}
