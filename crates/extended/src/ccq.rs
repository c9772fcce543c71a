//! Conditional conjunctive queries: a relational part plus a conjunction
//! of comparisons.
//!
//! Containment follows Klug's test: `Q1 ⊑ Q2` iff for **every** total
//! ordering of `Q1`'s terms consistent with `Q1`'s constraints, some
//! containment mapping from `Q2`'s relational part into `Q1`'s maps
//! `Q2`'s constraints to implied ones. Total orderings are weak orders
//! (ordered partitions with ties) of the relevant terms — exponential in
//! their count, so the test takes an explicit bound and reports `None`
//! (unknown) when the instance exceeds it. The homomorphism-only check
//! (one ordering: the constraints themselves) is available as a fast sound
//! approximation through the same API with `max_terms = 0`.

use crate::constraints::ConstraintSet;
use std::collections::HashSet;
use viewplan_containment::{head_bindings, HomomorphismSearch};
use viewplan_cq::{Atom, ConjunctiveQuery, Substitution, Symbol, Term};
use viewplan_engine::{evaluate, Database, Relation, Value};

/// A conjunctive query with comparison predicates.
#[derive(Clone, PartialEq, Debug)]
pub struct ConditionalQuery {
    /// The relational (select-project-join) part.
    pub relational: ConjunctiveQuery,
    /// The comparison conjunction.
    pub(crate) constraints: ConstraintSet,
}

impl ConditionalQuery {
    /// Wraps a plain conjunctive query (no comparisons).
    pub fn plain(q: ConjunctiveQuery) -> ConditionalQuery {
        ConditionalQuery {
            relational: q,
            constraints: ConstraintSet::new(),
        }
    }

    /// Builds a conditional query; all comparison variables must occur in
    /// the relational body (range restriction).
    ///
    /// # Panics
    /// Panics on a range-restriction violation — comparisons over unbound
    /// variables have no semantics.
    pub fn new(relational: ConjunctiveQuery, constraints: ConstraintSet) -> ConditionalQuery {
        let body_vars: HashSet<Symbol> =
            relational.body.iter().flat_map(|a| a.variables()).collect();
        for v in constraints.variables() {
            assert!(
                body_vars.contains(&v),
                "comparison variable {v} does not occur in the relational body"
            );
        }
        ConditionalQuery {
            relational,
            constraints,
        }
    }

    /// Every term of the query (head, body, and constraint operands).
    pub(crate) fn terms(&self) -> Vec<Term> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let mut push = |t: Term| {
            if seen.insert(t) {
                out.push(t);
            }
        };
        for t in &self.relational.head.terms {
            push(*t);
        }
        for a in &self.relational.body {
            for t in &a.terms {
                push(*t);
            }
        }
        for c in self.constraints.iter() {
            push(c.lhs);
            push(c.rhs);
        }
        out
    }
}

impl std::fmt::Display for ConditionalQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.relational)?;
        if !self.constraints.is_empty() {
            write!(f, ", {}", self.constraints)?;
        }
        Ok(())
    }
}

/// Evaluates a conditional query: the relational part runs through the
/// engine with all variables retained, rows failing a comparison are
/// filtered, and the result is projected on the head.
pub fn evaluate_conditional(q: &ConditionalQuery, db: &Database) -> Relation {
    if q.constraints.is_empty() {
        return evaluate(&q.relational, db);
    }
    // Evaluate with a wide head carrying every variable.
    let vars = q.relational.variables();
    let wide_head = Atom::new("__wide__", vars.iter().map(|&v| Term::Var(v)).collect());
    let wide = ConjunctiveQuery::new(wide_head, q.relational.body.clone());
    let rows = evaluate(&wide, db);
    let mut out = Relation::new(q.relational.head.arity());
    for row in &rows {
        let lookup =
            |v: Symbol| -> Option<Value> { vars.iter().position(|&x| x == v).map(|i| row[i]) };
        let keep = q
            .constraints
            .iter()
            .all(|c| c.eval(&lookup).unwrap_or(false));
        if keep {
            out.insert(
                q.relational
                    .head
                    .terms
                    .iter()
                    .map(|t| match *t {
                        Term::Var(v) => lookup(v).expect("head variable is bound (safety)"),
                        Term::Const(c) => Value::from_constant(c),
                    })
                    .collect(),
            );
        }
    }
    out
}

/// Klug's containment test for conditional queries.
///
/// Returns `Some(true)` / `Some(false)` when decided, or `None` when the
/// number of relevant terms exceeds `max_terms` (the weak-order
/// enumeration is exponential; 7 terms ≈ 47k orderings is a comfortable
/// default). Comparison-free inputs short-circuit to the classical
/// (polynomially-checkable-in-practice) containment mapping test.
pub(crate) fn is_contained_with_comparisons(
    q1: &ConditionalQuery,
    q2: &ConditionalQuery,
    max_terms: usize,
) -> Option<bool> {
    if q1.constraints.is_empty() && q2.constraints.is_empty() {
        return Some(viewplan_containment::is_contained_in(
            &q1.relational,
            &q2.relational,
        ));
    }
    if !q1.constraints.is_satisfiable() {
        // An unsatisfiable query is empty, hence contained in everything.
        return Some(true);
    }
    // Relevant terms: everything in Q1 plus the constants of Q2's
    // comparisons (their relative position matters for φ(C2)).
    let mut terms = q1.terms();
    for c in q2.constraints.iter() {
        for t in [c.lhs, c.rhs] {
            if matches!(t, Term::Const(_)) && !terms.contains(&t) {
                terms.push(t);
            }
        }
    }
    if terms.len() > max_terms {
        return None;
    }
    // Incompatible heads (different predicate, arity, or conflicting
    // constants) mean Q2 can never map onto Q1: decidedly not contained —
    // distinct from the "instance too large" None.
    let Some(initial) = head_bindings(&q2.relational, &q1.relational) else {
        return Some(false);
    };
    let mut all_orders_ok = true;
    for_each_weak_order(&terms, &mut |tau| {
        // τ must be consistent with C1 and with constant semantics.
        let total = tau.conjoin(&q1.constraints);
        if !total.is_satisfiable() {
            return true; // inconsistent ordering: skip, keep going
        }
        // Some hom must map C2 into relations implied by τ (+C1).
        let mut found = false;
        HomomorphismSearch::with_initial(&q2.relational.body, &q1.relational.body, initial.clone())
            .for_each(|phi| {
                let mapped = apply_to_constraints(&q2.constraints, phi);
                if total.implies_all(&mapped) {
                    found = true;
                    true // stop hom enumeration
                } else {
                    false
                }
            });
        if !found {
            all_orders_ok = false;
            return false; // counterexample ordering found: stop
        }
        true
    });
    Some(all_orders_ok)
}

fn apply_to_constraints(cs: &ConstraintSet, phi: &Substitution) -> ConstraintSet {
    cs.apply(phi)
}

/// Enumerates weak orders (ordered set partitions) of `terms` as
/// constraint sets: blocks are equal internally, consecutive blocks are
/// strictly increasing. `visit` returning `false` aborts; the function
/// returns whether enumeration ran to completion.
pub(crate) fn for_each_weak_order(
    terms: &[Term],
    visit: &mut dyn FnMut(&ConstraintSet) -> bool,
) -> bool {
    fn recurse(
        remaining: &[Term],
        blocks: &mut Vec<Vec<Term>>,
        visit: &mut dyn FnMut(&ConstraintSet) -> bool,
    ) -> bool {
        let Some((&first, rest)) = remaining.split_first() else {
            // Emit the weak order as constraints.
            let mut cs = ConstraintSet::new();
            for block in blocks.iter() {
                for pair in block.windows(2) {
                    cs.push(crate::comparison::Comparison::eq(pair[0], pair[1]));
                }
            }
            for pair in blocks.windows(2) {
                if let (Some(&a), Some(&b)) = (pair[0].last(), pair[1].first()) {
                    cs.push(crate::comparison::Comparison::lt(a, b));
                }
            }
            return visit(&cs);
        };
        // Insert `first` into an existing block…
        for i in 0..blocks.len() {
            blocks[i].push(first);
            if !recurse(rest, blocks, visit) {
                blocks[i].pop();
                return false;
            }
            blocks[i].pop();
        }
        // …or as a new block in any gap.
        for i in 0..=blocks.len() {
            blocks.insert(i, vec![first]);
            if !recurse(rest, blocks, visit) {
                blocks.remove(i);
                return false;
            }
            blocks.remove(i);
        }
        true
    }
    recurse(terms, &mut Vec::new(), visit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparison::Comparison;
    use viewplan_cq::parse_query;

    fn v(name: &str) -> Term {
        Term::var(name)
    }

    fn ccq(src: &str, cs: Vec<Comparison>) -> ConditionalQuery {
        ConditionalQuery::new(
            parse_query(src).unwrap(),
            ConstraintSet::from_comparisons(cs),
        )
    }

    #[test]
    fn evaluation_filters_by_comparisons() {
        let mut db = Database::new();
        db.insert_int("r", &[&[1, 2], &[3, 3], &[5, 4]]);
        let q = ccq("q(X, Y) :- r(X, Y)", vec![Comparison::le(v("X"), v("Y"))]);
        let ans = evaluate_conditional(&q, &db);
        assert_eq!(ans.len(), 2); // (1,2) and (3,3)
        assert!(ans.contains(&[Value::Int(1), Value::Int(2)]));
        assert!(!ans.contains(&[Value::Int(5), Value::Int(4)]));
    }

    #[test]
    fn strict_comparison_excludes_ties() {
        let mut db = Database::new();
        db.insert_int("r", &[&[1, 2], &[3, 3]]);
        let q = ccq("q(X, Y) :- r(X, Y)", vec![Comparison::lt(v("X"), v("Y"))]);
        assert_eq!(evaluate_conditional(&q, &db).len(), 1);
    }

    #[test]
    fn plain_queries_fall_back_to_classical_containment() {
        let q1 = ConditionalQuery::plain(parse_query("q(X) :- e(X, Y), e(Y, Z)").unwrap());
        let q2 = ConditionalQuery::plain(parse_query("q(X) :- e(X, Y)").unwrap());
        assert_eq!(is_contained_with_comparisons(&q1, &q2, 7), Some(true));
        assert_eq!(is_contained_with_comparisons(&q2, &q1, 7), Some(false));
    }

    #[test]
    fn stronger_constraints_are_contained_in_weaker() {
        // q1: r(X, Y), X < Y  ⊑  q2: r(X, Y), X ≤ Y.
        let q1 = ccq("q(X, Y) :- r(X, Y)", vec![Comparison::lt(v("X"), v("Y"))]);
        let q2 = ccq("q(X, Y) :- r(X, Y)", vec![Comparison::le(v("X"), v("Y"))]);
        assert_eq!(is_contained_with_comparisons(&q1, &q2, 7), Some(true));
        assert_eq!(is_contained_with_comparisons(&q2, &q1, 7), Some(false));
    }

    #[test]
    fn unsatisfiable_query_is_contained_in_everything() {
        let empty = ccq("q(X) :- r(X, X)", vec![Comparison::lt(v("X"), v("X"))]);
        let any = ConditionalQuery::plain(parse_query("q(X) :- s(X)").unwrap());
        assert_eq!(is_contained_with_comparisons(&empty, &any, 7), Some(true));
    }

    #[test]
    fn klug_case_split_containment() {
        // The classic case-split: r(X, Y) ⊑ "r(X, Y), X ≤ Y ∪ …" needs
        // unions; but r(X, Y), X ≤ X is trivially contained in plain.
        // Proper single-CQ test: Q1: r(X, Y) with no constraints is NOT
        // contained in Q2: r(X, Y), X ≤ Y.
        let q1 = ConditionalQuery::plain(parse_query("q(X, Y) :- r(X, Y)").unwrap());
        let q2 = ccq("q(X, Y) :- r(X, Y)", vec![Comparison::le(v("X"), v("Y"))]);
        assert_eq!(is_contained_with_comparisons(&q1, &q2, 7), Some(false));
    }

    #[test]
    fn comparisons_can_enable_extra_homomorphisms() {
        // Q1: r(X, Y), X = Y (both columns equal) is contained in
        // Q2: r(A, B), A ≤ B even though the identity hom needs the
        // ordering knowledge X = Y ⊨ A ≤ B.
        let q1 = ccq("q(X, Y) :- r(X, Y)", vec![Comparison::eq(v("X"), v("Y"))]);
        let q2 = ccq("q(A, B) :- r(A, B)", vec![Comparison::le(v("A"), v("B"))]);
        assert_eq!(is_contained_with_comparisons(&q1, &q2, 7), Some(true));
    }

    #[test]
    fn too_many_terms_reports_unknown() {
        let q1 = ccq(
            "q(A, B, C, D) :- r(A, B), r(C, D)",
            vec![Comparison::le(v("A"), v("B"))],
        );
        let q2 = ccq(
            "q(A, B, C, D) :- r(A, B), r(C, D)",
            vec![Comparison::le(v("A"), v("B"))],
        );
        assert_eq!(is_contained_with_comparisons(&q1, &q2, 2), None);
        // With a sufficient bound it decides (the identity homomorphism
        // works under every ordering).
        assert_eq!(is_contained_with_comparisons(&q1, &q2, 5), Some(true));
    }

    #[test]
    fn weak_order_counts_are_ordered_bell_numbers() {
        for (n, expected) in [(1usize, 1usize), (2, 3), (3, 13)] {
            let terms: Vec<Term> = (0..n).map(|i| Term::var(&format!("W{i}"))).collect();
            let mut count = 0;
            for_each_weak_order(&terms, &mut |_| {
                count += 1;
                true
            });
            assert_eq!(count, expected, "n = {n}");
        }
    }

    #[test]
    fn equivalence_with_comparisons() {
        // X < Y and ¬(Y ≤ X) formulations coincide here: X < Y vs X ≤ Y ∧ X ≠ Y.
        let q1 = ccq("q(X, Y) :- r(X, Y)", vec![Comparison::lt(v("X"), v("Y"))]);
        let q2 = ccq(
            "q(X, Y) :- r(X, Y)",
            vec![
                Comparison::le(v("X"), v("Y")),
                Comparison::ne(v("X"), v("Y")),
            ],
        );
        assert_eq!(is_contained_with_comparisons(&q1, &q2, 7), Some(true));
        assert_eq!(is_contained_with_comparisons(&q2, &q1, 7), Some(true));
    }

    #[test]
    #[should_panic(expected = "does not occur")]
    fn range_restriction_is_enforced() {
        ccq("q(X) :- r(X, X)", vec![Comparison::lt(v("Z"), v("X"))]);
    }
}

#[cfg(test)]
mod head_compat_tests {
    use super::*;
    use crate::comparison::Comparison;
    use viewplan_cq::parse_query;

    /// Regression: incompatible heads decide "not contained" (Some(false)),
    /// never "unknown" (None).
    #[test]
    fn incompatible_heads_are_decidedly_not_contained() {
        let q1 = ConditionalQuery::new(
            parse_query("q(X, Y) :- r(X, Y)").unwrap(),
            ConstraintSet::from_comparisons([Comparison::le(Term::var("X"), Term::var("Y"))]),
        );
        let different_arity = ConditionalQuery::plain(parse_query("q(X) :- r(X, X)").unwrap());
        assert_eq!(
            is_contained_with_comparisons(&q1, &different_arity, 7),
            Some(false)
        );
        let different_name = ConditionalQuery::plain(parse_query("p(X, Y) :- r(X, Y)").unwrap());
        assert_eq!(
            is_contained_with_comparisons(&q1, &different_name, 7),
            Some(false)
        );
    }
}
