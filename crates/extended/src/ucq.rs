//! Unions of (conditional) conjunctive queries — the rewriting shape §8
//! shows is unavoidable once views carry comparisons.
//!
//! Containment of a CQ in a UCQ is branch-wise for comparison-free
//! queries (Sagiv–Yannakakis); with comparisons the complete test refines
//! by total orderings, exactly like Klug's single-CQ test: for every
//! consistent ordering of the left query's terms, *some* branch must
//! admit a valid containment mapping — different orderings may be served
//! by different branches, which is precisely why a union can be equivalent
//! to a query none of whose single branches is.

use crate::ccq::{
    evaluate_conditional, for_each_weak_order, is_contained_with_comparisons, ConditionalQuery,
};
use std::collections::HashSet;
use viewplan_containment::{head_bindings, HomomorphismSearch};
use viewplan_cq::{ConjunctiveQuery, Term};
use viewplan_engine::{Database, Relation};

/// A union of conditional conjunctive queries with a common head shape.
#[derive(Clone, PartialEq, Debug)]
pub struct UnionQuery {
    /// The branches; all heads must share predicate and arity.
    pub branches: Vec<ConditionalQuery>,
}

impl UnionQuery {
    /// Builds a union, checking head compatibility.
    ///
    /// # Panics
    /// Panics if branches disagree on head predicate or arity, or if the
    /// union is empty.
    pub fn new(branches: Vec<ConditionalQuery>) -> UnionQuery {
        assert!(!branches.is_empty(), "a union needs at least one branch");
        let head = &branches[0].relational.head;
        for b in &branches[1..] {
            assert_eq!(
                (b.relational.head.predicate, b.relational.head.arity()),
                (head.predicate, head.arity()),
                "union branches must share the head shape"
            );
        }
        UnionQuery { branches }
    }

    /// A union of plain conjunctive queries.
    pub fn plain(branches: Vec<ConjunctiveQuery>) -> UnionQuery {
        UnionQuery::new(branches.into_iter().map(ConditionalQuery::plain).collect())
    }

    /// True iff no branch carries comparisons.
    pub fn is_comparison_free(&self) -> bool {
        self.branches.iter().all(|b| b.constraints.is_empty())
    }
}

impl std::fmt::Display for UnionQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, b) in self.branches.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

/// Evaluates the union: the set union of the branch answers.
pub fn evaluate_union(u: &UnionQuery, db: &Database) -> Relation {
    let mut out = Relation::new(u.branches[0].relational.head.arity());
    for b in &u.branches {
        for row in &evaluate_conditional(b, db) {
            out.insert(row.clone());
        }
    }
    out
}

/// Containment of one conditional CQ in a union. Complete via the
/// ordering-refinement test; `None` when the term count exceeds
/// `max_terms`.
pub fn is_contained_in_union(
    q: &ConditionalQuery,
    u: &UnionQuery,
    max_terms: usize,
) -> Option<bool> {
    // Fast path: contained in a single branch.
    for b in &u.branches {
        if is_contained_with_comparisons(q, b, max_terms) == Some(true) {
            return Some(true);
        }
    }
    if q.constraints.is_empty() && u.is_comparison_free() {
        // Sagiv–Yannakakis: branch-wise containment is complete, and it
        // just failed.
        return Some(false);
    }
    if !q.constraints.is_satisfiable() {
        return Some(true);
    }
    // Ordering refinement across branches.
    let mut terms = q.terms();
    for b in &u.branches {
        for c in b.constraints.iter() {
            for t in [c.lhs, c.rhs] {
                if matches!(t, Term::Const(_)) && !terms.contains(&t) {
                    terms.push(t);
                }
            }
        }
    }
    if terms.len() > max_terms {
        return None;
    }
    let initials: Vec<Option<_>> = u
        .branches
        .iter()
        .map(|b| head_bindings(&b.relational, &q.relational))
        .collect();
    let mut ok = true;
    for_each_weak_order(&terms, &mut |tau| {
        let total = tau.conjoin(&q.constraints);
        if !total.is_satisfiable() {
            return true;
        }
        let mut served = false;
        for (b, initial) in u.branches.iter().zip(&initials) {
            let Some(initial) = initial else { continue };
            HomomorphismSearch::with_initial(
                &b.relational.body,
                &q.relational.body,
                initial.clone(),
            )
            .for_each(|phi| {
                if total.implies_all(&b.constraints.apply(phi)) {
                    served = true;
                    true
                } else {
                    false
                }
            });
            if served {
                break;
            }
        }
        if !served {
            ok = false;
            return false;
        }
        true
    });
    Some(ok)
}

/// UCQ ⊑ UCQ: every branch of `u1` contained in `u2`.
pub fn is_ucq_contained_in(u1: &UnionQuery, u2: &UnionQuery, max_terms: usize) -> Option<bool> {
    let mut all = true;
    for b in &u1.branches {
        match is_contained_in_union(b, u2, max_terms) {
            Some(true) => {}
            Some(false) => {
                all = false;
                break;
            }
            None => return None,
        }
    }
    Some(all)
}

/// UCQ equivalence (both containments).
pub fn is_ucq_equivalent(u1: &UnionQuery, u2: &UnionQuery, max_terms: usize) -> Option<bool> {
    match is_ucq_contained_in(u1, u2, max_terms)? {
        false => Some(false),
        true => is_ucq_contained_in(u2, u1, max_terms),
    }
}

/// Removes branches contained in the union of the remaining ones; the
/// result is equivalent to the input with no redundant branch (given the
/// term bound holds throughout — undecided branches are conservatively
/// kept).
pub fn minimize_union(u: &UnionQuery, max_terms: usize) -> UnionQuery {
    let mut keep: Vec<bool> = vec![true; u.branches.len()];
    for i in 0..u.branches.len() {
        let others: Vec<ConditionalQuery> = u
            .branches
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i && keep[j])
            .map(|(_, b)| b.clone())
            .collect();
        if others.is_empty() {
            continue;
        }
        let rest = UnionQuery::new(others);
        if is_contained_in_union(&u.branches[i], &rest, max_terms) == Some(true) {
            keep[i] = false;
        }
    }
    UnionQuery::new(
        u.branches
            .iter()
            .zip(&keep)
            .filter(|&(_, &k)| k)
            .map(|(b, _)| b.clone())
            .collect(),
    )
}

/// A convenience assertion used by tests: answers of `u` equal the
/// answers of `q` over the given database.
pub fn union_matches_query(u: &UnionQuery, q: &ConditionalQuery, db: &Database) -> bool {
    let a = evaluate_union(u, db);
    let b = evaluate_conditional(q, db);
    let sa: HashSet<_> = a.iter().collect();
    let sb: HashSet<_> = b.iter().collect();
    sa == sb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparison::Comparison;
    use crate::constraints::ConstraintSet;
    use viewplan_cq::parse_query;
    use viewplan_engine::Value;

    fn v(name: &str) -> Term {
        Term::var(name)
    }

    fn ccq(src: &str, cs: Vec<Comparison>) -> ConditionalQuery {
        ConditionalQuery::new(
            parse_query(src).unwrap(),
            ConstraintSet::from_comparisons(cs),
        )
    }

    /// The canonical case split: r(X, Y) ≡ (r(X,Y), X ≤ Y) ∪ (r(X,Y), Y ≤ X),
    /// but is contained in neither branch alone.
    fn case_split() -> (ConditionalQuery, UnionQuery) {
        let q = ConditionalQuery::plain(parse_query("q(X, Y) :- r(X, Y)").unwrap());
        let u = UnionQuery::new(vec![
            ccq("q(X, Y) :- r(X, Y)", vec![Comparison::le(v("X"), v("Y"))]),
            ccq("q(X, Y) :- r(X, Y)", vec![Comparison::le(v("Y"), v("X"))]),
        ]);
        (q, u)
    }

    #[test]
    fn union_containment_needs_the_case_split() {
        let (q, u) = case_split();
        // Not contained in either single branch…
        for b in &u.branches {
            assert_eq!(is_contained_with_comparisons(&q, b, 7), Some(false));
        }
        // …but contained in the union (different orderings pick different
        // branches).
        assert_eq!(is_contained_in_union(&q, &u, 7), Some(true));
        // And conversely each branch ⊑ q, so the union is equivalent.
        let uq = UnionQuery::new(vec![q.clone()]);
        assert_eq!(is_ucq_equivalent(&u, &uq, 7), Some(true));
    }

    #[test]
    fn union_evaluation_is_set_union() {
        let (q, u) = case_split();
        let mut db = Database::new();
        db.insert_int("r", &[&[1, 2], &[5, 4], &[3, 3]]);
        assert!(union_matches_query(&u, &q, &db));
        assert_eq!(evaluate_union(&u, &db).len(), 3);
    }

    #[test]
    fn comparison_free_branchwise_is_complete() {
        let q = ConditionalQuery::plain(parse_query("q(X) :- e(X, X)").unwrap());
        let u = UnionQuery::plain(vec![
            parse_query("q(X) :- e(X, Y)").unwrap(),
            parse_query("q(X) :- f(X)").unwrap(),
        ]);
        assert_eq!(is_contained_in_union(&q, &u, 7), Some(true));
        let not = ConditionalQuery::plain(parse_query("q(X) :- g(X)").unwrap());
        assert_eq!(is_contained_in_union(&not, &u, 7), Some(false));
    }

    #[test]
    fn minimize_union_drops_subsumed_branches() {
        let u = UnionQuery::plain(vec![
            parse_query("q(X) :- e(X, Y)").unwrap(),
            parse_query("q(X) :- e(X, X)").unwrap(), // ⊑ first branch
            parse_query("q(X) :- f(X)").unwrap(),
        ]);
        let m = minimize_union(&u, 7);
        assert_eq!(m.branches.len(), 2);
    }

    #[test]
    fn minimize_keeps_the_case_split() {
        let (_, u) = case_split();
        // Neither branch is contained in the other: both stay.
        assert_eq!(minimize_union(&u, 7).branches.len(), 2);
    }

    #[test]
    fn ucq_containment_respects_direction() {
        let narrow = UnionQuery::new(vec![ccq(
            "q(X, Y) :- r(X, Y)",
            vec![Comparison::lt(v("X"), v("Y"))],
        )]);
        let (_, wide) = case_split();
        assert_eq!(is_ucq_contained_in(&narrow, &wide, 7), Some(true));
        assert_eq!(is_ucq_contained_in(&wide, &narrow, 7), Some(false));
    }

    #[test]
    fn three_way_case_split_with_equality() {
        // r(X,Y) ≡ (X < Y) ∪ (X = Y) ∪ (Y < X).
        let q = ConditionalQuery::plain(parse_query("q(X, Y) :- r(X, Y)").unwrap());
        let u = UnionQuery::new(vec![
            ccq("q(X, Y) :- r(X, Y)", vec![Comparison::lt(v("X"), v("Y"))]),
            ccq("q(X, Y) :- r(X, Y)", vec![Comparison::eq(v("X"), v("Y"))]),
            ccq("q(X, Y) :- r(X, Y)", vec![Comparison::lt(v("Y"), v("X"))]),
        ]);
        assert_eq!(is_contained_in_union(&q, &u, 7), Some(true));
        let mut db = Database::new();
        db.insert_int("r", &[&[1, 9], &[9, 1], &[4, 4]]);
        assert!(union_matches_query(&u, &q, &db));
    }

    #[test]
    fn evaluation_with_symbolic_values() {
        // The runtime order is total over all values (symbols by name), so
        // the case split covers symbolic tuples too — the union stays
        // equivalent to the plain query on mixed data.
        let (q, u) = case_split();
        let mut db = Database::new();
        db.insert("r", vec![Value::sym("alpha"), Value::sym("alpha")]);
        db.insert("r", vec![Value::sym("beta"), Value::sym("alpha")]);
        db.insert("r", vec![Value::Int(3), Value::sym("zed")]);
        assert!(union_matches_query(&u, &q, &db));
        assert_eq!(evaluate_union(&u, &db).len(), 3);
    }
}
