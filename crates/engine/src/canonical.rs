//! Canonical databases (§3.3).
//!
//! The canonical database `D_Q` of a query `Q` freezes each variable into a
//! distinct constant and treats the body subgoals as the only tuples. The
//! paper then applies the view definitions to `D_Q` and restores the
//! introduced constants back to variables to obtain the **view tuples**
//! `T(Q, V)` — the building blocks of every rewriting the search spaces of
//! Theorems 3.1 and 5.1 contain.

use crate::database::Database;
use crate::value::Value;
use viewplan_cq::{ConjunctiveQuery, Term};

/// Freezes a term: variables become [`Value::Frozen`] markers carrying
/// their own name; constants become ordinary values.
pub(crate) fn freeze_term(t: Term) -> Value {
    match t {
        Term::Var(v) => Value::Frozen(v),
        Term::Const(c) => Value::from_constant(c),
    }
}

/// Thaws a value back into a term (the "restore each introduced constant
/// back to the original variable" step of §3.3).
pub fn unfreeze_value(v: Value) -> Term {
    v.to_term()
}

/// Builds the canonical database `D_Q` of a query: one tuple per body
/// subgoal, with variables frozen.
pub fn canonical_database(q: &ConjunctiveQuery) -> Database {
    let mut db = Database::new();
    for atom in &q.body {
        db.insert(
            atom.predicate,
            atom.terms.iter().map(|&t| freeze_term(t)).collect(),
        );
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use viewplan_cq::{parse_query, Symbol};

    #[test]
    fn carlocpart_canonical_database() {
        // §3.3: D_Q = {car(m, a), loc(a, c), part(s, m, c)}.
        let q = parse_query("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)").unwrap();
        let db = canonical_database(&q);
        let car = db.get("car".into()).unwrap();
        assert_eq!(car.len(), 1);
        assert_eq!(
            car.row(0),
            vec![Value::Frozen(Symbol::new("M")), Value::sym("a")]
        );
        assert_eq!(db.get("part".into()).unwrap().row(0).len(), 3);
    }

    #[test]
    fn freezing_round_trips() {
        assert_eq!(unfreeze_value(freeze_term(Term::var("X"))), Term::var("X"));
        assert_eq!(unfreeze_value(freeze_term(Term::cst("a"))), Term::cst("a"));
        assert_eq!(unfreeze_value(freeze_term(Term::int(3))), Term::int(3));
    }

    #[test]
    fn query_applied_to_own_canonical_database_yields_frozen_head() {
        // Q(D_Q) always contains the frozen head tuple — the classic
        // canonical-database property underlying Chandra–Merlin.
        let q = parse_query("q(X, Z) :- e(X, Y), e(Y, Z)").unwrap();
        let db = canonical_database(&q);
        let ans = evaluate(&q, &db);
        let frozen_head: Vec<Value> = q.head.terms.iter().map(|&t| freeze_term(t)).collect();
        assert!(ans.contains(&frozen_head));
    }

    #[test]
    fn duplicate_subgoals_collapse_in_canonical_database() {
        let q = parse_query("q(X) :- e(X, X), e(X, X)").unwrap();
        let db = canonical_database(&q);
        assert_eq!(db.get("e".into()).unwrap().len(), 1);
    }

    #[test]
    fn repeated_variables_freeze_to_equal_values() {
        let q = parse_query("q(X) :- e(X, X)").unwrap();
        let db = canonical_database(&q);
        let t = db.get("e".into()).unwrap().row(0);
        assert_eq!(t[0], t[1]);
    }
}
