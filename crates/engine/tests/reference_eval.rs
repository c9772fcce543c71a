//! Differential testing of the hash-join evaluator against a naive
//! nested-loop reference implementation.
//!
//! The reference enumerates every combination of body-atom tuples and
//! checks variable consistency directly — quadratic-or-worse and obviously
//! correct. The engine must agree on every randomly generated query and
//! database.

use proptest::prelude::*;
use std::collections::HashMap;
use viewplan_cq::{Atom, ConjunctiveQuery, Symbol, Term};
use viewplan_engine::{evaluate, Database, Relation, Tuple, Value};

/// Obviously-correct nested-loop evaluation.
fn reference_evaluate(q: &ConjunctiveQuery, db: &Database) -> Relation {
    fn recurse(
        q: &ConjunctiveQuery,
        db: &Database,
        depth: usize,
        binding: &mut HashMap<Symbol, Value>,
        out: &mut Relation,
    ) {
        if depth == q.body.len() {
            let row: Tuple = q
                .head
                .terms
                .iter()
                .map(|t| match *t {
                    Term::Var(v) => binding[&v],
                    Term::Const(c) => Value::from_constant(c),
                })
                .collect();
            out.insert(row);
            return;
        }
        let atom = &q.body[depth];
        let Some(rel) = db.get(atom.predicate) else {
            return;
        };
        'tuples: for tuple in rel {
            if tuple.len() != atom.arity() {
                continue;
            }
            let mut added: Vec<Symbol> = Vec::new();
            for (t, val) in atom.terms.iter().zip(tuple) {
                match *t {
                    Term::Const(c) => {
                        if Value::from_constant(c) != val {
                            for v in added.drain(..) {
                                binding.remove(&v);
                            }
                            continue 'tuples;
                        }
                    }
                    Term::Var(v) => match binding.get(&v) {
                        Some(&prev) if prev != val => {
                            for v in added.drain(..) {
                                binding.remove(&v);
                            }
                            continue 'tuples;
                        }
                        Some(_) => {}
                        None => {
                            binding.insert(v, val);
                            added.push(v);
                        }
                    },
                }
            }
            recurse(q, db, depth + 1, binding, out);
            for v in added {
                binding.remove(&v);
            }
        }
    }
    let mut out = Relation::new(q.head.arity());
    recurse(q, db, 0, &mut HashMap::new(), &mut out);
    out
}

/// Strategy: a small random query over ≤ 3 binary/ternary predicates with
/// shared variables and occasional constants.
fn arb_query() -> impl Strategy<Value = ConjunctiveQuery> {
    let term = prop_oneof![
        5 => (0..4usize).prop_map(|i| Term::var(&format!("V{i}"))),
        1 => (0..3i64).prop_map(Term::int),
    ];
    let atom = ((0..3usize), prop::collection::vec(term, 1..=3))
        .prop_map(|(p, ts)| Atom::new(format!("rel{}_{}", p, ts.len()).as_str(), ts));
    prop::collection::vec(atom, 1..=4).prop_map(|body| {
        let mut vars: Vec<Symbol> = Vec::new();
        for a in &body {
            for v in a.variables() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        let head_terms: Vec<Term> = vars.into_iter().map(Term::Var).collect();
        ConjunctiveQuery::new(Atom::new("out", head_terms), body)
    })
}

/// Strategy: a database assigning 0–8 random rows to each predicate the
/// query mentions.
fn arb_db(q: &ConjunctiveQuery) -> impl Strategy<Value = Database> {
    let preds: Vec<(Symbol, usize)> = {
        let mut seen = std::collections::HashSet::new();
        q.body
            .iter()
            .filter(|a| seen.insert(a.predicate))
            .map(|a| (a.predicate, a.arity()))
            .collect()
    };
    let tables: Vec<_> = preds
        .into_iter()
        .map(|(name, arity)| {
            prop::collection::vec(prop::collection::vec(0i64..4, arity), 0..8)
                .prop_map(move |rows| (name, rows))
        })
        .collect();
    tables.prop_map(|tables| {
        let mut db = Database::new();
        for (name, rows) in tables {
            for row in rows {
                db.insert(name, row.into_iter().map(Value::Int).collect());
            }
        }
        db
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hash_join_matches_nested_loop(
        (q, db) in arb_query().prop_flat_map(|q| {
            let db = arb_db(&q);
            (Just(q), db)
        })
    ) {
        let fast = evaluate(&q, &db);
        let slow = reference_evaluate(&q, &db);
        prop_assert_eq!(fast, slow);
    }
}

#[test]
fn reference_sanity() {
    // The reference itself on a known case.
    let q = viewplan_cq::parse_query("out(X, Z) :- e(X, Y), e(Y, Z)").unwrap();
    let mut db = Database::new();
    db.insert_int("e", &[&[1, 2], &[2, 3]]);
    let r = reference_evaluate(&q, &db);
    assert_eq!(r.len(), 1);
    assert!(r.contains(&[Value::Int(1), Value::Int(3)]));
}
