//! The inverse-rule algorithm (Duschka & Genesereth \[9\], Qian \[21\]) —
//! the other classic answering-queries-using-views method the paper's
//! related work names.
//!
//! Each view definition is inverted: for `v(X̄) :- p1(…), …, pk(…)`, every
//! body atom yields a rule `pi(…) :- v(X̄)` whose existential variables
//! become **Skolem witnesses** `f_{v,Y}(X̄)`. Applying the inverse rules to
//! a view instance reconstructs a (partial, Skolem-populated) base
//! database; evaluating the query over it and discarding answers that
//! still contain a witness yields exactly the *certain answers* — the same
//! maximally-contained semantics as the MiniCon union, computed bottom-up
//! instead of by rewriting.

use std::collections::HashMap;
use viewplan_cq::{ConjunctiveQuery, Symbol, Term, ViewSet};
use viewplan_engine::{evaluate, Database, Relation, Tuple, Value};

/// Interns Skolem applications `f_{view,var}(args…)` into opaque ids so
/// values stay `Copy`.
#[derive(Default)]
struct SkolemTable {
    map: HashMap<(Symbol, Symbol, Tuple), u32>,
}

impl SkolemTable {
    fn witness(&mut self, view: Symbol, var: Symbol, args: &Tuple) -> Value {
        let next = self.map.len() as u32;
        let id = *self.map.entry((view, var, args.clone())).or_insert(next);
        Value::Skolem(id)
    }
}

/// Reconstructs base relations from a view instance via the inverse rules.
/// Exposed for inspection and tests; [`certain_answers`] is the main entry
/// point.
pub fn invert_views(views: &ViewSet, view_db: &Database) -> Database {
    let mut skolems = SkolemTable::default();
    let mut base = Database::new();
    for view in views {
        let Some(rel) = view_db.get(view.name()) else {
            continue;
        };
        let head = &view.definition.head;
        'tuples: for tuple in rel {
            // Bind head variables from the tuple (repeated head variables
            // must agree; head constants must match).
            let mut binding: HashMap<Symbol, Value> = HashMap::new();
            for (t, &val) in head.terms.iter().zip(&tuple) {
                match *t {
                    Term::Const(c) => {
                        if Value::from_constant(c) != val {
                            continue 'tuples; // not derivable from this view
                        }
                    }
                    Term::Var(v) => match binding.get(&v) {
                        Some(&prev) if prev != val => continue 'tuples,
                        _ => {
                            binding.insert(v, val);
                        }
                    },
                }
            }
            for atom in &view.definition.body {
                let derived: Tuple = atom
                    .terms
                    .iter()
                    .map(|t| match *t {
                        Term::Const(c) => Value::from_constant(c),
                        Term::Var(v) => match binding.get(&v) {
                            Some(&val) => val,
                            None => skolems.witness(view.name(), v, &tuple),
                        },
                    })
                    .collect();
                base.insert(atom.predicate, derived);
            }
        }
    }
    base
}

/// The certain answers to `query` given only the view instance `view_db`:
/// evaluate over the inverted base relations and drop any answer
/// containing a Skolem witness.
pub fn certain_answers(query: &ConjunctiveQuery, views: &ViewSet, view_db: &Database) -> Relation {
    let base = invert_views(views, view_db);
    let raw = evaluate(query, &base);
    let mut out = Relation::new(raw.arity());
    for row in &raw {
        if !row.iter().any(|v| v.is_skolem()) {
            out.insert(row.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_contained::maximally_contained_rewriting;
    use crate::ucq::evaluate_union;
    use viewplan_cq::{parse_query, parse_views};
    use viewplan_engine::materialize_views;

    #[test]
    fn inversion_reconstructs_known_positions() {
        let views = parse_views("v(A) :- e(A, B)").unwrap();
        let mut vdb = Database::new();
        vdb.insert_int("v", &[&[1], &[2]]);
        let base = invert_views(&views, &vdb);
        let e = base.get("e".into()).unwrap();
        assert_eq!(e.len(), 2);
        // First column known, second a Skolem witness.
        for row in e {
            assert!(!row[0].is_skolem());
            assert!(row[1].is_skolem());
        }
        // Distinct tuples get distinct witnesses.
        let w: std::collections::HashSet<_> = e.iter().map(|r| r[1]).collect();
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn same_tuple_same_witness() {
        // The Skolem function is a function: the same view tuple always
        // produces the same witness, so joins through it succeed.
        let views = parse_views("v(A) :- e(A, B), f(B)").unwrap();
        let mut vdb = Database::new();
        vdb.insert_int("v", &[&[1]]);
        let base = invert_views(&views, &vdb);
        let e = base.get("e".into()).unwrap().row(0);
        let f = base.get("f".into()).unwrap().row(0);
        assert_eq!(e[1], f[0]);
    }

    #[test]
    fn certain_answers_match_the_direct_answer_when_views_suffice() {
        let q = parse_query("q(X, Y) :- e(X, Z), f(Z, Y)").unwrap();
        let views = parse_views(
            "ve(A, B) :- e(A, B).\n\
             vf(A, B) :- f(A, B).",
        )
        .unwrap();
        let mut base = Database::new();
        base.insert_int("e", &[&[1, 2], &[3, 4]]);
        base.insert_int("f", &[&[2, 9], &[4, 8], &[5, 7]]);
        let vdb = materialize_views(&views, &base);
        let certain = certain_answers(&q, &views, &vdb);
        assert_eq!(certain, evaluate(&q, &base));
    }

    #[test]
    fn skolem_blocked_joins_are_not_certain() {
        // The view hides the join variable: e's second column is a
        // witness, f is not derivable at all, so nothing is certain.
        let q = parse_query("q(X) :- e(X, Z), f(Z)").unwrap();
        let views = parse_views("ve(A) :- e(A, B)").unwrap();
        let mut base = Database::new();
        base.insert_int("e", &[&[1, 2]]);
        base.insert_int("f", &[&[2]]);
        let vdb = materialize_views(&views, &base);
        assert!(certain_answers(&q, &views, &vdb).is_empty());
    }

    #[test]
    fn skolems_can_join_within_one_view() {
        // Both occurrences of the hidden variable come from the same view,
        // so the witness joins with itself and the answer IS certain.
        let q = parse_query("q(X) :- e(X, Z), f(Z)").unwrap();
        let views = parse_views("v(A) :- e(A, B), f(B)").unwrap();
        let mut base = Database::new();
        base.insert_int("e", &[&[1, 2]]);
        base.insert_int("f", &[&[2]]);
        let vdb = materialize_views(&views, &base);
        let certain = certain_answers(&q, &views, &vdb);
        assert_eq!(certain.len(), 1);
    }

    #[test]
    fn agrees_with_the_minicon_union() {
        // Inverse rules and the maximally-contained MiniCon union compute
        // the same certain answers.
        let q = parse_query("q(X, Y) :- e(X, Y)").unwrap();
        let views = parse_views(
            "va(A, B) :- e(A, B), red(A).\n\
             vb(A, B) :- e(A, B), blue(A).",
        )
        .unwrap();
        let mut base = Database::new();
        base.insert_int("e", &[&[1, 2], &[3, 4], &[5, 6]]);
        base.insert_int("red", &[&[1]]);
        base.insert_int("blue", &[&[3]]);
        let vdb = materialize_views(&views, &base);
        let via_inverse = certain_answers(&q, &views, &vdb);
        let union = maximally_contained_rewriting(&q, &views, 100).unwrap();
        let via_union = evaluate_union(&union, &vdb);
        assert_eq!(via_inverse, via_union);
        assert_eq!(via_inverse.len(), 2);
    }

    #[test]
    fn head_constants_restrict_inversion() {
        let views = parse_views("v(a, X) :- e(X)").unwrap();
        let mut vdb = Database::new();
        vdb.insert_sym("v", &[&["a", "x"], &["b", "y"]]);
        let base = invert_views(&views, &vdb);
        // Only the tuple matching the head constant derives anything;
        // ⟨b, y⟩ cannot come from this view (closed world would forbid it,
        // but inverse rules must simply skip it).
        assert_eq!(base.get("e".into()).unwrap().len(), 1);
    }

    #[test]
    fn repeated_head_variables_must_agree() {
        let views = parse_views("v(A, A) :- e(A)").unwrap();
        let mut vdb = Database::new();
        vdb.insert_int("v", &[&[1, 1], &[1, 2]]);
        let base = invert_views(&views, &vdb);
        assert_eq!(base.get("e".into()).unwrap().len(), 1);
    }

    #[test]
    fn random_workloads_certain_answers_are_sound_and_complete_enough() {
        use viewplan_workload::{generate, random_database, WorkloadConfig};
        for seed in 0..6 {
            let w = generate(&WorkloadConfig::chain(15, 1, seed));
            let mut base = Database::new();
            for (name, rows) in random_database(&w.query, 25, 30, seed ^ 0x77) {
                for row in rows {
                    base.insert(name, row.into_iter().map(Value::Int).collect());
                }
            }
            let vdb = materialize_views(&w.views, &base);
            let certain = certain_answers(&w.query, &w.views, &vdb);
            let direct = evaluate(&w.query, &base);
            // Soundness: certain ⊆ direct.
            for row in &certain {
                assert!(
                    direct.contains(&row),
                    "unsound certain answer (seed {seed})"
                );
            }
            // Completeness against equivalence: when an equivalent
            // rewriting exists, certain answers are the full answer.
            let cc = viewplan_core::CoreCover::new(&w.query, &w.views).run();
            if !cc.rewritings().is_empty() {
                assert_eq!(certain, direct, "equivalent rewriting exists (seed {seed})");
            }
        }
    }
}
