//! Yannakakis evaluation for acyclic queries.
//!
//! The classical guarantee: an acyclic conjunctive query can be answered
//! with intermediates bounded by input + output, never the exponential
//! blowup an unlucky join order produces. The algorithm semijoin-reduces
//! the stored relations along the GYO join forest — a bottom-up pass
//! (each ear filters its witness) followed by a top-down pass (each
//! witness filters its ears) — after which *every remaining tuple
//! participates in at least one answer*. Joining the reduced relations
//! then does exactly the work the answer requires.
//!
//! Byte-identity with the other engines is preserved by construction:
//!
//! * the join order is computed by the shared greedy heuristic over the
//!   **original** relation sizes (reduction shrinks relations, which
//!   would otherwise reorder the plan and hence the answer rows);
//! * the final joins run through the same [`Table`] driver loop the row
//!   and columnar engines use, over the reduced relations. Semijoins
//!   only delete tuples that occur in **no** answer and `retain` keeps
//!   relative order, so the surviving probe-order × build-order row
//!   sequence — and therefore the answer relation, byte for byte — is
//!   unchanged;
//! * each subgoal's reduced relation is registered under a private
//!   per-atom name (`__yk{i}`), so self-joins reduce each occurrence
//!   independently without clobbering the shared base relation.
//!
//! Cyclic queries (GYO gets stuck) fall back to the ordinary columnar
//! driver; `engine.yannakakis_reductions` / `engine.yannakakis_fallbacks`
//! count the routing.

use crate::database::Database;
use crate::error::EngineError;
use crate::eval::{
    evaluate_in_order_with, evaluate_with, greedy_order, note_arity_mismatch, plan_slots, Slot,
    Table,
};
use crate::relation::{Relation, Tuple};
use crate::value::Value;
use std::collections::HashSet;
use viewplan_cq::{join_forest, Atom, ConjunctiveQuery, Symbol};
use viewplan_obs as obs;

// Single registration site per counter name (the xtask lint): both
// outcomes of the acyclicity routing decision funnel through here.
fn note_routing(reduced: bool) {
    if reduced {
        obs::counter!("engine.yannakakis_reductions").incr();
    } else {
        obs::counter!("engine.yannakakis_fallbacks").incr();
    }
}

/// Evaluates `q` by semijoin reduction along its join forest, falling
/// back to the plain driver when the body is cyclic. The answer relation
/// is byte-identical (row order included) to the other engines'.
pub(crate) fn evaluate_reduced<T: Table>(
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<Relation, EngineError> {
    let Some(forest) = join_forest(&q.body) else {
        note_routing(false);
        return evaluate_with::<T>(q, db);
    };
    note_routing(true);

    // The join order the other engines would use — over the *original*
    // relation sizes, fixed before reduction shrinks anything.
    let order = greedy_order(&q.body, db);

    // Per-atom variable schemas (first-occurrence positions) and
    // candidate relations: the stored tuples surviving the atom's
    // constant and repeated-variable selections, exactly the rows the
    // driver's join would admit.
    let mut var_pos: Vec<Vec<(Symbol, usize)>> = Vec::with_capacity(q.body.len());
    let mut relations: Vec<Vec<Tuple>> = Vec::with_capacity(q.body.len());
    let empty_answer = || Ok(Relation::new(q.head.arity()));
    for atom in &q.body {
        let slots = plan_slots(atom, &[]);
        var_pos.push(
            slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| match s {
                    Slot::New(v) => Some((*v, i)),
                    _ => None,
                })
                .collect(),
        );
        let stored = db.get(atom.predicate);
        let mismatched = stored.is_some_and(|rel| rel.arity() != atom.arity());
        note_arity_mismatch(if mismatched {
            stored.map_or(0, Relation::len)
        } else {
            0
        });
        let rows: Vec<Tuple> = match stored {
            Some(rel) if !mismatched => rel
                .iter()
                .filter(|tuple| {
                    slots.iter().enumerate().all(|(i, s)| match s {
                        Slot::Fixed(v) => tuple[i] == *v,
                        Slot::SameAs(j) => tuple[i] == tuple[*j],
                        _ => true,
                    })
                })
                .collect(),
            _ => Vec::new(),
        };
        if rows.is_empty() {
            // An unsatisfiable subgoal empties the whole join, exactly as
            // the driver's early-exit would.
            return empty_answer();
        }
        relations.push(rows);
    }

    // Full reduction: bottom-up (ear filters witness), then top-down
    // (witness filters ear). Afterwards every remaining tuple joins
    // through to at least one complete row.
    for &ear in &forest.order {
        if let Some(parent) = forest.parent[ear] {
            if semijoin(&mut relations, &var_pos, parent, ear) {
                return empty_answer();
            }
        }
    }
    for &ear in forest.order.iter().rev() {
        if let Some(parent) = forest.parent[ear] {
            if semijoin(&mut relations, &var_pos, ear, parent) {
                return empty_answer();
            }
        }
    }

    // Re-point each subgoal at its reduced relation (private per-atom
    // names keep self-join occurrences independent) and run the shared
    // driver loop in the pre-reduction order.
    let mut reduced_db = Database::new();
    let mut body = Vec::with_capacity(q.body.len());
    for (i, atom) in q.body.iter().enumerate() {
        let name = Symbol::new(&format!("__yk{i}"));
        reduced_db.set(
            name,
            Relation::from_rows(atom.arity(), std::mem::take(&mut relations[i])),
        );
        body.push(Atom::new(name, atom.terms.clone()));
    }
    evaluate_in_order_with::<T>(&q.head, &body, &order, &reduced_db)
}

/// Semijoin `relations[keep] ⋉ relations[filter]` on their shared
/// variables, in place. Returns `true` when `keep` empties (the query
/// answer is empty).
fn semijoin(
    relations: &mut [Vec<Tuple>],
    var_pos: &[Vec<(Symbol, usize)>],
    keep: usize,
    filter: usize,
) -> bool {
    let shared: Vec<(usize, usize)> = var_pos[keep]
        .iter()
        .filter_map(|&(v, kp)| {
            var_pos[filter]
                .iter()
                .find(|&&(w, _)| w == v)
                .map(|&(_, fp)| (kp, fp))
        })
        .collect();
    if shared.is_empty() {
        // Variable-disjoint edges only gate nonemptiness, and both sides
        // are nonempty here (empty relations return early).
        return false;
    }
    let keys: HashSet<Vec<Value>> = relations[filter]
        .iter()
        .map(|t| shared.iter().map(|&(_, fp)| t[fp]).collect())
        .collect();
    relations[keep].retain(|t| {
        let key: Vec<Value> = shared.iter().map(|&(kp, _)| t[kp]).collect();
        keys.contains(&key)
    });
    relations[keep].is_empty()
}

/// The total tuple count the reduction leaves behind for `q` — the
/// quantity the acyclicity bound promises stays linear; `None` when the
/// body is cyclic.
pub fn reduced_tuple_count(q: &ConjunctiveQuery, db: &Database) -> Option<usize> {
    let forest = join_forest(&q.body)?;
    let mut var_pos: Vec<Vec<(Symbol, usize)>> = Vec::with_capacity(q.body.len());
    let mut relations: Vec<Vec<Tuple>> = Vec::with_capacity(q.body.len());
    for atom in &q.body {
        let slots = plan_slots(atom, &[]);
        var_pos.push(
            slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| match s {
                    Slot::New(v) => Some((*v, i)),
                    _ => None,
                })
                .collect(),
        );
        let rows: Vec<Tuple> = match db.get(atom.predicate) {
            Some(rel) if rel.arity() == atom.arity() => rel
                .iter()
                .filter(|tuple| {
                    slots.iter().enumerate().all(|(i, s)| match s {
                        Slot::Fixed(v) => tuple[i] == *v,
                        Slot::SameAs(j) => tuple[i] == tuple[*j],
                        _ => true,
                    })
                })
                .collect(),
            _ => Vec::new(),
        };
        if rows.is_empty() {
            return Some(0);
        }
        relations.push(rows);
    }
    for &ear in &forest.order {
        if let Some(parent) = forest.parent[ear] {
            if semijoin(&mut relations, &var_pos, parent, ear) {
                return Some(0);
            }
        }
    }
    for &ear in forest.order.iter().rev() {
        if let Some(parent) = forest.parent[ear] {
            if semijoin(&mut relations, &var_pos, ear, parent) {
                return Some(0);
            }
        }
    }
    Some(relations.iter().map(Vec::len).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{install, Engine};
    use crate::eval::evaluate;
    use crate::value::Value;
    use viewplan_cq::parse_query;

    /// Evaluates under all three engines and asserts byte-identical
    /// answers (tuple order included); returns the Yannakakis answer.
    fn all_engines(q: &ConjunctiveQuery, db: &Database) -> Relation {
        let row = {
            let _g = install(Engine::Row);
            evaluate(q, db)
        };
        let col = {
            let _g = install(Engine::Columnar);
            evaluate(q, db)
        };
        let yan = {
            let _g = install(Engine::Yannakakis);
            evaluate(q, db)
        };
        assert_eq!(row.rows(), col.rows(), "row vs columnar order");
        assert_eq!(row.rows(), yan.rows(), "row vs yannakakis order");
        yan
    }

    fn chain_db() -> Database {
        let mut db = Database::new();
        db.insert_int("r", &[&[1, 2], &[2, 3], &[3, 4], &[9, 9]]);
        db.insert_int("s", &[&[2, 5], &[3, 6], &[7, 7]]);
        db.insert_int("t", &[&[5, 8], &[6, 8]]);
        db
    }

    #[test]
    fn acyclic_chain_matches_other_engines() {
        let db = chain_db();
        let q = parse_query("q(A, D) :- r(A, B), s(B, C), t(C, D)").unwrap();
        let ans = all_engines(&q, &db);
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&[Value::Int(1), Value::Int(8)]));
        assert!(ans.contains(&[Value::Int(2), Value::Int(8)]));
    }

    #[test]
    fn cyclic_triangle_falls_back_and_agrees() {
        let mut db = Database::new();
        db.insert_int("e", &[&[1, 2], &[2, 3], &[3, 1], &[2, 1]]);
        let q = parse_query("q(A, B, C) :- e(A, B), e(B, C), e(C, A)").unwrap();
        let ans = all_engines(&q, &db);
        assert!(ans.contains(&[Value::Int(1), Value::Int(2), Value::Int(3)]));
    }

    #[test]
    fn empty_relation_gives_empty_answer_everywhere() {
        let mut db = chain_db();
        db.set(Symbol::new("s"), Relation::new(2));
        let q = parse_query("q(A, D) :- r(A, B), s(B, C), t(C, D)").unwrap();
        assert!(all_engines(&q, &db).is_empty());
        // Missing relation behaves like an empty one.
        let q2 = parse_query("q(A, B) :- nope(A, B)").unwrap();
        assert!(all_engines(&q2, &db).is_empty());
    }

    #[test]
    fn self_join_occurrences_reduce_independently() {
        let mut db = Database::new();
        db.insert_int("e", &[&[1, 2], &[2, 3], &[3, 4], &[5, 6]]);
        let q = parse_query("q(X, Z) :- e(X, Y), e(Y, Z)").unwrap();
        let ans = all_engines(&q, &db);
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&[Value::Int(1), Value::Int(3)]));
        assert!(ans.contains(&[Value::Int(2), Value::Int(4)]));
    }

    #[test]
    fn constants_and_repeats_filter_candidates() {
        let mut db = Database::new();
        db.insert_int("r", &[&[1, 1], &[1, 2], &[2, 2]]);
        db.insert_int("s", &[&[1, 7], &[2, 8]]);
        let q = parse_query("q(Y) :- r(X, X), s(X, Y)").unwrap();
        let ans = all_engines(&q, &db);
        assert_eq!(ans.len(), 2);
        let q2 = parse_query("q(Y) :- r(1, X), s(X, Y)").unwrap();
        let ans2 = all_engines(&q2, &db);
        assert_eq!(ans2.len(), 2);
    }

    #[test]
    fn star_query_reduces_to_participating_tuples_only() {
        let mut db = Database::new();
        // Hub 1 joins everywhere; hub 9's spokes dangle (no b/c partner).
        db.insert_int("a", &[&[1, 10], &[9, 11]]);
        db.insert_int("b", &[&[1, 20], &[1, 21]]);
        db.insert_int("c", &[&[1, 30]]);
        let q = parse_query("q(X, P, R, S) :- a(X, P), b(X, R), c(X, S)").unwrap();
        let ans = all_engines(&q, &db);
        assert_eq!(ans.len(), 2);
        // Full reduction drops the dangling a(9, 11) spoke.
        assert_eq!(reduced_tuple_count(&q, &db), Some(4));
    }

    #[test]
    fn reduced_tuple_count_is_none_for_cyclic_bodies() {
        let db = chain_db();
        let q = parse_query("q(A) :- r(A, B), s(B, C), t(C, A)").unwrap();
        assert_eq!(reduced_tuple_count(&q, &db), None);
    }

    #[test]
    fn empty_body_yields_unit_row() {
        let db = Database::new();
        let q = ConjunctiveQuery::new(Atom::new("q", vec![]), vec![]);
        assert_eq!(all_engines(&q, &db).len(), 1);
    }

    #[test]
    fn disconnected_components_cross_product() {
        let db = chain_db();
        let q = parse_query("q(A, C) :- r(A, A), s(C, C)").unwrap();
        let ans = all_engines(&q, &db);
        assert_eq!(ans.rows(), [vec![Value::Int(9), Value::Int(7)]]);
    }

    #[test]
    fn arity_mismatch_still_counts_skips() {
        obs::set_enabled(true);
        let mut db = Database::new();
        db.insert_int("r", &[&[1, 1], &[2, 2]]);
        let q = parse_query("q(X) :- r(X, Y, Z)").unwrap();
        let before = obs::counter_value("engine.arity_mismatch_skips");
        let _g = install(Engine::Yannakakis);
        assert!(evaluate(&q, &db).is_empty());
        let after = obs::counter_value("engine.arity_mismatch_skips");
        assert_eq!(after - before, 2);
    }
}
