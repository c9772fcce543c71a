//! Conjunctive-query evaluation by multiway hash join.
//!
//! Evaluation maintains a *bindings table*: an ordered variable schema plus
//! a set of distinct rows. Each step hash-joins the table with the next
//! subgoal's relation; constants and repeated variables inside a subgoal
//! act as selections. Because all variables are retained and inputs are
//! sets, a join never deduplicates: its rows are distinct by
//! construction. Deduplication happens at two places only, both
//! projections: `Table::project_away`, after an [`execute_annotated`]
//! step drops attributes (cost model M3) and rows may merge; and
//! `Table::project_head`, when the head leaves out a variable of the
//! table. A head that names every variable maps distinct rows to
//! distinct answers, and the columnar executor builds that answer
//! without a dedup pass; the row executor inserts every answer row into
//! the relation, which deduplicates as it goes.
//!
//! Two executors implement this pipeline: the row-at-a-time [`Bindings`]
//! table in this module, and the columnar batch executor in
//! [`crate::batch`]. Both run the *same* driver loops below, so join
//! order, counter updates, trace sizes, and answer insertion order are
//! identical by construction. [`crate::engine::current_engine`] picks
//! which one runs: the columnar one by default, the row one when a test
//! installs it as the differential oracle. The row table's rows hold
//! values; the columnar table holds one vector of row numbers per joined
//! relation and reads cells through them, so its joins move row numbers
//! and only the answer and M3's projections gather cells.

use crate::database::Database;
use crate::engine::{current_engine, Engine};
use crate::error::EngineError;
use crate::relation::{Relation, Tuple};
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use viewplan_cq::{greedy_join_order, Atom, ConjunctiveQuery, Symbol, Term};
use viewplan_obs as obs;

/// The sole panic site for the documented-`# Panics` wrappers around the
/// fallible entry points.
pub(crate) fn engine_panic(e: EngineError) -> ! {
    panic!("{e}")
}

/// Counter funnel for one hash-join step, shared by both executors so the
/// metric names register at a single site.
pub(crate) fn note_join(probe_rows: usize, out_rows: usize) {
    obs::counter!("engine.joins").incr();
    obs::counter!("engine.join_probes").add(probe_rows as u64);
    obs::histogram!("engine.intermediate_rows").record(out_rows as u64);
}

/// Records tuples skipped because the stored relation's arity differs from
/// the subgoal's (a schema violation that would otherwise vanish silently).
/// Called with 0 on clean joins so the counter always exists in snapshots.
pub(crate) fn note_arity_mismatch(skipped: usize) {
    obs::counter!("engine.arity_mismatch_skips").add(skipped as u64);
}

/// Records the generalized-supplementary-relation size after one annotated
/// step.
pub(crate) fn note_gsr(rows: usize) {
    obs::histogram!("engine.gsr_rows").record(rows as u64);
}

/// The bindings table carried through a multiway join (row executor).
#[derive(Clone, Debug)]
struct Bindings {
    vars: Vec<Symbol>,
    rows: Vec<Tuple>,
}

/// How each argument position of the current subgoal relates to the
/// bindings table.
pub(crate) enum Slot {
    /// Must equal this constant.
    Fixed(Value),
    /// Must equal the value in this bindings column.
    Bound(usize),
    /// First occurrence of a new variable: extend the schema.
    New(Symbol),
    /// Repeated occurrence of a new variable first seen at this earlier
    /// position of the same atom.
    SameAs(usize),
}

pub(crate) fn plan_slots(atom: &Atom, vars: &[Symbol]) -> Vec<Slot> {
    let mut slots: Vec<Slot> = Vec::with_capacity(atom.arity());
    for t in &atom.terms {
        let slot = match *t {
            Term::Const(c) => Slot::Fixed(Value::from_constant(c)),
            Term::Var(v) => {
                // An atom has a handful of terms: a repeat is found by
                // scanning the slots planned so far.
                let first = |s: &Slot| matches!(s, Slot::New(w) if *w == v);
                if let Some(col) = vars.iter().position(|&x| x == v) {
                    Slot::Bound(col)
                } else if let Some(pos) = slots.iter().position(first) {
                    Slot::SameAs(pos)
                } else {
                    Slot::New(v)
                }
            }
        };
        slots.push(slot);
    }
    slots
}

/// Maps each head term to either a bindings column or a constant, failing
/// on head variables the plan never bound (unsafe queries).
pub(crate) fn head_columns(
    head: &Atom,
    vars: &[Symbol],
) -> Result<Vec<Result<usize, Value>>, EngineError> {
    head.terms
        .iter()
        .map(|t| match *t {
            Term::Var(v) => match vars.iter().position(|&x| x == v) {
                Some(col) => Ok(Ok(col)),
                None => Err(EngineError::UnboundHeadVariable { var: v }),
            },
            Term::Const(c) => Ok(Err(Value::from_constant(c))),
        })
        .collect()
}

/// One executor's bindings table: the interface the shared evaluation and
/// plan-execution drivers run against. Implementations must produce rows
/// in the same order (probe order × build insertion order) so traces and
/// answers are engine-independent. `'db` is the database the execution
/// reads, which a table may borrow from (the columnar one points into
/// its stored columns).
pub(crate) trait Table<'db>: Sized {
    /// The unit table: empty schema, one empty row.
    fn unit() -> Self;
    /// Number of rows currently in the table.
    fn row_count(&self) -> usize;
    /// Hash-joins the table with one subgoal. A missing relation is
    /// treated as empty (closed world). Fails when the joined table
    /// would hold more rows than the executor can number.
    fn join(self, atom: &Atom, db: &'db Database) -> Result<Self, EngineError>;
    /// Removes the given variables from the schema and deduplicates rows
    /// (keep-first).
    fn project_away(self, drop: &HashSet<Symbol>) -> Self;
    /// Projects the table onto the head atom, in row order.
    fn project_head(&self, head: &Atom) -> Result<Relation, EngineError>;
}

impl<'db> Table<'db> for Bindings {
    fn unit() -> Bindings {
        Bindings {
            vars: Vec::new(),
            rows: vec![Vec::new()],
        }
    }

    fn row_count(&self) -> usize {
        self.rows.len()
    }

    fn join(self, atom: &Atom, db: &'db Database) -> Result<Bindings, EngineError> {
        let empty = Relation::new(atom.arity());
        let rel = db.get(atom.predicate).unwrap_or(&empty);
        let slots = plan_slots(atom, &self.vars);

        // An atom whose arity differs from the stored relation matches
        // nothing (no fact can map onto it); relations have uniform arity,
        // so the whole relation is skipped — and counted, loudly.
        let mismatched = rel.arity() != atom.arity();
        note_arity_mismatch(if mismatched { rel.len() } else { 0 });

        // Filter the relation on constants and intra-atom repeats, and
        // index it by the values at bound positions.
        let bound_positions: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| matches!(s, Slot::Bound(_)).then_some(i))
            .collect();
        let mut index: HashMap<Vec<Value>, Vec<Tuple>> = HashMap::new();
        if !mismatched {
            // Stored relations are columns; each scanned tuple is
            // assembled (and owned) here.
            'tuples: for tuple in rel {
                for (i, slot) in slots.iter().enumerate() {
                    match slot {
                        Slot::Fixed(v) if tuple[i] != *v => continue 'tuples,
                        Slot::SameAs(j) if tuple[i] != tuple[*j] => continue 'tuples,
                        _ => {}
                    }
                }
                let key: Vec<Value> = bound_positions.iter().map(|&i| tuple[i]).collect();
                index.entry(key).or_default().push(tuple);
            }
        }

        // Extend the schema with the new variables in argument order.
        let mut vars = self.vars.clone();
        let mut new_positions = Vec::new();
        for (i, slot) in slots.iter().enumerate() {
            if let Slot::New(v) = slot {
                vars.push(*v);
                new_positions.push(i);
            }
        }

        let bound_cols: Vec<usize> = slots
            .iter()
            .filter_map(|s| match s {
                Slot::Bound(c) => Some(*c),
                _ => None,
            })
            .collect();

        let mut rows = Vec::new();
        let mut key = Vec::with_capacity(bound_cols.len());
        for row in &self.rows {
            key.clear();
            key.extend(bound_cols.iter().map(|&c| row[c]));
            if let Some(matches) = index.get(&key) {
                for tuple in matches {
                    let mut extended = row.clone();
                    extended.extend(new_positions.iter().map(|&i| tuple[i]));
                    rows.push(extended);
                }
            }
        }
        note_join(self.rows.len(), rows.len());
        Ok(Bindings { vars, rows })
    }

    fn project_away(self, drop: &HashSet<Symbol>) -> Bindings {
        let keep: Vec<usize> = (0..self.vars.len())
            .filter(|&i| !drop.contains(&self.vars[i]))
            .collect();
        let vars: Vec<Symbol> = keep.iter().map(|&i| self.vars[i]).collect();
        let mut seen = HashSet::new();
        let mut rows = Vec::new();
        for row in self.rows {
            let projected: Tuple = keep.iter().map(|&i| row[i]).collect();
            if seen.insert(projected.clone()) {
                rows.push(projected);
            }
        }
        Bindings { vars, rows }
    }

    fn project_head(&self, head: &Atom) -> Result<Relation, EngineError> {
        if self.rows.is_empty() {
            // An empty join may have stopped before every head variable
            // entered the schema; the projection is empty regardless.
            return Ok(Relation::new(head.arity()));
        }
        let cols = head_columns(head, &self.vars)?;
        let mut out = Relation::new(head.arity());
        for row in &self.rows {
            out.insert(
                cols.iter()
                    .map(|c| match c {
                        Ok(i) => row[*i],
                        Err(v) => *v,
                    })
                    .collect(),
            );
        }
        Ok(out)
    }
}

/// Evaluates a conjunctive query over a database, returning the distinct
/// answer relation. Subgoals are joined in a greedy order (smallest
/// relation first, then most-connected) purely as an internal heuristic —
/// the answer is order-independent.
pub fn try_evaluate(q: &ConjunctiveQuery, db: &Database) -> Result<Relation, EngineError> {
    obs::counter!("engine.evaluations").incr();
    match current_engine() {
        Engine::Row => evaluate_with::<Bindings>(q, db),
        Engine::Columnar => evaluate_with::<crate::batch::ColumnarBindings>(q, db),
    }
}

/// Infallible twin of [`try_evaluate`] for pre-validated queries.
///
/// # Panics
/// Panics if a head variable is not bound by any body subgoal (the query
/// is unsafe) and the join result is nonempty.
pub fn evaluate(q: &ConjunctiveQuery, db: &Database) -> Relation {
    match try_evaluate(q, db) {
        Ok(rel) => rel,
        Err(e) => engine_panic(e),
    }
}

/// The core join loop: fold the subgoals in greedy order, early-exit on
/// an empty table, project the head.
fn evaluate_with<'db, T: Table<'db>>(
    q: &ConjunctiveQuery,
    db: &'db Database,
) -> Result<Relation, EngineError> {
    let mut table = T::unit();
    for idx in greedy_order(&q.body, db) {
        table = table.join(&q.body[idx], db)?;
        if table.row_count() == 0 {
            break;
        }
    }
    table.project_head(&q.head)
}

/// Greedy join order over the stored relation sizes — the rule itself
/// is [`viewplan_cq::greedy_join_order`], shared with CoreCover's
/// view-tuple matcher so the two cannot drift.
fn greedy_order(body: &[Atom], db: &Database) -> Vec<usize> {
    greedy_join_order(body, |a| db.get(a.predicate).map_or(0, Relation::len))
}

/// The record of executing a physical plan: per-step view-relation sizes
/// and intermediate-relation sizes, plus the final answer.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutionTrace {
    /// `size(g_i)` for each subgoal, in execution order.
    pub subgoal_sizes: Vec<usize>,
    /// `size(IR_i)` (or `size(GSR_i)` for annotated plans) after each step.
    pub intermediate_sizes: Vec<usize>,
    /// The final answer, projected on the head.
    pub answer: Relation,
}

impl ExecutionTrace {
    /// The M2-style cost of this execution:
    /// `Σ (size(g_i) + size(IR_i))` (Table 1).
    pub fn cost(&self) -> usize {
        self.subgoal_sizes.iter().sum::<usize>() + self.intermediate_sizes.iter().sum::<usize>()
    }
}

/// Executes the body subgoals in exactly the given order, with all
/// attributes retained — the physical plans of cost model M2. Records
/// `size(g_i)` and `size(IR_i)` for each step.
pub fn try_execute_ordered(
    head: &Atom,
    body: &[Atom],
    db: &Database,
) -> Result<ExecutionTrace, EngineError> {
    let steps: Vec<AnnotatedStep> = body
        .iter()
        .map(|a| AnnotatedStep {
            atom: a.clone(),
            drop_after: HashSet::new(),
        })
        .collect();
    try_execute_annotated(head, &steps, db)
}

/// Infallible twin of [`try_execute_ordered`] for pre-validated plans.
///
/// # Panics
/// Panics if a head variable is not bound by any subgoal and the join
/// result is nonempty.
pub fn execute_ordered(head: &Atom, body: &[Atom], db: &Database) -> ExecutionTrace {
    match try_execute_ordered(head, body, db) {
        Ok(trace) => trace,
        Err(e) => engine_panic(e),
    }
}

/// One step of an M3 physical plan: a subgoal and the attributes to drop
/// after it is processed (the `X_i` annotation of §2.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnnotatedStep {
    /// The subgoal joined at this step.
    pub atom: Atom,
    /// Variables projected away after this step.
    pub drop_after: HashSet<Symbol>,
}

/// Executes an annotated plan (cost model M3): joins each step's subgoal,
/// then projects away its `drop_after` variables and re-deduplicates. The
/// recorded intermediate sizes are the generalized-supplementary-relation
/// sizes `size(GSR_i)`.
///
/// Fails with [`EngineError::HeadVariableDropped`] if a step drops a head
/// variable (the plan can no longer compute the answer) and with
/// [`EngineError::UnboundHeadVariable`] if a nonempty result reaches a
/// head variable no subgoal ever bound.
pub fn try_execute_annotated(
    head: &Atom,
    steps: &[AnnotatedStep],
    db: &Database,
) -> Result<ExecutionTrace, EngineError> {
    let _span = obs::span("engine.execute_plan");
    match current_engine() {
        Engine::Row => execute_annotated_with::<Bindings>(head, steps, db),
        Engine::Columnar => {
            execute_annotated_with::<crate::batch::ColumnarBindings>(head, steps, db)
        }
    }
}

/// Infallible twin of [`try_execute_annotated`] for pre-validated plans.
///
/// # Panics
/// Panics if a head variable is dropped before the end, or never bound —
/// such a plan cannot compute the query answer and is a planner bug.
pub fn execute_annotated(head: &Atom, steps: &[AnnotatedStep], db: &Database) -> ExecutionTrace {
    match try_execute_annotated(head, steps, db) {
        Ok(trace) => trace,
        Err(e) => engine_panic(e),
    }
}

fn execute_annotated_with<'db, T: Table<'db>>(
    head: &Atom,
    steps: &[AnnotatedStep],
    db: &'db Database,
) -> Result<ExecutionTrace, EngineError> {
    let mut table = T::unit();
    let mut subgoal_sizes = Vec::with_capacity(steps.len());
    let mut intermediate_sizes = Vec::with_capacity(steps.len());
    for step in steps {
        subgoal_sizes.push(db.get(step.atom.predicate).map_or(0, Relation::len));
        table = table.join(&step.atom, db)?;
        if !step.drop_after.is_empty() {
            // Scan head terms (not the drop set) so the reported variable
            // is deterministic.
            if let Some(var) = head
                .terms
                .iter()
                .find_map(|t| t.as_var().filter(|v| step.drop_after.contains(v)))
            {
                return Err(EngineError::HeadVariableDropped { var });
            }
            table = table.project_away(&step.drop_after);
        }
        note_gsr(table.row_count());
        intermediate_sizes.push(table.row_count());
    }
    Ok(ExecutionTrace {
        subgoal_sizes,
        intermediate_sizes,
        answer: table.project_head(head)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::install;
    use viewplan_cq::parse_query;

    fn figure5_db() -> Database {
        // The base relations of Figure 5 / Example 6.1.
        let mut db = Database::new();
        db.insert_int("r", &[&[1, 1], &[2, 2], &[4, 4], &[6, 6], &[8, 8]]);
        db.insert_int("s", &[&[2, 2], &[4, 4], &[6, 6], &[8, 8]]);
        db.insert_int("t", &[&[1, 2], &[3, 4], &[5, 6], &[7, 8]]);
        db
    }

    /// Runs `f` under both engines and asserts equal results.
    fn both_engines<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) -> R {
        let row = {
            let _g = install(Engine::Row);
            f()
        };
        let col = {
            let _g = install(Engine::Columnar);
            f()
        };
        assert_eq!(row, col, "row and columnar engines disagree");
        col
    }

    #[test]
    fn evaluates_single_subgoal_with_selection() {
        let db = figure5_db();
        let q = parse_query("q(X) :- r(X, X)").unwrap();
        assert_eq!(both_engines(|| evaluate(&q, &db)).len(), 5);
        let q2 = parse_query("q(Y) :- t(1, Y)").unwrap();
        let ans = both_engines(|| evaluate(&q2, &db));
        assert_eq!(ans.rows(), [vec![Value::Int(2)]]);
    }

    #[test]
    fn evaluates_join() {
        let db = figure5_db();
        // t(A,B), s(B,B): pairs where t's target is an s self-loop.
        let q = parse_query("q(A, B) :- t(A, B), s(B, B)").unwrap();
        let ans = both_engines(|| evaluate(&q, &db));
        assert_eq!(ans.len(), 4);
        assert!(ans.contains(&[Value::Int(1), Value::Int(2)]));
    }

    #[test]
    fn example61_answer() {
        // Q: q(A) :- r(A,A), t(A,B), s(B,B) over Figure 5 gives A ∈ {1}.
        let db = figure5_db();
        let q = parse_query("q(A) :- r(A, A), t(A, B), s(B, B)").unwrap();
        let ans = both_engines(|| evaluate(&q, &db));
        assert_eq!(ans.rows(), [vec![Value::Int(1)]]);
    }

    #[test]
    fn missing_relation_gives_empty_answer() {
        let db = figure5_db();
        let q = parse_query("q(X) :- nope(X, X)").unwrap();
        assert!(both_engines(|| evaluate(&q, &db)).is_empty());
    }

    #[test]
    fn cartesian_product_when_disconnected() {
        let db = figure5_db();
        let q = parse_query("q(A, B) :- r(A, A), s(B, B)").unwrap();
        assert_eq!(both_engines(|| evaluate(&q, &db)).len(), 20);
    }

    #[test]
    fn constants_in_head_are_emitted() {
        let db = figure5_db();
        let q = parse_query("q(7, X) :- r(X, X)").unwrap();
        let ans = both_engines(|| evaluate(&q, &db));
        assert!(ans.iter().all(|t| t[0] == Value::Int(7)));
    }

    #[test]
    fn duplicate_answers_are_collapsed() {
        let db = figure5_db();
        // Project t onto its first column twice over: still 4 tuples, but
        // project to a single column with collisions across B.
        let q = parse_query("q(B) :- t(A, B)").unwrap();
        assert_eq!(both_engines(|| evaluate(&q, &db)).len(), 4);
        let q2 = parse_query("q() :- t(A, B)").unwrap();
        assert_eq!(both_engines(|| evaluate(&q2, &db)).len(), 1);
    }

    #[test]
    fn symbolic_join_over_symbol_words() {
        let mut db = Database::new();
        db.insert_sym("car", &[&["honda", "anderson"], &["bmw", "smith"]]);
        db.insert_sym("loc", &[&["anderson", "palo_alto"], &["smith", "mp"]]);
        let q = parse_query("q(M, C) :- car(M, P), loc(P, C)").unwrap();
        let ans = both_engines(|| evaluate(&q, &db));
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&[Value::sym("honda"), Value::sym("palo_alto")]));
    }

    #[test]
    fn execute_ordered_reports_intermediate_sizes() {
        let db = figure5_db();
        let q = parse_query("q(A) :- r(A, A), t(A, B), s(B, B)").unwrap();
        let trace = both_engines(|| execute_ordered(&q.head, &q.body, &db));
        assert_eq!(trace.subgoal_sizes, [5, 4, 4]);
        // IR1 = r self-loops: 5; IR2 = r ⋈ t on A: {1}×{(1,2)} → (1,2); also
        // (2,?) t(2,..)? t has no first-col 2 → just (1,2). Wait: r pairs are
        // (1..8 evens +1); t first columns are odd {1,3,5,7} so only A=1.
        assert_eq!(trace.intermediate_sizes[0], 5);
        assert_eq!(trace.intermediate_sizes[1], 1);
        assert_eq!(trace.intermediate_sizes[2], 1);
        assert_eq!(trace.answer.rows(), [vec![Value::Int(1)]]);
        assert_eq!(trace.cost(), 5 + 4 + 4 + 5 + 1 + 1);
    }

    #[test]
    fn execute_annotated_drops_attributes() {
        // Example 6.1's winning plan: after v1(A,B), drop B.
        let mut db = Database::new();
        db.insert_int("v1", &[&[1, 2], &[1, 4], &[1, 6], &[1, 8]]);
        db.insert_int("v2", &[&[1, 2], &[3, 4], &[5, 6], &[7, 8]]);
        let q = parse_query("q(A) :- v1(A, B), v2(A, C)").unwrap();
        let drop_b: HashSet<Symbol> = [Symbol::new("B")].into_iter().collect();
        let steps = vec![
            AnnotatedStep {
                atom: q.body[0].clone(),
                drop_after: drop_b,
            },
            AnnotatedStep {
                atom: q.body[1].clone(),
                drop_after: [Symbol::new("C")].into_iter().collect(),
            },
        ];
        let trace = both_engines(|| execute_annotated(&q.head, &steps, &db));
        // GSR1 = {1} (B dropped) — the paper's point: one tuple, not four.
        assert_eq!(trace.intermediate_sizes[0], 1);
        assert_eq!(trace.answer.rows(), [vec![Value::Int(1)]]);
    }

    #[test]
    fn dropping_head_variable_is_a_typed_error() {
        let mut db = Database::new();
        db.insert_int("v1", &[&[1, 2]]);
        let q = parse_query("q(A) :- v1(A, B)").unwrap();
        let steps = vec![AnnotatedStep {
            atom: q.body[0].clone(),
            drop_after: [Symbol::new("A")].into_iter().collect(),
        }];
        let err = both_engines(|| try_execute_annotated(&q.head, &steps, &db));
        assert_eq!(
            err,
            Err(EngineError::HeadVariableDropped {
                var: Symbol::new("A")
            })
        );
    }

    #[test]
    #[should_panic(expected = "head variable")]
    fn dropping_head_variable_panics() {
        let mut db = Database::new();
        db.insert_int("v1", &[&[1, 2]]);
        let q = parse_query("q(A) :- v1(A, B)").unwrap();
        let steps = vec![AnnotatedStep {
            atom: q.body[0].clone(),
            drop_after: [Symbol::new("A")].into_iter().collect(),
        }];
        execute_annotated(&q.head, &steps, &db);
    }

    /// An unsafe query (head variable absent from the body). The parser
    /// rejects these, but programmatic callers can hand them to the
    /// engine directly.
    fn unsafe_query(body: &str) -> ConjunctiveQuery {
        let parsed = parse_query(&format!("q(A) :- {body}")).unwrap();
        ConjunctiveQuery::new(Atom::new("q", vec![Term::var("X")]), parsed.body)
    }

    #[test]
    fn unbound_head_variable_is_a_typed_error() {
        let db = figure5_db();
        // X never occurs in the body: unsafe. The body is satisfiable, so
        // the error fires (with an empty body relation it would not).
        let q = unsafe_query("r(A, A)");
        let err = both_engines(|| try_evaluate(&q, &db));
        assert_eq!(
            err,
            Err(EngineError::UnboundHeadVariable {
                var: Symbol::new("X")
            })
        );
    }

    #[test]
    fn unbound_head_variable_over_empty_body_is_empty() {
        // The join stops empty before the head is consulted — the answer
        // is empty regardless, so no error.
        let db = Database::new();
        let q = unsafe_query("nope(A, A)");
        let ans = both_engines(|| try_evaluate(&q, &db));
        assert_eq!(ans, Ok(Relation::new(1)));
    }

    #[test]
    fn repeated_variable_across_subgoals_joins() {
        let mut db = Database::new();
        db.insert_int("e", &[&[1, 2], &[2, 3], &[3, 1]]);
        let q = parse_query("q(X, Z) :- e(X, Y), e(Y, Z)").unwrap();
        let ans = both_engines(|| evaluate(&q, &db));
        assert_eq!(ans.len(), 3);
        assert!(ans.contains(&[Value::Int(1), Value::Int(3)]));
    }

    #[test]
    fn empty_body_returns_unit() {
        let db = Database::new();
        let q = viewplan_cq::ConjunctiveQuery::new(Atom::new("q", vec![]), vec![]);
        let ans = both_engines(|| evaluate(&q, &db));
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn answer_insertion_order_is_engine_independent() {
        let db = figure5_db();
        let q = parse_query("q(A, B) :- t(A, B), s(B, B)").unwrap();
        let row = {
            let _g = install(Engine::Row);
            evaluate(&q, &db)
        };
        let col = {
            let _g = install(Engine::Columnar);
            evaluate(&q, &db)
        };
        // Stronger than set equality: byte-identical tuple order.
        assert_eq!(row.rows(), col.rows());
    }
}
