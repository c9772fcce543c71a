//! Physical plans.

use std::collections::HashSet;
use std::fmt;
use viewplan_cq::{Atom, Sink, Spelled, Symbol};
use viewplan_engine::{
    try_execute_annotated, AnnotatedStep, Database, EngineError, ExecutionTrace,
};

/// A physical plan: an ordered list of subgoals, each annotated with the
/// attributes to drop after it is processed (Table 1's M3 plans; with all
/// annotations empty this is an M2 plan, and forgetting the order gives
/// the M1 plan).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhysicalPlan {
    /// The execution steps in order.
    pub steps: Vec<AnnotatedStep>,
}

impl PhysicalPlan {
    /// An M2 plan: the given subgoal order with no dropping.
    pub fn ordered(atoms: Vec<Atom>) -> PhysicalPlan {
        PhysicalPlan {
            steps: atoms
                .into_iter()
                .map(|atom| AnnotatedStep {
                    atom,
                    drop_after: HashSet::new(),
                })
                .collect(),
        }
    }

    /// An M3 plan with explicit per-step drop sets.
    pub fn annotated(steps: Vec<(Atom, HashSet<Symbol>)>) -> PhysicalPlan {
        PhysicalPlan {
            steps: steps
                .into_iter()
                .map(|(atom, drop_after)| AnnotatedStep { atom, drop_after })
                .collect(),
        }
    }

    /// Number of subgoals — the M1 cost of this plan.
    pub fn m1_cost(&self) -> usize {
        self.steps.len()
    }

    /// Executes the plan against a (view) database, reporting the exact
    /// per-step sizes and the answer. Fails if the plan drops a head
    /// variable or never binds one (an unsafe rewriting).
    pub fn try_execute(&self, head: &Atom, db: &Database) -> Result<ExecutionTrace, EngineError> {
        try_execute_annotated(head, &self.steps, db)
    }
}

/// Writes `s1 [drop B, A] ⋈ s2 ⋈ …` — the one place a plan is printed;
/// `Display` and the serving layer's answer templates differ only in
/// their [`Sink`]. Each step's atom goes through [`Sink::atom`]. A drop
/// list is ordered by the *spellings* of its variables, so the sink
/// orders it.
pub fn write_plan(out: &mut impl Sink, plan: &PhysicalPlan) -> fmt::Result {
    for (i, step) in plan.steps.iter().enumerate() {
        if i > 0 {
            out.write_str(" ⋈ ")?;
        }
        out.atom(&step.atom)?;
        if !step.drop_after.is_empty() {
            out.write_str(" [drop ")?;
            out.vars_by_spelling(&mut step.drop_after.iter().copied())?;
            out.write_str("]")?;
        }
    }
    Ok(())
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_plan(&mut Spelled::interned(f), self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_cq::parse_query;

    #[test]
    fn display_shows_order_and_drops() {
        let q = parse_query("q(A) :- v1(A, B), v2(A, C)").unwrap();
        let plan = PhysicalPlan::annotated(vec![
            (q.body[0].clone(), [Symbol::new("B")].into_iter().collect()),
            (q.body[1].clone(), HashSet::new()),
        ]);
        assert_eq!(plan.to_string(), "v1(A, B) [drop B] ⋈ v2(A, C)");
        assert_eq!(plan.m1_cost(), 2);
    }

    #[test]
    fn execute_matches_engine() {
        let q = parse_query("q(A) :- v1(A, B)").unwrap();
        let mut db = Database::new();
        db.insert_int("v1", &[&[1, 2], &[3, 4]]);
        let plan = PhysicalPlan::ordered(q.body.clone());
        let trace = plan.try_execute(&q.head, &db).unwrap();
        assert_eq!(trace.answer.len(), 2);
        assert_eq!(trace.intermediate_sizes, [2]);
    }
}
