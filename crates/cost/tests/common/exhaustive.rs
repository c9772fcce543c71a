//! The optimizer's second phase as it stood before the loop was bounded:
//! every rewriting planned, in CoreCover order, and the first of the
//! cheapest kept. `plan_m1` / `plan_m2` / `plan_m3` are the replaced
//! methods verbatim but for two things: a plan enumerated bumps
//! `Exhaustive::enumerated` instead of `cost.plans_enumerated` (so a
//! count test can run both and compare), and M3 goes through the public
//! `try_optimal_m3_plan`, which builds the `RenameTest` the optimizer kept
//! across rewritings once per rewriting (the verdicts are the same).

use viewplan_core::{CoreCoverResult, Rewriting};
use viewplan_cost::m2::M2Table;
use viewplan_cost::{
    try_optimal_m3_plan, CostError, CostModel, DropPolicy, OptimizerConfig, PhysicalPlan,
    PlanError, PlanOutcome, PlannedRewriting, SizeOracle,
};
use viewplan_cq::{Atom, ConjunctiveQuery, ViewSet};
use viewplan_obs as obs;
use viewplan_obs::Completeness;

pub struct Exhaustive<'a> {
    query: &'a ConjunctiveQuery,
    views: &'a ViewSet,
    config: OptimizerConfig,
    /// Plans enumerated so far: what `cost.plans_enumerated` counted.
    pub enumerated: u64,
}

impl<'a> Exhaustive<'a> {
    pub fn new(
        query: &'a ConjunctiveQuery,
        views: &'a ViewSet,
        config: OptimizerConfig,
    ) -> Exhaustive<'a> {
        Exhaustive {
            query,
            views,
            config,
            enumerated: 0,
        }
    }

    /// `Optimizer::try_plan_generated`.
    pub fn try_plan_generated(
        &mut self,
        model: CostModel,
        result: CoreCoverResult,
        oracle: &mut dyn SizeOracle,
    ) -> Result<PlanOutcome, PlanError> {
        let _span = obs::span("optimizer.best_plan");
        self.plan_generated(model, result, oracle, obs::budget::snapshot())
    }

    fn plan_generated(
        &mut self,
        model: CostModel,
        result: CoreCoverResult,
        oracle: &mut dyn SizeOracle,
        budget_before: obs::budget::HitSnapshot,
    ) -> Result<PlanOutcome, PlanError> {
        let generated = result.stats.completeness;
        let planned = match model {
            CostModel::M1 => Ok((self.plan_m1(result), false)),
            CostModel::M2 => self.plan_m2(result, oracle),
            CostModel::M3(policy) => self.plan_m3(result, policy, oracle),
        };
        let (best, skipped_wide) = planned?;
        let mut completeness = generated.worst(obs::budget::completeness_since(budget_before));
        if skipped_wide {
            completeness = completeness.worst(Completeness::Truncated);
        }
        Ok(PlanOutcome { best, completeness })
    }

    fn plan_m1(&mut self, result: CoreCoverResult) -> Option<PlannedRewriting> {
        let r = result.rewritings().first()?.clone();
        self.enumerated += 1;
        let plan = PhysicalPlan::ordered(r.body.clone());
        let cost = plan.m1_cost() as f64;
        Some(PlannedRewriting {
            rewriting: r,
            plan,
            cost,
        })
    }

    fn plan_m2(
        &mut self,
        result: CoreCoverResult,
        oracle: &mut dyn SizeOracle,
    ) -> Result<(Option<PlannedRewriting>, bool), PlanError> {
        let _enum_span = obs::span("optimizer.enumerate");
        let filters: Vec<Atom> = result
            .filter_tuples()
            .iter()
            .map(|t| t.atom.clone())
            .collect();
        let mut best: Option<PlannedRewriting> = None;
        let mut skipped: Option<CostError> = None;
        for r in result.rewritings() {
            if obs::budget::cancelled() {
                break; // deadline: keep the cheapest plan found so far
            }
            // Base plan, then greedy filter grafting: a filter that
            // lowers the cost stays in the table, the rest come off.
            self.enumerated += 1;
            let mut table = match M2Table::solve(&r.body, oracle) {
                Ok(Some(table)) => table,
                // Degenerate (empty-body) or budget-abandoned rewriting.
                Ok(None) => continue,
                Err(e) => {
                    skipped = Some(e);
                    continue;
                }
            };
            for _ in 0..self.config.max_filters {
                let mut improved = false;
                for f in &filters {
                    if table.body().contains(f) {
                        continue;
                    }
                    self.enumerated += 1;
                    // Grafting is a heuristic improvement; a filter that
                    // pushes the body past the DP width, or whose DP the
                    // budget abandons, is just not taken.
                    let without = table.cost();
                    if let Ok(true) = table.graft(f, oracle) {
                        if table.cost() < without {
                            improved = true;
                        } else {
                            table.ungraft();
                        }
                    }
                }
                if !improved {
                    break;
                }
            }
            if best.as_ref().is_none_or(|b| table.cost() < b.cost) {
                let (order, _, cost) = table.order();
                let body = table.body();
                best = Some(PlannedRewriting {
                    rewriting: Rewriting::new(r.head.clone(), body.to_vec()),
                    plan: PhysicalPlan::ordered(order.iter().map(|&i| body[i].clone()).collect()),
                    cost,
                });
            }
        }
        match (best, skipped) {
            (None, Some(e)) => Err(e.into()),
            (b, s) => Ok((b, s.is_some())),
        }
    }

    fn plan_m3(
        &mut self,
        result: CoreCoverResult,
        policy: DropPolicy,
        oracle: &mut dyn SizeOracle,
    ) -> Result<(Option<PlannedRewriting>, bool), PlanError> {
        let _enum_span = obs::span("optimizer.enumerate");
        let mut best: Option<PlannedRewriting> = None;
        let mut skipped: Option<CostError> = None;
        for r in result.rewritings() {
            if obs::budget::cancelled() {
                break; // deadline: keep the cheapest plan found so far
            }
            self.enumerated += 1;
            let (plan, cost) = match try_optimal_m3_plan(self.query, self.views, r, policy, oracle)
            {
                Ok(Some(pc)) => pc,
                Ok(None) => continue,
                Err(e) => {
                    skipped = Some(e);
                    continue;
                }
            };
            if best.as_ref().is_none_or(|b| cost < b.cost) {
                best = Some(PlannedRewriting {
                    rewriting: r.clone(),
                    plan,
                    cost,
                });
            }
        }
        match (best, skipped) {
            (None, Some(e)) => Err(e.into()),
            (b, s) => Ok((b, s.is_some())),
        }
    }
}
