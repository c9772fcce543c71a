//! The pipeline the fused search replaced, kept as its reference. Phase
//! 1 is `CoreCover*` as it decided every cover before returning
//! ([`Space::eager`]); phase 2 plans every rewriting, in CoreCover
//! order, and keeps the first of the cheapest. `plan_m1` / `plan_m2` /
//! `plan_m3` are the optimizer's methods from before its loop was
//! bounded, verbatim (the M2 graft loop, from before the graft bound, is
//! `graft_unbounded`) but for two things: a plan enumerated bumps
//! `Exhaustive::enumerated` instead of `cost.plans_enumerated` (so a
//! count test can run both and compare), and M3 goes through the public
//! `try_optimal_m3_plan`, which builds the `RenameTest` the optimizer kept
//! across rewritings once per rewriting (the verdicts are the same).

use viewplan_core::{
    all_irredundant_covers, all_minimum_covers, certify, dedup_variants_with_map,
    is_equivalent_rewriting, CoreCoverResult, Rewriting,
};
use viewplan_cost::{
    try_optimal_m3_plan, CostError, CostModel, DropPolicy, M2Table, OptimizerConfig, PhysicalPlan,
    PlanError, PlanOutcome, PlannedRewriting, SizeOracle,
};
use viewplan_cq::{Atom, ConjunctiveQuery, Symbol, Term, ViewSet};
use viewplan_obs as obs;
use viewplan_obs::Completeness;

/// A generated space as phase 2 saw it before the walk: every rewriting,
/// built and decided, in CoreCover order.
pub struct Space {
    pub rewritings: Vec<Rewriting>,
    pub filters: Vec<Atom>,
    pub completeness: Completeness,
}

impl Space {
    /// Steps 4 and 5 of `CoreCover*` (`all_minimal`, covers capped at
    /// `cap`) or `CoreCover` as they ran before the walk, over the view
    /// tuples and cores of `result` (default grouping): every cover of
    /// class representatives built, deduplicated with the first variant
    /// kept, then accepted by the certificate, by the oracle, or by the
    /// first class-mate combination that passes either.
    pub fn eager(
        result: &CoreCoverResult,
        views: &ViewSet,
        all_minimal: bool,
        cap: usize,
    ) -> Space {
        let qm = &result.minimized_query;
        let representatives: Vec<usize> = result
            .tuple_classes
            .iter()
            .map(|class| class[0])
            .filter(|&t| !result.cores[t].is_empty())
            .collect();
        let masks: Vec<u64> = representatives
            .iter()
            .map(|&t| result.cores[t].bitmask())
            .collect();
        let universe = match qm.body.len() {
            0 => 0,
            n => u64::MAX >> (64 - n),
        };
        let covers = if all_minimal {
            all_irredundant_covers(universe, &masks, cap)
        } else {
            all_minimum_covers(universe, &masks)
        };
        let covers: Vec<Vec<usize>> = covers
            .iter()
            .map(|cover| cover.iter().map(|&k| representatives[k]).collect())
            .collect();
        let rewriting_of = |members: &[usize]| {
            ConjunctiveQuery::new(
                qm.head.clone(),
                members
                    .iter()
                    .map(|&t| result.view_tuples[t].atom.clone())
                    .collect(),
            )
        };
        let (candidates, variant_of) =
            dedup_variants_with_map(covers.iter().map(|c| rewriting_of(c)).collect());
        let kept = covers
            .iter()
            .zip(&variant_of)
            .filter(|(_, variant)| variant.is_none());
        let certified = |members: &[usize]| {
            let parts: Vec<&[u64]> = members.iter().map(|&t| result.cores[t].parts()).collect();
            certify(universe, &parts)
        };
        let oracle = |r: &Rewriting| is_equivalent_rewriting(r, qm, views);
        let mut rewritings = Vec::new();
        for ((cover, _), candidate) in kept.zip(candidates) {
            if certified(cover) || oracle(&candidate) {
                rewritings.push(candidate);
                continue;
            }
            let alternatives: Vec<Vec<usize>> =
                cover.iter().map(|&rep| mates(result, rep)).collect();
            let passed = other_combinations(&alternatives)
                .find(|members| certified(members) || oracle(&rewriting_of(members)));
            rewritings.extend(passed.map(|members| rewriting_of(&members)));
        }
        Space {
            rewritings,
            filters: result
                .filter_tuples()
                .iter()
                .map(|t| t.atom.clone())
                .collect(),
            completeness: result.stats.completeness,
        }
    }
}

/// The class of representative `rep`: itself, then the first mate for
/// every other set of query variables of the core the tuple exposes.
fn mates(result: &CoreCoverResult, rep: usize) -> Vec<usize> {
    let qm = &result.minimized_query;
    let exposed = |t: usize| {
        let mut exposed: Vec<Symbol> = result.view_tuples[t]
            .atom
            .variables()
            .filter(|&v| {
                result.cores[t]
                    .subgoals()
                    .any(|g| qm.body[g].terms.contains(&Term::Var(v)))
            })
            .collect();
        exposed.sort();
        exposed.dedup();
        exposed
    };
    let class = result
        .tuple_classes
        .iter()
        .find(|class| class[0] == rep)
        .expect("a representative heads its class");
    let mut seen = Vec::new();
    let mut mates = Vec::new();
    for &t in class {
        let e = exposed(t);
        if !seen.contains(&e) {
            seen.push(e);
            mates.push(t);
        }
    }
    mates
}

/// One pick per list, the last varying fastest, skipping the all-first
/// combination (the cover that already failed).
fn other_combinations(alternatives: &[Vec<usize>]) -> impl Iterator<Item = Vec<usize>> + '_ {
    let mut pick = vec![0usize; alternatives.len()];
    std::iter::from_fn(move || {
        let mut pos = pick.len();
        loop {
            if pos == 0 {
                return None;
            }
            pos -= 1;
            pick[pos] += 1;
            if pick[pos] < alternatives[pos].len() {
                break;
            }
            pick[pos] = 0;
        }
        Some(pick.iter().zip(alternatives).map(|(&p, a)| a[p]).collect())
    })
}

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

    /// `Optimizer::try_plan_generated`, over a space decided eagerly.
    pub fn try_plan_generated(
        &mut self,
        model: CostModel,
        space: &Space,
        oracle: &mut dyn SizeOracle,
    ) -> Result<PlanOutcome, PlanError> {
        let _span = obs::span("optimizer.best_plan");
        let budget_before = obs::budget_snapshot();
        let planned = match model {
            CostModel::M1 => Ok((self.plan_m1(space), false)),
            CostModel::M2 => self.plan_m2(space, oracle),
            CostModel::M3(policy) => self.plan_m3(space, policy, oracle),
        };
        let (best, skipped_wide) = planned?;
        let mut completeness = space
            .completeness
            .worst(obs::completeness_since(budget_before));
        if skipped_wide {
            completeness = completeness.worst(Completeness::Truncated);
        }
        Ok(PlanOutcome { best, completeness })
    }

    fn plan_m1(&mut self, space: &Space) -> Option<PlannedRewriting> {
        let r = space.rewritings.first()?.clone();
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
        space: &Space,
        oracle: &mut dyn SizeOracle,
    ) -> Result<(Option<PlannedRewriting>, bool), PlanError> {
        let _enum_span = obs::span("optimizer.enumerate");
        let filters = &space.filters;
        let mut best: Option<PlannedRewriting> = None;
        let mut skipped: Option<CostError> = None;
        for r in &space.rewritings {
            if obs::budget_cancelled() {
                break; // deadline: keep the cheapest plan found so far
            }
            // Base plan, then greedy filter grafting.
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
            let (grafted, _) =
                graft_unbounded(&mut table, filters, self.config.max_filters, oracle);
            self.enumerated += grafted;
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
        space: &Space,
        policy: DropPolicy,
        oracle: &mut dyn SizeOracle,
    ) -> Result<(Option<PlannedRewriting>, bool), PlanError> {
        let _enum_span = obs::span("optimizer.enumerate");
        let mut best: Option<PlannedRewriting> = None;
        let mut skipped: Option<CostError> = None;
        for r in &space.rewritings {
            if obs::budget_cancelled() {
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

/// Greedy filter grafting as it ran before the graft bound: every filter
/// not in the body is grafted; one that lowers the cost stays in the
/// table, the rest come off. Returns the grafts made and those kept.
pub fn graft_unbounded(
    table: &mut M2Table,
    filters: &[Atom],
    rounds: usize,
    oracle: &mut dyn SizeOracle,
) -> (u64, u64) {
    let (mut grafted, mut kept) = (0, 0);
    for _ in 0..rounds {
        let mut improved = false;
        for f in filters {
            if table.body().contains(f) {
                continue;
            }
            grafted += 1;
            // Grafting is a heuristic improvement; a filter that pushes
            // the body past the DP width, or whose DP the budget
            // abandons, is just not taken.
            let without = table.cost();
            if let Ok(true) = table.graft(f, oracle) {
                if table.cost() < without {
                    improved = true;
                    kept += 1;
                } else {
                    table.ungraft();
                }
            }
        }
        if !improved {
            break;
        }
    }
    (grafted, kept)
}
