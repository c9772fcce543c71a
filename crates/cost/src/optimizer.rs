//! The two-phase optimizer facade (§1.1, §5.2).
//!
//! Phase 1 (the rewriting generator) produces logical plans:
//! `CoreCover` for M1, `CoreCover*` for M2/M3 — the spaces Theorems 3.1
//! and 5.1 prove sufficient. Phase 2 (this module) searches physical plans
//! for each rewriting under the chosen cost model and keeps the cheapest.
//!
//! For M2 the optimizer additionally considers **filter subgoals**: view
//! tuples with empty tuple-cores (such as `v3(S)` in the paper's running
//! example) are grafted onto a rewriting greedily while they reduce the
//! plan cost — a selective view relation can shrink the intermediate
//! relations by more than its own size (§5.1, rewriting `P3`). A filter
//! is grafted only if its relation size and `IR` with the body can still
//! undercut the body's cost (the graft bound, [`crate::m2`]); a filter
//! ruled out is counted in `cost.grafts_pruned`, not among the plans
//! enumerated.
//!
//! # One loop, bounded across covers
//!
//! Every plan of a rewriting costs at least its *bound*: under M1 the
//! subgoal count, which is the cost; under M2/M3 `Σ size(gᵢ)`, since both
//! add `size(gᵢ)` per subgoal to `IR`/`GSR` terms ≥ 0 (and a grafted
//! filter only adds subgoals). Sizes are row counts, so the sum is exact
//! below 2⁵³, and IEEE addition of non-negative terms is monotone: a cost
//! built from the same sizes and such terms, in any order, is ≥ the bound
//! (debug builds assert it).
//!
//! The bound is a sum over the *views* of a rewriting's cover, so it is
//! known before the rewriting exists. Phase 1 therefore hands over its
//! covers unbuilt, and one loop drives [`CoreCoverResult::walk`] with
//! each view tuple's relation size (1 under M1): the walk visits covers
//! by ascending (key, cover index), where a key is a lower bound on the
//! bound of whatever rewriting the cover becomes, and stops at the first
//! cover that cannot beat the incumbent it is handed. Only the covers it
//! reaches are deduplicated, certified and built ([`viewplan_core::walk`]).
//! A rewriting that is reached is still skipped unsearched when its own
//! bound exceeds the incumbent's cost or equals it with a larger index,
//! and the incumbent is the M3 search's ceiling. A plan replaces the
//! incumbent when cheaper, or as cheap with a smaller index: the choice a
//! loop over every rewriting in index order with a strict `<` makes, bit
//! for bit. A rewriting too wide for the plan search truncates the
//! outcome only if the walk reaches it; one the bound rules out could not
//! have won.

use crate::error::{check_width, CostError, PlanError};
use crate::m2::{M2Table, M2_MAX_SUBGOALS};
use crate::m3::{optimal_plan, DropPolicy, RenameTest, M3_MAX_SUBGOALS};
use crate::oracle::SizeOracle;
use crate::plan::PhysicalPlan;
use viewplan_core::{CoreCover, CoreCoverConfig, CoreCoverResult, Found, Rewriting};
use viewplan_cq::{Atom, ConjunctiveQuery, ViewSet};
use viewplan_obs as obs;
use viewplan_obs::Completeness;

// Single registration site per counter name (the xtask lint enforces
// this): every cost-model path funnels through these helpers.
fn note_plans_enumerated(plans: u64) {
    obs::counter!("cost.plans_enumerated").add(plans);
}

/// A graft the M2 graft bound skipped: no plan was enumerated for it.
fn note_grafts_pruned(grafts: u64) {
    obs::counter!("cost.grafts_pruned").add(grafts);
}

fn note_rewriting_pruned() {
    obs::counter!("cost.rewritings_pruned").incr();
}

fn note_too_wide_skipped() {
    obs::counter!("cost.too_wide_skipped").incr();
}

/// Which of Table 1's cost models to optimize under.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CostModel {
    /// Number of subgoals.
    M1,
    /// Σ relation + intermediate-relation sizes (all attributes kept).
    M2,
    /// Σ relation + generalized-supplementary-relation sizes.
    M3(DropPolicy),
}

/// Optimizer knobs.
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    /// Maximum number of filter subgoals grafted onto a rewriting (M2/M3).
    pub max_filters: usize,
    /// CoreCover configuration for the rewriting generator.
    pub corecover: CoreCoverConfig,
}

impl Default for OptimizerConfig {
    fn default() -> OptimizerConfig {
        OptimizerConfig {
            max_filters: 2,
            corecover: CoreCoverConfig::default(),
        }
    }
}

/// A costed physical plan for one rewriting.
#[derive(Clone, Debug)]
pub struct PlannedRewriting {
    /// The logical plan (possibly with grafted filter subgoals).
    pub rewriting: Rewriting,
    /// The physical plan.
    pub plan: PhysicalPlan,
    /// Its cost under the requested model.
    pub cost: f64,
}

/// A full optimization run's result: the cheapest plan found (if any)
/// plus an honest completeness marker. `Truncated` means a node budget
/// cut a search short or a too-wide rewriting had to be skipped — `best`
/// is the cheapest of what *was* searched, not necessarily the optimum.
/// `DeadlineExceeded` means the wall clock fired; rewritings are searched
/// smallest bound first. One skipped on its bound spends no budget and is
/// no truncation, so a node cap can end `Complete` where planning all ran out.
#[derive(Clone, Debug)]
pub struct PlanOutcome {
    /// The cheapest plan over the rewritings that were searched.
    pub best: Option<PlannedRewriting>,
    /// Whether the search covered the whole plan space.
    pub completeness: Completeness,
}

/// The optimizer: generates rewritings and picks the best physical plan.
pub struct Optimizer<'a> {
    query: &'a ConjunctiveQuery,
    views: &'a ViewSet,
    config: OptimizerConfig,
}

impl<'a> Optimizer<'a> {
    /// Prepares an optimizer with default configuration.
    pub fn new(query: &'a ConjunctiveQuery, views: &'a ViewSet) -> Optimizer<'a> {
        Optimizer {
            query,
            views,
            config: OptimizerConfig::default(),
        }
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: OptimizerConfig) -> Optimizer<'a> {
        self.config = config;
        self
    }

    /// Finds the best physical plan over all generated rewritings under
    /// `model`, costing with `oracle`. Returns `None` when the query has
    /// no equivalent rewriting over the views.
    ///
    /// # Panics
    /// Panics if the query is too wide for the rewriting generator; use
    /// [`Optimizer::try_best_plan`] to handle that case as an error.
    pub fn best_plan(
        &self,
        model: CostModel,
        oracle: &mut dyn SizeOracle,
    ) -> Option<PlannedRewriting> {
        self.try_best_plan(model, oracle)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Optimizer::best_plan`] returning an error instead of panicking
    /// when the rewriting generator rejects the query (more than 64
    /// subgoals after minimization) or every generated rewriting is too
    /// wide for the plan search.
    pub fn try_best_plan(
        &self,
        model: CostModel,
        oracle: &mut dyn SizeOracle,
    ) -> Result<Option<PlannedRewriting>, PlanError> {
        self.try_plan(model, oracle).map(|o| o.best)
    }

    /// [`Optimizer::try_best_plan`] with an honest [`Completeness`]
    /// marker. Rewritings too wide for the plan search are skipped when
    /// any alternative plans successfully (the outcome is then marked
    /// [`Completeness::Truncated`]); only when *nothing* could be
    /// planned do they surface as [`PlanError::Cost`].
    pub fn try_plan(
        &self,
        model: CostModel,
        oracle: &mut dyn SizeOracle,
    ) -> Result<PlanOutcome, PlanError> {
        let _span = obs::span("optimizer.best_plan");
        let budget_before = obs::budget::snapshot();
        let generator =
            CoreCover::new(self.query, self.views).with_config(self.config.corecover.clone());
        let result = match model {
            CostModel::M1 => generator.try_run()?,
            CostModel::M2 | CostModel::M3(_) => generator.try_run_all_minimal()?,
        };
        self.plan_generated(model, result, oracle, budget_before)
    }

    /// Phase 2 alone: picks the best physical plan from an
    /// already-generated [`CoreCoverResult`]. This is the entry point for
    /// callers that run the rewriting generator themselves — e.g. a
    /// serving layer reusing prepared views across a query stream. The
    /// caller must have generated with the space `model` requires:
    /// `run`/`try_run` (GMRs) for M1, `run_all_minimal` (CoreCover*) for
    /// M2/M3 — Theorems 3.1 and 5.1 respectively.
    pub fn try_plan_generated(
        &self,
        model: CostModel,
        result: CoreCoverResult,
        oracle: &mut dyn SizeOracle,
    ) -> Result<PlanOutcome, PlanError> {
        let _span = obs::span("optimizer.best_plan");
        self.plan_generated(model, result, oracle, obs::budget::snapshot())
    }

    /// The bounded walk of the module docs: the incumbent is handed to
    /// the walk at every step, so a cover that cannot beat it is never
    /// built.
    fn plan_generated(
        &self,
        model: CostModel,
        result: CoreCoverResult,
        oracle: &mut dyn SizeOracle,
        budget_before: obs::budget::HitSnapshot,
    ) -> Result<PlanOutcome, PlanError> {
        let _enum_span = (model != CostModel::M1).then(|| obs::span("optimizer.enumerate"));
        let mut walk = match model {
            CostModel::M1 => result.walk(|_| 1.0),
            CostModel::M2 | CostModel::M3(_) => result.walk(|t| oracle.relation_size(&t.atom)),
        };
        let filters: Vec<&Atom> = result.filter_tuples().iter().map(|t| &t.atom).collect();
        let test = RenameTest::new(self.query, self.views);
        let mut too_wide = None;
        let mut best = None;
        loop {
            let incumbent = best.as_ref().map(|&(at, _, _, cost)| (cost, at));
            let Some(Found {
                cover,
                bound,
                rewriting: r,
            }) = walk.next_within(incumbent)
            else {
                break;
            };
            let width = match model {
                CostModel::M1 => Ok(()),
                CostModel::M2 => check_width(r.body.len(), M2_MAX_SUBGOALS, "M2"),
                CostModel::M3(_) => check_width(r.body.len(), M3_MAX_SUBGOALS, "M3"),
            };
            if let Err(e) = width {
                note_too_wide_skipped();
                too_wide = Some(e);
                continue;
            }
            if incumbent.is_some_and(|(cost, at)| bound > cost || (bound == cost && cover > at)) {
                note_rewriting_pruned();
                continue;
            }
            if model != CostModel::M1 && obs::budget::cancelled() {
                break; // deadline: keep the best so far (an M1 plan is no search)
            }
            note_plans_enumerated(1);
            let planned = match model {
                CostModel::M1 => Some((r.clone(), PhysicalPlan::ordered(r.body.clone()), bound)),
                CostModel::M2 => self.m2_with_filters(r, &filters, oracle)?,
                CostModel::M3(policy) => {
                    let ceiling = incumbent.map(|(cost, at)| (cost, cover < at));
                    let planned = optimal_plan(&test, r, policy, oracle, ceiling)?;
                    planned.map(|(plan, cost)| (r.clone(), plan, cost))
                }
            };
            // No plan: an empty body, a budget cut, or none under the ceiling.
            if let Some((rewriting, plan, cost)) = planned {
                debug_assert!(cost >= bound, "a plan cheaper than its bound");
                if incumbent.is_none_or(|(beat, at)| cost < beat || (cost == beat && cover < at)) {
                    best = Some((cover, rewriting, plan, cost));
                }
            }
        }
        let best = best.map(|(_, rewriting, plan, cost)| PlannedRewriting {
            rewriting,
            plan,
            cost,
        });
        let spent = obs::budget::completeness_since(budget_before);
        let mut completeness = result.stats.completeness.worst(spent);
        if let Some(e) = too_wide {
            if best.is_none() {
                return Err(e.into());
            }
            completeness = completeness.worst(Completeness::Truncated);
        }
        Ok(PlanOutcome { best, completeness })
    }

    /// The M2 arm: the subset DP, then greedy filter grafting — a filter
    /// that lowers the cost stays in the table, the rest come off, and
    /// one the graft bound rules out is never grafted.
    fn m2_with_filters(
        &self,
        r: &Rewriting,
        filters: &[&Atom],
        oracle: &mut dyn SizeOracle,
    ) -> Result<Option<(Rewriting, PhysicalPlan, f64)>, CostError> {
        // Degenerate (empty-body) or budget-abandoned rewriting.
        let Some(mut table) = M2Table::solve(&r.body, oracle)? else {
            return Ok(None);
        };
        let grafts = table.graft_filters(filters, self.config.max_filters, oracle);
        note_plans_enumerated(grafts.tried);
        note_grafts_pruned(grafts.pruned);
        let (order, _, cost) = table.order();
        let body = table.body();
        let plan = PhysicalPlan::ordered(order.iter().map(|&i| body[i].clone()).collect());
        Ok(Some((
            Rewriting::new(r.head.clone(), body.to_vec()),
            plan,
            cost,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactOracle;
    use viewplan_cq::{parse_query, parse_views};
    use viewplan_engine::{materialize_views, Database, Value};

    /// The car-loc-part schema with a database tuned so that the filter
    /// view v3 pays off (§5.1: v3 is very selective).
    fn carlocpart_setup() -> (ConjunctiveQuery, ViewSet, Database) {
        let q = parse_query("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)").unwrap();
        let views = parse_views(
            "v1(M, D, C) :- car(M, D), loc(D, C).\n\
             v2(S, M, C) :- part(S, M, C).\n\
             v3(S) :- car(M, a), loc(a, C), part(S, M, C).",
        )
        .unwrap();
        let mut base = Database::new();
        // Dealer a sells 20 makes; a has 5 cities; parts: each make sold in
        // each of a's cities by one store, plus noise stores elsewhere.
        for m in 0..20 {
            base.insert("car", vec![Value::Int(m), Value::sym("a")]);
            base.insert("car", vec![Value::Int(m), Value::sym("other")]);
        }
        for c in 0..5 {
            base.insert("loc", vec![Value::sym("a"), Value::Int(100 + c)]);
            base.insert("loc", vec![Value::sym("other"), Value::Int(200 + c)]);
        }
        // One matching store; lots of irrelevant part rows.
        base.insert(
            "part",
            vec![Value::Int(7777), Value::Int(3), Value::Int(102)],
        );
        for s in 0..200 {
            base.insert(
                "part",
                vec![Value::Int(s), Value::Int(50 + s % 7), Value::Int(900)],
            );
        }
        let vdb = materialize_views(&views, &base);
        (q, views, vdb)
    }

    #[test]
    fn m1_returns_a_gmr() {
        let (q, views, _) = carlocpart_setup();
        let db = Database::new();
        let mut oracle = ExactOracle::new(&db);
        let best = Optimizer::new(&q, &views)
            .best_plan(CostModel::M1, &mut oracle)
            .unwrap();
        assert_eq!(best.cost, 2.0); // v1 + v2 (no v4 in this view set)
    }

    /// Over CoreCover* the first rewriting need not be the smallest; the
    /// M1 plan is the fewest-subgoal one all the same. (Planning the
    /// first rewriting chose `ve ⋈ vf` at cost 2.)
    #[test]
    fn m1_over_all_minimal_rewritings_plans_the_fewest_subgoals() {
        let q = parse_query("q(X, Y) :- e(X, Z), f(Z, Y)").unwrap();
        let views = parse_views(
            "ve(X, Z) :- e(X, Z).\n\
             vf(Z, Y) :- f(Z, Y).\n\
             vall(X, Y) :- e(X, Z), f(Z, Y).",
        )
        .unwrap();
        let result = CoreCover::new(&q, &views).run_all_minimal();
        assert_eq!(result.rewritings()[0].body.len(), 2);
        let db = Database::new();
        let outcome = Optimizer::new(&q, &views)
            .try_plan_generated(CostModel::M1, result, &mut ExactOracle::new(&db))
            .unwrap();
        let best = outcome.best.unwrap();
        assert_eq!(best.rewriting.to_string(), "q(X, Y) :- vall(X, Y)");
        assert_eq!(best.cost, 1.0);
    }

    #[test]
    fn m2_plan_answers_match_direct_evaluation() {
        let (q, views, vdb) = carlocpart_setup();
        let mut oracle = ExactOracle::new(&vdb);
        let best = Optimizer::new(&q, &views)
            .best_plan(CostModel::M2, &mut oracle)
            .unwrap();
        let trace = best.plan.try_execute(&best.rewriting.head, &vdb).unwrap();
        // Direct evaluation of the query over base relations:
        // q1(7777, 102) is the only answer.
        assert_eq!(
            trace.answer.rows(),
            [vec![Value::Int(7777), Value::Int(102)]]
        );
    }

    #[test]
    fn m2_filter_grafting_uses_v3_when_it_helps() {
        let (q, views, vdb) = carlocpart_setup();
        let mut oracle = ExactOracle::new(&vdb);
        let config = OptimizerConfig {
            max_filters: 1,
            ..OptimizerConfig::default()
        };
        let with_filters = Optimizer::new(&q, &views)
            .with_config(config)
            .best_plan(CostModel::M2, &mut oracle)
            .unwrap();
        let no_filters = OptimizerConfig {
            max_filters: 0,
            ..OptimizerConfig::default()
        };
        let without = Optimizer::new(&q, &views)
            .with_config(no_filters)
            .best_plan(CostModel::M2, &mut oracle)
            .unwrap();
        // v3 has exactly one tuple here, so starting from it collapses the
        // intermediate sizes.
        assert!(with_filters.cost <= without.cost);
        assert!(with_filters
            .rewriting
            .body
            .iter()
            .any(|a| a.predicate.as_str() == "v3"));
    }

    #[test]
    fn m3_beats_or_ties_m2_on_the_same_rewriting() {
        let (q, views, vdb) = carlocpart_setup();
        let mut oracle = ExactOracle::new(&vdb);
        let m2 = Optimizer::new(&q, &views)
            .best_plan(CostModel::M2, &mut oracle)
            .unwrap();
        let m3 = Optimizer::new(&q, &views)
            .best_plan(CostModel::M3(DropPolicy::SmartCostBased), &mut oracle)
            .unwrap();
        // GSRs are projections of IRs, so the best M3 cost can only be ≤
        // the best plain-order cost of the same rewritings (filters aside).
        assert!(m3.cost <= m2.cost + 1e-9 || m2.rewriting.body.len() > m3.rewriting.body.len());
    }

    #[test]
    fn too_wide_query_is_an_error_not_a_panic() {
        let body: Vec<String> = (0..65).map(|i| format!("p{i}(X{i})")).collect();
        let head: Vec<String> = (0..65).map(|i| format!("X{i}")).collect();
        let q = parse_query(&format!("q({}) :- {}", head.join(", "), body.join(", "))).unwrap();
        let views = parse_views("v0(A) :- p0(A)").unwrap();
        let db = Database::new();
        let mut oracle = ExactOracle::new(&db);
        let err = Optimizer::new(&q, &views)
            .try_best_plan(CostModel::M2, &mut oracle)
            .unwrap_err();
        assert_eq!(
            err,
            PlanError::Core(viewplan_core::CoreError::TooManySubgoals { subgoals: 65 })
        );
    }

    #[test]
    fn too_wide_rewriting_is_skipped_when_an_alternative_plans() {
        // Two minimal rewritings exist: one view per subgoal (9 subgoals —
        // beyond the M3 order search) and the single all-covering view.
        // The optimizer must plan the latter and mark the run truncated,
        // not panic on the former.
        let body: Vec<String> = (0..9).map(|i| format!("p{i}(X{i})")).collect();
        let q = parse_query(&format!("q(X0) :- {}", body.join(", "))).unwrap();
        let mut views_src: Vec<String> = (0..9).map(|i| format!("v{i}(X) :- p{i}(X).")).collect();
        views_src.push(format!("vall(X0) :- {}.", body.join(", ")));
        let views = parse_views(&views_src.join("\n")).unwrap();
        let db = Database::new();
        let mut oracle = ExactOracle::new(&db);
        let outcome = Optimizer::new(&q, &views)
            .try_plan(CostModel::M3(DropPolicy::Supplementary), &mut oracle)
            .unwrap();
        let best = outcome.best.unwrap();
        assert_eq!(best.rewriting.body.len(), 1);
        assert_eq!(outcome.completeness, viewplan_obs::Completeness::Truncated);
    }

    #[test]
    fn all_rewritings_too_wide_is_a_cost_error() {
        // 25 subgoals fit CoreCover's 64-bit masks but exceed the M2 DP
        // width, and the only rewriting uses all 25 singleton views.
        let body: Vec<String> = (0..25).map(|i| format!("p{i}(X{i})")).collect();
        let q = parse_query(&format!("q(X0) :- {}", body.join(", "))).unwrap();
        let views_src: Vec<String> = (0..25).map(|i| format!("v{i}(X) :- p{i}(X).")).collect();
        let views = parse_views(&views_src.join("\n")).unwrap();
        let db = Database::new();
        let mut oracle = ExactOracle::new(&db);
        let err = Optimizer::new(&q, &views)
            .try_best_plan(CostModel::M2, &mut oracle)
            .unwrap_err();
        assert_eq!(
            err,
            PlanError::Cost(CostError::TooManySubgoals {
                subgoals: 25,
                limit: crate::m2::M2_MAX_SUBGOALS,
                model: "M2",
            })
        );
    }

    #[test]
    fn no_rewriting_yields_none() {
        let q = parse_query("q(X) :- zzz(X, X)").unwrap();
        let views = parse_views("v(A, B) :- car(A, B)").unwrap();
        let db = Database::new();
        let mut oracle = ExactOracle::new(&db);
        assert!(Optimizer::new(&q, &views)
            .best_plan(CostModel::M2, &mut oracle)
            .is_none());
    }
}
