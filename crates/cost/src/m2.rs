//! Cost model M2: sum of relation and intermediate-relation sizes (§5).
//!
//! A physical plan is an order `g1, …, gn`; its cost is
//! `Σᵢ size(gᵢ) + size(IRᵢ)` where `IRᵢ` joins the first `i` subgoals with
//! **all attributes retained**. Because `IRᵢ` then depends only on the
//! *set* of the first `i` subgoals — not their order — Selinger-style
//! dynamic programming over subsets finds a provably optimal order:
//!
//! ```text
//! cost(S) = min over g ∈ S of  cost(S \ {g}) + size(g) + size(IR(S))
//! ```
//!
//! The table is indexed by subgoal bitmask and filled in mask order, so
//! a subgoal added *on top* of a solved body — a grafted filter (§5.1)
//! — leaves the solved half in place: [`M2Table::graft`] fills only the
//! subsets that contain the newcomer. Ties go to the lowest subgoal
//! index, which the fill order gives for free.
//!
//! # The graft bound
//!
//! A graft fills `2ⁿ` subsets and is undone unless it lowers the cost,
//! which most do not. [`M2Table::graft_filters`] therefore grafts a
//! filter `f` only when
//!
//! ```text
//! fl(Σ size(g) + size(f) + IR(body ∪ f))  <  cost(body)
//! ```
//!
//! where `IR(body ∪ f)` is one join onto the solved top row
//! ([`SizeOracle::joined_size`]), bit for bit the row the graft would
//! compute. The test is exact, not a heuristic. Sizes are row counts, so
//! every sum of them is exact below 2⁵³, and IEEE addition of
//! non-negative terms is monotone in each argument. By induction over
//! the fill, `best[S] = fl(fl(best[S ∖ g] + size(g)) + IR(S))` is at
//! least the exact `Σ_{g∈S} size(g)` for every subset `S`. For the
//! grafted body `B ∪ f` and the last subgoal `g` of its best order,
//! `best[B ∪ f] ≥ fl(fl(Σ_{B∪f∖g} size + size(g)) + IR(B ∪ f))`, and the
//! inner sum is the exact `Σ size(g) + size(f)` of the bound. So a
//! filter the test skips would have cost at least `cost(body)`, and the
//! graft would have been undone: the table ends as it would have, bit
//! for bit. A skipped graft asks for one size instead of `2ⁿ` and
//! spends no plan budget.

use crate::error::{check_width, CostError};
use crate::oracle::{note_oracle_calls, SizeOracle};
use crate::subsets::Subsets;
use viewplan_cq::Atom;
use viewplan_obs as obs;

/// What [`M2Table::graft_filters`] did with the filters it was offered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Grafts {
    /// Filters grafted: each filled the subsets that contain it.
    pub tried: u64,
    /// Filters the graft bound skipped: they could not have paid.
    pub pruned: u64,
    /// Grafts that lowered the cost and stayed.
    pub kept: u64,
}

/// The widest rewriting [`optimal_m2_order`] accepts: the DP visits
/// `2^n` subsets, so wider inputs are rejected as
/// [`CostError::TooManySubgoals`].
pub const M2_MAX_SUBGOALS: usize = 24;

/// An optimal M2 result: the join order (indices into the body), the
/// per-prefix `IR` sizes, and the total cost.
pub type M2Order = (Vec<usize>, Vec<f64>, f64);

/// Finds an optimal M2 join order for `body`, returning the order (as
/// indices into `body`), the per-prefix `IR` sizes, and the total cost.
/// Returns `None` for an empty body.
///
/// # Panics
/// Panics if `body` has more than [`M2_MAX_SUBGOALS`] subgoals; use
/// [`try_optimal_m2_order`] to handle that case as an error.
pub fn optimal_m2_order(
    body: &[Atom],
    oracle: &mut dyn SizeOracle,
) -> Option<(Vec<usize>, Vec<f64>, f64)> {
    try_optimal_m2_order(body, oracle).unwrap_or_else(|e| panic!("{e}"))
}

/// [`optimal_m2_order`] returning an error instead of panicking on
/// too-wide rewritings. Each DP subset counts as one `Phase::Plan` node
/// against the installed [budget](viewplan_obs::budget); on exhaustion the
/// search abandons the rewriting and returns `Ok(None)` — a partial DP
/// table cannot seed a valid full order, so there is no partial result
/// to salvage here. The optimizer falls back to other rewritings.
pub fn try_optimal_m2_order(
    body: &[Atom],
    oracle: &mut dyn SizeOracle,
) -> Result<Option<M2Order>, CostError> {
    Ok(M2Table::solve(body, oracle)?.map(|table| table.order()))
}

/// The solved dynamic program for one body: `IR` size, cheapest cost and
/// the last subgoal of a cheapest order, per subset.
pub struct M2Table {
    subsets: Subsets,
    /// `size(g)` per subgoal.
    sizes: Vec<f64>,
    ir: Vec<f64>,
    best: Vec<f64>,
    last: Vec<u8>,
}

impl M2Table {
    /// Solves the DP for `body`. `Ok(None)` for an empty body, or when
    /// the plan budget ran out before the table was complete.
    pub fn solve(body: &[Atom], oracle: &mut dyn SizeOracle) -> Result<Option<M2Table>, CostError> {
        check_width(body.len(), M2_MAX_SUBGOALS, "M2")?;
        let mut table = M2Table {
            subsets: Subsets::new(body),
            sizes: body.iter().map(|g| oracle.relation_size(g)).collect(),
            ir: vec![0.0],
            best: vec![0.0],
            last: vec![0],
        };
        Ok((!body.is_empty() && table.fill(oracle)).then_some(table))
    }

    /// Extends the solved body with `filter` as its top subgoal and
    /// solves the subsets that contain it; the rest of the table is
    /// reused as it stands. `Ok(false)` — and the table unchanged — when
    /// the plan budget ran out first (each graft is metered as a search
    /// of its own).
    pub fn graft(&mut self, filter: &Atom, oracle: &mut dyn SizeOracle) -> Result<bool, CostError> {
        check_width(self.sizes.len() + 1, M2_MAX_SUBGOALS, "M2")?;
        // The half a from-scratch DP of `body + filter` would ask for
        // again: requested, and answered without a join.
        let reused = self.ir.len() as u64 - 1;
        note_oracle_calls(reused, reused);
        self.subsets.push(filter.clone());
        self.sizes.push(oracle.relation_size(filter));
        let solved = self.fill(oracle);
        if !solved {
            self.ungraft();
        }
        Ok(solved)
    }

    /// Greedy filter grafting (§5.1): up to `rounds` passes over
    /// `filters`, each grafting every filter not in the body yet that
    /// the graft bound lets through; a graft that lowers the cost stays,
    /// the rest come off, and a pass that keeps none ends the search. A
    /// filter that pushes the body past the DP width, or whose DP the
    /// budget abandons, is just not taken.
    pub fn graft_filters(
        &mut self,
        filters: &[&Atom],
        rounds: usize,
        oracle: &mut dyn SizeOracle,
    ) -> Grafts {
        let mut grafts = Grafts::default();
        for _ in 0..rounds {
            let mut improved = false;
            for &f in filters {
                if self.body().contains(f) {
                    continue;
                }
                if !self.may_pay(f, oracle) {
                    grafts.pruned += 1;
                    continue;
                }
                grafts.tried += 1;
                let without = self.cost();
                if let Ok(true) = self.graft(f, oracle) {
                    if self.cost() < without {
                        improved = true;
                        grafts.kept += 1;
                    } else {
                        self.ungraft();
                    }
                }
            }
            if !improved {
                break;
            }
        }
        grafts
    }

    /// `IR` of the body with `filter` grafted, every attribute retained:
    /// one join onto the top row, the table left as it is.
    pub fn joined_ir(&mut self, filter: &Atom, oracle: &mut dyn SizeOracle) -> f64 {
        oracle.joined_size(&mut self.subsets, filter)
    }

    /// The graft bound of the module docs: false when grafting `filter`
    /// cannot lower the cost. A graft too wide for the DP is left to
    /// [`graft`](Self::graft) to refuse.
    fn may_pay(&mut self, filter: &Atom, oracle: &mut dyn SizeOracle) -> bool {
        if self.sizes.len() >= M2_MAX_SUBGOALS {
            return true;
        }
        let sizes = self.sizes.iter().sum::<f64>() + oracle.relation_size(filter);
        sizes + self.joined_ir(filter, oracle) < self.cost()
    }

    /// Removes the top subgoal again (a graft that did not pay).
    pub fn ungraft(&mut self) {
        self.subsets.pop();
        self.sizes.pop();
        let subsets = 1 << self.sizes.len();
        self.ir.truncate(subsets);
        self.best.truncate(subsets);
        self.last.truncate(subsets);
    }

    /// The body solved so far: the original subgoals, then the grafted
    /// filters.
    pub fn body(&self) -> &[Atom] {
        self.subsets.body()
    }

    /// The cost of an optimal order of the whole body.
    pub fn cost(&self) -> f64 {
        self.best[self.best.len() - 1]
    }

    /// An optimal order, its per-prefix `IR` sizes, and its cost.
    pub fn order(&self) -> M2Order {
        let mut order = Vec::with_capacity(self.sizes.len());
        let mut mask = self.best.len() - 1;
        while mask != 0 {
            // `fill` records a last subgoal for every nonempty subset.
            let g = self.last[mask] as usize;
            order.push(g);
            mask &= !(1 << g);
        }
        order.reverse();
        let mut prefix = 0;
        let ir_sizes = order
            .iter()
            .map(|&g| {
                prefix |= 1 << g;
                self.ir[prefix]
            })
            .collect();
        (order, ir_sizes, self.cost())
    }

    /// Solves every subset not in the table yet, in mask order, against
    /// a fresh `Phase::Plan` meter. False if the budget ran out.
    fn fill(&mut self, oracle: &mut dyn SizeOracle) -> bool {
        let mut meter = obs::Meter::start(obs::Phase::Plan);
        let subsets = 1 << self.sizes.len();
        let unsolved = subsets - self.ir.len();
        self.ir.reserve(unsolved);
        self.best.reserve(unsolved);
        self.last.reserve(unsolved);
        for mask in self.ir.len()..subsets {
            if !meter.tick() {
                return false;
            }
            let ir = oracle.subset_size(&mut self.subsets, mask as u32);
            let mut best = f64::INFINITY;
            // Overwritten by the first finite candidate; a member of
            // the subset either way, so `order` always terminates.
            let mut last = mask.trailing_zeros() as u8;
            for (g, &gsize) in self.sizes.iter().enumerate() {
                if mask & (1 << g) == 0 {
                    continue;
                }
                let cost = self.best[mask & !(1 << g)] + gsize + ir;
                if cost < best {
                    best = cost;
                    last = g as u8;
                }
            }
            self.ir.push(ir);
            self.best.push(best);
            self.last.push(last);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactOracle;
    use viewplan_cq::parse_query;
    use viewplan_engine::{execute_ordered, Database};

    /// A database where joining small-first is clearly better.
    fn skewed_db() -> Database {
        let mut db = Database::new();
        // big(X, Y): 100 tuples; sel(Y): 1 tuple.
        let rows: Vec<Vec<i64>> = (0..100).map(|i| vec![i, i % 10]).collect();
        for r in &rows {
            db.insert("big", r.iter().map(|&v| v.into()).collect());
        }
        db.insert_int("sel", &[&[3]]);
        db
    }

    #[test]
    fn dp_picks_selective_subgoal_first() {
        let db = skewed_db();
        let q = parse_query("q(X) :- big(X, Y), sel(Y)").unwrap();
        let mut oracle = ExactOracle::new(&db);
        let (order, ir, cost) = optimal_m2_order(&q.body, &mut oracle).unwrap();
        assert_eq!(order, vec![1, 0]); // sel first
        assert_eq!(ir, vec![1.0, 10.0]);
        // cost = size(sel) + IR1 + size(big) + IR2 = 1 + 1 + 100 + 10.
        assert_eq!(cost, 112.0);
    }

    #[test]
    fn dp_cost_matches_engine_execution() {
        let db = skewed_db();
        let q = parse_query("q(X) :- big(X, Y), sel(Y)").unwrap();
        let mut oracle = ExactOracle::new(&db);
        let (order, _, cost) = optimal_m2_order(&q.body, &mut oracle).unwrap();
        let ordered: Vec<Atom> = order.iter().map(|&i| q.body[i].clone()).collect();
        let trace = execute_ordered(&q.head, &ordered, &db);
        assert_eq!(trace.cost() as f64, cost);
    }

    #[test]
    fn dp_beats_the_bad_order() {
        let db = skewed_db();
        let q = parse_query("q(X) :- big(X, Y), sel(Y)").unwrap();
        let bad = execute_ordered(&q.head, &q.body, &db); // big first
        let mut oracle = ExactOracle::new(&db);
        let (_, _, best) = optimal_m2_order(&q.body, &mut oracle).unwrap();
        assert!(best < bad.cost() as f64);
    }

    #[test]
    fn single_subgoal_plan() {
        let db = skewed_db();
        let q = parse_query("q(Y) :- sel(Y)").unwrap();
        let mut oracle = ExactOracle::new(&db);
        let (order, ir, cost) = optimal_m2_order(&q.body, &mut oracle).unwrap();
        assert_eq!(order, vec![0]);
        assert_eq!(ir, vec![1.0]);
        assert_eq!(cost, 2.0);
    }

    #[test]
    fn empty_body_returns_none() {
        let db = Database::new();
        let mut oracle = ExactOracle::new(&db);
        assert!(optimal_m2_order(&[], &mut oracle).is_none());
    }

    #[test]
    fn too_wide_body_is_an_error_not_a_panic() {
        let body: Vec<String> = (0..25).map(|i| format!("p{i}(X{i})")).collect();
        let q = parse_query(&format!("q(X0) :- {}", body.join(", "))).unwrap();
        let db = Database::new();
        let mut oracle = ExactOracle::new(&db);
        let err = try_optimal_m2_order(&q.body, &mut oracle).unwrap_err();
        assert_eq!(
            err,
            CostError::TooManySubgoals {
                subgoals: 25,
                limit: M2_MAX_SUBGOALS,
                model: "M2",
            }
        );
    }

    #[test]
    fn exhausted_plan_budget_abandons_the_dp() {
        let db = skewed_db();
        let q = parse_query("q(X) :- big(X, Y), sel(Y)").unwrap();
        let mut oracle = ExactOracle::new(&db);
        let budget = obs::BudgetSpec::new().phase_nodes(obs::Phase::Plan, 1);
        let _g = obs::budget::install(budget);
        assert!(try_optimal_m2_order(&q.body, &mut oracle)
            .unwrap()
            .is_none());
        assert_eq!(obs::budget::abandoned(obs::Phase::Plan), 1);
    }

    #[test]
    fn three_way_join_explores_all_orders() {
        let mut db = Database::new();
        db.insert_int("a", &[&[1, 1], &[2, 2], &[3, 3]]);
        db.insert_int("b", &[&[1, 5]]);
        db.insert_int("c", &[&[5, 9], &[5, 8]]);
        let q = parse_query("q(X, W) :- a(X, Y), b(Y, Z), c(Z, W)").unwrap();
        let mut oracle = ExactOracle::new(&db);
        let (order, _, cost) = optimal_m2_order(&q.body, &mut oracle).unwrap();
        // b is the most selective start.
        assert_eq!(order[0], 1);
        assert!(cost > 0.0);
    }
}
