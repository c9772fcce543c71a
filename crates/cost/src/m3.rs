//! Cost model M3: dropping nonrelevant attributes (§6).
//!
//! A physical plan annotates each subgoal with the attributes to drop
//! after it is processed; the cost replaces `IRᵢ` with the generalized
//! supplementary relation `GSRᵢ`. Two dropping rules (§6.2):
//!
//! * **supplementary** \[4\]: drop `Y` when it appears neither in the head
//!   nor in any subsequent subgoal;
//! * **renaming heuristic** (the paper's contribution): even if `Y`
//!   appears in a later subgoal, drop it whenever renaming the `Y`
//!   occurrences in the processed prefix to a fresh `Y′` leaves the
//!   rewriting's expansion equivalent to the query. We *implement* the
//!   drop as that renaming: the prefix then no longer mentions `Y`, the
//!   supplementary rule disposes of `Y′`, and the later subgoal rebinds
//!   `Y` afresh — exactly the semantics of removing the equality
//!   comparison.
//!
//! Dropping a compared variable can *increase* later GSRs (the join loses
//! a predicate), so the paper calls for a cost-based tradeoff:
//! [`DropPolicy::SmartCostBased`] branches on each legal renaming and
//! keeps the cheaper plan, [`DropPolicy::SmartAggressive`] always renames,
//! and [`DropPolicy::Supplementary`] reproduces the classic behaviour
//! (the baseline Example 6.1 beats).
//!
//! # The search
//!
//! One depth-first search extends a prefix by one subgoal at a time and,
//! per the policy, by one set of renames at that subgoal. Everything it
//! decides with is positional: each variable knows the subgoals it
//! occurs in as a bitmask, so "still needed by the suffix", "dropped
//! here" and "retained" are mask tests against the prefix set. The whole
//! search draws on one `Phase::Plan` allowance, one tick per node. The
//! cost to beat is the best complete plan so far; the optimizer also
//! passes the plan it holds for another rewriting as a *ceiling*, which
//! a plan must beat, or tie when this rewriting comes first in
//! CoreCover order (and so would win the tie).
//!
//! A node, and a candidate step before its `GSR` is asked for and before
//! any §6.2 test runs, is abandoned on either of two bounds:
//!
//! * **cost so far**: it already costs more than the cost to beat, or
//!   the same and loses the tie (every term of the cost is
//!   non-negative); a step is charged `size(g)` up front;
//! * **suffix**: `fl(cost + Σ size(h))` over every subgoal `h` not yet
//!   placed exceeds `min(best, ceiling) · (1 + 2⁻⁴⁰)`. Every plan below
//!   the node must still join each of those subgoals.
//!
//! Children that share a variable with the prefix are visited first and
//! the rest (Cartesian products) after them, each group cheapest relation
//! first, ties by index (one sort per search), so a cheap plan is found
//! early and bounds the rest.
//! Ties still break as an enumeration of all orders, each planned in
//! turn, would break them: lowest cost, then the lexicographically first
//! order, then the first variant path. The search visits plans in a
//! different sequence (orders that share a prefix share their nodes,
//! and children come by size), so equal-cost plans are compared on that
//! key explicitly, and the suffix bound only prunes what can neither win
//! nor tie.
//!
//! ## The suffix bound
//!
//! Let `u = 2⁻⁵³`. For `a, b ≥ 0`,
//! `(a + b)(1 − u) ≤ fl(a + b) ≤ (a + b)(1 + u)` (a sum that lands in
//! the subnormals is exact). At a node of cost `c` with `m ≤ n ≤ 32`
//! subgoals unplaced, the bound `B` is `m` additions of non-negative
//! terms, so `B ≤ (c + Σ size(h))(1 + u)ᵐ`. Any plan below the node
//! costs `C`, made from `c` by `2m` more additions (`size(h)`, then
//! `GSR`, per step), so
//! `C ≥ (c + Σ size(h) + Σ GSR)(1 − u)²ᵐ ≥ (c + Σ size(h))(1 − u)²ᵐ`.
//! Together, `C ≥ B(1 − u)²ᵐ / (1 + u)ᵐ ≥ B(1 − 3mu) ≥ B(1 − 96u)`.
//!
//! The bound prunes when `B > fl(T(1 + ε))`, with `T = min(best,
//! ceiling)` and `ε = 2⁻⁴⁰`. `1 + ε` is exact, and `T`, a sum of sizes,
//! is 0 or a normal number, so the product rounds by `1 ± u` too. Then
//! `C > T(1 + ε)(1 − u)(1 − 96u) ≥ T`, since `ε = 8192u`: every plan
//! below a pruned node costs strictly more than the cost to beat. It
//! could neither replace the best plan nor tie with it or with the
//! ceiling, and the search returns the plan the `n!` enumeration
//! returns, bit for bit. (`T = 0` prunes only `B > 0`; with no best
//! plan and no ceiling, `T = ∞` prunes nothing.) A step is checked
//! against its node's bound: placing `g` changes what is summed, not
//! its value. Exact ties are left to the first bound, which compares
//! the order key. Only a node cap can tell the visiting order: a search
//! cut short holds whatever incumbent it had reached.
//!
//! A rename closes a *generation* of a variable: the prefix subgoals
//! whose occurrences are renamed apart together. The renamed rewriting —
//! and so the §6.2 verdict, which `expand` + `are_equivalent` compute
//! from the body as a set — is a function of the closed generations
//! alone, not of the order inside the prefix; verdicts are memoised on
//! exactly that, and a generation draws its fresh name once.
//!
//! # What the search allocates
//!
//! The path is a [`Prefixes`]: subgoal indices and closed generations,
//! which the oracle is asked about as they stand
//! ([`SizeOracle::prefix_size`]). A step's variants are spans of one
//! stack of generations, a verdict is looked up through one reused key
//! buffer, and an estimating oracle folds one step per node into the
//! table `Prefixes` keeps by depth; every vector the search holds only
//! grows to the depth of the body. So a node allocates nothing. What
//! allocates is the search's setup; a complete plan that replaces the
//! incumbent, the one place subgoals are renamed into atoms and drop
//! sets are spelled out as names; and a §6.2 test of a renamed body not
//! tested before. An oracle that does not override `prefix_size` is
//! handed the atoms and retained names it asks about, per node.
//!

use crate::error::{check_width, CostError};
use crate::oracle::SizeOracle;
use crate::plan::PhysicalPlan;
use crate::subsets::{selected, Generation, Prefixes};
use crate::BOUND_SLACK;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::ops::Range;
use viewplan_containment::{are_equivalent, expand, minimize};
use viewplan_cq::{Atom, ConjunctiveQuery, Substitution, Symbol, Term, ViewSet};
use viewplan_obs as obs;

/// How the planner decides what to drop (§6.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropPolicy {
    /// Only the classic supplementary-relation rule.
    Supplementary,
    /// Apply every legal renaming drop.
    SmartAggressive,
    /// Branch on each legal renaming drop and keep the cheaper plan.
    SmartCostBased,
}

/// The widest rewriting [`optimal_m3_plan`] accepts: the order search is
/// factorial in the worst case (with per-order drop branching on top),
/// so wider inputs are rejected as [`CostError::TooManySubgoals`].
pub const M3_MAX_SUBGOALS: usize = 8;

/// Plans a fixed subgoal order under M3, deciding drops per the policy.
/// Returns the annotated plan, the per-step `GSR` sizes, and the total
/// cost. `query` and `views` are needed for the renaming heuristic's
/// equivalence test; `order` holds indices into `rewriting.body`.
///
/// Each search node counts as one `Phase::Plan` node against the
/// installed [budget](viewplan_obs::BudgetSpec); `None` means the budget exhausted
/// before even the mandatory no-smart-drop plan completed (unbudgeted
/// callers always get `Some`).
///
/// # Panics
/// Panics if `order` is not a permutation of the body's indices, or if
/// there are more than 32 of them (subsets are `u32` masks).
pub fn plan_with_order(
    query: &ConjunctiveQuery,
    views: &ViewSet,
    rewriting: &ConjunctiveQuery,
    order: &[usize],
    policy: DropPolicy,
    oracle: &mut dyn SizeOracle,
) -> Option<(PhysicalPlan, Vec<f64>, f64)> {
    let mut sorted = order.to_vec();
    sorted.sort_unstable();
    assert!(
        sorted.into_iter().eq(0..rewriting.body.len()),
        "order must be a permutation of the body's indices"
    );
    assert!(order.len() <= 32, "at most 32 subgoals fit a subset mask");
    let test = RenameTest::new(query, views);
    let best = Search::new(&test, rewriting, Some(order), policy, oracle).run()?;
    Some((best.plan, best.gsrs, best.cost))
}

/// Searches the subgoal orders and drop decisions for the cheapest M3
/// plan under the policy. Returns `None` for an empty body.
///
/// # Panics
/// Panics if the rewriting has more than [`M3_MAX_SUBGOALS`] subgoals;
/// use [`try_optimal_m3_plan`] to handle that case as an error.
pub fn optimal_m3_plan(
    query: &ConjunctiveQuery,
    views: &ViewSet,
    rewriting: &ConjunctiveQuery,
    policy: DropPolicy,
    oracle: &mut dyn SizeOracle,
) -> Option<(PhysicalPlan, f64)> {
    try_optimal_m3_plan(query, views, rewriting, policy, oracle).unwrap_or_else(|e| panic!("{e}"))
}

/// [`optimal_m3_plan`] returning an error instead of panicking on
/// too-wide rewritings. The whole search draws from one `Phase::Plan`
/// allowance of the installed [budget](viewplan_obs::BudgetSpec); on exhaustion it
/// returns the best plan found so far (possibly `None`), and the budget
/// records the abandonment.
pub fn try_optimal_m3_plan(
    query: &ConjunctiveQuery,
    views: &ViewSet,
    rewriting: &ConjunctiveQuery,
    policy: DropPolicy,
    oracle: &mut dyn SizeOracle,
) -> Result<Option<(PhysicalPlan, f64)>, CostError> {
    let test = RenameTest::new(query, views);
    optimal_plan(&test, rewriting, policy, oracle, None)
}

/// [`try_optimal_m3_plan`] under a `ceiling`: a cost to beat, and whether
/// a plan costing exactly that beats it. `Ok(None)` when no plan does
/// (or the budget ran out first). The optimizer plans each rewriting
/// against the best plan it already holds this way.
pub fn try_optimal_m3_plan_under(
    query: &ConjunctiveQuery,
    views: &ViewSet,
    rewriting: &ConjunctiveQuery,
    policy: DropPolicy,
    oracle: &mut dyn SizeOracle,
    ceiling: (f64, bool),
) -> Result<Option<(PhysicalPlan, f64)>, CostError> {
    let test = RenameTest::new(query, views);
    optimal_plan(&test, rewriting, policy, oracle, Some(ceiling))
}

/// [`try_optimal_m3_plan`] for a caller that plans several rewritings of
/// one query and keeps the [`RenameTest`] across them. Under a `ceiling`
/// (a cost, and whether a tie beats it) `None` may mean "none beats it".
pub(crate) fn optimal_plan(
    test: &RenameTest,
    rewriting: &ConjunctiveQuery,
    policy: DropPolicy,
    oracle: &mut dyn SizeOracle,
    ceiling: Option<(f64, bool)>,
) -> Result<Option<(PhysicalPlan, f64)>, CostError> {
    check_width(rewriting.body.len(), M3_MAX_SUBGOALS, "M3")?;
    if rewriting.body.is_empty() {
        return Ok(None);
    }
    let mut search = Search::new(test, rewriting, None, policy, oracle);
    search.ceiling = ceiling;
    Ok(search.run().map(|b| (b.plan, b.cost)))
}

/// The §6.2 test: is a renamed rewriting still an equivalent rewriting
/// of the query? Holds what every test of one query shares; the query is
/// minimised on the first test, so a search that never considers a
/// rename (every variable distinguished, or the supplementary policy)
/// never pays for it.
pub(crate) struct RenameTest<'a> {
    query: &'a ConjunctiveQuery,
    views: &'a ViewSet,
    minimized: OnceCell<ConjunctiveQuery>,
}

impl<'a> RenameTest<'a> {
    pub(crate) fn new(query: &'a ConjunctiveQuery, views: &'a ViewSet) -> RenameTest<'a> {
        RenameTest {
            query,
            views,
            minimized: OnceCell::new(),
        }
    }

    fn holds(&self, candidate: &ConjunctiveQuery) -> bool {
        obs::counter!("m3.rename_tests").incr();
        let minimized = self.minimized.get_or_init(|| minimize(self.query));
        match expand(candidate, self.views) {
            Ok(exp) => are_equivalent(&exp, minimized),
            Err(_) => false,
        }
    }
}

/// A node or a step a bound abandoned. Single registration site per
/// counter name (the xtask lint enforces this).
fn note_pruned() {
    obs::counter!("cost.m3_pruned").incr();
}

/// A cut only the suffix bound made: the cost so far alone still left
/// the node or step a chance.
fn note_suffix_pruned() {
    note_pruned();
    obs::counter!("cost.m3_suffix_pruned").incr();
}

/// The cheapest complete plan so far, with the key ties are broken on.
struct Best {
    cost: f64,
    order: Vec<usize>,
    variants: Vec<usize>,
    plan: PhysicalPlan,
    gsrs: Vec<f64>,
}

struct Search<'a> {
    test: &'a RenameTest<'a>,
    rewriting: &'a ConjunctiveQuery,
    /// `Some`: plan this order only.
    fixed: Option<&'a [usize]>,
    policy: DropPolicy,
    oracle: &'a mut dyn SizeOracle,
    meter: obs::Meter,
    /// The path from the root to the current node: its subgoals, and the
    /// generations closed on it.
    path: Prefixes,
    /// `size(g)` per subgoal.
    sizes: Vec<f64>,
    /// The subgoals cheapest first, ties by index: the order children
    /// are visited in, connected ones before the rest.
    by_size: Vec<usize>,
    /// Per subgoal, the subgoals it shares a variable with.
    links: Vec<u32>,
    /// The variables a rename could ever apply to: outside the head and
    /// in two subgoals or more.
    rename_candidates: Vec<usize>,
    /// §6.2 verdicts, by the sorted generations of the renamed body.
    verdicts: HashMap<Vec<Generation>, bool>,
    names: HashMap<Generation, Symbol>,
    /// A verdict key being looked up.
    key: Vec<Generation>,
    /// Per step of the path, which of its variants (in enumeration
    /// order) was taken.
    variants: Vec<usize>,
    gsrs: Vec<f64>,
    /// The variants of every node on the path, node after node: each a
    /// span of `renames`.
    spans: Vec<(usize, usize)>,
    renames: Vec<Generation>,
    best: Option<Best>,
    /// A cost to beat, and whether a tie beats it.
    ceiling: Option<(f64, bool)>,
}

impl<'a> Search<'a> {
    fn new(
        test: &'a RenameTest<'a>,
        rewriting: &'a ConjunctiveQuery,
        fixed: Option<&'a [usize]>,
        policy: DropPolicy,
        oracle: &'a mut dyn SizeOracle,
    ) -> Search<'a> {
        let n = rewriting.body.len();
        let sizes: Vec<f64> = rewriting
            .body
            .iter()
            .map(|g| oracle.relation_size(g))
            .collect();
        let mut by_size: Vec<usize> = (0..n).collect();
        by_size.sort_unstable_by(|&a, &b| sizes[a].total_cmp(&sizes[b]).then(a.cmp(&b)));
        let path = Prefixes::new(rewriting);
        let mut links = vec![0u32; n];
        for var in &path.vars {
            for (g, link) in links.iter_mut().enumerate() {
                if var.occurs & (1 << g) != 0 {
                    *link |= var.occurs;
                }
            }
        }
        let rename_candidates = (0..path.vars.len())
            .filter(|&v| !path.vars[v].head && path.vars[v].occurs.count_ones() > 1)
            .collect();
        Search {
            test,
            rewriting,
            fixed,
            policy,
            sizes,
            by_size,
            links,
            rename_candidates,
            oracle,
            meter: obs::Meter::start(obs::Phase::Plan),
            path,
            verdicts: HashMap::new(),
            names: HashMap::new(),
            key: Vec::new(),
            variants: Vec::with_capacity(n),
            gsrs: Vec::with_capacity(n),
            spans: Vec::new(),
            renames: Vec::new(),
            best: None,
            ceiling: None,
        }
    }

    fn run(mut self) -> Option<Best> {
        self.extend(0, 0.0);
        self.best
    }

    /// Visits the node the path leads to: `used` is the prefix as a set,
    /// `cost` the plan cost up to here.
    fn extend(&mut self, used: u32, cost: f64) {
        let bound = self.suffix_bound(used, cost);
        if self.prune(cost, bound) {
            return;
        }
        if !self.meter.tick() {
            return; // budget exhausted: `best` keeps what was found
        }
        obs::counter!("cost.m3_nodes").incr();
        let depth = self.path.order().len();
        if depth == self.rewriting.body.len() {
            self.complete(cost);
            return;
        }
        for connected in [true, false] {
            for child in 0..self.by_size.len() {
                let g = self.by_size[child];
                if used & (1 << g) != 0
                    || (self.links[g] & used != 0) != connected
                    || self.fixed.is_some_and(|order| order[depth] != g)
                {
                    continue;
                }
                let used = used | 1 << g;
                self.path.push(g);
                if self.prune(cost + self.sizes[g], bound) {
                    self.path.pop();
                    continue;
                }
                let (first, marked) = (self.spans.len(), self.renames.len());
                self.rename_variants(used);
                for index in 0..self.spans.len() - first {
                    let (start, end) = self.spans[first + index];
                    self.step(used, g, index, start..end, cost);
                    if self.meter.exhausted() {
                        break;
                    }
                }
                self.spans.truncate(first);
                self.renames.truncate(marked);
                self.path.pop();
                if self.meter.exhausted() {
                    return;
                }
            }
        }
    }

    /// `cost` plus the size of every subgoal off the path `used`: every
    /// plan below the node still adds those sizes.
    fn suffix_bound(&self, used: u32, cost: f64) -> f64 {
        cost + selected(&self.sizes, !used).sum::<f64>()
    }

    /// Whether to abandon the node or step the path leads to, which costs
    /// `cost` so far and whose plans all cost about `bound` or more; a
    /// cut is counted.
    fn prune(&self, cost: f64, bound: f64) -> bool {
        if self.cannot_win(cost) {
            note_pruned();
            return true;
        }
        let best = self.best.as_ref().map_or(f64::INFINITY, |best| best.cost);
        let ceiling = self.ceiling.map_or(f64::INFINITY, |(ceiling, _)| ceiling);
        let out_of_reach = bound > best.min(ceiling) * BOUND_SLACK;
        if out_of_reach {
            note_suffix_pruned();
        }
        out_of_reach
    }

    /// No plan below a node of this cost can replace `best`, or beat the
    /// ceiling: it would cost more, or the same and lose the tie.
    fn cannot_win(&self, cost: f64) -> bool {
        let (ceiling, tie_wins) = self.ceiling.unwrap_or((f64::INFINITY, true));
        let order = self.path.order();
        cost > ceiling
            || (cost == ceiling && !tie_wins)
            || self.best.as_ref().is_some_and(|best| {
                cost > best.cost || (cost == best.cost && order > &best.order[..order.len()])
            })
    }

    /// Takes the complete plan the path spells when it beats `best`: the
    /// one place the search builds subgoals and drop sets.
    fn complete(&mut self, cost: f64) {
        let order = self.path.order();
        let wins = self.best.as_ref().is_none_or(|best| {
            cost < best.cost
                || (cost == best.cost
                    && (order, &self.variants[..]) < (&best.order[..], &best.variants[..]))
        });
        if wins {
            let steps = self.path.atoms().into_iter().zip(self.path.drops());
            self.best = Some(Best {
                cost,
                order: order.to_vec(),
                variants: self.variants.clone(),
                plan: PhysicalPlan::annotated(steps.collect()),
                gsrs: self.gsrs.clone(),
            });
        }
    }

    /// Stacks the sets of renames the policy considers once the prefix
    /// is `used` onto `spans`: always the empty one first under the
    /// cost-based policy; under the aggressive one, only the maximal
    /// legal ones. A candidate is a variable the prefix names, the suffix
    /// still needs, and the head does not.
    fn rename_variants(&mut self, used: u32) {
        let first = self.spans.len();
        let start = self.renames.len();
        self.spans.push((start, start));
        if self.policy == DropPolicy::Supplementary {
            return;
        }
        for candidate in 0..self.rename_candidates.len() {
            let v = self.rename_candidates[candidate];
            let var = &self.path.vars[v];
            let named = var.occurs & used & !self.path.renamed(v);
            if named == 0 || var.occurs & !used == 0 {
                continue;
            }
            let existing = self.spans.len();
            for variant in first..existing {
                obs::counter!("m3.rename_attempts").incr();
                let (start, end) = self.spans[variant];
                if self.rename_is_equivalent(start..end, (v, named)) {
                    obs::counter!("m3.rename_drops").incr();
                    let at = self.renames.len();
                    self.renames.extend_from_within(start..end);
                    self.renames.push((v, named));
                    self.spans.push((at, self.renames.len()));
                }
            }
            if self.policy == DropPolicy::SmartAggressive && self.spans.len() > existing {
                self.spans.drain(first..existing);
            }
        }
    }

    /// The §6.2 verdict on the path's renames, the variant `renames[more]`
    /// and the generation `tried`.
    fn rename_is_equivalent(&mut self, more: Range<usize>, tried: Generation) -> bool {
        self.key.clear();
        self.key.extend(self.path.closed());
        self.key.extend_from_slice(&self.renames[more]);
        self.key.push(tried);
        self.key.sort_unstable();
        if let Some(&verdict) = self.verdicts.get(self.key.as_slice()) {
            return verdict;
        }
        let base = self.path.vars[tried.0].name;
        self.names
            .entry(tried)
            .or_insert_with(|| Symbol::fresh(base.as_str()));
        let body = (0..self.rewriting.body.len())
            .map(|g| self.renamed(g, &self.key))
            .collect();
        let candidate = ConjunctiveQuery::new(self.rewriting.head.clone(), body);
        let verdict = self.test.holds(&candidate);
        self.verdicts.insert(self.key.clone(), verdict);
        verdict
    }

    /// Subgoal `g` with every generation of `closed` it belongs to
    /// renamed to that generation's fresh name.
    fn renamed(&self, g: usize, closed: &[Generation]) -> Atom {
        let renames = closed
            .iter()
            .filter(|generation| generation.1 & (1 << g) != 0)
            .filter_map(|generation| {
                let fresh = self.names.get(generation)?;
                Some((self.path.vars[generation.0].name, Term::Var(*fresh)))
            });
        self.rewriting.body[g].apply(&Substitution::from_pairs(renames))
    }

    /// Takes the variant `renames[variant]` at the step that just put
    /// subgoal `g` on the path: closes its generations, asks the oracle
    /// for the step's `GSR`, searches on from there, and leaves the path
    /// as it found it. A renamed-away generation is dropped on the spot
    /// under its fresh name; a variable the prefix still names as spelled
    /// is retained while the head or the suffix needs it, and dropped at
    /// the step that brings its last occurrence.
    fn step(&mut self, used: u32, g: usize, index: usize, variant: Range<usize>, cost: f64) {
        let closed = variant.len();
        for generation in variant.map(|i| self.renames[i]) {
            self.path.close(generation, self.names[&generation]);
        }
        if obs::enabled() {
            obs::counter!("m3.supplementary_drops").add(self.path.dropped_at_last_step() as u64);
        }
        let gsr = self.oracle.prefix_size(&mut self.path);

        self.variants.push(index);
        self.gsrs.push(gsr);
        self.extend(used, cost + self.sizes[g] + gsr);
        self.variants.pop();
        self.gsrs.pop();
        self.path.reopen(closed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactOracle;
    use viewplan_cq::{parse_query, parse_views};
    use viewplan_engine::{materialize_views, Database};

    /// Example 6.1 / Figure 5 setup.
    fn example61() -> (ConjunctiveQuery, ViewSet, Database) {
        let q = parse_query("q(A) :- r(A, A), t(A, B), s(B, B)").unwrap();
        let views = parse_views(
            "v1(A, B) :- r(A, A), s(B, B).\n\
             v2(A, B) :- t(A, B), s(B, B).",
        )
        .unwrap();
        let mut base = Database::new();
        base.insert_int("r", &[&[1, 1], &[2, 2], &[4, 4], &[6, 6], &[8, 8]]);
        base.insert_int("s", &[&[2, 2], &[4, 4], &[6, 6], &[8, 8]]);
        base.insert_int("t", &[&[1, 2], &[3, 4], &[5, 6], &[7, 8]]);
        let vdb = materialize_views(&views, &base);
        (q, views, vdb)
    }

    #[test]
    fn figure5_view_relations_match_paper() {
        let (_, _, vdb) = example61();
        // v1 = {⟨1,2⟩, ⟨1,4⟩, ⟨1,6⟩, ⟨1,8⟩} ∪ rows for A ∈ {2,4,6,8}… no:
        // v1(A,B) :- r(A,A), s(B,B): A ∈ {1,2,4,6,8}, B ∈ {2,4,6,8} → 20
        // pairs; the paper's figure lists only the A = 1 rows it uses.
        let v1 = vdb.get("v1".into()).unwrap();
        assert_eq!(v1.len(), 20);
        let v2 = vdb.get("v2".into()).unwrap();
        assert_eq!(v2.len(), 4);
    }

    #[test]
    fn supplementary_keeps_compared_attribute() {
        // P2 = q(A) :- v1(A,B), v2(A,B): under the supplementary rule, B
        // must be kept after v1 (it is compared in v2), so GSR1 = |v1| = 20.
        let (q, views, vdb) = example61();
        let p2 = parse_query("q(A) :- v1(A, B), v2(A, B)").unwrap();
        let mut oracle = ExactOracle::new(&vdb);
        let (plan, gsrs, _) = plan_with_order(
            &q,
            &views,
            &p2,
            &[0, 1],
            DropPolicy::Supplementary,
            &mut oracle,
        )
        .unwrap();
        assert!(plan.steps[0].drop_after.is_empty());
        assert_eq!(gsrs[0], 20.0);
    }

    #[test]
    fn renaming_heuristic_drops_compared_attribute() {
        // §6.2: renaming B in the v1 prefix keeps equivalence, so B drops
        // and GSR1 becomes the distinct A values of v1 — 5.
        let (q, views, vdb) = example61();
        let p2 = parse_query("q(A) :- v1(A, B), v2(A, B)").unwrap();
        let mut oracle = ExactOracle::new(&vdb);
        let (plan, gsrs, cost_smart) = plan_with_order(
            &q,
            &views,
            &p2,
            &[0, 1],
            DropPolicy::SmartCostBased,
            &mut oracle,
        )
        .unwrap();
        assert_eq!(gsrs[0], 5.0);
        assert!(!plan.steps[0].drop_after.is_empty());
        let (_, _, cost_supp) = plan_with_order(
            &q,
            &views,
            &p2,
            &[0, 1],
            DropPolicy::Supplementary,
            &mut oracle,
        )
        .unwrap();
        assert!(cost_smart < cost_supp);
    }

    #[test]
    fn smart_plan_answer_is_still_correct() {
        let (q, views, vdb) = example61();
        let p2 = parse_query("q(A) :- v1(A, B), v2(A, B)").unwrap();
        let mut oracle = ExactOracle::new(&vdb);
        let (plan, _, _) = plan_with_order(
            &q,
            &views,
            &p2,
            &[0, 1],
            DropPolicy::SmartAggressive,
            &mut oracle,
        )
        .unwrap();
        let trace = plan.try_execute(&p2.head, &vdb).unwrap();
        assert_eq!(trace.answer.rows(), [vec![viewplan_engine::Value::Int(1)]]);
    }

    #[test]
    fn optimal_plan_searches_both_orders() {
        let (q, views, vdb) = example61();
        let p2 = parse_query("q(A) :- v1(A, B), v2(A, B)").unwrap();
        let mut oracle = ExactOracle::new(&vdb);
        let (_, cost) =
            optimal_m3_plan(&q, &views, &p2, DropPolicy::SmartCostBased, &mut oracle).unwrap();
        // Must be at least as good as the fixed order we tested above.
        let (_, _, fixed) = plan_with_order(
            &q,
            &views,
            &p2,
            &[0, 1],
            DropPolicy::SmartCostBased,
            &mut oracle,
        )
        .unwrap();
        assert!(cost <= fixed);
    }

    #[test]
    fn too_wide_rewriting_is_an_error_not_a_panic() {
        let (q, views, vdb) = example61();
        let body: Vec<String> = (0..9).map(|i| format!("p{i}(X{i})")).collect();
        let wide = parse_query(&format!("q(X0) :- {}", body.join(", "))).unwrap();
        let mut oracle = ExactOracle::new(&vdb);
        let err = try_optimal_m3_plan(&q, &views, &wide, DropPolicy::Supplementary, &mut oracle)
            .unwrap_err();
        assert_eq!(
            err,
            CostError::TooManySubgoals {
                subgoals: 9,
                limit: M3_MAX_SUBGOALS,
                model: "M3",
            }
        );
    }

    #[test]
    fn exhausted_plan_budget_keeps_best_so_far_and_never_beats_optimal() {
        let (q, views, vdb) = example61();
        let p2 = parse_query("q(A) :- v1(A, B), v2(A, B)").unwrap();
        let mut oracle = ExactOracle::new(&vdb);
        let (_, optimal) =
            optimal_m3_plan(&q, &views, &p2, DropPolicy::SmartCostBased, &mut oracle).unwrap();
        let budget = obs::BudgetSpec::new().phase_nodes(obs::Phase::Plan, 3);
        let _g = obs::install_budget(budget);
        let truncated =
            try_optimal_m3_plan(&q, &views, &p2, DropPolicy::SmartCostBased, &mut oracle).unwrap();
        // A truncated search may return nothing or a worse plan — but a
        // cost below the true optimum would mean a fabricated plan.
        if let Some((_, cost)) = truncated {
            assert!(cost >= optimal - 1e-9);
        }
        assert!(obs::budget_abandoned(obs::Phase::Plan) > 0);
    }

    #[test]
    fn head_variables_are_never_dropped() {
        let (q, views, vdb) = example61();
        let p2 = parse_query("q(A) :- v1(A, B), v2(A, B)").unwrap();
        let mut oracle = ExactOracle::new(&vdb);
        for policy in [
            DropPolicy::Supplementary,
            DropPolicy::SmartAggressive,
            DropPolicy::SmartCostBased,
        ] {
            let (plan, _, _) =
                plan_with_order(&q, &views, &p2, &[0, 1], policy, &mut oracle).unwrap();
            for s in &plan.steps {
                assert!(!s.drop_after.contains(&Symbol::new("A")));
            }
        }
    }

    #[test]
    fn last_step_drops_everything_but_the_head() {
        let (q, views, vdb) = example61();
        let p2 = parse_query("q(A) :- v1(A, B), v2(A, B)").unwrap();
        let mut oracle = ExactOracle::new(&vdb);
        let (_, gsrs, _) = plan_with_order(
            &q,
            &views,
            &p2,
            &[0, 1],
            DropPolicy::Supplementary,
            &mut oracle,
        )
        .unwrap();
        // Final GSR keeps only A → one distinct value.
        assert_eq!(*gsrs.last().unwrap(), 1.0);
    }
}
