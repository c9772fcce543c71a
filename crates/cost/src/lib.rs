//! Cost models and the optimizer half of the paper's two-phase
//! architecture.
//!
//! The rewriting generator ([`viewplan_core`]) produces logical plans; this
//! crate turns them into physical plans and costs them under the three
//! models of Table 1:
//!
//! | model | physical plan | cost measure |
//! |-------|---------------|--------------|
//! | **M1** | a *set* of subgoals | number of subgoals |
//! | **M2** | a *list* of subgoals | `Σ size(gᵢ) + size(IRᵢ)` |
//! | **M3** | a list of subgoals annotated with dropped attributes | `Σ size(gᵢ) + size(GSRᵢ)` |
//!
//! * [`catalog`] — relation statistics; [`oracle`] — a common size
//!   interface with an *exact* implementation (measuring a materialized
//!   view database through the engine) and an *estimated* one (catalog +
//!   independence assumption).
//! * [`subsets`] — a rewriting body as an indexed space of subgoal
//!   subsets and of ordered prefixes: subgoal `i` is bit `i`, the
//!   Selinger-style estimate is tabulated by mask in flat arrays, one
//!   join per subset, and by depth along the M3 search's path, one join
//!   per node. The M2 search walks the subsets, the M3 search the
//!   prefixes; the estimating oracle tabulates into both.
//! * [`m2`] — optimal join orders by dynamic programming over subgoal
//!   subsets (the all-attributes-retained IR size depends only on the
//!   prefix *set*, so Selinger DP is exact here); a filter grafted onto a
//!   solved body reuses the solved half of the table, and one that cannot
//!   pay by its size and one join is never grafted.
//! * [`m3`] — attribute dropping: the classic supplementary-relation rule
//!   \[4\] plus the paper's §6.2 renaming heuristic, which drops a
//!   variable that still occurs in later subgoals whenever renaming its
//!   prefix occurrences preserves equivalence to the query (Example 6.1);
//!   one bounded depth-first search over orders and drop decisions.
//! * [`optimizer`] — the facade: generate rewritings with
//!   `CoreCover`/`CoreCover*`, search plans under a chosen model, and
//!   optionally graft empty-core **filter subgoals** onto a rewriting when
//!   they pay for themselves (§5.1–5.2, rewriting `P3`).

pub mod catalog;
pub mod error;
pub mod m1;
pub mod m2;
pub mod m3;
pub mod optimizer;
pub mod oracle;
pub mod plan;
pub mod subsets;

pub use catalog::{Catalog, RelationStats};
pub use error::{CostError, PlanError};
pub use m1::{m1_cost, optimal_m1_rewritings};
pub use m2::{optimal_m2_order, try_optimal_m2_order, M2_MAX_SUBGOALS};
pub use m3::{optimal_m3_plan, plan_with_order, try_optimal_m3_plan, DropPolicy, M3_MAX_SUBGOALS};
pub use optimizer::{CostModel, Optimizer, OptimizerConfig, PlanOutcome, PlannedRewriting};
pub use oracle::{EstimateOracle, ExactOracle, SizeOracle};
pub use plan::{write_plan, PhysicalPlan};
