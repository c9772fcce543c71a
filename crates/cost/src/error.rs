//! Typed errors for the physical-plan search.
//!
//! The plan searches are exponential in the subgoal count (`2^n` subsets
//! for the M2 dynamic program, `n!` orders for M3), so each rejects
//! rewritings wider than a hard limit. Those rejections used to be
//! `assert!` panics; they are inputs, not bugs, and flow out as
//! [`CostError`] so callers can skip the offending rewriting or report a
//! clean CLI error instead of aborting.

use std::fmt;
use viewplan_core::CoreError;
use viewplan_engine::EngineError;

/// Why the physical-plan search rejected a rewriting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CostError {
    /// The rewriting has more subgoals than the search for this cost
    /// model can enumerate.
    TooManySubgoals {
        /// Subgoals in the offending rewriting.
        subgoals: usize,
        /// The widest rewriting the search accepts.
        limit: usize,
        /// Which model's search rejected it (`"M2"` or `"M3"`).
        model: &'static str,
    },
}

/// Rejects a rewriting of `n` subgoals wider than the `model` search's
/// `limit`.
pub(crate) fn check_width(n: usize, limit: usize, model: &'static str) -> Result<(), CostError> {
    if n > limit {
        return Err(CostError::TooManySubgoals {
            subgoals: n,
            limit,
            model,
        });
    }
    Ok(())
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CostError::TooManySubgoals {
                subgoals,
                limit,
                model,
            } => write!(
                f,
                "rewriting has {subgoals} subgoals, but the {model} plan search supports at \
                 most {limit}"
            ),
        }
    }
}

impl std::error::Error for CostError {}

/// Everything [`crate::Optimizer::try_plan`] can fail with: the
/// rewriting generator rejected the query, or every generated rewriting
/// was too wide to plan. A too-wide rewriting is only an error when *no*
/// rewriting could be planned — otherwise it is skipped and the outcome
/// is marked truncated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlanError {
    /// The rewriting generator (CoreCover) rejected the query.
    Core(CoreError),
    /// Every generated rewriting was too wide for the plan search.
    Cost(CostError),
    /// Executing the chosen plan was rejected by the engine (an unsafe
    /// query or a plan that drops a head variable).
    Engine(EngineError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Core(e) => e.fmt(f),
            PlanError::Cost(e) => e.fmt(f),
            PlanError::Engine(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<CoreError> for PlanError {
    fn from(e: CoreError) -> PlanError {
        PlanError::Core(e)
    }
}

impl From<CostError> for PlanError {
    fn from(e: CostError) -> PlanError {
        PlanError::Cost(e)
    }
}

impl From<EngineError> for PlanError {
    fn from(e: EngineError) -> PlanError {
        PlanError::Engine(e)
    }
}
