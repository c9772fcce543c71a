//! Typed errors for query evaluation and plan execution.
//!
//! The engine sits under programmatic callers (the cost oracles, the
//! serving layer, the extended algorithms) that can hand it queries the
//! parser never vetted — an unsafe head, a plan that drops a head
//! variable, facts whose arity disagrees with an existing relation.
//! Those are *input* defects, not engine bugs, so they flow out as
//! [`EngineError`] values instead of panics; the documented-`# Panics`
//! convenience wrappers ([`crate::evaluate`] and friends) remain for
//! callers with pre-validated input.

use std::fmt;
use viewplan_cq::Symbol;

/// Why the engine rejected a query, plan, or insertion.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineError {
    /// A head variable never entered the bindings schema: the query is
    /// unsafe (the variable occurs in no body subgoal), so no answer
    /// tuple can be built for it.
    UnboundHeadVariable {
        /// The offending head variable.
        var: Symbol,
    },
    /// An annotated plan projects away a head variable before the end —
    /// such a plan can no longer compute the query answer.
    HeadVariableDropped {
        /// The dropped head variable.
        var: Symbol,
    },
    /// A relation was requested (or inserted into) at an arity that
    /// conflicts with the arity it already has.
    ArityConflict {
        /// The relation name.
        relation: Symbol,
        /// The arity the stored relation has.
        existing: usize,
        /// The arity the caller asked for.
        requested: usize,
    },
    /// Joining a relation would yield more rows than the columnar
    /// executor can number (its row numbers are `u32`): refused before
    /// the rows are reserved, instead of aborting on the allocation or
    /// wrapping row numbers into wrong answers.
    TooManyRows {
        /// The relation whose join overflows.
        relation: Symbol,
        /// The most rows a bindings table holds.
        limit: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EngineError::UnboundHeadVariable { var } => write!(
                f,
                "head variable {var} is not bound by any body subgoal (unsafe query)"
            ),
            EngineError::HeadVariableDropped { var } => write!(
                f,
                "plan drops head variable {var} — cannot compute the answer"
            ),
            EngineError::ArityConflict {
                relation,
                existing,
                requested,
            } => write!(
                f,
                "relation {relation} has arity {existing}, conflicting with requested arity \
                 {requested}"
            ),
            EngineError::TooManyRows { relation, limit } => write!(
                f,
                "joining {relation} yields more than {limit} rows, more than the executor can number"
            ),
        }
    }
}

impl std::error::Error for EngineError {}
