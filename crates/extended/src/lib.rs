//! The paper's §8 extensions ("Conclusion and Discussion"): built-in
//! comparison predicates and rewritings that are **unions of conjunctive
//! queries**, plus maximally-contained rewritings.
//!
//! §8 closes with an example the base system cannot express:
//!
//! ```text
//! Q:  q(X, Y, U, W) :- p(X, Y), r(U, W), r(W, U)
//! V1: v1(A, B, C, D) :- p(A, B), r(C, D), C ≤ D
//! V2: v2(E, F)       :- r(E, F)
//!
//! P1: q(X, Y, U, W) :- v1(X, Y, U, W), v2(W, U)
//!     q(X, Y, U, W) :- v1(X, Y, W, U), v2(U, W)     (a union of 2 CQs)
//! P2: q(X, Y, U, W) :- v1(X, Y, C, D), v2(U, W), v2(W, U)
//! ```
//!
//! This crate supplies the machinery to state, evaluate, and reason about
//! such rewritings:
//!
//! * [`Comparison`] — comparison atoms (`<`, `≤`, `=`, `≠`) over query
//!   terms;
//! * [`ConstraintSet`] — conjunctions of comparisons with satisfiability and
//!   implication over a dense linear order (difference-constraint closure
//!   plus disequalities);
//! * [`ConditionalQuery`] — conditional conjunctive queries (CQ + constraint set):
//!   evaluation through the engine and a sound containment test that is
//!   complete up to a documented linearization bound (Klug's test);
//! * [`UnionQuery`] — unions of (conditional) conjunctive queries:
//!   evaluation and containment of a query in a union;
//! * [`maximally_contained_rewriting`] — maximally-contained rewritings as UCQs for the
//!   comparison-free case, built from MiniCon combinations — the other
//!   extension direction §8 names;
//! * [`certain_answers`] — the inverse-rule algorithm \[9, 21\] computing
//!   the same certain answers bottom-up with Skolem witnesses;
//! * [`parse_conditional`] — comparison syntax (`"C <= D"`) on top of the base
//!   grammar.

#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod ccq;
mod comparison;
mod constraints;
mod inverse_rules;
mod max_contained;
mod parse;
mod ucq;

pub use ccq::{evaluate_conditional, ConditionalQuery};
pub use comparison::{CompOp, Comparison};
pub use constraints::ConstraintSet;
pub use inverse_rules::certain_answers;
pub use max_contained::maximally_contained_rewriting;
pub use parse::parse_conditional;
pub use ucq::{evaluate_union, is_contained_in_union, UnionQuery};
