//! Conjunctive-query data model for `viewplan`.
//!
//! This crate provides the logical vocabulary used throughout the
//! reproduction of *"Generating Efficient Plans for Queries Using Views"*
//! (Li, Afrati, Ullman; SIGMOD 2001):
//!
//! * interned [`Symbol`]s so terms are `Copy` and cheap to hash,
//! * [`Term`]s (variables and constants), [`Atom`]s, and safe
//!   [`ConjunctiveQuery`]s (select-project-join queries),
//! * [`View`]s (named conjunctive queries over base relations) and
//!   [`ViewSet`]s,
//! * [`Substitution`]s (the variable mappings used by containment
//!   mappings, expansions, and canonical databases),
//! * a Datalog-style [`parser`] following the paper's convention that
//!   names beginning with a lower-case letter are constants/predicates and
//!   names beginning with an upper-case letter are variables.
//!
//! # Example
//!
//! The paper's running "car-loc-part" query (Example 1.1):
//!
//! ```
//! use viewplan_cq::parse_query;
//!
//! let q = parse_query(
//!     "q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C)",
//! ).unwrap();
//! assert_eq!(q.body.len(), 3);
//! assert!(q.is_safe());
//! ```

pub mod atom;
pub mod error;
pub mod first_seen;
pub mod hypergraph;
pub mod join_order;
pub mod parser;
pub mod query;
pub mod render;
pub mod span;
pub mod subst;
pub mod symbol;
pub mod term;
pub mod view;

pub use atom::Atom;
pub use error::ParseError;
pub use first_seen::FirstSeen;
pub use hypergraph::{hypertree_width_estimate, is_acyclic, join_forest, JoinForest};
pub use join_order::{greedy_join_order, JoinOrder};
pub use parser::{
    parse_atom, parse_program, parse_query, parse_query_with, parse_views, Interned, Program,
    RuleSpans, Variables,
};
pub use query::ConjunctiveQuery;
pub use render::{write_atom, write_rule, Sink, Spelled};
pub use span::Span;
pub use subst::Substitution;
pub use symbol::Symbol;
pub use term::{Constant, Term};
pub use view::{View, ViewSet};
