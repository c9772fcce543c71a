//! An in-memory relational engine for conjunctive queries.
//!
//! The paper's architecture is two-phase: a *rewriting generator* produces
//! logical plans over materialized views, and an *optimizer* turns one into
//! a physical plan that joins the stored view relations. This crate is the
//! storage-and-execution substrate both phases stand on:
//!
//! * [`Relation`], [`Database`] — set-semantics relations over [`Value`]s,
//!   stored once: one word [`Column`] per attribute (32-bit words while
//!   every word fits, 64-bit from the first that does not), and a set of row
//!   numbers built on first use (no row vector, no second copy for any
//!   executor, and no set for an executed answer nothing looks up);
//! * [`evaluate`] — multiway hash-join evaluation of a conjunctive query:
//!   the columnar batch executor joins the stored columns in place, its
//!   bindings table holding row numbers into them rather than cells, and
//!   gathers each answer cell once, through those row numbers. The
//!   row-at-a-time executor, which assembles a tuple per stored row it
//!   scans, is the differential oracle that tests install in process
//!   with a scoped [`install`] ([`Engine`]); both produce byte-identical
//!   answers and traces;
//! * [`materialize_views`] — compute view relations from base relations
//!   (the closed-world assumption: views hold *exactly* these tuples);
//! * [`canonical_database`] — the frozen database `D_Q` of §3.3, with
//!   [`Value::Frozen`] values that restore to the query's variables;
//! * [`execute_ordered`] / [`execute_annotated`] — run a join order (with
//!   optional attribute dropping) and report every intermediate-relation
//!   size, the ground truth for cost models M2 and M3.
//!
//! # Example
//!
//! ```
//! use viewplan_cq::parse_query;
//! use viewplan_engine::{Database, evaluate};
//!
//! let mut db = Database::new();
//! db.insert_sym("car", &[&["honda", "anderson"], &["bmw", "smith"]]);
//! db.insert_sym("loc", &[&["anderson", "palo_alto"]]);
//! let q = parse_query("q(M, C) :- car(M, anderson), loc(anderson, C)").unwrap();
//! let ans = evaluate(&q, &db);
//! assert_eq!(ans.len(), 1);
//! ```

mod batch;
pub mod canonical;
pub mod column;
pub mod database;
pub mod engine;
pub mod error;
pub mod eval;
pub mod materialize;
pub mod relation;
#[cfg(test)]
mod relation_model;
pub mod value;

pub use canonical::{canonical_database, freeze_term, unfreeze_value};
pub use column::Column;
pub use database::Database;
pub use engine::{current_engine, install, Engine};
pub use error::EngineError;
pub use eval::{
    evaluate, execute_annotated, execute_ordered, try_evaluate, try_execute_annotated,
    try_execute_ordered, AnnotatedStep, ExecutionTrace,
};
pub use materialize::materialize_views;
pub use relation::{Relation, Tuple};
pub use value::Value;
