//! Workload generation for the paper's experiments (§7).
//!
//! The paper's query generator takes: number of base relations, attributes
//! per relation, number of views, subgoals per view, subgoals per query,
//! and the shape of queries and views (chain / star / random, after
//! Steinbrunn et al. \[23\]). Queries and views share parameters except
//! subgoal counts; views are generated as sub-patterns of the query (chain
//! segments, star subsets, random subsets) so that rewritings exist for
//! most seeds — queries without rewritings are discarded by the harness,
//! exactly as the paper does ("we ignored queries that did not have
//! rewritings").
//!
//! Everything is deterministic in the seed ([`rand::rngs::StdRng`]), so
//! experiment CSVs are reproducible run to run.

#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod database;
mod generator;

pub use database::random_database;
pub use generator::{generate, Shape, Workload, WorkloadConfig};
