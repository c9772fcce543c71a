//! `viewplan` — generating efficient plans for queries using views.
//!
//! A Rust reproduction of *"Generating Efficient Plans for Queries Using
//! Views"* (Chen Li, Foto N. Afrati, Jeffrey D. Ullman; ACM SIGMOD 2001):
//! equivalent rewritings of conjunctive queries over materialized views
//! under the closed-world assumption, with the `CoreCover` /
//! `CoreCover*` algorithms, cost models **M1** (subgoal count), **M2**
//! (relation + intermediate sizes), and **M3** (generalized supplementary
//! relations with the §6.2 attribute-dropping heuristic).
//!
//! This facade re-exports the whole workspace:
//!
//! * [`cq`] — conjunctive queries, views, parser;
//! * [`analyze`] — the static-analysis pass (VP001–VP007 diagnostics)
//!   behind `viewplan check` and the processing commands' input gate;
//! * [`containment`] — containment mappings, equivalence, minimization,
//!   expansion;
//! * [`engine`] — the in-memory relational engine and canonical databases;
//! * [`core`] — `CoreCover`, tuple-cores, the rewriting lattice, and the
//!   naive / MiniCon baselines;
//! * [`cost`] — cost models, size oracles, plan search, the optimizer;
//! * [`serve`] — the batched multi-query serving layer: prepared view
//!   sets shared across workers and the canonical-key rewriting cache;
//! * [`workload`] — the §7 star/chain/random generators;
//! * [`obs`] — the metrics registry, span timers, and stats reporters
//!   behind the CLI's `--stats` / `--stats-json` flags;
//! * [`cli`] — the `viewplan` command line itself, callable in process.
//!
//! # Quickstart
//!
//! ```
//! use viewplan::prelude::*;
//!
//! // The paper's running "car-loc-part" example (Example 1.1).
//! let query = parse_query(
//!     "q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C)",
//! ).unwrap();
//! let views = parse_views("
//!     v1(M, D, C)    :- car(M, D), loc(D, C).
//!     v2(S, M, C)    :- part(S, M, C).
//!     v3(S)          :- car(M, anderson), loc(anderson, C), part(S, M, C).
//!     v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).
//!     v5(M, D, C)    :- car(M, D), loc(D, C).
//! ").unwrap();
//!
//! // The globally-minimal rewriting is P4: one access to v4.
//! let result = CoreCover::new(&query, &views).run();
//! assert_eq!(result.rewritings().len(), 1);
//! assert_eq!(
//!     result.rewritings()[0].to_string(),
//!     "q1(S, C) :- v4(M, anderson, C, S)",
//! );
//! ```

pub mod cli;
pub mod explain;

pub use viewplan_analyze as analyze;
pub use viewplan_containment as containment;
pub use viewplan_core as core;
pub use viewplan_cost as cost;
pub use viewplan_cq as cq;
pub use viewplan_engine as engine;
pub use viewplan_extended as extended;
pub use viewplan_obs as obs;
pub use viewplan_serve as serve;
pub use viewplan_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use viewplan_containment::{
        are_equivalent, expand, install_acyclic, is_contained_in, is_variant, minimize,
    };
    pub use viewplan_core::{
        is_locally_minimal, minicon_rewritings, naive_gmrs, tuple_core, view_tuples, CoreCover,
        CoreCoverConfig, MiniCon,
    };
    pub use viewplan_cost::{
        optimal_m2_order, optimal_m3_plan, Catalog, CostModel, DropPolicy, EstimateOracle,
        ExactOracle, Optimizer, OptimizerConfig, PhysicalPlan, SizeOracle,
    };
    pub use viewplan_cq::{
        hypertree_width_estimate, is_acyclic, join_forest, parse_atom, parse_query, parse_views,
        Atom, ConjunctiveQuery, Substitution, Symbol, Term, View, ViewSet,
    };
    pub use viewplan_engine::{
        canonical_database, evaluate, execute_annotated, execute_ordered, materialize_views,
        try_evaluate, try_execute_annotated, try_execute_ordered, Database, Engine, EngineError,
        Relation, Value,
    };
    pub use viewplan_serve::{BatchServer, ServeConfig, ServedAnswer};
    pub use viewplan_workload::{generate, random_database, Shape, Workload, WorkloadConfig};
}
