//! **CoreCover** — the paper's primary contribution.
//!
//! Given a conjunctive query `Q` and a set of materialized views `V`
//! (closed-world), this crate generates *equivalent rewritings* of `Q`
//! over `V`:
//!
//! * [`view_tuples`] — the candidate view literals `T(Q, V)` obtained by
//!   applying the view definitions to the canonical database of the
//!   minimized query (§3.3, Lemma 3.2);
//! * [`tuple_core()`] — the unique maximal set of query subgoals covered by
//!   a view tuple (Definition 4.1, Lemma 4.2);
//! * [`CoreCover`] — all globally-minimal rewritings (GMRs) via minimum
//!   set covers of the query subgoals by tuple-cores (§4, Theorem 4.1,
//!   Corollary 4.1), and all minimal rewritings for cost model M2 via
//!   `CoreCover*` (§5, Theorem 5.1);
//! * [`walk`] — step (5) on demand: covers decided and built only when
//!   a walk by ascending view sizes reaches them;
//! * [`certificate`] — the shared-variable condition Theorem 4.1 needs
//!   for overlapping cores, checked on bitmasks at cover assembly so a
//!   certified cover is a rewriting by construction;
//! * [`classes`] — the concise representation of §5.2: equivalence classes
//!   of views (equivalent as queries) and of view tuples (same
//!   tuple-core), the key to the paper's scalability results;
//! * [`lattice`] — the rewriting taxonomy of §3 (minimal / locally-minimal
//!   / containment-minimal / globally-minimal) and the LMR partial order
//!   of Figure 2;
//! * [`naive`] — the brute-force Theorem 3.1 enumeration, as a baseline;
//! * [`minicon`] — a MiniCon implementation (Pottinger & Levy) adapted to
//!   equivalent rewritings, as the paper's comparison point (§4.3).
//!
//! # Quickstart
//!
//! ```
//! use viewplan_cq::{parse_query, parse_views};
//! use viewplan_core::CoreCover;
//!
//! // Example 4.1 of the paper.
//! let q = parse_query("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)").unwrap();
//! let views = parse_views(
//!     "v1(A, B) :- a(A, B), a(B, B).\n\
//!      v2(C, D) :- a(C, E), b(C, D).",
//! ).unwrap();
//! let result = CoreCover::new(&q, &views).run();
//! let gmrs = result.rewritings();
//! assert_eq!(gmrs.len(), 1);
//! assert_eq!(gmrs[0].to_string(), "q(X, Y) :- v1(X, Z), v2(Z, Y)");
//! ```

pub mod bucket;
pub mod catalog_index;
pub mod certificate;
pub mod classes;
pub mod corecover;
pub mod cover;
pub mod error;
pub mod lattice;
pub mod minicon;
pub mod naive;
pub mod parallel;
pub mod prepared;
pub mod prune;
pub mod rewriting;
pub mod tuple_core;
pub mod view_tuple;
pub mod walk;

pub use bucket::{bucket_rewritings, build_buckets, BucketEntry, Buckets};
pub use catalog_index::CatalogIndex;
pub use classes::{view_equivalence_classes, view_tuple_classes};
pub use corecover::{
    CandidateCover, CandidateVerdict, CoreCover, CoreCoverConfig, CoreCoverResult, CoreCoverStats,
    CoverProvenance, DecidedBy,
};
pub use cover::{
    all_irredundant_covers, all_irredundant_covers_counted, all_minimum_covers, CoverEnumeration,
};
pub use error::{CoreError, MAX_SUBGOALS};
pub use lattice::{
    is_containment_minimal, is_equivalent_rewriting, is_locally_minimal, lmr_partial_order,
};
pub use minicon::{minicon_rewritings, Mcd, MiniCon};
pub use naive::naive_gmrs;
pub use parallel::parallel_map;
pub use prepared::PreparedViews;
pub use prune::{body_signature, view_is_unusable};
pub use rewriting::{dedup_variants, dedup_variants_with_map, Rewriting};
pub use tuple_core::{tuple_core, TupleCore};
pub use view_tuple::{view_tuples, ViewTuple};
pub use walk::{CoverWalk, Found};
