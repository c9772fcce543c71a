//! Static analysis over `viewplan` query/view programs.
//!
//! A diagnostic engine over parsed `.vp` programs: it takes a
//! [`viewplan_cq::Program`] (whose parser records a byte-range
//! [`viewplan_cq::Span`] for every head and body atom) plus a [`Layout`]
//! saying which rules are queries and which define views, and emits
//! coded, span-carrying [`Diagnostic`]s:
//!
//! * **VP001** (error) — a predicate used with inconsistent arities;
//! * **VP002** — constant or repeated variable in a rule head;
//! * **VP003** — disconnected rule body (cartesian product);
//! * **VP004** — duplicate or homomorphically subsumed subgoal;
//! * **VP005** — query subgoal no view covers ⇒ no complete rewriting
//!   exists (Lemma 3.2);
//! * **VP006** — a view that can never participate in a rewriting
//!   (foreign predicates / conflicting constants ⇒ zero view tuples;
//!   or MiniCon-style distinguished-variable export impossible ⇒
//!   filter-only);
//! * **VP007** — predicted search-space blowup (subgoal count beyond
//!   the cover bitmasks, or too many candidate homomorphisms).
//!
//! Only VP001 is an error; the CLI's `check` command exits 2 exactly
//! when errors are present, and the processing commands
//! (`rewrite`/`plan`/`eval`/`batch`/`serve`) refuse to run such
//! programs. [`render_human`] produces rustc-style colored output with
//! `line:column` and an underline; [`render_json`] a stable JSON
//! document for editors and CI.
//!
//! The VP006 *foreign predicate* condition doubles as the rewriter's
//! pruning pre-pass (see `viewplan_core::view_is_unusable`): dropping such a view
//! before view-tuple construction provably cannot change the rewriting
//! set, because no homomorphism from its body into the canonical
//! database exists.

#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod checks;
mod diagnostics;
mod render;

pub use checks::{
    analyze, analyze_errors, validate_query_against_views, validate_query_arities, Layout,
};
pub use diagnostics::{Analysis, Diagnostic};
pub use render::{render_human, render_json, render_summary};
