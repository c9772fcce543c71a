//! Batched multi-query serving (the deployment shape of the paper's
//! pipeline).
//!
//! The CoreCover/CoreCover* pipeline does its expensive work per query,
//! but a deployment sees *streams* of queries over a mostly-stable view
//! set. This crate amortizes across the stream and hardens the result
//! into a real network server:
//!
//! * [`BatchServer`] — owns the per-view-set preprocessing
//!   ([`viewplan_core::PreparedViews`], computed once) and answers
//!   queries one at a time or in parallel batches over the PR 2 worker
//!   pool;
//! * [`RewritingCache`] — a bounded, sharded LRU cache of answers keyed
//!   on queries canonicalized up to variable renaming, epoch-versioned
//!   for the live catalog, with the poisoning rule that budget-truncated
//!   answers are never stored;
//! * [`LiveCatalog`] — online `add-view`/`drop-view` via epoch-versioned
//!   `Arc` snapshot swaps (one writer, many lock-free readers) with
//!   principled cache invalidation;
//! * [`AdmissionGate`] — bounded, deadline-aware admission with honest
//!   load shedding ([`Completeness`](viewplan_obs::Completeness) on
//!   every shed, never silence);
//! * [`command`] — the one command grammar (`query` / `add-view` /
//!   `drop-view` / `epoch` / `ping` / `shutdown`), parsed and run in one
//!   place for the TCP and stdin front-ends;
//! * [`NetServer`] — a thread-per-connection TCP front-end framing that
//!   grammar in the length-prefixed [`net`] protocol, with read/write
//!   timeouts, idle-connection reaping, graceful drain on shutdown, and
//!   serving-layer fault injection ([`fault`]).
//!
//! The correctness contract — a cached/batched answer is byte-identical
//! to a cold single-query run *against the epoch that served it* — is
//! established by construction (arrive in canonical space → compute/hit
//! there → put the request's own names back, by filling the stored
//! answer's template on the command path or by renaming its rewritings
//! for library callers; see [`batch`]) and enforced end to end by the
//! workspace's differential tests.

pub mod admission;
pub mod batch;
pub mod cache;
pub mod catalog;
pub mod command;
pub mod fault;
pub mod net;
mod template;

pub use admission::{AdmissionGate, ShedReason};
pub use batch::{BatchServer, CachedAnswer, ServeConfig, ServedAnswer, WireAnswer};
pub use cache::{CacheProbe, CacheStats, FlightGuard, RetargetOutcome, RewritingCache};
pub use catalog::{DdlOutcome, LiveCatalog};
pub use command::{respond, Reply};
pub use fault::ServeFaults;
pub use net::{NetConfig, NetServer};
