//! The batch server: canonicalize → (cached) CoreCover → the caller's
//! own variable names.
//!
//! One [`BatchServer`] owns everything shareable across a stream of
//! queries against a fixed view set:
//!
//! * the [`PreparedViews`] — the query-independent §5.2 preprocessing,
//!   computed once at construction and read read-only by every worker;
//! * the [`RewritingCache`] — answers keyed on the query canonicalized
//!   up to variable renaming.
//!
//! **The byte-identity argument.** Every request — cold or warm, serial
//! or on a pool worker — takes the same three steps:
//!
//! 1. arrive at the query in dense variable names (`__c0`, `__c1`, … by
//!    first occurrence) with the caller's spellings set aside: the
//!    command path *parses* into them
//!    ([`viewplan_containment::parse_canonical`] — a served query never
//!    exists in any other form), a library caller's `ConjunctiveQuery` is
//!    renamed into them ([`canonicalize`]); the two agree by
//!    construction, first occurrence being textual order;
//! 2. obtain the answer *for the canonical query* — by computing it, or
//!    by finding the identical canonical query in the cache;
//! 3. fill the canonical answer's template with the request's own
//!    spellings: a pure function of the stored value and the request.
//!    ([`BatchServer::serve`], whose callers want `Rewriting`s rather
//!    than text, renames the stored rewritings through the inverse
//!    substitution instead — the same function, structured; rendering
//!    its result prints exactly the filled template, which
//!    `tests/differential_wire.rs` holds it to.)
//!
//! Step 2 never sees the caller's variable names, so whether the answer
//! was computed now or cached earlier by a differently-named variant
//! cannot influence it: both paths hold the same canonical-space value
//! (the pipeline is deterministic and runs on the request's one
//! thread). Step 3 is a pure function of that value and the
//! request's own renaming. A warm hit is therefore byte-identical to a
//! cold run *by construction* — no renaming-equivariance assumption
//! about the pipeline internals is needed. The differential tests at the
//! workspace root check the claim end to end.
//!
//! Completeness and budgets: each request runs under its own budget
//! built from [`ServeConfig::budget`], and the answer carries the
//! honest [`Completeness`] marker from generation + planning. Incomplete
//! answers are served but never cached (see [`crate::cache`]).

use std::sync::Arc;
use std::time::{Duration, Instant};
use viewplan_containment::{canonicalize, CanonicalParse, CanonicalQuery};
use viewplan_core::{parallel_map, CoreCover, CoreCoverConfig, PreparedViews, Rewriting};
use viewplan_cost::{CostModel, Optimizer, PhysicalPlan, PlanError, PlannedRewriting, SizeOracle};
use viewplan_cq::{Atom, ConjunctiveQuery, Spelled, Substitution, Symbol, Term, ViewSet};
use viewplan_engine::{AnnotatedStep, Engine};
use viewplan_obs as obs;
use viewplan_obs::budget::BudgetSpec;
use viewplan_obs::Completeness;

use crate::cache::{CacheProbe, RewritingCache};
use crate::template::{write_answer, Template};

/// Serving knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Generate the full CoreCover* space (all minimal rewritings,
    /// Theorem 5.1) instead of only the GMRs (Theorem 4.1).
    pub all_minimal: bool,
    /// CoreCover configuration for the generator.
    pub corecover: CoreCoverConfig,
    /// Per-request budget: a fresh budget is built from this spec for
    /// every request, so each gets its own deadline/node caps.
    pub budget: BudgetSpec,
    /// Rewriting-cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Read by nothing: the served path matches view tuples and plans
    /// under M1, it executes no plan. The field stays only because the
    /// frozen `benchmark/src/workloads/serve.rs` names it; it goes with
    /// ROADMAP item 1(b).
    pub engine: Engine,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            all_minimal: false,
            corecover: CoreCoverConfig::default(),
            budget: BudgetSpec::new(),
            cache_capacity: 4096,
            engine: Engine::default(),
        }
    }
}

/// The canonical-space answer for one canonical query — the unit the
/// cache stores, twice over: structured (what the catalog's invalidation
/// predicate reads and [`BatchServer::serve`] renames into a
/// [`ServedAnswer`]) and as the wire body with its variables left open
/// (what the command path fills, [`CachedAnswer::body`]). The two are
/// built together and cannot be changed apart.
#[derive(Clone, Debug)]
pub struct CachedAnswer {
    rewritings: Vec<Rewriting>,
    best: Option<PlannedRewriting>,
    completeness: Completeness,
    template: Template,
}

impl CachedAnswer {
    /// The answer to `canonical` — a query in canonical variables, whose
    /// first-occurrence order numbers the names [`CachedAnswer::body`]
    /// takes.
    pub fn new(
        canonical: &ConjunctiveQuery,
        rewritings: Vec<Rewriting>,
        best: Option<PlannedRewriting>,
        completeness: Completeness,
    ) -> CachedAnswer {
        CachedAnswer {
            template: Template::build(canonical, &rewritings, best.as_ref(), completeness),
            rewritings,
            best,
            completeness,
        }
    }

    /// Generated rewritings, in canonical variables.
    pub fn rewritings(&self) -> &[Rewriting] {
        &self.rewritings
    }

    /// The chosen (M1) plan, in canonical variables.
    pub fn best(&self) -> Option<&PlannedRewriting> {
        self.best.as_ref()
    }

    /// Honesty marker for generation + planning.
    pub fn completeness(&self) -> Completeness {
        self.completeness
    }

    /// The answer's wire body — byte for byte what
    /// [`ServedAnswer::render`] prints — for a request that spelled the
    /// canonical query's `i`-th variable `names[i]`.
    ///
    /// # Panics
    /// Panics if `names` is shorter than the canonical query's variable
    /// list.
    pub fn body(&self, names: &[&str]) -> String {
        self.template.fill(names)
    }
}

/// One request's answer, in the caller's own variable names.
#[derive(Clone, Debug)]
pub struct ServedAnswer {
    /// Generated rewritings (GMRs, or all minimal under `all_minimal`).
    pub rewritings: Vec<Rewriting>,
    /// The chosen plan under cost model M1.
    pub best: Option<PlannedRewriting>,
    /// Whether any budget truncated the work behind this answer.
    pub completeness: Completeness,
    /// Observability only: whether the answer came from the cache. This
    /// field is deliberately excluded from [`ServedAnswer::render`] —
    /// under concurrency two workers can race the same miss, so it is
    /// not deterministic, unlike everything else here.
    pub from_cache: bool,
    /// The catalog epoch of the snapshot that answered this request
    /// (0 for static deployments). Excluded from [`ServedAnswer::render`]
    /// like `from_cache`: under a live catalog the serving epoch depends
    /// on request/DDL interleaving, but the rendered answer for a given
    /// catalog *state* does not.
    pub epoch: u64,
}

impl ServedAnswer {
    /// Deterministic rendering: the bytes the differential and golden
    /// tests compare. Everything except `from_cache`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        // A `String` sink never fails.
        let _ = write_answer(
            &mut Spelled::interned(&mut out),
            &self.rewritings,
            self.best.as_ref(),
            self.completeness,
        );
        out
    }
}

/// One request's answer as the command path replies with it: the header
/// fields and the rendered body, in the request's own spellings. What
/// [`ServedAnswer`] is to a library caller.
#[derive(Clone, Debug)]
pub struct WireAnswer {
    /// The catalog epoch of the snapshot that answered.
    pub epoch: u64,
    /// Whether any budget truncated the work behind this answer.
    pub completeness: Completeness,
    /// Observability only: whether the answer came from the cache.
    pub from_cache: bool,
    /// The bytes [`ServedAnswer::render`] would print for this request.
    pub body: String,
}

/// M1 planning never consults the oracle; this satisfies the optimizer's
/// signature without pretending data exists.
struct NullOracle;

impl SizeOracle for NullOracle {
    fn relation_size(&mut self, _atom: &Atom) -> f64 {
        0.0
    }

    fn intermediate_size(
        &mut self,
        _body: &[Atom],
        _mask: u32,
        _retained: &std::collections::BTreeSet<Symbol>,
    ) -> f64 {
        0.0
    }
}

/// A multi-query server over one view set. Construct once, then call
/// [`BatchServer::serve`] per query or [`BatchServer::serve_batch`] for
/// a whole stream; the server is `Sync` and shares its prepared views
/// and cache across the worker pool by reference.
pub struct BatchServer {
    prepared: Arc<PreparedViews>,
    config: ServeConfig,
    cache: Option<Arc<RewritingCache>>,
}

impl BatchServer {
    /// A server with the default configuration.
    pub fn new(views: &ViewSet) -> BatchServer {
        BatchServer::with_config(views, ServeConfig::default())
    }

    /// A server with explicit configuration. The per-view-set
    /// preprocessing runs here, once.
    pub fn with_config(views: &ViewSet, config: ServeConfig) -> BatchServer {
        let prepared = Arc::new(PreparedViews::prepare(views));
        let cache = (config.cache_capacity > 0)
            .then(|| Arc::new(RewritingCache::new(config.cache_capacity)));
        BatchServer {
            prepared,
            config,
            cache,
        }
    }

    /// Assembles a server from an already-prepared snapshot and an
    /// (optionally shared) cache. This is the live catalog's swap
    /// constructor: on `add-view`/`drop-view` it prepares the new view
    /// set off the hot path, then builds the next server around the
    /// *same* cache so revalidated entries keep paying off across the
    /// epoch boundary.
    pub fn from_parts(
        prepared: Arc<PreparedViews>,
        config: ServeConfig,
        cache: Option<Arc<RewritingCache>>,
    ) -> BatchServer {
        BatchServer {
            prepared,
            config,
            cache,
        }
    }

    /// The view set this server answers over.
    pub fn views(&self) -> &ViewSet {
        self.prepared.views()
    }

    /// The prepared snapshot this server answers from.
    pub fn prepared(&self) -> &Arc<PreparedViews> {
        &self.prepared
    }

    /// This server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The catalog epoch of this server's snapshot (0 unless constructed
    /// by the live catalog).
    pub fn epoch(&self) -> u64 {
        self.prepared.epoch()
    }

    /// The rewriting cache, when caching is enabled.
    pub fn cache(&self) -> Option<&RewritingCache> {
        self.cache.as_deref()
    }

    /// A shareable handle to the cache, for the live catalog's swap path.
    pub fn cache_handle(&self) -> Option<Arc<RewritingCache>> {
        self.cache.clone()
    }

    /// Rejects queries that are ill-typed against this server's view
    /// set — before canonicalization, before the cache. An
    /// arity-mismatched query would otherwise pollute the canonical key
    /// space with entries that can only ever answer "no rewriting" (and,
    /// worse, teach callers that the mismatch was meaningful). Callers
    /// should gate [`BatchServer::serve`] on this for untrusted input.
    /// Reads the snapshot's arity map, so the cost does not depend on the
    /// size of the catalog.
    pub fn validate(&self, query: &ConjunctiveQuery) -> Result<(), String> {
        viewplan_analyze::validate_query_arities(query, self.prepared.index())
    }

    /// Answers one query: canonicalize, hit the cache or run the
    /// pipeline over the prepared views, denormalize.
    pub fn serve(&self, query: &ConjunctiveQuery) -> Result<ServedAnswer, PlanError> {
        self.serve_with_spec(query, &self.config.budget)
    }

    /// [`BatchServer::serve`] under an explicit per-request budget spec.
    pub fn serve_with_spec(
        &self,
        query: &ConjunctiveQuery,
        spec: &BudgetSpec,
    ) -> Result<ServedAnswer, PlanError> {
        let c = canonicalize(query);
        self.serve_inner(c.canonical, &c.key, spec, |answer, from_cache, epoch| {
            denormalize(answer, &c.from_canonical, from_cache, epoch)
        })
    }

    /// The command path's [`BatchServer::serve_with_spec`]: `parsed` is
    /// what [`viewplan_containment::parse_canonical`] made of the request,
    /// key included, and the answer is its wire body — the stored
    /// template filled with the request's names, no rewriting renamed or
    /// printed. Each request's budget is the configured default clamped
    /// to its remaining network deadline.
    pub(crate) fn serve_canonical(
        &self,
        parsed: CanonicalParse<'_>,
        spec: &BudgetSpec,
    ) -> Result<WireAnswer, PlanError> {
        let CanonicalParse {
            canonical,
            key,
            names,
        } = parsed;
        self.serve_inner(canonical, &key, spec, |answer, from_cache, epoch| {
            let body = answer.body(&names);
            obs::histogram!("serve.reply_bytes").record(body.len() as u64);
            WireAnswer {
                epoch,
                completeness: answer.completeness,
                from_cache,
                body,
            }
        })
    }

    /// The one place a request is counted, timed and answered. `finish`
    /// is the only step that differs between callers: it turns the
    /// shared canonical answer into what this request asked for, in this
    /// request's names.
    fn serve_inner<T>(
        &self,
        canonical: ConjunctiveQuery,
        key: &CanonicalQuery,
        spec: &BudgetSpec,
        finish: impl FnOnce(&CachedAnswer, bool, u64) -> T,
    ) -> Result<T, PlanError> {
        let _span = obs::span("serve.request");
        obs::counter!("serve.requests").incr();
        let started = obs::enabled().then(Instant::now);
        let epoch = self.epoch();
        let out = self
            .probe_or_compute(canonical, key, spec, epoch)
            .map(|(answer, from_cache)| finish(&answer, from_cache, epoch));
        if let Some(started) = started {
            obs::histogram!("serve.request_latency_us")
                .record(started.elapsed().as_micros() as u64);
        }
        out
    }

    /// The canonical answer and whether the cache had it.
    fn probe_or_compute(
        &self,
        canonical: ConjunctiveQuery,
        key: &CanonicalQuery,
        spec: &BudgetSpec,
        epoch: u64,
    ) -> Result<(Arc<CachedAnswer>, bool), PlanError> {
        let Some(cache) = &self.cache else {
            return Ok((Arc::new(self.compute(&canonical, spec)?), false));
        };
        // Single-flight probe: concurrent requests for the same canonical
        // query elect one leader; the rest wait for its answer instead of
        // recomputing it (the duplicate-miss fix, model-checked in
        // tests/model_interleavings.rs).
        match cache.get_or_join(key, epoch) {
            CacheProbe::Hit(hit) => Ok((hit, true)),
            CacheProbe::Miss(flight) => {
                // A compute error drops `flight` unpublished, aborting
                // the flight so waiting followers recompute for
                // themselves rather than inheriting the failure.
                let computed = Arc::new(self.compute(&canonical, spec)?);
                // The cache itself refuses incomplete answers (poisoning
                // rule), so a truncated compute is served — and shared
                // with no one — but not stored.
                flight.publish(canonical, computed.clone());
                Ok((computed, false))
            }
        }
    }

    /// Answers a stream of queries on up to `threads` workers, one
    /// request per worker at a time — the product's one fan-out site
    /// (the pool is order-preserving and deterministic at any thread
    /// count; a request itself never leaves its thread). Each answer
    /// comes with the time its request took. The prepared views and
    /// cache are shared read-only/lock-sharded.
    pub fn serve_batch(
        &self,
        queries: &[ConjunctiveQuery],
        threads: usize,
    ) -> Vec<(Result<ServedAnswer, PlanError>, Duration)> {
        let _span = obs::span("serve.batch");
        parallel_map(threads, queries, |q| {
            let started = Instant::now();
            let result = self.serve(q);
            (result, started.elapsed())
        })
    }

    /// The cache-miss path: generation over prepared views + M1
    /// planning, all in canonical variable space, under this request's
    /// own budget.
    fn compute(
        &self,
        canonical: &ConjunctiveQuery,
        spec: &BudgetSpec,
    ) -> Result<CachedAnswer, PlanError> {
        let _span = obs::span("serve.compute");
        let _budget = (!spec.is_unlimited()).then(|| obs::budget::install(spec.build()));
        let generator = CoreCover::with_prepared_views(canonical, &self.prepared)
            .with_config(self.config.corecover.clone());
        let result = if self.config.all_minimal {
            generator.try_run_all_minimal()?
        } else {
            generator.try_run()?
        };
        let rewritings = result.rewritings().to_vec();
        let outcome = Optimizer::new(canonical, self.prepared.views()).try_plan_generated(
            CostModel::M1,
            result,
            &mut NullOracle,
        )?;
        Ok(CachedAnswer::new(
            canonical,
            rewritings,
            outcome.best,
            outcome.completeness,
        ))
    }
}

/// Renames a canonical-space answer into the request's variable names —
/// a pure function of the stored value and the request's inverse
/// substitution, identical whether the value was computed or cached.
fn denormalize(
    answer: &CachedAnswer,
    back: &Substitution,
    from_cache: bool,
    epoch: u64,
) -> ServedAnswer {
    let rename_var = |v: Symbol| match back.get(v) {
        Some(Term::Var(w)) => w,
        _ => v,
    };
    ServedAnswer {
        rewritings: answer.rewritings.iter().map(|r| r.apply(back)).collect(),
        best: answer.best.as_ref().map(|p| PlannedRewriting {
            rewriting: p.rewriting.apply(back),
            plan: PhysicalPlan {
                steps: p
                    .plan
                    .steps
                    .iter()
                    .map(|s| AnnotatedStep {
                        atom: s.atom.apply(back),
                        drop_after: s.drop_after.iter().map(|&v| rename_var(v)).collect(),
                    })
                    .collect(),
            },
            cost: p.cost,
        }),
        completeness: answer.completeness,
        from_cache,
        epoch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_cq::{parse_query, parse_views};
    use viewplan_obs::budget::{Fault, FaultPoint};

    /// Example 4.1 of the paper.
    fn example41_views() -> ViewSet {
        parse_views(
            "v1(A, B) :- a(A, B), a(B, B).\n\
             v2(C, D) :- a(C, E), b(C, D).",
        )
        .unwrap()
    }

    #[test]
    fn serve_answers_in_the_callers_variables() {
        let server = BatchServer::new(&example41_views());
        let q = parse_query("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)").unwrap();
        let a = server.serve(&q).unwrap();
        assert_eq!(a.rewritings.len(), 1);
        assert_eq!(a.rewritings[0].to_string(), "q(X, Y) :- v1(X, Z), v2(Z, Y)");
        assert_eq!(a.best.as_ref().unwrap().cost, 2.0);
        assert_eq!(a.completeness, Completeness::Complete);
        assert!(!a.from_cache);
        assert_eq!(a.epoch, 0, "static deployments stay at epoch 0");
        assert_eq!(server.epoch(), 0);
    }

    #[test]
    fn warm_hit_is_byte_identical_for_renamed_variants() {
        let server = BatchServer::new(&example41_views());
        let cold_server = BatchServer::with_config(
            &example41_views(),
            ServeConfig {
                cache_capacity: 0,
                ..ServeConfig::default()
            },
        );
        let q1 = parse_query("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)").unwrap();
        let q2 = parse_query("q(U, W) :- a(U, T), a(T, T), b(T, W)").unwrap();
        let miss = server.serve(&q1).unwrap();
        let hit = server.serve(&q2).unwrap();
        assert!(!miss.from_cache);
        assert!(hit.from_cache);
        let cold = cold_server.serve(&q2).unwrap();
        assert_eq!(hit.render(), cold.render());
        assert_eq!(
            hit.rewritings[0].to_string(),
            "q(U, W) :- v1(U, T), v2(T, W)"
        );
        assert_eq!(server.cache().unwrap().stats().hits, 1);
    }

    #[test]
    fn the_command_path_replies_with_the_structured_answer_rendered() {
        let catalog = crate::LiveCatalog::new(&example41_views(), ServeConfig::default());
        let structured = BatchServer::with_config(
            &example41_views(),
            ServeConfig {
                cache_capacity: 0,
                ..ServeConfig::default()
            },
        );
        for (cached, rule) in [
            (false, "q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)"),
            (true, "q(Y, X) :- a(Y, Zed), a(Zed, Zed), b(Zed, X)"),
        ] {
            let expected = structured.serve(&parse_query(rule).unwrap()).unwrap();
            let reply = crate::respond(&format!("query {rule}"), &catalog, None, None);
            assert_eq!(
                reply.to_string(),
                format!(
                    "ok epoch=0 completeness=complete cached={cached}\n{}",
                    expected.render()
                )
            );
        }
    }

    #[test]
    fn truncated_answers_are_served_but_never_cached() {
        // A deterministic fault exhausts the first homomorphism search
        // of every request's budget, so each compute comes back
        // truncated — and the poisoning rule keeps it out of the cache.
        let config = ServeConfig {
            budget: BudgetSpec::new().node_budget(u64::MAX).fault(Fault {
                point: FaultPoint::Hom,
                nth: 1,
            }),
            ..ServeConfig::default()
        };
        let server = BatchServer::with_config(&example41_views(), config);
        let q = parse_query("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)").unwrap();
        for _ in 0..2 {
            let a = server.serve(&q).unwrap();
            assert_eq!(a.completeness, Completeness::Truncated);
            assert!(!a.from_cache, "a truncated answer must not be cached");
        }
        let stats = server.cache().unwrap().stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.rejected_incomplete, 2);
    }

    #[test]
    fn an_exhausted_budget_does_not_outlive_its_request() {
        // One thread, so one context slot — a connection thread that
        // lives on after a request whose budget ran out.
        let server = BatchServer::new(&example41_views());
        let q = parse_query("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)").unwrap();
        let faulty = BudgetSpec::new().fault(Fault {
            point: FaultPoint::Hom,
            nth: 1,
        });
        let cut = server.serve_with_spec(&q, &faulty).unwrap();
        assert_eq!(cut.completeness, Completeness::Truncated);
        let whole = server.serve_with_spec(&q, &BudgetSpec::new()).unwrap();
        assert_eq!(whole.completeness, Completeness::Complete);
        assert!(!whole.from_cache, "the truncated answer was not stored");
        assert_eq!(obs::budget::snapshot(), Default::default());
    }

    #[test]
    fn batch_results_match_serial_at_any_thread_count() {
        let views = example41_views();
        let queries: Vec<ConjunctiveQuery> = (0..12)
            .map(|i| {
                // Rotate through renamed variants and a second shape.
                if i % 3 == 0 {
                    parse_query("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)").unwrap()
                } else {
                    parse_query(&format!(
                        "q(P{i}, Q{i}) :- a(P{i}, R{i}), a(R{i}, R{i}), b(R{i}, Q{i})"
                    ))
                    .unwrap()
                }
            })
            .collect();
        let reference: Vec<String> = BatchServer::new(&views)
            .serve_batch(&queries, 1)
            .into_iter()
            .map(|(r, _)| r.unwrap().render())
            .collect();
        for threads in [2, 8] {
            let out: Vec<String> = BatchServer::new(&views)
                .serve_batch(&queries, threads)
                .into_iter()
                .map(|(r, _)| r.unwrap().render())
                .collect();
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn validate_rejects_arity_mismatches_before_the_cache() {
        let server = BatchServer::new(&example41_views());
        let bad = parse_query("q(X) :- a(X, X, X)").unwrap();
        let err = server.validate(&bad).unwrap_err();
        assert!(err.contains("VP001"), "{err}");
        let ok = parse_query("q(X) :- a(X, X)").unwrap();
        assert!(server.validate(&ok).is_ok());
        // Nothing above touched the cache.
        assert_eq!(server.cache().unwrap().stats().entries, 0);
    }

    #[test]
    fn unanswerable_query_renders_no_rewriting() {
        let server = BatchServer::new(&example41_views());
        let q = parse_query("q(X) :- zzz(X, X)").unwrap();
        let a = server.serve(&q).unwrap();
        assert!(a.rewritings.is_empty());
        assert!(a.best.is_none());
        assert!(a.render().starts_with("no equivalent rewriting"));
    }
}
