//! The `CoreCover` algorithm (Figure 4) and its `CoreCover*` variant (§5).
//!
//! ```text
//! (1) Minimize Q by removing redundant subgoals → Q_m.
//! (2) Build the canonical database D_Qm; compute T(Q_m, V) by applying
//!     the view definitions to it.
//! (3) For each view tuple, compute its tuple-core.
//! (4) Cover the subgoals of Q_m with the minimum number of nonempty
//!     tuple-cores; each cover yields a globally-minimal rewriting.
//! (5) Decide each cover (below) and build its rewriting.
//! ```
//!
//! `CoreCover*` differs only in step (4): it enumerates *all* irredundant
//! covers, giving all minimal rewritings using view tuples — the space
//! guaranteed to contain an M2-optimal rewriting (Theorem 5.1). View
//! tuples with an *empty* tuple-core are excluded from covering but kept
//! as **filter candidates** (like `v3(S)` in rewriting `P3` of the paper's
//! running example), which the downstream optimizer may graft onto a
//! rewriting when a selective view relation pays for itself.
//!
//! # Certified covers
//!
//! A cover of tuple-cores is a rewriting only if the members' mappings
//! agree on the variables they share (the three-line counterexample is
//! in [`crate::certificate`]). Every deduplicated cover is therefore
//! decided before its rewriting is handed out, the same way in every
//! build profile: first by the bitmask
//! [certificate](crate::certificate::certify) — no expansion, no
//! containment search — and, when the certificate cannot vouch for it,
//! by the oracle (expand the rewriting and test equivalence with the
//! query). A cover of class representatives that fails both is retried
//! with class-mates that expose different variables before it is
//! dropped.
//!
//! # Covers on demand
//!
//! Step (5) runs inside [`CoreCover::run`], and inside
//! [`CoreCover::run_all_minimal`] when a budget is installed or
//! provenance is collected, so that completeness markers and `explain`
//! describe the whole space. Otherwise `CoreCover*` returns its covers
//! unbuilt: the optimizer walks them cheapest view sizes first and
//! builds only those whose sizes can still beat the best plan in hand
//! ([`CoreCoverResult::walk`], [`crate::walk`]), and
//! [`CoreCoverResult::rewritings`] builds and decides the rest on first
//! call. Either way a cover is decided once, and the rewritings are the
//! same.
//!
//! The §5.2 concise representation — views grouped into classes
//! equivalent as queries, view tuples grouped by tuple-core — is on by
//! default and is what makes the algorithm scale to a thousand views
//! (Figures 6–9).

use crate::catalog_index::CatalogIndex;
use crate::classes::{view_equivalence_classes, view_tuple_classes};
use crate::cover::{all_irredundant_covers_counted, all_minimum_covers_counted};
use crate::error::{CoreError, MAX_SUBGOALS};
use crate::prepared::PreparedViews;
use crate::rewriting::Rewriting;
use crate::tuple_core::{Cores, TupleCore};
use crate::view_tuple::{view_tuples_of, ViewTuple};
use crate::walk::{CoverSpace, Fate};
use std::sync::OnceLock;
use viewplan_containment::minimize;
use viewplan_cq::{ConjunctiveQuery, Symbol, Term, ViewSet};
use viewplan_obs as obs;
use viewplan_obs::Completeness;

/// Tuning knobs for [`CoreCover`].
#[derive(Clone, Debug)]
pub struct CoreCoverConfig {
    /// Group views into classes equivalent as queries and use one
    /// representative per class (§5.2 step 1). Default `true`.
    pub group_equivalent_views: bool,
    /// Group view tuples by tuple-core and cover with one representative
    /// per class (§5.2 step 2). Default `true`.
    pub group_view_tuples: bool,
    /// Drop views that provably yield no view tuples (some body atom's
    /// `(predicate, arity)` pair is absent from the minimized query —
    /// the `VP006` analyzer condition, see [`crate::prune`]) before the
    /// view-tuple construction. Output-invariant by construction: such
    /// views contribute nothing to any later step. Counted under
    /// `analyze.views_pruned`. Default `true`.
    pub prune_unusable_views: bool,
    /// Inert: nothing reads it. Every cover is decided by the
    /// certificate or the oracle whatever this says (module docs,
    /// "Certified covers"). The field survives only because
    /// `benchmark/src/workloads/mod.rs` names it and the PR that made it
    /// inert could not edit `benchmark/`; remove both together.
    pub verify_rewritings: bool,
    /// Cap on the number of covers `CoreCover*` enumerates: the first
    /// this many in lexicographic order, before dedup and decision.
    pub max_rewritings: usize,
    /// Inert: nothing reads it. A run is one thread whatever this says
    /// — parallelism lives between requests ([`crate::parallel`]), never
    /// inside one. The field survives only because
    /// `benchmark/src/workloads/mod.rs` names it and the PR that made it
    /// inert could not edit `benchmark/`; remove both together.
    pub threads: usize,
    /// Record per-candidate provenance — which views the VP006 prune
    /// dropped, every candidate cover with its fate (accepted, duplicate
    /// variant, nonequivalent, unverified) and the check that decided it
    /// — in [`CoreCoverResult::provenance`]. Keeps a copy of every
    /// pre-dedup candidate, so leave it off outside `viewplan explain`.
    /// Default `false`.
    pub collect_provenance: bool,
}

impl Default for CoreCoverConfig {
    fn default() -> CoreCoverConfig {
        CoreCoverConfig {
            group_equivalent_views: true,
            group_view_tuples: true,
            prune_unusable_views: true,
            verify_rewritings: false,
            max_rewritings: 10_000,
            threads: 1,
            collect_provenance: false,
        }
    }
}

/// Why the run produced the rewritings it did — collected when
/// [`CoreCoverConfig::collect_provenance`] is on, and rendered by
/// `viewplan explain`.
#[derive(Clone, Debug, Default)]
pub struct CoverProvenance {
    /// Views dropped by the VP006 prune (a body `(predicate, arity)`
    /// pair is absent from the minimized query, so no homomorphism into
    /// the canonical database exists).
    pub pruned_views: Vec<String>,
    /// Representative views that survived grouping and pruning, in view
    /// order.
    pub surviving_views: Vec<String>,
    /// Every candidate cover in enumeration order, with its fate.
    pub candidates: Vec<CandidateCover>,
}

/// One candidate cover and what became of it.
#[derive(Clone, Debug)]
pub struct CandidateCover {
    /// The candidate rewriting built from the cover — after a
    /// successful class-mate retry, the rewriting that passed.
    pub rewriting: Rewriting,
    /// View names used by the cover (body predicates, in body order).
    pub views_used: Vec<String>,
    /// The candidate's fate.
    pub verdict: CandidateVerdict,
    /// The check that decided the verdict; `None` for a duplicate
    /// variant, which is dropped before any check runs.
    pub decided_by: Option<DecidedBy>,
    /// True iff the cover of class representatives failed both checks
    /// and `rewriting` is the first class-mate combination that passed.
    pub retried: bool,
}

/// Which check decided a cover (module docs, "Certified covers").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecidedBy {
    /// The bitmask certificate vouched for it: a rewriting by
    /// construction.
    Certificate,
    /// The certificate could not vouch for it; expansion and the
    /// equivalence test decided.
    Oracle,
}

impl DecidedBy {
    /// `certificate` or `oracle` — the `by` field of the
    /// `corecover.cover_verified` trace event and of `explain --json`.
    pub fn label(self) -> &'static str {
        match self {
            DecidedBy::Certificate => "certificate",
            DecidedBy::Oracle => "oracle",
        }
    }
}

/// The fate of one candidate cover.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CandidateVerdict {
    /// Survived dedup and verification: a genuine equivalent rewriting.
    Accepted,
    /// A variable renaming of candidate `of` (index into
    /// [`CoverProvenance::candidates`]); dropped per the §3.3 convention
    /// that renamings are the same rewriting.
    DuplicateVariant {
        /// Index of the kept candidate this one renames.
        of: usize,
    },
    /// The expansion is provably not equivalent to the query
    /// (overlapping tuple-cores treated a shared variable
    /// inconsistently).
    NotEquivalent,
    /// The equivalence check was cut short by the ambient budget: shed
    /// for lack of proof, not disproved.
    Unverified,
}

/// Counters describing one run (these are the series plotted in the
/// paper's Figures 7 and 9).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreCoverStats {
    /// Number of input views.
    pub views: usize,
    /// Number of view equivalence classes (= `views` when grouping is
    /// off).
    pub view_classes: usize,
    /// Number of view tuples computed from the representative views.
    pub view_tuples: usize,
    /// Number of representative view tuples used for covering
    /// (= `view_tuples` when tuple grouping is off; empty-core classes are
    /// not counted).
    pub representative_tuples: usize,
    /// Number of view tuples with an empty tuple-core (filter candidates).
    pub empty_core_tuples: usize,
    /// Number of rewritings the run itself built: every rewriting of a
    /// run that decides its covers (module docs, "Covers on demand"),
    /// 0 for a `CoreCover*` run that left them unbuilt. The
    /// `corecover.rewritings` counter counts rewritings as they are
    /// built, by the run or by a later walk.
    pub rewritings: usize,
    /// True iff the enumeration was cut short — by
    /// [`CoreCoverConfig::max_rewritings`] or by the ambient budget —
    /// so the rewriting list is a subset of the full space, not the
    /// whole of it.
    pub truncated: bool,
    /// How complete the run was under the ambient
    /// [budget](viewplan_obs::budget): [`Completeness::Complete`] when
    /// nothing was cut short, [`Completeness::Truncated`] when a node
    /// cap or count cap fired (deterministic subset),
    /// [`Completeness::DeadlineExceeded`] when the wall clock fired
    /// (nondeterministic best-so-far). Every rewriting returned is a
    /// genuine equivalent rewriting regardless of this marker.
    pub completeness: Completeness,
}

/// The output of a [`CoreCover`] run.
#[derive(Clone, Debug)]
pub struct CoreCoverResult {
    /// The minimized query the rewritings are equivalent to.
    pub minimized_query: ConjunctiveQuery,
    /// All view tuples of the (representative) views.
    pub view_tuples: Vec<ViewTuple>,
    /// Tuple-cores aligned with `view_tuples`.
    pub cores: Vec<TupleCore>,
    /// View-tuple classes (indices into `view_tuples`), grouped by core.
    pub tuple_classes: Vec<Vec<usize>>,
    /// Run counters.
    pub stats: CoreCoverStats,
    /// Per-candidate provenance; `Some` iff
    /// [`CoreCoverConfig::collect_provenance`] was on.
    pub provenance: Option<CoverProvenance>,
    /// The covers of step (4), each decided on first request.
    pub(crate) space: CoverSpace,
    rewritings: OnceLock<Vec<Rewriting>>,
}

impl CoreCoverResult {
    /// The rewritings found (globally minimal for [`CoreCover::run`], all
    /// minimal for [`CoreCover::run_all_minimal`]), in cover order. A
    /// `CoreCover*` run that left its covers unbuilt builds and decides
    /// them all here, once.
    pub fn rewritings(&self) -> &[Rewriting] {
        self.rewritings.get_or_init(|| {
            (0..self.space.len())
                .filter_map(|c| match self.fate(c) {
                    Fate::Accepted { rewriting, .. } => Some(rewriting.clone()),
                    _ => None,
                })
                .collect()
        })
    }

    /// View tuples with empty tuple-cores — candidates for filtering
    /// subgoals under cost model M2 (§5.1).
    pub fn filter_tuples(&self) -> Vec<&ViewTuple> {
        self.view_tuples
            .iter()
            .zip(&self.cores)
            .filter(|(_, c)| c.is_empty())
            .map(|(t, _)| t)
            .collect()
    }

    /// The §5.2 advantage (4): view tuples interchangeable with `tuple` —
    /// same tuple-core class **and** the same variables of the core
    /// exposed as arguments. Class-mates can differ in what they expose
    /// (`va(P, Y)` and `va2(P, X, Y)` over `e(P, X), g(X, Y)`), and a
    /// rewriting that joins on `X` does not survive that swap, so those
    /// are left out. Lets the optimizer pick the member with the
    /// cheapest view relation.
    pub fn interchangeable_tuples(&self, tuple: &ViewTuple) -> Vec<&ViewTuple> {
        let Some(idx) = self.view_tuples.iter().position(|t| t == tuple) else {
            return Vec::new();
        };
        let exposed = |i: usize| {
            exposed_variables(&self.minimized_query, &self.view_tuples[i], &self.cores[i])
        };
        let signature = exposed(idx);
        self.tuple_classes
            .iter()
            .find(|class| class.contains(&idx))
            .map(|class| {
                class
                    .iter()
                    .filter(|&&i| i != idx && exposed(i) == signature)
                    .map(|&i| &self.view_tuples[i])
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Substitutes `from` with `to` in a rewriting's body. With `to`
    /// taken from [`CoreCoverResult::interchangeable_tuples`] the result
    /// is again a rewriting whenever the original's cover holds a
    /// certificate, which depends only on the cores and what they
    /// expose. A cover only the oracle accepted can rest on parts of a
    /// view outside its tuple-core; re-check such a swap with
    /// [`crate::is_equivalent_rewriting`].
    pub fn swap_tuple(&self, rewriting: &Rewriting, from: &ViewTuple, to: &ViewTuple) -> Rewriting {
        let mut out = rewriting.clone();
        for atom in &mut out.body {
            if *atom == from.atom {
                *atom = to.atom.clone();
            }
        }
        out
    }
}

/// The algorithm driver. See the module docs for the four steps.
pub struct CoreCover<'a> {
    query: &'a ConjunctiveQuery,
    views: &'a ViewSet,
    config: CoreCoverConfig,
    prepared: Option<&'a PreparedViews>,
}

impl<'a> CoreCover<'a> {
    /// Prepares a run with the default configuration.
    pub fn new(query: &'a ConjunctiveQuery, views: &'a ViewSet) -> CoreCover<'a> {
        CoreCover {
            query,
            views,
            config: CoreCoverConfig::default(),
            prepared: None,
        }
    }

    /// Prepares a run over a [`PreparedViews`] set: the §5.2 view
    /// grouping is taken from the precomputed classes instead of being
    /// redone, which is what lets a serving layer amortize the
    /// per-view-set work across a whole query stream. Output is
    /// byte-identical to [`CoreCover::new`] over the same view set.
    pub fn with_prepared_views(
        query: &'a ConjunctiveQuery,
        prepared: &'a PreparedViews,
    ) -> CoreCover<'a> {
        CoreCover {
            query,
            views: prepared.views(),
            config: CoreCoverConfig::default(),
            prepared: Some(prepared),
        }
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: CoreCoverConfig) -> CoreCover<'a> {
        self.config = config;
        self
    }

    /// Runs `CoreCover`: all globally-minimal rewritings.
    ///
    /// # Panics
    /// Panics when the query exceeds [`MAX_SUBGOALS`] subgoals; use
    /// [`CoreCover::try_run`] to get the error instead.
    pub fn run(&self) -> CoreCoverResult {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs `CoreCover*`: all minimal rewritings using view tuples (the
    /// M2 search space of Theorem 5.1), capped at
    /// [`CoreCoverConfig::max_rewritings`].
    ///
    /// # Panics
    /// Panics when the query exceeds [`MAX_SUBGOALS`] subgoals; use
    /// [`CoreCover::try_run_all_minimal`] to get the error instead.
    pub fn run_all_minimal(&self) -> CoreCoverResult {
        self.try_run_all_minimal().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`CoreCover::run`], returning an error instead of panicking on
    /// queries the 64-bit cover masks cannot represent.
    pub fn try_run(&self) -> Result<CoreCoverResult, CoreError> {
        self.run_inner(true)
    }

    /// [`CoreCover::run_all_minimal`], returning an error instead of
    /// panicking on queries the 64-bit cover masks cannot represent.
    pub fn try_run_all_minimal(&self) -> Result<CoreCoverResult, CoreError> {
        self.run_inner(false)
    }

    fn run_inner(&self, minimum_only: bool) -> Result<CoreCoverResult, CoreError> {
        let _run_span = obs::span("corecover.run");
        // Scope completeness classification to this run: the ambient
        // budget handle may carry hits from earlier runs.
        let budget_active = obs::budget::current().is_some();
        let budget_before = obs::budget::snapshot();
        let mut provenance = self
            .config
            .collect_provenance
            .then(CoverProvenance::default);

        // Step 1: minimize the query (times itself as containment.minimize).
        let qm = minimize(self.query);
        // Guard before any mask arithmetic: the cover step encodes subgoal
        // sets as u64 bitmasks, and `1 << i` for i ≥ 64 wraps silently in
        // release builds — report, don't miscompute.
        if qm.body.len() > MAX_SUBGOALS {
            return Err(CoreError::TooManySubgoals {
                subgoals: qm.body.len(),
            });
        }

        // Step 1b (§5.2) and 1c (VP006), through the catalog index — the
        // one a PreparedViews set built once for the whole query stream,
        // or one built here (identical by determinism of the grouping).
        // Grouping restricts the run to one representative per class.
        // Pruning drops views whose body mentions a (predicate, arity)
        // pair absent from the minimized query: such a view admits no
        // homomorphism into the canonical database and therefore yields
        // zero view tuples, so skipping it changes no output. The
        // survivors come from the postings of the query's own pairs.
        // `stats.views`/`stats.view_classes` stay at their pre-pruning
        // values: pruning is an execution shortcut, not a semantic change.
        let group = self.config.group_equivalent_views;
        let views = self.views.as_slice();
        let unprepared;
        let (index, selected, view_classes) = {
            let _span = obs::span("corecover.group_views");
            let (index, class_count) = match self.prepared {
                Some(p) => (p.index(), p.class_count()),
                None => {
                    let classes = if group {
                        view_equivalence_classes(self.views)
                    } else {
                        Vec::new()
                    };
                    unprepared = CatalogIndex::build(self.views, &classes);
                    (&unprepared, classes.len())
                }
            };
            let selected: Vec<usize> = if self.config.prune_unusable_views {
                index.usable_views(&crate::prune::body_signature(&qm), group)
            } else {
                (0..views.len())
                    .filter(|&i| !group || index.is_representative(i))
                    .collect()
            };
            let view_classes = if group { class_count } else { views.len() };
            (index, selected, view_classes)
        };
        if selected.len() < view_classes {
            obs::counter!("analyze.views_pruned").add((view_classes - selected.len()) as u64);
            // Naming the pruned views means walking the catalog, so only
            // a traced or explained run does it.
            if provenance.is_some() || (obs::enabled() && obs::trace::active()) {
                let mut survivors = selected.iter().peekable();
                for (i, view) in views.iter().enumerate() {
                    if (group && !index.is_representative(i)) || survivors.next_if_eq(&&i).is_some()
                    {
                        continue;
                    }
                    obs::trace_event!("analyze.view_pruned", ("view", view.name().as_str()));
                    if let Some(p) = provenance.as_mut() {
                        p.pruned_views.push(view.name().as_str().to_string());
                    }
                }
            }
        }

        if let Some(p) = provenance.as_mut() {
            p.surviving_views = selected
                .iter()
                .map(|&i| views[i].name().as_str().to_string())
                .collect();
        }

        // Step 2: view tuples, each selected view matched on the
        // subgoals of the minimized query; `origin[t]` is the index of
        // the view tuple `t` came from.
        let (tuples, origin) = {
            let _span = obs::span("corecover.view_tuples");
            view_tuples_of(&qm, views, selected)
        };

        // Step 3: tuple-cores; `cores[i]` is the core of `tuples[i]`.
        let (cores, tuple_classes) = {
            let _span = obs::span("corecover.tuple_cores");
            let mut cores_of = Cores::of(&qm);
            let cores: Vec<TupleCore> = tuples
                .iter()
                .zip(&origin)
                .map(|(tuple, &i)| cores_of.core(tuple, &views[i]))
                .collect();
            let classes = view_tuple_classes(&cores);
            (cores, classes)
        };

        // Step 4: cover the query subgoals.
        let universe: u64 = if qm.body.is_empty() {
            0
        } else {
            // `1u64 << 64` overflows, and the MAX_SUBGOALS guard above
            // admits exactly 64 subgoals; shift from the top instead.
            u64::MAX >> (64 - qm.body.len())
        };
        let candidate_indices: Vec<usize> = if self.config.group_view_tuples {
            tuple_classes
                .iter()
                .map(|class| class[0])
                .filter(|&i| !cores[i].is_empty())
                .collect()
        } else {
            (0..tuples.len())
                .filter(|&i| !cores[i].is_empty())
                .collect()
        };
        let masks: Vec<u64> = candidate_indices
            .iter()
            .map(|&i| cores[i].bitmask())
            .collect();
        let (covers, truncated) = {
            let _span = obs::span("corecover.set_cover");
            if minimum_only {
                let e = all_minimum_covers_counted(universe, &masks);
                (e.covers, e.truncated)
            } else {
                let e =
                    all_irredundant_covers_counted(universe, &masks, self.config.max_rewritings);
                (e.covers, e.truncated)
            }
        };

        // Covers as view-tuple indices from here on. Step 5 decides them
        // on demand (crate::walk).
        let covers: Vec<Vec<usize>> = covers
            .into_iter()
            .map(|cover| cover.into_iter().map(|k| candidate_indices[k]).collect())
            .collect();
        let space = {
            let _span = obs::span("corecover.verify");
            CoverSpace::new(
                &qm,
                &tuples,
                &cores,
                &tuple_classes,
                self.views,
                universe,
                covers,
                self.config.group_view_tuples,
            )
        };
        let mut result = CoreCoverResult {
            minimized_query: qm,
            view_tuples: tuples,
            cores,
            tuple_classes,
            stats: CoreCoverStats::default(),
            provenance: None,
            space,
            rewritings: OnceLock::new(),
        };
        // Decided inside the run (module docs, "Covers on demand"). Under
        // a budget a failed oracle check can also mean the equivalence
        // search itself was cut short — a possibly-valid rewriting
        // dropped for lack of proof — so the run is marked truncated.
        let (rewritings, unverified_dropped) =
            if minimum_only || budget_active || provenance.is_some() {
                let _span = obs::span("corecover.verify");
                let built = result.rewritings().len();
                (built, budget_active && result.space.any_rejected())
            } else {
                (0, false)
            };
        if let Some(p) = provenance.as_mut() {
            p.candidates = result.candidates(budget_active);
        }

        let truncated = truncated || unverified_dropped;
        let completeness = obs::budget::completeness_since(budget_before).worst(if truncated {
            Completeness::Truncated
        } else {
            Completeness::Complete
        });
        let stats = CoreCoverStats {
            views: self.views.len(),
            view_classes,
            view_tuples: result.view_tuples.len(),
            representative_tuples: candidate_indices.len(),
            empty_core_tuples: result.cores.iter().filter(|c| c.is_empty()).count(),
            rewritings,
            truncated,
            completeness,
        };
        // Mirror the per-run stats into the global registry so reporters
        // and the bench harness see the same numbers (Figures 7 and 9).
        obs::counter!("corecover.runs").incr();
        obs::counter!("corecover.views").add(stats.views as u64);
        obs::counter!("corecover.view_classes").add(stats.view_classes as u64);
        obs::counter!("corecover.view_tuples").add(stats.view_tuples as u64);
        obs::counter!("corecover.representative_tuples").add(stats.representative_tuples as u64);
        obs::counter!("corecover.empty_core_tuples").add(stats.empty_core_tuples as u64);
        if truncated {
            obs::counter!("corecover.truncated_runs").incr();
        }
        if completeness.is_incomplete() {
            obs::counter!("corecover.incomplete_runs").incr();
        }
        result.stats = stats;
        result.provenance = provenance;
        Ok(result)
    }
}

/// The variables of `core`'s subgoals that `tuple` exposes as arguments,
/// sorted. Two view tuples with the same core and the same exposed
/// variables have the same [`TupleCore::parts`], so a certificate cannot
/// tell them apart.
pub(crate) fn exposed_variables(
    qm: &ConjunctiveQuery,
    tuple: &ViewTuple,
    core: &TupleCore,
) -> Vec<Symbol> {
    let mut exposed: Vec<Symbol> = tuple
        .atom
        .variables()
        .filter(|&v| {
            core.subgoals
                .iter()
                .any(|&g| qm.body[g].terms.contains(&Term::Var(v)))
        })
        .collect();
    exposed.sort();
    exposed.dedup();
    exposed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::is_equivalent_rewriting;
    use viewplan_containment::{are_equivalent, expand};
    use viewplan_cq::{parse_query, parse_views};

    fn carlocpart() -> (ConjunctiveQuery, ViewSet) {
        (
            parse_query("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)").unwrap(),
            parse_views(
                "v1(M, D, C) :- car(M, D), loc(D, C).\n\
                 v2(S, M, C) :- part(S, M, C).\n\
                 v3(S) :- car(M, a), loc(a, C), part(S, M, C).\n\
                 v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).\n\
                 v5(M, D, C) :- car(M, D), loc(D, C).",
            )
            .unwrap(),
        )
    }

    #[test]
    fn carlocpart_gmr_is_p4() {
        // §4.2: the unique minimum cover uses v4(M, a, C, S) → GMR P4.
        let (q, views) = carlocpart();
        let result = CoreCover::new(&q, &views).run();
        let gmrs = result.rewritings();
        assert_eq!(gmrs.len(), 1);
        assert_eq!(gmrs[0].to_string(), "q1(S, C) :- v4(M, a, C, S)");
    }

    #[test]
    fn carlocpart_stats() {
        let (q, views) = carlocpart();
        let result = CoreCover::new(&q, &views).run();
        let s = result.stats;
        assert_eq!(s.views, 5);
        assert_eq!(s.view_classes, 4); // v1 ≡ v5
        assert_eq!(s.view_tuples, 4); // one per representative view
        assert_eq!(s.empty_core_tuples, 1); // v3(S)
        assert_eq!(s.representative_tuples, 3);
        assert_eq!(
            result
                .filter_tuples()
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>(),
            ["v3(S)"]
        );
    }

    #[test]
    fn example41_gmr() {
        let q = parse_query("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)").unwrap();
        let views = parse_views(
            "v1(A, B) :- a(A, B), a(B, B).\n\
             v2(C, D) :- a(C, E), b(C, D).",
        )
        .unwrap();
        let gmrs = CoreCover::new(&q, &views).run();
        assert_eq!(gmrs.rewritings().len(), 1);
        assert_eq!(
            gmrs.rewritings()[0].to_string(),
            "q(X, Y) :- v1(X, Z), v2(Z, Y)"
        );
    }

    #[test]
    fn example42_minicon_comparison_case() {
        // Example 4.2 (k = 3): CoreCover finds the single-subgoal GMR.
        let q = parse_query(
            "q(X, Y) :- a1(X, Z1), b1(Z1, Y), a2(X, Z2), b2(Z2, Y), a3(X, Z3), b3(Z3, Y)",
        )
        .unwrap();
        let views = parse_views(
            "v(X, Y) :- a1(X, Z1), b1(Z1, Y), a2(X, Z2), b2(Z2, Y), a3(X, Z3), b3(Z3, Y).\n\
             v1(X, Y) :- a1(X, Z1), b1(Z1, Y).\n\
             v2(X, Y) :- a2(X, Z2), b2(Z2, Y).",
        )
        .unwrap();
        let gmrs = CoreCover::new(&q, &views).run();
        assert_eq!(gmrs.rewritings().len(), 1);
        assert_eq!(gmrs.rewritings()[0].to_string(), "q(X, Y) :- v(X, Y)");
    }

    #[test]
    fn no_rewriting_gives_empty_result() {
        let q = parse_query("q(X) :- a(X, Y), b(Y, X)").unwrap();
        let views = parse_views("v(A, B) :- a(A, B)").unwrap();
        let result = CoreCover::new(&q, &views).run();
        assert!(result.rewritings().is_empty());
    }

    #[test]
    fn section32_gmr_that_is_not_cmr() {
        // §3.2: Q: q(X) :- e(X, X); V: v(A, B) :- e(A, A), e(A, B).
        // Both P1: q(X) :- v(X, B) and P2: q(X) :- v(X, X) are GMRs.
        let q = parse_query("q(X) :- e(X, X)").unwrap();
        let views = parse_views("v(A, B) :- e(A, A), e(A, B)").unwrap();
        let result = CoreCover::new(&q, &views).run();
        let printed: Vec<String> = result.rewritings().iter().map(|r| r.to_string()).collect();
        // The view-tuple space contains v(X, X) (from the canonical
        // database {e(x, x)}), giving P2. P1 uses a fresh variable B and is
        // outside the view-tuple space — the paper's point that a GMR need
        // not be a CMR, but some view-tuple GMR of the same size exists.
        assert_eq!(printed, ["q(X) :- v(X, X)"]);
    }

    #[test]
    fn all_minimal_includes_non_minimum_rewritings() {
        // Both one chain view covering everything and two half-views exist:
        // CoreCover* returns the 1-subgoal GMR and the 2-subgoal minimal.
        let q = parse_query("q(X, Y) :- e(X, Z), f(Z, Y)").unwrap();
        let views = parse_views(
            "vall(X, Y) :- e(X, Z), f(Z, Y).\n\
             ve(X, Z) :- e(X, Z).\n\
             vf(Z, Y) :- f(Z, Y).",
        )
        .unwrap();
        let gmrs = CoreCover::new(&q, &views).run();
        assert_eq!(gmrs.rewritings().len(), 1);
        let all = CoreCover::new(&q, &views).run_all_minimal();
        let printed: Vec<String> = all.rewritings().iter().map(|r| r.to_string()).collect();
        assert_eq!(printed.len(), 2);
        assert!(printed.contains(&"q(X, Y) :- vall(X, Y)".to_string()));
        assert!(printed.contains(&"q(X, Y) :- ve(X, Z), vf(Z, Y)".to_string()));
    }

    #[test]
    fn grouping_off_recovers_duplicate_rewritings() {
        let (q, views) = carlocpart();
        let config = CoreCoverConfig {
            group_equivalent_views: false,
            group_view_tuples: false,
            ..CoreCoverConfig::default()
        };
        let result = CoreCover::new(&q, &views).with_config(config).run();
        // Without grouping, v1/v5 both produce tuples; the GMR is still
        // unique (v4 covers alone and is the only size-1 cover).
        assert_eq!(result.stats.view_classes, 5);
        assert_eq!(result.stats.view_tuples, 5);
        assert_eq!(result.rewritings().len(), 1);
    }

    #[test]
    fn query_minimization_happens_first() {
        // The redundant subgoal must not inflate the universe.
        let q = parse_query("q(X) :- e(X, Y), e(X, Z)").unwrap();
        let views = parse_views("v(A) :- e(A, B)").unwrap();
        let result = CoreCover::new(&q, &views).run();
        assert_eq!(result.minimized_query.body.len(), 1);
        assert_eq!(result.rewritings().len(), 1);
        assert_eq!(result.rewritings()[0].to_string(), "q(X) :- v(X)");
    }

    #[test]
    fn interchangeable_tuples_swap_into_valid_rewritings() {
        // §5.2 advantage (4): v1 and v5 share a tuple-core class, so the
        // optimizer may swap one for the other in any rewriting.
        let (q, views) = carlocpart();
        let config = CoreCoverConfig {
            group_equivalent_views: false, // keep both v1 and v5 tuples
            group_view_tuples: true,
            ..CoreCoverConfig::default()
        };
        let result = CoreCover::new(&q, &views)
            .with_config(config)
            .run_all_minimal();
        let v1_tuple = result
            .view_tuples
            .iter()
            .find(|t| t.view.as_str() == "v1")
            .unwrap()
            .clone();
        let alts = result.interchangeable_tuples(&v1_tuple);
        assert!(alts.iter().any(|t| t.view.as_str() == "v5"));
        // Swap v1 → v5 in a rewriting that uses v1; it must remain a
        // rewriting.
        let with_v1 = result
            .rewritings()
            .iter()
            .find(|r| r.body.iter().any(|a| a.predicate.as_str() == "v1"))
            .expect("some rewriting uses v1")
            .clone();
        let v5_tuple = alts
            .iter()
            .find(|t| t.view.as_str() == "v5")
            .copied()
            .cloned()
            .unwrap();
        let swapped = result.swap_tuple(&with_v1, &v1_tuple, &v5_tuple);
        assert!(swapped.body.iter().any(|a| a.predicate.as_str() == "v5"));
        let exp = expand(&swapped, &views).unwrap();
        assert!(are_equivalent(&exp, &result.minimized_query));
    }

    #[test]
    fn interchangeable_tuples_of_unknown_tuple_is_empty() {
        let (q, views) = carlocpart();
        let result = CoreCover::new(&q, &views).run();
        let bogus = crate::view_tuple::ViewTuple {
            view: viewplan_cq::Symbol::new("nope"),
            atom: viewplan_cq::parse_atom("nope(X)").unwrap(),
        };
        assert!(result.interchangeable_tuples(&bogus).is_empty());
    }

    #[test]
    fn class_mates_that_expose_different_variables_are_not_interchangeable() {
        // va, va2 and va3 share the core {e, g}; va hides X. Swapping va
        // in for va2 would turn the rewriting into a Cartesian product.
        let q = parse_query("q(P, R) :- e(P, X), g(X, Y), f(Y, R)").unwrap();
        let views = parse_views(
            "va2(P, X, Y) :- e(P, X), g(X, Y).\n\
             va(P, Y) :- e(P, X), g(X, Y).\n\
             va3(Y, X, P) :- e(P, X), g(X, Y).\n\
             vb(X, R) :- g(X, Y), f(Y, R).",
        )
        .unwrap();
        let result = CoreCover::new(&q, &views).run();
        assert_eq!(result.tuple_classes[0], [0, 1, 2]);
        let mates = |i: usize| -> Vec<String> {
            result
                .interchangeable_tuples(&result.view_tuples[i])
                .iter()
                .map(|t| t.to_string())
                .collect()
        };
        assert_eq!(mates(0), ["va3(Y, X, P)"]);
        assert!(mates(1).is_empty());
        let rewriting = &result.rewritings()[0];
        assert_eq!(rewriting.to_string(), "q(P, R) :- va2(P, X, Y), vb(X, R)");
        let swapped = result.swap_tuple(rewriting, &result.view_tuples[0], &result.view_tuples[2]);
        assert!(is_equivalent_rewriting(&swapped, &q, &views));
        let unsound = result.swap_tuple(rewriting, &result.view_tuples[0], &result.view_tuples[1]);
        assert!(!is_equivalent_rewriting(&unsound, &q, &views));
    }
}

#[cfg(test)]
mod pruning_tests {
    use super::*;
    use viewplan_cq::{parse_query, parse_views};

    /// A view set where half the views mention predicates the query never
    /// uses (plus one arity-mismatched one) — all provably tuple-free.
    fn mixed_problem() -> (ConjunctiveQuery, ViewSet) {
        (
            parse_query("q(X, Y) :- e(X, Z), f(Z, Y)").unwrap(),
            parse_views(
                "vall(X, Y) :- e(X, Z), f(Z, Y).\n\
                 ve(X, Z) :- e(X, Z).\n\
                 vf(Z, Y) :- f(Z, Y).\n\
                 vg(A, B) :- g(A, B).\n\
                 vmix(A) :- e(A, B), h(B).\n\
                 varity(A) :- e(A, B, B).",
            )
            .unwrap(),
        )
    }

    #[test]
    fn pruning_is_output_invariant() {
        let (q, views) = mixed_problem();
        let pruned_cfg = CoreCoverConfig {
            prune_unusable_views: true,
            ..CoreCoverConfig::default()
        };
        let unpruned_cfg = CoreCoverConfig {
            prune_unusable_views: false,
            ..CoreCoverConfig::default()
        };
        for all_minimal in [false, true] {
            let run = |cfg: &CoreCoverConfig| {
                let cc = CoreCover::new(&q, &views).with_config(cfg.clone());
                if all_minimal {
                    cc.run_all_minimal()
                } else {
                    cc.run()
                }
            };
            let with = run(&pruned_cfg);
            let without = run(&unpruned_cfg);
            assert_eq!(with.rewritings(), without.rewritings());
            assert_eq!(with.view_tuples, without.view_tuples);
            // The cores are the same whole: covered subgoals and parts.
            assert_eq!(with.cores, without.cores);
            assert_eq!(with.tuple_classes, without.tuple_classes);
            assert_eq!(with.stats, without.stats);
            assert_eq!(with.minimized_query, without.minimized_query);
        }
    }

    #[test]
    fn pruning_keeps_filter_candidates() {
        // v3 has an empty tuple-core (a filter candidate, §5.1) but all
        // its predicates match the query — it must survive pruning.
        let q = parse_query("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)").unwrap();
        let views = parse_views(
            "v2(S, M, C) :- part(S, M, C).\n\
             v3(S) :- car(M, a), loc(a, C), part(S, M, C).\n\
             v1(M, D, C) :- car(M, D), loc(D, C).",
        )
        .unwrap();
        let result = CoreCover::new(&q, &views).run_all_minimal();
        assert_eq!(result.stats.empty_core_tuples, 1);
        assert_eq!(result.filter_tuples().len(), 1);
    }

    #[test]
    fn prepared_views_prune_identically() {
        let (q, views) = mixed_problem();
        let prepared = PreparedViews::prepare(&views);
        let fresh = CoreCover::new(&q, &views).run_all_minimal();
        let pre = CoreCover::with_prepared_views(&q, &prepared).run_all_minimal();
        assert_eq!(fresh.rewritings(), pre.rewritings());
        assert_eq!(fresh.stats, pre.stats);
    }
}

#[cfg(test)]
mod wide_query_tests {
    use super::*;
    use viewplan_cq::{parse_query, parse_views};

    /// Regression: a minimized query with many subgoals must not overflow
    /// the 64-bit universe mask (`1u64 << 64` panics).
    #[test]
    fn very_wide_queries_do_not_overflow_the_mask() {
        // 64 distinct unary subgoals, all head variables: nothing minimizes
        // away.
        let body: Vec<String> = (0..64).map(|i| format!("p{i}(X{i})")).collect();
        let head: Vec<String> = (0..64).map(|i| format!("X{i}")).collect();
        let q = parse_query(&format!("q({}) :- {}", head.join(", "), body.join(", "))).unwrap();
        let mut vs = String::new();
        for i in 0..64 {
            vs.push_str(&format!("v{i}(A) :- p{i}(A).\n"));
        }
        let views = parse_views(&vs).unwrap();
        let result = CoreCover::new(&q, &views).run();
        assert_eq!(result.rewritings().len(), 1);
        assert_eq!(result.rewritings()[0].body.len(), 64);
    }

    fn wide_problem(subgoals: usize) -> (ConjunctiveQuery, ViewSet) {
        let body: Vec<String> = (0..subgoals).map(|i| format!("p{i}(X{i})")).collect();
        let head: Vec<String> = (0..subgoals).map(|i| format!("X{i}")).collect();
        let q = parse_query(&format!("q({}) :- {}", head.join(", "), body.join(", "))).unwrap();
        let mut vs = String::new();
        for i in 0..subgoals {
            vs.push_str(&format!("v{i}(A) :- p{i}(A).\n"));
        }
        (q, parse_views(&vs).unwrap())
    }

    /// Regression: with 65 subgoals the mask folds would shift by ≥ 64
    /// and wrap silently in release builds; the pipeline must return a
    /// clear error instead of wrong covers.
    #[test]
    fn beyond_64_subgoals_is_a_clear_error_not_a_wrong_answer() {
        let (q, views) = wide_problem(65);
        let err = CoreCover::new(&q, &views).try_run().unwrap_err();
        assert_eq!(
            err,
            crate::error::CoreError::TooManySubgoals { subgoals: 65 }
        );
        assert!(err.to_string().contains("65 subgoals"));
        let err2 = CoreCover::new(&q, &views)
            .try_run_all_minimal()
            .unwrap_err();
        assert_eq!(err2, err);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn run_panics_with_the_same_message() {
        let (q, views) = wide_problem(65);
        let _ = CoreCover::new(&q, &views).run();
    }

    /// A >64-subgoal query whose *core* fits in 64 subgoals is fine: the
    /// guard applies after minimization, as the masks do.
    #[test]
    fn wide_but_redundant_queries_still_minimize_through() {
        // 70 copies of the same subgoal minimize to one.
        let body = vec!["e(X, Y)".to_string(); 70].join(", ");
        let q = parse_query(&format!("q(X) :- {body}")).unwrap();
        let views = parse_views("v(A) :- e(A, B)").unwrap();
        let result = CoreCover::new(&q, &views).try_run().unwrap();
        assert_eq!(result.rewritings().len(), 1);
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use obs::budget::{BudgetSpec, Fault, FaultPoint};
    use viewplan_containment::{are_equivalent, expand};
    use viewplan_cq::{parse_query, parse_views};

    fn chain_problem() -> (ConjunctiveQuery, ViewSet) {
        (
            parse_query("q(X, Y) :- e(X, Z), f(Z, W), g(W, Y)").unwrap(),
            parse_views(
                "vef(X, W) :- e(X, Z), f(Z, W).\n\
                 vfg(Z, Y) :- f(Z, W), g(W, Y).\n\
                 ve(X, Z) :- e(X, Z).\n\
                 vf(Z, W) :- f(Z, W).\n\
                 vg(W, Y) :- g(W, Y).",
            )
            .unwrap(),
        )
    }

    #[test]
    fn unbudgeted_runs_report_complete() {
        let (q, views) = chain_problem();
        let result = CoreCover::new(&q, &views).run_all_minimal();
        assert_eq!(result.stats.completeness, Completeness::Complete);
        assert!(result.rewritings().len() >= 2);
    }

    #[test]
    fn tight_node_budget_degrades_honestly_and_deterministically() {
        let (q, views) = chain_problem();
        let run = || {
            let _g = obs::budget::install(BudgetSpec::new().node_budget(6).build());
            CoreCover::new(&q, &views).try_run_all_minimal().unwrap()
        };
        let a = run();
        assert!(
            a.stats.completeness.is_incomplete(),
            "a 6-node budget must truncate this pipeline"
        );
        // Everything that *was* returned is still a genuine rewriting
        // (verified here with no budget installed).
        for r in a.rewritings() {
            let exp = expand(r, &views).unwrap();
            assert!(are_equivalent(&exp, &a.minimized_query), "bogus: {r}");
        }
        // Node budgets are per-search: the degraded result is stable.
        let b = run();
        let printed = |res: &CoreCoverResult| -> Vec<String> {
            res.rewritings().iter().map(|r| r.to_string()).collect()
        };
        assert_eq!(printed(&a), printed(&b));
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn injected_deadline_fault_yields_best_so_far_not_a_panic() {
        let (q, views) = chain_problem();
        let budget = BudgetSpec::new()
            .fault(Fault {
                point: FaultPoint::Deadline,
                nth: 5,
            })
            .build();
        let _g = obs::budget::install(budget.clone());
        let result = CoreCover::new(&q, &views).try_run_all_minimal().unwrap();
        assert!(budget.cancelled());
        assert_eq!(result.stats.completeness, Completeness::DeadlineExceeded);
        // Best-so-far output stays sound (checked outside the budget).
        drop(_g);
        for r in result.rewritings() {
            let exp = expand(r, &views).unwrap();
            assert!(are_equivalent(&exp, &result.minimized_query));
        }
    }

    #[test]
    fn deadline_takes_precedence_over_truncation() {
        let (q, views) = chain_problem();
        let budget = BudgetSpec::new()
            .node_budget(6)
            .fault(Fault {
                point: FaultPoint::Deadline,
                nth: 2,
            })
            .build();
        let _g = obs::budget::install(budget);
        let result = CoreCover::new(&q, &views).try_run_all_minimal().unwrap();
        assert_eq!(result.stats.completeness, Completeness::DeadlineExceeded);
    }
}

#[cfg(test)]
mod truncation_tests {
    use super::*;
    use viewplan_cq::{parse_query, parse_views};

    /// Three subgoals, pairwise two-subgoal views: many irredundant
    /// covers exist, so a cap of 1 must flag the run as truncated.
    #[test]
    fn max_rewritings_cap_is_recorded_in_stats() {
        let q = parse_query("q(X, Y, Z) :- a(X), b(Y), c(Z)").unwrap();
        let views = parse_views(
            "vab(X, Y) :- a(X), b(Y).\n\
             vbc(Y, Z) :- b(Y), c(Z).\n\
             vca(Z, X) :- c(Z), a(X).\n\
             va(X) :- a(X).\n\
             vb(Y) :- b(Y).\n\
             vc(Z) :- c(Z).",
        )
        .unwrap();
        let capped = CoreCover::new(&q, &views)
            .with_config(CoreCoverConfig {
                max_rewritings: 1,
                ..CoreCoverConfig::default()
            })
            .run_all_minimal();
        assert_eq!(capped.rewritings().len(), 1);
        assert!(capped.stats.truncated, "cap must be reported, not silent");
        let full = CoreCover::new(&q, &views).run_all_minimal();
        assert!(full.rewritings().len() > 1);
        assert!(!full.stats.truncated);
        // `run` (minimum covers) never truncates.
        assert!(!CoreCover::new(&q, &views).run().stats.truncated);
    }
}
