//! The five workloads. Each is one function from [`RunOptions`] to an
//! [`Outcome`]; the reason each exists is in its module comment and in
//! `BENCHMARK.json`.

use crate::gen::{Checksum, Family, Rng, Shape};
use crate::harness::{span_mean_us, span_self_ms_per_op, Outcome, RunOptions};
use crate::metrics::{ratio, Values};
use std::collections::BTreeSet;
use viewplan_analyze::{analyze_errors, Layout};
use viewplan_core::{CoreCover, CoreCoverConfig, PreparedViews};
use viewplan_cost::{Catalog, CostModel, EstimateOracle, Optimizer, PlannedRewriting, SizeOracle};
use viewplan_cq::{parse_program, Atom, ConjunctiveQuery, Symbol, View, ViewSet};
use viewplan_engine::{
    evaluate, materialize_views, Database, Engine, ExecutionTrace, Relation, Value,
};
use viewplan_obs::{self as obs, Completeness, SpanNode};

pub mod execute_views;
pub mod plan_search;
pub mod rewrite_cold;
pub mod serve;

/// Seed of every workload's structure: view sets, query pools, catalogs.
/// `--seed` drives what is left — base data, operation order, request
/// sequences, variable names. See [`ProblemInput::generate`] and the
/// workloads' `generate` functions for why.
pub const STRUCTURE_SEED: u64 = crate::harness::DEFAULT_SEED;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 5] = [
    "rewrite_cold",
    "plan_search",
    "execute_views",
    "serve_hot",
    "serve_churn",
];

pub fn run(name: &str, opts: &RunOptions) -> Option<Outcome> {
    Some(match name {
        "rewrite_cold" => rewrite_cold::run(opts),
        "plan_search" => plan_search::run(opts),
        "execute_views" => execute_views::run(opts),
        "serve_hot" => serve::run(serve::Mix::Hot, opts),
        "serve_churn" => serve::run(serve::Mix::Churn, opts),
        _ => return None,
    })
}

/// Parses a generated view program the way the CLI loads one: parse,
/// the error-severity analysis gate, then the view set. Generated text
/// that fails either step is a bug in the generator, hence the panic.
pub fn load_views(text: &str) -> ViewSet {
    let program = {
        let _span = obs::span("cq.parse_views");
        parse_program(text).unwrap_or_else(|e| panic!("generated views do not parse: {e}"))
    };
    {
        let _span = obs::span("analyze.gate");
        let analysis = analyze_errors(&program, Layout::ViewsOnly);
        assert!(
            !analysis.has_errors(),
            "generated views fail the analysis gate"
        );
    }
    ViewSet::from_views(program.rules.into_iter().map(View::new))
}

/// The generator configuration every workload uses: the program's
/// defaults, except that it is pinned to one thread (so counts repeat
/// exactly and `VIEWPLAN_THREADS` cannot change a run) and that every
/// candidate cover is verified. Release builds skip that verification
/// unless asked, and the repo's invariant — every rewriting handed out
/// is equivalent to its query — is what the checks here hold it to.
pub fn corecover_config() -> CoreCoverConfig {
    CoreCoverConfig {
        threads: 1,
        verify_rewritings: true,
        ..CoreCoverConfig::default()
    }
}

/// The `containment.*` and `core.*` self times and counts every workload
/// that runs CoreCover reports: self time per operation of the spans
/// inside `corecover.run`, and the generator's and the containment
/// checker's counters (`count` reads one by name).
pub fn corecover_layer_metrics(
    tree: &[SpanNode],
    ops: usize,
    count: &dyn Fn(&str) -> f64,
    values: &mut Values,
) {
    values.set(
        "containment.minimize_us",
        span_mean_us(tree, "containment.minimize"),
    );
    values.set("containment.checks", count("containment.checks"));
    values.set("containment.hom_nodes", count("containment.hom_nodes"));
    values.set(
        "containment.acyclic_fast_path_ratio",
        ratio(
            count("containment.acyclic_fast_path"),
            count("containment.acyclic_fast_path") + count("containment.acyclic_fallback"),
        ),
    );
    values.set(
        "containment.cache_hit_ratio",
        ratio(
            count("containment.cache_hits"),
            count("containment.cache_hits") + count("containment.cache_misses"),
        ),
    );
    for (metric, span) in [
        ("core.group_views_ms", "corecover.group_views"),
        ("core.view_tuples_ms", "corecover.view_tuples"),
        ("core.tuple_cores_ms", "corecover.tuple_cores"),
        ("core.set_cover_ms", "corecover.set_cover"),
        ("core.verify_ms", "corecover.verify"),
    ] {
        values.set(metric, span_self_ms_per_op(tree, span, ops));
    }
    values.set("core.view_tuples", count("corecover.view_tuples"));
    values.set(
        "core.representative_tuples",
        count("corecover.representative_tuples"),
    );
    values.set("core.set_cover_nodes", count("cover.search_nodes"));
    values.set("core.rewritings", count("corecover.rewritings"));
    values.set(
        "core.verify_accept_ratio",
        ratio(
            count("corecover.rewritings"),
            count("corecover.rewritings") + count("corecover.nonequivalent_covers"),
        ),
    );
}

/// Generated text and rows of one rewrite → plan → execute problem: a
/// view set over one family's relations, the full-template query, and
/// base data.
pub struct ProblemInput {
    pub view_text: String,
    pub query_text: String,
    /// `(relation name, rows)` per base relation.
    pub base: Vec<(String, Vec<Vec<i64>>)>,
}

impl ProblemInput {
    /// `rows` tuples per base relation over a domain of the same size, so
    /// the eight-way joins neither explode nor come out empty. The first
    /// views partition the template with every variable distinguished,
    /// so the query is certain to have a rewriting; the rest drop one
    /// variable when they have more than one subgoal.
    ///
    /// The views and the query come from `structure`, the rows from
    /// `data`. The two data-bearing workloads draw `structure` from a
    /// fixed seed and `data` from `--seed`, the way TPC-style benchmarks
    /// fix their query templates and seed the data: with a few dozen
    /// problems whose plan-search time spans 1 ms to 5 s depending on the
    /// view set drawn, letting `--seed` redraw the view sets makes two
    /// seeds two different benchmarks.
    pub fn generate(
        shape: Shape,
        view_count: usize,
        rows: usize,
        structure: &mut Rng,
        data: &mut Rng,
        checksum: &mut Checksum,
    ) -> ProblemInput {
        let family = Family::new(shape, 1, structure);
        let view_text = family.views(view_count, 1, true, structure).join(".\n") + ".\n";
        let query_text = family.full_query(structure);
        let base: Vec<(String, Vec<Vec<i64>>)> = family
            .relation_names()
            .into_iter()
            .zip(family.base_rows(rows, rows as i64, data))
            .collect();
        checksum.update(view_text.as_bytes());
        checksum.update(query_text.as_bytes());
        for (_, rows) in &base {
            checksum.update_rows(rows);
        }
        ProblemInput {
            view_text,
            query_text,
            base,
        }
    }
}

/// What set-up builds from a [`ProblemInput`]: the analyst's side of the
/// system — parsed and prepared views, the base relations loaded, every
/// view materialized, and the statistics the optimizer estimates from.
pub struct Problem {
    pub views: ViewSet,
    pub prepared: PreparedViews,
    pub base: Database,
    pub view_db: Database,
    pub catalog: Catalog,
}

impl Problem {
    pub fn build(input: &ProblemInput) -> Problem {
        let views = load_views(&input.view_text);
        let prepared = {
            let _span = obs::span("core.prepare_views");
            PreparedViews::prepare(&views)
        };
        let base = {
            let _span = obs::span("engine.load");
            let mut db = Database::new();
            for (name, rows) in &input.base {
                let relation = Symbol::new(name);
                for row in rows {
                    db.insert(relation, row.iter().map(|&v| Value::Int(v)).collect());
                }
            }
            db
        };
        let view_db = {
            let _span = obs::span("engine.materialize");
            materialize_views(&views, &base)
        };
        let catalog = {
            let _span = obs::span("cost.catalog_build");
            Catalog::from_database(&view_db)
        };
        Problem {
            views,
            prepared,
            base,
            view_db,
            catalog,
        }
    }

    /// Rewrites `query` into all minimal rewritings (CoreCover*, the M2/M3
    /// search space) and picks the cheapest plan under `model` from
    /// estimated sizes. `None` when the query has no rewriting.
    pub fn plan(&self, query: &ConjunctiveQuery, model: CostModel) -> Option<PlannedRewriting> {
        let result = {
            let _span = obs::span("core.rewrite");
            CoreCover::with_prepared_views(query, &self.prepared)
                .with_config(corecover_config())
                .try_run_all_minimal()
                .unwrap_or_else(|e| panic!("eight-subgoal query rejected: {e}"))
        };
        let span = match model {
            CostModel::M1 => "cost.plan_m1",
            CostModel::M2 => "cost.plan_m2",
            CostModel::M3(_) => "cost.plan_m3",
        };
        let _span = obs::span(span);
        let outcome = Optimizer::new(query, &self.views)
            .try_plan_generated(model, result, &mut EstimateOracle::new(&self.catalog))
            .unwrap_or_else(|e| panic!("plan search failed: {e}"));
        assert_eq!(
            outcome.completeness,
            Completeness::Complete,
            "no budget is installed, so the search must be complete"
        );
        outcome.best
    }

    /// The query's answer computed directly over the base relations by
    /// the row engine — the reference every executed plan must match.
    pub fn direct_answer(&self, query: &ConjunctiveQuery) -> Relation {
        let _span = obs::span("engine.row_oracle");
        let _engine = viewplan_engine::install(Engine::Row);
        evaluate(query, &self.base)
    }
}

/// Per-step q-error of an M2 plan: the optimizer's estimate of each
/// intermediate relation against the size measured by executing the plan,
/// `max(est / act, act / est)` with both floored at one row.
pub fn q_errors(plan: &PlannedRewriting, trace: &ExecutionTrace, catalog: &Catalog) -> Vec<f64> {
    let body: Vec<Atom> = plan.plan.steps.iter().map(|s| s.atom.clone()).collect();
    let mut oracle = EstimateOracle::new(catalog);
    let mut retained = BTreeSet::new();
    let mut mask = 0u32;
    let mut out = Vec::new();
    for (i, atom) in body.iter().enumerate() {
        mask |= 1 << i;
        retained.extend(atom.variables());
        let Some(&actual) = trace.intermediate_sizes.get(i) else {
            break;
        };
        let estimate = oracle.intermediate_size(&body, mask, &retained).max(1.0);
        let actual = (actual as f64).max(1.0);
        out.push((estimate / actual).max(actual / estimate));
    }
    out
}

/// The `cost.*` counter metrics, from a counter snapshot.
pub fn cost_counter_metrics(count: &dyn Fn(&str) -> f64, values: &mut Values) {
    values.set("cost.plans_enumerated", count("cost.plans_enumerated"));
    values.set("cost.oracle_calls", count("cost.oracle_calls"));
    values.set(
        "cost.oracle_cache_hit_ratio",
        ratio(count("cost.oracle_cache_hits"), count("cost.oracle_calls")),
    );
    values.set(
        "cost.m3_rename_drop_ratio",
        ratio(count("m3.rename_drops"), count("m3.rename_attempts")),
    );
}

/// The `engine.*` counter metrics, from a counter snapshot and the
/// intermediate and answer rows the executed traces measured.
pub fn engine_counter_metrics(
    count: &dyn Fn(&str) -> f64,
    intermediate_rows: f64,
    answer_rows: f64,
    values: &mut Values,
) {
    values.set("engine.join_probes", count("engine.join_probes"));
    values.set("engine.batch_build_rows", count("engine.batch_build_rows"));
    values.set("engine.intermediate_rows", intermediate_rows);
    values.set("engine.answer_rows", answer_rows);
    values.set(
        "engine.probes_per_answer_row",
        ratio(count("engine.join_probes"), answer_rows),
    );
}
