//! `execute_views` — executing a plan over materialized views, where the
//! `engine` crate does everything and `core`/`cost` nothing.
//!
//! One thread, in process. Eight problems (star, chain, random) at 5 000,
//! 20 000 and 100 000 base rows; set-up loads the base relations,
//! materializes every view, builds the catalog, rewrites the query and
//! fixes a plan, so work moved out of execution into set-up shows in
//! `setup_s`. One operation is `PhysicalPlan::try_execute` over the
//! materialized-view database with the default engine. Materializing
//! the views (which builds relations) beside executing plans (which
//! joins them) is the engine's write side beside its read side.
//!
//! The plan is the query's first globally-minimal rewriting, its
//! subgoals ordered so that each joins the ones before it on a shared
//! variable. The optimizer's own M2 choice is not used here: from
//! estimated sizes it picks orders with Cartesian products (see
//! `plan_search`), which at 100 000 rows are 10¹⁰-row intermediates.
//! Which plan is chosen is `plan_search`'s subject; this workload is
//! about executing one.

use super::{corecover_config, engine_counter_metrics, Problem, ProblemInput, STRUCTURE_SEED};
use crate::gen::{Checksum, Rng, Shape};
use crate::harness::{
    layer_summary, measure, process_metrics, run_rounds, setup_metrics, span_mean_us,
    timing_metrics, traced_window, with_collection, Outcome, Phases, RunOptions, TraceSample,
    Traced, Verdicts, Window, TRACED_WINDOW_SHARE,
};
use crate::metrics::Values;
use crate::stats::geo_mean;
use std::collections::BTreeSet;
use viewplan_core::CoreCover;
use viewplan_cost::PhysicalPlan;
use viewplan_cq::{parse_query, Atom, ConjunctiveQuery, Symbol};
use viewplan_engine::ExecutionTrace;
use viewplan_obs::{self as obs, SpanNode};

/// `(base rows, shapes)` per scale. Operations visit the problems in
/// turn, so with 3 + 3 + 2 problems the median operation is a
/// 20 000-row one and the 95th percentile a 100 000-row one, each well
/// inside its cluster.
fn scales(smoke: bool) -> Vec<(usize, &'static [Shape])> {
    const THREE: &[Shape] = &[Shape::Star, Shape::Chain, Shape::Random];
    const TWO: &[Shape] = &[Shape::Star, Shape::Chain];
    if smoke {
        vec![(300, THREE), (1000, THREE), (3000, TWO)]
    } else {
        vec![(5_000, THREE), (20_000, THREE), (100_000, TWO)]
    }
}

const VIEWS: usize = 12;

fn execute_span(scale: usize) -> &'static str {
    [
        "engine.execute.r5k",
        "engine.execute.r20k",
        "engine.execute.r100k",
    ][scale]
}

struct Inputs {
    problems: Vec<ProblemInput>,
    /// Index into [`scales`] per problem.
    scale: Vec<usize>,
    checksum: u64,
}

fn generate(opts: &RunOptions) -> Inputs {
    let structure = Rng::new(STRUCTURE_SEED).fork("execute_views");
    let data = Rng::new(opts.seed).fork("execute_views");
    let mut checksum = Checksum::new();
    let mut problems = Vec::new();
    let mut scale = Vec::new();
    for (s, (rows, shapes)) in scales(opts.smoke).into_iter().enumerate() {
        for shape in shapes {
            let label = format!("{}-{rows}", shape.name());
            problems.push(ProblemInput::generate(
                *shape,
                VIEWS,
                rows,
                &mut structure.fork(&label),
                &mut data.fork(&label),
                &mut checksum,
            ));
            scale.push(s);
        }
    }
    Inputs {
        problems,
        scale,
        checksum: checksum.value(),
    }
}

/// Orders `body` so that every subgoal after the first shares a variable
/// with the ones before it (a rewriting of a connected query always
/// admits such an order; a subgoal that shares none goes last).
fn connected_order(body: &[Atom]) -> Vec<Atom> {
    let mut remaining: Vec<Atom> = body.to_vec();
    let mut bound: BTreeSet<Symbol> = BTreeSet::new();
    let mut out = Vec::with_capacity(body.len());
    while !remaining.is_empty() {
        let next = remaining
            .iter()
            .position(|a| a.variables().any(|v| bound.contains(&v)))
            .unwrap_or(0);
        let atom = remaining.remove(next);
        bound.extend(atom.variables());
        out.push(atom);
    }
    out
}

struct Ready {
    problem: Problem,
    query: ConjunctiveQuery,
    head: Atom,
    plan: PhysicalPlan,
}

fn build(input: &ProblemInput) -> Ready {
    let problem = Problem::build(input);
    let query = {
        let _span = obs::span("cq.parse_query");
        parse_query(&input.query_text).unwrap_or_else(|e| panic!("generated query: {e}"))
    };
    let result = {
        let _span = obs::span("core.rewrite");
        CoreCover::with_prepared_views(&query, &problem.prepared)
            .with_config(corecover_config())
            .try_run()
            .unwrap_or_else(|e| panic!("eight-subgoal query rejected: {e}"))
    };
    let rewriting = result
        .rewritings()
        .first()
        .unwrap_or_else(|| panic!("the covering views guarantee a rewriting"));
    Ready {
        head: rewriting.head.clone(),
        plan: PhysicalPlan::ordered(connected_order(&rewriting.body)),
        problem,
        query,
    }
}

fn run_window(
    seconds: f64,
    inputs: &Inputs,
    state: &[Ready],
    kept: &mut Vec<ExecutionTrace>,
    mut sample: Option<&mut TraceSample>,
    first_cycle_done: &mut dyn FnMut(),
) -> Window {
    measure(
        seconds,
        state.len(),
        |i| {
            let ready = &state[i];
            let _trace = sample.as_mut().and_then(|s| s.next_op());
            let _op = obs::span("bench.op");
            let _span = obs::span(execute_span(inputs.scale[i]));
            ready
                .plan
                .try_execute(&ready.head, &ready.problem.view_db)
                .unwrap_or_else(|e| panic!("plan does not execute: {e}"))
        },
        |_, trace| {
            kept.push(trace);
            if kept.len() == state.len() {
                first_cycle_done();
            }
        },
    )
}

struct Checked {
    outputs: u64,
    costs: Vec<f64>,
    intermediate_rows: f64,
    answer_rows: f64,
}

/// Every executed answer must equal direct evaluation of the query over
/// the base relations by the row engine.
fn check(state: &[Ready], kept: &[ExecutionTrace], verdicts: &mut Verdicts) -> Checked {
    let mut outputs = Checksum::new();
    let mut checked = Checked {
        outputs: 0,
        costs: Vec::new(),
        intermediate_rows: 0.0,
        answer_rows: 0.0,
    };
    for (i, (ready, trace)) in state.iter().zip(kept).enumerate() {
        let expected = ready.problem.direct_answer(&ready.query);
        verdicts.check(i, trace.answer == expected, || {
            format!(
                "plan answer has {} rows, direct evaluation {}",
                trace.answer.len(),
                expected.len()
            )
        });
        outputs.update(ready.plan.to_string().as_bytes());
        outputs.update(&(trace.answer.len() as u64).to_le_bytes());
        outputs.update(&(trace.cost() as u64).to_le_bytes());
        checked.costs.push(trace.cost() as f64);
        checked.intermediate_rows += trace.intermediate_sizes.iter().sum::<usize>() as f64;
        checked.answer_rows += trace.answer.len() as f64;
    }
    checked.outputs = outputs.value();
    checked
}

pub fn run(opts: &RunOptions) -> Outcome {
    let mut phases = Phases::start();
    let inputs = generate(opts);
    phases.end("generate");
    let mut values = Values::default();
    let mut verdicts = Verdicts::default();

    // The checks look at the last round's first cycle.
    let mut kept = Vec::new();
    let run = run_rounds(
        opts,
        || inputs.problems.iter().map(build).collect::<Vec<_>>(),
        |state, _, seconds| {
            // Warm-up: one pass builds each relation's columnar twin,
            // which the engine caches on first use.
            run_window(0.0, &inputs, state, &mut Vec::new(), None, &mut || {});
            kept.clear();
            run_window(seconds, &inputs, state, &mut kept, None, &mut || {})
        },
    );
    phases.end("rounds");
    let state = &run.state;
    let checked = check(state, &kept, &mut verdicts);
    let attempted: u64 = run.windows.iter().map(|w| w.ops() as u64).sum();
    phases.end("checks");

    if opts.traced {
        let untraced = &run.windows[0];
        setup_metrics(&run.setup_tree, &mut values);
        values.set(
            "cq.parse_query_us",
            span_mean_us(&run.setup_tree, "cq.parse_query"),
        );
        let mut kept = Vec::new();
        let traced = traced_window(
            "execute_views",
            untraced,
            &mut values,
            &mut verdicts,
            |sample, first_cycle_done| {
                let seconds = opts.seconds * TRACED_WINDOW_SHARE;
                let sample = Some(sample);
                run_window(seconds, &inputs, state, &mut kept, sample, first_cycle_done)
            },
        );
        // The reference evaluations, traced: the row engine's time is the
        // noise canary (no change to the default engine should move it).
        let (direct_tree, traced_checked) = with_collection(|| {
            let checked = check(state, &kept, &mut verdicts);
            for ready in state {
                let _span = obs::span("engine.direct_eval");
                viewplan_engine::evaluate(&ready.query, &ready.problem.base);
            }
            (obs::span_tree(), checked)
        });
        layer_metrics(&traced, &direct_tree, &traced_checked, &mut values);
        verdicts.check(0, traced_checked.outputs == checked.outputs, || {
            "traced and untraced windows gave different answers".to_string()
        });
        process_metrics(&mut values, attempted, verdicts.failed(), untraced.ops());
        phases.end("traced window");
    } else {
        let cycle = state.len();
        timing_metrics(&run.setup_seconds, &run.windows, cycle, &mut values);
        values.set("chosen_plan_cost", geo_mean(&checked.costs));
    }

    Outcome {
        attempted,
        failed: verdicts.failed(),
        values,
        inputs_checksum: inputs.checksum,
        outputs_checksum: checked.outputs,
        failures: verdicts.into_messages(),
        phases: phases.finish(),
    }
}

/// The per-layer metrics read from the traced window and from the traced
/// reference evaluations.
fn layer_metrics(
    traced: &Traced,
    direct_tree: &[SpanNode],
    checked: &Checked,
    values: &mut Values,
) {
    let tree = &traced.tree;
    for (scale, metric) in [
        "engine.execute_ms.r5k",
        "engine.execute_ms.r20k",
        "engine.execute_ms.r100k",
    ]
    .into_iter()
    .enumerate()
    {
        values.set(metric, span_mean_us(tree, execute_span(scale)) / 1e3);
    }
    values.set(
        "engine.direct_eval_ms",
        span_mean_us(direct_tree, "engine.direct_eval") / 1e3,
    );
    values.set(
        "engine.row_oracle_ms",
        span_mean_us(direct_tree, "engine.row_oracle") / 1e3,
    );
    let count = |name: &str| traced.count(name);
    engine_counter_metrics(
        &count,
        checked.intermediate_rows,
        checked.answer_rows,
        values,
    );
    layer_summary(tree, traced.window.wall, values);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::cluster_position;

    #[test]
    fn percentiles_sit_inside_a_scale_cluster() {
        let clusters: Vec<usize> = scales(false)
            .iter()
            .map(|(_, shapes)| shapes.len())
            .collect();
        let (p50_cluster, p50_at) = cluster_position(0.5, &clusters);
        let (p95_cluster, p95_at) = cluster_position(0.95, &clusters);
        assert_eq!(p50_cluster, 1, "the median operation is a 20 000-row one");
        assert_eq!(p95_cluster, 2, "the 95th percentile is a 100 000-row one");
        assert!(p50_at > 0.0 && p50_at < 1.0, "p50 at {p50_at}");
        assert!(p95_at > 0.0 && p95_at < 1.0, "p95 at {p95_at}");
    }

    #[test]
    fn connected_order_joins_on_a_shared_variable() {
        let q = parse_query("q(A) :- v1(A, B), v2(C, D), v3(B, C), v4(D, E)").expect("parses");
        let ordered: Vec<String> = connected_order(&q.body)
            .iter()
            .map(|a| a.predicate.to_string())
            .collect();
        assert_eq!(ordered, ["v1", "v3", "v2", "v4"]);
    }
}
