//! `plan_search` — the analyst's rewrite → M2/M3 plan step, where the
//! `cost` crate does most of the work.
//!
//! One thread, in process. Problems are star, chain and random view sets
//! of 12 and of 40 views over 100-row base relations (domain = rows, so
//! star and chain answers are non-empty). One operation is `parse_query`, CoreCover*
//! over the prepared views, and `Optimizer::try_plan_generated` with an
//! `EstimateOracle`: under M2 for every problem, under M3
//! (`SmartCostBased`) for the 12-view problems only. Left out on
//! purpose: M3 at 40 views (12–60 s per plan) and M2 with an
//! `ExactOracle` on chains (10 s) — too slow to repeat.
//!
//! After the window every chosen plan is executed once over the
//! materialized views: its answer must equal direct evaluation over the
//! base relations, and its *measured* cost (Σ size(gᵢ) + size(IRᵢ),
//! Table 1) is `chosen_plan_cost` — so a change that plans faster by
//! choosing worse plans shows.

use super::{cost_counter_metrics, q_errors, Problem, ProblemInput, STRUCTURE_SEED};
use crate::gen::{rename_variables, Checksum, Rng, Shape};
use crate::harness::{
    layer_summary, measure, process_metrics, run_rounds, setup_metrics, span_mean_us,
    timing_metrics, traced_window, Outcome, Phases, RunOptions, TraceSample, Traced, Verdicts,
    Window, TRACED_WINDOW_SHARE,
};
use crate::metrics::Values;
use crate::stats::{geo_mean, percentile, sorted};
use viewplan_cost::{CostModel, DropPolicy, PlannedRewriting};
use viewplan_cq::{parse_query, ConjunctiveQuery};
use viewplan_obs as obs;

struct Sizes {
    /// Problems per (shape, view count).
    instances: usize,
    small_views: usize,
    large_views: usize,
    rows: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            instances: 1,
            small_views: 8,
            large_views: 14,
            rows: 200,
        }
    } else {
        Sizes {
            instances: 4,
            small_views: 12,
            large_views: 40,
            rows: 100,
        }
    }
}

struct Inputs {
    problems: Vec<ProblemInput>,
    /// `(problem index, cost model)`.
    ops: Vec<(usize, CostModel)>,
    checksum: u64,
}

/// The problems — view sets, queries *and* base data — come from the
/// fixed structure seed: the cost of a chosen plan is then an exact number
/// that only a change to the program can move (over ten seeds of redrawn
/// 100-row relations it moved by 13 %). `--seed` decides the order of the
/// operations and the variable names of each problem's query.
fn generate(opts: &RunOptions, sizes: &Sizes) -> Inputs {
    let structure = Rng::new(STRUCTURE_SEED).fork("plan_search");
    let mut seeded = Rng::new(opts.seed).fork("plan_search");
    let mut checksum = Checksum::new();
    let mut problems = Vec::new();
    let mut ops = Vec::new();
    for instance in 0..sizes.instances {
        for shape in Shape::ALL {
            for view_count in [sizes.small_views, sizes.large_views] {
                let label = format!("{}-{view_count}-{instance}", shape.name());
                let index = problems.len();
                let mut problem = ProblemInput::generate(
                    shape,
                    view_count,
                    sizes.rows,
                    &mut structure.fork(&label),
                    &mut structure.fork(&format!("{label}-rows")),
                    &mut checksum,
                );
                let names = format!("P{}n{index}x", seeded.below(1000));
                problem.query_text = rename_variables(&problem.query_text, "X", &names);
                checksum.update(problem.query_text.as_bytes());
                problems.push(problem);
                ops.push((index, CostModel::M2));
                if view_count == sizes.small_views {
                    ops.push((index, CostModel::M3(DropPolicy::SmartCostBased)));
                }
            }
        }
    }
    for i in (1..ops.len()).rev() {
        ops.swap(i, seeded.below(i + 1));
    }
    for (problem, model) in &ops {
        checksum.update(format!("{problem}{model:?}").as_bytes());
    }
    Inputs {
        problems,
        ops,
        checksum: checksum.value(),
    }
}

type Planned = (ConjunctiveQuery, Option<PlannedRewriting>);

fn run_window(
    seconds: f64,
    inputs: &Inputs,
    state: &[Problem],
    kept: &mut Vec<Planned>,
    mut sample: Option<&mut TraceSample>,
    first_cycle_done: &mut dyn FnMut(),
) -> Window {
    measure(
        seconds,
        inputs.ops.len(),
        |i| {
            let (problem, model) = inputs.ops[i];
            let _trace = sample.as_mut().and_then(|s| s.next_op());
            let _op = obs::span("bench.op");
            let query = {
                let _span = obs::span("cq.parse_query");
                parse_query(&inputs.problems[problem].query_text)
                    .unwrap_or_else(|e| panic!("generated query: {e}"))
            };
            let plan = state[problem].plan(&query, model);
            (query, plan)
        },
        |_, planned| {
            kept.push(planned);
            if kept.len() == inputs.ops.len() {
                first_cycle_done();
            }
        },
    )
}

/// What executing the chosen plans measured.
struct Executed {
    outputs: u64,
    /// Measured cost of each chosen plan.
    costs: Vec<f64>,
    /// Per-step q-errors of the M2 plans.
    q_errors: Vec<f64>,
}

/// Executes every chosen plan of the first cycle once and compares its
/// answer with direct evaluation over the base relations.
fn check(
    inputs: &Inputs,
    state: &[Problem],
    kept: &[Planned],
    verdicts: &mut Verdicts,
) -> Executed {
    let mut outputs = Checksum::new();
    let mut costs = Vec::new();
    let mut q = Vec::new();
    // One reference answer per problem, shared by its M2 and M3 plans.
    let mut reference: Vec<Option<viewplan_engine::Relation>> = vec![None; state.len()];
    for (i, (query, planned)) in kept.iter().enumerate() {
        let (problem, model) = inputs.ops[i];
        let Some(planned) = planned else {
            verdicts.check(i, false, || {
                "no plan for a query with a covering view set".into()
            });
            continue;
        };
        outputs.update(planned.rewriting.to_string().as_bytes());
        outputs.update(planned.plan.to_string().as_bytes());
        let trace = match planned
            .plan
            .try_execute(&planned.rewriting.head, &state[problem].view_db)
        {
            Ok(t) => t,
            Err(e) => {
                verdicts.check(i, false, || format!("chosen plan does not execute: {e}"));
                continue;
            }
        };
        let expected =
            reference[problem].get_or_insert_with(|| state[problem].direct_answer(query));
        verdicts.check(i, trace.answer == *expected, || {
            format!(
                "plan answer has {} rows, direct evaluation {}",
                trace.answer.len(),
                expected.len()
            )
        });
        outputs.update(&(trace.answer.len() as u64).to_le_bytes());
        outputs.update(&(trace.cost() as u64).to_le_bytes());
        costs.push(trace.cost() as f64);
        if model == CostModel::M2 {
            q.extend(q_errors(planned, &trace, &state[problem].catalog));
        }
    }
    Executed {
        outputs: outputs.value(),
        costs,
        q_errors: q,
    }
}

pub fn run(opts: &RunOptions) -> Outcome {
    let sizes = sizes(opts.smoke);
    let mut phases = Phases::start();
    let inputs = generate(opts, &sizes);
    phases.end("generate");
    let mut values = Values::default();
    let mut verdicts = Verdicts::default();

    // The checks look at the last round's first cycle.
    let mut kept = Vec::new();
    let run = run_rounds(
        opts,
        || {
            inputs
                .problems
                .iter()
                .map(Problem::build)
                .collect::<Vec<_>>()
        },
        |state, _, seconds| {
            kept.clear();
            run_window(seconds, &inputs, state, &mut kept, None, &mut || {})
        },
    );
    phases.end("rounds");
    let state = &run.state;
    let executed = check(&inputs, state, &kept, &mut verdicts);
    let attempted: u64 = run.windows.iter().map(|w| w.ops() as u64).sum();
    phases.end("checks");

    if opts.traced {
        let untraced = &run.windows[0];
        setup_metrics(&run.setup_tree, &mut values);
        let mut kept = Vec::new();
        let traced = traced_window(
            "plan_search",
            untraced,
            &mut values,
            &mut verdicts,
            |sample, first_cycle_done| {
                let seconds = opts.seconds * TRACED_WINDOW_SHARE;
                let sample = Some(sample);
                run_window(seconds, &inputs, state, &mut kept, sample, first_cycle_done)
            },
        );
        layer_metrics(&traced, &executed.q_errors, &mut values);
        // Tracing must not change a plan or an answer.
        let traced_executed = check(&inputs, state, &kept, &mut verdicts);
        verdicts.check(0, traced_executed.outputs == executed.outputs, || {
            "traced and untraced windows chose different plans".to_string()
        });
        process_metrics(&mut values, attempted, verdicts.failed(), untraced.ops());
        phases.end("traced window");
    } else {
        let cycle = inputs.ops.len();
        timing_metrics(&run.setup_seconds, &run.windows, cycle, &mut values);
        values.set("chosen_plan_cost", geo_mean(&executed.costs));
    }

    Outcome {
        attempted,
        failed: verdicts.failed(),
        values,
        inputs_checksum: inputs.checksum,
        outputs_checksum: executed.outputs,
        failures: verdicts.into_messages(),
        phases: phases.finish(),
    }
}

/// The per-layer metrics read from the traced window, and the q-errors
/// of the plans the untraced window chose.
fn layer_metrics(traced: &Traced, q_errors: &[f64], values: &mut Values) {
    let tree = &traced.tree;
    values.set("cq.parse_query_us", span_mean_us(tree, "cq.parse_query"));
    let count = |name: &str| traced.count(name);
    super::corecover_layer_metrics(tree, traced.window.ops(), &count, values);
    values.set("core.rewritable_ratio", 1.0);
    values.set("cost.plan_m2_ms", span_mean_us(tree, "cost.plan_m2") / 1e3);
    values.set("cost.plan_m3_ms", span_mean_us(tree, "cost.plan_m3") / 1e3);
    cost_counter_metrics(&count, values);
    let q = sorted(q_errors);
    values.set("cost.q_error_p50", percentile(&q, 0.5));
    values.set("cost.q_error_max", q.last().copied().unwrap_or(0.0));
    layer_summary(tree, traced.window.wall, values);
}
