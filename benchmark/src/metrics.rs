//! The metric registry: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` at the repo root lists the same names (a test keeps
//! the two in step). Every workload reports every metric of the mode it
//! runs in; a per-layer metric of a layer the workload does not reach
//! reads 0 there.

use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("throughput_ops_s", "ops/s"),
    m("latency_p50_us", "us"),
    m("latency_p95_us", "us"),
    m("peak_rss_mb", "MB"),
    m("chosen_plan_cost", "cost"),
];

/// Single layers; measured in the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // cq
    m("cq.parse_query_us", "us"),
    m("cq.parse_views_ms", "ms"),
    // analyze
    m("analyze.validate_us", "us"),
    m("analyze.gate_ms", "ms"),
    // containment
    m("containment.canonicalize_us", "us"),
    m("containment.minimize_us", "us"),
    m("containment.checks", "count"),
    m("containment.hom_nodes", "count"),
    m("containment.acyclic_fast_path_ratio", "ratio"),
    m("containment.cache_hit_ratio", "ratio"),
    // core
    m("core.prepare_views_ms", "ms"),
    m("core.rewrite_ms.star", "ms"),
    m("core.rewrite_ms.chain", "ms"),
    m("core.rewrite_ms.random", "ms"),
    m("core.group_views_ms", "ms"),
    m("core.view_tuples_ms", "ms"),
    m("core.tuple_cores_ms", "ms"),
    m("core.set_cover_ms", "ms"),
    m("core.verify_ms", "ms"),
    m("core.view_tuples", "count"),
    m("core.representative_tuples", "count"),
    m("core.set_cover_nodes", "count"),
    m("core.rewritings", "count"),
    m("core.verify_accept_ratio", "ratio"),
    m("core.rewritable_ratio", "ratio"),
    // cost
    m("cost.catalog_build_ms", "ms"),
    m("cost.plan_m1_us", "us"),
    m("cost.plan_m2_ms", "ms"),
    m("cost.plan_m3_ms", "ms"),
    m("cost.plans_enumerated", "count"),
    m("cost.oracle_calls", "count"),
    m("cost.oracle_cache_hit_ratio", "ratio"),
    m("cost.m3_rename_drop_ratio", "ratio"),
    m("cost.q_error_p50", "ratio"),
    m("cost.q_error_max", "ratio"),
    // engine
    m("engine.load_ms", "ms"),
    m("engine.materialize_ms", "ms"),
    m("engine.execute_ms.r5k", "ms"),
    m("engine.execute_ms.r20k", "ms"),
    m("engine.execute_ms.r100k", "ms"),
    m("engine.direct_eval_ms", "ms"),
    m("engine.row_oracle_ms", "ms"),
    m("engine.join_probes", "count"),
    m("engine.batch_build_rows", "count"),
    m("engine.intermediate_rows", "count"),
    m("engine.answer_rows", "count"),
    m("engine.probes_per_answer_row", "ratio"),
    // serve
    m("serve.hit_us", "us"),
    m("serve.miss_ms", "ms"),
    m("serve.render_us", "us"),
    m("serve.frame_codec_us", "us"),
    m("serve.cache.hit_ratio", "ratio"),
    m("serve.cache.evictions", "count"),
    m("serve.cache.coalesced", "count"),
    m("serve.cache.invalidated", "count"),
    m("serve.cache.resident", "count"),
    m("serve.catalog.add_view_ms", "ms"),
    m("serve.catalog.drop_view_ms", "ms"),
    m("serve.catalog.ddl_p50_ms", "ms"),
    m("serve.catalog.epoch_swaps", "count"),
    m("serve.net.ping_roundtrip_us", "us"),
    m("serve.net.overhead_us", "us"),
    m("serve.net.queue_wait_us_p50", "us"),
    m("serve.net.shed", "count"),
    m("serve.net.latency_p99_us", "us"),
    m("serve.net.latency_max_us", "us"),
    // share of traced busy time per layer, and how much of the traced
    // wall time the spans explain
    m("share.cq_analyze", "ratio"),
    m("share.core_containment", "ratio"),
    m("share.cost", "ratio"),
    m("share.engine", "ratio"),
    m("share.serve", "ratio"),
    m("share.harness", "ratio"),
    m("layers.self_time_over_wall", "ratio"),
    // obs
    m("obs.trace_overhead_ratio", "ratio"),
    // the run itself
    m("bench.failed_ratio", "ratio"),
    m("bench.samples", "count"),
    m("proc.cpu_user_s", "s"),
    m("proc.cpu_sys_s", "s"),
    m("proc.invol_ctx_switches", "count"),
];

/// `BENCHMARK.json`, compiled in so that `repeat` judges runs by the
/// bounds the driver uses.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The regression bound of each end-to-end metric, as a share of the
/// metric's median.
pub fn bounds() -> BTreeMap<String, f64> {
    let doc = viewplan_obs::parse_json(BENCHMARK_JSON)
        .unwrap_or_else(|e| panic!("BENCHMARK.json does not parse: {e:?}"));
    doc.get("end_to_end")
        .and_then(viewplan_obs::Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|entry| {
            Some((
                entry.get("name")?.as_str()?.to_string(),
                entry.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Metric values by name, filled in by a workload.
#[derive(Default, Debug, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unregistered metric {name}"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `(name, unit, value)` for every metric of `defs`, in registry
    /// order; a name the workload did not set reads 0.
    pub fn report(&self, defs: &'static [MetricDef]) -> Vec<(&'static str, &'static str, f64)> {
        defs.iter()
            .map(|d| (d.name, d.unit, self.get(d.name)))
            .collect()
    }
}

/// `numerator / denominator`, or 0 when there is no denominator.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_obs::{parse_json, Json};

    fn names_in(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|entry| {
                let field = |f: &str| {
                    entry
                        .get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{key} entry without {f}"))
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let doc = parse_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert_eq!(
            bounds().len(),
            END_TO_END.len(),
            "every end-to-end metric has a bound"
        );
        assert!(bounds().values().all(|&b| b > 0.0 && b <= 0.25));
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(names_in(&doc, key), ours, "{key} differs from the registry");
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn unset_metrics_read_zero_and_non_finite_values_are_dropped() {
        let mut v = Values::default();
        v.set("setup_s", 1.5);
        v.set("latency_p50_us", f64::NAN);
        let report = v.report(END_TO_END);
        assert_eq!(report.len(), END_TO_END.len());
        assert_eq!(report[0], ("setup_s", "s", 1.5));
        assert_eq!(v.get("latency_p50_us"), 0.0);
        assert_eq!(v.get("throughput_ops_s"), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
