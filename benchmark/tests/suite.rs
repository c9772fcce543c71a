//! Drives the built benchmark the way the driver does.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::{Duration, Instant};
use viewplan_obs::{parse_json, Json};

const EXE: &str = env!("CARGO_BIN_EXE_viewplan-benchmark");

/// Runs the benchmark and returns its stdout lines parsed as JSON.
fn run(args: &[&str]) -> (bool, Vec<Json>) {
    let out = Command::new(EXE)
        .args(args)
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines = stdout
        .lines()
        .map(|l| parse_json(l).unwrap_or_else(|e| panic!("not JSON ({e:?}): {l}")))
        .collect();
    (out.status.success(), lines)
}

fn metrics(doc: &Json) -> BTreeMap<String, f64> {
    let Some(Json::Object(map)) = doc.get("metrics") else {
        panic!("result without metrics");
    };
    map.iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).expect("metric value");
            (name.clone(), value)
        })
        .collect()
}

#[test]
fn smoke_suite_passes_in_seconds_and_reports_every_end_to_end_metric() {
    let began = Instant::now();
    let (ok, lines) = run(&["run", "--workload", "all", "--smoke"]);
    assert!(ok, "the smoke suite failed");
    assert!(
        began.elapsed() < Duration::from_secs(15),
        "smoke suite took {:?}",
        began.elapsed()
    );
    assert_eq!(lines.len(), 5, "one result line per workload");
    for doc in &lines {
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
        assert!(
            doc.get("attempted")
                .and_then(Json::as_u64)
                .expect("attempted")
                >= 1
        );
        let m = metrics(doc);
        for name in [
            "setup_s",
            "throughput_ops_s",
            "latency_p50_us",
            "latency_p95_us",
            "peak_rss_mb",
            "chosen_plan_cost",
        ] {
            assert!(m[name] > 0.0, "{name} is {}", m[name]);
        }
        assert_eq!(m.len(), 6);
    }
}

/// The counts marked (n) in the README: with one thread they repeat
/// exactly for a seed, whatever the machine does to the timings.
#[test]
fn traced_counts_repeat_exactly_and_differ_from_zero() {
    let counted: [(&str, &[&str]); 3] = [
        (
            "rewrite_cold",
            &[
                "containment.checks",
                "core.view_tuples",
                "core.representative_tuples",
                "core.set_cover_nodes",
                "core.rewritings",
            ],
        ),
        (
            "plan_search",
            &["cost.plans_enumerated", "cost.oracle_calls"],
        ),
        (
            "execute_views",
            &[
                "engine.join_probes",
                "engine.batch_build_rows",
                "engine.intermediate_rows",
                "engine.answer_rows",
            ],
        ),
    ];
    for (workload, names) in counted {
        let args = [
            "run",
            "--workload",
            workload,
            "--smoke",
            "--seed",
            "7",
            "--trace",
            "1",
        ];
        let (ok_a, a) = run(&args);
        let (ok_b, b) = run(&args);
        assert!(ok_a && ok_b, "{workload} traced smoke run failed");
        let (a, b) = (metrics(&a[0]), metrics(&b[0]));
        for name in names {
            assert!(a[*name] > 0.0, "{workload}: {name} is 0");
            assert_eq!(
                a[*name], b[*name],
                "{workload}: {name} differs between two runs"
            );
        }
        assert!(a["obs.trace_overhead_ratio"] > 0.0);
        assert!(a["layers.self_time_over_wall"] > 0.5);
    }
}

#[test]
fn serve_workloads_separate_hits_from_churn() {
    let (ok, hot) = run(&["run", "--workload", "serve_hot", "--smoke", "--trace", "1"]);
    assert!(ok);
    let hot = metrics(&hot[0]);
    assert!(
        hot["serve.cache.hit_ratio"] >= 0.99,
        "{}",
        hot["serve.cache.hit_ratio"]
    );
    assert!(hot["share.core_containment"] <= 0.10);
    let (ok, churn) = run(&[
        "run",
        "--workload",
        "serve_churn",
        "--smoke",
        "--trace",
        "1",
    ]);
    assert!(ok);
    let churn = metrics(&churn[0]);
    assert!(churn["serve.cache.evictions"] > 0.0);
    assert!(churn["serve.catalog.epoch_swaps"] > 0.0);
    assert!(churn["serve.cache.hit_ratio"] < 0.99);
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [&["run", "--workload", "nope"][..], &["frobnicate"], &[]] {
        let out = Command::new(EXE)
            .args(args)
            .output()
            .expect("benchmark starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
