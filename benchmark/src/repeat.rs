//! `repeat`: run the suite several times and say whether the runs agree.
//!
//! Each set runs every workload once, untraced, each in a process of its
//! own. Per workload and end-to-end metric the report gives the median,
//! the quartiles and the spread — interquartile range over median, the
//! driver's measure — beside the metric's bound from `BENCHMARK.json`,
//! and the command exits non-zero when any two sets differ by more than
//! that bound. Sets use one seed unless `--vary-seed` steps it per set,
//! which is how the driver measures spread.

use crate::metrics::{bounds, END_TO_END};
use crate::procinfo::machine_descriptor;
use crate::stats::{quartiles, relative_spread, sorted};
use crate::{workloads, Args};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use viewplan_obs::{parse_json, Json};

/// One workload run's `metrics` object, by name.
type Metrics = BTreeMap<String, f64>;

fn run_child(workload: &str, seed: u64, args: &Args) -> Result<(Metrics, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.options.seconds.to_string()])
        .stderr(Stdio::null());
    if args.options.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed no result"))?;
    let doc = parse_json(line).map_err(|e| format!("{workload}: result is not JSON: {e:?}"))?;
    let Some(Json::Object(map)) = doc.get("metrics") else {
        return Err(format!("{workload}: result has no metrics"));
    };
    let metrics = map
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    let correct = matches!(doc.get("correct"), Some(Json::Bool(true)));
    Ok((metrics, correct && output.status.success()))
}

/// Largest relative difference between any two of `values`.
fn worst_pair(values: &[f64]) -> f64 {
    let v = sorted(values);
    match (v.first(), v.last()) {
        (Some(&lo), Some(&hi)) if lo > 0.0 => (hi - lo) / lo,
        _ => 0.0,
    }
}

pub fn run(args: &Args) -> bool {
    println!("machine:");
    for (key, value) in machine_descriptor() {
        println!("  {key}: {value}");
    }
    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let bounds = bounds();
    let mut all_ok = true;
    // workload → metric → one value per set
    let mut table: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for set in 0..args.sets {
        let seed = args.options.seed + if args.vary_seed { set as u64 } else { 0 };
        for &workload in &names {
            eprintln!("set {} of {}: {workload} (seed {seed})", set + 1, args.sets);
            match run_child(workload, seed, args) {
                Ok((metrics, correct)) => {
                    if !correct {
                        println!(
                            "FAILED: {workload} set {} reported incorrect results",
                            set + 1
                        );
                        all_ok = false;
                    }
                    for (name, value) in metrics {
                        table
                            .entry(workload)
                            .or_default()
                            .entry(name)
                            .or_default()
                            .push(value);
                    }
                }
                Err(e) => {
                    println!("FAILED: {e}");
                    all_ok = false;
                }
            }
        }
    }
    println!(
        "\n{:<14} {:<18} {:>13} {:>13} {:>13} {:>8} {:>8} {:>6}  sets",
        "workload", "metric", "q1", "median", "q3", "spread", "worst", "bound"
    );
    for &workload in &names {
        let Some(metrics) = table.get(workload) else {
            continue;
        };
        for def in END_TO_END {
            let Some(values) = metrics.get(def.name) else {
                continue;
            };
            let [q1, q2, q3] = quartiles(values);
            let spread = relative_spread(values);
            let worst = worst_pair(values);
            let bound = bounds.get(def.name).copied().unwrap_or(0.0);
            let verdict = if worst > bound {
                all_ok = false;
                "  DISAGREE"
            } else {
                ""
            };
            println!(
                "{workload:<14} {:<18} {q1:>13.4} {q2:>13.4} {q3:>13.4} {:>7.2}% {:>7.2}% {:>5.0}%  {}{verdict}",
                def.name,
                spread * 100.0,
                worst * 100.0,
                bound * 100.0,
                values.len(),
            );
        }
    }
    println!(
        "\n{}",
        if all_ok {
            "every pair of sets agrees within the bounds"
        } else {
            "some sets disagree beyond a bound, or a run failed"
        }
    );
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_pair_is_the_widest_relative_gap() {
        assert!((worst_pair(&[100.0, 104.0, 110.0]) - 0.10).abs() < 1e-12);
        assert_eq!(worst_pair(&[5.0]), 0.0);
        assert_eq!(worst_pair(&[]), 0.0);
    }
}
