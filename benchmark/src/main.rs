//! The repo benchmark: five workloads from rewrite to served request.
//!
//! ```text
//! viewplan-benchmark run --workload <name|all> [--seed N] [--seconds S]
//!                        [--trace 0|1 | --traced] [--smoke]
//! viewplan-benchmark repeat [--sets N] [--vary-seed] [--workload <name|all>]
//!                           [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! `run` prints, per workload, one line of JSON on stdout — `correct`,
//! `attempted`, `failed`, `metrics` — and a table on stderr. It exits
//! non-zero when a correctness check failed. See `README.md`.

mod gen;
mod harness;
mod layers;
mod metrics;
mod procinfo;
mod repeat;
mod stats;
mod workloads;

use harness::{Outcome, RunOptions, DEFAULT_SEED};
use metrics::{END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Checksums of the generated inputs and of the checked outputs at the
/// default seed, one line per workload and size:
/// `<workload> <full|smoke> inputs=<hex> outputs=<hex>`.
const EXPECTED: &str = include_str!("../expected/default_seed.txt");

const USAGE: &str = "usage:
  viewplan-benchmark run --workload <name|all> [--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke]
  viewplan-benchmark repeat [--sets N] [--vary-seed] [--workload <name|all>] [--seed N] [--seconds S] [--smoke]
workloads: rewrite_cold plan_search execute_views serve_hot serve_churn";

/// Default length of the measured window; `BENCHMARK.json` passes the
/// same number as `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 12.0;

pub struct Args {
    pub workload: String,
    pub options: RunOptions,
    pub sets: usize,
    /// `repeat` only: step the seed per set, as the driver does.
    pub vary_seed: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: "all".to_string(),
        options: RunOptions {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            traced: false,
            smoke: false,
        },
        sets: 3,
        vary_seed: false,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value("--workload")?,
            "--seed" => {
                out.options.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                out.options.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| "--seconds takes a non-negative number".to_string())?;
                seconds_given = true;
            }
            "--trace" => {
                out.options.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--traced" => out.options.traced = true,
            "--smoke" => out.options.smoke = true,
            "--vary-seed" => out.vary_seed = true,
            "--sets" => {
                out.sets = value("--sets")?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 2)
                    .ok_or_else(|| "--sets takes a whole number, at least 2".to_string())?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.options.smoke && !seconds_given {
        out.options.seconds = 0.3;
    }
    if out.workload != "all" && !workloads::NAMES.contains(&out.workload.as_str()) {
        return Err(format!("unknown workload `{}`", out.workload));
    }
    Ok(out)
}

/// The checked-in `(inputs, outputs)` checksums for a workload and size.
fn expected_checksums(workload: &str, smoke: bool) -> Option<(u64, u64)> {
    let size = if smoke { "smoke" } else { "full" };
    EXPECTED.lines().find_map(|line| {
        let mut words = line.split_whitespace();
        if words.next()? != workload || words.next()? != size {
            return None;
        }
        let hex = |word: &str, key: &str| u64::from_str_radix(word.strip_prefix(key)?, 16).ok();
        Some((
            hex(words.next()?, "inputs=")?,
            hex(words.next()?, "outputs=")?,
        ))
    })
}

/// How a default-seed run's checksums differ from the checked-in ones.
fn checksum_problems(expected: Option<(u64, u64)>, outcome: &Outcome) -> Vec<String> {
    let Some((inputs, outputs)) = expected else {
        return vec!["no expected checksums checked in for this workload".to_string()];
    };
    let mut problems = Vec::new();
    if inputs != outcome.inputs_checksum {
        problems.push(format!(
            "generated inputs changed: checksum {:016x}, expected {inputs:016x}",
            outcome.inputs_checksum
        ));
    }
    if outputs != outcome.outputs_checksum {
        problems.push(format!(
            "outputs changed: checksum {:016x}, expected {outputs:016x}",
            outcome.outputs_checksum
        ));
    }
    problems
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric with its value and unit.
fn result_line(outcome: &Outcome, correct: bool, traced: bool) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    let defs = if traced { PER_LAYER } else { END_TO_END };
    for (i, (name, unit, value)) in outcome.values.report(defs).into_iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let _ = write!(
            line,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

fn human_table(workload: &str, args: &Args, outcome: &Outcome, problems: &[String]) -> String {
    let o = &args.options;
    let mut out = format!(
        "== {workload}  seed={} seconds={} {}{}\n   inputs={:016x} outputs={:016x} attempted={} failed={}\n",
        o.seed,
        o.seconds,
        if o.traced { "traced" } else { "untraced" },
        if o.smoke { " smoke (numbers not for comparison)" } else { "" },
        outcome.inputs_checksum,
        outcome.outputs_checksum,
        outcome.attempted,
        outcome.failed,
    );
    let phases: Vec<String> = outcome
        .phases
        .iter()
        .map(|(name, s)| format!("{name} {s:.2}s"))
        .collect();
    let _ = writeln!(out, "   phases: {}", phases.join(", "));
    let defs = if o.traced { PER_LAYER } else { END_TO_END };
    for (name, unit, value) in outcome.values.report(defs) {
        let _ = writeln!(out, "   {name:<40} {value:>16.4} {unit}");
    }
    for p in problems {
        let _ = writeln!(out, "   FAILED: {p}");
    }
    out
}

/// Runs one workload in this process and reports it. Returns whether
/// every check passed.
fn run_one(workload: &str, args: &Args) -> bool {
    // Collection is off unless a traced window turns it on: end-to-end
    // numbers are measured without it.
    viewplan_obs::set_enabled(false);
    let Some(outcome) = workloads::run(workload, &args.options) else {
        eprintln!("unknown workload `{workload}`");
        return false;
    };
    let mut problems = outcome.failures.clone();
    if args.options.seed == DEFAULT_SEED {
        problems.extend(checksum_problems(
            expected_checksums(workload, args.options.smoke),
            &outcome,
        ));
    }
    let correct = outcome.failed == 0 && problems.is_empty();
    eprint!("{}", human_table(workload, args, &outcome, &problems));
    println!("{}", result_line(&outcome, correct, args.options.traced));
    correct
}

/// `run --workload all`: each workload in a process of its own, so that
/// peak memory and CPU time are that workload's alone.
fn run_all(raw: &[String]) -> bool {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot find this executable to start the workloads");
        return false;
    };
    let mut all_correct = true;
    for name in workloads::NAMES {
        let mut child_args = vec![
            "run".to_string(),
            "--workload".to_string(),
            name.to_string(),
        ];
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        match std::process::Command::new(&exe).args(&child_args).status() {
            Ok(status) => all_correct &= status.success(),
            Err(e) => {
                eprintln!("{name}: cannot start: {e}");
                all_correct = false;
            }
        }
    }
    all_correct
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match command.as_str() {
        "run" if args.workload == "all" => run_all(rest),
        "run" => run_one(&args.workload, &args),
        "repeat" => repeat::run(&args),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let a = parse_args(&words(
            "--workload serve_hot --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve_hot");
        assert_eq!(a.options.seed, 7);
        assert_eq!(a.options.seconds, 10.0);
        assert!(a.options.traced && !a.options.smoke);
        let d = parse_args(&[]).unwrap();
        assert_eq!((d.workload.as_str(), d.options.seed), ("all", DEFAULT_SEED));
        assert!(parse_args(&words("--workload nope")).is_err());
        assert!(parse_args(&words("--trace 2")).is_err());
        assert!(parse_args(&words("--seed")).is_err());
        assert!(parse_args(&words("--smoke")).unwrap().options.seconds < 1.0);
    }

    #[test]
    fn every_workload_has_expected_checksums_for_both_sizes() {
        for name in workloads::NAMES {
            for smoke in [false, true] {
                assert!(
                    expected_checksums(name, smoke).is_some(),
                    "expected/default_seed.txt lacks {name} smoke={smoke}"
                );
            }
        }
    }

    #[test]
    fn a_flipped_expected_checksum_is_a_failure() {
        let outcome = Outcome {
            attempted: 1,
            failed: 0,
            values: metrics::Values::default(),
            inputs_checksum: 0xAB,
            outputs_checksum: 0xCD,
            failures: Vec::new(),
            phases: Vec::new(),
        };
        assert!(checksum_problems(Some((0xAB, 0xCD)), &outcome).is_empty());
        let flipped = checksum_problems(Some((0xAB, 0xCC)), &outcome);
        assert_eq!(flipped.len(), 1);
        assert!(flipped[0].starts_with("outputs changed"), "{flipped:?}");
        assert_eq!(checksum_problems(Some((0xAA, 0xCC)), &outcome).len(), 2);
        assert_eq!(checksum_problems(None, &outcome).len(), 1);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut values = metrics::Values::default();
        values.set("setup_s", 0.25);
        let outcome = Outcome {
            attempted: 10,
            failed: 1,
            values,
            inputs_checksum: 1,
            outputs_checksum: 2,
            failures: Vec::new(),
            phases: Vec::new(),
        };
        let line = result_line(&outcome, false, false);
        let doc = viewplan_obs::parse_json(&line).expect("result line is JSON");
        let viewplan_obs::Json::Object(map) = &doc else {
            panic!("result line is not an object");
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let setup = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(
            setup.get("value").and_then(viewplan_obs::Json::as_f64),
            Some(0.25)
        );
        assert_eq!(
            setup.get("unit").and_then(viewplan_obs::Json::as_str),
            Some("s")
        );
        let viewplan_obs::Json::Object(metrics) = doc.get("metrics").expect("metrics") else {
            panic!("metrics is not an object");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
    }
}
