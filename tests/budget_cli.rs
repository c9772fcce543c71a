//! End-to-end tests of the anytime-budget CLI surface: deadline and
//! fault-injection degradation (exit 0 plus an explicit incomplete
//! note), typed too-wide errors (exit 2 instead of the old assert
//! panic), flag validation, and the `soak` stress command.

use std::path::PathBuf;
use std::process::{Command, Output};

const PROBLEM: &str = "examples/problems/carlocpart.vp";

fn viewplan(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_viewplan"));
    cmd.args(args);
    // The fault hook must not leak in from the ambient environment.
    cmd.env_remove("VIEWPLAN_FAULT");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("failed to spawn viewplan")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// Writes a throwaway problem file and returns its path.
fn write_problem(name: &str, contents: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("viewplan_budget_{name}_{}.vp", std::process::id()));
    std::fs::write(&path, contents).expect("cannot write temp problem");
    path
}

/// A 25-subgoal query whose only rewriting is too wide for the M2 DP —
/// the input that used to trip `assert!(n <= 24)` and abort.
fn wide_problem() -> PathBuf {
    let mut text = String::new();
    let body: Vec<String> = (0..25).map(|i| format!("p{i}(X{i})")).collect();
    text.push_str(&format!("q(X0) :- {}.\n", body.join(", ")));
    for i in 0..25 {
        text.push_str(&format!("v{i}(A) :- p{i}(A).\n"));
    }
    for i in 0..25 {
        text.push_str(&format!("p{i}(c).\n"));
    }
    write_problem("wide", &text)
}

#[test]
fn injected_deadline_fault_degrades_to_best_so_far_exit_zero() {
    let out = viewplan(
        &["rewrite", PROBLEM, "--node-budget", "100000"],
        &[("VIEWPLAN_FAULT", "deadline:1")],
    );
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("deadline_exceeded"),
        "missing incomplete note: {text}"
    );
    assert!(
        text.contains("rewriting(s)"),
        "no best-so-far output: {text}"
    );
}

#[test]
fn plan_with_injected_deadline_fault_does_not_panic() {
    let out = viewplan(
        &["plan", PROBLEM, "--model", "m2", "--node-budget", "100000"],
        &[("VIEWPLAN_FAULT", "deadline:1")],
    );
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("deadline_exceeded"),
        "stdout: {}",
        stdout(&out)
    );
}

#[test]
fn eval_does_not_deny_a_rewriting_the_budget_cut_short() {
    const FILTER: &str = "examples/problems/filter_pays.vp";
    let whole = stdout(&viewplan(&["eval", FILTER], &[]));
    assert!(whole.contains("via rewriting"), "stdout: {whole}");
    for fault in ["cover:1", "hom:1", "deadline:1"] {
        let out = viewplan(&["eval", FILTER], &[("VIEWPLAN_FAULT", fault)]);
        assert_eq!(out.status.code(), Some(0), "{fault}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("budget exhausted"), "{fault}: {text}");
        assert!(
            !text.contains("no equivalent rewriting over the views"),
            "{fault}: a cut search denies that a rewriting exists: {text}"
        );
        assert!(
            text.contains("via rewriting")
                || text.contains("no equivalent rewriting found before the budget ran out"),
            "{fault}: {text}"
        );
    }
}

#[test]
fn timeout_flag_is_accepted_and_completes_on_easy_input() {
    let out = viewplan(&["rewrite", PROBLEM, "--timeout-ms", "60000"], &[]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    // A generous deadline on a tiny problem should not truncate.
    assert!(!stdout(&out).contains("budget exhausted"));
}

#[test]
fn too_wide_m2_input_is_a_clean_input_error() {
    let path = wide_problem();
    let out = viewplan(&["plan", path.to_str().unwrap(), "--model", "m2"], &[]);
    assert_eq!(out.status.code(), Some(2), "stdout: {}", stdout(&out));
    assert!(
        stderr(&out).contains("25 subgoals"),
        "stderr: {}",
        stderr(&out)
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn bad_budget_flag_values_are_input_errors() {
    for bad in [
        &["rewrite", PROBLEM, "--timeout-ms", "0"][..],
        &["rewrite", PROBLEM, "--timeout-ms", "soon"],
        &["rewrite", PROBLEM, "--node-budget", "-5"],
        &["soak", "--queries", "none"],
    ] {
        let out = viewplan(bad, &[]);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}: {}", stderr(&out));
    }
}

#[test]
fn bad_fault_spec_is_an_input_error() {
    let out = viewplan(&["rewrite", PROBLEM], &[("VIEWPLAN_FAULT", "gremlin")]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("VIEWPLAN_FAULT"));
}

#[test]
fn soak_under_tight_budget_exits_cleanly() {
    let out = viewplan(&["soak", "--queries", "6", "--timeout-ms", "50"], &[]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("6 queries"), "stdout: {text}");
    assert!(text.contains("verified equivalent"), "stdout: {text}");
}

#[test]
fn soak_with_injected_cover_fault_still_verifies() {
    let out = viewplan(
        &["soak", "--queries", "3", "--node-budget", "5000"],
        &[("VIEWPLAN_FAULT", "cover:1")],
    );
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("verified equivalent"),
        "stdout: {}",
        stdout(&out)
    );
}
