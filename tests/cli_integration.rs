//! End-to-end tests of the `viewplan` binary against the bundled example
//! problems: exit codes, answer agreement, and the `--stats` /
//! `--stats-json` reporters.

use std::path::Path;
use std::process::{Command, Output, Stdio};

const PROBLEM: &str = "examples/problems/carlocpart.vp";
/// Views, a `---` line, queries: what `batch` reads.
const BATCH: &str = "tests/golden/batch_carlocpart.vp";

fn viewplan(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_viewplan"))
        .args(args)
        .output()
        .expect("failed to spawn viewplan")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn rewrite_succeeds_on_example_problem() {
    let out = viewplan(&["rewrite", PROBLEM]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("v4"), "stdout: {}", stdout(&out));
}

#[test]
fn plan_succeeds_for_each_cost_model() {
    for model in ["m1", "m2", "m3"] {
        let out = viewplan(&["plan", PROBLEM, "--model", model]);
        assert!(
            out.status.success(),
            "model {model} failed, stderr: {}",
            stderr(&out)
        );
        assert!(stdout(&out).contains("best rewriting"));
    }
}

#[test]
fn eval_answers_agree() {
    let out = viewplan(&["eval", PROBLEM]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("answers agree"),
        "stdout: {}",
        stdout(&out)
    );
}

#[test]
fn missing_file_fails_with_exit_code_2() {
    let out = viewplan(&["plan", "examples/problems/no_such_problem.vp"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("cannot read"));
}

#[test]
fn unknown_subcommand_fails() {
    let out = viewplan(&["frobnicate", PROBLEM]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn unknown_misplaced_and_valueless_options_fail_with_exit_code_2() {
    for (args, complaint) in [
        // A typo must not silently run with the default behaviour.
        (
            &["rewrite", PROBLEM, "--no-prnue"][..],
            "unknown option \"--no-prnue\"",
        ),
        (
            &["rewrite", PROBLEM, "--thread", "8"],
            "unknown option \"--thread\"",
        ),
        // A real option, on a command that does not take it.
        (
            &["eval", PROBLEM, "--model", "m2"],
            "unknown option \"--model\" for `viewplan eval`",
        ),
        (
            &["rewrite", PROBLEM, "--workers", "2"],
            "unknown option \"--workers\"",
        ),
        // A value option with nothing after it.
        (
            &["plan", PROBLEM, "--model"],
            "option --model expects a value",
        ),
    ] {
        let out = viewplan(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(complaint),
            "{args:?}: {}",
            stderr(&out)
        );
        assert!(
            stdout(&out).is_empty(),
            "{args:?} ran anyway: {}",
            stdout(&out)
        );
    }
}

/// Writes a throwaway problem file and returns its path.
fn temp_problem(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn malformed_fact_fails_with_exit_code_2() {
    let path = temp_problem(
        "viewplan_cli_bad_fact.vp",
        "q(X) :- e(X, Y).\nv(A, B) :- e(A, B).\ncar(honda, .\n",
    );
    let out = viewplan(&["rewrite", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("bad fact"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn non_ground_fact_fails_with_exit_code_2() {
    let path = temp_problem(
        "viewplan_cli_nonground.vp",
        "q(X) :- e(X, Y).\nv(A, B) :- e(A, B).\ncar(Honda, anderson).\n",
    );
    let out = viewplan(&["eval", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("must be ground"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn empty_file_fails_with_exit_code_2() {
    let path = temp_problem("viewplan_cli_no_rules.vp", "% nothing but comments\n");
    let out = viewplan(&["rewrite", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("no rules"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unknown_model_and_baseline_fail_with_exit_code_2() {
    let out = viewplan(&["plan", PROBLEM, "--model", "m9"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown cost model"));
    let out = viewplan(&["rewrite", PROBLEM, "--baseline", "quantum"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown baseline"));
}

/// The bucket algorithm is not a baseline any more: naming it is an
/// input error that lists the baselines there are.
#[test]
fn bucket_baseline_is_refused_naming_the_valid_ones() {
    let out = viewplan(&["rewrite", PROBLEM, "--baseline", "bucket"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown baseline \"bucket\""), "{err}");
    assert!(err.contains("naive") && err.contains("minicon"), "{err}");
    assert!(stdout(&out).is_empty());
}

/// A request is one thread and `batch` runs its requests one after
/// another, so no command takes `--threads`.
#[test]
fn threads_flag_is_refused_by_every_command() {
    for args in [
        &["rewrite", PROBLEM][..],
        &["plan", PROBLEM],
        &["explain", PROBLEM],
        &["eval", PROBLEM],
        &["check", PROBLEM],
        &["batch", BATCH],
        &["serve", BATCH],
        &["soak"],
        &["loadgen", BATCH, "--connect", "127.0.0.1:1"],
    ] {
        let mut argv = args.to_vec();
        argv.extend("--threads 2".split(' '));
        let out = viewplan(&argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {}", stderr(&out));
        let err = stderr(&out);
        let complaint = format!("unknown option \"--threads\" for `viewplan {}`", args[0]);
        assert!(err.contains(&complaint), "{argv:?}: {err}");
        assert!(!err.contains("belongs to"), "{argv:?}: {err}");
        assert!(stdout(&out).is_empty(), "{argv:?} ran anyway");
    }
}

/// No flag selects an executor: every command runs the columnar one.
#[test]
fn engine_flag_is_refused_by_every_command() {
    for args in [
        &["rewrite", PROBLEM][..],
        &["plan", PROBLEM],
        &["explain", PROBLEM],
        &["eval", PROBLEM],
        &["check", PROBLEM],
        &["batch", BATCH],
        &["serve", BATCH],
        &["soak"],
        &["loadgen", BATCH, "--connect", "127.0.0.1:1"],
    ] {
        let mut argv = args.to_vec();
        argv.extend("--engine row".split(' '));
        let out = viewplan(&argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {}", stderr(&out));
        let err = stderr(&out);
        let complaint = format!("unknown option \"--engine\" for `viewplan {}`", args[0]);
        assert!(err.contains(&complaint), "{argv:?}: {err}");
        assert!(stdout(&out).is_empty(), "{argv:?} ran anyway");
    }
}

/// `explain` names the plan `plan` chooses: the same rewriting (filter
/// grafts included) at the same cost, under M2 and M3, for every problem
/// file that carries facts.
#[test]
fn explain_winner_is_the_plan_that_plan_chooses() {
    let mut fixtures = Vec::new();
    for dir in ["examples/problems", "tests/golden"] {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "vp") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let has_facts = text.lines().any(|l| {
                let l = l.split('%').next().unwrap().trim();
                !l.is_empty() && !l.contains(":-") && l != "---"
            });
            if has_facts {
                fixtures.push(path.to_str().unwrap().to_string());
            }
        }
    }
    fixtures.sort();
    assert!(
        fixtures.iter().any(|f| f.ends_with("filter_pays.vp")),
        "{fixtures:?}"
    );
    for fixture in &fixtures {
        for model in ["m2", "m3"] {
            let explained = viewplan(&["explain", fixture, "--model", model, "--json"]);
            assert!(
                explained.status.success(),
                "{fixture} {model}: {}",
                stderr(&explained)
            );
            let json = viewplan::obs::parse_json(&stdout(&explained)).unwrap();
            let winner = json.get("winner").unwrap();
            let planned = viewplan(&["plan", fixture, "--model", model]);
            if *winner == viewplan::obs::Json::Null {
                // Nothing to explain: `plan` finds no rewriting either.
                assert_eq!(planned.status.code(), Some(2), "{fixture} {model}");
                assert!(stderr(&planned).contains("no equivalent rewriting"));
                continue;
            }
            assert!(
                planned.status.success(),
                "{fixture} {model}: {}",
                stderr(&planned)
            );
            let planned = stdout(&planned);
            let line = |key: &str| {
                let line = planned.lines().find_map(|l| l.strip_prefix(key));
                line.unwrap_or_else(|| panic!("{fixture} {model}: no {key:?} in\n{planned}"))
                    .trim()
                    .to_string()
            };
            let rewriting = winner.get("rewriting").and_then(|r| r.as_str()).unwrap();
            let cost = winner.get("cost").and_then(|c| c.as_f64()).unwrap();
            assert_eq!(
                (rewriting.to_string(), cost.to_string()),
                (line("best rewriting:"), line("cost:")),
                "{fixture} --model {model}: explain's winner is not plan's choice"
            );
        }
    }
}

/// `loadgen` opens no spans, so a trace of it would always be empty.
#[test]
fn trace_flags_are_refused_by_loadgen() {
    let queries = temp_problem("viewplan_cli_loadgen_queries.vp", "q(X) :- a(X, X).\n");
    let json = std::env::temp_dir().join("viewplan_cli_loadgen_trace.json");
    for flag in [&["--trace"][..], &["--trace-json", json.to_str().unwrap()]] {
        let mut argv = vec![
            "loadgen",
            queries.to_str().unwrap(),
            "--connect",
            "127.0.0.1:1",
        ];
        argv.extend(flag);
        let out = viewplan(&argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {}", stderr(&out));
        let complaint = format!(
            "unknown option \"{}\" for `viewplan loadgen` (it belongs to: \
             check, rewrite, plan, explain, eval, batch, serve, soak)",
            flag[0]
        );
        assert!(
            stderr(&out).contains(&complaint),
            "{argv:?}: {}",
            stderr(&out)
        );
        assert!(stdout(&out).is_empty(), "{argv:?} ran anyway");
    }
    let _ = std::fs::remove_file(&queries);
}

/// A trace records the command's own thread; `serve --listen` answers
/// on connection threads, so it refuses both trace flags up front
/// instead of listening and printing a trace without the requests.
#[test]
fn trace_flags_are_refused_by_serve_listen() {
    let views = temp_problem("viewplan_cli_listen_views.vp", "v(A, B) :- a(A, B).\n");
    let json = std::env::temp_dir().join("viewplan_cli_listen_trace.json");
    for flag in [&["--trace"][..], &["--trace-json", json.to_str().unwrap()]] {
        let mut argv = vec!["serve", views.to_str().unwrap(), "--listen", "127.0.0.1:0"];
        argv.extend(flag);
        let mut child = Command::new(env!("CARGO_BIN_EXE_viewplan"))
            .args(&argv)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("failed to spawn viewplan");
        // A server that did start listening would never exit: stop it.
        let give_up = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while child.try_wait().unwrap().is_none() && std::time::Instant::now() < give_up {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let _ = child.kill();
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("connection thread"), "{argv:?}: {err}");
        assert!(
            err.contains("--stats") && err.contains("--metrics-out"),
            "{argv:?}: {err}"
        );
        assert!(!err.contains("listening on"), "{argv:?}: {err}");
    }
    let _ = std::fs::remove_file(&views);
}

#[test]
fn too_wide_query_fails_with_exit_code_2() {
    let body: Vec<String> = (0..65).map(|i| format!("p{i}(X{i})")).collect();
    let head: Vec<String> = (0..65).map(|i| format!("X{i}")).collect();
    let mut contents = format!("q({}) :- {}.\n", head.join(", "), body.join(", "));
    contents.push_str("v0(A) :- p0(A).\n");
    let path = temp_problem("viewplan_cli_wide.vp", &contents);
    let out = viewplan(&["rewrite", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("65 subgoals"));
    let _ = std::fs::remove_file(&path);
}

/// The M1 cost is the subgoal count, so the plan is the one-view
/// rewriting with or without `--all-minimal` — whose list starts with
/// the two-view one. (Planning the first listed rewriting printed
/// `ve(X, Z) ⋈ vf(Z, Y) (cost 2)` under the flag.)
#[test]
fn batch_plans_the_fewest_subgoal_rewriting_under_all_minimal() {
    let path = temp_problem(
        "viewplan_cli_m1_all_minimal.vp",
        "ve(X, Z) :- e(X, Z).\nvf(Z, Y) :- f(Z, Y).\nvall(X, Y) :- e(X, Z), f(Z, Y).\n\
         ---\nq(X, Y) :- e(X, Z), f(Z, Y).\n",
    );
    let file = path.to_str().unwrap();
    for argv in [&["batch", file, "--all-minimal"][..], &["batch", file]] {
        let out = viewplan(argv);
        assert!(out.status.success(), "{argv:?}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(
            text.contains("plan[m1]: vall(X, Y) (cost 1)"),
            "{argv:?}: {text}"
        );
        let listed = text.contains("q(X, Y) :- ve(X, Z), vf(Z, Y)\n");
        assert_eq!(listed, argv.len() == 3, "{argv:?}: {text}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stats_prints_phase_tree_to_stderr() {
    let out = viewplan(&["plan", PROBLEM, "--stats"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    // The report must show the nested phase tree spanning all layers:
    // CoreCover and its sub-phases, containment, optimizer enumeration,
    // and plan execution, plus the counter section.
    for needle in [
        "phases",
        "corecover.run",
        "corecover.tuple_cores",
        "corecover.set_cover",
        "containment.minimize",
        "optimizer.enumerate",
        "engine.execute_plan",
        "containment.checks",
        "cost.plans_enumerated",
    ] {
        assert!(err.contains(needle), "missing {needle:?} in:\n{err}");
    }
    // Without --stats the report must not appear.
    let quiet = viewplan(&["plan", PROBLEM]);
    assert!(quiet.status.success());
    assert!(!stderr(&quiet).contains("phases"));
}

#[test]
fn stats_json_writes_parseable_report() {
    let path = std::env::temp_dir().join("viewplan_cli_stats.json");
    let path_str = path.to_str().unwrap();
    let _ = std::fs::remove_file(&path);

    let out = viewplan(&["plan", PROBLEM, "--stats-json", path_str]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(Path::new(path_str).exists());

    let text = std::fs::read_to_string(&path).unwrap();
    let json = viewplan::obs::parse_json(&text).expect("report must be valid JSON");
    let counters = json.get("counters").expect("report must have counters");
    for key in [
        "corecover.runs",
        "corecover.view_tuples",
        "containment.checks",
        "cost.oracle_calls",
        "engine.joins",
    ] {
        let value = counters
            .get(key)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("missing counter {key:?} in report"));
        assert!(value > 0, "counter {key:?} should be nonzero");
    }
    assert!(json.get("spans").is_some(), "report must have spans");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_flag_renders_a_span_tree_on_stderr() {
    let out = viewplan(&["rewrite", PROBLEM, "--trace"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("trace:"), "missing trace header in:\n{err}");
    assert!(
        err.contains("corecover.run"),
        "missing root span in:\n{err}"
    );
    // stdout stays byte-identical to the untraced run.
    let quiet = viewplan(&["rewrite", PROBLEM]);
    assert_eq!(stdout(&out), stdout(&quiet));
}

#[test]
fn trace_json_output_parses_and_round_trips() {
    let path = std::env::temp_dir().join("viewplan_cli_trace.json");
    let path_str = path.to_str().unwrap();
    let _ = std::fs::remove_file(&path);

    let out = viewplan(&["rewrite", PROBLEM, "--trace-json", path_str]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out), stdout(&viewplan(&["rewrite", PROBLEM])));

    let text = std::fs::read_to_string(&path).unwrap();
    let json = viewplan::obs::parse_json(&text).expect("trace must be valid JSON");
    // Begin/End phases balance per thread and every event carries
    // pid/tid/ts — the library's own validator, so the CLI needs no
    // separate trace-checking command.
    viewplan::obs::validate_chrome_trace(&json).expect("trace must be well-formed");
    assert!(!json
        .as_array()
        .expect("chrome trace is a JSON array")
        .is_empty());
    // Round-trip: rendering the parsed document and re-parsing it is
    // lossless (the CLI emits the same subset `obs::Json` models).
    let reparsed = viewplan::obs::parse_json(&json.render()).unwrap();
    assert_eq!(reparsed, json);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn metrics_out_writes_prometheus_exposition() {
    let path = std::env::temp_dir().join("viewplan_cli_metrics.prom");
    let path_str = path.to_str().unwrap();
    let _ = std::fs::remove_file(&path);

    // The stream repeats, so the exposition carries both lookup
    // counters: the first pass misses, the second hits.
    let out = viewplan(&[
        "batch",
        "--workload",
        "star",
        "--queries",
        "3",
        "--repeat",
        "2",
        "--metrics-out",
        path_str,
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("# TYPE viewplan_serve_requests_total counter"));
    assert!(text.contains("viewplan_serve_cache_hits_total"));
    assert!(
        text.contains("viewplan_serve_request_latency_us_bucket"),
        "latency histogram missing in:\n{text}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn explain_needs_facts_for_m2_and_defaults_to_m1_without() {
    let out = viewplan(&["explain", "tests/golden/example_3_1_lmr_chain.vp"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("model: m1"));

    let out = viewplan(&[
        "explain",
        "tests/golden/example_3_1_lmr_chain.vp",
        "--model",
        "m2",
    ]);
    assert_eq!(out.status.code(), Some(2), "m2 without facts must exit 2");
}
