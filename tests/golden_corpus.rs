//! Golden-corpus snapshot tests: the paper's numbered examples (and a
//! few generator-derived streams) run through the real `viewplan`
//! binary, with stdout compared byte-for-byte against checked-in
//! expectations under `tests/golden/expected/`.
//!
//! Every golden then runs again **in process**, twice, against the same
//! expectation: once under the row executor (the differential oracle,
//! installed with `viewplan::engine::install`) and once at the default
//! columnar executor. The executor may not change a byte of stdout or
//! the exit code.
//!
//! Only stdout is golden — stderr carries timings and cache counters,
//! which are deliberately nondeterministic. To accept new output after
//! an intentional change:
//!
//! ```text
//! VIEWPLAN_REGEN_GOLDEN=1 cargo test --test golden_corpus
//! ```

use std::path::Path;
use std::process::Command;
use viewplan::engine::Engine;

/// Runs `viewplan <args>` from the repo root and compares its stdout to
/// `tests/golden/expected/<name>.txt` — once through the executable at
/// the defaults, then in process under the row executor and at the
/// default.
fn check(name: &str, args: &[&str]) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_viewplan"))
        .current_dir(root)
        .args(args)
        .output()
        .expect("failed to spawn viewplan");
    assert!(
        out.status.success(),
        "viewplan {args:?} exited with {:?}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("stdout must be UTF-8");
    let expected_path = root
        .join("tests/golden/expected")
        .join(format!("{name}.txt"));

    if std::env::var_os("VIEWPLAN_REGEN_GOLDEN").is_some() {
        std::fs::write(&expected_path, &actual)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", expected_path.display()));
        return;
    }

    let expected = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n\
             hint: VIEWPLAN_REGEN_GOLDEN=1 cargo test --test golden_corpus",
            expected_path.display()
        )
    });
    if actual != expected {
        panic!(
            "golden mismatch for {name}:\n{}\n\
             hint: VIEWPLAN_REGEN_GOLDEN=1 cargo test --test golden_corpus",
            first_divergence(&expected, &actual)
        );
    }

    let argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    for (engine, pinned) in [("row", Some(Engine::Row)), ("default", None)] {
        let _engine = pinned.map(viewplan::engine::install);
        let mut stdout = Vec::new();
        let code = viewplan::cli::run(&argv, &viewplan::cli::Env::default(), &mut stdout);
        assert_eq!(code, 0, "{name} [engine={engine}]: exit code {code}");
        let actual = String::from_utf8(stdout).expect("stdout must be UTF-8");
        assert!(
            actual == expected,
            "golden mismatch for {name} [engine={engine}]:\n{}",
            first_divergence(&expected, &actual)
        );
    }
}

/// The first line where expected and actual output disagree, for a diff
/// small enough to read in a CI log.
fn first_divergence(expected: &str, actual: &str) -> String {
    let (mut exp, mut act) = (expected.lines(), actual.lines());
    let mut line = 0usize;
    loop {
        line += 1;
        match (exp.next(), act.next()) {
            (None, None) => return "outputs differ only in trailing bytes".to_string(),
            (e, a) if e == a => continue,
            (e, a) => {
                return format!(
                    "line {line}:\n  expected: {}\n  actual:   {}",
                    e.unwrap_or("<end of output>"),
                    a.unwrap_or("<end of output>")
                );
            }
        }
    }
}

/// Goldens the `--stats-json` *counters* of a `rewrite` run at the
/// defaults (serial, columnar) — counter values are deterministic for a
/// serial pipeline; the span timings in the rest of the report are not,
/// so only this section is snapshotted (rendered as sorted `key = value`
/// lines). Unlike stdout, the counters *do* name the engine, so this
/// snapshot stays out of the in-process matrix.
fn check_stats_counters(name: &str, problem: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let json_path = std::env::temp_dir().join(format!("viewplan_golden_{name}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_viewplan"))
        .current_dir(root)
        .args([
            "rewrite",
            problem,
            "--stats-json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .expect("failed to spawn viewplan");
    assert!(
        out.status.success(),
        "viewplan rewrite {problem} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&json_path).expect("stats-json report must exist");
    let _ = std::fs::remove_file(&json_path);
    let report = viewplan::obs::parse_json(&text).expect("report must be valid JSON");
    let viewplan::obs::Json::Object(counters) =
        report.get("counters").expect("report must have counters")
    else {
        panic!("counters must be a JSON object");
    };
    let mut actual = String::new();
    for (key, value) in counters {
        actual.push_str(&format!(
            "{key} = {}\n",
            value.as_u64().expect("counters are integers")
        ));
    }

    let expected_path = root
        .join("tests/golden/expected")
        .join(format!("{name}.txt"));
    if std::env::var_os("VIEWPLAN_REGEN_GOLDEN").is_some() {
        std::fs::write(&expected_path, &actual)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", expected_path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n\
             hint: VIEWPLAN_REGEN_GOLDEN=1 cargo test --test golden_corpus",
            expected_path.display()
        )
    });
    if actual != expected {
        panic!(
            "golden counter mismatch for {name}:\n{}\n\
             hint: VIEWPLAN_REGEN_GOLDEN=1 cargo test --test golden_corpus",
            first_divergence(&expected, &actual)
        );
    }
}

#[test]
fn example_1_1_stats_counters() {
    check_stats_counters(
        "example_1_1_stats_counters",
        "tests/golden/example_1_1_carlocpart.vp",
    );
}

#[test]
fn example_4_1_stats_counters() {
    check_stats_counters(
        "example_4_1_stats_counters",
        "tests/golden/example_4_1_table2.vp",
    );
}

#[test]
fn acyclic_chain_stats_counters() {
    check_stats_counters(
        "acyclic_chain_stats_counters",
        "examples/problems/acyclic_chain.vp",
    );
}

macro_rules! golden {
    ($($name:ident => [$($arg:expr),+ $(,)?];)+) => {$(
        #[test]
        fn $name() {
            check(stringify!($name), &[$($arg),+]);
        }
    )+};
}

golden! {
    // The paper's numbered examples through `rewrite`.
    example_1_1_rewrite => ["rewrite", "tests/golden/example_1_1_carlocpart.vp"];
    example_1_1_all_minimal =>
        ["rewrite", "tests/golden/example_1_1_carlocpart.vp", "--all-minimal"];
    example_1_1_no_grouping =>
        ["rewrite", "tests/golden/example_1_1_carlocpart.vp", "--no-grouping"];
    example_3_1_rewrite => ["rewrite", "tests/golden/example_3_1_lmr_chain.vp"];
    example_4_1_rewrite => ["rewrite", "tests/golden/example_4_1_table2.vp"];
    example_4_2_rewrite => ["rewrite", "tests/golden/example_4_2_minicon_gap.vp"];
    example_4_2_minicon_baseline =>
        ["rewrite", "tests/golden/example_4_2_minicon_gap.vp", "--baseline", "minicon"];
    example_6_1_all_minimal =>
        ["rewrite", "tests/golden/example_6_1_figure5.vp", "--all-minimal"];
    section_3_2_rewrite => ["rewrite", "tests/golden/section_3_2_gmr_not_cmr.vp"];
    section_8_rewrite => ["rewrite", "tests/golden/section_8_shape.vp"];
    unanswerable_rewrite => ["rewrite", "tests/golden/unanswerable.vp"];

    // End-to-end plans (cost models over the bundled base data).
    carlocpart_plan_m2 => ["plan", "examples/problems/carlocpart.vp", "--model", "m2"];
    example_6_1_plan_m3 => ["plan", "tests/golden/example_6_1_figure5.vp", "--model", "m3"];

    // The serving layer: per-query stdout is deterministic at any cache
    // setting, so batches golden cleanly.
    batch_carlocpart => ["batch", "tests/golden/batch_carlocpart.vp"];
    batch_carlocpart_no_cache => ["batch", "tests/golden/batch_carlocpart.vp", "--no-cache"];
    batch_example41_variants => ["batch", "tests/golden/batch_example41.vp"];

    // Provenance: `explain --json` is a machine interface and every
    // field it emits is deterministic for a fixed input (measured sizes
    // come from the bundled base data, not wall clock). Example 3.1 has
    // no facts (M1 provenance); Example 6.1 exercises the M3 breakdown
    // with the paper's Figure 5 data.
    explain_json_example_3_1 =>
        ["explain", "tests/golden/example_3_1_lmr_chain.vp", "--json"];
    explain_json_example_6_1 =>
        ["explain", "tests/golden/example_6_1_figure5.vp", "--model", "m3", "--json"];
    explain_example_6_1_human =>
        ["explain", "tests/golden/example_6_1_figure5.vp", "--model", "m3"];

    // Static analysis: `check --json` is a machine interface (editors,
    // CI annotations), so its exact bytes are golden. One clean fixture
    // and one with a deliberate VP005 warning (warnings exit 0).
    check_json_example_1_1 => ["check", "tests/golden/example_1_1_carlocpart.vp", "--json"];
    check_json_unanswerable => ["check", "tests/golden/unanswerable.vp", "--json"];

    // The acyclic fixtures: structural provenance (the `structure` line
    // and VP007's hypertree-width annotation) is a property of the
    // hypergraph. The star's winner is a single bundled-view access; the chain's
    // twelve hops tile into exactly three v4 accesses, and its VP007
    // candidate estimate crosses the blowup threshold with the width
    // annotation explaining why the blowup is benign.
    acyclic_star_rewrite => ["rewrite", "examples/problems/acyclic_star.vp"];
    acyclic_chain_rewrite => ["rewrite", "examples/problems/acyclic_chain.vp"];
    explain_acyclic_star => ["explain", "examples/problems/acyclic_star.vp"];
    explain_json_acyclic_chain => ["explain", "examples/problems/acyclic_chain.vp", "--json"];
    check_json_acyclic_star => ["check", "examples/problems/acyclic_star.vp", "--json"];
    check_json_acyclic_chain => ["check", "examples/problems/acyclic_chain.vp", "--json"];

    // Generator-derived streams (deterministic in the seed).
    batch_workload_star =>
        ["batch", "--workload", "star", "--queries", "4", "--views", "10",
         "--seed", "3", "--repeat", "2"];
    batch_workload_chain =>
        ["batch", "--workload", "chain", "--queries", "3", "--views", "8",
         "--seed", "5", "--repeat", "2"];
}
