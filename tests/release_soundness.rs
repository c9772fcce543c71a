//! One behaviour in both profiles: the release binary serves only
//! equivalent rewritings.
//!
//! Until cover assembly became sound by construction, `corecover.rs`
//! verified covers only in builds with debug assertions on, so every test
//! ran a pipeline the release binary did not. The three fixtures
//! `examples/problems/overlap_*.vp` are where the two differed; this
//! file runs them through the binary tier-1's `cargo build --release`
//! has just produced, through the binary of this test's own profile, and
//! through the library.

use std::path::{Path, PathBuf};
use std::process::Command;
use viewplan::prelude::*;

const FIXTURES: [&str; 3] = [
    "examples/problems/overlap_not_a_rewriting.vp",
    "examples/problems/overlap_oracle_only.vp",
    "examples/problems/overlap_class_order.vp",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `target/release/viewplan` under `CARGO_TARGET_DIR` (or the default
/// target directory); `None` when no release build has been made.
fn release_binary() -> Option<PathBuf> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let binary = root()
        .join(target)
        .join("release")
        .join(format!("viewplan{}", std::env::consts::EXE_SUFFIX));
    binary.is_file().then_some(binary)
}

/// The binaries to hold to the invariant: this test's own profile always,
/// the release build when there is one.
fn binaries() -> Vec<PathBuf> {
    let mut binaries = vec![PathBuf::from(env!("CARGO_BIN_EXE_viewplan"))];
    match release_binary() {
        Some(release) => binaries.push(release),
        None => eprintln!("no release binary found: run `cargo build --release` first"),
    }
    binaries
}

/// Runs one CLI command on a fixture; returns (exit code, stdout + stderr).
fn run(binary: &Path, command: &str, fixture: &str) -> (Option<i32>, String) {
    let out = Command::new(binary)
        .current_dir(root())
        .args([command, fixture])
        .output()
        .unwrap_or_else(|e| panic!("cannot run {}: {e}", binary.display()));
    let text =
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    (out.status.code(), text)
}

#[test]
fn every_binary_rejects_the_cover_that_is_not_a_rewriting() {
    for binary in binaries() {
        let (code, text) = run(&binary, "rewrite", FIXTURES[0]);
        assert_eq!(code, Some(0), "{}:\n{text}", binary.display());
        assert!(
            text.contains("0 globally-minimal rewriting(s)"),
            "{} serves a Cartesian product:\n{text}",
            binary.display()
        );
        let (code, text) = run(&binary, "eval", FIXTURES[0]);
        assert_eq!(code, Some(0), "{}:\n{text}", binary.display());
        assert!(
            !text.contains("answers disagree"),
            "{}:\n{text}",
            binary.display()
        );
    }
}

#[test]
fn every_binary_gives_the_same_output_on_the_overlap_fixtures() {
    let binaries = binaries();
    for fixture in FIXTURES {
        for command in ["rewrite", "eval"] {
            let reference = run(&binaries[0], command, fixture);
            assert_eq!(
                reference.0,
                Some(0),
                "{command} {fixture}:\n{}",
                reference.1
            );
            for other in &binaries[1..] {
                assert_eq!(
                    run(other, command, fixture),
                    reference,
                    "{} and {} differ on {command} {fixture}",
                    other.display(),
                    binaries[0].display()
                );
            }
        }
    }
}

/// The same invariant through the library, in whatever profile this
/// test was compiled: `cargo test --release --test release_soundness`
/// exercises the release profile without any binary.
#[test]
fn the_library_returns_equivalent_rewritings_only() {
    let expected = [
        vec![],
        vec!["q(P, R) :- va(P, Y), vb(X, R, P)"],
        vec!["q(P, R) :- va2(P, X, Y), vb(X, R)"],
    ];
    for (fixture, expected) in FIXTURES.iter().zip(expected) {
        // Rules only: the facts are for the CLI's `eval`.
        let text = std::fs::read_to_string(root().join(fixture)).unwrap();
        let mut rules = text
            .lines()
            .filter(|line| !line.starts_with('%') && line.contains(":-"))
            .map(|line| parse_query(line.trim_end_matches('.')).unwrap());
        let query = rules.next().unwrap();
        let views = ViewSet::from_views(rules.map(View::new));
        for all_minimal in [false, true] {
            let cc = CoreCover::new(&query, &views);
            let result = if all_minimal {
                cc.run_all_minimal()
            } else {
                cc.run()
            };
            let printed: Vec<String> = result.rewritings().iter().map(|r| r.to_string()).collect();
            assert_eq!(printed, expected, "{fixture}");
            for r in result.rewritings() {
                assert!(viewplan::core::is_equivalent_rewriting(r, &query, &views));
            }
        }
        // The optimizer and the serving layer run the same default
        // configuration, so neither can hand out what CoreCover refused.
        let served = BatchServer::new(&views).serve(&query).unwrap();
        assert_eq!(served.rewritings.len(), expected.len(), "{fixture}");
    }
}
