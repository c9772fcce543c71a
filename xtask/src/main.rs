//! `cargo run -p xtask -- lint` — repo lints for the viewplan workspace;
//! `cargo run -p xtask -- lines` — non-test lines per source root, each
//! file's count under its root.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The xtask manifest lives at <root>/xtask, so the workspace root is
    // its parent; this keeps the tool cwd-independent.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or_else(|| Path::new("."));
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["lint"] => {
            let report = xtask::run_lint(root);
            if report.is_clean() {
                println!("xtask lint: ok");
                ExitCode::SUCCESS
            } else {
                for v in &report.violations {
                    eprintln!("lint: {v}");
                }
                eprintln!("xtask lint: {} violation(s)", report.violations.len());
                ExitCode::FAILURE
            }
        }
        ["lines"] => {
            let mut total = 0;
            for (dir, files) in xtask::count_lines(root) {
                let lines: usize = files.iter().map(|(_, lines)| lines).sum();
                total += lines;
                println!("{lines:>7}  {dir}");
                for (file, lines) in files {
                    println!("{lines:>7}      {file}");
                }
            }
            println!("{total:>7}  total");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint | lines");
            ExitCode::FAILURE
        }
    }
}
