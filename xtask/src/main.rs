//! `cargo run -p xtask -- lint` — repo lints for the viewplan workspace;
//! `cargo run -p xtask -- lines` — non-test lines per source root.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The xtask manifest lives at <root>/xtask, so the workspace root is
    // its parent; this keeps the tool cwd-independent.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or_else(|| Path::new("."));
    match args.first().map(String::as_str) {
        Some("lint") => {
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
        Some("lines") => {
            let counts = xtask::count_lines(root);
            for (dir, lines) in &counts {
                println!("{lines:>7}  {dir}");
            }
            let total: usize = counts.iter().map(|(_, lines)| lines).sum();
            println!("{total:>7}  total");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint | lines");
            ExitCode::FAILURE
        }
    }
}
