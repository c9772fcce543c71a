//! The `viewplan` executable: reads the process environment once and
//! hands over to [`viewplan::cli::run`]. See that module for usage.

use std::io::IsTerminal;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let env = viewplan::cli::Env {
        fault: std::env::var("VIEWPLAN_FAULT")
            .ok()
            .filter(|v| !v.is_empty()),
        color: std::env::var_os("NO_COLOR").is_none() && std::io::stdout().is_terminal(),
    };
    ExitCode::from(viewplan::cli::run(&args, &env, &mut std::io::stdout()))
}
