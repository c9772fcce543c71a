//! The `viewplan` command line: a front end to the rewriting generator
//! and optimizer. The binary (`src/bin/viewplan.rs`) reads the process
//! environment into an [`Env`] and hands over to [`run`], which writes
//! stdout into a caller-supplied sink — so the golden corpus can drive
//! every command in process as well as through the executable.
//!
//! ```text
//! viewplan rewrite FILE [--all-minimal] [--no-grouping] [--no-prune] [--baseline {naive,minicon}]
//! viewplan plan    FILE [--model {m1,m2,m3}]
//! viewplan explain FILE [--model {m1,m2,m3}] [--json]
//! viewplan eval    FILE
//! viewplan batch   FILE [--no-cache] [--cache-capacity N] [--csv FILE] [--all-minimal]
//! viewplan batch   --workload {star,chain,random} [--queries N] [--views N] [--seed S] [--repeat K]
//! viewplan serve   VIEWSFILE [--listen ADDR] [--workers N] [--queue-capacity N] [--deadline-ms MS]
//! viewplan loadgen FILE --connect HOST:PORT [--clients N] [--requests N] [--deadline-ms MS]
//! viewplan soak    [--queries N] [--views N] [--seed S]
//! viewplan help
//! ```
//!
//! `batch` answers a whole stream of queries against one view set in a
//! single process: the per-view-set preprocessing runs once, the
//! requests run one after another on the command's thread, and answers
//! are cached by the query's canonical form (identical up to variable
//! renaming). `FILE` holds the view rules, then a `---` line, then one
//! query rule per line; with `--workload` the stream is generated
//! instead. Per-query stdout is byte-identical at any cache setting;
//! cache/latency observability goes to stderr and the optional `--csv`
//! file. Requests run side by side only behind `serve --listen`, one
//! connection thread each.
//! `serve` is the interactive form: views from a file, requests on stdin
//! (or over TCP with `--listen ADDR`, speaking a length-prefixed frame
//! protocol with admission control and load shedding). Both front-ends
//! take the commands of `viewplan_serve::command` (stdin also reads a
//! bare rule as a `query`), among them `add-view <rule>` / `drop-view
//! <name>` DDL: the catalog swaps to a new epoch without stopping
//! traffic, invalidating exactly the cached answers the change can
//! touch. `loadgen` is the matching
//! closed-loop client: it hammers a `--listen` endpoint, retries shed
//! responses with jittered exponential backoff, and fails loudly if any
//! request goes unaccounted or an answer regresses to an older epoch.
//!
//! `explain` replays a rewrite/plan with full provenance: which views the
//! VP006 pre-pass pruned, every candidate cover with its accept/reject
//! verdict and the check that decided it (certified covers are put to
//! the oracle again), and the per-term cost breakdown of the winning plan vs. the
//! runner-up — human-readable by default, a stable JSON document with
//! `--json`. (Timing the program is the job of the standalone harness
//! under `benchmark/`, not of a subcommand.)
//!
//! Every command also accepts `--stats` (print a phase/counter report to
//! stderr), `--stats-json FILE` (dump the full metrics registry as JSON),
//! `--trace` (render the span tree of the command's own thread with
//! typed events on stderr), `--trace-json FILE` (export the same trace
//! as Chrome trace-event JSON for `chrome://tracing` / Perfetto; neither
//! is taken by `loadgen`, nor by `serve --listen`, whose requests run on
//! connection threads), `--metrics-out
//! FILE` (write a Prometheus text-format snapshot of all counters and
//! histograms), parsed once, here, into explicit configuration; no
//! library crate reads the environment. Every command runs the columnar
//! executor; no flag selects another.
//!
//! Anytime budgets: `--timeout-ms MS` bounds the wall clock and
//! `--node-budget N` caps each search's node count (deterministic).
//! When a budget fires the command still exits 0, printing
//! best-so-far results plus an explicit incomplete note — never a hang or
//! a panic. `VIEWPLAN_FAULT=phase:nth` (phase ∈ hom|cover|plan|deadline)
//! injects an exhaustion fault at the nth search of that phase, for
//! testing the degradation paths. `soak` stress-runs generated workloads
//! under a tight budget and post-verifies every returned rewriting.
//!
//! Exit codes: 0 success (even when a budget truncated the result), 2
//! malformed input (bad file, bad flag value, unsupported query), 1
//! internal error.
//!
//! FILE is a plain-text problem description:
//!
//! ```text
//! % the first rule is the query; the remaining rules are views
//! q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C).
//! v1(M, D, C) :- car(M, D), loc(D, C).
//! v2(S, M, C) :- part(S, M, C).
//!
//! % ground atoms are base data (needed by `plan` and `eval`)
//! car(honda, anderson).
//! loc(anderson, palo_alto).
//! part(store1, honda, palo_alto).
//! ```

use crate::analyze::{analyze, analyze_errors, render_human, render_json, render_summary, Layout};
use crate::core::CoreError;
use crate::cost::PlanError;
use crate::cq::Program;
use crate::obs::{BudgetSpec, Completeness, CtxGuard, Fault};
use crate::prelude::*;
use std::io::Write;

/// What the process environment contributes to a run. The binary fills
/// it in once; in-process callers (the golden corpus) use the default.
#[derive(Clone, Debug, Default)]
pub struct Env {
    /// The raw `VIEWPLAN_FAULT` value (`phase:nth`), if set and non-empty.
    pub fault: Option<String>,
    /// Whether `check` may color its human-readable output.
    pub color: bool,
}

/// A CLI failure, split by whose fault it is: malformed input exits with
/// code 2 (scriptable: "fix your file/flags"), internal errors — states
/// the program itself promises are impossible — exit with code 1.
#[derive(Debug)]
enum CliError {
    Input(String),
    Internal(String),
}

impl CliError {
    fn input(msg: impl Into<String>) -> CliError {
        CliError::Input(msg.into())
    }
}

impl From<CoreError> for CliError {
    fn from(e: CoreError) -> CliError {
        CliError::Input(e.to_string())
    }
}

impl From<PlanError> for CliError {
    fn from(e: PlanError) -> CliError {
        CliError::Input(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError::Internal(format!("cannot write output: {e}"))
    }
}

/// Runs `viewplan <args>`, writing what the command prints on stdout to
/// `out` and diagnostics to stderr. Returns the process exit code: 0
/// success, 2 malformed input, 1 internal error.
pub fn run(args: &[String], env: &Env, out: &mut dyn Write) -> u8 {
    match dispatch(args, env, out) {
        Ok(()) => 0,
        Err(CliError::Input(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("run `viewplan help` for usage");
            2
        }
        Err(CliError::Internal(msg)) => {
            eprintln!("internal error: {msg}");
            1
        }
    }
}

fn dispatch(args: &[String], env: &Env, out: &mut dyn Write) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::input("missing command"));
    };
    let rest = &args[1..];
    let name = command.as_str();
    let command: Command = match name {
        "help" | "--help" | "-h" => return print_help(out),
        "check" => {
            check_options(name, rest)?;
            return check(rest, env.color, out);
        }
        "rewrite" => rewrite,
        "plan" => plan,
        "explain" => explain_cmd,
        "eval" => eval,
        "batch" => batch,
        "serve" => serve,
        "loadgen" => loadgen,
        "soak" => soak,
        other => return Err(CliError::Input(format!("unknown command {other:?}"))),
    };
    check_options(name, rest)?;
    let common = Common::parse(env)?;
    let stats = stats_request(rest);
    command(rest, &common, out)?;
    stats.emit()
}

type Command = fn(&[String], &Common, &mut dyn Write) -> Result<(), CliError>;

/// The settings every processing command shares, parsed once from the
/// [`Env`] and passed down as explicit configuration.
struct Common {
    /// The `VIEWPLAN_FAULT` injection, for budgets and the serving layer.
    fault: Option<Fault>,
}

impl Common {
    fn parse(env: &Env) -> Result<Common, CliError> {
        let fault = env
            .fault
            .as_deref()
            .map(|v| Fault::parse(v).map_err(|e| CliError::Input(format!("VIEWPLAN_FAULT: {e}"))))
            .transpose()?;
        Ok(Common { fault })
    }
}

fn print_help(out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(
        out,
        "viewplan — generating efficient plans for queries using views\n\
         \n\
         USAGE:\n\
         viewplan rewrite FILE [--all-minimal] [--no-grouping] [--no-prune] [--baseline naive|minicon]\n\
         viewplan plan    FILE [--model m1|m2|m3]\n\
         viewplan explain FILE [--model m1|m2|m3] [--json]\n\
         viewplan eval    FILE\n\
         viewplan batch   FILE [--no-cache] [--cache-capacity N] [--csv FILE] [--all-minimal]\n\
         viewplan batch   --workload star|chain|random [--queries N] [--views N] [--seed S] [--repeat K]\n\
         viewplan serve   VIEWSFILE [--listen ADDR] [--workers N] [--queue-capacity N]\n\
         viewplan loadgen FILE --connect HOST:PORT [--clients N] [--requests N]\n\
         viewplan soak    [--queries N] [--views N] [--seed S]\n\
         viewplan check   FILE [--json]\n\
         \n\
         `check` runs the static analyzer over a problem or batch file and\n\
         prints coded diagnostics (VP001–VP007) with line:column spans —\n\
         rustc-style by default, a stable JSON document with --json. Exit 2\n\
         iff any error-severity finding (VP001 arity mismatch) is present;\n\
         warnings (dead views, uncoverable subgoals, cartesian products,\n\
         redundant subgoals, predicted blowups) exit 0. The processing\n\
         commands refuse (exit 2) inputs `check` reports errors for.\n\
         \n\
         `batch` serves many queries against one view set in one process:\n\
         the per-view-set preprocessing runs once, the requests run one\n\
         after another, and answers are cached by the query's form up to\n\
         variable renaming (budget-truncated answers are never cached).\n\
         batch FILE = view rules, a `---` line, then one query per line.\n\
         Per-query stdout is byte-identical at any cache setting; cache\n\
         hit/miss and latency columns go to stderr / --csv.\n\
         \n\
         `serve --listen ADDR` turns the interactive server into a TCP\n\
         endpoint (length-prefixed frames; `127.0.0.1:0` picks a port,\n\
         printed to stderr). A connection's thread runs its own requests\n\
         behind an admission gate: --workers pipelines at once,\n\
         --queue-capacity requests waiting their turn, the rest shed — on\n\
         overflow or when the projected wait exceeds the request's\n\
         deadline (`query deadline-ms=N <rule>` or --deadline-ms). Both\n\
         front-ends take the same commands: `query <rule>` (on stdin a\n\
         bare rule too), `add-view <rule>` / `drop-view <name>` (a new\n\
         catalog epoch without stopping traffic), `epoch`, `ping`, `shutdown`.\n\
         `loadgen` drives a listening server closed-loop: --clients\n\
         connections each offering --requests queries from FILE,\n\
         retrying shed responses with jittered exponential backoff\n\
         (--max-retries), reporting throughput and latency percentiles.\n\
         VIEWPLAN_FAULT=accept|read|write|swap:nth injects one serving\n\
         fault at the nth probe of that point, for chaos testing.\n\
         \n\
         `explain` replays a rewrite/plan with provenance: views pruned\n\
         by the VP006 pre-pass, every candidate cover with its verdict\n\
         (accepted / duplicate variant / not equivalent) and the check\n\
         that decided it (certificate / oracle; certified covers are\n\
         re-checked against the oracle), and per-term\n\
         cost breakdowns of the winning plan vs. the runner-up. Without\n\
         ground facts the default model is m1; --json emits a stable\n\
         machine-readable document (golden-tested).\n\
         \n\
         Common flags: --stats (phase/counter report on stderr),\n\
         --stats-json FILE (dump the metrics registry as JSON),\n\
         --trace (render the span tree of the command's own thread +\n\
         typed events on stderr), --trace-json FILE (Chrome trace-event\n\
         export; neither on loadgen or serve --listen, whose requests run\n\
         on other threads — use --stats / --metrics-out there),\n\
         --metrics-out FILE (Prometheus text-format snapshot). Timing\n\
         numbers come from the standalone harness under benchmark/ (see\n\
         benchmark/README.md).\n\
         \n\
         Anytime budgets: --timeout-ms MS (wall-clock deadline),\n\
         --node-budget N (per-search node cap; deterministic).\n\
         Exhaustion degrades to best-so-far results with\n\
         an incomplete note, still exit 0. VIEWPLAN_FAULT=phase:nth\n\
         (hom|cover|plan|deadline) injects exhaustion for testing.\n\
         `soak` stress-runs generated workloads under a tight budget\n\
         (default: 50 ms + 2000 nodes) and verifies every rewriting.\n\
         \n\
         Exit codes: 0 success (including truncated-with-note), 2\n\
         malformed input, 1 internal error.\n\
         \n\
         FILE holds a query (first rule), views (other rules), and optional\n\
         ground facts (base data). `rewrite` prints the view tuples, their\n\
         tuple-cores, and the rewritings; `plan` optimizes and executes a\n\
         physical plan under the chosen cost model; `eval` answers the query\n\
         directly and via the best rewriting, checking they agree."
    )?;
    Ok(())
}

/// A parsed problem file.
struct Problem {
    query: ConjunctiveQuery,
    views: ViewSet,
    base: Database,
}

/// The kind of `.vp` file a command reads.
#[derive(Clone, Copy)]
enum Expect {
    /// Rules, ground facts, and a `---` line that makes it a batch.
    Problem,
    /// `serve`'s view rules only, gated as a views-only program.
    Views,
    /// `loadgen`'s query rules only, never gated.
    Queries,
}

impl Expect {
    /// How a refusal names the rules of this kind of file.
    fn rule(self) -> &'static str {
        match self {
            Expect::Problem => "rule",
            Expect::Views => "view rule",
            Expect::Queries => "query rule",
        }
    }
}

/// A `.vp` file split into rules and facts, with the rule text kept
/// *line-preserving*: `rules_src` has exactly one line per input line
/// (non-rule lines blanked, comments stripped, leading whitespace kept),
/// so parser spans carry the original file's line:column coordinates.
struct SourceFile {
    rules_src: String,
    program: Program,
    layout: Layout,
    facts: Vec<Atom>,
}

fn read_source(path: &str, expect: Expect) -> Result<SourceFile, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Input(format!("cannot read {path}: {e}")))?;
    let mut rules_src = String::new();
    let mut facts: Vec<Atom> = Vec::new();
    let mut rules_before_separator = 0usize;
    let mut saw_separator = false;
    for raw in text.lines() {
        let stripped = raw.split(['%', '#']).next().unwrap_or("");
        let line = stripped.trim();
        if line.contains(":-") {
            rules_src.push_str(stripped.trim_end());
            if !saw_separator {
                rules_before_separator += 1;
            }
        } else if !matches!(expect, Expect::Problem) && !line.is_empty() {
            return Err(CliError::Input(format!(
                "expected a {}, got {line:?}",
                expect.rule()
            )));
        } else if line == "---" {
            saw_separator = true;
        } else if !line.is_empty() {
            let atom_src = line.trim_end_matches('.');
            let atom = parse_atom(atom_src)
                .map_err(|e| CliError::Input(format!("bad fact {line:?}: {e}")))?;
            if atom.terms.iter().any(|t| t.is_var()) {
                return Err(CliError::Input(format!("fact {atom} must be ground")));
            }
            facts.push(atom);
        }
        rules_src.push('\n');
    }
    let program = crate::cq::parse_program(&rules_src)
        .map_err(|e| CliError::Input(format!("bad {}: {e}", expect.rule())))?;
    let layout = match expect {
        Expect::Problem if saw_separator => Layout::Batch {
            view_count: rules_before_separator,
        },
        Expect::Problem => Layout::Problem,
        Expect::Views => Layout::ViewsOnly,
        // A query file is never gated, so no analyzer reads this layout.
        Expect::Queries => Layout::ViewsOnly,
    };
    Ok(SourceFile {
        rules_src,
        program,
        layout,
        facts,
    })
}

/// The fail-fast input gate shared by the processing commands: runs the
/// error-severity checks and refuses (exit 2) any program with
/// findings. Warnings are not computed here — the warning passes do
/// containment work that would pollute the pipeline's own stats — run
/// `viewplan check` for the full analysis.
fn analysis_gate(source: &SourceFile, path: &str) -> Result<(), CliError> {
    let analysis = analyze_errors(&source.program, source.layout);
    if !analysis.has_errors() {
        return Ok(());
    }
    let findings: Vec<String> = analysis
        .errors()
        .map(|d| {
            format!(
                "{path}:{}:{}: [{}] {}",
                d.span.line, d.span.column, d.code, d.message
            )
        })
        .collect();
    let mut message = findings.join("\n");
    // `check` reads every file as a problem or a batch, so it has no
    // details to add about a views-only file.
    if source.layout != Layout::ViewsOnly {
        message.push_str(&format!("\n(run `viewplan check {path}` for details)"));
    }
    Err(CliError::Input(message))
}

fn load(path: &str) -> Result<Problem, CliError> {
    let source = read_source(path, Expect::Problem)?;
    if matches!(source.layout, Layout::Batch { .. }) {
        return Err(CliError::Input(format!(
            "{path} is a batch file (it contains a `---` separator); use `viewplan batch`"
        )));
    }
    analysis_gate(&source, path)?;
    let mut rules = source.program.rules.into_iter();
    let query = rules
        .next()
        .ok_or_else(|| CliError::input("file contains no rules"))?;
    let views = ViewSet::from_views(rules.map(View::new));
    let mut base = Database::new();
    for f in source.facts {
        let tuple = f
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(c) => Value::from_constant(*c),
                Term::Var(_) => unreachable!("checked ground above"),
            })
            .collect();
        base.try_insert(f.predicate, tuple)
            .map_err(|e| CliError::Input(format!("{path}: bad fact {f}: {e}")))?;
    }
    Ok(Problem { query, views, base })
}

/// `viewplan check FILE [--json]`: run the static analyzer and report
/// every finding (errors *and* warnings). Exit 0 when no errors, 2 when
/// any error-severity diagnostic is present.
fn check(args: &[String], color: bool, out: &mut dyn Write) -> Result<(), CliError> {
    let path = file_arg(args)?;
    let source = read_source(path, Expect::Problem)?;
    let analysis = analyze(&source.program, source.layout);
    if flag(args, "--json") {
        write!(out, "{}", render_json(&analysis, path))?;
    } else {
        write!(
            out,
            "{}",
            render_human(&analysis, path, &source.rules_src, color)
        )?;
        writeln!(out, "{path}: {}", render_summary(&analysis))?;
    }
    if analysis.has_errors() {
        return Err(CliError::Input(format!(
            "{path}: {}",
            render_summary(&analysis)
        )));
    }
    Ok(())
}

/// Every command (`check` takes the common flags too, and ignores them).
const ALL: &[&str] = &[
    "check", "rewrite", "plan", "explain", "eval", "batch", "serve", "loadgen", "soak",
];
/// The commands a trace can record: every one but `loadgen`, whose
/// client threads open no spans (`serve` refuses it with `--listen`).
const TRACED: &[&str] = &[
    "check", "rewrite", "plan", "explain", "eval", "batch", "serve", "soak",
];
/// The commands that run the pipeline under an anytime budget.
const BUDGETED: &[&str] = &[
    "rewrite", "plan", "explain", "eval", "batch", "serve", "soak",
];
const SERVING: &[&str] = &["batch", "serve"];
const GENERATED: &[&str] = &["batch", "soak"];

/// Every option: its name, whether it consumes the following argument
/// as its value, and the commands that accept it.
const OPTIONS: &[(&str, bool, &[&str])] = &[
    ("--stats", false, ALL),
    ("--stats-json", true, ALL),
    ("--metrics-out", true, ALL),
    ("--trace", false, TRACED),
    ("--trace-json", true, TRACED),
    ("--timeout-ms", true, BUDGETED),
    ("--node-budget", true, BUDGETED),
    (
        "--all-minimal",
        false,
        &["rewrite", "explain", "batch", "serve"],
    ),
    ("--no-grouping", false, &["rewrite", "batch", "serve"]),
    ("--no-prune", false, &["rewrite"]),
    ("--baseline", true, &["rewrite"]),
    ("--model", true, &["plan", "explain"]),
    ("--json", false, &["explain", "check"]),
    ("--no-cache", false, SERVING),
    ("--cache-capacity", true, SERVING),
    ("--csv", true, &["batch"]),
    ("--workload", true, &["batch"]),
    ("--repeat", true, &["batch"]),
    ("--queries", true, GENERATED),
    ("--views", true, GENERATED),
    ("--seed", true, &["batch", "soak", "loadgen"]),
    ("--listen", true, &["serve"]),
    ("--workers", true, &["serve"]),
    ("--queue-capacity", true, &["serve"]),
    ("--idle-timeout-ms", true, &["serve"]),
    ("--read-timeout-ms", true, &["serve"]),
    ("--write-timeout-ms", true, &["serve"]),
    ("--deadline-ms", true, &["serve", "loadgen"]),
    ("--connect", true, &["loadgen"]),
    ("--clients", true, &["loadgen"]),
    ("--requests", true, &["loadgen"]),
    ("--max-retries", true, &["loadgen"]),
];

/// Refuses an option `command` does not take, and a value option with
/// nothing after it, before the command runs — a typo must not silently
/// select the default behaviour.
fn check_options(command: &str, args: &[String]) -> Result<(), CliError> {
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        i += 1;
        if !arg.starts_with("--") {
            continue;
        }
        let known = OPTIONS.iter().find(|(name, _, _)| *name == arg);
        let takes_value = match known {
            Some(&(_, takes_value, commands)) if commands.contains(&command) => takes_value,
            _ => {
                let mut msg = format!("unknown option {arg:?} for `viewplan {command}`");
                if let Some((_, _, commands)) = known {
                    msg += &format!(" (it belongs to: {})", commands.join(", "));
                }
                return Err(CliError::Input(msg));
            }
        };
        if takes_value {
            if i == args.len() {
                return Err(CliError::Input(format!("option {arg} expects a value")));
            }
            i += 1;
        }
    }
    Ok(())
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn option<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The positional (non-option) arguments, in order. Walks the argument
/// list left to right so an option *value* is consumed by its option and
/// never mistaken for a positional — and, conversely, a positional that
/// merely *equals* some option's value is kept (the old any-match scan
/// dropped `viewplan plan m2 --model m2`'s FILE).
fn positional_args(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if OPTIONS
            .iter()
            .any(|&(name, takes_value, _)| takes_value && name == a)
        {
            i += 2; // skip the option and its value
        } else if a.starts_with("--") {
            i += 1; // boolean flag
        } else {
            out.push(a);
            i += 1;
        }
    }
    out
}

fn file_arg(args: &[String]) -> Result<&str, CliError> {
    let positionals = positional_args(args);
    match positionals.as_slice() {
        [] => Err(CliError::input("missing FILE argument")),
        [file] => Ok(file),
        [_, extra, ..] => Err(CliError::Input(format!(
            "unexpected extra argument {extra:?}"
        ))),
    }
}

/// A `--name N` option holding a positive integer, with a default when
/// absent.
fn u64_arg(args: &[String], name: &str, default: u64) -> Result<u64, CliError> {
    match option(args, name) {
        None => Ok(default),
        Some(v) => v.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
            CliError::Input(format!("{name} expects a positive integer, got {v:?}"))
        }),
    }
}

/// The anytime-budget flags plus the `VIEWPLAN_FAULT` injection hook,
/// combined into a [`BudgetSpec`] (unlimited when none are given).
fn budget_arg(args: &[String], fault: Option<Fault>) -> Result<BudgetSpec, CliError> {
    let mut spec = BudgetSpec::new();
    if option(args, "--timeout-ms").is_some() {
        spec = spec.timeout_ms(u64_arg(args, "--timeout-ms", 1)?);
    }
    if option(args, "--node-budget").is_some() {
        spec = spec.node_budget(u64_arg(args, "--node-budget", 1)?);
    }
    if let Some(fault) = fault {
        spec = spec.fault(fault);
    }
    Ok(spec)
}

/// Installs the requested budget for the rest of the command (a no-op
/// `None` when the spec constrains nothing). The deadline starts now.
fn install_budget(spec: BudgetSpec) -> Option<CtxGuard> {
    (!spec.is_unlimited()).then(|| crate::obs::budget::install(spec))
}

/// How completely the installed budget let the command run. Budgets are
/// installed freshly per command, so counting hits from zero is exact.
fn budget_outcome() -> Completeness {
    crate::obs::budget::completeness_since(Default::default())
}

/// Prints the incomplete-result note when the budget fired. Exit stays 0:
/// a truncated answer with an honest marker is a success, not an error.
fn budget_note(completeness: Completeness, out: &mut dyn Write) -> Result<(), CliError> {
    if completeness.is_incomplete() {
        writeln!(
            out,
            "note: budget exhausted ({completeness}) — results are best-so-far, not exhaustive"
        )?;
    }
    Ok(())
}

/// Which observability outputs the user asked for; constructing it (via
/// [`stats_request`]) enables collection when any output is requested and
/// installs a request-scoped [`crate::obs::Trace`] for `--trace` /
/// `--trace-json`.
struct StatsRequest {
    report: bool,
    json: Option<String>,
    metrics_out: Option<String>,
    trace_tree: bool,
    trace_json: Option<String>,
    /// The installed trace (plus the guard keeping it installed on this
    /// thread) when either trace output was requested.
    trace: Option<(crate::obs::Trace, CtxGuard)>,
}

fn stats_request(args: &[String]) -> StatsRequest {
    let mut request = StatsRequest {
        report: flag(args, "--stats"),
        json: option(args, "--stats-json").map(str::to_string),
        metrics_out: option(args, "--metrics-out").map(str::to_string),
        trace_tree: flag(args, "--trace"),
        trace_json: option(args, "--trace-json").map(str::to_string),
        trace: None,
    };
    if request.report
        || request.json.is_some()
        || request.metrics_out.is_some()
        || request.trace_tree
        || request.trace_json.is_some()
    {
        crate::obs::set_enabled(true);
    }
    if request.trace_tree || request.trace_json.is_some() {
        let trace = crate::obs::Trace::new();
        let guard = crate::obs::trace::install(&trace);
        request.trace = Some((trace, guard));
    }
    request
}

impl StatsRequest {
    /// Emits the requested reports (call after the command's work).
    fn emit(&self) -> Result<(), CliError> {
        if self.report {
            crate::obs::report_to_stderr();
            let skips = crate::obs::counter_value("engine.arity_mismatch_skips");
            if skips > 0 {
                eprintln!(
                    "note: {skips} tuple(s) skipped where a subgoal's arity disagreed with \
                     the stored relation (engine.arity_mismatch_skips)"
                );
            }
        }
        if let Some(path) = &self.json {
            crate::obs::write_json_report(std::path::Path::new(path))
                .map_err(|e| CliError::Input(format!("cannot write {path}: {e}")))?;
        }
        if let Some(path) = &self.metrics_out {
            crate::obs::write_prometheus(std::path::Path::new(path))
                .map_err(|e| CliError::Input(format!("cannot write {path}: {e}")))?;
        }
        if let Some((trace, _)) = &self.trace {
            if self.trace_tree {
                eprint!("{}", trace.render_tree());
            }
            if let Some(path) = &self.trace_json {
                std::fs::write(path, trace.chrome_json())
                    .map_err(|e| CliError::Input(format!("cannot write {path}: {e}")))?;
            }
        }
        Ok(())
    }
}

fn rewrite(args: &[String], common: &Common, out: &mut dyn Write) -> Result<(), CliError> {
    let problem = load(file_arg(args)?)?;
    let _budget = install_budget(budget_arg(args, common.fault)?);
    if let Some(baseline) = option(args, "--baseline") {
        let rs = match baseline {
            "naive" => naive_gmrs(&problem.query, &problem.views),
            "minicon" => {
                MiniCon::new(&problem.query, &problem.views).try_rewritings(true, 10_000)?
            }
            other => {
                return Err(CliError::Input(format!(
                    "unknown baseline {other:?} (expected naive or minicon)"
                )))
            }
        };
        writeln!(out, "{} rewriting(s) via {baseline}:", rs.len())?;
        for r in rs {
            writeln!(out, "  {r}")?;
        }
        budget_note(budget_outcome(), out)?;
        return Ok(());
    }
    let mut config = CoreCoverConfig::default();
    if flag(args, "--no-grouping") {
        config.group_equivalent_views = false;
        config.group_view_tuples = false;
    }
    if flag(args, "--no-prune") {
        config.prune_unusable_views = false;
    }
    let cc = CoreCover::new(&problem.query, &problem.views).with_config(config);
    let result = if flag(args, "--all-minimal") {
        cc.try_run_all_minimal()?
    } else {
        cc.try_run()?
    };
    writeln!(out, "minimized query:\n  {}", result.minimized_query)?;
    writeln!(out, "\nview tuples and tuple-cores:")?;
    for (t, core) in result.view_tuples.iter().zip(&result.cores) {
        let covered: Vec<String> = core
            .subgoals()
            .map(|i| result.minimized_query.body[i].to_string())
            .collect();
        writeln!(
            out,
            "  {:<30} {}",
            t.to_string(),
            if covered.is_empty() {
                "(empty core — filter candidate)".to_string()
            } else {
                covered.join(", ")
            }
        )?;
    }
    let s = result.stats;
    writeln!(
        out,
        "\nstats: {} views -> {} classes; {} tuples -> {} representatives",
        s.views, s.view_classes, s.view_tuples, s.representative_tuples
    )?;
    if s.truncated {
        writeln!(
            out,
            "note: enumeration stopped at the rewriting cap — the list below is incomplete"
        )?;
    }
    writeln!(
        out,
        "\n{} {} rewriting(s):",
        result.rewritings().len(),
        if flag(args, "--all-minimal") {
            "minimal"
        } else {
            "globally-minimal"
        }
    )?;
    for r in result.rewritings() {
        writeln!(out, "  {r}")?;
    }
    budget_note(s.completeness, out)?;
    Ok(())
}

fn plan(args: &[String], common: &Common, out: &mut dyn Write) -> Result<(), CliError> {
    let problem = load(file_arg(args)?)?;
    let _budget = install_budget(budget_arg(args, common.fault)?);
    if problem.base.is_empty() {
        return Err(CliError::input(
            "`plan` needs ground facts in the file (base data)",
        ));
    }
    let model = match option(args, "--model").unwrap_or("m2") {
        "m1" => CostModel::M1,
        "m2" => CostModel::M2,
        "m3" => CostModel::M3(DropPolicy::SmartCostBased),
        other => return Err(CliError::Input(format!("unknown cost model {other:?}"))),
    };
    let vdb = materialize_views(&problem.views, &problem.base);
    writeln!(out, "materialized views:")?;
    // File order, not `Symbol` order: interning order depends on what
    // else the process parsed before this file.
    for view in problem.views.iter() {
        let name = view.name();
        let len = vdb.get(name).map_or(0, |r| r.len());
        writeln!(out, "  {name}: {len} tuple(s)")?;
    }
    let mut oracle = ExactOracle::new(&vdb);
    let outcome = Optimizer::new(&problem.query, &problem.views).try_plan(model, &mut oracle)?;
    let Some(best) = outcome.best else {
        if outcome.completeness.is_incomplete() {
            // The budget fired before any plan was found: an honest
            // empty answer, not a malformed input.
            writeln!(
                out,
                "no plan found within the budget ({})",
                outcome.completeness
            )?;
            return Ok(());
        }
        return Err(CliError::input(
            "the query has no equivalent rewriting over these views",
        ));
    };
    writeln!(out, "\nbest rewriting: {}", best.rewriting)?;
    writeln!(out, "physical plan:  {}", best.plan)?;
    writeln!(out, "cost:           {}", best.cost)?;
    let trace = best
        .plan
        .try_execute(&best.rewriting.head, &vdb)
        .map_err(PlanError::from)?;
    writeln!(out, "intermediates:  {:?}", trace.intermediate_sizes)?;
    writeln!(out, "\nanswer ({} tuple(s)):", trace.answer.len())?;
    write!(out, "{}", trace.answer)?;
    budget_note(outcome.completeness, out)?;
    Ok(())
}

fn explain_cmd(args: &[String], common: &Common, out: &mut dyn Write) -> Result<(), CliError> {
    let problem = load(file_arg(args)?)?;
    let _budget = install_budget(budget_arg(args, common.fault)?);
    // Without ground facts only M1 (subgoal counting) can rank plans;
    // with facts the default matches `plan`'s (M2).
    let default_model = if problem.base.is_empty() { "m1" } else { "m2" };
    let model_name = option(args, "--model").unwrap_or(default_model);
    let model = crate::explain::model_from_name(model_name)
        .ok_or_else(|| CliError::Input(format!("unknown cost model {model_name:?}")))?;
    if problem.base.is_empty() && model_name != "m1" {
        return Err(CliError::input(
            "`explain --model m2|m3` needs ground facts in the file (base data); \
             use --model m1 for data-free provenance",
        ));
    }
    let explanation = crate::explain::explain(
        &problem.query,
        &problem.views,
        &problem.base,
        model,
        flag(args, "--all-minimal"),
    )?;
    if flag(args, "--json") {
        writeln!(out, "{}", explanation.to_json().render())?;
    } else {
        write!(out, "{}", explanation.render_human())?;
    }
    budget_note(budget_outcome(), out)?;
    Ok(())
}

fn eval(args: &[String], common: &Common, out: &mut dyn Write) -> Result<(), CliError> {
    let problem = load(file_arg(args)?)?;
    let _budget = install_budget(budget_arg(args, common.fault)?);
    let direct =
        try_evaluate(&problem.query, &problem.base).map_err(|e| CliError::Input(e.to_string()))?;
    writeln!(out, "direct answer ({} tuple(s)):", direct.len())?;
    write!(out, "{direct}")?;
    let result = CoreCover::new(&problem.query, &problem.views).try_run()?;
    match result.rewritings().first() {
        None if result.stats.completeness.is_incomplete() => writeln!(
            out,
            "\n(no equivalent rewriting found before the budget ran out)"
        )?,
        None => writeln!(out, "\n(no equivalent rewriting over the views)")?,
        Some(r) => {
            let vdb = materialize_views(&problem.views, &problem.base);
            let via = try_evaluate(r, &vdb).map_err(|e| CliError::Input(e.to_string()))?;
            writeln!(out, "\nvia rewriting {r} ({} tuple(s)):", via.len())?;
            write!(out, "{via}")?;
            if via == direct {
                writeln!(out, "\n✓ answers agree (closed-world equivalence)")?;
            } else if budget_outcome().is_incomplete() {
                // Under an exhausted budget the rewriting may not have
                // been fully verified — a disagreement is truncation,
                // not a bug.
                writeln!(
                    out,
                    "\n✗ answers disagree under an exhausted budget (rewriting unverified)"
                )?;
            } else {
                return Err(CliError::Internal(
                    "answers disagree — this is a bug".into(),
                ));
            }
        }
    }
    budget_note(budget_outcome(), out)?;
    Ok(())
}

/// The serving configuration shared by `batch` and `serve`. Budgets are
/// per-request (each request gets its own deadline/node caps) and
/// caching defaults on. A request's pipeline is one thread: `batch`
/// runs its requests one after another, `serve` runs each request on
/// the thread that read it — with `--listen`, the connection thread the
/// admission gate let through.
fn serve_config(args: &[String], common: &Common) -> Result<ServeConfig, CliError> {
    let mut config = ServeConfig {
        all_minimal: flag(args, "--all-minimal"),
        budget: budget_arg(args, common.fault)?,
        ..ServeConfig::default()
    };
    if flag(args, "--no-grouping") {
        config.corecover.group_equivalent_views = false;
        config.corecover.group_view_tuples = false;
    }
    if flag(args, "--no-cache") {
        config.cache_capacity = 0;
    } else if option(args, "--cache-capacity").is_some() {
        config.cache_capacity = u64_arg(args, "--cache-capacity", 4096)? as usize;
    }
    Ok(config)
}

/// Loads a batch problem file: view rules, a `---` line, query rules.
/// The analyzer gate runs over the whole program (views + queries), so a
/// malformed stream fails fast with exit 2 before anything is served.
fn load_batch(path: &str) -> Result<(ViewSet, Vec<ConjunctiveQuery>), CliError> {
    let source = read_source(path, Expect::Problem)?;
    let Layout::Batch { view_count } = source.layout else {
        return Err(CliError::input(
            "batch FILE needs a `---` line separating views from queries",
        ));
    };
    if let Some(fact) = source.facts.first() {
        return Err(CliError::Input(format!(
            "batch FILE cannot contain ground facts, got {fact}"
        )));
    }
    analysis_gate(&source, path)?;
    let mut rules = source.program.rules.into_iter();
    let views = ViewSet::from_views(rules.by_ref().take(view_count).map(View::new));
    let queries: Vec<ConjunctiveQuery> = rules.collect();
    if queries.is_empty() {
        return Err(CliError::input("batch FILE has no queries after `---`"));
    }
    Ok((views, queries))
}

/// Builds a generated query stream for `batch --workload`: one view set
/// (from `--seed`) and `--queries` distinct queries over the same base
/// relations, the whole stream repeated `--repeat` times so the cache
/// sees recurring traffic.
fn generated_stream(
    shape: &str,
    args: &[String],
) -> Result<(ViewSet, Vec<ConjunctiveQuery>), CliError> {
    let make: fn(usize, usize, u64) -> WorkloadConfig = match shape {
        "star" => WorkloadConfig::star,
        "chain" => WorkloadConfig::chain,
        "random" => WorkloadConfig::random,
        other => {
            return Err(CliError::Input(format!(
                "unknown workload shape {other:?} (expected star, chain, or random)"
            )))
        }
    };
    let queries = u64_arg(args, "--queries", 16)? as usize;
    let views_n = u64_arg(args, "--views", 12)? as usize;
    let seed = u64_arg(args, "--seed", 1)?;
    let repeat = u64_arg(args, "--repeat", 2)? as usize;
    let views = generate(&make(views_n, 1, seed)).views;
    let mut stream = Vec::with_capacity(queries * repeat);
    for _ in 0..repeat {
        for i in 0..queries {
            stream.push(generate(&make(views_n, 1, seed + i as u64)).query);
        }
    }
    Ok((views, stream))
}

/// One batch request's timed result.
type TimedResult = (Result<ServedAnswer, PlanError>, std::time::Duration);

/// Serves a query stream against one view set, one request after
/// another. Per-query stdout is deterministic (byte-identical at any
/// cache setting); the cache/latency observability goes to stderr and
/// `--csv`.
fn batch(args: &[String], common: &Common, out: &mut dyn Write) -> Result<(), CliError> {
    let config = serve_config(args, common)?;
    let (views, queries) = match option(args, "--workload") {
        Some(shape) => {
            if let Some(extra) = positional_args(args).first() {
                return Err(CliError::Input(format!(
                    "unexpected argument {extra:?} — `--workload` generates its own stream"
                )));
            }
            generated_stream(shape, args)?
        }
        None => load_batch(file_arg(args)?)?,
    };
    let server = BatchServer::with_config(&views, config);
    let started = std::time::Instant::now();
    let results: Vec<TimedResult> = queries
        .iter()
        .map(|q| {
            let began = std::time::Instant::now();
            (server.serve(q), began.elapsed())
        })
        .collect();
    let total = started.elapsed();
    let mut tally = [0usize; 3]; // complete / truncated / deadline
    let mut errors = 0usize;
    for (i, ((result, _), q)) in results.iter().zip(&queries).enumerate() {
        writeln!(out, "[{i}] {q}")?;
        match result {
            Ok(a) => {
                tally[match a.completeness {
                    Completeness::Complete => 0,
                    Completeness::Truncated => 1,
                    Completeness::DeadlineExceeded => 2,
                }] += 1;
                write!(out, "{}", a.render())?;
            }
            Err(e) => {
                errors += 1;
                writeln!(out, "error: {e}")?;
            }
        }
        writeln!(out)?;
    }
    eprintln!(
        "batch: {} quer(ies) in {:.1} ms \
         ({} complete, {} truncated, {} deadline-exceeded, {errors} error(s))",
        queries.len(),
        total.as_secs_f64() * 1e3,
        tally[0],
        tally[1],
        tally[2]
    );
    match server.cache() {
        None => eprintln!("cache: disabled"),
        Some(c) => {
            let s = c.stats();
            eprintln!(
                "cache: {} hit(s) ({} coalesced), {} miss(es), {} eviction(s), \
                 {} rejected-incomplete, {} resident",
                s.hits, s.coalesced, s.misses, s.evictions, s.rejected_incomplete, s.entries
            );
        }
    }
    if let Some(path) = option(args, "--csv") {
        write_batch_csv(path, &queries, &results)?;
    }
    Ok(())
}

/// Writes the per-request observability CSV (latency and cache columns;
/// these are *not* part of the deterministic per-query output).
fn write_batch_csv(
    path: &str,
    queries: &[ConjunctiveQuery],
    results: &[TimedResult],
) -> Result<(), CliError> {
    use std::fmt::Write as _;
    let mut out =
        String::from("index,query,latency_us,from_cache,completeness,rewritings,m1_cost\n");
    for (i, ((result, latency), q)) in results.iter().zip(queries).enumerate() {
        match result {
            Ok(a) => {
                let _ = writeln!(
                    out,
                    "{i},\"{q}\",{},{},{},{},{}",
                    latency.as_micros(),
                    a.from_cache,
                    a.completeness.label(),
                    a.rewritings.len(),
                    a.best
                        .as_ref()
                        .map_or(String::new(), |b| b.cost.to_string())
                );
            }
            Err(_) => {
                let _ = writeln!(out, "{i},\"{q}\",{},,error,,", latency.as_micros());
            }
        }
    }
    std::fs::write(path, out).map_err(|e| CliError::Input(format!("cannot write {path}: {e}")))
}

/// Loads and VP-gates a views-only file for `serve`.
fn load_views_file(path: &str) -> Result<ViewSet, CliError> {
    let source = read_source(path, Expect::Views)?;
    analysis_gate(&source, path)?;
    Ok(ViewSet::from_views(
        source.program.rules.into_iter().map(View::new),
    ))
}

/// A `--name MS` option holding a duration in milliseconds.
fn duration_arg(
    args: &[String],
    name: &str,
    default: std::time::Duration,
) -> Result<std::time::Duration, CliError> {
    u64_arg(args, name, default.as_millis() as u64).map(std::time::Duration::from_millis)
}

/// The network front-end flags, collected into a [`NetConfig`].
fn net_config(args: &[String]) -> Result<crate::serve::NetConfig, CliError> {
    let defaults = crate::serve::NetConfig::default();
    Ok(crate::serve::NetConfig {
        workers: u64_arg(args, "--workers", defaults.workers as u64)? as usize,
        queue_capacity: u64_arg(args, "--queue-capacity", defaults.queue_capacity as u64)? as usize,
        read_timeout: duration_arg(args, "--read-timeout-ms", defaults.read_timeout)?,
        write_timeout: duration_arg(args, "--write-timeout-ms", defaults.write_timeout)?,
        idle_timeout: duration_arg(args, "--idle-timeout-ms", defaults.idle_timeout)?,
        default_deadline: option(args, "--deadline-ms")
            .map(|_| duration_arg(args, "--deadline-ms", defaults.read_timeout))
            .transpose()?,
        max_frame: defaults.max_frame,
    })
}

/// Interactive serving: views from a file, requests on stdin (or, with
/// `--listen ADDR`, over TCP). Both front-ends hand each line or frame to
/// `viewplan_serve::command`, so they accept the same commands and print
/// the same replies; stdin differs only in reading a bare rule as a
/// `query`, skipping admission, and printing an answer as its rendering
/// plus a blank line (errors go to stderr).
fn serve(args: &[String], common: &Common, out: &mut dyn Write) -> Result<(), CliError> {
    use crate::serve::{command, LiveCatalog, NetServer, Reply, ServeFaults};
    let listen = option(args, "--listen");
    if listen.is_some() && (flag(args, "--trace") || option(args, "--trace-json").is_some()) {
        return Err(CliError::input(
            "--trace / --trace-json record the command's own thread, and `serve --listen` \
             answers every request on a connection thread; use --stats or --metrics-out, \
             which aggregate across threads",
        ));
    }
    let path = file_arg(args)?;
    let config = serve_config(args, common)?;
    let views = load_views_file(path)?;
    let faults = std::sync::Arc::new(ServeFaults::new(common.fault));
    let catalog = std::sync::Arc::new(LiveCatalog::with_faults(&views, config, faults));
    if let Some(addr) = listen {
        let mut server = NetServer::start(catalog, addr, net_config(args)?)
            .map_err(|e| CliError::Input(format!("cannot listen on {addr}: {e}")))?;
        // The resolved address (`:0` picks a port) goes to stderr so
        // scripts — and the integration tests — can find the socket.
        eprintln!("listening on {}", server.local_addr());
        server.wait();
        eprintln!("server stopped");
        return Ok(());
    }
    eprintln!(
        "serving over {} view(s); one request per line (rule, `add-view <rule>`, \
         or `drop-view <name>`), Ctrl-D to finish",
        views.len()
    );
    let stdin = std::io::stdin();
    let mut answered = 0usize;
    for line in std::io::BufRead::lines(stdin.lock()) {
        let line = line.map_err(|e| CliError::Internal(format!("stdin: {e}")))?;
        let src = line.split(['%', '#']).next().unwrap_or("").trim();
        let src = src.trim_end_matches('.');
        if src.is_empty() {
            continue;
        }
        let reply = match command::respond(src, &catalog, None, None) {
            Reply::Unknown(_) => command::respond(&format!("query {src}"), &catalog, None, None),
            reply => reply,
        };
        match reply {
            Reply::Answer(answer) => {
                answered += 1;
                writeln!(out, "{}", answer.body)?;
            }
            Reply::Error(message) => eprintln!("error: {message}"),
            ack => {
                writeln!(out, "{ack}")?;
                if matches!(ack, Reply::Bye) {
                    break;
                }
            }
        }
    }
    let stats = catalog
        .server()
        .cache()
        .map(|c| c.stats())
        .unwrap_or_default();
    eprintln!(
        "served {answered} quer(ies); cache: {} hit(s) ({} coalesced), {} miss(es); epoch {}",
        stats.hits,
        stats.coalesced,
        stats.misses,
        catalog.epoch()
    );
    Ok(())
}

/// Closed-loop load generator against a running `serve --listen`
/// endpoint: `--clients` threads each offer `--requests` queries (from
/// FILE, one rule per line), retrying shed responses with jittered
/// exponential backoff. The report must account for every offered
/// request; a stale-epoch answer or an unaccounted request is a server
/// bug (exit 1).
fn loadgen(args: &[String], _: &Common, out: &mut dyn Write) -> Result<(), CliError> {
    use crate::serve::loadgen::{run_loadgen, LoadgenConfig};
    let addr = option(args, "--connect")
        .ok_or_else(|| CliError::input("loadgen needs --connect HOST:PORT"))?;
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| CliError::Input(format!("bad --connect address {addr:?}: {e}")))?;
    let path = file_arg(args)?;
    let program = read_source(path, Expect::Queries)?.program;
    if program.rules.is_empty() {
        return Err(CliError::Input(format!("{path} contains no query rules")));
    }
    let queries: Vec<String> = program.rules.iter().map(|q| q.to_string()).collect();
    let config = LoadgenConfig {
        clients: u64_arg(args, "--clients", 4)? as usize,
        requests_per_client: u64_arg(args, "--requests", 25)? as usize,
        deadline_ms: option(args, "--deadline-ms")
            .map(|_| u64_arg(args, "--deadline-ms", 1))
            .transpose()?,
        max_retries: u64_arg(args, "--max-retries", 8)? as u32,
        seed: u64_arg(args, "--seed", 20_010_521)?,
        ..LoadgenConfig::default()
    };
    let report = run_loadgen(addr, &queries, &config);
    writeln!(
        out,
        "loadgen: {} offered on {} client(s) in {:.1} ms — {} ok ({} cached), \
         {} shed, {} error(s), {} retries",
        report.offered,
        config.clients,
        report.elapsed.as_secs_f64() * 1e3,
        report.ok,
        report.cached,
        report.shed,
        report.errors,
        report.retries,
    )?;
    writeln!(
        out,
        "latency: p50 {} us, p95 {} us, p99 {} us; throughput {:.0} rps",
        report.latency_percentile(0.50),
        report.latency_percentile(0.95),
        report.latency_percentile(0.99),
        report.throughput_rps()
    )?;
    if report.failed_after_retries > 0 {
        writeln!(
            out,
            "note: {} request(s) failed after exhausting retries",
            report.failed_after_retries
        )?;
    }
    if report.stale_epoch > 0 {
        return Err(CliError::Internal(format!(
            "{} answer(s) regressed to an older epoch — snapshot swap bug",
            report.stale_epoch
        )));
    }
    if !report.accounted() {
        return Err(CliError::Internal(format!(
            "accounting broken: ok {} + shed {} + errors {} + failed {} != offered {}",
            report.ok, report.shed, report.errors, report.failed_after_retries, report.offered
        )));
    }
    Ok(())
}

/// Stress-runs the whole pipeline over generated workloads under a tight
/// per-query budget, post-verifying every returned rewriting outside the
/// budget. Exits 0 when every query returned cleanly with an honest
/// completeness marker; a rewriting failing post-hoc verification is an
/// internal error (exit 1).
fn soak(args: &[String], common: &Common, out: &mut dyn Write) -> Result<(), CliError> {
    if let Some(extra) = positional_args(args).first() {
        return Err(CliError::Input(format!(
            "unexpected argument {extra:?} — `soak` generates its own workloads"
        )));
    }
    let queries = u64_arg(args, "--queries", 24)? as usize;
    let views = u64_arg(args, "--views", 12)? as usize;
    let seed0 = u64_arg(args, "--seed", 1)?;
    let mut spec = budget_arg(args, common.fault)?;
    if spec.is_unlimited() {
        // A soak without an explicit budget still stresses degradation.
        spec = spec.timeout_ms(50).node_budget(2_000);
    }
    let mut tally = [0usize; 3]; // complete / truncated / deadline
    let mut rewritings_total = 0usize;
    let mut bad: Vec<String> = Vec::new();
    for i in 0..queries {
        let seed = seed0 + i as u64;
        let wcfg = match i % 3 {
            0 => WorkloadConfig::star(views, 1, seed),
            1 => WorkloadConfig::chain(views, 1, seed),
            _ => WorkloadConfig::random(views, 1, seed),
        };
        let w = generate(&wcfg);
        // Fresh budget per query: the deadline restarts, node caps are
        // per-search anyway. The guard drops before verification so the
        // post-hoc equivalence checks run unbudgeted.
        let result = {
            let _g = crate::obs::budget::install(spec);
            CoreCover::new(&w.query, &w.views).try_run_all_minimal()
        }
        .map_err(|e| CliError::Internal(format!("generated workload rejected: {e}")))?;
        tally[match result.stats.completeness {
            Completeness::Complete => 0,
            Completeness::Truncated => 1,
            Completeness::DeadlineExceeded => 2,
        }] += 1;
        rewritings_total += result.rewritings().len();
        for r in result.rewritings() {
            let equivalent = expand(r, &w.views).is_ok_and(|exp| are_equivalent(&exp, &w.query));
            if !equivalent {
                bad.push(format!("seed {seed}: {r}"));
            }
        }
    }
    writeln!(
        out,
        "soak: {queries} queries, {rewritings_total} rewriting(s); \
         {} complete, {} truncated, {} deadline-exceeded",
        tally[0], tally[1], tally[2]
    )?;
    if bad.is_empty() {
        writeln!(out, "all returned rewritings verified equivalent")?;
        Ok(())
    } else {
        Err(CliError::Internal(format!(
            "{} rewriting(s) failed post-hoc verification:\n  {}",
            bad.len(),
            bad.join("\n  ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::{
        file_arg, load_views_file, option, positional_args, read_source, u64_arg, CliError, Expect,
    };

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn file_arg_finds_plain_positional() {
        assert_eq!(file_arg(&args(&["problem.vp"])).unwrap(), "problem.vp");
        assert_eq!(
            file_arg(&args(&["--all-minimal", "problem.vp"])).unwrap(),
            "problem.vp"
        );
    }

    #[test]
    fn file_arg_skips_option_values() {
        assert_eq!(
            file_arg(&args(&["--model", "m2", "problem.vp"])).unwrap(),
            "problem.vp"
        );
        assert_eq!(
            file_arg(&args(&["problem.vp", "--baseline", "naive"])).unwrap(),
            "problem.vp"
        );
        assert_eq!(
            file_arg(&args(&["--stats-json", "out.json", "problem.vp"])).unwrap(),
            "problem.vp"
        );
    }

    #[test]
    fn file_named_like_an_option_value_is_not_dropped() {
        // Regression: the old scan dropped any positional equal to some
        // option's value, so a file literally named `m2` was "missing".
        assert_eq!(file_arg(&args(&["m2", "--model", "m2"])).unwrap(), "m2");
        assert_eq!(
            file_arg(&args(&["--baseline", "naive", "naive"])).unwrap(),
            "naive"
        );
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(file_arg(&args(&[])).is_err());
        assert!(file_arg(&args(&["--model", "m2"])).is_err());
        // A value-taking option at the end consumes nothing extra.
        assert!(file_arg(&args(&["--stats-json"])).is_err());
    }

    #[test]
    fn extra_positionals_are_rejected() {
        match file_arg(&args(&["a.vp", "b.vp"])).unwrap_err() {
            CliError::Input(msg) => assert!(msg.contains("b.vp")),
            other => panic!("expected an input error, got {other:?}"),
        }
    }

    #[test]
    fn u64_arg_parses_and_rejects() {
        let cap = |list: &[&str]| u64_arg(&args(list), "--cache-capacity", 4096);
        assert_eq!(cap(&["f.vp", "--cache-capacity", "8"]).unwrap(), 8);
        assert_eq!(cap(&["f.vp"]).unwrap(), 4096);
        for bad in [
            &["--cache-capacity", "0"][..],
            &["--cache-capacity", "eight"],
            &["--cache-capacity", "-2"],
        ] {
            match cap(bad).unwrap_err() {
                CliError::Input(msg) => assert!(msg.contains("--cache-capacity")),
                other => panic!("expected an input error, got {other:?}"),
            }
        }
    }

    #[test]
    fn positional_order_is_preserved() {
        assert_eq!(
            positional_args(&args(&["--stats", "x", "--model", "m3", "y"])),
            ["x", "y"]
        );
    }

    #[test]
    fn option_lookup_still_works() {
        let a = args(&["plan.vp", "--model", "m3", "--stats-json", "o.json"]);
        assert_eq!(option(&a, "--model"), Some("m3"));
        assert_eq!(option(&a, "--stats-json"), Some("o.json"));
        assert_eq!(option(&a, "--baseline"), None);
    }

    /// A views file (`serve`) and a query file (`loadgen`) are read by
    /// the problem-file reader but refuse in their own words: a
    /// non-rule line or a bad rule names the kind of rule expected, and
    /// an analyzer finding in a views file carries no advice to run
    /// `check`, which would read the file as a problem.
    #[test]
    fn rules_only_files_refuse_in_their_own_words() {
        let path =
            std::env::temp_dir().join(format!("viewplan-cli-rules-{}.vp", std::process::id()));
        let file = path.to_str().unwrap().to_string();
        let refusal = |text: &str, expect: Expect| {
            std::fs::write(&path, text).unwrap();
            let result = match expect {
                Expect::Views => load_views_file(&file).map(drop),
                _ => read_source(&file, expect).map(drop),
            };
            match result {
                Err(CliError::Input(message)) => message,
                other => panic!("expected an input error, got {other:?}"),
            }
        };
        let views = Expect::Views;
        let queries = Expect::Queries;
        assert_eq!(
            refusal("v(X) :- a(X).\na(1).\n", views),
            "expected a view rule, got \"a(1).\""
        );
        assert_eq!(
            refusal("% queries\nq(X) :- a(X).\n---\n", queries),
            "expected a query rule, got \"---\""
        );
        assert!(refusal("v(X) :- a(X\n", views).starts_with("bad view rule: "));
        assert!(refusal("q(X) :- a(X\n", queries).starts_with("bad query rule: "));
        let finding = refusal("v(X) :- a(X).\nw(X) :- a(X, X).\n", views);
        assert!(
            finding.starts_with(&format!("{file}:2:9: [VP001] ")),
            "{finding}"
        );
        assert_eq!(finding.lines().count(), 1, "{finding}");
        assert!(refusal("q(X) :- a(X\n", Expect::Problem).starts_with("bad rule: "));
        let _ = std::fs::remove_file(&path);
    }
}
