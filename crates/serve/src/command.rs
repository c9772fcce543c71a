//! The serving command grammar: one parser and executor over the
//! [`LiveCatalog`], shared by the TCP front-end ([`crate::net`] frames
//! each [`Reply`] and documents the commands) and `viewplan serve`'s
//! stdin loop (which prints it). A [`Reply`]'s `Display` is the wire
//! text.
//!
//! A `query` stays in canonical variable space from its first byte to
//! its last: the rule is parsed straight into canonical variables with
//! the client's spellings kept as slices of the line, and its cache key
//! is encoded in the same parse; the cache is probed on that key, and the
//! reply body is the stored answer's template filled with those slices.
//! Nothing on this path renames a rewriting, prints one symbol by symbol,
//! derives the key from the parsed query again, or interns a variable
//! name a client chose (an `xtask` lint keeps it so).

use std::fmt;
use std::time::{Duration, Instant};
use viewplan_containment::parse_canonical;
use viewplan_cq::{parse_query, Symbol, View};

use crate::admission::{AdmissionGate, ShedReason};
use crate::batch::WireAnswer;
use crate::catalog::{DdlOutcome, LiveCatalog};

/// What a command line is answered with.
#[derive(Clone, Debug)]
pub enum Reply {
    /// A served query: the header's fields and the rendered body.
    Answer(WireAnswer),
    /// A DDL step that took effect.
    Ddl(DdlOutcome),
    /// `epoch`: the epoch being served and the views in the catalog.
    Epoch(u64, usize),
    /// `ping`, with the epoch being served.
    Pong(u64),
    /// `shutdown` acknowledged; the front-end acts on it.
    Bye,
    /// Admission refused the query; it did no work.
    Shed(ShedReason),
    /// Malformed input or an ill-typed query/view (the CLI's exit code
    /// 2): `[vp=VPnnn ]<message>`.
    Error(String),
    /// The line's first word is not a command; an error on the wire
    /// (the stdin front-end reads such a line as a bare `query` rule).
    Unknown(String),
}

impl Reply {
    /// A validation/DDL error message, with the `[VPnnn]` diagnostic id
    /// the analyzer embeds (at the front, or nested behind a prefix such
    /// as `invalid view definition: `) lifted into a leading `vp=` field.
    fn diagnostic(msg: &str) -> Reply {
        if let Some((head, tail)) = msg.split_once('[') {
            if let Some((vp, rest)) = tail.split_once("] ") {
                if vp.starts_with("VP") {
                    return Reply::Error(format!("vp={vp} {head}{rest}"));
                }
            }
        }
        Reply::Error(msg.to_string())
    }

    fn parse_error(e: &viewplan_cq::ParseError) -> Reply {
        Reply::Error(format!("parse error: {e}"))
    }
}

impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reply::Answer(answer) => write!(
                f,
                "ok epoch={} completeness={} cached={}\n{}",
                answer.epoch,
                answer.completeness.label(),
                answer.from_cache,
                answer.body
            ),
            Reply::Ddl(outcome) => write!(
                f,
                "ok epoch={} views={} invalidated={} revalidated={}",
                outcome.epoch, outcome.views, outcome.invalidated, outcome.revalidated
            ),
            Reply::Epoch(epoch, views) => write!(f, "ok epoch={epoch} views={views}"),
            Reply::Pong(epoch) => write!(f, "pong epoch={epoch}"),
            Reply::Bye => f.write_str("bye"),
            Reply::Shed(reason) => write!(
                f,
                "shed reason={} completeness=deadline_exceeded",
                reason.label()
            ),
            Reply::Error(message) => write!(f, "error code=2 {message}"),
            Reply::Unknown(word) => write!(f, "error code=2 unknown command `{word}`"),
        }
    }
}

/// Parses and runs one command line against the catalog. A query first
/// passes `gate` when there is one (the TCP front-end's; stdin has none)
/// and computes under the catalog's budget clamped to what is left of
/// its deadline — its own `deadline-ms=N`, else `default_deadline`.
/// Malformed input never reaches the gate.
pub fn respond(
    line: &str,
    catalog: &LiveCatalog,
    gate: Option<&AdmissionGate>,
    default_deadline: Option<Duration>,
) -> Reply {
    let line = line.trim();
    let (word, rest) = match line.split_once(char::is_whitespace) {
        Some((word, rest)) => (word, rest.trim()),
        None => (line, ""),
    };
    let ddl = |outcome: Result<DdlOutcome, String>| match outcome {
        Ok(outcome) => Reply::Ddl(outcome),
        Err(msg) => Reply::diagnostic(&msg),
    };
    match word {
        "ping" => Reply::Pong(catalog.epoch()),
        "epoch" => {
            let server = catalog.server();
            Reply::Epoch(server.epoch(), server.views().len())
        }
        "shutdown" => Reply::Bye,
        "query" => query(rest, catalog, gate, default_deadline),
        "add-view" => match parse_query(rest) {
            Ok(definition) => ddl(catalog.add_view(View { definition })),
            Err(e) => Reply::parse_error(&e),
        },
        "drop-view" if rest.is_empty() || rest.contains(char::is_whitespace) => {
            Reply::Error("usage: drop-view <name>".into())
        }
        "drop-view" => ddl(catalog.drop_view(Symbol::new(rest))),
        other => Reply::Unknown(other.to_string()),
    }
}

fn query(
    rest: &str,
    catalog: &LiveCatalog,
    gate: Option<&AdmissionGate>,
    default_deadline: Option<Duration>,
) -> Reply {
    let usage = || Reply::Error("usage: query [deadline-ms=N] <rule>".into());
    let (deadline, src) = match rest.strip_prefix("deadline-ms=") {
        Some(tail) => match tail.split_once(char::is_whitespace) {
            Some((n, src)) => match n.parse::<u64>() {
                Ok(ms) => (Some(Duration::from_millis(ms)), src.trim()),
                Err(_) => return Reply::Error(format!("bad deadline `{n}`")),
            },
            None => return usage(),
        },
        None => (default_deadline, rest),
    };
    if src.is_empty() {
        return usage();
    }
    let parsed = match parse_canonical(src) {
        Ok(parsed) => parsed,
        Err(e) => return Reply::parse_error(&e),
    };
    // Reject ill-typed queries *before* the gate and the cache: an
    // arity-mismatched query would otherwise burn a permit and a
    // canonical cache entry that can only ever answer "no rewriting".
    if let Err(msg) = catalog.server().validate(&parsed.canonical) {
        return Reply::diagnostic(&msg);
    }
    let deadline = deadline.map(|d| Instant::now() + d);
    let _permit = match gate.map(|g| g.enter(deadline)).transpose() {
        Ok(permit) => permit,
        Err(reason) => return Reply::Shed(reason),
    };
    // Pinned after the wait: the request is served at the epoch current
    // when its turn came, and a concurrent swap never changes an
    // in-flight answer.
    let server = catalog.server();
    let mut spec = server.config().budget;
    if let Some(deadline) = deadline {
        spec = spec.clamp_timeout(deadline.saturating_duration_since(Instant::now()));
    }
    match server.serve_canonical(parsed, &spec) {
        Ok(answer) => Reply::Answer(answer),
        Err(e) => Reply::Error(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ServeConfig;
    use viewplan_cq::{parse_views, ViewSet};

    fn run(catalog: &LiveCatalog, line: &str) -> String {
        respond(line, catalog, None, None).to_string()
    }

    #[test]
    fn diagnostic_ids_become_a_field_wherever_the_message_carries_them() {
        let views = parse_views("v1(A, B) :- a(A, B).").unwrap();
        let catalog = LiveCatalog::new(&views, ServeConfig::default());
        let front = run(&catalog, "query q(X) :- a(X, X, X)");
        assert!(front.starts_with("error code=2 vp=VP001 "), "{front}");
        assert!(!front.contains('['), "{front}");
        let nested = run(&catalog, "add-view v2(A) :- a(A, A, A)");
        assert!(
            nested.starts_with("error code=2 vp=VP001 invalid view definition: "),
            "{nested}"
        );
        let plain = run(&catalog, "drop-view nope");
        assert_eq!(plain, "error code=2 unknown view `nope`");
    }

    #[test]
    fn malformed_commands_are_refused_by_the_parser() {
        let catalog = LiveCatalog::new(&ViewSet::default(), ServeConfig::default());
        for (line, reply) in [
            ("query", "error code=2 usage: query [deadline-ms=N] <rule>"),
            (
                "query deadline-ms=5",
                "error code=2 usage: query [deadline-ms=N] <rule>",
            ),
            (
                "query deadline-ms=soon q(X) :- a(X, X)",
                "error code=2 bad deadline `soon`",
            ),
            ("drop-view", "error code=2 usage: drop-view <name>"),
            ("drop-view a b", "error code=2 usage: drop-view <name>"),
            (
                "frobnicate now",
                "error code=2 unknown command `frobnicate`",
            ),
        ] {
            assert_eq!(run(&catalog, line), reply);
        }
        assert!(matches!(
            respond("q(X) :- a(X, X)", &catalog, None, None),
            Reply::Unknown(word) if word == "q(X)"
        ));
    }

    #[test]
    fn a_query_deadline_clamps_the_budget_even_without_a_gate() {
        let views = parse_views("v1(A, B) :- a(A, B).").unwrap();
        let catalog = LiveCatalog::new(&views, ServeConfig::default());
        let reply = run(&catalog, "query deadline-ms=0 q(X, Y) :- a(X, Y)");
        assert!(
            reply.starts_with("ok epoch=0 completeness=deadline_exceeded "),
            "{reply}"
        );
    }
}
