//! Differential test, wire against structured.
//!
//! A served `query` never becomes a `ConjunctiveQuery` in the client's
//! variable names: `respond` parses it into canonical variables,
//! probes the cache, and fills the stored answer's template with the
//! client's spellings. The library path does the same job structurally —
//! `parse_query`, `BatchServer::serve` (canonicalize, compute, rename the
//! rewritings back), `ServedAnswer::render`. This file holds the first to
//! the second, byte for byte: for every query text `T` below,
//!
//! ```text
//! respond("query T")  ==  "ok epoch=0 completeness=L cached=B\n"
//!                         + cacheless.serve(parse_query(T)).render()
//! ```
//!
//! with a cache in front of the first (so both a cold miss and a warm
//! hit are compared) and none in front of the second, over the §7
//! generators at 300 views per shape and the small problems of
//! `tests/differential_corecover.rs` (self-joins, constants in heads and
//! bodies, repeated head variables), each query under several spellings
//! of its variables and its white space. Each block names the mutation
//! it is there to catch; EXPERIMENTS.md "PR 24" records each one failing.

mod common;

use common::small_problem;
use std::collections::HashSet;
use viewplan::containment::{canonical_key, canonicalize, CanonicalQuery};
use viewplan::cost::{PhysicalPlan, PlannedRewriting};
use viewplan::cq::{Substitution, Symbol, Term};
use viewplan::obs::{BudgetSpec, Completeness};
use viewplan::obs::{Fault, FaultPoint};
use viewplan::prelude::*;
use viewplan::serve::{respond, CachedAnswer, LiveCatalog, Reply, ServedAnswer};

/// `text` with every variable respelled by `spell(position of its first
/// occurrence, old spelling)`; predicates, constants, integers and
/// punctuation are kept.
fn respelled(text: &str, spell: impl Fn(usize, &str) -> String) -> String {
    let mut seen: Vec<&str> = Vec::new();
    let mut out = String::new();
    let mut rest = text;
    while let Some(c) = rest.chars().next() {
        if c.is_ascii_alphabetic() || c == '_' {
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            let (ident, tail) = rest.split_at(end);
            if c.is_ascii_uppercase() {
                let at = seen.iter().position(|s| *s == ident).unwrap_or_else(|| {
                    seen.push(ident);
                    seen.len() - 1
                });
                out.push_str(&spell(at, ident));
            } else {
                out.push_str(ident);
            }
            rest = tail;
        } else {
            out.push(c);
            rest = &rest[c.len_utf8()..];
        }
    }
    out
}

/// The spellings every query is sent under. What they have in common:
/// the canonical query is the same, so after the first they are all hits
/// on one entry.
fn variants(text: &str) -> Vec<String> {
    // Names that differ only in the case of their last letter; order of
    // first occurrence in the text, so a numbering that is not textual
    // order hands them out wrong.
    let cased = |i: usize, _: &str| {
        let letter = (b'a' + (i / 2 % 26) as u8) as char;
        let letter = if i.is_multiple_of(2) {
            letter
        } else {
            letter.to_ascii_uppercase()
        };
        format!("V{}{letter}", i / 52)
    };
    // Spellings whose order is the reverse of the original's.
    let reversed = |i: usize, _: &str| format!("Z{:04}", 9999 - i);
    // Names that look like canonical ones and like one another.
    let canonical_looking = |i: usize, _: &str| format!("C{i}__c{i}");
    let mut out = vec![
        text.to_string(),
        respelled(text, cased),
        respelled(text, reversed),
        respelled(text, canonical_looking),
    ];
    // The grammar's slack: comments, a trailing dot, odd white space.
    let spaced = respelled(text, |i, _| format!("W{i}"))
        .replace(", ", " ,\t")
        .replace(" :- ", "\n  :-  % the body follows\n\t")
        .replace('(', "( ");
    out.push(format!("{spaced} . # done"));
    out
}

/// One catalog served two ways.
struct Pair {
    catalog: LiveCatalog,
    cacheless: BatchServer,
    /// Canonical queries already sent: the next request for one is a hit.
    sent: HashSet<CanonicalQuery>,
}

impl Pair {
    fn new(views: &ViewSet, config: ServeConfig) -> Pair {
        Pair {
            catalog: LiveCatalog::new(views, config.clone()),
            cacheless: BatchServer::with_config(
                views,
                ServeConfig {
                    cache_capacity: 0,
                    ..config
                },
            ),
            sent: HashSet::new(),
        }
    }

    /// Sends `text` as a `query` and holds the reply to the structured
    /// path; returns the reply.
    fn check(&mut self, text: &str) -> String {
        let query = parse_query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let structured = self.cacheless.serve(&query).expect("cacheless serve");
        // Incomplete answers are served and never stored.
        let cached =
            !structured.completeness.is_incomplete() && !self.sent.insert(canonical_key(&query));
        let expected = format!(
            "ok epoch=0 completeness={} cached={cached}\n{}",
            structured.completeness.label(),
            structured.render()
        );
        let reply = respond(&format!("query {text}"), &self.catalog, None, None);
        assert_eq!(reply.to_string(), expected, "query text: {text}");
        expected
    }
}

/// The §7 shapes: long answers (a star query has hundreds of
/// rewritings), every variable of every rewriting a hole. Catches any
/// hole at the wrong offset or with the wrong index — e.g. *names
/// numbered body-first*: the head `q(X3, X0, …)` then gets the body's
/// first variables' spellings.
#[test]
fn section7_replies_are_the_structured_answers() {
    for make in [
        WorkloadConfig::star as fn(usize, usize, u64) -> WorkloadConfig,
        WorkloadConfig::chain,
        WorkloadConfig::random,
    ] {
        let views = generate(&make(300, 1, 7)).views;
        let mut pair = Pair::new(&views, ServeConfig::default());
        let mut rewritings = 0;
        for seed in 0..6 {
            let query = generate(&make(0, 1, 7 + seed)).query;
            for text in variants(&query.to_string()) {
                rewritings += pair.check(&text).matches(" :- ").count();
            }
        }
        assert!(rewritings > 0, "nothing was rewritten");
        let stats = pair.catalog.server().cache().unwrap().stats();
        assert!(stats.hits >= 4 * stats.misses, "{stats:?}");
    }
}

/// `text` with the generator's constants `k0`/`k1` respelled as the
/// canonical variables' own names — legal constants (they start with an
/// underscore), and exactly what a hole must *not* be made from.
fn with_canonical_constants(text: &str) -> String {
    text.replace("k0", "__c0").replace("k1", "__c1")
}

/// Small problems: self-joins, constants in heads and bodies, repeated
/// head variables, answers with no rewriting — with the constants
/// spelled `__c0` and `__c1`. Catches *holes taken by name instead of
/// from `Term::Var`*: the constant `__c0` would be replaced by the
/// request's first variable.
#[test]
fn small_problem_replies_are_the_structured_answers() {
    let (mut none, mut some, mut with_constants) = (0, 0, 0);
    for seed in 0..300 {
        let w = small_problem(seed);
        let views = parse_views(&with_canonical_constants(&w.views.to_string())).unwrap();
        let mut pair = Pair::new(&views, ServeConfig::default());
        for text in variants(&with_canonical_constants(&w.query.to_string())) {
            let reply = pair.check(&text);
            if reply.contains("no equivalent rewriting") {
                none += 1;
            } else {
                some += 1;
                let answer = reply.split_once('\n').unwrap().1;
                with_constants += usize::from(answer.contains("__c"));
            }
        }
    }
    assert!(
        none > 100 && some > 100 && with_constants > 20,
        "{none} without a rewriting, {some} with, {with_constants} with a `__c` constant"
    );
}

/// Answers a budget cut short are templated like any other, and carry
/// their note.
#[test]
fn truncated_replies_are_the_structured_answers() {
    let mut truncated = 0;
    for (seed, config) in [
        (
            3,
            ServeConfig {
                budget: BudgetSpec::new().fault(Fault {
                    point: FaultPoint::Hom,
                    nth: 1,
                }),
                ..ServeConfig::default()
            },
        ),
        (
            4,
            ServeConfig {
                budget: BudgetSpec::new().node_budget(40),
                ..ServeConfig::default()
            },
        ),
        (
            5,
            ServeConfig {
                budget: BudgetSpec::new().node_budget(400),
                ..ServeConfig::default()
            },
        ),
    ] {
        let w = generate(&WorkloadConfig::star(40, 1, seed));
        let mut pair = Pair::new(&w.views, config);
        for text in variants(&w.query.to_string()) {
            truncated += usize::from(pair.check(&text).contains("\nnote: result truncated\n"));
        }
    }
    assert!(truncated >= 5, "only {truncated} truncated replies");
}

/// `rewriting` and its `plan`, both renamed through `subst`.
fn renamed(
    rewriting: &ConjunctiveQuery,
    plan: &PhysicalPlan,
    subst: &Substitution,
) -> PlannedRewriting {
    let rename = |v: Symbol| subst.apply(Term::Var(v)).as_var().unwrap();
    PlannedRewriting {
        rewriting: rewriting.apply(subst),
        plan: PhysicalPlan::annotated(
            plan.steps
                .iter()
                .map(|step| {
                    (
                        step.atom.apply(subst),
                        step.drop_after.iter().map(|&v| rename(v)).collect(),
                    )
                })
                .collect(),
        ),
        cost: 2.0,
    }
}

/// A plan's `[drop …]` list prints in the order of its variables'
/// *spellings*. M1 plans carry none today, so the answer is built by
/// hand. Catches *drop lists frozen when the template is built*: under a
/// renaming that reverses the order of the names the list must reverse
/// too.
#[test]
fn drop_lists_are_ordered_by_the_requests_spellings() {
    let query = parse_query("q(A) :- e(A, B), f(B, C), g(C, D)").unwrap();
    let c = canonicalize(&query);
    let rewriting = parse_query("q(A) :- v1(A, B, C), v2(C, D, Kept)").unwrap();
    let var = |name: &str| Symbol::new(name);
    let plan = PhysicalPlan::annotated(vec![
        (
            rewriting.body[0].clone(),
            [var("B"), var("A"), var("Kept")].into_iter().collect(),
        ),
        (
            rewriting.body[1].clone(),
            [var("D"), var("C")].into_iter().collect(),
        ),
    ]);
    // The same answer in canonical names: what the cache would hold.
    let to_canonical = Substitution::from_pairs(
        c.from_canonical
            .iter()
            .map(|(canonical, original)| (original.as_var().unwrap(), Term::Var(canonical))),
    );
    let canonical = renamed(&rewriting, &plan, &to_canonical);
    let cached = CachedAnswer::new(
        &c.canonical,
        vec![canonical.rewriting.clone()],
        Some(canonical.clone()),
        Completeness::Complete,
    );

    for names in [
        ["A", "B", "C", "D"],
        ["Z", "Y", "X", "W"],
        ["B", "A", "D", "C"],
    ] {
        // What the structured path serves this request: every canonical
        // variable renamed, `Kept` (not a variable of the query) as is.
        let back = Substitution::from_pairs(
            c.canonical
                .variables()
                .into_iter()
                .zip(names.map(Term::var)),
        );
        let served = renamed(&canonical.rewriting, &canonical.plan, &back);
        let structured = ServedAnswer {
            rewritings: vec![served.rewriting.clone()],
            best: Some(served),
            completeness: Completeness::Complete,
            from_cache: true,
            epoch: 0,
        };
        assert_eq!(cached.body(&names), structured.render(), "{names:?}");
    }
    assert_eq!(
        cached.body(&["Z", "Y", "X", "W"]),
        "q(Z) :- v1(Z, Y, X), v2(X, W, Kept)\n\
         plan[m1]: v1(Z, Y, X) [drop Kept, Y, Z] ⋈ v2(X, W, Kept) [drop W, X] (cost 2)\n"
    );
}

/// An answer built by hand in the names of the query `q(A, B) :- e(A, C),
/// f(C, B)`: its rewritings, a plan (each step's atom and what it drops)
/// when there is one, its completeness, and the mutation of the template
/// it is there to catch.
struct HandBuilt {
    catches: &'static str,
    rules: &'static [&'static str],
    steps: &'static [(&'static str, &'static [&'static str])],
    completeness: Completeness,
}

const HAND_BUILT: [HandBuilt; 7] = [
    HandBuilt {
        catches: "the atom table keyed by predicate alone (v1(C, A) printed as v1(A, C))",
        rules: &[
            "q(A, B) :- v1(A, C), v1(A, C), v2(C, B)",
            "q(A, B) :- v1(C, A), v2(C, B)",
            "q(A, B) :- v2(C, B), v1(A, C)",
        ],
        steps: &[
            ("v1(A, C)", &["A"]),
            ("v1(A, C)", &[]),
            ("v2(C, B)", &["C"]),
        ],
        completeness: Completeness::Complete,
    },
    HandBuilt {
        catches: "atoms told apart by their canonical text: v4(A, __c0, C) and v4(__c0, A, C) \
                  both print v4(__c0, __c0, __c2) in canonical names",
        rules: &["q(A, B) :- v4(A, __c0, C), v4(__c0, A, C), v2(C, B)"],
        steps: &[("v4(__c0, A, C)", &["A"]), ("v4(A, __c0, C)", &[])],
        completeness: Completeness::Complete,
    },
    HandBuilt {
        catches: "a variable outside the canonical query made a hole (Kept printed as a name)",
        rules: &["q(A, B) :- v5(A, Kept), v6(Kept, C), v2(C, B)"],
        steps: &[
            ("v5(A, Kept)", &["Kept", "A"]),
            ("v6(Kept, C)", &[]),
            ("v2(C, B)", &["B", "C", "Kept"]),
        ],
        completeness: Completeness::Complete,
    },
    HandBuilt {
        catches: "an atom's literal range off by one (done() loses its `)` or takes the \
                  next atom's first byte)",
        rules: &["q(A, B) :- done(), v2(A, B), done()", "q(A, B) :- v2(A, B)"],
        steps: &[("done()", &[]), ("v2(A, B)", &["A"])],
        completeness: Completeness::Complete,
    },
    HandBuilt {
        catches: "a body with no atom at all (the atom table assumed non-empty)",
        rules: &[],
        steps: &[],
        completeness: Completeness::Complete,
    },
    HandBuilt {
        catches: "the text after the last hole dropped (the cost and the `note:` line)",
        rules: &["q(A, B) :- v1(A, C), v2(C, B)"],
        steps: &[("v1(A, C)", &[]), ("v2(C, B)", &[])],
        completeness: Completeness::Truncated,
    },
    HandBuilt {
        catches: "a body that is only literal text: no rewriting, and truncated",
        rules: &[],
        steps: &[],
        completeness: Completeness::Truncated,
    },
];

/// Each hand-built answer, stored as the cache stores it and filled per
/// request, cold and then warm, equals the structured answer renamed into
/// the request's names and rendered — under names of other widths, in
/// reverse order, and shaped like the canonical names in another order.
/// Each answer names the mutation it catches.
#[test]
fn hand_built_answers_fill_as_they_render() {
    let query = parse_query("q(A, B) :- e(A, C), f(C, B)").unwrap();
    let c = canonicalize(&query);
    let to_canonical = Substitution::from_pairs(
        c.from_canonical
            .iter()
            .map(|(canonical, original)| (original.as_var().unwrap(), Term::Var(canonical))),
    );
    for case in &HAND_BUILT {
        let rules: Vec<ConjunctiveQuery> =
            case.rules.iter().map(|r| parse_query(r).unwrap()).collect();
        let rewritings: Vec<ConjunctiveQuery> =
            rules.iter().map(|r| r.apply(&to_canonical)).collect();
        let best = (!case.steps.is_empty()).then(|| {
            let plan = PhysicalPlan::annotated(
                case.steps
                    .iter()
                    .map(|&(atom, drops)| {
                        (
                            parse_atom(atom).unwrap(),
                            drops.iter().map(|&v| Symbol::new(v)).collect(),
                        )
                    })
                    .collect(),
            );
            renamed(&rules[0], &plan, &to_canonical)
        });
        let cached = CachedAnswer::new(
            &c.canonical,
            rewritings.clone(),
            best.clone(),
            case.completeness,
        );
        for names in [
            ["A", "B", "C"],
            ["Bb", "A", "Cccccccccccccccc"],
            ["__c1", "__c2", "__c0"],
            ["Z", "Y", "X"],
        ] {
            let back = Substitution::from_pairs(
                c.canonical
                    .variables()
                    .into_iter()
                    .zip(names.map(Term::var)),
            );
            let structured = ServedAnswer {
                rewritings: rewritings.iter().map(|r| r.apply(&back)).collect(),
                best: best.as_ref().map(|b| renamed(&b.rewriting, &b.plan, &back)),
                completeness: case.completeness,
                from_cache: false,
                epoch: 0,
            };
            let expected = structured.render();
            for fill in ["cold", "warm"] {
                assert_eq!(
                    cached.body(&names),
                    expected,
                    "{fill} fill under {names:?}; catches {}",
                    case.catches
                );
            }
        }
    }
}

/// Every malformed `query` is refused with the text the interning parser
/// would have produced — in the client's spellings, though the query was
/// never parsed into them.
#[test]
fn malformed_queries_are_refused_in_the_clients_own_words() {
    let views = parse_views("v1(A, B) :- a(A, B).").unwrap();
    let catalog = LiveCatalog::new(&views, ServeConfig::default());
    let run = |line: &str| respond(line, &catalog, None, None).to_string();
    for src in [
        "q(Left, Right) :- a(Left, Middle)",
        "q(X) :- Foo(X)",
        "q(X) :- a(X, Y) extra",
        "q(X) :- a(X, @)",
        "q(X) : a(X, Y)",
        "q(X) :- a(X, -)",
        "q(X) :- ",
        "q(X",
        "Q(X) :- a(X, Y)",
        "q(X) :- a(X, 99999999999999999999)",
    ] {
        let e = parse_query(src.trim()).unwrap_err();
        assert_eq!(
            run(&format!("query {src}")),
            format!("error code=2 parse error: {e}"),
            "{src}"
        );
    }
    assert_eq!(
        run("query q(Left, Right) :- a(Left, Middle)"),
        "error code=2 parse error: parse error at 1:1: unsafe rule (head variable not in \
         body): q(Left, Right) :- a(Left, Middle)"
    );
    // `command.rs`'s own table, and the analyzer's refusal.
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
        (
            "query q(Mine) :- a(Mine, Mine, Mine)",
            "error code=2 vp=VP001 arity mismatch: 'a' is used with 3 arguments, but the view \
             set defines it with 2",
        ),
    ] {
        assert_eq!(run(line), reply);
    }
    assert!(matches!(
        respond("query q(X) :- a(X, Y)", &catalog, None, None),
        Reply::Answer(_)
    ));
}
