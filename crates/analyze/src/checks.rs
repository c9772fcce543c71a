//! The seven checks (VP001–VP007) over a parsed program.
//!
//! | code  | severity | finding |
//! |-------|----------|---------|
//! | VP001 | error    | predicate used with inconsistent arities |
//! | VP002 | warning  | constant or repeated variable in a rule head |
//! | VP003 | warning  | disconnected rule body (cartesian product) |
//! | VP004 | warning  | duplicate / homomorphically subsumed subgoal |
//! | VP005 | warning  | query subgoal no view can cover ⇒ no complete rewriting |
//! | VP006 | warning  | view that can never participate in a rewriting |
//! | VP007 | warning  | predicted search-space blowup |
//!
//! Only VP001 is an error: an arity mismatch makes the canonical
//! database ill-typed (a fact with the wrong width), so every downstream
//! phase — homomorphism search, evaluation, planning — would silently
//! compute over garbage. Everything else leaves the pipeline
//! well-defined; the warnings just say the result is probably not what
//! the author wanted (provably empty rewriting sets, cartesian
//! products, dead views, exponential blowups).

use crate::diagnostics::{Analysis, Diagnostic};
use std::collections::{HashMap, HashSet};
use viewplan_containment::minimize;
use viewplan_core::{body_signature, view_is_unusable, CatalogIndex, MAX_SUBGOALS};
use viewplan_cq::{
    hypertree_width_estimate, Atom, ConjunctiveQuery, Program, RuleSpans, Span, Symbol, Term, View,
    ViewSet,
};

/// How the rules of a program divide into queries and views.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layout {
    /// `rewrite`/`plan`/`eval` problem files: rule 0 is the query, every
    /// later rule defines a view.
    Problem,
    /// `batch` files: the first `view_count` rules define views, every
    /// later rule is a query against them.
    Batch {
        /// Number of leading view rules.
        view_count: usize,
    },
    /// `serve` view files: every rule defines a view; queries arrive
    /// later over stdin.
    ViewsOnly,
}

/// Candidate-homomorphism estimate above which VP007 fires: beyond this
/// many candidate mappings the cover search is likely to need a budget
/// (`--deadline` / `--node-budget`) to answer interactively.
pub const BLOWUP_THRESHOLD: f64 = 10_000.0;

/// Analyzes a parsed program under the given layout. The returned
/// findings are sorted by source position.
pub fn analyze(program: &Program, layout: Layout) -> Analysis {
    let n = program.rules.len();
    let view_range = match layout {
        Layout::Problem => 1.min(n)..n,
        Layout::Batch { view_count } => 0..view_count.min(n),
        Layout::ViewsOnly => 0..n,
    };
    let query_indices: Vec<usize> = (0..n).filter(|i| !view_range.contains(i)).collect();
    let view_indices: Vec<usize> = view_range.collect();

    let mut out = Vec::new();
    check_arity(program, &query_indices, &mut out);
    let arity_consistent = out.is_empty();
    for i in 0..n {
        let rule = &program.rules[i];
        let spans = &program.spans[i];
        check_head_anomalies(rule, spans, &mut out);
        check_connectivity(rule, spans, &mut out);
        check_redundant_subgoals(rule, spans, &mut out);
    }
    // The cross-rule checks compare (predicate, arity) signatures, so an
    // arity mismatch would cascade into spurious coverage findings —
    // suppress them until VP001 is fixed (rustc-style).
    if arity_consistent {
        let views: Vec<&ConjunctiveQuery> =
            view_indices.iter().map(|&i| &program.rules[i]).collect();
        if !views.is_empty() {
            for &qi in &query_indices {
                check_coverage(&program.rules[qi], &program.spans[qi], &views, &mut out);
            }
            check_dead_views(program, &query_indices, &view_indices, &mut out);
        }
        for &qi in &query_indices {
            check_blowup(&program.rules[qi], &program.spans[qi], &views, &mut out);
        }
    }
    Analysis { diagnostics: out }.finish()
}

/// Only the error-severity checks (currently VP001) — the cheap input
/// gate the processing commands run before any real work. Unlike
/// [`analyze`] this performs no containment reasoning, so it leaves the
/// observability counters of the pipeline it guards untouched.
pub fn analyze_errors(program: &Program, layout: Layout) -> Analysis {
    let n = program.rules.len();
    let view_range = match layout {
        Layout::Problem => 1.min(n)..n,
        Layout::Batch { view_count } => 0..view_count.min(n),
        Layout::ViewsOnly => 0..n,
    };
    let query_indices: Vec<usize> = (0..n).filter(|i| !view_range.contains(i)).collect();
    let mut out = Vec::new();
    check_arity(program, &query_indices, &mut out);
    Analysis { diagnostics: out }.finish()
}

/// Cheap arity validation of one ad-hoc query against a fixed view set —
/// the `serve` reject-before-cache path, where queries come from stdin
/// and carry no spans. Returns the first conflict (body atoms in order,
/// then the head) as an error message. O(|query|): the arities come from
/// the view set's [`CatalogIndex`], which a serving snapshot already
/// holds.
pub fn validate_query_arities(
    query: &ConjunctiveQuery,
    index: &CatalogIndex,
) -> Result<(), String> {
    for a in query.body.iter().chain(std::iter::once(&query.head)) {
        if let Some(expected) = index.arity_of(a.predicate) {
            if expected != a.terms.len() {
                return Err(format!(
                    "[VP001] arity mismatch: '{}' is used with {} arguments, but the view set \
                     defines it with {}",
                    a.predicate,
                    a.terms.len(),
                    expected
                ));
            }
        }
    }
    Ok(())
}

/// [`validate_query_arities`] for a caller that holds only the views:
/// indexes them for this one check.
pub fn validate_query_against_views(
    query: &ConjunctiveQuery,
    views: &ViewSet,
) -> Result<(), String> {
    validate_query_arities(query, &CatalogIndex::build(views, &[]))
}

/// VP001: every use of a predicate must agree on arity. The first
/// (source-order) use fixes the arity; later conflicting uses are
/// errors. Query-rule heads are checked against the map but do not
/// populate it: a batch file legitimately reuses one head name (`q`)
/// across queries of different shapes.
fn check_arity(program: &Program, query_indices: &[usize], out: &mut Vec<Diagnostic>) {
    let is_query: HashSet<usize> = query_indices.iter().copied().collect();
    let mut first: HashMap<Symbol, (usize, Span)> = HashMap::new();
    let mut visit =
        |pred: Symbol, arity: usize, span: Span, query_head: bool, out: &mut Vec<_>| match first
            .get(&pred)
        {
            Some(&(expected, at)) if expected != arity => out.push(Diagnostic::error(
                "VP001",
                span,
                format!(
                    "arity mismatch: '{pred}' is used here with {arity} arguments, but with \
                     {expected} at line {}, column {}",
                    at.line, at.column
                ),
            )),
            Some(_) => {}
            None => {
                if !query_head {
                    first.insert(pred, (arity, span));
                }
            }
        };
    for (i, rule) in program.rules.iter().enumerate() {
        let spans = &program.spans[i];
        visit(
            rule.head.predicate,
            rule.head.terms.len(),
            spans.head,
            is_query.contains(&i),
            out,
        );
        for (a, s) in rule.body.iter().zip(&spans.body) {
            visit(a.predicate, a.terms.len(), *s, false, out);
        }
    }
}

/// VP002: heads should be a list of distinct variables. A constant in
/// the head is legal but almost always a typo (the paper's queries and
/// views all have variable heads); a repeated head variable exports the
/// same column twice.
fn check_head_anomalies(rule: &ConjunctiveQuery, spans: &RuleSpans, out: &mut Vec<Diagnostic>) {
    let mut seen: HashSet<Symbol> = HashSet::new();
    for t in &rule.head.terms {
        match *t {
            Term::Const(c) => out.push(Diagnostic::warning(
                "VP002",
                spans.head,
                format!(
                    "constant '{c}' in the head of '{}': heads should contain only variables",
                    rule.head.predicate
                ),
            )),
            Term::Var(v) => {
                if !seen.insert(v) {
                    out.push(Diagnostic::warning(
                        "VP002",
                        spans.head,
                        format!(
                            "variable '{v}' is repeated in the head of '{}': the same column is \
                             exported twice",
                            rule.head.predicate
                        ),
                    ));
                }
            }
        }
    }
}

/// VP003: subgoals that share no variables (directly or transitively)
/// join as a cartesian product. Anchored at the first subgoal outside
/// the component of the first subgoal.
fn check_connectivity(rule: &ConjunctiveQuery, spans: &RuleSpans, out: &mut Vec<Diagnostic>) {
    let k = rule.body.len();
    if k < 2 {
        return;
    }
    // Union-find over subgoal indices, merged through shared variables.
    let mut parent: Vec<usize> = (0..k).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut owner: HashMap<Symbol, usize> = HashMap::new();
    for (i, atom) in rule.body.iter().enumerate() {
        for v in atom.variables() {
            match owner.get(&v) {
                Some(&j) => {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    parent[a] = b;
                }
                None => {
                    owner.insert(v, i);
                }
            }
        }
    }
    let root0 = find(&mut parent, 0);
    let components: HashSet<usize> = (0..k).map(|i| find(&mut parent, i)).collect();
    if components.len() > 1 {
        let stray = (1..k)
            .find(|&i| find(&mut parent, i) != root0)
            .unwrap_or(k - 1);
        out.push(Diagnostic::warning(
            "VP003",
            spans.body[stray],
            format!(
                "the body of '{}' splits into {} groups of subgoals that share no variables: \
                 they join as a cartesian product",
                rule.head.predicate,
                components.len()
            ),
        ));
    }
}

/// VP004: a subgoal that is an exact duplicate, or that minimization
/// (Chandra–Merlin core computation) removes as homomorphically
/// subsumed, contributes nothing to the query's meaning.
fn check_redundant_subgoals(rule: &ConjunctiveQuery, spans: &RuleSpans, out: &mut Vec<Diagnostic>) {
    // Exact duplicates first, keeping the earliest occurrence.
    let mut first_at: HashMap<&Atom, Span> = HashMap::new();
    let mut kept: Vec<usize> = Vec::new();
    for (j, a) in rule.body.iter().enumerate() {
        match first_at.get(a) {
            Some(at) => out.push(Diagnostic::warning(
                "VP004",
                spans.body[j],
                format!(
                    "duplicate subgoal '{a}' (already written at line {}, column {})",
                    at.line, at.column
                ),
            )),
            None => {
                first_at.insert(a, spans.body[j]);
                kept.push(j);
            }
        }
    }
    // Then homomorphic subsumption: minimize() only deletes subgoals, so
    // the atoms it keeps are (a sub-multiset of) the deduplicated body,
    // and a counting diff recovers exactly which ones were dropped.
    let deduped = rule.dedup_subgoals();
    if deduped.body.len() < 2 {
        return;
    }
    let minimized = minimize(&deduped);
    if minimized.body.len() == deduped.body.len() {
        return;
    }
    let mut remaining: HashMap<&Atom, usize> = HashMap::new();
    for a in &minimized.body {
        *remaining.entry(a).or_insert(0) += 1;
    }
    for (pos, a) in kept.iter().map(|&j| (j, &rule.body[j])) {
        match remaining.get_mut(a) {
            Some(c) if *c > 0 => *c -= 1,
            _ => out.push(Diagnostic::warning(
                "VP004",
                spans.body[pos],
                format!(
                    "subgoal '{a}' is redundant in '{}': minimization removes it \
                     (homomorphically subsumed by the rest of the body)",
                    rule.head.predicate
                ),
            )),
        }
    }
}

/// VP005: a query subgoal whose (predicate, arity) appears in no view
/// body can never be covered, so no complete rewriting exists (the
/// expansion of any rewriting would miss that subgoal — Lemma 3.2).
fn check_coverage(
    query: &ConjunctiveQuery,
    spans: &RuleSpans,
    views: &[&ConjunctiveQuery],
    out: &mut Vec<Diagnostic>,
) {
    let mut available: HashSet<(Symbol, usize)> = HashSet::new();
    for v in views {
        for a in &v.body {
            available.insert((a.predicate, a.terms.len()));
        }
    }
    for (a, s) in query.body.iter().zip(&spans.body) {
        if !available.contains(&(a.predicate, a.terms.len())) {
            out.push(Diagnostic::warning(
                "VP005",
                *s,
                format!(
                    "subgoal '{}/{}' of '{}' occurs in no view definition: no complete \
                     rewriting can exist",
                    a.predicate,
                    a.terms.len(),
                    query.head.predicate
                ),
            ));
        }
    }
}

/// Can view-body atom `a` be mapped onto query subgoal `g` by *some*
/// homomorphism into the canonical database? Necessary conditions only:
/// same predicate and arity; a constant in `a` must meet the *same*
/// constant in `g` — canonical-database facts hold frozen variables
/// distinct from every real constant, so a view constant can never match
/// a query-variable position.
fn atom_can_map(a: &Atom, g: &Atom) -> bool {
    if a.predicate != g.predicate || a.terms.len() != g.terms.len() {
        return false;
    }
    a.terms.iter().zip(&g.terms).all(|(ta, tg)| match (ta, tg) {
        (Term::Const(c), Term::Const(d)) => c == d,
        (Term::Const(_), Term::Var(_)) => false,
        (Term::Var(_), _) => true,
    })
}

/// Can view-body atom `a` *cover* query subgoal `g` — end up in a
/// nonempty tuple-core a rewriting uses? On top of [`atom_can_map`],
/// MiniCon's export condition: a distinguished query variable must meet
/// a distinguished view variable, or the view cannot export the value
/// the covering needs (cf. MiniCon property C2).
fn atom_may_cover(
    a: &Atom,
    dist_view: &HashSet<Symbol>,
    g: &Atom,
    dist_query: &HashSet<Symbol>,
) -> bool {
    atom_can_map(a, g)
        && a.terms.iter().zip(&g.terms).all(|(ta, tg)| match (ta, tg) {
            (Term::Var(av), Term::Var(gv)) => !dist_query.contains(gv) || dist_view.contains(av),
            _ => true,
        })
}

/// VP006: a view that can never participate usefully in a rewriting.
/// Two strengths, checked against every query of the program (a view is
/// only flagged when it is dead for *all* of them):
///
/// * **unmatchable** — some view subgoal has no query subgoal it can map
///   onto ([`atom_can_map`]): foreign predicate, or conflicting constant
///   positions. No homomorphism into the canonical database exists, so
///   the view yields zero view tuples. The foreign-predicate sub-case is
///   exactly what the rewriter prunes on
///   ([`viewplan_core::view_is_unusable`]).
/// * **cover-impossible** — view tuples may exist, but no view subgoal
///   can cover any query subgoal under [`atom_may_cover`], so every
///   tuple-core is empty: the view can act only as an M2 filter, never
///   in a cover. Diagnostic-only — filters are legitimate, so the
///   rewriter must not (and does not) prune on this.
fn check_dead_views(
    program: &Program,
    query_indices: &[usize],
    view_indices: &[usize],
    out: &mut Vec<Diagnostic>,
) {
    if query_indices.is_empty() {
        return;
    }
    // Per query: the rule, its distinguished variables, and its body's
    // (predicate, arity) signature.
    type QueryFacts<'a> = (
        &'a ConjunctiveQuery,
        HashSet<Symbol>,
        HashSet<(Symbol, usize)>,
    );
    let queries: Vec<QueryFacts> = query_indices
        .iter()
        .map(|&i| {
            let q = &program.rules[i];
            (q, q.distinguished_set(), body_signature(q))
        })
        .collect();
    for &vi in view_indices {
        let rule = &program.rules[vi];
        let view = View {
            definition: rule.clone(),
        };
        let dist_view = rule.distinguished_set();
        let mut foreign_example: Option<&Atom> = None;
        let mut unmatchable_example: Option<&Atom> = None;
        let mut unmatchable_for_all = true;
        let mut coverless_for_all = true;
        for (q, dist_query, sig) in &queries {
            let unmatchable = rule
                .body
                .iter()
                .find(|a| !q.body.iter().any(|g| atom_can_map(a, g)));
            if let Some(a) = unmatchable {
                unmatchable_example = unmatchable_example.or(Some(a));
                if foreign_example.is_none() && view_is_unusable(sig, &view) {
                    foreign_example = rule
                        .body
                        .iter()
                        .find(|a| !sig.contains(&(a.predicate, a.terms.len())));
                }
                continue;
            }
            unmatchable_for_all = false;
            let covers_something = rule.body.iter().any(|a| {
                q.body
                    .iter()
                    .any(|g| atom_may_cover(a, &dist_view, g, dist_query))
            });
            if covers_something {
                coverless_for_all = false;
                break;
            }
        }
        if !coverless_for_all {
            continue;
        }
        let name = rule.head.predicate;
        let span = program.spans[vi].head;
        if unmatchable_for_all {
            if let Some(a) = foreign_example {
                out.push(Diagnostic::warning(
                    "VP006",
                    span,
                    format!(
                        "view '{name}' can never match: its subgoal '{}/{}' occurs in no \
                         query body, so it yields no view tuples (the rewriter prunes it)",
                        a.predicate,
                        a.terms.len()
                    ),
                ));
            } else {
                let a = unmatchable_example
                    .map(|a| a.to_string())
                    .unwrap_or_default();
                out.push(Diagnostic::warning(
                    "VP006",
                    span,
                    format!(
                        "view '{name}' can never match: its subgoal '{a}' maps onto no query \
                         subgoal (conflicting constant positions), so it yields no view tuples"
                    ),
                ));
            }
        } else {
            out.push(Diagnostic::warning(
                "VP006",
                span,
                format!(
                    "view '{name}' can cover no query subgoal (a distinguished query variable \
                     always meets a non-distinguished view variable, cf. MiniCon): it can act \
                     only as a filter, never in a rewriting's cover"
                ),
            ));
        }
    }
}

/// VP007: predicted search-space blowup — either the query is wider than
/// the cover engine's bitmask width, or the number of candidate
/// homomorphisms from the views into the query (the product, over each
/// view's subgoals, of the matching query subgoals) exceeds
/// [`BLOWUP_THRESHOLD`]. Either way, `--deadline`/`--node-budget` (the
/// anytime budgets) are the recommended mitigation.
fn check_blowup(
    query: &ConjunctiveQuery,
    spans: &RuleSpans,
    views: &[&ConjunctiveQuery],
    out: &mut Vec<Diagnostic>,
) {
    if query.body.len() > MAX_SUBGOALS {
        out.push(Diagnostic::warning(
            "VP007",
            spans.head,
            format!(
                "query '{}' has {} subgoals, beyond the {MAX_SUBGOALS} the cover search \
                 supports: rewriting will fail unless minimization shrinks it",
                query.head.predicate,
                query.body.len()
            ),
        ));
    }
    if views.is_empty() {
        return;
    }
    let mut matches: HashMap<(Symbol, usize), f64> = HashMap::new();
    for g in &query.body {
        *matches.entry((g.predicate, g.terms.len())).or_insert(0.0) += 1.0;
    }
    let estimate: f64 = views
        .iter()
        .map(|v| {
            v.body
                .iter()
                .map(|a| {
                    matches
                        .get(&(a.predicate, a.terms.len()))
                        .copied()
                        .unwrap_or(0.0)
                })
                .product::<f64>()
        })
        .sum();
    if estimate > BLOWUP_THRESHOLD {
        // The hypergraph structure tempers the prediction: width 1 means
        // the query is acyclic, so containment checks take the semijoin
        // fast path and evaluation can semijoin-reduce (intermediates
        // stay linear); only cyclic queries face the exponential search.
        let width = hypertree_width_estimate(&query.body);
        let structure = if width <= 1 {
            "hypertree width 1 — acyclic, so the semijoin fast path keeps \
             containment checks and intermediates polynomial"
                .to_string()
        } else {
            format!("hypertree width ~{width} — cyclic, search may be exponential")
        };
        out.push(Diagnostic::warning(
            "VP007",
            spans.head,
            format!(
                "predicted search-space blowup for '{}': ~{estimate:.0} candidate \
                 homomorphisms from {} views into the query ({structure}); consider \
                 running with --deadline or --node-budget",
                query.head.predicate,
                views.len()
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;
    use viewplan_cq::parse_program;

    fn run(src: &str, layout: Layout) -> Analysis {
        analyze(&parse_program(src).unwrap(), layout)
    }

    fn codes(a: &Analysis) -> Vec<&'static str> {
        a.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_problem_has_no_findings() {
        let a = run(
            "q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y).\n\
             v1(A, B) :- a(A, B), a(B, B).\n\
             v2(C, D) :- a(C, E), b(C, D).",
            Layout::Problem,
        );
        assert!(a.is_empty(), "unexpected findings: {:?}", a.diagnostics);
    }

    #[test]
    fn vp001_arity_mismatch_is_an_error_with_a_span() {
        let src = "q(X) :- e(X, Y).\nv(A) :- e(A, A, A).";
        let a = run(src, Layout::Problem);
        assert_eq!(codes(&a), ["VP001"]);
        let d = &a.diagnostics[0];
        assert!(a.has_errors());
        assert_eq!(d.span.slice(src), "e(A, A, A)");
        assert_eq!((d.span.line, d.span.column), (2, 9));
        assert!(d.message.contains("3 arguments"));
        assert!(d.message.contains("with 2 at line 1, column 9"));
    }

    #[test]
    fn vp001_ignores_query_head_reuse_across_batch_queries() {
        // Two batch queries named `q` with different arities are fine…
        let src = "v(A, B) :- a(A, B).\nq(X, Y) :- a(X, Y).\nq(X) :- a(X, X).";
        let a = run(src, Layout::Batch { view_count: 1 });
        assert!(a.is_empty(), "unexpected findings: {:?}", a.diagnostics);
        // …but a query head colliding with a view name of another arity
        // is still an error.
        let src2 = "v(A, B) :- a(A, B).\nv(X) :- a(X, X).";
        let a2 = run(src2, Layout::Batch { view_count: 1 });
        assert_eq!(codes(&a2), ["VP001"]);
    }

    #[test]
    fn vp002_head_constant_and_repeated_variable() {
        let src = "q(X, c, X) :- e(X, Y).";
        let a = run(src, Layout::ViewsOnly);
        assert_eq!(codes(&a), ["VP002", "VP002"]);
        assert!(
            a.diagnostics
                .iter()
                .all(|d| d.severity == Severity::Warning),
            "VP002 findings must be warnings"
        );
        assert!(a.diagnostics[0].span.slice(src).starts_with("q(X, c, X)"));
        let messages: Vec<&str> = a.diagnostics.iter().map(|d| d.message.as_str()).collect();
        assert!(messages.iter().any(|m| m.contains("constant 'c'")));
        assert!(messages
            .iter()
            .any(|m| m.contains("variable 'X' is repeated")));
    }

    #[test]
    fn vp003_disconnected_body() {
        let src = "q(X, U) :- e(X, Y), f(Y, X), g(U, W).";
        let a = run(src, Layout::ViewsOnly);
        assert_eq!(codes(&a), ["VP003"]);
        assert_eq!(a.diagnostics[0].span.slice(src), "g(U, W)");
        assert!(a.diagnostics[0].message.contains("2 groups"));
        // A chain that reconnects transitively is fine.
        let b = run("q(X) :- e(X, Y), f(Y, Z), g(Z, X).", Layout::ViewsOnly);
        assert!(b.is_empty());
    }

    #[test]
    fn vp004_duplicate_and_subsumed_subgoals() {
        let src = "q(X) :- e(X, Y), e(X, Y).";
        let a = run(src, Layout::ViewsOnly);
        assert_eq!(codes(&a), ["VP004"]);
        assert_eq!(a.diagnostics[0].span.slice(src), "e(X, Y)");
        assert_eq!(a.diagnostics[0].span.column, 18);
        assert!(a.diagnostics[0].message.contains("duplicate subgoal"));

        // e(X, Z) is not a duplicate but is homomorphically subsumed.
        let src2 = "q(X) :- e(X, Y), e(X, Z).";
        let b = run(src2, Layout::ViewsOnly);
        assert_eq!(codes(&b), ["VP004"]);
        assert!(b.diagnostics[0].message.contains("minimization removes it"));
        assert_eq!(b.diagnostics[0].span.line, 1);
    }

    #[test]
    fn vp005_uncovered_query_subgoal() {
        let src = "q(X) :- e(X, Y), f(Y, X).\nv(A) :- e(A, A).";
        let a = run(src, Layout::Problem);
        assert_eq!(codes(&a), ["VP005"]);
        assert_eq!(a.diagnostics[0].span.slice(src), "f(Y, X)");
        assert!(a.diagnostics[0].message.contains("'f/2'"));
        assert!(a.diagnostics[0].message.contains("no complete rewriting"));
    }

    #[test]
    fn vp006_foreign_predicate_view() {
        let src = "q(X) :- e(X, Y).\nv(A) :- e(A, B), zzz(B).";
        let a = run(src, Layout::Problem);
        assert_eq!(codes(&a), ["VP006"]);
        assert_eq!(a.diagnostics[0].span.slice(src), "v(A)");
        assert!(a.diagnostics[0].message.contains("'zzz/1'"));
        assert!(a.diagnostics[0].message.contains("prunes it"));
    }

    #[test]
    fn vp006_export_impossible_view() {
        // The view's only subgoal can only sit on e(X, Y), but X is
        // distinguished in the query while A is existential in the view.
        let src = "q(X) :- e(X, Y).\nv(B) :- e(A, B).";
        let a = run(src, Layout::Problem);
        assert_eq!(codes(&a), ["VP006"]);
        assert!(a.diagnostics[0].message.contains("only as a filter"));
    }

    #[test]
    fn vp006_constant_conflict_view() {
        // The view pins position 1 to a constant the query never uses:
        // no homomorphism into the canonical database can exist.
        let src = "q(X) :- e(X, Y).\nv(A) :- e(A, nope).";
        let a = run(src, Layout::Problem);
        assert_eq!(codes(&a), ["VP006"]);
        assert!(a.diagnostics[0].message.contains("conflicting constant"));
    }

    #[test]
    fn vp006_spares_views_alive_for_some_batch_query() {
        // Dead for the first query, alive for the second → no finding.
        let src = "v(A, B) :- f(A, B).\nq(X) :- e(X, X).\nq2(X) :- f(X, Y).";
        let a = run(src, Layout::Batch { view_count: 1 });
        assert!(codes(&a).contains(&"VP005")); // e/2 uncovered for q
        assert!(!codes(&a).contains(&"VP006"));
    }

    #[test]
    fn vp006_spares_filter_candidate_views() {
        // carlocpart's v3 exports only S; it survives as a filter and
        // must not be called dead.
        let src = "q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C).\n\
                   v3(S) :- car(M, anderson), loc(anderson, C), part(S, M, C).";
        let a = run(src, Layout::Problem);
        assert!(!codes(&a).contains(&"VP006"), "{:?}", a.diagnostics);
    }

    #[test]
    fn vp007_blowup_estimate() {
        // 8 query subgoals on `e`, one view with 5 `e` subgoals:
        // 8^5 = 32768 > 10000 candidate homomorphisms.
        let query_body: Vec<String> = (0..8).map(|i| format!("e(X{i}, Y{i})")).collect();
        let view_body: Vec<String> = (0..5).map(|i| format!("e(A{i}, B{i})")).collect();
        let src = format!(
            "q(X0) :- {}.\nv(A0) :- {}.",
            query_body.join(", "),
            view_body.join(", ")
        );
        let a = run(&src, Layout::Problem);
        assert!(codes(&a).contains(&"VP007"), "{:?}", a.diagnostics);
        let d = a.diagnostics.iter().find(|d| d.code == "VP007").unwrap();
        assert!(d.message.contains("32768"));
        // The disconnected e(Xi, Yi) pairs are acyclic — the finding
        // reports that the blowup is tempered by the fast path.
        assert!(d.message.contains("hypertree width 1"), "{}", d.message);
        assert!(d.message.contains("acyclic"), "{}", d.message);
        assert_eq!(d.span.slice(&src), "q(X0)");
    }

    #[test]
    fn vp007_reports_width_of_cyclic_queries() {
        // A triangle of e-atoms padded with enough matching subgoals to
        // cross the threshold: 6 e-subgoals, view with 5 → 6^5 = 7776…
        // pad to 7 subgoals: 7^5 = 16807 > 10000.
        let query_body = "e(A, B), e(B, C), e(C, A), e(D, E), e(E, F), e(F, G), e(G, H)";
        let view_body: Vec<String> = (0..5).map(|i| format!("e(P{i}, R{i})")).collect();
        let src = format!("q(A) :- {query_body}.\nv(P0) :- {}.", view_body.join(", "));
        let a = run(&src, Layout::Problem);
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == "VP007")
            .expect("blowup should fire");
        assert!(d.message.contains("hypertree width ~2"), "{}", d.message);
        assert!(d.message.contains("cyclic"), "{}", d.message);
    }

    #[test]
    fn serve_validation_rejects_arity_conflicts() {
        use viewplan_cq::{parse_query, parse_views};
        let views = parse_views("v1(A, B) :- a(A, B), a(B, B).").unwrap();
        let ok = parse_query("q(X) :- a(X, X)").unwrap();
        assert!(validate_query_against_views(&ok, &views).is_ok());
        let bad = parse_query("q(X) :- a(X, X, X)").unwrap();
        let err = validate_query_against_views(&bad, &views).unwrap_err();
        assert!(err.contains("VP001"), "{err}");
        assert!(err.contains("3 arguments"));
        let bad_head = parse_query("v1(X, Y, Z) :- a(X, Y), a(Y, Z)").unwrap();
        assert!(validate_query_against_views(&bad_head, &views).is_err());
    }
}
