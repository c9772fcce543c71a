//! View tuples `T(Q, V)` (§3.3).
//!
//! A view tuple is a view literal whose arguments are variables (and
//! constants) of the query. The paper prescribes: freeze the minimized
//! query into its canonical database `D_Q`, evaluate every view
//! definition over `D_Q`, and thaw the frozen constants back into query
//! variables. By Lemma 3.2 every rewriting can be transformed into one
//! that uses only view tuples, which makes `T(Q, V)` the raw material of
//! both search spaces (Theorems 3.1 and 5.1).
//!
//! # How we compute it
//!
//! `D_Q` is the distinct subgoals of the query with variables read as
//! constants, so nothing is frozen, stored or thawed: each view body is
//! matched directly on those subgoals. A view subgoal meets a query
//! subgoal of the same predicate and arity; a view constant matches only
//! that constant (never a query variable — a frozen variable is a value
//! of its own); a view variable already bound must meet the same term.
//! The head is projected at each full match, duplicates within the view
//! dropped keep-first.
//!
//! The *order* of a view's several tuples is the order the engine's
//! multiway join would produce them in, because rewritings are emitted
//! in view-tuple order: the view's subgoals are walked in
//! [`viewplan_cq::greedy_join_order`] (the engine's own rule, over the
//! number of query subgoals per predicate) and each level tries the
//! query's subgoals in body order. `tests/differential_corecover.rs`
//! keeps the evaluation over a canonical database as the reference.
//!
//! View names are taken to be unique: tuples of different views are
//! never compared.
//!
//! # What a run allocates
//!
//! The query's subgoals are grouped once per run. Everything a view's
//! match needs — its join order and the buffers behind it, the bindings,
//! the projected head — lives in one `Matcher` that the run reuses for
//! every selected view, so after the first few views a view allocates
//! only for a tuple it has not produced before (the tuple's [`Atom`]). A
//! view that yields no tuple allocates nothing.

use viewplan_cq::{Atom, ConjunctiveQuery, JoinOrder, Symbol, Term, View, ViewSet};

/// A view tuple: a literal of view `view` whose arguments are terms of the
/// query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ViewTuple {
    /// The view this tuple instantiates.
    pub view: Symbol,
    /// The literal, e.g. `v1(M, a, C)`.
    pub atom: Atom,
}

impl std::fmt::Display for ViewTuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.atom)
    }
}

/// Computes the set of view tuples `T(Q, V)` of a (minimized) query.
///
/// The same view can contribute several tuples (Example 4.1 yields
/// `v1(X, Z)` and `v1(Z, Z)`); exact duplicates are removed. The order is
/// deterministic: views in `views` order, a view's tuples in the order
/// the module docs describe.
/// A view with a head variable its body never binds (unsafe; the parser
/// rejects them) has no tuples.
pub fn view_tuples(min_query: &ConjunctiveQuery, views: &ViewSet) -> Vec<ViewTuple> {
    let views = views.as_slice();
    view_tuples_of(min_query, views, 0..views.len()).0
}

/// The view tuples of `views[i]` for every `i` of `selected`, in that
/// order, and beside each tuple the index of the view it came from.
pub(crate) fn view_tuples_of(
    min_query: &ConjunctiveQuery,
    views: &[View],
    selected: impl IntoIterator<Item = usize>,
) -> (Vec<ViewTuple>, Vec<usize>) {
    let mut matcher = Matcher::of(min_query);
    let mut tuples: Vec<ViewTuple> = Vec::new();
    let mut origin: Vec<usize> = Vec::new();
    for i in selected {
        matcher.match_view(&views[i], &mut tuples);
        origin.resize(tuples.len(), i);
    }
    (tuples, origin)
}

/// The distinct subgoals of the query — `D_Q` with variables read as
/// constants — grouped by predicate and arity, in body order.
struct Facts<'q> {
    groups: Vec<Vec<&'q Atom>>,
}

impl<'q> Facts<'q> {
    fn of(query: &'q ConjunctiveQuery) -> Facts<'q> {
        let mut groups: Vec<Vec<&Atom>> = Vec::new();
        for atom in &query.body {
            match groups.iter_mut().find(|g| same_relation(g[0], atom)) {
                Some(group) if group.contains(&atom) => {}
                Some(group) => group.push(atom),
                None => groups.push(vec![atom]),
            }
        }
        Facts { groups }
    }

    /// The facts a view subgoal can meet (none when the query never
    /// mentions the predicate at this arity).
    fn of_relation(&self, atom: &Atom) -> &[&'q Atom] {
        self.groups
            .iter()
            .find(|g| same_relation(g[0], atom))
            .map_or(&[], Vec::as_slice)
    }
}

/// The facts of one query and the buffers every view's match reuses
/// (module docs, "What a run allocates").
struct Matcher<'q> {
    facts: Facts<'q>,
    join: JoinOrder,
    bound: Vec<(Symbol, Term)>,
    head: Vec<Term>,
}

impl<'q> Matcher<'q> {
    fn of(query: &'q ConjunctiveQuery) -> Matcher<'q> {
        Matcher {
            facts: Facts::of(query),
            join: JoinOrder::default(),
            bound: Vec::new(),
            head: Vec::new(),
        }
    }

    /// Appends the tuples of one view to `out`.
    fn match_view(&mut self, view: &View, out: &mut Vec<ViewTuple>) {
        let Matcher {
            facts,
            join,
            bound,
            head,
        } = self;
        let order = join.compute(&view.definition.body, |a| facts.of_relation(a).len());
        bound.clear();
        let mut search = Match {
            facts,
            view,
            order,
            bound,
            head,
            first: out.len(),
            out,
        };
        search.descend(0);
    }
}

fn same_relation(a: &Atom, b: &Atom) -> bool {
    a.predicate == b.predicate && a.arity() == b.arity()
}

/// The term `bound` holds for `v`. A body or a head binds a handful of
/// variables, so bindings are a list, scanned.
pub(crate) fn bound_term(bound: &[(Symbol, Term)], v: Symbol) -> Option<Term> {
    bound.iter().find(|(x, _)| *x == v).map(|&(_, t)| t)
}

/// The nested-loop match of one view body: `order[depth]` names the view
/// subgoal matched at `depth`, `bound` holds the view variables bound so
/// far (truncated on the way back), `head` the head projected at a full
/// match.
struct Match<'a, 'q> {
    facts: &'a Facts<'q>,
    view: &'a View,
    order: &'a [usize],
    bound: &'a mut Vec<(Symbol, Term)>,
    head: &'a mut Vec<Term>,
    /// Where this view's tuples start in `out`.
    first: usize,
    out: &'a mut Vec<ViewTuple>,
}

impl<'a> Match<'a, '_> {
    fn descend(&mut self, depth: usize) {
        let Some(&subgoal) = self.order.get(depth) else {
            self.project_head();
            return;
        };
        let (view, facts): (&'a View, &'a Facts<'_>) = (self.view, self.facts);
        let pattern = &view.definition.body[subgoal];
        let mark = self.bound.len();
        for fact in facts.of_relation(pattern) {
            if self.meet(pattern, fact) {
                self.descend(depth + 1);
            }
            self.bound.truncate(mark);
        }
    }

    /// Matches one view subgoal on one fact, binding its new variables.
    fn meet(&mut self, pattern: &Atom, fact: &Atom) -> bool {
        for (&p, &f) in pattern.terms.iter().zip(&fact.terms) {
            match p {
                Term::Const(_) => {
                    if p != f {
                        return false;
                    }
                }
                Term::Var(v) => match bound_term(self.bound, v) {
                    Some(t) if t != f => return false,
                    Some(_) => {}
                    None => self.bound.push((v, f)),
                },
            }
        }
        true
    }

    fn project_head(&mut self) {
        let head = self.view.head();
        self.head.clear();
        for &t in &head.terms {
            let image = match t {
                Term::Const(_) => Some(t),
                Term::Var(v) => bound_term(self.bound, v),
            };
            let Some(image) = image else {
                debug_assert!(
                    false,
                    "view {head} is unsafe: a head variable is not in its body"
                );
                return;
            };
            self.head.push(image);
        }
        if self.out[self.first..]
            .iter()
            .all(|t| t.atom.terms != *self.head)
        {
            self.out.push(ViewTuple {
                view: self.view.name(),
                atom: Atom::new(self.view.name(), self.head.clone()),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_cq::{parse_atom, parse_query, parse_views};

    fn tuples_of(q: &str, vs: &str) -> Vec<String> {
        let q = parse_query(q).unwrap();
        let views = parse_views(vs).unwrap();
        view_tuples(&q, &views)
            .iter()
            .map(|t| t.to_string())
            .collect()
    }

    #[test]
    fn carlocpart_view_tuples_match_paper() {
        // §3.3: T(Q, V) = {v1(M,a,C), v2(S,M,C), v3(S), v4(M,a,C,S), v5(M,a,C)}.
        let got = tuples_of(
            "q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)",
            "v1(M, D, C) :- car(M, D), loc(D, C).\n\
             v2(S, M, C) :- part(S, M, C).\n\
             v3(S) :- car(M, a), loc(a, C), part(S, M, C).\n\
             v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).\n\
             v5(M, D, C) :- car(M, D), loc(D, C).",
        );
        assert_eq!(
            got,
            [
                "v1(M, a, C)",
                "v2(S, M, C)",
                "v3(S)",
                "v4(M, a, C, S)",
                "v5(M, a, C)"
            ]
        );
    }

    #[test]
    fn example41_view_tuples_match_paper() {
        let got = tuples_of(
            "q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)",
            "v1(A, B) :- a(A, B), a(B, B).\n\
             v2(C, D) :- a(C, E), b(C, D).",
        );
        assert_eq!(got, ["v1(X, Z)", "v1(Z, Z)", "v2(Z, Y)"]);
    }

    #[test]
    fn view_with_no_match_produces_no_tuples() {
        let got = tuples_of("q(X) :- a(X, X)", "v(A, B) :- b(A, B)");
        assert!(got.is_empty());
    }

    #[test]
    fn constants_in_views_filter_canonical_db() {
        // The view requires dealer `a`; the query uses dealer `b`.
        let got = tuples_of("q(M) :- car(M, b)", "v(M) :- car(M, a)");
        assert!(got.is_empty());
        let got2 = tuples_of("q(M) :- car(M, a)", "v(M) :- car(M, a)");
        assert_eq!(got2, ["v(M)"]);
    }

    #[test]
    fn tuples_contain_only_query_terms() {
        let q = parse_query("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)").unwrap();
        let views = parse_views("v1(A, B) :- a(A, B), a(B, B)").unwrap();
        let expected = parse_atom("v1(X, Z)").unwrap();
        let ts = view_tuples(&q, &views);
        assert!(ts.iter().any(|t| t.atom == expected));
        let qvars: std::collections::HashSet<_> = q.variables().into_iter().collect();
        for t in &ts {
            for v in t.atom.variables() {
                assert!(qvars.contains(&v));
            }
        }
    }

    #[test]
    fn one_predicate_at_two_arities_is_matched_per_subgoal() {
        // The canonical database asserted on this (one relation, one
        // arity); the matcher compares arities subgoal by subgoal.
        let got = tuples_of(
            "q(X, Y) :- p(X), p(X, Y)",
            "v1(A) :- p(A).\n\
             v2(A, B) :- p(A, B).",
        );
        assert_eq!(got, ["v1(X)", "v2(X, Y)"]);
    }

    #[test]
    fn view_constants_never_match_query_variables() {
        // A frozen variable is a value of its own, even one spelled like
        // the constant's position would suggest.
        let got = tuples_of("q(X) :- a(X, Y)", "v(A) :- a(A, c)");
        assert!(got.is_empty());
    }

    #[test]
    fn duplicate_query_subgoals_are_one_fact() {
        let got = tuples_of("q(X) :- e(X, X), e(X, X)", "v(A, B) :- e(A, B)");
        assert_eq!(got, ["v(X, X)"]);
    }

    #[test]
    fn duplicate_tuples_are_removed() {
        // Symmetric view over a symmetric pattern can produce the same
        // tuple twice.
        let got = tuples_of("q(X) :- e(X, X)", "v(A) :- e(A, A), e(A, A)");
        assert_eq!(got, ["v(X)"]);
    }
}
