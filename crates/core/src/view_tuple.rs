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
//! matched directly on those subgoals. Both sides are read compiled
//! ([`crate::program`]): the view as its [`ViewProgram`], the query as
//! the run's table, which numbers its variables and groups its distinct
//! subgoals by relation. A view subgoal meets a query subgoal of the same
//! predicate and arity; a view constant matches only that constant
//! (never a query variable — a frozen variable is a value of its own); a
//! view variable already bound must meet the same term. Bindings are an
//! array indexed by program variable. The head is projected at each full
//! match, duplicates within the view dropped keep-first, and every tuple
//! leaves with its arguments coded over the table and its *exposure* —
//! the query variables among its arguments, as a bitset — which is what
//! step 3 classifies its variables by.
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
//! The query's table is built once per run, and the views come compiled
//! (a [`PreparedViews`](crate::PreparedViews) snapshot holds their
//! programs; [`view_tuples`] recompiles one scratch program per view).
//! Everything a view's match needs — its join order and the buffers
//! behind it, the bindings, the projected head — lives in one `Matcher`
//! that the run reuses for every view, and the tuples' coded arguments,
//! exposures and origins go to flat buffers of the run, so a view that
//! yields no tuple allocates nothing. A tuple allocates its [`Atom`] when
//! the run hands the tuples out.

use crate::program::{Code, QueryTable, ViewProgram};
use viewplan_cq::{Atom, ConjunctiveQuery, JoinOrder, Symbol, ViewSet};

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
    let table = QueryTable::of(min_query);
    let mut matcher = Matcher::default();
    let mut found = Matched::of(&table);
    let mut program: Option<ViewProgram> = None;
    for (i, view) in views.iter().enumerate() {
        let program = match &mut program {
            Some(program) => {
                program.recompile(view);
                program
            }
            None => program.insert(ViewProgram::compile(view)),
        };
        matcher.match_view(&table, program, i, &mut found);
    }
    found.view_tuples(&table, |i| views.as_slice()[i].name())
}

/// The tuples step 2 found, as step 3 reads them: each tuple's arguments
/// coded over the run's table, its exposure, and the view it came from.
pub(crate) struct Matched {
    /// Every tuple's arguments, flat: `args[starts[t]..starts[t + 1]]`
    /// are tuple `t`'s.
    args: Vec<Code>,
    starts: Vec<usize>,
    /// Words in an exposure.
    words: usize,
    /// Every tuple's exposure, `words` words each.
    exposure: Vec<u64>,
    /// The index of the view each tuple came from, among the views
    /// matched.
    pub(crate) origin: Vec<usize>,
    /// The atom relations ([`QueryTable::relations_of`]) of every view
    /// that yielded a tuple, flat, so that step 3 does not look them up
    /// again; `relations[at[t].0..at[t].1]` are tuple `t`'s view's.
    relations: Vec<usize>,
    at: Vec<(usize, usize)>,
}

impl Matched {
    pub(crate) fn of(table: &QueryTable) -> Matched {
        Matched {
            args: Vec::new(),
            starts: vec![0],
            words: table.words,
            exposure: Vec::new(),
            origin: Vec::new(),
            relations: Vec::new(),
            at: Vec::new(),
        }
    }

    /// The atom relations of tuple `t`'s view.
    pub(crate) fn relations(&self, t: usize) -> &[usize] {
        let (start, end) = self.at[t];
        &self.relations[start..end]
    }

    /// Number of tuples.
    pub(crate) fn len(&self) -> usize {
        self.origin.len()
    }

    /// Tuple `t`'s arguments, coded over the run's table.
    pub(crate) fn args(&self, t: usize) -> &[Code] {
        &self.args[self.starts[t]..self.starts[t + 1]]
    }

    /// Tuple `t`'s exposure.
    pub(crate) fn exposure(&self, t: usize) -> &[u64] {
        &self.exposure[t * self.words..(t + 1) * self.words]
    }

    /// The tuples as view literals, `name(i)` naming the `i`-th view
    /// matched.
    pub(crate) fn view_tuples(
        &self,
        table: &QueryTable,
        name: impl Fn(usize) -> Symbol,
    ) -> Vec<ViewTuple> {
        (0..self.len())
            .map(|t| {
                let view = name(self.origin[t]);
                let terms = self.args(t).iter().map(|&code| table.term(code)).collect();
                ViewTuple {
                    view,
                    atom: Atom::new(view, terms),
                }
            })
            .collect()
    }
}

/// The buffers every view's match reuses (module docs, "What a run
/// allocates").
#[derive(Default)]
pub(crate) struct Matcher {
    join: JoinOrder,
    /// The table relation of each atom of the view being matched.
    relation: Vec<usize>,
    /// The query term each program variable is bound to, if any.
    bound: Vec<Option<Code>>,
    /// The program variables bound so far, oldest first.
    trail: Vec<u32>,
    head: Vec<Code>,
}

impl Matcher {
    /// Appends the tuples of `program`'s view, the `origin`-th view
    /// matched, to `out`.
    pub(crate) fn match_view(
        &mut self,
        table: &QueryTable,
        program: &ViewProgram,
        origin: usize,
        out: &mut Matched,
    ) {
        let Matcher {
            join,
            relation,
            bound,
            trail,
            head,
        } = self;
        table.relations_of(program, relation);
        if relation.contains(&QueryTable::NONE) {
            return; // a subgoal no fact can meet: no tuple
        }
        let relations = &*relation;
        let order = join.compute_linked(
            program.atoms(),
            |j| program.links(j),
            |j| table.facts(relations[j]).len(),
        );
        bound.clear();
        bound.resize(program.variables(), None);
        trail.clear();
        let mut search = Match {
            table,
            program,
            order,
            relation: relations,
            bound,
            trail,
            head,
            first: out.len(),
            origin,
            out,
        };
        search.descend(0);
    }
}

/// The nested-loop match of one view body: `order[depth]` names the view
/// subgoal matched at `depth`, `bound` holds the program variables bound
/// so far (`trail` takes them back), `head` the head projected at a full
/// match.
struct Match<'a, 'q> {
    table: &'a QueryTable<'q>,
    program: &'a ViewProgram,
    order: &'a [usize],
    relation: &'a [usize],
    bound: &'a mut [Option<Code>],
    trail: &'a mut Vec<u32>,
    head: &'a mut Vec<Code>,
    /// Where this view's tuples start in `out`.
    first: usize,
    origin: usize,
    out: &'a mut Matched,
}

impl Match<'_, '_> {
    fn descend(&mut self, depth: usize) {
        let Some(&j) = self.order.get(depth) else {
            self.project_head();
            return;
        };
        let (table, program) = (self.table, self.program);
        let pattern = program.atom(j).1;
        for &fact in table.facts(self.relation[j]) {
            let mark = self.trail.len();
            if self.meet(pattern, table.subgoal(fact)) {
                self.descend(depth + 1);
            }
            for n in self.trail.drain(mark..) {
                self.bound[n as usize] = None;
            }
        }
    }

    /// Matches one view subgoal on one fact, binding its new variables
    /// (the caller takes them back, also after a failure half way).
    fn meet(&mut self, pattern: &[Code], fact: &[Code]) -> bool {
        for (&p, &f) in pattern.iter().zip(fact) {
            match p {
                Code::Const(_) => {
                    if p != f {
                        return false;
                    }
                }
                Code::Var(n) => match self.bound[n as usize] {
                    Some(t) if t != f => return false,
                    Some(_) => {}
                    None => {
                        self.bound[n as usize] = Some(f);
                        self.trail.push(n);
                    }
                },
            }
        }
        true
    }

    fn project_head(&mut self) {
        self.head.clear();
        for &code in self.program.head() {
            let image = match code {
                Code::Const(_) => Some(code),
                Code::Var(n) => self.bound[n as usize],
            };
            let Some(image) = image else {
                debug_assert!(
                    false,
                    "view {} is unsafe: a head variable is not in its body",
                    self.program.name()
                );
                return;
            };
            self.head.push(image);
        }
        let out = &mut *self.out;
        if (self.first..out.len()).any(|t| out.args(t) == self.head.as_slice()) {
            return;
        }
        if out.len() == self.first {
            out.relations.extend_from_slice(self.relation);
        }
        let end = out.relations.len();
        out.at.push((end - self.relation.len(), end));
        out.args.extend_from_slice(self.head);
        out.starts.push(out.args.len());
        let at = out.exposure.len();
        out.exposure.resize(at + out.words, 0);
        self.table.expose(self.head, &mut out.exposure[at..]);
        out.origin.push(self.origin);
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
