//! Expansion of rewritings over views into base relations
//! (Definition 2.2).
//!
//! The expansion `P^exp` of a rewriting `P` replaces every view subgoal by
//! the view's definition body, with the definition's head variables unified
//! against the subgoal's arguments and its existential variables replaced by
//! fresh variables per occurrence.
//!
//! Unification (rather than plain substitution) is needed to handle views
//! whose head repeats a variable (`v(A, A) :- …`) or contains a constant:
//! such heads equate arguments of the subgoal. We gather all equalities and
//! solve them with a union-find over terms; two distinct constants in one
//! class make the expansion unsatisfiable (the rewriting returns no
//! tuples on any database).

use viewplan_cq::{Atom, ConjunctiveQuery, Substitution, Symbol, Term, View, ViewSet};

use std::collections::HashMap;
use std::fmt;

/// Why a rewriting could not be expanded.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExpandError {
    /// A body subgoal refers to a predicate that is not a known view.
    UnknownView(Symbol),
    /// A body subgoal's arity differs from the view's arity.
    ArityMismatch {
        /// The offending view.
        view: Symbol,
        /// Arity expected by the view definition.
        expected: usize,
        /// Arity found in the rewriting subgoal.
        found: usize,
    },
    /// The head equalities of some view force two distinct constants to be
    /// equal; the rewriting is unsatisfiable.
    Unsatisfiable,
}

impl fmt::Display for ExpandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpandError::UnknownView(v) => write!(f, "unknown view: {v}"),
            ExpandError::ArityMismatch {
                view,
                expected,
                found,
            } => write!(
                f,
                "arity mismatch for view {view}: expected {expected}, found {found}"
            ),
            ExpandError::Unsatisfiable => {
                f.write_str("expansion is unsatisfiable (conflicting constants)")
            }
        }
    }
}

impl std::error::Error for ExpandError {}

/// Union-find over terms used to solve head-argument equalities.
struct TermUnion {
    parent: HashMap<Term, Term>,
}

impl TermUnion {
    fn new() -> TermUnion {
        TermUnion {
            parent: HashMap::new(),
        }
    }

    fn find(&mut self, t: Term) -> Term {
        let p = match self.parent.get(&t) {
            None => return t,
            Some(&p) => p,
        };
        let root = self.find(p);
        self.parent.insert(t, root);
        root
    }

    /// Unions two classes; prefers a constant as representative, otherwise
    /// `preferred` variables (the rewriting's own variables) win so the
    /// expansion reads in the rewriting's vocabulary.
    fn union(
        &mut self,
        a: Term,
        b: Term,
        preferred: &dyn Fn(Term) -> bool,
    ) -> Result<(), ExpandError> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Ok(());
        }
        let (winner, loser) = match (ra, rb) {
            (Term::Const(_), Term::Const(_)) => return Err(ExpandError::Unsatisfiable),
            (Term::Const(_), _) => (ra, rb),
            (_, Term::Const(_)) => (rb, ra),
            _ => {
                if preferred(ra) || !preferred(rb) {
                    (ra, rb)
                } else {
                    (rb, ra)
                }
            }
        };
        self.parent.insert(loser, winner);
        Ok(())
    }
}

fn resolve_view<'v>(views: &'v ViewSet, atom: &Atom) -> Result<&'v View, ExpandError> {
    let view = views
        .get(atom.predicate)
        .ok_or(ExpandError::UnknownView(atom.predicate))?;
    if view.arity() != atom.arity() {
        return Err(ExpandError::ArityMismatch {
            view: atom.predicate,
            expected: view.arity(),
            found: atom.arity(),
        });
    }
    Ok(view)
}

/// Expands a rewriting `p` whose body subgoals are view literals into a
/// conjunctive query over base relations.
pub fn expand(p: &ConjunctiveQuery, views: &ViewSet) -> Result<ConjunctiveQuery, ExpandError> {
    let mut raw_body: Vec<Atom> = Vec::new();
    let mut equalities: Vec<(Term, Term)> = Vec::new();
    for atom in &p.body {
        let view = resolve_view(views, atom)?;
        // Rename *all* view variables apart so occurrences never collide
        // with each other or with the rewriting's variables.
        let def = rename_all_apart(&view.definition);
        for (h, a) in def.head.terms.iter().zip(&atom.terms) {
            equalities.push((*h, *a));
        }
        raw_body.extend(def.body.iter().cloned());
    }

    // Solve equalities; the rewriting's own terms are preferred
    // representatives.
    let own: std::collections::HashSet<Term> = p
        .head
        .terms
        .iter()
        .chain(p.body.iter().flat_map(|a| a.terms.iter()))
        .copied()
        .collect();
    let prefer = |t: Term| own.contains(&t);
    let mut uf = TermUnion::new();
    for (a, b) in equalities {
        uf.union(a, b, &prefer)?;
    }

    let mut rewrite = |atom: &Atom| Atom {
        predicate: atom.predicate,
        terms: atom.terms.iter().map(|&t| uf.find(t)).collect(),
    };
    let head = rewrite(&p.head);
    let body = raw_body.iter().map(&mut rewrite).collect();
    Ok(ConjunctiveQuery::new(head, body))
}

/// Expands a single view literal (a view tuple) into its base-relation
/// atoms — the `t_v^exp` of Definition 4.1. Existential variables of the
/// view are replaced by fresh variables.
pub fn expand_atom(atom: &Atom, views: &ViewSet) -> Result<Vec<Atom>, ExpandError> {
    let view = resolve_view(views, atom)?;
    let def = view.definition.freshen_existentials();
    let mut subst = Substitution::new();
    for (h, a) in def.head.terms.iter().zip(&atom.terms) {
        match *h {
            Term::Var(v) => match subst.get(v) {
                None => {
                    subst.bind(v, *a);
                }
                Some(prev) if prev == *a => {}
                Some(_) => return Err(ExpandError::Unsatisfiable),
            },
            Term::Const(c) => match *a {
                Term::Const(c2) if c2 == c => {}
                _ => return Err(ExpandError::Unsatisfiable),
            },
        }
    }
    Ok(def.body.iter().map(|b| b.apply(&subst)).collect())
}

/// Renames every variable of `q` (head and body) to a fresh variable.
fn rename_all_apart(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut subst = Substitution::new();
    for v in q.variables() {
        subst.bind(v, Term::Var(Symbol::fresh(v.as_str())));
    }
    q.apply(&subst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::are_equivalent;
    use viewplan_cq::{parse_query, parse_views};

    fn carlocpart_views() -> ViewSet {
        parse_views(
            "v1(M, D, C) :- car(M, D), loc(D, C).\n\
             v2(S, M, C) :- part(S, M, C).\n\
             v3(S) :- car(M, a), loc(a, C), part(S, M, C).\n\
             v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).\n\
             v5(M, D, C) :- car(M, D), loc(D, C).",
        )
        .unwrap()
    }

    #[test]
    fn expands_p2_to_p2exp() {
        let views = carlocpart_views();
        let p2 = parse_query("q1(S, C) :- v1(M, a, C), v2(S, M, C)").unwrap();
        let p2exp = expand(&p2, &views).unwrap();
        let expected = parse_query("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)").unwrap();
        assert!(are_equivalent(&p2exp, &expected));
    }

    #[test]
    fn expands_p1_to_p1exp() {
        let views = carlocpart_views();
        let p1 = parse_query("q1(S, C) :- v1(M, a, C1), v1(M1, a, C), v2(S, M, C)").unwrap();
        let p1exp = expand(&p1, &views).unwrap();
        assert_eq!(p1exp.body.len(), 5);
        let q = parse_query("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)").unwrap();
        assert!(are_equivalent(&p1exp, &q));
    }

    #[test]
    fn existentials_are_fresh_per_occurrence() {
        let views = parse_views("v(X) :- e(X, Y)").unwrap();
        let p = parse_query("q(A, B) :- v(A), v(B)").unwrap();
        let exp = expand(&p, &views).unwrap();
        assert_eq!(exp.body.len(), 2);
        // The two existential Ys must be distinct fresh variables.
        assert_ne!(exp.body[0].terms[1], exp.body[1].terms[1]);
    }

    #[test]
    fn repeated_head_variable_in_view_equates_arguments() {
        // v(A, A) :- e(A): the subgoal v(X, Y) forces X = Y.
        let views = parse_views("v(A, A) :- e(A)").unwrap();
        let p = parse_query("q(X, Y) :- v(X, Y)").unwrap();
        let exp = expand(&p, &views).unwrap();
        assert_eq!(exp.body.len(), 1);
        assert_eq!(exp.head.terms[0], exp.head.terms[1]);
    }

    #[test]
    fn conflicting_constants_are_unsatisfiable() {
        let views = parse_views("v(A, A) :- e(A)").unwrap();
        let p = parse_query("q(X) :- v(a, b), v(X, X)").unwrap();
        assert_eq!(expand(&p, &views), Err(ExpandError::Unsatisfiable));
    }

    #[test]
    fn unknown_view_and_arity_mismatch() {
        let views = parse_views("v(A) :- e(A)").unwrap();
        let p1 = parse_query("q(X) :- w(X)").unwrap();
        assert!(matches!(
            expand(&p1, &views),
            Err(ExpandError::UnknownView(_))
        ));
        let p2 = parse_query("q(X) :- v(X, X)").unwrap();
        assert!(matches!(
            expand(&p2, &views),
            Err(ExpandError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn expand_atom_gives_tuple_expansion() {
        let views = carlocpart_views();
        let atom = viewplan_cq::parse_atom("v1(M, a, C)").unwrap();
        let exp = expand_atom(&atom, &views).unwrap();
        assert_eq!(exp.len(), 2);
        assert_eq!(exp[0].predicate.as_str(), "car");
        assert_eq!(exp[0].terms[0], Term::var("M"));
        // D is existential in v1? No — D is distinguished (in head), it is
        // bound to the constant a by the tuple.
        assert_eq!(exp[0].terms[1], Term::cst("a"));
    }

    #[test]
    fn expand_atom_freshens_existentials() {
        let views = parse_views("v(A) :- e(A, B), f(B)").unwrap();
        let atom = viewplan_cq::parse_atom("v(X)").unwrap();
        let e1 = expand_atom(&atom, &views).unwrap();
        let e2 = expand_atom(&atom, &views).unwrap();
        // B is fresh each time.
        assert_ne!(e1[0].terms[1], e2[0].terms[1]);
        // but consistent within one expansion.
        assert_eq!(e1[0].terms[1], e1[1].terms[0]);
    }

    #[test]
    fn view_head_constant_checks_argument() {
        let views = parse_views("v(a, X) :- e(X)").unwrap();
        let ok = parse_query("q(X) :- v(a, X)").unwrap();
        assert!(expand(&ok, &views).is_ok());
        let bad = parse_query("q(X) :- v(b, X)").unwrap();
        assert_eq!(expand(&bad, &views), Err(ExpandError::Unsatisfiable));
        // A variable in the constant position gets pinned to the constant.
        let pin = parse_query("q(Y, X) :- v(Y, X)").unwrap();
        let exp = expand(&pin, &views).unwrap();
        assert_eq!(exp.head.terms[0], Term::cst("a"));
    }

    #[test]
    fn expansion_keeps_rewriting_vocabulary_where_possible() {
        let views = carlocpart_views();
        let p = parse_query("q1(S, C) :- v4(M, a, C, S)").unwrap();
        let exp = expand(&p, &views).unwrap();
        // Head stays q1(S, C) verbatim.
        assert_eq!(exp.head, p.head);
        assert!(exp.body.iter().any(|a| a.contains_var(Symbol::new("M"))));
    }
}
