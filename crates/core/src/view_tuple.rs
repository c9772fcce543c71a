//! View tuples `T(Q, V)` (§3.3).
//!
//! A view tuple is a view literal whose arguments are variables (and
//! constants) of the query. They are computed exactly as the paper
//! prescribes: freeze the minimized query into its canonical database
//! `D_Q`, evaluate every view definition over `D_Q`, and thaw the frozen
//! constants back into query variables. By Lemma 3.2 every rewriting can
//! be transformed into one that uses only view tuples, which makes
//! `T(Q, V)` the raw material of both search spaces (Theorems 3.1
//! and 5.1).

use crate::parallel::parallel_map;
use viewplan_cq::{Atom, ConjunctiveQuery, Symbol, View, ViewSet};
use viewplan_engine::{canonical_database, evaluate, unfreeze_value, Database};

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
/// deterministic: views in `views` order, tuples in evaluation order.
pub fn view_tuples(min_query: &ConjunctiveQuery, views: &ViewSet) -> Vec<ViewTuple> {
    view_tuples_with_threads(min_query, views, 1)
}

/// [`view_tuples`] with the per-view evaluations spread over up to
/// `threads` workers. The per-view results are merged back in `views`
/// order with the same duplicate filter, so the output is identical to
/// the serial one for any thread count.
pub fn view_tuples_with_threads(
    min_query: &ConjunctiveQuery,
    views: &ViewSet,
    threads: usize,
) -> Vec<ViewTuple> {
    let canonical = canonical_database(min_query);
    let per_view: Vec<Vec<ViewTuple>> = parallel_map(threads, views.as_slice(), |view| {
        tuples_of_view(view, &canonical)
    });
    let mut out: Vec<ViewTuple> = Vec::new();
    for tuples in per_view {
        for vt in tuples {
            if !out.contains(&vt) {
                out.push(vt);
            }
        }
    }
    out
}

/// All tuples a single view contributes, in evaluation order (duplicates
/// from *other* views are filtered by the caller's merge).
fn tuples_of_view(view: &View, canonical: &Database) -> Vec<ViewTuple> {
    let rel = evaluate(&view.definition, canonical);
    let mut out: Vec<ViewTuple> = Vec::new();
    for row in 0..rel.len() {
        // Straight from the answer's columns: no tuple is assembled.
        let terms = (0..rel.arity())
            .map(|c| unfreeze_value(rel.column(c).value(row)))
            .collect();
        let atom = Atom::new(view.name(), terms);
        let vt = ViewTuple {
            view: view.name(),
            atom,
        };
        if !out.contains(&vt) {
            out.push(vt);
        }
    }
    out
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
    fn threaded_view_tuples_match_serial() {
        let q = parse_query("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)").unwrap();
        let views = parse_views(
            "v1(M, D, C) :- car(M, D), loc(D, C).\n\
             v2(S, M, C) :- part(S, M, C).\n\
             v3(S) :- car(M, a), loc(a, C), part(S, M, C).\n\
             v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).\n\
             v5(M, D, C) :- car(M, D), loc(D, C).",
        )
        .unwrap();
        let serial = view_tuples(&q, &views);
        for threads in [2, 3, 8] {
            assert_eq!(
                view_tuples_with_threads(&q, &views, threads),
                serial,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn duplicate_tuples_are_removed() {
        // Symmetric view over a symmetric pattern can produce the same
        // tuple twice.
        let got = tuples_of("q(X) :- e(X, X)", "v(A) :- e(A, A), e(A, A)");
        assert_eq!(got, ["v(X)"]);
    }
}
