//! Query containment and equivalence (Definition 2.1).

use crate::homomorphism::HomomorphismSearch;
use viewplan_cq::{ConjunctiveQuery, Substitution, Term};
use viewplan_obs as obs;

// Single registration site for `containment.checks` (the xtask lint):
// both the homomorphism DFS and the acyclic semijoin route count here.
fn note_check() {
    obs::counter!("containment.checks").incr();
}

/// Builds the initial bindings that pin the head of `from` onto the head of
/// `onto` (a containment mapping must map head to head). Returns `None` if
/// the heads are incompatible (different predicate, arity, or conflicting
/// constants / repeated variables). Exposed for extensions that enumerate
/// homomorphisms under additional side conditions (e.g. containment with
/// comparison predicates).
pub fn head_bindings(from: &ConjunctiveQuery, onto: &ConjunctiveQuery) -> Option<Substitution> {
    if from.head.predicate != onto.head.predicate || from.head.arity() != onto.head.arity() {
        return None;
    }
    let mut subst = Substitution::new();
    for (f, o) in from.head.terms.iter().zip(&onto.head.terms) {
        match *f {
            Term::Const(fc) => match *o {
                Term::Const(oc) if fc == oc => {}
                _ => return None,
            },
            Term::Var(v) => match subst.get(v) {
                Some(existing) if existing != *o => return None,
                Some(_) => {}
                None => {
                    subst.bind(v, *o);
                }
            },
        }
    }
    Some(subst)
}

/// Finds a containment mapping from `from` onto `onto`: a homomorphism
/// mapping `from`'s head to `onto`'s head and every body subgoal of `from`
/// to a body subgoal of `onto`. Its existence proves `onto ⊑ from`
/// (Chandra & Merlin). Always the homomorphism DFS, whatever the shape
/// of the pattern: the reference [`is_contained_in`]'s routes answer to.
pub fn containment_mapping(
    from: &ConjunctiveQuery,
    onto: &ConjunctiveQuery,
) -> Option<Substitution> {
    containment_mapping_complete(from, onto).0
}

/// Like [`containment_mapping`], also reporting whether the search ran
/// to completion under the ambient budget. A truncated search can only
/// *miss* a mapping — `(None, false)` is a conservative "not proven",
/// never a fabricated proof.
pub fn containment_mapping_complete(
    from: &ConjunctiveQuery,
    onto: &ConjunctiveQuery,
) -> (Option<Substitution>, bool) {
    note_check();
    let Some(initial) = head_bindings(from, onto) else {
        return (None, true);
    };
    HomomorphismSearch::with_initial(&from.body, &onto.body, initial).find_complete()
}

/// True iff `q1 ⊑ q2`: for every database, `q1`'s answer is a subset of
/// `q2`'s. Decided from the two queries alone, by a containment mapping
/// from `q2` to `q1`: a pattern (`q2`'s body) that is acyclic after head
/// pinning goes to the polynomial semijoins of [`crate::acyclic`], a
/// cyclic one to the homomorphism DFS. Under a budget the DFS may stop
/// early, and its verdict is then conservative (`false` = "not
/// proven"); the semijoins consume no budget and are never truncated.
pub fn is_contained_in(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    note_check();
    let Some(initial) = head_bindings(q2, q1) else {
        return false;
    };
    crate::acyclic::semijoin_mapping_exists(&q2.body, &q1.body, &initial)
        .unwrap_or_else(|| HomomorphismSearch::with_initial(&q2.body, &q1.body, initial).exists())
}

/// True iff the queries are equivalent (contained in each other).
pub fn are_equivalent(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    is_contained_in(q1, q2) && is_contained_in(q2, q1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_cq::parse_query;
    use viewplan_obs::budget::{self, BudgetSpec};

    /// A budgeted check answers from its own search, whatever was
    /// checked before it: the same cap truncates the same DFS the same
    /// way before and after an unbudgeted run of the same pair.
    #[test]
    fn budgeted_verdicts_do_not_depend_on_process_history() {
        // A 6-cycle folds onto a 3-cycle with pendant edges: contained,
        // 12 subgoals in all, and cyclic, so only the DFS decides it.
        let q1 = parse_query(
            "q() :- hist(Y0, Y1), hist(Y1, Y2), hist(Y2, Y0), \
             hist(Y0, Z0), hist(Y1, Z1), hist(Y2, Z2)",
        )
        .unwrap();
        let q2 = parse_query(
            "q() :- hist(X0, X1), hist(X1, X2), hist(X2, X3), \
             hist(X3, X4), hist(X4, X5), hist(X5, X0)",
        )
        .unwrap();
        assert_eq!(q1.body.len() + q2.body.len(), 12);
        let capped = || {
            let _b = budget::install(BudgetSpec::new().phase_nodes(obs::Phase::Hom, 1));
            (is_contained_in(&q1, &q2), budget::snapshot().node_hits)
        };
        let first = capped();
        let unbudgeted = is_contained_in(&q1, &q2);
        let again = capped();
        assert!(unbudgeted);
        assert_eq!(unbudgeted, containment_mapping(&q2, &q1).is_some());
        assert_eq!(first, (false, 1), "a 1-node cap truncates the DFS");
        assert_eq!(again, first, "the unbudgeted check changed a later one");
    }

    #[test]
    fn longer_path_is_contained_in_shorter() {
        let q1 = parse_query("q(X) :- e(X, Y), e(Y, Z)").unwrap();
        let q2 = parse_query("q(X) :- e(X, Y)").unwrap();
        assert!(is_contained_in(&q1, &q2));
        assert!(!is_contained_in(&q2, &q1));
        assert!(!are_equivalent(&q1, &q2));
    }

    #[test]
    fn chain_with_loop_equivalences() {
        // q(X) :- e(X,Y), e(Y,Y) is equivalent to itself with an extra
        // redundant step into the loop.
        let q1 = parse_query("q(X) :- e(X, Y), e(Y, Y)").unwrap();
        let q2 = parse_query("q(X) :- e(X, Y), e(Y, Z), e(Z, Z)").unwrap();
        assert!(is_contained_in(&q1, &q2));
        assert!(!is_contained_in(&q2, &q1));
    }

    #[test]
    fn head_constants_must_match() {
        let q1 = parse_query("q(a) :- e(X, X)").unwrap();
        let q2 = parse_query("q(b) :- e(X, X)").unwrap();
        assert!(!is_contained_in(&q1, &q2));
        assert!(are_equivalent(&q1, &q1));
    }

    #[test]
    fn head_var_to_constant_is_a_valid_direction() {
        // q(a) :- e(a) is contained in q(X) :- e(X).
        let specific = parse_query("q(a) :- e(a)").unwrap();
        let general = parse_query("q(X) :- e(X)").unwrap();
        assert!(is_contained_in(&specific, &general));
        assert!(!is_contained_in(&general, &specific));
    }

    #[test]
    fn repeated_head_variable_pins_both_positions() {
        let diag = parse_query("q(X, X) :- e(X, X)").unwrap();
        let free = parse_query("q(X, Y) :- e(X, Y)").unwrap();
        assert!(is_contained_in(&diag, &free));
        assert!(!is_contained_in(&free, &diag));
    }

    #[test]
    fn different_head_predicates_are_incomparable() {
        let q1 = parse_query("p(X) :- e(X, X)").unwrap();
        let q2 = parse_query("q(X) :- e(X, X)").unwrap();
        assert!(!is_contained_in(&q1, &q2));
        assert!(!is_contained_in(&q2, &q1));
    }

    #[test]
    fn paper_expansion_equivalence_example() {
        // P1exp and P2exp from Example 1.1 / §2.1 are equivalent.
        let p1exp =
            parse_query("q1(S, C) :- car(M, a), loc(a, C1), car(M1, a), loc(a, C), part(S, M, C)")
                .unwrap();
        let p2exp = parse_query("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)").unwrap();
        assert!(are_equivalent(&p1exp, &p2exp));
    }

    #[test]
    fn containment_mapping_is_returned_and_maps_head() {
        let q1 = parse_query("q(X) :- e(X, Y), e(Y, Z)").unwrap();
        let q2 = parse_query("q(A) :- e(A, B)").unwrap();
        let m = containment_mapping(&q2, &q1).unwrap();
        assert_eq!(
            m.apply(viewplan_cq::Term::var("A")),
            viewplan_cq::Term::var("X")
        );
    }
}
