//! Query containment and equivalence (Definition 2.1).

use crate::homomorphism::HomomorphismSearch;
use viewplan_cq::{ConjunctiveQuery, Substitution, Term};
use viewplan_obs as obs;
use viewplan_obs::ctx::{self, CtxGuard};

/// Containment's bit of the request context's policy word (bit 2, as
/// allocated in `viewplan_obs::ctx`): set = the acyclic fast path is off.
const POLICY_ACYCLIC_OFF: u32 = 0b100;

/// Whether [`is_contained_in`] routes acyclic patterns through the
/// semijoin fast path on this thread: the innermost [`install_acyclic`],
/// else on.
pub fn acyclic_enabled() -> bool {
    ctx::policy() & POLICY_ACYCLIC_OFF == 0
}

/// Forces the fast path on or off for the current thread until the
/// returned guard drops — the reference switch the differential tests
/// use to run the homomorphism DFS beside the semijoin route. Part of
/// the request context, so a worker pool carries it to every worker.
pub fn install_acyclic(on: bool) -> CtxGuard {
    ctx::set_policy(POLICY_ACYCLIC_OFF, if on { 0 } else { POLICY_ACYCLIC_OFF })
}

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
/// (Chandra & Merlin).
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

/// The boolean verdict for `onto ⊑ from`, with completeness. Routes
/// acyclic patterns (after head pinning) through the polynomial
/// semijoin decision of [`crate::acyclic`] unless [`install_acyclic`]
/// turned it off; the fast path never consumes budget, so its verdicts
/// are always complete. Cyclic patterns (and a disabled fast path) take
/// the homomorphism DFS.
fn contains_complete(from: &ConjunctiveQuery, onto: &ConjunctiveQuery) -> (bool, bool) {
    note_check();
    let Some(initial) = head_bindings(from, onto) else {
        return (false, true);
    };
    if acyclic_enabled() {
        if let Some(verdict) =
            crate::acyclic::semijoin_mapping_exists(&from.body, &onto.body, &initial)
        {
            return (verdict, true);
        }
    }
    let (mapping, complete) =
        HomomorphismSearch::with_initial(&from.body, &onto.body, initial).find_complete();
    (mapping.is_some(), complete)
}

/// True iff `q1 ⊑ q2`: for every database, `q1`'s answer is a subset of
/// `q2`'s. Decided by searching for a containment mapping from `q2` to
/// `q1`; the boolean verdict is memoized in the process-global
/// [containment cache](crate::cache) (containment is invariant under
/// variable renaming, so the cache keys on canonicalized pairs).
/// Verdicts from budget-truncated searches are conservative (`false` =
/// "not proven") and are **not** written to the cache, so a budgeted
/// run can never poison an unbudgeted one. Acyclic patterns skip the
/// search entirely: the semijoin fast path decides them in polynomial
/// time with a verdict that is complete by construction.
pub fn is_contained_in(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    crate::cache::cached_verdict_complete(q1, q2, || contains_complete(q2, q1))
}

/// True iff the queries are equivalent (contained in each other).
pub fn are_equivalent(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    is_contained_in(q1, q2) && is_contained_in(q2, q1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_cq::parse_query;

    #[test]
    fn acyclic_override_nests_and_restores() {
        assert!(acyclic_enabled(), "the fast path is on by default");
        {
            let _g = install_acyclic(false);
            assert!(!acyclic_enabled());
            {
                let _g2 = install_acyclic(true);
                assert!(acyclic_enabled());
            }
            assert!(!acyclic_enabled());
        }
        assert!(acyclic_enabled());
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
