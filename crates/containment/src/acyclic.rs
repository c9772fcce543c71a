//! Polynomial containment for acyclic patterns: semijoins over the GYO
//! join forest instead of the exponential homomorphism DFS.
//!
//! By Chandra–Merlin, deciding a containment mapping from `from` onto
//! `onto` is Boolean conjunctive-query evaluation: treat `onto`'s body
//! as a frozen database and ask whether `from`'s body (with the head
//! mapping pinned) has a match. When the *pattern's* hypergraph — over
//! the variables still free after pinning the head — is acyclic,
//! Yannakakis' argument applies: build, per pattern atom, the relation
//! of its candidate matches projected onto its free variables, then
//! semijoin-reduce bottom-up along the join forest. A homomorphism
//! exists iff every root of the forest keeps at least one row. Each
//! candidate relation has at most `|onto.body|` rows, so the whole
//! decision is polynomial — no search tree, no budget ticks, and
//! therefore always *complete*: the verdict is immune to node budgets
//! by construction.
//!
//! Cyclic patterns return `None` and the caller falls back to the DFS;
//! the `containment.acyclic_fast_path` / `containment.acyclic_fallback`
//! counters record which way each check went.

use std::collections::HashSet;
use viewplan_cq::gyo_forest;
use viewplan_cq::{Atom, Substitution, Symbol, Term};
use viewplan_obs as obs;

// Single registration site per counter name (the xtask lint): both
// outcomes of the routing decision funnel through here.
fn note_routing(fast_path: bool) {
    if fast_path {
        obs::counter!("containment.acyclic_fast_path").incr();
    } else {
        obs::counter!("containment.acyclic_fallback").incr();
    }
}

/// One argument position of a pattern atom after pinning the head
/// mapping: either still free, or forced to a fixed target term.
///
/// Pinning by *value* (instead of interning fresh frozen symbols) keeps
/// the two variable spaces apart without touching the global interner:
/// a pattern variable named like a target variable stays distinct from
/// it unless the head mapping identifies them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PatTerm {
    /// An unbound pattern variable, matched by consistent binding.
    Free(Symbol),
    /// A constant, or a variable the head mapping already sent to a
    /// fixed target term; matches exactly that term.
    Pinned(Term),
}

/// Decides whether a homomorphism from `pattern` into `target`
/// extending `initial` exists, via bottom-up semijoins — `None` when
/// the pinned pattern's hypergraph is cyclic (caller must fall back to
/// the DFS), `Some(verdict)` otherwise. The verdict is always complete:
/// no budget is consumed and truncation is impossible.
pub(crate) fn semijoin_mapping_exists(
    pattern: &[Atom],
    target: &[Atom],
    initial: &Substitution,
) -> Option<bool> {
    // Per-atom free-variable schemas and hyperedges, head pins applied.
    let pinned: Vec<Vec<PatTerm>> = pattern
        .iter()
        .map(|a| {
            a.terms
                .iter()
                .map(|&t| match t {
                    Term::Const(_) => PatTerm::Pinned(t),
                    Term::Var(v) => match initial.get(v) {
                        Some(bound) => PatTerm::Pinned(bound),
                        None => PatTerm::Free(v),
                    },
                })
                .collect()
        })
        .collect();
    let schemas: Vec<Vec<Symbol>> = pinned.iter().map(|terms| schema_of(terms)).collect();
    let edges = schemas
        .iter()
        .map(|s| s.iter().copied().collect())
        .collect::<Vec<_>>();
    let Some(forest) = gyo_forest(&edges) else {
        note_routing(false);
        return None;
    };
    note_routing(true);

    // Candidate relations: for pattern atom i, the matches among the
    // target atoms, projected onto (and deduplicated over) its schema.
    let mut relations: Vec<Vec<Vec<Term>>> = Vec::with_capacity(pattern.len());
    for (i, terms) in pinned.iter().enumerate() {
        let mut rows: Vec<Vec<Term>> = Vec::new();
        let mut seen: HashSet<Vec<Term>> = HashSet::new();
        for cand in target {
            if cand.predicate != pattern[i].predicate || cand.arity() != pattern[i].arity() {
                continue;
            }
            if let Some(row) = match_atom(terms, &schemas[i], cand) {
                if seen.insert(row.clone()) {
                    rows.push(row);
                }
            }
        }
        if rows.is_empty() {
            // An unmatched atom can never be satisfied — the join is
            // empty regardless of the rest.
            return Some(false);
        }
        relations.push(rows);
    }

    // Bottom-up semijoin pass along the ear-removal order: each ear
    // filters its witness down to the rows that still have a partner.
    // (The Boolean verdict needs no top-down pass.)
    for &ear in &forest.order {
        let Some(parent) = forest.parent[ear] else {
            continue;
        };
        let shared: Vec<Symbol> = schemas[parent]
            .iter()
            .copied()
            .filter(|v| schemas[ear].contains(v))
            .collect();
        if shared.is_empty() {
            // GYO only assigns a witness when variables are shared, but
            // be defensive: a disjoint ear gates only nonemptiness, and
            // every relation is nonempty here (empty ones return early).
            continue;
        }
        let ear_positions: Vec<usize> = shared
            .iter()
            .map(|v| position_of(&schemas[ear], *v))
            .collect();
        let keys: HashSet<Vec<Term>> = relations[ear]
            .iter()
            .map(|row| ear_positions.iter().map(|&p| row[p]).collect())
            .collect();
        let parent_positions: Vec<usize> = shared
            .iter()
            .map(|v| position_of(&schemas[parent], *v))
            .collect();
        relations[parent].retain(|row| {
            let key: Vec<Term> = parent_positions.iter().map(|&p| row[p]).collect();
            keys.contains(&key)
        });
        if relations[parent].is_empty() {
            return Some(false);
        }
    }
    // Fully reduced: every root (hence every component) kept a row, so
    // a consistent global assignment exists.
    let verdict = forest.roots().all(|r| !relations[r].is_empty());
    Some(verdict)
}

/// The free variables of a pinned atom, in first-occurrence order.
fn schema_of(terms: &[PatTerm]) -> Vec<Symbol> {
    let mut out = Vec::new();
    for t in terms {
        if let PatTerm::Free(v) = t {
            if !out.contains(v) {
                out.push(*v);
            }
        }
    }
    out
}

/// Index of `v` in `schema` (always present by construction).
fn position_of(schema: &[Symbol], v: Symbol) -> usize {
    schema.iter().position(|&x| x == v).unwrap_or(0)
}

/// Matches one pinned pattern atom against one target atom, returning
/// the induced row over `schema` — the same unification semantics as
/// the DFS: pinned terms must be exactly equal, free variables bind
/// consistently within the atom.
fn match_atom(terms: &[PatTerm], schema: &[Symbol], cand: &Atom) -> Option<Vec<Term>> {
    let mut row: Vec<Option<Term>> = vec![None; schema.len()];
    for (p, c) in terms.iter().zip(&cand.terms) {
        match *p {
            PatTerm::Pinned(t) => {
                if t != *c {
                    return None;
                }
            }
            PatTerm::Free(v) => {
                let slot = position_of(schema, v);
                match row[slot] {
                    Some(existing) if existing != *c => return None,
                    Some(_) => {}
                    None => row[slot] = Some(*c),
                }
            }
        }
    }
    Some(row.into_iter().map(|t| t.unwrap_or(Term::int(0))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::head_bindings;
    use crate::homomorphism::HomomorphismSearch;
    use viewplan_cq::parse_query;

    /// Runs both deciders on `from ⊒ onto` and checks they agree; returns
    /// the fast path's answer (`None` = cyclic, fast path unavailable).
    fn differential(from_src: &str, onto_src: &str) -> Option<bool> {
        let from = parse_query(from_src).unwrap();
        let onto = parse_query(onto_src).unwrap();
        let Some(initial) = head_bindings(&from, &onto) else {
            return Some(false);
        };
        let fast = semijoin_mapping_exists(&from.body, &onto.body, &initial);
        if let Some(verdict) = fast {
            let slow =
                HomomorphismSearch::with_initial(&from.body, &onto.body, initial.clone()).exists();
            assert_eq!(
                verdict, slow,
                "semijoin disagrees with DFS: {from_src} / {onto_src}"
            );
        }
        fast
    }

    #[test]
    fn chain_containment_agrees_with_dfs() {
        assert_eq!(
            differential("q(X) :- e(X, Y)", "q(A) :- e(A, B), e(B, C)"),
            Some(true)
        );
        // No hom maps the 2-chain into the 1-chain with X pinned to A.
        assert_eq!(
            differential("q(X) :- e(X, Y), e(Y, Z)", "q(A) :- e(A, B)"),
            Some(false)
        );
        assert_eq!(
            differential("q(X) :- e(X, Y), f(Y, Z)", "q(A) :- e(A, B), f(C, D)"),
            Some(false)
        );
    }

    #[test]
    fn constants_and_repeats_agree_with_dfs() {
        assert_eq!(
            differential("q(X) :- e(X, a)", "q(Z) :- e(Z, b)"),
            Some(false)
        );
        assert_eq!(
            differential("q(X) :- e(X, X)", "q(A) :- e(A, B)"),
            Some(false)
        );
        assert_eq!(
            differential("q(X) :- e(X, X)", "q(A) :- e(A, A)"),
            Some(true)
        );
    }

    #[test]
    fn head_pins_are_respected() {
        // Head maps X→A; the body e(X, X) must then match e(A, A) only.
        assert_eq!(
            differential("q(X, X) :- e(X, X)", "q(A, A) :- e(A, A)"),
            Some(true)
        );
        assert_eq!(
            differential("q(X, X) :- e(X, X)", "q(A, A) :- e(A, B)"),
            Some(false)
        );
    }

    #[test]
    fn same_named_variables_stay_distinct_across_sides() {
        // The pattern's unbound Y shares its name with the target's Y;
        // value-pinning must not conflate them.
        assert_eq!(
            differential("q(X) :- e(X, Y)", "q(Y) :- e(Y, Z)"),
            Some(true)
        );
    }

    #[test]
    fn cyclic_pattern_reports_fallback() {
        assert_eq!(
            differential("q() :- e(A, B), e(B, C), e(C, A)", "q() :- e(X, X)"),
            None
        );
    }

    #[test]
    fn head_pins_can_make_a_cyclic_body_acyclic() {
        // The triangle collapses once the head pins two of its corners.
        let fast = differential(
            "q(A, B, C) :- e(A, B), e(B, C), e(C, A)",
            "q(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X)",
        );
        assert_eq!(fast, Some(true));
    }

    #[test]
    fn star_pattern_onto_star_target() {
        assert_eq!(
            differential(
                "q(X) :- r(X, A), r(X, B), r(X, C)",
                "q(U) :- r(U, V), r(U, W)"
            ),
            Some(true)
        );
        assert_eq!(
            differential("q(X) :- r(X, A), s(X, B)", "q(U) :- r(U, V), r(U, W)"),
            Some(false)
        );
    }

    #[test]
    fn ground_pattern_atom_decides_by_presence() {
        assert_eq!(
            differential("q() :- e(a, b)", "q() :- e(a, b), f(c, d)"),
            Some(true)
        );
        assert_eq!(
            differential("q() :- e(a, c)", "q() :- e(a, b), f(c, d)"),
            Some(false)
        );
    }

    #[test]
    fn empty_pattern_is_trivially_contained() {
        let from = parse_query("q() :- e(X, Y)").unwrap();
        let initial = Substitution::new();
        assert_eq!(
            semijoin_mapping_exists(&[], &from.body, &initial),
            Some(true)
        );
    }

    #[test]
    fn disconnected_pattern_components_all_must_match() {
        assert_eq!(
            differential("q() :- e(X, Y), f(Z, W)", "q() :- e(a, b), f(c, d)"),
            Some(true)
        );
        assert_eq!(
            differential("q() :- e(X, Y), g(Z, W)", "q() :- e(a, b), f(c, d)"),
            Some(false)
        );
    }
}
