//! Backtracking homomorphism search between sets of atoms.
//!
//! The search maps every *pattern* atom to some *target* atom with the same
//! predicate and arity, such that the induced term mapping is a function
//! fixing constants. This is the inner loop of every containment,
//! equivalence, minimization, local-minimality, and M3-renaming test in the
//! system, so it is written allocation-consciously: the target atoms are
//! indexed by predicate once, the pattern is ordered most-constrained-first,
//! and bindings are kept in a single mutable [`Substitution`] that is
//! unwound on backtrack.

use viewplan_cq::{Atom, Substitution, Symbol, Term};
use viewplan_obs as obs;

use std::collections::HashMap;

/// A reusable homomorphism search from a pattern (list of atoms) into a
/// target (list of atoms), optionally seeded with initial bindings.
pub struct HomomorphismSearch<'a> {
    /// Pattern atoms, reordered most-constrained-first.
    pattern: Vec<&'a Atom>,
    /// For each pattern atom (post-reorder), the candidate target atoms.
    candidates: Vec<Vec<&'a Atom>>,
    /// Initial bindings that every found homomorphism must extend.
    initial: Substitution,
}

impl<'a> HomomorphismSearch<'a> {
    /// Prepares a search from `pattern` into `target`.
    #[cfg(test)]
    pub(crate) fn new(pattern: &'a [Atom], target: &'a [Atom]) -> HomomorphismSearch<'a> {
        HomomorphismSearch::with_initial(pattern, target, Substitution::new())
    }

    /// Prepares a search whose solutions must extend `initial` (used to pin
    /// the head mapping for containment, and the identity requirements of
    /// tuple-core search).
    pub fn with_initial(
        pattern: &'a [Atom],
        target: &'a [Atom],
        initial: Substitution,
    ) -> HomomorphismSearch<'a> {
        let mut by_pred: HashMap<(Symbol, usize), Vec<&'a Atom>> = HashMap::new();
        for atom in target {
            by_pred
                .entry((atom.predicate, atom.arity()))
                .or_default()
                .push(atom);
        }
        let empty: Vec<&'a Atom> = Vec::new();
        let mut order: Vec<&'a Atom> = pattern.iter().collect();
        // Most-constrained-first: fewest candidate targets, then most
        // constants/repeats (approximated by arity) to fail fast.
        order.sort_by_key(|a| {
            by_pred
                .get(&(a.predicate, a.arity()))
                .map_or(0, |c| c.len())
        });
        let candidates = order
            .iter()
            .map(|a| {
                by_pred
                    .get(&(a.predicate, a.arity()))
                    .unwrap_or(&empty)
                    .clone()
            })
            .collect();
        HomomorphismSearch {
            pattern: order,
            candidates,
            initial,
        }
    }

    /// Finds one homomorphism, if any.
    #[cfg(test)]
    pub(crate) fn find(&self) -> Option<Substitution> {
        self.find_complete().0
    }

    /// Finds a homomorphism, also reporting whether the
    /// search ran to completion. Under an exhausted budget the search is
    /// truncated: `(None, false)` means "none found *so far*" — a
    /// conservative miss, never a fabricated match.
    pub(crate) fn find_complete(&self) -> (Option<Substitution>, bool) {
        let mut found = None;
        let complete = self.for_each_complete(|s| {
            found = Some(s.clone());
            true
        });
        // A found homomorphism is valid regardless of truncation.
        (found, complete)
    }

    /// True iff a homomorphism exists.
    pub(crate) fn exists(&self) -> bool {
        self.exists_complete().0
    }

    /// Like [`HomomorphismSearch::exists`], also reporting completeness.
    /// `(false, false)` means the truncated search found none so far.
    fn exists_complete(&self) -> (bool, bool) {
        let (found, complete) = self.find_complete();
        (found.is_some(), complete)
    }

    /// Enumerates homomorphisms, invoking `visit` for each; `visit`
    /// returning `true` stops the enumeration early.
    pub fn for_each(&self, visit: impl FnMut(&Substitution) -> bool) {
        self.for_each_complete(visit);
    }

    /// Enumerates homomorphisms under the ambient budget; returns `true`
    /// when the enumeration ran to completion (or the visitor stopped it),
    /// `false` when the budget truncated it.
    fn for_each_complete(&self, mut visit: impl FnMut(&Substitution) -> bool) -> bool {
        let mut meter = obs::Meter::start(obs::Phase::Hom);
        let mut subst = self.initial.clone();
        self.search(0, &mut subst, &mut meter, &mut visit);
        !meter.exhausted()
    }

    /// Collects all homomorphisms (use only on small instances — the count
    /// can be exponential).
    pub fn all(&self) -> Vec<Substitution> {
        let mut out = Vec::new();
        self.for_each(|s| {
            out.push(s.clone());
            false
        });
        out
    }

    /// Depth-first search over pattern positions. Returns `true` when the
    /// visitor requested a stop. A refused meter tick unwinds the whole
    /// search (every level returns `false`, reading as "no match"); the
    /// caller distinguishes truncation via `meter.exhausted()`.
    fn search(
        &self,
        depth: usize,
        subst: &mut Substitution,
        meter: &mut obs::Meter,
        visit: &mut dyn FnMut(&Substitution) -> bool,
    ) -> bool {
        if !meter.tick() {
            return false;
        }
        obs::counter!("containment.hom_nodes").incr();
        if depth == self.pattern.len() {
            return visit(subst);
        }
        let pat = self.pattern[depth];
        for &cand in &self.candidates[depth] {
            let mut bound: Vec<Symbol> = Vec::new();
            if unify_atom(pat, cand, subst, &mut bound)
                && self.search(depth + 1, subst, meter, visit)
            {
                return true;
            }
            for v in bound.drain(..) {
                subst.unbind(v);
            }
            if meter.exhausted() {
                break;
            }
        }
        false
    }
}

/// Attempts to extend `subst` so that `pat` maps onto `cand` argument by
/// argument; records newly bound variables in `bound` so the caller can
/// unwind. Returns `false` (with partial bindings recorded in `bound`) on
/// mismatch.
fn unify_atom(pat: &Atom, cand: &Atom, subst: &mut Substitution, bound: &mut Vec<Symbol>) -> bool {
    debug_assert_eq!(pat.predicate, cand.predicate);
    debug_assert_eq!(pat.arity(), cand.arity());
    for (p, c) in pat.terms.iter().zip(&cand.terms) {
        match *p {
            Term::Const(pc) => match *c {
                Term::Const(cc) if pc == cc => {}
                _ => return false,
            },
            Term::Var(v) => match subst.get(v) {
                Some(existing) => {
                    if existing != *c {
                        return false;
                    }
                }
                None => {
                    subst.bind(v, *c);
                    bound.push(v);
                }
            },
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_cq::parse_query;

    fn body(src: &str) -> Vec<Atom> {
        parse_query(src).unwrap().body
    }

    #[test]
    fn maps_simple_pattern() {
        let pat = body("q(X) :- e(X, Y)");
        let tgt = body("q(A) :- e(A, B), e(B, C)");
        let h = HomomorphismSearch::new(&pat, &tgt).find().unwrap();
        assert!(h.get(Symbol::new("X")).is_some());
    }

    #[test]
    fn respects_constants() {
        let pat = body("q(X) :- e(X, a)");
        let tgt1 = body("q() :- e(Z, a)");
        let tgt2 = body("q() :- e(Z, b)");
        assert!(HomomorphismSearch::new(&pat, &tgt1).find().is_some());
        assert!(HomomorphismSearch::new(&pat, &tgt2).find().is_none());
    }

    #[test]
    fn respects_shared_variables() {
        // e(X,Y),f(Y,Z) needs the middle terms to coincide in the target.
        let pat = body("q(X) :- e(X, Y), f(Y, Z)");
        let good = body("q() :- e(A, B), f(B, C)");
        let bad = body("q() :- e(A, B), f(C, D)");
        assert!(HomomorphismSearch::new(&pat, &good).find().is_some());
        assert!(HomomorphismSearch::new(&pat, &bad).find().is_none());
    }

    #[test]
    fn initial_bindings_are_respected() {
        let pat = body("q(X) :- e(X, Y)");
        let tgt = body("q() :- e(a, b), e(c, d)");
        let pinned = Substitution::from_pairs([(Symbol::new("X"), Term::cst("c"))]);
        let h = HomomorphismSearch::with_initial(&pat, &tgt, pinned)
            .find()
            .unwrap();
        assert_eq!(h.get(Symbol::new("Y")), Some(Term::cst("d")));
    }

    #[test]
    fn enumerates_all_homomorphisms() {
        let pat = body("q(X) :- e(X, Y)");
        let tgt = body("q() :- e(a, b), e(c, d)");
        let all = HomomorphismSearch::new(&pat, &tgt).all();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn early_stop_enumeration() {
        let pat = body("q(X) :- e(X, Y)");
        let tgt = body("q() :- e(a, b), e(c, d)");
        let mut count = 0;
        HomomorphismSearch::new(&pat, &tgt).for_each(|_| {
            count += 1;
            true
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn missing_predicate_fails_fast() {
        let pat = body("q(X) :- zz(X)");
        let tgt = body("q(X) :- e(X, X)");
        assert!(!HomomorphismSearch::new(&pat, &tgt).exists());
    }

    #[test]
    fn arity_mismatch_is_not_a_candidate() {
        let pat = body("q(X) :- e(X, X)");
        let tgt = body("q(X) :- e(X)");
        assert!(HomomorphismSearch::new(&pat, &tgt).find().is_none());
    }

    #[test]
    fn repeated_variables_in_pattern_force_equality() {
        let pat = body("q(X) :- e(X, X)");
        let good = body("q() :- e(a, a)");
        let bad = body("q() :- e(a, b)");
        assert!(HomomorphismSearch::new(&pat, &good).find().is_some());
        assert!(HomomorphismSearch::new(&pat, &bad).find().is_none());
    }

    #[test]
    fn empty_pattern_has_trivial_homomorphism() {
        let tgt = body("q(X) :- e(X, X)");
        assert!(HomomorphismSearch::new(&[], &tgt).find().is_some());
    }

    #[test]
    fn unbudgeted_search_reports_complete() {
        let pat = body("q(X) :- e(X, Y)");
        let tgt = body("q(A) :- e(A, B)");
        let (found, complete) = HomomorphismSearch::new(&pat, &tgt).find_complete();
        assert!(found.is_some());
        assert!(complete);
    }

    #[test]
    fn exhausted_budget_truncates_but_never_fabricates() {
        // A 1-node budget stops the search before any mapping is built.
        let pat = body("q(X) :- e(X, Y), e(Y, Z)");
        let tgt = body("q(A) :- e(A, B), e(B, C)");
        let budget = obs::BudgetSpec::new().phase_nodes(obs::Phase::Hom, 1);
        let _g = obs::install_budget(budget);
        let (found, complete) = HomomorphismSearch::new(&pat, &tgt).find_complete();
        assert!(found.is_none(), "truncated search must not invent matches");
        assert!(!complete, "truncation must be reported");
        assert_eq!(obs::budget_abandoned(obs::Phase::Hom), 1);
    }

    #[test]
    fn node_capped_search_is_deterministic() {
        let pat = body("q(X) :- e(X, Y), e(Y, Z), e(Z, W)");
        let tgt = body("q() :- e(a, b), e(b, c), e(c, d), e(d, a)");
        let run = |cap: u64| {
            let _g = obs::install_budget(obs::BudgetSpec::new().phase_nodes(obs::Phase::Hom, cap));
            let mut seen = Vec::new();
            let complete = HomomorphismSearch::new(&pat, &tgt).for_each_complete(|s| {
                seen.push(s.apply(Term::var("X")));
                false
            });
            (seen, complete)
        };
        for cap in [1, 5, 20, 10_000] {
            assert_eq!(run(cap), run(cap), "cap {cap} not deterministic");
        }
    }
}
