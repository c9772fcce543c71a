//! A MiniCon implementation (Pottinger & Levy \[20\]), adapted to the
//! closed-world / equivalent-rewriting setting, as the comparison baseline
//! of §4.3.
//!
//! MiniCon builds **MCDs** (MiniCon descriptions): for a view `V` and a
//! seed query subgoal, it unifies the subgoal with a view body atom using
//! the *least restrictive head homomorphism* on `V`'s head variables, then
//! closes the covered set under the rule that a query variable mapped to
//! an existential view variable drags every subgoal using it into the same
//! MCD (clause C2). Distinguished query variables must land on
//! distinguished view positions or constants (clause C1). Rewritings are
//! then formed by combining MCDs with **pairwise-disjoint** coverage.
//!
//! Two differences from `CoreCover` drive the paper's comparison:
//!
//! * an MCD is a *minimal* covered set (so all MCDs combine), while a
//!   tuple-core is *maximal* — Example 4.2 shows MiniCon emitting
//!   rewritings with redundant subgoals that `CoreCover` avoids;
//! * MiniCon explores head homomorphisms per view, while `CoreCover`
//!   derives candidate literals from the canonical database.
//!
//! Our adaptation: since MiniCon targets maximally-contained rewritings,
//! the combinations are *contained* rewritings; [`minicon_rewritings`]
//! post-filters them to the equivalent ones (and this filtering cost is
//! part of what the comparison benchmarks measure).

use crate::error::{CoreError, MAX_SUBGOALS};
use crate::rewriting::{dedup_variants, Rewriting};
use std::collections::{BTreeSet, HashMap};
use viewplan_containment::{are_equivalent, expand, minimize};
use viewplan_cq::{Atom, ConjunctiveQuery, Symbol, Term, View, ViewSet};
use viewplan_obs as obs;

/// A MiniCon description: a view usage covering a minimal set of query
/// subgoals.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct Mcd {
    /// The view this MCD uses.
    pub(crate) view: Symbol,
    /// Indices of the covered query subgoals (minimal, closed under C2).
    pub(crate) covered: BTreeSet<usize>,
    /// The rewriting literal this MCD contributes.
    pub(crate) literal: Atom,
}

/// Union-find over view terms, tracking the least restrictive head
/// homomorphism implied by unification.
#[derive(Clone, Default, Debug)]
struct ViewUf {
    parent: HashMap<Term, Term>,
}

impl ViewUf {
    fn find(&mut self, t: Term) -> Term {
        let p = match self.parent.get(&t) {
            None => return t,
            Some(&p) => p,
        };
        let root = self.find(p);
        self.parent.insert(t, root);
        root
    }

    /// Unions two view-term classes; constants win as representatives; two
    /// distinct constants conflict.
    fn union(&mut self, a: Term, b: Term) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return true;
        }
        match (ra, rb) {
            (Term::Const(_), Term::Const(_)) => false,
            (Term::Const(_), _) => {
                self.parent.insert(rb, ra);
                true
            }
            _ => {
                self.parent.insert(ra, rb);
                true
            }
        }
    }
}

/// The MiniCon algorithm: MCD formation plus combination.
pub struct MiniCon<'a> {
    query: ConjunctiveQuery,
    views: &'a ViewSet,
}

impl<'a> MiniCon<'a> {
    /// Prepares a run. The query is minimized first (our equivalence
    /// setting needs the minimal universe, mirroring `CoreCover` step 1).
    pub fn new(query: &ConjunctiveQuery, views: &'a ViewSet) -> MiniCon<'a> {
        MiniCon {
            query: minimize(query),
            views,
        }
    }

    /// Forms all MCDs (deduplicated).
    fn mcds(&self) -> Vec<Mcd> {
        let mut out: Vec<Mcd> = Vec::new();
        for view in self.views {
            for seed in 0..self.query.body.len() {
                self.form_mcds(view, seed, &mut out);
            }
        }
        out
    }

    /// All MCDs for `view` seeded at query subgoal `seed`.
    fn form_mcds(&self, view: &View, seed: usize, out: &mut Vec<Mcd>) {
        let state = McdState {
            uf: ViewUf::default(),
            phi: HashMap::new(),
            covered: BTreeSet::new(),
        };
        self.extend_mcd(view, vec![seed], state, out);
    }

    /// Recursive closure: unify each pending subgoal with some view atom,
    /// propagating clause C2 demands.
    fn extend_mcd(
        &self,
        view: &View,
        mut pending: Vec<usize>,
        state: McdState,
        out: &mut Vec<Mcd>,
    ) {
        // Skip already-covered pending goals.
        while let Some(&g) = pending.last() {
            if state.covered.contains(&g) {
                pending.pop();
            } else {
                break;
            }
        }
        let Some(&g) = pending.last() else {
            // Worklist drained: run clause C1 and emit.
            self.finish_mcd(view, state, out);
            return;
        };
        pending.pop();
        let subgoal = &self.query.body[g];
        for watom in &view.definition.body {
            if watom.predicate != subgoal.predicate || watom.arity() != subgoal.arity() {
                continue;
            }
            let mut st = state.clone();
            if !st.unify(subgoal, watom) {
                continue;
            }
            st.covered.insert(g);
            // Clause C2: query variables now mapped to existential view
            // classes drag all their subgoals in.
            // Distinguished-variable violations are not pruned here:
            // later unifications can merge an existential class with a
            // head variable's class, so the hard C1 check waits until
            // finish_mcd.
            let mut next = pending.clone();
            for x in st.existential_demands(view) {
                for (i, atom) in self.query.body.iter().enumerate() {
                    if atom.contains_var(x) && !st.covered.contains(&i) {
                        next.push(i);
                    }
                }
            }
            self.extend_mcd(view, next, st, out);
        }
    }

    /// Clause C1 check and literal construction.
    fn finish_mcd(&self, view: &View, mut state: McdState, out: &mut Vec<Mcd>) {
        if state.covered.is_empty() {
            return;
        }
        let head_vars: BTreeSet<Symbol> = view.definition.head.variables().collect();
        let distinguished = self.query.distinguished_set();
        let bindings: Vec<(Symbol, Term)> = state.phi.iter().map(|(&x, &t)| (x, t)).collect();
        // C1: distinguished query variables must map to a class containing
        // a head variable or a constant.
        for &(x, img) in &bindings {
            if distinguished.contains(&x) {
                let rep = state.uf.find(img);
                let class_ok = match rep {
                    Term::Const(_) => true,
                    Term::Var(_) => state.class_has_head_var(view, img, &head_vars),
                };
                if !class_ok {
                    // Clause C1 violation: a distinguished query variable
                    // landed in a purely existential view class.
                    obs::trace_event!(
                        "minicon.mcd_rejected",
                        ("view", view.name().as_str()),
                        ("variable", x.as_str()),
                        ("reason", "c1_distinguished_not_exposed")
                    );
                    return;
                }
            }
        }
        // C2 final check: existentially mapped variables have all their
        // subgoals covered (the closure should guarantee it; keep as a
        // safety net because class merges can change existential status).
        for &(x, img) in &bindings {
            let rep = state.uf.find(img);
            let existential = match rep {
                Term::Const(_) => false,
                Term::Var(_) => !state.class_has_head_var(view, img, &head_vars),
            };
            if existential {
                for (i, atom) in self.query.body.iter().enumerate() {
                    if atom.contains_var(x) && !state.covered.contains(&i) {
                        return;
                    }
                }
            }
        }
        let literal = state.literal(view, &self.query);
        let mcd = Mcd {
            view: view.name(),
            covered: state.covered.clone(),
            literal,
        };
        // Dedup by covered set + literal shape modulo fresh names: compare
        // literal with fresh variables erased positionally.
        if !out.iter().any(|m| {
            m.view == mcd.view && m.covered == mcd.covered && same_shape(&m.literal, &mcd.literal)
        }) {
            out.push(mcd);
        }
    }

    /// Combines MCDs with pairwise-disjoint coverage into rewritings of the
    /// query; `equivalent_only` post-filters to equivalent rewritings
    /// (our closed-world adaptation); `limit` caps the output. A query too
    /// wide for the 64-bit coverage masks is an error: without the guard,
    /// `1 << i` for a subgoal index ≥ 64 would wrap silently in release
    /// builds and corrupt the disjointness checks.
    pub fn try_rewritings(
        &self,
        equivalent_only: bool,
        limit: usize,
    ) -> Result<Vec<Rewriting>, CoreError> {
        self.try_rewritings_with_completeness(equivalent_only, limit)
            .map(|(rs, _)| rs)
    }

    /// [`MiniCon::try_rewritings`] plus an explicit
    /// [`Completeness`](obs::Completeness) marker for runs cut short by
    /// the ambient [budget](obs::BudgetSpec). Every rewriting returned is
    /// genuine regardless of the marker; an incomplete run may simply
    /// miss some.
    fn try_rewritings_with_completeness(
        &self,
        equivalent_only: bool,
        limit: usize,
    ) -> Result<(Vec<Rewriting>, obs::Completeness), CoreError> {
        let _span = obs::span("minicon.run");
        let budget_before = obs::budget_snapshot();
        let n = self.query.body.len();
        if n > MAX_SUBGOALS {
            return Err(CoreError::TooManySubgoals { subgoals: n });
        }
        let mcds = self.mcds();
        obs::counter!("minicon.mcds").add(mcds.len() as u64);
        let universe: u64 = if n == 0 { 0 } else { u64::MAX >> (64 - n) };
        let masks: Vec<u64> = mcds
            .iter()
            .map(|m| m.covered.iter().fold(0u64, |a, &i| a | (1 << i)))
            .collect();
        let mut results: Vec<Rewriting> = Vec::new();
        let mut chosen: Vec<usize> = Vec::new();
        let mut meter = obs::Meter::start(obs::Phase::Cover);
        self.combine(
            universe,
            &masks,
            0,
            &mut chosen,
            &mcds,
            equivalent_only,
            limit,
            &mut results,
            &mut meter,
        );
        let completeness = obs::completeness_since(budget_before);
        Ok((dedup_variants(results), completeness))
    }

    // Recursive combination search; state is threaded as parameters to
    // keep the per-frame cost at a few words.
    #[allow(clippy::too_many_arguments)]
    fn combine(
        &self,
        remaining: u64,
        masks: &[u64],
        start: usize,
        chosen: &mut Vec<usize>,
        mcds: &[Mcd],
        equivalent_only: bool,
        limit: usize,
        results: &mut Vec<Rewriting>,
        meter: &mut obs::Meter,
    ) {
        if !meter.tick() {
            return;
        }
        obs::counter!("minicon.combine_nodes").incr();
        if results.len() >= limit {
            return;
        }
        if remaining == 0 {
            let body: Vec<Atom> = chosen.iter().map(|&i| mcds[i].literal.clone()).collect();
            let candidate = ConjunctiveQuery::new(self.query.head.clone(), body);
            if !equivalent_only || self.is_equivalent(&candidate) {
                results.push(candidate);
            }
            return;
        }
        // Branch on the lowest uncovered subgoal; MCDs must cover it and be
        // disjoint from the already-chosen coverage.
        let lowest = remaining.trailing_zeros() as u64;
        let bit = 1u64 << lowest;
        for i in start..mcds.len() {
            if masks[i] & bit != 0 && masks[i] & !remaining == 0 {
                chosen.push(i);
                self.combine(
                    remaining & !masks[i],
                    masks,
                    0,
                    chosen,
                    mcds,
                    equivalent_only,
                    limit,
                    results,
                    meter,
                );
                chosen.pop();
                if meter.exhausted() {
                    return;
                }
            }
        }
    }

    fn is_equivalent(&self, candidate: &Rewriting) -> bool {
        match expand(candidate, self.views) {
            Ok(exp) => are_equivalent(&exp, &self.query),
            Err(_) => false,
        }
    }
}

/// State of one MCD under construction.
#[derive(Clone, Debug)]
struct McdState {
    uf: ViewUf,
    /// Query variable → view term (class member) it unified with.
    phi: HashMap<Symbol, Term>,
    covered: BTreeSet<usize>,
}

impl McdState {
    /// Unifies a query subgoal with a view body atom, updating the head
    /// homomorphism (view-side unions) and φ (query-side bindings).
    fn unify(&mut self, subgoal: &Atom, watom: &Atom) -> bool {
        for (qt, vt) in subgoal.terms.iter().zip(&watom.terms) {
            match *qt {
                Term::Const(_) => {
                    if !self.uf.union(*qt, *vt) {
                        return false;
                    }
                }
                Term::Var(x) => match self.phi.get(&x) {
                    Some(&prev) => {
                        if !self.uf.union(prev, *vt) {
                            return false;
                        }
                    }
                    None => {
                        self.phi.insert(x, *vt);
                    }
                },
            }
        }
        true
    }

    /// True iff the class of `t` contains some view head variable.
    fn class_has_head_var(&mut self, view: &View, t: Term, head_vars: &BTreeSet<Symbol>) -> bool {
        let rep = self.uf.find(t);
        // A class contains a head var iff some head var finds the same rep.
        head_vars.iter().any(|&h| {
            let hv = Term::Var(h);
            self.uf.find(hv) == rep
        }) || view
            .definition
            .head
            .terms
            .iter()
            .any(|&ht| matches!(ht, Term::Const(_)) && self.uf.find(ht) == rep)
    }

    /// Query variables currently mapped to classes with no head variable
    /// and no constant — the clause-C2 demands.
    fn existential_demands(&mut self, view: &View) -> Vec<Symbol> {
        let head_vars: BTreeSet<Symbol> = view.definition.head.variables().collect();
        let keys: Vec<(Symbol, Term)> = self.phi.iter().map(|(&x, &t)| (x, t)).collect();
        keys.into_iter()
            .filter(|&(_, t)| {
                let rep = self.uf.find(t);
                match rep {
                    Term::Const(_) => false,
                    Term::Var(_) => !self.class_has_head_var(view, t, &head_vars),
                }
            })
            .map(|(x, _)| x)
            .collect()
    }

    /// Builds the rewriting literal: the view head with each argument
    /// replaced by its class's query variable / constant, or a fresh
    /// variable when unmapped.
    fn literal(&mut self, view: &View, query: &ConjunctiveQuery) -> Atom {
        // Deterministic query-variable choice per class: first in query
        // variable order.
        let qvars = query.variables();
        let mut class_to_qvar: HashMap<Term, Symbol> = HashMap::new();
        for &x in &qvars {
            if let Some(&img) = self.phi.get(&x) {
                let rep = self.uf.find(img);
                class_to_qvar.entry(rep).or_insert(x);
            }
        }
        let mut fresh: HashMap<Term, Term> = HashMap::new();
        let terms: Vec<Term> = view
            .definition
            .head
            .terms
            .iter()
            .map(|&ht| {
                let rep = self.uf.find(ht);
                match rep {
                    Term::Const(_) => rep,
                    Term::Var(_) => {
                        if let Some(&x) = class_to_qvar.get(&rep) {
                            Term::Var(x)
                        } else {
                            *fresh
                                .entry(rep)
                                .or_insert_with(|| Term::Var(Symbol::fresh("F")))
                        }
                    }
                }
            })
            .collect();
        Atom::new(view.name(), terms)
    }
}

/// True iff the atoms are identical up to a consistent renaming of
/// variables (used to dedup MCD literals that differ only in fresh names).
fn same_shape(a: &Atom, b: &Atom) -> bool {
    if a.predicate != b.predicate || a.arity() != b.arity() {
        return false;
    }
    let mut fwd: HashMap<Symbol, Symbol> = HashMap::new();
    let mut bwd: HashMap<Symbol, Symbol> = HashMap::new();
    for (ta, tb) in a.terms.iter().zip(&b.terms) {
        match (*ta, *tb) {
            (Term::Const(x), Term::Const(y)) => {
                if x != y {
                    return false;
                }
            }
            (Term::Var(x), Term::Var(y)) => {
                if *fwd.entry(x).or_insert(y) != y || *bwd.entry(y).or_insert(x) != x {
                    return false;
                }
            }
            _ => return false,
        }
    }
    true
}

/// Convenience wrapper: runs MiniCon and returns the (optionally
/// equivalence-filtered) rewritings.
///
/// # Panics
/// Panics if the minimized query exceeds 64 subgoals; see
/// [`MiniCon::try_rewritings`].
pub fn minicon_rewritings(
    query: &ConjunctiveQuery,
    views: &ViewSet,
    equivalent_only: bool,
    limit: usize,
) -> Vec<Rewriting> {
    MiniCon::new(query, views)
        .try_rewritings(equivalent_only, limit)
        .unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_cq::{parse_query, parse_views};

    #[test]
    fn example42_minicon_produces_redundant_subgoals() {
        // Example 4.2 with k = 3: MiniCon forms 3 MCDs for the big view and
        // combines them into a rewriting with 3 (redundant) literals, while
        // CoreCover emits the single-literal GMR.
        let q = parse_query(
            "q(X, Y) :- a1(X, Z1), b1(Z1, Y), a2(X, Z2), b2(Z2, Y), a3(X, Z3), b3(Z3, Y)",
        )
        .unwrap();
        let views = parse_views(
            "v(X, Y) :- a1(X, Z1), b1(Z1, Y), a2(X, Z2), b2(Z2, Y), a3(X, Z3), b3(Z3, Y).\n\
             v1(X, Y) :- a1(X, Z1), b1(Z1, Y).\n\
             v2(X, Y) :- a2(X, Z2), b2(Z2, Y).",
        )
        .unwrap();
        let mc = MiniCon::new(&q, &views);
        let mcds = mc.mcds();
        // 3 MCDs for v (one per (ai, bi) pair), 1 for v1, 1 for v2.
        let v_mcds: Vec<&Mcd> = mcds.iter().filter(|m| m.view.as_str() == "v").collect();
        assert_eq!(v_mcds.len(), 3);
        for m in &v_mcds {
            assert_eq!(m.covered.len(), 2);
        }
        let rewritings = mc.try_rewritings(true, 1000).unwrap();
        // Every MiniCon rewriting here has 3 literals — never 1.
        assert!(!rewritings.is_empty());
        assert!(rewritings.iter().all(|r| r.body.len() == 3));
    }

    #[test]
    fn simple_chain_combination() {
        let q = parse_query("q(X, Y) :- e(X, Z), f(Z, Y)").unwrap();
        let views = parse_views(
            "ve(A, B) :- e(A, B).\n\
             vf(A, B) :- f(A, B).",
        )
        .unwrap();
        let rs = minicon_rewritings(&q, &views, true, 100);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].to_string(), "q(X, Y) :- ve(X, Z), vf(Z, Y)");
    }

    #[test]
    fn existential_closure_drags_subgoals_together() {
        // Z is existential in the view; an MCD touching e must cover f too.
        let q = parse_query("q(X, Y) :- e(X, Z), f(Z, Y)").unwrap();
        let views = parse_views("v(A, B) :- e(A, C), f(C, B)").unwrap();
        let mc = MiniCon::new(&q, &views);
        let mcds = mc.mcds();
        assert_eq!(mcds.len(), 1);
        assert_eq!(mcds[0].covered.len(), 2);
        let rs = mc.try_rewritings(true, 100).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].to_string(), "q(X, Y) :- v(X, Y)");
    }

    #[test]
    fn c1_rejects_distinguished_to_existential() {
        // The view hides X (projects it away): no MCD may survive.
        let q = parse_query("q(X) :- e(X, Y)").unwrap();
        let views = parse_views("v(B) :- e(A, B)").unwrap();
        let mc = MiniCon::new(&q, &views);
        assert!(mc.mcds().is_empty());
        assert!(mc.try_rewritings(true, 100).unwrap().is_empty());
    }

    #[test]
    fn head_homomorphism_found_when_needed() {
        // Query needs both view head vars equated: v(A, B) with A = B.
        let q = parse_query("q(X) :- e(X, X)").unwrap();
        let views = parse_views("v(A, B) :- e(A, B)").unwrap();
        let rs = minicon_rewritings(&q, &views, true, 100);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].to_string(), "q(X) :- v(X, X)");
    }

    #[test]
    fn contained_but_not_equivalent_is_filtered() {
        let q = parse_query("q(X) :- e(X, Y)").unwrap();
        let views = parse_views("v(A) :- e(A, A)").unwrap();
        // v gives a contained rewriting q(X) :- v(X) (only self-loops) but
        // not an equivalent one.
        let contained = minicon_rewritings(&q, &views, false, 100);
        assert_eq!(contained.len(), 1);
        let equivalent = minicon_rewritings(&q, &views, true, 100);
        assert!(equivalent.is_empty());
    }

    #[test]
    fn unmapped_head_vars_become_fresh_variables() {
        let q = parse_query("q(X) :- e(X, Y)").unwrap();
        let views = parse_views("v(A, D) :- e(A, B), d(D)").unwrap();
        // d(D) is extra view scope; D is unmapped → fresh variable, and the
        // rewriting is contained; equivalence depends on d — it is not
        // equivalent (the view requires d nonempty).
        let contained = minicon_rewritings(&q, &views, false, 100);
        assert_eq!(contained.len(), 1);
        assert_eq!(contained[0].body[0].predicate.as_str(), "v");
        assert!(contained[0].body[0].terms[1].is_var());
        assert_ne!(contained[0].body[0].terms[1], Term::var("Y"));
    }

    #[test]
    fn beyond_64_subgoals_is_a_clear_error() {
        // Regression for the silent `1 << i` wrap: a 65-subgoal (minimal)
        // query must be rejected, not mis-covered.
        let body: Vec<String> = (0..65).map(|i| format!("p{i}(X{i})")).collect();
        let head: Vec<String> = (0..65).map(|i| format!("X{i}")).collect();
        let q = parse_query(&format!("q({}) :- {}", head.join(", "), body.join(", "))).unwrap();
        let views = parse_views("v0(A) :- p0(A)").unwrap();
        let err = MiniCon::new(&q, &views)
            .try_rewritings(true, 100)
            .unwrap_err();
        assert_eq!(err, CoreError::TooManySubgoals { subgoals: 65 });
    }

    #[test]
    fn tight_budget_truncates_combination_honestly() {
        let q = parse_query("q(X, Y) :- e(X, Z), f(Z, Y)").unwrap();
        let views = parse_views(
            "ve(A, B) :- e(A, B).\n\
             vf(A, B) :- f(A, B).\n\
             vef(A, B) :- e(A, C), f(C, B).",
        )
        .unwrap();
        let mc = MiniCon::new(&q, &views);
        let (full, complete) = mc.try_rewritings_with_completeness(true, 100).unwrap();
        assert_eq!(complete, obs::Completeness::Complete);
        assert!(full.len() >= 2);
        let _g = obs::install_budget(obs::BudgetSpec::new().phase_nodes(obs::Phase::Cover, 2));
        let (some, marker) = mc.try_rewritings_with_completeness(true, 100).unwrap();
        assert_eq!(marker, obs::Completeness::Truncated);
        assert!(some.len() < full.len());
        // Whatever survived is from the full result set.
        for r in &some {
            assert!(full.iter().any(|f| f.to_string() == r.to_string()));
        }
    }

    #[test]
    fn constants_unify_with_view_variables() {
        let q = parse_query("q(S) :- car(S, anderson)").unwrap();
        let views = parse_views("v(A, B) :- car(A, B)").unwrap();
        let rs = minicon_rewritings(&q, &views, true, 100);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].to_string(), "q(S) :- v(S, anderson)");
    }
}
