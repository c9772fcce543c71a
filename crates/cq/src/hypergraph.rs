//! The query hypergraph: GYO ear-removal, join forests, and a
//! hypertree-width estimate.
//!
//! A conjunctive query's *hypergraph* has one node per variable and one
//! hyperedge per subgoal (the set of variables the subgoal mentions). The
//! GYO (Graham / Yu–Özsoyoğlu) reduction repeatedly removes an **ear** —
//! an edge whose variables shared with the rest of the hypergraph are all
//! covered by a single *witness* edge. The query is **acyclic** iff the
//! reduction consumes every edge; the witness links then form a **join
//! forest**, and the removal order is a valid bottom-up semijoin
//! schedule. Acyclicity is what lets containment checking run in
//! polynomial time (semijoins instead of the exponential homomorphism
//! search) — the structure the acyclic fast path exploits. Evaluation
//! does not use it: the executor joins unreduced relations, so an
//! acyclic join can still build large intermediates.
//!
//! For cyclic queries, [`hypertree_width_estimate`] keeps running GYO
//! past the stuck point by greedily merging the two most-overlapping
//! edges into one cluster; the largest cluster ever removed is a cheap
//! upper-bound proxy for the hypertree width (1 iff acyclic). The
//! blowup predictor (VP007) and the cost estimators consult it: width 1
//! means intermediate results can be kept linear in the input.

use crate::atom::Atom;
use crate::symbol::Symbol;
use std::collections::BTreeSet;

/// The witness structure GYO leaves behind on an acyclic hypergraph.
///
/// Indices refer to positions in the edge list handed to [`gyo_forest`]
/// (for [`join_forest`], positions in the query body).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JoinForest {
    /// `parent[e]` is the witness edge that covered `e`'s shared
    /// variables when `e` was removed — `None` for roots (the last edge
    /// of a connected component, or an edge sharing no variables with
    /// the rest).
    pub parent: Vec<Option<usize>>,
    /// Ear-removal order: every edge appears before its parent, so
    /// iterating `order` is a valid bottom-up semijoin schedule and the
    /// reverse is a valid top-down one.
    pub order: Vec<usize>,
}

impl JoinForest {
    /// The root edges (those with no parent).
    pub fn roots(&self) -> impl Iterator<Item = usize> + '_ {
        self.parent
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.is_none().then_some(i))
    }
}

/// Runs GYO ear-removal over variable-set edges. Returns the join forest
/// iff the hypergraph is acyclic.
///
/// Deterministic: each pass removes the lowest-indexed ear, witnessed by
/// the lowest-indexed covering edge, so the forest (and hence every
/// downstream semijoin schedule) is stable across runs.
pub fn gyo_forest(edges: &[BTreeSet<Symbol>]) -> Option<JoinForest> {
    let n = edges.len();
    let mut alive = vec![true; n];
    let mut parent = vec![None; n];
    let mut order = Vec::with_capacity(n);
    let mut remaining = n;
    while remaining > 0 {
        let Some((ear, witness)) = find_ear(edges, &alive) else {
            return None; // stuck: the remainder is cyclic
        };
        alive[ear] = false;
        parent[ear] = witness;
        order.push(ear);
        remaining -= 1;
    }
    Some(JoinForest { parent, order })
}

/// The lowest-indexed alive ear and its witness, if any edge currently
/// qualifies.
fn find_ear(edges: &[BTreeSet<Symbol>], alive: &[bool]) -> Option<(usize, Option<usize>)> {
    for e in 0..edges.len() {
        if !alive[e] {
            continue;
        }
        // Variables of `e` shared with any *other* alive edge.
        let shared: BTreeSet<Symbol> = edges[e]
            .iter()
            .copied()
            .filter(|v| {
                edges
                    .iter()
                    .enumerate()
                    .any(|(o, vars)| o != e && alive[o] && vars.contains(v))
            })
            .collect();
        if shared.is_empty() {
            // Isolated (or last-of-component) edge: an ear with no
            // witness — a root of the forest.
            return Some((e, None));
        }
        let witness = (0..edges.len())
            .find(|&w| w != e && alive[w] && shared.iter().all(|v| edges[w].contains(v)));
        if let Some(w) = witness {
            return Some((e, Some(w)));
        }
    }
    None
}

/// The variable hyperedge of one atom.
pub fn atom_vars(atom: &Atom) -> BTreeSet<Symbol> {
    atom.variables().collect()
}

/// GYO over a query body: the join forest iff the body is acyclic.
pub fn join_forest(body: &[Atom]) -> Option<JoinForest> {
    let edges: Vec<BTreeSet<Symbol>> = body.iter().map(atom_vars).collect();
    gyo_forest(&edges)
}

/// True iff the body's hypergraph is acyclic (GYO consumes every edge).
pub fn is_acyclic(body: &[Atom]) -> bool {
    join_forest(body).is_some()
}

/// A cheap upper-bound proxy for the hypertree width of a body: run GYO,
/// and whenever it gets stuck, merge the two alive edges sharing the
/// most variables into one cluster and continue. The answer is the
/// largest number of original edges in any removed cluster — `1` iff
/// the body is acyclic, and e.g. `2` for a triangle. An empty body has
/// width `0`.
pub fn hypertree_width_estimate(body: &[Atom]) -> usize {
    let mut edges: Vec<BTreeSet<Symbol>> = body.iter().map(atom_vars).collect();
    // How many original atoms each current edge has absorbed.
    let mut weight: Vec<usize> = vec![1; edges.len()];
    let mut alive = vec![true; edges.len()];
    let mut remaining = edges.len();
    let mut width = 0usize;
    while remaining > 0 {
        if let Some((ear, _)) = find_ear(&edges, &alive) {
            alive[ear] = false;
            remaining -= 1;
            width = width.max(weight[ear]);
            continue;
        }
        // Stuck: merge the most-overlapping alive pair (lowest indices
        // on ties) and retry. Each merge lowers the edge count, so the
        // loop terminates.
        let (mut best, mut best_overlap) = (None, 0usize);
        for a in 0..edges.len() {
            if !alive[a] {
                continue;
            }
            for b in (a + 1)..edges.len() {
                if !alive[b] {
                    continue;
                }
                let overlap = edges[a].intersection(&edges[b]).count();
                if best.is_none() || overlap > best_overlap {
                    best = Some((a, b));
                    best_overlap = overlap;
                }
            }
        }
        // A stuck hypergraph has ≥ 2 alive edges (a lone edge is always
        // an ear), so a pair always exists.
        let Some((a, b)) = best else { break };
        let vars_b = std::mem::take(&mut edges[b]);
        edges[a].extend(vars_b);
        weight[a] += weight[b];
        alive[b] = false;
        remaining -= 1;
    }
    width
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn body(src: &str) -> Vec<Atom> {
        parse_query(src).unwrap().body
    }

    #[test]
    fn chain_is_acyclic_with_a_path_forest() {
        let b = body("q(A, D) :- r(A, B), s(B, C), t(C, D)");
        let f = join_forest(&b).expect("chains are acyclic");
        // Deterministic removal: ends at a single root.
        assert_eq!(f.order.len(), 3);
        assert_eq!(f.roots().count(), 1);
        // Every non-root's parent is removed after it.
        for (i, &e) in f.order.iter().enumerate() {
            if let Some(p) = f.parent[e] {
                let p_at = f.order.iter().position(|&x| x == p).unwrap();
                assert!(p_at > i, "parent {p} removed before child {e}");
            }
        }
        assert_eq!(hypertree_width_estimate(&b), 1);
    }

    #[test]
    fn star_is_acyclic() {
        let b = body("q(A, B, C, D) :- r(A, B), r(A, C), r(A, D)");
        assert!(is_acyclic(&b));
        assert_eq!(hypertree_width_estimate(&b), 1);
    }

    #[test]
    fn triangle_is_cyclic_with_width_two() {
        let b = body("q(A, B, C) :- r(A, B), s(B, C), t(C, A)");
        assert!(join_forest(&b).is_none());
        assert_eq!(hypertree_width_estimate(&b), 2);
    }

    #[test]
    fn triangle_with_pendant_edge_is_still_cyclic() {
        let b = body("q(A) :- r(A, B), s(B, C), t(C, A), u(C, D)");
        assert!(!is_acyclic(&b));
        assert_eq!(hypertree_width_estimate(&b), 2);
    }

    #[test]
    fn disconnected_components_form_a_forest() {
        let b = body("q(A, C) :- r(A, B), s(C, D)");
        let f = join_forest(&b).expect("a cartesian product is acyclic");
        assert_eq!(f.roots().count(), 2);
    }

    #[test]
    fn constant_only_atom_is_an_isolated_ear() {
        let b = body("q(X) :- r(X, Y), guard(a, b)");
        let f = join_forest(&b).expect("ground atoms never create cycles");
        assert_eq!(f.roots().count(), 2);
    }

    #[test]
    fn self_loop_and_duplicate_edges_are_acyclic() {
        // An edge contained in another is always an ear.
        let b = body("q(X, Y) :- e(X, X), e(X, Y), e(X, Y)");
        assert!(is_acyclic(&b));
    }

    #[test]
    fn empty_body_is_trivially_acyclic() {
        let f = gyo_forest(&[]).unwrap();
        assert!(f.order.is_empty());
        assert_eq!(hypertree_width_estimate(&[]), 0);
    }

    #[test]
    fn larger_cycle_is_detected() {
        let b = body("q(A) :- r(A, B), r(B, C), r(C, D), r(D, A)");
        assert!(!is_acyclic(&b));
        assert!(hypertree_width_estimate(&b) >= 2);
    }
}
