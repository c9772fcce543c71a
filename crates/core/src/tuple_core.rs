//! Tuple-cores (Definition 4.1, Lemma 4.2).
//!
//! The tuple-core of a view tuple `t_v` is the maximal set `G` of query
//! subgoals admitting a containment mapping `φ : G → t_v^exp` such that:
//!
//! 1. `φ` is one-to-one and is the identity on arguments of `G` that
//!    appear in `t_v`;
//! 2. distinguished variables of the query map to distinguished variables
//!    of `t_v^exp` (with (1), this forces them to appear in `t_v`);
//! 3. if a nondistinguished variable is mapped to an existential variable
//!    of the expansion, **all** query subgoals using it must be in `G`.
//!
//! # How we compute it
//!
//! Call a variable of a subgoal *local* (to this view tuple) if it is
//! nondistinguished and does not appear among `t_v`'s arguments. By
//! property (1) every non-local variable maps to itself, so subgoals
//! interact only through shared local variables. We therefore:
//!
//! * group subgoals into connected components linked by shared local
//!   variables — property (3) makes each component an all-or-nothing unit
//!   (a local variable always maps to a fresh existential or a constant of
//!   the expansion, never to a `t_v` argument, since that would collide
//!   with the identity part and break injectivity);
//! * enumerate the consistent mappings of each component into the
//!   expansion by backtracking;
//! * resolve cross-component injectivity globally (two components may not
//!   send different local variables to the same existential), maximizing
//!   the number of covered subgoals.
//!
//! The components that make it into the core are kept as
//! [`TupleCore::parts`]: [`crate::certificate`] needs them to tell
//! whether the cores of a cover glue into one containment mapping.
//!
//! Lemma 4.2 (uniqueness of the maximal core) is asserted in debug builds.

use crate::view_tuple::ViewTuple;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use viewplan_containment::expand_atom;
use viewplan_cq::{Atom, ConjunctiveQuery, Symbol, Term, ViewSet};
use viewplan_obs as obs;

/// The tuple-core of a view tuple: the covered subgoals (as indices into
/// the minimized query's body) and the mapping of local variables.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TupleCore {
    /// Indices of the covered subgoals in the minimized query's body.
    pub subgoals: BTreeSet<usize>,
    /// Images of the query's local variables in the tuple expansion
    /// (non-local variables map to themselves and are omitted).
    pub mapping: BTreeMap<Symbol, Term>,
    /// The covered subgoals as bitmasks, one per component linked by
    /// shared local variables (see the module docs): the all-or-nothing
    /// units of property (3). They partition `subgoals`, and they are
    /// what a [cover certificate](crate::certificate) deals out.
    pub parts: Vec<u64>,
}

impl TupleCore {
    /// The empty core.
    pub fn empty() -> TupleCore {
        TupleCore {
            subgoals: BTreeSet::new(),
            mapping: BTreeMap::new(),
            parts: Vec::new(),
        }
    }

    /// Adds one whole component, mapped by `mapping`, to the core.
    fn absorb(&mut self, component: &[usize], mapping: &ComponentMapping) {
        self.subgoals.extend(component.iter().copied());
        self.mapping
            .extend(mapping.iter().map(|(&v, &image)| (v, image)));
        // Indices are below 64: `tuple_core` asserts the body length.
        self.parts
            .push(component.iter().fold(0u64, |m, &i| m | (1 << i)));
    }

    /// True iff no subgoal is covered.
    pub fn is_empty(&self) -> bool {
        self.subgoals.is_empty()
    }

    /// The core as a bitmask over subgoal indices (queries have ≤ 64
    /// subgoals in this system; enforced by [`tuple_core`]).
    pub fn bitmask(&self) -> u64 {
        self.subgoals.iter().fold(0u64, |m, &i| {
            // A shift by ≥ 64 would wrap silently in release builds and
            // corrupt the cover search; fail loudly instead.
            assert!(
                i < crate::error::MAX_SUBGOALS,
                "subgoal index {i} does not fit a 64-bit cover mask"
            );
            m | (1 << i)
        })
    }
}

/// One consistent way to map a whole component into the expansion:
/// the images of its local variables.
type ComponentMapping = BTreeMap<Symbol, Term>;

/// Computes the unique tuple-core of `tv` for the **minimized** query
/// (Definition 4.1 assumes minimality; pass the output of
/// [`viewplan_containment::minimize()`]).
///
/// # Panics
/// Panics if the query has more than 64 subgoals (the cover step uses
/// 64-bit masks; the paper's workloads use 8).
pub fn tuple_core(min_query: &ConjunctiveQuery, tv: &ViewTuple, views: &ViewSet) -> TupleCore {
    assert!(
        min_query.body.len() <= 64,
        "queries are limited to 64 subgoals"
    );
    let Ok(texp) = expand_atom(&tv.atom, views) else {
        return TupleCore::empty();
    };
    let tv_terms: HashSet<Term> = tv.atom.terms.iter().copied().collect();
    let distinguished = min_query.distinguished_set();
    let is_local = |v: Symbol| !distinguished.contains(&v) && !tv_terms.contains(&Term::Var(v));

    // Union-find over subgoal indices, linked by shared local variables.
    let n = min_query.body.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    let mut by_local: HashMap<Symbol, usize> = HashMap::new();
    for (i, atom) in min_query.body.iter().enumerate() {
        for v in atom.variables() {
            if is_local(v) {
                match by_local.get(&v) {
                    Some(&j) => {
                        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                        parent[ri] = rj;
                    }
                    None => {
                        by_local.insert(v, i);
                    }
                }
            }
        }
    }
    let mut components: HashMap<usize, Vec<usize>> = HashMap::new();
    for i in 0..n {
        let r = find(&mut parent, i);
        components.entry(r).or_default().push(i);
    }
    let mut components: Vec<Vec<usize>> = components.into_values().collect();
    components.sort(); // deterministic order

    // Enumerate each component's consistent mappings. One meter covers
    // the whole per-tuple search; truncation only *shrinks* the core
    // (an underestimated core is a subset of the true core, and covers
    // built from subsets are still valid rewritings).
    let mut meter = obs::Meter::start(obs::Phase::Hom);
    let per_component: Vec<(Vec<usize>, Vec<ComponentMapping>)> = components
        .into_iter()
        .map(|comp| {
            let mappings =
                component_mappings(min_query, &comp, &texp, &tv_terms, &is_local, &mut meter);
            (comp, mappings)
        })
        .collect();

    // Fast path: if no two components can compete for an image, every
    // component with at least one mapping joins the core (the common case;
    // the backtracking resolution below is only needed on overlap).
    let image_sets: Vec<HashSet<Term>> = per_component
        .iter()
        .map(|(_, ms)| ms.iter().flat_map(|m| m.values().copied()).collect())
        .collect();
    let mut disjoint = true;
    'outer: for i in 0..image_sets.len() {
        for j in (i + 1)..image_sets.len() {
            if image_sets[i].intersection(&image_sets[j]).next().is_some() {
                disjoint = false;
                break 'outer;
            }
        }
    }
    if disjoint {
        let mut core = TupleCore::empty();
        for (comp, mappings) in &per_component {
            if let Some(m) = mappings.first() {
                core.absorb(comp, m);
            }
        }
        return core;
    }

    // Globally resolve injectivity across components, maximizing coverage.
    let mut best: Option<(usize, TupleCore)> = None;
    let mut chosen: Vec<Option<usize>> = vec![None; per_component.len()];
    resolve(
        &per_component,
        0,
        &mut chosen,
        &mut HashSet::new(),
        &mut best,
        &mut meter,
    );
    // A budget-truncated resolution may not even reach the all-excluded
    // leaf; the empty core is the sound fallback.
    best.map(|(_, core)| core).unwrap_or_else(TupleCore::empty)
}

/// Backtracking enumeration of all consistent mappings of a component's
/// local variables; returns an empty vector when the component cannot be
/// covered at all.
fn component_mappings(
    q: &ConjunctiveQuery,
    comp: &[usize],
    texp: &[Atom],
    tv_terms: &HashSet<Term>,
    is_local: &dyn Fn(Symbol) -> bool,
    meter: &mut obs::Meter,
) -> Vec<ComponentMapping> {
    let mut results: Vec<ComponentMapping> = Vec::new();
    let mut seen: HashSet<ComponentMapping> = HashSet::new();
    let mut assignment: ComponentMapping = BTreeMap::new();
    let mut used: HashSet<Term> = HashSet::new();
    search_component(
        q,
        comp,
        0,
        texp,
        tv_terms,
        is_local,
        &mut assignment,
        &mut used,
        meter,
        &mut |m| {
            if seen.insert(m.clone()) {
                results.push(m.clone());
            }
        },
    );
    results
}

// Recursive backtracking search; the assignment/bookkeeping state is
// threaded as parameters so frames stay allocation-free.
#[allow(clippy::too_many_arguments)]
fn search_component(
    q: &ConjunctiveQuery,
    comp: &[usize],
    depth: usize,
    texp: &[Atom],
    tv_terms: &HashSet<Term>,
    is_local: &dyn Fn(Symbol) -> bool,
    assignment: &mut ComponentMapping,
    used: &mut HashSet<Term>,
    meter: &mut obs::Meter,
    emit: &mut dyn FnMut(&ComponentMapping),
) {
    if !meter.tick() {
        return;
    }
    if depth == comp.len() {
        emit(assignment);
        return;
    }
    let g = &q.body[comp[depth]];
    for target in texp {
        if target.predicate != g.predicate || target.arity() != g.arity() {
            continue;
        }
        let mut newly: Vec<Symbol> = Vec::new();
        if try_map_atom(g, target, tv_terms, is_local, assignment, used, &mut newly) {
            search_component(
                q,
                comp,
                depth + 1,
                texp,
                tv_terms,
                is_local,
                assignment,
                used,
                meter,
                emit,
            );
        }
        for v in newly {
            // `newly` records exactly the variables this frame inserted,
            // so the entry must still be present; a miss would mean the
            // backtracking bookkeeping desynced.
            debug_assert!(assignment.contains_key(&v));
            if let Some(img) = assignment.remove(&v) {
                used.remove(&img);
            }
        }
        if meter.exhausted() {
            return;
        }
    }
}

/// Attempts to map one subgoal onto one expansion atom under the
/// Definition 4.1 constraints, extending `assignment` for local variables.
fn try_map_atom(
    g: &Atom,
    target: &Atom,
    tv_terms: &HashSet<Term>,
    is_local: &dyn Fn(Symbol) -> bool,
    assignment: &mut ComponentMapping,
    used: &mut HashSet<Term>,
    newly: &mut Vec<Symbol>,
) -> bool {
    for (pt, tt) in g.terms.iter().zip(&target.terms) {
        match *pt {
            // Constants are fixed by any containment mapping.
            Term::Const(_) => {
                if pt != tt {
                    return false;
                }
            }
            Term::Var(v) if !is_local(v) => {
                // Identity required: either v appears in tv (property 1) or
                // v is distinguished, in which case property 2 + 1 force
                // φ(v) = v, which is only possible if v appears in the
                // expansion — i.e. in tv's arguments.
                if *tt != Term::Var(v) {
                    return false;
                }
                if !tv_terms.contains(&Term::Var(v)) {
                    // Distinguished variable absent from tv: property 2
                    // cannot be satisfied.
                    return false;
                }
            }
            Term::Var(v) => {
                // Local variable: must map to a term of the expansion that
                // is not a tv argument (a tv-argument image would collide
                // with the identity part under one-to-one-ness).
                if tv_terms.contains(tt) {
                    return false;
                }
                match assignment.get(&v) {
                    Some(prev) => {
                        if prev != tt {
                            return false;
                        }
                    }
                    None => {
                        // One-to-one: the image must be unused.
                        if !used.insert(*tt) {
                            return false;
                        }
                        assignment.insert(v, *tt);
                        newly.push(v);
                    }
                }
            }
        }
    }
    true
}

/// Chooses, for each component, one of its mappings or exclusion, so that
/// local-variable images stay globally one-to-one; keeps the selection
/// covering the most subgoals. Debug builds assert the maximal covered set
/// is unique (Lemma 4.2).
fn resolve(
    per_component: &[(Vec<usize>, Vec<ComponentMapping>)],
    depth: usize,
    chosen: &mut Vec<Option<usize>>,
    used: &mut HashSet<Term>,
    best: &mut Option<(usize, TupleCore)>,
    meter: &mut obs::Meter,
) {
    if !meter.tick() {
        return;
    }
    if depth == per_component.len() {
        let mut core = TupleCore::empty();
        for (c, pick) in per_component.iter().zip(chosen.iter()) {
            if let Some(m) = pick {
                core.absorb(&c.0, &c.1[*m]);
            }
        }
        let size = core.subgoals.len();
        match best {
            None => *best = Some((size, core)),
            Some((bs, bcore)) => {
                if size > *bs {
                    *best = Some((size, core));
                } else if size == *bs && size > 0 {
                    // Lemma 4.2 uniqueness holds for complete searches;
                    // a budget-truncated mapping enumeration can leave
                    // equal-size incomparable selections behind.
                    debug_assert!(
                        bcore.subgoals == core.subgoals || obs::budget::current().is_some(),
                        "tuple-core must be unique (Lemma 4.2)"
                    );
                }
            }
        }
        return;
    }
    let (_, mappings) = &per_component[depth];
    for (mi, m) in mappings.iter().enumerate() {
        if m.values().any(|img| used.contains(img)) {
            continue;
        }
        for img in m.values() {
            used.insert(*img);
        }
        chosen[depth] = Some(mi);
        resolve(per_component, depth + 1, chosen, used, best, meter);
        chosen[depth] = None;
        for img in m.values() {
            used.remove(img);
        }
        if meter.exhausted() {
            return;
        }
    }
    // Exclusion branch (needed when the component has no mapping, and to
    // witness uniqueness in debug builds).
    resolve(per_component, depth + 1, chosen, used, best, meter);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view_tuple::view_tuples;
    use viewplan_containment::minimize;
    use viewplan_cq::{parse_query, parse_views};

    fn cores_of(q: &str, vs: &str) -> Vec<(String, Vec<usize>)> {
        let q = minimize(&parse_query(q).unwrap());
        let views = parse_views(vs).unwrap();
        view_tuples(&q, &views)
            .iter()
            .map(|t| {
                let core = tuple_core(&q, t, &views);
                (t.to_string(), core.subgoals.iter().copied().collect())
            })
            .collect()
    }

    #[test]
    fn table2_tuple_cores() {
        // Example 4.1 / Table 2.
        let cores = cores_of(
            "q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)",
            "v1(A, B) :- a(A, B), a(B, B).\n\
             v2(C, D) :- a(C, E), b(C, D).",
        );
        assert_eq!(
            cores,
            vec![
                ("v1(X, Z)".to_string(), vec![0, 1]), // a(X,Z), a(Z,Z)
                ("v1(Z, Z)".to_string(), vec![1]),    // a(Z,Z)
                ("v2(Z, Y)".to_string(), vec![2]),    // b(Z,Y)
            ]
        );
    }

    #[test]
    fn carlocpart_cores_match_section_41() {
        // §4.1: cores of v1, v2, v4, v5 are their full definitions (with D
        // replaced by a); v3(S) has an empty tuple-core.
        let cores = cores_of(
            "q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)",
            "v1(M, D, C) :- car(M, D), loc(D, C).\n\
             v2(S, M, C) :- part(S, M, C).\n\
             v3(S) :- car(M, a), loc(a, C), part(S, M, C).\n\
             v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).\n\
             v5(M, D, C) :- car(M, D), loc(D, C).",
        );
        assert_eq!(
            cores,
            vec![
                ("v1(M, a, C)".to_string(), vec![0, 1]),
                ("v2(S, M, C)".to_string(), vec![2]),
                ("v3(S)".to_string(), vec![]), // empty core!
                ("v4(M, a, C, S)".to_string(), vec![0, 1, 2]),
                ("v5(M, a, C)".to_string(), vec![0, 1]),
            ]
        );
    }

    #[test]
    fn example42_single_tuple_covers_everything() {
        // Example 4.2 with k = 3: the global view covers all 6 subgoals.
        let q = "q(X, Y) :- a1(X, Z1), b1(Z1, Y), a2(X, Z2), b2(Z2, Y), a3(X, Z3), b3(Z3, Y)";
        let vs = "v(X, Y) :- a1(X, Z1), b1(Z1, Y), a2(X, Z2), b2(Z2, Y), a3(X, Z3), b3(Z3, Y).\n\
                  v1(X, Y) :- a1(X, Z1), b1(Z1, Y).\n\
                  v2(X, Y) :- a2(X, Z2), b2(Z2, Y).";
        let cores = cores_of(q, vs);
        assert_eq!(cores[0], ("v(X, Y)".to_string(), vec![0, 1, 2, 3, 4, 5]));
        assert_eq!(cores[1], ("v1(X, Y)".to_string(), vec![0, 1]));
        assert_eq!(cores[2], ("v2(X, Y)".to_string(), vec![2, 3]));
    }

    #[test]
    fn existential_closure_empties_partial_cover() {
        // The view covers a(X) but its expansion cannot absorb b(X), and X
        // is shared: property (3) forces the whole component out.
        let cores = cores_of("q() :- a(X), b(X)", "v2(C) :- b(C).\nv3() :- b(E)");
        // v2(X): X local? X is nondistinguished; X ∈ tv args of v2(X) so
        // identity — core is {b(X)}.
        assert_eq!(cores[0], ("v2(X)".to_string(), vec![1]));
        // v3(): X is local, must map to existential E, but a(X) has no
        // image — component {a(X), b(X)} fails entirely.
        assert_eq!(cores[1], ("v3()".to_string(), vec![]));
    }

    #[test]
    fn distinguished_variable_not_in_tuple_blocks_coverage() {
        let cores = cores_of("q(X) :- a(X, Y)", "v(B) :- a(A, B)");
        // tuple is v(Y); X is distinguished but absent from the tuple.
        assert_eq!(cores[0], ("v(Y)".to_string(), vec![]));
    }

    #[test]
    fn local_variables_map_injectively() {
        // Two local variables cannot share one existential: the view has a
        // single existential E, the query needs two independent ones...
        // a(X,Y1), a(X,Y2) minimizes to a(X,Y1) first, so craft distinct
        // predicates to prevent minimization.
        let cores = cores_of("q(X) :- a(X, Y1), b(X, Y2)", "v(A) :- a(A, E), b(A, E).");
        // Expansion forces Y1 -> E and Y2 -> E: violates one-to-one; but
        // components {a(X,Y1)} and {b(X,Y2)} are separate (Y1, Y2 not
        // shared), so globally only one of them can claim E. The maximum is
        // then 1 subgoal... which would make the core ambiguous (either
        // subgoal) — precisely the situation Lemma 4.2 excludes for
        // *view tuples of minimal queries*; check the view produces no
        // tuple at all here: applying v to {a(x,y1), b(x,y2)} needs
        // a(A,E), b(A,E) with one E: no match, so no view tuple exists.
        assert!(cores.is_empty());
    }

    #[test]
    fn constants_in_query_must_match_expansion() {
        let cores = cores_of("q(X) :- a(X, c)", "v(A) :- a(A, c).\nw(B) :- a(B, d)");
        assert_eq!(cores.len(), 1);
        assert_eq!(cores[0], ("v(X)".to_string(), vec![0]));
    }

    #[test]
    fn core_can_cover_with_constant_image() {
        // Local variable mapping to a constant of the expansion: the query
        // has Y existential, the view pins that position to the constant c.
        // φ(Y) = c is a legal containment mapping.
        let cores = cores_of("q(X) :- a(X, Y)", "v(A) :- a(A, c)");
        // View tuple: applying v to {a(x, y)} — needs a(A, c): no match
        // (frozen y ≠ c). So no view tuples. The subtlety: the *tuple* can
        // never exist unless the canonical database contains the constant.
        assert!(cores.is_empty());
    }

    #[test]
    fn parts_follow_the_hidden_variables() {
        // va hides X, so e(P, X) and g(X, Y) stand or fall together;
        // va2 exposes it and they are separate units.
        let q = minimize(&parse_query("q(P, R) :- e(P, X), g(X, Y), f(Y, R)").unwrap());
        let views = parse_views(
            "va(P, Y) :- e(P, X), g(X, Y).\n\
             va2(P, X, Y) :- e(P, X), g(X, Y).",
        )
        .unwrap();
        let parts: Vec<Vec<u64>> = view_tuples(&q, &views)
            .iter()
            .map(|t| tuple_core(&q, t, &views).parts)
            .collect();
        assert_eq!(parts, [vec![0b011], vec![0b001, 0b010]]);
    }

    #[test]
    fn bitmask_reflects_subgoals() {
        let q = minimize(&parse_query("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)").unwrap());
        let views = parse_views("v1(A, B) :- a(A, B), a(B, B)").unwrap();
        let ts = view_tuples(&q, &views);
        let core = tuple_core(&q, &ts[0], &views);
        assert_eq!(core.bitmask(), 0b011);
    }
}
