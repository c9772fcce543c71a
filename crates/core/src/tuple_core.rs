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
//!   (a local variable always maps to an existential or a constant of
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
//! # No expansion, no fresh symbols
//!
//! `t_v^exp` is never built as atoms. The search runs over the view's
//! *own* body, each of its terms read as an [`Image`]: a head variable is
//! the tuple argument at its position, a constant is itself, and the
//! view's `k`-th existential variable is `Existential(k)`. Definition 4.1
//! asks three things of an existential image — that it differs from
//! every term of the query, equals itself, and differs from the view's
//! other existentials — and a position number answers all three, whatever
//! the variable is called, so nothing is renamed apart and nothing is
//! interned. Arities and bodies are a handful of terms: every set below
//! is a small vector, scanned.
//!
//! Lemma 4.2 (uniqueness of the maximal core) is asserted in debug builds.

use crate::cover::bits;
use crate::view_tuple::{bound_term, ViewTuple};
use std::collections::BTreeSet;
use viewplan_cq::{ConjunctiveQuery, Symbol, Term, View, ViewSet};
use viewplan_obs as obs;

/// The tuple-core of a view tuple: the covered subgoals, as indices into
/// the minimized query's body and as all-or-nothing parts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TupleCore {
    /// Indices of the covered subgoals in the minimized query's body.
    pub subgoals: BTreeSet<usize>,
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
            parts: Vec::new(),
        }
    }

    /// The core made of whole components, given as subgoal bitmasks.
    fn of_parts(parts: Vec<u64>) -> TupleCore {
        TupleCore {
            subgoals: parts.iter().flat_map(|&part| bits(part)).collect(),
            parts,
        }
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

/// A term of the tuple's expansion (module docs, "No expansion").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Image {
    /// A term in the query's vocabulary: an argument of the view tuple,
    /// or a constant of the view body.
    Term(Term),
    /// The view's `k`-th existential variable. Local to one tuple-core
    /// computation; never equal to a query term, whatever it is called.
    Existential(usize),
}

/// What Definition 4.1 lets one argument of a query subgoal map to.
#[derive(Clone, Copy)]
enum Want {
    /// Exactly this term: a constant (fixed by any containment mapping)
    /// or a variable the tuple exposes (identity, property 1).
    Exactly(Term),
    /// Nothing: a distinguished variable the tuple does not expose
    /// (properties 1 and 2 force the identity, which the expansion
    /// cannot offer).
    Nothing,
    /// The image of this local variable (an index into the per-tuple
    /// list of locals): an existential or a constant outside the tuple,
    /// the same one at every occurrence, no two locals sharing one.
    Local(usize),
}

/// Computes the unique tuple-core of `tv` for the **minimized** query
/// (Definition 4.1 assumes minimality; pass the output of
/// [`viewplan_containment::minimize()`]). A tuple no view of `views`
/// can produce — unknown name, wrong arity, a repeated head variable
/// meeting two arguments, a head constant meeting another term — has the
/// empty core.
///
/// # Panics
/// Panics if the query has more than 64 subgoals (the cover step uses
/// 64-bit masks; the paper's workloads use 8).
pub fn tuple_core(min_query: &ConjunctiveQuery, tv: &ViewTuple, views: &ViewSet) -> TupleCore {
    let Some(view) = views.get(tv.atom.predicate) else {
        return TupleCore::empty();
    };
    let distinguished: Vec<Symbol> = min_query.head.variables().collect();
    tuple_core_in(min_query, &distinguished, tv, view)
}

/// [`tuple_core`] with the view already resolved and the query's
/// distinguished variables computed once for the whole run.
pub(crate) fn tuple_core_in(
    min_query: &ConjunctiveQuery,
    distinguished: &[Symbol],
    tv: &ViewTuple,
    view: &View,
) -> TupleCore {
    assert!(
        min_query.body.len() <= 64,
        "queries are limited to 64 subgoals"
    );
    let Some(expansion) = Expansion::of(view, &tv.atom.terms) else {
        return TupleCore::empty();
    };
    let exposed = &tv.atom.terms;

    // Classify every argument of every subgoal once, and collect for
    // each local variable the subgoals that use it.
    let mut locals: Vec<(Symbol, u64)> = Vec::new();
    let wants: Vec<Vec<Want>> = min_query
        .body
        .iter()
        .enumerate()
        .map(|(i, atom)| {
            let classify = |&t: &Term| match t {
                Term::Const(_) => Want::Exactly(t),
                Term::Var(_) if exposed.contains(&t) => Want::Exactly(t),
                Term::Var(v) if distinguished.contains(&v) => Want::Nothing,
                Term::Var(v) => {
                    let k = locals.iter().position(|&(x, _)| x == v).unwrap_or_else(|| {
                        locals.push((v, 0));
                        locals.len() - 1
                    });
                    locals[k].1 |= 1 << i;
                    Want::Local(k)
                }
            };
            atom.terms.iter().map(classify).collect()
        })
        .collect();

    // Components: subgoals linked by shared local variables, ordered by
    // their first subgoal.
    let mut components: Vec<u64> = (0..min_query.body.len()).map(|i| 1 << i).collect();
    for &(_, users) in &locals {
        let mut merged = 0;
        components.retain(|&c| {
            let linked = c & users != 0;
            if linked {
                merged |= c;
            }
            !linked
        });
        components.push(merged);
    }
    components.sort_unstable_by_key(|c| c.trailing_zeros());

    // Enumerate each component's consistent mappings. One meter covers
    // the whole per-tuple search; truncation only *shrinks* the core
    // (an underestimated core is a subset of the true core, and covers
    // built from subsets are still valid rewritings).
    let mut search = Search {
        query: min_query,
        wants: &wants,
        expansion: &expansion,
        exposed,
        assigned: vec![None; locals.len()],
        trail: Vec::new(),
        meter: obs::Meter::start(obs::Phase::Hom),
    };
    let per_component: Vec<Mappings> = components
        .iter()
        .map(|&component| search.component_mappings(component))
        .collect();

    // Fast path: if no two components can compete for an image, every
    // component with at least one mapping joins the core (the common case;
    // the backtracking resolution below is only needed on overlap).
    let mut earlier: Vec<Image> = Vec::new();
    let disjoint = per_component.iter().all(|mappings| {
        let apart = mappings.images.iter().all(|img| !earlier.contains(img));
        earlier.extend_from_slice(&mappings.images);
        apart
    });
    if disjoint {
        return TupleCore::of_parts(
            per_component
                .iter()
                .filter(|mappings| mappings.count > 0)
                .map(|mappings| mappings.component)
                .collect(),
        );
    }

    // Globally resolve injectivity across components, maximizing coverage.
    let mut resolution = Resolution {
        per_component: &per_component,
        used: Vec::new(),
        best: None,
        meter: search.meter,
    };
    resolution.resolve(0, 0);
    // A budget-truncated resolution may not even reach the all-excluded
    // leaf; the empty core is the sound fallback.
    let chosen = resolution.best.map_or(0, |(_, chosen)| chosen);
    TupleCore::of_parts(bits(chosen).map(|c| per_component[c].component).collect())
}

/// The view's body read as the tuple's expansion: one [`Image`] per
/// body term, flat, with each subgoal's range.
struct Expansion<'v> {
    view: &'v View,
    images: Vec<Image>,
    /// `images[starts[j]..starts[j + 1]]` are the terms of body atom `j`.
    starts: Vec<usize>,
}

impl<'v> Expansion<'v> {
    /// `None` when `args` cannot be a tuple of `view`: wrong arity, a
    /// repeated head variable meeting two arguments, a head constant
    /// meeting another term.
    fn of(view: &'v View, args: &[Term]) -> Option<Expansion<'v>> {
        let head = view.head();
        if head.arity() != args.len() {
            return None;
        }
        let mut bound: Vec<(Symbol, Term)> = Vec::with_capacity(args.len());
        for (&h, &a) in head.terms.iter().zip(args) {
            match h {
                Term::Var(v) => match bound_term(&bound, v) {
                    None => bound.push((v, a)),
                    Some(prev) if prev == a => {}
                    Some(_) => return None,
                },
                Term::Const(_) if h == a => {}
                Term::Const(_) => return None,
            }
        }
        let body = &view.definition.body;
        let mut existentials: Vec<Symbol> = Vec::new();
        let mut images = Vec::with_capacity(body.iter().map(|a| a.arity()).sum());
        let mut starts = Vec::with_capacity(body.len() + 1);
        for atom in body {
            starts.push(images.len());
            images.extend(atom.terms.iter().map(|&t| match t {
                Term::Const(_) => Image::Term(t),
                Term::Var(v) => match bound_term(&bound, v) {
                    Some(arg) => Image::Term(arg),
                    None => {
                        let known = existentials.iter().position(|&x| x == v);
                        Image::Existential(known.unwrap_or_else(|| {
                            existentials.push(v);
                            existentials.len() - 1
                        }))
                    }
                },
            }));
        }
        starts.push(images.len());
        Some(Expansion {
            view,
            images,
            starts,
        })
    }

    /// The expansion's subgoals a query subgoal could map onto: same
    /// predicate, same arity.
    fn targets<'s>(
        &'s self,
        predicate: Symbol,
        arity: usize,
    ) -> impl Iterator<Item = &'s [Image]> + 's {
        self.view
            .definition
            .body
            .iter()
            .enumerate()
            .filter(move |(_, atom)| atom.predicate == predicate && atom.arity() == arity)
            .map(|(j, _)| &self.images[self.starts[j]..self.starts[j + 1]])
    }
}

/// Every consistent way to map one component into the expansion: the
/// images of its local variables, `width` per mapping (always in the
/// order the search first meets them), deduplicated, flat.
struct Mappings {
    /// The component's subgoals.
    component: u64,
    width: usize,
    /// A component without local variables has mappings of width 0, so
    /// the count is kept beside the images.
    count: usize,
    images: Vec<Image>,
}

impl Mappings {
    fn get(&self, i: usize) -> &[Image] {
        &self.images[i * self.width..(i + 1) * self.width]
    }
}

/// The backtracking enumeration of component mappings.
struct Search<'a> {
    query: &'a ConjunctiveQuery,
    /// [`Want`]s of every query subgoal, aligned with the body.
    wants: &'a [Vec<Want>],
    expansion: &'a Expansion<'a>,
    /// The tuple's arguments.
    exposed: &'a [Term],
    /// Image of each local variable, if assigned.
    assigned: Vec<Option<Image>>,
    /// The locals assigned so far, oldest first; their images are the
    /// ones in use (one-to-one).
    trail: Vec<usize>,
    meter: obs::Meter,
}

impl Search<'_> {
    /// All consistent mappings of a component's local variables; none
    /// when the component cannot be covered at all.
    fn component_mappings(&mut self, component: u64) -> Mappings {
        let mut found = Mappings {
            component,
            width: 0,
            count: 0,
            images: Vec::new(),
        };
        self.descend(component, &mut found);
        found
    }

    /// Maps the subgoals of `rest`, lowest first.
    fn descend(&mut self, rest: u64, found: &mut Mappings) {
        if !self.meter.tick() {
            return;
        }
        if rest == 0 {
            // Every local of the component is assigned, in an order the
            // query alone decides: the same at every leaf.
            let known = found.images.len();
            let images = self.trail.iter().filter_map(|&k| self.assigned[k]);
            found.images.extend(images);
            found.width = found.images.len() - known;
            if (0..found.count).any(|i| found.get(i) == &found.images[known..]) {
                found.images.truncate(known);
            } else {
                found.count += 1;
            }
            return;
        }
        let g = rest.trailing_zeros() as usize;
        let (atom, wants, expansion) = (&self.query.body[g], &self.wants[g], self.expansion);
        for target in expansion.targets(atom.predicate, atom.arity()) {
            let mark = self.trail.len();
            if self.meet(wants, target) {
                self.descend(rest & (rest - 1), found);
            }
            for k in self.trail.drain(mark..) {
                self.assigned[k] = None;
            }
            if self.meter.exhausted() {
                return;
            }
        }
    }

    /// Attempts to map one subgoal onto one expansion subgoal under the
    /// Definition 4.1 constraints, assigning its unassigned locals (the
    /// caller takes them back, also after a failure half way).
    fn meet(&mut self, wants: &[Want], target: &[Image]) -> bool {
        for (&want, &image) in wants.iter().zip(target) {
            match want {
                Want::Exactly(t) => {
                    if image != Image::Term(t) {
                        return false;
                    }
                }
                Want::Nothing => return false,
                Want::Local(k) => {
                    // A tuple-argument image would collide with the
                    // identity part under one-to-one-ness.
                    if matches!(image, Image::Term(t) if self.exposed.contains(&t)) {
                        return false;
                    }
                    match self.assigned[k] {
                        Some(prev) => {
                            if prev != image {
                                return false;
                            }
                        }
                        None => {
                            // One-to-one: the image must be unused.
                            if self.trail.iter().any(|&j| self.assigned[j] == Some(image)) {
                                return false;
                            }
                            self.assigned[k] = Some(image);
                            self.trail.push(k);
                        }
                    }
                }
            }
        }
        true
    }
}

/// Chooses, for each component, one of its mappings or exclusion, so that
/// local-variable images stay globally one-to-one; keeps the selection
/// covering the most subgoals (the first such one). Debug builds assert
/// the maximal covered set is unique (Lemma 4.2).
struct Resolution<'a> {
    per_component: &'a [Mappings],
    /// Images taken by the components chosen so far.
    used: Vec<Image>,
    /// Subgoals covered and components chosen (a bit per component) by
    /// the best selection so far.
    best: Option<(u64, u64)>,
    meter: obs::Meter,
}

impl Resolution<'_> {
    fn resolve(&mut self, depth: usize, chosen: u64) {
        if !self.meter.tick() {
            return;
        }
        let per_component = self.per_component;
        let Some(mappings) = per_component.get(depth) else {
            let covered = bits(chosen).fold(0, |m, c| m | per_component[c].component);
            match self.best {
                None => self.best = Some((covered, chosen)),
                Some((best, _)) if covered.count_ones() > best.count_ones() => {
                    self.best = Some((covered, chosen));
                }
                Some((best, _)) => {
                    // Lemma 4.2 uniqueness holds for complete searches;
                    // a budget-truncated mapping enumeration can leave
                    // equal-size incomparable selections behind.
                    debug_assert!(
                        covered.count_ones() < best.count_ones()
                            || covered == 0
                            || covered == best
                            || obs::budget::current().is_some(),
                        "tuple-core must be unique (Lemma 4.2)"
                    );
                }
            }
            return;
        };
        for i in 0..mappings.count {
            let mapping = mappings.get(i);
            if mapping.iter().any(|img| self.used.contains(img)) {
                continue;
            }
            let mark = self.used.len();
            self.used.extend_from_slice(mapping);
            self.resolve(depth + 1, chosen | (1 << depth));
            self.used.truncate(mark);
            if self.meter.exhausted() {
                return;
            }
        }
        // Exclusion branch (needed when the component has no mapping, and to
        // witness uniqueness in debug builds).
        self.resolve(depth + 1, chosen);
    }
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
    fn existential_spelled_like_a_query_variable_stays_apart() {
        // The view hides a variable it happens to call `X`; the tuple
        // exposes the query's `X` through `B`. The expansion is
        // e(P, X'), f(X) with X' fresh, so e(P, X) — whose X must stay
        // itself — has no image: an image compared by name would cover it.
        let cores = cores_of("q(P, X) :- e(P, X), f(X)", "v(A, B) :- e(A, X), f(B)");
        assert_eq!(cores, vec![("v(P, X)".to_string(), vec![1])]);
    }

    #[test]
    fn tuples_no_view_can_produce_have_the_empty_core() {
        // A repeated head variable meeting two arguments, a head constant
        // meeting another term, a wrong arity, an unknown view: the empty
        // core, not a panic.
        let q = minimize(&parse_query("q(X, Y) :- e(X, Y), e(X, c)").unwrap());
        let views = parse_views(
            "v(A, A) :- e(A, A).\n\
             w(A, c) :- e(A, c).",
        )
        .unwrap();
        for atom in ["v(X, Y)", "w(X, d)", "w(X, Y)", "w(X)", "nope(X)"] {
            let atom = viewplan_cq::parse_atom(atom).unwrap();
            let tv = ViewTuple {
                view: atom.predicate,
                atom,
            };
            assert!(tuple_core(&q, &tv, &views).is_empty(), "{tv}");
        }
        // The tuple `w` does have covers its subgoal.
        let tv = ViewTuple {
            view: "w".into(),
            atom: viewplan_cq::parse_atom("w(X, c)").unwrap(),
        };
        assert_eq!(tuple_core(&q, &tv, &views).bitmask(), 0b10);
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
