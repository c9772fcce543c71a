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
//! # What a run allocates
//!
//! What depends on the query alone is worked out once per run, in
//! `Cores::of`: the minimized query's variables are numbered, each with a
//! distinguished flag and the mask of the subgoals that use it, and the
//! body's terms are coded as a constant or a variable number. A tuple's
//! exposed/local classification is then one pass over the variables and
//! one index lookup per body term. Every per-tuple buffer — the
//! expansion's images, the classified body (`wants`, flat, sharing the
//! body's starts), the components, the assignment and its trail, and the
//! component mappings (one flat buffer, one header per component) —
//! lives in one scratch the run reuses for every tuple, so only the
//! returned [`TupleCore`] allocates. The node meter is still started per
//! tuple: node caps are per search. [`tuple_core`] builds the table and
//! the scratch for its one tuple.
//!
//! Lemma 4.2 (uniqueness of the maximal core) is asserted in debug builds.

use crate::cover::bits;
use crate::view_tuple::{bound_term, ViewTuple};
use std::collections::BTreeSet;
use viewplan_cq::{Atom, ConjunctiveQuery, Symbol, Term, View, ViewSet};
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
    /// The image of this local variable (its number in the run's
    /// variable table): an existential or a constant outside the tuple,
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
    Cores::of(min_query).core(tv, view)
}

/// A variable of the minimized query, as the run's table holds it.
struct Variable {
    symbol: Symbol,
    distinguished: bool,
    /// The subgoals that use it, as a bitmask.
    users: u64,
}

/// A body term of the minimized query: a constant, or the number of a
/// variable in the run's table.
#[derive(Clone, Copy)]
enum Coded {
    Const(Term),
    Var(usize),
}

/// The tuple-cores of one run: the minimized query classified once, and
/// the scratch every tuple's search reuses (module docs, "What a run
/// allocates").
pub(crate) struct Cores<'q> {
    query: &'q ConjunctiveQuery,
    /// The query's variables, numbered by first occurrence.
    variables: Vec<Variable>,
    /// The body's terms, flat: `terms[starts[i]..starts[i + 1]]` are the
    /// terms of subgoal `i`.
    terms: Vec<Coded>,
    starts: Vec<usize>,
    scratch: Scratch,
}

/// Every per-tuple buffer; a tuple clears or overwrites each one before
/// it reads it.
#[derive(Default)]
struct Scratch {
    expansion: Expansion,
    /// What each variable may map to under the current tuple, by number.
    by_variable: Vec<Want>,
    /// What each body term may map to, aligned with [`Cores::terms`].
    wants: Vec<Want>,
    /// Subgoals linked by shared local variables, ordered by their first
    /// subgoal.
    components: Vec<u64>,
    /// Image of each local variable, if assigned, by number.
    assigned: Vec<Option<Image>>,
    /// The locals assigned so far, oldest first; their images are the
    /// ones in use (one-to-one).
    trail: Vec<usize>,
    /// Every component's mappings, flat, in component order.
    images: Vec<Image>,
    /// One header per component, aligned with `components`.
    mappings: Vec<Mappings>,
    /// Images taken by the components the resolution has chosen so far.
    used: Vec<Image>,
}

impl<'q> Cores<'q> {
    /// Numbers and codes `min_query` for a run.
    ///
    /// # Panics
    /// Panics if the query has more than 64 subgoals.
    pub(crate) fn of(min_query: &'q ConjunctiveQuery) -> Cores<'q> {
        assert!(
            min_query.body.len() <= 64,
            "queries are limited to 64 subgoals"
        );
        let number = |variables: &mut Vec<Variable>, v: Symbol| {
            variables
                .iter()
                .position(|x| x.symbol == v)
                .unwrap_or_else(|| {
                    variables.push(Variable {
                        symbol: v,
                        distinguished: false,
                        users: 0,
                    });
                    variables.len() - 1
                })
        };
        let mut variables: Vec<Variable> = Vec::new();
        for v in min_query.head.variables() {
            let k = number(&mut variables, v);
            variables[k].distinguished = true;
        }
        let mut terms = Vec::new();
        let mut starts = Vec::with_capacity(min_query.body.len() + 1);
        for (i, atom) in min_query.body.iter().enumerate() {
            starts.push(terms.len());
            for &t in &atom.terms {
                terms.push(match t {
                    Term::Const(_) => Coded::Const(t),
                    Term::Var(v) => {
                        let k = number(&mut variables, v);
                        variables[k].users |= 1 << i;
                        Coded::Var(k)
                    }
                });
            }
        }
        starts.push(terms.len());
        Cores {
            query: min_query,
            variables,
            terms,
            starts,
            scratch: Scratch::default(),
        }
    }

    /// The tuple-core of `tv`, a tuple of `view` (see [`tuple_core`]).
    pub(crate) fn core(&mut self, tv: &ViewTuple, view: &View) -> TupleCore {
        let Cores {
            query,
            variables,
            terms,
            starts,
            scratch,
        } = self;
        let exposed = &tv.atom.terms;
        if !scratch.expansion.fill(view, exposed) {
            return TupleCore::empty();
        }

        // Classify every variable once, then every body term by lookup.
        scratch.by_variable.clear();
        scratch
            .by_variable
            .extend(variables.iter().enumerate().map(|(k, v)| {
                let t = Term::Var(v.symbol);
                if exposed.contains(&t) {
                    Want::Exactly(t)
                } else if v.distinguished {
                    Want::Nothing
                } else {
                    Want::Local(k)
                }
            }));
        scratch.wants.clear();
        scratch.wants.extend(terms.iter().map(|&c| match c {
            Coded::Const(t) => Want::Exactly(t),
            Coded::Var(k) => scratch.by_variable[k],
        }));

        // Components: subgoals linked by shared local variables, ordered
        // by their first subgoal.
        let components = &mut scratch.components;
        components.clear();
        components.extend((0..query.body.len()).map(|i| 1u64 << i));
        for (v, want) in variables.iter().zip(&scratch.by_variable) {
            if !matches!(want, Want::Local(_)) {
                continue;
            }
            let mut merged = 0;
            components.retain(|&c| {
                let linked = c & v.users != 0;
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
        scratch.assigned.clear();
        scratch.assigned.resize(variables.len(), None);
        scratch.trail.clear();
        scratch.images.clear();
        scratch.mappings.clear();
        let mut search = Search {
            body: &query.body,
            wants: &scratch.wants,
            starts,
            expansion: &scratch.expansion,
            view,
            exposed,
            assigned: &mut scratch.assigned,
            trail: &mut scratch.trail,
            found: &mut scratch.images,
            meter: obs::Meter::start(obs::Phase::Hom),
        };
        for &component in &scratch.components {
            scratch.mappings.push(search.component_mappings(component));
        }
        let meter = search.meter;
        let (images, mappings) = (&scratch.images, &scratch.mappings);

        // Fast path: if no two components can compete for an image, every
        // component with at least one mapping joins the core (the common case;
        // the backtracking resolution below is only needed on overlap).
        let disjoint = mappings.iter().all(|m| {
            let (earlier, rest) = images.split_at(m.start);
            rest[..m.count * m.width]
                .iter()
                .all(|img| !earlier.contains(img))
        });
        if disjoint {
            return TupleCore::of_parts(
                mappings
                    .iter()
                    .filter(|m| m.count > 0)
                    .map(|m| m.component)
                    .collect(),
            );
        }

        // Globally resolve injectivity across components, maximizing coverage.
        scratch.used.clear();
        let mut resolution = Resolution {
            per_component: mappings,
            images,
            used: &mut scratch.used,
            best: None,
            meter,
        };
        resolution.resolve(0, 0);
        // A budget-truncated resolution may not even reach the all-excluded
        // leaf; the empty core is the sound fallback.
        let chosen = resolution.best.map_or(0, |(_, chosen)| chosen);
        TupleCore::of_parts(bits(chosen).map(|c| mappings[c].component).collect())
    }
}

/// The view's body read as the tuple's expansion: one [`Image`] per
/// body term, flat, with each subgoal's range. Refilled for every tuple.
#[derive(Default)]
struct Expansion {
    /// The view's head variables and the tuple arguments they meet.
    bound: Vec<(Symbol, Term)>,
    /// The view's existential variables, by number.
    existentials: Vec<Symbol>,
    images: Vec<Image>,
    /// `images[starts[j]..starts[j + 1]]` are the terms of body atom `j`.
    starts: Vec<usize>,
}

impl Expansion {
    /// Reads `view`'s body as the expansion of the tuple `args`; false
    /// when `args` cannot be a tuple of `view`: wrong arity, a repeated
    /// head variable meeting two arguments, a head constant meeting
    /// another term.
    fn fill(&mut self, view: &View, args: &[Term]) -> bool {
        let head = view.head();
        if head.arity() != args.len() {
            return false;
        }
        let Expansion {
            bound,
            existentials,
            images,
            starts,
        } = self;
        bound.clear();
        for (&h, &a) in head.terms.iter().zip(args) {
            match h {
                Term::Var(v) => match bound_term(bound, v) {
                    None => bound.push((v, a)),
                    Some(prev) if prev == a => {}
                    Some(_) => return false,
                },
                Term::Const(_) if h == a => {}
                Term::Const(_) => return false,
            }
        }
        existentials.clear();
        images.clear();
        starts.clear();
        for atom in &view.definition.body {
            starts.push(images.len());
            images.extend(atom.terms.iter().map(|&t| match t {
                Term::Const(_) => Image::Term(t),
                Term::Var(v) => match bound_term(bound, v) {
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
        true
    }

    /// The expansion's subgoals a query subgoal could map onto: same
    /// predicate, same arity.
    fn targets<'s>(
        &'s self,
        view: &'s View,
        predicate: Symbol,
        arity: usize,
    ) -> impl Iterator<Item = &'s [Image]> + 's {
        view.definition
            .body
            .iter()
            .enumerate()
            .filter(move |(_, atom)| atom.predicate == predicate && atom.arity() == arity)
            .map(|(j, _)| &self.images[self.starts[j]..self.starts[j + 1]])
    }
}

/// Every consistent way to map one component into the expansion: the
/// images of its local variables, `width` per mapping (always in the
/// order the search first meets them), deduplicated, flat in the run's
/// image buffer from `start` on.
struct Mappings {
    /// The component's subgoals.
    component: u64,
    start: usize,
    width: usize,
    /// A component without local variables has mappings of width 0, so
    /// the count is kept beside the images.
    count: usize,
}

impl Mappings {
    fn get<'i>(&self, images: &'i [Image], i: usize) -> &'i [Image] {
        let at = self.start + i * self.width;
        &images[at..at + self.width]
    }
}

/// The backtracking enumeration of component mappings.
struct Search<'a> {
    body: &'a [Atom],
    /// [`Want`]s of every body term, aligned with `starts`.
    wants: &'a [Want],
    starts: &'a [usize],
    expansion: &'a Expansion,
    view: &'a View,
    /// The tuple's arguments.
    exposed: &'a [Term],
    assigned: &'a mut [Option<Image>],
    trail: &'a mut Vec<usize>,
    /// Where the mappings go: the run's flat image buffer.
    found: &'a mut Vec<Image>,
    meter: obs::Meter,
}

impl Search<'_> {
    /// All consistent mappings of a component's local variables; none
    /// when the component cannot be covered at all.
    fn component_mappings(&mut self, component: u64) -> Mappings {
        let mut mappings = Mappings {
            component,
            start: self.found.len(),
            width: 0,
            count: 0,
        };
        self.descend(component, &mut mappings);
        mappings
    }

    /// Maps the subgoals of `rest`, lowest first.
    fn descend(&mut self, rest: u64, mappings: &mut Mappings) {
        if !self.meter.tick() {
            return;
        }
        if rest == 0 {
            // Every local of the component is assigned, in an order the
            // query alone decides: the same at every leaf.
            let known = self.found.len();
            let images = self.trail.iter().filter_map(|&k| self.assigned[k]);
            self.found.extend(images);
            mappings.width = self.found.len() - known;
            let (kept, new) = self.found.split_at(known);
            if (0..mappings.count).any(|i| mappings.get(kept, i) == new) {
                self.found.truncate(known);
            } else {
                mappings.count += 1;
            }
            return;
        }
        let g = rest.trailing_zeros() as usize;
        let (atom, expansion) = (&self.body[g], self.expansion);
        let wants = &self.wants[self.starts[g]..self.starts[g + 1]];
        for target in expansion.targets(self.view, atom.predicate, atom.arity()) {
            let mark = self.trail.len();
            if self.meet(wants, target) {
                self.descend(rest & (rest - 1), mappings);
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
    /// The flat buffer the headers of `per_component` point into.
    images: &'a [Image],
    /// Images taken by the components chosen so far.
    used: &'a mut Vec<Image>,
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
        let (per_component, images) = (self.per_component, self.images);
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
            let mapping = mappings.get(images, i);
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
