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
//! * drop every component no mapping can cover: one holding a subgoal
//!   with a distinguished variable the tuple does not expose (properties
//!   1 and 2 want the identity, which the expansion cannot offer), or a
//!   subgoal whose `(predicate, arity)` the view's body lacks;
//! * enumerate the consistent mappings of each remaining component into
//!   the expansion by backtracking;
//! * resolve cross-component injectivity globally (two components may not
//!   send different local variables to the same existential), maximizing
//!   the number of covered subgoals.
//!
//! The components that make it into the core are kept as
//! [`TupleCore::parts`]: [`crate::certificate`] needs them to tell
//! whether the cores of a cover glue into one containment mapping.
//!
//! The first three steps are mask operations over the run's numbering of
//! the query ([`crate::program`]): the tuple arrives with its exposure —
//! the query variables among its arguments, as a bitset — so the hidden
//! distinguished variables and the locals are two word operations per 64
//! variables, the subgoals they block or link are the unions of their
//! subgoal masks, and the view's slots are a subgoal mask computed once
//! per view. A tuple with no component left has the empty core without
//! a search being started; on the §7 star shape that is about half of
//! them.
//!
//! # No expansion, no fresh symbols
//!
//! `t_v^exp` is never built. The search reads the view's compiled body
//! ([`ViewProgram`]), each of its codes as an [`Image`]: head position
//! `p` is the tuple's argument at `p`, a constant is itself, and the
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
//! What depends on the query alone is the run's table, built once for
//! steps 2 and 3 together, and what depends on the view alone is its
//! program, compiled once per snapshot. What depends on the view *and*
//! the query — the query relation of each body atom — step 2 looked up
//! when it matched the view, and step 3 takes it from there, with the
//! subgoals the view has slots for, once per view (`Cores::select`).
//! Every per-tuple buffer — the components, the
//! assignment and its trail, and the component mappings (one flat buffer,
//! one header per component) — lives in one scratch the run reuses for
//! every tuple, so only the returned [`TupleCore`] allocates, and a core
//! that is empty allocates nothing. The node meter is started per tuple
//! that searches: node caps are per search. [`tuple_core`] builds the
//! table, the program and the scratch for its one tuple.
//!
//! Lemma 4.2 (uniqueness of the maximal core) is asserted in debug builds.

use crate::cover::bits;
use crate::program::{has, Code, QueryTable, ViewProgram};
use crate::view_tuple::{Matched, Matcher, ViewTuple};
use viewplan_cq::{ConjunctiveQuery, ViewSet};
use viewplan_obs as obs;

/// The tuple-core of a view tuple: the covered subgoals of the minimized
/// query, as a bitmask over its body and as all-or-nothing parts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TupleCore {
    mask: u64,
    parts: Vec<u64>,
}

impl TupleCore {
    /// The empty core.
    pub(crate) fn empty() -> TupleCore {
        TupleCore {
            mask: 0,
            parts: Vec::new(),
        }
    }

    /// The core made of whole components, given as subgoal bitmasks.
    pub(crate) fn of_parts(parts: Vec<u64>) -> TupleCore {
        TupleCore {
            mask: parts.iter().fold(0, |m, &part| m | part),
            parts,
        }
    }

    /// True iff no subgoal is covered.
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// The core as a bitmask over subgoal indices (queries have ≤ 64
    /// subgoals in this system; enforced by [`tuple_core`]).
    pub fn bitmask(&self) -> u64 {
        self.mask
    }

    /// Indices of the covered subgoals in the minimized query's body,
    /// ascending.
    pub fn subgoals(&self) -> impl Iterator<Item = usize> {
        bits(self.mask)
    }

    /// The covered subgoals as bitmasks, one per component linked by
    /// shared local variables (see the module docs): the all-or-nothing
    /// units of property (3). They partition [`TupleCore::bitmask`], and
    /// they are what a [cover certificate](crate::certify) deals out.
    pub fn parts(&self) -> &[u64] {
        &self.parts
    }
}

/// A term of the tuple's expansion (module docs, "No expansion").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Image {
    /// A term in the query's vocabulary, coded over the run's table: an
    /// argument of the view tuple, or a constant of the view body.
    Term(Code),
    /// The view's `k`-th existential variable. Local to one tuple-core
    /// computation; never equal to a query term, whatever it is called.
    Existential(u32),
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
    let program = ViewProgram::compile(view);
    if !program.admits(&tv.atom.terms) {
        return TupleCore::empty();
    }
    let table = QueryTable::of(min_query);
    let args: Vec<Code> = tv
        .atom
        .terms
        .iter()
        .enumerate()
        .map(|(p, &t)| table.code(t, p))
        .collect();
    let mut exposure = vec![0; table.words];
    table.expose(&args, &mut exposure);
    let mut relations = Vec::new();
    table.relations_of(&program, &mut relations);
    let mut cores = Cores::of(&table);
    cores.select(&relations);
    cores.core(&program, &args, &exposure)
}

/// The tuple-core of every view tuple of `view` over `min_query`, as
/// subgoal bitmasks in view-tuple order: what [`view_tuples`] and
/// [`tuple_core`] give for a view set holding `view` alone, from one
/// table and the view's program, without building a tuple.
///
/// [`view_tuples`]: crate::view_tuples
///
/// # Panics
/// Panics if the query has more than 64 subgoals.
pub fn core_masks(min_query: &ConjunctiveQuery, view: &ViewProgram) -> Vec<u64> {
    let table = QueryTable::of(min_query);
    let mut found = Matched::of(&table);
    Matcher::default().match_view(&table, view, 0, &mut found);
    let mut cores = Cores::of(&table);
    if found.len() > 0 {
        cores.select(found.relations(0));
    }
    (0..found.len())
        .map(|t| cores.core(view, found.args(t), found.exposure(t)).bitmask())
        .collect()
}

/// The tuple-cores of one run: the run's table, what the view being read
/// offers the query, and the scratch every tuple's search reuses (module
/// docs, "What a run allocates").
pub(crate) struct Cores<'t, 'q> {
    table: &'t QueryTable<'q>,
    /// The table relation of each body atom of the selected view.
    relations: Vec<usize>,
    /// The subgoals whose relation the selected view's body has.
    slots: u64,
    scratch: Scratch,
}

/// Every per-tuple buffer; a tuple clears or overwrites each one before
/// it reads it.
#[derive(Default)]
struct Scratch {
    /// Subgoals linked by shared local variables, ordered by their first
    /// subgoal; after the drop, only those a mapping could cover.
    components: Vec<u64>,
    /// Image of each local variable, if assigned, by number. Every
    /// search leaves it unassigned again.
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

impl<'t, 'q> Cores<'t, 'q> {
    /// The cores of tuples over `table`'s query.
    ///
    /// # Panics
    /// Panics if the query has more than 64 subgoals.
    pub(crate) fn of(table: &'t QueryTable<'q>) -> Cores<'t, 'q> {
        assert!(
            table.query.body.len() <= 64,
            "queries are limited to 64 subgoals"
        );
        let mut scratch = Scratch::default();
        scratch.assigned.resize(table.variables.len(), None);
        Cores {
            table,
            relations: Vec::new(),
            slots: 0,
            scratch,
        }
    }

    /// Reads the tuples that follow as tuples of the view whose body
    /// atoms have the table relations `relations`
    /// ([`QueryTable::relations_of`]): the subgoals it has slots for.
    pub(crate) fn select(&mut self, relations: &[usize]) {
        self.relations.clear();
        self.relations.extend_from_slice(relations);
        self.slots = relations
            .iter()
            .filter(|&&r| r != QueryTable::NONE)
            .fold(0, |slots, &r| slots | self.table.relations[r].subgoals);
    }

    /// The tuple-core of the tuple of `view` — the view last selected —
    /// with arguments `args` (coded over the run's table) and exposure
    /// `exposed`.
    pub(crate) fn core(&mut self, view: &ViewProgram, args: &[Code], exposed: &[u64]) -> TupleCore {
        let Cores {
            table,
            relations,
            slots,
            scratch,
        } = self;
        let n = table.query.body.len();
        let universe = if n == 0 { 0 } else { u64::MAX >> (64 - n) };

        // Subgoals no mapping covers: a relation the view lacks, or a
        // distinguished variable the tuple hides.
        let mut blocked = universe & !*slots;
        for (w, (&distinguished, &exposed)) in table.distinguished.iter().zip(exposed).enumerate() {
            for k in bits(distinguished & !exposed) {
                blocked |= table.users[w * 64 + k];
            }
        }
        if blocked == universe {
            return TupleCore::empty();
        }

        // Components: subgoals linked by shared local variables. Those
        // holding a blocked subgoal are dropped; the rest are ordered by
        // their first subgoal.
        let components = &mut scratch.components;
        components.clear();
        components.extend(bits(universe).map(|i| 1u64 << i));
        let variables = table.variables.len();
        for (w, (&distinguished, &exposed)) in table.distinguished.iter().zip(exposed).enumerate() {
            let present = match variables - w * 64 {
                64.. => u64::MAX,
                rest => (1 << rest) - 1,
            };
            for k in bits(!distinguished & !exposed & present) {
                let users = table.users[w * 64 + k];
                if users.count_ones() < 2 {
                    continue; // one subgoal: it links nothing
                }
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
        }
        components.retain(|&c| c & blocked == 0);
        if components.is_empty() {
            return TupleCore::empty();
        }
        components.sort_unstable_by_key(|c| c.trailing_zeros());

        // Enumerate each component's consistent mappings. One meter covers
        // the whole per-tuple search; truncation only *shrinks* the core
        // (an underestimated core is a subset of the true core, and covers
        // built from subsets are still valid rewritings).
        scratch.trail.clear();
        scratch.images.clear();
        scratch.mappings.clear();
        let mut search = Search {
            table,
            view,
            relations,
            args,
            exposed,
            assigned: &mut scratch.assigned,
            trail: &mut scratch.trail,
            found: &mut scratch.images,
            meter: obs::Meter::start(obs::Phase::Hom),
        };
        for &component in components.iter() {
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
    table: &'a QueryTable<'a>,
    view: &'a ViewProgram,
    /// [`Cores::relations`] of the view.
    relations: &'a [usize],
    /// The tuple's arguments and exposure.
    args: &'a [Code],
    exposed: &'a [u64],
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
        let (table, view) = (self.table, self.view);
        let wants = table.subgoal(g);
        let r = table.relation_of[g];
        for j in (0..view.atoms()).filter(|&j| self.relations[j] == r) {
            let mark = self.trail.len();
            if self.meet(wants, view.atom(j).1) {
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

    /// Attempts to map one subgoal onto one body atom of the expansion
    /// under the Definition 4.1 constraints, assigning its unassigned
    /// locals (the caller takes them back, also after a failure half
    /// way).
    fn meet(&mut self, wants: &[Code], target: &[Code]) -> bool {
        let arity = self.view.arity() as u32;
        for (&want, &code) in wants.iter().zip(target) {
            let image = match code {
                Code::Var(n) if n < arity => Image::Term(self.args[n as usize]),
                Code::Var(n) => Image::Existential(n - arity),
                Code::Const(_) => Image::Term(code),
            };
            match want {
                // A constant is fixed by any containment mapping, and an
                // exposed variable maps to itself (property 1).
                Code::Const(_) => {
                    if image != Image::Term(want) {
                        return false;
                    }
                }
                Code::Var(k) if has(self.exposed, k as usize) => {
                    if image != Image::Term(want) {
                        return false;
                    }
                }
                Code::Var(k) => {
                    let k = k as usize;
                    debug_assert!(
                        !has(&self.table.distinguished, k),
                        "a hidden distinguished variable's component is dropped"
                    );
                    // A tuple-argument image would collide with the
                    // identity part under one-to-one-ness.
                    if matches!(image, Image::Term(t) if self.args.contains(&t)) {
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
                            || obs::budget_active(),
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
                (t.to_string(), core.subgoals().collect())
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
            .map(|t| tuple_core(&q, t, &views).parts().to_vec())
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
