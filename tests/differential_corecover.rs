//! Differential test of CoreCover's three inner loops against the code
//! they replaced.
//!
//! The replaced bodies live here, on public functions of
//! `viewplan-engine` and `viewplan-containment`, as the reference:
//!
//! * **view tuples** — freeze the query into its canonical database,
//!   `evaluate` every view definition over it, thaw, drop duplicates;
//! * **tuple-cores** — Definition 4.1's search over `expand_atom`'s
//!   freshened expansion, with hash sets and maps of terms;
//! * **minimum covers** — subsets in increasing index order, learning
//!   the minimum on the way.
//!
//! What must agree: the view-tuple lists *in order*, `subgoals` and
//! `parts` of every tuple's core (also under a per-search node cap: the
//! new search ticks its meter at the same nodes), the minimum-cover
//! lists in order, and the rewritings `CoreCover` prints with and
//! without prepared views.
//!
//! The tuples and cores are compared twice: through the public per-call
//! `view_tuples` / `tuple_core`, and as `CoreCover::run` and
//! `run_all_minimal` return them ([`run_path_agrees`]). A run reuses one
//! scratch for every view and every tuple, which a per-call function
//! never does, so only the second comparison sees a buffer a run forgets
//! to reset between tuples — for instance the per-variable
//! classification table refilled only where it was still empty, so that
//! a later tuple reads the exposed variables of an earlier one.
//!
//! Instances: the §7 star / chain / random generators at 1 000 views, and
//! small random problems over two predicates with self-joins, constants
//! in bodies and heads, repeated head variables and view variables
//! spelled like the query's — see [`small_problem`]. The random queries
//! are *not* minimized: redundant subgoals are what makes components of
//! one tuple-core compete for an existential (the `resolve` path), and
//! an installed budget — however generous — is what turns the Lemma 4.2
//! debug assertion off for them.

mod common;

use common::small_problem;
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use viewplan::containment::expand_atom;
use viewplan::core::{all_minimum_covers, view_tuples, PreparedViews, ViewTuple};
use viewplan::engine::unfreeze_value;
use viewplan::obs::{self, BudgetSpec, Meter, Phase};
use viewplan::prelude::*;

// ---------------------------------------------------------------------
// Reference: view tuples by evaluation over the canonical database.
// ---------------------------------------------------------------------

/// `T(Q, V)` as §3.3 prescribes it; also how many views gave more than
/// one tuple.
fn reference_view_tuples(qm: &ConjunctiveQuery, views: &ViewSet) -> (Vec<ViewTuple>, usize) {
    let canonical = canonical_database(qm);
    let mut out: Vec<ViewTuple> = Vec::new();
    let mut several = 0;
    for view in views {
        let rel = evaluate(&view.definition, &canonical);
        let mut own: Vec<ViewTuple> = Vec::new();
        for row in 0..rel.len() {
            let terms = (0..rel.arity())
                .map(|c| unfreeze_value(rel.column(c).value(row)))
                .collect();
            let vt = ViewTuple {
                view: view.name(),
                atom: Atom::new(view.name(), terms),
            };
            if !own.contains(&vt) {
                own.push(vt);
            }
        }
        several += usize::from(own.len() > 1);
        out.extend(own);
    }
    (out, several)
}

// ---------------------------------------------------------------------
// Reference: tuple-cores over the freshened expansion.
// ---------------------------------------------------------------------

type ComponentMapping = BTreeMap<Symbol, Term>;

#[derive(Debug, PartialEq, Eq)]
struct ReferenceCore {
    subgoals: BTreeSet<usize>,
    parts: Vec<u64>,
}

impl ReferenceCore {
    fn empty() -> ReferenceCore {
        ReferenceCore {
            subgoals: BTreeSet::new(),
            parts: Vec::new(),
        }
    }

    fn absorb(&mut self, component: &[usize]) {
        self.subgoals.extend(component.iter().copied());
        self.parts
            .push(component.iter().fold(0u64, |m, &i| m | (1 << i)));
    }
}

/// The tuple-core of `tv`, and whether components competed for an image
/// (the `resolve` path was taken).
fn reference_tuple_core(
    min_query: &ConjunctiveQuery,
    tv: &ViewTuple,
    views: &ViewSet,
) -> (ReferenceCore, bool) {
    let Ok(texp) = expand_atom(&tv.atom, views) else {
        return (ReferenceCore::empty(), false);
    };
    let tv_terms: HashSet<Term> = tv.atom.terms.iter().copied().collect();
    let distinguished = min_query.distinguished_set();
    let is_local = |v: Symbol| !distinguished.contains(&v) && !tv_terms.contains(&Term::Var(v));

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
    components.sort();

    let mut meter = Meter::start(Phase::Hom);
    let per_component: Vec<(Vec<usize>, Vec<ComponentMapping>)> = components
        .into_iter()
        .map(|comp| {
            let mappings =
                component_mappings(min_query, &comp, &texp, &tv_terms, &is_local, &mut meter);
            (comp, mappings)
        })
        .collect();

    let image_sets: Vec<HashSet<Term>> = per_component
        .iter()
        .map(|(_, ms)| ms.iter().flat_map(|m| m.values().copied()).collect())
        .collect();
    let disjoint = (0..image_sets.len())
        .all(|i| (i + 1..image_sets.len()).all(|j| image_sets[i].is_disjoint(&image_sets[j])));
    if disjoint {
        let mut core = ReferenceCore::empty();
        for (comp, mappings) in &per_component {
            if !mappings.is_empty() {
                core.absorb(comp);
            }
        }
        return (core, false);
    }

    let mut best: Option<(usize, ReferenceCore)> = None;
    let mut chosen: Vec<Option<usize>> = vec![None; per_component.len()];
    resolve(
        &per_component,
        0,
        &mut chosen,
        &mut HashSet::new(),
        &mut best,
        &mut meter,
    );
    (
        best.map(|(_, core)| core)
            .unwrap_or_else(ReferenceCore::empty),
        true,
    )
}

fn component_mappings(
    q: &ConjunctiveQuery,
    comp: &[usize],
    texp: &[Atom],
    tv_terms: &HashSet<Term>,
    is_local: &dyn Fn(Symbol) -> bool,
    meter: &mut Meter,
) -> Vec<ComponentMapping> {
    let mut results: Vec<ComponentMapping> = Vec::new();
    let mut seen: HashSet<ComponentMapping> = HashSet::new();
    search_component(
        q,
        comp,
        0,
        texp,
        tv_terms,
        is_local,
        &mut BTreeMap::new(),
        &mut HashSet::new(),
        meter,
        &mut |m| {
            if seen.insert(m.clone()) {
                results.push(m.clone());
            }
        },
    );
    results
}

#[allow(clippy::too_many_arguments)] // the replaced code, kept as it was
fn search_component(
    q: &ConjunctiveQuery,
    comp: &[usize],
    depth: usize,
    texp: &[Atom],
    tv_terms: &HashSet<Term>,
    is_local: &dyn Fn(Symbol) -> bool,
    assignment: &mut ComponentMapping,
    used: &mut HashSet<Term>,
    meter: &mut Meter,
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
            if let Some(img) = assignment.remove(&v) {
                used.remove(&img);
            }
        }
        if meter.exhausted() {
            return;
        }
    }
}

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
            Term::Const(_) => {
                if pt != tt {
                    return false;
                }
            }
            Term::Var(v) if !is_local(v) => {
                if *tt != Term::Var(v) || !tv_terms.contains(&Term::Var(v)) {
                    return false;
                }
            }
            Term::Var(v) => {
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

fn resolve(
    per_component: &[(Vec<usize>, Vec<ComponentMapping>)],
    depth: usize,
    chosen: &mut Vec<Option<usize>>,
    used: &mut HashSet<Term>,
    best: &mut Option<(usize, ReferenceCore)>,
    meter: &mut Meter,
) {
    if !meter.tick() {
        return;
    }
    if depth == per_component.len() {
        let mut core = ReferenceCore::empty();
        for (c, pick) in per_component.iter().zip(chosen.iter()) {
            if pick.is_some() {
                core.absorb(&c.0);
            }
        }
        let size = core.subgoals.len();
        if best.as_ref().is_none_or(|(bs, _)| size > *bs) {
            *best = Some((size, core));
        }
        return;
    }
    let (_, mappings) = &per_component[depth];
    for (mi, m) in mappings.iter().enumerate() {
        if m.values().any(|img| used.contains(img)) {
            continue;
        }
        used.extend(m.values().copied());
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
    resolve(per_component, depth + 1, chosen, used, best, meter);
}

// ---------------------------------------------------------------------
// Reference: minimum covers as subsets in increasing index order.
// ---------------------------------------------------------------------

fn reference_minimum_covers(universe: u64, sets: &[u64]) -> Vec<Vec<usize>> {
    if universe == 0 {
        return vec![Vec::new()];
    }
    if sets.iter().fold(0u64, |a, &s| a | s) & universe != universe {
        return Vec::new();
    }
    let mut best_size = usize::MAX;
    let mut covers: Vec<Vec<usize>> = Vec::new();
    minimum_dfs(
        universe,
        sets,
        0,
        0,
        &mut Vec::new(),
        &mut best_size,
        &mut covers,
    );
    covers
}

fn minimum_dfs(
    universe: u64,
    sets: &[u64],
    start: usize,
    covered: u64,
    chosen: &mut Vec<usize>,
    best_size: &mut usize,
    covers: &mut Vec<Vec<usize>>,
) {
    if covered & universe == universe {
        match chosen.len().cmp(best_size) {
            std::cmp::Ordering::Less => {
                *best_size = chosen.len();
                covers.clear();
                covers.push(chosen.clone());
            }
            std::cmp::Ordering::Equal => covers.push(chosen.clone()),
            std::cmp::Ordering::Greater => {}
        }
        return;
    }
    if chosen.len() >= *best_size {
        return;
    }
    let rest: u64 = sets[start..].iter().fold(0u64, |a, &s| a | s);
    if (covered | rest) & universe != universe {
        return;
    }
    for i in start..sets.len() {
        if sets[i] & universe & !covered == 0 {
            continue;
        }
        chosen.push(i);
        minimum_dfs(
            universe,
            sets,
            i + 1,
            covered | sets[i],
            chosen,
            best_size,
            covers,
        );
        chosen.pop();
    }
}

// ---------------------------------------------------------------------
// Reference: minimization with every containment check run.
// ---------------------------------------------------------------------

/// The greedy minimization loop before it skipped any subgoal: every
/// subgoal is tried, whether or not another subgoal could absorb it.
fn reference_minimize(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut current = q.dedup_subgoals();
    let mut i = 0;
    while i < current.body.len() && current.body.len() > 1 {
        let candidate = current.without_subgoal(i);
        if is_contained_in(&candidate, &current) {
            current = candidate;
            i = 0;
        } else {
            i += 1;
        }
    }
    current
}

/// `query` with, for every bit `i` of `unary`, the first argument of
/// subgoal `i` under the same predicate at arity 1 appended: one
/// predicate at two arities, which `minimize` must keep apart.
fn with_unary_twins(query: &ConjunctiveQuery, unary: u32) -> ConjunctiveQuery {
    let mut body = query.body.clone();
    for (i, atom) in query.body.iter().enumerate() {
        if unary & (1 << i) != 0 {
            body.push(Atom::new(atom.predicate, vec![atom.terms[0]]));
        }
    }
    ConjunctiveQuery::new(query.head.clone(), body)
}

// ---------------------------------------------------------------------
// Instances and the comparison.
// ---------------------------------------------------------------------

/// The budget both sides run under: a per-search node cap on the
/// tuple-core searches, or a budget too large to bind.
fn budget(hom_cap: Option<u64>) -> BudgetSpec {
    match hom_cap {
        Some(cap) => BudgetSpec::new().phase_nodes(Phase::Hom, cap),
        None => BudgetSpec::new().node_budget(1 << 40),
    }
}

/// What one comparison exercised, so a fixed range of seeds can be shown
/// to reach the interesting paths.
#[derive(Default)]
struct Reached {
    views_with_several_tuples: usize,
    empty_cores: usize,
    resolved: usize,
    refused_tuples: usize,
}

/// Compares the three steps on one instance, the query taken as given.
/// `hom_cap`, when set, is the per-search node cap the tuple-cores are
/// computed under, on both sides.
fn compare(
    query: &ConjunctiveQuery,
    views: &ViewSet,
    hom_cap: Option<u64>,
    reached: &mut Reached,
) -> Result<(), TestCaseError> {
    let tuples = view_tuples(query, views);
    let (expected, several) = reference_view_tuples(query, views);
    prop_assert_eq!(
        &tuples,
        &expected,
        "view tuples of {}\nover\n{}",
        query,
        views
    );
    reached.views_with_several_tuples += several;

    // Beside the tuples the views really have, one per view that breaks
    // its head: the first argument repeated everywhere.
    let broken = views.iter().filter(|v| v.arity() > 1).map(|v| {
        let first = query.body[0].terms[0];
        ViewTuple {
            view: v.name(),
            atom: Atom::new(v.name(), vec![first; v.arity()]),
        }
    });
    let spec = budget(hom_cap);
    let mut masks = Vec::new();
    for tv in tuples.iter().cloned().chain(broken) {
        let core = {
            let _g = obs::budget::install(spec.build());
            tuple_core(query, &tv, views)
        };
        let (expected, resolved) = {
            let _g = obs::budget::install(spec.build());
            reference_tuple_core(query, &tv, views)
        };
        prop_assert_eq!(
            (&core.subgoals, &core.parts),
            (&expected.subgoals, &expected.parts),
            "core of {} for {}\nover\n{}",
            tv,
            query,
            views
        );
        reached.resolved += usize::from(resolved);
        reached.empty_cores += usize::from(core.is_empty());
        reached.refused_tuples += usize::from(expand_atom(&tv.atom, views).is_err());
        if !core.is_empty() {
            masks.push(core.bitmask());
        }
    }

    let universe = match query.body.len() {
        0 => 0,
        n => u64::MAX >> (64 - n),
    };
    // One mask per tuple-core class, as CoreCover covers; a handful of
    // tuples also with their duplicate cores, each a set of its own.
    let mut representatives = masks.clone();
    let mut seen = HashSet::new();
    representatives.retain(|m| seen.insert(*m));
    for sets in [&representatives, &masks] {
        if sets.len() > 40 {
            continue;
        }
        prop_assert_eq!(
            all_minimum_covers(universe, sets),
            reference_minimum_covers(universe, sets),
            "covers of {:#b} by {:?}",
            universe,
            sets
        );
    }
    Ok(())
}

/// The view tuples and cores of `CoreCover::run` and `run_all_minimal`,
/// in run order, against the references over the run's own minimized
/// query. With the §5.2 view grouping off a run matches every view and
/// its tuples are the reference list itself; with it on, the run keeps
/// the tuples of one representative per class, in the reference order.
fn run_path_agrees(
    query: &ConjunctiveQuery,
    views: &ViewSet,
    hom_cap: Option<u64>,
) -> Result<(), TestCaseError> {
    let spec = budget(hom_cap);
    for (group, all_minimal) in [(true, false), (true, true), (false, false)] {
        let config = CoreCoverConfig {
            group_equivalent_views: group,
            ..CoreCoverConfig::default()
        };
        let result = {
            let _g = obs::budget::install(spec.build());
            let run = CoreCover::new(query, views).with_config(config);
            if all_minimal {
                run.run_all_minimal()
            } else {
                run.run()
            }
        };
        let qm = &result.minimized_query;
        let (mut expected, _) = reference_view_tuples(qm, views);
        if group {
            let kept: HashSet<Symbol> = result.view_tuples.iter().map(|t| t.view).collect();
            expected.retain(|t| kept.contains(&t.view));
        }
        prop_assert_eq!(
            &result.view_tuples,
            &expected,
            "run view tuples (grouping {}, all minimal {}) of {}\nover\n{}",
            group,
            all_minimal,
            query,
            views
        );
        prop_assert_eq!(result.cores.len(), result.view_tuples.len());
        for (tv, core) in result.view_tuples.iter().zip(&result.cores) {
            let (expected, _) = {
                let _g = obs::budget::install(spec.build());
                reference_tuple_core(qm, tv, views)
            };
            prop_assert_eq!(
                (&core.subgoals, &core.parts),
                (&expected.subgoals, &expected.parts),
                "run core of {} (grouping {}, all minimal {}) for {}\nover\n{}",
                tv,
                group,
                all_minimal,
                query,
                views
            );
        }
    }
    Ok(())
}

fn printed(result: &viewplan::core::CoreCoverResult) -> Vec<String> {
    result.rewritings().iter().map(|r| r.to_string()).collect()
}

/// `CoreCover` and `CoreCover*` print the same rewritings whether the
/// views were prepared or not.
fn prepared_matches_fresh(w: &Workload) -> Result<(), TestCaseError> {
    let prepared = PreparedViews::prepare(&w.views);
    let fresh = CoreCover::new(&w.query, &w.views);
    let pre = CoreCover::with_prepared_views(&w.query, &prepared);
    prop_assert_eq!(printed(&fresh.run()), printed(&pre.run()));
    prop_assert_eq!(
        printed(&fresh.run_all_minimal()),
        printed(&pre.run_all_minimal())
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn small_problems_agree_with_the_replaced_code(seed in 0u64..1_000_000) {
        let w = small_problem(seed);
        compare(&w.query, &w.views, None, &mut Reached::default())?;
        compare(&minimize(&w.query), &w.views, None, &mut Reached::default())?;
        run_path_agrees(&w.query, &w.views, None)?;
        prepared_matches_fresh(&w)?;
    }

    #[test]
    fn node_capped_tuple_cores_stop_at_the_same_node(
        seed in 0u64..1_000_000,
        cap in 1u64..24,
    ) {
        let w = small_problem(seed);
        compare(&w.query, &w.views, Some(cap), &mut Reached::default())?;
        run_path_agrees(&w.query, &w.views, Some(cap))?;
    }

    /// `minimize` skips a subgoal whose (predicate, arity) pair occurs
    /// once and must return what the loop that checks every subgoal
    /// returns, atom for atom and in order. Counting a pair's other
    /// occurrences only among the *earlier* subgoals fails here: it skips
    /// the first of two foldable twins and removes the second instead.
    #[test]
    fn minimize_agrees_with_the_loop_that_checks_every_subgoal(
        seed in 0u64..1_000_000,
        unary in 0u32..32,
    ) {
        let query = with_unary_twins(&small_problem(seed).query, unary);
        prop_assert_eq!(minimize(&query), reference_minimize(&query), "{}", query);
    }

    #[test]
    fn minimum_covers_agree_on_random_sets(
        width in 1usize..=10,
        sets in proptest::collection::vec(1u64..1024, 0..14),
    ) {
        let universe = u64::MAX >> (64 - width);
        prop_assert_eq!(
            all_minimum_covers(universe, &sets),
            reference_minimum_covers(universe, &sets)
        );
    }
}

/// The small problems are there for the paths the §7 shapes never take:
/// over a fixed range of seeds they must reach views with several
/// tuples, empty cores, competing components and tuples a view cannot
/// produce, or the properties above test less than they claim.
#[test]
fn small_problems_reach_the_paths_they_are_for() {
    let mut reached = Reached::default();
    for seed in 0..400 {
        let w = small_problem(seed);
        compare(&w.query, &w.views, None, &mut reached)
            .unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
    }
    assert!(
        reached.views_with_several_tuples > 0
            && reached.empty_cores > 0
            && reached.resolved > 0
            && reached.refused_tuples > 0,
        "several tuples {}, empty cores {}, resolved {}, refused {}",
        reached.views_with_several_tuples,
        reached.empty_cores,
        reached.resolved,
        reached.refused_tuples
    );
}

/// The §7 generators at the size the benchmark runs them at.
#[test]
fn section7_shapes_agree_at_a_thousand_views() {
    for config in [
        WorkloadConfig::star(1000, 2, 20),
        WorkloadConfig::chain(1000, 0, 21),
        WorkloadConfig::random(1000, 1, 22),
    ] {
        let w = generate(&config);
        let mut reached = Reached::default();
        compare(&minimize(&w.query), &w.views, None, &mut reached)
            .unwrap_or_else(|e| panic!("{:?}: {e:?}", config.shape));
        run_path_agrees(&w.query, &w.views, None)
            .unwrap_or_else(|e| panic!("{:?}: {e:?}", config.shape));
        prepared_matches_fresh(&w).unwrap_or_else(|e| panic!("{:?}: {e:?}", config.shape));
    }
}
