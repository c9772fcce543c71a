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
//! The view prefilter is held to what it shortcuts the same way
//! ([`prune_agrees`]): a view the catalog index drops has no tuple in the
//! evaluation, and pruning changes no printed rewriting.
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
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use viewplan::containment::expand_atom;
use viewplan::core::{
    all_minimum_covers, body_signature, view_is_unusable, view_tuples, CatalogIndex, PreparedViews,
    ViewTuple,
};
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
    // A component no mapping can cover — it holds a subgoal with a
    // distinguished variable the tuple does not expose, or one no atom of
    // the expansion has the predicate and arity of — is not searched.
    // Uncapped, it would find no mapping anyway; under a node cap, the
    // search spends no node on it. Catches a search that starts on such
    // a component (it stops at another node than this one).
    let coverable = |i: &usize| {
        let g = &min_query.body[*i];
        g.variables()
            .all(|v| !distinguished.contains(&v) || tv_terms.contains(&Term::Var(v)))
            && texp
                .iter()
                .any(|t| t.predicate == g.predicate && t.arity() == g.arity())
    };
    components.retain(|comp| comp.iter().all(coverable));
    if components.is_empty() {
        return (ReferenceCore::empty(), false);
    }

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
            let _g = obs::install_budget(spec);
            tuple_core(query, &tv, views)
        };
        let (expected, resolved) = {
            let _g = obs::install_budget(spec);
            reference_tuple_core(query, &tv, views)
        };
        prop_assert_eq!(
            (core.subgoals().collect::<BTreeSet<_>>(), core.parts()),
            (expected.subgoals, expected.parts.as_slice()),
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
            let _g = obs::install_budget(spec);
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
                let _g = obs::install_budget(spec);
                reference_tuple_core(qm, tv, views)
            };
            prop_assert_eq!(
                (core.subgoals().collect::<BTreeSet<_>>(), core.parts()),
                (expected.subgoals, expected.parts.as_slice()),
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

/// The view prefilter (`crates/core/src/prune.rs`) against what it
/// shortcuts: every view the catalog index drops has no tuple in the
/// reference evaluation, the index keeps exactly what the linear
/// `view_is_unusable` filter keeps, and `CoreCover` and `CoreCover*`
/// print the same rewritings with pruning off, with and without view
/// grouping.
fn prune_agrees(w: &Workload) -> Result<(), TestCaseError> {
    let qm = minimize(&w.query);
    let needed = body_signature(&qm);
    let kept = CatalogIndex::build(&w.views, &[]).usable_views(&needed, false);
    let linear: Vec<usize> = (0..w.views.len())
        .filter(|&i| !view_is_unusable(&needed, &w.views.as_slice()[i]))
        .collect();
    prop_assert_eq!(&kept, &linear, "{}\nover\n{}", qm, w.views);
    let (tuples, _) = reference_view_tuples(&qm, &w.views);
    for (i, view) in w.views.iter().enumerate() {
        if kept.binary_search(&i).is_err() {
            prop_assert!(
                tuples.iter().all(|t| t.view != view.name()),
                "pruned {} has a view tuple for {}",
                view.name(),
                qm
            );
        }
    }
    for group in [true, false] {
        let pruned = CoreCoverConfig {
            group_equivalent_views: group,
            ..CoreCoverConfig::default()
        };
        let unpruned = CoreCoverConfig {
            prune_unusable_views: false,
            ..pruned.clone()
        };
        let run = |config: &CoreCoverConfig| {
            let cover = CoreCover::new(&w.query, &w.views).with_config(config.clone());
            (printed(&cover.run()), printed(&cover.run_all_minimal()))
        };
        prop_assert_eq!(
            run(&pruned),
            run(&unpruned),
            "grouping {}: {}",
            group,
            w.query
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn pruned_views_have_no_tuples_and_change_no_rewriting(seed in 0u64..1_000_000) {
        prune_agrees(&small_problem(seed))?;
    }

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

/// Over a fixed range of seeds the small problems must hold views that
/// share the query's pairs and are pruned on a join alone, or the
/// prefilter property above tests only the pair half of the condition.
#[test]
fn small_problems_reach_views_pruned_on_a_join() {
    let mut on_a_join = 0;
    for seed in 0..400 {
        let w = small_problem(seed);
        let qm = minimize(&w.query);
        let needed = body_signature(&qm);
        on_a_join += w
            .views
            .iter()
            .filter(|v| {
                v.definition
                    .body
                    .iter()
                    .all(|a| needed.pairs().contains(&(a.predicate, a.arity())))
                    && view_is_unusable(&needed, v)
            })
            .count();
    }
    assert!(on_a_join > 0, "no view pruned on a join alone");
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
        prune_agrees(&w).unwrap_or_else(|e| panic!("{:?}: {e:?}", config.shape));
    }
}

/// A query with more than 64 variables, so that an exposure takes two
/// words, and views whose heads repeat a variable or carry a constant:
/// a chain of 33 to 40 ternary subgoals over distinct predicates,
/// `p{i}(X{2i}, X{2i+1}, X{2i+2})`, then `s(Xr, Xr, c)`, with a seeded
/// third of the variables distinguished. Each view is a seeded run of
/// the chain, or the `s` subgoal alone, over variables of its own; its
/// head is a seeded half of them, now and then with its first variable
/// repeated or a constant (`c`, or `k` the query lacks) appended.
fn wide_problem(seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(33..=40usize);
    let r = rng.gen_range(0..=2 * n);
    let chain = |range: std::ops::Range<usize>, v: &str| -> Vec<String> {
        range
            .map(|i| format!("p{i}({v}{}, {v}{}, {v}{})", 2 * i, 2 * i + 1, 2 * i + 2))
            .collect()
    };
    let mut body = chain(0..n, "X");
    body.push(format!("s(X{r}, X{r}, c)"));
    let head: Vec<String> = (0..=2 * n)
        .filter(|_| rng.gen_bool(0.3))
        .map(|i| format!("X{i}"))
        .collect();
    let query = format!("q({}) :- {}", head.join(", "), body.join(", "));
    let mut views = String::new();
    for v in 0..rng.gen_range(6..=10usize) {
        let (body, variables): (Vec<String>, Vec<String>) = if rng.gen_bool(0.2) {
            (vec!["s(A, A, c)".to_string()], vec!["A".to_string()])
        } else {
            let start = rng.gen_range(0..n);
            let end = rng.gen_range(start + 1..=n.min(start + 6));
            let variables = (2 * start..=2 * end).map(|i| format!("A{i}")).collect();
            (chain(start..end, "A"), variables)
        };
        let mut head: Vec<String> = variables
            .into_iter()
            .filter(|_| rng.gen_bool(0.5))
            .collect();
        if !head.is_empty() && rng.gen_bool(0.3) {
            let pos = rng.gen_range(0..=head.len());
            head.insert(pos, head[0].clone());
        }
        if rng.gen_bool(0.3) {
            let pos = rng.gen_range(0..=head.len());
            head.insert(pos, ["c", "k"][rng.gen_range(0..2usize)].to_string());
        }
        views.push_str(&format!(
            "v{v}({}) :- {}.\n",
            head.join(", "),
            body.join(", ")
        ));
    }
    Workload {
        query: parse_query(&query).unwrap_or_else(|e| panic!("{query}: {e}")),
        views: parse_views(&views).unwrap_or_else(|e| panic!("{views}: {e}")),
    }
}

/// `tuple` with each constraint of `view`'s head broken in turn: a
/// repeated head variable's later position, or a head constant's
/// position, given another query term. No such tuple has a core.
fn constraint_breakers(view: &View, tuple: &ViewTuple, query: &ConjunctiveQuery) -> Vec<ViewTuple> {
    let head = &view.head().terms;
    let other = |t: Term| query.body[0].terms.iter().copied().find(|&x| x != t);
    (0..head.len())
        .filter(|&p| matches!(head[p], Term::Const(_)) || head[..p].contains(&head[p]))
        .filter_map(|p| {
            let mut atom = tuple.atom.clone();
            atom.terms[p] = other(atom.terms[p])?;
            Some(ViewTuple {
                view: tuple.view,
                atom,
            })
        })
        .collect()
}

/// The query's variables numbered as a run numbers them: the head's
/// first, then the body's, each by first occurrence.
fn run_numbering(query: &ConjunctiveQuery) -> Vec<Symbol> {
    let mut numbered: Vec<Symbol> = Vec::new();
    for v in query
        .head
        .variables()
        .chain(query.body.iter().flat_map(|a| a.variables()))
    {
        if !numbered.contains(&v) {
            numbered.push(v);
        }
    }
    numbered
}

/// The tuples and cores of queries with more than 64 variables, and of
/// views whose heads repeat a variable or carry a constant, against the
/// reference, through `tuple_core` and through `CoreCover::run`; and the
/// tuples that break a head's constraints have no core. Fails for an
/// exposure that drops its bits past word 0 (a nondistinguished variable
/// numbered 64 or more that a tuple exposes is then read as local, and
/// its subgoals leave the core), for a head whose repeated variable's
/// agreement is skipped, and for one whose constant is not checked (the
/// breakers then get the cores of the tuples they break).
#[test]
fn wide_queries_and_constrained_heads_agree_with_the_replaced_code() {
    let (mut past_word_0, mut breakers, mut nonempty) = (0, 0, 0);
    for seed in 0..80 {
        let w = wide_problem(seed);
        let fail = |e: TestCaseError| panic!("seed {seed}: {e:?}");
        compare(&w.query, &w.views, None, &mut Reached::default()).unwrap_or_else(fail);
        run_path_agrees(&w.query, &w.views, None).unwrap_or_else(fail);
        let qm = minimize(&w.query);
        let numbering = run_numbering(&qm);
        assert!(
            numbering.len() > 64,
            "seed {seed}: {} variables",
            numbering.len()
        );
        let distinguished = qm.distinguished_set();
        for tuple in view_tuples(&qm, &w.views) {
            let core = tuple_core(&qm, &tuple, &w.views);
            nonempty += usize::from(!core.is_empty());
            past_word_0 += usize::from(
                !core.is_empty()
                    && tuple.atom.variables().any(|v| {
                        !distinguished.contains(&v)
                            && numbering.iter().position(|&x| x == v) >= Some(64)
                    }),
            );
            let view = w.views.get(tuple.view).unwrap();
            for broken in constraint_breakers(view, &tuple, &qm) {
                breakers += 1;
                let (expected, _) = reference_tuple_core(&qm, &broken, &w.views);
                assert!(expected.subgoals.is_empty(), "seed {seed}: {broken}");
                assert!(
                    tuple_core(&qm, &broken, &w.views).is_empty(),
                    "seed {seed}: {broken} has a core"
                );
            }
        }
    }
    assert!(
        past_word_0 > 30 && breakers > 100 && nonempty > 200,
        "{past_word_0} cores exposing a variable past word 0, {breakers} breakers, \
         {nonempty} nonempty cores"
    );
}
