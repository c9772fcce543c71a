//! Differential tests of the indexed view selection in `CoreCover`: the
//! active views found through the catalog index's postings are the ones
//! the linear `VP006` scan keeps, in the same order, and a pruned run
//! returns what an unpruned run returns — with view grouping on and off,
//! over prepared and unprepared view sets.

use proptest::prelude::*;
use viewplan_core::{
    body_signature, view_equivalence_classes, view_is_unusable, CoreCover, CoreCoverConfig,
    CoreCoverResult, PreparedViews,
};
use viewplan_cq::{Atom, ConjunctiveQuery, Symbol, Term, View, ViewSet};

/// Bodies of 1..=3 atoms over `p0..p2`, each at arity 1 or 2 (so one
/// predicate occurs at two arities), variables from a pool of four.
fn arb_body() -> impl Strategy<Value = Vec<Atom>> {
    let var = (0..4usize).prop_map(|i| Term::var(&format!("X{i}")));
    let atom = ((0..3usize), prop::collection::vec(var, 1..=2))
        .prop_map(|(p, terms)| Atom::new(format!("p{p}").as_str(), terms));
    prop::collection::vec(atom, 1..=3)
}

/// A safe rule named `name` over `body`: every other body variable is
/// distinguished.
fn rule(name: &str, body: Vec<Atom>) -> ConjunctiveQuery {
    let mut vars: Vec<Symbol> = Vec::new();
    for v in body.iter().flat_map(Atom::variables) {
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    let head = vars.iter().step_by(2).map(|&v| Term::Var(v)).collect();
    ConjunctiveQuery::new(Atom::new(name, head), body)
}

/// View sets of 1..=8 views. `name_pool` bounds the distinct names: at
/// or above the view count every name is unique, below it names repeat
/// (shadowed definitions), and name 0 is `p0` — also a body predicate.
fn arb_views(name_pool: usize) -> impl Strategy<Value = ViewSet> {
    prop::collection::vec((0..name_pool, arb_body()), 1..=8).prop_map(move |defs| {
        ViewSet::from_views(defs.into_iter().enumerate().map(|(i, (n, body))| {
            let name = match (name_pool >= 8, n) {
                (true, _) => format!("v{i}"),
                (false, 0) => "p0".to_string(),
                (false, n) => format!("v{n}"),
            };
            View::new(rule(&name, body))
        }))
    })
}

/// Queries use each predicate at one arity (`p0` unary, `p1`/`p2`
/// binary): a canonical database holds one relation per predicate.
fn arb_query() -> impl Strategy<Value = ConjunctiveQuery> {
    arb_body().prop_map(|mut body| {
        for atom in &mut body {
            let arity = if atom.predicate == Symbol::new("p0") {
                1
            } else {
                2
            };
            let first = atom.terms[0];
            atom.terms.resize(arity, first);
        }
        rule("q", body)
    })
}

fn run(
    query: &ConjunctiveQuery,
    views: &ViewSet,
    prepared: Option<&PreparedViews>,
    config: &CoreCoverConfig,
) -> CoreCoverResult {
    let cover = match prepared {
        Some(p) => CoreCover::with_prepared_views(query, p),
        None => CoreCover::new(query, views),
    };
    cover.with_config(config.clone()).run_all_minimal()
}

fn names<'a>(views: impl Iterator<Item = &'a View>) -> Vec<&'static str> {
    views.map(|v| v.name().as_str()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Names may repeat and collide with body predicates here: selection
    /// is by position, never by name.
    #[test]
    fn indexed_selection_equals_the_linear_scan(
        views in arb_views(3),
        query in arb_query(),
    ) {
        let prepared = PreparedViews::prepare(&views);
        let representatives: Vec<usize> =
            view_equivalence_classes(&views).iter().map(|c| c[0]).collect();
        for group in [true, false] {
            let config = CoreCoverConfig {
                group_equivalent_views: group,
                collect_provenance: true,
                ..CoreCoverConfig::default()
            };
            for prepared in [Some(&prepared), None] {
                let result = run(&query, &views, prepared, &config);
                let needed = body_signature(&result.minimized_query);
                let in_scope = views
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !group || representatives.contains(i))
                    .map(|(_, v)| v);
                let (pruned, surviving): (Vec<&View>, Vec<&View>) =
                    in_scope.partition(|v| view_is_unusable(&needed, v));
                let provenance = result.provenance.expect("provenance was requested");
                prop_assert_eq!(&provenance.pruned_views, &names(pruned.into_iter()));
                prop_assert_eq!(&provenance.surviving_views, &names(surviving.into_iter()));
                prop_assert_eq!(result.stats.views, views.len());
                prop_assert_eq!(
                    result.stats.view_classes,
                    if group { representatives.len() } else { views.len() }
                );
            }
        }
    }

    /// Pruning is an execution shortcut: same rewritings, view tuples,
    /// cores, classes and stats as a run over every view.
    #[test]
    fn pruned_runs_equal_unpruned_runs(
        views in arb_views(8),
        query in arb_query(),
    ) {
        let prepared = PreparedViews::prepare(&views);
        for group in [true, false] {
            let pruned_config = CoreCoverConfig {
                group_equivalent_views: group,
                ..CoreCoverConfig::default()
            };
            let unpruned_config = CoreCoverConfig {
                prune_unusable_views: false,
                ..pruned_config.clone()
            };
            for prepared in [Some(&prepared), None] {
                let with = run(&query, &views, prepared, &pruned_config);
                let without = run(&query, &views, prepared, &unpruned_config);
                prop_assert_eq!(with.rewritings(), without.rewritings());
                prop_assert_eq!(&with.view_tuples, &without.view_tuples);
                prop_assert_eq!(&with.tuple_classes, &without.tuple_classes);
                prop_assert_eq!(with.stats, without.stats);
                prop_assert_eq!(&with.minimized_query, &without.minimized_query);
                // Core mappings embed gensym'd variables whose counter
                // depends on how much work ran; the covered subgoals are
                // the observable part.
                let subgoals = |r: &CoreCoverResult| -> Vec<_> {
                    r.cores.iter().map(|c| c.bitmask()).collect()
                };
                prop_assert_eq!(subgoals(&with), subgoals(&without));
            }
        }
    }
}
