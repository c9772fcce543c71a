//! Per-view-set preprocessing shared across many queries.
//!
//! A serving deployment answers a *stream* of queries against one mostly
//! stable view set, but [`CoreCover`](crate::CoreCover) as originally
//! written redoes the query-independent part of its work on every call:
//! grouping the views into equivalence classes (§5.2 step 1) is a
//! quadratic-in-views pass of containment checks that depends only on the
//! view set. [`PreparedViews`] hoists that work out of the per-query path:
//! prepare once, then hand the same prepared set (read-only, so freely
//! shared across worker threads) to every
//! [`CoreCover::with_prepared_views`](crate::CoreCover::with_prepared_views)
//! run.
//!
//! The precomputed classes are exactly what a fresh run would compute
//! ([`view_equivalence_classes`] is deterministic in the view order), so a
//! prepared run's output is byte-identical to an unprepared one — the
//! serving layer's correctness story depends on this, and
//! `prepared_runs_match_fresh_runs` below pins it.
//!
//! A prepared set also holds the [`CatalogIndex`] of its views, so that
//! the two per-request lookups — predicate arities for the VP001 gate,
//! usable views for the VP006 prefilter — do not walk the catalog either,
//! and online DDL derives the next snapshot from the current one
//! ([`PreparedViews::with_view_added`],
//! [`PreparedViews::with_views_dropped`]) instead of regrouping it.
//!
//! And it holds every view compiled into its [`ViewProgram`]
//! ([`crate::program`]): what CoreCover's steps 2 and 3 read of a view
//! that does not depend on the query — its terms coded as head
//! positions, existentials and constants, its `(predicate, arity)`
//! slots, what its head demands of a tuple — so a run compiles nothing.
//! Programs are compiled once per view and kept behind one `Arc` each:
//! a snapshot derived by DDL shares the programs of the views it keeps
//! and compiles only the view it adds, and equals a from-scratch prepare
//! program for program.

use crate::catalog_index::{body_pairs, CatalogIndex};
use crate::classes::{normalized, view_equivalence_classes};
use crate::program::ViewProgram;
use crate::prune::body_signature;
use std::sync::Arc;
use viewplan_containment::are_equivalent;
use viewplan_cq::{Symbol, View, ViewSet};
use viewplan_obs as obs;

/// A view set with its query-independent preprocessing done: view
/// equivalence classes, the [`CatalogIndex`] (predicate arities,
/// signature postings, representative bits) and one compiled
/// [`ViewProgram`] per view.
/// Immutable after construction; share by reference across threads.
/// Nothing a request does needs to iterate [`PreparedViews::views`].
///
/// Each snapshot carries an **epoch** — a monotone version number the
/// live-catalog layer in `viewplan-serve` bumps on every online
/// `add-view`/`drop-view` swap. A static deployment never touches it
/// ([`PreparedViews::prepare`] stamps epoch 0), so existing callers are
/// unaffected; a serving deployment uses the epoch to tell which catalog
/// version computed an answer (and which cache entries are still valid).
#[derive(Clone, Debug)]
pub struct PreparedViews {
    views: ViewSet,
    classes: Vec<Vec<usize>>,
    index: CatalogIndex,
    /// One per view, aligned with `views`; shared with the snapshots
    /// derived from this one.
    programs: Vec<Arc<ViewProgram>>,
    epoch: u64,
}

impl PreparedViews {
    /// Runs the per-view-set preprocessing (the §5.2 view-equivalence
    /// grouping — the quadratic pass worth amortizing across queries) at
    /// epoch 0.
    pub fn prepare(views: &ViewSet) -> PreparedViews {
        PreparedViews::prepare_with_epoch(views, 0)
    }

    /// [`PreparedViews::prepare`], stamping the snapshot with an explicit
    /// catalog epoch (used by online view DDL to version swapped
    /// snapshots).
    pub fn prepare_with_epoch(views: &ViewSet, epoch: u64) -> PreparedViews {
        let _span = obs::span("serve.prepare_views");
        let classes = view_equivalence_classes(views);
        obs::counter!("serve.prepared_view_sets").incr();
        let programs = views
            .iter()
            .map(|view| Arc::new(ViewProgram::compile(view)))
            .collect();
        PreparedViews::assemble(views.clone(), classes, programs, epoch)
    }

    /// The one place a snapshot's index is built: once per snapshot,
    /// never per request (`serve.catalog_index_builds` counts it).
    fn assemble(
        views: ViewSet,
        classes: Vec<Vec<usize>>,
        programs: Vec<Arc<ViewProgram>>,
        epoch: u64,
    ) -> PreparedViews {
        obs::counter!("serve.catalog_index_builds").incr();
        let index = CatalogIndex::build(&views, &classes);
        PreparedViews {
            views,
            classes,
            index,
            programs,
            epoch,
        }
    }

    /// The snapshot of this view set plus `view` (appended last), at
    /// `epoch` — equal to [`PreparedViews::prepare_with_epoch`] over the
    /// extended set, without regrouping it: the new view is tested only
    /// against the class representatives with its head arity and body
    /// `(predicate, arity)` pairs that pass the prefilter against its own
    /// body ([`crate::can_yield_tuples`]: an equivalent view maps into
    /// that body, so it is among them), and joins the equivalent one's class or opens a
    /// new last class, which is what the from-scratch pass does when it
    /// reaches the last view. The programs of the views it had are
    /// shared, and only `view` is compiled.
    pub fn with_view_added(&self, view: View, epoch: u64) -> PreparedViews {
        let norm = normalized(&view);
        let pairs = body_pairs(&view);
        // Classes are disjoint, so at most one representative is
        // equivalent: the order the candidates are tried in cannot
        // matter.
        let joined = self
            .index
            .usable_views(&body_signature(&view.definition), true)
            .into_iter()
            .find(|&i| {
                let candidate = &self.views.as_slice()[i];
                candidate.arity() == view.arity()
                    && body_pairs(candidate) == pairs
                    && are_equivalent(&normalized(candidate), &norm)
            });
        let mut classes = self.classes.clone();
        let added = self.views.len();
        match joined.and_then(|rep| classes.binary_search_by_key(&rep, |class| class[0]).ok()) {
            Some(class) => classes[class].push(added),
            None => classes.push(vec![added]),
        }
        let mut programs = self.programs.clone();
        programs.push(Arc::new(ViewProgram::compile(&view)));
        let mut views = self.views.clone();
        views.push(view);
        PreparedViews::assemble(views, classes, programs, epoch)
    }

    /// The snapshot of this view set without the views named `name`, at
    /// `epoch` — equal to [`PreparedViews::prepare_with_epoch`] over the
    /// remaining views: membership is query equivalence, which removing
    /// a view does not change, so each class keeps its surviving members
    /// under their new indices, empty classes go, and classes are again
    /// ordered by their first member. The remaining views' programs are
    /// shared.
    pub fn with_views_dropped(&self, name: Symbol, epoch: u64) -> PreparedViews {
        let mut kept = 0usize;
        let renumbered: Vec<Option<usize>> = self
            .views
            .iter()
            .map(|view| {
                (view.name() != name).then(|| {
                    kept += 1;
                    kept - 1
                })
            })
            .collect();
        let mut classes: Vec<Vec<usize>> = self
            .classes
            .iter()
            .map(|class| class.iter().filter_map(|&i| renumbered[i]).collect())
            .filter(|class: &Vec<usize>| !class.is_empty())
            .collect();
        classes.sort_by_key(|class| class[0]);
        let views = ViewSet::from_views(self.views.iter().filter(|v| v.name() != name).cloned());
        let programs = self
            .programs
            .iter()
            .filter(|program| program.name() != name)
            .cloned()
            .collect();
        PreparedViews::assemble(views, classes, programs, epoch)
    }

    /// The catalog epoch this snapshot was prepared at (0 for static
    /// deployments).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The full original view set.
    pub fn views(&self) -> &ViewSet {
        &self.views
    }

    /// Equivalence classes as index lists into [`PreparedViews::views`],
    /// in first-seen order; each class's first element is its
    /// representative. The snapshot keeps no copy of the representative
    /// views: the request path selects them through the index's
    /// representative bits.
    pub fn classes(&self) -> &[Vec<usize>] {
        &self.classes
    }

    /// Every view's compiled program, aligned with
    /// [`PreparedViews::views`].
    pub fn programs(&self) -> &[Arc<ViewProgram>] {
        &self.programs
    }

    /// The arity map, postings and signatures of this view set.
    pub fn index(&self) -> &CatalogIndex {
        &self.index
    }

    /// Number of equivalence classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreCover, CoreCoverConfig};
    use viewplan_cq::{parse_query, parse_views};

    fn carlocpart_views() -> ViewSet {
        parse_views(
            "v1(M, D, C) :- car(M, D), loc(D, C).\n\
             v2(S, M, C) :- part(S, M, C).\n\
             v3(S) :- car(M, a), loc(a, C), part(S, M, C).\n\
             v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).\n\
             v5(M, D, C) :- car(M, D), loc(D, C).",
        )
        .unwrap()
    }

    #[test]
    fn prepare_groups_equivalent_views() {
        let views = carlocpart_views();
        let prepared = PreparedViews::prepare(&views);
        assert_eq!(prepared.class_count(), 4); // v1 ≡ v5
        assert_eq!(prepared.classes()[0], vec![0, 4]);
        assert_eq!(prepared.views().len(), 5);
        assert_eq!(prepared.epoch(), 0);
        assert_eq!(PreparedViews::prepare_with_epoch(&views, 7).epoch(), 7);
        let names: Vec<Symbol> = prepared.programs().iter().map(|p| p.name()).collect();
        let expected: Vec<Symbol> = views.iter().map(|v| v.name()).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn derived_snapshots_share_the_programs_of_the_views_they_keep() {
        let views = carlocpart_views();
        let prepared = PreparedViews::prepare(&views);
        let added =
            prepared.with_view_added(View::new(parse_query("v6(M) :- car(M, a)").unwrap()), 1);
        let dropped = added.with_views_dropped(Symbol::new("v2"), 2);
        for (i, program) in prepared.programs().iter().enumerate() {
            assert!(Arc::ptr_eq(program, &added.programs()[i]));
        }
        assert!(Arc::ptr_eq(&added.programs()[5], &dropped.programs()[4]));
        assert!(Arc::ptr_eq(&prepared.programs()[0], &dropped.programs()[0]));
        assert_eq!(
            dropped.programs(),
            PreparedViews::prepare(dropped.views()).programs()
        );
    }

    #[test]
    fn prepared_runs_match_fresh_runs() {
        // The serving-layer contract: running CoreCover with prepared
        // views is byte-identical to an ordinary run.
        let views = carlocpart_views();
        let prepared = PreparedViews::prepare(&views);
        for src in [
            "q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)",
            "q(M, C) :- car(M, D), loc(D, C)",
            "q(S) :- part(S, M, C), car(M, a)",
        ] {
            let q = parse_query(src).unwrap();
            let fresh = CoreCover::new(&q, &views).run_all_minimal();
            let pre = CoreCover::with_prepared_views(&q, &prepared).run_all_minimal();
            assert_eq!(fresh.rewritings(), pre.rewritings(), "{src}");
            assert_eq!(fresh.stats, pre.stats, "{src}");
            assert_eq!(fresh.minimized_query, pre.minimized_query, "{src}");
            assert_eq!(fresh.view_tuples, pre.view_tuples, "{src}");
        }
    }

    #[test]
    fn prepared_views_respect_grouping_off() {
        // With grouping disabled the prepared classes are ignored and the
        // full view set is used, exactly as in an unprepared run.
        let views = carlocpart_views();
        let prepared = PreparedViews::prepare(&views);
        let q = parse_query("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)").unwrap();
        let config = CoreCoverConfig {
            group_equivalent_views: false,
            group_view_tuples: false,
            ..CoreCoverConfig::default()
        };
        let fresh = CoreCover::new(&q, &views).with_config(config.clone()).run();
        let pre = CoreCover::with_prepared_views(&q, &prepared)
            .with_config(config)
            .run();
        assert_eq!(fresh.stats, pre.stats);
        assert_eq!(fresh.rewritings(), pre.rewritings());
        assert_eq!(pre.stats.view_classes, 5);
    }
}
