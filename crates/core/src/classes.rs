//! Equivalence classes of views and view tuples — the concise
//! representation of §5.2.
//!
//! With many views, the number of view tuples (and hence of minimal
//! rewritings, up to `2^n − 1`) explodes. The paper's remedy, and the key
//! to its scalability results (Figures 7 and 9):
//!
//! 1. partition the **views** into classes of queries equivalent as
//!    queries, and run the algorithm on one representative per class;
//! 2. partition the **view tuples** by tuple-core, and cover the query
//!    subgoals using one representative per class.
//!
//! The number of representative view tuples is then bounded by the number
//! of distinct subgoal subsets, which depends only on the query — the
//! experiments show it is essentially constant in the number of views.

use crate::catalog_index::body_pairs;
use crate::tuple_core::TupleCore;
use std::collections::HashMap;
use viewplan_containment::are_equivalent;
use viewplan_cq::{ConjunctiveQuery, Symbol, View, ViewSet};

/// Renames a view definition's head predicate to a fixed marker so two
/// views can be compared as queries regardless of their names.
pub(crate) fn normalized(view: &View) -> ConjunctiveQuery {
    let mut def = view.definition.clone();
    def.head.predicate = Symbol::new("__viewclass__");
    def
}

/// A cheap signature that equivalent queries must share, used to bucket
/// views before the quadratic pairwise tests: head arity plus the sorted
/// set of body predicates of the *minimized*… no — minimization is more
/// expensive than the test itself at these sizes, so the signature uses
/// the raw body, which is only a bucketing heuristic and never merges
/// non-equivalent views (the pairwise test decides).
type ViewSignature = (usize, Vec<(Symbol, usize)>);

fn signature(view: &View) -> ViewSignature {
    (view.arity(), body_pairs(view))
}

/// Partitions the views into classes equivalent as queries (ignoring the
/// view names). Returns classes of indices into `views`, in first-seen
/// order; each class's first element is its representative.
pub fn view_equivalence_classes(views: &ViewSet) -> Vec<Vec<usize>> {
    let mut classes: Vec<Vec<usize>> = Vec::new();
    let mut normal: Vec<ConjunctiveQuery> = Vec::new();
    let mut buckets: HashMap<ViewSignature, Vec<usize>> = HashMap::new();
    for (i, view) in views.iter().enumerate() {
        let norm = normalized(view);
        let sig = signature(view);
        let bucket = buckets.entry(sig).or_default();
        let mut found = None;
        for &class_idx in bucket.iter() {
            let rep = classes[class_idx][0];
            if are_equivalent(&normal[rep], &norm) {
                found = Some(class_idx);
                break;
            }
        }
        normal.push(norm);
        match found {
            Some(ci) => classes[ci].push(i),
            None => {
                bucket.push(classes.len());
                classes.push(vec![i]);
            }
        }
    }
    classes
}

/// Partitions view tuples by their tuple-core (same covered subgoal set).
/// `cores` must align with the tuple list. Returns classes of indices in
/// first-seen order; tuples with an empty core form one class (they cover
/// nothing, but CoreCover* uses them as filter candidates).
pub fn view_tuple_classes(cores: &[TupleCore]) -> Vec<Vec<usize>> {
    let mut by_core: HashMap<u64, usize> = HashMap::new();
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for (i, core) in cores.iter().enumerate() {
        let key = core.bitmask();
        match by_core.get(&key) {
            Some(&ci) => classes[ci].push(i),
            None => {
                by_core.insert(key, classes.len());
                classes.push(vec![i]);
            }
        }
    }
    classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use viewplan_cq::parse_views;

    #[test]
    fn v1_and_v5_share_a_class() {
        // Example 1.1: V1 and V5 have the same definition.
        let views = parse_views(
            "v1(M, D, C) :- car(M, D), loc(D, C).\n\
             v2(S, M, C) :- part(S, M, C).\n\
             v5(M, D, C) :- car(M, D), loc(D, C).",
        )
        .unwrap();
        let classes = view_equivalence_classes(&views);
        assert_eq!(classes, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn equivalence_is_semantic_not_syntactic() {
        // The second view has a redundant subgoal but is equivalent.
        let views = parse_views(
            "v1(A) :- e(A, B).\n\
             v2(A) :- e(A, B), e(A, C).",
        )
        .unwrap();
        let classes = view_equivalence_classes(&views);
        assert_eq!(classes.len(), 1);
    }

    #[test]
    fn head_argument_order_separates_classes() {
        let views = parse_views(
            "v1(A, B) :- e(A, B).\n\
             v2(B, A) :- e(A, B).",
        )
        .unwrap();
        assert_eq!(view_equivalence_classes(&views).len(), 2);
    }

    #[test]
    fn arity_separates_classes() {
        let views = parse_views(
            "v1(A) :- e(A, B).\n\
             v2(A, B) :- e(A, B).",
        )
        .unwrap();
        assert_eq!(view_equivalence_classes(&views).len(), 2);
    }

    #[test]
    fn tuple_classes_group_by_core() {
        let mk = |subgoals: &[usize]| TupleCore {
            subgoals: subgoals.iter().copied().collect::<BTreeSet<_>>(),
            parts: Vec::new(),
        };
        let cores = vec![mk(&[0, 1]), mk(&[2]), mk(&[0, 1]), mk(&[]), mk(&[])];
        let classes = view_tuple_classes(&cores);
        assert_eq!(classes, vec![vec![0, 2], vec![1], vec![3, 4]]);
    }
}
