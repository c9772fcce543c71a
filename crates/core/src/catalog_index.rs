//! The catalog index: what a request needs to know about a view set
//! without walking it.
//!
//! The paper's scalability argument (§5.2, Figures 6–9) is that the
//! per-query work is essentially constant in the number of views once the
//! query-independent part is done up front. Grouping the views is one
//! such part ([`PreparedViews`](crate::PreparedViews)); the other two are
//! lookups every request makes and that used to cost a pass over the
//! whole catalog each:
//!
//! * **`predicate → arity`** — the VP001 gate in front of the rewriting
//!   cache. Precedence is the analyzer's: a view's name fixes its arity
//!   (the last view of that name when names are shadowed), otherwise the
//!   first body occurrence in view order does.
//! * **`(predicate, arity) → views`** postings — the §4.3 MiniCon-style
//!   prefilter ([`crate::prune`], `VP006`): the views that can contribute
//!   a view tuple to a query are found from the query's own
//!   `(predicate, arity)` pairs, not by testing every view. Views are
//!   posted by *body signature* (their sorted, deduplicated pairs): views
//!   with the same signature pass or fail the prefilter together, and a
//!   catalog has far fewer signatures than views. A signature is posted
//!   under its smallest pair only — a signature contained in the query's
//!   has its smallest pair there too — so no view is reached twice.
//!
//! One index is built per view-set snapshot and is immutable afterwards,
//! so it is shared across worker threads by reference like the snapshot
//! that owns it.

use std::collections::{HashMap, HashSet};
use viewplan_cq::{Symbol, View, ViewSet};

type Pair = (Symbol, usize);

/// The `(predicate, arity)` pairs of a view body, sorted and
/// deduplicated.
pub(crate) fn body_pairs(view: &View) -> Vec<Pair> {
    let mut pairs: Vec<Pair> = view
        .definition
        .body
        .iter()
        .map(|a| (a.predicate, a.arity()))
        .collect();
    pairs.sort();
    pairs.dedup();
    pairs
}

/// The views (ascending indices) sharing one body signature.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SignatureGroup {
    signature: Vec<Pair>,
    views: Vec<usize>,
}

/// Arity map, signature postings and representative bits of one view
/// set. See the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatalogIndex {
    arity: HashMap<Symbol, usize>,
    groups: Vec<SignatureGroup>,
    /// Smallest pair of a signature → the groups with such a signature
    /// (`None`: the empty signature of a view without a body, which no
    /// query rules out).
    postings: HashMap<Option<Pair>, Vec<usize>>,
    representative: Vec<bool>,
}

impl CatalogIndex {
    /// Indexes `views` in one pass. `classes` are the view equivalence
    /// classes (index lists into `views`, first member = representative);
    /// pass `&[]` when no grouping was computed, which marks no view as a
    /// representative.
    pub fn build(views: &ViewSet, classes: &[Vec<usize>]) -> CatalogIndex {
        let mut arity: HashMap<Symbol, usize> = HashMap::new();
        let mut groups: Vec<SignatureGroup> = Vec::new();
        let mut group_of: HashMap<Vec<Pair>, usize> = HashMap::new();
        let mut postings: HashMap<Option<Pair>, Vec<usize>> = HashMap::new();
        for (i, view) in views.iter().enumerate() {
            arity.insert(view.name(), view.arity());
            for atom in &view.definition.body {
                arity.entry(atom.predicate).or_insert(atom.arity());
            }
            let signature = body_pairs(view);
            match group_of.get(&signature) {
                Some(&g) => groups[g].views.push(i),
                None => {
                    postings
                        .entry(signature.first().copied())
                        .or_default()
                        .push(groups.len());
                    group_of.insert(signature.clone(), groups.len());
                    groups.push(SignatureGroup {
                        signature,
                        views: vec![i],
                    });
                }
            }
        }
        let mut representative = vec![false; views.len()];
        for class in classes {
            representative[class[0]] = true;
        }
        CatalogIndex {
            arity,
            groups,
            postings,
            representative,
        }
    }

    /// The arity the view set fixes for `predicate`, if it mentions it.
    pub fn arity_of(&self, predicate: Symbol) -> Option<usize> {
        self.arity.get(&predicate).copied()
    }

    fn groups_posted_under(&self, first: Option<Pair>) -> impl Iterator<Item = &SignatureGroup> {
        self.postings
            .get(&first)
            .into_iter()
            .flatten()
            .map(|&g| &self.groups[g])
    }

    /// The views (ascending indices) whose body signature is exactly
    /// `signature` (sorted, deduplicated).
    pub(crate) fn views_with_signature(&self, signature: &[Pair]) -> &[usize] {
        self.groups_posted_under(signature.first().copied())
            .find(|group| group.signature == signature)
            .map_or(&[], |group| &group.views)
    }

    /// Whether view `i` is the representative of its equivalence class.
    pub(crate) fn is_representative(&self, i: usize) -> bool {
        self.representative[i]
    }

    /// The views that survive the `VP006` prune for a query with body
    /// signature `needed` — every body `(predicate, arity)` pair occurs
    /// in `needed` — as ascending indices, restricted to class
    /// representatives when `representatives_only` is set. Exactly the
    /// views [`crate::prune::view_is_unusable`] keeps, found from the
    /// postings of `needed` instead of by testing every view.
    pub fn usable_views(&self, needed: &HashSet<Pair>, representatives_only: bool) -> Vec<usize> {
        // A query has a handful of pairs: searching a sorted slice beats
        // hashing each lookup.
        let mut needed: Vec<Pair> = needed.iter().copied().collect();
        needed.sort_unstable();
        let mut usable: Vec<usize> = needed
            .iter()
            .map(|&pair| Some(pair))
            .chain(std::iter::once(None))
            .flat_map(|first| self.groups_posted_under(first))
            .filter(|group| {
                group
                    .signature
                    .iter()
                    .all(|pair| needed.binary_search(pair).is_ok())
            })
            .flat_map(|group| &group.views)
            .copied()
            .filter(|&i| !representatives_only || self.representative[i])
            .collect();
        usable.sort_unstable();
        usable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::body_signature;
    use viewplan_cq::{parse_query, parse_views, Atom, ConjunctiveQuery, Term};

    #[test]
    fn arity_precedence_is_view_name_then_first_body_occurrence() {
        // `e` is first seen at arity 2; `v` is a body predicate of the
        // first view (arity 1) *and* the name of the second (arity 3);
        // `w` is shadowed, so the last definition's arity stands.
        let views = parse_views(
            "u(A) :- e(A, B), v(A).\n\
             v(A, B, C) :- e(A, B, C).\n\
             w(A) :- e(A, A).\n\
             w(A, B) :- e(A, B).",
        )
        .unwrap();
        let index = CatalogIndex::build(&views, &[]);
        assert_eq!(index.arity_of(Symbol::new("e")), Some(2));
        assert_eq!(index.arity_of(Symbol::new("v")), Some(3));
        assert_eq!(index.arity_of(Symbol::new("w")), Some(2));
        assert_eq!(index.arity_of(Symbol::new("u")), Some(1));
        assert_eq!(index.arity_of(Symbol::new("nope")), None);
    }

    #[test]
    fn views_are_grouped_by_deduplicated_signature() {
        let views = parse_views(
            "v0(A) :- e(A, B), e(B, A), f(A).\n\
             v1(A) :- g(A).\n\
             v2(A) :- f(A), e(A, A, A).\n\
             v3(A, B) :- f(B), e(A, B).",
        )
        .unwrap();
        let index = CatalogIndex::build(&views, &[vec![0], vec![1, 2], vec![3]]);
        let (e, f, g) = (Symbol::new("e"), Symbol::new("f"), Symbol::new("g"));
        assert_eq!(index.views_with_signature(&[(e, 2), (f, 1)]), [0, 3]);
        assert_eq!(index.views_with_signature(&[(e, 3), (f, 1)]), [2]);
        assert_eq!(index.views_with_signature(&[(g, 1)]), [1]);
        assert_eq!(index.views_with_signature(&[(f, 1)]), [] as [usize; 0]);
        assert_eq!(index.views_with_signature(&[]), [] as [usize; 0]);
        assert!(index.is_representative(0) && index.is_representative(1));
        assert!(!index.is_representative(2));
    }

    #[test]
    fn bodyless_views_are_usable_for_every_query() {
        // The parser never produces one, but the constructors allow it,
        // and the linear scan keeps such a view (no atom can mismatch).
        let mut views = parse_views("v(A) :- e(A, A).").unwrap();
        views.push(View::new(ConjunctiveQuery::new(
            Atom::new(Symbol::new("unit"), vec![Term::cst("a")]),
            vec![],
        )));
        let index = CatalogIndex::build(&views, &[]);
        let needed = body_signature(&parse_query("q(X) :- g(X)").unwrap());
        assert_eq!(index.usable_views(&needed, false), [1]);
    }
}
