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
//! * **signature postings** — the §4.3 MiniCon-style prefilter
//!   ([`crate::prune`]): the views that can contribute a view tuple to a
//!   query are found from the query's own `(predicate, arity)` pairs and
//!   joins, not by testing every view. Views are grouped by *signature*
//!   (their sorted, deduplicated pairs and joins, [`Signature::of_view`]):
//!   views with one signature pass or fail the prefilter together, and a
//!   catalog has far fewer signatures than views. A signature is posted
//!   under its smallest join if it has one, else under its smallest pair
//!   — a signature contained in the query's has that join or pair there
//!   too — so a query reaches each group it can use once, by looking up
//!   its own pairs and joins, and tests each group it reaches once with
//!   [`can_yield_tuples`]. On the §7 random shape most views that share
//!   the query's pairs join them at other positions; their groups sit
//!   under joins the query does not have and are never reached.
//!
//! One index is built per view-set snapshot and is immutable afterwards,
//! so it is shared across worker threads by reference like the snapshot
//! that owns it.

use crate::prune::{can_yield_tuples, Join, Pair, Signature};
use std::collections::HashMap;
use viewplan_cq::{Symbol, View, ViewSet};

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

/// The views (ascending indices) sharing one signature.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SignatureGroup {
    signature: Signature,
    views: Vec<usize>,
}

/// What a group is posted under: its smallest join, else its smallest
/// pair, else nothing (a view without a body, which no query rules out).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Posting {
    Join(Join),
    Pair(Pair),
    Bodyless,
}

impl Posting {
    fn of(signature: &Signature) -> Posting {
        match (signature.joins.first(), signature.pairs.first()) {
            (Some(&join), _) => Posting::Join(join),
            (None, Some(&pair)) => Posting::Pair(pair),
            (None, None) => Posting::Bodyless,
        }
    }
}

/// Arity map, signature postings and representative bits of one view
/// set. See the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatalogIndex {
    arity: HashMap<Symbol, usize>,
    groups: Vec<SignatureGroup>,
    postings: HashMap<Posting, Vec<usize>>,
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
        let mut group_of: HashMap<Signature, usize> = HashMap::new();
        let mut postings: HashMap<Posting, Vec<usize>> = HashMap::new();
        // Most views share a signature with an earlier one: one buffer is
        // refilled per view, and copied only for a new group.
        let (mut signature, mut placed) = (Signature::default(), Vec::new());
        for (i, view) in views.iter().enumerate() {
            arity.insert(view.name(), view.arity());
            for atom in &view.definition.body {
                arity.entry(atom.predicate).or_insert(atom.arity());
            }
            signature.fill(&view.definition.body, false, &mut placed);
            match group_of.get(&signature) {
                Some(&g) => groups[g].views.push(i),
                None => {
                    let g = groups.len();
                    postings.entry(Posting::of(&signature)).or_default().push(g);
                    group_of.insert(signature.clone(), g);
                    groups.push(SignatureGroup {
                        signature: signature.clone(),
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

    /// Whether view `i` is the representative of its equivalence class.
    pub(crate) fn is_representative(&self, i: usize) -> bool {
        self.representative[i]
    }

    /// The views that can yield a view tuple for a query offering
    /// `needed` ([`crate::body_signature`]) — every pair and every join
    /// of the view is the query's — as ascending indices, restricted to
    /// class representatives when `representatives_only` is set. Exactly
    /// the views [`crate::prune::view_is_unusable`] keeps, found from the
    /// postings of the query's pairs and joins instead of by testing
    /// every view.
    pub fn usable_views(&self, needed: &Signature, representatives_only: bool) -> Vec<usize> {
        // A query too wide to list its joins offers every one: its
        // postings cannot be looked up, so every group is tested instead.
        let posted = needed
            .joins
            .iter()
            .map(|&join| Posting::Join(join))
            .chain(needed.pairs.iter().map(|&pair| Posting::Pair(pair)))
            .chain(std::iter::once(Posting::Bodyless))
            .filter(|_| !needed.every_join)
            .filter_map(|posting| self.postings.get(&posting))
            .flatten()
            .map(|&g| &self.groups[g]);
        let scanned = self.groups.iter().filter(|_| needed.every_join);
        let mut usable: Vec<usize> = posted
            .chain(scanned)
            .filter(|group| can_yield_tuples(&group.signature, needed))
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
    use crate::prune::{body_signature, view_is_unusable};
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
    fn views_are_grouped_by_signature() {
        let views = parse_views(
            "v0(A) :- e(A, B), e(B, A), f(A).\n\
             v1(A) :- g(A).\n\
             v2(A) :- f(A), e(A, A, A).\n\
             v3(A, B) :- f(B), e(A, B).\n\
             v4(A) :- f(A), e(A, B), e(B, A).",
        )
        .unwrap();
        let index = CatalogIndex::build(&views, &[vec![0], vec![1, 2], vec![3], vec![4]]);
        // v0 and v4 share a signature; v3 has their pairs, not their joins.
        let groups: Vec<&[usize]> = index.groups.iter().map(|g| &g.views[..]).collect();
        assert_eq!(groups, [&[0, 4][..], &[1], &[2], &[3]]);
        assert!(index.is_representative(0) && index.is_representative(1));
        assert!(!index.is_representative(2));
        let needed = body_signature(&parse_query("q(X) :- e(X, Y), e(Y, X), f(X)").unwrap());
        assert_eq!(index.usable_views(&needed, false), [0, 3, 4]);
        assert_eq!(index.usable_views(&needed, true), [0, 3, 4]);
        let needed = body_signature(&parse_query("q(X) :- e(X, Y), f(Y)").unwrap());
        assert_eq!(index.usable_views(&needed, false), [3]);
    }

    #[test]
    fn the_postings_find_what_the_linear_scan_keeps() {
        let views = parse_views(
            "v0(A) :- r(A, B), s(B, C).\n\
             v1(A) :- r(A, B), s(A, C).\n\
             v2(A) :- r(A, A).\n\
             v3(A) :- s(A, B).\n\
             v4(A) :- r(A, B), r(A, C).\n\
             v5(A) :- r(A, B), s(B, C), t(C).",
        )
        .unwrap();
        let index = CatalogIndex::build(&views, &[]);
        for query in [
            "q(X) :- r(X, Y), s(Y, Z)",
            "q(X) :- r(X, X), s(X, Z)",
            "q(X) :- r(X, c), s(c, X)",
            "q(X) :- r(X, Y), s(Y, Z), t(Z)",
            "q(X) :- s(X, Y)",
        ] {
            let needed = body_signature(&parse_query(query).unwrap());
            let linear: Vec<usize> = (0..views.len())
                .filter(|&i| !view_is_unusable(&needed, &views.as_slice()[i]))
                .collect();
            assert_eq!(index.usable_views(&needed, false), linear, "{query}");
        }
        let needed = body_signature(&parse_query("q(X) :- r(X, Y), s(Y, Z)").unwrap());
        assert_eq!(index.usable_views(&needed, false), [0, 3, 4]);
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
