//! Analyzer-driven view pruning: which views can yield a view tuple for
//! a query at all.
//!
//! A view yields a view tuple only if its body admits a homomorphism into
//! the canonical database of the (minimized) query (Lemma 3.2). Two
//! things every such homomorphism does are cheap to test without
//! searching for one:
//!
//! * **Pairs** (the `VP006` condition). It maps each view body atom onto
//!   a query subgoal with the same predicate and arity, so every
//!   `(predicate, arity)` pair of the view body occurs in the query body.
//! * **Joins.** Call `(predicate, arity, position)` a *slot*, and a pair
//!   of two distinct slots a *join*. A view body has the join `{s, t}`
//!   when one variable sits at slot `s` of one atom and slot `t` of
//!   another or the same atom. The homomorphism sends that variable to
//!   one query term, so the query body holds one term — a variable or a
//!   constant — at slot `s` of one subgoal and slot `t` of another or the
//!   same subgoal: the query has the join `{s, t}` as well.
//!
//! A view survives iff its pairs are among the query's pairs and its
//! joins among the query's joins ([`can_yield_tuples`], the one place
//! this is decided). A view that fails has no view tuple, so dropping it
//! before the (expensive) view-tuple construction cannot change the
//! tuple set, the filter candidates, the rewritings, or any downstream
//! plan. This is the MiniCon-style prefilter (§4.3) that `CoreCover`
//! applies as a pre-pass, through the postings of the
//! [`CatalogIndex`](crate::CatalogIndex).
//!
//! **Why a view's same-slot pairs are left out.** Two atoms of one
//! predicate that share a variable at one position would give the
//! "join" `{s, s}`. Every query with the pair realizes it: both atoms may
//! map onto a single subgoal, whose slot `s` holds one term. So the view
//! needs nothing there, and since a query lists only pairs of distinct
//! slots, requiring `{s, s}` would drop views that do have tuples.
//!
//! The condition is deliberately *conservative*: a view that survives may
//! still yield no tuple (a constant it needs is absent, say), or only
//! tuples with an empty core. Those are M2 filter candidates (§5.1) and
//! must **not** be pruned. Only the zero-tuple case is safe to drop.

use viewplan_cq::{Atom, ConjunctiveQuery, Symbol, Term, View};

/// A `(predicate, arity)` pair.
pub(crate) type Pair = (Symbol, usize);

/// A `(predicate, arity, position)` slot, packed into one word: the
/// predicate's symbol index, then arity and position in 16 bits each.
pub(crate) type Slot = u64;

/// The slot of position `i` of `atom`. An atom wider than 65 535 has
/// none: its positions take part in no join, of a view or of a query,
/// so a view needs fewer joins, which only weakens the prune.
fn slot(atom: &Atom, i: usize) -> Option<Slot> {
    let arity = u16::try_from(atom.arity()).ok()?;
    Some((atom.predicate.index() as u64) << 32 | u64::from(arity) << 16 | i as u64)
}

/// A join: two distinct slots, the smaller first.
pub(crate) type Join = (Slot, Slot);

/// Most joins a signature lists. One term at a hundred slots already
/// gives 4 950: a body with more is read as needing none if it is a
/// view's, and as offering every join if it is a query's. Either only
/// weakens the prune, and neither lets a wide body cost time or memory
/// quadratic in its width.
const MAX_JOINS: usize = 4096;

/// The pairs and joins of a body, each sorted and deduplicated: what a
/// query body offers ([`body_signature`]) or what a view body needs
/// ([`Signature::of_view`]). Module docs.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Signature {
    pub(crate) pairs: Vec<Pair>,
    pub(crate) joins: Vec<Join>,
    /// A query body with more than [`MAX_JOINS`] joins: it offers every
    /// join, and `joins` is empty.
    pub(crate) every_join: bool,
}

impl Signature {
    /// What a view body needs: its pairs, and a join wherever two
    /// distinct slots hold one variable.
    pub fn of_view(view: &View) -> Signature {
        let mut signature = Signature::default();
        signature.fill(&view.definition.body, false, &mut Vec::new());
        signature
    }

    /// Makes this the signature of `body`: a query's when `query` is
    /// set, else a view's. Reuses this signature's buffers, and `placed`
    /// as scratch.
    pub(crate) fn fill(&mut self, body: &[Atom], query: bool, placed: &mut Vec<(Term, Slot)>) {
        self.pairs.clear();
        self.pairs
            .extend(body.iter().map(|a| (a.predicate, a.arity())));
        self.pairs.sort_unstable();
        self.pairs.dedup();
        // Each term with the distinct slots it sits at, in runs. A view
        // joins on its variables only, a query on every term.
        placed.clear();
        placed.extend(
            body.iter()
                .flat_map(|a| {
                    let slots = a.terms.iter().enumerate();
                    slots.filter_map(|(i, &t)| Some((t, slot(a, i)?)))
                })
                .filter(|&(t, _)| query || matches!(t, Term::Var(_))),
        );
        placed.sort_unstable();
        placed.dedup();
        self.joins.clear();
        self.every_join = false;
        for run in placed.chunk_by(|a, b| a.0 == b.0) {
            if self.joins.len() + run.len() * (run.len() - 1) / 2 > MAX_JOINS {
                self.joins.clear();
                self.every_join = query;
                return;
            }
            for (k, &(_, s)) in run.iter().enumerate() {
                self.joins.extend(run[k + 1..].iter().map(|&(_, t)| (s, t)));
            }
        }
        self.joins.sort_unstable();
        self.joins.dedup();
    }

    /// The `(predicate, arity)` pairs, sorted.
    pub fn pairs(&self) -> &[(Symbol, usize)] {
        &self.pairs
    }
}

/// What a query body offers a view: its pairs, and a join wherever two
/// distinct slots hold one term, constant or variable.
pub fn body_signature(query: &ConjunctiveQuery) -> Signature {
    let mut signature = Signature::default();
    signature.fill(&query.body, true, &mut Vec::new());
    signature
}

/// Whether a view with signature `view` can yield a view tuple for a
/// query offering `query`: its pairs and its joins are all the query's.
/// False proves the view has none (module docs); true promises nothing.
pub fn can_yield_tuples(view: &Signature, query: &Signature) -> bool {
    is_subset(&view.pairs, &query.pairs)
        && (query.every_join || is_subset(&view.joins, &query.joins))
}

/// Whether every element of the sorted `small` occurs in the sorted
/// `large`.
fn is_subset<T: Ord>(small: &[T], large: &[T]) -> bool {
    let mut rest = large;
    small.iter().all(|x| match rest.binary_search(x) {
        Ok(at) => {
            rest = &rest[at + 1..];
            true
        }
        Err(_) => false,
    })
}

/// True iff `view` provably yields no view tuple for a query offering
/// `needed` ([`body_signature`]): [`can_yield_tuples`] fails. Such a view
/// is safe to drop before tuple construction.
pub fn view_is_unusable(needed: &Signature, view: &View) -> bool {
    !can_yield_tuples(&Signature::of_view(view), needed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_cq::{parse_query, parse_views};

    fn unusable(query: &str, views: &str) -> Vec<bool> {
        let needed = body_signature(&parse_query(query).unwrap());
        parse_views(views)
            .unwrap()
            .iter()
            .map(|v| view_is_unusable(&needed, v))
            .collect()
    }

    #[test]
    fn signature_collects_predicate_arity_pairs() {
        let q = parse_query("q(X) :- e(X, Y), f(Y), e(Y, X)").unwrap();
        let sig = body_signature(&q);
        assert_eq!(sig.pairs(), [(Symbol::new("e"), 2), (Symbol::new("f"), 1)]);
    }

    #[test]
    fn foreign_predicate_views_are_unusable() {
        let flags = unusable(
            "q(X) :- e(X, Y)",
            "good(A) :- e(A, B).\n\
             bad(A) :- g(A, B).\n\
             mixed(A) :- e(A, B), g(B, A).",
        );
        assert_eq!(flags, [false, true, true]);
    }

    #[test]
    fn arity_mismatch_makes_a_view_unusable() {
        // Same predicate name, different arity: no atom-to-fact mapping
        // exists, so the view is as dead as a foreign-predicate one.
        assert_eq!(unusable("q(X) :- e(X, Y)", "v(A) :- e(A, A, A)"), [true]);
    }

    #[test]
    fn a_view_join_the_query_lacks_makes_it_unusable() {
        // The query joins r and s on r's second position; the views join
        // them elsewhere.
        let flags = unusable(
            "q(X) :- r(X, Y), s(Y, Z)",
            "same(A) :- r(A, B), s(B, C).\n\
             first(A) :- r(A, B), s(A, C).\n\
             last(A) :- r(A, B), s(C, B).",
        );
        assert_eq!(flags, [false, true, true]);
    }

    /// Catches query joins built from variables only: the query realizes
    /// the view's join through a constant.
    #[test]
    fn a_join_through_a_constant_is_kept() {
        assert_eq!(
            unusable("q(X, Y) :- r(X, c), s(c, Y)", "v(A, C) :- r(A, B), s(B, C)"),
            [false]
        );
    }

    /// Catches query joins built across distinct subgoals only: the
    /// query realizes the view's join inside one subgoal.
    #[test]
    fn a_join_inside_one_query_subgoal_is_kept() {
        assert_eq!(
            unusable("q(X) :- r(X, X)", "v(A, C) :- r(A, B), r(B, C)"),
            [false]
        );
    }

    /// Catches same-slot view pairs kept as joins: both view atoms map
    /// onto the query's one subgoal.
    #[test]
    fn a_shared_variable_at_one_slot_is_no_join() {
        assert_eq!(
            unusable("q(X, Y) :- r(X, Y)", "v(A) :- r(A, B), r(A, C)"),
            [false]
        );
        assert!(Signature::of_view(
            &parse_views("v(A) :- r(A, B), r(A, C)").unwrap().as_slice()[0]
        )
        .joins
        .is_empty());
    }

    #[test]
    fn a_wide_body_stops_listing_joins_and_weakens_the_prune() {
        // One variable at 100 slots: 4 950 joins, past the cap.
        let args = |v: &str| vec![v; 100].join(", ");
        let wide = parse_query(&format!("q(X) :- w({}), r(X, Y)", args("X"))).unwrap();
        let offered = body_signature(&wide);
        assert!(offered.every_join && offered.joins.is_empty());
        let views = parse_views(&format!(
            "a(A) :- r(A, A).\n\
             b(A) :- w({}).\n\
             c(A) :- s(A, A).",
            args("A")
        ))
        .unwrap();
        let needed = Signature::of_view(&views.as_slice()[1]);
        assert!(!needed.every_join && needed.joins.is_empty());
        let flags: Vec<bool> = views
            .iter()
            .map(|v| view_is_unusable(&offered, v))
            .collect();
        assert_eq!(flags, [false, false, true]);
        // Positions of an atom wider than 65 535 have no slot.
        let wider = vec!["A"; 70_000].join(", ");
        let wider = parse_views(&format!("v(A) :- w({wider}, B)")).unwrap();
        assert!(Signature::of_view(&wider.as_slice()[0]).joins.is_empty());
    }

    #[test]
    fn a_repeated_view_variable_needs_a_repeated_query_term() {
        assert_eq!(unusable("q(X, Y) :- r(X, Y)", "v(A) :- r(A, A)"), [true]);
        assert_eq!(unusable("q(X) :- r(X, X)", "v(A) :- r(A, A)"), [false]);
        assert_eq!(
            unusable("q(X) :- r(k, k), s(X)", "v(A) :- r(A, A)"),
            [false]
        );
    }
}
