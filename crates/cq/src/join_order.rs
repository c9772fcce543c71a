//! The greedy join order, as a function of the body alone.
//!
//! Two places walk a conjunctive body subgoal by subgoal and must agree
//! on the order: the engine's multiway join (`viewplan-engine`, over
//! stored relations) and CoreCover's view-tuple matcher (`viewplan-core`,
//! over the subgoals of the minimized query read as facts). The order
//! decides in which order a view's several tuples come out, so it is
//! defined once, here, over "how many facts does this subgoal's relation
//! hold" — the only thing the two callers know differently.

use crate::atom::Atom;
use crate::symbol::Symbol;

/// Greedy join order: start from the subgoal with the fewest facts;
/// repeatedly take the subgoal sharing a variable with the bound set
/// (fewest facts on ties), falling back to the smallest unconnected
/// subgoal (Cartesian product) when the body is disconnected. On equal
/// counts the first candidate of the working list wins; the list starts
/// in body order and is compacted by swap-remove, so that is the lowest
/// index only until the first pick from the middle. Returns a permutation
/// of `0..body.len()`.
pub fn greedy_join_order(body: &[Atom], facts: impl Fn(&Atom) -> usize) -> Vec<usize> {
    let mut scratch = JoinOrder::default();
    scratch.compute(body, facts);
    scratch.order
}

/// [`greedy_join_order`] with its buffers kept between calls: a caller
/// that orders many bodies allocates only while a body is longer than
/// every one before it.
#[derive(Default)]
pub struct JoinOrder {
    order: Vec<usize>,
    remaining: Vec<usize>,
    /// A body has a handful of variables: the bound set is scanned.
    bound: Vec<Symbol>,
    /// The subgoals placed so far, as a bitset ([`JoinOrder::compute_linked`]).
    placed: Vec<u64>,
}

impl JoinOrder {
    /// The greedy join order of `body`, as [`greedy_join_order`] returns it.
    pub fn compute(&mut self, body: &[Atom], facts: impl Fn(&Atom) -> usize) -> &[usize] {
        let JoinOrder {
            order,
            remaining,
            bound,
            ..
        } = self;
        bound.clear();
        greedy(
            order,
            remaining,
            body.len(),
            bound,
            |bound, i| body[i].variables().any(|v| bound.contains(&v)),
            |bound, i| bound.extend(body[i].variables()),
            |i| facts(&body[i]),
        )
    }

    /// The same order for a body given by what the rule reads of it:
    /// `links(i)`, the subgoals sharing a variable with subgoal `i` as a
    /// bitset over the body (a word per 64 subgoals), and `facts(i)`. A
    /// subgoal shares a variable with the ones placed before it iff it
    /// is linked to one of them, so a caller that works the links out
    /// once per body orders it with a mask test per candidate.
    pub fn compute_linked<'l>(
        &mut self,
        subgoals: usize,
        links: impl Fn(usize) -> &'l [u64],
        facts: impl Fn(usize) -> usize,
    ) -> &[usize] {
        let JoinOrder {
            order,
            remaining,
            placed,
            ..
        } = self;
        placed.clear();
        placed.resize(subgoals.div_ceil(64), 0);
        greedy(
            order,
            remaining,
            subgoals,
            placed,
            |placed, i| links(i).iter().zip(placed.iter()).any(|(l, p)| l & p != 0),
            |placed, i| placed[i / 64] |= 1 << (i % 64),
            facts,
        )
    }
}

/// The rule itself, over a body of `subgoals` subgoals: `connected`
/// reads whether a subgoal shares a variable with those `place` has
/// recorded in `state`.
fn greedy<'o, S>(
    order: &'o mut Vec<usize>,
    remaining: &mut Vec<usize>,
    subgoals: usize,
    state: &mut S,
    connected: impl Fn(&S, usize) -> bool,
    place: impl Fn(&mut S, usize),
    facts: impl Fn(usize) -> usize,
) -> &'o [usize] {
    order.clear();
    remaining.clear();
    remaining.extend(0..subgoals);
    while !remaining.is_empty() {
        let Some(pick) = remaining
            .iter()
            .enumerate()
            .min_by_key(|&(_, &i)| {
                // Connected subgoals first (0 beats 1), then by size.
                (
                    if order.is_empty() || connected(state, i) {
                        0
                    } else {
                        1
                    },
                    facts(i),
                )
            })
            .map(|(pos, _)| pos)
        else {
            break;
        };
        let i = remaining.swap_remove(pick);
        place(state, i);
        order.push(i);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn order_of(q: &str, sizes: &[(&str, usize)]) -> Vec<usize> {
        let q = parse_query(q).unwrap();
        greedy_join_order(&q.body, |a| {
            let name = a.predicate.as_str();
            sizes
                .iter()
                .find(|(p, _)| *p == name)
                .map_or(0, |&(_, n)| n)
        })
    }

    #[test]
    fn smallest_first_then_connected() {
        // c is smallest; b shares Y with it; a joins last through X.
        let order = order_of(
            "q(X) :- a(X, W), b(X, Y), c(Y, Z)",
            &[("a", 5), ("b", 9), ("c", 1)],
        );
        assert_eq!(order, [2, 1, 0]);
    }

    #[test]
    fn disconnected_bodies_fall_back_to_the_smallest_rest() {
        let order = order_of(
            "q(X, Y) :- a(X), b(Y), c(Y)",
            &[("a", 1), ("b", 3), ("c", 2)],
        );
        assert_eq!(order, [0, 2, 1]);
    }

    #[test]
    fn equal_counts_keep_the_first_candidate() {
        // Example 4.1's v1: both subgoals over `a` — body order decides,
        // which is why `v1(X, Z)` precedes `v1(Z, Z)`.
        let order = order_of("v1(A, B) :- a(A, B), a(B, B)", &[("a", 2)]);
        assert_eq!(order, [0, 1]);
    }

    #[test]
    fn linked_bodies_order_like_their_atoms() {
        let sizes = |a: &Atom| a.arity() + a.predicate.as_str().len();
        let mut scratch = JoinOrder::default();
        for q in [
            "q(X) :- a(X, W), b(X, Y), c(Y, Z)",
            "q(X, Y) :- a(X), bb(Y), c(Y), d(X, Y)",
            "q(X, Y) :- aa(X), b(Y), c(Z), d(W, Z), e(X, X)",
        ] {
            let body = parse_query(q).unwrap().body;
            let links: Vec<u64> = body
                .iter()
                .map(|a| {
                    (0..body.len())
                        .filter(|&j| body[j].variables().any(|v| a.contains_var(v)))
                        .fold(0, |m, j| m | 1 << j)
                })
                .collect();
            let linked = scratch
                .compute_linked(
                    body.len(),
                    |i| std::slice::from_ref(&links[i]),
                    |i| sizes(&body[i]),
                )
                .to_vec();
            assert_eq!(linked, greedy_join_order(&body, sizes), "{q}");
        }
    }

    #[test]
    fn a_reused_scratch_orders_like_a_fresh_one() {
        let sizes = |a: &Atom| a.arity() + a.predicate.as_str().len();
        let mut scratch = JoinOrder::default();
        for q in [
            "q(X) :- a(X, W), b(X, Y), c(Y, Z)",
            "q(X) :- a(X)",
            "q(X, Y) :- a(X), bb(Y), c(Y), d(X, Y)",
        ] {
            let q = parse_query(q).unwrap();
            assert_eq!(
                scratch.compute(&q.body, sizes),
                greedy_join_order(&q.body, sizes)
            );
        }
    }
}
