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
}

impl JoinOrder {
    /// The greedy join order of `body`, as [`greedy_join_order`] returns it.
    pub fn compute(&mut self, body: &[Atom], facts: impl Fn(&Atom) -> usize) -> &[usize] {
        let JoinOrder {
            order,
            remaining,
            bound,
        } = self;
        order.clear();
        remaining.clear();
        remaining.extend(0..body.len());
        bound.clear();
        while !remaining.is_empty() {
            let Some(pick) = remaining
                .iter()
                .enumerate()
                .min_by_key(|&(_, &i)| {
                    let connected = body[i].variables().any(|v| bound.contains(&v));
                    // Connected subgoals first (0 beats 1), then by size.
                    (
                        if connected || order.is_empty() { 0 } else { 1 },
                        facts(&body[i]),
                    )
                })
                .map(|(pos, _)| pos)
            else {
                break;
            };
            let i = remaining.swap_remove(pick);
            bound.extend(body[i].variables());
            order.push(i);
        }
        order
    }
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
