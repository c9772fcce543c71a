//! Cover certificates — soundness decided at cover assembly.
//!
//! Theorem 4.1 reads "a cover of the query's subgoals by tuple-cores is
//! an equivalent rewriting". For *overlapping* cores that is one
//! condition short. Take
//!
//! ```text
//! q(P, R)  :- e(P, X), g(X, Y), f(Y, R).
//! va(P, Y) :- e(P, X), g(X, Y).
//! vb(X, R) :- g(X, Y), f(Y, R).
//! ```
//!
//! The tuple-cores `{e, g}` of `va(P, Y)` and `{g, f}` of `vb(X, R)`
//! cover the query, yet `va(P, Y), vb(X, R)` is a Cartesian product:
//! `va` maps `X` to an existential of its expansion, `vb` maps `X` to
//! itself, and the two Definition 4.1 mappings do not glue into one
//! containment mapping.
//!
//! They do glue when every subgoal is given to **one** covering member
//! such that a variable that is *local* to its owner (nondistinguished
//! and not among that view tuple's arguments, as in
//! [`mod@crate::tuple_core`]) has all of its subgoals owned by that same
//! member. Then a variable shared between two owners is non-local to
//! both, so both members' mappings send it to itself; a local variable
//! is mapped by its single owner; distinguished variables are the
//! identity (property 2). The union is a containment mapping
//! `Q → P^exp`, so `P^exp ⊆ Q`; `Q ⊆ P^exp` holds for every rewriting
//! made of view tuples (they come from the canonical database). Such an
//! assignment is a **certificate**, and a certified cover is an
//! equivalent rewriting by construction — no expansion, no fresh
//! symbols, no containment search, no budget.
//!
//! "All subgoals of a local variable stay with its owner" means
//! ownership is a union of whole [parts](crate::TupleCore::parts) of
//! the owner's tuple-core, so [`certify`] deals out parts, not subgoals.
//!
//! The certificate is sufficient, not necessary: the greedy choice can
//! miss an assignment that exists, and a cover can be a rewriting
//! through a mapping that is not the identity on an exposed variable
//! (with `vb(X, R, P) :- e(P, X2), g(X2, Y2), f(Y2, R), g(X, Y2)` in
//! place of `vb` above, `X ↦ X2` works). [`crate::CoreCover`] sends
//! every cover this module cannot vouch for to the expansion-equivalence
//! oracle.

/// True iff the subgoals in `universe` can be dealt out to the cover's
/// members — each given as the [parts](crate::TupleCore::parts) of its
/// tuple-core — so that every member owns whole parts of its own core
/// only.
///
/// A part holding a subgoal no other member covers must go to its
/// member; after that each remaining subgoal goes to the first member
/// that covers it with a part nothing has claimed yet. Only whole,
/// unclaimed parts are ever handed out, so reaching the end *is* the
/// consistency check. `O(|cover| × |parts|)` mask operations.
pub fn certify(universe: u64, members: &[&[u64]]) -> bool {
    let (mut once, mut twice) = (0u64, 0u64);
    for part in members.iter().copied().flatten() {
        twice |= once & part;
        once |= part;
    }
    let exclusive = once & !twice;
    let mut owned = 0u64;
    for part in members.iter().copied().flatten() {
        if part & exclusive != 0 {
            // A member's own parts are disjoint, so an overlap here is
            // with a part another member was forced to take.
            if part & owned != 0 {
                return false;
            }
            owned |= part;
        }
    }
    let mut rest = universe & !owned;
    while rest != 0 {
        let subgoal = rest & rest.wrapping_neg();
        let free_part = members
            .iter()
            .copied()
            .flatten()
            .find(|&&part| part & subgoal != 0 && part & owned == 0);
        match free_part {
            Some(part) => {
                owned |= part;
                rest &= !part;
            }
            None => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_cores_certify() {
        assert!(certify(0b111, &[&[0b011], &[0b100]]));
    }

    #[test]
    fn a_single_member_covering_everything_certifies() {
        assert!(certify(0b111, &[&[0b101, 0b010]]));
        assert!(certify(0, &[]));
    }

    #[test]
    fn the_counterexample_does_not_certify() {
        // va(P, Y): {e, g} is one part (X local); vb(X, R): {g, f} is one
        // part (Y local). Both are forced, and they collide on g.
        assert!(!certify(0b111, &[&[0b011], &[0b110]]));
    }

    #[test]
    fn exposing_the_shared_variable_splits_the_part_and_certifies() {
        // va2(P, X, Y): e and g are separate parts, so g can go to vb.
        assert!(certify(0b111, &[&[0b001, 0b010], &[0b110]]));
        // Member order does not matter.
        assert!(certify(0b111, &[&[0b110], &[0b001, 0b010]]));
    }

    #[test]
    fn a_shared_subgoal_goes_to_whoever_has_a_free_part() {
        // Subgoal 1 is covered by both; the first member's part holding
        // it also holds the exclusive subgoal 0, so it is already owned.
        assert!(certify(0b111, &[&[0b011], &[0b010, 0b100]]));
        // Three members, the middle subgoals shared pairwise.
        assert!(certify(
            0b1111,
            &[&[0b0001, 0b0010], &[0b0010, 0b0100], &[0b0100, 0b1000]]
        ));
    }

    #[test]
    fn an_uncovered_subgoal_fails() {
        assert!(!certify(0b111, &[&[0b011]]));
    }
}
