//! Rewritings and variant deduplication.

use std::collections::HashMap;
use viewplan_containment::is_variant;
use viewplan_cq::{ConjunctiveQuery, Constant, Symbol, Term};

/// An equivalent rewriting of a query using views — a conjunctive query
/// whose body subgoals are view literals. A plain type alias with helpers;
/// the semantic guarantee ("expansion equivalent to the query") is
/// established by the producing algorithms.
pub type Rewriting = ConjunctiveQuery;

/// One argument of an atom as [`shape_signature`] sees it.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum ArgShape {
    /// A constant, by value.
    Const(Constant),
    /// A variable, by the position of its first occurrence in the atom.
    Var(usize),
}

/// The shape of one atom: predicate, then one [`ArgShape`] per argument
/// (so the arity is the length).
type AtomShape = (Symbol, Vec<ArgShape>);

/// A renaming-invariant signature: the sorted multiset of per-atom shapes
/// (predicate, constant positions, intra-atom variable-equality pattern).
/// Variants always share a signature, so pairwise [`is_variant`] checks
/// only run within signature buckets — `CoreCover` can emit hundreds of
/// covers, and quadratic variant checking across all of them dominated the
/// runtime before this bucketing. Built from symbols and small integers
/// only: no string is formatted and the interner is not read.
fn shape_signature(q: &Rewriting) -> Vec<AtomShape> {
    let mut shapes: Vec<AtomShape> = q
        .body
        .iter()
        .map(|a| {
            let pattern = a
                .terms
                .iter()
                .enumerate()
                .map(|(i, t)| match *t {
                    Term::Const(c) => ArgShape::Const(c),
                    // An atom has a handful of terms: the first
                    // occurrence is found by scanning.
                    Term::Var(_) => {
                        ArgShape::Var(a.terms[..i].iter().position(|x| x == t).unwrap_or(i))
                    }
                })
                .collect();
            (a.predicate, pattern)
        })
        .collect();
    shapes.sort_unstable();
    shapes
}

/// Removes rewritings that are variable-renamings of an earlier one
/// (§3.3 footnote: "we assume two rewritings are the same if the only
/// difference between them is variable renamings").
pub fn dedup_variants(rewritings: Vec<Rewriting>) -> Vec<Rewriting> {
    dedup_variants_with_map(rewritings).0
}

/// [`dedup_variants`], additionally reporting each input's fate: entry
/// `i` of the second vector is `None` when input `i` was kept, or
/// `Some(j)` when it was dropped as a renaming of (kept) input `j`.
pub fn dedup_variants_with_map(rewritings: Vec<Rewriting>) -> (Vec<Rewriting>, Vec<Option<usize>>) {
    let mut out: Vec<Rewriting> = Vec::new();
    // Input index each `out[i]` came from, for reporting in input terms.
    let mut kept_input: Vec<usize> = Vec::new();
    let mut variant_of: Vec<Option<usize>> = Vec::with_capacity(rewritings.len());
    let mut buckets: HashMap<Vec<AtomShape>, Vec<usize>> = HashMap::new();
    for (idx, r) in rewritings.into_iter().enumerate() {
        let sig = shape_signature(&r);
        let bucket = buckets.entry(sig).or_default();
        match bucket.iter().find(|&&i| is_variant(&out[i], &r)) {
            Some(&i) => variant_of.push(Some(kept_input[i])),
            None => {
                bucket.push(out.len());
                kept_input.push(idx);
                out.push(r);
                variant_of.push(None);
            }
        }
    }
    (out, variant_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_cq::parse_query;

    #[test]
    fn dedup_removes_renamings_only() {
        let rs = vec![
            parse_query("q(X) :- v(X, Y)").unwrap(),
            parse_query("q(A) :- v(A, B)").unwrap(), // renaming of the first
            parse_query("q(X) :- v(X, X)").unwrap(), // different shape
        ];
        let kept = dedup_variants(rs);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn empty_input_stays_empty() {
        assert!(dedup_variants(Vec::new()).is_empty());
    }

    #[test]
    fn dedup_map_points_variants_at_their_kept_input() {
        let rs = vec![
            parse_query("q(X) :- v(X, Y)").unwrap(),
            parse_query("q(X) :- v(X, X)").unwrap(),
            parse_query("q(A) :- v(A, B)").unwrap(), // renaming of input 0
            parse_query("q(B) :- v(B, B)").unwrap(), // renaming of input 1
        ];
        let (kept, variant_of) = dedup_variants_with_map(rs);
        assert_eq!(kept.len(), 2);
        assert_eq!(variant_of, vec![None, None, Some(0), Some(1)]);
    }
}
