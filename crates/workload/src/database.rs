//! Random database generation for the M2/M3 cost experiments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use viewplan_cq::{Atom, ConjunctiveQuery, Symbol};

// The engine types are deliberately *not* a dependency of this crate's
// manifest — the generator emits plain `(name, rows)` pairs so callers in
// any crate can load them into whatever store they use.

/// A generated base relation: its name and integer rows.
pub(crate) type GeneratedRelation = (Symbol, Vec<Vec<i64>>);

/// Generates `rows` random integer tuples over `0..domain` for every base
/// relation mentioned in the query body, deterministically in the seed.
/// Skewing `domain` relative to `rows` controls join selectivity: a small
/// domain makes joins explode, a large one makes them sparse.
pub fn random_database(
    query: &ConjunctiveQuery,
    rows: usize,
    domain: i64,
    seed: u64,
) -> Vec<GeneratedRelation> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<GeneratedRelation> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for atom in &query.body {
        if !seen.insert(atom.predicate) {
            continue;
        }
        out.push((atom.predicate, random_rows(atom, rows, domain, &mut rng)));
    }
    out
}

fn random_rows(atom: &Atom, rows: usize, domain: i64, rng: &mut StdRng) -> Vec<Vec<i64>> {
    (0..rows)
        .map(|_| {
            (0..atom.arity())
                .map(|_| rng.gen_range(0..domain.max(1)))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_cq::parse_query;

    #[test]
    fn generates_one_relation_per_distinct_predicate() {
        let q = parse_query("q(X) :- r(X, Y), s(Y, Z), r(Z, X)").unwrap();
        let rels = random_database(&q, 10, 100, 1);
        assert_eq!(rels.len(), 2);
        assert_eq!(rels[0].0, Symbol::new("r"));
        assert_eq!(rels[0].1.len(), 10);
        assert_eq!(rels[0].1[0].len(), 2);
    }

    #[test]
    fn deterministic_in_seed() {
        let q = parse_query("q(X) :- r(X, Y)").unwrap();
        let a = random_database(&q, 5, 50, 7);
        let b = random_database(&q, 5, 50, 7);
        assert_eq!(a, b);
        let c = random_database(&q, 5, 50, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn domain_bounds_are_respected() {
        let q = parse_query("q(X) :- r(X, Y)").unwrap();
        let rels = random_database(&q, 100, 3, 2);
        for row in &rels[0].1 {
            for &v in row {
                assert!((0..3).contains(&v));
            }
        }
    }
}
