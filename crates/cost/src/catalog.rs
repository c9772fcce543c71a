//! Relation statistics for cardinality estimation.
//!
//! The estimator follows the classic System-R \[22\] recipe the paper's
//! optimizer step assumes: per-relation cardinalities, per-column distinct
//! counts, independence between predicates, and
//! `|R ⋈ S| = |R|·|S| / max(d_R(v), d_S(v))` per join variable `v`.

use std::collections::HashMap;
use viewplan_cq::Symbol;
use viewplan_engine::Database;

/// Statistics for one relation.
#[derive(Clone, Debug, PartialEq)]
pub struct RelationStats {
    /// Number of tuples.
    pub cardinality: f64,
    /// Distinct values per column.
    pub distinct: Vec<f64>,
}

impl RelationStats {
    /// Uniform stats: `cardinality` tuples, every column with `d`
    /// distinct values.
    pub fn uniform(arity: usize, cardinality: f64, d: f64) -> RelationStats {
        RelationStats {
            cardinality,
            distinct: vec![d.min(cardinality); arity],
        }
    }
}

/// A catalog of relation statistics.
#[derive(Clone, Default, Debug)]
pub struct Catalog {
    stats: HashMap<Symbol, RelationStats>,
}

impl Catalog {
    /// An empty catalog (unknown relations estimate as empty).
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Measures exact statistics from a database (e.g. the materialized
    /// view database).
    pub fn from_database(db: &Database) -> Catalog {
        let mut stats = HashMap::new();
        for (name, rel) in db.iter() {
            stats.insert(
                name,
                RelationStats {
                    cardinality: rel.len() as f64,
                    distinct: (0..rel.arity())
                        .map(|c| rel.distinct_in_column(c) as f64)
                        .collect(),
                },
            );
        }
        Catalog { stats }
    }

    /// Installs statistics for a relation.
    pub fn set(&mut self, name: impl Into<Symbol>, stats: RelationStats) {
        self.stats.insert(name.into(), stats);
    }

    /// Statistics for a relation, if known.
    pub(crate) fn get(&self, name: Symbol) -> Option<&RelationStats> {
        self.stats.get(&name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_database_measures() {
        let mut db = Database::new();
        db.insert_int("r", &[&[1, 2], &[1, 3], &[2, 3]]);
        let cat = Catalog::from_database(&db);
        let s = cat.get(Symbol::new("r")).unwrap();
        assert_eq!(s.cardinality, 3.0);
        assert_eq!(s.distinct, vec![2.0, 2.0]);
    }

    #[test]
    fn uniform_caps_distinct_at_cardinality() {
        let s = RelationStats::uniform(2, 10.0, 100.0);
        assert_eq!(s.distinct, vec![10.0, 10.0]);
    }

    #[test]
    fn unknown_relation_is_none() {
        assert!(Catalog::new().get(Symbol::new("zzz")).is_none());
    }
}
