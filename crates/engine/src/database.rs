//! Databases: named relations.

use crate::error::EngineError;
use crate::relation::{Relation, Tuple};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use viewplan_cq::Symbol;

/// A database instance: a map from relation names to relations.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct Database {
    relations: HashMap<Symbol, Relation>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// The relation for `name`, if present.
    pub fn get(&self, name: Symbol) -> Option<&Relation> {
        self.relations.get(&name)
    }

    /// The relation for `name`, creating an empty one of the given arity
    /// on first touch. Requesting an existing relation at a different
    /// arity is rejected: handing back the mismatched relation would make
    /// the conflicting facts silently disappear downstream.
    pub fn try_get_or_create(
        &mut self,
        name: Symbol,
        arity: usize,
    ) -> Result<&mut Relation, EngineError> {
        let rel = self
            .relations
            .entry(name)
            .or_insert_with(|| Relation::new(arity));
        if rel.arity() != arity {
            return Err(EngineError::ArityConflict {
                relation: name,
                existing: rel.arity(),
                requested: arity,
            });
        }
        Ok(rel)
    }

    /// Infallible twin of [`Database::try_get_or_create`] for callers with
    /// schema-checked input.
    ///
    /// # Panics
    /// Panics if the relation exists at a different arity.
    pub fn get_or_create(&mut self, name: Symbol, arity: usize) -> &mut Relation {
        if let Some(existing) = self.relations.get(&name) {
            assert!(
                existing.arity() == arity,
                "relation {name} has arity {}, conflicting with requested arity {arity}",
                existing.arity()
            );
        }
        self.relations
            .entry(name)
            .or_insert_with(|| Relation::new(arity))
    }

    /// Replaces (or installs) a whole relation.
    pub fn set(&mut self, name: Symbol, relation: Relation) {
        self.relations.insert(name, relation);
    }

    /// Inserts one tuple into relation `name` (creating it if needed),
    /// rejecting tuples whose arity conflicts with the stored relation.
    pub fn try_insert(
        &mut self,
        name: impl Into<Symbol>,
        tuple: Tuple,
    ) -> Result<bool, EngineError> {
        let name = name.into();
        let arity = tuple.len();
        Ok(self.try_get_or_create(name, arity)?.insert(tuple))
    }

    /// Inserts one tuple into relation `name` (creating it if needed).
    ///
    /// # Panics
    /// Panics if the relation exists at a different arity.
    pub fn insert(&mut self, name: impl Into<Symbol>, tuple: Tuple) -> bool {
        let name = name.into();
        let arity = tuple.len();
        self.get_or_create(name, arity).insert(tuple)
    }

    /// Bulk-inserts rows of symbolic constants — convenient for examples
    /// and tests.
    pub fn insert_sym(&mut self, name: impl Into<Symbol>, rows: &[&[&str]]) {
        let name = name.into();
        for row in rows {
            self.insert(name, row.iter().map(|s| Value::sym(s)).collect());
        }
    }

    /// Bulk-inserts rows of integers.
    pub fn insert_int(&mut self, name: impl Into<Symbol>, rows: &[&[i64]]) {
        let name = name.into();
        for row in rows {
            self.insert(name, row.iter().map(|&i| Value::Int(i)).collect());
        }
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True iff there are no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Iterates over `(name, relation)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Relation)> {
        self.relations.iter().map(|(&n, r)| (n, r))
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<Symbol> = self.relations.keys().copied().collect();
        names.sort_by_key(|s| s.as_str());
        for name in names {
            writeln!(f, "{name}:")?;
            write!(f, "{}", self.relations[&name])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut db = Database::new();
        db.insert_sym("car", &[&["honda", "anderson"]]);
        db.insert_int("nums", &[&[1, 2], &[3, 4]]);
        assert_eq!(db.len(), 2);
        assert_eq!(db.get(Symbol::new("car")).unwrap().len(), 1);
        assert_eq!(db.get(Symbol::new("nums")).unwrap().len(), 2);
        assert!(db.get(Symbol::new("missing")).is_none());
    }

    #[test]
    fn arity_conflict_is_a_typed_error() {
        let mut db = Database::new();
        db.insert_int("r", &[&[1, 2]]);
        let err = db.try_get_or_create(Symbol::new("r"), 3);
        assert!(matches!(
            err,
            Err(EngineError::ArityConflict {
                existing: 2,
                requested: 3,
                ..
            })
        ));
        let err = db.try_insert("r", vec![Value::Int(1)]);
        assert!(matches!(err, Err(EngineError::ArityConflict { .. })));
        // Matching arity still works.
        assert!(db
            .try_insert("r", vec![Value::Int(3), Value::Int(4)])
            .unwrap());
    }

    #[test]
    #[should_panic(expected = "conflicting")]
    fn get_or_create_panics_on_arity_conflict() {
        let mut db = Database::new();
        db.insert_int("r", &[&[1, 2]]);
        db.get_or_create(Symbol::new("r"), 1);
    }

    #[test]
    fn set_replaces() {
        let mut db = Database::new();
        db.insert_int("r", &[&[1]]);
        db.set(Symbol::new("r"), Relation::new(1));
        assert!(db.get(Symbol::new("r")).unwrap().is_empty());
    }

    #[test]
    fn display_is_deterministic() {
        let mut db = Database::new();
        db.insert_int("b", &[&[1]]);
        db.insert_int("a", &[&[2]]);
        let s = db.to_string();
        assert!(s.find("a:").unwrap() < s.find("b:").unwrap());
    }
}
