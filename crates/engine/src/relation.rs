//! Set-semantics relations, stored once, as columns.
//!
//! A [`Relation`] is its arity, its row count and one [`Column`] per
//! attribute in insertion order, each storing its words at the width
//! they need (32 bits until a word does not fit; `insert` widens a
//! column in place). There is no second copy of any tuple:
//! no row vector, no hash set of cloned rows, no cached twin for the
//! columnar executor — the executor's bindings table holds row numbers
//! into these columns, and its answers are built from the cells gathered
//! through them ([`Relation::from_columns`], or
//! `Relation::from_distinct_columns` when the rows cannot repeat)
//! without passing through `insert`.
//!
//! The [`RowSet`] of row numbers that serves `insert`'s deduplication,
//! `contains` and set equality is built on first use. A relation that is
//! only read column by column — an executed answer, a view materialized
//! from distinct rows — never hashes its rows; one that is grown by
//! `insert` builds its set at the first row, and one that `from_columns`
//! deduplicated keeps the set the dedup built when no row was dropped.

use crate::column::{distinct_rows, mix, row_hash, Column, RowSet};
use crate::value::Value;
use std::fmt;
use std::sync::OnceLock;

/// A database tuple.
pub type Tuple = Vec<Value>;

/// A relation: a set of distinct tuples of a fixed arity.
///
/// Conjunctive queries have set semantics (§2), so insertion deduplicates.
/// Rows keep their insertion order for deterministic iteration (the
/// paper's experiments average over generated workloads; determinism
/// keeps runs reproducible).
#[derive(Clone, Debug)]
pub struct Relation {
    /// Explicit because a zero-arity relation has no column to measure.
    len: usize,
    /// One per attribute: the arity is their number.
    columns: Vec<Column>,
    /// The numbers of all `len` rows, once something has looked a row
    /// up. A `OnceLock` rather than a `OnceCell`: a shared relation
    /// (a `Database` behind a snapshot) is read from many threads.
    set: OnceLock<RowSet>,
}

/// [`row_hash`] of a tuple that is not (yet) stored.
fn tuple_hash(tuple: &[Value]) -> u64 {
    tuple.iter().fold(0, |h, v| mix(h, v.cell().1))
}

/// Relations compare as *sets*: same arity and same tuples, regardless of
/// insertion order.
impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        // Both sides hold distinct rows, so equal counts make one
        // inclusion enough.
        self.arity() == other.arity()
            && self.len == other.len
            && (0..self.len).all(|row| {
                other.stores(row_hash(&self.columns, row), |c, r| {
                    other.columns[c].same_cell(r, &self.columns[c], row)
                })
            })
    }
}

impl Eq for Relation {}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            len: 0,
            columns: vec![Column::default(); arity],
            set: OnceLock::new(),
        }
    }

    /// Builds a relation from rows; panics if a row's arity mismatches.
    #[cfg(test)]
    pub(crate) fn from_rows(arity: usize, rows: impl IntoIterator<Item = Tuple>) -> Relation {
        let mut r = Relation::new(arity);
        for row in rows {
            r.insert(row);
        }
        r
    }

    /// Builds a relation from `len` rows spelled column-wise, keeping the
    /// first of each duplicated row — the order `insert`ing them one by
    /// one would give.
    pub(crate) fn from_columns(len: usize, columns: Vec<Column>) -> Relation {
        debug_assert!(columns.iter().all(|c| c.len() == len));
        let (firsts, set) = distinct_rows(&columns, len);
        if firsts.len() == len {
            let set = OnceLock::from(set);
            return Relation { len, columns, set };
        }
        // Row numbers shifted: the set over the old numbering is no use,
        // and the survivors' is built only if something looks a row up.
        let columns: Vec<Column> = columns.iter().map(|c| c.gather(&firsts)).collect();
        Relation::from_distinct_columns(firsts.len(), columns)
    }

    /// Builds a relation from `len` rows spelled column-wise that the
    /// caller knows to be pairwise distinct — a bindings table projected
    /// onto a head that keeps every variable. Neither hashes nor compares
    /// a row (outside a debug build's check of the caller's claim).
    pub(crate) fn from_distinct_columns(len: usize, columns: Vec<Column>) -> Relation {
        debug_assert!(columns.iter().all(|c| c.len() == len));
        debug_assert_eq!(
            distinct_rows(&columns, len).0.len(),
            len,
            "rows passed as distinct repeat"
        );
        let set = OnceLock::new();
        Relation { len, columns, set }
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// True iff some stored row satisfies `matches(column, row)` in every
    /// column; `hash` is the sought row's hash. Builds the row set if
    /// nothing has yet: the rows are distinct, so it hashes them one
    /// column at a time and compares none.
    fn stores(&self, hash: u64, matches: impl Fn(usize, usize) -> bool) -> bool {
        let set = self
            .set
            .get_or_init(|| RowSet::of_distinct(&self.columns, self.len, self.len));
        let is_it = |row: u32| (0..self.arity()).all(|c| matches(c, row as usize));
        set.find(hash, is_it).is_some()
    }

    /// Inserts a tuple; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics if the tuple's length differs from the relation's arity —
    /// schema violations are programming errors, not data errors.
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        assert_eq!(
            tuple.len(),
            self.arity(),
            "tuple arity {} does not match relation arity {}",
            tuple.len(),
            self.arity()
        );
        let row = self.len;
        assert!(row < u32::MAX as usize, "relation row count overflow");
        let mut set = match self.set.take() {
            Some(set) if set.has_room_for(row + 1) => set,
            // The first table, a doubling, or a set never built.
            _ => RowSet::of_distinct(&self.columns, row, row + 1),
        };
        let columns = &self.columns;
        let stored = |r: u32| {
            columns
                .iter()
                .zip(&tuple)
                .all(|(c, &v)| c.holds(r as usize, v))
        };
        // Files the new row's number before its cells are pushed just
        // below; nothing reads the set in between.
        let seen = set.find_or_insert(tuple_hash(&tuple), row as u32, stored);
        self.set = OnceLock::from(set);
        if seen.is_some() {
            return false;
        }
        for (column, &v) in self.columns.iter_mut().zip(&tuple) {
            column.push(v);
        }
        self.len += 1;
        true
    }

    /// True iff `tuple` is in the relation.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        tuple.len() == self.arity()
            && self.stores(tuple_hash(tuple), |c, r| self.columns[c].holds(r, tuple[c]))
    }

    /// Number of distinct tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The column at attribute position `i`, in insertion order.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// The `i`-th tuple in insertion order, assembled from the columns.
    pub fn row(&self, i: usize) -> Tuple {
        assert!(i < self.len, "row {i} out of range");
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Every tuple, in insertion order.
    pub fn rows(&self) -> Vec<Tuple> {
        self.iter().collect()
    }

    /// Iterates over the tuples in insertion order. Tuples are assembled
    /// on the way out — nothing stores them — so each is owned.
    pub fn iter(&self) -> Rows<'_> {
        Rows {
            relation: self,
            next: 0,
        }
    }

    /// Number of distinct values in column `col` (used by the cost
    /// estimator's independence-assumption selectivity model).
    pub fn distinct_in_column(&self, col: usize) -> usize {
        assert!(col < self.arity(), "column {col} out of range");
        distinct_rows(&self.columns[col..=col], self.len).0.len()
    }
}

/// The tuples of a [`Relation`], in insertion order.
pub struct Rows<'a> {
    relation: &'a Relation,
    next: usize,
}

impl Iterator for Rows<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        (self.next < self.relation.len).then(|| {
            self.next += 1;
            self.relation.row(self.next - 1)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.relation.len - self.next;
        (left, Some(left))
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "-- {} tuple(s), arity {}", self.len(), self.arity())?;
        for row in 0..self.len {
            f.write_str("  (")?;
            for (i, c) in self.columns.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{}", c.value(row))?;
            }
            writeln!(f, ")")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = Tuple;
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn insertion_deduplicates() {
        let mut r = Relation::new(2);
        assert!(r.insert(t(&[1, 2])));
        assert!(!r.insert(t(&[1, 2])));
        assert!(r.insert(t(&[2, 1])));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&t(&[1, 2])));
        assert!(!r.contains(&t(&[3, 3])));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(2);
        r.insert(t(&[1]));
    }

    #[test]
    fn distinct_in_column() {
        let r = Relation::from_rows(2, vec![t(&[1, 2]), t(&[1, 3]), t(&[2, 3])]);
        assert_eq!(r.distinct_in_column(0), 2);
        assert_eq!(r.distinct_in_column(1), 2);
    }

    #[test]
    fn iteration_is_insertion_ordered() {
        let r = Relation::from_rows(1, vec![t(&[3]), t(&[1]), t(&[2]), t(&[1])]);
        let got: Vec<i64> = r
            .iter()
            .map(|row| match row[0] {
                Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, [3, 1, 2]);
    }

    #[test]
    fn columns_follow_insertions() {
        let mut r = Relation::new(1);
        r.insert(t(&[1]));
        assert_eq!(r.column(0).len(), 1);
        r.insert(t(&[2]));
        assert_eq!(r.column(0).len(), 2);
        assert_eq!(r.row(1), t(&[2]));
        assert_eq!(r.rows(), [t(&[1]), t(&[2])]);
    }

    /// A database is shared between threads (a served snapshot), and a
    /// relation's set is built by whichever reader comes first: a
    /// `OnceCell` in its place would make neither type `Sync`.
    const _: fn() = || {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Relation>();
        send_sync::<crate::Database>();
    };

    /// Two threads, released together by a barrier, look rows up in one
    /// relation whose set nobody has built: whichever builds it, both get
    /// the model's answers.
    #[test]
    fn threads_share_a_set_built_on_first_use() {
        let rows: Vec<Tuple> = (0..500).map(|i| t(&[i, i % 7])).collect();
        let columns = (0..2)
            .map(|c| rows.iter().map(|row| row[c]).collect())
            .collect();
        let rel = Relation::from_distinct_columns(rows.len(), columns);
        let probes: Vec<Tuple> = (0..1000).map(|i| t(&[i / 2, i % 7])).collect();
        let model: std::collections::HashSet<&Tuple> = rows.iter().collect();
        let expected: Vec<bool> = probes.iter().map(|p| model.contains(p)).collect();
        let start = std::sync::Barrier::new(2);
        let lookups = || {
            start.wait();
            probes
                .iter()
                .map(|p| rel.contains(p))
                .collect::<Vec<bool>>()
        };
        std::thread::scope(|scope| {
            let threads = [scope.spawn(lookups), scope.spawn(lookups)];
            for thread in threads {
                assert_eq!(thread.join().unwrap(), expected);
            }
        });
    }

    #[test]
    fn zero_arity_relation_holds_at_most_one_tuple() {
        let mut r = Relation::new(0);
        assert!(r.insert(vec![]));
        assert!(!r.insert(vec![]));
        assert_eq!(r.len(), 1);
    }
}

#[cfg(test)]
mod equality_tests {
    use super::*;

    #[test]
    fn relations_compare_as_sets() {
        let a = Relation::from_rows(1, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        let b = Relation::from_rows(1, vec![vec![Value::Int(2)], vec![Value::Int(1)]]);
        assert_eq!(a, b);
        let c = Relation::from_rows(1, vec![vec![Value::Int(1)]]);
        assert_ne!(a, c);
        let d = Relation::new(2);
        assert_ne!(Relation::new(1), d);
    }
}
