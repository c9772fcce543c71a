//! The storage against the obvious model: a `Vec<Tuple>` in insertion
//! order beside a `HashSet<Tuple>`.
//!
//! A relation's row set is built on first use, so every relation here is
//! made in the states that matter: grown by `insert` (indexed from the
//! first row), deduplicated by `from_columns` (indexed when no row was
//! dropped, unindexed when one was) and handed over as distinct columns
//! (unindexed), and each is used first by `insert`, by `contains`, by a
//! clone or by `==`. Values come at both widths — words that fit in 32
//! bits and words past them — so columns start narrow and widen at any
//! row.

use crate::column::Column;
use crate::relation::{Relation, Tuple};
use crate::value::Value;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashSet;
use viewplan_cq::Symbol;

/// All four kinds over the same few words, so cells that differ only
/// in kind are common. `words` small forces duplicate rows at every
/// arity; large lets a one-column relation outgrow two tables. One value
/// in three sits at an edge of 32 bits — `u32::MAX - w` (narrow), and for
/// integers `(1 << 32) + w`, `-1 - w` and `i64::MIN + w` (wide) — so a
/// column widens wherever one of the latter lands, and a wide word whose
/// low half equals a narrow one's is common.
fn arb_value(words: u64) -> impl Strategy<Value = Value> {
    (0..4u32, 0..words, 0..12u32).prop_map(|(kind, w, edge)| {
        let int = match edge {
            8 => i64::from(u32::MAX) - w as i64,
            9 => (1 << 32) + w as i64,
            10 => -1 - w as i64,
            11 => i64::MIN + w as i64,
            _ => w as i64,
        };
        match kind {
            0 => Value::Int(int),
            1 if edge >= 8 => Value::Skolem(u32::MAX - w as u32),
            1 => Value::Skolem(w as u32),
            2 => Value::Sym(Symbol::from_index(w as usize)),
            _ => Value::Frozen(Symbol::from_index(w as usize)),
        }
    })
}

/// `(arity, [(is_insert, tuple)])`: up to 120 operations, three in
/// four of them insertions — past the scan threshold (9 rows) and two
/// table doublings (17 and 33 rows) whenever enough rows are distinct.
fn arb_ops() -> impl Strategy<Value = (usize, Vec<(bool, Tuple)>)> {
    (0..=4usize, prop_oneof![Just(2u64), Just(12u64)]).prop_flat_map(|(arity, words)| {
        let op = (
            (0..4u32).prop_map(|k| k > 0),
            prop::collection::vec(arb_value(words), arity),
        );
        (Just(arity), prop::collection::vec(op, 0..=120))
    })
}

fn columns_of(arity: usize, tuples: &[Tuple]) -> Vec<Column> {
    (0..arity)
        .map(|c| tuples.iter().map(|t| t[c]).collect())
        .collect()
}

fn from_tuples(arity: usize, tuples: &[Tuple]) -> Relation {
    Relation::from_columns(tuples.len(), columns_of(arity, tuples))
}

/// `rows`, which must be distinct, as a relation with no row set.
fn from_distinct(arity: usize, rows: &[Tuple]) -> Relation {
    Relation::from_distinct_columns(rows.len(), columns_of(arity, rows))
}

/// Inserts every probe into `rel` and into the model's `rows`, checking
/// each verdict.
fn insert_all(
    rel: &mut Relation,
    rows: &mut Vec<Tuple>,
    probes: &[Tuple],
) -> Result<(), TestCaseError> {
    let mut seen: HashSet<Tuple> = rows.iter().cloned().collect();
    for probe in probes {
        let new = seen.insert(probe.clone());
        if new {
            rows.push(probe.clone());
        }
        prop_assert_eq!(rel.insert(probe.clone()), new, "inserting {:?}", probe);
    }
    Ok(())
}

/// Everything observable about `rel` against the model's rows.
fn check(rel: &Relation, rows: &[Tuple], probes: &[Tuple]) -> Result<(), TestCaseError> {
    let set: HashSet<&Tuple> = rows.iter().collect();
    prop_assert_eq!(rel.len(), rows.len());
    prop_assert_eq!(rel.is_empty(), rows.is_empty());
    prop_assert_eq!(rel.rows(), rows.to_vec());
    for (i, row) in rows.iter().enumerate() {
        prop_assert!(rel.contains(row), "row {} of {} not found", i, rows.len());
        prop_assert_eq!(&rel.row(i), row);
    }
    for probe in probes {
        prop_assert_eq!(rel.contains(probe), set.contains(probe));
    }
    for col in 0..rel.arity() {
        let distinct: HashSet<Value> = rows.iter().map(|t| t[col]).collect();
        prop_assert_eq!(rel.distinct_in_column(col), distinct.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn relation_behaves_like_a_vec_and_a_hash_set((arity, ops) in arb_ops()) {
        // The symbols `arb_value` names by index must exist.
        for w in 0..12 {
            Symbol::new(&format!("model_word_{w}"));
        }
        let mut rows: Vec<Tuple> = Vec::new();
        let mut seen: HashSet<Tuple> = HashSet::new();
        let mut grown = Relation::new(arity);
        for (is_insert, tuple) in &ops {
            if *is_insert {
                let new = seen.insert(tuple.clone());
                if new {
                    rows.push(tuple.clone());
                }
                prop_assert_eq!(grown.insert(tuple.clone()), new);
            } else {
                prop_assert_eq!(grown.contains(tuple), seen.contains(tuple));
            }
            prop_assert_eq!(grown.len(), rows.len());
        }
        let probes: Vec<Tuple> = ops.iter().map(|(_, t)| t.clone()).collect();
        check(&grown, &rows, &probes)?;

        // The same insertions, duplicates included, as columns at
        // full size; and the distinct rows back to front.
        let inserted: Vec<Tuple> = ops
            .iter()
            .filter(|(is_insert, _)| *is_insert)
            .map(|(_, t)| t.clone())
            .collect();
        let built = from_tuples(arity, &inserted);
        check(&built, &rows, &probes)?;
        let reversed: Vec<Tuple> = rows.iter().rev().cloned().collect();
        let backwards = from_tuples(arity, &reversed);
        check(&backwards, &reversed, &probes)?;

        // A relation built from columns keeps growing by `insert`.
        let mut extended = built.clone();
        let mut extended_rows = rows.clone();
        insert_all(&mut extended, &mut extended_rows, &probes)?;
        check(&extended, &extended_rows, &probes)?;

        // Set equality, in both directions, whatever the order and
        // whichever way each side was built.
        prop_assert!(grown == built);
        prop_assert!(built == grown);
        prop_assert!(grown == backwards);
        prop_assert!(backwards == grown);
        prop_assert!(grown != Relation::new(arity + 1));
        if let Some(last) = rows.last() {
            // One row fewer; and the same count with one row changed
            // in kind only.
            let shorter = Relation::from_rows(arity, rows[..rows.len() - 1].to_vec());
            prop_assert!(grown != shorter);
            prop_assert!(shorter != grown);
            if arity > 0 {
                let mut other = last.clone();
                other[0] = match other[0] {
                    Value::Int(w) => Value::Skolem(w as u32),
                    _ => Value::Int(99),
                };
                if !seen.contains(&other) {
                    let mut swapped = shorter.clone();
                    swapped.insert(other);
                    prop_assert!(grown != swapped);
                    prop_assert!(swapped != grown);
                }
            }
        }

        // The row set is built on first use, whichever use comes first;
        // each block names a mutation of `relation.rs` it fails.
        //
        // `insert` first, on distinct columns and on deduplicated ones,
        // with a clone taken before it, and used first by `contains`.
        // Catches: `insert` on an unbuilt set filing into an empty table,
        // so a duplicate is accepted; `from_columns` dropping its dedup
        // set when rows were removed but marking the relation indexed;
        // the set built over `len - 1` rows, so the last row is missing;
        // and a clone of an unindexed relation coming out marked
        // indexed, with an empty table.
        for mut rel in [from_distinct(arity, &rows), from_tuples(arity, &inserted)] {
            let twin = rel.clone();
            let mut grown_rows = rows.clone();
            insert_all(&mut rel, &mut grown_rows, &probes)?;
            check(&rel, &grown_rows, &probes)?;
            check(&twin, &rows, &probes)?;
        }

        // `==` first, in both directions, with either side or both
        // unindexed. Catches: `stores` reading the set only if something
        // built it (`get` for `get_or_init`), so an unindexed right-hand
        // side holds nothing.
        prop_assert!(from_distinct(arity, &rows) == grown);
        prop_assert!(grown == from_distinct(arity, &rows));
        prop_assert!(from_distinct(arity, &rows) == from_distinct(arity, &reversed));
        prop_assert!(from_distinct(arity, &reversed) == from_tuples(arity, &inserted));
        prop_assert!(from_tuples(arity, &inserted) == from_distinct(arity, &reversed));
        if !rows.is_empty() {
            let shorter = &rows[..rows.len() - 1];
            prop_assert!(from_distinct(arity, shorter) != grown);
            prop_assert!(grown != from_distinct(arity, shorter));
            prop_assert!(from_distinct(arity, shorter) != from_distinct(arity, &rows));
            prop_assert!(from_distinct(arity, &rows) != from_distinct(arity, shorter));
        }
    }
}

/// The sizes the property is about, deterministically: one column,
/// forty distinct rows, so the table is built at 9 rows and doubled
/// at 17 and 33 — and every earlier row must still be found.
#[test]
fn rows_survive_the_threshold_and_two_doublings() {
    let tuple = |i: i64| vec![Value::Int(i)];
    let mut grown = Relation::new(1);
    for i in 0..40 {
        assert!(grown.insert(tuple(i)));
        for j in 0..=i {
            assert!(grown.contains(&tuple(j)), "row {j} lost at {} rows", i + 1);
            assert!(!grown.insert(tuple(j)));
        }
        assert!(!grown.contains(&tuple(i + 1)));
    }
    let all: Vec<Tuple> = (0..40).map(tuple).collect();
    let built = from_tuples(1, &all);
    for row in &all {
        assert!(built.contains(row));
    }
    assert_eq!(built, grown);
}

/// `insert` as the first use of a missing set, at every size from empty
/// past the threshold (9 rows) and two doublings (17 and 33 rows): the
/// set it builds holds every earlier row, and has room for the new one.
/// Catches: `insert` on an unbuilt set files into an empty table, so a
/// duplicate is accepted; and the set built over `len - 1` rows.
#[test]
fn insert_builds_a_missing_set_at_every_size() {
    let tuple = |i: i64| vec![Value::Int(i), Value::Int(i % 3)];
    for n in 0..40 {
        let rows: Vec<Tuple> = (0..n).map(tuple).collect();
        // One duplicate: `from_columns` drops it, and keeps no set.
        let with_duplicate: Vec<Tuple> = rows.iter().chain(rows.last()).cloned().collect();
        let made = [
            ("distinct", from_distinct(2, &rows)),
            ("deduplicated", from_tuples(2, &with_duplicate)),
        ];
        for (how, mut rel) in made {
            if let Some(last) = rows.last() {
                assert!(!rel.insert(last.clone()), "{how} {n}: the last row again");
            }
            assert!(rel.insert(tuple(n)), "{how} {n}: a new row refused");
            for j in 0..=n {
                assert!(rel.contains(&tuple(j)), "{how} {n}: row {j} lost");
                assert!(!rel.insert(tuple(j)), "{how} {n}: row {j} again");
            }
            assert_eq!(rel.len(), n as usize + 1);
        }
    }
}

/// One row past 32 bits at every position of relations of up to 20 rows,
/// made every way a relation is made: grown by `insert`, deduplicated by
/// `from_columns` (its duplicates dropped, so the survivors are
/// gathered), and handed over as distinct columns. Against the model:
/// each value round trips, `distinct_in_column` counts, `==` holds, and
/// `insert` refuses every row again. Catches a widening that drops the
/// cells before it, narrowing by `as u32` (the wide row then equals the
/// narrow row `(at, at % 3)`, and is refused as a duplicate or merged
/// with it), and a gather that narrows a wide column.
#[test]
fn relations_widen_at_every_row() {
    for n in 1..20i64 {
        for at in 0..n {
            let tuple = |r: i64| -> Tuple {
                let first = if r == at { (1 << 32) + at } else { r };
                vec![Value::Int(first), Value::Int(r % 3)]
            };
            // And `(at, at % 3)` narrow: the wide row's words cut to
            // 32 bits, but another row.
            let mut rows: Vec<Tuple> = (0..n).map(tuple).collect();
            rows.push(vec![Value::Int(at), Value::Int(at % 3)]);
            let with_duplicates: Vec<Tuple> = rows.iter().chain(&rows).cloned().collect();
            let mut grown = Relation::new(2);
            for row in &with_duplicates {
                grown.insert(row.clone());
            }
            let made = [
                grown,
                from_tuples(2, &with_duplicates),
                from_distinct(2, &rows),
            ];
            for rel in &made {
                let checked = check(rel, &rows, &with_duplicates);
                assert!(checked.is_ok(), "n {n}, at {at}: {checked:?}");
                assert!(*rel == made[0], "n {n}, at {at}");
                let mut again = rel.clone();
                assert!(
                    rows.iter().all(|row| !again.insert(row.clone())),
                    "n {n}, at {at}"
                );
            }
        }
    }
}
