//! The storage against the obvious model: a `Vec<Tuple>` in insertion
//! order beside a `HashSet<Tuple>`.

use crate::relation::{Relation, Tuple};
use crate::value::Value;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashSet;
use viewplan_cq::Symbol;

/// All four kinds over the same few words, so cells that differ only
/// in kind are common. `words` small forces duplicate rows at every
/// arity; large lets a one-column relation outgrow two tables.
fn arb_value(words: u64) -> impl Strategy<Value = Value> {
    (0..4u32, 0..words).prop_map(|(kind, w)| match kind {
        0 => Value::Int(w as i64),
        1 => Value::Skolem(w as u32),
        2 => Value::Sym(Symbol::from_index(w as usize)),
        _ => Value::Frozen(Symbol::from_index(w as usize)),
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

fn from_tuples(arity: usize, tuples: &[Tuple]) -> Relation {
    let columns = (0..arity)
        .map(|c| tuples.iter().map(|t| t[c]).collect())
        .collect();
    Relation::from_columns(tuples.len(), columns)
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
        let mut extended_seen = seen.clone();
        for probe in &probes {
            let new = extended_seen.insert(probe.clone());
            if new {
                extended_rows.push(probe.clone());
            }
            prop_assert_eq!(extended.insert(probe.clone()), new);
        }
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
