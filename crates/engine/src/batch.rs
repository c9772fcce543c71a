//! The columnar batch executor: one join kernel over word columns.
//!
//! Implements the same bindings-table pipeline as the row executor in
//! [`crate::eval`], batch-at-a-time over the stored [`Column`]s — the
//! relation's own storage, not a copy of it. One join is: filters shrink
//! an ascending selection vector reading words; the selected rows are
//! chained into an index of two flat arrays; probing emits two row-number
//! vectors (probe rows, build rows); every output column is one gather.
//! Nothing allocates per row or per key.
//!
//! The chains are linked in *reverse* selection order, so walking one
//! from its head meets build rows in ascending order: output row order
//! is probe order × build insertion order — exactly the row engine's — so
//! traces, answers, and counters are byte-identical (the differential
//! suite at the workspace root enforces this).

use crate::column::{mix, table_size, Column};
use crate::database::Database;
use crate::error::EngineError;
use crate::eval::{head_columns, note_arity_mismatch, note_join, plan_slots, Slot, Table};
use crate::relation::Relation;
use crate::value::Value;
use std::collections::HashSet;
use viewplan_cq::{Atom, Symbol};
use viewplan_obs as obs;

/// Counter funnel for one batch join: build-side rows fed to the index
/// and output rows.
fn note_batch_join(build_rows: usize, out_rows: usize) {
    obs::counter!("engine.batch_joins").incr();
    obs::counter!("engine.batch_build_rows").add(build_rows as u64);
    obs::histogram!("engine.batch_output_rows").record(out_rows as u64);
}

/// The bindings table in columnar form: one [`Column`] per variable, all
/// of length `len`.
pub(crate) struct ColumnarBindings {
    vars: Vec<Symbol>,
    len: usize,
    cols: Vec<Column>,
}

/// Shrinks `sel` to the rows whose column `col` holds the constant `v`.
fn filter_fixed(sel: &mut Vec<u32>, col: &Column, v: Value) {
    sel.retain(|&r| col.holds(r as usize, v));
}

/// Shrinks `sel` to the rows where columns `a` and `b` hold equal cells
/// (an intra-atom repeated variable).
fn filter_same(sel: &mut Vec<u32>, a: &Column, b: &Column) {
    sel.retain(|&r| a.same_cell(r as usize, b, r as usize));
}

/// One equality a join enforces: the stored relation's column against
/// the bindings column of the same variable.
struct Key<'a> {
    build: &'a Column,
    probe: &'a Column,
}

fn keys_match(keys: &[Key<'_>], build_row: u32, probe_row: usize) -> bool {
    keys.iter()
        .all(|k| k.build.same_cell(build_row as usize, k.probe, probe_row))
}

const END: u32 = u32::MAX;

/// The join proper: all `(probe row, build row)` pairs agreeing on every
/// key, as two parallel vectors in probe order × ascending build row.
/// `sel` is the ascending selection of build rows.
fn match_rows(keys: &[Key<'_>], sel: &[u32], probe_len: usize) -> (Vec<u32>, Vec<u32>) {
    // Cells of different kinds are never equal: two single-kind columns
    // of different kinds cannot join, whatever their words.
    let kinds_clash = keys.iter().any(
        |k| matches!((k.build.single_kind(), k.probe.single_kind()), (Some(b), Some(p)) if b != p),
    );
    if kinds_clash || sel.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let expected = if keys.is_empty() {
        probe_len * sel.len()
    } else {
        probe_len
    };
    let mut probe_rows: Vec<u32> = Vec::with_capacity(expected);
    let mut build_rows: Vec<u32> = Vec::with_capacity(expected);

    if keys.is_empty() {
        // Cartesian product: nothing to index on.
        for p in 0..probe_len {
            for &b in sel {
                probe_rows.push(p as u32);
                build_rows.push(b);
            }
        }
        return (probe_rows, build_rows);
    }

    // Chained index over positions in `sel`: `heads[slot]` starts a
    // chain, `next[i]` continues it. Linking in reverse makes every
    // chain ascend.
    let (size, shift) = table_size(sel.len(), 1);
    let mut heads = vec![END; size];
    let mut next = vec![END; sel.len()];
    for (i, &b) in sel.iter().enumerate().rev() {
        let hash = keys.iter().fold(0, |h, k| mix(h, k.build.word(b as usize)));
        let slot = (hash >> shift) as usize;
        next[i] = heads[slot];
        heads[slot] = i as u32;
    }
    for p in 0..probe_len {
        let hash = keys.iter().fold(0, |h, k| mix(h, k.probe.word(p)));
        let mut i = heads[(hash >> shift) as usize];
        while i != END {
            let b = sel[i as usize];
            if keys_match(keys, b, p) {
                probe_rows.push(p as u32);
                build_rows.push(b);
            }
            i = next[i as usize];
        }
    }
    (probe_rows, build_rows)
}

impl Table for ColumnarBindings {
    fn unit() -> ColumnarBindings {
        ColumnarBindings {
            vars: Vec::new(),
            len: 1,
            cols: Vec::new(),
        }
    }

    fn row_count(&self) -> usize {
        self.len
    }

    fn join(self, atom: &Atom, db: &Database) -> ColumnarBindings {
        let slots = plan_slots(atom, &self.vars);

        // A missing relation is empty (closed world), and — the same
        // relation-level skip as the row engine — so is one whose stored
        // arity differs from the atom's: no fact can map onto it. From
        // here on the columns can be indexed by atom position.
        let empty;
        let mut skipped = 0;
        let rel = match db.get(atom.predicate) {
            Some(rel) if rel.arity() == atom.arity() => rel,
            other => {
                skipped = other.map_or(0, Relation::len);
                empty = Relation::new(atom.arity());
                &empty
            }
        };
        note_arity_mismatch(skipped);

        // Selection vector: ascending row numbers surviving the constant
        // and repeated-variable filters, one column at a time.
        let mut sel: Vec<u32> = (0..rel.len() as u32).collect();
        for (i, slot) in slots.iter().enumerate() {
            match *slot {
                Slot::Fixed(v) => filter_fixed(&mut sel, rel.column(i), v),
                Slot::SameAs(j) => filter_same(&mut sel, rel.column(i), rel.column(j)),
                _ => {}
            }
        }

        // Bound positions, in slot order (the row engine's key order).
        let keys: Vec<Key<'_>> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Slot::Bound(c) => Some(Key {
                    build: rel.column(i),
                    probe: &self.cols[*c],
                }),
                _ => None,
            })
            .collect();
        let (probe_rows, build_rows) = match_rows(&keys, &sel, self.len);

        // Old columns follow the probe rows; the new variables, in
        // argument order, follow the build rows.
        let mut vars = self.vars;
        let mut cols: Vec<Column> = self.cols.iter().map(|c| c.gather(&probe_rows)).collect();
        for (i, slot) in slots.iter().enumerate() {
            if let Slot::New(v) = slot {
                vars.push(*v);
                cols.push(rel.column(i).gather(&build_rows));
            }
        }

        note_join(self.len, probe_rows.len());
        note_batch_join(sel.len(), probe_rows.len());
        ColumnarBindings {
            vars,
            len: probe_rows.len(),
            cols,
        }
    }

    fn project_away(self, drop: &HashSet<Symbol>) -> ColumnarBindings {
        let (vars, cols): (Vec<Symbol>, Vec<Column>) = self
            .vars
            .into_iter()
            .zip(self.cols)
            .filter(|(v, _)| !drop.contains(v))
            .unzip();
        // What is left is a relation over the kept variables: keep-first
        // dedup, the survivors gathered unless every row survived.
        let distinct = Relation::from_columns(self.len, cols);
        ColumnarBindings {
            vars,
            len: distinct.len(),
            cols: distinct.into_columns(),
        }
    }

    fn project_head(self, head: &Atom) -> Result<Relation, EngineError> {
        if self.len == 0 {
            return Ok(Relation::new(head.arity()));
        }
        let plan = head_columns(head, &self.vars)?;
        // Each bindings column moves into the last head position that
        // names it; a variable the head repeats is cloned before that.
        let mut source = self.cols;
        let cols: Vec<Column> = plan
            .iter()
            .enumerate()
            .map(|(at, term)| match *term {
                Ok(i) if plan[at + 1..].contains(&Ok(i)) => source[i].clone(),
                Ok(i) => std::mem::take(&mut source[i]),
                Err(v) => Column::constant(v, self.len),
            })
            .collect();
        Ok(Relation::from_columns(self.len, cols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_cq::parse_query;

    #[test]
    fn filter_fixed_tells_kinds_apart() {
        let col = Column::from_iter([Value::Int(3), Value::Int(4)]);
        let mut sel = vec![0, 1];
        filter_fixed(&mut sel, &col, Value::Skolem(3));
        assert!(sel.is_empty());
        let mut sel = vec![0, 1];
        filter_fixed(&mut sel, &col, Value::Int(3));
        assert_eq!(sel, [0]);
    }

    #[test]
    fn filter_same_compares_cells() {
        let a = Column::from_iter([Value::Int(1), Value::Int(2), Value::Int(3)]);
        let b = Column::from_iter([Value::Int(1), Value::Int(3), Value::Skolem(3)]);
        let mut sel = vec![0, 1, 2];
        filter_same(&mut sel, &a, &b);
        assert_eq!(sel, [0]);
    }

    #[test]
    fn unit_table_has_one_row_and_no_columns() {
        let t = ColumnarBindings::unit();
        assert_eq!(t.row_count(), 1);
        assert!(t.vars.is_empty());
    }

    /// Matches come in probe order × ascending build row, with every
    /// build row under one key.
    #[test]
    fn matches_come_out_in_probe_then_build_order() {
        for build_len in [2u32, 24] {
            let build = Column::from_iter(vec![Value::Int(7); build_len as usize]);
            let probe = Column::from_iter([Value::Int(7), Value::Int(8), Value::Int(7)]);
            let keys = [Key {
                build: &build,
                probe: &probe,
            }];
            // Odd rows filtered out beforehand.
            let sel: Vec<u32> = (0..build_len).filter(|r| r % 2 == 0).collect();
            let (probe_rows, build_rows) = match_rows(&keys, &sel, 3);
            let per_probe = sel.len();
            assert_eq!(probe_rows.len(), 2 * per_probe);
            assert!(probe_rows[..per_probe].iter().all(|&p| p == 0));
            assert!(probe_rows[per_probe..].iter().all(|&p| p == 2));
            assert_eq!(build_rows[..per_probe], sel[..]);
            assert_eq!(build_rows[per_probe..], sel[..]);
        }
    }

    #[test]
    fn single_kind_keys_of_different_kinds_never_join() {
        let build = Column::from_iter((0..20).map(Value::Int));
        let probe = Column::from_iter((0..20).map(Value::Skolem));
        let keys = [Key {
            build: &build,
            probe: &probe,
        }];
        let sel: Vec<u32> = (0..20).collect();
        assert_eq!(match_rows(&keys, &sel, 20), (vec![], vec![]));
    }

    #[test]
    fn head_columns_move_clone_and_fill() {
        let mut db = Database::new();
        db.insert_int("r", &[&[1, 2], &[3, 4]]);
        let q = parse_query("q(A, 9, A, B) :- r(A, B)").unwrap();
        let table = ColumnarBindings::unit().join(&q.body[0], &db);
        let answer = table.project_head(&q.head).unwrap();
        let i = Value::Int;
        assert_eq!(
            answer.rows(),
            [vec![i(1), i(9), i(1), i(2)], vec![i(3), i(9), i(3), i(4)]]
        );
    }
}
