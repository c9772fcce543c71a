//! The columnar batch executor: one join kernel over word columns.
//!
//! Implements the same bindings-table pipeline as the row executor in
//! [`crate::eval`], batch-at-a-time over the stored [`Column`]s — the
//! relation's own storage, not a copy of it. One join is: filters shrink
//! an ascending selection vector reading words; the selected rows become
//! the entries of a chained index, each entry carrying its key's hash,
//! its build row and the next entry of its chain, so walking a chain
//! reads nothing else; probing emits two row-number vectors (probe rows,
//! build rows); every output column is one gather. Nothing allocates per
//! row or per key.
//!
//! Probes go in batches of [`PROBE_BATCH`] rows: the batch's hashes are
//! computed one key column at a time and all its chain heads are loaded
//! before any chain is walked, so the cache misses of a batch overlap
//! instead of queueing behind each other. A chain entry whose hash
//! differs from the probe's is skipped without reading a column. On a
//! single key whose two columns share one kind, equal hashes are equal
//! words ([`mix`] is a bijection on one word), so no column is read at
//! all; every other join compares the keys once the hashes agree.
//!
//! The entries are made in *reverse* selection order, each pushed onto
//! the front of its chain, so walking one from its head meets build rows
//! in ascending order: output row order is probe order × build insertion
//! order — exactly the row engine's — so traces, answers, and counters
//! are byte-identical (the differential suite at the workspace root
//! enforces this).
//!
//! A bindings table holds distinct rows (every variable is kept, and
//! [`Table::project_away`] deduplicates), so a head that names every
//! variable projects it onto distinct rows: the answer is built without
//! deduplication ([`Relation::from_distinct_columns`]). A head that drops
//! a variable deduplicates, keep-first.

use crate::column::{mix, table_size, Column};
use crate::database::Database;
use crate::error::EngineError;
use crate::eval::{head_columns, note_arity_mismatch, note_join, plan_slots, Slot, Table};
use crate::relation::Relation;
use crate::value::Value;
use std::collections::HashSet;
use viewplan_cq::{Atom, Symbol};
use viewplan_obs as obs;

/// Counter funnel for one batch join: build-side rows fed to the index,
/// chain entries the probes visited, and output rows.
fn note_batch_join(build_rows: usize, probe_steps: usize, out_rows: usize) {
    obs::counter!("engine.batch_joins").incr();
    obs::counter!("engine.batch_build_rows").add(build_rows as u64);
    obs::counter!("engine.batch_probe_steps").add(probe_steps as u64);
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

/// Probe rows hashed, and their chain heads loaded, before any of their
/// chains is walked.
const PROBE_BATCH: usize = 64;

/// One entry of the join index: a selected build row, the hash of its
/// key, and the position of the next entry in its chain ([`END`] last).
#[derive(Clone, Copy)]
struct Entry {
    hash: u64,
    row: u32,
    next: u32,
}

/// The output of [`match_rows`]: the matching `(probe row, build row)`
/// pairs as two parallel vectors, and the chain entries walked.
struct Matches {
    probe_rows: Vec<u32>,
    build_rows: Vec<u32>,
    steps: usize,
}

/// The join proper: all `(probe row, build row)` pairs agreeing on every
/// key, in probe order × ascending build row. `sel` is the ascending
/// selection of build rows.
fn match_rows(keys: &[Key<'_>], sel: &[u32], probe_len: usize) -> Matches {
    let mut out = Matches {
        probe_rows: Vec::new(),
        build_rows: Vec::new(),
        steps: 0,
    };
    // Cells of different kinds are never equal: two single-kind columns
    // of different kinds cannot join, whatever their words.
    let kinds_clash = keys.iter().any(
        |k| matches!((k.build.single_kind(), k.probe.single_kind()), (Some(b), Some(p)) if b != p),
    );
    if kinds_clash || sel.is_empty() {
        return out;
    }
    let expected = if keys.is_empty() {
        probe_len * sel.len()
    } else {
        probe_len
    };
    out.probe_rows.reserve_exact(expected);
    out.build_rows.reserve_exact(expected);

    if keys.is_empty() {
        // Cartesian product: nothing to index on.
        for p in 0..probe_len {
            for &b in sel {
                out.probe_rows.push(p as u32);
                out.build_rows.push(b);
            }
        }
        return out;
    }

    // Entries in reverse selection order, each pushed onto the front of
    // its slot's chain as it is made: walked from `heads[slot]`, every
    // chain meets build rows in ascending order.
    let (size, shift) = table_size(sel.len(), 1);
    let mut heads = vec![END; size];
    let mut entries: Vec<Entry> = Vec::with_capacity(sel.len());
    for &row in sel.iter().rev() {
        let hash = keys
            .iter()
            .fold(0, |h, k| mix(h, k.build.words()[row as usize]));
        let head = &mut heads[(hash >> shift) as usize];
        entries.push(Entry {
            hash,
            row,
            next: *head,
        });
        *head = (entries.len() - 1) as u32;
    }

    // One key whose columns share a kind (no clash, so the same one):
    // equal hashes are equal cells.
    let hash_decides = match keys {
        [k] => k.build.single_kind().is_some() && k.probe.single_kind().is_some(),
        _ => false,
    };
    let mut hashes = [0u64; PROBE_BATCH];
    let mut firsts = [END; PROBE_BATCH];
    for start in (0..probe_len).step_by(PROBE_BATCH) {
        let batch = PROBE_BATCH.min(probe_len - start);
        let hashes = &mut hashes[..batch];
        hashes.fill(0);
        for k in keys {
            for (h, &w) in hashes.iter_mut().zip(&k.probe.words()[start..]) {
                *h = mix(*h, w);
            }
        }
        for (first, &h) in firsts.iter_mut().zip(hashes.iter()) {
            *first = heads[(h >> shift) as usize];
        }
        for (j, (&hash, &first)) in hashes.iter().zip(&firsts).enumerate() {
            let p = start + j;
            let mut i = first;
            while i != END {
                let e = entries[i as usize];
                out.steps += 1;
                if e.hash == hash && (hash_decides || keys_match(keys, e.row, p)) {
                    out.probe_rows.push(p as u32);
                    out.build_rows.push(e.row);
                }
                i = e.next;
            }
        }
    }
    out
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
        let Matches {
            probe_rows,
            build_rows,
            steps,
        } = match_rows(&keys, &sel, self.len);

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
        note_batch_join(sel.len(), steps, probe_rows.len());
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
        // The bindings rows are distinct, so a head that keeps every
        // variable maps them to distinct answer rows.
        let keeps_all = (0..self.cols.len()).all(|i| plan.contains(&Ok(i)));
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
        Ok(if keeps_all {
            Relation::from_distinct_columns(self.len, cols)
        } else {
            Relation::from_columns(self.len, cols)
        })
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
            let Matches {
                probe_rows,
                build_rows,
                ..
            } = match_rows(&keys, &sel, 3);
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
        let m = match_rows(&keys, &sel, 20);
        assert!(m.probe_rows.is_empty() && m.build_rows.is_empty());
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
