//! The columnar batch executor: one join kernel over word columns, and a
//! late-materialized bindings table.
//!
//! Implements the same bindings-table pipeline as the row executor in
//! [`crate::eval`], batch-at-a-time over the stored [`Column`]s — the
//! relation's own storage, not a copy of it. The bindings table holds no
//! cell of its own: it is one vector of row numbers per joined relation
//! (a [`Source`]), pointing into that relation's columns, which are
//! borrowed from the [`Database`] for the execution, and each variable is
//! one column of one source.
//!
//! One join is: filters shrink an ascending selection vector reading
//! words — listed only when a filter runs, or at the first step, where it
//! becomes the table's rows; an unfiltered join indexes the range of
//! every row, and lists none — then the selected rows become the entries
//! of a chained index, each entry carrying its key's hash, its build row
//! and the next entry of its chain, so walking a chain reads nothing
//! else; probing reads the table's key cells through their sources' row
//! numbers and emits two row-number vectors (probe rows, build rows).
//! Every source's row vector then follows the probe rows, and the build
//! rows become the joined relation's: a join writes 4 bytes per source
//! per output row, however many variables the table holds. An atom that
//! binds no new variable adds no source. Cells are gathered in two places
//! only: into the answer, once per head column ([`Table::project_head`]),
//! and where an M3 step drops attributes ([`Table::project_away`]), which
//! gathers the kept columns, deduplicates them, and goes on with the
//! distinct rows as the table's single source. Nothing allocates per row
//! or per key.
//!
//! Columns store their words at the width they need (32 bits while every
//! word fits, see [`crate::column`]), and every loop over a column here
//! — the build's hashing of a single key, the probe batch's hashing, a
//! gather — picks the width once per column, so its body reads 4-byte
//! words from a narrow column without a test per cell; a cell is the
//! same `u64` at either width, so hashes and verdicts do not depend on
//! it. Row numbers are `u32`: a join that would yield more rows than
//! they can number fails with [`EngineError::TooManyRows`] — a product
//! before it reserves anything, a keyed join at the probe batch that
//! crosses the line — instead of aborting on the allocation or wrapping.
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
//! deduplication ([`Relation::from_distinct_columns`]), and without a row
//! set: a relation builds one on first use, and nothing on this path looks
//! an answer's row up. A head that drops a variable deduplicates,
//! keep-first.

use crate::column::{mix, table_size, with_words, Column};
use crate::database::Database;
use crate::error::EngineError;
use crate::eval::{head_columns, note_arity_mismatch, note_join, plan_slots, Slot, Table};
use crate::relation::Relation;
use crate::value::Value;
use std::borrow::Cow;
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

/// One relation joined into the bindings table: the stored relation and,
/// per table row, the row of it that table row reads. The relation is
/// borrowed from the database; it is owned only as the empty stand-in
/// for a missing relation, or as the distinct rows a projection kept.
struct Source<'db> {
    relation: Cow<'db, Relation>,
    rows: Vec<u32>,
}

/// The bindings table in late-materialized form: `len` rows, spelled as
/// one row vector per [`Source`]. Variable `i` is `vars[i]`, and its
/// cells are column `places[i].1` of source `places[i].0`.
pub(crate) struct ColumnarBindings<'db> {
    vars: Vec<Symbol>,
    places: Vec<(usize, usize)>,
    len: usize,
    sources: Vec<Source<'db>>,
}

impl ColumnarBindings<'_> {
    /// Variable `var`'s cells, one per table row.
    fn cells(&self, var: usize) -> Through<'_> {
        let (source, column) = self.places[var];
        let source = &self.sources[source];
        Through {
            column: source.relation.column(column),
            rows: &source.rows,
        }
    }
}

/// A column read through a row vector: the cell of table row `p` is the
/// column's cell at row `rows[p]`.
#[derive(Clone, Copy)]
struct Through<'a> {
    column: &'a Column,
    rows: &'a [u32],
}

impl Through<'_> {
    /// The cells, one per table row, as a column of their own (with the
    /// stored column's kind tags, so kind verdicts read the same).
    fn gather(self) -> Column {
        self.column.gather(self.rows)
    }
}

/// `rows`, with its capacity trimmed to at most 1.125 × its length: a
/// row vector the table keeps for the rest of the execution.
fn kept(mut rows: Vec<u32>) -> Vec<u32> {
    if rows.capacity() > rows.len() + rows.len() / 8 {
        rows.shrink_to_fit();
    }
    rows
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
/// the bindings table's cells of the same variable.
struct Key<'a> {
    build: &'a Column,
    probe: Through<'a>,
}

fn keys_match(keys: &[Key<'_>], build_row: u32, probe_row: usize) -> bool {
    keys.iter().all(|k| {
        let row = k.probe.rows[probe_row] as usize;
        k.build.same_cell(build_row as usize, k.probe.column, row)
    })
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

/// The most rows a bindings table holds: every row number is a `u32`
/// below [`END`].
const MAX_ROWS: usize = END as usize;

/// The output of [`match_rows`]: the matching `(probe row, build row)`
/// pairs as two parallel vectors, and the chain entries walked.
struct Matches {
    probe_rows: Vec<u32>,
    build_rows: Vec<u32>,
    steps: usize,
}

/// The join proper: all `(probe row, build row)` pairs agreeing on every
/// key, in probe order × ascending build row. `sel` is the ascending
/// selection of build rows: a filtered selection vector's, or the range
/// of every row when no filter ran, so an unfiltered join lists none.
///
/// A keyed join reserves room for `probe_len + probe_len / 8` pairs: a
/// join that yields a few more rows than it probes (a star's next arm
/// over a near-key) stays in its first allocation, a larger fan-out grows
/// the vectors by doubling, and the caller trims the build rows it keeps
/// to 1.125 × their length ([`kept`]). A Cartesian product reserves its
/// exact size.
///
/// `None` when the pairs would outnumber the row numbers ([`MAX_ROWS`]):
/// a product is refused before it reserves anything, and a keyed join
/// after the probe batch that crosses the line.
fn match_rows<S>(keys: &[Key<'_>], sel: S, probe_len: usize) -> Option<Matches>
where
    S: ExactSizeIterator<Item = u32> + DoubleEndedIterator + Clone,
{
    let mut out = Matches {
        probe_rows: Vec::new(),
        build_rows: Vec::new(),
        steps: 0,
    };
    // Cells of different kinds are never equal: two single-kind columns
    // of different kinds cannot join, whatever their words.
    let kinds_clash = keys.iter().any(|k| {
        matches!((k.build.single_kind(), k.probe.column.single_kind()), (Some(b), Some(p)) if b != p)
    });
    if kinds_clash || sel.len() == 0 {
        return Some(out);
    }
    let expected = if keys.is_empty() {
        probe_len
            .checked_mul(sel.len())
            .filter(|&n| n <= MAX_ROWS)?
    } else {
        probe_len + probe_len / 8
    };
    out.probe_rows.reserve_exact(expected);
    out.build_rows.reserve_exact(expected);

    if keys.is_empty() {
        // Cartesian product: nothing to index on.
        for p in 0..probe_len {
            for b in sel.clone() {
                out.probe_rows.push(p as u32);
                out.build_rows.push(b);
            }
        }
        return Some(out);
    }

    // One key, the usual join, hashes its column at its stored width;
    // more keys read each cell as a `u64`.
    let (size, shift) = table_size(sel.len(), 1);
    let mut heads = vec![END; size];
    let mut entries: Vec<Entry> = Vec::with_capacity(sel.len());
    match keys {
        [k] => with_words!(k.build, words => {
            link(sel, shift, &mut heads, &mut entries, |row| {
                mix(0, u64::from(words[row as usize]))
            })
        }),
        _ => link(sel, shift, &mut heads, &mut entries, |row| {
            keys.iter()
                .fold(0, |h, k| mix(h, k.build.word(row as usize)))
        }),
    }

    // One key whose columns share a kind (no clash, so the same one):
    // equal hashes are equal cells.
    let hash_decides = match keys {
        [k] => k.build.single_kind().is_some() && k.probe.column.single_kind().is_some(),
        _ => false,
    };
    let mut hashes = [0u64; PROBE_BATCH];
    let mut firsts = [END; PROBE_BATCH];
    for start in (0..probe_len).step_by(PROBE_BATCH) {
        let batch = PROBE_BATCH.min(probe_len - start);
        let hashes = &mut hashes[..batch];
        hashes.fill(0);
        for k in keys {
            let rows = &k.probe.rows[start..];
            with_words!(k.probe.column, words => {
                for (h, &r) in hashes.iter_mut().zip(rows) {
                    *h = mix(*h, u64::from(words[r as usize]));
                }
            });
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
        if out.probe_rows.len() > MAX_ROWS {
            return None;
        }
    }
    Some(out)
}

/// Makes the join index's entries: the selected rows in reverse order,
/// each under `hash_of(row)` and pushed onto the front of its slot's
/// chain as it is made, so every chain, walked from `heads[slot]`, meets
/// build rows in ascending order.
fn link(
    sel: impl DoubleEndedIterator<Item = u32>,
    shift: u32,
    heads: &mut [u32],
    entries: &mut Vec<Entry>,
    hash_of: impl Fn(u32) -> u64,
) {
    for row in sel.rev() {
        let hash = hash_of(row);
        let head = &mut heads[(hash >> shift) as usize];
        entries.push(Entry {
            hash,
            row,
            next: *head,
        });
        *head = (entries.len() - 1) as u32;
    }
}

impl<'db> Table<'db> for ColumnarBindings<'db> {
    fn unit() -> Self {
        ColumnarBindings {
            vars: Vec::new(),
            places: Vec::new(),
            len: 1,
            sources: Vec::new(),
        }
    }

    fn row_count(&self) -> usize {
        self.len
    }

    fn join(self, atom: &Atom, db: &'db Database) -> Result<Self, EngineError> {
        let slots = plan_slots(atom, &self.vars);

        // A missing relation is empty (closed world), and — the same
        // relation-level skip as the row engine — so is one whose stored
        // arity differs from the atom's: no fact can map onto it. From
        // here on the columns can be indexed by atom position.
        let mut skipped = 0;
        let relation = match db.get(atom.predicate) {
            Some(rel) if rel.arity() == atom.arity() => Cow::Borrowed(rel),
            other => {
                skipped = other.map_or(0, Relation::len);
                Cow::Owned(Relation::new(atom.arity()))
            }
        };
        note_arity_mismatch(skipped);
        let rel: &Relation = &relation;

        // Selection vector: ascending row numbers surviving the constant
        // and repeated-variable filters, one column at a time. It is
        // listed only when a filter runs, or at the first step, where it
        // becomes the source's rows; otherwise every row is selected.
        let all_rows = || (0..rel.len() as u32).collect::<Vec<u32>>();
        let mut sel: Option<Vec<u32>> = self.vars.is_empty().then(all_rows);
        for (i, slot) in slots.iter().enumerate() {
            match *slot {
                Slot::Fixed(v) => filter_fixed(sel.get_or_insert_with(all_rows), rel.column(i), v),
                Slot::SameAs(j) => filter_same(
                    sel.get_or_insert_with(all_rows),
                    rel.column(i),
                    rel.column(j),
                ),
                _ => {}
            }
        }
        let selected = sel.as_ref().map_or(rel.len(), Vec::len);

        let (sources, build_rows, steps) = if self.vars.is_empty() {
            // No variable yet: every row is the empty tuple, so there is
            // at most one, and the output is the selection itself.
            let rows = match sel {
                Some(sel) if self.len > 0 => sel,
                _ => Vec::new(),
            };
            (Vec::new(), rows, 0)
        } else {
            // Bound positions, in slot order (the row engine's key order).
            let keys: Vec<Key<'_>> = slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| match s {
                    Slot::Bound(c) => Some(Key {
                        build: rel.column(i),
                        probe: self.cells(*c),
                    }),
                    _ => None,
                })
                .collect();
            let m = match &sel {
                Some(sel) => match_rows(&keys, sel.iter().copied(), self.len),
                None => match_rows(&keys, 0..rel.len() as u32, self.len),
            }
            .ok_or(EngineError::TooManyRows {
                relation: atom.predicate,
                limit: MAX_ROWS,
            })?;
            // Every source's rows follow the probe rows.
            let sources: Vec<Source<'db>> = self
                .sources
                .into_iter()
                .map(|s| Source {
                    rows: m.probe_rows.iter().map(|&p| s.rows[p as usize]).collect(),
                    relation: s.relation,
                })
                .collect();
            (sources, m.build_rows, m.steps)
        };
        let len = build_rows.len();
        note_join(self.len, len);
        note_batch_join(selected, steps, len);

        // The new variables, in argument order, are the atom's source,
        // whose rows are the build rows. An atom that binds no new
        // variable adds no source.
        let (mut vars, mut places, mut sources) = (self.vars, self.places, sources);
        let (bound, source) = (vars.len(), sources.len());
        for (column, slot) in slots.iter().enumerate() {
            if let Slot::New(v) = *slot {
                vars.push(v);
                places.push((source, column));
            }
        }
        if vars.len() > bound {
            let rows = kept(build_rows);
            sources.push(Source { relation, rows });
        }
        Ok(ColumnarBindings {
            vars,
            places,
            len,
            sources,
        })
    }

    fn project_away(self, drop: &HashSet<Symbol>) -> Self {
        let keep: Vec<usize> = (0..self.vars.len())
            .filter(|&i| !drop.contains(&self.vars[i]))
            .collect();
        let columns: Vec<Column> = keep.iter().map(|&i| self.cells(i).gather()).collect();
        // What is left is a relation over the kept variables: keep-first
        // dedup, the survivors gathered unless every row survived. It is
        // the table's one source from here on.
        let distinct = Relation::from_columns(self.len, columns);
        let len = distinct.len();
        ColumnarBindings {
            vars: keep.iter().map(|&i| self.vars[i]).collect(),
            places: (0..keep.len()).map(|column| (0, column)).collect(),
            len,
            sources: vec![Source {
                relation: Cow::Owned(distinct),
                rows: (0..len as u32).collect(),
            }],
        }
    }

    fn project_head(&self, head: &Atom) -> Result<Relation, EngineError> {
        if self.len == 0 {
            return Ok(Relation::new(head.arity()));
        }
        let plan = head_columns(head, &self.vars)?;
        // The bindings rows are distinct, so a head that keeps every
        // variable maps them to distinct answer rows.
        let keeps_all = (0..self.vars.len()).all(|i| plan.contains(&Ok(i)));
        // Each head column is one gather through its source's rows.
        let cols: Vec<Column> = plan
            .iter()
            .map(|term| match *term {
                Ok(i) => self.cells(i).gather(),
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
                probe: Through {
                    column: &probe,
                    rows: &[0, 1, 2],
                },
            }];
            // Odd rows filtered out beforehand.
            let sel: Vec<u32> = (0..build_len).filter(|r| r % 2 == 0).collect();
            let Matches {
                probe_rows,
                build_rows,
                ..
            } = match_rows(&keys, sel.iter().copied(), 3).unwrap();
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
        let sel: Vec<u32> = (0..20).collect();
        let keys = [Key {
            build: &build,
            probe: Through {
                column: &probe,
                rows: &sel,
            },
        }];
        let m = match_rows(&keys, 0..20, 20).unwrap();
        assert!(m.probe_rows.is_empty() && m.build_rows.is_empty());
    }

    /// Every row vector the table keeps — a filtered first selection, a
    /// join one row longer than its probe side, a selective join — has a
    /// capacity of at most 1.125 × its length.
    #[test]
    fn kept_row_vectors_stay_near_their_length() {
        let mut db = Database::new();
        for k in 0..100 {
            db.insert_int("r", &[&[k, k % 2]]);
            db.insert_int("s", &[&[k, 1000 + k]]);
            db.insert_int("t", &[&[1000 + k, k % 7]]);
        }
        db.insert_int("s", &[&[0, 2000]]);
        let q = parse_query("q(K, Y) :- r(K, 0), s(K, Y), t(Y, 3)").unwrap();
        let mut table = ColumnarBindings::unit();
        for (atom, len) in q.body.iter().zip([50, 51, 7]) {
            table = table.join(atom, &db).unwrap();
            assert_eq!(table.len, len);
            for s in &table.sources {
                assert!(
                    s.rows.capacity() <= len + len / 8,
                    "{atom}: {}",
                    s.rows.capacity()
                );
            }
        }
    }

    /// An atom that binds no new variable adds no source; a projection
    /// leaves one, of the distinct kept rows.
    #[test]
    fn sources_are_the_atoms_that_bind_variables() {
        let mut db = Database::new();
        db.insert_int("r", &[&[1, 2], &[1, 3], &[2, 2]]);
        db.insert_int("s", &[&[1, 2], &[2, 2]]);
        db.insert_int("c", &[&[7]]);
        let q = parse_query("q(A) :- r(A, B), c(7), s(A, B)").unwrap();
        let mut table = ColumnarBindings::unit();
        for (atom, sources) in q.body.iter().zip([1, 1, 1]) {
            table = table.join(atom, &db).unwrap();
            assert_eq!(table.sources.len(), sources, "{atom}");
        }
        assert_eq!(table.len, 2);
        let table = table.project_away(&[Symbol::new("B")].into_iter().collect());
        assert_eq!((table.len, table.sources.len()), (2, 1));
        assert!(matches!(table.sources[0].relation, Cow::Owned(_)));
        let i = Value::Int;
        assert_eq!(
            table.project_head(&q.head).unwrap().rows(),
            [vec![i(1)], vec![i(2)]]
        );
    }

    #[test]
    fn head_columns_gather_repeat_and_fill() {
        let mut db = Database::new();
        db.insert_int("r", &[&[1, 2], &[3, 4]]);
        let q = parse_query("q(A, 9, A, B) :- r(A, B)").unwrap();
        let table = ColumnarBindings::unit().join(&q.body[0], &db).unwrap();
        let answer = table.project_head(&q.head).unwrap();
        let i = Value::Int;
        assert_eq!(
            answer.rows(),
            [vec![i(1), i(9), i(1), i(2)], vec![i(3), i(9), i(3), i(4)]]
        );
    }
}
