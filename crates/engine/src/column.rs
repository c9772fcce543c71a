//! Word columns and the row-number set over them — the one storage
//! behind [`Relation`](crate::Relation) and the columnar bindings table.
//!
//! A cell is a kind and a 64-bit word ([`Value::cell`]). A [`Column`]
//! whose cells share one kind — every generated or loaded column — stores
//! the words alone; a mixed one (a canonical database's frozen variables
//! beside constants) adds one tag per cell. Words rather than dictionary
//! codes: an integer needs no dictionary, so a column is self-contained
//! and two relations compare without translating anything.
//!
//! A column stores its words at the width they need ([`Words`]): 32 bits
//! while every word pushed fits — an interned symbol, a Skolem id, a
//! small non-negative integer — and 64 bits from the first word that does
//! not, when it widens once, in place. Like the kind tags, the width is a
//! property of the data: no caller picks it, and a cell reads as the same
//! `u64` at either width, so equality and every hash are width-blind.
//! Kernels that loop over a column dispatch on its width once per column
//! ([`with_words!`]), never per cell.
//!
//! Rows are told apart by a [`RowSet`]: an open-addressed table of *row
//! numbers*, hashed over the row's words. It owns no cell, so a relation
//! stores every tuple exactly once. A relation builds its set on first
//! use ([`RowSet::of_distinct`]), so one that is only read column by
//! column — an executed answer — has none.

use crate::value::{Kind, Value};

/// A column's words, at the width they need: `Narrow` while every word
/// fits in 32 bits, `Wide` from the first one that does not.
#[derive(Clone, Debug)]
pub(crate) enum Words {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

/// Evaluates `$body` with `$w` bound to a column's words at their stored
/// width (a `&Vec<u32>` or a `&Vec<u64>`): the body is compiled once per
/// width, and the dispatch happens once per column. The body reads a
/// cell as `u64::from(w[row])`, which is the cell's word at either width.
macro_rules! with_words {
    ($column:expr, $w:ident => $body:expr) => {
        match $column.words() {
            $crate::column::Words::Narrow($w) => $body,
            // `u64::from` of a `u64` is how one body reads both widths.
            #[allow(clippy::useless_conversion)]
            $crate::column::Words::Wide($w) => $body,
        }
    };
}
pub(crate) use with_words;

/// One attribute's cells, in row order.
#[derive(Clone, Debug)]
pub struct Column {
    words: Words,
    /// The kind of every cell while `tags` is empty.
    kind: Kind,
    /// One kind per cell once two kinds have met in this column.
    tags: Vec<Kind>,
}

impl Default for Column {
    fn default() -> Column {
        Column {
            words: Words::Narrow(Vec::new()),
            kind: Kind::Sym,
            tags: Vec::new(),
        }
    }
}

/// Test shorthand: a column holding the given values in order.
#[cfg(test)]
impl FromIterator<Value> for Column {
    fn from_iter<I: IntoIterator<Item = Value>>(values: I) -> Column {
        let mut column = Column::default();
        for v in values {
            column.push(v);
        }
        column
    }
}

/// The words at `rows`, in that order, at the width they are stored.
fn pick<W: Copy>(words: &[W], rows: &[u32]) -> Vec<W> {
    rows.iter().map(|&r| words[r as usize]).collect()
}

impl Column {
    /// `len` copies of `v`, narrow when its word fits.
    pub(crate) fn constant(v: Value, len: usize) -> Column {
        let (kind, word) = v.cell();
        let words = match u32::try_from(word) {
            Ok(narrow) => Words::Narrow(vec![narrow; len]),
            Err(_) => Words::Wide(vec![word; len]),
        };
        Column {
            words,
            kind,
            tags: Vec::new(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        with_words!(self, w => w.len())
    }

    /// True iff the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row`.
    #[inline]
    pub fn value(&self, row: usize) -> Value {
        Value::from_cell(self.kind_at(row), self.word(row))
    }

    /// Appends a value; the first cell of a second kind makes the column
    /// mixed (one tag per cell from then on), and the first word past 32
    /// bits makes it wide (every earlier word widened in place).
    pub(crate) fn push(&mut self, v: Value) {
        let (kind, word) = v.cell();
        if self.is_empty() {
            self.kind = kind;
        } else if self.tags.is_empty() && kind != self.kind {
            self.tags = vec![self.kind; self.len()];
        }
        if !self.tags.is_empty() {
            self.tags.push(kind);
        }
        match (&mut self.words, u32::try_from(word)) {
            (Words::Narrow(narrow), Ok(w)) => narrow.push(w),
            (Words::Narrow(narrow), Err(_)) => {
                let mut wide: Vec<u64> = narrow.iter().map(|&w| u64::from(w)).collect();
                wide.push(word);
                self.words = Words::Wide(wide);
            }
            (Words::Wide(wide), _) => wide.push(word),
        }
    }

    /// The words, at their stored width: read them through
    /// [`with_words!`].
    #[inline]
    pub(crate) fn words(&self) -> &Words {
        &self.words
    }

    /// The word at `row`, whatever its stored width.
    #[inline]
    pub(crate) fn word(&self, row: usize) -> u64 {
        with_words!(self, w => u64::from(w[row]))
    }

    #[inline]
    fn kind_at(&self, row: usize) -> Kind {
        if self.tags.is_empty() {
            self.kind
        } else {
            self.tags[row]
        }
    }

    /// The kind every cell shares, or `None` for a mixed column. (An
    /// empty column reports an arbitrary kind; it has no cell to differ.)
    pub(crate) fn single_kind(&self) -> Option<Kind> {
        self.tags.is_empty().then_some(self.kind)
    }

    /// True iff the cell at `row` is `v`.
    #[inline]
    pub(crate) fn holds(&self, row: usize, v: Value) -> bool {
        let (kind, word) = v.cell();
        self.word(row) == word && self.kind_at(row) == kind
    }

    /// True iff this column's cell at `row` equals `other`'s at
    /// `other_row`: words *and* kinds, whatever either column's width.
    #[inline]
    pub(crate) fn same_cell(&self, row: usize, other: &Column, other_row: usize) -> bool {
        self.word(row) == other.word(other_row) && self.kind_at(row) == other.kind_at(other_row)
    }

    /// The cells at `rows`, in that order, at this column's width and
    /// with its kind tags.
    pub(crate) fn gather(&self, rows: &[u32]) -> Column {
        Column {
            words: match &self.words {
                Words::Narrow(w) => Words::Narrow(pick(w, rows)),
                Words::Wide(w) => Words::Wide(pick(w, rows)),
            },
            kind: self.kind,
            tags: if self.tags.is_empty() {
                Vec::new()
            } else {
                pick(&self.tags, rows)
            },
        }
    }
}

/// One step of the multiply-rotate hash over a row's words. The
/// multiplier is ⌊2⁶⁴/φ⌋ (Fibonacci hashing): `w · K` read as a fraction
/// of 2⁶⁴ is `w/φ mod 1`, and multiples of the golden ratio's inverse —
/// the irrational worst approximated by fractions — fall into the top
/// bits evenly spaced, so consecutive small integers, the usual keys,
/// land in distinct slots. (The Fx constant this replaced is 2⁶⁴/π, and
/// 1/π ≈ 113/355: under it runs of integers clustered into about 355
/// groups of slots.) Multiplying by an odd constant is a bijection, so
/// the hash of a single word — `mix(0, w)` — tells words apart exactly.
/// Kinds are not hashed: equality checks them, and rows that differ only
/// in a kind are rare enough to share a slot.
#[inline]
pub(crate) fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A power-of-two table size for `rows` entries at load ≤ `1 / spread`,
/// with the shift that maps a hash onto it (the multiply mixes upwards,
/// so the top bits index).
pub(crate) fn table_size(rows: usize, spread: usize) -> (usize, u32) {
    let size = (rows * spread).next_power_of_two().max(16);
    (size, 64 - size.trailing_zeros())
}

/// The hash a [`RowSet`] over `cols` files row `row` under.
pub(crate) fn row_hash(cols: &[Column], row: usize) -> u64 {
    cols.iter().fold(0, |h, c| mix(h, c.word(row)))
}

fn same_row(cols: &[Column], a: usize, b: usize) -> bool {
    cols.iter().all(|c| c.same_cell(a, c, b))
}

const VACANT: u32 = u32::MAX;

/// An open-addressed (linear probing) set of row numbers. The rows live
/// in columns the set does not own: callers pass the hash of the row they
/// look for and a predicate that recognises it among stored row numbers.
/// A default set has no table and holds nothing — the state of an empty
/// relation.
#[derive(Clone, Debug, Default)]
pub(crate) struct RowSet {
    slots: Vec<u32>,
    shift: u32,
}

impl RowSet {
    /// An empty table with room for `rows` entries at load ≤ ½.
    fn with_room(rows: usize) -> RowSet {
        let (size, shift) = table_size(rows, 2);
        RowSet {
            slots: vec![VACANT; size],
            shift,
        }
    }

    /// A table holding all `len` rows of `cols` — from row 0, which the
    /// caller knows to be pairwise distinct — with room for `room`. The
    /// hashes are computed one column at a time, and no row is compared.
    pub(crate) fn of_distinct(cols: &[Column], len: usize, room: usize) -> RowSet {
        let mut hashes = vec![0; len];
        for c in cols {
            with_words!(c, words => {
                for (h, &w) in hashes.iter_mut().zip(&words[..len]) {
                    *h = mix(*h, u64::from(w));
                }
            });
        }
        let mut set = RowSet::with_room(room.max(len));
        for (row, &hash) in hashes.iter().enumerate() {
            set.find_or_insert(hash, row as u32, |_| false);
        }
        set
    }

    /// True iff `entries` entries keep the load at or below ½.
    pub(crate) fn has_room_for(&self, entries: usize) -> bool {
        entries * 2 <= self.slots.len()
    }

    /// Where the search for a row hashing like `hash` ends: the slot,
    /// and the stored row number `is_it` accepted there (`None`: the slot
    /// is vacant). Needs a table, and a vacant slot in it — callers keep
    /// the load at or below ½ ([`RowSet::has_room_for`]).
    fn probe(&self, hash: u64, mut is_it: impl FnMut(u32) -> bool) -> (usize, Option<u32>) {
        let mask = self.slots.len() - 1;
        let mut at = (hash >> self.shift) as usize;
        loop {
            match self.slots[at] {
                VACANT => return (at, None),
                row if is_it(row) => return (at, Some(row)),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// The stored row number `is_it` accepts among those hashing like
    /// `hash`, if any.
    pub(crate) fn find(&self, hash: u64, is_it: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(hash, is_it).1
    }

    /// [`RowSet::find`], storing `row` in the vacant slot the search
    /// ended at when nothing matched.
    pub(crate) fn find_or_insert(
        &mut self,
        hash: u64,
        row: u32,
        is_it: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        let (at, found) = self.probe(hash, is_it);
        if found.is_none() {
            self.slots[at] = row;
        }
        found
    }
}

/// Keep-first deduplication of the `len` rows spelled by `cols`: the
/// ascending numbers of the rows that are the first of their value, and
/// the set holding exactly those numbers. Allocates the two results and
/// nothing per row. (With zero columns every row is the empty tuple, and
/// all of them equal the first.)
pub(crate) fn distinct_rows(cols: &[Column], len: usize) -> (Vec<u32>, RowSet) {
    let mut firsts: Vec<u32> = Vec::with_capacity(len);
    if len == 0 {
        return (firsts, RowSet::default());
    }
    let mut set = RowSet::with_room(len);
    for row in 0..len {
        let seen = set.find_or_insert(row_hash(cols, row), row as u32, |r| {
            same_row(cols, r as usize, row)
        });
        if seen.is_none() {
            firsts.push(row as u32);
        }
    }
    (firsts, set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_cq::Symbol;

    #[test]
    fn single_kind_columns_store_words_alone() {
        let c = Column::from_iter([Value::Int(4), Value::Int(-1)]);
        assert_eq!(c.single_kind(), Some(Kind::Int));
        assert!(c.tags.is_empty());
        assert_eq!(c.value(1), Value::Int(-1));
    }

    #[test]
    fn a_second_kind_tags_every_cell() {
        let x = Symbol::new("X");
        let c = Column::from_iter([Value::sym("a"), Value::Frozen(x), Value::sym("b")]);
        assert_eq!(c.single_kind(), None);
        assert_eq!(c.tags, [Kind::Sym, Kind::Frozen, Kind::Sym]);
        assert_eq!(c.value(0), Value::sym("a"));
        assert_eq!(c.value(1), Value::Frozen(x));
        let picked = c.gather(&[2, 1]);
        assert_eq!(picked.value(0), Value::sym("b"));
        assert_eq!(picked.value(1), Value::Frozen(x));
    }

    #[test]
    fn equal_words_of_different_kinds_are_different_cells() {
        let ints = Column::from_iter([Value::Int(3)]);
        let skolems = Column::from_iter([Value::Skolem(3)]);
        assert_eq!(ints.word(0), skolems.word(0));
        assert!(!ints.same_cell(0, &skolems, 0));
        assert!(ints.holds(0, Value::Int(3)));
        assert!(!ints.holds(0, Value::Skolem(3)));
        let mixed = Column::from_iter([Value::Int(3), Value::Skolem(3)]);
        assert!(!mixed.same_cell(0, &mixed, 1));
        assert!(mixed.same_cell(1, &skolems, 0));
    }

    fn is_wide(c: &Column) -> bool {
        matches!(c.words, Words::Wide(_))
    }

    /// Values at the edges of 32 bits, each with the width its column
    /// must take. Catches narrowing by `as u32` (`Int(1 << 32)` would
    /// read back as `Int(0)`, `Int(-1)` as `Int(4294967295)`).
    const EDGES: [(Value, bool); 6] = [
        (Value::Int(u32::MAX as i64), false),
        (Value::Int(1 << 32), true),
        (Value::Int(-1), true),
        (Value::Int(i64::MIN), true),
        (Value::Skolem(u32::MAX), false),
        (Value::Int(0), false),
    ];

    #[test]
    fn edge_words_round_trip_at_the_width_they_need() {
        for (v, wide) in EDGES {
            for c in [Column::from_iter([v]), Column::constant(v, 3)] {
                assert_eq!(is_wide(&c), wide, "{v}");
                assert!(
                    (0..c.len()).all(|r| c.value(r) == v && c.holds(r, v)),
                    "{v}"
                );
            }
        }
    }

    /// A column of `n` narrow cells, but for one wide cell at `at`,
    /// checked cell by cell. Catches a widening that drops, or
    /// reorders, the cells pushed before it.
    #[test]
    fn a_column_widens_at_any_position_and_keeps_every_cell() {
        let value = |at: usize, r: usize| {
            if r == at {
                Value::Int((1 << 32) + r as i64)
            } else {
                Value::Int(r as i64)
            }
        };
        for n in 0..12 {
            for at in 0..=n {
                let c = Column::from_iter((0..n).map(|r| value(at, r)));
                assert_eq!(c.len(), n);
                assert_eq!(is_wide(&c), at < n, "n {n}, wide at {at}");
                for r in 0..n {
                    assert_eq!(c.value(r), value(at, r), "n {n}, wide at {at}, row {r}");
                }
            }
        }
    }

    /// Gathering keeps the source's width. Catches a gather that
    /// narrows a wide column (its cells past 32 bits come back cut), and
    /// one that widens a narrow one (the bytes the width saves are lost).
    #[test]
    fn gather_keeps_the_width_of_its_source() {
        let wide = Column::from_iter([Value::Int(3), Value::Int(-2), Value::Int(1 << 40)]);
        let narrow = Column::from_iter([Value::Int(3), Value::Int(7), Value::Int(9)]);
        for c in [wide, narrow] {
            let picked = c.gather(&[2, 0, 2]);
            assert_eq!(is_wide(&picked), is_wide(&c));
            assert_eq!(picked.value(0), c.value(2));
            assert_eq!(picked.value(1), c.value(0));
            assert_eq!(picked.value(2), c.value(2));
        }
    }

    /// A cell is its `u64` word at either width: a narrow and a wide
    /// `Int(5)` are the same cell and hash alike; `Int((1 << 32) + 5)`
    /// is neither, though its low 32 bits are 5.
    #[test]
    fn cells_compare_and_hash_alike_at_either_width() {
        let narrow = Column::from_iter([Value::Int(5)]);
        let wide = Column::from_iter([Value::Int(5), Value::Int((1 << 32) + 5)]);
        assert!(!is_wide(&narrow) && is_wide(&wide));
        assert!(narrow.same_cell(0, &wide, 0) && wide.same_cell(0, &narrow, 0));
        assert!(!narrow.same_cell(0, &wide, 1) && !wide.same_cell(1, &narrow, 0));
        let hash = |c: &Column, r| row_hash(std::slice::from_ref(c), r);
        assert_eq!(hash(&narrow, 0), hash(&wide, 0));
        assert_ne!(hash(&narrow, 0), hash(&wide, 1));
        let set = RowSet::of_distinct(std::slice::from_ref(&wide), 2, 2);
        assert_eq!(set.find(hash(&narrow, 0), |r| r == 0), Some(0));
    }

    #[test]
    fn distinct_rows_keeps_firsts() {
        for len in [0usize, 1, 100] {
            // Row r is (r % 5, r % 3): 15 distinct rows at most.
            let a = Column::from_iter((0..len as i64).map(|r| Value::Int(r % 5)));
            let b = Column::from_iter((0..len as i64).map(|r| Value::Int(r % 3)));
            let cols = [a, b];
            let (firsts, set) = distinct_rows(&cols, len);
            let expected: Vec<u32> = (0..len.min(15) as u32).collect();
            assert_eq!(firsts, expected, "len {len}");
            assert!(firsts
                .iter()
                .all(|&f| set.find(row_hash(&cols, f as usize), |r| r == f).is_some()));
        }
    }

    /// `n` keys from `0..n`: all of them in order, and `n` draws
    /// (splitmix64, fixed seed) — the benchmark's sizing, a domain as
    /// large as the relation.
    fn small_integer_keys(n: usize) -> [(&'static str, Vec<u64>); 2] {
        let mut state = 0x5eed_u64;
        let mut draw = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n as u64
        };
        [
            ("consecutive", (0..n as u64).collect()),
            ("uniform", (0..n).map(|_| draw()).collect()),
        ]
    }

    /// The join index over single-kind integer keys, sized as `match_rows`
    /// sizes it. Small integers must occupy at least 0.9 of the slots a
    /// uniform hash would, and a probe for each stored key must walk at
    /// most 1.2 chain entries on average (one entry per distinct key:
    /// the entries of other keys in its slot are the overhead). Under the
    /// Fx multiplier, 2⁶⁴/π, consecutive keys at 5 000 occupied 722 of
    /// 8 192 slots and a probe walked 8.9 entries.
    #[test]
    fn small_integer_keys_spread_over_the_join_index() {
        for n in [5_000usize, 20_000] {
            let (size, shift) = table_size(n, 1);
            for (label, keys) in small_integer_keys(n) {
                let distinct: std::collections::BTreeSet<u64> = keys.into_iter().collect();
                let mut per_slot = vec![0usize; size];
                for &k in &distinct {
                    per_slot[(mix(0, k) >> shift) as usize] += 1;
                }
                let occupied = per_slot.iter().filter(|&&c| c > 0).count() as f64;
                let keys = distinct.len() as f64;
                let uniform = size as f64 * (1.0 - (1.0 - 1.0 / size as f64).powf(keys));
                let walked = per_slot.iter().map(|c| c * c).sum::<usize>() as f64 / keys;
                assert!(
                    occupied >= 0.9 * uniform,
                    "{label} n={n}: {occupied} of {size} slots, a uniform hash fills {uniform:.0}"
                );
                assert!(
                    walked <= 1.2,
                    "{label} n={n}: a probe walks {walked:.2} entries"
                );
            }
        }
    }

    #[test]
    fn zero_columns_hold_one_distinct_row() {
        assert_eq!(distinct_rows(&[], 0).0, [] as [u32; 0]);
        assert_eq!(distinct_rows(&[], 40).0, [0]);
    }
}
