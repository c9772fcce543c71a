//! A rewriting body as an indexed space of subgoal subsets, and the
//! System-R estimate tabulated over it.
//!
//! Both plan searches cost *subsets* of one body — the M2 dynamic
//! program every subset once, the M3 search every prefix it extends — so
//! the memo that makes them cheap is scoped to a body and indexed by
//! position, not keyed by cloned atoms:
//!
//! * [`Subsets`] is the view a search holds: the body, subgoal `i` at bit
//!   `i`, and room for per-subset estimates by mask. A subgoal pushed on
//!   top (a grafted filter) takes the next bit, so everything tabulated
//!   for the body below it stays valid.
//! * `Fold` is the same arithmetic along one left-deep sequence of
//!   subgoals; it backs `EstimateOracle::intermediate_size`, where the
//!   M3 search asks for the prefixes of a depth-first walk and each
//!   request shares all but its last subgoal with the one before.
//!
//! The estimate itself is the classic recipe of [`crate::catalog`]:
//! `|R ⋈ S| = |R|·|S| / max(d_R(v), d_S(v))` per shared variable under
//! independence, folded one subgoal at a time —
//! `est(S) = join(est(S ∖ top), top)`. Variables are numbered once per
//! body and every loop over them runs in that numbering or in a
//! subgoal's term order, never in hash order, so equal inputs give equal
//! bits.

use crate::catalog::Catalog;
use std::collections::BTreeSet;
use std::ops::Range;
use viewplan_cq::{Atom, Symbol, Term};

/// The subsets of one rewriting body, indexed by subgoal bitmask — what
/// a plan search asks a [`SizeOracle`](crate::SizeOracle) about through
/// [`subset_size`](crate::SizeOracle::subset_size). It belongs to one
/// search against one oracle: an estimating oracle tabulates into it.
pub struct Subsets {
    body: Vec<Atom>,
    estimates: Option<EstimateTable>,
}

impl Subsets {
    /// The subset space of `body`: subgoal `i` is bit `i` of a mask.
    pub fn new(body: &[Atom]) -> Subsets {
        Subsets {
            body: body.to_vec(),
            estimates: None,
        }
    }

    /// The body the masks select from.
    pub fn body(&self) -> &[Atom] {
        &self.body
    }

    /// Adds `atom` as the top bit. Every subset numbered so far keeps
    /// its mask and whatever was tabulated for it.
    pub fn push(&mut self, atom: Atom) {
        self.body.push(atom);
    }

    /// Removes the top subgoal, and the upper half of the table with it.
    pub fn pop(&mut self) {
        self.body.pop();
        if let Some(table) = &mut self.estimates {
            table.truncate(self.body.len());
        }
    }

    /// All variables of the subgoals `mask` selects.
    pub fn variables(&self, mask: u32) -> BTreeSet<Symbol> {
        selected(&self.body, mask)
            .flat_map(Atom::variables)
            .collect()
    }

    /// The catalog estimate of `IR(mask)` with every attribute retained,
    /// and whether it was already tabulated. Subsets are filled in mask
    /// order, each by one join onto the subset without its top subgoal
    /// (the index-order fold, one step at a time), so a dynamic program
    /// walking the masks upwards pays exactly one join per subset.
    pub(crate) fn estimated_size(&mut self, catalog: &Catalog, mask: u32) -> (f64, bool) {
        debug_assert!(u64::from(mask) >> self.body.len().min(63) == 0);
        let table = self.estimates.get_or_insert_with(EstimateTable::default);
        table.extend_to(catalog, &self.body);
        let known = (mask as usize) < table.rows.len();
        table.fill_through(mask as usize);
        (table.rows[mask as usize], known)
    }
}

/// The items at the positions `mask` selects, in index order.
pub(crate) fn selected<T>(items: &[T], mask: u32) -> impl Iterator<Item = &T> {
    items
        .iter()
        .enumerate()
        .filter(move |(i, _)| mask & (1 << i) != 0)
        .map(|(_, item)| item)
}

/// Marks a variable a sub-result does not bind. Distinct counts are
/// non-negative, and `min` with a count keeps the marker.
const UNBOUND: f64 = -1.0;

/// Variables numbered in order of first occurrence.
#[derive(Default)]
struct Numbering(Vec<Symbol>);

impl Numbering {
    fn number(&mut self, v: Symbol) -> usize {
        self.0
            .iter()
            .position(|&seen| seen == v)
            .unwrap_or_else(|| {
                self.0.push(v);
                self.0.len() - 1
            })
    }
}

/// One subgoal after its local selections (constants, repeated
/// variables): estimated rows and, in term order, the distinct count of
/// each variable it binds.
struct AtomEstimate {
    rows: f64,
    distinct: Vec<(usize, f64)>,
}

/// A relation the catalog does not know estimates as empty and binds
/// nothing.
fn atom_estimate(catalog: &Catalog, atom: &Atom, vars: &mut Numbering) -> AtomEstimate {
    let mut distinct: Vec<(usize, f64)> = Vec::new();
    let Some(stats) = catalog.get(atom.predicate) else {
        return AtomEstimate {
            rows: 0.0,
            distinct,
        };
    };
    let mut rows = stats.cardinality;
    for (i, t) in atom.terms.iter().enumerate() {
        let d = stats.distinct.get(i).copied().unwrap_or(1.0).max(1.0);
        match *t {
            Term::Const(_) => rows /= d,
            Term::Var(v) => {
                let v = vars.number(v);
                match distinct.iter().find(|(seen, _)| *seen == v) {
                    // Repeated variable: equality selection.
                    Some(&(_, prev)) => rows /= prev.max(d),
                    None => distinct.push((v, d)),
                }
            }
        }
    }
    let rows = rows.max(if stats.cardinality > 0.0 { 1.0 } else { 0.0 });
    for (_, d) in &mut distinct {
        *d = d.min(rows);
    }
    AtomEstimate { rows, distinct }
}

/// Joins one subgoal onto the sub-result whose distincts are `table[a]`
/// and whose rows are `a_rows`: appends the `width` joined distincts to
/// `table` and returns the joined rows. Shared variables divide in the
/// subgoal's term order, so the rounding is a function of the inputs.
fn join(
    table: &mut Vec<f64>,
    a: Range<usize>,
    a_rows: f64,
    atom: &AtomEstimate,
    width: usize,
) -> f64 {
    let start = table.len();
    table.extend_from_within(a);
    table.resize(start + width, UNBOUND);
    let joined = &mut table[start..];
    let mut rows = a_rows * atom.rows;
    for &(v, db) in &atom.distinct {
        let da = &mut joined[v];
        if *da == UNBOUND {
            *da = db;
        } else {
            rows /= da.max(db).max(1.0);
            *da = da.min(db);
        }
    }
    let rows = if a_rows == 0.0 || atom.rows == 0.0 {
        0.0
    } else {
        rows.max(1.0)
    };
    for d in joined {
        *d = d.min(rows.max(1.0));
    }
    rows
}

/// Rows and per-variable distincts of every subset tabulated so far, in
/// flat arrays indexed by mask.
#[derive(Default)]
struct EstimateTable {
    vars: Numbering,
    atoms: Vec<AtomEstimate>,
    /// `rows[mask]`; masks below `rows.len()` are filled.
    rows: Vec<f64>,
    /// `distinct[mask * width + variable]`.
    distinct: Vec<f64>,
    width: usize,
}

impl EstimateTable {
    /// Takes in the subgoals pushed since the last request. One that
    /// brings a new variable widens every row, so the table refills.
    fn extend_to(&mut self, catalog: &Catalog, body: &[Atom]) {
        for atom in &body[self.atoms.len()..] {
            self.atoms
                .push(atom_estimate(catalog, atom, &mut self.vars));
        }
        if self.width != self.vars.0.len() {
            self.width = self.vars.0.len();
            self.rows.clear();
            self.distinct.clear();
        }
    }

    fn truncate(&mut self, subgoals: usize) {
        self.atoms.truncate(subgoals);
        self.rows.truncate(1 << subgoals);
        self.distinct.truncate(self.width << subgoals);
    }

    fn fill_through(&mut self, mask: usize) {
        while self.rows.len() <= mask {
            let next = self.rows.len();
            let rows = if next == 0 {
                self.distinct.resize(self.width, UNBOUND);
                1.0
            } else {
                let top = next.ilog2() as usize;
                let rest = next & !(1 << top);
                join(
                    &mut self.distinct,
                    rest * self.width..(rest + 1) * self.width,
                    self.rows[rest],
                    &self.atoms[top],
                    self.width,
                )
            };
            self.rows.push(rows);
        }
    }
}

/// The estimate along one left-deep sequence of subgoals. Consecutive
/// requests that share a prefix — the prefixes of a depth-first order
/// search, the steps of one plan — reuse it and pay one join per new
/// subgoal.
#[derive(Default)]
pub(crate) struct Fold {
    atoms: Vec<Atom>,
    steps: Vec<FoldStep>,
    vars: Numbering,
    /// The steps' distincts end to end; step `k` is as wide as the
    /// variables numbered through subgoal `k`.
    distinct: Vec<f64>,
}

struct FoldStep {
    rows: f64,
    /// Where this step's distincts end in `Fold::distinct`.
    end: usize,
}

impl Fold {
    /// Folds `sequence` in order. Returns how many subgoals it holds and
    /// whether every one of them was already folded.
    pub(crate) fn fold<'a>(
        &mut self,
        catalog: &Catalog,
        sequence: impl Iterator<Item = &'a Atom>,
    ) -> (usize, bool) {
        let mut len = 0;
        let mut known = true;
        for atom in sequence {
            if self.atoms.get(len) != Some(atom) {
                known = false;
                self.truncate(len);
                self.push(catalog, atom);
            }
            len += 1;
        }
        (len, known)
    }

    fn truncate(&mut self, len: usize) {
        self.atoms.truncate(len);
        self.steps.truncate(len);
        let end = self.steps.last().map_or(0, |s| s.end);
        let width = end - self.start_of(len.saturating_sub(1));
        self.vars.0.truncate(width);
        self.distinct.truncate(end);
    }

    fn start_of(&self, step: usize) -> usize {
        step.checked_sub(1).map_or(0, |prev| self.steps[prev].end)
    }

    fn push(&mut self, catalog: &Catalog, atom: &Atom) {
        let estimate = atom_estimate(catalog, atom, &mut self.vars);
        let (a, a_rows) = match self.steps.last() {
            Some(last) => (self.start_of(self.steps.len() - 1)..last.end, last.rows),
            None => (0..0, 1.0),
        };
        let width = self.vars.0.len();
        let rows = join(&mut self.distinct, a, a_rows, &estimate, width);
        self.atoms.push(atom.clone());
        self.steps.push(FoldStep {
            rows,
            end: self.distinct.len(),
        });
    }

    /// The first `len` folded subgoals projected onto `retained`: the
    /// rows, capped by the product of the retained distincts when some
    /// variable is projected away.
    pub(crate) fn projected_size(&self, len: usize, retained: &BTreeSet<Symbol>) -> f64 {
        let Some(step) = len.checked_sub(1).map(|last| &self.steps[last]) else {
            return 1.0;
        };
        let mut cap = 1.0f64;
        let mut all_retained = true;
        let distinct = &self.distinct[self.start_of(len - 1)..step.end];
        for (v, d) in self.vars.0.iter().zip(distinct) {
            if retained.contains(v) {
                cap *= d.max(1.0);
            } else {
                all_retained = false;
            }
        }
        if all_retained {
            step.rows
        } else {
            step.rows.min(cap)
        }
    }
}
