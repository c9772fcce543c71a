//! A rewriting body as an indexed space of subgoal subsets and of
//! subgoal prefixes, and the System-R estimate tabulated over both.
//!
//! Both plan searches cost parts of one body — the M2 dynamic program
//! every *subset* once, the M3 search every ordered *prefix* it extends
//! — so the memo that makes them cheap is scoped to a body and indexed
//! by position, not keyed by cloned atoms:
//!
//! * [`Subsets`] is the view the M2 search holds: the body, subgoal `i`
//!   at bit `i`, and room for per-subset estimates by mask. A subgoal
//!   pushed on top (a grafted filter) takes the next bit, so everything
//!   tabulated for the body below it stays valid; one more subgoal can
//!   also be joined onto the top row without entering the table
//!   ([`SizeOracle::joined_size`](crate::SizeOracle::joined_size), which
//!   M2's graft bound asks for).
//! * [`Prefixes`] is its ordered twin, the view the M3 search holds: the
//!   path from the root of the order search — subgoal indices in
//!   execution order, and the §6.2 renames closed on it as
//!   *generations* (a variable's index and the subgoals renamed apart
//!   together). Everything is a position: a variable knows the subgoals
//!   it occurs in as a mask, and a fold step is keyed on its subgoal
//!   index and the generations renaming it. An estimating oracle
//!   tabulates one fold step per depth; a step stays valid until the
//!   path changes at or above it, so a depth-first search pays one join
//!   per node. Subgoals and variable names are spelled out only on
//!   request ([`Prefixes::atoms`], [`Prefixes::retained`]) — for an
//!   oracle that measures, and for a plan that replaces the incumbent.
//! * `Fold` is the same arithmetic along one left-deep sequence of
//!   spelled-out subgoals; it backs `EstimateOracle::intermediate_size`,
//!   where each request shares all but its last subgoals with the one
//!   before.
//!
//! The estimate itself is the classic recipe of [`crate::catalog`]:
//! `|R ⋈ S| = |R|·|S| / max(d_R(v), d_S(v))` per shared variable under
//! independence, folded one subgoal at a time —
//! `est(S) = join(est(S ∖ top), top)`. Variables are numbered in order
//! of first occurrence and every loop over them runs in that numbering
//! or in a subgoal's term order, never in hash order, so equal inputs
//! give equal bits — and a prefix folded by position gives the bits the
//! same prefix spelled out and folded by `Fold` gives.

use crate::catalog::Catalog;
use std::collections::{BTreeSet, HashSet};
use std::ops::Range;
use viewplan_cq::{Atom, ConjunctiveQuery, Substitution, Symbol, Term};

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
    pub(crate) fn new(body: &[Atom]) -> Subsets {
        Subsets {
            body: body.to_vec(),
            estimates: None,
        }
    }

    /// The body the masks select from.
    pub(crate) fn body(&self) -> &[Atom] {
        &self.body
    }

    /// Adds `atom` as the top bit. Every subset numbered so far keeps
    /// its mask and whatever was tabulated for it.
    pub(crate) fn push(&mut self, atom: Atom) {
        self.body.push(atom);
    }

    /// Removes the top subgoal, and the upper half of the table with it.
    pub(crate) fn pop(&mut self) {
        self.body.pop();
        if let Some(table) = &mut self.estimates {
            table.truncate(self.body.len());
        }
    }

    /// All variables of the subgoals `mask` selects.
    pub(crate) fn variables(&self, mask: u32) -> BTreeSet<Symbol> {
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
        let table = self.table(catalog);
        let known = (mask as usize) < table.rows.len();
        table.fill_through(mask as usize);
        (table.rows[mask as usize], known)
    }

    /// The catalog estimate of `IR` of the whole body and `atom`, every
    /// attribute retained: one join onto the top row, which is the row
    /// [`push`](Self::push)ing `atom` and filling would compute — to the
    /// bit — without taking `atom` into the table.
    pub(crate) fn joined_size(&mut self, catalog: &Catalog, atom: &Atom) -> f64 {
        let table = self.table(catalog);
        let top = table.atoms.len();
        let full = (1usize << top) - 1;
        table.fill_through(full);
        let width = table.vars.0.len();
        let estimate = atom_estimate(catalog, atom, |v| table.vars.number(v));
        let end = table.distinct.len();
        let rows = join(
            &mut table.distinct,
            full * width..(full + 1) * width,
            table.rows[full],
            &estimate,
            table.vars.0.len(),
        );
        table.distinct.truncate(end);
        table.vars.0.truncate(width);
        rows
    }

    fn table(&mut self, catalog: &Catalog) -> &mut EstimateTable {
        let table = self.estimates.get_or_insert_with(EstimateTable::default);
        table.extend_to(catalog, &self.body);
        table
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

/// A variable of a rewriting body, by position.
pub(crate) struct Var {
    pub(crate) name: Symbol,
    /// The subgoals it occurs in.
    pub(crate) occurs: u32,
    pub(crate) head: bool,
}

/// One rename: `.0` indexes the variable, `.1` holds the subgoals whose
/// occurrences of it were renamed apart together.
pub(crate) type Generation = (usize, u32);

/// The ordered prefixes of one rewriting body — the path of the M3
/// order search, as a [`SizeOracle`](crate::SizeOracle) sees it through
/// [`prefix_size`](crate::SizeOracle::prefix_size): subgoals in
/// execution order with the §6.2 renames closed on the way applied. It
/// belongs to one search against one oracle: an estimating oracle
/// tabulates into it.
pub struct Prefixes {
    body: Vec<Atom>,
    /// In `Symbol` order, the order rename candidates are tried in.
    pub(crate) vars: Vec<Var>,
    /// The path: subgoal indices in execution order.
    order: Vec<usize>,
    /// Per step, where its generations start in `closed`.
    starts: Vec<usize>,
    /// Every generation closed on the path, with its fresh name.
    closed: Vec<(Generation, Symbol)>,
    /// Per variable, the occurrences the closed generations renamed.
    renamed: Vec<u32>,
    estimates: Option<PrefixTable>,
}

impl Prefixes {
    /// The empty path over the body of `rewriting`, which must have at
    /// most 32 subgoals (subsets are `u32` masks).
    pub(crate) fn new(rewriting: &ConjunctiveQuery) -> Prefixes {
        let body = &rewriting.body;
        let names: BTreeSet<Symbol> = body.iter().flat_map(Atom::variables).collect();
        let vars: Vec<Var> = names
            .into_iter()
            .map(|name| Var {
                name,
                occurs: (0..body.len())
                    .filter(|&g| body[g].contains_var(name))
                    .fold(0, |mask, g| mask | 1 << g),
                head: rewriting.head.contains_var(name),
            })
            .collect();
        Prefixes {
            body: body.clone(),
            renamed: vec![0; vars.len()],
            vars,
            order: Vec::with_capacity(body.len()),
            starts: Vec::with_capacity(body.len()),
            closed: Vec::new(),
            estimates: None,
        }
    }

    /// The path: subgoal indices in execution order.
    pub(crate) fn order(&self) -> &[usize] {
        &self.order
    }

    /// The path's subgoals in execution order, every rename closed on
    /// the path applied.
    pub(crate) fn atoms(&self) -> Vec<Atom> {
        self.order.iter().map(|&g| self.renamed_atom(g)).collect()
    }

    /// The variables the path's intermediate relation keeps: those it
    /// still names that the head or a subgoal off the path needs.
    pub(crate) fn retained(&self) -> BTreeSet<Symbol> {
        let used = self.used();
        (0..self.vars.len())
            .filter(|&v| self.named(v, used) && self.needed(v, used))
            .map(|v| self.vars[v].name)
            .collect()
    }

    /// The path as a subgoal set.
    fn used(&self) -> u32 {
        self.order.iter().fold(0, |mask, g| mask | 1 << g)
    }

    /// The occurrences of variable `v` renamed away on the path.
    pub(crate) fn renamed(&self, v: usize) -> u32 {
        self.renamed[v]
    }

    /// Every generation closed on the path.
    pub(crate) fn closed(&self) -> impl Iterator<Item = Generation> + '_ {
        self.closed.iter().map(|&(generation, _)| generation)
    }

    /// Extends the path by subgoal `g`; a fold step tabulated at this
    /// depth for an earlier path is forgotten.
    pub(crate) fn push(&mut self, g: usize) {
        self.invalidate(self.order.len());
        self.starts.push(self.closed.len());
        self.order.push(g);
    }

    /// Takes the last subgoal off the path (after its generations).
    pub(crate) fn pop(&mut self) {
        self.order.pop();
        self.starts.pop();
    }

    /// Closes `generation` at the last step, under the fresh `name`.
    pub(crate) fn close(&mut self, generation: Generation, name: Symbol) {
        self.renamed[generation.0] |= generation.1;
        self.closed.push((generation, name));
        self.invalidate(self.first_in(generation.1));
    }

    /// Reopens the last `count` generations closed.
    pub(crate) fn reopen(&mut self, count: usize) {
        for _ in 0..count {
            let Some(((v, mask), _)) = self.closed.pop() else {
                return;
            };
            self.renamed[v] &= !mask;
            self.invalidate(self.first_in(mask));
        }
    }

    /// How many variables the path's last step drops: its generations,
    /// which go under their fresh names on the spot, and the variables
    /// the last subgoal brings the last occurrence of.
    pub(crate) fn dropped_at_last_step(&self) -> usize {
        let (Some(&g), Some(&start)) = (self.order.last(), self.starts.last()) else {
            return 0;
        };
        let used = self.used();
        let supplementary = (0..self.vars.len())
            .filter(|&v| self.drops_original(v, used, g, self.renamed[v]))
            .count();
        self.closed.len() - start + supplementary
    }

    /// Per step of the path, the variables dropped after it — built
    /// once per plan, from the masks alone.
    pub(crate) fn drops(&self) -> Vec<HashSet<Symbol>> {
        let mut renamed = vec![0u32; self.vars.len()];
        let mut used = 0u32;
        (0..self.order.len())
            .map(|step| {
                let g = self.order[step];
                used |= 1 << g;
                let end = self.starts.get(step + 1).copied();
                let generations = &self.closed[self.starts[step]..end.unwrap_or(self.closed.len())];
                let mut dropped = HashSet::new();
                for &((v, mask), name) in generations {
                    renamed[v] |= mask;
                    dropped.insert(name);
                }
                for (v, var) in self.vars.iter().enumerate() {
                    if self.drops_original(v, used, g, renamed[v]) {
                        dropped.insert(var.name);
                    }
                }
                dropped
            })
            .collect()
    }

    /// The catalog estimate of the path's intermediate relation
    /// projected onto [`retained`](Self::retained), and whether every
    /// fold step was already tabulated: the bits `Fold` gives for
    /// [`atoms`](Self::atoms) and that projection.
    pub(crate) fn estimated_size(&mut self, catalog: &Catalog) -> (f64, bool) {
        let mut table = self
            .estimates
            .take()
            .unwrap_or_else(|| PrefixTable::new(catalog, &self.body, &self.vars));
        let known = table.fold.steps.len() == self.order.len();
        for &g in &self.order[table.fold.steps.len()..] {
            let estimate = &table.atoms[g];
            table.joined.rows = estimate.rows;
            table.joined.distinct.clear();
            for &(v, d) in &estimate.distinct {
                let slot = table.fold.vars.number((v, self.generation_of(v, g)));
                table.joined.distinct.push((slot, d));
            }
            table.fold.push(&table.joined);
        }
        let used = self.used();
        let size = table
            .fold
            .projected_size(self.order.len(), |(v, generation)| {
                generation == 0 && self.needed(v, used)
            });
        self.estimates = Some(table);
        (size, known)
    }

    /// Whether the path still names variable `v` as spelled.
    fn named(&self, v: usize, used: u32) -> bool {
        self.vars[v].occurs & used & !self.renamed[v] != 0
    }

    /// Whether the head or a subgoal off the path needs variable `v`.
    fn needed(&self, v: usize, used: u32) -> bool {
        self.vars[v].head || self.vars[v].occurs & !used != 0
    }

    /// Whether variable `v`, as spelled, is dropped at the step that put
    /// subgoal `g` on a path `used` whose renames are `renamed`: named,
    /// not needed, and its last occurrence is `g`.
    fn drops_original(&self, v: usize, used: u32, g: usize, renamed: u32) -> bool {
        let var = &self.vars[v];
        var.occurs & used & !renamed != 0 && !self.needed(v, used) && var.occurs & (1 << g) != 0
    }

    /// The subgoals of the closed generation of variable `v` that
    /// renames it in subgoal `g`, or 0 when `g` spells it as it is.
    fn generation_of(&self, v: usize, g: usize) -> u32 {
        if self.renamed[v] & (1 << g) == 0 {
            return 0;
        }
        self.closed
            .iter()
            .find(|((w, mask), _)| *w == v && mask & (1 << g) != 0)
            .map_or(0, |((_, mask), _)| *mask)
    }

    /// Subgoal `g` with every closed generation it belongs to renamed to
    /// that generation's fresh name.
    fn renamed_atom(&self, g: usize) -> Atom {
        let renames = self
            .closed
            .iter()
            .filter(|((_, mask), _)| mask & (1 << g) != 0)
            .map(|&((v, _), fresh)| (self.vars[v].name, Term::Var(fresh)));
        self.body[g].apply(&Substitution::from_pairs(renames))
    }

    /// The first step of the path whose subgoal `mask` selects.
    fn first_in(&self, mask: u32) -> usize {
        self.order
            .iter()
            .position(|&g| mask & (1 << g) != 0)
            .unwrap_or(self.order.len())
    }

    /// Forgets the fold steps from `depth` on: the path changed there.
    fn invalidate(&mut self, depth: usize) {
        if let Some(table) = &mut self.estimates {
            if depth < table.fold.steps.len() {
                table.fold.truncate(depth);
            }
        }
    }
}

/// Marks a variable a sub-result does not bind. Distinct counts are
/// non-negative, and `min` with a count keeps the marker.
const UNBOUND: f64 = -1.0;

/// Variables numbered in order of first occurrence.
struct Numbering<K>(Vec<K>);

impl<K> Default for Numbering<K> {
    fn default() -> Numbering<K> {
        Numbering(Vec::new())
    }
}

impl<K: PartialEq> Numbering<K> {
    fn number(&mut self, v: K) -> usize {
        self.0
            .iter()
            .position(|seen| *seen == v)
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
/// nothing. `number` numbers a variable; the arithmetic does not depend
/// on the numbers, only on which occurrences share one.
fn atom_estimate(
    catalog: &Catalog,
    atom: &Atom,
    mut number: impl FnMut(Symbol) -> usize,
) -> AtomEstimate {
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
                let v = number(v);
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
    vars: Numbering<Symbol>,
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
            let estimate = atom_estimate(catalog, atom, |v| self.vars.number(v));
            self.atoms.push(estimate);
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

/// The fold steps of one left-deep sequence, each one join onto the
/// step before; variables are numbered by whatever identifies them.
struct Steps<K> {
    vars: Numbering<K>,
    steps: Vec<FoldStep>,
    /// The steps' distincts end to end; step `k` is as wide as the
    /// variables numbered through subgoal `k`.
    distinct: Vec<f64>,
}

impl<K> Default for Steps<K> {
    fn default() -> Steps<K> {
        Steps {
            vars: Numbering::default(),
            steps: Vec::new(),
            distinct: Vec::new(),
        }
    }
}

struct FoldStep {
    rows: f64,
    /// Where this step's distincts end in `Steps::distinct`.
    end: usize,
}

impl<K: Copy> Steps<K> {
    fn truncate(&mut self, len: usize) {
        self.steps.truncate(len);
        let end = self.steps.last().map_or(0, |s| s.end);
        let width = end - self.start_of(len.saturating_sub(1));
        self.vars.0.truncate(width);
        self.distinct.truncate(end);
    }

    fn start_of(&self, step: usize) -> usize {
        step.checked_sub(1).map_or(0, |prev| self.steps[prev].end)
    }

    /// Joins a subgoal whose variables are already numbered.
    fn push(&mut self, atom: &AtomEstimate) {
        let (a, a_rows) = match self.steps.last() {
            Some(last) => (self.start_of(self.steps.len() - 1)..last.end, last.rows),
            None => (0..0, 1.0),
        };
        let width = self.vars.0.len();
        let rows = join(&mut self.distinct, a, a_rows, atom, width);
        self.steps.push(FoldStep {
            rows,
            end: self.distinct.len(),
        });
    }

    /// The first `len` steps projected onto the variables `retained`
    /// holds: the rows, capped by the product of the retained distincts
    /// (in numbering order) when some variable is projected away.
    fn projected_size(&self, len: usize, retained: impl Fn(K) -> bool) -> f64 {
        let Some(step) = len.checked_sub(1).map(|last| &self.steps[last]) else {
            return 1.0;
        };
        let mut cap = 1.0f64;
        let mut all_retained = true;
        let distinct = &self.distinct[self.start_of(len - 1)..step.end];
        for (&v, d) in self.vars.0.iter().zip(distinct) {
            if retained(v) {
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

/// The estimate along one left-deep sequence of subgoals. Consecutive
/// requests that share a prefix — the steps of one plan — reuse it and
/// pay one join per new subgoal.
#[derive(Default)]
pub(crate) struct Fold {
    atoms: Vec<Atom>,
    steps: Steps<Symbol>,
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
                self.atoms.truncate(len);
                self.steps.truncate(len);
                let estimate = atom_estimate(catalog, atom, |v| self.steps.vars.number(v));
                self.steps.push(&estimate);
                self.atoms.push(atom.clone());
            }
            len += 1;
        }
        (len, known)
    }

    /// The first `len` folded subgoals projected onto `retained`: the
    /// rows, capped by the product of the retained distincts when some
    /// variable is projected away.
    pub(crate) fn projected_size(&self, len: usize, retained: &BTreeSet<Symbol>) -> f64 {
        self.steps.projected_size(len, |v| retained.contains(&v))
    }
}

/// The fold steps of a [`Prefixes`] path, one per depth, over subgoal
/// estimates taken once per body.
struct PrefixTable {
    /// Per subgoal of the body, variables numbered by index into
    /// `Prefixes::vars`.
    atoms: Vec<AtomEstimate>,
    /// Variables by `(index, generation)`: generation 0 is the variable
    /// as spelled, any other the subgoals of the rename it went under.
    fold: Steps<Generation>,
    /// The subgoal being joined, renumbered into `fold`; kept to reuse
    /// its buffer.
    joined: AtomEstimate,
}

impl PrefixTable {
    fn new(catalog: &Catalog, body: &[Atom], vars: &[Var]) -> PrefixTable {
        let index = |name: Symbol| {
            vars.binary_search_by(|var| var.name.cmp(&name))
                .unwrap_or_default()
        };
        PrefixTable {
            atoms: body
                .iter()
                .map(|atom| atom_estimate(catalog, atom, index))
                .collect(),
            fold: Steps::default(),
            joined: AtomEstimate {
                rows: 0.0,
                distinct: Vec::new(),
            },
        }
    }
}
