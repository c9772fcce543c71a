//! An answer as text with holes, each distinct atom printed once.
//!
//! The wire body of an answer — its rewritings, the chosen plan, the
//! honesty note — is fixed once the canonical answer is computed, except
//! for how the request spelled its variables. [`write_answer`] is the one
//! routine that prints that body; [`Template::build`] runs it once per
//! canonical answer into a [`Sink`] that keeps literal text and records
//! *holes* where the request's own text goes.
//!
//! The holes are on two levels, because an answer is made of few atoms
//! printed many times. Every rewriting is a cover of the query by view
//! tuples (§3.3, Lemma 3.2), so however many rewritings an answer lists,
//! their bodies are drawn from the same few dozen view-tuple literals,
//! and the plan's steps are literals of one of them. [`Sink::atom`] hands
//! the builder each atom whole: the first time it meets one it prints it
//! into a table of its own — literal text with a hole for every
//! occurrence of a variable of the canonical query (which variable, by
//! first-occurrence index) — and everywhere it is printed, the body gets
//! a hole naming its entry. Serving the answer to a request is then
//! [`Template::fill`]: each distinct atom spelled once in the request's
//! names, and the body's literal text spliced with those atoms. No
//! `Rewriting` is cloned and no symbol looked up, and the work per
//! request is the answer's distinct atoms plus a copy of its bytes.
//!
//! Holes come from `Term::Var`s met in a structural walk, never from
//! scanning text: a *constant* spelled `__c0` is literal, and an atom is
//! the same entry only if it is the same `Atom`, constants and variables
//! told apart. A variable of a rewriting that is not a variable of the
//! canonical query is literal too, exactly as renaming through the
//! inverse substitution leaves it. A plan's `[drop B, A]` list is ordered
//! by spelling, so it is a hole of its own kind, ordered when filled.

use std::fmt;
use std::ops::Range;
use viewplan_core::Rewriting;
use viewplan_cost::{write_plan, PlannedRewriting};
use viewplan_cq::render::write_sorted;
use viewplan_cq::{write_atom, write_rule, Atom, ConjunctiveQuery, FirstSeen, Sink, Symbol};
use viewplan_obs::Completeness;

/// Writes an answer's body: one line per rewriting (or the line saying
/// there is none), the chosen plan, and a note when a budget cut the
/// work short. Everything an answer prints is spelled here and nowhere
/// else.
pub(crate) fn write_answer(
    out: &mut impl Sink,
    rewritings: &[Rewriting],
    best: Option<&PlannedRewriting>,
    completeness: Completeness,
) -> fmt::Result {
    if rewritings.is_empty() {
        out.write_str("no equivalent rewriting\n")?;
    }
    for r in rewritings {
        write_rule(out, r)?;
        out.write_str("\n")?;
    }
    if let Some(b) = best {
        out.write_str("plan[m1]: ")?;
        write_plan(out, &b.plan)?;
        writeln!(out, " (cost {})", b.cost)?;
    }
    if completeness.is_incomplete() {
        writeln!(out, "note: result {}", completeness.label())?;
    }
    Ok(())
}

/// What goes where literal text is interrupted.
#[derive(Clone, Debug)]
enum Hole {
    /// The request's spelling of the canonical query's `i`-th variable.
    Var(u32),
    /// The `j`-th distinct atom, spelled in the request's names.
    Atom(u32),
    /// The next drop list, sorted by spelling at fill time.
    Drops,
}

/// One name in a drop list.
#[derive(Clone, Debug)]
enum DropName {
    /// A variable of the canonical query, by index.
    Var(u32),
    /// Any other variable: its own name.
    Literal(&'static str),
}

/// Literal text and the holes that interrupt it, each at a byte offset
/// into the text, in order.
#[derive(Clone, Debug, Default)]
struct Holed {
    text: String,
    holes: Vec<(usize, Hole)>,
}

impl Holed {
    /// Done growing: no spare capacity kept in the cache.
    fn finish(mut self) -> Holed {
        self.text.shrink_to_fit();
        self.holes.shrink_to_fit();
        self
    }
}

/// An answer body with its variables left open. See the module docs.
#[derive(Clone, Debug)]
pub(crate) struct Template {
    /// The answer, with an [`Hole::Atom`] wherever an atom is printed.
    body: Holed,
    /// Every distinct atom the answer prints, one after another, each
    /// with a [`Hole::Var`] wherever a variable of the canonical query is.
    atoms: Holed,
    /// Where each atom ends in `atoms`: its text, and its holes.
    atom_ends: Box<[(usize, usize)]>,
    /// How often the body prints each atom.
    uses: Box<[u32]>,
    /// The drop lists, in the order their holes come.
    drops: Box<[Box<[DropName]>]>,
}

impl Template {
    /// The template of the answer to `canonical`: its variables, in
    /// first-occurrence order, are the holes' indices.
    pub(crate) fn build(
        canonical: &ConjunctiveQuery,
        rewritings: &[Rewriting],
        best: Option<&PlannedRewriting>,
        completeness: Completeness,
    ) -> Template {
        let mut builder = Builder {
            slots: FirstSeen::default(),
            in_atom: false,
            body: Holed::default(),
            atoms: Holed::default(),
            entries: FirstSeen::default(),
            atom_ends: Vec::new(),
            uses: Vec::new(),
            drops: Vec::new(),
        };
        let atoms = std::iter::once(&canonical.head).chain(&canonical.body);
        for v in atoms.flat_map(Atom::variables) {
            builder.slots.number(&v);
        }
        // The builder's sink never fails.
        let _ = write_answer(&mut builder, rewritings, best, completeness);
        Template {
            body: builder.body.finish(),
            atoms: builder.atoms.finish(),
            atom_ends: builder.atom_ends.into(),
            uses: builder.uses.into(),
            drops: builder.drops.into(),
        }
    }

    /// The body for a request that spelled the canonical query's `i`-th
    /// variable `names[i]`.
    pub(crate) fn fill(&self, names: &[&str]) -> String {
        let name = |i: u32| names[i as usize];
        let widest = names.iter().map(|n| n.len()).max().unwrap_or(0);
        // Each distinct atom once, as this request spells it.
        let mut atoms =
            String::with_capacity(self.atoms.text.len() + self.atoms.holes.len() * widest);
        let mut spans = Vec::with_capacity(self.atom_ends.len());
        let (mut text_at, mut holes_at) = (0, 0);
        for &(text_end, holes_end) in self.atom_ends.iter() {
            let start = atoms.len();
            splice(
                &mut atoms,
                &self.atoms.text,
                text_at..text_end,
                &self.atoms.holes[holes_at..holes_end],
                |out, hole| {
                    if let Hole::Var(i) = *hole {
                        out.push_str(name(i));
                    }
                },
            );
            spans.push(start..atoms.len());
            (text_at, holes_at) = (text_end, holes_end);
        }
        // Then the body, the atoms spliced in.
        let listed: usize = self.drops.iter().map(|d| d.len()).sum();
        let spliced: usize = spans
            .iter()
            .zip(self.uses.iter())
            .map(|(span, &uses)| span.len() * uses as usize)
            .sum();
        let mut out = String::with_capacity(self.body.text.len() + spliced + listed * (widest + 2));
        let mut drops = self.drops.iter();
        splice(
            &mut out,
            &self.body.text,
            0..self.body.text.len(),
            &self.body.holes,
            |out, hole| match *hole {
                Hole::Var(i) => out.push_str(name(i)),
                Hole::Atom(j) => out.push_str(&atoms[spans[j as usize].clone()]),
                Hole::Drops => {
                    let mut dropped: Vec<&str> = drops
                        .next()
                        .into_iter()
                        .flatten()
                        .map(|dropped| match *dropped {
                            DropName::Var(i) => name(i),
                            DropName::Literal(text) => text,
                        })
                        .collect();
                    // A `String` sink never fails.
                    let _ = write_sorted(out, &mut dropped);
                }
            },
        );
        out
    }
}

/// `text[range]` onto `out`, with `put` writing each hole where its
/// offset falls.
fn splice(
    out: &mut String,
    text: &str,
    range: Range<usize>,
    holes: &[(usize, Hole)],
    mut put: impl FnMut(&mut String, &Hole),
) {
    let mut at = range.start;
    for &(offset, ref hole) in holes {
        out.push_str(&text[at..offset]);
        at = offset;
        put(out, hole);
    }
    out.push_str(&text[at..range.end]);
}

/// The [`Sink`] that builds a [`Template`].
struct Builder {
    /// The canonical query's variables, numbered by first occurrence.
    slots: FirstSeen<Symbol>,
    /// Whether text goes into the atom being entered, not the body.
    in_atom: bool,
    body: Holed,
    atoms: Holed,
    /// The distinct atoms, numbered as the table holds them.
    entries: FirstSeen<Atom>,
    atom_ends: Vec<(usize, usize)>,
    uses: Vec<u32>,
    drops: Vec<Box<[DropName]>>,
}

impl Builder {
    /// Where text and holes go now.
    fn target(&mut self) -> &mut Holed {
        if self.in_atom {
            &mut self.atoms
        } else {
            &mut self.body
        }
    }

    fn hole(&mut self, hole: Hole) {
        let target = self.target();
        target.holes.push((target.text.len(), hole));
    }
}

impl fmt::Write for Builder {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.target().text.push_str(text);
        Ok(())
    }
}

impl Sink for Builder {
    fn var(&mut self, v: Symbol) -> fmt::Result {
        match self.slots.get(&v) {
            Some(i) => self.hole(Hole::Var(i as u32)),
            None => self.target().text.push_str(v.as_str()),
        }
        Ok(())
    }

    fn vars_by_spelling(&mut self, vars: &mut dyn Iterator<Item = Symbol>) -> fmt::Result {
        let names = vars
            .map(|v| match self.slots.get(&v) {
                Some(i) => DropName::Var(i as u32),
                None => DropName::Literal(v.as_str()),
            })
            .collect();
        self.hole(Hole::Drops);
        self.drops.push(names);
        Ok(())
    }

    fn atom(&mut self, atom: &Atom) -> fmt::Result {
        let (entry, first) = self.entries.number(atom);
        if first {
            self.in_atom = true;
            write_atom(self, atom)?;
            self.in_atom = false;
            self.atom_ends
                .push((self.atoms.text.len(), self.atoms.holes.len()));
            self.uses.push(0);
        }
        self.uses[entry] += 1;
        self.hole(Hole::Atom(entry as u32));
        Ok(())
    }
}
