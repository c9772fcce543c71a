//! An answer as text with holes.
//!
//! The wire body of an answer — its rewritings, the chosen plan, the
//! honesty note — is fixed once the canonical answer is computed, except
//! for how the request spelled its variables. [`write_answer`] is the one
//! routine that prints that body; [`Template::build`] runs it once per
//! canonical answer into a [`Sink`] that keeps literal text and records,
//! for every occurrence of a variable of the canonical query, a *hole*
//! (where, and which variable by first-occurrence index). Serving the
//! answer to a request is then [`Template::fill`]: literal chunks and the
//! request's own spellings appended in one pass, no `Rewriting` cloned,
//! no symbol looked up.
//!
//! Holes come from `Term::Var`s met in a structural walk, never from
//! scanning text: a *constant* spelled `__c0` is literal. A variable of
//! a rewriting that is not a variable of the canonical query is literal
//! too, exactly as renaming through the inverse substitution leaves it.
//! A plan's `[drop B, A]` list is ordered by spelling, so it is a hole
//! of its own kind, ordered when filled.

use std::collections::HashMap;
use std::fmt;
use viewplan_core::Rewriting;
use viewplan_cost::{write_plan, PlannedRewriting};
use viewplan_cq::render::write_sorted;
use viewplan_cq::{write_rule, ConjunctiveQuery, Sink, Symbol};
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

/// What goes where a [`Template`]'s literal text is interrupted.
#[derive(Clone, Debug)]
enum Hole {
    /// The request's spelling of the canonical query's `i`-th variable.
    Var(u32),
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

/// An answer body with its variables left open. See the module docs.
#[derive(Clone, Debug)]
pub(crate) struct Template {
    /// The literal text, concatenated.
    text: Box<str>,
    /// `(offset into the text, what to put there)`, in order.
    holes: Box<[(usize, Hole)]>,
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
            slots: (0u32..)
                .zip(canonical.variables())
                .map(|(i, v)| (v, i))
                .collect(),
            text: String::new(),
            holes: Vec::new(),
            drops: Vec::new(),
        };
        // The builder's sink never fails.
        let _ = write_answer(&mut builder, rewritings, best, completeness);
        Template {
            text: builder.text.into(),
            holes: builder.holes.into(),
            drops: builder.drops.into(),
        }
    }

    /// The body for a request that spelled the canonical query's `i`-th
    /// variable `names[i]`.
    pub(crate) fn fill(&self, names: &[&str]) -> String {
        let widest = names.iter().map(|n| n.len()).max().unwrap_or(0);
        let listed: usize = self.drops.iter().map(|d| d.len()).sum();
        let mut out = String::with_capacity(
            self.text.len() + self.holes.len() * widest + listed * (widest + 2),
        );
        let mut drops = self.drops.iter();
        let mut at = 0;
        for &(offset, ref hole) in self.holes.iter() {
            out.push_str(&self.text[at..offset]);
            at = offset;
            match *hole {
                Hole::Var(i) => out.push_str(names[i as usize]),
                Hole::Drops => {
                    let mut dropped: Vec<&str> = drops
                        .next()
                        .into_iter()
                        .flatten()
                        .map(|name| match *name {
                            DropName::Var(i) => names[i as usize],
                            DropName::Literal(text) => text,
                        })
                        .collect();
                    // A `String` sink never fails.
                    let _ = write_sorted(&mut out, &mut dropped);
                }
            }
        }
        out.push_str(&self.text[at..]);
        out
    }
}

/// The [`Sink`] that builds a [`Template`].
struct Builder {
    /// The canonical query's variables → their first-occurrence index.
    slots: HashMap<Symbol, u32>,
    text: String,
    holes: Vec<(usize, Hole)>,
    drops: Vec<Box<[DropName]>>,
}

impl fmt::Write for Builder {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.text.push_str(text);
        Ok(())
    }
}

impl Sink for Builder {
    fn var(&mut self, v: Symbol) -> fmt::Result {
        match self.slots.get(&v) {
            Some(&i) => self.holes.push((self.text.len(), Hole::Var(i))),
            None => self.text.push_str(v.as_str()),
        }
        Ok(())
    }

    fn vars_by_spelling(&mut self, vars: &mut dyn Iterator<Item = Symbol>) -> fmt::Result {
        let names = vars
            .map(|v| match self.slots.get(&v) {
                Some(&i) => DropName::Var(i),
                None => DropName::Literal(v.as_str()),
            })
            .collect();
        self.holes.push((self.text.len(), Hole::Drops));
        self.drops.push(names);
        Ok(())
    }
}
