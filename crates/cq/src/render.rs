//! The one routine that prints atoms and rules.
//!
//! Everything that turns an [`Atom`] or a [`ConjunctiveQuery`] into text
//! — their `Display`, a parse error quoting the rule it rejects, a
//! physical plan, a served answer, the serving cache's answer templates —
//! goes through [`write_atom`] / [`write_rule`], so the separators are
//! written down once. What differs between those callers is only what a
//! *variable* becomes, and that is the [`Sink`]'s decision: its interned
//! name, the spelling a request used for it, or a hole to be filled per
//! request.

use crate::atom::Atom;
use crate::query::ConjunctiveQuery;
use crate::symbol::Symbol;
use crate::term::{Constant, Term};
use std::fmt;

/// Where formatted text goes. Literal text arrives through
/// [`fmt::Write`]; variables arrive on their own so the sink chooses
/// their spelling.
pub trait Sink: fmt::Write {
    /// One occurrence of the variable `v`.
    fn var(&mut self, v: Symbol) -> fmt::Result;

    /// A set of variables, printed `, `-separated in the order of their
    /// *spellings* — which the sink alone knows, so it does the sorting
    /// (through [`write_sorted`]).
    fn vars_by_spelling(&mut self, vars: &mut dyn Iterator<Item = Symbol>) -> fmt::Result;

    /// One atom of a rule or a plan. The default prints it through
    /// [`write_atom`]; a sink that meets the same atom many times may
    /// print it once and refer to it after.
    fn atom(&mut self, atom: &Atom) -> fmt::Result {
        write_atom(self, atom)
    }
}

/// A sink that writes every variable out as text, spelled by `spell`.
pub struct Spelled<'s, W> {
    out: W,
    spell: &'s dyn Fn(Symbol) -> &'s str,
}

impl<'s, W: fmt::Write> Spelled<'s, W> {
    /// Writes into `out`, spelling each variable through `spell`.
    pub(crate) fn new(out: W, spell: &'s dyn Fn(Symbol) -> &'s str) -> Spelled<'s, W> {
        Spelled { out, spell }
    }
}

impl<W: fmt::Write> Spelled<'static, W> {
    /// Writes into `out`, spelling each variable by its interned name —
    /// what `Display` prints.
    pub fn interned(out: W) -> Spelled<'static, W> {
        Spelled::new(out, &Symbol::as_str)
    }
}

impl<W: fmt::Write> fmt::Write for Spelled<'_, W> {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.out.write_str(text)
    }
}

impl<W: fmt::Write> Sink for Spelled<'_, W> {
    fn var(&mut self, v: Symbol) -> fmt::Result {
        self.out.write_str((self.spell)(v))
    }

    fn vars_by_spelling(&mut self, vars: &mut dyn Iterator<Item = Symbol>) -> fmt::Result {
        let mut names: Vec<&str> = vars.map(self.spell).collect();
        write_sorted(&mut self.out, &mut names)
    }
}

/// Writes `names` sorted and `, `-separated: how a set of variables
/// prints once every spelling is known.
pub fn write_sorted(out: &mut impl fmt::Write, names: &mut [&str]) -> fmt::Result {
    names.sort_unstable();
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        out.write_str(name)?;
    }
    Ok(())
}

/// Writes one term: a variable through the sink, a constant as itself.
pub(crate) fn write_term(out: &mut (impl Sink + ?Sized), term: Term) -> fmt::Result {
    match term {
        Term::Var(v) => out.var(v),
        Term::Const(Constant::Sym(s)) => out.write_str(s.as_str()),
        Term::Const(Constant::Int(i)) => write!(out, "{i}"),
    }
}

/// Writes `p(t1, …, tk)`.
pub fn write_atom(out: &mut (impl Sink + ?Sized), atom: &Atom) -> fmt::Result {
    out.write_str(atom.predicate.as_str())?;
    out.write_str("(")?;
    for (i, t) in atom.terms.iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        write_term(out, *t)?;
    }
    out.write_str(")")
}

/// Writes `head :- g1, …, gk` (`head :- true` for an empty body), each
/// atom through [`Sink::atom`].
pub fn write_rule(out: &mut impl Sink, rule: &ConjunctiveQuery) -> fmt::Result {
    out.atom(&rule.head)?;
    out.write_str(" :- ")?;
    if rule.body.is_empty() {
        return out.write_str("true");
    }
    for (i, a) in rule.body.iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        out.atom(a)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn a_spelling_function_renames_variables_and_nothing_else() {
        // `x` is a constant that happens to share its text with the
        // lower-cased variable: only `Term::Var`s go through the sink.
        let q = parse_query("q(X, x) :- e(X, Y, 7), f(Y, x)").unwrap();
        let spell = |v: Symbol| {
            if v == Symbol::new("X") {
                "Left"
            } else {
                "Right"
            }
        };
        let mut text = String::new();
        write_rule(&mut Spelled::new(&mut text, &spell), &q).unwrap();
        assert_eq!(text, "q(Left, x) :- e(Left, Right, 7), f(Right, x)");
    }

    #[test]
    fn variable_sets_are_ordered_by_what_is_printed() {
        let (a, b) = (Symbol::new("A"), Symbol::new("B"));
        let reversed = |v: Symbol| if v == a { "Zed" } else { "Alpha" };
        let mut text = String::new();
        Spelled::new(&mut text, &reversed)
            .vars_by_spelling(&mut [a, b].into_iter())
            .unwrap();
        assert_eq!(text, "Alpha, Zed");
        let mut text = String::new();
        Spelled::interned(&mut text)
            .vars_by_spelling(&mut [b, a].into_iter())
            .unwrap();
        assert_eq!(text, "A, B");
    }
}
