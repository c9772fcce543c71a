//! Atoms (subgoals): a predicate applied to a list of terms.

use crate::render::{write_atom, Spelled};
use crate::subst::Substitution;
use crate::symbol::Symbol;
use crate::term::Term;
use std::fmt;

/// An atom `p(t1, …, tk)` — a query head or a body subgoal.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Atom {
    /// The predicate (base-relation or view) name.
    pub predicate: Symbol,
    /// The argument list; positions matter, names do not.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Builds an atom from a predicate name and terms.
    pub fn new(predicate: impl Into<Symbol>, terms: Vec<Term>) -> Atom {
        Atom {
            predicate: predicate.into(),
            terms,
        }
    }

    /// Number of arguments.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Iterates over the variables of this atom, in argument order, with
    /// repetitions.
    pub fn variables(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.terms.iter().filter_map(|t| t.as_var())
    }

    /// True iff `v` occurs among the arguments.
    pub fn contains_var(&self, v: Symbol) -> bool {
        self.variables().any(|x| x == v)
    }

    /// Applies a substitution to every argument.
    pub fn apply(&self, subst: &Substitution) -> Atom {
        Atom {
            predicate: self.predicate,
            terms: self.terms.iter().map(|t| subst.apply(*t)).collect(),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_atom(&mut Spelled::interned(f), self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom() -> Atom {
        Atom::new("car", vec![Term::var("M"), Term::cst("anderson")])
    }

    #[test]
    fn arity_and_vars() {
        let a = atom();
        assert_eq!(a.arity(), 2);
        assert_eq!(a.variables().count(), 1);
        assert!(a.contains_var(Symbol::new("M")));
        assert!(!a.contains_var(Symbol::new("anderson")));
    }

    #[test]
    fn display() {
        assert_eq!(atom().to_string(), "car(M, anderson)");
    }

    #[test]
    fn apply_substitution() {
        let mut s = Substitution::new();
        s.bind(Symbol::new("M"), Term::cst("honda"));
        let a = atom().apply(&s);
        assert_eq!(a.to_string(), "car(honda, anderson)");
    }

    #[test]
    fn repeated_variables_are_iterated_with_repetition() {
        let a = Atom::new("e", vec![Term::var("X"), Term::var("X")]);
        assert_eq!(a.variables().count(), 2);
    }
}
