//! Terms: variables and constants.

use crate::render::{write_term, Spelled};
use crate::symbol::Symbol;
use std::fmt;

/// A constant appearing in a query, view, or database tuple.
///
/// The paper's examples use symbolic constants (`anderson`) and small
/// integers (the Figure 5 database); we support both natively so workloads
/// and the relational engine share one value space.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Constant {
    /// A symbolic constant such as `anderson`.
    Sym(Symbol),
    /// An integer constant such as `7`.
    Int(i64),
}

impl Constant {
    /// Symbolic constant from a string.
    pub fn sym(s: &str) -> Constant {
        Constant::Sym(Symbol::new(s))
    }
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::Sym(s) => write!(f, "{s}"),
            Constant::Int(i) => write!(f, "{i}"),
        }
    }
}

impl From<i64> for Constant {
    fn from(i: i64) -> Constant {
        Constant::Int(i)
    }
}

/// An argument of an atom: either a variable or a constant.
///
/// Following the paper (Section 2.1), names beginning with an upper-case
/// letter denote variables, names beginning with a lower-case letter denote
/// constants.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Term {
    /// A variable such as `X`.
    Var(Symbol),
    /// A constant such as `anderson` or `7`.
    Const(Constant),
}

impl Term {
    /// Variable term from a name.
    pub fn var(name: &str) -> Term {
        Term::Var(Symbol::new(name))
    }

    /// Symbolic-constant term from a name.
    pub fn cst(name: &str) -> Term {
        Term::Const(Constant::sym(name))
    }

    /// Integer-constant term.
    pub fn int(i: i64) -> Term {
        Term::Const(Constant::Int(i))
    }

    /// The variable symbol, if this term is a variable.
    pub fn as_var(self) -> Option<Symbol> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// True iff this term is a variable.
    pub fn is_var(self) -> bool {
        matches!(self, Term::Var(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_term(&mut Spelled::interned(f), *self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_constructors() {
        assert!(Term::var("X").is_var());
        assert!(!Term::cst("a").is_var());
        assert_eq!(Term::int(3), Term::Const(Constant::Int(3)));
        assert_eq!(Term::var("X").as_var(), Some(Symbol::new("X")));
        assert_eq!(Term::cst("a").as_var(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Term::var("X").to_string(), "X");
        assert_eq!(Term::cst("anderson").to_string(), "anderson");
        assert_eq!(Term::int(-4).to_string(), "-4");
    }

    #[test]
    fn constants_with_same_content_are_equal() {
        assert_eq!(Term::cst("a"), Term::cst("a"));
        assert_ne!(Term::cst("a"), Term::var("a"));
        assert_ne!(Term::int(1), Term::int(2));
    }
}
