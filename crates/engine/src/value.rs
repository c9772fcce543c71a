//! Runtime values stored in relations.

use std::fmt;
use viewplan_cq::{Constant, Symbol, Term};

/// A value in a database tuple.
///
/// `Frozen` values arise only in canonical databases (§3.3): freezing a
/// query turns each variable `X` into a distinct constant that remembers
/// which variable it came from, so the "restore introduced constants back
/// to variables" step of view-tuple construction is a tag flip.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Value {
    /// A symbolic constant such as `anderson`.
    Sym(Symbol),
    /// An integer constant.
    Int(i64),
    /// The frozen image of query variable `X` in a canonical database.
    Frozen(Symbol),
    /// An opaque functional (Skolem) value, produced only by the
    /// inverse-rule algorithm when reconstructing base relations from view
    /// instances: the witness for an existential view variable. The `u32`
    /// indexes the run's Skolem table; two Skolem values are equal iff they
    /// denote the same function application.
    Skolem(u32),
}

/// Which [`Value`] variant a stored cell holds. Storage splits a value
/// into its kind and a 64-bit word ([`Value::cell`]); two cells are equal
/// iff both parts are, so `Int(3)`, `Skolem(3)` and the symbol with
/// index 3 stay three values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Kind {
    Sym,
    Int,
    Frozen,
    Skolem,
}

impl Value {
    /// The stored form: the variant, and the interned index, integer bits
    /// or Skolem id as one word.
    #[inline]
    pub(crate) fn cell(self) -> (Kind, u64) {
        match self {
            Value::Sym(s) => (Kind::Sym, s.index() as u64),
            Value::Int(i) => (Kind::Int, i as u64),
            Value::Frozen(s) => (Kind::Frozen, s.index() as u64),
            Value::Skolem(id) => (Kind::Skolem, u64::from(id)),
        }
    }

    /// The inverse of [`Value::cell`]; `word` must have come from a cell
    /// of this `kind` (the casts below undo the ones above).
    #[inline]
    pub(crate) fn from_cell(kind: Kind, word: u64) -> Value {
        match kind {
            Kind::Sym => Value::Sym(Symbol::from_index(word as usize)),
            Kind::Int => Value::Int(word as i64),
            Kind::Frozen => Value::Frozen(Symbol::from_index(word as usize)),
            Kind::Skolem => Value::Skolem(word as u32),
        }
    }

    /// Symbolic value from a string.
    pub fn sym(s: &str) -> Value {
        Value::Sym(Symbol::new(s))
    }

    /// Converts a query constant into a value.
    pub fn from_constant(c: Constant) -> Value {
        match c {
            Constant::Sym(s) => Value::Sym(s),
            Constant::Int(i) => Value::Int(i),
        }
    }

    /// Converts back to a term: ordinary values become constants, frozen
    /// values thaw into their original variable.
    ///
    /// # Panics
    /// Panics on [`Value::Skolem`] — Skolem witnesses exist only inside
    /// the inverse-rule evaluation and never flow back into queries.
    pub fn to_term(self) -> Term {
        match self {
            Value::Sym(s) => Term::Const(Constant::Sym(s)),
            Value::Int(i) => Term::Const(Constant::Int(i)),
            Value::Frozen(v) => Term::Var(v),
            Value::Skolem(id) => panic!("Skolem value f#{id} has no term form"),
        }
    }

    /// True iff this is a Skolem witness.
    pub fn is_skolem(self) -> bool {
        matches!(self, Value::Skolem(_))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Sym(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Frozen(v) => write!(f, "⟨{v}⟩"),
            Value::Skolem(id) => write!(f, "f#{id}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::sym(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_round_trips() {
        assert_eq!(
            Value::from_constant(Constant::sym("a")).to_term(),
            Term::cst("a")
        );
        assert_eq!(
            Value::from_constant(Constant::Int(5)).to_term(),
            Term::int(5)
        );
        assert_eq!(Value::Frozen(Symbol::new("X")).to_term(), Term::var("X"));
    }

    #[test]
    fn frozen_differs_from_symbolic_with_same_name() {
        assert_ne!(Value::Frozen(Symbol::new("a")), Value::sym("a"));
    }

    #[test]
    fn display() {
        assert_eq!(Value::sym("a").to_string(), "a");
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Frozen(Symbol::new("X")).to_string(), "⟨X⟩");
        assert_eq!(Value::Skolem(3).to_string(), "f#3");
    }

    #[test]
    #[should_panic(expected = "no term form")]
    fn skolem_has_no_term_form() {
        Value::Skolem(0).to_term();
    }

    #[test]
    fn cells_round_trip_and_keep_kinds_apart() {
        let values = [
            Value::sym("a"),
            Value::Int(-7),
            Value::Int(i64::MIN),
            Value::Frozen(Symbol::new("X")),
            Value::Skolem(u32::MAX),
        ];
        for v in values {
            let (kind, word) = v.cell();
            assert_eq!(Value::from_cell(kind, word), v);
        }
        // Same word, three kinds.
        assert_eq!(Value::Int(3).cell().1, Value::Skolem(3).cell().1);
        assert_ne!(Value::Int(3).cell(), Value::Skolem(3).cell());
    }

    #[test]
    fn skolem_detection() {
        assert!(Value::Skolem(1).is_skolem());
        assert!(!Value::Int(1).is_skolem());
    }
}
