//! Substitutions: finite maps from variables to terms.
//!
//! Substitutions are the workhorse behind containment mappings
//! (Chandra–Merlin), view expansion, canonical-database freezing, and the
//! variable renaming in the paper's M3 attribute-dropping heuristic.

use crate::symbol::Symbol;
use crate::term::Term;
use std::collections::HashMap;
use std::fmt;

/// A mapping from variable symbols to terms. Variables not in the map are
/// left unchanged by [`Substitution::apply`]; constants are always fixed
/// (as containment mappings require).
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Substitution {
    map: HashMap<Symbol, Term>,
}

impl Substitution {
    /// The empty substitution.
    pub fn new() -> Substitution {
        Substitution::default()
    }

    /// Builds a substitution from `(variable, target)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Symbol, Term)>) -> Substitution {
        Substitution {
            map: pairs.into_iter().collect(),
        }
    }

    /// Binds `var` to `target`, returning the previous binding if any.
    pub fn bind(&mut self, var: Symbol, target: Term) -> Option<Term> {
        self.map.insert(var, target)
    }

    /// Removes the binding for `var`.
    pub fn unbind(&mut self, var: Symbol) -> Option<Term> {
        self.map.remove(&var)
    }

    /// The image of `var`, if bound.
    pub fn get(&self, var: Symbol) -> Option<Term> {
        self.map.get(&var).copied()
    }

    /// Applies the substitution to a single term.
    pub fn apply(&self, term: Term) -> Term {
        match term {
            Term::Var(v) => self.map.get(&v).copied().unwrap_or(term),
            Term::Const(_) => term,
        }
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over the bindings in an unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, Term)> + '_ {
        self.map.iter().map(|(&v, &t)| (v, t))
    }

    /// Composes `self` then `other`: `(other ∘ self)(x) = other(self(x))`.
    /// Variables bound only in `other` are included as well, so the result
    /// behaves like applying `self` first and `other` second to any term.
    pub fn then(&self, other: &Substitution) -> Substitution {
        let mut out = HashMap::with_capacity(self.map.len() + other.map.len());
        for (&v, &t) in &self.map {
            out.insert(v, other.apply(t));
        }
        for (&v, &t) in &other.map {
            out.entry(v).or_insert(t);
        }
        Substitution { map: out }
    }
}

impl fmt::Display for Substitution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<_> = self.map.iter().collect();
        entries.sort_by_key(|(v, _)| v.as_str());
        f.write_str("{")?;
        for (i, (v, t)) in entries.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v} -> {t}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_leaves_unbound_and_constants_fixed() {
        let mut s = Substitution::new();
        s.bind(Symbol::new("X"), Term::var("Y"));
        assert_eq!(s.apply(Term::var("X")), Term::var("Y"));
        assert_eq!(s.apply(Term::var("Z")), Term::var("Z"));
        assert_eq!(s.apply(Term::cst("a")), Term::cst("a"));
    }

    #[test]
    fn composition_applies_left_then_right() {
        let mut s1 = Substitution::new();
        s1.bind(Symbol::new("X"), Term::var("Y"));
        let mut s2 = Substitution::new();
        s2.bind(Symbol::new("Y"), Term::cst("a"));
        s2.bind(Symbol::new("W"), Term::cst("b"));
        let c = s1.then(&s2);
        assert_eq!(c.apply(Term::var("X")), Term::cst("a"));
        assert_eq!(c.apply(Term::var("Y")), Term::cst("a"));
        assert_eq!(c.apply(Term::var("W")), Term::cst("b"));
    }

    #[test]
    fn display_is_sorted_and_stable() {
        let s = Substitution::from_pairs([
            (Symbol::new("B"), Term::cst("b")),
            (Symbol::new("A"), Term::cst("a")),
        ]);
        assert_eq!(s.to_string(), "{A -> a, B -> b}");
    }

    #[test]
    fn bind_and_unbind_round_trip() {
        let mut s = Substitution::new();
        assert!(s.is_empty());
        s.bind(Symbol::new("X"), Term::int(1));
        assert_eq!(s.len(), 1);
        assert_eq!(s.unbind(Symbol::new("X")), Some(Term::int(1)));
        assert!(s.is_empty());
    }
}
