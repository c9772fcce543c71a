//! Conjunctive queries (select-project-join queries).

use crate::atom::Atom;
use crate::render::{write_rule, Spelled};
use crate::subst::Substitution;
use crate::symbol::Symbol;
use crate::term::Term;
use std::collections::HashSet;
use std::fmt;

/// A conjunctive query `h(X̄) :- g1(X̄1), …, gk(X̄k)`.
///
/// Following the paper (Section 2.1) queries are *safe*: every variable in
/// the head must also appear in the body. A variable is **distinguished**
/// if it appears in the head; other body variables are existential.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ConjunctiveQuery {
    /// The head atom.
    pub head: Atom,
    /// The body subgoals; duplicates carry no meaning under set semantics
    /// but are preserved as written.
    pub body: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// Builds a query from a head and body.
    pub fn new(head: Atom, body: Vec<Atom>) -> ConjunctiveQuery {
        ConjunctiveQuery { head, body }
    }

    /// True iff every head variable occurs in the body (safety, §2.1).
    pub fn is_safe(&self) -> bool {
        let mut body_vars = Vec::with_capacity(self.body.iter().map(Atom::arity).sum());
        body_vars.extend(self.body.iter().flat_map(Atom::variables));
        body_vars.sort_unstable();
        self.head
            .variables()
            .all(|v| body_vars.binary_search(&v).is_ok())
    }

    /// The distinguished variables (those in the head), deduplicated, in
    /// order of first occurrence.
    pub fn distinguished_vars(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for v in self.head.variables() {
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }

    /// The set of distinguished variables.
    pub fn distinguished_set(&self) -> HashSet<Symbol> {
        self.head.variables().collect()
    }

    /// All variables of the query (head then body), deduplicated, in order
    /// of first occurrence.
    pub fn variables(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for v in self
            .head
            .variables()
            .chain(self.body.iter().flat_map(Atom::variables))
        {
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }

    /// The existential (non-distinguished) variables, in order of first
    /// occurrence in the body.
    pub fn existential_vars(&self) -> Vec<Symbol> {
        let dist = self.distinguished_set();
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for v in self.body.iter().flat_map(Atom::variables) {
            if !dist.contains(&v) && seen.insert(v) {
                out.push(v);
            }
        }
        out
    }

    /// Applies a substitution to the head and every body atom.
    pub fn apply(&self, subst: &Substitution) -> ConjunctiveQuery {
        ConjunctiveQuery {
            head: self.head.apply(subst),
            body: self.body.iter().map(|a| a.apply(subst)).collect(),
        }
    }

    /// Returns a copy with every existential variable renamed to a fresh
    /// variable. Used when expanding views so that existential variables of
    /// different view occurrences never collide (Definition 2.2).
    pub fn freshen_existentials(&self) -> ConjunctiveQuery {
        let mut subst = Substitution::new();
        for v in self.existential_vars() {
            subst.bind(v, Term::Var(Symbol::fresh(v.as_str())));
        }
        self.apply(&subst)
    }

    /// Returns a copy with the body atom at `index` removed.
    pub fn without_subgoal(&self, index: usize) -> ConjunctiveQuery {
        let mut body = self.body.clone();
        body.remove(index);
        ConjunctiveQuery {
            head: self.head.clone(),
            body,
        }
    }

    /// Returns a copy with exact duplicate body atoms removed (set
    /// semantics), preserving first occurrences.
    pub fn dedup_subgoals(&self) -> ConjunctiveQuery {
        let mut seen = HashSet::new();
        let body = self
            .body
            .iter()
            .filter(|a| seen.insert((*a).clone()))
            .cloned()
            .collect();
        ConjunctiveQuery {
            head: self.head.clone(),
            body,
        }
    }

    /// The distinct predicate names used in the body.
    pub fn body_predicates(&self) -> HashSet<Symbol> {
        self.body.iter().map(|a| a.predicate).collect()
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_rule(&mut Spelled::interned(f), self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn carlocpart() -> ConjunctiveQuery {
        parse_query("q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C)").unwrap()
    }

    #[test]
    fn safety() {
        assert!(carlocpart().is_safe());
        let unsafe_q = ConjunctiveQuery::new(
            Atom::new("q", vec![Term::var("X"), Term::var("Y")]),
            vec![Atom::new("a", vec![Term::var("X")])],
        );
        assert!(!unsafe_q.is_safe());
    }

    #[test]
    fn variable_partition() {
        let q = carlocpart();
        let dist: Vec<&str> = q.distinguished_vars().iter().map(|v| v.as_str()).collect();
        assert_eq!(dist, ["S", "C"]);
        let exist: Vec<&str> = q.existential_vars().iter().map(|v| v.as_str()).collect();
        assert_eq!(exist, ["M"]);
        assert_eq!(q.variables().len(), 3);
    }

    #[test]
    fn freshen_existentials_only_touches_existentials() {
        let q = carlocpart();
        let f = q.freshen_existentials();
        assert_eq!(f.head, q.head);
        // S and C survive, M is renamed.
        assert!(f.body[0].terms[0] != Term::var("M"));
        assert!(f.body[0].terms[0].is_var());
        assert_eq!(f.body[2].terms[0], Term::var("S"));
        // The fresh variable is used consistently across subgoals.
        assert_eq!(f.body[0].terms[0], f.body[2].terms[1]);
    }

    #[test]
    fn without_subgoal_and_dedup() {
        let q = carlocpart();
        assert_eq!(q.without_subgoal(1).body.len(), 2);
        let dup = parse_query("q(X) :- a(X), a(X), b(X)").unwrap();
        assert_eq!(dup.dedup_subgoals().body.len(), 2);
    }

    #[test]
    fn display_round_trip() {
        let q = carlocpart();
        let printed = q.to_string();
        let reparsed = parse_query(&printed).unwrap();
        assert_eq!(q, reparsed);
    }

    #[test]
    fn empty_body_displays_true() {
        let q = ConjunctiveQuery::new(Atom::new("q", vec![]), vec![]);
        assert_eq!(q.to_string(), "q() :- true");
    }
}
