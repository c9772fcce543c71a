//! Views: named conjunctive queries over the base relations.

use crate::atom::Atom;
use crate::query::ConjunctiveQuery;
use crate::symbol::Symbol;
use std::collections::HashMap;
use std::fmt;

/// A materialized view `v(Ȳ) :- body over base relations` (closed-world:
/// the view relation holds *exactly* the tuples computed by the
/// definition).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct View {
    /// The view's definition; its head predicate is the view name.
    pub definition: ConjunctiveQuery,
}

impl View {
    /// Wraps a definition as a view.
    pub fn new(definition: ConjunctiveQuery) -> View {
        View { definition }
    }

    /// The view name (head predicate of the definition).
    pub fn name(&self) -> Symbol {
        self.definition.head.predicate
    }

    /// Arity of the view relation.
    pub fn arity(&self) -> usize {
        self.definition.head.arity()
    }

    /// The head atom of the definition.
    pub fn head(&self) -> &Atom {
        &self.definition.head
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.definition)
    }
}

/// An ordered collection of views with name lookup.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct ViewSet {
    views: Vec<View>,
    by_name: HashMap<Symbol, usize>,
}

impl ViewSet {
    /// An empty view set.
    pub fn new() -> ViewSet {
        ViewSet::default()
    }

    /// Builds a view set; later views with a duplicate name shadow earlier
    /// ones in name lookup but are kept in iteration order.
    pub fn from_views(views: impl IntoIterator<Item = View>) -> ViewSet {
        let mut vs = ViewSet::new();
        for v in views {
            vs.push(v);
        }
        vs
    }

    /// Appends a view.
    pub fn push(&mut self, view: View) {
        self.by_name.insert(view.name(), self.views.len());
        self.views.push(view);
    }

    /// Looks up a view by name.
    pub fn get(&self, name: Symbol) -> Option<&View> {
        self.by_name.get(&name).map(|&i| &self.views[i])
    }

    /// Number of views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Iterates over the views in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, View> {
        self.views.iter()
    }

    /// The views as a slice.
    pub fn as_slice(&self) -> &[View] {
        &self.views
    }
}

impl<'a> IntoIterator for &'a ViewSet {
    type Item = &'a View;
    type IntoIter = std::slice::Iter<'a, View>;

    fn into_iter(self) -> Self::IntoIter {
        self.views.iter()
    }
}

impl fmt::Display for ViewSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in &self.views {
            writeln!(f, "{v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_views;

    fn views() -> ViewSet {
        parse_views(
            "v1(M, D, C) :- car(M, D), loc(D, C).\n\
             v2(S, M, C) :- part(S, M, C).",
        )
        .unwrap()
    }

    #[test]
    fn lookup_by_name() {
        let vs = views();
        assert_eq!(vs.len(), 2);
        let v1 = vs.get(Symbol::new("v1")).unwrap();
        assert_eq!(v1.arity(), 3);
        assert_eq!(v1.definition.body.len(), 2);
        assert!(vs.get(Symbol::new("nope")).is_none());
    }

    #[test]
    fn iteration_order_is_insertion_order() {
        let vs = views();
        let names: Vec<&str> = vs.iter().map(|v| v.name().as_str()).collect();
        assert_eq!(names, ["v1", "v2"]);
    }

    #[test]
    fn shadowing_keeps_latest_in_lookup() {
        let mut vs = views();
        let replacement = crate::parser::parse_query("v1(X) :- part(X, X, X)").unwrap();
        vs.push(View::new(replacement));
        assert_eq!(vs.len(), 3);
        assert_eq!(vs.get(Symbol::new("v1")).unwrap().arity(), 1);
    }
}
