//! Differential test of the VP001 serve gate: validating a query against
//! the catalog index — the one a serving snapshot holds, or a temporary
//! one built from the views — returns exactly what the per-request walk
//! over every view returned, message included.

use proptest::prelude::*;
use std::collections::HashMap;
use viewplan::analyze::validate_query_against_views;
use viewplan::prelude::*;

/// The walk `validate_query_against_views` did before the index existed,
/// kept as the reference: a view's name overrides, body predicates are
/// first-seen-wins, in view order; first conflict in body-then-head
/// order.
fn reference_validate(query: &ConjunctiveQuery, views: &ViewSet) -> Result<(), String> {
    let mut arity: HashMap<Symbol, usize> = HashMap::new();
    for v in views.iter() {
        arity.insert(v.name(), v.arity());
        for a in &v.definition.body {
            arity.entry(a.predicate).or_insert(a.terms.len());
        }
    }
    for a in query.body.iter().chain(std::iter::once(&query.head)) {
        if let Some(&expected) = arity.get(&a.predicate) {
            if expected != a.terms.len() {
                return Err(format!(
                    "[VP001] arity mismatch: '{}' is used with {} arguments, but the view set \
                     defines it with {}",
                    a.predicate,
                    a.terms.len(),
                    expected
                ));
            }
        }
    }
    Ok(())
}

/// One shared name pool for view names, body predicates and query
/// predicates, each use at arity 1..=3 — so names are shadowed, a view is
/// named like another view's body predicate, and one predicate occurs at
/// several arities.
fn arb_atom() -> impl Strategy<Value = Atom> {
    let var = (0..3usize).prop_map(|i| Term::var(&format!("X{i}")));
    ((0..5usize), prop::collection::vec(var, 1..=3))
        .prop_map(|(p, terms)| Atom::new(format!("n{p}").as_str(), terms))
}

fn arb_rule() -> impl Strategy<Value = ConjunctiveQuery> {
    (arb_atom(), prop::collection::vec(arb_atom(), 1..=3))
        .prop_map(|(head, body)| ConjunctiveQuery::new(head, body))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_validation_equals_the_catalog_walk(
        definitions in prop::collection::vec(arb_rule(), 0..=6),
        queries in prop::collection::vec(arb_rule(), 1..=4),
    ) {
        let views = ViewSet::from_views(definitions.into_iter().map(View::new));
        let server = BatchServer::new(&views);
        for query in &queries {
            let expected = reference_validate(query, &views);
            prop_assert_eq!(&validate_query_against_views(query, &views), &expected);
            prop_assert_eq!(&server.validate(query), &expected);
        }
    }
}
