//! `serve.cache_kept_by_cover` counts the entries an `add-view` reached
//! that the minimum-cover check kept, once per kept entry.
//!
//! The counters are process-wide, so this file holds exactly one test.

use viewplan_cq::{parse_query, parse_views, View};
use viewplan_obs as obs;
use viewplan_serve::{LiveCatalog, ServeConfig};

fn view(src: &str) -> View {
    View::new(parse_query(src).unwrap())
}

#[test]
fn one_view_add_counts_each_entry_the_cover_check_keeps() {
    obs::set_enabled(true);
    let kept = || obs::counter_value("serve.cache_kept_by_cover");
    let catalog = LiveCatalog::new(
        &parse_views(
            "v1(A, B) :- a(A, B), a(B, B).\n\
             v2(C, D) :- a(C, E), b(C, D).",
        )
        .unwrap(),
        ServeConfig::default(),
    );
    // Three entries: one the view cannot reach (no `b`), one it reaches
    // with an empty core (joined only through the constant `k`), and one
    // it reaches and enters a minimum cover of.
    for src in [
        "q(X) :- a(X, X)",
        "q(X, Y) :- a(X, k), b(k, Y)",
        "q(X, Y) :- a(X, Z), b(Z, Y)",
    ] {
        catalog.server().serve(&parse_query(src).unwrap()).unwrap();
    }
    let before = kept();
    let outcome = catalog
        .add_view(view("w(A, C) :- a(A, B), b(B, C)"))
        .unwrap();
    assert_eq!((outcome.invalidated, outcome.revalidated), (1, 2));
    assert_eq!(outcome.kept_by_cover, 1);
    assert_eq!(kept() - before, 1, "one kept entry, counted once");

    // A drop keeps entries by its own rule: the counter stays put.
    catalog.drop_view(viewplan_cq::Symbol::new("w")).unwrap();
    assert_eq!(kept() - before, 1);
}
