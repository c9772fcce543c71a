//! Count-based (not wall-clock) evidence that a served request does not
//! pay per view: the catalog index is built once per snapshot — at
//! construction and at each DDL swap — and never by validating or
//! serving a query, and an `add-view` compares the new view with the
//! representatives of its own signature bucket, not with the catalog.
//!
//! The counters are process-wide, so this file holds exactly one test.

use viewplan_cq::{parse_query, parse_views, Symbol, View};
use viewplan_obs as obs;
use viewplan_serve::{LiveCatalog, ServeConfig};

#[test]
fn index_builds_and_containment_checks_do_not_scale_with_the_catalog() {
    obs::set_enabled(true);
    // 300 views over 100 predicate pairs. Per pair: two equivalent views
    // (one class) and one with the join reversed (a second class in the
    // same signature bucket) — 200 classes, 100 buckets of two.
    let mut source = String::new();
    for k in 0..100 {
        source.push_str(&format!(
            "va{k}(A, B) :- r{k}(A, C), s{k}(C, B).\n\
             vb{k}(X, Y) :- r{k}(X, Z), s{k}(Z, Y).\n\
             vc{k}(A, B) :- r{k}(C, A), s{k}(C, B).\n"
        ));
    }
    let views = parse_views(&source).unwrap();
    assert_eq!(views.len(), 300);

    let builds = || obs::counter_value("serve.catalog_index_builds");
    let checks = || obs::counter_value("containment.checks");
    let builds_before = builds();
    let catalog = LiveCatalog::new(&views, ServeConfig::default());
    assert_eq!(catalog.server().prepared().class_count(), 200);
    assert_eq!(builds() - builds_before, 1, "one index per snapshot");

    // 500 requests — hits and misses, valid and VP001-rejected (every
    // 50th, so pairs 49 and 99 are only ever rejected) — leave the build
    // count where it was.
    for i in 0..500 {
        let k = i % 100;
        let server = catalog.server();
        if i % 50 == 49 {
            let bad = parse_query(&format!("q(X) :- r{k}(X, X, X)")).unwrap();
            assert!(server.validate(&bad).is_err());
            continue;
        }
        let q = parse_query(&format!(
            "q(U{i}, W{i}) :- r{k}(U{i}, T{i}), s{k}(T{i}, W{i})"
        ))
        .unwrap();
        server.validate(&q).unwrap();
        let answer = server.serve(&q).unwrap();
        assert_eq!(answer.rewritings.len(), 1, "{q}");
        assert_eq!(answer.from_cache, i >= 100, "{q}");
    }
    assert_eq!(builds() - builds_before, 1, "requests never index");

    // add-view: the new view's bucket holds two representatives (va7,
    // vc7); an equivalence test is at most two containment checks.
    let checks_before = checks();
    let added = View::new(parse_query("w(P, Q) :- r7(R, P), s7(R, Q)").unwrap());
    let outcome = catalog.add_view(added).unwrap();
    assert_eq!((outcome.epoch, outcome.views), (1, 301));
    assert!(
        checks() - checks_before <= 2 * 2,
        "add-view ran {} containment checks against a bucket of 2",
        checks() - checks_before
    );
    let prepared = catalog.server().prepared().clone();
    assert_eq!(prepared.class_count(), 200, "w joined vc7's class");
    assert!(prepared.classes().contains(&vec![23, 300]));

    // drop-view regroups nothing at all.
    let checks_before = checks();
    let outcome = catalog.drop_view(Symbol::new("va7")).unwrap();
    assert_eq!((outcome.epoch, outcome.views), (2, 300));
    assert_eq!(checks() - checks_before, 0, "drop-view compares no views");

    assert_eq!(
        builds() - builds_before,
        3,
        "construction plus one build per swap"
    );
    assert_eq!(
        obs::counter_value("serve.prepared_view_sets"),
        1,
        "DDL derives its snapshot; only construction groups from scratch"
    );
}
