//! Quickstart: the paper's running "car-loc-part" example (Example 1.1).
//!
//! Shows the whole pipeline: parse a query and views, inspect the view
//! tuples and tuple-cores, generate the globally-minimal rewritings with
//! `CoreCover`, classify the paper's rewritings P1–P5, and verify on a
//! concrete database that the rewriting computes the same answer as the
//! query.
//!
//! Run with: `cargo run --example quickstart`

use viewplan::prelude::*;

fn main() {
    // ── The schema and query ────────────────────────────────────────────
    // car(Make, Dealer), loc(Dealer, City), part(Store, Make, City).
    let query = parse_query("q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C)")
        .expect("valid query");
    println!("Query:\n  {query}\n");

    let views = parse_views(
        "v1(M, D, C)    :- car(M, D), loc(D, C).
         v2(S, M, C)    :- part(S, M, C).
         v3(S)          :- car(M, anderson), loc(anderson, C), part(S, M, C).
         v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).
         v5(M, D, C)    :- car(M, D), loc(D, C).",
    )
    .expect("valid views");
    println!("Views:\n{views}");

    // ── View tuples and tuple-cores (§3.3, §4.1) ────────────────────────
    let minimized = minimize(&query);
    let tuples = view_tuples(&minimized, &views);
    println!("View tuples T(Q, V) and their tuple-cores:");
    for t in &tuples {
        let core = tuple_core(&minimized, t, &views);
        let covered: Vec<String> = core
            .subgoals()
            .map(|i| minimized.body[i].to_string())
            .collect();
        println!(
            "  {:<22} covers {{{}}}",
            t.to_string(),
            if covered.is_empty() {
                "∅ — filter candidate".to_string()
            } else {
                covered.join(", ")
            }
        );
    }

    // ── CoreCover: globally-minimal rewritings (§4) ─────────────────────
    let result = CoreCover::new(&query, &views).run();
    println!(
        "\nCoreCover stats: {} views → {} classes, {} view tuples → {} representatives",
        result.stats.views,
        result.stats.view_classes,
        result.stats.view_tuples,
        result.stats.representative_tuples
    );
    println!("Globally-minimal rewritings:");
    for r in result.rewritings() {
        println!("  {r}");
    }

    // ── The paper's P1–P5, classified (§3.1–3.2) ────────────────────────
    println!("\nThe paper's rewritings:");
    for (name, src) in [
        (
            "P1",
            "q1(S, C) :- v1(M, anderson, C1), v1(M1, anderson, C), v2(S, M, C)",
        ),
        ("P2", "q1(S, C) :- v1(M, anderson, C), v2(S, M, C)"),
        ("P3", "q1(S, C) :- v3(S), v1(M, anderson, C), v2(S, M, C)"),
        ("P4", "q1(S, C) :- v4(M, anderson, C, S)"),
        (
            "P5",
            "q1(S, C) :- v1(M, anderson, C1), v5(M1, anderson, C), v2(S, M, C)",
        ),
    ] {
        let p = parse_query(src).expect("valid rewriting");
        let lmr = is_locally_minimal(&p, &query, &views);
        println!(
            "  {name}: {} subgoal(s), locally minimal: {lmr}",
            p.body.len()
        );
    }

    // ── Closed-world check on a concrete database ───────────────────────
    let mut base = Database::new();
    base.insert_sym(
        "car",
        &[
            &["honda", "anderson"],
            &["bmw", "anderson"],
            &["ford", "smith"],
        ],
    );
    base.insert_sym(
        "loc",
        &[&["anderson", "palo_alto"], &["smith", "menlo_park"]],
    );
    base.insert_sym(
        "part",
        &[
            &["store1", "honda", "palo_alto"],
            &["store2", "ford", "menlo_park"],
            &["store3", "bmw", "palo_alto"],
        ],
    );

    let direct = evaluate(&query, &base);
    let view_db = materialize_views(&views, &base);
    let via_views = evaluate(&result.rewritings()[0], &view_db);
    println!("\nAnswer via base relations:\n{direct}");
    println!("Answer via the GMR over materialized views:\n{via_views}");
    assert_eq!(direct, via_views, "closed-world equivalence must hold");
    println!("✓ the rewriting computes exactly the query's answer");
}
