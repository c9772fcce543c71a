//! Cost models M1/M2/M3 on the paper's Example 6.1 (Figure 5) and the
//! filter-subgoal scenario of §5.1.
//!
//! Demonstrates:
//! * M2 join ordering by subset DP over exact intermediate sizes;
//! * the supplementary-relation approach vs. the paper's §6.2 renaming
//!   heuristic — reproducing `cost(F1) < cost(F2)` from Example 6.1;
//! * grafting an empty-core filter view (the `P3`-beats-`P2` effect).
//!
//! Run with: `cargo run --example cost_models`

use viewplan::prelude::*;

fn main() {
    example_61();
    filter_subgoals();
}

/// Example 6.1 / Figure 5: dropping a compared attribute via renaming.
fn example_61() {
    println!("═══ Example 6.1 (Figure 5): M3 attribute dropping ═══\n");
    let query = parse_query("q(A) :- r(A, A), t(A, B), s(B, B)").expect("query");
    let views = parse_views(
        "v1(A, B) :- r(A, A), s(B, B).
         v2(A, B) :- t(A, B), s(B, B).",
    )
    .expect("views");

    // The Figure 5 base relations.
    let mut base = Database::new();
    base.insert_int("r", &[&[1, 1], &[2, 2], &[4, 4], &[6, 6], &[8, 8]]);
    base.insert_int("s", &[&[2, 2], &[4, 4], &[6, 6], &[8, 8]]);
    base.insert_int("t", &[&[1, 2], &[3, 4], &[5, 6], &[7, 8]]);
    let view_db = materialize_views(&views, &base);

    // P2 is the only minimal rewriting using view tuples.
    let p2 = parse_query("q(A) :- v1(A, B), v2(A, B)").expect("P2");
    println!("Rewriting P2: {p2}");
    let mut oracle = ExactOracle::new(&view_db);

    // Supplementary-relation plan (order v1, v2): B must be kept.
    let (plan_supp, gsr_supp, cost_supp) = viewplan::cost::plan_with_order(
        &query,
        &views,
        &p2,
        &[0, 1],
        DropPolicy::Supplementary,
        &mut oracle,
    )
    .expect("unbudgeted planning always completes");
    println!("\nSupplementary relations (the classic approach):");
    println!("  plan: {plan_supp}");
    println!("  GSR sizes: {gsr_supp:?}, cost: {cost_supp}");

    // The §6.2 renaming heuristic: B is droppable after v1 because
    // renaming it preserves equivalence.
    let (plan_smart, gsr_smart, cost_smart) = viewplan::cost::plan_with_order(
        &query,
        &views,
        &p2,
        &[0, 1],
        DropPolicy::SmartCostBased,
        &mut oracle,
    )
    .expect("unbudgeted planning always completes");
    println!("\nRenaming heuristic (§6.2):");
    println!("  plan: {plan_smart}");
    println!("  GSR sizes: {gsr_smart:?}, cost: {cost_smart}");
    assert!(cost_smart < cost_supp);
    println!("\n✓ cost(F1) = {cost_smart} < cost(F2) = {cost_supp}, as in the paper");

    // The answers agree regardless.
    let a = plan_supp
        .try_execute(&p2.head, &view_db)
        .expect("plan executes")
        .answer;
    let b = plan_smart
        .try_execute(&p2.head, &view_db)
        .expect("plan executes")
        .answer;
    assert_eq!(a, b);
    println!("✓ both plans return {:?}", a.rows());
}

/// §5.1: a very selective empty-core view used as a filter (P3 vs P2).
fn filter_subgoals() {
    println!("\n═══ §5.1: filter subgoals under M2 ═══\n");
    let query = parse_query("q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C)")
        .expect("query");
    let views = parse_views(
        "v1(M, D, C) :- car(M, D), loc(D, C).
         v2(S, M, C) :- part(S, M, C).
         v3(S)       :- car(M, anderson), loc(anderson, C), part(S, M, C).",
    )
    .expect("views");

    // A database where v3 is tiny (few stores match) but v1 ⋈ v2 is wide.
    let mut base = Database::new();
    for m in 0..30 {
        base.insert("car", vec![Value::Int(m), Value::sym("anderson")]);
    }
    for c in 0..6 {
        base.insert("loc", vec![Value::sym("anderson"), Value::Int(100 + c)]);
    }
    base.insert(
        "part",
        vec![Value::Int(9000), Value::Int(3), Value::Int(102)],
    );
    for s in 0..300 {
        base.insert(
            "part",
            vec![Value::Int(s), Value::Int(s % 30), Value::Int(500 + s % 9)],
        );
    }
    let view_db = materialize_views(&views, &base);
    let mut oracle = ExactOracle::new(&view_db);

    let no_filters = OptimizerConfig {
        max_filters: 0,
        ..OptimizerConfig::default()
    };
    let without = Optimizer::new(&query, &views)
        .with_config(no_filters)
        .best_plan(CostModel::M2, &mut oracle)
        .expect("rewriting exists");
    let with = Optimizer::new(&query, &views)
        .best_plan(CostModel::M2, &mut oracle)
        .expect("rewriting exists");

    println!("Best plan without filters: {}", without.plan);
    println!("  cost: {}", without.cost);
    println!("Best plan with filters:    {}", with.plan);
    println!("  cost: {}", with.cost);
    if with.cost < without.cost {
        println!("\n✓ grafting the empty-core view v3 made the plan cheaper —");
        println!("  exactly why P3 can beat P2 (§5.1): more subgoals, less cost.");
    } else {
        println!("\n(filters did not pay off on this database)");
    }

    // And the answers still match the direct evaluation over base tables.
    let direct = evaluate(&query, &base);
    let via = with
        .plan
        .try_execute(&with.rewriting.head, &view_db)
        .expect("plan executes")
        .answer;
    assert_eq!(direct, via);
    println!("✓ answer matches direct evaluation: {} tuple(s)", via.len());
}
