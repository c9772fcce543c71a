//! Example 6.1 / Figure 5, end to end: the supplementary-relation
//! approach vs. the paper's §6.2 renaming heuristic, with exact sizes
//! measured by the engine.

use viewplan::cost::plan_with_order;
use viewplan::prelude::*;

fn setup() -> (ConjunctiveQuery, ViewSet, Database) {
    let q = parse_query("q(A) :- r(A, A), t(A, B), s(B, B)").unwrap();
    let views = parse_views(
        "v1(A, B) :- r(A, A), s(B, B).\n\
         v2(A, B) :- t(A, B), s(B, B).",
    )
    .unwrap();
    let mut base = Database::new();
    base.insert_int("r", &[&[1, 1], &[2, 2], &[4, 4], &[6, 6], &[8, 8]]);
    base.insert_int("s", &[&[2, 2], &[4, 4], &[6, 6], &[8, 8]]);
    base.insert_int("t", &[&[1, 2], &[3, 4], &[5, 6], &[7, 8]]);
    let vdb = materialize_views(&views, &base);
    (q, views, vdb)
}

/// The Figure 5 view relations: v2 matches the paper's table exactly; v1
/// is the paper's four ⟨1, ·⟩ rows plus the other r-loop/s-loop pairs
/// (the paper's figure lists the fragment relevant to the argument).
#[test]
fn figure5_views() {
    let (_, _, vdb) = setup();
    let v2 = vdb.get("v2".into()).unwrap();
    assert_eq!(v2.len(), 4);
    for pair in [[1, 2], [3, 4], [5, 6], [7, 8]] {
        assert!(v2.contains(&[Value::Int(pair[0]), Value::Int(pair[1])]));
    }
    let v1 = vdb.get("v1".into()).unwrap();
    for b in [2, 4, 6, 8] {
        assert!(v1.contains(&[Value::Int(1), Value::Int(b)]));
    }
}

/// P2 is the only minimal rewriting using view tuples (the paper's
/// observation that P1's fresh variable C puts it outside the space).
#[test]
fn p2_is_the_view_tuple_rewriting() {
    let (q, views, _) = setup();
    let result = CoreCover::new(&q, &views).run_all_minimal();
    let printed: Vec<String> = result.rewritings().iter().map(|r| r.to_string()).collect();
    assert_eq!(printed, ["q(A) :- v1(A, B), v2(A, B)"]);
}

/// The headline comparison: under the supplementary-relation approach the
/// first GSR keeps B (size 20 here); with the renaming heuristic B drops
/// and the GSR collapses to the distinct A values (5). cost(F1) < cost(F2).
#[test]
fn renaming_beats_supplementary() {
    let (q, views, vdb) = setup();
    let p2 = parse_query("q(A) :- v1(A, B), v2(A, B)").unwrap();
    let mut oracle = ExactOracle::new(&vdb);
    let (_, gsr_supp, cost_supp) = plan_with_order(
        &q,
        &views,
        &p2,
        &[0, 1],
        DropPolicy::Supplementary,
        &mut oracle,
    )
    .expect("unbudgeted planning always completes");
    let (plan_smart, gsr_smart, cost_smart) = plan_with_order(
        &q,
        &views,
        &p2,
        &[0, 1],
        DropPolicy::SmartCostBased,
        &mut oracle,
    )
    .expect("unbudgeted planning always completes");
    assert_eq!(gsr_supp[0], 20.0);
    assert_eq!(gsr_smart[0], 5.0);
    assert!(cost_smart < cost_supp);
    // The smart plan drops something at step 1.
    assert!(!plan_smart.steps[0].drop_after.is_empty());
}

/// "If we reverse the two subgoals in the two orderings, the new physical
/// plan of P1 is still more efficient than that of P2": the reversed order
/// with smart drops is also at least as cheap as reversed supplementary.
#[test]
fn reversed_order_preserves_the_gap() {
    let (q, views, vdb) = setup();
    let p2 = parse_query("q(A) :- v1(A, B), v2(A, B)").unwrap();
    let mut oracle = ExactOracle::new(&vdb);
    let (_, _, cost_supp) = plan_with_order(
        &q,
        &views,
        &p2,
        &[1, 0],
        DropPolicy::Supplementary,
        &mut oracle,
    )
    .expect("unbudgeted planning always completes");
    let (_, _, cost_smart) = plan_with_order(
        &q,
        &views,
        &p2,
        &[1, 0],
        DropPolicy::SmartCostBased,
        &mut oracle,
    )
    .expect("unbudgeted planning always completes");
    assert!(cost_smart <= cost_supp);
}

/// All plans — with or without smart drops — compute the paper's answer
/// q(1).
#[test]
fn all_plans_compute_the_answer() {
    let (q, views, vdb) = setup();
    let p2 = parse_query("q(A) :- v1(A, B), v2(A, B)").unwrap();
    let mut oracle = ExactOracle::new(&vdb);
    for policy in [
        DropPolicy::Supplementary,
        DropPolicy::SmartAggressive,
        DropPolicy::SmartCostBased,
    ] {
        for order in [[0usize, 1], [1, 0]] {
            let (plan, _, _) = plan_with_order(&q, &views, &p2, &order, policy, &mut oracle)
                .expect("unbudgeted planning always completes");
            let trace = plan.try_execute(&p2.head, &vdb).unwrap();
            assert_eq!(
                trace.answer.rows(),
                [vec![Value::Int(1)]],
                "policy {policy:?}, order {order:?}"
            );
        }
    }
}

/// The full optimizer under M3 picks a plan at least as cheap as every
/// hand-written order/policy combination above.
#[test]
fn optimizer_m3_is_at_least_as_good() {
    let (q, views, vdb) = setup();
    let p2 = parse_query("q(A) :- v1(A, B), v2(A, B)").unwrap();
    let mut oracle = ExactOracle::new(&vdb);
    let best = Optimizer::new(&q, &views)
        .best_plan(CostModel::M3(DropPolicy::SmartCostBased), &mut oracle)
        .unwrap();
    for order in [[0usize, 1], [1, 0]] {
        for policy in [DropPolicy::Supplementary, DropPolicy::SmartCostBased] {
            let (_, _, cost) = plan_with_order(&q, &views, &p2, &order, policy, &mut oracle)
                .expect("unbudgeted planning always completes");
            assert!(best.cost <= cost);
        }
    }
}
