//! Fixtures shared by the plan-search test binaries.

pub mod exhaustive;

use viewplan_containment::expand;
use viewplan_cq::{parse_query, parse_views, ConjunctiveQuery, ViewSet};
use viewplan_engine::{materialize_views, Database, Value};
use viewplan_workload::{generate, random_database, Shape, WorkloadConfig};

/// A §7 problem (8-subgoal query, views of 1–3 subgoals) over random
/// base relations of `rows` rows, a domain as large, and its views
/// materialized.
pub struct Generated {
    pub query: ConjunctiveQuery,
    pub views: ViewSet,
    pub vdb: Database,
}

pub fn generated(shape: Shape, views: usize, nondistinguished: usize, seed: u64) -> Generated {
    const ROWS: usize = 20;
    let config = match shape {
        Shape::Star => WorkloadConfig::star(views, nondistinguished, seed),
        Shape::Chain => WorkloadConfig::chain(views, nondistinguished, seed),
        Shape::Random => WorkloadConfig::random(views, nondistinguished, seed),
    };
    let w = generate(&config);
    let mut base = Database::new();
    for (name, rows) in random_database(&w.query, ROWS, ROWS as i64, seed) {
        for row in rows {
            base.insert(name, row.into_iter().map(Value::Int).collect());
        }
    }
    let vdb = materialize_views(&w.views, &base);
    Generated {
        query: w.query,
        views: w.views,
        vdb,
    }
}

/// A rewriting of `1 + k` subgoals in which every §6.2 rename is legal.
pub struct RenameFamily {
    pub query: ConjunctiveQuery,
    pub views: ViewSet,
    pub rewriting: ConjunctiveQuery,
    pub vdb: Database,
}

/// `vt` joins `A` with `B`; each `w<i>` only attaches the existential
/// `B` to the loop `s(B, B)` that `vt` already carries — the Example 6.1
/// shape, `k` times over. The query is the rewriting's expansion.
pub fn rename_family(k: usize) -> RenameFamily {
    let mut views_text = String::from("vt(A, B) :- t(A, B), s(B, B).\n");
    let mut body = vec!["vt(A, B)".to_string()];
    let mut base = Database::new();
    base.insert_int("s", &[&[2, 2], &[4, 4], &[6, 6]]);
    base.insert_int("t", &[&[1, 2], &[1, 4], &[3, 4], &[5, 6]]);
    for i in 0..k {
        views_text.push_str(&format!("w{i}(A, B) :- r{i}(A, A), s(B, B).\n"));
        body.push(format!("w{i}(A, B)"));
        for a in 0..=(5 - i as i64) {
            base.insert(format!("r{i}").as_str(), vec![Value::Int(a), Value::Int(a)]);
        }
    }
    let views = parse_views(&views_text).unwrap();
    let rewriting = parse_query(&format!("q(A) :- {}", body.join(", "))).unwrap();
    let query = expand(&rewriting, &views).unwrap();
    let vdb = materialize_views(&views, &base);
    RenameFamily {
        query,
        views,
        rewriting,
        vdb,
    }
}
