//! Instances and drivers shared between the differential tests.

// Each test binary compiles this module and uses a different part of it.
#![allow(dead_code)]

use rand::{rngs::StdRng, Rng, SeedableRng};
use viewplan::prelude::*;

/// A small problem over the binary predicates `a` and `b`: a query of two
/// to five subgoals (not minimized — see the module docs) and one to five
/// views of one to three subgoals. Arguments are drawn from four
/// variables and two constants; view variables are spelled `X0..X3` like
/// the query's half the time; view heads repeat variables and carry
/// constants now and then.
pub fn small_problem(seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let term = |rng: &mut StdRng, stem: &str| {
        if rng.gen_bool(0.12) {
            format!("k{}", rng.gen_range(0..2usize))
        } else {
            format!("{stem}{}", rng.gen_range(0..4usize))
        }
    };
    let body = |rng: &mut StdRng, stem: &str, len: usize| -> Vec<String> {
        (0..len)
            .map(|_| {
                let pred = ["a", "b"][rng.gen_range(0..2usize)];
                format!("{pred}({}, {})", term(rng, stem), term(rng, stem))
            })
            .collect()
    };
    // The variables a body mentions, in order of first occurrence.
    let variables = |atoms: &[String]| -> Vec<String> {
        let mut seen = Vec::new();
        for token in atoms
            .iter()
            .flat_map(|a| a.split(|c: char| !c.is_alphanumeric()))
        {
            if token.starts_with(char::is_uppercase) && !seen.contains(&token.to_string()) {
                seen.push(token.to_string());
            }
        }
        seen
    };
    let query_len = rng.gen_range(2..=5usize);
    let query_body = body(&mut rng, "X", query_len);
    let query_head: Vec<String> = variables(&query_body)
        .into_iter()
        .filter(|_| rng.gen_bool(0.4))
        .collect();
    let query = format!("q({}) :- {}", query_head.join(", "), query_body.join(", "));
    let mut views = String::new();
    for i in 0..rng.gen_range(1..=5usize) {
        let stem = if rng.gen_bool(0.5) { "X" } else { "A" };
        let len = rng.gen_range(1..=3usize);
        let view_body = body(&mut rng, stem, len);
        let mut head: Vec<String> = variables(&view_body)
            .into_iter()
            .filter(|_| rng.gen_bool(0.6))
            .collect();
        if !head.is_empty() && rng.gen_bool(0.15) {
            head.push(head[0].clone());
        }
        if rng.gen_bool(0.1) {
            head.push("k0".to_string());
        }
        views.push_str(&format!(
            "v{i}({}) :- {}.\n",
            head.join(", "),
            view_body.join(", ")
        ));
    }
    Workload {
        query: parse_query(&query).unwrap_or_else(|e| panic!("{query}: {e}")),
        views: parse_views(&views).unwrap_or_else(|e| panic!("{views}: {e}")),
    }
}

/// Serves `queries` on `threads` threads that share one `server` — thread
/// `t` answers requests `t`, `t + threads`, … in turn — and returns the
/// answers in input order. Each request runs on one thread, as behind
/// `serve --listen`; the threads share only the server and its cache.
pub fn serve_concurrently(
    server: &BatchServer,
    queries: &[ConjunctiveQuery],
    threads: usize,
) -> Vec<Result<ServedAnswer, viewplan::cost::PlanError>> {
    let mut answers: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let stripe = queries.iter().enumerate().skip(t).step_by(threads);
                    stripe
                        .map(|(i, q)| (i, server.serve(q)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a serving thread panicked"))
            .collect()
    });
    answers.sort_by_key(|&(i, _)| i);
    answers.into_iter().map(|(_, answer)| answer).collect()
}
