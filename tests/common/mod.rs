//! Instances and drivers shared between the differential tests.

// Each test binary compiles this module and uses a different part of it.
#![allow(dead_code)]

mod small;

// Unused in the binaries that draw no small problem, like the rest.
#[allow(unused_imports)]
pub use small::small_problem;

use rand::{rngs::StdRng, Rng, SeedableRng};
use viewplan::prelude::*;

/// A problem with a cover the certificate rejects and a class-mate
/// repairs, planted as in `tests/catalog_invalidation.rs`'s hand-written
/// instance: a chain query `q(X0, Xk) :- p0(X0, X1), …, p{k-1}(X{k-1},
/// Xk)` of three to five subgoals over distinct predicates, a view `h`
/// over the first `m` subgoals that exposes `X0` and `Xm` only, a view
/// `t` over the subgoals from `m - 1` on that exposes `X{m-1}` and `Xk`,
/// and last a class-mate of `h` that also exposes `X{m-1}`. The cores of
/// `h` and `t` overlap on subgoal `m - 1`, each as one part, so the one
/// minimum cover `h, t` fails the certificate and the oracle; with the
/// class-mate in `h`'s place it certifies. View heads list their
/// arguments in a seeded order and view variables are renamed, so the
/// seeds differ in more than the chain's length and split point.
pub fn planted_problem(seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = rng.gen_range(3..=5usize);
    let m = rng.gen_range(2..k);
    let stem = ["A", "V", "Z"][rng.gen_range(0..3usize)];
    let atom = |i: usize, v: &str| format!("p{i}({v}{i}, {v}{})", i + 1);
    let body = |range: std::ops::Range<usize>, v: &str| -> String {
        range.map(|i| atom(i, v)).collect::<Vec<_>>().join(", ")
    };
    let mut shuffled = |mut head: Vec<String>| -> String {
        for i in (1..head.len()).rev() {
            head.swap(i, rng.gen_range(0..=i));
        }
        head.join(", ")
    };
    let var = |i: usize| format!("{stem}{i}");
    let hider = format!(
        "h({}) :- {}.\n",
        shuffled(vec![var(0), var(m)]),
        body(0..m, stem)
    );
    let tail = format!(
        "t({}) :- {}.\n",
        shuffled(vec![var(m - 1), var(k)]),
        body(m - 1..k, stem)
    );
    let mate = format!(
        "hm({}) :- {}.\n",
        shuffled(vec![var(0), var(m - 1), var(m)]),
        body(0..m, stem)
    );
    let views = format!("{hider}{tail}{mate}");
    let query = format!("q(X0, X{k}) :- {}", body(0..k, "X"));
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
