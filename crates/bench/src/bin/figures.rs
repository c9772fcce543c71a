//! Regenerates every table and figure of the paper's evaluation.
//!
//! Writes `results/fig6a.csv` … `results/fig9b.csv` (plus `table2.txt`,
//! `example61.txt`, and the baseline/ablation series) and prints each to
//! stdout. Run with:
//!
//! ```text
//! cargo run -p viewplan-bench --release --bin figures           # paper scale (40 queries/point)
//! cargo run -p viewplan-bench --release --bin figures -- quick  # 8 queries/point
//! cargo run -p viewplan-bench --release --bin figures -- quick --threads 8
//! ```
//!
//! `--threads N` spreads each sweep point's query instances over N
//! workers (default 1). The accepted queries and all averaged stats are
//! identical for any N; only wall-clock changes.

use std::fs;
use std::time::Instant;
use viewplan_bench::{run_sweep, to_csv, Family, SweepConfig, SweepPoint};
use viewplan_containment::minimize;
use viewplan_core::{
    bucket_rewritings, minicon_rewritings, naive_gmrs, tuple_core, view_tuples, CoreCover,
};
use viewplan_cost::{plan_with_order, DropPolicy, ExactOracle};
use viewplan_cq::{parse_query, parse_views};
use viewplan_engine::{materialize_views, Database};
use viewplan_workload::{generate, WorkloadConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    let mut threads = 1;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "quick" => {}
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => threads = n,
                _ => {
                    eprintln!("error: --threads expects a positive integer");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}` (expected `quick` or `--threads N`)");
                std::process::exit(2);
            }
        }
    }
    eprintln!("[sweep] harness threads: {threads}");
    fs::create_dir_all("results").expect("create results dir");
    let mk = |family, nondist| {
        let mut c = if quick {
            SweepConfig::quick(family, nondist)
        } else {
            SweepConfig::paper(family, nondist)
        };
        c.threads = threads;
        c
    };

    // ── Figures 6 & 7: star queries ─────────────────────────────────────
    let star0 = timed("star, all distinguished", || {
        run_sweep(&mk(Family::Star, 0))
    });
    let star1 = timed("star, 1 nondistinguished", || {
        run_sweep(&mk(Family::Star, 1))
    });
    emit(
        "fig6a",
        "Figure 6(a): star, time for all GMRs (all vars distinguished)",
        &star0,
    );
    emit(
        "fig6b",
        "Figure 6(b): star, time for all GMRs (1 nondistinguished)",
        &star1,
    );
    emit(
        "fig7a",
        "Figure 7(a): star, view equivalence classes",
        &star0,
    );
    emit(
        "fig7b",
        "Figure 7(b): star, view tuples vs representatives",
        &star0,
    );

    // ── Figures 8 & 9: chain queries ────────────────────────────────────
    let chain0 = timed("chain, all distinguished", || {
        run_sweep(&mk(Family::Chain, 0))
    });
    let chain1 = timed("chain, 1 nondistinguished", || {
        run_sweep(&mk(Family::Chain, 1))
    });
    emit(
        "fig8a",
        "Figure 8(a): chain, time for all GMRs (all vars distinguished)",
        &chain0,
    );
    emit(
        "fig8b",
        "Figure 8(b): chain, time for all GMRs (1 nondistinguished)",
        &chain1,
    );
    emit(
        "fig9a",
        "Figure 9(a): chain, view equivalence classes",
        &chain0,
    );
    emit(
        "fig9b",
        "Figure 9(b): chain, view tuples vs representatives",
        &chain0,
    );

    // ── Random queries (the third shape §7 mentions) ────────────────────
    let rand0 = timed("random, all distinguished", || {
        run_sweep(&mk(Family::Random, 0))
    });
    emit(
        "fig_random",
        "Random queries (extra series): time and classes",
        &rand0,
    );

    // ── Table 2: tuple-cores of Example 4.1 ─────────────────────────────
    let table2 = table2();
    print!("{table2}");
    fs::write("results/table2.txt", &table2).expect("write table2");

    // ── Example 6.1 / Figure 5: M3 cost comparison ──────────────────────
    let ex61 = example61();
    print!("{ex61}");
    fs::write("results/example61.txt", &ex61).expect("write example61");

    // ── Baselines & ablations ───────────────────────────────────────────
    let base = baselines(quick);
    print!("{base}");
    fs::write("results/baselines.csv", &base).expect("write baselines");

    let ablation = grouping_ablation(quick);
    print!("{ablation}");
    fs::write("results/grouping_ablation.csv", &ablation).expect("write ablation");

    println!("\nAll series written under results/.");
}

fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    eprintln!("[sweep] {label}: {:.1?}", start.elapsed());
    out
}

fn emit(name: &str, title: &str, points: &[SweepPoint]) {
    let csv = to_csv(points);
    fs::write(format!("results/{name}.csv"), &csv).expect("write csv");
    println!("\n── {title} ──");
    print!("{csv}");
}

/// Reproduces Table 2 verbatim.
fn table2() -> String {
    let q = minimize(&parse_query("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)").unwrap());
    let views = parse_views(
        "v1(A, B) :- a(A, B), a(B, B).\n\
         v2(C, D) :- a(C, E), b(C, D).",
    )
    .unwrap();
    let mut out = String::from("\n── Table 2: tuple-cores for Example 4.1 ──\n");
    out.push_str("view tuple | tuple-core C(tv)\n");
    for t in view_tuples(&q, &views) {
        let core = tuple_core(&q, &t, &views);
        let covered: Vec<String> = core
            .subgoals
            .iter()
            .map(|&i| q.body[i].to_string())
            .collect();
        out.push_str(&format!("{:<10} | {}\n", t.to_string(), covered.join(", ")));
    }
    out
}

/// Reproduces the Example 6.1 comparison with exact engine-measured sizes.
fn example61() -> String {
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
    let p2 = parse_query("q(A) :- v1(A, B), v2(A, B)").unwrap();
    let mut oracle = ExactOracle::new(&vdb);

    let mut out = String::from("\n── Example 6.1 (Figure 5): M3 plan costs ──\n");
    out.push_str("order      | policy        | GSR sizes | cost\n");
    for (order, oname) in [([0usize, 1], "v1,v2"), ([1, 0], "v2,v1")] {
        for (policy, pname) in [
            (DropPolicy::Supplementary, "supplementary"),
            (DropPolicy::SmartCostBased, "renaming §6.2"),
        ] {
            let (_, gsrs, cost) = plan_with_order(&q, &views, &p2, &order, policy, &mut oracle)
                .expect("unbudgeted M3 planning always completes");
            out.push_str(&format!("{oname:<10} | {pname:<13} | {gsrs:?} | {cost}\n"));
        }
    }
    out.push_str("(the renaming heuristic's cost is the paper's F1; supplementary is F2)\n");
    out
}

/// CoreCover vs the Theorem 3.1 naive search vs MiniCon, small view
/// counts (the naive baseline is exponential).
fn baselines(quick: bool) -> String {
    let mut out =
        String::from("\n── Baselines: CoreCover vs naive (Thm 3.1) vs MiniCon vs bucket ──\n");
    out.push_str("family,views,corecover_ms,naive_ms,minicon_ms,bucket_ms\n");
    let counts: &[usize] = if quick { &[5, 10] } else { &[5, 10, 15, 20] };
    for family in ["chain", "star"] {
        for &views in counts {
            let mut cc = 0.0;
            let mut nv = 0.0;
            let mut mc = 0.0;
            let mut bk = 0.0;
            let runs = 10;
            let mut accepted = 0;
            for seed in 0..(runs * 3) {
                let config = match family {
                    "chain" => WorkloadConfig::chain(views, 0, seed),
                    _ => WorkloadConfig::star(views, 0, seed),
                };
                let w = generate(&config);
                let t0 = Instant::now();
                let r = CoreCover::new(&w.query, &w.views).run();
                let t_cc = t0.elapsed().as_secs_f64() * 1e3;
                if r.rewritings().is_empty() {
                    continue;
                }
                let t1 = Instant::now();
                let _ = naive_gmrs(&w.query, &w.views);
                let t_nv = t1.elapsed().as_secs_f64() * 1e3;
                let t2 = Instant::now();
                let _ = minicon_rewritings(&w.query, &w.views, true, 500);
                let t_mc = t2.elapsed().as_secs_f64() * 1e3;
                let t3 = Instant::now();
                let _ = bucket_rewritings(&w.query, &w.views, 50_000);
                let t_bk = t3.elapsed().as_secs_f64() * 1e3;
                cc += t_cc;
                nv += t_nv;
                mc += t_mc;
                bk += t_bk;
                accepted += 1;
                if accepted >= runs {
                    break;
                }
            }
            let n = accepted.max(1) as f64;
            out.push_str(&format!(
                "{family},{views},{:.3},{:.3},{:.3},{:.3}\n",
                cc / n,
                nv / n,
                mc / n,
                bk / n
            ));
        }
    }
    out
}

/// The §5.2 ablation: CoreCover with equivalence-class grouping on vs off.
fn grouping_ablation(quick: bool) -> String {
    let mut out =
        String::from("\n── Ablation: §5.2 grouping on vs off (star, all distinguished) ──\n");
    out.push_str("views,grouped_ms,ungrouped_ms\n");
    let counts: Vec<usize> = if quick {
        vec![100, 400]
    } else {
        vec![100, 200, 400, 700, 1000]
    };
    for views in counts {
        let mut grouped = SweepConfig::quick(Family::Star, 0);
        grouped.view_counts = vec![views];
        grouped.queries_per_point = if quick { 4 } else { 8 };
        let mut ungrouped = grouped.clone();
        ungrouped.corecover.group_equivalent_views = false;
        ungrouped.corecover.group_view_tuples = false;
        let g = run_sweep(&grouped).remove(0);
        let u = run_sweep(&ungrouped).remove(0);
        out.push_str(&format!("{views},{:.3},{:.3}\n", g.avg_ms, u.avg_ms));
    }
    out
}
