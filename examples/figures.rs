//! Regenerates every table and figure of the paper's evaluation (§7).
//!
//! Writes `results/fig6a.csv`, `fig6b.csv`, `fig8a.csv` and `fig8b.csv`
//! (plus `fig_random.csv`, `table2.txt`, `example61.txt`, and the
//! baseline/ablation series) under the current directory and prints each
//! to stdout, one query at a time. Each sweep is written once: Figures 7
//! and 9 plot other columns of the sweeps behind Figures 6(a) and 8(a).
//! Run with:
//!
//! ```text
//! cargo run --release --example figures            # paper scale (40 queries/point)
//! cargo run --release --example figures -- quick   # 8 queries/point
//! ```
//!
//! A *sweep* fixes a workload family (star/chain, number of
//! nondistinguished variables) and, for each view count, generates
//! `queries_per_point` workloads, discards those without rewritings (as
//! the paper does), runs `CoreCover` to all GMRs, and averages the
//! quantities Figures 6–9 plot.

use std::error::Error;
use std::fs;
use std::time::Instant;
use viewplan::cost::plan_with_order;
use viewplan::obs;
use viewplan::prelude::*;

type Result<T> = std::result::Result<T, Box<dyn Error>>;

fn main() -> Result<()> {
    if let Some(other) = std::env::args().skip(1).find(|a| a != "quick") {
        eprintln!("error: unknown argument `{other}` (expected `quick`)");
        std::process::exit(2);
    }
    let quick = std::env::args().skip(1).any(|a| a == "quick");
    fs::create_dir_all("results")?;
    let mk = |family, nondist| {
        if quick {
            SweepConfig::quick(family, nondist)
        } else {
            SweepConfig::paper(family, nondist)
        }
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
        "Figures 6(a), 7(a), 7(b): star, all vars distinguished",
        &to_csv(&star0),
    )?;
    emit(
        "fig6b",
        "Figure 6(b): star, time for all GMRs (1 nondistinguished)",
        &to_csv(&star1),
    )?;

    // ── Figures 8 & 9: chain queries ────────────────────────────────────
    let chain0 = timed("chain, all distinguished", || {
        run_sweep(&mk(Family::Chain, 0))
    });
    let chain1 = timed("chain, 1 nondistinguished", || {
        run_sweep(&mk(Family::Chain, 1))
    });
    emit(
        "fig8a",
        "Figures 8(a), 9(a), 9(b): chain, all vars distinguished",
        &to_csv(&chain0),
    )?;
    emit(
        "fig8b",
        "Figure 8(b): chain, time for all GMRs (1 nondistinguished)",
        &to_csv(&chain1),
    )?;

    // ── Random queries (the third shape §7 mentions) ────────────────────
    let rand0 = timed("random, all distinguished", || {
        run_sweep(&mk(Family::Random, 0))
    });
    emit(
        "fig_random",
        "Random queries (extra series): time and classes",
        &to_csv(&rand0),
    )?;

    // ── Table 2: tuple-cores of Example 4.1 ─────────────────────────────
    let table2 = table2()?;
    print!("{table2}");
    fs::write("results/table2.txt", &table2)?;

    // ── Example 6.1 / Figure 5: M3 cost comparison ──────────────────────
    let ex61 = example61()?;
    print!("{ex61}");
    fs::write("results/example61.txt", &ex61)?;

    // ── Baselines & ablations ───────────────────────────────────────────
    let counts: &[usize] = if quick { &[5, 10] } else { &[5, 10, 15, 20] };
    let base = timed("baselines", || baselines(counts));
    emit(
        "baselines",
        "Baselines: CoreCover vs naive (Thm 3.1) vs MiniCon",
        &base,
    )?;

    let (counts, queries): (&[usize], usize) = if quick {
        (&[100, 400], 4)
    } else {
        (&[100, 200, 400, 700, 1000], 8)
    };
    let ablation = timed("grouping ablation", || grouping_ablation(counts, queries));
    emit(
        "grouping_ablation",
        "Ablation: §5.2 grouping on vs off (star, all distinguished)",
        &ablation,
    )?;

    println!("\nAll series written under results/.");
    Ok(())
}

fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    eprintln!("[sweep] {label}: {:.1?}", start.elapsed());
    out
}

/// Writes `csv` alone to `results/{name}.csv`; the title goes to stdout
/// only, so line 1 of every file is its header.
fn emit(name: &str, title: &str, csv: &str) -> Result<()> {
    fs::write(format!("results/{name}.csv"), csv)?;
    println!("\n── {title} ──");
    print!("{csv}");
    Ok(())
}

/// Which §7 workload family a sweep runs.
#[derive(Clone, Copy, Debug)]
enum Family {
    /// Star queries (§7.1).
    Star,
    /// Chain queries (§7.2).
    Chain,
    /// Random queries (mentioned alongside \[23\]).
    Random,
}

/// One averaged data point of a sweep.
#[derive(Clone, Debug)]
struct SweepPoint {
    /// Number of views at this point.
    views: usize,
    /// Queries that actually had rewritings (the denominator).
    queries: usize,
    /// Average wall-clock time of `CoreCover::run`, in milliseconds
    /// (includes view/tuple grouping, as in the paper).
    avg_ms: f64,
    /// Average number of view equivalence classes (Figures 7a / 9a).
    view_classes: f64,
    /// Average number of view tuples (Figures 7b / 9b, upper series).
    view_tuples: f64,
    /// Average number of representative view tuples (lower series).
    representative_tuples: f64,
    /// Average number of GMRs found.
    gmrs: f64,
    /// Average homomorphism search nodes per run (from the
    /// `containment.hom_nodes` counter) — the work metric behind the
    /// wall-clock series.
    hom_nodes: f64,
    /// Average set-cover search nodes per run (from the
    /// `cover.search_nodes` counter).
    set_cover_nodes: f64,
    /// Fraction of accepted runs that reported
    /// [`obs::Completeness::Complete`] (1.0 whenever no budget is
    /// installed; lower values mean some runs returned best-so-far
    /// results under an exhausted budget).
    completeness: f64,
}

/// Sweep parameters.
#[derive(Clone, Debug)]
struct SweepConfig {
    /// Workload family.
    family: Family,
    /// Number of nondistinguished variables (0 = all distinguished).
    nondistinguished: usize,
    /// View counts to measure (the paper: 100, 200, …, 1000).
    view_counts: Vec<usize>,
    /// Queries averaged per point (the paper: 40).
    queries_per_point: usize,
    /// Base RNG seed.
    base_seed: u64,
    /// CoreCover configuration (grouping on by default; the ablation
    /// series turns it off).
    corecover: CoreCoverConfig,
}

impl SweepConfig {
    /// The paper's settings for one family: 40 queries per point over
    /// 100..=1000 views.
    fn paper(family: Family, nondistinguished: usize) -> SweepConfig {
        SweepConfig {
            family,
            nondistinguished,
            view_counts: (1..=10).map(|k| k * 100).collect(),
            queries_per_point: 40,
            base_seed: 20010521, // SIGMOD 2001, May 21
            corecover: CoreCoverConfig::default(),
        }
    }

    /// A scaled-down variant for quick runs.
    fn quick(family: Family, nondistinguished: usize) -> SweepConfig {
        SweepConfig {
            queries_per_point: 8,
            view_counts: vec![100, 300, 600, 1000],
            ..SweepConfig::paper(family, nondistinguished)
        }
    }
}

fn workload_config(c: &SweepConfig, views: usize, seed: u64) -> WorkloadConfig {
    match c.family {
        Family::Star => WorkloadConfig::star(views, c.nondistinguished, seed),
        Family::Chain => WorkloadConfig::chain(views, c.nondistinguished, seed),
        Family::Random => WorkloadConfig::random(views, c.nondistinguished, seed),
    }
}

/// Runs a sweep, returning one point per view count.
fn run_sweep(config: &SweepConfig) -> Vec<SweepPoint> {
    config
        .view_counts
        .iter()
        .map(|&views| run_point(config, views))
        .collect()
}

/// Runs one data point: `queries_per_point` accepted queries (skipping
/// rewriting-less ones, bounded retries), averaged. The work columns are
/// per-run counter deltas, so skipped attempts do not count.
fn run_point(config: &SweepConfig, views: usize) -> SweepPoint {
    // Collect counters for the whole sweep; the registry is process-global,
    // so work metrics are read as before/after deltas rather than by
    // resetting (counter bumps are relaxed atomics — cheap enough to leave
    // on while timing).
    obs::set_enabled(true);
    let mut accepted = 0usize;
    let mut total_ms = 0.0;
    let mut classes = 0.0;
    let mut tuples = 0.0;
    let mut reps = 0.0;
    let mut gmrs = 0.0;
    let mut hom_nodes = 0.0;
    let mut set_cover_nodes = 0.0;
    let mut complete_runs = 0usize;
    for attempt in 0..config.queries_per_point * 5 {
        if accepted >= config.queries_per_point {
            break;
        }
        let seed = config
            .base_seed
            .wrapping_add((views as u64) << 20)
            .wrapping_add(attempt as u64);
        let w = generate(&workload_config(config, views, seed));
        let hom_before = obs::counter_value("containment.hom_nodes");
        let cover_before = obs::counter_value("cover.search_nodes");
        let start = Instant::now();
        let result = CoreCover::new(&w.query, &w.views)
            .with_config(config.corecover.clone())
            .run();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if result.rewritings().is_empty() {
            continue; // "we ignored queries that did not have rewritings"
        }
        accepted += 1;
        total_ms += ms;
        classes += result.stats.view_classes as f64;
        tuples += result.stats.view_tuples as f64;
        reps += result.stats.representative_tuples as f64;
        gmrs += result.stats.rewritings as f64;
        hom_nodes += (obs::counter_value("containment.hom_nodes") - hom_before) as f64;
        set_cover_nodes += (obs::counter_value("cover.search_nodes") - cover_before) as f64;
        complete_runs += (result.stats.completeness == obs::Completeness::Complete) as usize;
    }
    let n = accepted.max(1) as f64;
    SweepPoint {
        views,
        queries: accepted,
        avg_ms: total_ms / n,
        view_classes: classes / n,
        view_tuples: tuples / n,
        representative_tuples: reps / n,
        gmrs: gmrs / n,
        hom_nodes: hom_nodes / n,
        set_cover_nodes: set_cover_nodes / n,
        completeness: complete_runs as f64 / n,
    }
}

/// Formats sweep points as a CSV with a header row.
fn to_csv(points: &[SweepPoint]) -> String {
    let mut out = String::from(
        "views,queries,avg_ms,view_classes,view_tuples,representative_tuples,gmrs,\
         hom_nodes,set_cover_nodes,completeness\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{:.3},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.3}\n",
            p.views,
            p.queries,
            p.avg_ms,
            p.view_classes,
            p.view_tuples,
            p.representative_tuples,
            p.gmrs,
            p.hom_nodes,
            p.set_cover_nodes,
            p.completeness
        ));
    }
    out
}

/// Reproduces Table 2 verbatim.
fn table2() -> Result<String> {
    let q = minimize(&parse_query("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)")?);
    let views = parse_views(
        "v1(A, B) :- a(A, B), a(B, B).\n\
         v2(C, D) :- a(C, E), b(C, D).",
    )?;
    let mut out = String::from("\n── Table 2: tuple-cores for Example 4.1 ──\n");
    out.push_str("view tuple | tuple-core C(tv)\n");
    for t in view_tuples(&q, &views) {
        let core = tuple_core(&q, &t, &views);
        let covered: Vec<String> = core.subgoals().map(|i| q.body[i].to_string()).collect();
        out.push_str(&format!("{:<10} | {}\n", t.to_string(), covered.join(", ")));
    }
    Ok(out)
}

/// Reproduces the Example 6.1 comparison with exact engine-measured sizes.
fn example61() -> Result<String> {
    let q = parse_query("q(A) :- r(A, A), t(A, B), s(B, B)")?;
    let views = parse_views(
        "v1(A, B) :- r(A, A), s(B, B).\n\
         v2(A, B) :- t(A, B), s(B, B).",
    )?;
    let mut base = Database::new();
    base.insert_int("r", &[&[1, 1], &[2, 2], &[4, 4], &[6, 6], &[8, 8]]);
    base.insert_int("s", &[&[2, 2], &[4, 4], &[6, 6], &[8, 8]]);
    base.insert_int("t", &[&[1, 2], &[3, 4], &[5, 6], &[7, 8]]);
    let vdb = materialize_views(&views, &base);
    let p2 = parse_query("q(A) :- v1(A, B), v2(A, B)")?;
    let mut oracle = ExactOracle::new(&vdb);

    let mut out = String::from("\n── Example 6.1 (Figure 5): M3 plan costs ──\n");
    out.push_str("order      | policy        | GSR sizes | cost\n");
    for (order, oname) in [([0usize, 1], "v1,v2"), ([1, 0], "v2,v1")] {
        for (policy, pname) in [
            (DropPolicy::Supplementary, "supplementary"),
            (DropPolicy::SmartCostBased, "renaming §6.2"),
        ] {
            let (_, gsrs, cost) = plan_with_order(&q, &views, &p2, &order, policy, &mut oracle)
                .ok_or("unbudgeted M3 planning always completes")?;
            out.push_str(&format!("{oname:<10} | {pname:<13} | {gsrs:?} | {cost}\n"));
        }
    }
    out.push_str("(the renaming heuristic's cost is the paper's F1; supplementary is F2)\n");
    Ok(out)
}

/// CoreCover vs the Theorem 3.1 naive search vs MiniCon at small view
/// counts (the naive baseline is exponential), as a CSV.
fn baselines(counts: &[usize]) -> String {
    let mut out = String::from("family,views,corecover_ms,naive_ms,minicon_ms\n");
    for family in ["chain", "star"] {
        for &views in counts {
            let mut cc = 0.0;
            let mut nv = 0.0;
            let mut mc = 0.0;
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
                cc += t_cc;
                nv += t_nv;
                mc += t_mc;
                accepted += 1;
                if accepted >= runs {
                    break;
                }
            }
            let n = accepted.max(1) as f64;
            out.push_str(&format!(
                "{family},{views},{:.3},{:.3},{:.3}\n",
                cc / n,
                nv / n,
                mc / n
            ));
        }
    }
    out
}

/// The §5.2 ablation: CoreCover with equivalence-class grouping on vs
/// off (star, all distinguished), as a CSV.
fn grouping_ablation(counts: &[usize], queries_per_point: usize) -> String {
    let mut out = String::from("views,grouped_ms,ungrouped_ms\n");
    for &views in counts {
        let mut grouped = SweepConfig::quick(Family::Star, 0);
        grouped.view_counts = vec![views];
        grouped.queries_per_point = queries_per_point;
        let mut ungrouped = grouped.clone();
        ungrouped.corecover.group_equivalent_views = false;
        ungrouped.corecover.group_view_tuples = false;
        let g = &run_sweep(&grouped)[0];
        let u = &run_sweep(&ungrouped)[0];
        out.push_str(&format!("{views},{:.3},{:.3}\n", g.avg_ms, u.avg_ms));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_points() {
        let mut config = SweepConfig::quick(Family::Chain, 0);
        config.view_counts = vec![50];
        config.queries_per_point = 3;
        let points = run_sweep(&config);
        assert_eq!(points.len(), 1);
        assert!(points[0].queries >= 1);
        assert!(points[0].view_tuples >= points[0].representative_tuples);
        // Chain queries are acyclic, so containment runs through the
        // semijoin fast path and the homomorphism counter can stay 0;
        // the set-cover search still does per-query work.
        assert!(points[0].hom_nodes >= 0.0);
        assert!(points[0].set_cover_nodes > 0.0);
        // No budget installed → every run is complete by definition.
        assert_eq!(points[0].completeness, 1.0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let p = SweepPoint {
            views: 100,
            queries: 40,
            avg_ms: 1.5,
            view_classes: 20.0,
            view_tuples: 30.0,
            representative_tuples: 10.0,
            gmrs: 4.0,
            hom_nodes: 120.0,
            set_cover_nodes: 15.0,
            completeness: 0.75,
        };
        let csv = to_csv(&[p]);
        assert!(csv.contains("100,40,1.500"));
        assert!(csv.lines().nth(1).unwrap().ends_with(",15.0,0.750"));
        // Every writer's line 1 is its header: titles go to stdout only.
        for (csv, header) in [
            (
                csv,
                "views,queries,avg_ms,view_classes,view_tuples,representative_tuples,gmrs,\
                 hom_nodes,set_cover_nodes,completeness",
            ),
            (
                baselines(&[5]),
                "family,views,corecover_ms,naive_ms,minicon_ms",
            ),
            (grouping_ablation(&[20], 1), "views,grouped_ms,ungrouped_ms"),
        ] {
            let mut lines = csv.lines();
            assert_eq!(lines.next(), Some(header));
            let columns = header.split(',').count();
            assert!(lines.all(|row| row.split(',').count() == columns), "{csv}");
        }
    }
}
