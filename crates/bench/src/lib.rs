//! The experiment harness: the sweep machinery behind the `figures`
//! binary (which regenerates every figure of §7 as CSV), plus the
//! closed-loop [`loadgen`] client the CLI and the CI chaos job drive.
//! Timing the program is `benchmark/`'s job, not this crate's.
//!
//! A *sweep* fixes a workload family (star/chain, number of
//! nondistinguished variables) and, for each view count, generates
//! `queries_per_point` workloads, discards those without rewritings (as
//! the paper does), runs `CoreCover` to all GMRs, and averages the
//! quantities Figures 6–9 plot.

use std::time::Instant;
use viewplan_core::{parallel_map, CoreCover, CoreCoverConfig};
use viewplan_obs as obs;
use viewplan_workload::{generate, WorkloadConfig};

pub mod loadgen;

/// Which §7 workload family a sweep runs.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// Star queries (§7.1).
    Star,
    /// Chain queries (§7.2).
    Chain,
    /// Random queries (mentioned alongside \[23\]).
    Random,
}

/// One averaged data point of a sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Number of views at this point.
    pub views: usize,
    /// Queries that actually had rewritings (the denominator).
    pub queries: usize,
    /// Average wall-clock time of `CoreCover::run`, in milliseconds
    /// (includes view/tuple grouping, as in the paper).
    pub avg_ms: f64,
    /// Average number of view equivalence classes (Figures 7a / 9a).
    pub view_classes: f64,
    /// Average number of view tuples (Figures 7b / 9b, upper series).
    pub view_tuples: f64,
    /// Average number of representative view tuples (lower series).
    pub representative_tuples: f64,
    /// Average number of GMRs found.
    pub gmrs: f64,
    /// Average homomorphism search nodes per run (from the
    /// `containment.hom_nodes` counter) — the work metric behind the
    /// wall-clock series.
    pub hom_nodes: f64,
    /// Average set-cover search nodes per run (from the
    /// `cover.search_nodes` counter).
    pub set_cover_nodes: f64,
    /// Worker threads the harness used for this point (1 = serial).
    pub threads: usize,
    /// Fraction of accepted runs that reported
    /// [`viewplan_obs::Completeness::Complete`] (1.0 whenever no budget
    /// is installed; lower values mean some runs returned best-so-far
    /// results under an exhausted budget).
    pub completeness: f64,
}

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Workload family.
    pub family: Family,
    /// Number of nondistinguished variables (0 = all distinguished).
    pub nondistinguished: usize,
    /// View counts to measure (the paper: 100, 200, …, 1000).
    pub view_counts: Vec<usize>,
    /// Queries averaged per point (the paper: 40).
    pub queries_per_point: usize,
    /// Base RNG seed.
    pub base_seed: u64,
    /// CoreCover configuration (grouping on by default; the ablation
    /// series turns it off).
    pub corecover: CoreCoverConfig,
    /// Worker threads for the harness itself: query instances of a point
    /// run concurrently. The accepted query set, per-query stats, and GMR
    /// counts are identical for any value (attempts are processed in
    /// order); only wall-clock changes. Each CoreCover run is one thread.
    pub threads: usize,
}

impl SweepConfig {
    /// The paper's settings for one family: 40 queries per point over
    /// 100..=1000 views.
    pub fn paper(family: Family, nondistinguished: usize) -> SweepConfig {
        SweepConfig {
            family,
            nondistinguished,
            view_counts: (1..=10).map(|k| k * 100).collect(),
            queries_per_point: 40,
            base_seed: 20010521, // SIGMOD 2001, May 21
            corecover: CoreCoverConfig::default(),
            threads: 1,
        }
    }

    /// A scaled-down variant for quick runs.
    pub fn quick(family: Family, nondistinguished: usize) -> SweepConfig {
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
pub fn run_sweep(config: &SweepConfig) -> Vec<SweepPoint> {
    config
        .view_counts
        .iter()
        .map(|&views| run_point(config, views))
        .collect()
}

/// What one generated workload produced, before the accept/skip decision.
struct AttemptOutcome {
    ms: f64,
    empty: bool,
    view_classes: f64,
    view_tuples: f64,
    representative_tuples: f64,
    gmrs: f64,
    /// Per-run counter deltas; only meaningful on serial runs (the
    /// counters are process-global, so concurrent runs interleave).
    hom_delta: f64,
    cover_delta: f64,
    /// Whether the run covered its whole search space (no budget fired).
    complete: bool,
}

fn run_attempt(config: &SweepConfig, views: usize, attempt: usize, serial: bool) -> AttemptOutcome {
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
    let (hom_delta, cover_delta) = if serial {
        (
            (obs::counter_value("containment.hom_nodes") - hom_before) as f64,
            (obs::counter_value("cover.search_nodes") - cover_before) as f64,
        )
    } else {
        (0.0, 0.0)
    };
    AttemptOutcome {
        ms,
        empty: result.rewritings().is_empty(),
        view_classes: result.stats.view_classes as f64,
        view_tuples: result.stats.view_tuples as f64,
        representative_tuples: result.stats.representative_tuples as f64,
        gmrs: result.stats.rewritings as f64,
        hom_delta,
        cover_delta,
        complete: result.stats.completeness == obs::Completeness::Complete,
    }
}

/// Runs one data point: `queries_per_point` accepted queries (skipping
/// rewriting-less ones, bounded retries), averaged.
///
/// With `config.threads > 1`, attempts are evaluated in in-order chunks
/// across the workers and the accept/skip scan stays in attempt order,
/// so the accepted query set and every averaged quantity except
/// wall-clock (`avg_ms`) and the work counters match the serial run
/// exactly. The `hom_nodes` / `set_cover_nodes` columns are per-run
/// deltas when serial; under concurrency the process-global counters
/// interleave, so they become point-level averages that include the work
/// of skipped attempts.
pub fn run_point(config: &SweepConfig, views: usize) -> SweepPoint {
    // Collect counters for the whole sweep; the registry is process-global,
    // so work metrics are read as before/after deltas rather than by
    // resetting (counter bumps are relaxed atomics — cheap enough to leave
    // on while timing).
    obs::set_enabled(true);
    let threads = config.threads.max(1);
    let serial = threads == 1;
    let max_attempts = config.queries_per_point * 5;
    let mut accepted = 0usize;
    let mut total_ms = 0.0;
    let mut classes = 0.0;
    let mut tuples = 0.0;
    let mut reps = 0.0;
    let mut gmrs = 0.0;
    let mut hom_nodes = 0.0;
    let mut set_cover_nodes = 0.0;
    let mut complete_runs = 0usize;
    let hom_point_before = obs::counter_value("containment.hom_nodes");
    let cover_point_before = obs::counter_value("cover.search_nodes");
    // Each chunk is exactly the remaining quota: the serial loop always
    // evaluates at least that many more attempts (an attempt accepts at
    // most one query), and a chunk can only fill the quota at its very
    // end (that needs every attempt accepted) — so the parallel run
    // evaluates *exactly* the attempt set the serial run would, with no
    // speculative waste, and the in-order scan below keeps the accepted
    // set identical.
    let mut next_attempt = 0usize;
    while accepted < config.queries_per_point && next_attempt < max_attempts {
        let chunk = config.queries_per_point - accepted;
        let ids: Vec<usize> = (next_attempt..(next_attempt + chunk).min(max_attempts)).collect();
        next_attempt = *ids.last().unwrap() + 1;
        let outcomes = parallel_map(threads, &ids, |&a| run_attempt(config, views, a, serial));
        for o in outcomes {
            if accepted >= config.queries_per_point {
                break;
            }
            if o.empty {
                continue; // "we ignored queries that did not have rewritings"
            }
            accepted += 1;
            total_ms += o.ms;
            classes += o.view_classes;
            tuples += o.view_tuples;
            reps += o.representative_tuples;
            gmrs += o.gmrs;
            hom_nodes += o.hom_delta;
            set_cover_nodes += o.cover_delta;
            complete_runs += o.complete as usize;
        }
    }
    let n = accepted.max(1) as f64;
    if !serial {
        // Point-level attribution (see the doc comment).
        hom_nodes = (obs::counter_value("containment.hom_nodes") - hom_point_before) as f64;
        set_cover_nodes = (obs::counter_value("cover.search_nodes") - cover_point_before) as f64;
    }
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
        threads,
        completeness: complete_runs as f64 / n,
    }
}

/// Formats sweep points as a CSV with a header row.
pub fn to_csv(points: &[SweepPoint]) -> String {
    let mut out = String::from(
        "views,queries,avg_ms,view_classes,view_tuples,representative_tuples,gmrs,\
         hom_nodes,set_cover_nodes,threads,completeness\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{:.3},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{},{:.3}\n",
            p.views,
            p.queries,
            p.avg_ms,
            p.view_classes,
            p.view_tuples,
            p.representative_tuples,
            p.gmrs,
            p.hom_nodes,
            p.set_cover_nodes,
            p.threads,
            p.completeness
        ));
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
            threads: 8,
            completeness: 0.75,
        };
        let csv = to_csv(&[p]);
        assert!(csv.starts_with("views,"));
        assert!(csv.lines().next().unwrap().ends_with(",completeness"));
        assert!(csv.contains("100,40,1.500"));
        assert!(csv.lines().nth(1).unwrap().ends_with(",8,0.750"));
    }

    /// The tentpole guarantee at the harness level: a parallel sweep
    /// accepts the same queries and averages the same per-query stats as
    /// a serial one (wall-clock and work-counter columns excepted).
    #[test]
    fn parallel_sweep_matches_serial_stats() {
        let mut config = SweepConfig::quick(Family::Star, 1);
        config.view_counts = vec![60];
        config.queries_per_point = 4;
        config.threads = 1;
        let serial = run_sweep(&config);
        for threads in [2, 8] {
            config.threads = threads;
            let par = run_sweep(&config);
            assert_eq!(par.len(), serial.len());
            for (p, s) in par.iter().zip(&serial) {
                assert_eq!(p.queries, s.queries, "threads = {threads}");
                assert_eq!(p.view_classes, s.view_classes);
                assert_eq!(p.view_tuples, s.view_tuples);
                assert_eq!(p.representative_tuples, s.representative_tuples);
                assert_eq!(p.gmrs, s.gmrs);
                assert_eq!(p.threads, threads);
            }
        }
    }
}
