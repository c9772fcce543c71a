//! The irredundant-cover search against the enumerator it replaced,
//! which lives on below as the reference: subsets in increasing index
//! order, a full irredundancy test at every leaf and the remaining sets
//! folded afresh at every node. The search cuts a prefix as soon as a
//! member has no subgoal of its own and reads the remaining sets from a
//! table; it must return the same covers in the same order.
//!
//! The set families are the tuple-cores of `tests/common`'s small
//! problems — class representatives, and every view tuple with grouping
//! off — plus the classic pairs and triples of a three-subgoal query.

mod common;

use common::small_problem;
use viewplan::core::{all_irredundant_covers_counted, CoreCover, CoreCoverConfig};
use viewplan::obs::{self, BudgetSpec, Meter, Phase};

/// The replaced enumerator, as it stood but for its counters.
mod reference {
    use super::*;

    pub fn all_irredundant_covers(
        universe: u64,
        sets: &[u64],
        limit: usize,
    ) -> (Vec<Vec<usize>>, bool) {
        if universe == 0 {
            return (vec![Vec::new()], false);
        }
        if sets.iter().fold(0u64, |a, &s| a | s) & universe != universe {
            return (Vec::new(), false);
        }
        let mut covers: Vec<Vec<usize>> = Vec::new();
        let mut chosen: Vec<usize> = Vec::new();
        let mut truncated = false;
        let mut meter = Meter::start(Phase::Cover);
        dfs(
            universe,
            sets,
            0,
            0,
            &mut chosen,
            limit,
            &mut covers,
            &mut truncated,
            &mut meter,
        );
        truncated |= meter.exhausted();
        (covers, truncated)
    }

    #[allow(clippy::too_many_arguments)] // the old signature, kept as it was
    fn dfs(
        universe: u64,
        sets: &[u64],
        start: usize,
        covered: u64,
        chosen: &mut Vec<usize>,
        limit: usize,
        covers: &mut Vec<Vec<usize>>,
        truncated: &mut bool,
        meter: &mut Meter,
    ) {
        if !meter.tick() {
            return;
        }
        if covers.len() >= limit {
            *truncated = true;
            return;
        }
        if covered & universe == universe {
            let masks: Vec<u64> = chosen.iter().map(|&i| sets[i] & universe).collect();
            let irredundant = masks.iter().enumerate().all(|(k, &m)| {
                let others: u64 = masks
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != k)
                    .fold(0u64, |a, (_, &x)| a | x);
                m & !others != 0
            });
            if irredundant {
                covers.push(chosen.clone());
            }
            return;
        }
        let rest: u64 = sets[start..].iter().fold(0u64, |a, &s| a | s);
        if (covered | rest) & universe != universe {
            return;
        }
        for i in start..sets.len() {
            if sets[i] & universe & !covered == 0 {
                continue;
            }
            chosen.push(i);
            dfs(
                universe,
                sets,
                i + 1,
                covered | sets[i],
                chosen,
                limit,
                covers,
                truncated,
                meter,
            );
            chosen.pop();
            if meter.exhausted() {
                return;
            }
        }
    }
}

/// The universe and tuple-core masks of one small problem, with and
/// without §5.2 tuple grouping.
fn families(seed: u64) -> Vec<(u64, Vec<u64>)> {
    let w = small_problem(seed);
    [true, false]
        .into_iter()
        .map(|grouping| {
            let config = CoreCoverConfig {
                group_equivalent_views: grouping,
                group_view_tuples: grouping,
                ..CoreCoverConfig::default()
            };
            let result = CoreCover::new(&w.query, &w.views).with_config(config).run();
            let universe = u64::MAX >> (64 - result.minimized_query.body.len());
            let masks = result
                .tuple_classes
                .iter()
                .flat_map(|class| if grouping { &class[..1] } else { &class[..] })
                .map(|&t| result.cores[t].bitmask())
                .filter(|&m| m != 0)
                .collect();
            (universe, masks)
        })
        .chain([(0b111, vec![0b001, 0b010, 0b100, 0b011, 0b110, 0b101, 0b111])])
        .collect()
}

/// Same covers, same order, at every cap: no cap, caps inside the list,
/// and the cap equal to its length (where the reference, which visits
/// more nodes after the last cover, may call the run truncated and the
/// search need not).
#[test]
fn the_search_returns_the_reference_covers_at_every_limit() {
    let mut nonempty = 0;
    for seed in 0..400 {
        for (universe, sets) in families(seed) {
            let (all, truncated) = reference::all_irredundant_covers(universe, &sets, usize::MAX);
            assert!(!truncated);
            let n = all.len();
            nonempty += usize::from(n > 1);
            for limit in [usize::MAX, 0, 1, 2, n / 2, n.saturating_sub(1), n, n + 1] {
                let (old, old_truncated) =
                    reference::all_irredundant_covers(universe, &sets, limit);
                let new = all_irredundant_covers_counted(universe, &sets, limit);
                let context =
                    format!("seed {seed} universe {universe:b} sets {sets:?} limit {limit}");
                assert_eq!(new.covers, old, "{context}");
                if limit == n {
                    assert!(!new.truncated || old_truncated, "{context}");
                } else {
                    assert_eq!(new.truncated, old_truncated, "{context}");
                }
            }
        }
    }
    assert!(nonempty > 100, "{nonempty} families with several covers");
}

/// Under a cover-node cap the search keeps a prefix of the full list,
/// at least as long as the reference's on the same cap: it visits a
/// subset of the reference's nodes, in the same order.
#[test]
fn under_a_node_cap_the_search_keeps_a_longer_prefix() {
    let capped = |cap: u64, run: &dyn Fn() -> Vec<Vec<usize>>| {
        let _g = obs::budget::install(BudgetSpec::new().phase_nodes(Phase::Cover, cap));
        run()
    };
    let mut longer = 0;
    for seed in 0..200 {
        for (universe, sets) in families(seed) {
            let full = all_irredundant_covers_counted(universe, &sets, usize::MAX).covers;
            for cap in [1, 2, 3, 5, 8, 13, 21] {
                let old = capped(cap, &|| {
                    reference::all_irredundant_covers(universe, &sets, usize::MAX).0
                });
                let new = capped(cap, &|| {
                    all_irredundant_covers_counted(universe, &sets, usize::MAX).covers
                });
                let context = format!("seed {seed} sets {sets:?} cap {cap}");
                assert!(new.starts_with(&old), "{context}: {new:?} after {old:?}");
                assert!(full.starts_with(&new), "{context}: {new:?} in {full:?}");
                longer += usize::from(new.len() > old.len());
            }
        }
    }
    assert!(longer > 0, "the cut never let a capped search get further");
}
