//! Set-cover enumeration over subgoal bitmasks.
//!
//! Step (4) of `CoreCover` (Figure 4) models "use the minimum number of
//! view tuples to cover all query subgoals" as classic set covering \[8\].
//! The universe is the set of subgoals of the minimized query (≤ 64,
//! bitmask-encoded); the sets are the nonempty tuple-cores. Two
//! enumerations are provided:
//!
//! * [`all_minimum_covers`] — every cover of minimum cardinality: each is
//!   a globally-minimal rewriting (Corollary 4.1).
//! * [`all_irredundant_covers`] — every cover from which no member can be
//!   dropped: the `CoreCover*` space of §5, whose rewritings are the
//!   minimal rewritings using view tuples (Theorem 5.1 guarantees this
//!   space contains an M2-optimal rewriting).
//!
//! # How the two searches walk
//!
//! **Minimum covers** are found by iterative deepening on the cover
//! size, from the lower bound ⌈|universe| ÷ widest set⌉ up: the first
//! size that admits a cover is the minimum, and that round meets every
//! cover of that size. Inside a round the search branches on the
//! *hardest open subgoal* — the uncovered subgoal the fewest sets still
//! allowed contain — over the sets containing it, in index order, and
//! bans each set it has tried for the later siblings, so every cover is
//! met exactly once (in the branch of its lowest-index set containing
//! the subgoal). A node is cut when an open subgoal has no set left, or
//! when the open subgoals outnumber what the remaining picks could cover
//! at best. The covers of the successful round are sorted into
//! increasing-index order, which is the order callers turn into
//! rewritings.
//!
//! **Under a budget** the minimum search returns the minimum covers met
//! so far in the round it was cut in — possibly none, never a larger one
//! — and says `truncated`. (Its predecessor walked subsets in index
//! order and learnt the minimum as it went, so a cut could leave it
//! holding a cover that was not minimum; on the benchmark's query pool
//! it also visited forty times the nodes, so it was cut far more often.)
//!
//! **Irredundant covers** are enumerated as subsets in increasing index
//! order, each cover produced exactly once: `limit` means "the first N
//! in that order", which a search that branches on subgoals cannot
//! offer. A node keeps two masks, the subgoals its sets cover once or
//! more (`once`) and twice or more (`twice`). A set is added only when
//! it covers something new, and a prefix is cut with its whole subtree
//! as soon as some member covers nothing outside `twice`: adding sets
//! never gives a member back a subgoal of its own, so every cover below
//! would be redundant. Every cover the search reaches is therefore
//! irredundant as it stands. A node is also cut when the sets after it
//! (a suffix-union table) cannot complete the cover. Neither cut drops a
//! cover or changes the order, so a `limit` or budget cut keeps a prefix
//! of the full list — a longer one than the uncut search reached on the
//! same budget. The cover list is what `CoreCover*` hands on unbuilt
//! ([`crate::CoreCoverResult::walk`]).

use viewplan_obs as obs;

// Single registration site per counter name (the xtask lint enforces
// this): both searches funnel through these helpers.
fn note_search_node() {
    obs::counter!("cover.search_nodes").incr();
}

fn note_pruned() {
    obs::counter!("cover.pruned").incr();
}

fn note_truncated() {
    obs::counter!("cover.truncated").incr();
}

/// Every minimum-cardinality cover of `universe` using `sets`, as sorted
/// index vectors in increasing order. Empty result iff `universe` cannot
/// be covered.
pub fn all_minimum_covers(universe: u64, sets: &[u64]) -> Vec<Vec<usize>> {
    all_minimum_covers_counted(universe, sets).covers
}

/// [`all_minimum_covers`] plus an explicit truncation flag for searches
/// cut short by the ambient budget. A truncated enumeration contains
/// only genuine *minimum* covers — each one a globally-minimal rewriting
/// — but may miss others, or hold none at all (module docs, "Under a
/// budget").
pub fn all_minimum_covers_counted(universe: u64, sets: &[u64]) -> CoverEnumeration {
    if universe == 0 {
        return CoverEnumeration {
            covers: vec![Vec::new()],
            truncated: false,
        };
    }
    // Quick feasibility check.
    if sets.iter().fold(0u64, |a, &s| a | s) & universe != universe {
        return CoverEnumeration {
            covers: Vec::new(),
            truncated: false,
        };
    }
    let mut containing: Vec<Vec<usize>> = vec![Vec::new(); 64];
    for (i, &set) in sets.iter().enumerate() {
        for g in bits(set & universe) {
            containing[g].push(i);
        }
    }
    let widest = sets
        .iter()
        .map(|&s| (s & universe).count_ones())
        .max()
        .unwrap_or(1);
    let mut search = MinimumSearch {
        universe,
        sets,
        containing: &containing,
        widest,
        banned: vec![false; sets.len()],
        tried: Vec::new(),
        chosen: Vec::new(),
        covers: Vec::new(),
        meter: obs::Meter::start(obs::Phase::Cover),
    };
    // The universe is coverable, so some size up to |universe| succeeds.
    let mut size = universe.count_ones().div_ceil(widest);
    while search.covers.is_empty() && !search.meter.exhausted() {
        search.descend(0, size);
        size += 1;
    }
    let truncated = search.meter.exhausted();
    if truncated {
        note_truncated();
    }
    let mut covers = search.covers;
    for cover in &mut covers {
        cover.sort_unstable();
    }
    covers.sort_unstable();
    CoverEnumeration { covers, truncated }
}

/// The set bits of `mask`, ascending.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// One round of the minimum-cover search (module docs).
struct MinimumSearch<'a> {
    universe: u64,
    sets: &'a [u64],
    /// For each subgoal, the sets containing it, in index order.
    containing: &'a [Vec<usize>],
    /// Most subgoals any one set covers.
    widest: u32,
    /// Sets an earlier sibling already tried, here or at an ancestor.
    banned: Vec<bool>,
    /// The banned sets, in the order they were banned (a node takes its
    /// own back on the way out).
    tried: Vec<usize>,
    chosen: Vec<usize>,
    covers: Vec<Vec<usize>>,
    meter: obs::Meter,
}

impl MinimumSearch<'_> {
    /// Extends `chosen`, which covers `covered`, by up to `picks` sets.
    fn descend(&mut self, covered: u64, picks: u32) {
        if !self.meter.tick() {
            return;
        }
        note_search_node();
        let open = self.universe & !covered;
        if open == 0 {
            self.covers.push(self.chosen.clone());
            return;
        }
        if open.count_ones() > picks * self.widest {
            note_pruned();
            return;
        }
        // The hardest open subgoal: fewest sets still allowed, lowest
        // index on ties.
        let containing = self.containing;
        let mut hardest = (usize::MAX, 0);
        for g in bits(open) {
            let allowed = containing[g].iter().filter(|&&s| !self.banned[s]).count();
            if allowed < hardest.0 {
                hardest = (allowed, g);
            }
        }
        if hardest.0 == 0 {
            note_pruned();
            return;
        }
        let mark = self.tried.len();
        for &s in &containing[hardest.1] {
            if self.banned[s] {
                continue;
            }
            self.chosen.push(s);
            self.descend(covered | self.sets[s], picks - 1);
            self.chosen.pop();
            if self.meter.exhausted() {
                break;
            }
            self.banned[s] = true;
            self.tried.push(s);
        }
        for s in self.tried.drain(mark..) {
            self.banned[s] = false;
        }
    }
}

/// The result of a capped cover enumeration: the covers found plus
/// whether the `limit` actually cut the search short ("no silent caps" —
/// a truncated enumeration must be reported, not swallowed).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CoverEnumeration {
    /// The covers found, in increasing-index subset order.
    pub covers: Vec<Vec<usize>>,
    /// True iff the search was abandoned because `limit` was reached
    /// while unexplored branches remained.
    pub truncated: bool,
}

/// Every irredundant cover: a cover where each member covers at least one
/// subgoal no other member covers. Produced in increasing-index subset
/// order; `limit` caps the number of covers returned (the count can grow
/// combinatorially — the paper's §5.2 concise representation exists for a
/// reason). Prefer [`all_irredundant_covers_counted`] when the caller
/// needs to know whether the cap truncated the enumeration.
pub fn all_irredundant_covers(universe: u64, sets: &[u64], limit: usize) -> Vec<Vec<usize>> {
    all_irredundant_covers_counted(universe, sets, limit).covers
}

/// [`all_irredundant_covers`] plus an explicit truncation flag; bumps the
/// `cover.truncated` counter when the limit cut the search short.
pub fn all_irredundant_covers_counted(
    universe: u64,
    sets: &[u64],
    limit: usize,
) -> CoverEnumeration {
    if universe == 0 {
        return CoverEnumeration {
            covers: vec![Vec::new()],
            truncated: false,
        };
    }
    if sets.iter().fold(0u64, |a, &s| a | s) & universe != universe {
        return CoverEnumeration {
            covers: Vec::new(),
            truncated: false,
        };
    }
    let sets: Vec<u64> = sets.iter().map(|&s| s & universe).collect();
    let mut suffix = vec![0u64; sets.len() + 1];
    for i in (0..sets.len()).rev() {
        suffix[i] = suffix[i + 1] | sets[i];
    }
    let mut search = IrredundantSearch {
        universe,
        sets: &sets,
        suffix: &suffix,
        limit,
        chosen: Vec::new(),
        covers: Vec::new(),
        truncated: false,
        meter: obs::Meter::start(obs::Phase::Cover),
    };
    search.descend(0, 0, 0);
    let truncated = search.truncated || search.meter.exhausted();
    if truncated {
        note_truncated();
    }
    CoverEnumeration {
        covers: search.covers,
        truncated,
    }
}

/// The irredundant-cover search (module docs).
struct IrredundantSearch<'a> {
    universe: u64,
    /// The sets, restricted to the universe.
    sets: &'a [u64],
    /// `suffix[i]` is the union of `sets[i..]`.
    suffix: &'a [u64],
    limit: usize,
    chosen: Vec<usize>,
    covers: Vec<Vec<usize>>,
    truncated: bool,
    meter: obs::Meter,
}

impl IrredundantSearch<'_> {
    /// Extends `chosen` with sets from `start` on. `once` is what the
    /// chosen sets cover, `twice` what two or more of them cover; every
    /// chosen set still covers a subgoal outside `twice`.
    fn descend(&mut self, start: usize, once: u64, twice: u64) {
        if !self.meter.tick() {
            return;
        }
        note_search_node();
        if self.covers.len() >= self.limit {
            // The search still had branches to explore — record, don't hide.
            self.truncated = true;
            return;
        }
        if once == self.universe {
            self.covers.push(self.chosen.clone());
            return;
        }
        if once | self.suffix[start] != self.universe {
            note_pruned();
            return;
        }
        for i in start..self.sets.len() {
            let set = self.sets[i];
            if set & !once == 0 {
                continue; // adding a no-progress set can never stay irredundant
            }
            // Adding sets only moves subgoals from `once` into `twice`, so
            // a member left with no subgoal of its own never gets one back.
            let twice = twice | (once & set);
            if self.chosen.iter().any(|&m| self.sets[m] & !twice == 0) {
                note_pruned();
                continue;
            }
            self.chosen.push(i);
            self.descend(i + 1, once | set, twice);
            self.chosen.pop();
            if self.meter.exhausted() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_covering_set_wins() {
        // Universe {0,1,2}; sets: {0,1}, {2}, {0,1,2}.
        let covers = all_minimum_covers(0b111, &[0b011, 0b100, 0b111]);
        assert_eq!(covers, vec![vec![2]]);
    }

    #[test]
    fn enumerates_all_ties() {
        // Two ways to cover with 2 sets.
        let covers = all_minimum_covers(0b111, &[0b011, 0b100, 0b110, 0b001]);
        assert_eq!(covers, vec![vec![0, 1], vec![0, 2], vec![2, 3]]);
    }

    #[test]
    fn infeasible_universe_gives_no_covers() {
        assert!(all_minimum_covers(0b111, &[0b011]).is_empty());
        assert!(all_irredundant_covers(0b111, &[0b011], 100).is_empty());
    }

    #[test]
    fn empty_universe_has_the_empty_cover() {
        assert_eq!(all_minimum_covers(0, &[0b1]), vec![Vec::<usize>::new()]);
    }

    #[test]
    fn irredundant_covers_include_non_minimum_ones() {
        // {0,1} + {1,2} is irredundant (each has a unique element) even
        // though {0,1,2} covers alone.
        let sets = [0b011, 0b110, 0b111];
        let irr = all_irredundant_covers(0b111, &sets, 100);
        assert!(irr.contains(&vec![0, 1]));
        assert!(irr.contains(&vec![2]));
        // {0,1,2} all together is redundant.
        assert!(!irr.contains(&vec![0, 1, 2]));
        let min = all_minimum_covers(0b111, &sets);
        assert_eq!(min, vec![vec![2]]);
    }

    #[test]
    fn overlapping_cores_are_allowed_in_minimum_covers() {
        // §4.3: tuple-cores of a rewriting may overlap.
        let covers = all_minimum_covers(0b11, &[0b11, 0b10, 0b01]);
        assert_eq!(covers, vec![vec![0]]);
        let covers2 = all_minimum_covers(0b111, &[0b110, 0b011]);
        assert_eq!(covers2, vec![vec![0, 1]]); // share subgoal 1
    }

    #[test]
    fn limit_caps_irredundant_enumeration() {
        let sets = [0b001, 0b010, 0b100, 0b011, 0b110, 0b101];
        let all = all_irredundant_covers(0b111, &sets, usize::MAX);
        assert!(all.len() > 3);
        let capped = all_irredundant_covers(0b111, &sets, 2);
        assert_eq!(capped.len(), 2);
    }

    #[test]
    fn truncation_is_reported_not_silent() {
        let sets = [0b001, 0b010, 0b100, 0b011, 0b110, 0b101];
        let capped = all_irredundant_covers_counted(0b111, &sets, 2);
        assert_eq!(capped.covers.len(), 2);
        assert!(capped.truncated, "hitting the cap must set the flag");
        let full = all_irredundant_covers_counted(0b111, &sets, usize::MAX);
        assert!(!full.truncated, "an exhaustive run must not set the flag");
        // Degenerate inputs never truncate.
        assert!(!all_irredundant_covers_counted(0, &sets, 1).truncated);
        assert!(!all_irredundant_covers_counted(0b1000, &sets, 1).truncated);
    }

    #[test]
    fn budget_truncation_is_reported_and_partial_covers_are_real() {
        let sets = [0b001, 0b010, 0b100, 0b011, 0b110, 0b101];
        let full = all_minimum_covers_counted(0b111, &sets);
        assert!(!full.truncated);
        let budgeted = {
            let _g = obs::budget::install(
                obs::budget::BudgetSpec::new().phase_nodes(obs::Phase::Cover, 6),
            );
            all_minimum_covers_counted(0b111, &sets)
        };
        assert!(budgeted.truncated, "a 6-node cap must truncate this search");
        // Whatever was found is a minimum cover from the full result set.
        assert!(!budgeted.covers.is_empty(), "the cap falls after a cover");
        for cover in &budgeted.covers {
            assert!(
                full.covers.contains(cover),
                "{cover:?} is not a minimum cover"
            );
        }
        // And the budgeted run is deterministic.
        let again = {
            let _g = obs::budget::install(
                obs::budget::BudgetSpec::new().phase_nodes(obs::Phase::Cover, 6),
            );
            all_minimum_covers_counted(0b111, &sets)
        };
        assert_eq!(budgeted, again);
    }

    #[test]
    fn a_cut_search_never_returns_a_larger_cover() {
        // Minimum is two ({0,1,2} + {3,4,5}); singletons come first in
        // index order, so a search that learnt the minimum on the way
        // met six-set covers first. At every cap the result is a subset
        // of the minimum covers — empty while the cap falls in the
        // round for size one.
        let sets = [
            0b1, 0b10, 0b100, 0b1000, 0b1_0000, 0b10_0000, 0b111, 0b11_1000,
        ];
        let full = all_minimum_covers_counted(0b11_1111, &sets);
        assert_eq!(full.covers, vec![vec![6, 7]]);
        for cap in 0..12 {
            let _g = obs::budget::install(
                obs::budget::BudgetSpec::new().phase_nodes(obs::Phase::Cover, cap),
            );
            let cut = all_minimum_covers_counted(0b11_1111, &sets);
            assert!(
                cut.covers.iter().all(|c| full.covers.contains(c)),
                "cap {cap}"
            );
            assert_eq!(cut.truncated, cut != full, "cap {cap}");
        }
    }

    #[test]
    fn covers_come_out_in_index_order_whatever_subgoal_was_branched_on() {
        // Subgoal 2 is the hardest (one set), so the search branches on
        // it first and meets {1, 3} before {0, 3}; the list is sorted.
        let covers = all_minimum_covers(0b111, &[0b011, 0b011, 0b001, 0b100]);
        assert_eq!(covers, vec![vec![0, 3], vec![1, 3]]);
    }

    #[test]
    fn duplicate_sets_yield_distinct_covers() {
        // Two identical sets are different view tuples; both minimum
        // covers are reported (the §5.2 equivalence classes collapse them
        // upstream when grouping is on).
        let covers = all_minimum_covers(0b1, &[0b1, 0b1]);
        assert_eq!(covers, vec![vec![0], vec![1]]);
    }
}
