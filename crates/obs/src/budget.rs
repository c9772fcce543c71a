//! Cooperative budgets: deadlines, per-phase node caps, fault injection.
//!
//! Every hot loop in the rewriting pipeline — homomorphism search,
//! cover enumeration, M2/M3 plan search — is worst-case exponential. A
//! service cannot hang on an adversarial query; it must return the best
//! answer found within a budget, labeled as such. This module provides
//! the mechanism:
//!
//! * [`BudgetSpec`] — what a budget allows: an optional wall-clock
//!   timeout, per-phase **per-search** node caps and an injected fault.
//! * [`install`] — starts the deadline and makes the budget the `budget`
//!   part of the thread's [request context](crate::ctx) until the guard
//!   drops. The CLI installs one around a command, the server one per
//!   request. The budget is a plain value in that context, and what the
//!   searches under it used is read back through [`snapshot`],
//!   [`completeness_since`], [`abandoned`], [`cancelled`] and [`active`].
//! * [`Meter`] — the per-search countdown ticked at backtrack points.
//!   One `Meter` is created per search (per homomorphism check, per
//!   cover enumeration, per plan search); each `tick()` is a decrement
//!   and compare, with the wall clock polled only every
//!   [`DEADLINE_CHECK_INTERVAL`] ticks.
//! * [`Completeness`] — the three-valued honesty marker threaded through
//!   results: `Complete`, `Truncated` (a count cap or node cap fired),
//!   `DeadlineExceeded` (the wall clock fired; takes precedence).
//! * [`Fault`] — deterministic fault injection
//!   (`VIEWPLAN_FAULT=phase:nth`) forcing budget exhaustion at the nth
//!   search of a chosen phase, so degradation paths are testable without
//!   real slowness.
//!
//! **Determinism.** Node caps are per-search, not global: every
//! individual search truncates at the same node whatever ran before it,
//! so node-budgeted results are reproducible. Deadlines are wall-clock
//! state and therefore nondeterministic; results under `--timeout-ms`
//! are labeled as such.
//!
//! **Soundness of degradation.** A truncated homomorphism search can
//! only *miss* homomorphisms, never fabricate one. Downstream this
//! always errs in the safe direction: minimization keeps subgoals it
//! could not prove redundant (result stays equivalent), view equivalence
//! classes split rather than merge, tuple-cores are underestimated
//! (subsets of the true core still yield valid covers), and rewriting
//! verification drops candidates it cannot confirm instead of asserting.
//!
//! Exhaustion events are counted in the installed budget (always) and in
//! the obs counter registry (`budget.deadline_hits`,
//! `budget.node_budget_hits`, `budget.abandoned.{hom,cover,plan}`) when
//! stats collection is on.

use crate::ctx::{self, CtxGuard, Part};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// How many `Meter::tick`s pass between deadline polls.
/// Node caps are still exact; only deadline detection is amortized.
pub const DEADLINE_CHECK_INTERVAL: u64 = 128;

/// The metered pipeline phases. Used to index per-phase node caps and
/// abandoned-search counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Homomorphism / containment search nodes.
    Hom,
    /// Set-cover enumeration and MiniCon combination nodes.
    Cover,
    /// Plan search nodes (M2 subset DP, M3 permutations/descent).
    Plan,
}

impl Phase {
    fn idx(self) -> usize {
        self as usize
    }

    /// The phase's short name, as used in counters and `VIEWPLAN_FAULT`.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Hom => "hom",
            Phase::Cover => "cover",
            Phase::Plan => "plan",
        }
    }
}

/// How complete a result is. `Complete` means no budget event truncated
/// any search that fed the result; `Truncated` means a node cap or count
/// cap fired; `DeadlineExceeded` means the wall clock fired (and takes
/// precedence over `Truncated` when both happened).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Completeness {
    /// Every search ran to completion.
    #[default]
    Complete,
    /// A node or count cap fired; the result is a deterministic subset.
    Truncated,
    /// The wall-clock deadline fired; the result is best-so-far and
    /// nondeterministic.
    DeadlineExceeded,
}

impl Completeness {
    /// True unless the marker is [`Completeness::Complete`].
    pub fn is_incomplete(self) -> bool {
        self != Completeness::Complete
    }

    /// Combines two markers, keeping the more severe
    /// (`DeadlineExceeded` > `Truncated` > `Complete`).
    pub fn worst(self, other: Completeness) -> Completeness {
        use Completeness::*;
        match (self, other) {
            (DeadlineExceeded, _) | (_, DeadlineExceeded) => DeadlineExceeded,
            (Truncated, _) | (_, Truncated) => Truncated,
            (Complete, Complete) => Complete,
        }
    }

    /// Stable lowercase label (`complete` / `truncated` /
    /// `deadline_exceeded`) for CLI notes, JSON, and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            Completeness::Complete => "complete",
            Completeness::Truncated => "truncated",
            Completeness::DeadlineExceeded => "deadline_exceeded",
        }
    }
}

impl std::fmt::Display for Completeness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Where an injected fault fires.
///
/// The first four points live in the rewriting pipeline and are consumed
/// by [`Meter`] through the installed budget. The serving points
/// (`Accept`/`Read`/`Write`/`Swap`) are consumed by the network layer in
/// `viewplan-serve` instead — they share the `VIEWPLAN_FAULT` syntax and
/// the fire-exactly-once countdown, but never trip a search meter (see
/// [`FaultPoint::is_serving`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultPoint {
    /// Exhaust the nth homomorphism search at its first node.
    Hom,
    /// Exhaust the nth cover/combine search at its first node.
    Cover,
    /// Exhaust the nth plan search at its first node.
    Plan,
    /// Fire the deadline at the nth metered search (any phase).
    Deadline,
    /// Drop the nth accepted network connection before reading a frame.
    Accept,
    /// Abort the connection after the nth successful frame read.
    Read,
    /// Abort the connection instead of writing the nth response frame.
    Write,
    /// Fail the nth catalog epoch swap (the DDL errors; traffic is
    /// untouched and the old epoch keeps serving).
    Swap,
}

impl FaultPoint {
    /// True for the serving-layer points, which the budget meters must
    /// ignore (they are injected by the network front-end, not by search
    /// loops).
    pub fn is_serving(self) -> bool {
        matches!(
            self,
            FaultPoint::Accept | FaultPoint::Read | FaultPoint::Write | FaultPoint::Swap
        )
    }
}

/// A deterministic injected fault: at the `nth` (1-based) search of the
/// chosen point, force budget exhaustion. Parsed by the CLI from
/// `VIEWPLAN_FAULT=phase:nth` (e.g. `hom:3`, `deadline:1`) or built
/// programmatically for tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fault {
    /// Which metering point triggers the fault.
    pub point: FaultPoint,
    /// 1-based index of the triggering search.
    pub nth: u64,
}

impl Fault {
    /// Parses `phase:nth`, e.g. `hom:3`, `cover:1`, `plan:2`,
    /// `deadline:1`.
    pub fn parse(s: &str) -> Result<Fault, String> {
        let (point, nth) = s
            .split_once(':')
            .ok_or_else(|| format!("expected phase:nth, got `{s}`"))?;
        let point = match point {
            "hom" => FaultPoint::Hom,
            "cover" => FaultPoint::Cover,
            "plan" => FaultPoint::Plan,
            "deadline" => FaultPoint::Deadline,
            "accept" => FaultPoint::Accept,
            "read" => FaultPoint::Read,
            "write" => FaultPoint::Write,
            "swap" => FaultPoint::Swap,
            other => {
                return Err(format!(
                    "unknown fault point `{other}` (expected hom, cover, plan, deadline, \
                     accept, read, write, or swap)"
                ))
            }
        };
        let nth: u64 = nth
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("fault index must be a positive integer, got `{nth}`"))?;
        Ok(Fault { point, nth })
    }
}

/// Declarative description of a budget; [`install`] makes it live
/// (fixing the deadline relative to now).
#[derive(Clone, Copy, Debug, Default)]
pub struct BudgetSpec {
    timeout: Option<Duration>,
    hom_nodes: Option<u64>,
    cover_nodes: Option<u64>,
    plan_nodes: Option<u64>,
    fault: Option<Fault>,
}

impl BudgetSpec {
    /// An empty spec: no deadline, no caps, no fault.
    pub fn new() -> BudgetSpec {
        BudgetSpec::default()
    }

    /// Sets the wall-clock timeout.
    pub fn timeout(mut self, timeout: Duration) -> BudgetSpec {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the wall-clock timeout in milliseconds.
    pub fn timeout_ms(self, ms: u64) -> BudgetSpec {
        self.timeout(Duration::from_millis(ms))
    }

    /// Caps the timeout at `cap`: the resulting spec times out at the
    /// smaller of its configured timeout and `cap`. The serving layer
    /// clamps each request's budget to its remaining network deadline
    /// this way, so a request never computes past the point where its
    /// client stops listening.
    pub fn clamp_timeout(mut self, cap: Duration) -> BudgetSpec {
        self.timeout = Some(self.timeout.map_or(cap, |t| t.min(cap)));
        self
    }

    /// Sets the same per-search node cap for all three phases.
    pub fn node_budget(mut self, nodes: u64) -> BudgetSpec {
        self.hom_nodes = Some(nodes);
        self.cover_nodes = Some(nodes);
        self.plan_nodes = Some(nodes);
        self
    }

    /// Sets the per-search node cap for one phase.
    pub fn phase_nodes(mut self, phase: Phase, nodes: u64) -> BudgetSpec {
        match phase {
            Phase::Hom => self.hom_nodes = Some(nodes),
            Phase::Cover => self.cover_nodes = Some(nodes),
            Phase::Plan => self.plan_nodes = Some(nodes),
        }
        self
    }

    /// Injects a deterministic fault.
    pub fn fault(mut self, fault: Fault) -> BudgetSpec {
        self.fault = Some(fault);
        self
    }

    /// True when the spec constrains nothing (no deadline, caps, or
    /// fault) — callers can skip installing a budget entirely.
    pub fn is_unlimited(&self) -> bool {
        self.timeout.is_none()
            && self.hom_nodes.is_none()
            && self.cover_nodes.is_none()
            && self.plan_nodes.is_none()
            && self.fault.is_none()
    }
}

/// The `budget` part of the request context: what its [`BudgetSpec`]
/// fixed at [`install`], and what the searches under it have used.
pub(crate) struct Budget {
    /// Absolute wall-clock deadline, if any.
    deadline: Option<Instant>,
    /// Per-phase, per-search node caps (`u64::MAX` = unlimited).
    node_caps: [u64; 3],
    /// Optional injected fault.
    fault: Option<Fault>,
    /// Latched once the deadline fires, on the clock or by a
    /// `deadline:n` fault; every later search starts exhausted.
    deadline_fired: Cell<bool>,
    /// Number of searches abandoned because the deadline fired.
    deadline_hits: Cell<u64>,
    /// Number of searches abandoned because a node cap ran out.
    node_hits: Cell<u64>,
    /// Abandoned-search counts per phase (either cause).
    abandoned: [Cell<u64>; 3],
    /// Countdown to the fault trigger; fires on the 1 → 0 transition.
    fault_countdown: Cell<u64>,
}

/// A snapshot of the installed budget's exhaustion counters, used to
/// classify the completeness of one run when the budget outlives it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HitSnapshot {
    /// Searches abandoned because the deadline fired.
    pub deadline_hits: u64,
    /// Searches abandoned because a per-search node cap ran out.
    pub node_hits: u64,
}

impl Budget {
    fn new(spec: BudgetSpec) -> Budget {
        Budget {
            deadline: spec.timeout.map(|t| Instant::now() + t),
            node_caps: [
                spec.hom_nodes.unwrap_or(u64::MAX),
                spec.cover_nodes.unwrap_or(u64::MAX),
                spec.plan_nodes.unwrap_or(u64::MAX),
            ],
            fault: spec.fault,
            deadline_fired: Cell::new(false),
            deadline_hits: Cell::new(0),
            node_hits: Cell::new(0),
            abandoned: Default::default(),
            fault_countdown: Cell::new(spec.fault.map_or(0, |f| f.nth)),
        }
    }

    /// True once the deadline fired. Polls the clock (and latches) if a
    /// deadline is set.
    fn fired(&self) -> bool {
        if !self.deadline_fired.get() && self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.deadline_fired.set(true);
        }
        self.deadline_fired.get()
    }

    fn hits(&self) -> HitSnapshot {
        HitSnapshot {
            deadline_hits: self.deadline_hits.get(),
            node_hits: self.node_hits.get(),
        }
    }

    /// Tallies one abandoned search under its phase and its cause.
    fn record(&self, phase: Phase, by_deadline: bool) {
        let bump = |cell: &Cell<u64>| cell.set(cell.get() + 1);
        bump(&self.abandoned[phase.idx()]);
        bump(if by_deadline {
            &self.deadline_hits
        } else {
            &self.node_hits
        });
    }

    /// Decrements the fault countdown if this search matches the fault
    /// point; the point when the fault fires on this search.
    fn fault_fires(&self, phase: Phase) -> Option<FaultPoint> {
        let fault = self.fault?;
        let matches = match fault.point {
            FaultPoint::Hom => phase == Phase::Hom,
            FaultPoint::Cover => phase == Phase::Cover,
            FaultPoint::Plan => phase == Phase::Plan,
            FaultPoint::Deadline => true,
            // Serving-layer points belong to the network front-end; a
            // budget that happens to carry one never trips a meter.
            FaultPoint::Accept | FaultPoint::Read | FaultPoint::Write | FaultPoint::Swap => false,
        };
        let left = self.fault_countdown.get();
        if !matches || left == 0 {
            return None;
        }
        // Fires exactly once, on the 1 → 0 transition.
        self.fault_countdown.set(left - 1);
        (left == 1).then_some(fault.point)
    }
}

// ---------------------------------------------------------------------
// The installed budget: the `budget` part of the request context.
// ---------------------------------------------------------------------

/// Starts `spec`'s deadline and makes it the current thread's budget
/// until the guard drops. What the budget records while installed is
/// dropped with the guard.
pub fn install(spec: BudgetSpec) -> CtxGuard {
    ctx::scoped(Part::Budget(Some(Budget::new(spec))))
}

/// Reads the installed budget (`R::default()` when none is).
fn read<R: Default>(f: impl FnOnce(&Budget) -> R) -> R {
    ctx::with(|ctx| ctx.budget.as_ref().map(f).unwrap_or_default())
}

/// True when a budget is installed on this thread.
pub fn active() -> bool {
    ctx::with(|ctx| ctx.budget.is_some())
}

/// True when a budget is installed and its deadline fired. Loop heads
/// outside metered searches (minimization rounds, per-rewriting
/// planning) poll this to stop early.
pub fn cancelled() -> bool {
    read(Budget::fired)
}

/// The installed budget's hits so far (zeroes when none) — searches
/// abandoned by the wall clock vs. by node caps.
pub fn snapshot() -> HitSnapshot {
    read(Budget::hits)
}

/// Searches abandoned in `phase` (either cause) under the installed
/// budget (0 when none).
pub fn abandoned(phase: Phase) -> u64 {
    read(|b| b.abandoned[phase.idx()].get())
}

/// Completeness of the work since `before` under the installed budget
/// ([`Completeness::Complete`] when none is). A deadline that has
/// passed reads `DeadlineExceeded` even if no meter observed it yet.
pub fn completeness_since(before: HitSnapshot) -> Completeness {
    read(|b| {
        let now = b.hits();
        if now.deadline_hits > before.deadline_hits || b.fired() {
            Completeness::DeadlineExceeded
        } else if now.node_hits > before.node_hits {
            Completeness::Truncated
        } else {
            Completeness::Complete
        }
    })
}

/// Records one abandoned search in the installed budget and the obs
/// counters. `by_deadline` selects which hit counter it lands in.
fn note_abandoned(phase: Phase, by_deadline: bool) {
    read(|b| b.record(phase, by_deadline));
    if by_deadline {
        crate::counter!("budget.deadline_hits").incr();
    } else {
        crate::counter!("budget.node_budget_hits").incr();
    }
    match phase {
        Phase::Hom => crate::counter!("budget.abandoned.hom").incr(),
        Phase::Cover => crate::counter!("budget.abandoned.cover").incr(),
        Phase::Plan => crate::counter!("budget.abandoned.plan").incr(),
    }
    crate::trace_event!(
        "budget.truncated",
        ("phase", phase.name()),
        ("by_deadline", by_deadline)
    );
}

// ---------------------------------------------------------------------
// Meter: the per-search countdown.
// ---------------------------------------------------------------------

/// Per-search budget countdown. Create one per search with
/// [`Meter::start`]; call [`Meter::tick`] at each node — `false` means
/// stop now (record best-so-far and unwind). After the search,
/// [`Meter::exhausted`] distinguishes truncation from completion.
///
/// A meter copies its phase's cap and the deadline when it starts: a
/// tick reads the request context only at a deadline poll and when the
/// meter exhausts.
pub struct Meter {
    phase: Phase,
    /// Whether a budget was installed at start; an unbudgeted meter
    /// never refuses a tick.
    budgeted: bool,
    deadline: Option<Instant>,
    /// Nodes left before the cap fires.
    remaining: u64,
    /// Ticks left before the next deadline poll.
    until_check: u64,
    exhausted: bool,
}

impl Meter {
    /// Starts a meter for one search in `phase` against the installed
    /// budget (a no-op meter when none is installed). Checks the
    /// deadline and injected faults immediately, so once the deadline
    /// fired every subsequent search exhausts at its first tick.
    pub fn start(phase: Phase) -> Meter {
        let mut meter = Meter {
            phase,
            budgeted: false,
            deadline: None,
            remaining: u64::MAX,
            until_check: u64::MAX,
            exhausted: false,
        };
        let refused = ctx::with(|ctx| {
            let budget = ctx.budget.as_ref()?;
            meter.budgeted = true;
            meter.deadline = budget.deadline;
            meter.remaining = budget.node_caps[phase.idx()];
            meter.until_check = DEADLINE_CHECK_INTERVAL;
            match budget.fault_fires(phase) {
                Some(FaultPoint::Deadline) => {
                    budget.deadline_fired.set(true);
                    Some(true)
                }
                Some(_) => Some(false),
                None => budget.fired().then_some(true),
            }
        });
        if let Some(by_deadline) = refused {
            meter.exhaust(by_deadline);
        }
        meter
    }

    /// Accounts one search node. Returns `true` to continue, `false`
    /// to stop the search now (the meter records the abandonment on
    /// first refusal).
    #[inline]
    pub fn tick(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        if !self.budgeted {
            return true;
        }
        if self.remaining == 0 {
            self.exhaust(false);
            return false;
        }
        self.remaining -= 1;
        self.until_check -= 1;
        if self.until_check == 0 {
            self.until_check = DEADLINE_CHECK_INTERVAL;
            // The clock against the copied deadline; the latch for a
            // deadline another search saw or a fault forced.
            if self.deadline.is_some_and(|d| Instant::now() >= d)
                || read(|b| b.deadline_fired.get())
            {
                self.exhaust(true);
                return false;
            }
        }
        true
    }

    /// True once the meter has refused a tick (the search was
    /// truncated).
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Refuses the search; callers have checked it was not refused yet.
    fn exhaust(&mut self, by_deadline: bool) {
        self.exhausted = true;
        note_abandoned(self.phase, by_deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn no_budget() {
        assert!(!active(), "test leaked an installed budget");
    }

    fn fault(point: FaultPoint, nth: u64) -> BudgetSpec {
        BudgetSpec::new().fault(Fault { point, nth })
    }

    #[test]
    fn no_budget_meter_is_free() {
        no_budget();
        let mut m = Meter::start(Phase::Hom);
        for _ in 0..10_000 {
            assert!(m.tick());
        }
        assert!(!m.exhausted());
    }

    #[test]
    fn node_cap_exhausts_at_the_cap() {
        no_budget();
        let _g = install(BudgetSpec::new().node_budget(10));
        let mut m = Meter::start(Phase::Hom);
        let mut ticks = 0;
        while m.tick() {
            ticks += 1;
        }
        assert_eq!(ticks, 10);
        assert!(m.exhausted());
        assert_eq!(abandoned(Phase::Hom), 1);
        assert_eq!(snapshot().node_hits, 1);
        assert_eq!(snapshot().deadline_hits, 0);
        assert_eq!(
            completeness_since(HitSnapshot::default()),
            Completeness::Truncated
        );
    }

    #[test]
    fn expired_deadline_exhausts_immediately() {
        no_budget();
        let _g = install(BudgetSpec::new().timeout(Duration::ZERO));
        assert_eq!(
            completeness_since(HitSnapshot::default()),
            Completeness::DeadlineExceeded,
            "a passed deadline reads as such before any meter sees it"
        );
        let mut m = Meter::start(Phase::Cover);
        assert!(!m.tick());
        assert!(m.exhausted());
        assert_eq!(snapshot().deadline_hits, 1);
    }

    #[test]
    fn a_deadline_fault_stops_running_meters_at_the_next_poll() {
        no_budget();
        let _g = install(fault(FaultPoint::Deadline, 2));
        let mut before = Meter::start(Phase::Plan);
        assert!(before.tick());
        let mut after = Meter::start(Phase::Plan);
        assert!(!after.tick());
        let mut i = 0u64;
        while before.tick() {
            i += 1;
            assert!(i <= DEADLINE_CHECK_INTERVAL, "running meter never stopped");
        }
        assert_eq!(snapshot().deadline_hits, 2);
    }

    #[test]
    fn guard_restores_previous_budget() {
        no_budget();
        let _g1 = install(BudgetSpec::new().node_budget(100));
        {
            let _g2 = install(BudgetSpec::new().node_budget(1));
            let mut m = Meter::start(Phase::Hom);
            assert!(m.tick());
            assert!(!m.tick());
        }
        assert_eq!(snapshot(), HitSnapshot::default());
        let mut m = Meter::start(Phase::Hom);
        for _ in 0..100 {
            assert!(m.tick());
        }
    }

    #[test]
    fn fault_parse_round_trips() {
        assert_eq!(
            Fault::parse("hom:3"),
            Ok(Fault {
                point: FaultPoint::Hom,
                nth: 3
            })
        );
        assert_eq!(
            Fault::parse("deadline:1"),
            Ok(Fault {
                point: FaultPoint::Deadline,
                nth: 1
            })
        );
        assert!(Fault::parse("hom").is_err());
        assert!(Fault::parse("hom:0").is_err());
        assert!(Fault::parse("hom:x").is_err());
        assert!(Fault::parse("warp:1").is_err());
    }

    #[test]
    fn serving_fault_points_parse_but_never_trip_meters() {
        no_budget();
        for (src, point) in [
            ("accept:2", FaultPoint::Accept),
            ("read:1", FaultPoint::Read),
            ("write:3", FaultPoint::Write),
            ("swap:1", FaultPoint::Swap),
        ] {
            assert_eq!(
                Fault::parse(src),
                Ok(Fault {
                    point,
                    nth: src[src.len() - 1..].parse().unwrap()
                })
            );
            assert!(point.is_serving());
        }
        assert!(!FaultPoint::Hom.is_serving());
        assert!(!FaultPoint::Deadline.is_serving());
        // A budget carrying a serving fault is inert for search meters.
        let _g = install(fault(FaultPoint::Accept, 1));
        for phase in [Phase::Hom, Phase::Cover, Phase::Plan] {
            let mut m = Meter::start(phase);
            for _ in 0..1000 {
                assert!(m.tick());
            }
            assert!(!m.exhausted());
        }
        assert_eq!(snapshot().node_hits, 0);
    }

    #[test]
    fn fault_fires_on_the_nth_search_only() {
        no_budget();
        let _g = install(fault(FaultPoint::Cover, 2));
        let mut first = Meter::start(Phase::Cover);
        assert!(first.tick(), "first search unaffected");
        let mut second = Meter::start(Phase::Cover);
        assert!(!second.tick(), "second search hit the fault");
        let mut third = Meter::start(Phase::Cover);
        assert!(third.tick(), "fault fires exactly once");
        assert_eq!(snapshot().node_hits, 1);
    }

    #[test]
    fn deadline_fault_cancels_everything() {
        no_budget();
        let _g = install(fault(FaultPoint::Deadline, 1));
        let mut m = Meter::start(Phase::Hom);
        assert!(!m.tick());
        assert!(cancelled());
        assert_eq!(
            completeness_since(HitSnapshot::default()),
            Completeness::DeadlineExceeded
        );
        // Subsequent searches in any phase are dead too.
        let mut n = Meter::start(Phase::Plan);
        assert!(!n.tick());
    }

    #[test]
    fn completeness_ordering() {
        use Completeness::*;
        assert_eq!(Complete.worst(Truncated), Truncated);
        assert_eq!(Truncated.worst(DeadlineExceeded), DeadlineExceeded);
        assert_eq!(DeadlineExceeded.worst(Complete), DeadlineExceeded);
        assert_eq!(Complete.worst(Complete), Complete);
        assert!(!Complete.is_incomplete());
        assert!(Truncated.is_incomplete());
        assert_eq!(Truncated.label(), "truncated");
    }

    #[test]
    fn snapshot_scopes_completeness_to_a_run() {
        no_budget();
        let _g = install(BudgetSpec::new().node_budget(3));
        let mut m = Meter::start(Phase::Hom);
        while m.tick() {}
        // A later run that stays within budget is Complete even though
        // the budget has hits from the earlier run.
        let before = snapshot();
        let mut ok = Meter::start(Phase::Hom);
        ok.tick();
        assert_eq!(completeness_since(before), Completeness::Complete);
    }

    /// One step of a request: start a search, or tick an open one.
    #[derive(Clone, Debug)]
    enum Op {
        Start(Phase),
        /// Ticks the open search at this index (modulo their number)
        /// up to this many times.
        Tick(usize, usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        let phase = prop_oneof![Just(Phase::Hom), Just(Phase::Cover), Just(Phase::Plan)];
        prop_oneof![
            phase.prop_map(Op::Start),
            (any::<usize>(), 0usize..300).prop_map(|(i, n)| Op::Tick(i, n)),
        ]
    }

    /// A node cap, or none (about one draw in four).
    fn cap() -> impl Strategy<Value = Option<u64>> {
        (0u64..400).prop_map(|n| (n < 300).then_some(n))
    }

    /// An injected fault, or none (one draw in six).
    fn injected() -> impl Strategy<Value = Option<(FaultPoint, u64)>> {
        let point = prop_oneof![
            Just(Some(FaultPoint::Hom)),
            Just(Some(FaultPoint::Cover)),
            Just(Some(FaultPoint::Plan)),
            Just(Some(FaultPoint::Deadline)),
            Just(Some(FaultPoint::Accept)),
            Just(None),
        ];
        (point, 1u64..6).prop_map(|(point, nth)| point.map(|p| (p, nth)))
    }

    fn total_abandoned() -> u64 {
        [Phase::Hom, Phase::Cover, Phase::Plan]
            .into_iter()
            .map(abandoned)
            .sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The budget's accounting over any sequence of searches, caps
        /// and faults on one thread. Each property names the mutation
        /// it catches:
        /// * each search is abandoned at most once — `tick` without its
        ///   `exhausted` check re-records a capped search per tick;
        /// * the cause tallies sum to the per-phase tallies — `record`
        ///   bumping the phase but not the cause (or both causes);
        /// * a search started after the deadline fired, on the clock or
        ///   by a `deadline:n` fault, is a deadline abandonment —
        ///   `Meter::start` without its `fired()` check, or a deadline
        ///   fault that does not latch;
        /// * a fault fires exactly once, on its nth matching search — a
        ///   countdown that fires at every value `<= 1`, or never
        ///   stops counting down.
        #[test]
        fn accounting_holds_over_any_sequence_of_searches(
            caps in (cap(), cap(), cap()),
            injected in injected(),
            expired in any::<bool>(),
            ops in proptest::collection::vec(op(), 0..40),
        ) {
            let mut spec = BudgetSpec::new();
            let caps = [caps.0, caps.1, caps.2];
            for (phase, cap) in [Phase::Hom, Phase::Cover, Phase::Plan].into_iter().zip(caps) {
                if let Some(cap) = cap {
                    spec = spec.phase_nodes(phase, cap);
                }
            }
            if let Some((point, nth)) = injected {
                spec = spec.fault(Fault { point, nth });
            }
            if expired {
                spec = spec.timeout(Duration::ZERO);
            }
            let _g = install(spec);
            let mut fired = expired;
            let mut matching = 0;
            let mut meters: Vec<Meter> = Vec::new();
            for op in ops {
                let before = snapshot();
                match op {
                    Op::Start(phase) => {
                        let fires = injected.is_some_and(|(point, nth)| {
                            let hit = match point {
                                FaultPoint::Deadline => true,
                                FaultPoint::Hom => phase == Phase::Hom,
                                FaultPoint::Cover => phase == Phase::Cover,
                                FaultPoint::Plan => phase == Phase::Plan,
                                _ => false,
                            };
                            matching += u64::from(hit);
                            hit && matching == nth
                        });
                        let deadline_fault =
                            fires && injected.is_some_and(|(p, _)| p == FaultPoint::Deadline);
                        let meter = Meter::start(phase);
                        let by_deadline = deadline_fault || (fired && !fires);
                        prop_assert_eq!(meter.exhausted(), fires || fired);
                        prop_assert_eq!(
                            snapshot().deadline_hits - before.deadline_hits,
                            u64::from(by_deadline)
                        );
                        prop_assert_eq!(
                            snapshot().node_hits - before.node_hits,
                            u64::from(fires && !deadline_fault)
                        );
                        fired |= deadline_fault;
                        meters.push(meter);
                    }
                    Op::Tick(i, n) => {
                        if meters.is_empty() {
                            continue;
                        }
                        let len = meters.len();
                        let meter = &mut meters[i % len];
                        for _ in 0..n {
                            let was = meter.exhausted();
                            let go = meter.tick();
                            prop_assert_eq!(go, !meter.exhausted());
                            prop_assert!(!was || !go, "a refused search stays refused");
                        }
                    }
                }
                let hits = snapshot();
                let refused = meters.iter().filter(|m| m.exhausted()).count() as u64;
                prop_assert_eq!(total_abandoned(), refused);
                prop_assert_eq!(hits.deadline_hits + hits.node_hits, refused);
            }
            prop_assert_eq!(
                completeness_since(HitSnapshot::default()) == Completeness::DeadlineExceeded,
                fired
            );
            prop_assert_eq!(cancelled(), fired);
        }
    }
}
