//! Cooperative budgets: deadlines, per-phase node caps, fault injection.
//!
//! Every hot loop in the rewriting pipeline — homomorphism search,
//! cover enumeration, M2/M3 plan search — is worst-case exponential. A
//! service cannot hang on an adversarial query; it must return the best
//! answer found within a budget, labeled as such. This module provides
//! the shared mechanism:
//!
//! * [`Budget`] — a cheap, clonable (`Arc`-backed) handle carrying an
//!   optional wall-clock deadline and per-phase **per-search** node caps.
//! * [`install`] / [`current`] — the current budget, one part of the
//!   thread's [request context](crate::ctx). The CLI installs one around
//!   a command; a worker pool that carries the context carries the
//!   budget, so the whole pool observes one deadline and stops promptly
//!   when it fires.
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
//! individual search truncates at the same node regardless of what other
//! threads are doing, so node-budgeted results are identical at any
//! thread count. Deadlines are shared wall-clock state and therefore
//! nondeterministic; results under `--timeout-ms` are labeled as such.
//!
//! **Soundness of degradation.** A truncated homomorphism search can
//! only *miss* homomorphisms, never fabricate one. Downstream this
//! always errs in the safe direction: minimization keeps subgoals it
//! could not prove redundant (result stays equivalent), view equivalence
//! classes split rather than merge, tuple-cores are underestimated
//! (subsets of the true core still yield valid covers), and rewriting
//! verification drops candidates it cannot confirm instead of asserting.
//! Truncated verdicts are never written to the containment cache.
//!
//! Exhaustion events are counted on the budget handle (always) and in
//! the obs counter registry (`budget.deadline_hits`,
//! `budget.node_budget_hits`, `budget.abandoned.{hom,cover,plan}`) when
//! stats collection is on.

use crate::ctx::{self, CtxGuard};
use std::sync::Arc;
use std::time::{Duration, Instant};
use viewplan_sync::{AtomicBool, AtomicU64, Ordering};

/// How many `Meter::tick`s pass between wall-clock / cancellation polls.
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
/// by [`Meter`] through the ambient budget. The serving points
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
/// programmatically for tests. Deterministic at 1 thread; with more
/// workers the trigger ordering races (the *effects* stay well-formed).
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

/// The shared state behind a [`Budget`] handle.
struct Inner {
    /// Absolute wall-clock deadline, if any.
    deadline: Option<Instant>,
    /// Per-phase, per-search node caps (`u64::MAX` = unlimited).
    node_caps: [u64; 3],
    /// Set once the deadline fires (or [`Budget::cancel`] is called);
    /// every meter polls it so all workers stop promptly.
    cancelled: AtomicBool,
    /// Whether cancellation came from the deadline (vs. an explicit
    /// cancel), for completeness classification.
    deadline_fired: AtomicBool,
    /// Number of searches abandoned because the deadline/cancel fired.
    deadline_hits: AtomicU64,
    /// Number of searches abandoned because a node cap ran out.
    node_hits: AtomicU64,
    /// Abandoned-search counts per phase (either cause).
    abandoned: [AtomicU64; 3],
    /// Optional injected fault.
    fault: Option<Fault>,
    /// Countdown to the fault trigger; fires on the 1 → 0 transition.
    fault_countdown: AtomicU64,
}

/// A snapshot of a budget's exhaustion counters, used to classify the
/// completeness of one run when a budget handle outlives it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HitSnapshot {
    /// Searches abandoned because the deadline fired or the budget was
    /// cancelled.
    pub deadline_hits: u64,
    /// Searches abandoned because a per-search node cap ran out.
    pub node_hits: u64,
}

/// A cheap, clonable budget handle. Create with [`BudgetSpec::build`],
/// make it ambient with [`install`], and observe it from hot loops
/// through [`Meter`].
#[derive(Clone)]
pub struct Budget {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Budget")
            .field("deadline", &self.inner.deadline)
            .field("node_caps", &self.inner.node_caps)
            .field("cancelled", &self.cancelled())
            .finish()
    }
}

/// Declarative description of a budget; `build` turns it into a live
/// [`Budget`] (fixing the deadline relative to now).
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

    /// Builds the live budget; the deadline (if any) starts counting now.
    pub fn build(self) -> Budget {
        Budget {
            inner: Arc::new(Inner {
                deadline: self.timeout.map(|t| Instant::now() + t),
                node_caps: [
                    self.hom_nodes.unwrap_or(u64::MAX),
                    self.cover_nodes.unwrap_or(u64::MAX),
                    self.plan_nodes.unwrap_or(u64::MAX),
                ],
                cancelled: AtomicBool::new(false),
                deadline_fired: AtomicBool::new(false),
                deadline_hits: AtomicU64::new(0),
                node_hits: AtomicU64::new(0),
                abandoned: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
                fault_countdown: AtomicU64::new(self.fault.map_or(0, |f| f.nth)),
                fault: self.fault,
            }),
        }
    }
}

impl Budget {
    /// A budget that never exhausts (useful as a fault-injection
    /// carrier).
    pub fn unlimited() -> Budget {
        BudgetSpec::new().build()
    }

    /// True once the deadline fired or [`Budget::cancel`] was called.
    /// Polls the clock (and latches the flag) if a deadline is set.
    pub fn cancelled(&self) -> bool {
        // ordering: latched one-way flag; a late observation only delays
        // the stop, it cannot un-cancel.
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.fire_deadline();
                return true;
            }
        }
        false
    }

    /// Cancels the budget explicitly (counts as a deadline-style stop
    /// for completeness purposes: the result is nondeterministic
    /// best-so-far).
    pub fn cancel(&self) {
        self.fire_deadline();
    }

    fn fire_deadline(&self) {
        // ordering: deadline_fired is written before cancelled so a
        // cancelled_by_deadline observer under SC sees the cause with the
        // effect; both flags are one-way latches, so relaxed suffices for
        // the stop itself (a miss only delays it).
        self.inner.deadline_fired.store(true, Ordering::Relaxed);
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// `(deadline_hits, node_hits)` so far — searches abandoned by the
    /// wall clock vs. by node caps.
    pub fn hits(&self) -> HitSnapshot {
        HitSnapshot {
            // ordering: monotone tallies; completeness_since compares
            // before/after snapshots of the same counters.
            deadline_hits: self.inner.deadline_hits.load(Ordering::Relaxed),
            // ordering: as above.
            node_hits: self.inner.node_hits.load(Ordering::Relaxed),
        }
    }

    /// Searches abandoned in `phase` (either cause).
    pub fn abandoned(&self, phase: Phase) -> u64 {
        // ordering: monotone tally read.
        self.inner.abandoned[phase.idx()].load(Ordering::Relaxed)
    }

    /// Classifies everything since `before` (see [`Budget::hits`]).
    /// An explicitly cancelled or deadline-expired budget reports
    /// `DeadlineExceeded` even if no meter observed it yet.
    pub fn completeness_since(&self, before: HitSnapshot) -> Completeness {
        let now = self.hits();
        if now.deadline_hits > before.deadline_hits || self.cancelled_by_deadline() {
            Completeness::DeadlineExceeded
        } else if now.node_hits > before.node_hits {
            Completeness::Truncated
        } else {
            Completeness::Complete
        }
    }

    fn cancelled_by_deadline(&self) -> bool {
        // ordering: one-way latch written in fire_deadline before
        // cancelled; see the note there.
        self.cancelled() && self.inner.deadline_fired.load(Ordering::Relaxed)
    }

    /// Records one abandoned search. `by_deadline` selects which hit
    /// counter (and obs counter) it lands in.
    fn note_abandoned(&self, phase: Phase, by_deadline: bool) {
        // ordering: the per-phase tally is bumped before the cause
        // counter, so hits() never exceeds the abandoned total under SC
        // (pinned by the model_budget interleaving test); each counter is
        // monotone, so relaxed suffices per site.
        self.inner.abandoned[phase.idx()].fetch_add(1, Ordering::Relaxed);
        if by_deadline {
            // ordering: monotone tally; see above.
            self.inner.deadline_hits.fetch_add(1, Ordering::Relaxed);
            crate::counter!("budget.deadline_hits").incr();
        } else {
            // ordering: monotone tally; see above.
            self.inner.node_hits.fetch_add(1, Ordering::Relaxed);
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

    /// Decrements the fault countdown if this search matches the fault
    /// point; true when the fault fires on this search.
    fn fault_fires(&self, phase: Phase) -> Option<FaultPoint> {
        let fault = self.inner.fault?;
        let matches = match fault.point {
            FaultPoint::Hom => phase == Phase::Hom,
            FaultPoint::Cover => phase == Phase::Cover,
            FaultPoint::Plan => phase == Phase::Plan,
            FaultPoint::Deadline => true,
            // Serving-layer points belong to the network front-end; a
            // budget that happens to carry one never trips a meter.
            FaultPoint::Accept | FaultPoint::Read | FaultPoint::Write | FaultPoint::Swap => false,
        };
        if !matches {
            return None;
        }
        // Fires exactly once, on the 1 → 0 transition.
        let fired = self
            .inner
            .fault_countdown
            // ordering: the RMW itself is atomic, which is all the
            // exactly-once 1 -> 0 transition needs.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok_and(|prev| prev == 1);
        fired.then_some(fault.point)
    }
}

// ---------------------------------------------------------------------
// The current budget: the `budget` part of the request context.
// ---------------------------------------------------------------------

/// Makes `budget` the current thread's budget until the guard drops.
pub fn install(budget: Budget) -> CtxGuard {
    ctx::scoped(|ctx| ctx.budget = Some(budget))
}

/// The current thread's budget, if any.
pub fn current() -> Option<Budget> {
    ctx::with(|ctx| ctx.budget.clone())
}

/// True when a budget is installed and has been cancelled (deadline
/// fired or explicit cancel). Loop heads outside metered searches
/// (minimization rounds, per-rewriting planning) poll this to stop
/// early.
pub fn cancelled() -> bool {
    ctx::with(|ctx| ctx.budget.as_ref().is_some_and(Budget::cancelled))
}

/// [`Budget::hits`] of the current budget (zeroes when none).
pub fn snapshot() -> HitSnapshot {
    ctx::with(|ctx| ctx.budget.as_ref().map(Budget::hits).unwrap_or_default())
}

/// Completeness of the work since `before` under the current budget
/// ([`Completeness::Complete`] when no budget is installed).
pub fn completeness_since(before: HitSnapshot) -> Completeness {
    ctx::with(|ctx| {
        ctx.budget
            .as_ref()
            .map(|b| b.completeness_since(before))
            .unwrap_or_default()
    })
}

// ---------------------------------------------------------------------
// Meter: the per-search countdown.
// ---------------------------------------------------------------------

/// Per-search budget countdown. Create one per search with
/// [`Meter::start`]; call [`Meter::tick`] at each node — `false` means
/// stop now (record best-so-far and unwind). After the search,
/// [`Meter::exhausted`] distinguishes truncation from completion.
pub struct Meter {
    budget: Option<Budget>,
    phase: Phase,
    /// Nodes left before the cap fires.
    remaining: u64,
    /// Ticks left before the next wall-clock / cancellation poll.
    until_check: u64,
    exhausted: bool,
    /// Whether exhaustion was the deadline's doing.
    by_deadline: bool,
}

impl Meter {
    /// Starts a meter for one search in `phase` against the ambient
    /// budget (a no-op meter when none is installed). Checks for
    /// cancellation and injected faults immediately, so an
    /// already-expired budget exhausts every subsequent search at its
    /// first tick.
    pub fn start(phase: Phase) -> Meter {
        let budget = current();
        let mut meter = match budget {
            None => Meter {
                budget: None,
                phase,
                remaining: u64::MAX,
                until_check: u64::MAX,
                exhausted: false,
                by_deadline: false,
            },
            Some(b) => Meter {
                remaining: b.inner.node_caps[phase.idx()],
                until_check: DEADLINE_CHECK_INTERVAL,
                budget: Some(b),
                phase,
                exhausted: false,
                by_deadline: false,
            },
        };
        if let Some(b) = meter.budget.clone() {
            match b.fault_fires(phase) {
                Some(FaultPoint::Deadline) => {
                    b.cancel();
                    meter.exhaust(true);
                }
                Some(_) => meter.exhaust(false),
                None => {
                    if b.cancelled() {
                        meter.exhaust(true);
                    }
                }
            }
        }
        meter
    }

    /// A meter that never exhausts (for callers that must opt out of
    /// budgeting, e.g. post-hoc verification in tests).
    pub fn unlimited() -> Meter {
        Meter {
            budget: None,
            phase: Phase::Hom,
            remaining: u64::MAX,
            until_check: u64::MAX,
            exhausted: false,
            by_deadline: false,
        }
    }

    /// Accounts one search node. Returns `true` to continue, `false`
    /// to stop the search now (the meter records the abandonment on
    /// first refusal).
    #[inline]
    pub fn tick(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        let Some(budget) = &self.budget else {
            return true;
        };
        if self.remaining == 0 {
            self.exhaust(false);
            return false;
        }
        self.remaining -= 1;
        self.until_check -= 1;
        if self.until_check == 0 {
            self.until_check = DEADLINE_CHECK_INTERVAL;
            if budget.cancelled() {
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

    fn exhaust(&mut self, by_deadline: bool) {
        if self.exhausted {
            return;
        }
        self.exhausted = true;
        self.by_deadline = by_deadline;
        if let Some(b) = &self.budget {
            b.note_abandoned(self.phase, by_deadline);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Thread-locals isolate most state, but obs counters are
    /// process-global; tests that read them serialize here.
    fn no_budget() {
        assert!(current().is_none(), "test leaked an ambient budget");
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
        let budget = BudgetSpec::new().node_budget(10).build();
        let _g = install(budget.clone());
        let mut m = Meter::start(Phase::Hom);
        let mut ticks = 0;
        while m.tick() {
            ticks += 1;
        }
        assert_eq!(ticks, 10);
        assert!(m.exhausted());
        assert_eq!(budget.abandoned(Phase::Hom), 1);
        assert_eq!(budget.hits().node_hits, 1);
        assert_eq!(budget.hits().deadline_hits, 0);
        assert_eq!(
            budget.completeness_since(HitSnapshot::default()),
            Completeness::Truncated
        );
    }

    #[test]
    fn expired_deadline_exhausts_immediately() {
        no_budget();
        let budget = BudgetSpec::new().timeout(Duration::from_millis(0)).build();
        let _g = install(budget.clone());
        std::thread::sleep(Duration::from_millis(2));
        let mut m = Meter::start(Phase::Cover);
        assert!(!m.tick());
        assert!(m.exhausted());
        assert_eq!(budget.hits().deadline_hits, 1);
        assert_eq!(
            budget.completeness_since(HitSnapshot::default()),
            Completeness::DeadlineExceeded
        );
    }

    #[test]
    fn cancel_stops_future_meters() {
        no_budget();
        let budget = Budget::unlimited();
        let _g = install(budget.clone());
        let mut before = Meter::start(Phase::Plan);
        assert!(before.tick());
        budget.cancel();
        let mut after = Meter::start(Phase::Plan);
        assert!(!after.tick());
        // A running meter notices at the next poll boundary.
        let mut i = 0u64;
        while before.tick() {
            i += 1;
            assert!(i <= DEADLINE_CHECK_INTERVAL, "running meter never stopped");
        }
    }

    #[test]
    fn budget_is_shared_across_clones_and_threads() {
        no_budget();
        let budget = BudgetSpec::new().node_budget(5).build();
        let handle = budget.clone();
        std::thread::spawn(move || {
            let _g = install(handle.clone());
            let mut m = Meter::start(Phase::Hom);
            while m.tick() {}
        })
        .join()
        .unwrap();
        assert_eq!(budget.abandoned(Phase::Hom), 1);
    }

    #[test]
    fn guard_restores_previous_budget() {
        no_budget();
        let outer = BudgetSpec::new().node_budget(100).build();
        let _g1 = install(outer);
        {
            let inner = BudgetSpec::new().node_budget(1).build();
            let _g2 = install(inner);
            let mut m = Meter::start(Phase::Hom);
            assert!(m.tick());
            assert!(!m.tick());
        }
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
        let budget = BudgetSpec::new()
            .fault(Fault {
                point: FaultPoint::Accept,
                nth: 1,
            })
            .build();
        let _g = install(budget.clone());
        for phase in [Phase::Hom, Phase::Cover, Phase::Plan] {
            let mut m = Meter::start(phase);
            for _ in 0..1000 {
                assert!(m.tick());
            }
            assert!(!m.exhausted());
        }
        assert_eq!(budget.hits().node_hits, 0);
    }

    #[test]
    fn fault_fires_on_the_nth_search_only() {
        no_budget();
        let budget = BudgetSpec::new()
            .fault(Fault {
                point: FaultPoint::Cover,
                nth: 2,
            })
            .build();
        let _g = install(budget.clone());
        let mut first = Meter::start(Phase::Cover);
        assert!(first.tick(), "first search unaffected");
        let mut second = Meter::start(Phase::Cover);
        assert!(!second.tick(), "second search hit the fault");
        let mut third = Meter::start(Phase::Cover);
        assert!(third.tick(), "fault fires exactly once");
        assert_eq!(budget.hits().node_hits, 1);
    }

    #[test]
    fn deadline_fault_cancels_everything() {
        no_budget();
        let budget = BudgetSpec::new()
            .fault(Fault {
                point: FaultPoint::Deadline,
                nth: 1,
            })
            .build();
        let _g = install(budget.clone());
        let mut m = Meter::start(Phase::Hom);
        assert!(!m.tick());
        assert!(budget.cancelled());
        assert_eq!(
            budget.completeness_since(HitSnapshot::default()),
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
        let budget = BudgetSpec::new().node_budget(3).build();
        let _g = install(budget.clone());
        let mut m = Meter::start(Phase::Hom);
        while m.tick() {}
        // A later run that stays within budget is Complete even though
        // the handle has hits from the earlier run.
        let before = snapshot();
        let mut ok = Meter::start(Phase::Hom);
        ok.tick();
        assert_eq!(completeness_since(before), Completeness::Complete);
    }
}
