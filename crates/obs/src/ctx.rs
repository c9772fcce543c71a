//! The request context: everything ambient about one request, in one
//! thread-local slot.
//!
//! The rewriting pipeline is a pure function of a query, a view set and
//! a cost model. What surrounds a call — the budget that may cut it
//! short, the [`Trace`](crate::Trace) that records it, and the engine
//! override — is one `RequestCtx` per thread, confined to that thread: a
//! request runs start to finish on the thread that installed its
//! context, so nothing carries a context anywhere else, and each part is
//! a plain single-thread value. Three typed setters replace one part each
//! and return a [`CtxGuard`] that puts back that part, and only that
//! part, when it drops: [`budget::install_budget`](crate::budget::install_budget),
//! [`trace::install`](crate::trace::install) and, through
//! [`set_policy`], `viewplan_engine::install`. A trace or policy guard
//! that opens and closes under a budget therefore keeps what the budget
//! recorded in between.
//!
//! The spans open on the thread are not part of the context: they are
//! the thread's own stack, kept beside it with the closed spans staged
//! for the process-wide phase tree, and no setter touches them.
//!
//! `policy` is an opaque word here: the crates that own behaviour
//! switches own the meaning of their bits, and this crate only keeps
//! them apart. Allocated so far: bits 0–1 `viewplan-engine` (the
//! executor override, which only tests and the benchmark's reference
//! answers set: no command selects an executor).
//!
//! A guard belongs to the thread that made it — dropped anywhere else it
//! would put its part into that thread's context and leave its own
//! thread's part replaced for good — so it is `!Send`:
//!
//! ```compile_fail,E0277
//! let guard = viewplan_obs::install_budget(viewplan_obs::BudgetSpec::new());
//! std::thread::spawn(move || drop(guard));
//! ```

use crate::budget::Budget;
use crate::span::{self, PathStats};
use crate::trace::TraceSlot;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::time::Duration;

/// One open span: its name in the phase tree and its id in the trace
/// installed when it opened (0 when none was).
pub(crate) struct Frame {
    pub(crate) name: &'static str,
    pub(crate) id: u64,
}

/// The ambient state of one request on the thread that installed it.
#[derive(Default)]
pub(crate) struct RequestCtx {
    pub(crate) budget: Option<Budget>,
    pub(crate) trace: Option<TraceSlot>,
    policy: u32,
}

#[derive(Default)]
struct Local {
    ctx: RequestCtx,
    /// Open spans, outermost first.
    frames: Vec<Frame>,
    /// Closed spans not yet merged into the process-wide phase tree:
    /// merged whenever the frame stack empties, so a thread takes the
    /// shared lock once per outermost span instead of once per span.
    staged: PathStats,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::default();
}

/// One part of a [`RequestCtx`], as a setter installs it and its guard
/// holds what it replaced.
pub(crate) enum Part {
    Budget(Option<Budget>),
    Trace(Option<TraceSlot>),
    Policy(u32),
}

impl Part {
    /// Exchanges this value with the same part of `ctx`.
    fn swap(&mut self, ctx: &mut RequestCtx) {
        match self {
            Part::Budget(budget) => std::mem::swap(budget, &mut ctx.budget),
            Part::Trace(trace) => std::mem::swap(trace, &mut ctx.trace),
            Part::Policy(policy) => std::mem::swap(policy, &mut ctx.policy),
        }
    }
}

/// Puts back the one part of the context its setter replaced. Returned
/// by every setter.
#[must_use = "dropping the guard immediately restores the previous context"]
pub struct CtxGuard {
    replaced: Part,
    _not_send: PhantomData<*const ()>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        LOCAL.with(|local| self.replaced.swap(&mut local.borrow_mut().ctx));
    }
}

/// Reads the current thread's context.
pub(crate) fn with<R>(read: impl FnOnce(&RequestCtx) -> R) -> R {
    LOCAL.with(|local| read(&local.borrow().ctx))
}

/// Reads the current thread's context and its open spans, outermost
/// first.
pub(crate) fn with_frames<R>(read: impl FnOnce(&RequestCtx, &[Frame]) -> R) -> R {
    LOCAL.with(|local| {
        let local = local.borrow();
        read(&local.ctx, &local.frames)
    })
}

/// Installs `part` in the current thread's context until the guard
/// drops.
pub(crate) fn scoped(mut part: Part) -> CtxGuard {
    LOCAL.with(|local| part.swap(&mut local.borrow_mut().ctx));
    CtxGuard {
        replaced: part,
        _not_send: PhantomData,
    }
}

/// The current thread's policy word (0 when nothing is overridden).
pub fn policy() -> u32 {
    with(|ctx| ctx.policy)
}

/// Sets the bits of the policy word under `mask` to `bits` until the
/// guard drops. Each crate passes only the mask it was allocated (see
/// the module docs).
pub fn set_policy(mask: u32, bits: u32) -> CtxGuard {
    scoped(Part::Policy((policy() & !mask) | (bits & mask)))
}

/// Pushes a frame for a span that is opening, recording its start in the
/// installed trace.
pub(crate) fn open_span(name: &'static str) {
    LOCAL.with(|local| {
        let local = &mut *local.borrow_mut();
        let id = local
            .ctx
            .trace
            .as_ref()
            .map_or(0, |slot| slot.start(name, &local.frames));
        local.frames.push(Frame { name, id });
    });
}

/// Pops the innermost frame for a span that ran for `elapsed`: records
/// its end in the trace it started in and stages its time under its
/// path.
pub(crate) fn close_span(elapsed: Duration) {
    LOCAL.with(|local| {
        let local = &mut *local.borrow_mut();
        let path: Vec<&'static str> = local.frames.iter().map(|f| f.name).collect();
        let Some(frame) = local.frames.pop() else {
            return;
        };
        if let Some(slot) = &local.ctx.trace {
            slot.end(&frame, local.frames.len());
        }
        span::stage(&mut local.staged, path, elapsed);
        if local.frames.is_empty() {
            span::merge_staged(&mut local.staged);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{self, BudgetSpec, Meter, Phase};
    use crate::trace::{self, Trace};

    /// Each part of the context as its readers see it: the budget by
    /// the node cap a fresh meter counts down, the rest directly.
    fn observe() -> (Option<u64>, bool, Vec<&'static str>, u32) {
        let cap = budget::budget_active().then(|| {
            let mut meter = Meter::start(Phase::Hom);
            std::iter::from_fn(|| meter.tick().then_some(())).count() as u64
        });
        with_frames(|ctx, frames| {
            (
                cap,
                ctx.trace.is_some(),
                frames.iter().map(|f| f.name).collect(),
                ctx.policy,
            )
        })
    }

    #[test]
    fn nested_setters_restore_in_lifo_order_across_fields() {
        let clean = observe();
        let trace = Trace::new();
        {
            let _trace = trace::install(&trace);
            let traced = observe();
            assert!(traced.1);
            {
                let _budget = budget::install_budget(BudgetSpec::new().node_budget(7));
                let budgeted = observe();
                assert_eq!(budgeted.0, Some(7));
                assert!(budgeted.1, "installing a budget keeps the trace");
                {
                    let _engine = set_policy(0b011, 0b001);
                    {
                        let _unowned = set_policy(0b100, 0b100);
                        assert_eq!(observe(), (Some(7), true, vec![], 0b101));
                    }
                    assert_eq!(observe(), (Some(7), true, vec![], 0b001));
                }
                assert_eq!(observe(), budgeted);
            }
            assert_eq!(observe(), traced);
        }
        assert_eq!(observe(), clean);
    }

    #[test]
    fn a_setter_guard_leaves_the_open_frames_alone() {
        let _serial = crate::testlock::serial();
        crate::set_enabled(true);
        {
            let _outer = crate::span("ctx_test.frames_outer");
            let guard = set_policy(0b100, 0b100);
            let _inner = crate::span("ctx_test.frames_inner");
            drop(guard);
            assert_eq!(
                observe().2,
                ["ctx_test.frames_outer", "ctx_test.frames_inner"]
            );
        }
        assert!(observe().2.is_empty());
        crate::set_enabled(false);
    }

    #[test]
    fn an_inner_guard_keeps_what_the_budget_recorded_under_it() {
        let _budget = budget::install_budget(BudgetSpec::new().node_budget(0));
        let trace = Trace::new();
        let inner_guards: [&dyn Fn() -> CtxGuard; 2] =
            [&|| trace::install(&trace), &|| set_policy(0b100, 0b100)];
        for (hits, inner) in (1..).zip(inner_guards) {
            let guard = inner();
            let mut meter = Meter::start(Phase::Hom);
            assert!(!meter.tick());
            drop(guard);
            assert_eq!(budget::budget_snapshot().node_hits, hits);
            assert_eq!(budget::budget_abandoned(Phase::Hom), hits);
        }
    }
}
