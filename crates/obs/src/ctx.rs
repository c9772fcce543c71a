//! The request context: everything ambient about one request, in one
//! thread-local slot.
//!
//! The rewriting pipeline is a pure function of a query, a view set and
//! a cost model. What surrounds a call — the [`Budget`] that may cut it
//! short, the [`Trace`](crate::Trace) that records it, the spans open
//! around it, and the reference overrides the differential tests pin —
//! is one [`RequestCtx`] per thread:
//!
//! * four typed setters update one part each and return a [`CtxGuard`]
//!   that restores what was installed before:
//!   [`budget::install`](crate::budget::install),
//!   [`trace::install`](crate::trace::install) and, through
//!   [`set_policy`], `viewplan_engine::install` and
//!   `viewplan_containment::install_acyclic`;
//! * a worker pool carries the whole context with one [`fork`] on the
//!   spawning thread and one [`RequestCtx::enter`] per worker. `fork` is
//!   a clone, so a field added to the struct reaches every worker with
//!   no edit to any pool.
//!
//! `policy` is an opaque word here: the crates that own behaviour
//! switches own the meaning of their bits, and this crate only keeps
//! them apart. Allocated so far: bits 0–1 `viewplan-engine` (the
//! executor override), bit 2 `viewplan-containment` (acyclic route off).
//!
//! A guard belongs to the thread that made it — dropped anywhere else it
//! would overwrite that thread's context and leave the override in place
//! on its own thread for good — so it is `!Send`:
//!
//! ```compile_fail,E0277
//! let guard = viewplan_obs::budget::install(viewplan_obs::Budget::unlimited());
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
#[derive(Clone)]
pub(crate) struct Frame {
    pub(crate) name: &'static str,
    pub(crate) id: u64,
}

/// The ambient state of one request as one thread sees it. Obtained with
/// [`fork`]; made current on another thread with [`RequestCtx::enter`].
#[derive(Clone, Default)]
pub struct RequestCtx {
    pub(crate) budget: Option<Budget>,
    pub(crate) trace: Option<TraceSlot>,
    /// Open spans, outermost first. On a pool worker the spawning
    /// thread's frames lie underneath the worker's own, so worker spans
    /// aggregate and trace under the span that spawned them.
    pub(crate) frames: Vec<Frame>,
    policy: u32,
}

#[derive(Default)]
struct Local {
    ctx: RequestCtx,
    /// Closed spans not yet merged into the process-wide phase tree:
    /// merged whenever the frame stack is empty, so a thread takes the
    /// shared lock once per outermost span (a pool worker: once, when
    /// its guard drops) instead of once per span.
    staged: PathStats,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::default();
}

/// Restores the context that was current when it was made. Returned by
/// every setter and by [`RequestCtx::enter`].
#[must_use = "dropping the guard immediately restores the previous context"]
pub struct CtxGuard {
    previous: RequestCtx,
    /// Made by `enter`: the frames are restored too. A setter's guard
    /// leaves them alone — they are the thread's own stack.
    entered: bool,
    _not_send: PhantomData<*const ()>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        LOCAL.with(|local| {
            let local = &mut *local.borrow_mut();
            let mut previous = std::mem::take(&mut self.previous);
            if !self.entered {
                previous.frames = std::mem::take(&mut local.ctx.frames);
            }
            local.ctx = previous;
            if local.ctx.frames.is_empty() {
                span::merge_staged(&mut local.staged);
            }
        });
    }
}

/// Reads the current thread's context.
pub(crate) fn with<R>(read: impl FnOnce(&RequestCtx) -> R) -> R {
    LOCAL.with(|local| read(&local.borrow().ctx))
}

/// Applies `update` to the current thread's context until the guard
/// drops.
pub(crate) fn scoped(update: impl FnOnce(&mut RequestCtx)) -> CtxGuard {
    LOCAL.with(|local| {
        let ctx = &mut local.borrow_mut().ctx;
        let frames = std::mem::take(&mut ctx.frames);
        let previous = ctx.clone();
        ctx.frames = frames;
        update(ctx);
        CtxGuard {
            previous,
            entered: false,
            _not_send: PhantomData,
        }
    })
}

/// The current thread's policy word (0 when nothing is overridden).
pub fn policy() -> u32 {
    with(|ctx| ctx.policy)
}

/// Sets the bits of the policy word under `mask` to `bits` until the
/// guard drops. Each crate passes only the mask it was allocated (see
/// the module docs).
pub fn set_policy(mask: u32, bits: u32) -> CtxGuard {
    scoped(|ctx| ctx.policy = (ctx.policy & !mask) | (bits & mask))
}

/// The current thread's context, to carry to other threads.
pub fn fork() -> RequestCtx {
    with(RequestCtx::clone)
}

impl RequestCtx {
    /// Makes this context current on the calling thread until the guard
    /// drops. The thread records into its own buffer of the trace — a
    /// fresh one, unless it is already recording into the same trace, as
    /// the thread that forked is.
    pub fn enter(&self) -> CtxGuard {
        let mut ctx = self.clone();
        LOCAL.with(|local| {
            let here = &mut local.borrow_mut().ctx;
            if let Some(slot) = &mut ctx.trace {
                slot.on_this_thread(here.trace.as_ref());
            }
            CtxGuard {
                previous: std::mem::replace(here, ctx),
                entered: true,
                _not_send: PhantomData,
            }
        })
    }
}

/// Pushes a frame for a span that is opening, recording its start in the
/// installed trace.
pub(crate) fn open_span(name: &'static str) {
    LOCAL.with(|local| {
        let ctx = &mut local.borrow_mut().ctx;
        let id = ctx
            .trace
            .as_ref()
            .map_or(0, |slot| slot.start(name, &ctx.frames));
        ctx.frames.push(Frame { name, id });
    });
}

/// Pops the innermost frame for a span that ran for `elapsed`: records
/// its end in the trace it started in and stages its time under its
/// path.
pub(crate) fn close_span(elapsed: Duration) {
    LOCAL.with(|local| {
        let local = &mut *local.borrow_mut();
        let path: Vec<&'static str> = local.ctx.frames.iter().map(|f| f.name).collect();
        let Some(frame) = local.ctx.frames.pop() else {
            return;
        };
        if let Some(slot) = &local.ctx.trace {
            slot.end(&frame, local.ctx.frames.len());
        }
        span::stage(&mut local.staged, path, elapsed);
        if local.ctx.frames.is_empty() {
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
        let cap = budget::current().map(|_| {
            let mut meter = Meter::start(Phase::Hom);
            std::iter::from_fn(|| meter.tick().then_some(())).count() as u64
        });
        with(|ctx| {
            (
                cap,
                ctx.trace.is_some(),
                ctx.frames.iter().map(|f| f.name).collect(),
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
                let _budget = budget::install(BudgetSpec::new().node_budget(7).build());
                let budgeted = observe();
                assert_eq!(budgeted.0, Some(7));
                assert!(budgeted.1, "installing a budget keeps the trace");
                {
                    let _engine = set_policy(0b011, 0b001);
                    {
                        let _acyclic = set_policy(0b100, 0b100);
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
    fn a_panic_inside_enter_leaves_the_context_as_it_was() {
        let _serial = crate::testlock::serial();
        crate::set_enabled(true);
        let _budget = budget::install(BudgetSpec::new().node_budget(3).build());
        let outer = crate::span("ctx_test.panic_outer");
        let before = observe();
        let foreign = {
            let _other = budget::install(BudgetSpec::new().node_budget(9).build());
            let _policy = set_policy(0b111, 0b110);
            fork()
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _entered = foreign.enter();
            let _inner = crate::span("ctx_test.panic_inner");
            assert_eq!(observe().0, Some(9));
            panic!("boom");
        }));
        assert!(caught.is_err());
        assert_eq!(observe(), before);
        drop(outer);
        crate::set_enabled(false);
    }

    #[test]
    fn workers_get_their_own_buffer_under_the_spawning_span() {
        let _serial = crate::testlock::serial();
        crate::set_enabled(true);
        let trace = Trace::new();
        {
            let _g = trace::install(&trace);
            let _outer = crate::span("ctx_test.pool_outer");
            let parent = fork();
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let parent = parent.clone();
                    std::thread::spawn(move || {
                        let _ctx = parent.enter();
                        let _s = crate::span("ctx_test.pool_item");
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
        let roots = trace.tree();
        assert_eq!(roots.len(), 1, "worker spans nest under the spawner");
        let outer = &roots[0];
        assert_eq!(outer.children.len(), 4);
        let tids: std::collections::BTreeSet<u64> = outer.children.iter().map(|c| c.tid).collect();
        assert_eq!(tids.len(), 4, "each worker wrote its own buffer");
        assert!(!tids.contains(&outer.tid));
        // The aggregate nests the same way, merged when each worker's
        // guard dropped.
        let tree = crate::span_tree();
        let outer = tree
            .iter()
            .find(|n| n.name == "ctx_test.pool_outer")
            .unwrap();
        assert_eq!(outer.children[0].name, "ctx_test.pool_item");
        assert_eq!(outer.children[0].count, 4);
        crate::set_enabled(false);
    }

    #[test]
    fn enter_on_the_thread_that_forked_does_not_re_root_the_trace() {
        let _serial = crate::testlock::serial();
        crate::set_enabled(true);
        let trace = Trace::new();
        {
            let _g = trace::install(&trace);
            let _outer = crate::span("ctx_test.serial_outer");
            let _re = fork().enter();
            let _inner = crate::span("ctx_test.serial_inner");
        }
        let roots = trace.tree();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].children.len(), 1);
        assert_eq!(
            roots[0].children[0].tid, roots[0].tid,
            "the forking thread keeps its buffer"
        );
        crate::set_enabled(false);
    }
}
