//! A miniature loom/CHESS-style interleaving model checker.
//!
//! [`check`] runs a closure (the *model*) many times. Each run spawns
//! real OS threads via [`spawn`], but a step-lock scheduler admits
//! exactly one model thread at a time: every facade operation (lock,
//! unlock, condvar wait/notify, atomic access) is a *yield point* where
//! the running thread parks and the scheduler picks who runs next. A
//! model is therefore a deterministic function of its schedule, and the
//! explorer enumerates schedules:
//!
//! * **DFS with a bounded-preemption cap** (the CHESS insight: most
//!   concurrency bugs need only 1–2 preemptions). The scheduler prefers
//!   to keep the current thread running; switching away from a thread
//!   that could continue costs one preemption against the bound.
//!   Context switches forced by blocking are free. With a small model
//!   this exhausts every schedule up to the bound.
//! * **Seeded random walk** for models too large to exhaust: uniform
//!   choices from a deterministic LCG, reproducible per seed.
//!
//! A panic in any model thread (assertion failure), a deadlock (all
//! live threads blocked), or a step-limit overrun aborts the run and is
//! reported as a [`Failure`] carrying the exact thread schedule that
//! produced it — the schedule *is* the bug reproduction.
//!
//! **Scope.** Exploration is sequentially consistent: weak-memory
//! reorderings are not modeled. Model state must be constructed inside
//! the closure (fresh per execution) and the model must be deterministic
//! given a schedule — no wall-clock branching, no RNG.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, PoisonError};

// ---------------------------------------------------------------------
// Shared execution state
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// May be scheduled.
    Runnable,
    /// Waiting for the lock at this address to be released.
    Lock(usize),
    /// Waiting for a notification on the condvar at this address.
    Condvar(usize),
    /// Waiting for this thread id to finish.
    Join(usize),
    /// Ran to completion (or unwound).
    Finished,
}

struct ExecState {
    /// The single thread currently admitted to run (`None` while the
    /// controller is deciding).
    running: Option<usize>,
    status: Vec<Status>,
    /// Chosen thread id per step — the reproduction recipe.
    schedule: Vec<usize>,
    failure: Option<String>,
    /// Set on failure/deadlock: every parked thread unwinds and exits.
    abort: bool,
}

struct Shared {
    state: StdMutex<ExecState>,
    cv: StdCondvar,
    handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            state: StdMutex::new(ExecState {
                running: None,
                status: Vec::new(),
                schedule: Vec::new(),
                failure: None,
                abort: false,
            }),
            cv: StdCondvar::new(),
            handles: StdMutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ExecState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[derive(Clone)]
struct Ctx {
    shared: Arc<Shared>,
    id: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

fn ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

/// Whether the current thread is a scheduled model thread.
pub(crate) fn in_model() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// Unwind payload used to wind model threads down after an abort;
/// swallowed by the thread wrapper, never reported.
struct ModelAbort;

/// Parks the calling model thread with `status` and blocks until the
/// controller schedules it again (its status back to `Runnable` and the
/// running token assigned to it).
fn park(shared: &Shared, id: usize, status: Status) {
    let mut st = shared.lock();
    st.status[id] = status;
    st.running = None;
    shared.cv.notify_all();
    loop {
        if st.abort {
            drop(st);
            panic::panic_any(ModelAbort);
        }
        if st.running == Some(id) {
            return;
        }
        st = shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
}

/// First admission of a freshly spawned thread: unlike [`park`] it must
/// not touch the running token — the spawner still holds it.
fn wait_first_admission(shared: &Shared, id: usize) {
    let mut st = shared.lock();
    loop {
        if st.abort {
            drop(st);
            panic::panic_any(ModelAbort);
        }
        if st.running == Some(id) {
            return;
        }
        st = shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
}

/// A yield point: outside a model this is a no-op; inside, the thread
/// offers the scheduler a decision point and waits to be re-admitted.
pub(crate) fn step() {
    if let Some(ctx) = ctx() {
        park(&ctx.shared, ctx.id, Status::Runnable);
    }
}

/// Blocks the calling model thread until the lock at `addr` is released.
pub(crate) fn block_on_lock(addr: usize) {
    if let Some(ctx) = ctx() {
        park(&ctx.shared, ctx.id, Status::Lock(addr));
    }
}

/// Blocks the calling model thread until the condvar at `addr` is
/// notified.
pub(crate) fn block_on_condvar(addr: usize) {
    if let Some(ctx) = ctx() {
        park(&ctx.shared, ctx.id, Status::Condvar(addr));
    }
}

/// Marks threads blocked on the lock at `addr` runnable (they re-attempt
/// the acquisition when scheduled).
pub(crate) fn on_release(addr: usize) {
    if let Some(ctx) = ctx() {
        let mut st = ctx.shared.lock();
        for status in st.status.iter_mut() {
            if *status == Status::Lock(addr) {
                *status = Status::Runnable;
            }
        }
    }
}

/// Wakes waiters of the condvar at `addr`: all of them, or
/// deterministically the lowest-id one.
pub(crate) fn notify_condvar(addr: usize, all: bool) {
    if let Some(ctx) = ctx() {
        let mut st = ctx.shared.lock();
        for status in st.status.iter_mut() {
            if *status == Status::Condvar(addr) {
                *status = Status::Runnable;
                if !all {
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Model threads
// ---------------------------------------------------------------------

/// Handle to a thread spawned with [`spawn`].
pub struct JoinHandle<T> {
    id: usize,
    result: Arc<StdMutex<Option<T>>>,
    shared: Option<Arc<Shared>>,
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish and returns its result (`None` if
    /// it panicked — the panic itself is already recorded as the run's
    /// failure).
    // lock-order: scheduler state lock, then (after it is released by the
    // scope's end) the result slot — never both at once; `park` re-takes
    // the state lock only after this scope's guard is dropped.
    pub fn join(self) -> Option<T> {
        if let (Some(shared), Some(ctx)) = (self.shared.as_ref(), ctx()) {
            loop {
                let finished = { shared.lock().status[self.id] == Status::Finished };
                if finished {
                    break;
                }
                park(shared, ctx.id, Status::Join(self.id));
            }
        }
        self.result
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model thread panicked".to_string()
    }
}

/// Runs `body` as model thread `id`: installs the scheduler context,
/// waits for its first admission, and records panics as the run failure.
fn run_model_thread(shared: Arc<Shared>, id: usize, body: impl FnOnce()) {
    CTX.with(|c| {
        *c.borrow_mut() = Some(Ctx {
            shared: shared.clone(),
            id,
        })
    });
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        // First admission: a spawned thread is runnable immediately but
        // runs only when scheduled.
        let Some(ctx) = ctx() else { return };
        wait_first_admission(&ctx.shared, ctx.id);
        body();
    }));
    CTX.with(|c| *c.borrow_mut() = None);
    let mut st = shared.lock();
    if let Err(payload) = outcome {
        if payload.downcast_ref::<ModelAbort>().is_none() && st.failure.is_none() {
            st.failure = Some(panic_message(payload.as_ref()));
            st.abort = true;
        }
    }
    st.status[id] = Status::Finished;
    for status in st.status.iter_mut() {
        if *status == Status::Join(id) {
            *status = Status::Runnable;
        }
    }
    st.running = None;
    shared.cv.notify_all();
}

/// Spawns a model thread. Must be called from inside a model (the
/// [`check`] closure or another model thread); outside a model the
/// closure runs inline, so shared test helpers stay usable.
// lock-order: scheduler state, result slot, and the handle registry are
// each taken and released in sequence (every guard is a temporary in its
// own statement); no two of them are ever held together.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let Some(ctx) = ctx() else {
        let result = Arc::new(StdMutex::new(Some(f())));
        return JoinHandle {
            id: usize::MAX,
            result,
            shared: None,
        };
    };
    // Spawning is itself a visible effect: give the scheduler a
    // decision point before the new thread becomes runnable.
    step();
    let shared = ctx.shared.clone();
    let id = {
        let mut st = shared.lock();
        st.status.push(Status::Runnable);
        st.status.len() - 1
    };
    let result = Arc::new(StdMutex::new(None));
    let slot = result.clone();
    let thread_shared = shared.clone();
    let spawned = std::thread::Builder::new()
        .name(format!("vp-model-{id}"))
        .spawn(move || {
            run_model_thread(thread_shared.clone(), id, move || {
                let value = f();
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
            });
        });
    match spawned {
        Ok(handle) => shared
            .handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(handle),
        Err(_) => {
            // OS thread exhaustion: mark the slot finished so the run
            // fails by assertion (missing result) instead of hanging.
            shared.lock().status[id] = Status::Finished;
        }
    }
    JoinHandle {
        id,
        result,
        shared: Some(shared),
    }
}

// ---------------------------------------------------------------------
// Exploration
// ---------------------------------------------------------------------

/// Exploration parameters; build with [`Config::dfs`] or
/// [`Config::random`].
#[derive(Clone, Debug)]
pub struct Config {
    /// Maximum scheduler-forced switches away from a runnable thread
    /// (DFS mode; random mode ignores it).
    pub preemption_bound: u32,
    /// Safety cap on executions; hitting it marks the report
    /// non-exhaustive.
    pub max_executions: u64,
    /// Safety cap on scheduler steps per execution (livelock guard).
    pub max_steps: usize,
    /// `Some((iterations, seed))` switches to the random-walk explorer.
    pub random: Option<(u64, u64)>,
}

impl Config {
    /// Exhaustive DFS up to `preemption_bound` preemptions.
    pub fn dfs(preemption_bound: u32) -> Config {
        Config {
            preemption_bound,
            max_executions: 500_000,
            max_steps: 20_000,
            random: None,
        }
    }

    /// Seeded random walk of `iterations` executions.
    pub fn random(iterations: u64, seed: u64) -> Config {
        Config {
            preemption_bound: u32::MAX,
            max_executions: iterations,
            max_steps: 20_000,
            random: Some((iterations, seed)),
        }
    }
}

/// One schedule that violated an invariant (assertion panic), deadlocked,
/// or overran the step limit.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The panic/deadlock message.
    pub message: String,
    /// Thread id chosen at each scheduler step — replaying these choices
    /// reproduces the bug deterministically.
    pub schedule: Vec<usize>,
}

/// The result of [`check`].
#[derive(Clone, Debug)]
pub struct Report {
    /// Executions (interleavings) explored.
    pub executions: u64,
    /// True when DFS exhausted every schedule within the preemption
    /// bound (always false for random mode and after a failure).
    pub exhaustive: bool,
    /// Longest execution seen, in scheduler steps.
    pub max_steps: usize,
    /// The first invariant violation found, if any.
    pub failure: Option<Failure>,
}

impl Report {
    /// True when no schedule violated an invariant.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }

    /// One-line summary for EXPERIMENTS-style tables.
    pub fn summary(&self) -> String {
        format!(
            "{} execution(s), {} max steps, {}{}",
            self.executions,
            self.max_steps,
            if self.exhaustive {
                "exhaustive"
            } else {
                "bounded"
            },
            match &self.failure {
                Some(f) => format!(", FAILED: {} @ {:?}", f.message, f.schedule),
                None => String::new(),
            }
        )
    }
}

/// One DFS decision point: the candidate threads in trial order and the
/// index currently being replayed.
struct Decision {
    candidates: Vec<usize>,
    next: usize,
}

enum Explorer {
    Dfs {
        stack: Vec<Decision>,
    },
    Random {
        rng: u64,
        done: u64,
        iterations: u64,
    },
}

impl Explorer {
    fn new(config: &Config) -> Explorer {
        match config.random {
            Some((iterations, seed)) => Explorer::Random {
                // Same scramble as splitmix64 seeding so seed 0 works.
                rng: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
                done: 0,
                iterations,
            },
            None => Explorer::Dfs { stack: Vec::new() },
        }
    }

    /// Picks the thread to run at `step`. Replays the DFS prefix, then
    /// extends with the non-preemptive default first. Returns `None` if
    /// the replayed choice is no longer enabled (a nondeterministic
    /// model).
    fn choose(
        &mut self,
        step: usize,
        enabled: &[usize],
        prev: Option<usize>,
        preemptions: &mut u32,
        config: &Config,
    ) -> Option<usize> {
        let prev_enabled = prev.is_some_and(|p| enabled.contains(&p));
        let chosen = match self {
            Explorer::Dfs { stack } => {
                if step < stack.len() {
                    let decision = &stack[step];
                    let c = decision.candidates[decision.next];
                    if !enabled.contains(&c) {
                        return None;
                    }
                    c
                } else {
                    let candidates = match (prev, prev_enabled) {
                        (Some(p), true) => {
                            let mut cs = vec![p];
                            if *preemptions < config.preemption_bound {
                                cs.extend(enabled.iter().copied().filter(|&e| e != p));
                            }
                            cs
                        }
                        _ => enabled.to_vec(),
                    };
                    let c = candidates[0];
                    stack.push(Decision {
                        candidates,
                        next: 0,
                    });
                    c
                }
            }
            Explorer::Random { rng, .. } => {
                let pool: Vec<usize> = match (prev, prev_enabled) {
                    (Some(p), true) if *preemptions >= config.preemption_bound => vec![p],
                    _ => enabled.to_vec(),
                };
                *rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                pool[((*rng >> 33) as usize) % pool.len()]
            }
        };
        if let Some(p) = prev {
            if prev_enabled && chosen != p {
                *preemptions += 1;
            }
        }
        Some(chosen)
    }

    /// Advances to the next schedule. Returns false when exploration is
    /// complete (DFS exhausted or random iterations spent).
    fn advance(&mut self) -> bool {
        match self {
            Explorer::Dfs { stack } => {
                while let Some(top) = stack.last_mut() {
                    top.next += 1;
                    if top.next < top.candidates.len() {
                        return true;
                    }
                    stack.pop();
                }
                false
            }
            Explorer::Random {
                done, iterations, ..
            } => {
                *done += 1;
                *done < *iterations
            }
        }
    }
}

struct ExecOutcome {
    steps: usize,
    failure: Option<Failure>,
}

// lock-order: scheduler state, then handle registry — in sequence, each
// guard dropped before the next acquisition; the scheduling loop holds
// only the state lock, releasing it across every condvar wait.
fn run_one<F>(config: &Config, explorer: &mut Explorer, f: Arc<F>) -> ExecOutcome
where
    F: Fn() + Send + Sync + 'static,
{
    let shared = Arc::new(Shared::new());
    shared.lock().status.push(Status::Runnable);
    let thread_shared = shared.clone();
    let spawned = std::thread::Builder::new()
        .name("vp-model-0".to_string())
        .spawn(move || run_model_thread(thread_shared.clone(), 0, move || f()));
    match spawned {
        Ok(handle) => shared
            .handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(handle),
        Err(e) => {
            return ExecOutcome {
                steps: 0,
                failure: Some(Failure {
                    message: format!("could not spawn model thread: {e}"),
                    schedule: Vec::new(),
                }),
            }
        }
    }

    let mut prev: Option<usize> = None;
    let mut preemptions = 0u32;
    let mut steps = 0usize;
    let failure: Option<Failure>;
    loop {
        let mut st = shared.lock();
        while st.running.is_some() {
            st = shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if st.abort || st.failure.is_some() {
            failure = st.failure.take().map(|message| Failure {
                message,
                schedule: st.schedule.clone(),
            });
            st.abort = true;
            shared.cv.notify_all();
            break;
        }
        let enabled: Vec<usize> = st
            .status
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Status::Runnable)
            .map(|(i, _)| i)
            .collect();
        let alive = st.status.iter().any(|s| *s != Status::Finished);
        if !alive {
            failure = None;
            break;
        }
        if enabled.is_empty() {
            failure = Some(Failure {
                message: "deadlock: every live thread is blocked".to_string(),
                schedule: st.schedule.clone(),
            });
            st.abort = true;
            shared.cv.notify_all();
            break;
        }
        if steps >= config.max_steps {
            failure = Some(Failure {
                message: format!("step limit {} exceeded (livelock?)", config.max_steps),
                schedule: st.schedule.clone(),
            });
            st.abort = true;
            shared.cv.notify_all();
            break;
        }
        let Some(choice) = explorer.choose(steps, &enabled, prev, &mut preemptions, config) else {
            failure = Some(Failure {
                message: "nondeterministic model: replayed choice not enabled".to_string(),
                schedule: st.schedule.clone(),
            });
            st.abort = true;
            shared.cv.notify_all();
            break;
        };
        st.schedule.push(choice);
        st.running = Some(choice);
        prev = Some(choice);
        steps += 1;
        shared.cv.notify_all();
    }
    // Wind-down: every surviving thread sees `abort`, unwinds, and
    // exits; join them before the next execution reuses global state.
    let handles: Vec<_> = shared
        .handles
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .drain(..)
        .collect();
    for handle in handles {
        let _ = handle.join();
    }
    ExecOutcome { steps, failure }
}

/// Installs (once per process) a panic hook that stays quiet for model
/// threads: their panics are captured and reported as [`Failure`]s, so
/// the default backtrace spew would only be noise.
fn install_quiet_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !in_model() {
                previous(info);
            }
        }));
    });
}

/// Explores interleavings of the model `f` under `config`. `f` is run
/// once per schedule; it must construct all model state itself (fresh
/// per execution) and spawn its threads with [`spawn`].
pub fn check<F>(config: &Config, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    install_quiet_panic_hook();
    let f = Arc::new(f);
    let mut explorer = Explorer::new(config);
    let mut report = Report {
        executions: 0,
        exhaustive: false,
        max_steps: 0,
        failure: None,
    };
    loop {
        let outcome = run_one(config, &mut explorer, f.clone());
        report.executions += 1;
        report.max_steps = report.max_steps.max(outcome.steps);
        if outcome.failure.is_some() {
            report.failure = outcome.failure;
            return report;
        }
        if !explorer.advance() {
            report.exhaustive = config.random.is_none();
            return report;
        }
        if report.executions >= report_cap(config) {
            return report;
        }
    }
}

fn report_cap(config: &Config) -> u64 {
    config.max_executions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AtomicU64, Condvar, Mutex, Ordering};

    #[test]
    fn finds_the_lost_update_race() {
        // Classic non-atomic read-modify-write: two threads load, then
        // store load+1. Some interleaving loses one update.
        let report = check(&Config::dfs(2), || {
            let counter = Arc::new(AtomicU64::new(0));
            let t1 = {
                let c = counter.clone();
                spawn(move || {
                    let v = c.load(Ordering::SeqCst);
                    c.store(v + 1, Ordering::SeqCst);
                })
            };
            let t2 = {
                let c = counter.clone();
                spawn(move || {
                    let v = c.load(Ordering::SeqCst);
                    c.store(v + 1, Ordering::SeqCst);
                })
            };
            t1.join();
            t2.join();
            assert_eq!(counter.load(Ordering::SeqCst), 2, "lost update");
        });
        let failure = report.failure.expect("the race must be found");
        assert!(failure.message.contains("lost update"), "{failure:?}");
        assert!(!failure.schedule.is_empty());
    }

    #[test]
    fn mutex_protects_the_update() {
        let report = check(&Config::dfs(2), || {
            let counter = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let c = counter.clone();
                    spawn(move || {
                        let mut g = c.lock();
                        *g += 1;
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(*counter.lock(), 2);
        });
        assert!(report.ok(), "{}", report.summary());
        assert!(report.exhaustive);
        assert!(report.executions > 1, "more than one interleaving explored");
    }

    #[test]
    fn fetch_add_is_atomic() {
        let report = check(&Config::dfs(2), || {
            let counter = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let c = counter.clone();
                    spawn(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(counter.load(Ordering::SeqCst), 2);
        });
        assert!(report.ok(), "{}", report.summary());
        assert!(report.exhaustive);
    }

    #[test]
    fn detects_lock_order_deadlock() {
        let report = check(&Config::dfs(2), || {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let t1 = {
                let (a, b) = (a.clone(), b.clone());
                spawn(move || {
                    let _ga = a.lock();
                    let _gb = b.lock();
                })
            };
            let t2 = {
                let (a, b) = (a.clone(), b.clone());
                spawn(move || {
                    let _gb = b.lock();
                    let _ga = a.lock();
                })
            };
            t1.join();
            t2.join();
        });
        let failure = report.failure.expect("AB/BA deadlock must be found");
        assert!(failure.message.contains("deadlock"), "{failure:?}");
    }

    #[test]
    fn condvar_handoff_with_predicate_never_hangs() {
        // The canonical correct pattern: predicate re-checked under the
        // lock. Exhaustively, no schedule loses the wakeup.
        let report = check(&Config::dfs(2), || {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let consumer = {
                let pair = pair.clone();
                spawn(move || {
                    let (m, cv) = &*pair;
                    let mut ready = m.lock();
                    while !*ready {
                        ready = cv.wait(ready);
                    }
                })
            };
            let producer = {
                let pair = pair.clone();
                spawn(move || {
                    let (m, cv) = &*pair;
                    *m.lock() = true;
                    cv.notify_one();
                })
            };
            producer.join();
            consumer.join();
        });
        assert!(report.ok(), "{}", report.summary());
        assert!(report.exhaustive);
    }

    #[test]
    fn condvar_without_predicate_loses_the_wakeup() {
        // Broken pattern: wait unconditionally. The schedule where the
        // producer notifies before the consumer waits deadlocks.
        let report = check(&Config::dfs(2), || {
            let pair = Arc::new((Mutex::new(()), Condvar::new()));
            let consumer = {
                let pair = pair.clone();
                spawn(move || {
                    let (m, cv) = &*pair;
                    let guard = m.lock();
                    drop(cv.wait(guard));
                })
            };
            let producer = {
                let pair = pair.clone();
                spawn(move || {
                    let (_, cv) = &*pair;
                    cv.notify_one();
                })
            };
            producer.join();
            consumer.join();
        });
        let failure = report.failure.expect("lost wakeup must deadlock");
        assert!(failure.message.contains("deadlock"), "{failure:?}");
    }

    #[test]
    fn rwlock_readers_share_and_writer_excludes() {
        let report = check(&Config::dfs(2), || {
            let lock = Arc::new(crate::RwLock::new(0u64));
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let l = lock.clone();
                    spawn(move || {
                        let v = *l.read();
                        assert!(v == 0 || v == 7, "torn or partial write seen: {v}");
                    })
                })
                .collect();
            let writer = {
                let l = lock.clone();
                spawn(move || {
                    *l.write() = 7;
                })
            };
            for r in readers {
                r.join();
            }
            writer.join();
        });
        assert!(report.ok(), "{}", report.summary());
    }

    #[test]
    fn random_mode_is_deterministic_per_seed() {
        let model = || {
            let counter = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let c = counter.clone();
                    spawn(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(counter.load(Ordering::SeqCst), 3);
        };
        let a = check(&Config::random(20, 42), model);
        let b = check(&Config::random(20, 42), model);
        assert!(a.ok() && b.ok());
        assert_eq!(a.executions, b.executions);
        assert_eq!(a.max_steps, b.max_steps);
    }

    #[test]
    fn preemption_bound_zero_still_runs_every_thread() {
        // With zero preemptions the scheduler switches only when the
        // current thread blocks or finishes; those forced switches still
        // branch over which thread runs next, so several (but far fewer)
        // schedules are explored.
        let report = check(&Config::dfs(0), || {
            let counter = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let c = counter.clone();
                    spawn(move || {
                        *c.lock() += 1;
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(*counter.lock(), 3);
        });
        assert!(report.ok(), "{}", report.summary());
        assert!(report.exhaustive);
        let bounded = check(&Config::dfs(2), || {
            let counter = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let c = counter.clone();
                    spawn(move || {
                        *c.lock() += 1;
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(*counter.lock(), 3);
        });
        assert!(
            report.executions < bounded.executions,
            "bound 0 ({}) must prune against bound 2 ({})",
            report.executions,
            bounded.executions
        );
    }

    #[test]
    fn execution_cap_marks_report_non_exhaustive() {
        let capped = Config {
            max_executions: 2,
            ..Config::dfs(2)
        };
        let report = check(&capped, || {
            let counter = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let c = counter.clone();
                    spawn(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
        });
        assert!(report.ok());
        assert_eq!(report.executions, 2);
        assert!(!report.exhaustive);
    }
}
