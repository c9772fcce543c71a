//! Bounded, deadline-aware admission control with honest load shedding.
//!
//! A connection thread runs its own request, but only after it has
//! *entered* the [`AdmissionGate`]: `permits` requests run their
//! pipelines at once, at most `capacity` more wait their turn, and
//! everything beyond that is *shed* on arrival. Shedding is never
//! silent: every shed carries a [`ShedReason`], and the wire layer
//! answers it with an explicit `shed` response whose completeness marker
//! is the honest
//! [`Completeness::DeadlineExceeded`](viewplan_obs::Completeness) — the
//! client learns its request did no work, rather than timing out against
//! a server that was never going to reach it.
//!
//! Three verdicts on arrival:
//!
//! * **queue full** — `capacity` requests are already waiting. Admitting
//!   more would only move the failure from an instant, cheap rejection
//!   to a slow, expensive timeout (and take every other request's
//!   latency down with it).
//! * **deadline unmeetable** — the gate projects the wait as `waiting
//!   requests × EWMA service time` and sheds any request whose deadline
//!   falls inside that projection. This is the classic overload
//!   stabilizer: work that would be dead on arrival is never admitted. A
//!   waiter whose deadline lapsed anyway is shed with the same reason
//!   when its turn comes — no work is done for an answer nobody is
//!   waiting for.
//! * **shutting down** — the gate is closed; drain in progress.
//!
//! Turns are taken in arrival order: an arrival that finds every permit
//! held draws a ticket and sleeps on a condvar of its own, and a
//! finishing request passes its permit straight to the oldest ticket —
//! waking that one thread and no other — so a new arrival can never
//! overtake a waiter, and a saturated gate costs one wake-up per
//! request however many are waiting.
//!
//! The service-time estimate is an exponentially weighted moving average
//! (`new = old·7/8 + sample/8`) folded in when a [`Permit`] drops —
//! cheap, lock-free, and deliberately coarse: admission needs the right
//! order of magnitude, not a forecast.
//!
//! Shutdown semantics support graceful drain: after
//! [`AdmissionGate::close`], arrivals shed with
//! [`ShedReason::ShuttingDown`] but requests already waiting keep their
//! turn — an admitted request is a promise.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use viewplan_obs as obs;
use viewplan_sync::{AtomicU64, Condvar, Mutex, Ordering};

/// Why a request was refused at admission.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShedReason {
    /// As many requests as the gate lets wait are already waiting.
    QueueFull,
    /// Projected (or actual) wait exceeds the request's deadline.
    DeadlineUnmeetable,
    /// The server is draining for shutdown.
    ShuttingDown,
}

impl ShedReason {
    /// Stable wire label for this reason.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::DeadlineUnmeetable => "deadline_unmeetable",
            ShedReason::ShuttingDown => "shutting_down",
        }
    }
}

struct State {
    /// Permits currently held. A waiter exists only while every permit
    /// is held: a finishing request passes its permit straight to the
    /// oldest waiter instead of freeing it.
    running: usize,
    /// Tickets below this one have been passed a permit; the waiting
    /// ones follow it, one per sleeper.
    granted: u64,
    /// Where each waiting ticket sleeps, oldest first — one condvar per
    /// waiter, so passing a permit on wakes exactly the thread it is
    /// for.
    sleepers: VecDeque<Arc<Condvar>>,
    closed: bool,
}

/// A counting gate with a bounded FIFO of waiters and deadline-aware
/// admission (see the module docs). [`AdmissionGate::enter`] blocks the
/// calling thread until its turn, or sheds it.
pub struct AdmissionGate {
    // lock-order: leaf — nothing else is locked while it is held (the
    // waiters' condvars all pair with it).
    state: Mutex<State>,
    permits: usize,
    capacity: usize,
    /// EWMA of per-request service time, microseconds. Zero until the
    /// first completion — projection starts optimistic, which only
    /// means the first few requests are admitted on queue length alone.
    service_ewma_us: AtomicU64,
    shed: AtomicU64,
}

/// The right to run one request's pipeline. Dropping it passes the slot
/// to the next waiter and folds the time it was held into the gate's
/// service-time estimate.
pub struct Permit<'a> {
    gate: &'a AdmissionGate,
    admitted: Instant,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let sample = self.admitted.elapsed().as_micros() as u64;
        let ewma = &self.gate.service_ewma_us;
        // ordering: deliberately racy read-modify-write — concurrent
        // completions may drop a sample, which only coarsens an estimate
        // that is already an order-of-magnitude heuristic.
        let old = ewma.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else {
            old - old / 8 + sample / 8
        };
        // ordering: see the load above; admission tolerates stale EWMAs.
        ewma.store(new, Ordering::Relaxed);
        self.gate.release();
    }
}

impl AdmissionGate {
    /// A gate running at most `permits` requests at once with at most
    /// `capacity` more waiting (both clamped to at least 1).
    pub fn new(permits: usize, capacity: usize) -> AdmissionGate {
        AdmissionGate {
            state: Mutex::new(State {
                running: 0,
                granted: 0,
                sleepers: VecDeque::new(),
                closed: false,
            }),
            permits: permits.max(1),
            capacity: capacity.max(1),
            service_ewma_us: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Blocks until this request may run, in arrival order; the error is
    /// the honest reason it will not.
    pub fn enter(&self, deadline: Option<Instant>) -> Result<Permit<'_>, ShedReason> {
        let arrived = Instant::now();
        let mut state = self.state.lock();
        let waiting = state.sleepers.len();
        // ordering: heuristic estimate; a stale EWMA only shifts the
        // projection (requests ahead x service time) by one sample.
        let ewma_us = self.service_ewma_us.load(Ordering::Relaxed);
        let projected_wait = Duration::from_micros(ewma_us * waiting as u64);
        let refused = if state.closed {
            Some(ShedReason::ShuttingDown)
        } else if waiting >= self.capacity {
            Some(ShedReason::QueueFull)
        } else if deadline.is_some_and(|d| arrived + projected_wait >= d) {
            Some(ShedReason::DeadlineUnmeetable)
        } else {
            None
        };
        if let Some(reason) = refused {
            drop(state);
            return Err(self.shed_with(reason));
        }
        let mut admitted = arrived;
        if state.running < self.permits {
            // A free permit means nobody is waiting for one.
            state.running += 1;
        } else {
            let ticket = state.granted + waiting as u64;
            let wake = Arc::new(Condvar::new());
            state.sleepers.push_back(wake.clone());
            while state.granted <= ticket {
                state = wake.wait(state);
            }
            admitted = Instant::now();
            if deadline.is_some_and(|d| admitted >= d) {
                // The deadline lapsed while waiting: honest shed, no
                // work — the permit goes to whoever is next.
                drop(state);
                self.release();
                return Err(self.shed_with(ShedReason::DeadlineUnmeetable));
            }
        }
        drop(state);
        let waited = admitted.duration_since(arrived);
        obs::histogram!("serve.queue_wait_us").record(waited.as_micros() as u64);
        Ok(Permit {
            gate: self,
            admitted,
        })
    }

    /// Gives up one held permit: to the oldest waiter when there is one
    /// (woken once the lock is released, so that it does not run
    /// straight into it), else back to the gate.
    fn release(&self) {
        let mut state = self.state.lock();
        let oldest = state.sleepers.pop_front();
        match oldest {
            Some(_) => state.granted += 1,
            None => state.running -= 1,
        }
        drop(state);
        if let Some(oldest) = oldest {
            oldest.notify_one();
        }
    }

    fn shed_with(&self, reason: ShedReason) -> ShedReason {
        // ordering: monotone tally; readers only want a recent count,
        // not synchronization with the shed request itself.
        self.shed.fetch_add(1, Ordering::Relaxed);
        obs::counter!("serve.shed").incr();
        reason
    }

    /// Closes the gate: arrivals from now on shed with
    /// [`ShedReason::ShuttingDown`]; requests already waiting keep their
    /// turn.
    pub fn close(&self) {
        self.state.lock().closed = true;
    }

    /// Requests currently waiting for a permit.
    pub fn waiting(&self) -> usize {
        self.state.lock().sleepers.len()
    }

    /// Total requests shed since construction.
    pub fn shed_count(&self) -> u64 {
        // ordering: monotone tally read for reporting.
        self.shed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use std::thread;

    type Log = Arc<Mutex<Vec<(&'static str, Result<(), ShedReason>)>>>;

    /// Spawns a thread that enters `gate` with a deadline `patience` from
    /// when it arrives (drawn on the thread, so however late the thread
    /// starts, the request is not dead on arrival) and, before giving its
    /// permit back, appends the verdict to `log` tagged with `tag`.
    fn waiter(
        gate: &Arc<AdmissionGate>,
        tag: &'static str,
        patience: Option<Duration>,
        log: &Log,
    ) -> thread::JoinHandle<()> {
        let (gate, log) = (gate.clone(), log.clone());
        thread::spawn(move || {
            let verdict = gate.enter(patience.map(|p| Instant::now() + p));
            let verdict = verdict.as_ref().map(drop).map_err(|r| *r);
            log.lock().unwrap().push((tag, verdict));
        })
    }

    /// Blocks until `n` requests wait at the gate (arrival is the only
    /// thing that can raise the count, so this cannot miss it), the last
    /// of them `expected`. Fails at once, with the verdicts logged so far,
    /// if `expected` returned instead of waiting — it was shed or
    /// admitted on arrival, and the count will never come.
    fn until_waiting(gate: &AdmissionGate, n: usize, expected: &thread::JoinHandle<()>, log: &Log) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while gate.waiting() != n {
            assert!(
                !expected.is_finished(),
                "waiter {n} returned without waiting: {:?}",
                log.lock().unwrap()
            );
            assert!(Instant::now() < give_up, "never saw {n} waiter(s)");
            thread::yield_now();
        }
    }

    #[test]
    fn full_queue_sheds_with_queue_full() {
        let gate = Arc::new(AdmissionGate::new(1, 2));
        let log = Log::default();
        let running = gate.enter(None).expect("first arrival runs");
        let a = waiter(&gate, "a", None, &log);
        until_waiting(&gate, 1, &a, &log);
        let b = waiter(&gate, "b", None, &log);
        until_waiting(&gate, 2, &b, &log);
        assert_eq!(gate.enter(None).err(), Some(ShedReason::QueueFull));
        assert_eq!(gate.shed_count(), 1);
        assert_eq!(gate.waiting(), 2);
        drop(running);
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(
            *log.lock().unwrap(),
            [("a", Ok(())), ("b", Ok(()))],
            "arrival order"
        );
    }

    #[test]
    fn unmeetable_deadlines_are_shed_on_arrival() {
        let gate = Arc::new(AdmissionGate::new(1, 64));
        // Teach the EWMA that a request takes ~10ms.
        let first = gate.enter(None).unwrap();
        thread::sleep(Duration::from_millis(10));
        drop(first);
        let log = Log::default();
        let running = gate.enter(None).unwrap();
        let a = waiter(&gate, "a", None, &log);
        until_waiting(&gate, 1, &a, &log);
        let b = waiter(&gate, "b", None, &log);
        until_waiting(&gate, 2, &b, &log);
        // Projected wait behind two waiters is ~20ms; a 5ms deadline is
        // dead on arrival.
        let tight = Instant::now() + Duration::from_millis(5);
        assert_eq!(
            gate.enter(Some(tight)).err(),
            Some(ShedReason::DeadlineUnmeetable)
        );
        // A roomy deadline is admitted (and takes its turn behind them).
        let c = waiter(&gate, "c", Some(Duration::from_secs(60)), &log);
        until_waiting(&gate, 3, &c, &log);
        drop(running);
        for t in [a, b, c] {
            t.join().unwrap();
        }
        assert!(log
            .lock()
            .unwrap()
            .iter()
            .all(|(_, verdict)| verdict.is_ok()));
        assert_eq!(gate.shed_count(), 1);
    }

    #[test]
    fn close_sheds_arrivals_but_waiters_keep_their_turn() {
        let gate = Arc::new(AdmissionGate::new(1, 8));
        let log = Log::default();
        let running = gate.enter(None).unwrap();
        let a = waiter(&gate, "a", None, &log);
        until_waiting(&gate, 1, &a, &log);
        let b = waiter(&gate, "b", None, &log);
        until_waiting(&gate, 2, &b, &log);
        gate.close();
        assert_eq!(gate.enter(None).err(), Some(ShedReason::ShuttingDown));
        drop(running);
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(
            *log.lock().unwrap(),
            [("a", Ok(())), ("b", Ok(()))],
            "admitted is a promise"
        );
        assert_eq!(gate.waiting(), 0, "closed + drained");
    }

    #[test]
    // The wait itself is recorded in `serve.queue_wait_us`, a process
    // global: `tests/model_gate_accounting.rs` reads it, alone in its
    // binary.
    fn queue_wait_and_expiry_are_observable() {
        let gate = Arc::new(AdmissionGate::new(1, 8));
        let log = Log::default();
        let running = gate.enter(None).unwrap();
        // Doomed's deadline is drawn before it arrives, so it has lapsed
        // once `patience` has passed since it was seen waiting.
        let patience = Duration::from_millis(50);
        let doomed = waiter(&gate, "doomed", Some(patience), &log);
        until_waiting(&gate, 1, &doomed, &log);
        let patient = waiter(&gate, "patient", None, &log);
        until_waiting(&gate, 2, &patient, &log);
        thread::sleep(patience);
        drop(running);
        doomed.join().unwrap();
        patient.join().unwrap();
        // By name, not by position: a shed waiter holds no permit while
        // it writes, so the two woken threads race to the log.
        let verdicts = log.lock().unwrap();
        let verdict_of = |tag: &str| {
            let found = verdicts.iter().find(|(t, _)| *t == tag);
            found.map(|&(_, verdict)| verdict)
        };
        assert_eq!(
            verdict_of("doomed"),
            Some(Err(ShedReason::DeadlineUnmeetable)),
            "deadline passed while waiting: shed at the head, no permit"
        );
        assert_eq!(verdict_of("patient"), Some(Ok(())), "the next waiter runs");
        assert_eq!(verdicts.len(), 2);
        assert_eq!(gate.shed_count(), 1);
    }
}
