//! The repo-wide concurrency facade.
//!
//! Every lock, condition variable, atomic, and thread handle used by
//! production code goes through this crate instead of `std::sync` /
//! `std::thread` / `parking_lot` directly (enforced by the `xtask`
//! raw-sync lint). The facade buys three things:
//!
//! 1. **One poisoning policy.** All locks recover from poisoning via
//!    `PoisonError::into_inner` — a panicking holder never wedges the
//!    process, matching the repo's prior parking_lot usage and the
//!    admission queue's hand-rolled recovery.
//! 2. **Model-checkable protocols.** Inside [`model::check`], every
//!    facade operation is an instrumented *yield point*: a deterministic
//!    scheduler serializes the model's threads and explores their
//!    interleavings (DFS with a bounded-preemption cap, or seeded random
//!    for larger models). Production code pays one thread-local lookup
//!    per operation when no model is running.
//! 3. **A single audit surface.** Atomic-ordering sites, nested lock
//!    acquisitions, and raw-primitive escapes are all greppable and
//!    lintable in one place.
//!
//! **What the checker does and does not explore.** The scheduler
//! serializes model threads, so it explores all *sequentially
//! consistent* interleavings up to the preemption bound. It does not
//! model weak-memory reorderings — `Ordering::Relaxed` bugs that only
//! manifest as reordered loads/stores are out of scope (that is what the
//! `// ordering:` justification lint and the graceful-skip TSan CI step
//! are for). Spurious condvar wakeups are not injected, and `notify_one`
//! deterministically wakes the lowest-id waiter.
//!
//! The `thread` module is a plain passthrough: it exists so the
//! raw-sync ban has a single funnel, but it is **not**
//! model-instrumented. Model programs spawn threads with
//! [`model::spawn`] and communicate through facade locks and atomics.

pub use std::sync::atomic::Ordering;

/// Thread passthrough (not model-instrumented): inside [`model::check`]
/// use [`model::spawn`] instead.
pub mod thread {
    pub use std::thread::{
        available_parallelism, scope, sleep, spawn, yield_now, Builder, JoinHandle, Scope,
        ScopedJoinHandle,
    };
}

pub mod model;

use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::sync::RwLockWriteGuard as StdWriteGuard;
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::sync::{PoisonError, TryLockError};
use std::sync::{RwLock as StdRwLock, RwLockReadGuard as StdReadGuard};

// ---------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------

/// A mutual-exclusion lock: `std::sync::Mutex` with parking_lot-style
/// ergonomics (no `Result`, poisoning recovered) and model-checker
/// instrumentation.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// A new unlocked mutex (usable in statics).
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: StdMutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    fn addr(&self) -> usize {
        self as *const Mutex<T> as *const () as usize
    }

    /// Acquires the lock, blocking until it is free. Under a model, the
    /// acquisition is a scheduler decision point and blocking yields to
    /// the other model threads instead of parking the OS thread.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if model::in_model() {
            loop {
                model::step();
                match self.inner.try_lock() {
                    Ok(inner) => {
                        return MutexGuard {
                            lock: self,
                            inner: ManuallyDrop::new(inner),
                        }
                    }
                    Err(TryLockError::Poisoned(poisoned)) => {
                        return MutexGuard {
                            lock: self,
                            inner: ManuallyDrop::new(poisoned.into_inner()),
                        }
                    }
                    Err(TryLockError::WouldBlock) => model::block_on_lock(self.addr()),
                }
            }
        }
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard {
            lock: self,
            inner: ManuallyDrop::new(inner),
        }
    }

    /// Attempts the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        model::step();
        match self.inner.try_lock() {
            Ok(inner) => Some(MutexGuard {
                lock: self,
                inner: ManuallyDrop::new(inner),
            }),
            Err(TryLockError::Poisoned(poisoned)) => Some(MutexGuard {
                lock: self,
                inner: ManuallyDrop::new(poisoned.into_inner()),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// RAII guard for [`Mutex::lock`]; releasing notifies the model
/// scheduler so blocked model threads become runnable.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: ManuallyDrop<StdMutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        let addr = self.lock.addr();
        // SAFETY: the inner guard is dropped exactly once — here; the
        // ManuallyDrop wrapper exists so the release hook below runs
        // strictly after the OS-level unlock.
        unsafe { ManuallyDrop::drop(&mut self.inner) };
        model::on_release(addr);
    }
}

// ---------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------

/// A condition variable paired with the facade [`Mutex`]. Under a model,
/// waiting releases the mutex and deschedules the thread atomically (no
/// other model thread runs in between), and notification wakes the
/// lowest-id waiter deterministically.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: StdCondvar,
}

impl Condvar {
    /// A new condition variable (usable in statics).
    pub const fn new() -> Condvar {
        Condvar {
            inner: StdCondvar::new(),
        }
    }

    fn addr(&self) -> usize {
        self as *const Condvar as usize
    }

    /// Releases `guard`'s mutex and blocks until notified, then
    /// reacquires the mutex. As with any condvar, callers must re-check
    /// their predicate in a loop.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let lock = guard.lock;
        if model::in_model() {
            // Release-and-block is atomic from the other threads'
            // perspective: no yield point separates the drop from the
            // deschedule, so a notification cannot be lost in between.
            drop(guard);
            model::block_on_condvar(self.addr());
            return lock.lock();
        }
        let mut outer = ManuallyDrop::new(guard);
        // SAFETY: the inner guard moves into `wait` and the wrapper is
        // never dropped, so the guard is consumed exactly once.
        let inner = unsafe { ManuallyDrop::take(&mut outer.inner) };
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        MutexGuard {
            lock,
            inner: ManuallyDrop::new(inner),
        }
    }

    /// Wakes one waiter (the lowest-id model thread under a model).
    pub fn notify_one(&self) {
        if model::in_model() {
            model::step();
            model::notify_condvar(self.addr(), false);
            return;
        }
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        if model::in_model() {
            model::step();
            model::notify_condvar(self.addr(), true);
            return;
        }
        self.inner.notify_all();
    }
}

// ---------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------

/// A reader-writer lock: `std::sync::RwLock` with poisoning recovered
/// and model-checker instrumentation. Blocked readers and writers share
/// one wait set per lock (wakeups on any release re-attempt the
/// acquisition, which is conservative but complete).
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: StdRwLock<T>,
}

impl<T> RwLock<T> {
    /// A new unlocked lock (usable in statics).
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: StdRwLock::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    fn addr(&self) -> usize {
        self as *const RwLock<T> as *const () as usize
    }

    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        if model::in_model() {
            loop {
                model::step();
                match self.inner.try_read() {
                    Ok(inner) => {
                        return RwLockReadGuard {
                            lock: self,
                            inner: ManuallyDrop::new(inner),
                        }
                    }
                    Err(TryLockError::Poisoned(poisoned)) => {
                        return RwLockReadGuard {
                            lock: self,
                            inner: ManuallyDrop::new(poisoned.into_inner()),
                        }
                    }
                    Err(TryLockError::WouldBlock) => model::block_on_lock(self.addr()),
                }
            }
        }
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        RwLockReadGuard {
            lock: self,
            inner: ManuallyDrop::new(inner),
        }
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        if model::in_model() {
            loop {
                model::step();
                match self.inner.try_write() {
                    Ok(inner) => {
                        return RwLockWriteGuard {
                            lock: self,
                            inner: ManuallyDrop::new(inner),
                        }
                    }
                    Err(TryLockError::Poisoned(poisoned)) => {
                        return RwLockWriteGuard {
                            lock: self,
                            inner: ManuallyDrop::new(poisoned.into_inner()),
                        }
                    }
                    Err(TryLockError::WouldBlock) => model::block_on_lock(self.addr()),
                }
            }
        }
        let inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        RwLockWriteGuard {
            lock: self,
            inner: ManuallyDrop::new(inner),
        }
    }

    /// Attempts shared read access without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        model::step();
        match self.inner.try_read() {
            Ok(inner) => Some(RwLockReadGuard {
                lock: self,
                inner: ManuallyDrop::new(inner),
            }),
            Err(TryLockError::Poisoned(poisoned)) => Some(RwLockReadGuard {
                lock: self,
                inner: ManuallyDrop::new(poisoned.into_inner()),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Attempts exclusive write access without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        model::step();
        match self.inner.try_write() {
            Ok(inner) => Some(RwLockWriteGuard {
                lock: self,
                inner: ManuallyDrop::new(inner),
            }),
            Err(TryLockError::Poisoned(poisoned)) => Some(RwLockWriteGuard {
                lock: self,
                inner: ManuallyDrop::new(poisoned.into_inner()),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// RAII guard for [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: ManuallyDrop<StdReadGuard<'a, T>>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        let addr = self.lock.addr();
        // SAFETY: dropped exactly once; see MutexGuard::drop.
        unsafe { ManuallyDrop::drop(&mut self.inner) };
        model::on_release(addr);
    }
}

/// RAII guard for [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: ManuallyDrop<StdWriteGuard<'a, T>>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        let addr = self.lock.addr();
        // SAFETY: dropped exactly once; see MutexGuard::drop.
        unsafe { ManuallyDrop::drop(&mut self.inner) };
        model::on_release(addr);
    }
}

// ---------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------

macro_rules! int_atomic {
    ($(#[$meta:meta])* $name:ident, $prim:ty) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        pub struct $name(std::sync::atomic::$name);

        impl $name {
            /// A new atomic (usable in statics and consts).
            pub const fn new(value: $prim) -> $name {
                $name(std::sync::atomic::$name::new(value))
            }

            /// Atomic load.
            pub fn load(&self, order: Ordering) -> $prim {
                model::step();
                self.0.load(order)
            }

            /// Atomic store.
            pub fn store(&self, value: $prim, order: Ordering) {
                model::step();
                self.0.store(value, order)
            }

            /// Atomic swap, returning the previous value.
            pub fn swap(&self, value: $prim, order: Ordering) -> $prim {
                model::step();
                self.0.swap(value, order)
            }

            /// Atomic add, returning the previous value.
            pub fn fetch_add(&self, value: $prim, order: Ordering) -> $prim {
                model::step();
                self.0.fetch_add(value, order)
            }

            /// Atomic subtract, returning the previous value.
            pub fn fetch_sub(&self, value: $prim, order: Ordering) -> $prim {
                model::step();
                self.0.fetch_sub(value, order)
            }

            /// Atomic minimum, returning the previous value.
            pub fn fetch_min(&self, value: $prim, order: Ordering) -> $prim {
                model::step();
                self.0.fetch_min(value, order)
            }

            /// Atomic maximum, returning the previous value.
            pub fn fetch_max(&self, value: $prim, order: Ordering) -> $prim {
                model::step();
                self.0.fetch_max(value, order)
            }

            /// Atomic compare-exchange.
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                model::step();
                self.0.compare_exchange(current, new, success, failure)
            }

            /// Atomic read-modify-write loop; `f` returning `None` aborts.
            pub fn fetch_update<F>(
                &self,
                set_order: Ordering,
                fetch_order: Ordering,
                f: F,
            ) -> Result<$prim, $prim>
            where
                F: FnMut($prim) -> Option<$prim>,
            {
                model::step();
                self.0.fetch_update(set_order, fetch_order, f)
            }
        }
    };
}

int_atomic! {
    /// Facade `AtomicU8`: each operation is a model yield point.
    AtomicU8, u8
}
int_atomic! {
    /// Facade `AtomicU64`: each operation is a model yield point.
    AtomicU64, u64
}
int_atomic! {
    /// Facade `AtomicUsize`: each operation is a model yield point.
    AtomicUsize, usize
}

/// Facade `AtomicBool`: each operation is a model yield point.
#[derive(Debug, Default)]
pub struct AtomicBool(std::sync::atomic::AtomicBool);

impl AtomicBool {
    /// A new atomic flag (usable in statics and consts).
    pub const fn new(value: bool) -> AtomicBool {
        AtomicBool(std::sync::atomic::AtomicBool::new(value))
    }

    /// Atomic load.
    pub fn load(&self, order: Ordering) -> bool {
        model::step();
        self.0.load(order)
    }

    /// Atomic store.
    pub fn store(&self, value: bool, order: Ordering) {
        model::step();
        self.0.store(value, order)
    }

    /// Atomic swap, returning the previous value.
    pub fn swap(&self, value: bool, order: Ordering) -> bool {
        model::step();
        self.0.swap(value, order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_round_trips_and_try_lock_contends() {
        let m = Mutex::new(7u32);
        {
            let mut g = m.lock();
            *g += 1;
            assert!(m.try_lock().is_none(), "held lock refuses try_lock");
        }
        assert_eq!(*m.lock(), 8);
        assert_eq!(m.into_inner(), 8);
    }

    #[test]
    fn rwlock_allows_shared_readers() {
        let l = RwLock::new(1u32);
        let r1 = l.read();
        let r2 = l.read();
        assert_eq!(*r1 + *r2, 2);
        assert!(l.try_write().is_none(), "readers block the writer");
        drop((r1, r2));
        *l.write() = 5;
        assert_eq!(*l.read(), 5);
    }

    #[test]
    fn condvar_wakes_a_real_waiter() {
        use std::sync::Arc;
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut ready = m.lock();
            while !*ready {
                ready = cv.wait(ready);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_one();
        }
        t.join().unwrap();
    }

    #[test]
    fn poisoned_lock_recovers() {
        use std::sync::Arc;
        let m = Arc::new(Mutex::new(3u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison on purpose");
        })
        .join();
        assert_eq!(*m.lock(), 3, "poisoned mutex still readable");
    }

    #[test]
    fn atomics_delegate() {
        let a = AtomicU64::new(10);
        assert_eq!(a.fetch_add(5, Ordering::SeqCst), 10);
        assert_eq!(a.fetch_min(7, Ordering::SeqCst), 15);
        assert_eq!(a.load(Ordering::SeqCst), 7);
        let b = AtomicBool::new(false);
        assert!(!b.swap(true, Ordering::SeqCst));
        assert!(b.load(Ordering::SeqCst));
    }
}
