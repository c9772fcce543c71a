//! Serving-layer fault injection.
//!
//! PR 3's `VIEWPLAN_FAULT=phase:nth` trips the *nth* budget-meter probe
//! of a search phase; this PR extends the same syntax to the network
//! front-end (`accept`, `read`, `write`) and the live catalog (`swap`).
//! Those points never pass through a search [`Meter`](
//! viewplan_obs::Meter) — [`FaultPoint::is_serving`] keeps them
//! out of `fault_fires` — so the serving layer arms its own countdown
//! here: one process-wide [`ServeFaults`] per server, decremented at
//! each matching probe, firing exactly once when the countdown crosses
//! 1 → 0. The chaos harness relies on the exactly-once semantics to
//! assert "exactly one connection was sacrificed, everything else was
//! answered".

use viewplan_obs::{Fault, FaultPoint};
use viewplan_sync::{AtomicU64, Ordering};

/// An armed serving-layer fault: fires exactly once, at the `nth` probe
/// of its point. A `ServeFaults` built from `None` (or from a
/// search-phase fault, which belongs to the budget subsystem) never
/// fires.
pub struct ServeFaults {
    point: Option<FaultPoint>,
    countdown: AtomicU64,
}

impl ServeFaults {
    /// Arms the countdown when `fault` names a serving-layer point;
    /// search-phase faults are left to the budget meters.
    pub fn new(fault: Option<Fault>) -> ServeFaults {
        match fault {
            Some(f) if f.point.is_serving() => ServeFaults {
                point: Some(f.point),
                countdown: AtomicU64::new(f.nth),
            },
            _ => ServeFaults {
                point: None,
                countdown: AtomicU64::new(0),
            },
        }
    }

    /// Probes the countdown at `point`: true exactly once, at the nth
    /// matching probe. Never true for a non-matching point.
    pub(crate) fn fires(&self, point: FaultPoint) -> bool {
        if self.point != Some(point) {
            return false;
        }
        // Fire on the 1 → 0 transition only; saturate at 0 so the fault
        // stays one-shot under concurrent probes.
        self.countdown
            // ordering: fetch_update's CAS loop already makes the decrement
            // exactly-once; no other memory is published by a firing fault.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok_and(|before| before == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_once_at_the_nth_probe() {
        let faults = ServeFaults::new(Some(Fault {
            point: FaultPoint::Accept,
            nth: 3,
        }));
        assert!(!faults.fires(FaultPoint::Accept));
        assert!(!faults.fires(FaultPoint::Read), "wrong point never fires");
        assert!(!faults.fires(FaultPoint::Accept));
        assert!(faults.fires(FaultPoint::Accept), "third probe fires");
        assert!(!faults.fires(FaultPoint::Accept), "one-shot");
    }

    #[test]
    fn search_phase_faults_never_arm_the_serving_countdown() {
        let faults = ServeFaults::new(Some(Fault {
            point: FaultPoint::Hom,
            nth: 1,
        }));
        assert!(!faults.fires(FaultPoint::Hom));
        assert!(!faults.fires(FaultPoint::Accept));
        let unarmed = ServeFaults::new(None);
        assert!(!unarmed.fires(FaultPoint::Swap));
    }
}
