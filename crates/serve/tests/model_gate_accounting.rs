//! The admission gate's accounting model, alone in its test binary: it
//! runs with obs collection on — a process-wide switch that would
//! change, mid-exploration, the code any model running beside it
//! executes — and counts samples of the process-global
//! `serve.queue_wait_us` histogram (whose values it also checks, on real
//! threads, once the model is done). The gate's other models live in
//! `model_interleavings.rs`.

use std::sync::Arc;
use viewplan_serve::AdmissionGate;
use viewplan_sync::model;

/// (iv) Accounting, with collection on: over every schedule of two
/// arrivals racing a close and a third arrival after it, `sheds +
/// permits granted == enters` and `serve.queue_wait_us` gained exactly
/// one sample per permit granted.
#[test]
fn every_enter_is_one_permit_or_one_shed_with_one_queue_wait_sample_per_permit() {
    // Settle lazy global state (obs handle registration) before any
    // exploration: executions must be a pure function of the schedule.
    viewplan_obs::set_enabled(true);
    let warm = AdmissionGate::new(1, 1);
    drop(warm.enter(None));
    warm.close();
    let _ = warm.enter(None);
    let queue_wait_samples =
        || viewplan_obs::histogram_snapshot("serve.queue_wait_us").map_or(0, |h| h.count);
    let report = model::check(&model::Config::dfs(2), move || {
        let samples_before = queue_wait_samples();
        let gate = Arc::new(AdmissionGate::new(1, 1));
        let arrivals: Vec<_> = (0..2)
            .map(|_| {
                let gate = gate.clone();
                model::spawn(move || gate.enter(None).is_ok())
            })
            .collect();
        gate.close();
        assert!(gate.enter(None).is_err(), "closed");
        let granted = arrivals
            .into_iter()
            .map(|a| a.join().expect("each enter resolves"))
            .filter(|&admitted| admitted)
            .count() as u64;
        assert_eq!(gate.shed_count() + granted, 3, "sheds + permits == enters");
        assert_eq!(queue_wait_samples() - samples_before, granted);
    });
    eprintln!("model gate_accounting: {}", report.summary());
    assert!(report.ok(), "{}", report.summary());
    assert!(report.exhaustive, "DFS must exhaust the bounded schedules");

    // The sample is the wait: a request held back 5 ms records >= 5 ms.
    let gate = Arc::new(AdmissionGate::new(1, 1));
    let held = gate.enter(None).expect("an empty gate admits");
    let waiter = {
        let gate = gate.clone();
        std::thread::spawn(move || drop(gate.enter(None)))
    };
    while gate.waiting() == 0 {
        std::thread::yield_now();
    }
    std::thread::sleep(std::time::Duration::from_millis(5));
    drop(held);
    waiter.join().unwrap();
    let longest = viewplan_obs::histogram_snapshot("serve.queue_wait_us").map_or(0, |h| h.max);
    assert!(longest >= 5_000, "longest recorded wait: {longest} us");
}
