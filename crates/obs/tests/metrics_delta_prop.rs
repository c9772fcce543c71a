//! Property tests of snapshot/delta semantics: the difference of two
//! [`viewplan_obs::MetricsSnapshot`]s taken around a burst of recording
//! equals exactly the events recorded in between — **including events
//! from concurrent threads**, which is the contract the serving layer's
//! per-pass attribution (and `benchmark/`'s per-layer counters) relies
//! on.
//!
//! Both properties join all recording threads before the second
//! snapshot, so every generated event falls inside the window; the
//! registry being process-global atomics, nothing can be lost or
//! double-counted, and the delta must be *exact* (not approximate).

use proptest::prelude::*;
use viewplan_obs as obs;

/// The log₂ bucket lower bound `value` lands in (mirrors the registry's
/// bucketing: bucket 0 holds only 0, bucket k holds [2^(k-1), 2^k - 1]).
fn bucket_lo(value: u64) -> u64 {
    match value {
        0 => 0,
        v => {
            let i = 64 - v.leading_zeros() as usize;
            if i == 1 {
                1
            } else {
                1u64 << (i - 1)
            }
        }
    }
}

/// Splits `values` into `threads` chunks and records each chunk on its
/// own thread via `record`, joining all before returning.
fn record_concurrently(values: &[u64], threads: usize, record: fn(u64)) {
    let chunk = values.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        for part in values.chunks(chunk) {
            let part = part.to_vec();
            scope.spawn(move || {
                for &v in &part {
                    record(v);
                }
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Counter deltas equal the sum of increments recorded between the
    /// snapshots, no matter how the increments interleave across
    /// threads.
    #[test]
    fn counter_delta_is_exact_under_concurrent_recording(
        adds in proptest::collection::vec(0u64..1_000, 1..64),
        threads in 1usize..5,
    ) {
        obs::set_enabled(true);
        let before = obs::metrics_snapshot();
        record_concurrently(&adds, threads, |v| {
            obs::counter!("proptest.delta.counter").add(v)
        });
        let delta = obs::metrics_snapshot().delta_since(&before);
        prop_assert_eq!(
            delta.counter("proptest.delta.counter"),
            adds.iter().sum::<u64>()
        );
    }

    /// Histogram deltas carry the exact count, sum, and per-bucket
    /// distribution of the observations recorded between the snapshots.
    #[test]
    fn histogram_delta_is_exact_under_concurrent_recording(
        values in proptest::collection::vec(0u64..1_000_000, 1..64),
        threads in 1usize..5,
    ) {
        obs::set_enabled(true);
        let before = obs::metrics_snapshot();
        record_concurrently(&values, threads, |v| {
            obs::histogram!("proptest.delta.histogram").record(v)
        });
        let after = obs::metrics_snapshot();
        let delta = after.delta_since(&before);
        let h = delta
            .histogram("proptest.delta.histogram")
            .expect("recorded histogram must appear in the delta");
        prop_assert_eq!(h.count, values.len() as u64);
        prop_assert_eq!(h.sum, values.iter().sum::<u64>());
        // Per-bucket: the delta's distribution matches a recount of the
        // generated values, bucket by bucket.
        let mut expected: std::collections::BTreeMap<u64, u64> =
            std::collections::BTreeMap::new();
        for &v in &values {
            *expected.entry(bucket_lo(v)).or_default() += 1;
        }
        let got: std::collections::BTreeMap<u64, u64> =
            h.buckets.iter().map(|b| (b.lo, b.count)).collect();
        prop_assert_eq!(got, expected);
        // min/max are whole-history bounds (documented), so they bound
        // every observation of the interval.
        for &v in &values {
            prop_assert!(h.min <= v && v <= h.max);
        }
    }
}
