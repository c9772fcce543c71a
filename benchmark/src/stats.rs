//! Order statistics for latency samples and for the `repeat` report.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of ascending `sorted`, interpolating
/// linearly between the two closest ranks. Empty input gives 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted {
        [] => 0.0,
        [only] => *only,
        _ => {
            let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(sorted.len() - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method), which is what the driver uses to judge spread. Fewer than
/// two values give that value three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v, v, v];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median: the driver's spread.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values
        .iter()
        .map(|v| v.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / values.len() as f64)
        .exp()
}

/// Where the `q`-quantile of a sample falls when the sample is made of
/// clusters of `sizes` observations, cheapest cluster first: the cluster's
/// index and the position inside it, 0 at its cheapest observation and 1
/// at its dearest. A percentile that lands near 0 or 1 sits on a
/// boundary between two clusters and jumps between them from run to run.
/// The workloads' tests hold their pool sizes to this.
#[cfg(test)]
pub fn cluster_position(q: f64, sizes: &[usize]) -> (usize, f64) {
    let total: usize = sizes.iter().sum();
    let rank = q.clamp(0.0, 1.0) * total.saturating_sub(1) as f64;
    let mut first = 0usize;
    for (cluster, &size) in sizes.iter().enumerate() {
        let last = first + size.saturating_sub(1);
        if rank <= last as f64 || cluster + 1 == sizes.len() {
            let inside = if size > 1 {
                (rank - first as f64) / (size - 1) as f64
            } else {
                0.5
            };
            return (cluster, inside);
        }
        if rank < (last + 1) as f64 {
            // Between the dearest of this cluster and the cheapest of the
            // next: on the boundary.
            return (cluster, 1.0);
        }
        first += size;
    }
    (0, 0.0)
}

/// Latency samples in nanoseconds, summarised in microseconds.
pub struct Latencies {
    sorted_us: Vec<f64>,
}

impl Latencies {
    pub fn from_nanos(nanos: &[u64]) -> Latencies {
        let mut sorted_us: Vec<f64> = nanos.iter().map(|&n| n as f64 / 1e3).collect();
        sorted_us.sort_by(f64::total_cmp);
        Latencies { sorted_us }
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        percentile(&self.sorted_us, q)
    }

    pub fn max_us(&self) -> f64 {
        self.sorted_us.last().copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let data: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 0.5), 3.0);
        assert_eq!(percentile(&data, 1.0), 5.0);
        assert!((percentile(&data, 0.95) - 4.8).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((relative_spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cluster_position_finds_boundaries() {
        // Twelve observations in clusters of 6, 4 and 2: the median falls
        // between the 6th and the 7th, on the first boundary.
        assert_eq!(cluster_position(0.5, &[6, 4, 2]), (0, 1.0));
        // 4 + 5 + 3: rank 5.5 is inside the second cluster.
        let (cluster, inside) = cluster_position(0.5, &[4, 5, 3]);
        assert_eq!(cluster, 1);
        assert!((0.2..0.8).contains(&inside), "{inside}");
        let (cluster, inside) = cluster_position(0.95, &[150, 150, 150]);
        assert_eq!(cluster, 2);
        assert!((inside - 0.85).abs() < 0.02, "{inside}");
        assert_eq!(cluster_position(0.0, &[3, 3]).0, 0);
        assert_eq!(cluster_position(1.0, &[3, 3]), (1, 1.0));
    }

    #[test]
    fn geo_mean_of_powers() {
        assert!((geo_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geo_mean(&[]), 0.0);
    }

    #[test]
    fn latencies_summarise_in_microseconds() {
        let nanos: Vec<u64> = (1..=1000).map(|n| n * 1000).collect();
        let l = Latencies::from_nanos(&nanos);
        assert!((l.quantile_us(0.5) - 500.5).abs() < 1e-9);
        assert_eq!(l.max_us(), 1000.0);
    }
}
