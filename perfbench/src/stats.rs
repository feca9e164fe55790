//! Sample statistics: nearest-rank percentiles and the "ten samples
//! beyond" rule that decides which tail percentile a run may report.

/// Nearest-rank percentile `p` (in `(0, 100]`) of ascending `sorted`:
/// the smallest sample with at least `p`% of the samples at or below it.
/// `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = rank(sorted.len(), p)?;
    sorted.get(rank - 1).copied()
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    Some(((p * n as f64 / 100.0).ceil() as usize).clamp(1, n))
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    rank(n, p).map_or(0, |r| n - r)
}

/// Median of unsorted samples (lower middle for even counts, so the value
/// is always one actually measured); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Latency summary of one sample set.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Summary {
    /// Summarises `samples` (sorted in place); `None` when empty.
    pub fn of(samples: &mut [f64]) -> Option<Summary> {
        samples.sort_by(f64::total_cmp);
        Some(Summary {
            n: samples.len(),
            p50: percentile(samples, 50.0)?,
            p99: percentile(samples, 99.0)?,
        })
    }

    /// Whether at least ten samples lie beyond the reported p99.
    pub fn p99_supported(&self) -> bool {
        beyond(self.n, 99.0) >= 10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.1), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[4.0], 99.0), Some(4.0));
    }

    #[test]
    fn ten_beyond_rule() {
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(0, 99.0), 0);
        assert_eq!(beyond(20, 50.0), 10);
        let mut few: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(!Summary::of(&mut few).unwrap().p99_supported());
        let mut enough: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = Summary::of(&mut enough).unwrap();
        assert!(s.p99_supported());
        assert_eq!((s.p50, s.p99), (499.0, 989.0));
    }

    #[test]
    fn median_is_a_measured_sample() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
