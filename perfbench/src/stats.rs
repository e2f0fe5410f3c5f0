//! Order statistics for the harness: exact nearest-rank quantiles over
//! raw samples (no bucketing — the driver rejects a time that reads the
//! same on every run, and a bucket midpoint would), the
//! median-of-rounds rule, and the percentile eligibility rule.

/// Rounds a timed window is split into; a timing metric is the median
/// over rounds of the per-round statistic.
pub const ROUNDS: usize = 5;

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank `q`-quantile of `sorted` (ascending, non-empty).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank `q`-quantile of unsorted samples; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    (!values.is_empty()).then(|| quantile_sorted(&sorted(values), q))
}

/// Median (mean of the two middle samples when the count is even, so a
/// metric over few rounds still moves with every round).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// Inter-quartile range over the median — the spread the driver computes
/// between runs, here computed between rounds. `None` below 2 samples.
pub fn iqr_over_median(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values);
    // The same "exclusive" quartile rule as Python's
    // `statistics.quantiles(values, n=4)`.
    let at = |p: f64| {
        let pos = p * (v.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, v.len());
        let hi = (lo + 1).min(v.len());
        v[lo - 1] + (pos - lo as f64).clamp(0.0, 1.0) * (v[hi - 1] - v[lo - 1])
    };
    let med = median(&v)?;
    (med != 0.0).then(|| (at(0.75) - at(0.25)) / med)
}

/// Whether `q` may be reported from `n` samples: at least
/// [`TAIL_SAMPLES`] must lie beyond it.
pub fn eligible(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= TAIL_SAMPLES as f64
}

/// Samples tagged with the round they belong to.
#[derive(Debug, Default, Clone)]
pub struct Rounds {
    per_round: Vec<Vec<f64>>,
}

impl Rounds {
    pub fn new() -> Self {
        Self { per_round: vec![Vec::new(); ROUNDS] }
    }

    /// The round of an event `at` seconds into a window of `window`
    /// seconds (events at or past the end fall in the last round).
    pub fn round_of(at: f64, window: f64) -> usize {
        (((at / window) * ROUNDS as f64) as usize).min(ROUNDS - 1)
    }

    pub fn push(&mut self, round: usize, value: f64) {
        self.per_round[round].push(value);
    }

    pub fn count(&self) -> usize {
        self.per_round.iter().map(Vec::len).sum()
    }

    pub fn pooled(&self) -> Vec<f64> {
        self.per_round.iter().flatten().copied().collect()
    }

    /// The per-round `q`-quantiles, over the rounds that have samples.
    pub fn per_round_quantile(&self, q: f64) -> Vec<f64> {
        self.per_round.iter().filter_map(|r| quantile(r, q)).collect()
    }

    /// Median over rounds of the per-round `q`-quantile.
    pub fn median_of_rounds(&self, q: f64) -> Option<f64> {
        median(&self.per_round_quantile(q))
    }

    /// The `q`-quantile for reporting: median over rounds of the
    /// per-round quantile when every round has enough samples beyond
    /// `q`, else the quantile of the pooled samples (a tail that only
    /// the whole window supports).
    pub fn statistic(&self, q: f64) -> Option<f64> {
        if self.per_round.iter().all(|r| eligible(r.len(), q.max(1.0 - q))) {
            self.median_of_rounds(q)
        } else {
            quantile(&self.pooled(), q)
        }
    }

    /// Inter-round spread (IQR / median) of the per-round `q`-quantile.
    pub fn spread(&self, q: f64) -> Option<f64> {
        iqr_over_median(&self.per_round_quantile(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_are_exact_order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        assert_eq!(quantile(&v, 0.5), Some(3.0));
        assert_eq!(quantile(&v, 0.99), Some(5.0));
        assert_eq!(quantile(&v, 0.2), Some(1.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_of_rounds_ignores_one_disturbed_round() {
        let mut r = Rounds::new();
        for round in 0..ROUNDS {
            for i in 0..20 {
                // Round 3 is 10x slower throughout (a host hiccup).
                let base = if round == 3 { 100.0 } else { 10.0 };
                r.push(round, base + i as f64 * 0.01);
            }
        }
        let m = r.median_of_rounds(0.5).unwrap();
        assert!((10.0..10.3).contains(&m), "median of rounds {m}");
        // The pooled mean would have been dragged to ~28.
        assert_eq!(r.count(), 100);
    }

    #[test]
    fn percentile_eligibility_needs_ten_samples_beyond() {
        assert!(eligible(1000, 0.99));
        assert!(!eligible(999, 0.99));
        assert!(eligible(20, 0.5));
        assert!(!eligible(19, 0.5));
        assert!(eligible(200, 0.95));
        assert!(!eligible(100, 0.95));
    }

    #[test]
    fn statistic_falls_back_to_the_pooled_window_for_thin_rounds() {
        let mut r = Rounds::new();
        for i in 0..1500 {
            r.push(i % ROUNDS, i as f64);
        }
        // 300 per round: p50 is per-round eligible, p99 only pooled.
        assert_eq!(r.statistic(0.5), r.median_of_rounds(0.5));
        assert_eq!(r.statistic(0.99), quantile(&r.pooled(), 0.99));
    }

    #[test]
    fn iqr_matches_the_exclusive_quartile_rule() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = iqr_over_median(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn round_of_clamps_to_the_window() {
        assert_eq!(Rounds::round_of(0.0, 10.0), 0);
        assert_eq!(Rounds::round_of(9.99, 10.0), ROUNDS - 1);
        assert_eq!(Rounds::round_of(12.0, 10.0), ROUNDS - 1);
        assert_eq!(Rounds::round_of(2.0, 10.0), 1);
    }
}
