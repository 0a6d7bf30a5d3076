//! The exact integer histogram and cross-trial aggregation.

use crate::{HistogramSketch, Welford};

/// An exact count-per-value histogram over small non-negative integers:
/// index `i` holds how many times the value `i` occurred.
///
/// As a load histogram, the paper's tables, it counts the bins holding
/// exactly `i` balls ([`LoadHistogram::from_loads`], or
/// [`LoadHistogram::from_counts`] from occupancy counters a table
/// already keeps). As an online tracker ([`LoadHistogram::record`]) it
/// counts observations: the per-op quantities an engine sees — landing
/// loads, winning probe indices, per-key stack depths — are tiny
/// integers (max load is `O(log log n)`), so the histogram costs a few
/// words, every percentile is exact rather than approximated, mean and
/// standard deviation need no parallel accumulator, and
/// [`LoadHistogram::merge`] (shard → engine aggregation) is lossless.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadHistogram {
    counts: Vec<u64>,
}

impl LoadHistogram {
    /// Builds a histogram from per-bin loads.
    pub fn from_loads(loads: &[u32]) -> Self {
        let max = loads.iter().copied().max().unwrap_or(0) as usize;
        let mut counts = vec![0u64; max + 1];
        for &l in loads {
            counts[l as usize] += 1;
        }
        Self { counts }
    }

    /// Builds a histogram directly from counts (index = value).
    pub fn from_counts(counts: Vec<u64>) -> Self {
        Self { counts }
    }

    /// Records one observation of `value`.
    #[inline]
    pub fn record(&mut self, value: u32) {
        let idx = value as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Number of bins with load exactly `i` (observations equal to `i`).
    pub fn count(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// Number of bins with load at least `i` (the tail the fluid limit
    /// tracks as `X_i`).
    pub fn tail_count(&self, i: usize) -> u64 {
        if i >= self.counts.len() {
            return 0;
        }
        self.counts[i..].iter().sum()
    }

    /// Total number of bins (observations).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total number of balls (Σ i · count(i)), the sum of the observations.
    pub fn sum(&self) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| i as u64 * c)
            .sum()
    }

    /// The maximum load, the largest observation (0 for an empty
    /// histogram).
    pub fn max(&self) -> u32 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(|i| i as u32)
            .unwrap_or(0)
    }

    /// The mean load, the mean observation (0 if empty).
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.sum() as f64 / total as f64
    }

    /// The sample standard deviation (0 with fewer than 2 observations).
    pub fn std_dev(&self) -> f64 {
        let total = self.total();
        if total < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let sq_dev: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(value, &count)| {
                let delta = value as f64 - mean;
                delta * delta * count as f64
            })
            .sum();
        (sq_dev / (total - 1) as f64).sqrt()
    }

    /// The exact `p`-th percentile (nearest-rank; `p` in `[0, 100]`),
    /// or 0 if the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u32 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (value, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return value as u32;
            }
        }
        self.max()
    }

    /// Fraction of bins with load exactly `i`.
    pub fn fraction(&self, i: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(i) as f64 / total as f64
        }
    }

    /// Fraction of bins with load at least `i`.
    pub fn tail_fraction(&self, i: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.tail_count(i) as f64 / total as f64
        }
    }

    /// The raw count vector (index = value).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Highest load index stored (length of the count vector).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the histogram counts no bins (observations) at all.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Adds another histogram's counts to this one (lossless).
    pub fn merge(&mut self, other: &LoadHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (slot, &count) in self.counts.iter_mut().zip(&other.counts) {
            *slot += count;
        }
    }

    /// Converts this histogram into a bounded-memory [`HistogramSketch`]
    /// with unit-width integer bins covering the observed range — the
    /// export shape for mergeable telemetry. On unit bins the sketch's
    /// percentiles equal this histogram's exactly (the histogram is the
    /// sketch's test oracle).
    ///
    /// Returns `None` when the histogram is empty: it has no
    /// percentiles, and exporting a zeroed sketch would surface
    /// degenerate `p50 = p99 = max = 0` rows downstream.
    pub fn to_sketch(&self) -> Option<HistogramSketch> {
        if self.is_empty() {
            return None;
        }
        let mut sketch = HistogramSketch::unit_bins(self.max().max(1));
        for (value, &count) in self.counts.iter().enumerate() {
            sketch.record_n(value as f64, count);
        }
        Some(sketch)
    }
}

/// Per-load summary across trials: min/avg/max/stddev of the bin count,
/// exactly the columns of the paper's Table 5.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSummary {
    /// The load value this row describes.
    pub load: u32,
    /// Minimum count over trials.
    pub min: f64,
    /// Mean count over trials.
    pub avg: f64,
    /// Maximum count over trials.
    pub max: f64,
    /// Sample standard deviation over trials.
    pub std_dev: f64,
}

/// Aggregates load histograms across independent trials.
///
/// Tracks, for every load value, a [`Welford`] accumulator of the per-trial
/// bin count, plus a [`LoadHistogram`] of per-trial maximum loads — enough
/// to regenerate every load-distribution table in the paper.
#[derive(Debug, Clone, Default)]
pub struct TrialAccumulator {
    per_load: Vec<Welford>,
    max_loads: LoadHistogram,
    trials: u64,
    bins_per_trial: u64,
}

impl TrialAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one trial's histogram.
    ///
    /// # Panics
    ///
    /// Panics if the histogram's bin count differs from previous trials
    /// (mixed-size trials indicate a harness bug).
    pub fn push(&mut self, hist: &LoadHistogram) {
        let bins = hist.total();
        if self.trials == 0 {
            self.bins_per_trial = bins;
        } else {
            assert_eq!(
                bins, self.bins_per_trial,
                "all trials must use the same number of bins"
            );
        }
        if hist.len() > self.per_load.len() {
            // New load levels were never observed before: every earlier
            // trial contributed a count of 0 at those levels.
            self.per_load.resize(hist.len(), zero_welford(self.trials));
        }
        for (load, acc) in self.per_load.iter_mut().enumerate() {
            acc.push(hist.count(load) as f64);
        }
        self.max_loads.record(hist.max());
        self.trials += 1;
    }

    /// Merges another accumulator (for parallel trial runners).
    ///
    /// # Panics
    ///
    /// Panics if the two accumulators ran different bin counts.
    pub fn merge(&mut self, other: &TrialAccumulator) {
        if other.trials == 0 {
            return;
        }
        if self.trials == 0 {
            *self = other.clone();
            return;
        }
        assert_eq!(
            self.bins_per_trial, other.bins_per_trial,
            "cannot merge accumulators with different bin counts"
        );
        // Align lengths. A trial in which no bin reached load L contributes
        // count 0 for L, so pad shorter accumulators with zero observations.
        let len = self.per_load.len().max(other.per_load.len());
        self.per_load.resize(len, zero_welford(self.trials));
        let mut other_load = other.per_load.clone();
        other_load.resize(len, zero_welford(other.trials));
        for (mine, theirs) in self.per_load.iter_mut().zip(&other_load) {
            mine.merge(theirs);
        }
        self.max_loads.merge(&other.max_loads);
        self.trials += other.trials;
    }

    /// Number of trials aggregated.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Number of bins per trial.
    pub fn bins_per_trial(&self) -> u64 {
        self.bins_per_trial
    }

    /// Mean fraction of bins with load exactly `i`, averaged over trials —
    /// the numbers in the paper's Tables 1, 3, 6, 7.
    pub fn mean_fraction(&self, load: usize) -> f64 {
        if self.trials == 0 || self.bins_per_trial == 0 {
            return 0.0;
        }
        self.per_load
            .get(load)
            .map(|w| w.mean() / self.bins_per_trial as f64)
            .unwrap_or(0.0)
    }

    /// Mean fraction of bins with load at least `i` (Table 2's tail form).
    pub fn mean_tail_fraction(&self, load: usize) -> f64 {
        (load..self.per_load.len().max(load))
            .map(|l| self.mean_fraction(l))
            .sum()
    }

    /// Fraction of trials whose maximum load was exactly `m` (Table 4).
    pub fn max_load_fraction(&self, m: usize) -> f64 {
        self.max_loads.fraction(m)
    }

    /// Fraction of trials whose maximum load was at least `m`.
    pub fn max_load_tail_fraction(&self, m: usize) -> f64 {
        self.max_loads.tail_fraction(m)
    }

    /// Largest load observed in any trial.
    pub fn overall_max_load(&self) -> u32 {
        self.max_loads.max()
    }

    /// Per-load min/avg/max/stddev rows (Table 5), for loads `0..len`.
    pub fn summaries(&self) -> Vec<LoadSummary> {
        self.per_load
            .iter()
            .enumerate()
            .map(|(load, w)| LoadSummary {
                load: load as u32,
                min: w.min(),
                avg: w.mean(),
                max: w.max(),
                std_dev: w.std_dev(),
            })
            .collect()
    }

    /// The per-load Welford accumulators (index = load).
    pub fn per_load(&self) -> &[Welford] {
        &self.per_load
    }
}

/// A Welford accumulator representing `trials` observations of exactly 0 —
/// what a load level that never appeared in any of those trials looks like.
fn zero_welford(trials: u64) -> Welford {
    let mut w = Welford::new();
    for _ in 0..trials {
        w.push(0.0);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_from_loads() {
        let h = LoadHistogram::from_loads(&[0, 1, 1, 2, 0, 0]);
        assert_eq!(h.count(0), 3);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(2), 1);
        assert_eq!(h.count(3), 0);
        assert_eq!(h.total(), 6);
        assert_eq!(h.sum(), 4);
        assert_eq!(h.max(), 2);
    }

    #[test]
    fn histogram_tail_counts() {
        let h = LoadHistogram::from_loads(&[0, 1, 1, 2, 3]);
        assert_eq!(h.tail_count(0), 5);
        assert_eq!(h.tail_count(1), 4);
        assert_eq!(h.tail_count(2), 2);
        assert_eq!(h.tail_count(3), 1);
        assert_eq!(h.tail_count(4), 0);
        assert_eq!(h.tail_count(100), 0);
    }

    #[test]
    fn histogram_fractions_sum_to_one() {
        let h = LoadHistogram::from_loads(&[0, 0, 1, 2, 2, 2, 5]);
        let total: f64 = (0..=5).map(|i| h.fraction(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram() {
        let h = LoadHistogram::from_loads(&[]);
        assert!(h.is_empty());
        assert_eq!(h.max(), 0);
        assert_eq!(h.fraction(0), 0.0);
        assert_eq!(h.tail_fraction(3), 0.0);
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut t = LoadHistogram::default();
        for v in [1u32, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            t.record(v);
        }
        assert_eq!(t.total(), 10);
        assert_eq!(t.percentile(0.0), 1);
        assert_eq!(t.percentile(50.0), 5);
        assert_eq!(t.percentile(90.0), 9);
        assert_eq!(t.percentile(99.0), 10);
        assert_eq!(t.percentile(100.0), 10);
        assert_eq!(t.max(), 10);
        assert!((t.mean() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn empty_percentiles_return_zero() {
        let t = LoadHistogram::default();
        assert_eq!(t.percentile(50.0), 0);
        assert_eq!(t.max(), 0);
        assert_eq!(t.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn out_of_range_percentile_panics() {
        LoadHistogram::default().percentile(101.0);
    }

    #[test]
    fn merge_equals_sequential_recording() {
        let mut whole = LoadHistogram::default();
        let mut left = LoadHistogram::default();
        let mut right = LoadHistogram::default();
        for i in 0..100u32 {
            let v = (i * 7) % 13;
            whole.record(v);
            if i < 40 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        assert_eq!(left.counts(), whole.counts());
        assert_eq!(left.total(), whole.total());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.std_dev() - whole.std_dev()).abs() < 1e-9);
        for p in [0.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            assert_eq!(left.percentile(p), whole.percentile(p), "p{p}");
        }
    }

    #[test]
    fn merge_differing_counts_lengths_both_directions() {
        // Short-into-long must not truncate; long-into-short must grow.
        let mut short = LoadHistogram::default();
        short.record(1);
        let mut long = LoadHistogram::default();
        long.record(10);
        long.record(2);

        let mut a = short.clone();
        a.merge(&long);
        let mut b = long.clone();
        b.merge(&short);
        assert_eq!(a, b, "merge must commute on contents");
        assert_eq!(a.total(), 3);
        assert_eq!(a.max(), 10);
        assert_eq!(a.counts().len(), 11);
        assert_eq!(a.percentile(100.0), 10);
        assert_eq!(a.percentile(0.0), 1);
    }

    #[test]
    fn to_sketch_percentiles_match_the_exact_tracker() {
        let mut tracker = LoadHistogram::default();
        for i in 0..500u32 {
            tracker.record((i * 13) % 23);
        }
        let sketch = tracker.to_sketch().expect("tracker has observations");
        assert_eq!(sketch.count(), tracker.total());
        for p in [0.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            assert_eq!(
                sketch.percentile(p),
                f64::from(tracker.percentile(p)),
                "p{p}: unit-bin sketch must be exact"
            );
        }
        assert_eq!(sketch.max(), f64::from(tracker.max()));
        // An empty histogram has no percentiles to export: no sketch.
        assert!(LoadHistogram::default().to_sketch().is_none());
    }

    #[test]
    fn accumulator_mean_fraction() {
        let mut acc = TrialAccumulator::new();
        acc.push(&LoadHistogram::from_loads(&[0, 1, 1, 2])); // 1/4 at load 0
        acc.push(&LoadHistogram::from_loads(&[0, 0, 1, 1])); // 2/4 at load 0
        assert_eq!(acc.trials(), 2);
        assert_eq!(acc.bins_per_trial(), 4);
        assert!((acc.mean_fraction(0) - 0.375).abs() < 1e-12);
        assert!((acc.mean_fraction(1) - 0.5).abs() < 1e-12);
        assert!((acc.mean_fraction(2) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn accumulator_tail_fraction_consistent() {
        let mut acc = TrialAccumulator::new();
        acc.push(&LoadHistogram::from_loads(&[0, 1, 2, 2]));
        let sum_parts = acc.mean_fraction(1) + acc.mean_fraction(2);
        assert!((acc.mean_tail_fraction(1) - sum_parts).abs() < 1e-12);
    }

    #[test]
    fn accumulator_max_load_fractions() {
        let mut acc = TrialAccumulator::new();
        acc.push(&LoadHistogram::from_loads(&[1, 1, 2])); // max 2
        acc.push(&LoadHistogram::from_loads(&[1, 3, 0])); // max 3
        acc.push(&LoadHistogram::from_loads(&[2, 1, 1])); // max 2
        assert!((acc.max_load_fraction(2) - 2.0 / 3.0).abs() < 1e-12);
        assert!((acc.max_load_fraction(3) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(acc.max_load_fraction(1), 0.0);
        assert!((acc.max_load_tail_fraction(2) - 1.0).abs() < 1e-12);
        assert!((acc.max_load_tail_fraction(3) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(acc.overall_max_load(), 3);
    }

    #[test]
    fn merge_equals_sequential_pushes() {
        let h1 = LoadHistogram::from_loads(&[0, 1, 1, 2]);
        let h2 = LoadHistogram::from_loads(&[3, 0, 1, 0]);
        let h3 = LoadHistogram::from_loads(&[1, 1, 1, 1]);

        let mut seq = TrialAccumulator::new();
        seq.push(&h1);
        seq.push(&h2);
        seq.push(&h3);

        let mut a = TrialAccumulator::new();
        a.push(&h1);
        let mut b = TrialAccumulator::new();
        b.push(&h2);
        b.push(&h3);
        a.merge(&b);

        assert_eq!(a.trials(), seq.trials());
        for load in 0..4 {
            assert!(
                (a.mean_fraction(load) - seq.mean_fraction(load)).abs() < 1e-12,
                "load {load}"
            );
            let (sa, ss) = (&a.per_load()[load], &seq.per_load()[load]);
            assert!((sa.std_dev() - ss.std_dev()).abs() < 1e-9, "load {load}");
        }
        for m in 0..4 {
            assert_eq!(a.max_load_fraction(m), seq.max_load_fraction(m));
        }
    }

    #[test]
    fn merge_pads_missing_high_loads_with_zeros() {
        // First accumulator saw a load-5 bin; second never did. After the
        // merge, the load-5 Welford must count the second's trials as zeros.
        let mut a = TrialAccumulator::new();
        a.push(&LoadHistogram::from_counts(vec![1, 0, 0, 0, 0, 1]));
        let mut b = TrialAccumulator::new();
        b.push(&LoadHistogram::from_counts(vec![1, 1]));
        b.push(&LoadHistogram::from_counts(vec![2, 0]));
        a.merge(&b);
        assert_eq!(a.per_load()[5].count(), 3);
        assert!((a.mean_fraction(5) - (1.0 / 3.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn summaries_match_table5_shape() {
        let mut acc = TrialAccumulator::new();
        acc.push(&LoadHistogram::from_loads(&[0, 1, 1, 2]));
        acc.push(&LoadHistogram::from_loads(&[1, 1, 1, 1]));
        let rows = acc.summaries();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].load, 1);
        assert_eq!(rows[1].min, 2.0);
        assert_eq!(rows[1].max, 4.0);
        assert!((rows[1].avg - 3.0).abs() < 1e-12);
        assert!(rows[1].std_dev > 0.0);
    }

    #[test]
    #[should_panic(expected = "same number of bins")]
    fn mismatched_bin_counts_rejected() {
        let mut acc = TrialAccumulator::new();
        acc.push(&LoadHistogram::from_loads(&[0, 1]));
        acc.push(&LoadHistogram::from_loads(&[0, 1, 2]));
    }
}
