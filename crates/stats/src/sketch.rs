//! A mergeable bounded-memory quantile summary: the fixed-bin histogram
//! accumulator.
//!
//! The exact integer histogram, [`LoadHistogram`](crate::LoadHistogram),
//! costs `O(largest value)` memory and holds only non-negative integers.
//! For an indefinitely-running server — and for cross-process
//! aggregation — telemetry needs a summary whose memory is fixed at
//! construction and whose `merge` is a vector add. This module provides
//! exactly that: a histogram over *configurable bin edges* that records
//! `f64` observations, merges losslessly with any same-shaped sketch,
//! and answers percentile queries with a documented resolution bound of
//! **one bin width**. [`LoadHistogram::to_sketch`](crate::LoadHistogram::to_sketch)
//! exports the exact histogram on unit bins, where the two agree exactly.

use std::fmt;

/// A mergeable fixed-bin histogram accumulator over `f64` observations.
///
/// Construction fixes a strictly ascending sequence of *upper* bin edges
/// `e_0 < e_1 < … < e_{k-1}`; an observation `v` lands in the first bin
/// whose edge satisfies `v <= e_i` (so bin `i` covers `(e_{i-1}, e_i]`,
/// with bin 0 covering `(-inf, e_0]`). Values above the last edge land in
/// a dedicated overflow bin. Alongside the bins the sketch tracks exact
/// `count`, `sum`, `min`, and `max`, so mean and extrema carry no
/// resolution error at all.
///
/// # Accuracy
///
/// [`HistogramSketch::percentile`] answers with the upper edge of the bin
/// holding the nearest-rank observation (clamped to the exact tracked
/// maximum). Since the true value lies inside that same bin, the absolute
/// error is bounded by that bin's width `e_i - e_{i-1}`; with
/// [`HistogramSketch::unit_bins`] edges (width 1 over integers) sketch
/// percentiles are *exact*. Observations in the overflow bin report the
/// exact maximum.
///
/// # Merging
///
/// [`HistogramSketch::merge`] requires both sketches to share identical
/// edges (the intended deployment: every process constructs its sketches
/// from the same config) and is then lossless — merging per-shard or
/// per-node sketches equals having recorded every observation into one.
///
/// # Example
///
/// ```
/// use ba_stats::HistogramSketch;
///
/// let mut a = HistogramSketch::uniform(0.0, 100.0, 20); // width-5 bins
/// let mut b = a.clone();
/// for v in 0..50 {
///     a.record(v as f64);
/// }
/// for v in 50..100 {
///     b.record(v as f64);
/// }
/// a.merge(&b);
/// assert_eq!(a.count(), 100);
/// let p50 = a.percentile(50.0);
/// assert!((p50 - 49.0).abs() <= 5.0, "within one bin of exact: {p50}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSketch {
    /// Strictly ascending upper bin edges.
    edges: Vec<f64>,
    /// `edges.len() + 1` counters; the last is the overflow bin for
    /// observations above the final edge.
    bins: Vec<u64>,
    count: u64,
    sum: f64,
    /// Exact extrema; meaningful only while `count > 0`.
    min: f64,
    max: f64,
}

impl HistogramSketch {
    /// Creates a sketch over the given strictly ascending, finite upper
    /// bin edges. Memory is fixed at `edges.len() + 1` counters forever.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty, contains a non-finite value, or is not
    /// strictly ascending.
    pub fn new(edges: Vec<f64>) -> Self {
        assert!(!edges.is_empty(), "sketch needs at least one bin edge");
        assert!(
            edges.iter().all(|e| e.is_finite()),
            "bin edges must be finite"
        );
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "bin edges must be strictly ascending"
        );
        let bins = vec![0u64; edges.len() + 1];
        Self {
            edges,
            bins,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// A sketch with `bins` equal-width bins spanning `(start, end]` —
    /// the micromegas-style uniform accumulator. Values at or below
    /// `start` land in the first bin; values above `end` overflow.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero or `start >= end` (or either is
    /// non-finite).
    pub fn uniform(start: f64, end: f64, bins: usize) -> Self {
        assert!(bins > 0, "sketch needs at least one bin");
        assert!(
            start.is_finite() && end.is_finite() && start < end,
            "uniform sketch needs a finite ascending span"
        );
        let width = (end - start) / bins as f64;
        Self::new((1..=bins).map(|i| start + width * i as f64).collect())
    }

    /// A sketch with unit-width integer bins `0, 1, …, max_value` — the
    /// shape that makes small-integer percentiles (bin loads, probe
    /// indices) exact.
    pub fn unit_bins(max_value: u32) -> Self {
        Self::new((0..=max_value).map(f64::from).collect())
    }

    /// A sketch with power-of-two edges `1, 2, 4, …, 2^max_exponent` —
    /// the log-spaced shape suited to latency-style observations whose
    /// interesting structure spans orders of magnitude. Relative
    /// percentile error is bounded by 2x (one octave bin).
    pub fn log2_bins(max_exponent: u32) -> Self {
        Self::new((0..=max_exponent).map(|e| (1u64 << e) as f64).collect())
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: f64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical observations at once (the bulk path used
    /// when converting exact histograms into sketches).
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite — a NaN would silently poison
    /// `sum`/`min`/`max` while landing in the overflow bin.
    pub fn record_n(&mut self, value: f64, n: u64) {
        assert!(value.is_finite(), "sketch observations must be finite");
        if n == 0 {
            return;
        }
        // First edge >= value; edges.len() means overflow.
        let idx = self.edges.partition_point(|&e| e < value);
        self.bins[idx] += n;
        self.count += n;
        self.sum += value * n as f64;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// The number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The exact sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The exact mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum / self.count as f64
    }

    /// The exact minimum observation (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.min
    }

    /// The exact maximum observation (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.max
    }

    /// The configured upper bin edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Per-bin counts; one longer than [`HistogramSketch::edges`], the
    /// final slot being the overflow bin.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// The nearest-rank `p`-th percentile (`p` in `[0, 100]`), resolved
    /// to bin granularity: the upper edge of the bin containing the
    /// rank-`ceil(p/100 · count)` observation, clamped to the exact
    /// maximum. Returns 0 if empty.
    ///
    /// The absolute error versus the exact nearest-rank value is bounded
    /// by the width of the answering bin (see the type-level docs);
    /// overflow-bin answers are the exact maximum.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &count) in self.bins.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return match self.edges.get(idx) {
                    Some(&edge) => edge.min(self.max),
                    None => self.max, // overflow bin: exact tracked max
                };
            }
        }
        self.max
    }

    /// Merges another sketch into this one. Lossless: bins, count, sum,
    /// and extrema all add/compose exactly.
    ///
    /// # Panics
    ///
    /// Panics if the two sketches were built over different bin edges —
    /// cross-shape merging would silently misattribute mass, so it is a
    /// configuration error, not a best-effort path.
    pub fn merge(&mut self, other: &HistogramSketch) {
        assert!(
            self.edges == other.edges,
            "sketch merge requires identical bin edges"
        );
        for (slot, &count) in self.bins.iter_mut().zip(&other.bins) {
            *slot += count;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for HistogramSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sketch[{} bins, n={}, mean={:.3}, p50={:.3}, p99={:.3}, max={:.3}]",
            self.bins.len(),
            self.count,
            self.mean(),
            self.percentile(50.0),
            self.percentile(99.0),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_percentile(sorted: &[f64], p: f64) -> f64 {
        let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    #[test]
    fn unit_bins_make_integer_percentiles_exact() {
        let mut sketch = HistogramSketch::unit_bins(16);
        let mut values: Vec<f64> = (0..100u32).map(|i| f64::from((i * 7) % 13)).collect();
        for &v in &values {
            sketch.record(v);
        }
        values.sort_by(f64::total_cmp);
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(sketch.percentile(p), exact_percentile(&values, p), "p{p}");
        }
        assert_eq!(sketch.max(), 12.0);
        assert_eq!(sketch.min(), 0.0);
    }

    #[test]
    fn percentile_error_is_bounded_by_bin_width() {
        let width = 8.0;
        let mut sketch = HistogramSketch::uniform(0.0, 256.0, 32);
        let mut values: Vec<f64> = (0..500u32).map(|i| f64::from((i * 37) % 250)).collect();
        for &v in &values {
            sketch.record(v);
        }
        values.sort_by(f64::total_cmp);
        for p in [0.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            let exact = exact_percentile(&values, p);
            let approx = sketch.percentile(p);
            assert!(
                (approx - exact).abs() <= width,
                "p{p}: |{approx} - {exact}| > {width}"
            );
        }
    }

    #[test]
    fn overflow_bin_reports_exact_max() {
        let mut sketch = HistogramSketch::uniform(0.0, 10.0, 10);
        sketch.record(3.0);
        sketch.record(1_000_000.5);
        assert_eq!(sketch.bins().last(), Some(&1));
        assert_eq!(sketch.percentile(100.0), 1_000_000.5);
        assert_eq!(sketch.max(), 1_000_000.5);
    }

    #[test]
    fn merge_equals_sequential_recording() {
        let mk = || HistogramSketch::log2_bins(10);
        let (mut whole, mut left, mut right) = (mk(), mk(), mk());
        for i in 0..200u32 {
            let v = f64::from((i * 31) % 700);
            whole.record(v);
            if i % 3 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(left.percentile(p), whole.percentile(p), "p{p}");
        }
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut populated = HistogramSketch::unit_bins(8);
        for v in [1.0, 2.0, 2.0, 5.0] {
            populated.record(v);
        }
        let reference = populated.clone();
        populated.merge(&HistogramSketch::unit_bins(8));
        assert_eq!(populated, reference);
        let mut empty = HistogramSketch::unit_bins(8);
        empty.merge(&reference);
        assert_eq!(empty, reference);
    }

    #[test]
    #[should_panic(expected = "identical bin edges")]
    fn merge_rejects_mismatched_edges() {
        let mut a = HistogramSketch::unit_bins(4);
        a.merge(&HistogramSketch::unit_bins(5));
    }

    #[test]
    fn empty_sketch_is_all_zeros() {
        let sketch = HistogramSketch::uniform(0.0, 1.0, 4);
        assert!(sketch.is_empty());
        assert_eq!(sketch.percentile(50.0), 0.0);
        assert_eq!(sketch.mean(), 0.0);
        assert_eq!(sketch.min(), 0.0);
        assert_eq!(sketch.max(), 0.0);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut bulk = HistogramSketch::unit_bins(8);
        let mut single = HistogramSketch::unit_bins(8);
        bulk.record_n(3.0, 5);
        bulk.record_n(7.0, 0); // no-op
        for _ in 0..5 {
            single.record(3.0);
        }
        assert_eq!(bulk, single);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_edges_rejected() {
        let _ = HistogramSketch::new(vec![1.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_observation_rejected() {
        HistogramSketch::unit_bins(2).record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn out_of_range_percentile_panics() {
        HistogramSketch::unit_bins(2).percentile(-1.0);
    }

    #[test]
    fn display_is_compact_and_total() {
        let mut sketch = HistogramSketch::unit_bins(4);
        sketch.record(2.0);
        let text = format!("{sketch}");
        assert!(text.contains("n=1"), "{text}");
    }
}
