//! Property tests for [`HistogramSketch`]: percentiles within one bin of
//! exact, and merge associativity/losslessness.

use ba_stats::{HistogramSketch, LoadHistogram};
use proptest::collection::vec;
use proptest::prelude::*;

/// Exact nearest-rank percentile over a sorted sample — the oracle the
/// sketch is measured against.
fn exact_percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

proptest! {
    /// The headline accuracy contract: for arbitrary integer-valued
    /// observations and an arbitrary uniform bin width, every sketch
    /// percentile is within one bin width of the exact nearest-rank
    /// value.
    #[test]
    fn percentiles_within_one_bin_of_exact(
        raw in vec(0u32..400, 1..300),
        width in 1u32..16,
    ) {
        let width = f64::from(width);
        // Edges cover the full observed range so only the documented
        // bin-resolution error remains (no overflow truncation).
        let bins = (400.0 / width).ceil() as usize + 1;
        let mut sketch = HistogramSketch::uniform(0.0, width * bins as f64, bins);
        let mut values: Vec<f64> = raw.iter().map(|&v| f64::from(v)).collect();
        for &v in &values {
            sketch.record(v);
        }
        values.sort_by(f64::total_cmp);
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let exact = exact_percentile(&values, p);
            let approx = sketch.percentile(p);
            prop_assert!(
                (approx - exact).abs() <= width,
                "p{}: sketch {} vs exact {} exceeds bin width {}",
                p, approx, exact, width
            );
        }
        // Extrema and mean are tracked exactly, not at bin resolution.
        prop_assert_eq!(sketch.max(), *values.last().unwrap());
        prop_assert_eq!(sketch.min(), values[0]);
        prop_assert_eq!(sketch.count(), values.len() as u64);
    }

    /// Splitting a stream across two sketches and merging equals
    /// recording the whole stream into one — the cross-shard/cross-node
    /// aggregation contract.
    #[test]
    fn merge_is_lossless(
        raw in vec(0u32..200, 1..200),
        split in 0u32..100,
    ) {
        let mk = || HistogramSketch::log2_bins(9);
        let (mut whole, mut left, mut right) = (mk(), mk(), mk());
        let pivot = (raw.len() as u64 * u64::from(split) / 100) as usize;
        for (i, &v) in raw.iter().enumerate() {
            let v = f64::from(v);
            whole.record(v);
            if i < pivot {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        prop_assert_eq!(&left, &whole);
        for p in [0.0, 50.0, 99.0, 100.0] {
            prop_assert_eq!(left.percentile(p), whole.percentile(p));
        }
    }

    /// Unit-width integer bins make percentiles exact, not merely
    /// one-bin-close — the shape `LoadHistogram::to_sketch` uses. The
    /// same sample recorded into a `LoadHistogram` meets the same
    /// oracle, directly and through its exported sketch.
    #[test]
    fn unit_bins_are_exact_on_integers(raw in vec(0u32..64, 1..200)) {
        let mut sketch = HistogramSketch::unit_bins(64);
        let mut hist = LoadHistogram::default();
        let mut values: Vec<f64> = raw.iter().map(|&v| f64::from(v)).collect();
        for (&v, &r) in values.iter().zip(&raw) {
            sketch.record(v);
            hist.record(r);
        }
        let exported = hist.to_sketch().expect("the sample is non-empty");
        values.sort_by(f64::total_cmp);
        for p in [0.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            let exact = exact_percentile(&values, p);
            prop_assert_eq!(sketch.percentile(p), exact);
            prop_assert_eq!(f64::from(hist.percentile(p)), exact);
            prop_assert_eq!(exported.percentile(p), exact);
        }
    }
}
