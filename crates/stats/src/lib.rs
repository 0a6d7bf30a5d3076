//! Statistics utilities for the balanced-allocations experiment harness.
//!
//! Everything the paper's tables report is a function of per-trial load
//! histograms: fractions of bins at each load (Tables 1, 3, 6, 7), the
//! fraction of trials reaching a maximum load (Table 4), per-load
//! min/avg/max/standard deviation across trials (Table 5), and mean sojourn
//! times (Table 8). This crate provides those aggregations plus the
//! two-sample tests used to assert "essentially indistinguishable"
//! quantitatively:
//!
//! * [`Welford`] — numerically stable streaming mean/variance;
//! * [`LoadHistogram`] — the exact integer histogram: counts of bins at
//!   each load, or of observations at each value, with exact
//!   percentiles and lossless merge;
//! * [`TrialAccumulator`] — cross-trial aggregation of histograms;
//! * [`two_proportion_z`], [`chi_square_statistic`] — comparison tests;
//! * [`ks_statistic`], [`quantile`] — whole-distribution comparisons;
//! * [`Table`] — plain-text table rendering for the harness output.
//!
//! For long-running telemetry the crate also provides:
//!
//! * [`HistogramSketch`] — a mergeable bounded-memory quantile summary
//!   over configurable bin edges, with percentile error bounded by one
//!   bin width;
//! * [`json`] — the minimal JSON writer behind the engine's metrics
//!   exporter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod distribution;
mod histogram;
pub mod json;
mod sketch;
mod table;
mod welford;

pub use compare::{chi_square_statistic, two_proportion_z, welch_t};
pub use distribution::{ks_critical_value, ks_statistic, quantile};
pub use histogram::{LoadHistogram, LoadSummary, TrialAccumulator};
pub use sketch::HistogramSketch;
pub use table::{format_fraction, Table};
pub use welford::Welford;
