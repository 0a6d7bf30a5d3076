//! Property tests for the perf-trajectory gate (`ba_bench::gate`):
//! the tolerance floor is a *closed* bound hit exactly at
//! `baseline × (1 − tolerance)`, and no malformed rate cell — NaN,
//! infinite, zero, or negative, in either document — can ever pass.
//! A NaN candidate rate previously sailed through the `<` floor
//! comparison, so a corrupted `BENCH_pipeline.json` gated green.

use ba_bench::gate::{gate_rates, CellRate};
use proptest::prelude::*;

fn cell(scenario: &str, rate: f64) -> CellRate {
    CellRate {
        scenario: scenario.into(),
        ingest: "pipelined".into(),
        depth: Some(4),
        rate,
        identical: true,
    }
}

proptest! {
    /// The regression floor is closed: a candidate at exactly
    /// `baseline × (1 − tolerance)` passes, and shaving anything more
    /// off fails with the cell named as regressed.
    #[test]
    fn floor_boundary_is_closed(
        rate in 1.0f64..1e9,
        tolerance in 0.0f64..0.9,
        shave in 0.01f64..0.5,
    ) {
        let base = vec![cell("uniform", rate)];
        // Same expression the gate computes its floor with: identical
        // floats, so this is the exact boundary, not "close to it".
        let at_floor = vec![cell("uniform", rate * (1.0 - tolerance))];
        prop_assert!(gate_rates(&base, &at_floor, tolerance).is_ok());
        let below = vec![cell("uniform", rate * (1.0 - tolerance) * (1.0 - shave))];
        let err = gate_rates(&base, &below, tolerance);
        prop_assert!(err.is_err());
        prop_assert!(err.unwrap_err().contains("regressed"));
    }

    /// The CI configuration in particular: an exactly-20%-down cell is
    /// within the benches job's 0.20 tolerance.
    #[test]
    fn exactly_twenty_percent_down_passes_the_ci_tolerance(rate in 1.0f64..1e9) {
        let base = vec![cell("zipf", rate)];
        let cand = vec![cell("zipf", rate * (1.0 - 0.20))];
        prop_assert!(gate_rates(&base, &cand, 0.20).is_ok());
    }

    /// A NaN/infinite/zero/negative rate fails the gate no matter which
    /// document it sits in — a zero baseline would make the floor
    /// vacuous and a NaN candidate is incomparable, so both must be
    /// rejected as unusable rather than silently passing.
    #[test]
    fn malformed_rates_never_pass(
        rate in 1.0f64..1e9,
        selector in 0usize..5,
        side in 0u8..2,
    ) {
        let bad_rate = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -rate][selector];
        let good = vec![cell("uniform", rate), cell("churn", rate * 2.0)];
        let mut bad = good.clone();
        bad[selector % 2].rate = bad_rate;
        let (baseline, candidate) = if side == 0 {
            (&bad, &good)
        } else {
            (&good, &bad)
        };
        let err = gate_rates(baseline, candidate, 0.20);
        prop_assert!(err.is_err(), "rate {bad_rate} passed the gate");
        let message = err.unwrap_err();
        prop_assert!(message.contains("unusable ops_per_sec"), "{message}");
        prop_assert!(
            message.contains(if side == 0 { "baseline" } else { "candidate" }),
            "{message}"
        );
    }
}
