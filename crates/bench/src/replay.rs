//! The replay experiment: capture each scenario once, then serve the
//! frozen stream differentially across schemes, choice modes, and worker
//! modes.
//!
//! Where the `engine` experiment compares schemes on *freshly generated*
//! traffic, this one first captures each scenario into the `.baops` codec
//! (reporting how small delta/varint encoding keeps the file), verifies
//! the codec round-trips, and then feeds the *identical* op sequence to
//! every `{scheme} × {stream, keyed} × {sequential, persistent}` cell.
//! Within a scheme × mode, the worker modes must agree bit-for-bit — any
//! divergence is printed loudly and reflected in the summary line.

use crate::Opts;
use ba_engine::EngineConfig;
use ba_workload::{differential_replay, ReplayFile, Scenario};

/// Schemes the replay experiment diffs (the paper's standard pair plus
/// the one-choice baseline).
const SCHEMES: &[&str] = &["random", "double", "one"];

/// Captures every scenario at the harness seed and renders one
/// differential-replay report per scenario.
pub fn replay(opts: &Opts) -> String {
    let shards = 4usize;
    let bins_per_shard = if opts.full { 1u64 << 12 } else { 1u64 << 8 };
    let keyspace = bins_per_shard * shards as u64;
    let total_ops = keyspace * 4;
    let batch = 1_024;
    let d = 3;

    let mut out = format!(
        "Differential workload replay: {shards} shards x {bins_per_shard} bins, d = {d}, \
         {total_ops}-op captures at seed {}\n\
         (one capture per scenario; every scheme x choice mode x worker mode \
         serves the identical op stream)\n\n",
        opts.seed
    );
    let mut consistent = true;
    for scenario in Scenario::all() {
        let capture = ReplayFile::capture(&scenario, keyspace, opts.seed, total_ops);
        let bytes = capture.encode();
        let decoded = ReplayFile::decode(&bytes).expect("fresh capture must decode");
        assert_eq!(
            decoded.ops(),
            capture.ops(),
            "codec round-trip changed the {} stream",
            scenario.name()
        );
        out.push_str(&format!(
            "capture `{}`: {} ops in {} bytes ({:.2} bytes/op), codec round-trip ok\n",
            scenario.name(),
            capture.header().op_count,
            bytes.len(),
            bytes.len() as f64 / capture.header().op_count as f64,
        ));
        let config = EngineConfig::new(shards, bins_per_shard, d).seed(opts.seed);
        let outcome = differential_replay(&capture, SCHEMES, config, batch)
            .expect("every scheme name is known");
        consistent &= outcome.is_consistent();
        out.push_str(&outcome.render());
        out.push('\n');
    }
    out.push_str(&format!(
        "overall: worker modes {} across every scenario x scheme x choice mode\n",
        if consistent { "agree" } else { "DIVERGE" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_experiment_reports_every_scenario_consistent() {
        let opts = Opts {
            trials: 1,
            seed: 3,
            threads: 0,
            full: false,
        };
        let text = replay(&opts);
        for name in Scenario::names() {
            assert!(text.contains(name), "missing scenario {name}: {text}");
        }
        for scheme in SCHEMES {
            assert!(text.contains(scheme), "missing scheme {scheme}");
        }
        assert!(text.contains("bytes/op"), "{text}");
        assert!(!text.contains("DIVERGENCE"), "{text}");
        assert!(text.contains("overall: worker modes agree"), "{text}");
    }
}
