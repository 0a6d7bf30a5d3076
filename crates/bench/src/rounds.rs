//! The rounds experiment: round-synchronized allocation
//! ([`ba_engine::IngestMode::Rounds`]) vs sequential d-choice, across the full
//! scenario × scheme grid.
//!
//! For each cell it serves one op stream through a sequential keyed
//! engine (the paper's per-ball process) and through a rounds engine
//! over the same global bin space, on `--trials` fresh pairs of engines,
//! and records both max loads, the median of each serve rate, and the
//! round resolver's shape: rounds per batch and total re-proposals.
//! With double hashing a 1,024-op batch takes about 17 rounds on uniform
//! traffic, 131 on zipf, 41 on bursty and 11 on churn. The `identical`
//! column asserts the mode's determinism contract per row: a second
//! rounds engine, fed a per-batch-permuted copy of the stream, must land
//! every ball in the same global bin.

use crate::Opts;
use ba_engine::{Engine, EngineConfig, Op};
use ba_stats::Table;
use ba_workload::Scenario;
use std::time::Instant;

/// Shards both engines run; the rounds engine resolves over the global
/// `SHARDS × bins_per_shard` bin space either way.
const SHARDS: usize = 4;

/// Choices per ball. Four divides every bin count used here, so the
/// partitioned d-left schemes build on the global space too. The
/// single-choice scheme gets d = 1 — its choice vector has one slot.
const D: usize = 4;

/// The scheme's choices-per-ball for this experiment.
fn d_for(scheme: &str) -> usize {
    if scheme == "one" {
        1
    } else {
        D
    }
}

/// Builds one sequential keyed engine of the experiment's shape for
/// `scheme`.
fn build(scheme: &str, opts: &Opts, bins_per_shard: u64) -> Engine<ba_hash::AnyScheme> {
    let config = EngineConfig::new(SHARDS, bins_per_shard, d_for(scheme)).seed(opts.seed);
    Engine::by_name(scheme, config.keyed().sequential()).expect("known scheme")
}

/// Builds one rounds engine over the same global bin space as [`build`].
fn rounds_engine(scheme: &str, opts: &Opts, bins_per_shard: u64) -> Engine<ba_hash::AnyScheme> {
    let config = EngineConfig::new(SHARDS, bins_per_shard, d_for(scheme)).seed(opts.seed);
    Engine::by_name(scheme, config.rounds()).expect("known scheme")
}

/// The global per-bin load vector — shard layout flattened away, which
/// is exactly the space the determinism contract is stated over.
fn global_loads(engine: &Engine<ba_hash::AnyScheme>) -> Vec<u32> {
    engine
        .shards()
        .iter()
        .flat_map(|s| s.allocation().loads().iter().copied())
        .collect()
}

/// Permutes each batch-sized chunk in place (reversal — any in-batch
/// permutation must be invisible to the rounds resolver; crossing batch
/// boundaries would legitimately change batch multisets).
fn permute_within_batches(ops: &[Op], batch: usize) -> Vec<Op> {
    let mut permuted = ops.to_vec();
    for chunk in permuted.chunks_mut(batch) {
        chunk.reverse();
    }
    permuted
}

/// Runs the scenario × scheme grid and renders one table per scenario.
pub fn rounds(opts: &Opts) -> String {
    let bins_per_shard = if opts.full { 1u64 << 10 } else { 1u64 << 8 };
    let keyspace = SHARDS as u64 * bins_per_shard;
    let total_ops = keyspace as usize;
    let batch = 1024;

    let mut out = format!(
        "Round-synchronized allocation vs sequential d-choice: \
         {SHARDS} shards x {bins_per_shard} bins, d = {D}, {total_ops} ops per cell, \
         batches of {batch}, seed {}\n\
         (Mops/s columns: median of {} trials, each on fresh engines; \
         identical column: a second rounds engine served a per-batch-permuted \
         stream and landed every ball in the same global bin)\n\n",
        opts.seed, opts.trials
    );
    for scenario in Scenario::all() {
        let mut ops = Vec::with_capacity(total_ops);
        let mut generator = scenario.build(keyspace, opts.seed);
        let mut chunk = Vec::new();
        while ops.len() < total_ops {
            generator.fill(&mut chunk, batch.min(total_ops - ops.len()));
            ops.extend_from_slice(&chunk);
        }
        let permuted = permute_within_batches(&ops, batch);

        let mut table = Table::new(&[
            "scheme",
            "seq max",
            "rounds max",
            "rounds/batch",
            "reproposals",
            "seq Mops/s",
            "rounds Mops/s",
            "identical",
        ]);
        for &scheme in ba_hash::AnyScheme::names() {
            // Each trial serves the stream on fresh engines; the rate
            // columns print the median, every other column reads the
            // first trial's engines.
            let (mut seq_rates, mut rounds_rates) = (Vec::new(), Vec::new());
            let mut first = None;
            for _ in 0..opts.trials {
                let mut sequential = build(scheme, opts, bins_per_shard);
                let t0 = Instant::now();
                sequential.serve(&ops, batch);
                seq_rates.push(ops.len() as f64 / t0.elapsed().as_secs_f64());

                let mut bulk = rounds_engine(scheme, opts, bins_per_shard);
                let t0 = Instant::now();
                bulk.serve(&ops, batch);
                rounds_rates.push(ops.len() as f64 / t0.elapsed().as_secs_f64());
                first.get_or_insert((sequential, bulk));
            }
            let (sequential, mut bulk) = first.expect("--trials is positive");
            let report = bulk.take_round_report().expect("rounds mode");

            // Determinism: permuted batches — same global bin vector.
            let mut twin = rounds_engine(scheme, opts, bins_per_shard);
            twin.serve(&permuted, batch);
            let identical =
                global_loads(&bulk) == global_loads(&twin) && bulk.stats().matches(&twin.stats());

            let median = |rates: &mut [f64]| {
                rates.sort_by(f64::total_cmp);
                format!("{:.2}", rates[rates.len() / 2] / 1e6)
            };
            table.row_owned(vec![
                scheme.to_string(),
                sequential.max_load().to_string(),
                report.max_load.to_string(),
                format!("{:.1}", report.rounds as f64 / report.batches.max(1) as f64),
                report.reproposals.iter().sum::<u64>().to_string(),
                median(&mut seq_rates),
                median(&mut rounds_rates),
                identical.to_string(),
            ]);
        }
        out.push_str(&format!("--- scenario: {} ---\n", scenario.name()));
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_experiment_covers_the_grid_and_stays_deterministic() {
        let opts = Opts {
            trials: 1,
            seed: 3,
            threads: 0,
            full: false,
        };
        let text = rounds(&opts);
        for scenario in Scenario::all() {
            assert!(
                text.contains(scenario.name()),
                "missing scenario {}: {text}",
                scenario.name()
            );
        }
        for scheme in ba_hash::AnyScheme::names() {
            assert!(text.contains(scheme), "missing scheme {scheme}: {text}");
        }
        assert!(
            !text.contains("false"),
            "a per-batch-permuted rounds serve diverged: {text}"
        );
    }
}
