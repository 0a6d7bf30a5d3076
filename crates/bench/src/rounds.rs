//! The rounds experiment: round-synchronized allocation
//! ([`ba_engine::IngestMode::Rounds`]) vs sequential d-choice, across the full
//! scenario × scheme grid.
//!
//! For each cell it serves one op stream twice — through a sequential
//! keyed engine (the paper's per-ball process) and through a rounds
//! engine over the same global bin space — and records both max loads,
//! both serve rates, and the round resolver's shape: rounds per batch
//! and total re-proposals. With double hashing a 1,024-op batch takes
//! about 17 rounds on uniform traffic, 131 on zipf, 41 on bursty and 11
//! on churn. The `identical` column asserts the mode's determinism
//! contract per row: a second rounds engine, fed a per-batch-permuted
//! copy of the stream, must land every ball in the same global bin.

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

/// Builds one engine of the experiment's shape for `scheme`.
fn build(scheme: &str, opts: &Opts, bins_per_shard: u64) -> Engine<ba_hash::AnyScheme> {
    let config = EngineConfig::new(SHARDS, bins_per_shard, d_for(scheme)).seed(opts.seed);
    Engine::by_name(scheme, config.keyed().sequential()).expect("known scheme")
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
         (identical column: a second rounds engine served a per-batch-permuted \
         stream and landed every ball in the same global bin)\n\n",
        opts.seed
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
            let mut sequential = build(scheme, opts, bins_per_shard);
            let t0 = Instant::now();
            sequential.serve(&ops, batch);
            let seq_elapsed = t0.elapsed();

            let mut bulk = Engine::by_name(
                scheme,
                EngineConfig::new(SHARDS, bins_per_shard, d_for(scheme))
                    .seed(opts.seed)
                    .rounds(),
            )
            .expect("known scheme");
            let t0 = Instant::now();
            bulk.serve(&ops, batch);
            let rounds_elapsed = t0.elapsed();
            let report = bulk.take_round_report().expect("rounds mode");

            // Determinism: permuted batches — same global bin vector.
            let mut twin = Engine::by_name(
                scheme,
                EngineConfig::new(SHARDS, bins_per_shard, d_for(scheme))
                    .seed(opts.seed)
                    .rounds(),
            )
            .expect("known scheme");
            twin.serve(&permuted, batch);
            let identical =
                global_loads(&bulk) == global_loads(&twin) && bulk.stats().matches(&twin.stats());

            let rate = |elapsed: std::time::Duration| {
                format!("{:.2}", ops.len() as f64 / elapsed.as_secs_f64() / 1e6)
            };
            table.row_owned(vec![
                scheme.to_string(),
                sequential.max_load().to_string(),
                report.max_load.to_string(),
                format!("{:.1}", report.rounds as f64 / report.batches.max(1) as f64),
                report.reproposals.iter().sum::<u64>().to_string(),
                rate(seq_elapsed),
                rate(rounds_elapsed),
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
