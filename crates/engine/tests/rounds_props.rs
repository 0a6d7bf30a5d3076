//! Property tests for the rounds-mode determinism contract
//! ([`IngestMode::Rounds`]): over a single batch, the final global bin
//! vector and the [`BatchSummary`] are a pure function of *(batch
//! contents as a multiset, seed)* — invariant under arbitrary in-batch
//! op permutations, worker mode, and even shard count at a fixed global
//! bin total.

use ba_engine::{Engine, EngineConfig, Op, WorkerMode};
use proptest::prelude::*;

/// Global bin total held constant while the shard axis varies.
const TOTAL_BINS: u64 = 1024;

/// Decodes a sampled `(key, kind)` pair into an op over a small
/// keyspace, so deletes and lookups hit live keys and batches carry
/// duplicate inserts of the same key.
fn decode_op(key: u64, kind: u8) -> Op {
    let key = key % 512;
    match kind % 5 {
        0..=2 => Op::Insert(key),
        3 => Op::Delete(key),
        _ => Op::Lookup(key),
    }
}

fn rounds_engine(shards: usize, workers: WorkerMode) -> Engine<ba_hash::AnyScheme> {
    let config = EngineConfig::new(shards, TOTAL_BINS / shards as u64, 3)
        .seed(2014)
        .workers(workers)
        .rounds();
    Engine::by_name("double", config).expect("known scheme")
}

/// The global per-bin load vector — the object the purity contract is
/// stated over (shard layout flattened away).
fn global_loads(engine: &Engine<ba_hash::AnyScheme>) -> Vec<u32> {
    engine
        .shards()
        .iter()
        .flat_map(|s| s.allocation().loads().iter().copied())
        .collect()
}

/// A deterministic permutation from the sampled `(rotation, reverse)`
/// pair — rotations compose with reversal to reach orders far from both
/// the original and sorted sequences.
fn permute(ops: &[Op], rotation: u64, reverse: bool) -> Vec<Op> {
    let mut out = ops.to_vec();
    if !out.is_empty() {
        let mid = (rotation % out.len() as u64) as usize;
        out.rotate_left(mid);
    }
    if reverse {
        out.reverse();
    }
    out
}

proptest! {
    /// One batch, every axis at once: a permuted stream served by
    /// engines at shard counts {1, 8} under both worker modes
    /// reproduces the (1-shard, sequential) baseline's global bin
    /// vector and summary exactly.
    #[test]
    fn placement_is_pure_in_the_batch_set_and_seed(
        encoded in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..300),
        rotation in any::<u64>(),
        reverse in 0u8..2,
    ) {
        let ops: Vec<Op> = encoded.into_iter().map(|(k, kind)| decode_op(k, kind)).collect();
        let batch = ops.len(); // a single batch: in-batch order must not matter
        let mut reference = rounds_engine(1, WorkerMode::Sequential);
        let baseline_summary = reference.serve(&ops, batch);
        let baseline = global_loads(&reference);
        prop_assert_eq!(baseline.len() as u64, TOTAL_BINS);

        let permuted = permute(&ops, rotation, reverse == 1);
        for (shards, workers) in [
            (1, WorkerMode::Sequential),
            (8, WorkerMode::Persistent),
        ] {
            let mut engine = rounds_engine(shards, workers);
            let summary = engine.serve(&permuted, batch);
            prop_assert_eq!(
                &summary,
                &baseline_summary,
                "summary diverged at {} shards / {:?}",
                shards,
                workers
            );
            prop_assert_eq!(
                global_loads(&engine),
                baseline.clone(),
                "global bin vector diverged at {} shards / {:?}",
                shards,
                workers
            );
        }
    }

    /// Consecutive batches are barriers, not a blender: the same stream
    /// cut at the same batch boundaries is reproducible whatever the
    /// in-batch order, even when deletes and lookups interleave with
    /// earlier batches' placements.
    #[test]
    fn multi_batch_streams_are_pure_per_batch(
        encoded in proptest::collection::vec((any::<u64>(), any::<u8>()), 2..240),
        rotation in any::<u64>(),
    ) {
        let ops: Vec<Op> = encoded.into_iter().map(|(k, kind)| decode_op(k, kind)).collect();
        let batch = (ops.len() / 2).max(1);
        let mut reference = rounds_engine(2, WorkerMode::Sequential);
        let baseline_summary = reference.serve(&ops, batch);

        // Permute strictly *within* each batch-sized chunk (crossing a
        // boundary legitimately changes batch multisets).
        let mut permuted = ops.clone();
        for chunk in permuted.chunks_mut(batch) {
            let len = chunk.len() as u64;
            chunk.rotate_left((rotation % len) as usize);
        }
        let mut engine = rounds_engine(8, WorkerMode::Persistent);
        let summary = engine.serve(&permuted, batch);
        prop_assert_eq!(summary, baseline_summary);
        prop_assert_eq!(global_loads(&engine), global_loads(&reference));
    }
}
