//! Property tests for pipelined serving.
//!
//! The SPSC-ring pipeline's ordering contract says each shard applies
//! its routed subsequence in stream order, so for *any* op stream and
//! any ring depth, serving an engine configured with
//! `EngineConfig::pipelined` is bit-identical to sequential phased
//! application of the same stream. The example-based matrices in
//! `tests/engine.rs` pin that for scenario-shaped traffic; this property
//! samples arbitrary streams — duplicate keys, deletes of absent keys,
//! empty and sub-batch streams included — across queue depths {1, 4} ×
//! uneven batch sizes × shard counts {1, 4}.

use balanced_allocations::prelude::*;
use proptest::prelude::*;

/// Strategy: one op over a deliberately small keyspace, so inserts,
/// repeat inserts, deletes of live keys, and deletes/lookups of absent
/// keys all occur with non-trivial probability.
fn op(keyspace: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..keyspace).prop_map(Op::Insert),
        (0..keyspace).prop_map(Op::Delete),
        (0..keyspace).prop_map(Op::Lookup),
    ]
}

proptest! {
    #[test]
    fn pipelined_serving_is_bit_identical_to_sequential(
        ops in proptest::collection::vec(op(512), 0..1500),
        queue_depth in prop_oneof![Just(1usize), Just(4)],
        batch in prop_oneof![Just(1usize), Just(13), Just(256)],
        shards in prop_oneof![Just(1usize), Just(4)],
        seed in any::<u64>(),
    ) {
        let config = || EngineConfig::new(shards, 128, 3).seed(seed);

        let mut sequential = Engine::by_name("double", config().sequential()).unwrap();
        let expected_summary = sequential.serve(&ops, batch);
        let expected_stats = sequential.stats();

        let mut pipelined = Engine::by_name("double", config().pipelined(queue_depth)).unwrap();
        let summary = pipelined.serve_replay(ops.iter().copied(), batch);
        let tag = format!(
            "{} ops, depth {queue_depth}, batch {batch}, {shards} shards, seed {seed}",
            ops.len()
        );

        prop_assert_eq!(summary, expected_summary, "summary diverged: {}", &tag);
        let divergences = expected_stats.divergences(&pipelined.stats());
        prop_assert!(divergences.is_empty(), "{}: {:?}", &tag, divergences);
        for (a, b) in sequential.shards().iter().zip(pipelined.shards()) {
            prop_assert_eq!(
                a.allocation().loads(),
                b.allocation().loads(),
                "shard {} bin loads diverged: {}",
                a.id(),
                &tag
            );
        }
    }
}
