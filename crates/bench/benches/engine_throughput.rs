//! Throughput of the sharded engine serving mixed traffic.
//!
//! Serves one million mixed operations (churn: inserts + deletes, plus
//! Zipf insert/lookup traffic) across 4 and 8 shards, for fully random
//! and double hashing in both choice modes (stream-drawn and keyed
//! derivation), and reports ops/s. A second group races the two worker
//! modes — sequential and the persistent ring-fed pool — and the
//! pipelined ingestion path on the same 1M-op workload. Before timing
//! anything it verifies the engine's determinism contract at the same
//! scale: per-shard loads after 1M
//! routed inserts must be bit-identical to single-threaded `ba_core`
//! replays for the same `(seed, scheme)` pair, in both choice modes.

use ba_core::{run_process, run_process_keys, TieBreak};
use ba_engine::{route, ChoiceMode, Engine, EngineConfig, Op, WorkerMode};
use ba_hash::{ChoiceSource, DoubleHashing};
use ba_rng::SeedSequence;
use ba_workload::Scenario;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const TOTAL_OPS: u64 = 1_000_000;
const BINS_PER_SHARD: u64 = 1 << 16;
const SEED: u64 = 2014;
const BATCH: usize = 8_192;

fn mixed_stream(scenario: &Scenario, keyspace: u64) -> Vec<Op> {
    let mut workload = scenario.build(keyspace, SEED);
    let mut ops = Vec::with_capacity(TOTAL_OPS as usize);
    for _ in 0..TOTAL_OPS {
        ops.push(workload.next_op());
    }
    ops
}

/// The acceptance gate: 1M inserts across 4 shards, every shard's final
/// loads equal to a single-threaded `ba_core` run over its routed stream —
/// once per choice mode.
fn verify_against_core() {
    let shards = 4usize;
    let ops: Vec<Op> = (0..TOTAL_OPS).map(Op::Insert).collect();
    for mode in [ChoiceMode::Stream, ChoiceMode::Keyed] {
        let config = EngineConfig::new(shards, BINS_PER_SHARD, 3)
            .seed(SEED)
            .mode(mode);
        let mut engine = Engine::by_name("double", config).expect("known scheme");
        engine.serve(&ops, BATCH);
        for id in 0..shards {
            let keys: Vec<u64> = ops
                .iter()
                .map(Op::key)
                .filter(|&k| route(k, shards) == id)
                .collect();
            let scheme = DoubleHashing::new(BINS_PER_SHARD, 3);
            let mut rng = SeedSequence::new(SEED).child(id as u64).xoshiro();
            let reference = match mode {
                ChoiceMode::Stream => {
                    run_process(&scheme, keys.len() as u64, TieBreak::Random, &mut rng)
                }
                ChoiceMode::Keyed => run_process_keys(
                    &scheme,
                    ChoiceSource::Keyed {
                        salt: engine.shard(id).salt(),
                    },
                    keys.iter().copied(),
                    TieBreak::Random,
                    &mut rng,
                ),
            };
            let shard = engine.shard(id);
            assert_eq!(
                shard.allocation().loads(),
                reference.loads(),
                "{mode:?} shard {id} loads diverged from single-threaded ba_core"
            );
        }
        println!(
            "verified: 1M {mode:?} inserts over {shards} shards match single-threaded ba_core \
             (engine max load {})",
            engine.max_load()
        );
    }
}

fn bench_mixed_ops(c: &mut Criterion) {
    verify_against_core();

    let mut group = c.benchmark_group("engine_mixed_1m");
    group.throughput(Throughput::Elements(TOTAL_OPS));
    let churn = mixed_stream(
        &Scenario::Churn {
            delete_fraction: 0.5,
        },
        BINS_PER_SHARD * 2,
    );
    let zipf = mixed_stream(&Scenario::Zipf { theta: 0.9 }, BINS_PER_SHARD * 2);
    for (label, ops) in [("churn", &churn), ("zipf", &zipf)] {
        for shards in [4usize, 8] {
            for scheme in ["random", "double"] {
                for mode in [ChoiceMode::Stream, ChoiceMode::Keyed] {
                    let tag = match mode {
                        ChoiceMode::Stream => "stream",
                        ChoiceMode::Keyed => "keyed",
                    };
                    let id = BenchmarkId::new(format!("{label}/{scheme}/{tag}"), shards);
                    group.bench_with_input(id, ops, |b, ops| {
                        b.iter(|| {
                            let mut engine = Engine::by_name(
                                scheme,
                                EngineConfig::new(shards, BINS_PER_SHARD, 3)
                                    .seed(SEED)
                                    .mode(mode),
                            )
                            .expect("known scheme");
                            let summary = engine.serve(ops, BATCH);
                            assert_eq!(summary.total_ops(), TOTAL_OPS);
                            black_box(engine.max_load())
                        })
                    });
                }
            }
        }
    }
    group.finish();
}

/// The worker-mode race: sequential application against the persistent
/// ring-fed pool on the 1M-op mixed workload at 4 and 8 shards — plus
/// the pipelined ingestion path at two queue depths, which overlaps
/// routing with application on top of the same persistent pool.
fn bench_worker_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_workers");
    group.throughput(Throughput::Elements(TOTAL_OPS));
    let ops = mixed_stream(&Scenario::Uniform, BINS_PER_SHARD * 4);
    for shards in [4usize, 8] {
        for workers in [WorkerMode::Sequential, WorkerMode::Persistent] {
            let label = match workers {
                WorkerMode::Sequential => "sequential",
                WorkerMode::Persistent => "persistent",
            };
            let id = BenchmarkId::new(label, shards);
            group.bench_with_input(id, &ops, |b, ops| {
                b.iter(|| {
                    let config = EngineConfig::new(shards, BINS_PER_SHARD, 3)
                        .seed(SEED)
                        .workers(workers);
                    let mut engine = Engine::by_name("double", config).expect("known scheme");
                    engine.serve(ops, BATCH);
                    black_box(engine.max_load())
                })
            });
        }
        for depth in [4usize, 64] {
            let id = BenchmarkId::new(format!("pipelined-qd{depth}"), shards);
            group.bench_with_input(id, &ops, |b, ops| {
                b.iter(|| {
                    let config = EngineConfig::new(shards, BINS_PER_SHARD, 3)
                        .seed(SEED)
                        .pipelined(depth);
                    let mut engine = Engine::by_name("double", config).expect("known scheme");
                    engine.serve(ops, BATCH);
                    black_box(engine.max_load())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_mixed_ops, bench_worker_modes);
criterion_main!(benches);
