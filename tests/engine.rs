//! Cross-layer integration tests for the sharded engine + workload suite.
//!
//! These run through the public facade and check the properties the
//! subsystem exists for: persistent-worker serving changes nothing,
//! per-shard state is exactly `ba_core`'s single-threaded state in both
//! choice modes, keyed delete→re-insert replays its probe sequence for
//! every scheme, and the paper's claim — double hashing loses nothing
//! against fully random hashing — survives every production-shaped
//! traffic scenario.

use balanced_allocations::core::{run_churn_process, run_process, run_process_keys, TieBreak};
use balanced_allocations::engine::{route, Shard};
use balanced_allocations::prelude::*;

fn config(shards: usize, bins: u64, d: usize, seed: u64) -> EngineConfig {
    EngineConfig::new(shards, bins, d).seed(seed)
}

#[test]
fn pipelined_ingestion_equals_phased_for_every_scenario_scheme_mode_and_depth() {
    // The pipelined acceptance matrix: for all 5 scenarios × every scheme
    // the workspace ships × both choice modes × queue depths {1, 4, 64},
    // serving through the lock-free SPSC-ring pipeline is bit-identical —
    // summary, per-shard loads, max loads, stats percentiles — to phased
    // WorkerMode::Sequential serving of the same generated stream.
    let total_ops = 4_000u64;
    let keyspace = 512u64;
    for scenario in Scenario::all() {
        for &scheme in AnyScheme::names() {
            // d = 4 divides the 128-bin tables evenly (the d-left
            // schemes require it); the one-choice baseline keeps d = 1.
            let d = if scheme == "one" { 1 } else { 4 };
            for mode in [ChoiceMode::Stream, ChoiceMode::Keyed] {
                let phased = run_scenario(
                    scheme,
                    &scenario,
                    config(4, 128, d, 29).mode(mode).sequential(),
                    keyspace,
                    total_ops,
                    256,
                )
                .unwrap();
                for depth in [1, 4, 64] {
                    let pipelined = run_scenario(
                        scheme,
                        &scenario,
                        config(4, 128, d, 29).mode(mode).pipelined(depth),
                        keyspace,
                        total_ops,
                        256,
                    )
                    .unwrap();
                    let tag = format!("{}/{scheme}/{mode:?}/depth {depth}", scenario.name());
                    assert_eq!(pipelined.summary, phased.summary, "{tag}");
                    assert_eq!(
                        pipelined.stats.max_loads(),
                        phased.stats.max_loads(),
                        "{tag}"
                    );
                    let divergences = phased.stats.divergences(&pipelined.stats);
                    assert!(divergences.is_empty(), "{tag}: {divergences:?}");
                }
            }
        }
    }
}

#[test]
fn persistent_engine_equals_sequential_engine_for_every_shard_count_and_scenario() {
    // Satellite acceptance: the persistent-worker engine is bit-identical
    // to the sequential path for shards ∈ {1, 2, 8} across all workload
    // scenarios, in both choice modes.
    for shards in [1usize, 2, 8] {
        for mode in [ChoiceMode::Stream, ChoiceMode::Keyed] {
            for scenario in Scenario::all() {
                let keyspace = 2_048u64;
                let par = run_scenario(
                    "double",
                    &scenario,
                    config(shards, 512, 3, 11).mode(mode),
                    keyspace,
                    30_000,
                    1_024,
                )
                .unwrap();
                let seq = run_scenario(
                    "double",
                    &scenario,
                    config(shards, 512, 3, 11).mode(mode).sequential(),
                    keyspace,
                    30_000,
                    1_024,
                )
                .unwrap();
                let tag = format!("{}/{shards} shards/{mode:?}", scenario.name());
                assert_eq!(par.summary, seq.summary, "{tag}");
                assert_eq!(par.stats.max_loads(), seq.stats.max_loads(), "{tag}");
                assert_eq!(
                    par.stats.merged_histogram().counts(),
                    seq.stats.merged_histogram().counts(),
                    "{tag}"
                );
            }
        }
    }
}

#[test]
fn keyed_delete_reinsert_replays_probe_sequence_for_every_scheme() {
    // Satellite acceptance: in keyed mode, deleting and re-inserting a
    // key lands it via the same derived probe sequence — for every scheme
    // the workspace ships.
    for &name in AnyScheme::names() {
        let d = if name == "one" { 1 } else { 4 };
        let n = 64u64;
        let cfg = config(1, n, d, 9).keyed();
        let scheme = AnyScheme::by_name(name, n, d).unwrap();
        let mut shard = Shard::new(0, scheme, &cfg);
        for key in 0..48u64 {
            shard.insert(key);
        }
        for key in [3u64, 17, 40] {
            let probes = shard.probes_for(key);
            for cycle in 0..25 {
                shard.delete(key).expect("key live");
                let bin = shard.insert(key);
                assert!(
                    probes.contains(&bin),
                    "{name}: cycle {cycle} re-inserted key {key} into bin {bin} \
                     outside its probe sequence {probes:?}"
                );
            }
        }
    }
}

#[test]
fn stream_and_keyed_modes_agree_with_core_on_insert_only_traffic() {
    // Satellite acceptance: insert-only traffic through the engine equals
    // ba_core's single-threaded process in the matching mode — stream
    // against run_process, keyed against run_process_keys.
    let shards = 4usize;
    let bins = 256u64;
    let seed = 23u64;
    let ops: Vec<Op> = (0..2_048u64).map(Op::Insert).collect();
    for mode in [ChoiceMode::Stream, ChoiceMode::Keyed] {
        let mut engine =
            Engine::by_name("double", config(shards, bins, 3, seed).mode(mode)).unwrap();
        engine.serve(&ops, 256);
        for id in 0..shards {
            let keys: Vec<u64> = ops
                .iter()
                .map(|op| op.key())
                .filter(|&k| route(k, shards) == id)
                .collect();
            let scheme = DoubleHashing::new(bins, 3);
            let mut rng = SeedSequence::new(seed).child(id as u64).xoshiro();
            let shard = engine.shard(id);
            let reference = match mode {
                ChoiceMode::Stream => {
                    run_process(&scheme, keys.len() as u64, TieBreak::Random, &mut rng)
                }
                ChoiceMode::Keyed => run_process_keys(
                    &scheme,
                    ChoiceSource::Keyed { salt: shard.salt() },
                    keys.iter().copied(),
                    TieBreak::Random,
                    &mut rng,
                ),
            };
            assert_eq!(
                shard.allocation().loads(),
                reference.loads(),
                "{mode:?} shard {id}"
            );
        }
    }
}

#[test]
fn engine_shards_reproduce_core_runs_for_every_scheme() {
    // Insert-only traffic: shard i of the engine must equal a
    // single-threaded ba_core run over shard i's routed key stream, for
    // the same (seed, scheme) pair — the engine adds sharding, not noise.
    let shards = 4usize;
    let bins = 256u64;
    let seed = 23u64;
    let ops: Vec<Op> = (0..2_048u64).map(Op::Insert).collect();
    for name in ["random", "double", "blocks"] {
        let mut engine = Engine::by_name(name, config(shards, bins, 3, seed)).unwrap();
        engine.serve(&ops, 256);
        for id in 0..shards {
            let balls = ops
                .iter()
                .filter(|op| route(op.key(), shards) == id)
                .count() as u64;
            let scheme = AnyScheme::by_name(name, bins, 3).unwrap();
            let mut rng = SeedSequence::new(seed).child(id as u64).xoshiro();
            let reference = run_process(&scheme, balls, TieBreak::Random, &mut rng);
            assert_eq!(
                engine.shards()[id].allocation().loads(),
                reference.loads(),
                "{name} shard {id}"
            );
        }
    }
}

#[test]
fn double_hashing_loses_nothing_under_served_churn() {
    // The paper's deletion claim, at the engine layer: after heavy churn
    // the load profiles of double hashing and fully random are
    // indistinguishable, and both match the single-table ChurnProcess
    // dynamics from ba_core (flatter-than-fresh profile, bounded max).
    let bins = 1u64 << 12;
    let run = |scheme: &str| {
        run_scenario(
            scheme,
            &Scenario::Churn {
                delete_fraction: 0.5,
            },
            config(4, bins, 3, 31),
            bins, // population target ≈ one ball per 4 bins... scaled below
            400_000,
            4_096,
        )
        .unwrap()
    };
    let dh = run("double");
    let fr = run("random");
    assert_eq!(dh.summary.missed_deletes, 0);
    let (hd, hf) = (dh.stats.merged_histogram(), fr.stats.merged_histogram());
    for load in 0..3usize {
        let (a, b) = (hd.fraction(load), hf.fraction(load));
        assert!(
            (a - b).abs() < 0.03,
            "load {load}: double {a} vs random {b}"
        );
    }
    assert!(dh.stats.max_load() <= 6, "max load {}", dh.stats.max_load());

    // Same dynamics as the single-table churn process from ba_core.
    let mut rng = Xoshiro256StarStar::seed_from_u64(31);
    let reference = run_churn_process(
        &DoubleHashing::new(bins, 3),
        bins / 4,
        2 * bins,
        TieBreak::Random,
        &mut rng,
    );
    assert!(
        reference.max_load() <= dh.stats.max_load() + 2
            && dh.stats.max_load() <= reference.max_load() + 2,
        "engine churn (max {}) drifted from ChurnProcess (max {})",
        dh.stats.max_load(),
        reference.max_load()
    );
}

#[test]
fn adversarial_reinsertion_does_not_break_double_hashing() {
    // Correlated delete/re-insert traffic on a small working set, in both
    // choice modes: stream mode stresses churn pressure (recently vacated
    // bins refilling), keyed mode is the paper's fixed-probe re-insertion
    // setting (every re-insert replays its f + k·g sequence). Max load
    // must stay at two-choice scale either way.
    for mode in [ChoiceMode::Stream, ChoiceMode::Keyed] {
        let report = run_scenario(
            "double",
            &Scenario::Adversarial,
            config(4, 1 << 10, 3, 41).mode(mode),
            1 << 10,
            200_000,
            2_048,
        )
        .unwrap();
        assert!(
            report.stats.max_load() <= 6,
            "{mode:?} adversarial traffic blew up max load: {}",
            report.stats.max_load()
        );
    }
}

#[test]
fn engine_runs_the_prng_ablation() {
    // RngKind flows through EngineConfig: the engine serves the paper's
    // generator ablation like the trial harness does, each family staying
    // deterministic and at two-choice max loads.
    let ops: Vec<Op> = (0..8_192u64).map(Op::Insert).collect();
    let mut tables = Vec::new();
    for &name in RngKind::names() {
        let kind = RngKind::by_name(name).unwrap();
        let run = |seed: u64| {
            let mut engine =
                Engine::by_name("double", config(4, 1 << 10, 3, seed).rng(kind)).unwrap();
            engine.serve(&ops, 1_024);
            engine.stats().merged_histogram().counts().to_vec()
        };
        let a = run(19);
        assert_eq!(a, run(19), "{name} must be reproducible");
        assert_ne!(a, run(20), "{name} must respond to the seed");
        tables.push(a);
    }
    assert!(
        tables.windows(2).any(|w| w[0] != w[1]),
        "all PRNG families produced identical tables"
    );
}

#[test]
fn engine_stats_expose_op_percentiles() {
    let report = run_scenario(
        "double",
        &Scenario::Churn {
            delete_fraction: 0.5,
        },
        config(4, 512, 3, 13),
        1_024,
        30_000,
        1_024,
    )
    .unwrap();
    let observed = report.stats.merged_observations();
    assert_eq!(observed.insert_load.total(), report.summary.inserts);
    assert_eq!(observed.delete_load.total(), report.summary.deletes);
    // Inserts land at depth >= 1; the winning probe index is within d.
    assert!(observed.insert_load.percentile(50.0) >= 1);
    assert!(observed.insert_probe.max() < 3);
    let rendered = report.stats.render();
    assert!(rendered.contains("insert landing load"), "{rendered}");
}

#[test]
fn facade_prelude_serves_engine_types() {
    let mut engine = Engine::by_name("double", EngineConfig::new(2, 128, 2)).unwrap();
    let summary = engine.serve(&[Op::Insert(1), Op::Lookup(1), Op::Delete(1)], 8);
    assert_eq!(summary.inserts, 1);
    assert_eq!(summary.hits, 1);
    assert_eq!(summary.deletes, 1);
    let stats: EngineStats = engine.stats();
    assert_eq!(stats.total_balls(), 0);
}

/// A scheme whose every placement naps, so pipelined shard workers
/// drain their queues slowly — the lever the stall-accounting tests
/// use to force real backpressure without racing the scheduler.
#[derive(Debug, Clone)]
struct Sluggish {
    n: u64,
    nap: std::time::Duration,
}

impl ChoiceScheme for Sluggish {
    fn n(&self) -> u64 {
        self.n
    }
    fn d(&self) -> usize {
        1
    }
    fn fill_choices(&self, rng: &mut dyn Rng64, out: &mut [u64]) {
        std::thread::sleep(self.nap);
        out[0] = rng.gen_range(self.n);
    }
}

/// Serves `ops` inserts through a single slow shard with the given
/// queue depth and returns the per-batch metric records.
fn slow_pipelined_records(total_ops: u64, batch: usize, depth: usize) -> Vec<MetricRecord> {
    let cfg = config(1, 64, 1, 7).pipelined(depth);
    let mut engine = Engine::with_scheme_factory(cfg, |_| Sluggish {
        n: 64,
        nap: std::time::Duration::from_micros(200),
    });
    let sink = SharedSink::new();
    engine.set_sink(Box::new(sink.clone()));
    engine.serve_replay((0..total_ops).map(Op::Insert), batch);
    engine.take_sink();
    sink.records()
}

#[test]
fn tiny_queue_depth_records_backpressure_stalls() {
    // Eight batches into a depth-1 queue whose worker needs ~6ms per
    // batch: the producer must block on at least one send, and the
    // sink's stall accounting has to say so.
    let records = slow_pipelined_records(256, 32, 1);
    assert_eq!(records.len(), 8, "one record per shipped batch");
    assert!(records.iter().all(|r| r.shard == Some(0)));
    let stalls: u32 = records.iter().map(|r| r.stalls).sum();
    assert!(
        stalls > 0,
        "depth-1 queue behind a slow worker never stalled"
    );
    let stalled: std::time::Duration = records.iter().map(|r| r.stalled).sum();
    assert!(stalled > std::time::Duration::ZERO);
    // Occupancy is bounded by the queue depth at every observation.
    assert!(records.iter().all(|r| r.queue_occupancy <= 1));
}

#[test]
fn ample_queue_depth_records_zero_stalls() {
    // With queue depth comfortably above the total batch count the
    // producer can never block, however slow the worker: stall counts
    // must be exactly zero, not merely small.
    let records = slow_pipelined_records(256, 32, 64);
    assert_eq!(records.len(), 8);
    assert!(records.iter().all(|r| r.stalls == 0), "{records:?}");
    assert!(records
        .iter()
        .all(|r| r.stalled == std::time::Duration::ZERO));
}

#[test]
#[should_panic(expected = "EngineConfig::pipelined(3)")]
fn workload_path_rejects_non_power_of_two_queue_depth_at_construction() {
    // Fail-fast satellite: a queue depth that is not a power of two dies
    // when the engine is built — before any ops are generated — and the
    // panic names the offending builder call.
    let _ = run_scenario(
        "double",
        &Scenario::Adversarial,
        config(4, 128, 3, 7).pipelined(3),
        512,
        1_000,
        256,
    );
}

#[test]
fn degenerate_pipelined_batch_size_warns_and_matches_phased() {
    // Satellite acceptance: batch_size below the shard count under
    // IngestMode::Pipelined clamps every per-shard batch to one op. The
    // engine must say so through its warning channel while staying
    // bit-identical to phased serving of the same stream.
    let ops: Vec<Op> = (0..4_000u64)
        .map(|i| match i % 5 {
            0..=2 => Op::Insert(i % 300),
            3 => Op::Lookup(i % 300),
            _ => Op::Delete(i % 300),
        })
        .collect();
    let mut phased = Engine::by_name("double", config(8, 256, 3, 7).keyed()).unwrap();
    let expected = phased.serve(&ops, 5);
    let mut pipelined =
        Engine::by_name("double", config(8, 256, 3, 7).keyed().pipelined(4)).unwrap();
    let summary = pipelined.serve_replay(ops.iter().copied(), 5);
    assert_eq!(summary, expected);
    assert!(phased.stats().matches(&pipelined.stats()));
    let warnings = pipelined.take_warnings();
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(
        warnings[0].contains("batch_size 5 < 8 shards"),
        "{warnings:?}"
    );
    assert!(pipelined.take_warnings().is_empty(), "warnings must drain");
}

#[test]
fn phased_ingestion_records_no_queue_pressure() {
    // Phased serving has no queues at all: every record is engine-wide
    // (shard None) with zeroed stall and occupancy fields.
    let mut engine = Engine::by_name("double", config(4, 128, 3, 7)).unwrap();
    let sink = SharedSink::new();
    engine.set_sink(Box::new(sink.clone()));
    let ops: Vec<Op> = (0..2_000u64).map(Op::Insert).collect();
    engine.serve(&ops, 256);
    engine.take_sink();
    let records = sink.records();
    assert_eq!(records.len(), 8);
    for r in &records {
        assert_eq!(r.shard, None);
        assert_eq!(r.stalls, 0);
        assert_eq!(r.stalled, std::time::Duration::ZERO);
        assert_eq!(r.queue_occupancy, 0);
    }
}
