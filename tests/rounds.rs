//! Rounds-mode acceptance tests over the checked-in golden corpus.
//!
//! Four anchors, all against the `.baops` captures under `tests/golden/`
//! (pinned at `(GOLDEN_KEYSPACE, GOLDEN_SEED, GOLDEN_OPS)`):
//!
//! 1. **Determinism** — serving a golden capture through
//!    [`IngestMode::Rounds`] is bit-identical whatever the in-batch op
//!    order or worker mode: final global bin vector, batch summary, and
//!    full stats all match a sequential baseline.
//! 2. **Shard invariance** — the global bin vector is even invariant
//!    under re-sharding at a fixed global bin total, because the rounds
//!    resolver places into the global bin space before shard routing.
//! 3. **Quality** — round-synchronized resolution may not wreck the
//!    paper's balance: per scenario, the rounds max load stays within a
//!    small additive slack of the sequential keyed d-choice max load.
//! 4. **Placement stability** — round counts, re-proposals, max load and
//!    a hash of the global bin vector at the pinned seed match
//!    checked-in values, so a change that moves every rounds placement
//!    alike still fails loudly.

use balanced_allocations::engine::WorkerMode;
use balanced_allocations::prelude::*;
use balanced_allocations::workload::replay::{GOLDEN_OPS, GOLDEN_SEED};
use std::path::PathBuf;

/// Batch size every rounds serve here uses — the granularity the
/// determinism contract is stated over.
const BATCH: usize = 512;

/// Global bin total held constant while the shard axis varies.
const TOTAL_BINS: u64 = 1024;

fn golden_path(scenario: &Scenario) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.baops", scenario.name()))
}

fn rounds_config(shards: usize, workers: WorkerMode) -> EngineConfig {
    EngineConfig::new(shards, TOTAL_BINS / shards as u64, 3)
        .seed(GOLDEN_SEED)
        .workers(workers)
        .rounds()
}

/// The global per-bin load vector — shard layout flattened away, which
/// is the space the purity contract is stated over.
fn global_loads<S: balanced_allocations::hash::ChoiceScheme + 'static>(
    engine: &Engine<S>,
) -> Vec<u32> {
    engine
        .shards()
        .iter()
        .flat_map(|s| s.allocation().loads().iter().copied())
        .collect()
}

/// Reverses each batch-sized chunk: any in-batch permutation must be
/// invisible to the rounds resolver (crossing a batch boundary would
/// legitimately change batch multisets).
fn permute_within_batches(ops: &[Op], batch: usize) -> Vec<Op> {
    let mut permuted = ops.to_vec();
    for chunk in permuted.chunks_mut(batch) {
        chunk.reverse();
    }
    permuted
}

#[test]
fn golden_corpus_through_rounds_is_order_and_worker_invariant() {
    // Anchor 1: capture-order baseline vs per-batch-permuted streams
    // under every worker mode.
    for scenario in Scenario::all() {
        let file = ReplayFile::open(golden_path(&scenario)).expect("golden file decodes");
        let ops: Vec<Op> = file.ops().to_vec();
        let permuted = permute_within_batches(&ops, BATCH);

        let mut reference =
            Engine::by_name("double", rounds_config(4, WorkerMode::Sequential)).unwrap();
        let baseline_summary = reference.serve(&ops, BATCH);
        let baseline_loads = global_loads(&reference);
        let report = reference.take_round_report().expect("rounds mode");
        assert!(
            report.batches > 0,
            "{}: no batches resolved",
            scenario.name()
        );

        for workers in [WorkerMode::Sequential, WorkerMode::Persistent] {
            let tag = format!("{}/{workers:?}", scenario.name());
            let mut engine = Engine::by_name("double", rounds_config(4, workers)).unwrap();
            let summary = engine.serve(&permuted, BATCH);
            assert_eq!(summary, baseline_summary, "{tag}: summary diverged");
            assert_eq!(
                global_loads(&engine),
                baseline_loads,
                "{tag}: global bin vector diverged"
            );
            let divergences = reference.stats().divergences(&engine.stats());
            assert!(divergences.is_empty(), "{tag}: {divergences:?}");
        }
    }
}

#[test]
fn golden_corpus_through_rounds_is_shard_count_invariant() {
    // Anchor 2: the same capture resolved over {1, 2, 4} shards at a
    // constant 1024-bin global space lands every ball in the same
    // global bin. (Per-shard stats legitimately differ across shard
    // counts — routing attributes lookups/deletes differently — so the
    // comparison is global loads + summary only.)
    for scenario in Scenario::all() {
        let file = ReplayFile::open(golden_path(&scenario)).expect("golden file decodes");
        let ops: Vec<Op> = file.ops().to_vec();

        let mut reference =
            Engine::by_name("double", rounds_config(1, WorkerMode::Sequential)).unwrap();
        let baseline_summary = reference.serve(&ops, BATCH);
        let baseline_loads = global_loads(&reference);
        assert_eq!(baseline_loads.len() as u64, TOTAL_BINS);

        for shards in [2usize, 4] {
            let tag = format!("{}/{shards} shards", scenario.name());
            let mut engine =
                Engine::by_name("double", rounds_config(shards, WorkerMode::Persistent)).unwrap();
            let summary = engine.serve(&ops, BATCH);
            assert_eq!(summary, baseline_summary, "{tag}: summary diverged");
            assert_eq!(
                global_loads(&engine),
                baseline_loads,
                "{tag}: global bin vector diverged"
            );
        }
    }
}

#[test]
fn rounds_max_load_tracks_sequential_d_choice_on_golden_corpus() {
    // Anchor 3: bulk-parallel resolution keeps the d-choice balance the
    // paper is about. Round-synchronized placement can differ from the
    // strictly sequential process (all balls in a round see the same
    // pre-round loads), but on these captures it must stay within a
    // small additive slack of the sequential keyed max load.
    for scenario in Scenario::all() {
        let file = ReplayFile::open(golden_path(&scenario)).expect("golden file decodes");
        let ops: Vec<Op> = file.ops().to_vec();

        let mut sequential = Engine::by_name(
            "double",
            EngineConfig::new(4, 256, 3).seed(GOLDEN_SEED).keyed(),
        )
        .unwrap();
        sequential.serve(&ops, BATCH);

        let mut rounds =
            Engine::by_name("double", rounds_config(4, WorkerMode::Persistent)).unwrap();
        rounds.serve(&ops, BATCH);
        let report = rounds.take_round_report().expect("rounds mode");

        assert_eq!(report.max_load, rounds.max_load());
        assert!(
            report.max_load <= sequential.max_load() + 2,
            "{}: rounds max load {} vs sequential {}",
            scenario.name(),
            report.max_load,
            sequential.max_load()
        );
    }
}

#[test]
fn incremental_max_load_tracker_matches_full_scan_on_golden_corpus() {
    // The O(1) max-load tracker and the load histogram, both read from
    // the occupancy counters inside `Allocation`, against full load
    // scans, after serving each golden capture through both rounds
    // ingestion and sequential keyed serving — the insert/delete churn
    // paths CI gates on.
    for scenario in Scenario::all() {
        let file = ReplayFile::open(golden_path(&scenario)).expect("golden file decodes");
        let ops: Vec<Op> = file.ops().to_vec();

        let mut rounds =
            Engine::by_name("double", rounds_config(4, WorkerMode::Persistent)).unwrap();
        rounds.serve(&ops, BATCH);
        let mut sequential = Engine::by_name(
            "double",
            EngineConfig::new(4, 256, 3).seed(GOLDEN_SEED).keyed(),
        )
        .unwrap();
        sequential.serve(&ops, BATCH);

        for engine in [&rounds, &sequential] {
            for shard in engine.shards() {
                assert_eq!(
                    shard.allocation().max_load(),
                    shard.allocation().scanned_max_load(),
                    "{}: shard {} tracker diverged from scan",
                    scenario.name(),
                    shard.id()
                );
                assert_eq!(
                    shard.allocation().histogram(),
                    LoadHistogram::from_loads(shard.allocation().loads()),
                    "{}: shard {} histogram diverged from scan",
                    scenario.name(),
                    shard.id()
                );
            }
        }
    }
}

#[test]
fn golden_rounds_snapshots_at_pinned_seed() {
    // Placement-stability anchor for rounds ingestion: the anchors above
    // compare rounds engines with each other, so a change that shifted
    // every placement the same way would pass them. These absolute
    // values were produced by this exact configuration and checked in.
    // Columns: (scenario, rounds, max rounds per batch, summed
    //           reproposals, max load, FNV-1a of the global bin vector).
    const EXPECTED: &[(&str, u64, u64, u64, u32, u64)] = &[
        ("uniform", 69, 21, 10_758, 4, 0xb1e5_85d6_4b68_b9c9),
        ("zipf", 632, 235, 36_834, 45, 0xdeee_984f_8f35_7325),
        ("bursty", 181, 61, 25_490, 11, 0x1317_2e33_f597_9045),
        ("churn", 46, 13, 3_033, 3, 0xbe5b_b7f0_bd2c_00c0),
        ("adversarial", 46, 13, 2_851, 3, 0x7663_6e3d_4461_ddd4),
    ];
    for &(name, rounds, max_rounds, reproposals, max_load, loads_hash) in EXPECTED {
        let scenario = Scenario::by_name(name).unwrap();
        let file = ReplayFile::open(golden_path(&scenario)).expect("golden file decodes");
        let mut engine = Engine::by_name(
            "double",
            EngineConfig::new(4, 256, 3).seed(GOLDEN_SEED).rounds(),
        )
        .unwrap();
        engine.serve(file.ops(), BATCH);
        let report = engine.take_round_report().expect("rounds mode");
        let hash = global_loads(&engine)
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &l| {
                (h ^ u64::from(l)).wrapping_mul(0x0100_0000_01b3)
            });
        let actual = (
            name,
            report.rounds,
            report.max_rounds_per_batch,
            report.reproposals.iter().sum::<u64>(),
            report.max_load,
            hash,
        );
        assert_eq!(
            actual,
            (name, rounds, max_rounds, reproposals, max_load, loads_hash),
            "{name}: pinned rounds snapshot drifted"
        );
    }
}

#[test]
fn drive_through_rounds_matches_direct_serve_on_golden_capture() {
    // The workload driver and direct serve agree on rounds engines, so
    // `run_scenario`/`drive` reports describe the same allocation the
    // engine API produces.
    let file = ReplayFile::open(golden_path(&Scenario::Bursty)).unwrap();
    let mut via_drive =
        Engine::by_name("double", rounds_config(4, WorkerMode::Sequential)).unwrap();
    let mut workload = file.workload();
    let report = drive(&mut via_drive, &mut workload, GOLDEN_OPS, BATCH);
    assert_eq!(report.summary.total_ops(), GOLDEN_OPS);

    let mut via_serve =
        Engine::by_name("double", rounds_config(4, WorkerMode::Sequential)).unwrap();
    let summary = via_serve.serve(file.ops(), BATCH);
    assert_eq!(report.summary, summary);
    assert_eq!(global_loads(&via_drive), global_loads(&via_serve));
    assert!(via_drive.stats().matches(&via_serve.stats()));
}
