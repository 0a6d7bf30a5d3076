//! The replay subsystem's cross-layer acceptance tests.
//!
//! Three anchors, all against the checked-in golden corpus under
//! `tests/golden/` (one `.baops` capture per scenario, pinned at
//! `(GOLDEN_KEYSPACE, GOLDEN_SEED, GOLDEN_OPS)`):
//!
//! 1. **Generator stability** — regenerating each golden capture from its
//!    `(scenario, seed)` pair must reproduce the checked-in file
//!    byte-for-byte, so any change to generators, the Zipf sampler, or
//!    the RNG tree that silently perturbs op streams fails loudly here.
//! 2. **Replay fidelity** — a capture replayed through [`ReplayWorkload`]
//!    produces bit-identical final shard states and [`EngineStats`] to
//!    live generation, for every scenario × `ChoiceMode` × `WorkerMode`.
//! 3. **Placement stability** — `run_scenario` max loads and p50/p99
//!    observation summaries at the pinned seed match checked-in expected
//!    values, so silent drift in hashing, sharding, or percentile math
//!    also fails loudly.

use balanced_allocations::engine::WorkerMode;
use balanced_allocations::prelude::*;
use balanced_allocations::workload::replay::{
    golden_capture, GOLDEN_KEYSPACE, GOLDEN_OPS, GOLDEN_SEED,
};
use std::path::PathBuf;

fn golden_path(scenario: &Scenario) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.baops", scenario.name()))
}

#[test]
fn golden_captures_regenerate_byte_for_byte() {
    // The corpus anchor: `(scenario, seed)` must still mean exactly the
    // stream that was checked in. If this fails, a generator/RNG change
    // altered op streams — either fix the change or consciously
    // regenerate the corpus via `replay_capture golden tests/golden`.
    for scenario in Scenario::all() {
        let path = golden_path(&scenario);
        let on_disk =
            std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let regenerated = golden_capture(&scenario).encode();
        assert_eq!(
            on_disk,
            regenerated,
            "{}: checked-in golden capture no longer matches its generator",
            scenario.name()
        );
    }
}

#[test]
fn golden_captures_decode_with_expected_headers() {
    for scenario in Scenario::all() {
        let file = ReplayFile::open(golden_path(&scenario)).expect("golden file decodes");
        let header = file.header();
        assert_eq!(header.scenario, scenario.name());
        assert_eq!(header.seed, GOLDEN_SEED);
        assert_eq!(header.keyspace, GOLDEN_KEYSPACE);
        assert_eq!(header.op_count, GOLDEN_OPS);
        assert_eq!(file.ops().len() as u64, GOLDEN_OPS);
    }
}

#[test]
fn replayed_golden_captures_match_live_generation_bit_for_bit() {
    // The tentpole acceptance criterion: for every scenario × ChoiceMode
    // × WorkerMode, serving the golden capture through ReplayWorkload is
    // indistinguishable — final bin loads, batch summaries, full stats —
    // from serving the live generator.
    for scenario in Scenario::all() {
        let file = ReplayFile::open(golden_path(&scenario)).expect("golden file decodes");
        for mode in [ChoiceMode::Stream, ChoiceMode::Keyed] {
            for workers in [WorkerMode::Sequential, WorkerMode::Persistent] {
                let config = || {
                    EngineConfig::new(4, 256, 3)
                        .seed(GOLDEN_SEED)
                        .mode(mode)
                        .workers(workers)
                };
                let tag = format!("{}/{mode:?}/{workers:?}", scenario.name());

                let mut live_engine = Engine::by_name("double", config()).unwrap();
                let mut generator = scenario.build(GOLDEN_KEYSPACE, GOLDEN_SEED);
                let live = drive(&mut live_engine, generator.as_mut(), GOLDEN_OPS, 512);

                let mut replay_engine = Engine::by_name("double", config()).unwrap();
                let mut replayed_workload = file.workload();
                let replayed = drive(&mut replay_engine, &mut replayed_workload, GOLDEN_OPS, 512);

                assert_eq!(live.summary, replayed.summary, "{tag}");
                let divergences = live.stats.divergences(&replayed.stats);
                assert!(divergences.is_empty(), "{tag}: {divergences:?}");
                for (a, b) in live_engine.shards().iter().zip(replay_engine.shards()) {
                    assert_eq!(
                        a.allocation().loads(),
                        b.allocation().loads(),
                        "{tag}: shard {} bin loads",
                        a.id()
                    );
                }
            }
        }
    }
}

#[test]
fn differential_replay_of_golden_corpus_is_consistent() {
    // The differential runner over the checked-in corpus: every scheme ×
    // choice mode serves each capture identically under all worker modes.
    for scenario in Scenario::all() {
        let file = ReplayFile::open(golden_path(&scenario)).expect("golden file decodes");
        let outcome = differential_replay(
            &file,
            &["random", "double", "one"],
            EngineConfig::new(4, 256, 3).seed(GOLDEN_SEED),
            512,
        )
        .unwrap();
        assert!(
            outcome.is_consistent(),
            "{}: {:?}",
            scenario.name(),
            outcome.divergences
        );
        assert_eq!(outcome.scenario, scenario.name());
    }
}

#[test]
fn serve_replay_on_golden_capture_matches_drive() {
    // The engine's iterator ingestion path and the workload driver agree
    // on replayed streams.
    let file = ReplayFile::open(golden_path(&Scenario::Bursty)).unwrap();
    let config = || EngineConfig::new(4, 256, 3).seed(GOLDEN_SEED);
    let mut via_drive = Engine::by_name("double", config()).unwrap();
    let mut workload = file.workload();
    let report = drive(&mut via_drive, &mut workload, GOLDEN_OPS, 512);
    let mut via_serve = Engine::by_name("double", config()).unwrap();
    let summary = via_serve.serve_replay(file.ops().iter().copied(), 512);
    assert_eq!(report.summary, summary);
    assert!(via_drive.stats().matches(&via_serve.stats()));
}

#[test]
fn serve_pipelined_on_golden_captures_matches_phased_replay() {
    // The pipelined twin of the replay-fidelity anchor: pushing a golden
    // capture through the SPSC-ring pipeline at several queue depths is
    // bit-identical to phased serve_replay of the same file, in both
    // choice modes.
    for scenario in Scenario::all() {
        let file = ReplayFile::open(golden_path(&scenario)).expect("golden file decodes");
        for mode in [ChoiceMode::Stream, ChoiceMode::Keyed] {
            let config = || EngineConfig::new(4, 256, 3).seed(GOLDEN_SEED).mode(mode);
            let mut phased_engine = Engine::by_name("double", config()).unwrap();
            let phased = phased_engine.serve_replay(file.ops().iter().copied(), 512);
            for depth in [1, 4, 64] {
                let tag = format!("{}/{mode:?}/depth {depth}", scenario.name());
                let mut pipelined_engine =
                    Engine::by_name("double", config().pipelined(depth)).unwrap();
                let pipelined = pipelined_engine.serve_replay(file.ops().iter().copied(), 512);
                assert_eq!(pipelined, phased, "{tag}");
                let divergences = phased_engine.stats().divergences(&pipelined_engine.stats());
                assert!(divergences.is_empty(), "{tag}: {divergences:?}");
                for (a, b) in phased_engine.shards().iter().zip(pipelined_engine.shards()) {
                    assert_eq!(
                        a.allocation().loads(),
                        b.allocation().loads(),
                        "{tag}: shard {} bin loads",
                        a.id()
                    );
                }
            }
        }
    }
}

#[test]
fn golden_stats_snapshots_at_pinned_seed() {
    // Placement-stability anchor: expected values were produced by this
    // exact configuration and checked in. A mismatch means hashing,
    // routing, tie-breaking, generator, or percentile behaviour changed.
    // Columns: (scenario, max_load, insert_load p50, insert_load p99,
    //           insert_probe p99, delete count, lookup count).
    const EXPECTED: &[(&str, u32, u32, u32, u32, u64, u64)] = &[
        ("uniform", 4, 2, 3, 2, 0, 0),
        ("zipf", 4, 1, 3, 2, 0, 518),
        ("bursty", 4, 2, 3, 2, 0, 0),
        ("churn", 3, 1, 2, 2, 511, 0),
        ("adversarial", 2, 1, 2, 2, 512, 0),
    ];
    for &(name, max_load, p50, p99, probe_p99, deletes, lookups) in EXPECTED {
        let scenario = Scenario::by_name(name).unwrap();
        let report = run_scenario(
            "double",
            &scenario,
            EngineConfig::new(4, 256, 3).seed(GOLDEN_SEED),
            GOLDEN_KEYSPACE,
            GOLDEN_OPS,
            512,
        )
        .unwrap();
        let observed = report.stats.merged_observations();
        let actual = (
            name,
            report.stats.max_load(),
            observed.insert_load.percentile(50.0),
            observed.insert_load.percentile(99.0),
            observed.insert_probe.percentile(99.0),
            observed.delete_load.total(),
            observed.lookup_depth.total(),
        );
        assert_eq!(
            actual,
            (name, max_load, p50, p99, probe_p99, deletes, lookups),
            "{name}: pinned stats snapshot drifted"
        );
    }
}

#[test]
fn tampered_golden_files_are_rejected_with_typed_errors() {
    let bytes = std::fs::read(golden_path(&Scenario::Uniform)).unwrap();
    // Sanity: the pristine file decodes.
    assert!(ReplayFile::decode(&bytes).is_ok());
    // Truncation mid-body.
    assert!(matches!(
        ReplayFile::decode(&bytes[..bytes.len() / 2]),
        Err(ReplayError::ChecksumMismatch { .. } | ReplayError::Truncated)
    ));
    // A flipped payload bit.
    let mut corrupt = bytes.clone();
    corrupt[100] ^= 0x10;
    assert!(matches!(
        ReplayFile::decode(&corrupt),
        Err(ReplayError::ChecksumMismatch { .. })
    ));
    // A future format version.
    let mut future = bytes.clone();
    future[5] = 7;
    assert!(matches!(
        ReplayFile::decode(&future),
        Err(ReplayError::UnsupportedVersion(7))
    ));
    // Not a .baops file at all.
    assert!(matches!(
        ReplayFile::decode(b"PNG\r\n definitely not ops"),
        Err(ReplayError::BadMagic)
    ));
}
