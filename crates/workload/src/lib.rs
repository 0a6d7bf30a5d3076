//! `ba-workload` — production-shaped traffic scenarios for the engine.
//!
//! The paper's experiments throw uniform balls at empty tables. Real
//! allocators face skew, flash crowds, deletions, and adversaries. This
//! crate generates that traffic as deterministic [`Op`] streams and drives
//! any [`ba_engine::Engine`] with them through one shared driver API, so
//! every [`ba_hash::ChoiceScheme`] answers the same question the paper
//! asks — "does double hashing lose anything?" — under every scenario:
//!
//! * [`UniformWorkload`] — independent uniform inserts (the paper's model);
//! * [`ZipfWorkload`] — power-law keys with an insert/lookup mix;
//! * [`BurstyWorkload`] — flash crowds hammering small key neighbourhoods;
//! * [`ChurnWorkload`] — constant-population insert/delete mix, the
//!   op-stream twin of `ba_core::ChurnProcess`'s deletion setting;
//! * [`AdversarialWorkload`] — correlated delete/re-insert attack traffic
//!   on a small working set of recently deleted keys.
//!
//! Any scenario's stream can also be captured once into a versioned
//! `.baops` file and replayed byte-identically later — across schemes,
//! choice/worker modes, and code versions: see the [`replay`] module
//! ([`ReplayFile`], [`ReplayWorkload`], [`differential_replay`]).
//!
//! # Example
//!
//! ```
//! use ba_engine::EngineConfig;
//! use ba_workload::{run_scenario, Scenario};
//!
//! let report = run_scenario(
//!     "double",
//!     &Scenario::Zipf { theta: 0.9 },
//!     EngineConfig::new(4, 1 << 10, 3).seed(7),
//!     1 << 12,  // keyspace
//!     20_000,   // ops
//!     1 << 10,  // batch size
//! )
//! .expect("known scheme");
//! assert_eq!(report.summary.total_ops(), 20_000);
//! assert!(report.stats.max_load() < 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generators;
pub mod replay;
mod zipf;

pub use generators::{
    AdversarialWorkload, BurstyWorkload, ChurnWorkload, UniformWorkload, Workload, ZipfWorkload,
};
pub use replay::{
    differential_replay, golden_capture, run_replay, DifferentialOutcome, ReplayError, ReplayFile,
    ReplayHeader, ReplayRun, ReplayWorkload,
};
pub use zipf::Zipf;

use ba_engine::{BatchSummary, Engine, EngineConfig, EngineStats, IngestMode, Op};
use ba_hash::{AnyScheme, ChoiceScheme};

/// A named, parameterized scenario that can build its generator.
#[derive(Debug, Clone, PartialEq)]
pub enum Scenario {
    /// Independent uniform inserts.
    Uniform,
    /// Zipf-skewed keys (exponent `theta` in `(0,1)`), 25% lookups.
    Zipf {
        /// The skew exponent.
        theta: f64,
    },
    /// Flash crowds: bursts of 64 inserts over 8 adjacent keys.
    Bursty,
    /// Constant-population insert/delete churn.
    Churn {
        /// Fraction of post-warmup ops that delete (the rest insert).
        delete_fraction: f64,
    },
    /// Delete-then-re-insert attack traffic.
    Adversarial,
}

impl Scenario {
    /// Every scenario at its default parameters, in canonical order.
    pub fn all() -> Vec<Scenario> {
        vec![
            Scenario::Uniform,
            Scenario::Zipf { theta: 0.9 },
            Scenario::Bursty,
            Scenario::Churn {
                delete_fraction: 0.5,
            },
            Scenario::Adversarial,
        ]
    }

    /// Parses a scenario by name: `uniform`, `zipf`, `bursty`, `churn`,
    /// or `adversarial` (default parameters).
    pub fn by_name(name: &str) -> Option<Scenario> {
        Some(match name {
            "uniform" => Scenario::Uniform,
            "zipf" => Scenario::Zipf { theta: 0.9 },
            "bursty" => Scenario::Bursty,
            "churn" => Scenario::Churn {
                delete_fraction: 0.5,
            },
            "adversarial" => Scenario::Adversarial,
            _ => return None,
        })
    }

    /// The names accepted by [`Scenario::by_name`].
    pub fn names() -> &'static [&'static str] {
        &["uniform", "zipf", "bursty", "churn", "adversarial"]
    }

    /// This scenario's short name.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Uniform => "uniform",
            Scenario::Zipf { .. } => "zipf",
            Scenario::Bursty => "bursty",
            Scenario::Churn { .. } => "churn",
            Scenario::Adversarial => "adversarial",
        }
    }

    /// Builds the generator for this scenario.
    ///
    /// `keyspace` bounds uniform/Zipf/bursty key draws and sets the target
    /// population for churn/adversarial traffic.
    pub fn build(&self, keyspace: u64, seed: u64) -> Box<dyn Workload> {
        match *self {
            Scenario::Uniform => Box::new(UniformWorkload::new(keyspace, seed)),
            Scenario::Zipf { theta } => Box::new(ZipfWorkload::new(keyspace, theta, 0.25, seed)),
            Scenario::Bursty => Box::new(BurstyWorkload::new(keyspace, 64, 8, seed)),
            Scenario::Churn { delete_fraction } => {
                Box::new(ChurnWorkload::new(keyspace, delete_fraction, seed))
            }
            Scenario::Adversarial => Box::new(AdversarialWorkload::new(keyspace, 256, seed)),
        }
    }
}

/// What a driven scenario produced.
#[derive(Debug, Clone)]
pub struct DriveReport {
    /// The scenario's name.
    pub scenario: &'static str,
    /// Aggregate op counts.
    pub summary: BatchSummary,
    /// Engine state after the run.
    pub stats: EngineStats,
    /// Wall-clock time the engine spent serving batches. Under phased
    /// ingestion this excludes workload generation (so
    /// [`DriveReport::ops_per_sec`] is a serve rate); under
    /// [`IngestMode::Pipelined`] generation and application overlap by
    /// design, so the whole generate+serve wall clock is measured — the
    /// honest number, since the overlap is exactly what the pipeline
    /// buys.
    pub elapsed: std::time::Duration,
}

impl DriveReport {
    /// Operations per second over the drive's wall clock.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return f64::INFINITY;
        }
        self.summary.total_ops() as f64 / secs
    }
}

/// Pulls exactly `remaining` ops from a generator as an iterator — the
/// adapter that lets a [`Workload`] feed [`Engine::serve_replay`]
/// without materializing the stream.
struct WorkloadOps<'a> {
    workload: &'a mut dyn Workload,
    remaining: u64,
}

impl Iterator for WorkloadOps<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.workload.next_op())
    }
}

/// The shared driver: streams `total_ops` operations from `workload` into
/// `engine` in `batch_size` chunks. Works with any scheme and any
/// generator — every scenario/scheme pairing goes through this one path.
///
/// The engine's [`IngestMode`] decides how the stream flows: phased
/// engines alternate generate/apply (one batch buffered at a time);
/// pipelined engines pull ops straight from the generator on the driving
/// thread through [`Engine::serve_replay`] while shard workers apply
/// earlier batches concurrently. Either way `batch_size` means ops per
/// engine-wide batch, and results are bit-identical. Rounds-mode engines
/// ([`IngestMode::Rounds`]) take the phased path too — each batch-sized
/// chunk resolves as one synchronized propose/resolve bulk, so
/// `batch_size` sets the bulk granularity the determinism contract is
/// stated over.
pub fn drive<S: ChoiceScheme + 'static>(
    engine: &mut Engine<S>,
    workload: &mut dyn Workload,
    total_ops: u64,
    batch_size: usize,
) -> DriveReport {
    assert!(batch_size > 0, "batch size must be positive");
    if let IngestMode::Pipelined { .. } = engine.config().ingest {
        let start = std::time::Instant::now();
        let summary = engine.serve_replay(
            WorkloadOps {
                workload,
                remaining: total_ops,
            },
            batch_size,
        );
        let elapsed = start.elapsed();
        return DriveReport {
            scenario: workload.name(),
            summary,
            stats: engine.stats(),
            elapsed,
        };
    }
    let mut serving = std::time::Duration::ZERO;
    let mut summary = BatchSummary::default();
    let mut buf: Vec<Op> = Vec::with_capacity(batch_size);
    let mut remaining = total_ops;
    while remaining > 0 {
        let chunk = batch_size.min(remaining as usize);
        workload.fill(&mut buf, chunk);
        let start = std::time::Instant::now();
        summary.absorb(&engine.apply_batch(&buf));
        serving += start.elapsed();
        remaining -= chunk as u64;
    }
    DriveReport {
        scenario: workload.name(),
        summary,
        stats: engine.stats(),
        elapsed: serving,
    }
}

/// Convenience one-shot: builds an engine for the named scheme (see
/// [`AnyScheme::by_name`]), builds the scenario's generator, and drives
/// it. Returns `None` for an unknown scheme name.
pub fn run_scenario(
    scheme: &str,
    scenario: &Scenario,
    config: EngineConfig,
    keyspace: u64,
    total_ops: u64,
    batch_size: usize,
) -> Option<DriveReport> {
    let seed = config.seed;
    let mut engine: Engine<AnyScheme> = Engine::by_name(scheme, config)?;
    let mut workload = scenario.build(keyspace, seed);
    Some(drive(&mut engine, workload.as_mut(), total_ops, batch_size))
}

/// [`run_scenario`] with a metrics sink attached to the engine for the
/// duration of the drive: every applied batch emits one
/// [`ba_engine::MetricRecord`] into `sink` (see
/// [`ba_engine::Engine::set_sink`]), and the sink is flushed before the
/// report returns. Attaching a sink never changes allocation results —
/// the report is bit-identical to the sink-free run.
pub fn run_scenario_with_sink(
    scheme: &str,
    scenario: &Scenario,
    config: EngineConfig,
    keyspace: u64,
    total_ops: u64,
    batch_size: usize,
    sink: Box<dyn ba_engine::MetricsSink + Send>,
) -> Option<DriveReport> {
    let seed = config.seed;
    let mut engine: Engine<AnyScheme> = Engine::by_name(scheme, config)?;
    engine.set_sink(sink);
    let mut workload = scenario.build(keyspace, seed);
    let report = drive(&mut engine, workload.as_mut(), total_ops, batch_size);
    engine.take_sink(); // flush (e.g. an exporter's final partial window)
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_round_trip() {
        for &name in Scenario::names() {
            let s = Scenario::by_name(name).unwrap();
            assert_eq!(s.name(), name);
        }
        assert_eq!(Scenario::by_name("warp"), None);
        assert_eq!(Scenario::all().len(), Scenario::names().len());
    }

    #[test]
    fn driver_serves_exact_op_count() {
        let mut engine = Engine::by_name("double", EngineConfig::new(4, 256, 3).seed(3)).unwrap();
        let mut workload = Scenario::Uniform.build(1 << 12, 3);
        let report = drive(&mut engine, workload.as_mut(), 10_000, 512);
        assert_eq!(report.summary.total_ops(), 10_000);
        assert_eq!(report.summary.inserts, 10_000);
        assert_eq!(engine.total_balls(), 10_000);
        assert!(report.ops_per_sec() > 0.0);
    }

    #[test]
    fn every_scenario_runs_against_every_scheme() {
        // The acceptance matrix: 5 scenarios × every AnyScheme name.
        for &scheme in AnyScheme::names() {
            for scenario in Scenario::all() {
                let d = if scheme == "one" { 1 } else { 4 };
                let config = EngineConfig::new(2, 64, d).seed(1);
                let report = run_scenario(scheme, &scenario, config, 128, 2_000, 256)
                    .unwrap_or_else(|| panic!("{scheme} should build"));
                assert_eq!(
                    report.summary.total_ops(),
                    2_000,
                    "{scheme}/{}",
                    scenario.name()
                );
            }
        }
    }

    #[test]
    fn pipelined_drive_matches_phased_drive() {
        // The driver's ingest dispatch: a Pipelined engine pulls ops
        // straight from the generator, and the outcome is bit-identical
        // to phased driving — summary, stats, exact op count.
        for scenario in [Scenario::Uniform, Scenario::Adversarial] {
            let phased = run_scenario(
                "double",
                &scenario,
                EngineConfig::new(4, 256, 3).seed(8),
                512,
                12_000,
                512,
            )
            .unwrap();
            let pipelined = run_scenario(
                "double",
                &scenario,
                EngineConfig::new(4, 256, 3).seed(8).pipelined(4),
                512,
                12_000,
                512,
            )
            .unwrap();
            assert_eq!(pipelined.summary.total_ops(), 12_000);
            assert_eq!(pipelined.summary, phased.summary, "{}", scenario.name());
            assert!(
                pipelined.stats.matches(&phased.stats),
                "{}: {:?}",
                scenario.name(),
                pipelined.stats.divergences(&phased.stats)
            );
        }
    }

    #[test]
    fn pipelined_drive_ships_the_same_batches_as_serve_replay() {
        // `batch_size` means ops per engine-wide batch at every entry
        // point: on a 4-shard pipelined engine, driving a generator and
        // replaying the same stream ship identical per-shard batches, each
        // at most batch_size / shards ops.
        const TOTAL: u64 = 12_000;
        const BATCH: usize = 1_024;
        let config = || EngineConfig::new(4, 256, 3).seed(8).pipelined(4);
        let per_shard_ops = |sink: &ba_engine::SharedSink| -> Vec<Vec<u32>> {
            let records = sink.records();
            (0..4)
                .map(|shard| {
                    records
                        .iter()
                        .filter(|r| r.shard == Some(shard))
                        .map(|r| r.ops)
                        .collect()
                })
                .collect()
        };

        let driven_sink = ba_engine::SharedSink::new();
        let mut driven = Engine::by_name("double", config()).unwrap();
        driven.set_sink(Box::new(driven_sink.clone()));
        let mut workload = Scenario::Uniform.build(512, 8);
        drive(&mut driven, workload.as_mut(), TOTAL, BATCH);

        let replayed_sink = ba_engine::SharedSink::new();
        let mut replayed = Engine::by_name("double", config()).unwrap();
        replayed.set_sink(Box::new(replayed_sink.clone()));
        let mut workload = Scenario::Uniform.build(512, 8);
        replayed.serve_replay((0..TOTAL).map(|_| workload.next_op()), BATCH);

        let driven_ops = per_shard_ops(&driven_sink);
        assert!(driven_ops.iter().all(|ops| !ops.is_empty()));
        assert!(driven_ops
            .iter()
            .flatten()
            .all(|&ops| ops as usize <= BATCH / 4));
        assert_eq!(driven_ops, per_shard_ops(&replayed_sink));
    }

    #[test]
    fn rounds_drive_is_deterministic_and_serves_exact_op_count() {
        // The driver's rounds dispatch: each batch resolves as one
        // synchronized bulk; two runs under different worker modes agree
        // exactly.
        for scenario in [Scenario::Uniform, Scenario::by_name("churn").unwrap()] {
            let a = run_scenario(
                "double",
                &scenario,
                EngineConfig::new(4, 256, 3).seed(8).sequential().rounds(),
                512,
                8_000,
                512,
            )
            .unwrap();
            let b = run_scenario(
                "double",
                &scenario,
                EngineConfig::new(4, 256, 3).seed(8).rounds(),
                512,
                8_000,
                512,
            )
            .unwrap();
            assert_eq!(a.summary.total_ops(), 8_000, "{}", scenario.name());
            assert_eq!(a.summary, b.summary, "{}", scenario.name());
            assert!(
                a.stats.matches(&b.stats),
                "{}: {:?}",
                scenario.name(),
                a.stats.divergences(&b.stats)
            );
        }
    }

    #[test]
    #[should_panic(expected = "EngineConfig::pipelined(3)")]
    fn drive_path_rejects_non_power_of_two_queue_depth_at_construction() {
        // One validation contract everywhere: the driver's construction
        // path hard-errors exactly like direct Engine construction —
        // no rounding-up anywhere.
        let _ = run_scenario(
            "double",
            &Scenario::Uniform,
            EngineConfig::new(4, 256, 3).seed(8).pipelined(3),
            512,
            1_000,
            256,
        );
    }

    #[test]
    fn unknown_scheme_yields_none() {
        assert!(run_scenario(
            "warp",
            &Scenario::Uniform,
            EngineConfig::new(1, 16, 2),
            16,
            10,
            4
        )
        .is_none());
    }

    #[test]
    fn churn_traffic_never_misses_deletes() {
        let report = run_scenario(
            "double",
            &Scenario::Churn {
                delete_fraction: 0.5,
            },
            EngineConfig::new(4, 512, 3).seed(9),
            1_024,
            30_000,
            1_024,
        )
        .unwrap();
        assert_eq!(
            report.summary.missed_deletes, 0,
            "generator and engine disagree about live keys"
        );
        // Every surviving ball is accounted for.
        assert_eq!(
            report.stats.total_balls(),
            report.summary.inserts - report.summary.deletes
        );
    }

    #[test]
    fn keyed_adversarial_traffic_respects_fixed_probe_sets() {
        // The fixed-probe re-insertion claim, end to end: after serving
        // correlated delete/re-insert attack traffic in keyed mode, every
        // live ball sits in one of its key's d derived probe bins.
        let mut engine =
            Engine::by_name("double", EngineConfig::new(4, 1 << 10, 3).seed(77).keyed()).unwrap();
        let mut workload = Scenario::Adversarial.build(512, 77);
        let report = drive(&mut engine, workload.as_mut(), 50_000, 1_024);
        assert_eq!(report.summary.missed_deletes, 0);
        let mut checked = 0u64;
        let mut probes = Vec::new();
        for shard in engine.shards() {
            for key in 0..512u64 {
                let Some(bins) = shard.bins_of(key) else {
                    continue;
                };
                shard.probes_into(key, &mut probes);
                for &bin in bins {
                    assert!(
                        probes.contains(&bin),
                        "key {key} held in bin {bin} outside its probe set {probes:?}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked >= 400, "too few live balls checked ({checked})");
    }

    #[test]
    fn stream_adversarial_traffic_wanders_off_probe_sets() {
        // The contrast that motivates keyed mode: under the process model
        // re-inserted balls do not stay inside the keyed probe sets.
        let mut engine =
            Engine::by_name("double", EngineConfig::new(4, 1 << 10, 3).seed(77)).unwrap();
        let mut workload = Scenario::Adversarial.build(512, 77);
        drive(&mut engine, workload.as_mut(), 50_000, 1_024);
        let mut outside = 0u64;
        let mut probes = Vec::new();
        for shard in engine.shards() {
            for key in 0..512u64 {
                let Some(bins) = shard.bins_of(key) else {
                    continue;
                };
                shard.probes_into(key, &mut probes);
                outside += bins.iter().filter(|b| !probes.contains(b)).count() as u64;
            }
        }
        assert!(outside > 0, "stream mode stayed inside keyed probe sets");
    }

    #[test]
    fn keyed_and_stream_scenarios_share_load_statistics() {
        // The paper's indistinguishability claim across choice sources at
        // the serving layer, for traffic that inserts each key once:
        // fresh-key churn and uniform draws over a keyspace much larger
        // than the op count. (Repeat-key traffic — Zipf hot keys,
        // adversarial re-insertion — is *supposed* to differ across the
        // models; the companion tests assert how.)
        for scenario in [
            Scenario::Uniform,
            Scenario::Churn {
                delete_fraction: 0.5,
            },
        ] {
            let keyspace = match scenario {
                Scenario::Uniform => 1u64 << 24,
                _ => 4_096,
            };
            let run = |config: EngineConfig| {
                run_scenario("double", &scenario, config, keyspace, 60_000, 1_024).unwrap()
            };
            let stream = run(EngineConfig::new(4, 1 << 10, 3).seed(5));
            let keyed = run(EngineConfig::new(4, 1 << 10, 3).seed(5).keyed());
            assert_eq!(stream.summary, keyed.summary, "{}", scenario.name());
            let (hs, hk) = (
                stream.stats.merged_histogram(),
                keyed.stats.merged_histogram(),
            );
            for load in 0..3usize {
                let (a, b) = (hs.fraction(load), hk.fraction(load));
                assert!(
                    (a - b).abs() < 0.05,
                    "{}: load {load} stream {a} vs keyed {b}",
                    scenario.name()
                );
            }
        }
    }

    #[test]
    fn keyed_mode_concentrates_repeated_hot_keys() {
        // The flip side of replayability: a key inserted k times in keyed
        // mode lands all k balls inside its fixed d-bin probe set, so
        // hot-key (Zipf) traffic concentrates — stream mode spreads the
        // same inserts over the whole table. This is the defining
        // behavioural difference between the two models, asserted rather
        // than papered over.
        let run = |config: EngineConfig| {
            run_scenario(
                "double",
                &Scenario::Zipf { theta: 0.9 },
                config,
                4_096,
                60_000,
                1_024,
            )
            .unwrap()
        };
        let stream = run(EngineConfig::new(4, 1 << 10, 3).seed(5));
        let keyed = run(EngineConfig::new(4, 1 << 10, 3).seed(5).keyed());
        assert_eq!(stream.summary, keyed.summary);
        assert!(
            keyed.stats.max_load() > stream.stats.max_load(),
            "hot keys should pile up under keyed replay: keyed {} vs stream {}",
            keyed.stats.max_load(),
            stream.stats.max_load()
        );
    }

    #[test]
    fn keyed_adversarial_max_load_stays_bounded() {
        // Fixed-probe re-insertion is the attack the keyed mode exists to
        // study: even when the adversary replays the same probe sequences
        // forever, each key holds one ball, so the max load must stay at
        // two-choice scale rather than blowing up.
        let report = run_scenario(
            "double",
            &Scenario::Adversarial,
            EngineConfig::new(4, 1 << 10, 3).seed(41).keyed(),
            1 << 10,
            200_000,
            2_048,
        )
        .unwrap();
        assert_eq!(report.summary.missed_deletes, 0);
        assert!(
            report.stats.max_load() <= 6,
            "fixed-probe attack blew up max load: {}",
            report.stats.max_load()
        );
    }

    #[test]
    fn run_scenario_with_sink_matches_plain_run() {
        // Observability must be free: same summary/stats as the sink-free
        // run, with every served op accounted for in the records — on
        // both ingestion paths.
        use ba_engine::SharedSink;
        for pipelined in [false, true] {
            let cfg = || {
                let c = EngineConfig::new(4, 256, 3).seed(21);
                if pipelined {
                    c.pipelined(2)
                } else {
                    c
                }
            };
            let plain =
                run_scenario("double", &Scenario::Uniform, cfg(), 1 << 12, 10_000, 512).unwrap();
            let sink = SharedSink::new();
            let observed = run_scenario_with_sink(
                "double",
                &Scenario::Uniform,
                cfg(),
                1 << 12,
                10_000,
                512,
                Box::new(sink.clone()),
            )
            .unwrap();
            assert_eq!(observed.summary, plain.summary, "pipelined={pipelined}");
            assert!(
                observed.stats.matches(&plain.stats),
                "pipelined={pipelined}"
            );
            let records = sink.records();
            assert_eq!(
                records.iter().map(|r| u64::from(r.ops)).sum::<u64>(),
                10_000,
                "pipelined={pipelined}"
            );
            assert_eq!(
                records.iter().all(|r| r.shard.is_some()),
                pipelined,
                "shard attribution follows the ingest mode"
            );
        }
    }

    #[test]
    fn reports_are_reproducible_modulo_time() {
        let cfg = || EngineConfig::new(4, 256, 3).seed(21);
        let a = run_scenario("double", &Scenario::Adversarial, cfg(), 512, 20_000, 512).unwrap();
        let b = run_scenario("double", &Scenario::Adversarial, cfg(), 512, 20_000, 512).unwrap();
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.stats.max_loads(), b.stats.max_loads());
        assert_eq!(
            a.stats.merged_histogram().counts(),
            b.stats.merged_histogram().counts()
        );
    }
}
