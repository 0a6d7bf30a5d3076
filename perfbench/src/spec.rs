//! The four named workloads: engine configuration, op stream, and the
//! size of one pass.
//!
//! A run repeats *passes*. Each pass builds a fresh engine and generator
//! from the pass seed, serves a fixed number of ops, and is checked
//! against a reference before its numbers count. A fixed pass size makes
//! each pass's final state (and so its balance) a pure function of the
//! seed, however many passes the run length allows.

use ba_engine::{Engine, EngineConfig, WorkerMode};
use ba_hash::DoubleHashing;
use ba_workload::{ChurnWorkload, UniformWorkload, Workload, ZipfWorkload};

/// Ops per batch: the driving thread generates and submits this many
/// ops, then waits for them (closed loop, one client).
pub const BATCH: usize = 1024;
/// Choices per ball: the paper's double hashing with d = 3.
pub const D: usize = 3;
/// Ring depth of the pipelined workload.
pub const QUEUE_DEPTH: usize = 4;

/// How the engine ingests the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// `IngestMode::Pipelined { queue_depth: 4, producers: 1 }`.
    Pipelined,
    /// Phased with `WorkerMode::Persistent`.
    Phased,
    /// `IngestMode::Rounds { producers: 1 }`, persistent workers.
    Rounds,
}

/// Which generator produces the op stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// `UniformWorkload` over a 2^48 keyspace: inserts of fresh keys.
    Uniform,
    /// `ZipfWorkload` over 2^16 keys, theta 0.9, 25% lookups.
    Zipf,
    /// `ChurnWorkload`, population 4,096, delete fraction 0.5.
    Churn,
}

/// One workload's definition.
#[derive(Debug)]
pub struct Spec {
    /// The workload's name on the command line.
    pub name: &'static str,
    /// Engine shards.
    pub shards: usize,
    /// Bins per shard.
    pub bins_per_shard: u64,
    /// Ingest mode.
    pub ingest: Ingest,
    /// Op stream.
    pub stream: Stream,
    /// Batches per pass at full size.
    pub pass_batches: u64,
    /// Passes a run serves at least; balance is averaged over this many.
    pub min_passes: u64,
    /// Whether a `WindowedAggregator` sink is attached.
    pub sink: bool,
}

pub const UNIFORM_KEYSPACE: u64 = 1 << 48;
pub const ZIPF_KEYSPACE: u64 = 1 << 16;
pub const ZIPF_THETA: f64 = 0.9;
pub const ZIPF_LOOKUPS: f64 = 0.25;
pub const CHURN_POPULATION: u64 = 4096;
pub const CHURN_DELETES: f64 = 0.5;
/// Window of the churn workload's `WindowedAggregator`.
pub const SINK_WINDOW_MS: u64 = 100;

pub const SPECS: [Spec; 4] = [
    // 2^22 fresh keys per pass: the key index grows from empty past
    // 2 × the host's 105 MB L3 (2^21 keys already exceed it).
    Spec {
        name: "uniform-pipelined",
        shards: 1,
        bins_per_shard: 1 << 16,
        ingest: Ingest::Pipelined,
        stream: Stream::Uniform,
        pass_batches: 1 << 12,
        min_passes: 6,
        sink: false,
    },
    // 32 batches per zipf pass: rounds mode's cost per batch grows with
    // the load the hot keys' bins have accumulated, and both zipf
    // workloads serve the same passes.
    Spec {
        name: "zipf-phased",
        shards: 2,
        bins_per_shard: 1 << 12,
        ingest: Ingest::Phased,
        stream: Stream::Zipf,
        pass_batches: 32,
        min_passes: 32,
        sink: false,
    },
    Spec {
        name: "zipf-rounds",
        shards: 2,
        bins_per_shard: 1 << 12,
        ingest: Ingest::Rounds,
        stream: Stream::Zipf,
        pass_batches: 32,
        min_passes: 32,
        sink: false,
    },
    Spec {
        name: "churn-phased",
        shards: 2,
        bins_per_shard: 1 << 11,
        ingest: Ingest::Phased,
        stream: Stream::Churn,
        pass_batches: 64,
        // Each pass's tail depends on where the churning population
        // ends, so balance averages over many (cheap) passes.
        min_passes: 512,
        sink: true,
    },
];

impl Spec {
    /// The workload named `name`.
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// Total bins across shards.
    pub fn bins(&self) -> u64 {
        self.shards as u64 * self.bins_per_shard
    }

    fn base(&self, seed: u64) -> EngineConfig {
        EngineConfig::new(self.shards, self.bins_per_shard, D)
            .seed(seed)
            .keyed()
    }

    /// The measured engine's configuration.
    pub fn config(&self, seed: u64) -> EngineConfig {
        let base = self.base(seed).workers(WorkerMode::Persistent);
        match self.ingest {
            Ingest::Pipelined => base.pipelined(QUEUE_DEPTH),
            Ingest::Phased => base,
            Ingest::Rounds => base.rounds(),
        }
    }

    /// The reference engine a pass is checked against: phased and
    /// `WorkerMode::Sequential`, in rounds mode for the rounds workload
    /// (whose placement differs from sequential d-choice by design).
    pub fn twin_config(&self, seed: u64) -> EngineConfig {
        let base = self.base(seed).sequential();
        match self.ingest {
            Ingest::Rounds => base.rounds(),
            _ => base,
        }
    }

    /// A phased, sequential engine over the same shards: what the
    /// layer replay reproduces shard by shard.
    pub fn sequential_config(&self, seed: u64) -> EngineConfig {
        self.base(seed).sequential()
    }

    /// A fresh op generator for `seed`.
    pub fn generator(&self, seed: u64) -> Box<dyn Workload> {
        match self.stream {
            Stream::Uniform => Box::new(UniformWorkload::new(UNIFORM_KEYSPACE, seed)),
            Stream::Zipf => Box::new(ZipfWorkload::new(
                ZIPF_KEYSPACE,
                ZIPF_THETA,
                ZIPF_LOOKUPS,
                seed,
            )),
            Stream::Churn => Box::new(ChurnWorkload::new(CHURN_POPULATION, CHURN_DELETES, seed)),
        }
    }
}

/// Builds an engine whose shards run keyed double hashing.
pub fn engine(config: EngineConfig) -> Engine<DoubleHashing> {
    Engine::with_scheme_factory(config, |cfg| DoubleHashing::new(cfg.bins_per_shard, cfg.d))
}
