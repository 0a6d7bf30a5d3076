//! # balanced-allocations
//!
//! A reproduction of Michael Mitzenmacher's **"Balanced Allocations and
//! Double Hashing"** (SPAA 2014, arXiv:1209.5360) as a production-quality
//! Rust workspace.
//!
//! The paper shows — empirically and via fluid-limit theory — that the
//! "power of d choices" load-balancing paradigm loses nothing when the d
//! choices per ball are generated by *double hashing* (`f + k·g mod n` from
//! two hash values) instead of d independent hashes.
//!
//! This facade re-exports the workspace crates under stable module names:
//!
//! | module | contents |
//! |---|---|
//! | [`rng`] | deterministic PRNGs ([`rng::Xoshiro256StarStar`], [`rng::Pcg64`], drand48 [`rng::Lcg48`]), seed streams |
//! | [`numtheory`] | primality, totient, coprime-stride sampling |
//! | [`hash`] | choice schemes: [`hash::FullyRandom`], [`hash::DoubleHashing`], d-left [`hash::Partitioned`], [`hash::ContiguousBlocks`] |
//! | [`core`] | the balanced-allocation processes and multi-trial harness |
//! | [`engine`] | sharded concurrent allocation engine: batched insert/delete/lookup serving with per-shard RNG streams, plus the consistent-hash cluster tier |
//! | [`workload`] | traffic scenarios (uniform, Zipf, bursty, churn, adversarial) and the engine driver |
//! | [`fluid`] | fluid-limit ODEs: d-choice, d-left, supermarket |
//! | [`queue`] | discrete-event supermarket-model simulator |
//! | [`analysis`] | majorization coupling, ancestry lists, branching processes, pairwise uniformity, witness activation |
//! | [`bloom`] | Bloom filters: k independent hashes vs double hashing (Kirsch–Mitzenmacher) |
//! | [`cuckoo`] | d-ary cuckoo hashing under both hashing disciplines |
//! | [`stats`] | histograms, Welford accumulators, comparison tests |
//!
//! ## Quick start
//!
//! ```
//! use balanced_allocations::prelude::*;
//!
//! let n = 1u64 << 12;
//! let mut rng = Xoshiro256StarStar::seed_from_u64(42);
//!
//! // Throw n balls into n bins, least-loaded of 3 double-hashed choices:
//! let alloc = run_process(&DoubleHashing::new(n, 3), n, TieBreak::Random, &mut rng);
//! assert!(alloc.max_load() <= 4); // log log n / log d + O(1)
//!
//! // Compare with the fluid-limit prediction:
//! let fluid = BalancedAllocationOde::new(3, 8).load_fractions(1.0);
//! let sim_frac0 = alloc.histogram().fraction(0);
//! assert!((sim_frac0 - fluid[0]).abs() < 0.02);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ba_analysis as analysis;
pub use ba_bloom as bloom;
pub use ba_core as core;
pub use ba_cuckoo as cuckoo;
pub use ba_engine as engine;
pub use ba_fluid as fluid;
pub use ba_hash as hash;
pub use ba_numtheory as numtheory;
pub use ba_queue as queue;
pub use ba_rng as rng;
pub use ba_stats as stats;
pub use ba_workload as workload;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use ba_bloom::{BloomFilter, ProbeStrategy};
    pub use ba_core::experiment::{
        fraction_with_max_load, run_load_experiment, run_maxload_experiment, ExperimentConfig,
    };
    pub use ba_core::{run_process, run_process_keys, Allocation, OnePlusBeta, TieBreak};
    pub use ba_cuckoo::{CuckooTable, Insert};
    pub use ba_engine::{
        ChoiceMode, Cluster, ClusterConfig, ConfigError, Engine, EngineConfig, EngineStats,
        HashRing, IngestMode, JsonLinesExporter, MetricRecord, MetricsSink, Op, Placement,
        RebalanceMode, RebalanceReport, RoundReport, SharedSink, WindowSummary, WindowedAggregator,
        WorkerMode, NODE_VNODES,
    };
    pub use ba_fluid::{BalancedAllocationOde, DLeftOde, SupermarketOde};
    pub use ba_hash::{
        AnyScheme, ChoiceScheme, ChoiceSource, ContiguousBlocks, DoubleHashing, FullyRandom,
        OneChoice, Partitioned, Replacement,
    };
    pub use ba_queue::{SojournStats, SupermarketSim};
    pub use ba_rng::{AnyRng, Rng64, RngKind, SeedSequence, Xoshiro256StarStar};
    pub use ba_stats::{HistogramSketch, LoadHistogram, TrialAccumulator, Welford};
    pub use ba_workload::{
        differential_replay, drive, run_scenario, run_scenario_with_sink, ReplayError, ReplayFile,
        ReplayWorkload, Scenario, Workload,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_runs() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0);
        let alloc = run_process(&DoubleHashing::new(64, 2), 64, TieBreak::Random, &mut rng);
        assert_eq!(alloc.balls(), 64);
    }
}
