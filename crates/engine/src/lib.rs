//! `ba-engine` — a sharded, concurrent balanced-allocation engine.
//!
//! The paper ("Balanced Allocations and Double Hashing", Mitzenmacher,
//! SPAA 2014) validates its claim with single-trial, single-threaded
//! simulations. This crate turns the same placement processes into a
//! data-plane: live bin tables served by shards, ingesting batched
//! insert/delete/lookup traffic in parallel, with any
//! [`ba_hash::ChoiceScheme`] supplying the d choices per ball.
//!
//! Design:
//!
//! * **Sharding** — keys route to shards by a fixed SplitMix64 hash
//!   ([`route`]); each shard owns an independent bin table, so shards never
//!   contend and the engine scales linearly with cores.
//! * **Choice sources** — [`ChoiceMode::Stream`] draws fresh choices from
//!   each shard's RNG stream (the paper's process model);
//!   [`ChoiceMode::Keyed`] derives them from `hash(key, shard_salt)` (the
//!   hash-table model), so deleting and re-inserting a key replays its
//!   exact `f + k·g` probe sequence. The generator family behind the
//!   stream is selectable via [`EngineConfig::rng`] (the paper's PRNG
//!   ablation, served live).
//! * **Determinism** — shard `i` draws all randomness from
//!   `SeedSequence::new(seed).child(i)`, and only inserts consume the
//!   stream, so the final state is a pure function of `(config,
//!   op stream)`: sequential and persistent-worker application agree
//!   bit-for-bit, and an insert-only shard reproduces
//!   `ba_core::run_process` (or `run_process_keys` in keyed mode) exactly.
//! * **Persistent workers** — [`Engine::serve`] chunks an op stream into
//!   batches; under phased ingestion each batch is partitioned per shard
//!   (order-preserving, into reusable scratch buffers — the hot path
//!   allocates nothing after warm-up) and fanned out to one long-lived
//!   worker thread per shard ([`WorkerMode::Persistent`]) over a
//!   capacity-1 SPSC ring ([`spsc`]) per direction, avoiding a thread
//!   spawn per batch;
//!   `std::sync::mpsc` carries only the pipelined path's drained-buffer
//!   recycling. Workers join gracefully when the engine drops.
//! * **Pipelined ingestion** — [`IngestMode::Pipelined`] (via
//!   [`EngineConfig::pipelined`], entered through [`Engine::serve`] or
//!   [`Engine::serve_replay`]) overlaps production with application:
//!   the calling thread routes the op stream and ships per-shard
//!   batches into one *bounded* backpressured lock-free SPSC ring per
//!   shard ([`spsc`]) while the persistent workers apply earlier
//!   batches; drained batch buffers recycle back to the calling thread.
//!   Bit-identical results to phased serving, strictly better
//!   caller/worker overlap.
//! * **Round-synchronized ingestion** — [`IngestMode::Rounds`]
//!   (module [`rounds`]) resolves each batch's inserts in synchronized
//!   propose/accept rounds over the *global* bin space, on the calling
//!   thread: bins accept proposals below a load threshold in
//!   salted-key-hash tie order, losers re-propose. Placement is a pure
//!   function of *(batch contents as a multiset, seed)* — independent of
//!   op order, worker mode, and shard count — and each batch yields a
//!   [`RoundReport`] (rounds taken, re-proposals per round, max load).
//!   Batches take tens to hundreds of rounds, but rounds that place
//!   no ball are skipped in closed form: on `tables rounds` rounds mode
//!   serves at 1.1–1.6× the cost of sequential d-choice. Perfbench's
//!   `zipf-rounds` against `zipf-phased`, the same stream served
//!   sequentially, measures the cost on the engine.
//! * **Replay** — [`Engine::serve_replay`] ingests an op *iterator* in
//!   batch-sized chunks, so captured workload files (the `ba-workload`
//!   replay module's `.baops` format) replay at live-serving memory cost,
//!   and [`EngineStats::divergences`] diffs two stats snapshots field by
//!   field for differential runs.
//! * **Metrics** — [`EngineStats`] snapshots per-shard load histograms,
//!   max loads, traffic counters, and per-op-kind load/probe
//!   observations ([`OpObservations`]). Both histograms and observations
//!   are the one exact integer histogram, [`ba_stats::LoadHistogram`]: a
//!   shard's load histogram is copied from its allocation's occupancy
//!   counters in O(max load), and each op records its observation, so
//!   every percentile is exact. Snapshots from different engines (or
//!   nodes) combine via [`EngineStats::merge`].
//! * **Clustering** — [`cluster::Cluster`] fronts many engines behind a
//!   consistent-hash ring ([`cluster::HashRing`], [`NODE_VNODES`] virtual
//!   nodes per node): keys route to a *fixed* set of partitions
//!   ([`cluster::partition_of`]), partitions map to nodes via the ring,
//!   so node add/remove moves only ~1/N of keys and a 1-node vs N-node
//!   cluster serves any stream bit-identically. Live rebalance moves
//!   affected partitions wholesale ([`RebalanceMode::Transfer`]) or
//!   drains them key by key through keyed delete→re-insert
//!   ([`RebalanceMode::Drain`]), logging explainable divergences;
//!   cluster-wide stats merge via [`EngineStats::merge`]. Partition
//!   engines may not use rounds ingestion, whose key index a drain
//!   cannot see ([`ConfigError::RoundsPartitions`]).
//! * **Telemetry** — attaching a [`MetricsSink`] via [`Engine::set_sink`]
//!   emits one [`MetricRecord`] per applied batch (size, op mix, apply
//!   latency, and — on the pipelined path — bounded-queue occupancy and
//!   backpressure stall count/duration). [`WindowedAggregator`] rolls
//!   records into per-window summaries whose distributions are
//!   bounded-memory [`ba_stats::HistogramSketch`]es, and
//!   [`JsonLinesExporter`] streams one JSON line per closed window.
//!   Sinks observe, never steer: results stay bit-identical with or
//!   without one attached.
//!
//! # Example
//!
//! ```
//! use ba_engine::{Engine, EngineConfig, Op};
//!
//! let mut engine = Engine::by_name("double", EngineConfig::new(4, 1 << 10, 3).seed(9))
//!     .expect("known scheme");
//! let ops: Vec<Op> = (0..4096u64).map(Op::Insert).collect();
//! let summary = engine.serve(&ops, 512);
//! assert_eq!(summary.inserts, 4096);
//! assert_eq!(engine.total_balls(), 4096);
//! // Four choices-of-3 tables at load factor 1: max load stays tiny.
//! assert!(engine.max_load() <= 5, "max load {}", engine.max_load());
//! println!("{}", engine.stats().render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
mod engine;
pub mod index;
mod metrics;
mod op;
pub mod rounds;
mod shard;
mod sink;
pub mod spsc;

pub use cluster::{
    Cluster, ClusterConfig, HashRing, Placement, RebalanceMode, RebalanceReport, NODE_VNODES,
};
pub use engine::{route, ChoiceMode, ConfigError, Engine, EngineConfig, IngestMode, WorkerMode};
pub use index::KeyIndex;
pub use metrics::{EngineStats, OpObservations, ShardStats};
pub use op::{BatchSummary, Op};
pub use rounds::RoundReport;
pub use shard::Shard;
pub use sink::{
    JsonLinesExporter, MetricRecord, MetricsSink, SharedSink, WindowSummary, WindowedAggregator,
};
