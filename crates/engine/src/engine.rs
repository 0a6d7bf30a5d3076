//! The sharded engine: routing, batched ingestion, parallel application.

use crate::metrics::{EngineStats, ShardStats};
use crate::op::{BatchSummary, Op};
use crate::rounds::{RoundReport, RoundsState};
use crate::shard::Shard;
use crate::sink::{MetricRecord, MetricsSink};
use crate::spsc;
use ba_core::TieBreak;
use ba_hash::{AnyScheme, ChoiceScheme};
use ba_rng::RngKind;
use std::fmt;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How shards obtain each ball's choice vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChoiceMode {
    /// Fresh choices from the shard's RNG stream per insert — the paper's
    /// process model. Re-inserting a deleted key draws new bins.
    #[default]
    Stream,
    /// Choices derived from `hash(key, shard_salt)` — the hash-table
    /// model. Re-inserting a key replays its exact `f + k·g` probe
    /// sequence; the RNG stream is consumed only by random tie-breaks.
    Keyed,
}

/// How op streams flow from the calling thread into the shard workers.
///
/// Phased and pipelined ingestion yield bit-identical shard states,
/// summaries, and [`EngineStats`](crate::EngineStats) percentiles for
/// the same op stream — each shard still applies exactly its routed
/// subsequence in order — so that choice trades only
/// latency/throughput, never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IngestMode {
    /// Strictly alternate generate/apply phases: buffer one batch, apply
    /// it across all shards, wait for every shard, repeat. Simple and
    /// allocation-light, but the calling thread idles while workers run
    /// and vice versa.
    #[default]
    Phased,
    /// Overlap production with application: the calling thread routes
    /// the op stream and ships per-shard batches into bounded lock-free
    /// SPSC rings (see [`crate::spsc`]), one per shard, while the
    /// persistent workers apply earlier batches. A full ring blocks the
    /// calling thread (backpressure) rather than buffering without
    /// limit. Each shard still applies its routed subsequence in stream
    /// order, so results stay bit-identical to sequential serving.
    Pipelined {
        /// Maximum batches queued per shard ring before the calling
        /// thread blocks. Must be a power of two (ring granularity).
        /// Depth 1 is a strict double-buffer (worker applies batch `k`
        /// while the caller fills `k+1`); larger depths absorb
        /// burstier routing at the cost of memory.
        queue_depth: usize,
    },
    /// Resolve each batch's inserts in synchronized rounds over the
    /// *global* bin space (see [`crate::rounds`]): every pending ball
    /// proposes its next keyed probe, bins accept proposals below the
    /// round's load threshold in salted-key-hash tie order, and losers
    /// re-propose next round. Every round resolves on the calling
    /// thread, so a rounds engine never spawns shard workers and
    /// [`EngineConfig::workers`] has no effect. Deletes and lookups
    /// apply at batch barriers against pre-batch state. Placement is a
    /// pure function of *(batch contents as a multiset, seed)* —
    /// independent of op order within the batch, worker mode, and shard
    /// count — a strictly stronger determinism contract than the other
    /// modes' bit-identity to sequential serving. [`ChoiceMode`] and
    /// [`ba_core::TieBreak`] are ignored: probes are always keyed off
    /// the rounds salt and ties always break by key hash.
    Rounds,
}

/// How phased batches ([`IngestMode::Phased`]) are applied across
/// shards. Pipelined serving always runs on the persistent workers, and
/// rounds resolve on the calling thread, so neither consults this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WorkerMode {
    /// Apply shard by shard on the calling thread — the reference every
    /// parallel path is checked bit-identical against.
    Sequential,
    /// Long-lived ring-fed worker threads, one per shard, spawned on
    /// the first parallel batch and joined when the engine drops.
    #[default]
    Persistent,
}

/// Configuration for a sharded engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of independent shards.
    pub shards: usize,
    /// Bins per shard table.
    pub bins_per_shard: u64,
    /// Choices per ball within a shard.
    pub d: usize,
    /// Tie-breaking rule used by every shard.
    pub tie: TieBreak,
    /// Master seed; shard `i` uses stream `SeedSequence::new(seed).child(i)`.
    pub seed: u64,
    /// Where choice vectors come from (stream or keyed derivation).
    pub mode: ChoiceMode,
    /// Which generator family drives each shard's stream (the paper's
    /// PRNG ablation, at the engine layer).
    pub rng: RngKind,
    /// How phased batches are applied across shards (pipelined and
    /// rounds ingestion ignore it). Results are bit-identical for every
    /// mode; only throughput differs.
    pub workers: WorkerMode,
    /// How op streams are ingested: strict generate/apply phases, the
    /// pipelined caller/worker overlap, or synchronized rounds. Phased and
    /// pipelined results are bit-identical; only throughput and memory
    /// bounds differ.
    pub ingest: IngestMode,
}

/// A structurally invalid [`EngineConfig`], caught at engine
/// construction — before any ops flow — instead of deep inside a
/// serving call mid-stream. Every variant's message names the builder
/// call that produced the bad value, so the fix is one grep away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `EngineConfig::new` was given zero shards.
    ZeroShards,
    /// Pipelined ingestion was configured with a zero ring depth.
    ZeroQueueDepth,
    /// Pipelined ingestion was configured with a ring depth that is not
    /// a power of two (the SPSC ring's granularity).
    QueueDepthNotPowerOfTwo(usize),
    /// A cluster was configured with zero partitions.
    ZeroPartitions,
    /// A cluster's partition engine template selects rounds ingestion,
    /// whose key index a `Drain` rebalance cannot see.
    RoundsPartitions,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::ZeroShards => {
                write!(f, "EngineConfig::new(0, ..): need at least one shard")
            }
            ConfigError::ZeroQueueDepth => write!(
                f,
                "EngineConfig::pipelined(0): queue depth must be positive"
            ),
            ConfigError::QueueDepthNotPowerOfTwo(depth) => write!(
                f,
                "EngineConfig::pipelined({depth}): queue depth must be a \
                 power of two (SPSC ring granularity)"
            ),
            ConfigError::ZeroPartitions => write!(
                f,
                "ClusterConfig::partitions(0): need at least one partition"
            ),
            ConfigError::RoundsPartitions => write!(
                f,
                "ClusterConfig::new(EngineConfig::rounds()): a Drain rebalance cannot \
                 move rounds-mode keys; use phased or pipelined partition engines"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl EngineConfig {
    /// A config with random ties, seed 1, stream choices, the xoshiro
    /// generator, and persistent parallel application.
    pub fn new(shards: usize, bins_per_shard: u64, d: usize) -> Self {
        Self {
            shards,
            bins_per_shard,
            d,
            tie: TieBreak::Random,
            seed: 1,
            mode: ChoiceMode::default(),
            rng: RngKind::default(),
            workers: WorkerMode::default(),
            ingest: IngestMode::default(),
        }
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the tie-breaking rule.
    pub fn tie(mut self, tie: TieBreak) -> Self {
        self.tie = tie;
        self
    }

    /// Sets the choice mode.
    pub fn mode(mut self, mode: ChoiceMode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects keyed choice derivation (`hash(key, shard_salt)`).
    pub fn keyed(self) -> Self {
        self.mode(ChoiceMode::Keyed)
    }

    /// Sets the generator family for every shard's stream.
    pub fn rng(mut self, rng: RngKind) -> Self {
        self.rng = rng;
        self
    }

    /// Sets the worker mode for batch application.
    pub fn workers(mut self, workers: WorkerMode) -> Self {
        self.workers = workers;
        self
    }

    /// Chooses sequential (deterministic-by-construction) application.
    pub fn sequential(self) -> Self {
        self.workers(WorkerMode::Sequential)
    }

    /// Sets the ingestion mode for [`Engine::serve`]/[`Engine::serve_replay`].
    pub fn ingest(mut self, ingest: IngestMode) -> Self {
        self.ingest = ingest;
        self
    }

    /// Selects pipelined ingestion with the given per-shard ring depth
    /// (see [`IngestMode::Pipelined`]).
    pub fn pipelined(self, queue_depth: usize) -> Self {
        self.ingest(IngestMode::Pipelined { queue_depth })
    }

    /// Selects round-synchronized ingestion
    /// (see [`IngestMode::Rounds`]).
    pub fn rounds(self) -> Self {
        self.ingest(IngestMode::Rounds)
    }

    /// Checks the config's structural invariants, returning the first
    /// violation. Engine constructors
    /// ([`Engine::with_scheme_factory`]/[`Engine::by_name`]) call this and
    /// panic with the error's message, so an `EngineConfig::pipelined(3)`
    /// fails when the engine is built — naming the offending builder call
    /// — rather than mid-serve. This is the only place queue depths are
    /// checked.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if let IngestMode::Pipelined { queue_depth } = self.ingest {
            if queue_depth == 0 {
                return Err(ConfigError::ZeroQueueDepth);
            }
            if !queue_depth.is_power_of_two() {
                return Err(ConfigError::QueueDepthNotPowerOfTwo(queue_depth));
            }
        }
        Ok(())
    }
}

/// Routes a key to a shard: SplitMix64 finalizer, then a multiply-shift
/// range reduction. Stable across runs — the route is part of the engine's
/// deterministic contract.
#[inline]
pub fn route(key: u64, shards: usize) -> usize {
    let mixed = ba_rng::SplitMix64::mix(key ^ 0x9E6C_63D0_876A_3F6B);
    ((mixed as u128 * shards as u128) >> 64) as usize
}

/// One unit of work for a persistent shard worker. The shard travels
/// *by value* through the job ring — a shallow move of the struct, not a
/// deep copy of its bin table and key index — so between jobs the engine
/// keeps full ownership (and `&`-access) to every shard.
enum Job<S> {
    /// Phased mode: apply one pre-partitioned batch and report back. The
    /// op buffer rides home with the result so the engine reuses it for
    /// the next batch instead of reallocating.
    Batch {
        /// The worker's shard, shipped for the duration of the batch.
        shard: Shard<S>,
        /// This shard's slice of the batch, in arrival order.
        ops: Vec<Op>,
    },
    /// Pipelined mode: own the shard for a whole ingestion stream,
    /// applying batches in the order the engine ships them into this
    /// shard's SPSC ring, until the engine disconnects it. Drained op
    /// buffers return through `recycle` so the engine refills them
    /// instead of allocating fresh ones.
    Stream {
        /// The worker's shard, shipped for the duration of the stream.
        shard: Shard<S>,
        /// This shard's bounded batch ring.
        batches: spsc::RingConsumer<Vec<Op>>,
        /// Return path for drained op buffers.
        recycle: mpsc::Sender<Vec<Op>>,
        /// Whether to time each batch apply for metrics (set only when a
        /// sink is attached, so untracked streams pay nothing).
        track: bool,
    },
}

/// What a worker reports after finishing a job: the shard (returned to
/// its slot), the summary of everything applied, the drained op buffer
/// for reuse (batch jobs; stream jobs recycle buffers through their own
/// channel and return an empty placeholder), and — for tracked stream
/// jobs — the per-batch apply latencies, in batch arrival order, that
/// the engine joins with its ship-side records.
struct JobDone<S> {
    shard: Shard<S>,
    summary: BatchSummary,
    buffer: Vec<Op>,
    applies: Vec<Duration>,
}

/// The persistent worker pool: one long-lived thread per shard, fed
/// through a per-worker job ring and reporting through a per-worker
/// results ring. Each is a capacity-1 [`spsc`] ring: the engine never has
/// more than one job in flight per worker (it collects a job's result
/// before sending the next), so sends never block, and a ring parks at
/// once rather than spinning first. Per-worker result
/// rings (rather than one shared queue) make worker death observable: a
/// panicking worker drops its producer, so the engine's `recv` on that
/// worker's ring errors out instead of blocking forever. Dropping the
/// pool closes the job rings (each worker's `recv` then errors out and
/// the thread exits) and joins every handle — graceful shutdown without
/// flags or timeouts.
struct WorkerPool<S> {
    jobs: Vec<spsc::RingProducer<Job<S>>>,
    results: Vec<spsc::RingConsumer<JobDone<S>>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl<S: ChoiceScheme + 'static> WorkerPool<S> {
    fn spawn(shards: usize) -> Self {
        let mut jobs = Vec::with_capacity(shards);
        let mut results = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for id in 0..shards {
            let (tx, rx) = spsc::ring::<Job<S>>(1);
            let (results_tx, results_rx) = spsc::ring(1);
            let handle = std::thread::Builder::new()
                .name(format!("ba-shard-{id}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        let result = match job {
                            Job::Batch { mut shard, ops } => {
                                let summary = shard.apply(&ops);
                                JobDone {
                                    shard,
                                    summary,
                                    buffer: ops,
                                    applies: Vec::new(),
                                }
                            }
                            Job::Stream {
                                mut shard,
                                batches,
                                recycle,
                                track,
                            } => {
                                let mut summary = BatchSummary::default();
                                let mut applies = Vec::new();
                                // The ring delivers batches in ship order,
                                // and disconnects only after the last one
                                // drains, so this replays the shard's ops
                                // in stream order.
                                while let Ok(mut ops) = batches.recv() {
                                    if track {
                                        let t0 = Instant::now();
                                        summary.absorb(&shard.apply(&ops));
                                        applies.push(t0.elapsed());
                                    } else {
                                        summary.absorb(&shard.apply(&ops));
                                    }
                                    ops.clear();
                                    // A recycle error means the engine is
                                    // gone (it panicked); keep draining so
                                    // the stream still ends cleanly.
                                    let _ = recycle.send(ops);
                                }
                                JobDone {
                                    shard,
                                    summary,
                                    buffer: Vec::new(),
                                    applies,
                                }
                            }
                        };
                        // A send error means the engine is gone mid-job
                        // (it panicked); nothing left to report to.
                        if results_tx.send(result).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn shard worker thread");
            jobs.push(tx);
            results.push(results_rx);
            handles.push(handle);
        }
        Self {
            jobs,
            results,
            handles,
        }
    }
}

impl<S> fmt::Debug for WorkerPool<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl<S> Drop for WorkerPool<S> {
    fn drop(&mut self) {
        // Disconnect every job ring; workers drain and exit.
        self.jobs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A sharded, concurrently-served balanced-allocation engine.
///
/// Every shard runs the paper's "least loaded of d choices" placement over
/// its own bin table, with choices produced by its own copy of a
/// [`ChoiceScheme`] — drawn from the shard's private RNG stream
/// ([`ChoiceMode::Stream`]) or derived from each key
/// ([`ChoiceMode::Keyed`]). Batches of [`Op`]s are partitioned by
/// [`route`] and applied to all shards — by persistent ring-fed worker
/// threads under [`WorkerMode::Persistent`] — and each shard's outcome
/// depends only on its own ordered op subsequence, so the engine's final
/// state is bit-identical between sequential and parallel application and
/// across any number of worker threads.
pub struct Engine<S> {
    config: EngineConfig,
    /// `None` only transiently while a shard is out with a worker during
    /// a persistent parallel batch; always `Some` between public calls.
    shards: Vec<Option<Shard<S>>>,
    pool: Option<WorkerPool<S>>,
    /// Per-shard partition buffers, reused across batches so the hot path
    /// never allocates a fresh `Vec<Vec<Op>>`. Under persistent workers
    /// the buffers travel to the workers with each batch job and ride
    /// home with the results — double-buffered in the sense that the
    /// engine and the workers alternate ownership without either side
    /// ever reallocating.
    scratch: Vec<Vec<Op>>,
    /// Reusable chunking buffer for [`Engine::serve_replay`], kept across
    /// calls so repeated serving allocates nothing after warm-up.
    replay_buf: Vec<Op>,
    /// Drained pipeline batch buffers reclaimed at the end of each
    /// [`Engine::serve_pipelined`] call, so repeated short streams reuse
    /// their buffers across calls just like phased serving reuses
    /// `scratch`.
    spare_buffers: Vec<Vec<Op>>,
    /// Optional per-batch metrics consumer (see [`Engine::set_sink`]).
    /// Sinks observe, never steer: no sink call can change what the
    /// engine allocates, so results stay bit-identical with or without
    /// one attached.
    sink: Option<Box<dyn MetricsSink + Send>>,
    /// Construction instant — the monotonic anchor every
    /// [`MetricRecord::at`] offset is measured from.
    started: Instant,
    /// Records emitted so far; the next record's sequence number.
    emitted: u64,
    /// Non-fatal configuration hazards noticed while serving (e.g. a
    /// pipelined `batch_size` smaller than the shard count, which clamps
    /// every per-shard batch to one op). Results stay correct; drain via
    /// [`Engine::take_warnings`].
    warnings: Vec<String>,
    /// Rounds-mode companion state (global scheme, salt, key index,
    /// report). `Some` exactly when the config's ingest mode is
    /// [`IngestMode::Rounds`].
    rounds: Option<RoundsState<S>>,
}

impl<S: fmt::Debug> fmt::Debug for Engine<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("shards", &self.shards)
            .field("pool", &self.pool)
            .field("sink", &self.sink.is_some())
            .field("emitted", &self.emitted)
            .finish_non_exhaustive()
    }
}

/// Counts the op kinds in a batch — the record's pre-apply op mix.
fn op_mix(ops: &[Op]) -> (u32, u32, u32) {
    let (mut inserts, mut deletes, mut lookups) = (0u32, 0u32, 0u32);
    for op in ops {
        match op {
            Op::Insert(_) => inserts += 1,
            Op::Delete(_) => deletes += 1,
            Op::Lookup(_) => lookups += 1,
        }
    }
    (inserts, deletes, lookups)
}

/// Ship-side half of a pipelined batch measurement: everything known at
/// ship time, joined with the worker-side apply latency at stream end.
/// `(shard, chunk)` addresses the matching apply sample — `chunk` is the
/// per-shard ship index, which equals the worker's receive index.
struct PendingShip {
    at: Duration,
    shard: usize,
    chunk: u64,
    ops: u32,
    inserts: u32,
    deletes: u32,
    lookups: u32,
    stalls: u32,
    stalled: Duration,
    occupancy: u32,
}

impl Engine<AnyScheme> {
    /// Builds an engine whose shards run the named scheme
    /// (see [`AnyScheme::by_name`]). Returns `None` for an unknown name.
    pub fn by_name(name: &str, config: EngineConfig) -> Option<Self> {
        // Probe once so an unknown name fails before any shard is built.
        AnyScheme::by_name(name, config.bins_per_shard, config.d)?;
        Some(Self::with_scheme_factory(config, |cfg| {
            AnyScheme::by_name(name, cfg.bins_per_shard, cfg.d).expect("probed above")
        }))
    }
}

impl<S: ChoiceScheme + 'static> Engine<S> {
    /// Builds an engine, constructing one scheme per shard via `factory`.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`]'s message — which names the
    /// offending builder call — if the config fails
    /// [`EngineConfig::validate`], so a bad pipeline depth is rejected
    /// here rather than mid-serve.
    pub fn with_scheme_factory(config: EngineConfig, factory: impl Fn(&EngineConfig) -> S) -> Self {
        if let Err(err) = config.validate() {
            panic!("invalid EngineConfig: {err}");
        }
        let shards = (0..config.shards)
            .map(|id| Some(Shard::new(id, factory(&config), &config)))
            .collect();
        // Rounds mode places over the global bin space: build one extra
        // scheme spanning every shard's bins by handing the factory a
        // synthetic single-shard config of the global size.
        let rounds = (config.ingest == IngestMode::Rounds).then(|| {
            let mut global = config.clone();
            global.bins_per_shard = config.shards as u64 * config.bins_per_shard;
            global.shards = 1;
            RoundsState::new(
                factory(&global),
                config.seed,
                config.shards,
                config.bins_per_shard,
            )
        });
        Self {
            config,
            shards,
            pool: None,
            scratch: Vec::new(),
            replay_buf: Vec::new(),
            spare_buffers: Vec::new(),
            sink: None,
            started: Instant::now(),
            emitted: 0,
            warnings: Vec::new(),
            rounds,
        }
    }

    /// Attaches a metrics sink: every subsequently applied batch emits
    /// one [`MetricRecord`] into it (phased batches as they apply;
    /// pipelined batches when their stream drains — the two halves of a
    /// pipelined measurement live on different threads and join at end
    /// of stream). Replaces — after flushing — any sink already
    /// attached. Sinks only observe, so attaching one never changes
    /// allocation results.
    pub fn set_sink(&mut self, sink: Box<dyn MetricsSink + Send>) {
        if let Some(mut old) = self.sink.replace(sink) {
            old.finish();
        }
    }

    /// Detaches the sink, flushing it first (so e.g. a
    /// [`JsonLinesExporter`](crate::JsonLinesExporter) writes its final
    /// partial window). Returns `None` if no sink was attached.
    pub fn take_sink(&mut self) -> Option<Box<dyn MetricsSink + Send>> {
        let mut sink = self.sink.take()?;
        sink.finish();
        Some(sink)
    }

    /// Whether a metrics sink is currently attached.
    pub fn has_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Drains the non-fatal configuration warnings recorded while
    /// serving, oldest first. Warnings flag hazards that degrade
    /// throughput but never correctness — today the one source is
    /// [`Engine::serve_replay`] clamping a pipelined `batch_size` smaller
    /// than the shard count (see its docs). Each hazard is recorded once
    /// per serving call, so callers polling between calls see every
    /// occurrence.
    pub fn take_warnings(&mut self) -> Vec<String> {
        std::mem::take(&mut self.warnings)
    }

    /// The shard at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= config.shards`.
    pub fn shard(&self, id: usize) -> &Shard<S> {
        self.shards[id]
            .as_ref()
            .expect("shard present between batches")
    }

    /// Read access to the shards (metrics, tests), indexed by shard id.
    pub fn shards(&self) -> Vec<&Shard<S>> {
        self.iter_shards().collect()
    }

    /// Allocation-free shard iteration for internal aggregates.
    fn iter_shards(&self) -> impl Iterator<Item = &Shard<S>> {
        self.shards
            .iter()
            .map(|slot| slot.as_ref().expect("shard present between batches"))
    }

    /// Total balls currently placed across all shards.
    pub fn total_balls(&self) -> u64 {
        self.iter_shards().map(|s| s.allocation().balls()).sum()
    }

    /// The maximum bin load across all shards.
    pub fn max_load(&self) -> u32 {
        self.iter_shards()
            .map(|s| s.allocation().max_load())
            .max()
            .unwrap_or(0)
    }

    /// Partitions `ops` by shard into the reusable scratch buffers,
    /// preserving arrival order per shard. Buffers are sized once at
    /// `ops.len() / shards + 1` — the expected per-shard share — and
    /// reused (cleared, never shrunk) on every subsequent batch.
    fn partition_into_scratch(&mut self, ops: &[Op]) {
        let shards = self.shards.len();
        if self.scratch.len() != shards {
            let cap = ops.len() / shards + 1;
            self.scratch = (0..shards).map(|_| Vec::with_capacity(cap)).collect();
        } else {
            for buf in &mut self.scratch {
                buf.clear();
            }
        }
        for &op in ops {
            self.scratch[route(op.key(), shards)].push(op);
        }
    }

    /// Applies one batch of operations and returns its aggregate summary.
    ///
    /// Partitioning is stable: two ops on the same key always reach the
    /// same shard in their batch order, so insert-then-delete sequences
    /// behave as written even when shards run on different threads.
    ///
    /// With a sink attached (see [`Engine::set_sink`]) each call also
    /// emits one engine-wide [`MetricRecord`] (`shard: None`; queue
    /// fields zero — phased batches never touch the bounded queues).
    pub fn apply_batch(&mut self, ops: &[Op]) -> BatchSummary {
        // Take the sink out for the duration so the inner path borrows
        // `self` freely; restore it afterwards.
        let Some(mut sink) = self.sink.take() else {
            return self.apply_batch_inner(ops);
        };
        let at = self.started.elapsed();
        let t0 = Instant::now();
        let summary = self.apply_batch_inner(ops);
        let apply = t0.elapsed();
        let (inserts, deletes, lookups) = op_mix(ops);
        let record = MetricRecord {
            seq: self.emitted,
            at,
            shard: None,
            ops: ops.len() as u32,
            inserts,
            deletes,
            lookups,
            apply,
            queue_occupancy: 0,
            stalls: 0,
            stalled: Duration::ZERO,
        };
        self.emitted += 1;
        sink.record(&record);
        self.sink = Some(sink);
        summary
    }

    /// The sink-free batch application path shared by every worker mode.
    fn apply_batch_inner(&mut self, ops: &[Op]) -> BatchSummary {
        if let Some(rounds) = self.rounds.as_mut() {
            return rounds.apply_batch(&mut self.shards, ops);
        }
        let mut total = BatchSummary::default();
        if self.shards.len() == 1 {
            // One shard: everything routes to it — apply the batch slice
            // directly, no partition pass at all.
            let shard = self.shards[0]
                .as_mut()
                .expect("shard present between batches");
            return shard.apply(ops);
        }
        self.partition_into_scratch(ops);
        match self.config.workers {
            WorkerMode::Sequential => {
                for (slot, ops) in self.shards.iter_mut().zip(self.scratch.iter()) {
                    if ops.is_empty() {
                        continue;
                    }
                    let shard = slot.as_mut().expect("shard present between batches");
                    total.absorb(&shard.apply(ops));
                }
            }
            WorkerMode::Persistent => {
                let pool = self
                    .pool
                    .get_or_insert_with(|| WorkerPool::spawn(self.shards.len()));
                for id in 0..self.shards.len() {
                    if self.scratch[id].is_empty() {
                        continue;
                    }
                    let shard = self.shards[id]
                        .take()
                        .expect("shard present between batches");
                    let ops = std::mem::take(&mut self.scratch[id]);
                    if pool.jobs[id].send(Job::Batch { shard, ops }).is_err() {
                        panic!("shard worker {id} exited early");
                    }
                }
                for id in 0..self.shards.len() {
                    if self.shards[id].is_some() {
                        continue; // shard never left: empty slice this batch
                    }
                    // A recv error means the worker dropped its sender
                    // without replying — it panicked mid-apply.
                    let done = pool.results[id]
                        .recv()
                        .unwrap_or_else(|_| panic!("shard worker {id} panicked"));
                    self.shards[id] = Some(done.shard);
                    self.scratch[id] = done.buffer;
                    total.absorb(&done.summary);
                }
            }
        }
        total
    }

    /// Drains the accumulated [`RoundReport`] (rounds taken,
    /// re-proposals per round, max load) under [`IngestMode::Rounds`].
    /// Returns `None` when the engine is not in rounds mode; subsequent
    /// calls return a fresh report covering only batches resolved since
    /// this one.
    pub fn take_round_report(&mut self) -> Option<RoundReport> {
        self.rounds.as_mut().map(RoundsState::take_report)
    }

    /// Applies a long op stream in `batch_size` chunks; returns the overall
    /// summary. This is the engine's ingestion entry point for drivers that
    /// generate traffic faster than they want to synchronize. Delegates to
    /// [`Engine::serve_replay`] — slices and iterators share one chunking
    /// loop — and therefore honours [`EngineConfig::ingest`].
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn serve(&mut self, ops: &[Op], batch_size: usize) -> BatchSummary {
        self.serve_replay(ops.iter().copied(), batch_size)
    }

    /// Serves an op *stream* in `batch_size` chunks without materializing
    /// it: the streaming ingestion path. Captured workloads (see
    /// `ba-workload`'s replay module) can hold millions of ops; this
    /// buffers one batch at a time, so replaying a capture costs the same
    /// memory as serving live traffic. Equivalent to collecting the
    /// iterator and calling [`Engine::serve`]. Under
    /// [`IngestMode::Pipelined`] the calling thread routes the stream
    /// into per-shard SPSC rings while the workers apply, instead of
    /// phased chunking — results are bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    ///
    /// Under [`IngestMode::Pipelined`], `batch_size` keeps its phased
    /// meaning — ops per *engine-wide* batch — and each shard worker
    /// receives batches of `batch_size / shards` ops. A `batch_size`
    /// smaller than the shard count therefore clamps every per-shard
    /// batch to a single op, shipping one ring message per op: results
    /// stay bit-identical, but the rings churn. The clamp records a
    /// warning (see [`Engine::take_warnings`]) instead of silently
    /// re-interpreting the argument.
    pub fn serve_replay(
        &mut self,
        ops: impl IntoIterator<Item = Op>,
        batch_size: usize,
    ) -> BatchSummary {
        assert!(batch_size > 0, "batch size must be positive");
        if let IngestMode::Pipelined { queue_depth } = self.config.ingest {
            // `batch_size` keeps its phased meaning — ops per engine-wide
            // batch — so the ingest axis never changes per-worker message
            // granularity: each shard sees ~batch_size/shards ops per
            // batch under either mode, and a phased-vs-pipelined
            // comparison at the same `batch_size` isolates the overlap.
            let shards = self.shards.len();
            if batch_size < shards {
                self.warnings.push(format!(
                    "serve_replay: batch_size {batch_size} < {shards} shards under \
                     IngestMode::Pipelined clamps every per-shard batch to 1 op \
                     (one ring message per op); raise batch_size to at least the \
                     shard count to amortize ring traffic"
                ));
            }
            let per_shard = (batch_size / shards).max(1);
            return self.serve_pipelined(ops, per_shard, queue_depth);
        }
        let mut total = BatchSummary::default();
        let mut buf = std::mem::take(&mut self.replay_buf);
        buf.clear();
        buf.reserve(batch_size);
        for op in ops {
            buf.push(op);
            if buf.len() == batch_size {
                total.absorb(&self.apply_batch(&buf));
                buf.clear();
            }
        }
        if !buf.is_empty() {
            total.absorb(&self.apply_batch(&buf));
            buf.clear();
        }
        self.replay_buf = buf;
        total
    }

    /// Serves an op stream with production and application overlapped:
    /// the calling thread routes each op into a per-shard buffer and
    /// ships full buffers into that shard's bounded SPSC ring (see
    /// [`crate::spsc`]), while every persistent worker applies previously
    /// shipped batches concurrently. A ring at `queue_depth` blocks the
    /// calling thread until its worker catches up (backpressure), so
    /// memory stays bounded by `shards × (queue_depth + 2) × batch_size`
    /// ops regardless of stream length.
    ///
    /// Each shard still applies exactly its routed subsequence in arrival
    /// order, so the outcome — shard loads, max load, batch summary, and
    /// every [`EngineStats`](crate::EngineStats) percentile — is
    /// bit-identical to phased serving in any [`WorkerMode`]. Only
    /// throughput differs: op generation and routing run concurrently
    /// with shard application instead of alternating with it.
    ///
    /// `batch_size` here is the *per-shard* batch granularity;
    /// [`Engine::serve_replay`] passes `batch_size / shards` so its own
    /// `batch_size` argument keeps one meaning across ingest modes.
    /// Drained batch buffers recycle back to the calling thread — and
    /// persist on the engine across calls — so steady-state ingestion
    /// performs no allocation. This path always uses the persistent
    /// worker pool (spawning it on first use) regardless of
    /// [`EngineConfig::workers`], which only governs phased
    /// [`Engine::apply_batch`] application.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker panics mid-stream (the worker's panic is
    /// surfaced, never a deadlock).
    fn serve_pipelined(
        &mut self,
        ops: impl IntoIterator<Item = Op>,
        batch_size: usize,
        queue_depth: usize,
    ) -> BatchSummary {
        let shards = self.shards.len();
        let track = self.sink.is_some();
        let pool = self.pool.get_or_insert_with(|| WorkerPool::spawn(shards));
        // Stage 0: ship every shard to its worker with a fresh SPSC
        // batch ring and a recycle channel for drained buffers.
        let mut batches = Vec::with_capacity(shards);
        let mut recycled = Vec::with_capacity(shards);
        for (id, slot) in self.shards.iter_mut().enumerate() {
            let (batch_tx, batch_rx) = spsc::ring::<Vec<Op>>(queue_depth);
            let (recycle_tx, recycle_rx) = mpsc::channel();
            let shard = slot.take().expect("shard present between batches");
            let job = Job::Stream {
                shard,
                batches: batch_rx,
                recycle: recycle_tx,
                track,
            };
            if pool.jobs[id].send(job).is_err() {
                panic!("shard worker {id} exited early");
            }
            batches.push(batch_tx);
            recycled.push(recycle_rx);
        }
        // Ship-side measurement: one PendingShip per shipped batch,
        // joined with its worker-side apply latency after the drain.
        let started = self.started;
        let mut pending: Vec<PendingShip> = Vec::new();
        let mut shipped = vec![0u64; shards];
        let mut ship = |id: usize, full: Vec<Op>, batches: &[spsc::RingProducer<Vec<Op>>]| {
            let chunk = shipped[id];
            shipped[id] += 1;
            if !track {
                return batches[id].send(full).is_ok();
            }
            let (inserts, deletes, lookups) = op_mix(&full);
            let ops = full.len() as u32;
            let Ok(stalled) = batches[id].send_tracked(full) else {
                return false;
            };
            pending.push(PendingShip {
                at: started.elapsed(),
                shard: id,
                chunk,
                ops,
                inserts,
                deletes,
                lookups,
                stalls: u32::from(stalled > Duration::ZERO),
                stalled,
                occupancy: batches[id].queued() as u32,
            });
            true
        };
        // Route ops into per-shard filling buffers; a full buffer ships
        // into the bounded ring (blocking only when the worker is
        // queue_depth batches behind) and is replaced by a recycled
        // buffer the worker already drained, a spare from a previous
        // call, or — only while the pipeline warms up — a fresh
        // allocation. Past warm-up this loop allocates nothing, across
        // calls included.
        let mut spare = std::mem::take(&mut self.spare_buffers);
        let grab = |spare: &mut Vec<Vec<Op>>| {
            spare
                .pop()
                .map(|mut buf| {
                    buf.reserve(batch_size);
                    buf
                })
                .unwrap_or_else(|| Vec::with_capacity(batch_size))
        };
        let mut filling: Vec<Vec<Op>> = (0..shards).map(|_| grab(&mut spare)).collect();
        for op in ops {
            let id = route(op.key(), shards);
            filling[id].push(op);
            if filling[id].len() == batch_size {
                let full = std::mem::take(&mut filling[id]);
                if !ship(id, full, &batches) {
                    panic!("shard worker {id} panicked");
                }
                filling[id] = recycled[id]
                    .try_recv()
                    .ok()
                    .unwrap_or_else(|| grab(&mut spare));
            }
        }
        for (id, buf) in filling.into_iter().enumerate() {
            if buf.is_empty() {
                spare.push(buf); // keep the capacity for the next call
            } else if !ship(id, buf, &batches) {
                panic!("shard worker {id} panicked");
            }
        }
        // `ship` borrowed `pending` mutably; past this point only the
        // closure-free join below touches it.
        #[allow(clippy::drop_non_drop)]
        drop(ship);
        // Disconnect the batch rings: each worker drains what is queued,
        // then reports its shard and stream summary.
        drop(batches);
        let mut total = BatchSummary::default();
        let mut applies: Vec<Vec<Duration>> = Vec::with_capacity(shards);
        for id in 0..shards {
            let done = pool.results[id]
                .recv()
                .unwrap_or_else(|_| panic!("shard worker {id} panicked"));
            self.shards[id] = Some(done.shard);
            total.absorb(&done.summary);
            applies.push(done.applies);
        }
        // Reclaim every buffer the workers drained after the calling
        // thread stopped picking them up; the next pipelined call starts
        // from this pool instead of the allocator.
        for rx in &recycled {
            spare.extend(rx.try_iter());
        }
        self.spare_buffers = spare;
        self.emit_stream_records(pending, &applies);
        total
    }

    /// Joins ship-side records with worker-side apply latencies —
    /// `(shard, chunk)` addresses the apply sample — and emits the
    /// stream's records in ship-time order.
    fn emit_stream_records(&mut self, pending: Vec<PendingShip>, applies: &[Vec<Duration>]) {
        let Some(mut sink) = self.sink.take() else {
            return;
        };
        debug_assert_eq!(
            pending.len(),
            applies.iter().map(Vec::len).sum::<usize>(),
            "ship records and apply samples must pair 1:1"
        );
        let mut records: Vec<MetricRecord> = pending
            .into_iter()
            .map(|ship| MetricRecord {
                seq: 0, // assigned below, in ship-time order
                at: ship.at,
                shard: Some(ship.shard),
                ops: ship.ops,
                inserts: ship.inserts,
                deletes: ship.deletes,
                lookups: ship.lookups,
                apply: applies[ship.shard][ship.chunk as usize],
                queue_occupancy: ship.occupancy,
                stalls: ship.stalls,
                stalled: ship.stalled,
            })
            .collect();
        records.sort_by_key(|r| (r.at, r.shard));
        for mut record in records {
            record.seq = self.emitted;
            self.emitted += 1;
            sink.record(&record);
        }
        self.sink = Some(sink);
    }

    /// Snapshot of per-shard and aggregate load/traffic statistics.
    pub fn stats(&self) -> EngineStats {
        EngineStats::new(
            self.iter_shards()
                .map(|s| {
                    ShardStats::capture(
                        s.id(),
                        s.allocation(),
                        s.lifetime_summary(),
                        s.observations(),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sink::SharedSink;
    use ba_core::{run_process, run_process_keys};
    use ba_hash::{ChoiceSource, DoubleHashing};
    use ba_rng::SeedSequence;

    pub(crate) fn engine(shards: usize, workers: WorkerMode) -> Engine<AnyScheme> {
        let cfg = EngineConfig::new(shards, 256, 3).seed(42).workers(workers);
        Engine::by_name("double", cfg).unwrap()
    }

    pub(crate) fn mixed_ops(count: u64) -> Vec<Op> {
        (0..count)
            .map(|i| match i % 5 {
                0..=2 => Op::Insert(i / 2),
                3 => Op::Lookup(i / 3),
                _ => Op::Delete(i / 2),
            })
            .collect()
    }

    #[test]
    fn unknown_scheme_rejected() {
        assert!(Engine::by_name("nope", EngineConfig::new(2, 64, 2)).is_none());
    }

    #[test]
    fn route_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 7, 64] {
            for key in 0..1000u64 {
                let s = route(key, shards);
                assert!(s < shards);
                assert_eq!(s, route(key, shards), "routing must be pure");
            }
        }
    }

    #[test]
    fn route_spreads_keys() {
        let shards = 8;
        let mut counts = vec![0u64; shards];
        for key in 0..80_000u64 {
            counts[route(key, shards)] += 1;
        }
        for &c in &counts {
            assert!(
                (c as f64 - 10_000.0).abs() < 600.0,
                "skewed routing {counts:?}"
            );
        }
    }

    #[test]
    fn every_worker_mode_agrees() {
        let ops = mixed_ops(20_000);
        let mut seq = engine(8, WorkerMode::Sequential);
        let ss = seq.serve(&ops, 1_024);
        let mut par = engine(8, WorkerMode::Persistent);
        assert_eq!(par.serve(&ops, 1_024), ss);
        for (a, b) in par.shards().iter().zip(seq.shards()) {
            assert_eq!(a.allocation().loads(), b.allocation().loads());
        }
    }

    #[test]
    fn persistent_pool_survives_many_batches() {
        // The worker pool spawns once and serves every subsequent batch;
        // per-shard state keeps matching the sequential engine throughout.
        let ops = mixed_ops(10_000);
        let mut par = engine(4, WorkerMode::Persistent);
        let mut seq = engine(4, WorkerMode::Sequential);
        for chunk in ops.chunks(100) {
            assert_eq!(par.apply_batch(chunk), seq.apply_batch(chunk));
        }
        for (a, b) in par.shards().iter().zip(seq.shards()) {
            assert_eq!(a.allocation().loads(), b.allocation().loads());
        }
    }

    #[test]
    fn serve_replay_equals_serve() {
        // The replay ingestion path is the slice path, minus the slice:
        // identical summaries and shard states, batch boundaries included.
        let ops = mixed_ops(7_777);
        for workers in [WorkerMode::Sequential, WorkerMode::Persistent] {
            let mut live = engine(4, workers);
            let mut replayed = engine(4, workers);
            let a = live.serve(&ops, 512);
            let b = replayed.serve_replay(ops.iter().copied(), 512);
            assert_eq!(a, b, "{workers:?}");
            for (x, y) in live.shards().iter().zip(replayed.shards()) {
                assert_eq!(
                    x.allocation().loads(),
                    y.allocation().loads(),
                    "{workers:?}"
                );
            }
        }
    }

    #[test]
    fn serve_pipelined_equals_sequential_serving() {
        // The pipelined acceptance contract at the unit level: identical
        // summaries, per-shard loads, and stats snapshots to sequential
        // phased serving, for every queue depth — batch boundaries and
        // producer/worker interleaving must be invisible in the results.
        let ops = mixed_ops(20_000);
        let mut seq = engine(8, WorkerMode::Sequential);
        let expected = seq.serve(&ops, 1_024);
        for depth in [1usize, 4, 64] {
            let mut pip = engine(8, WorkerMode::Sequential);
            let got = pip.serve_pipelined(ops.iter().copied(), 1_024, depth);
            assert_eq!(got, expected, "depth {depth}");
            assert!(pip.stats().matches(&seq.stats()), "depth {depth}");
            for (a, b) in pip.shards().iter().zip(seq.shards()) {
                assert_eq!(
                    a.allocation().loads(),
                    b.allocation().loads(),
                    "depth {depth}"
                );
            }
        }
    }

    #[test]
    fn pipelined_ingest_mode_flows_through_serve_and_serve_replay() {
        // The config axis: an engine configured Pipelined serves through
        // the pipeline on both entry points and still matches phased.
        let ops = mixed_ops(9_999);
        let mut phased = engine(4, WorkerMode::Persistent);
        let expected = phased.serve(&ops, 512);
        let cfg = EngineConfig::new(4, 256, 3).seed(42).pipelined(2);
        assert_eq!(cfg.ingest, IngestMode::Pipelined { queue_depth: 2 });
        let mut via_serve = Engine::by_name("double", cfg.clone()).unwrap();
        assert_eq!(via_serve.serve(&ops, 512), expected);
        let mut via_replay = Engine::by_name("double", cfg).unwrap();
        assert_eq!(via_replay.serve_replay(ops.iter().copied(), 512), expected);
        for (a, b) in via_serve.shards().iter().zip(phased.shards()) {
            assert_eq!(a.allocation().loads(), b.allocation().loads());
        }
    }

    #[test]
    fn serve_pipelined_survives_repeated_calls_and_single_shard() {
        // The stream jobs and the pool outlive any one call; a one-shard
        // engine still pipelines (producer/worker overlap is the point).
        let ops = mixed_ops(5_000);
        let mut seq = engine(1, WorkerMode::Sequential);
        let mut pip = engine(1, WorkerMode::Sequential);
        for chunk in ops.chunks(1_000) {
            let a = seq.serve(chunk, 128);
            let b = pip.serve_pipelined(chunk.iter().copied(), 128, 2);
            assert_eq!(a, b);
        }
        assert_eq!(
            seq.shard(0).allocation().loads(),
            pip.shard(0).allocation().loads()
        );
        // The drained batch buffers survive the call on the engine's
        // spare pool, so the next stream starts allocation-free.
        assert!(
            !pip.spare_buffers.is_empty(),
            "pipeline buffers were dropped instead of pooled"
        );
    }

    #[test]
    fn serve_pipelined_handles_empty_stream() {
        let mut eng = engine(4, WorkerMode::Persistent);
        assert_eq!(
            eng.serve_pipelined(std::iter::empty(), 64, 4),
            BatchSummary::default()
        );
        assert_eq!(eng.total_balls(), 0);
    }

    #[test]
    fn pipelined_worker_panic_propagates_instead_of_deadlocking() {
        // A shard panicking mid-stream must surface as a panic in
        // serve_pipelined — whether the producer is blocked in a bounded
        // send or waiting on the worker's result — never a deadlock.
        let result = std::panic::catch_unwind(|| {
            let cfg = EngineConfig::new(2, 64, 1).seed(1).keyed();
            let mut eng = Engine::with_scheme_factory(cfg, |_| Exploding { n: 64, poison: 42 });
            eng.serve_pipelined((0..4_096u64).map(Op::Insert), 8, 1);
        });
        assert!(result.is_err(), "pipelined worker panic was swallowed");
    }

    #[test]
    #[should_panic(expected = "EngineConfig::pipelined(3)")]
    fn invalid_pipeline_depth_rejected_at_construction() {
        // The fail-fast contract: a bad queue depth dies when the engine
        // is built — naming the builder call — never mid-serve.
        let _ = Engine::by_name("double", EngineConfig::new(2, 64, 3).pipelined(3));
    }

    #[test]
    fn validate_names_each_offending_builder_call() {
        let base = EngineConfig::new(2, 64, 3);
        assert_eq!(base.validate(), Ok(()));
        assert_eq!(
            EngineConfig::new(0, 64, 3).validate(),
            Err(ConfigError::ZeroShards)
        );
        assert_eq!(
            base.clone().pipelined(0).validate(),
            Err(ConfigError::ZeroQueueDepth)
        );
        assert_eq!(
            base.clone().pipelined(6).validate(),
            Err(ConfigError::QueueDepthNotPowerOfTwo(6))
        );
        assert_eq!(base.clone().rounds().validate(), Ok(()));
        // Each message carries the builder call that produced the value.
        let msg = ConfigError::QueueDepthNotPowerOfTwo(6).to_string();
        assert!(msg.contains("EngineConfig::pipelined(6)"), "{msg}");
        let msg = ConfigError::ZeroQueueDepth.to_string();
        assert!(msg.contains("EngineConfig::pipelined(0)"), "{msg}");
    }

    #[test]
    fn degenerate_pipelined_batch_size_warns_but_stays_bit_identical() {
        // batch_size < shards under Pipelined clamps per-shard batches to
        // one op: correctness must hold, and the hazard must be recorded.
        let ops = mixed_ops(4_000);
        let mut phased = engine(8, WorkerMode::Sequential);
        let expected = phased.serve(&ops, 3);
        assert!(phased.take_warnings().is_empty(), "phased path never warns");

        let cfg = EngineConfig::new(8, 256, 3).seed(42).pipelined(4);
        let mut pipelined = Engine::by_name("double", cfg).unwrap();
        let got = pipelined.serve(&ops, 3);
        assert_eq!(got, expected);
        assert!(phased.stats().matches(&pipelined.stats()));
        let warnings = pipelined.take_warnings();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(
            warnings[0].contains("batch_size 3 < 8 shards"),
            "{warnings:?}"
        );
        // Drained: a second poll is empty; a healthy batch size never warns.
        assert!(pipelined.take_warnings().is_empty());
        pipelined.serve(&ops, 64);
        assert!(pipelined.take_warnings().is_empty());
    }

    #[test]
    fn sequential_batches_reuse_partition_scratch() {
        // The zero-allocation contract, observably: after the first
        // batch, partition buffers are reused (their capacity persists)
        // rather than freshly allocated per batch.
        let mut eng = engine(2, WorkerMode::Sequential);
        eng.apply_batch(&(0..1_000u64).map(Op::Insert).collect::<Vec<_>>());
        let caps: Vec<usize> = eng.scratch.iter().map(Vec::capacity).collect();
        assert!(caps.iter().all(|&c| c > 0), "scratch never materialized");
        eng.apply_batch(&(1_000..1_400u64).map(Op::Insert).collect::<Vec<_>>());
        let caps_after: Vec<usize> = eng.scratch.iter().map(Vec::capacity).collect();
        assert_eq!(caps, caps_after, "smaller batch must not reallocate");
    }

    #[test]
    fn serve_replay_handles_empty_and_partial_batches() {
        let mut eng = engine(2, WorkerMode::Sequential);
        assert_eq!(
            eng.serve_replay(std::iter::empty(), 64),
            BatchSummary::default()
        );
        let summary = eng.serve_replay((0..100u64).map(Op::Insert), 64);
        assert_eq!(summary.inserts, 100);
        assert_eq!(eng.total_balls(), 100);
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let ops: Vec<Op> = (0..5_000u64).map(Op::Insert).collect();
        let mut small = engine(4, WorkerMode::Persistent);
        let mut large = engine(4, WorkerMode::Persistent);
        small.serve(&ops, 64);
        large.serve(&ops, 5_000);
        for (a, b) in small.shards().iter().zip(large.shards()) {
            assert_eq!(a.allocation().loads(), b.allocation().loads());
        }
    }

    #[test]
    fn per_shard_state_matches_single_threaded_core_run() {
        // The acceptance contract: for the same (seed, scheme) pair, each
        // shard's max-load statistics equal a single-threaded ba_core run
        // over that shard's insert stream.
        let seed = 7u64;
        let shards = 4usize;
        let mut eng =
            Engine::by_name("double", EngineConfig::new(shards, 512, 3).seed(seed)).unwrap();
        let ops: Vec<Op> = (0..4_096u64).map(Op::Insert).collect();
        eng.apply_batch(&ops);

        for id in 0..shards {
            let balls = ops
                .iter()
                .filter(|op| route(op.key(), shards) == id)
                .count() as u64;
            let scheme = DoubleHashing::new(512, 3);
            let mut rng = SeedSequence::new(seed).child(id as u64).xoshiro();
            let reference = run_process(&scheme, balls, TieBreak::Random, &mut rng);
            let shard = eng.shard(id);
            assert_eq!(shard.allocation().loads(), reference.loads());
            assert_eq!(shard.allocation().max_load(), reference.max_load());
        }
    }

    #[test]
    fn keyed_per_shard_state_matches_core_keyed_run() {
        // The keyed twin: shard i's table equals run_process_keys over its
        // routed key stream with the shard's own salt.
        let seed = 13u64;
        let shards = 4usize;
        let cfg = EngineConfig::new(shards, 512, 3).seed(seed).keyed();
        let mut eng = Engine::by_name("double", cfg).unwrap();
        let ops: Vec<Op> = (0..4_096u64).map(Op::Insert).collect();
        eng.apply_batch(&ops);

        for id in 0..shards {
            let keys: Vec<u64> = ops
                .iter()
                .map(|op| op.key())
                .filter(|&k| route(k, shards) == id)
                .collect();
            let scheme = DoubleHashing::new(512, 3);
            let mut rng = SeedSequence::new(seed).child(id as u64).xoshiro();
            let shard = eng.shard(id);
            let reference = run_process_keys(
                &scheme,
                ChoiceSource::Keyed { salt: shard.salt() },
                keys.iter().copied(),
                TieBreak::Random,
                &mut rng,
            );
            assert_eq!(shard.allocation().loads(), reference.loads(), "shard {id}");
        }
    }

    #[test]
    fn rng_kind_flows_into_every_shard() {
        let mk = |rng: RngKind| {
            let mut eng =
                Engine::by_name("double", EngineConfig::new(4, 256, 3).seed(3).rng(rng)).unwrap();
            eng.apply_batch(&(0..2_048u64).map(Op::Insert).collect::<Vec<_>>());
            eng.stats().merged_histogram().counts().to_vec()
        };
        let xo = mk(RngKind::Xoshiro);
        let pcg = mk(RngKind::Pcg64);
        let lcg = mk(RngKind::Lcg48);
        assert_eq!(xo, mk(RngKind::Xoshiro), "same kind must reproduce");
        // Different generator families must produce different tables.
        assert!(xo != pcg || xo != lcg, "PRNG ablation collapsed");
    }

    #[test]
    fn conservation_across_mixed_traffic() {
        let mut eng = engine(4, WorkerMode::Persistent);
        let mut ops = Vec::new();
        for key in 0..3_000u64 {
            ops.push(Op::Insert(key));
        }
        for key in 0..1_000u64 {
            ops.push(Op::Delete(key));
        }
        for key in 0..500u64 {
            ops.push(Op::Lookup(key * 5));
        }
        let summary = eng.serve(&ops, 512);
        assert_eq!(summary.inserts, 3_000);
        assert_eq!(summary.deletes, 1_000);
        assert_eq!(summary.missed_deletes, 0);
        assert_eq!(summary.lookups, 500);
        assert_eq!(eng.total_balls(), 2_000);
        let stats = eng.stats();
        assert_eq!(stats.total_balls(), 2_000);
        assert_eq!(stats.total_ops(), 4_500);
        let observed = stats.merged_observations();
        assert_eq!(observed.insert_load.total(), 3_000);
        assert_eq!(observed.delete_load.total(), 1_000);
        assert_eq!(observed.lookup_depth.total(), 500);
    }

    /// A scheme that panics when asked to derive choices for a poison
    /// key — the hook the worker-panic regression test needs.
    #[derive(Debug, Clone)]
    struct Exploding {
        n: u64,
        poison: u64,
    }

    impl ChoiceScheme for Exploding {
        fn n(&self) -> u64 {
            self.n
        }
        fn d(&self) -> usize {
            1
        }
        fn fill_choices(&self, rng: &mut dyn ba_rng::Rng64, out: &mut [u64]) {
            out[0] = rng.gen_range(self.n);
        }
        fn choices_for(&self, key: u64, _salt: u64, out: &mut [u64]) {
            assert_ne!(key, self.poison, "poison key reached the scheme");
            out[0] = key % self.n;
        }
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        // A shard panicking inside a persistent worker must surface as a
        // panic in apply_batch — not leave the engine blocked forever on
        // a result that will never arrive.
        let result = std::panic::catch_unwind(|| {
            let cfg = EngineConfig::new(2, 64, 1).seed(1).keyed();
            let mut eng = Engine::with_scheme_factory(cfg, |_| Exploding { n: 64, poison: 42 });
            eng.apply_batch(&(0..256u64).map(Op::Insert).collect::<Vec<_>>());
        });
        assert!(result.is_err(), "worker panic was swallowed");
    }

    #[test]
    fn engine_drop_joins_workers_cleanly() {
        let mut eng = engine(8, WorkerMode::Persistent);
        eng.apply_batch(&(0..1_000u64).map(Op::Insert).collect::<Vec<_>>());
        drop(eng); // must not hang or leak threads
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = Engine::by_name("double", EngineConfig::new(0, 64, 2));
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_rejected() {
        engine(2, WorkerMode::Sequential).serve(&[Op::Insert(1)], 0);
    }

    #[test]
    fn sink_sees_every_phased_batch() {
        let sink = SharedSink::new();
        let mut eng = engine(4, WorkerMode::Persistent);
        eng.set_sink(Box::new(sink.clone()));
        assert!(eng.has_sink());
        let ops = mixed_ops(2_000);
        eng.serve(&ops, 512);
        let records = sink.records();
        assert_eq!(records.len(), 4, "3 full batches + 1 partial");
        assert!(
            records.iter().all(|r| r.shard.is_none()),
            "phased: engine-wide"
        );
        assert_eq!(records.iter().map(|r| u64::from(r.ops)).sum::<u64>(), 2_000);
        let mix: u64 = records
            .iter()
            .map(|r| u64::from(r.inserts + r.deletes + r.lookups))
            .sum();
        assert_eq!(mix, 2_000, "op mix must partition the batch");
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert!(eng.take_sink().is_some());
        assert!(!eng.has_sink());
    }

    #[test]
    fn pipelined_sink_records_attribute_batches_to_shards() {
        let sink = SharedSink::new();
        let mut eng = engine(4, WorkerMode::Sequential);
        eng.set_sink(Box::new(sink.clone()));
        let ops = mixed_ops(4_000);
        eng.serve_pipelined(ops.iter().copied(), 128, 2);
        let records = sink.records();
        assert!(!records.is_empty());
        assert!(
            records.iter().all(|r| r.shard.is_some()),
            "pipelined: per shard"
        );
        assert_eq!(records.iter().map(|r| u64::from(r.ops)).sum::<u64>(), 4_000);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "sequence numbers must be dense");
        }
        for pair in records.windows(2) {
            assert!(
                pair[0].at <= pair[1].at,
                "records must be ship-time ordered"
            );
        }
        // Both halves of the join landed: ship-side occupancy is bounded
        // by the queue depth, worker-side applies were all measured.
        assert!(records.iter().all(|r| r.queue_occupancy <= 2));
    }

    #[test]
    fn attaching_a_sink_never_changes_results() {
        // The bit-identity acceptance contract at the unit level: serving
        // with a sink attached yields the same summary, stats, and loads
        // as serving without one, on both ingestion paths.
        let ops = mixed_ops(8_000);
        let mut plain = engine(4, WorkerMode::Persistent);
        let expected = plain.serve(&ops, 1_024);
        for pipelined in [false, true] {
            let mut observed = engine(4, WorkerMode::Persistent);
            observed.set_sink(Box::new(SharedSink::new()));
            let got = if pipelined {
                observed.serve_pipelined(ops.iter().copied(), 256, 2)
            } else {
                observed.serve(&ops, 1_024)
            };
            assert_eq!(got, expected, "pipelined={pipelined}");
            assert!(
                observed.stats().matches(&plain.stats()),
                "pipelined={pipelined}"
            );
            for (a, b) in observed.shards().iter().zip(plain.shards()) {
                assert_eq!(a.allocation().loads(), b.allocation().loads());
            }
        }
    }

    #[test]
    fn rounds_engine_never_spawns_shard_workers() {
        // Rounds resolve on the calling thread: even under the default
        // persistent worker mode, serving spawns no pool.
        let cfg = EngineConfig::new(4, 256, 3).seed(42).rounds();
        assert_eq!(cfg.workers, WorkerMode::Persistent);
        let mut eng = Engine::by_name("double", cfg).unwrap();
        let summary = eng.serve(&mixed_ops(4_000), 512);
        assert_eq!(summary.inserts, eng.take_round_report().unwrap().balls);
        assert!(eng.pool.is_none(), "rounds engine spawned shard workers");
    }
}
