//! The traced run: the per-layer breakdown of one workload.
//!
//! Spans are recorded here, around calls into each layer's public API,
//! never inside the engine. Each span has a name, a start, an end, a
//! parent, and a count of the items it processed; a span's self time is
//! its duration minus its children's. Spans stay in memory and are
//! summarised on stderr when the run ends.
//!
//! A traced pass runs in three phases over the same generated ops:
//!
//! 1. **drive** — the measured engine serves the pass exactly as in the
//!    untraced run, with a span per batch split into `workload.fill` and
//!    `engine.serve` (apply for phased and rounds, route + ship for
//!    pipelined).
//! 2. **shards** — the batch is routed (`engine.route`) and each shard's
//!    slice is applied by a standalone `Shard::apply` (`shard.apply`) on
//!    sequential mirror shards.
//! 3. **layers** — each slice is re-executed through the layers' own
//!    functions on mirror state: `choices_for_batch`/`choices_for`,
//!    `Allocation::place_indexed`/`remove`, `KeyIndex::push`/`pop`/
//!    `depth`, and `OnlinePercentiles::record`. Consecutive ops of one
//!    kind form a segment whose layer calls run back to back, one span
//!    per layer per segment.
//!
//! Phase 3's final state must equal phase 2's, and phase 2's must equal
//! the engine's, so the replay provably does the work the engine did.
//! Rounds mode places balls differently by design; there phase 2 is the
//! sequential reference and the engine is checked as in an untraced pass.

use crate::check::{self, Snapshot};
use crate::drive;
use crate::spec::{self, Ingest, Spec, BATCH, D, QUEUE_DEPTH};
use crate::util;
use crate::{Args, Measured, Metric};
use ba_core::{Allocation, TieBreak};
use ba_engine::index::INLINE_BINS;
use ba_engine::{
    route, spsc, BatchSummary, EngineStats, KeyIndex, MetricRecord, MetricsSink, Op,
    OpObservations, Shard, ShardStats, SharedSink, WindowedAggregator,
};
use ba_hash::{ChoiceScheme, DoubleHashing};
use ba_rng::{AnyRng, SeedSequence};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Traced batches per run at full size (at least one pass).
const TRACE_BATCHES: u64 = 256;
/// Keys per `choices_for_batch` call, as on the shard's insert path.
const CHOICE_CHUNK: usize = 128;
/// Insert runs shorter than this take the per-key choice path, as on
/// the shard's insert path.
const INSERT_RUN_MIN: usize = 16;
/// Batches streamed through the standalone ring measurement.
const RING_BATCHES: usize = 20_000;

/// The traced run's result.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    count: u64,
}

/// In-memory span store.
#[derive(Default)]
struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        count: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            count,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; [`Tracer::close`] sets its end and count.
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, 0)
    }

    fn close(&mut self, id: usize, count: u64) -> Duration {
        let span = &mut self.spans[id];
        span.end = Instant::now();
        span.count = count;
        span.end - span.start
    }
}

/// Per-name totals: self time with one timer read subtracted per span,
/// items processed, and spans recorded.
#[derive(Debug, Default, Clone, Copy)]
struct Total {
    self_ns: f64,
    count: u64,
    spans: u64,
}

fn totals(spans: &[Span], timer_ns: f64) -> BTreeMap<&'static str, Total> {
    let adjusted: Vec<f64> = spans
        .iter()
        .map(|s| ((s.end - s.start).as_nanos() as f64 - timer_ns).max(0.0))
        .collect();
    let mut children = vec![0.0; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p] += adjusted[i];
        }
    }
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.self_ns += (adjusted[i] - children[i]).max(0.0);
        t.count += s.count;
        t.spans += 1;
    }
    out
}

/// A sink that feeds a `WindowedAggregator` (the churn workload's sink)
/// and keeps every record for the standalone sink measurement.
struct Tee {
    agg: WindowedAggregator,
    keep: SharedSink,
}

impl MetricsSink for Tee {
    fn record(&mut self, record: &MetricRecord) {
        self.agg.record(record);
        self.keep.record(record);
    }

    fn finish(&mut self) {
        self.agg.finish();
    }
}

fn sink_window() -> Duration {
    Duration::from_millis(spec::SINK_WINDOW_MS)
}

/// Per-batch figures the layer sum needs, indexed by traced batch.
#[derive(Default)]
struct PerBatch {
    fill_ns: Vec<f64>,
    serve_ns: Vec<f64>,
    route_ns: Vec<f64>,
    max_apply_ns: Vec<f64>,
    max_layers_ns: Vec<f64>,
}

/// Input properties of the traced ops, from a model of live keys.
#[derive(Default)]
struct Inputs {
    inserts: u64,
    inserts_in_long_runs: u64,
    repeat_inserts: u64,
    skew_sum: f64,
    batches: u64,
    live_keys: u64,
    spilled_keys: u64,
}

/// Everything accumulated over the traced passes.
#[derive(Default)]
struct Acc {
    tracer: Tracer,
    per: PerBatch,
    inputs: Inputs,
    ops: u64,
    drive_ns: u64,
    records: Vec<MetricRecord>,
    ring_records: Vec<MetricRecord>,
    ring_passes: u64,
    rounds: u64,
    round_batches: u64,
    round_balls: u64,
    reproposals: u64,
    index_bytes: f64,
    index_keys: f64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

pub fn run(args: &Args, measured: &Measured) -> Traced {
    let spec = args.spec;
    let batches = args.pass_batches();
    let passes = if args.tiny {
        1
    } else {
        TRACE_BATCHES.div_ceil(batches).max(1)
    };
    let timer_ns = util::timer_cost_ns();
    let mut acc = Acc::default();
    for p in 0..passes {
        // Seeds continue past the untraced passes' so the traced ops are
        // fresh inputs drawn the same way.
        let seed = util::pass_seed(args.seed, measured.passes + p);
        let mut failures = Vec::new();
        let engine_stats = phase_drive(spec, seed, batches, &mut acc, &mut failures);
        let shard_stats = phase_shards(spec, seed, batches, &mut acc);
        let layer_stats = phase_layers(spec, seed, batches, &mut acc, timer_ns);
        // The standalone shards reproduce the engine, except in rounds
        // mode, whose placement differs from sequential d-choice by
        // design (`check::check_pass` checks that engine instead).
        if spec.ingest != Ingest::Rounds {
            for line in engine_stats.divergences(&shard_stats) {
                failures.push(format!("shard replay: {line}"));
            }
        }
        for line in shard_stats.divergences(&layer_stats) {
            failures.push(format!("layer replay: {line}"));
        }
        let attempted = batches * BATCH as u64;
        acc.attempted += attempted;
        if !failures.is_empty() {
            acc.failed += attempted;
            acc.failures.extend(
                failures
                    .into_iter()
                    .map(|f| format!("traced pass {p}: {f}")),
            );
        }
    }
    let metrics = metrics(spec, measured, &acc, timer_ns, args);
    print_spans(&acc.tracer.spans, timer_ns);
    Traced {
        metrics,
        attempted: acc.attempted,
        failed: acc.failed,
        failures: acc.failures,
    }
}

/// Phase 1: the measured engine serves the pass with per-batch spans.
/// Returns the engine's final stats after checking the pass like an
/// untraced one.
fn phase_drive(
    spec: &Spec,
    seed: u64,
    batches: u64,
    acc: &mut Acc,
    failures: &mut Vec<String>,
) -> EngineStats {
    let mut gen = spec.generator(seed);
    let mut engine = spec::engine(spec.config(seed));
    drive::warm_up(spec, &mut engine);
    let keep = SharedSink::new();
    if spec.sink {
        engine.set_sink(Box::new(Tee {
            agg: WindowedAggregator::new(sink_window()),
            keep: keep.clone(),
        }));
    } else if spec.ingest == Ingest::Pipelined {
        engine.set_sink(Box::new(keep.clone()));
    }
    let served = drive::serve(&mut engine, gen.as_mut(), batches, true);
    engine.take_sink();
    if let Some(report) = engine.take_round_report() {
        acc.rounds += report.rounds;
        acc.round_batches += report.batches;
        acc.round_balls += report.balls;
        acc.reproposals += report.reproposals.iter().sum::<u64>();
    }
    let snapshot = Snapshot::capture(served.summary, &engine);
    drop(engine);
    drop(gen);
    failures.extend(check::check_pass(spec, seed, batches, &snapshot));

    let filled = served.filled.as_ref().expect("traced feed keeps fill ends");
    for (i, &mark) in served.marks.iter().enumerate() {
        let next = served.marks.get(i + 1).copied().unwrap_or(served.end);
        let root = acc
            .tracer
            .record("drive.batch", mark, next, None, BATCH as u64);
        acc.tracer
            .record("workload.fill", mark, filled[i], Some(root), BATCH as u64);
        acc.tracer
            .record("engine.serve", filled[i], next, Some(root), BATCH as u64);
        acc.per.fill_ns.push((filled[i] - mark).as_nanos() as f64);
        acc.per.serve_ns.push((next - filled[i]).as_nanos() as f64);
    }
    acc.ops += snapshot.summary.total_ops();
    acc.drive_ns += served.elapsed_ns();
    let records = keep.records();
    if spec.ingest == Ingest::Pipelined {
        acc.ring_records.extend(records.iter().copied());
        acc.ring_passes += 1;
    }
    if spec.sink {
        acc.records.extend(records);
    }
    snapshot.stats
}

/// Routes one batch into per-shard slices, as the engine partitions.
fn partition(ops: &[Op], slices: &mut [Vec<Op>]) {
    for slice in slices.iter_mut() {
        slice.clear();
    }
    let shards = slices.len();
    for &op in ops {
        slices[route(op.key(), shards)].push(op);
    }
}

/// Phase 2: route each batch and apply the slices through standalone
/// shards; also models live keys for the input properties.
fn phase_shards(spec: &Spec, seed: u64, batches: u64, acc: &mut Acc) -> EngineStats {
    let config = spec.sequential_config(seed);
    let mut shards: Vec<Shard<DoubleHashing>> = (0..spec.shards)
        .map(|id| Shard::new(id, DoubleHashing::new(spec.bins_per_shard, D), &config))
        .collect();
    let mut gen = spec.generator(seed);
    let mut ops = Vec::with_capacity(BATCH);
    let mut slices: Vec<Vec<Op>> = (0..spec.shards)
        .map(|_| Vec::with_capacity(BATCH))
        .collect();
    let mut live: HashMap<u64, u64> = HashMap::new();
    for _ in 0..batches {
        gen.fill(&mut ops, BATCH);
        let root = acc.tracer.open("shard.batch", None);
        let r = acc.tracer.open("engine.route", Some(root));
        partition(&ops, &mut slices);
        let routed = acc.tracer.close(r, ops.len() as u64);
        let mut max_apply = 0.0f64;
        for (shard, slice) in shards.iter_mut().zip(&slices) {
            if slice.is_empty() {
                continue;
            }
            let a = acc.tracer.open("shard.apply", Some(root));
            shard.apply(slice);
            let took = acc.tracer.close(a, slice.len() as u64);
            max_apply = max_apply.max(took.as_nanos() as f64);
        }
        acc.tracer.close(root, ops.len() as u64);
        acc.per.route_ns.push(routed.as_nanos() as f64);
        acc.per.max_apply_ns.push(max_apply);
        observe_inputs(&slices, &mut live, &mut acc.inputs);
    }
    acc.inputs.live_keys += live.len() as u64;
    acc.inputs.spilled_keys += live.values().filter(|&&c| c > INLINE_BINS as u64).count() as u64;
    EngineStats::new(
        shards
            .iter()
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

/// Updates the input-property model with one routed batch: insert runs
/// per shard slice, inserts of already-live keys, and slice skew.
fn observe_inputs(slices: &[Vec<Op>], live: &mut HashMap<u64, u64>, inputs: &mut Inputs) {
    let sizes: Vec<usize> = slices.iter().map(Vec::len).collect();
    let total: usize = sizes.iter().sum();
    let mean = total as f64 / slices.len() as f64;
    inputs.skew_sum += *sizes.iter().max().expect("at least one shard") as f64 / mean;
    inputs.batches += 1;
    for slice in slices {
        let mut run = 0u64;
        for op in slice {
            match *op {
                Op::Insert(k) => {
                    run += 1;
                    inputs.inserts += 1;
                    let balls = live.entry(k).or_default();
                    inputs.repeat_inserts += u64::from(*balls > 0);
                    *balls += 1;
                }
                Op::Delete(k) => {
                    if let Some(balls) = live.get_mut(&k) {
                        *balls -= 1;
                        if *balls == 0 {
                            live.remove(&k);
                        }
                    }
                }
                Op::Lookup(_) => {}
            }
            if !matches!(op, Op::Insert(_)) {
                if run >= INSERT_RUN_MIN as u64 {
                    inputs.inserts_in_long_runs += run;
                }
                run = 0;
            }
        }
        if run >= INSERT_RUN_MIN as u64 {
            inputs.inserts_in_long_runs += run;
        }
    }
}

/// One shard re-executed through the layers' own functions.
struct Layers {
    id: usize,
    scheme: DoubleHashing,
    salt: u64,
    alloc: Allocation,
    index: KeyIndex,
    rng: AnyRng,
    obs: OpObservations,
    traffic: BatchSummary,
    keys: Vec<u64>,
    matrix: Vec<u64>,
    bins: Vec<u64>,
    probes: Vec<u32>,
    loads: Vec<u32>,
    depths: Vec<u32>,
}

impl Layers {
    fn new(spec: &Spec, id: usize, seed: u64) -> Self {
        let config = spec.sequential_config(seed);
        let scheme = DoubleHashing::new(spec.bins_per_shard, D);
        // The shard's own salt, read from a shard built the engine's way.
        let salt = Shard::new(id, scheme.clone(), &config).salt();
        Self {
            id,
            alloc: Allocation::new(scheme.n()),
            scheme,
            salt,
            index: KeyIndex::with_seed(salt),
            rng: SeedSequence::new(seed).child(id as u64).any_rng(config.rng),
            obs: OpObservations::default(),
            traffic: BatchSummary::default(),
            keys: Vec::with_capacity(BATCH),
            matrix: Vec::with_capacity(BATCH * D),
            bins: Vec::with_capacity(BATCH),
            probes: Vec::with_capacity(BATCH),
            loads: Vec::with_capacity(BATCH),
            depths: Vec::with_capacity(BATCH),
        }
    }

    /// Applies `ops` segment by segment; returns the summed self time of
    /// the layer spans (timer reads subtracted).
    fn apply(&mut self, ops: &[Op], tr: &mut Tracer, parent: usize, timer_ns: f64) -> f64 {
        let first = tr.spans.len();
        let mut i = 0;
        while i < ops.len() {
            let kind = std::mem::discriminant(&ops[i]);
            let run = ops[i..]
                .iter()
                .take_while(|op| std::mem::discriminant(*op) == kind)
                .count();
            let seg = &ops[i..i + run];
            self.keys.clear();
            self.keys.extend(seg.iter().map(Op::key));
            match ops[i] {
                Op::Insert(_) => self.inserts(tr, parent),
                Op::Delete(_) => self.deletes(tr, parent),
                Op::Lookup(_) => self.lookups(tr, parent),
            }
            i += run;
        }
        tr.spans[first..]
            .iter()
            .map(|s| ((s.end - s.start).as_nanos() as f64 - timer_ns).max(0.0))
            .sum()
    }

    fn inserts(&mut self, tr: &mut Tracer, parent: usize) {
        let n = self.keys.len();
        self.matrix.resize(n * D, 0);
        let t0 = Instant::now();
        if n >= INSERT_RUN_MIN {
            for (keys, rows) in self
                .keys
                .chunks(CHOICE_CHUNK)
                .zip(self.matrix.chunks_mut(CHOICE_CHUNK * D))
            {
                self.scheme.choices_for_batch(keys, self.salt, rows);
            }
        } else {
            for (&key, row) in self.keys.iter().zip(self.matrix.chunks_mut(D)) {
                self.scheme.choices_for(key, self.salt, row);
            }
        }
        let t1 = Instant::now();
        self.bins.clear();
        self.probes.clear();
        self.loads.clear();
        for row in self.matrix.chunks(D) {
            let (bin, probe) = self
                .alloc
                .place_indexed(row, TieBreak::Random, &mut self.rng);
            self.bins.push(bin);
            self.probes.push(probe);
            self.loads.push(self.alloc.load(bin));
        }
        let t2 = Instant::now();
        for (&key, &bin) in self.keys.iter().zip(&self.bins) {
            self.index.push(key, bin);
        }
        let t3 = Instant::now();
        for (&load, &probe) in self.loads.iter().zip(&self.probes) {
            self.obs.insert_load.record(load);
            self.obs.insert_probe.record(probe);
        }
        let t4 = Instant::now();
        let n = n as u64;
        tr.record("hash.choices", t0, t1, Some(parent), n);
        tr.record("core.place", t1, t2, Some(parent), n);
        tr.record("index.push", t2, t3, Some(parent), n);
        tr.record("metrics.observe", t3, t4, Some(parent), 2 * n);
        self.traffic.inserts += n;
    }

    fn deletes(&mut self, tr: &mut Tracer, parent: usize) {
        self.bins.clear();
        let t0 = Instant::now();
        for &key in &self.keys {
            if let Some(bin) = self.index.pop(key) {
                self.bins.push(bin);
            }
        }
        let t1 = Instant::now();
        self.loads.clear();
        for &bin in &self.bins {
            self.loads.push(self.alloc.load(bin));
            self.alloc.remove(bin);
        }
        let t2 = Instant::now();
        for &load in &self.loads {
            self.obs.delete_load.record(load);
        }
        let t3 = Instant::now();
        let (n, hit) = (self.keys.len() as u64, self.bins.len() as u64);
        tr.record("index.pop", t0, t1, Some(parent), n);
        tr.record("core.remove", t1, t2, Some(parent), hit);
        tr.record("metrics.observe", t2, t3, Some(parent), hit);
        self.traffic.deletes += hit;
        self.traffic.missed_deletes += n - hit;
    }

    fn lookups(&mut self, tr: &mut Tracer, parent: usize) {
        self.depths.clear();
        let t0 = Instant::now();
        for &key in &self.keys {
            self.depths.push(self.index.depth(key) as u32);
        }
        let t1 = Instant::now();
        let mut hits = 0;
        for &depth in &self.depths {
            self.obs.lookup_depth.record(depth);
            hits += u64::from(depth > 0);
        }
        let t2 = Instant::now();
        let n = self.keys.len() as u64;
        tr.record("index.depth", t0, t1, Some(parent), n);
        tr.record("metrics.observe", t1, t2, Some(parent), n);
        self.traffic.lookups += n;
        self.traffic.hits += hits;
    }

    fn stats(&self) -> ShardStats {
        ShardStats::capture(self.id, &self.alloc, &self.traffic, &self.obs)
    }
}

/// Phase 3: every slice re-executed layer by layer, then the layers the
/// workload never called measured standalone on the pass's own keys.
fn phase_layers(spec: &Spec, seed: u64, batches: u64, acc: &mut Acc, timer_ns: f64) -> EngineStats {
    let mut layers: Vec<Layers> = (0..spec.shards)
        .map(|id| Layers::new(spec, id, seed))
        .collect();
    let mut gen = spec.generator(seed);
    let mut ops = Vec::with_capacity(BATCH);
    let mut slices: Vec<Vec<Op>> = (0..spec.shards)
        .map(|_| Vec::with_capacity(BATCH))
        .collect();
    let mut insert_keys: Vec<u64> = Vec::new();
    let heap_before = util::heap_bytes();
    let spans_before = acc.tracer.spans.capacity();
    for _ in 0..batches {
        gen.fill(&mut ops, BATCH);
        partition(&ops, &mut slices);
        let root = acc.tracer.open("layers.batch", None);
        let mut max_layers = 0.0f64;
        for (shard, slice) in layers.iter_mut().zip(&slices) {
            if slice.is_empty() {
                continue;
            }
            let s = acc.tracer.open("layers.shard", Some(root));
            let sum = shard.apply(slice, &mut acc.tracer, s, timer_ns);
            acc.tracer.close(s, slice.len() as u64);
            max_layers = max_layers.max(sum);
        }
        acc.tracer.close(root, ops.len() as u64);
        acc.per.max_layers_ns.push(max_layers);
        insert_keys.extend(ops.iter().filter_map(|op| match op {
            Op::Insert(k) => Some(*k),
            _ => None,
        }));
    }
    // Heap growth of the pass, less the benchmark's own buffers: the key
    // indexes with their spill stacks, plus a few observation counters.
    let own = insert_keys.capacity() * std::mem::size_of::<u64>()
        + (acc.tracer.spans.capacity() - spans_before) * std::mem::size_of::<Span>()
        + batches as usize * std::mem::size_of::<f64>();
    let grown = util::heap_bytes().saturating_sub(heap_before) as f64 - own as f64;
    let keys: usize = layers.iter().map(|l| l.index.len()).sum();
    acc.index_bytes += grown.max(0.0);
    acc.index_keys += keys as f64;
    let stats = EngineStats::new(layers.iter().map(Layers::stats).collect());
    standalone(&mut layers[0], &insert_keys, acc);
    stats
}

/// Layer calls measured on the pass's own keys outside the replay: both
/// choice paths over every inserted key, `depth` where the workload
/// never looks up, and `pop` + `remove` (draining the index) where it
/// never deletes.
fn standalone(layer: &mut Layers, insert_keys: &[u64], acc: &mut Acc) {
    let tr = &mut acc.tracer;
    let root = tr.open("standalone", None);
    let mut matrix = vec![0u64; CHOICE_CHUNK * D];
    for keys in insert_keys.chunks(BATCH) {
        let s = tr.open("choices.batch", Some(root));
        for chunk in keys.chunks(CHOICE_CHUNK) {
            layer
                .scheme
                .choices_for_batch(chunk, layer.salt, &mut matrix[..chunk.len() * D]);
        }
        tr.close(s, keys.len() as u64);
        std::hint::black_box(&matrix);
        let s = tr.open("choices.single", Some(root));
        let mut row = [0u64; D];
        for &key in keys {
            layer.scheme.choices_for(key, layer.salt, &mut row);
            std::hint::black_box(&row);
        }
        tr.close(s, keys.len() as u64);
    }
    let live = layer.index.sorted_keys();
    if layer.traffic.lookups == 0 {
        for keys in live.chunks(BATCH) {
            let s = tr.open("index.depth.standalone", Some(root));
            let mut sum = 0usize;
            for &key in keys {
                sum += layer.index.depth(key);
            }
            std::hint::black_box(sum);
            tr.close(s, keys.len() as u64);
        }
    }
    if layer.traffic.deletes == 0 {
        let mut bins = Vec::with_capacity(BATCH * 2);
        for keys in live.chunks(BATCH) {
            bins.clear();
            let s = tr.open("index.pop.standalone", Some(root));
            for &key in keys {
                while let Some(bin) = layer.index.pop(key) {
                    bins.push(bin);
                }
            }
            tr.close(s, bins.len() as u64);
            let s = tr.open("core.remove.standalone", Some(root));
            for &bin in &bins {
                layer.alloc.remove(bin);
            }
            tr.close(s, bins.len() as u64);
        }
    }
    tr.close(root, insert_keys.len() as u64);
}

/// Streams batch buffers of the workload's per-shard batch size through
/// a ring to a second thread, which returns each through a recycle ring,
/// as a pipelined shard worker does. Returns nanoseconds per batch.
fn ring_roundtrip_ns(per_shard: usize, batches: usize) -> f64 {
    let (tx, rx) = spsc::ring::<Vec<Op>>(QUEUE_DEPTH);
    let (back_tx, back_rx) = spsc::ring::<Vec<Op>>(QUEUE_DEPTH * 2);
    let worker = std::thread::spawn(move || {
        let mut seen = 0u64;
        while let Ok(buf) = rx.recv() {
            seen += buf.len() as u64;
            if back_tx.send(buf).is_err() {
                break;
            }
        }
        seen
    });
    let mut spare: Vec<Vec<Op>> = (0..QUEUE_DEPTH + 2)
        .map(|i| vec![Op::Insert(i as u64); per_shard])
        .collect();
    let start = Instant::now();
    for _ in 0..batches {
        let buf = match spare.pop() {
            Some(buf) => buf,
            None => back_rx.recv().expect("ring worker alive"),
        };
        tx.send(buf).map_err(|_| ()).expect("ring worker alive");
    }
    drop(tx);
    let elapsed = start.elapsed();
    let seen = worker.join().expect("ring worker panicked");
    assert_eq!(seen, (batches * per_shard) as u64, "ring lost batches");
    elapsed.as_nanos() as f64 / batches as f64
}

/// Nanoseconds per record of `WindowedAggregator::record` over `records`.
fn sink_record_ns(records: &[MetricRecord]) -> f64 {
    let mut agg = WindowedAggregator::new(sink_window());
    // Repeat short record streams so the timed loop is long enough.
    let rounds = (100_000 / records.len().max(1)).max(1);
    let start = Instant::now();
    for _ in 0..rounds {
        for r in records {
            agg.record(r);
        }
    }
    let elapsed = start.elapsed();
    std::hint::black_box(agg.finish_all());
    elapsed.as_nanos() as f64 / (rounds * records.len()).max(1) as f64
}

fn per(total: &BTreeMap<&'static str, Total>, names: &[&str]) -> f64 {
    let (ns, count) = names
        .iter()
        .filter_map(|n| total.get(n))
        .fold((0.0, 0u64), |(ns, c), t| (ns + t.self_ns, c + t.count));
    if count == 0 {
        f64::NAN
    } else {
        ns / count as f64
    }
}

fn metrics(spec: &Spec, m: &Measured, acc: &Acc, timer_ns: f64, args: &Args) -> Vec<Metric> {
    let t = totals(&acc.tracer.spans, timer_ns);
    let ops = acc.ops as f64;
    let p = &acc.per;
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let batches = p.serve_ns.len() as f64;
    let per_shard = BATCH / spec.shards;
    let ring_batches = if args.tiny { 1000 } else { RING_BATCHES };
    let ring_ns = ring_roundtrip_ns(per_shard, ring_batches);
    let e2e_ns_per_op = 1e9 / m.ops_per_sec();
    // Dispatch: what the engine adds on the driving thread beyond the
    // slowest shard's own work (phased, rounds), or beyond routing
    // (pipelined, where shards apply concurrently on the worker).
    let dispatch: Vec<f64> = p
        .serve_ns
        .iter()
        .enumerate()
        .map(|(i, &serve)| match spec.ingest {
            Ingest::Pipelined => serve - p.route_ns[i],
            _ => serve - p.max_apply_ns[i],
        })
        .collect();
    // The layer sum along the critical path, per batch.
    let layer_sum_ns = match spec.ingest {
        Ingest::Pipelined => {
            let producer = sum(&p.fill_ns) + sum(&p.route_ns) + ring_ns * batches;
            producer.max(sum(&p.max_layers_ns))
        }
        _ => sum(&p.fill_ns) + sum(&dispatch) + sum(&p.max_layers_ns),
    };
    let traced_ops_per_sec = ops / (acc.drive_ns as f64 / 1e9);
    let ring_passes = acc.ring_passes.max(1) as f64;
    let stalls: u64 = acc.ring_records.iter().map(|r| u64::from(r.stalls)).sum();
    let stall_ms: f64 = acc
        .ring_records
        .iter()
        .map(|r| r.stalled.as_secs_f64() * 1e3)
        .fold(0.0, |a, b| a + b);
    let peak = acc
        .ring_records
        .iter()
        .map(|r| r.queue_occupancy)
        .max()
        .unwrap_or(0);
    // Only the churn workload has a sink; elsewhere the figure is absent.
    let sink_ns = if acc.records.is_empty() {
        0.0
    } else {
        sink_record_ns(&acc.records)
    };
    let inputs = &acc.inputs;
    let (rounds_per_batch, accept_ratio) = if acc.round_batches > 0 {
        (
            acc.rounds as f64 / acc.round_batches as f64,
            acc.round_balls as f64 / (acc.round_balls + acc.reproposals) as f64,
        )
    } else {
        // Sequential placement: no rounds, every ball accepted at once.
        (0.0, 1.0)
    };
    let metric = |name, value, unit| Metric { name, value, unit };
    vec![
        metric("workload.gen_ns_per_op", sum(&p.fill_ns) / ops, "ns"),
        metric(
            "workload.insert_run_share",
            inputs.inserts_in_long_runs as f64 / inputs.inserts.max(1) as f64,
            "fraction",
        ),
        metric(
            "workload.repeat_insert_share",
            inputs.repeat_inserts as f64 / inputs.inserts.max(1) as f64,
            "fraction",
        ),
        metric("route.ns_per_op", per(&t, &["engine.route"]), "ns"),
        metric(
            "engine.dispatch_us_per_batch",
            sum(&dispatch) / batches / 1e3,
            "us",
        ),
        metric(
            "engine.shard_skew",
            inputs.skew_sum / inputs.batches.max(1) as f64,
            "ratio",
        ),
        metric("ring.roundtrip_ns_per_batch", ring_ns, "ns"),
        metric("ring.stalls", stalls as f64 / ring_passes, "count"),
        metric("ring.stall_ms", stall_ms / ring_passes, "ms"),
        metric("ring.peak_occupancy", f64::from(peak), "count"),
        metric(
            "choices.batch_ns_per_key",
            per(&t, &["choices.batch"]),
            "ns",
        ),
        metric(
            "choices.single_ns_per_key",
            per(&t, &["choices.single"]),
            "ns",
        ),
        metric("place.ns_per_ball", per(&t, &["core.place"]), "ns"),
        metric(
            "place.remove_ns",
            per(&t, &["core.remove", "core.remove.standalone"]),
            "ns",
        ),
        metric("index.push_ns", per(&t, &["index.push"]), "ns"),
        metric(
            "index.bytes_per_key",
            acc.index_bytes / acc.index_keys.max(1.0),
            "bytes",
        ),
        metric(
            "index.pop_ns",
            per(&t, &["index.pop", "index.pop.standalone"]),
            "ns",
        ),
        metric(
            "index.depth_ns",
            per(&t, &["index.depth", "index.depth.standalone"]),
            "ns",
        ),
        metric(
            "index.spill_key_share",
            inputs.spilled_keys as f64 / inputs.live_keys.max(1) as f64,
            "fraction",
        ),
        metric("observe.ns_per_record", per(&t, &["metrics.observe"]), "ns"),
        metric("shard.apply_ns_per_op", per(&t, &["shard.apply"]), "ns"),
        metric("rounds.per_batch", rounds_per_batch, "count"),
        metric("rounds.accept_ratio", accept_ratio, "ratio"),
        metric("sink.record_ns", sink_ns, "ns"),
        metric(
            "layer_sum_ratio",
            layer_sum_ns / ops / e2e_ns_per_op,
            "ratio",
        ),
        metric(
            "trace_overhead_frac",
            1.0 - traced_ops_per_sec / m.ops_per_sec(),
            "fraction",
        ),
    ]
}

/// Writes the span summary to stderr: self time, items, and spans per
/// name, grouped under the parent's name.
fn print_spans(spans: &[Span], timer_ns: f64) {
    let t = totals(spans, timer_ns);
    let mut parent_of: BTreeMap<&str, &str> = BTreeMap::new();
    for s in spans {
        parent_of
            .entry(s.name)
            .or_insert_with(|| s.parent.map_or("-", |p| spans[p].name));
    }
    eprintln!("spans (timer read {timer_ns:.1} ns subtracted per span)");
    eprintln!(
        "{:<24} {:<16} {:>12} {:>12} {:>10} {:>10}",
        "name", "parent", "self_ms", "items", "spans", "ns/item"
    );
    for (name, total) in &t {
        eprintln!(
            "{:<24} {:<16} {:>12.3} {:>12} {:>10} {:>10.2}",
            name,
            parent_of[name],
            total.self_ns / 1e6,
            total.count,
            total.spans,
            total.self_ns / total.count.max(1) as f64
        );
    }
}
