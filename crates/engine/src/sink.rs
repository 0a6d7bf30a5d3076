//! Unit-of-work metrics: per-batch records, sinks, windowed aggregation,
//! and the JSON-lines exporter.
//!
//! The engine's [`EngineStats`](crate::EngineStats) snapshots answer
//! "what does the table look like now"; they say nothing about how
//! serving *felt* — batch latency, queue occupancy, backpressure stalls.
//! This module adds that axis as a metrique-style unit-of-work pipeline:
//!
//! * every applied batch emits one flat [`MetricRecord`] (batch size,
//!   ops by kind, apply latency, and — on the pipelined path — the
//!   bounded queue's occupancy and stall count/duration at ship time);
//! * records flow into a caller-supplied [`MetricsSink`] attached via
//!   [`Engine::set_sink`](crate::Engine::set_sink);
//! * [`WindowedAggregator`] rolls records into fixed-duration
//!   [`WindowSummary`]s whose latency/size/occupancy distributions are
//!   bounded-memory [`HistogramSketch`]es — mergeable across processes;
//! * [`JsonLinesExporter`] streams one EMF-style JSON line per closed
//!   window to any writer (stderr, a file), rendered with
//!   `ba_stats::json`'s builder.
//!
//! Sinks only *observe*: no sink ever consumes engine RNG or reorders
//! ops, so attaching one leaves allocation results bit-identical (a
//! tested contract).

use ba_stats::json::JsonObject;
use ba_stats::HistogramSketch;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One unit of work: everything the engine knows about a single applied
/// batch, flattened into a record.
///
/// `at` is the offset since the engine was built (a monotonic anchor,
/// not wall-clock time), so windowing is a pure function of the record
/// stream. Under phased ingestion records carry `shard: None` (one
/// record per engine-wide batch); under pipelined ingestion each
/// per-shard shipped batch becomes its own record with `shard:
/// Some(id)`, emitted when the stream drains (ship-side and worker-side
/// halves of the measurement live on different threads and are joined at
/// end of stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricRecord {
    /// Monotonic sequence number assigned by the emitting engine.
    pub seq: u64,
    /// Offset from the engine's construction instant.
    pub at: Duration,
    /// Which shard applied the batch (`None`: engine-wide phased batch).
    pub shard: Option<usize>,
    /// Ops in the batch.
    pub ops: u32,
    /// Insert ops in the batch (counted pre-apply).
    pub inserts: u32,
    /// Delete ops in the batch (counted pre-apply).
    pub deletes: u32,
    /// Lookup ops in the batch (counted pre-apply).
    pub lookups: u32,
    /// Time the shard(s) spent applying the batch.
    pub apply: Duration,
    /// Bounded-queue occupancy sampled right after this batch shipped
    /// (pipelined only; 0 under phased ingestion).
    pub queue_occupancy: u32,
    /// Backpressure stalls shipping this batch: 1 if the bounded send
    /// blocked, else 0 (pipelined only).
    pub stalls: u32,
    /// Total time this batch's send spent blocked on a full queue.
    pub stalled: Duration,
}

/// A consumer of per-batch [`MetricRecord`]s.
///
/// Implementations must be cheap and must not panic: `record` runs on
/// the serving path (phased) or at stream drain (pipelined). The engine
/// holds the sink as `Box<dyn MetricsSink + Send>` so engines stay
/// movable across threads.
pub trait MetricsSink {
    /// Consumes one record.
    fn record(&mut self, record: &MetricRecord);

    /// Flushes any buffered state (e.g. a partially filled window).
    /// Called by [`Engine::take_sink`](crate::Engine::take_sink) and on
    /// engine drop; default is a no-op.
    fn finish(&mut self) {}
}

/// A sink that appends every record to a shared vector — the read-back
/// handle for tests and benches. Clones share one store: attach one
/// clone to the engine, keep the other to inspect.
///
/// # Example
///
/// ```
/// use ba_engine::{Engine, EngineConfig, Op, SharedSink};
///
/// let sink = SharedSink::new();
/// let handle = sink.clone();
/// let mut engine = Engine::by_name("double", EngineConfig::new(2, 64, 2)).unwrap();
/// engine.set_sink(Box::new(sink));
/// engine.serve(&(0..128u64).map(Op::Insert).collect::<Vec<_>>(), 32);
/// let records = handle.records();
/// assert_eq!(records.iter().map(|r| u64::from(r.ops)).sum::<u64>(), 128);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedSink {
    store: Arc<Mutex<Vec<MetricRecord>>>,
}

impl SharedSink {
    /// Creates an empty shared sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of every record collected so far.
    pub fn records(&self) -> Vec<MetricRecord> {
        self.store.lock().expect("sink lock poisoned").clone()
    }
}

impl MetricsSink for SharedSink {
    fn record(&mut self, record: &MetricRecord) {
        self.store.lock().expect("sink lock poisoned").push(*record);
    }
}

/// Aggregated telemetry for one fixed-duration window of records.
///
/// Totals (`batches`, `ops`, op mix, stalls) are exact sums; the
/// per-batch distributions — apply latency in microseconds, batch size,
/// queue occupancy — are bounded-memory [`HistogramSketch`]es, so a
/// window summary's size is independent of how many batches landed in
/// it and summaries merge across engines via [`HistogramSketch::merge`].
#[derive(Debug, Clone)]
pub struct WindowSummary {
    /// Window index: `at / window` for every record inside.
    pub index: u64,
    /// Window start offset (index × window length).
    pub start: Duration,
    /// Window end offset (exclusive).
    pub end: Duration,
    /// Batches recorded in the window.
    pub batches: u64,
    /// Total ops across those batches.
    pub ops: u64,
    /// Total inserts.
    pub inserts: u64,
    /// Total deletes.
    pub deletes: u64,
    /// Total lookups.
    pub lookups: u64,
    /// Total backpressure stalls.
    pub stalls: u64,
    /// Total time spent stalled on full queues.
    pub stalled: Duration,
    /// Per-batch apply latency in microseconds (log2 bins: relative
    /// error ≤ one octave).
    pub apply_us: HistogramSketch,
    /// Per-batch op counts (log2 bins).
    pub batch_ops: HistogramSketch,
    /// Queue occupancy samples (unit bins: exact up to the edge).
    pub occupancy: HistogramSketch,
}

impl WindowSummary {
    fn empty(index: u64, window: Duration) -> Self {
        let nanos = window.as_nanos() as u64;
        Self {
            index,
            start: Duration::from_nanos(nanos.saturating_mul(index)),
            end: Duration::from_nanos(nanos.saturating_mul(index + 1)),
            batches: 0,
            ops: 0,
            inserts: 0,
            deletes: 0,
            lookups: 0,
            stalls: 0,
            stalled: Duration::ZERO,
            // ~1µs .. ~1s in octaves.
            apply_us: HistogramSketch::log2_bins(20),
            // 1 .. 2^20 ops per batch in octaves.
            batch_ops: HistogramSketch::log2_bins(20),
            // Queue depths beyond 64 land in the overflow bin (exact max
            // still reported).
            occupancy: HistogramSketch::unit_bins(64),
        }
    }

    fn absorb(&mut self, r: &MetricRecord) {
        self.batches += 1;
        self.ops += u64::from(r.ops);
        self.inserts += u64::from(r.inserts);
        self.deletes += u64::from(r.deletes);
        self.lookups += u64::from(r.lookups);
        self.stalls += u64::from(r.stalls);
        self.stalled += r.stalled;
        self.apply_us.record(r.apply.as_secs_f64() * 1e6);
        self.batch_ops.record(f64::from(r.ops));
        self.occupancy.record(f64::from(r.queue_occupancy));
    }

    /// Renders this window as one EMF-style JSON line (no trailing
    /// newline) — the exporter's wire format. Sketch distributions
    /// nest as `{"count", "mean", "p50", "p99", "max"}` objects; a
    /// sketch with no observations exports as `null`, never as a
    /// degenerate all-zero distribution (an all-empty merged window
    /// would otherwise read as a real `p99 = 0` measurement).
    pub fn to_json_line(&self) -> String {
        let sketch = |s: &HistogramSketch| {
            if s.is_empty() {
                return "null".to_string();
            }
            JsonObject::new()
                .field_u64("count", s.count())
                .field_f64("mean", s.mean())
                .field_f64("p50", s.percentile(50.0))
                .field_f64("p99", s.percentile(99.0))
                .field_f64("max", s.max())
                .finish()
        };
        JsonObject::new()
            .field_u64("window", self.index)
            .field_u64("start_us", self.start.as_micros() as u64)
            .field_u64("end_us", self.end.as_micros() as u64)
            .field_u64("batches", self.batches)
            .field_u64("ops", self.ops)
            .field_u64("inserts", self.inserts)
            .field_u64("deletes", self.deletes)
            .field_u64("lookups", self.lookups)
            .field_u64("stalls", self.stalls)
            .field_u64("stall_us", self.stalled.as_micros() as u64)
            .field_raw("apply_us", &sketch(&self.apply_us))
            .field_raw("batch_ops", &sketch(&self.batch_ops))
            .field_raw("occupancy", &sketch(&self.occupancy))
            .finish()
    }

    /// Merges another window's summary into this one (totals add,
    /// sketches merge) — cross-engine aggregation of the *same* window
    /// index. The window identity (`index`, `start`, `end`) must match.
    ///
    /// # Panics
    ///
    /// Panics if the two summaries describe different windows.
    pub fn merge(&mut self, other: &WindowSummary) {
        assert!(
            self.index == other.index && self.start == other.start && self.end == other.end,
            "window summary merge requires the same window"
        );
        self.batches += other.batches;
        self.ops += other.ops;
        self.inserts += other.inserts;
        self.deletes += other.deletes;
        self.lookups += other.lookups;
        self.stalls += other.stalls;
        self.stalled += other.stalled;
        self.apply_us.merge(&other.apply_us);
        self.batch_ops.merge(&other.batch_ops);
        self.occupancy.merge(&other.occupancy);
    }
}

/// A [`MetricsSink`] that rolls records into fixed-duration
/// [`WindowSummary`]s.
///
/// Window membership is `record.at / window` — a pure function of the
/// record's engine-relative timestamp, not of when the aggregator sees
/// it, so hand-built record streams aggregate deterministically in
/// tests. Records are assumed near-monotonic (the engine emits them so);
/// a straggler older than the current window folds into the current
/// window rather than reopening a closed one.
#[derive(Debug)]
pub struct WindowedAggregator {
    window: Duration,
    current: Option<WindowSummary>,
    completed: Vec<WindowSummary>,
}

impl WindowedAggregator {
    /// Creates an aggregator with the given window length.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: Duration) -> Self {
        assert!(!window.is_zero(), "window length must be positive");
        Self {
            window,
            current: None,
            completed: Vec::new(),
        }
    }

    /// The configured window length.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Takes every *closed* window summary accumulated so far (the
    /// still-open current window stays).
    pub fn drain_completed(&mut self) -> Vec<WindowSummary> {
        std::mem::take(&mut self.completed)
    }

    /// Closes the current window and returns every remaining summary —
    /// closed windows first, then the final partial one.
    pub fn finish_all(&mut self) -> Vec<WindowSummary> {
        let mut out = std::mem::take(&mut self.completed);
        out.extend(self.current.take());
        out
    }
}

impl MetricsSink for WindowedAggregator {
    fn record(&mut self, record: &MetricRecord) {
        let index = (record.at.as_nanos() / self.window.as_nanos()) as u64;
        match &self.current {
            Some(cur) if index > cur.index => {
                let closed = self.current.take().expect("current window present");
                self.completed.push(closed);
                self.current = Some(WindowSummary::empty(index, self.window));
            }
            None => self.current = Some(WindowSummary::empty(index, self.window)),
            _ => {} // same window, or a straggler folded into current
        }
        self.current
            .as_mut()
            .expect("current window present")
            .absorb(record);
    }
}

/// A [`MetricsSink`] that streams windowed metrics as JSON lines: one
/// line per closed window (see [`WindowSummary::to_json_line`]),
/// flushed as soon as the window closes, with the final partial window
/// emitted by [`MetricsSink::finish`] (called automatically when the
/// owning engine drops or releases the sink).
///
/// Write errors are swallowed — telemetry must never take down the
/// serving path.
pub struct JsonLinesExporter<W: Write + Send> {
    aggregator: WindowedAggregator,
    out: W,
}

impl<W: Write + Send> JsonLinesExporter<W> {
    /// Creates an exporter writing one JSON line per `window` to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(out: W, window: Duration) -> Self {
        Self {
            aggregator: WindowedAggregator::new(window),
            out,
        }
    }

    fn emit_closed(&mut self) {
        for summary in self.aggregator.drain_completed() {
            let _ = writeln!(self.out, "{}", summary.to_json_line());
        }
    }
}

impl JsonLinesExporter<std::io::Stderr> {
    /// An exporter streaming to stderr — the "watch it live" default for
    /// examples and operators.
    pub fn stderr(window: Duration) -> Self {
        Self::new(std::io::stderr(), window)
    }
}

impl<W: Write + Send> MetricsSink for JsonLinesExporter<W> {
    fn record(&mut self, record: &MetricRecord) {
        self.aggregator.record(record);
        self.emit_closed();
    }

    fn finish(&mut self) {
        for summary in self.aggregator.finish_all() {
            let _ = writeln!(self.out, "{}", summary.to_json_line());
        }
        let _ = self.out.flush();
    }
}

impl<W: Write + Send> std::fmt::Debug for JsonLinesExporter<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonLinesExporter")
            .field("window", &self.aggregator.window())
            .finish_non_exhaustive()
    }
}

impl<W: Write + Send> Drop for JsonLinesExporter<W> {
    fn drop(&mut self) {
        // Best-effort: a sink released via take_sink already finished
        // (finish_all left nothing), so this only fires for sinks still
        // attached when the engine drops.
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(at_ms: u64, ops: u32, stalls: u32) -> MetricRecord {
        MetricRecord {
            seq: 0,
            at: Duration::from_millis(at_ms),
            shard: None,
            ops,
            inserts: ops,
            deletes: 0,
            lookups: 0,
            apply: Duration::from_micros(u64::from(ops) * 2),
            queue_occupancy: 1,
            stalls,
            stalled: Duration::from_micros(u64::from(stalls) * 50),
        }
    }

    #[test]
    fn shared_sink_collects_records() {
        let sink = SharedSink::new();
        let mut attached = sink.clone();
        attached.record(&record(1, 10, 0));
        attached.record(&record(2, 20, 1));
        let records = sink.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].ops, 20);
    }

    #[test]
    fn aggregator_windows_by_record_timestamp() {
        let mut agg = WindowedAggregator::new(Duration::from_millis(10));
        for at in [1u64, 5, 9] {
            agg.record(&record(at, 100, 0));
        }
        agg.record(&record(12, 50, 1)); // closes window 0
        agg.record(&record(31, 25, 0)); // closes window 1 (window 2 empty, skipped)
        let closed = agg.drain_completed();
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].index, 0);
        assert_eq!(closed[0].batches, 3);
        assert_eq!(closed[0].ops, 300);
        assert_eq!(closed[1].index, 1);
        assert_eq!(closed[1].stalls, 1);
        let rest = agg.finish_all();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].index, 3);
        assert_eq!(rest[0].ops, 25);
        assert!(agg.finish_all().is_empty(), "finish must drain");
    }

    #[test]
    fn straggler_records_fold_into_the_current_window() {
        let mut agg = WindowedAggregator::new(Duration::from_millis(10));
        agg.record(&record(15, 10, 0));
        agg.record(&record(3, 10, 0)); // older than the open window
        let all = agg.finish_all();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].batches, 2);
    }

    #[test]
    fn window_summary_merge_adds_everything() {
        let mut agg_a = WindowedAggregator::new(Duration::from_millis(10));
        let mut agg_b = WindowedAggregator::new(Duration::from_millis(10));
        let mut whole = WindowedAggregator::new(Duration::from_millis(10));
        for at in 0..8u64 {
            let r = record(at, 10 + at as u32, (at % 2) as u32);
            whole.record(&r);
            if at % 2 == 0 {
                agg_a.record(&r);
            } else {
                agg_b.record(&r);
            }
        }
        let mut a = agg_a.finish_all().remove(0);
        let b = agg_b.finish_all().remove(0);
        let expected = whole.finish_all().remove(0);
        a.merge(&b);
        assert_eq!(a.batches, expected.batches);
        assert_eq!(a.ops, expected.ops);
        assert_eq!(a.stalls, expected.stalls);
        assert_eq!(a.apply_us, expected.apply_us);
        assert_eq!(a.occupancy, expected.occupancy);
    }

    #[test]
    #[should_panic(expected = "same window")]
    fn window_merge_rejects_different_windows() {
        let window = Duration::from_millis(10);
        let mut a = WindowSummary::empty(0, window);
        let b = WindowSummary::empty(1, window);
        a.merge(&b);
    }

    #[test]
    fn empty_window_sketches_export_as_null_not_zero_percentiles() {
        let window = Duration::from_millis(10);
        let mut a = WindowSummary::empty(3, window);
        let b = WindowSummary::empty(3, window);
        // Merging all-empty windows (cross-engine aggregation of idle
        // engines) must not fabricate a zeroed distribution.
        a.merge(&b);
        let line = a.to_json_line();
        for key in ["apply_us", "batch_ops", "occupancy"] {
            assert!(line.contains(&format!("\"{key}\": null")), "{line}");
        }
        assert!(
            !line.contains("\"p99\""),
            "degenerate percentiles leaked: {line}"
        );
    }

    #[test]
    fn exporter_emits_one_line_per_closed_window_plus_finish() {
        let mut exporter = JsonLinesExporter::new(Vec::new(), Duration::from_millis(10));
        exporter.record(&record(1, 10, 0));
        exporter.record(&record(11, 20, 1)); // closes window 0
        exporter.record(&record(25, 30, 0)); // closes window 1
        exporter.finish();
        let text = String::from_utf8(std::mem::take(&mut exporter.out)).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
            for key in [
                "\"window\"",
                "\"batches\"",
                "\"ops\"",
                "\"stalls\"",
                "\"stall_us\"",
                "\"apply_us\"",
                "\"occupancy\"",
            ] {
                assert!(line.contains(key), "missing {key}: {line}");
            }
        }
        assert!(lines[1].contains("\"stalls\": 1"), "{text}");
        // finish drained everything: dropping must not re-emit.
        drop(exporter);
    }

    #[test]
    #[should_panic(expected = "window length")]
    fn zero_window_rejected() {
        let _ = WindowedAggregator::new(Duration::ZERO);
    }
}
