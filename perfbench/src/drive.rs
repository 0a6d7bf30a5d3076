//! The closed loop: one thread generates a batch, hands it to the
//! engine, and only then generates the next.

use crate::spec::{Ingest, Spec, BATCH};
use ba_engine::{BatchSummary, Engine, Op};
use ba_hash::DoubleHashing;
use ba_workload::Workload;
use std::time::Instant;

/// Feeds a generator's ops to `Engine::serve_replay` one batch at a
/// time, marking each batch boundary on the driving thread. The engine
/// pulls the next batch's first op only after it has applied (phased,
/// rounds) or shipped (pipelined) the previous one, so consecutive marks
/// bracket generate + route + apply-or-ship of one batch.
pub struct Feed<'a> {
    gen: &'a mut dyn Workload,
    buf: Vec<Op>,
    pos: usize,
    left: u64,
    /// When each batch's generation started.
    pub marks: Vec<Instant>,
    /// When each batch's generation ended (kept only when tracing).
    pub filled: Option<Vec<Instant>>,
}

impl<'a> Feed<'a> {
    /// A feed of `batches` batches from `gen`.
    pub fn new(gen: &'a mut dyn Workload, batches: u64, trace: bool) -> Self {
        Self {
            gen,
            buf: Vec::with_capacity(BATCH),
            pos: 0,
            left: batches,
            marks: Vec::with_capacity(batches as usize),
            filled: trace.then(|| Vec::with_capacity(batches as usize)),
        }
    }
}

impl Iterator for Feed<'_> {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        if self.pos == self.buf.len() {
            if self.left == 0 {
                return None;
            }
            self.marks.push(Instant::now());
            self.gen.fill(&mut self.buf, BATCH);
            if let Some(filled) = &mut self.filled {
                filled.push(Instant::now());
            }
            self.left -= 1;
            self.pos = 0;
        }
        let op = self.buf[self.pos];
        self.pos += 1;
        Some(op)
    }
}

/// Starts the engine's worker threads without serving an op, so worker
/// spawn counts as set-up rather than as the first batch. Serving
/// nothing leaves the engine's state untouched (rounds mode counts one
/// empty batch, so its report is drained here).
pub fn warm_up(spec: &Spec, engine: &mut Engine<DoubleHashing>) {
    match spec.ingest {
        Ingest::Pipelined => {
            engine.serve_replay(std::iter::empty(), BATCH);
        }
        Ingest::Phased | Ingest::Rounds => {
            engine.apply_batch(&[]);
            engine.take_round_report();
        }
    }
}

/// One served pass: what the engine reported and when each batch began
/// and (for the last) ended.
pub struct Served {
    pub summary: BatchSummary,
    pub start: Instant,
    pub end: Instant,
    pub marks: Vec<Instant>,
    pub filled: Option<Vec<Instant>>,
}

impl Served {
    /// Wall time of the whole pass in nanoseconds.
    pub fn elapsed_ns(&self) -> u64 {
        (self.end - self.start).as_nanos() as u64
    }

    /// Appends each batch's boundary-to-boundary latency in nanoseconds.
    pub fn batch_latencies(&self, out: &mut Vec<u64>) {
        for (i, &mark) in self.marks.iter().enumerate() {
            let next = self.marks.get(i + 1).copied().unwrap_or(self.end);
            out.push((next - mark).as_nanos() as u64);
        }
    }
}

/// Serves `batches` batches from `gen` into `engine`.
pub fn serve(
    engine: &mut Engine<DoubleHashing>,
    gen: &mut dyn Workload,
    batches: u64,
    trace: bool,
) -> Served {
    let mut feed = Feed::new(gen, batches, trace);
    let start = Instant::now();
    let summary = engine.serve_replay(&mut feed, BATCH);
    let end = Instant::now();
    Served {
        summary,
        start,
        end,
        marks: feed.marks,
        filled: feed.filled,
    }
}
