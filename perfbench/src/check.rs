//! Correctness checks a pass must pass before its numbers count.

use crate::drive;
use crate::spec::{self, Ingest, Spec, Stream, BATCH, D};
use ba_engine::{BatchSummary, Engine, EngineStats, Op};
use ba_hash::{ChoiceScheme, DoubleHashing};
use ba_rng::SeedSequence;
use std::collections::HashMap;

/// Child index the engine derives its rounds salt from
/// (`ba_engine::rounds`); the probe-set check re-derives each key's
/// global probes with it.
const ROUNDS_SALT_CHILD: u64 = 0x526E_6453;

/// What a pass left behind, captured before its engine is dropped.
pub struct Snapshot {
    pub summary: BatchSummary,
    pub stats: EngineStats,
    /// Every bin's load, shard after shard (global bin order).
    pub loads: Vec<u32>,
}

impl Snapshot {
    pub fn capture(summary: BatchSummary, engine: &Engine<DoubleHashing>) -> Self {
        let loads = engine
            .shards()
            .iter()
            .flat_map(|s| s.allocation().loads().iter().copied())
            .collect();
        Self {
            summary,
            stats: engine.stats(),
            loads,
        }
    }

    /// Final max load minus balls per bin: the paper's gap.
    pub fn gap(&self) -> f64 {
        let max = self.loads.iter().copied().max().unwrap_or(0);
        f64::from(max) - self.mean_load()
    }

    /// Fraction of bins with load above mean + 1, i.e. at least
    /// floor(mean) + 2: the paper's ceil(mean) + 2 tail when the mean is
    /// whole, one level lower otherwise. (The ceil(mean) + 2 tail is
    /// empty on churn-phased, whose mean load sits just above 1.)
    pub fn over_mean1_frac(&self) -> f64 {
        let cut = self.mean_load().floor() as u32 + 2;
        let above = self.loads.iter().filter(|&&l| l >= cut).count();
        above as f64 / self.loads.len() as f64
    }

    fn mean_load(&self) -> f64 {
        let balls: u64 = self.loads.iter().map(|&l| u64::from(l)).sum();
        balls as f64 / self.loads.len() as f64
    }
}

/// Checks one pass of `batches` batches served from pass seed `seed`.
/// Returns one line per failed check; empty means the pass is correct.
pub fn check_pass(spec: &Spec, seed: u64, batches: u64, got: &Snapshot) -> Vec<String> {
    let mut failures = Vec::new();
    let s = &got.summary;
    let attempted = batches * BATCH as u64;
    if s.total_ops() != attempted {
        failures.push(format!(
            "summary accounts for {} of {attempted} ops",
            s.total_ops()
        ));
    }
    if spec.stream == Stream::Churn && s.missed_deletes > 0 {
        failures.push(format!("{} missed deletes", s.missed_deletes));
    }
    let balls: u64 = got.loads.iter().map(|&l| u64::from(l)).sum();
    if balls != s.inserts - s.deletes || got.stats.total_balls() != balls {
        failures.push(format!(
            "balls not conserved: {balls} placed, {} inserts - {} deletes",
            s.inserts, s.deletes
        ));
    }
    // The reference: a sequential phased twin for phased and pipelined
    // runs; a second, sequential-worker rounds run for rounds mode,
    // whose placement must not depend on the run or the worker mode.
    let mut twin = spec::engine(spec.twin_config(seed));
    let mut gen = spec.generator(seed);
    let want = drive::serve(&mut twin, gen.as_mut(), batches, false).summary;
    if want != *s {
        failures.push(format!("summary {s:?} differs from twin {want:?}"));
    }
    let twin_stats = twin.stats();
    drop(twin);
    for line in got.stats.divergences(&twin_stats) {
        failures.push(format!("twin divergence: {line}"));
    }
    if spec.ingest == Ingest::Rounds {
        failures.extend(check_probe_sets(spec, seed, batches, &got.loads));
    }
    failures
}

/// Rounds mode keeps its key index private, so placement is checked
/// from the loads: a ball-to-bin assignment with every ball inside its
/// key's d global probes must exist that yields exactly these loads.
/// That holds iff a max flow source → key (its ball count) → probe bins
/// → sink (the bin's load) saturates every load.
fn check_probe_sets(spec: &Spec, seed: u64, batches: u64, loads: &[u32]) -> Vec<String> {
    let mut balls_of: HashMap<u64, u64> = HashMap::new();
    let mut gen = spec.generator(seed);
    let mut ops = Vec::new();
    for _ in 0..batches {
        gen.fill(&mut ops, BATCH);
        for op in &ops {
            match *op {
                Op::Insert(k) => *balls_of.entry(k).or_default() += 1,
                Op::Delete(_) => {
                    return vec!["probe-set check expects a delete-free stream".into()];
                }
                Op::Lookup(_) => {}
            }
        }
    }
    let scheme = DoubleHashing::new(spec.bins(), D);
    let salt = SeedSequence::new(seed)
        .child(ROUNDS_SALT_CHILD)
        .derive_u64();
    let mut keys: Vec<(u64, u64)> = balls_of.into_iter().collect();
    keys.sort_unstable();
    let total: u64 = keys.iter().map(|&(_, c)| c).sum();
    let bins = loads.len();
    // Nodes: 0 source, 1 sink, 2.. bins, then keys.
    let mut flow = Flow::new(2 + bins + keys.len());
    let mut probes = vec![0u64; D];
    for (i, &(key, count)) in keys.iter().enumerate() {
        let node = 2 + bins + i;
        flow.edge(0, node, count);
        scheme.choices_for(key, salt, &mut probes);
        probes.sort_unstable();
        probes.dedup();
        for &bin in &probes {
            flow.edge(node, 2 + bin as usize, count);
        }
        probes.resize(D, 0);
    }
    for (bin, &load) in loads.iter().enumerate() {
        flow.edge(2 + bin, 1, u64::from(load));
    }
    let placed: u64 = loads.iter().map(|&l| u64::from(l)).sum();
    let routed = flow.max_flow(0, 1);
    if routed == total && placed == total {
        Vec::new()
    } else {
        vec![format!(
            "only {routed} of {total} balls fit inside their keys' probe sets ({placed} placed)"
        )]
    }
}

/// Dinic's max flow over an adjacency list of paired edges.
struct Flow {
    head: Vec<Vec<usize>>,
    to: Vec<usize>,
    cap: Vec<u64>,
}

impl Flow {
    fn new(nodes: usize) -> Self {
        Self {
            head: vec![Vec::new(); nodes],
            to: Vec::new(),
            cap: Vec::new(),
        }
    }

    fn edge(&mut self, from: usize, to: usize, cap: u64) {
        self.head[from].push(self.to.len());
        self.to.push(to);
        self.cap.push(cap);
        self.head[to].push(self.to.len());
        self.to.push(from);
        self.cap.push(0);
    }

    fn max_flow(&mut self, source: usize, sink: usize) -> u64 {
        let n = self.head.len();
        let mut total = 0;
        loop {
            let mut level = vec![usize::MAX; n];
            level[source] = 0;
            let mut queue = std::collections::VecDeque::from([source]);
            while let Some(v) = queue.pop_front() {
                for &e in &self.head[v] {
                    if self.cap[e] > 0 && level[self.to[e]] == usize::MAX {
                        level[self.to[e]] = level[v] + 1;
                        queue.push_back(self.to[e]);
                    }
                }
            }
            if level[sink] == usize::MAX {
                return total;
            }
            let mut next = vec![0usize; n];
            loop {
                let pushed = self.push(source, sink, u64::MAX, &level, &mut next);
                if pushed == 0 {
                    break;
                }
                total += pushed;
            }
        }
    }

    /// Iterative blocking-flow step: one augmenting path along the
    /// level graph, advancing each node's edge cursor past dead ends.
    fn push(
        &mut self,
        source: usize,
        sink: usize,
        limit: u64,
        level: &[usize],
        next: &mut [usize],
    ) -> u64 {
        let mut path: Vec<usize> = Vec::new();
        let mut v = source;
        loop {
            if v == sink {
                let bottleneck = path.iter().map(|&e| self.cap[e]).fold(limit, u64::min);
                for &e in &path {
                    self.cap[e] -= bottleneck;
                    self.cap[e ^ 1] += bottleneck;
                }
                return bottleneck;
            }
            let mut advanced = false;
            while next[v] < self.head[v].len() {
                let e = self.head[v][next[v]];
                let w = self.to[e];
                if self.cap[e] > 0 && level[w] == level[v] + 1 {
                    path.push(e);
                    v = w;
                    advanced = true;
                    break;
                }
                next[v] += 1;
            }
            if !advanced {
                // Dead end: retreat one edge and skip it from now on.
                let Some(e) = path.pop() else {
                    return 0;
                };
                v = self.to[e ^ 1];
                next[v] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_finds_a_perfect_assignment_or_reports_the_shortfall() {
        // Two keys of one ball each, both allowed only in bin 2.
        let mut f = Flow::new(5);
        f.edge(0, 3, 1);
        f.edge(0, 4, 1);
        f.edge(3, 2, 1);
        f.edge(4, 2, 1);
        f.edge(2, 1, 2);
        assert_eq!(f.max_flow(0, 1), 2);
        let mut g = Flow::new(5);
        g.edge(0, 3, 2);
        g.edge(3, 2, 2);
        g.edge(2, 1, 1);
        assert_eq!(g.max_flow(0, 1), 1);
    }
}
