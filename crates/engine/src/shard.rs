//! One shard: a bin table, its key index, and its choice source.

use crate::engine::{ChoiceMode, EngineConfig};
use crate::index::KeyIndex;
use crate::metrics::OpObservations;
use crate::op::{BatchSummary, Op};
use ba_core::{Allocation, TieBreak};
use ba_hash::{ChoiceScheme, ChoiceSource};
use ba_rng::{AnyRng, SeedSequence};

/// Child index reserved for deriving a shard's keyed salt, domain-
/// separated from the shard's RNG stream (which uses the node itself).
const SALT_CHILD: u64 = 0x5A17;

/// Keys per `choices_for_batch` call on the batched keyed insert path:
/// large enough to amortize dispatch, small enough that the choice
/// matrix stays in L1.
const INSERT_RUN_CHUNK: usize = 128;

/// Runs shorter than this stay on the per-op insert path: gathering
/// keys, sizing the matrix, and dispatching the batch kernel cost more
/// than the kernel saves on a handful of keys. Lookup- or delete-heavy
/// streams break runs constantly, so without this floor batching would
/// tax exactly the workloads it cannot help.
const INSERT_RUN_MIN: usize = 16;

/// A single-threaded slice of the engine's keyspace.
///
/// The shard owns an [`Allocation`] over its scheme's bins, a
/// [`KeyIndex`] from key to the bins currently holding that key's balls,
/// and a deterministic RNG stream derived from
/// `SeedSequence::new(seed).child(shard_id)` in the configured
/// [`ba_rng::RngKind`].
///
/// Choice vectors come from the configured [`ChoiceMode`]:
///
/// * **Stream** — each insert draws fresh choices from the shard's RNG
///   stream (the paper's process model); only inserts consume randomness,
///   exactly like `ba_core::run_process`, so an insert-only shard is
///   bit-identical to a single-threaded `run_process` over the same
///   stream.
/// * **Keyed** — choices derive from `hash(key, shard_salt)` (the
///   hash-table model): deleting and re-inserting a key replays its exact
///   `f + k·g` probe sequence, and the RNG stream is consumed only by
///   random tie-breaks. Because keyed choices consume no stream
///   randomness, [`Shard::apply`] generates them in batches
///   ([`ChoiceScheme::choices_for_batch`]) across each run of consecutive
///   inserts — bit-identical to the per-op path, just faster.
///
/// Either way the determinism contract mirrors `ba_core::runner`: a
/// shard's final state is a pure function of `(config, shard_id, ordered
/// op sequence)` — never of which thread ran it or what other shards did.
#[derive(Debug, Clone)]
pub struct Shard<S> {
    id: usize,
    scheme: S,
    alloc: Allocation,
    tie: TieBreak,
    rng: AnyRng,
    mode: ChoiceMode,
    salt: u64,
    /// key -> stack of bins holding that key's balls (LIFO delete order).
    index: KeyIndex,
    choices: Vec<u64>,
    /// Scratch for the batched keyed insert path: the current run's keys.
    batch_keys: Vec<u64>,
    /// Scratch for the batched keyed insert path: the choice matrix
    /// (row i = choices for the run's i-th key).
    batch_choices: Vec<u64>,
    lifetime: BatchSummary,
    observed: OpObservations,
}

impl<S: ChoiceScheme> Shard<S> {
    /// Creates an empty shard with its own RNG stream and keyed salt,
    /// both derived from `config.seed` and `id`.
    pub fn new(id: usize, scheme: S, config: &EngineConfig) -> Self {
        let alloc = Allocation::new(scheme.n());
        let d = scheme.d();
        let node = SeedSequence::new(config.seed).child(id as u64);
        let salt = node.child(SALT_CHILD).derive_u64();
        Self {
            id,
            scheme,
            alloc,
            tie: config.tie,
            rng: node.any_rng(config.rng),
            mode: config.mode,
            salt,
            // Seeding the index's probe order from the salt keeps its
            // internals deterministic per shard; enumeration always goes
            // through the sorted surface regardless.
            index: KeyIndex::with_seed(salt),
            choices: vec![0u64; d],
            batch_keys: Vec::new(),
            batch_choices: Vec::new(),
            lifetime: BatchSummary::default(),
            observed: OpObservations::default(),
        }
    }

    /// This shard's position within the engine.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The shard's bin table.
    pub fn allocation(&self) -> &Allocation {
        &self.alloc
    }

    /// The shard's choice scheme.
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// The shard's choice mode.
    pub fn mode(&self) -> ChoiceMode {
        self.mode
    }

    /// The salt mixed into keyed choice derivation for this shard.
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// The [`ChoiceSource`] this shard feeds to the allocation core.
    pub fn source(&self) -> ChoiceSource {
        match self.mode {
            ChoiceMode::Stream => ChoiceSource::Stream,
            ChoiceMode::Keyed => ChoiceSource::Keyed { salt: self.salt },
        }
    }

    /// The probe sequence `key` would use in keyed mode — a pure function
    /// of `(key, shard salt)`, independent of the shard's current state.
    pub fn probes_for(&self, key: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.probes_into(key, &mut out);
        out
    }

    /// Like [`Shard::probes_for`], but writing into a caller-owned buffer
    /// (resized to `d`) so loops over many keys — cluster rebalance
    /// drains, placement annotation — reuse one allocation.
    pub fn probes_into(&self, key: u64, out: &mut Vec<u64>) {
        out.resize(self.scheme.d(), 0);
        self.scheme.choices_for(key, self.salt, out);
    }

    /// The bins currently holding balls for `key`, oldest first.
    pub fn bins_of(&self, key: u64) -> Option<&[u64]> {
        self.index.get(key)
    }

    /// Number of distinct keys with at least one live ball.
    pub fn live_keys(&self) -> usize {
        self.index.len()
    }

    /// Every key with at least one live ball, sorted ascending. The sort
    /// makes the enumeration deterministic (the index is a hash table),
    /// so callers that replay the result — cluster rebalance drains, the
    /// placement map — are reproducible run to run.
    pub fn live_key_ids(&self) -> Vec<u64> {
        self.index.sorted_keys()
    }

    /// Operation counters accumulated over the shard's lifetime.
    pub fn lifetime_summary(&self) -> &BatchSummary {
        &self.lifetime
    }

    /// Per-op-kind load/probe observations over the shard's lifetime.
    pub fn observations(&self) -> &OpObservations {
        &self.observed
    }

    /// Places an already-derived choice vector for `key`: tie-break,
    /// record observations, index the ball. Shared by the per-op and
    /// batched insert paths so both produce identical state and stats.
    #[inline]
    fn place_and_record(&mut self, key: u64, choices: &[u64]) -> u64 {
        // FirstOffered traffic skips the `dyn Rng64` argument entirely
        // (monomorphized fast path); the general path consumes the RNG
        // exactly as before for random tie-breaks.
        let (bin, probe) = match self.tie {
            TieBreak::FirstOffered => self.alloc.place_first_offered(choices),
            tie => self.alloc.place_indexed(choices, tie, &mut self.rng),
        };
        self.observed.insert_load.record(self.alloc.load(bin));
        self.observed.insert_probe.record(probe);
        self.index.push(key, bin);
        self.lifetime.inserts += 1;
        bin
    }

    /// Places one ball for `key`; returns the chosen bin.
    pub fn insert(&mut self, key: u64) -> u64 {
        let mut choices = std::mem::take(&mut self.choices);
        self.source()
            .fill(&self.scheme, key, &mut self.rng, &mut choices);
        let bin = self.place_and_record(key, &choices);
        self.choices = choices;
        bin
    }

    /// Places a run of consecutive keyed inserts through the batched
    /// choice kernel: one [`ChoiceScheme::choices_for_batch`] dispatch
    /// per [`INSERT_RUN_CHUNK`] keys, falling back to per-op inserts
    /// for runs under [`INSERT_RUN_MIN`]. Each chunk's key-index slots
    /// are loaded up front (`KeyIndex::warm`), so their cache misses
    /// overlap instead of stalling one push at a time. Sound only in
    /// keyed mode, where choice derivation consumes no RNG — placements,
    /// tie-break draws, and observation order are bit-identical to
    /// per-op inserts.
    fn insert_run_keyed(&mut self, from: &[Op]) -> usize {
        let run = from
            .iter()
            .take_while(|op| matches!(op, Op::Insert(_)))
            .count();
        if run < INSERT_RUN_MIN {
            for op in &from[..run] {
                if let Op::Insert(key) = *op {
                    self.insert(key);
                }
            }
            return run;
        }
        let mut keys = std::mem::take(&mut self.batch_keys);
        keys.clear();
        keys.extend(from[..run].iter().map(|op| match *op {
            Op::Insert(key) => key,
            _ => unreachable!("counted as part of the insert run above"),
        }));
        let d = self.scheme.d();
        let mut matrix = std::mem::take(&mut self.batch_choices);
        for chunk in keys.chunks(INSERT_RUN_CHUNK) {
            matrix.resize(chunk.len() * d, 0);
            self.scheme.choices_for_batch(chunk, self.salt, &mut matrix);
            self.index.warm(chunk);
            for (i, &key) in chunk.iter().enumerate() {
                self.place_and_record(key, &matrix[i * d..(i + 1) * d]);
            }
        }
        let run = keys.len();
        self.batch_keys = keys;
        self.batch_choices = matrix;
        run
    }

    /// Removes the most recent ball for `key`; returns its bin if present.
    pub fn delete(&mut self, key: u64) -> Option<u64> {
        match self.index.pop(key) {
            Some(bin) => {
                self.observed.delete_load.record(self.alloc.load(bin));
                self.alloc.remove(bin);
                self.lifetime.deletes += 1;
                Some(bin)
            }
            None => {
                self.lifetime.missed_deletes += 1;
                None
            }
        }
    }

    /// Whether any ball for `key` is live.
    pub fn lookup(&mut self, key: u64) -> bool {
        self.lifetime.lookups += 1;
        let depth = self.index.depth(key);
        self.observed.lookup_depth.record(depth as u32);
        let hit = depth > 0;
        if hit {
            self.lifetime.hits += 1;
        }
        hit
    }

    /// Places one round-resolved ball into shard-local `bin` (rounds
    /// ingestion, see [`crate::rounds`]), recording the same insert
    /// observations sequential ingestion would. Placing a single offered
    /// choice consumes no randomness, and the shard's key index is left
    /// alone: rounds mode keeps a global index.
    pub(crate) fn rounds_insert(&mut self, bin: u64, probe: u8) {
        self.alloc.place_first_offered(&[bin]);
        self.observed.insert_load.record(self.alloc.load(bin));
        self.observed.insert_probe.record(u32::from(probe));
        self.lifetime.inserts += 1;
    }

    /// Removes one round-tracked ball from `bin` (rounds ingestion; the
    /// caller resolved the key's global index to this shard-local bin).
    pub(crate) fn rounds_delete(&mut self, bin: u64) {
        self.observed.delete_load.record(self.alloc.load(bin));
        self.alloc.remove(bin);
        self.lifetime.deletes += 1;
    }

    /// Counts a delete that found no live ball (rounds ingestion).
    pub(crate) fn rounds_missed_delete(&mut self) {
        self.lifetime.missed_deletes += 1;
    }

    /// Records one lookup observing `depth` live balls (rounds
    /// ingestion; the caller resolved depth against the global index).
    pub(crate) fn rounds_lookup(&mut self, depth: u32) {
        self.lifetime.lookups += 1;
        self.observed.lookup_depth.record(depth);
        if depth > 0 {
            self.lifetime.hits += 1;
        }
    }

    /// Applies an ordered op sequence, returning this batch's summary.
    ///
    /// In keyed mode, runs of consecutive inserts route through the
    /// batched choice kernel (`Shard::insert_run_keyed`); stream mode
    /// keeps the strict per-op path, because pre-generating a run's
    /// stream choices would reorder RNG draws relative to interleaved
    /// random tie-breaks and change placements.
    pub fn apply(&mut self, ops: &[Op]) -> BatchSummary {
        let before = self.lifetime;
        if self.mode == ChoiceMode::Keyed {
            let mut i = 0;
            while i < ops.len() {
                match ops[i] {
                    Op::Insert(_) => i += self.insert_run_keyed(&ops[i..]),
                    Op::Delete(k) => {
                        self.delete(k);
                        i += 1;
                    }
                    Op::Lookup(k) => {
                        self.lookup(k);
                        i += 1;
                    }
                }
            }
        } else {
            for &op in ops {
                match op {
                    Op::Insert(k) => {
                        self.insert(k);
                    }
                    Op::Delete(k) => {
                        self.delete(k);
                    }
                    Op::Lookup(k) => {
                        self.lookup(k);
                    }
                }
            }
        }
        self.lifetime.diff(&before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use ba_core::{run_process, run_process_keys};
    use ba_hash::{AnyScheme, DoubleHashing};
    use ba_rng::RngKind;

    fn config(seed: u64) -> EngineConfig {
        EngineConfig::new(1, 64, 3).seed(seed)
    }

    fn shard(seed: u64) -> Shard<DoubleHashing> {
        Shard::new(0, DoubleHashing::new(64, 3), &config(seed))
    }

    fn keyed_shard(seed: u64) -> Shard<DoubleHashing> {
        Shard::new(0, DoubleHashing::new(64, 3), &config(seed).keyed())
    }

    #[test]
    fn insert_then_delete_roundtrips() {
        let mut s = shard(1);
        let bin = s.insert(42);
        assert!(s.lookup(42));
        assert_eq!(s.allocation().balls(), 1);
        assert_eq!(s.delete(42), Some(bin));
        assert!(!s.lookup(42));
        assert_eq!(s.allocation().balls(), 0);
        assert_eq!(s.live_keys(), 0);
    }

    #[test]
    fn duplicate_inserts_stack_and_pop_lifo() {
        let mut s = shard(2);
        let b1 = s.insert(7);
        let b2 = s.insert(7);
        assert_eq!(s.allocation().balls(), 2);
        assert_eq!(s.live_keys(), 1);
        assert_eq!(s.delete(7), Some(b2));
        assert!(s.lookup(7), "one ball should remain");
        assert_eq!(s.delete(7), Some(b1));
        assert_eq!(s.delete(7), None);
    }

    #[test]
    fn missed_delete_counted_not_fatal() {
        let mut s = shard(3);
        assert_eq!(s.delete(999), None);
        assert_eq!(s.lifetime_summary().missed_deletes, 1);
        assert_eq!(s.allocation().balls(), 0);
    }

    #[test]
    fn insert_only_shard_matches_run_process() {
        // The determinism contract: a shard fed only inserts reproduces
        // ba_core::run_process bit-for-bit on the same derived stream.
        let seed = 99u64;
        let scheme = DoubleHashing::new(128, 3);
        let cfg = EngineConfig::new(8, 128, 3).seed(seed);
        let mut s = Shard::new(5, scheme.clone(), &cfg);
        for key in 0..200u64 {
            s.insert(key);
        }
        let mut rng = SeedSequence::new(seed).child(5).xoshiro();
        let reference = run_process(&scheme, 200, TieBreak::Random, &mut rng);
        assert_eq!(s.allocation().loads(), reference.loads());
        assert_eq!(s.allocation().max_load(), reference.max_load());
    }

    #[test]
    fn keyed_shard_matches_run_process_keys() {
        // The keyed twin of the contract: insert-only keyed traffic equals
        // run_process_keys over the same keys, salt, and tie-break stream.
        let seed = 17u64;
        let scheme = DoubleHashing::new(128, 3);
        let cfg = EngineConfig::new(8, 128, 3).seed(seed).keyed();
        let mut s = Shard::new(2, scheme.clone(), &cfg);
        let keys: Vec<u64> = (0..200u64).map(|k| k * 3 + 1).collect();
        for &key in &keys {
            s.insert(key);
        }
        let mut rng = SeedSequence::new(seed).child(2).xoshiro();
        let reference = run_process_keys(
            &scheme,
            ChoiceSource::Keyed { salt: s.salt() },
            keys.iter().copied(),
            TieBreak::Random,
            &mut rng,
        );
        assert_eq!(s.allocation().loads(), reference.loads());
    }

    #[test]
    fn keyed_reinsert_replays_probe_sequence() {
        let mut s = keyed_shard(4);
        for key in 0..40u64 {
            s.insert(key);
        }
        let key = 11u64;
        let probes = s.probes_for(key);
        for _ in 0..30 {
            s.delete(key).expect("key live");
            let bin = s.insert(key);
            assert!(
                probes.contains(&bin),
                "keyed re-insert left the probe set: bin {bin} not in {probes:?}"
            );
        }
    }

    #[test]
    fn stream_reinsert_draws_fresh_bins() {
        // The contrast that motivates keyed mode: under the process model
        // re-inserts wander over the whole table.
        let mut s = shard(4);
        for key in 0..40u64 {
            s.insert(key);
        }
        let key = 11u64;
        let probes = s.probes_for(key);
        let mut escaped = false;
        for _ in 0..30 {
            s.delete(key).expect("key live");
            escaped |= !probes.contains(&s.insert(key));
        }
        assert!(escaped, "stream mode never left the keyed probe set");
    }

    #[test]
    fn probes_into_reuses_buffer_and_matches_probes_for() {
        let s = keyed_shard(12);
        let mut buf = vec![999u64; 17];
        for key in 0..64u64 {
            s.probes_into(key, &mut buf);
            assert_eq!(buf, s.probes_for(key), "key {key}");
            assert_eq!(buf.len(), 3);
        }
    }

    #[test]
    fn rng_kind_selects_the_stream() {
        let scheme = DoubleHashing::new(64, 3);
        let xo = Shard::new(0, scheme.clone(), &config(9));
        let mut pcg_cfg = config(9);
        pcg_cfg.rng = RngKind::Pcg64;
        let mut pcg = Shard::new(0, scheme.clone(), &pcg_cfg);
        let mut xo2 = Shard::new(0, scheme, &config(9));
        let mut same = true;
        for key in 0..64u64 {
            same &= pcg.insert(key) == xo2.insert(key);
        }
        assert!(!same, "pcg64 produced xoshiro's placements");
        assert_eq!(xo.mode(), ChoiceMode::Stream);
    }

    #[test]
    fn apply_returns_batch_delta_only() {
        let mut s = shard(4);
        s.apply(&[Op::Insert(1), Op::Insert(2)]);
        let delta = s.apply(&[Op::Delete(1), Op::Delete(5), Op::Lookup(2), Op::Lookup(9)]);
        assert_eq!(delta.inserts, 0);
        assert_eq!(delta.deletes, 1);
        assert_eq!(delta.missed_deletes, 1);
        assert_eq!(delta.lookups, 2);
        assert_eq!(delta.hits, 1);
        assert_eq!(s.lifetime_summary().inserts, 2);
    }

    #[test]
    fn deletes_and_lookups_consume_no_randomness() {
        let mut a = shard(6);
        let mut b = shard(6);
        a.apply(&[Op::Insert(1), Op::Insert(2), Op::Insert(3)]);
        // Same inserts with lookups and missed deletes interleaved: the
        // no-rng ops must not shift the shard's random stream.
        b.apply(&[
            Op::Lookup(1),
            Op::Insert(1),
            Op::Delete(9),
            Op::Insert(2),
            Op::Lookup(2),
            Op::Insert(3),
            Op::Lookup(7),
        ]);
        assert_eq!(a.allocation().loads(), b.allocation().loads());
    }

    #[test]
    fn keyed_apply_batches_bit_identically() {
        // The batched keyed insert path (runs > INSERT_RUN_CHUNK, runs
        // broken by deletes/lookups, short tails) must match per-op
        // inserts exactly: placements, index, counters, observations.
        // Inputs: double hashing at d = 3, then every named scheme at
        // d = 4 (`one` at d = 1), whose batch kernels differ.
        fn check<S: ChoiceScheme>(
            label: &str,
            mut batched: Shard<S>,
            mut reference: Shard<S>,
            ops: &[Op],
        ) {
            let summary = batched.apply(ops);
            for &op in ops {
                match op {
                    Op::Insert(k) => {
                        reference.insert(k);
                    }
                    Op::Delete(k) => {
                        reference.delete(k);
                    }
                    Op::Lookup(k) => {
                        reference.lookup(k);
                    }
                }
            }
            assert_eq!(summary, *reference.lifetime_summary(), "{label}");
            assert_eq!(
                batched.allocation().loads(),
                reference.allocation().loads(),
                "{label}"
            );
            assert_eq!(batched.live_key_ids(), reference.live_key_ids(), "{label}");
            assert_eq!(batched.observations(), reference.observations(), "{label}");
            // And the O(1) tracker still agrees with a full scan after the
            // batched churn.
            assert_eq!(
                batched.allocation().max_load(),
                batched.allocation().scanned_max_load(),
                "{label}"
            );
        }

        let mut ops = Vec::new();
        for key in 0..300u64 {
            ops.push(Op::Insert(key));
        }
        ops.push(Op::Lookup(5));
        ops.push(Op::Delete(7));
        for key in 300..305u64 {
            ops.push(Op::Insert(key));
        }
        ops.push(Op::Delete(11));
        ops.push(Op::Insert(7));
        check("double, d = 3", keyed_shard(21), keyed_shard(21), &ops);
        for &name in AnyScheme::names() {
            let d = if name == "one" { 1 } else { 4 };
            let shard = || {
                let scheme = AnyScheme::by_name(name, 64, d).expect("listed scheme parses");
                Shard::new(0, scheme, &config(21).keyed())
            };
            check(name, shard(), shard(), &ops);
        }
    }

    #[test]
    fn observations_track_each_op_kind() {
        let mut s = shard(8);
        s.apply(&[
            Op::Insert(1),
            Op::Insert(1),
            Op::Insert(2),
            Op::Lookup(1),
            Op::Lookup(99),
            Op::Delete(1),
        ]);
        let obs = s.observations();
        assert_eq!(obs.insert_load.total(), 3);
        assert_eq!(obs.insert_probe.total(), 3);
        assert!(obs.insert_probe.max() < 3, "probe index must be < d");
        assert_eq!(obs.delete_load.total(), 1);
        assert_eq!(obs.lookup_depth.total(), 2);
        // Lookup of key 1 saw 2 balls, lookup of 99 saw 0.
        assert_eq!(obs.lookup_depth.max(), 2);
        assert_eq!(obs.lookup_depth.percentile(1.0), 0);
        // Insert landing loads are ≥ 1 by definition.
        assert!(obs.insert_load.percentile(0.0) >= 1);
    }

    #[test]
    fn bins_of_reflects_live_balls() {
        let mut s = shard(10);
        assert_eq!(s.bins_of(5), None);
        let b1 = s.insert(5);
        let b2 = s.insert(5);
        assert_eq!(s.bins_of(5), Some(&[b1, b2][..]));
        s.delete(5);
        assert_eq!(s.bins_of(5), Some(&[b1][..]));
    }
}
