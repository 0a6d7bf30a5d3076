//! Round-synchronized allocation (`IngestMode::Rounds`).
//!
//! The paper's d-choice placement is sequential per ball: every insert
//! observes the loads left by the previous one. This module instead
//! resolves a whole batch of inserts in synchronized rounds, the
//! MPC-style formulation of Ghaffari–Uitto (arXiv 1807.06251):
//!
//! 1. **Propose** — every pending ball offers its next probe from a
//!    keyed choice vector derived from `(key, rounds salt)` over the
//!    *global* bin space (`shards × bins_per_shard` bins), derived for
//!    the whole batch in one batched-kernel call.
//! 2. **Accept** — each bin accepts proposals while its load sits below
//!    the round's threshold, taking them in salted-key-hash tie order
//!    (never arrival order).
//! 3. **Re-propose** — losers advance to their next probe (wrapping).
//!    After `d` consecutive rounds with no placement every pending ball
//!    has offered all `d` probes at the current threshold, so the
//!    threshold rises by one — which guarantees termination.
//!
//! Where each ball lands is fixed by this process alone, so the batch
//! resolves on the calling thread; the shard worker pool is never
//! spawned. The process takes many rounds: `tables rounds` (double
//! hashing, 1,024-op batches over 1,024 bins, d = 4) needs about 17 per
//! batch on uniform traffic, 131 on zipf, 41 on bursty and 11 on churn,
//! and the `zipf-rounds` perfbench workload about 770.
//!
//! **What executes.** The batch's balls are sorted once, by `(tie,
//! ball)`. A round walks the pending balls in that order, each offering
//! probe `round % d` against a per-batch copy of the global loads.
//! Rounds that place nothing are counted but not executed: after an
//! empty round, one pass over the pending balls' probes finds how many
//! further rounds would also place nothing, and the round count,
//! [`RoundReport::reproposals`], threshold and empty-round streak
//! advance past them in closed form. A batch's cost therefore follows
//! its *placing* rounds: of the ~770 rounds per `zipf-rounds` batch,
//! about 164 place a ball and 64 are walked without placing, and the
//! other ~540, which only raise the threshold toward the hot keys'
//! bins, are skipped. Perfbench's `zipf-rounds` against `zipf-phased`,
//! the same stream through sequential d-choice, measures what the
//! remaining rounds cost.
//!
//! Deletes and lookups apply at batch barriers against pre-batch state:
//! lookups first (they observe the placements the batch started with),
//! then deletes in ascending key order (LIFO within a key's stack).
//! A delete therefore never sees an insert from its own batch — a
//! documented semantic difference from sequential ingestion.
//!
//! **Determinism contract.** The final [`Allocation`](ba_core::Allocation)
//! — and the engine's [`BatchSummary`] — is a pure
//! function of *(batch contents as a multiset, seed)*: independent of op
//! order within the batch, worker mode, and even shard count (the
//! global bin vector is invariant; only its partitioning into shards
//! changes). The rounds salt derives from
//! `SeedSequence::new(seed).child(ROUNDS_SALT_CHILD)` with no shard
//! index mixed in, tie hashes are pure in `(key, salt, duplicate
//! index)`, and accepting a proposal consumes no shard RNG. This is a
//! strictly stronger contract than the pipelined path's bit-identity to
//! sequential serving, which still depends on stream order.
//!
//! **Limitations.** Rounds mode keeps its own global key index; the
//! per-shard key indexes ([`Shard::bins_of`],
//! `live_key_ids`) stay empty, so cluster `Drain` rebalancing could not
//! move its keys — [`ClusterConfig::validate`](crate::ClusterConfig::validate)
//! rejects rounds partition engines. `ChoiceMode` and `TieBreak` are
//! ignored: choices are always keyed off the rounds salt and ties always
//! break by key hash.

use crate::engine::route;
use crate::index::KeyIndex;
use crate::op::{BatchSummary, Op};
use crate::shard::Shard;
use ba_hash::ChoiceScheme;
use ba_rng::{SeedSequence, SplitMix64};

/// Child index reserved for deriving the engine-wide rounds salt.
/// Deliberately *not* a function of any shard id: the salt (and with it
/// every probe vector) must be identical across shard counts.
pub(crate) const ROUNDS_SALT_CHILD: u64 = 0x526E_6453; // "RndS"

/// What the round resolver did with a batch stream so far: drained via
/// [`Engine::take_round_report`](crate::Engine::take_round_report).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundReport {
    /// Batches resolved (including insert-free ones).
    pub batches: u64,
    /// Balls placed through the round resolver.
    pub balls: u64,
    /// Total synchronized rounds across all batches.
    pub rounds: u64,
    /// The largest round count any single batch needed.
    pub max_rounds_per_batch: u64,
    /// Re-proposals per round index, summed over batches:
    /// `reproposals[r]` counts the balls still pending after round
    /// `r + 1` of their batch. Its length is the longest batch's round
    /// count; its sum is the number of proposals that lost.
    pub reproposals: Vec<u64>,
    /// The maximum bin load observed after any resolved batch.
    pub max_load: u32,
}

/// Collision tie-break hash: pure in `(key, salt, instance)`, where
/// `instance` distinguishes duplicate inserts of the same key within a
/// batch so they do not tie identically forever.
pub(crate) fn tie_hash(key: u64, salt: u64, instance: u64) -> u64 {
    SplitMix64::mix(SplitMix64::mix(key ^ salt).wrapping_add(instance))
}

/// The number of rounds from round `round` on that would place nothing,
/// with `loads` frozen, `threshold` the one the last round ran at, and
/// `zero_streak` (1 ≤ `zero_streak` ≤ d) the empty rounds up to and
/// including that one.
///
/// Round `round + r` offers probe `(round + r) % d` against threshold
/// `threshold + (zero_streak + r) / d`. A pending ball's probe `j` on a
/// bin of load `ℓ` first lands at the smallest such `r ≡ j − round
/// (mod d)` with `ℓ` below that threshold; the answer is the minimum of
/// that over every pending ball and probe. Both mods reduce to one
/// conditional add or subtract, since each operand sum lies below `2d`.
fn quiet_rounds(
    pending: &[u32],
    probes: &[u64],
    d: usize,
    loads: &[u32],
    threshold: u32,
    zero_streak: usize,
    round: usize,
) -> usize {
    let now = round % d;
    let mut quiet = usize::MAX;
    for &ball in pending {
        let row = &probes[ball as usize * d..][..d];
        for (j, &bin) in row.iter().enumerate() {
            // Rounds until probe j is offered again: (j − round) mod d.
            let first = if j >= now { j - now } else { j + d - now };
            let load = loads[bin as usize];
            let r = if load < threshold {
                first
            } else {
                // The first r ≡ first (mod d) at which the threshold
                // has risen past `load`.
                let phase = first + zero_streak;
                let phase = if phase >= d { phase - d } else { phase };
                (load + 1 - threshold) as usize * d - zero_streak + phase
            };
            quiet = quiet.min(r);
        }
    }
    quiet
}

/// The engine's rounds-mode companion state: the global choice scheme,
/// the shard-count-independent salt, the global key index, and the
/// accumulated [`RoundReport`]. Owned by the engine only under
/// [`IngestMode::Rounds`](crate::IngestMode::Rounds).
#[derive(Debug)]
pub(crate) struct RoundsState<S> {
    /// One scheme over the *global* bin space (`shards × bins_per_shard`
    /// bins), so probe vectors never depend on the shard layout.
    scheme: S,
    /// The engine-wide rounds salt (see [`ROUNDS_SALT_CHILD`]).
    salt: u64,
    /// Bins per shard: global bin `b` lives in shard
    /// `b / bins_per_shard` at local bin `b % bins_per_shard`.
    bins_per_shard: u64,
    /// key -> stack of *global* bins holding that key's balls (LIFO).
    index: KeyIndex,
    /// Everything resolved since the last [`RoundsState::take_report`].
    report: RoundReport,
}

impl<S: ChoiceScheme> RoundsState<S> {
    /// Builds the rounds state for an engine of `shards × bins_per_shard`
    /// global bins.
    ///
    /// # Panics
    ///
    /// Panics if `scheme` does not span the global bin space — a factory
    /// that ignored the synthetic global config it was handed.
    pub(crate) fn new(scheme: S, seed: u64, shards: usize, bins_per_shard: u64) -> Self {
        assert_eq!(
            scheme.n(),
            shards as u64 * bins_per_shard,
            "rounds scheme must span the global bin space"
        );
        let salt = SeedSequence::new(seed)
            .child(ROUNDS_SALT_CHILD)
            .derive_u64();
        Self {
            scheme,
            salt,
            bins_per_shard,
            // Salt-seeded like the shard indexes: deterministic probe
            // order, sorted enumeration on every observable surface.
            index: KeyIndex::with_seed(salt),
            report: RoundReport::default(),
        }
    }

    /// Drains the report accumulated since the previous call.
    pub(crate) fn take_report(&mut self) -> RoundReport {
        std::mem::take(&mut self.report)
    }

    /// Applies one batch to the engine's shards (every slot must hold
    /// its shard): lookups observe pre-batch state, deletes apply in
    /// ascending key order against pre-batch placements, then the
    /// batch's inserts resolve round by round over the global bin space.
    pub(crate) fn apply_batch(
        &mut self,
        slots: &mut [Option<Shard<S>>],
        ops: &[Op],
    ) -> BatchSummary {
        let mut shards: Vec<&mut Shard<S>> = slots
            .iter_mut()
            .map(|slot| slot.as_mut().expect("shard present between batches"))
            .collect();
        let shard_count = shards.len();
        let bins_per_shard = self.bins_per_shard;
        let mut summary = BatchSummary::default();

        // Barrier 1: lookups, against the placements the batch started
        // with (deletes and inserts are only collected here). Each lookup
        // reads the global index independently, so the recorded depths
        // form a multiset pure in the batch's lookup keys. Observations
        // attribute to the key's routed shard, as in the other modes.
        let (mut deletes, mut keys) = (Vec::new(), Vec::new());
        for &op in ops {
            match op {
                Op::Lookup(key) => {
                    let depth = self.index.depth(key) as u32;
                    shards[route(key, shard_count)].rounds_lookup(depth);
                    summary.lookups += 1;
                    summary.hits += u64::from(depth > 0);
                }
                Op::Delete(key) => deletes.push(key),
                Op::Insert(key) => keys.push(key),
            }
        }

        // Barrier 2: deletes, against pre-batch placements, resolved in
        // ascending key order (LIFO within a key's stack) so the
        // outcome is pure in the batch's delete multiset. Inserts from
        // this same batch are not yet placed and thus not deletable — a
        // documented semantic difference from sequential ingestion.
        deletes.sort_unstable();
        for key in deletes {
            match self.index.pop(key) {
                Some(global) => {
                    shards[(global / bins_per_shard) as usize]
                        .rounds_delete(global % bins_per_shard);
                    summary.deletes += 1;
                }
                None => {
                    shards[route(key, shard_count)].rounds_missed_delete();
                    summary.missed_deletes += 1;
                }
            }
        }

        // The batch's balls, in canonical (key, duplicate-index) order:
        // every later step is indexed by position in this list, so the
        // whole resolution is pure in the insert multiset.
        keys.sort_unstable();
        let balls = keys.len();
        self.report.batches += 1;
        if balls == 0 {
            return summary;
        }
        let d = self.scheme.d();

        // Propose prep: each ball's d global probes and its tie hash,
        // derived once. `instance` numbers duplicate inserts of a key so
        // their ties differ. One batched-kernel dispatch fills the whole
        // probe matrix (row i = ball i's d global probes), bit-identical
        // to per-ball choices_for by contract.
        let mut probes = vec![0u64; balls * d];
        self.scheme.choices_for_batch(&keys, self.salt, &mut probes);
        let mut instance = 0u64;
        let ties: Vec<u64> = (0..balls)
            .map(|i| {
                instance = if i > 0 && keys[i] == keys[i - 1] {
                    instance + 1
                } else {
                    0
                };
                tie_hash(keys[i], self.salt, instance)
            })
            .collect();

        // The round loop. The threshold starts one above the emptiest
        // bin and rises by one whenever d consecutive rounds place
        // nothing — by then every pending ball has offered all d of its
        // probes at the current threshold, so raising it is the only
        // way forward (and guarantees termination).
        //
        // Every ball starts at probe 0 and every loser advances, so in
        // round `r` each pending ball offers probe `r % d`. A bin's load
        // changes only when that bin accepts, so walking the pending
        // balls in (tie, ball) order hands every bin its offers in
        // (tie, ball) order, and each shard its inserts in that order
        // per bin. Shard state does not depend on how bins interleave.
        let mut loads: Vec<u32> = shards
            .iter()
            .flat_map(|s| s.allocation().loads().iter().copied())
            .collect();
        let mut threshold = *loads.iter().min().expect("at least one bin") + 1;
        let mut pending: Vec<u32> = (0..balls as u32).collect();
        pending.sort_unstable_by_key(|&ball| (ties[ball as usize], ball));
        let mut placed = vec![0u64; balls];
        let mut zero_streak = 0usize;
        let mut round = 0usize;
        loop {
            let probe = round % d;
            let offered = pending.len();
            pending.retain(|&ball| {
                let bin = probes[ball as usize * d + probe];
                let load = &mut loads[bin as usize];
                if *load >= threshold {
                    return true;
                }
                *load += 1;
                shards[(bin / bins_per_shard) as usize]
                    .rounds_insert(bin % bins_per_shard, probe as u8);
                placed[ball as usize] = bin;
                false
            });
            round += 1;
            if pending.is_empty() {
                break;
            }
            // After an empty round, the rounds that would also place
            // nothing are counted, not walked.
            let empty = pending.len() == offered;
            zero_streak = if empty { zero_streak + 1 } else { 0 };
            let skip = if empty {
                quiet_rounds(&pending, &probes, d, &loads, threshold, zero_streak, round)
            } else {
                0
            };
            // The walked round and every skipped one leave all pending
            // balls to re-propose.
            let end = round + skip;
            if self.report.reproposals.len() < end {
                self.report.reproposals.resize(end, 0);
            }
            for losers in &mut self.report.reproposals[round - 1..end] {
                *losers += pending.len() as u64;
            }
            round = end;
            zero_streak += skip;
            if zero_streak >= d {
                threshold += (zero_streak / d) as u32;
                zero_streak %= d;
            }
        }

        // Commit placements to the global index in canonical ball
        // order, so a key's LIFO stack is also pure in the batch set.
        for (&key, &bin) in keys.iter().zip(&placed) {
            self.index.push(key, bin);
        }
        summary.inserts += balls as u64;
        self.report.balls += balls as u64;
        self.report.rounds += round as u64;
        self.report.max_rounds_per_batch = self.report.max_rounds_per_batch.max(round as u64);
        let max_load = shards
            .iter()
            .map(|s| s.allocation().max_load())
            .max()
            .unwrap_or(0);
        self.report.max_load = self.report.max_load.max(max_load);
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{engine, mixed_ops};
    use crate::{Engine, EngineConfig, WorkerMode};
    use ba_hash::{AnyScheme, DoubleHashing};
    use ba_stats::LoadHistogram;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn tie_hash_is_pure_and_instance_sensitive() {
        assert_eq!(tie_hash(7, 9, 0), tie_hash(7, 9, 0));
        assert_ne!(tie_hash(7, 9, 0), tie_hash(7, 9, 1));
        assert_ne!(tie_hash(7, 9, 0), tie_hash(8, 9, 0));
        assert_ne!(tie_hash(7, 9, 0), tie_hash(7, 10, 0));
    }

    #[test]
    fn salt_is_shard_count_independent() {
        let a = RoundsState::new(DoubleHashing::new(1024, 3), 42, 1, 1024);
        let b = RoundsState::new(DoubleHashing::new(1024, 3), 42, 8, 128);
        assert_eq!(a.salt, b.salt);
    }

    #[test]
    #[should_panic(expected = "global bin space")]
    fn mismatched_scheme_span_is_rejected() {
        RoundsState::new(DoubleHashing::new(512, 3), 42, 4, 256);
    }

    /// Concatenated per-shard bin loads in shard order — the global bin
    /// vector the rounds determinism contract is stated over.
    fn global_loads(engine: &Engine<AnyScheme>) -> Vec<u32> {
        engine
            .shards()
            .iter()
            .flat_map(|s| s.allocation().loads().to_vec())
            .collect()
    }

    fn rounds_engine(shards: usize, workers: WorkerMode) -> Engine<AnyScheme> {
        let bins = 1024 / shards as u64; // constant 1024 global bins
        let cfg = EngineConfig::new(shards, bins, 3)
            .seed(42)
            .workers(workers)
            .rounds();
        Engine::by_name("double", cfg).unwrap()
    }

    #[test]
    fn rounds_places_every_ball_and_reports() {
        let mut e = rounds_engine(4, WorkerMode::Sequential);
        let ops: Vec<Op> = (0..800u64).map(Op::Insert).collect();
        let summary = e.apply_batch(&ops);
        assert_eq!(summary.inserts, 800);
        assert_eq!(e.total_balls(), 800);
        let report = e.take_round_report().expect("rounds mode");
        assert_eq!(report.batches, 1);
        assert_eq!(report.balls, 800);
        assert!(report.rounds >= 1);
        assert_eq!(report.max_load, e.max_load());
        // 800 balls into 1024 bins with d = 3: the bulk process stays
        // in the same low-max-load regime as sequential d-choice.
        assert!(e.max_load() <= 4, "max load {}", e.max_load());
        // Drained: the next report covers only new batches.
        assert_eq!(e.take_round_report().unwrap(), RoundReport::default());
    }

    #[test]
    fn rounds_result_is_pure_in_the_batch_set() {
        // The tentpole contract at the unit level: permuting the ops
        // within a batch, changing worker mode, or shard count never
        // changes the global bin vector or summary.
        let mut ops = mixed_ops(6_000);
        let mut base = rounds_engine(1, WorkerMode::Sequential);
        let expected = base.apply_batch(&ops);
        let expected_loads = global_loads(&base);
        ops.reverse();
        for (shards, workers) in [
            (1, WorkerMode::Sequential),
            (4, WorkerMode::Persistent),
            (8, WorkerMode::Persistent),
        ] {
            let mut e = rounds_engine(shards, workers);
            let got = e.apply_batch(&ops);
            assert_eq!(got, expected, "{shards} shards {workers:?}");
            assert_eq!(
                global_loads(&e),
                expected_loads,
                "{shards} shards {workers:?}"
            );
        }
    }

    #[test]
    fn rounds_barriers_apply_deletes_and_lookups_against_pre_batch_state() {
        let mut e = rounds_engine(2, WorkerMode::Sequential);
        e.apply_batch(&[Op::Insert(7), Op::Insert(7), Op::Insert(9)]);
        // Lookups see pre-batch placements; the same-batch delete of key
        // 9 cannot see the same-batch insert of key 11.
        let summary = e.apply_batch(&[
            Op::Delete(7),
            Op::Lookup(7),
            Op::Insert(11),
            Op::Delete(11),
            Op::Delete(9),
            Op::Lookup(404),
        ]);
        assert_eq!(summary.inserts, 1);
        assert_eq!(summary.deletes, 2);
        assert_eq!(summary.missed_deletes, 1, "same-batch insert not deletable");
        assert_eq!(summary.lookups, 2);
        assert_eq!(summary.hits, 1);
        // Balls: 3 placed, 2 deleted, 1 placed = 2 live.
        assert_eq!(e.total_balls(), 2);
        // The delete of key 7 freed the newest of its two balls; the
        // next batch can still delete the older one.
        let s2 = e.apply_batch(&[Op::Delete(7), Op::Delete(7)]);
        assert_eq!((s2.deletes, s2.missed_deletes), (1, 1));
    }

    #[test]
    fn rounds_batches_are_order_sensitive_only_across_barriers() {
        // Two engines serve the same two batches; within each batch the
        // op order differs. Final state must match exactly.
        let batch1: Vec<Op> = (0..500u64).map(Op::Insert).collect();
        let mut batch2: Vec<Op> = (0..500u64)
            .map(|i| {
                if i % 3 == 0 {
                    Op::Delete(i)
                } else {
                    Op::Insert(i)
                }
            })
            .collect();
        let mut a = rounds_engine(4, WorkerMode::Persistent);
        a.apply_batch(&batch1);
        a.apply_batch(&batch2);
        let mut b = rounds_engine(4, WorkerMode::Persistent);
        let mut shuffled1 = batch1.clone();
        shuffled1.rotate_left(123);
        b.apply_batch(&shuffled1);
        batch2.reverse();
        b.apply_batch(&batch2);
        assert_eq!(global_loads(&a), global_loads(&b));
        assert!(a.stats().matches(&b.stats()), "stats must match too");
    }

    #[test]
    fn rounds_threshold_escalates_past_full_tables() {
        // 64 bins, 256 balls: mean load 4, so the threshold must rise
        // repeatedly and every ball must still land.
        let cfg = EngineConfig::new(2, 32, 3).seed(7).rounds();
        let mut e = Engine::by_name("double", cfg).unwrap();
        let ops: Vec<Op> = (0..256u64).map(Op::Insert).collect();
        assert_eq!(e.apply_batch(&ops).inserts, 256);
        assert_eq!(e.total_balls(), 256);
        let report = e.take_round_report().unwrap();
        assert!(report.max_load >= 4, "max load {}", report.max_load);
        assert_eq!(report.max_rounds_per_batch, report.rounds);
    }

    #[test]
    fn take_round_report_is_none_outside_rounds_mode() {
        let mut e = engine(2, WorkerMode::Sequential);
        assert!(e.take_round_report().is_none());
    }

    /// The rounds process in plain form, the reference the resolver is
    /// differenced against: a flat global load vector, a `HashMap` key
    /// index, per-ball `choices_for`, and every round proposing every
    /// pending ball and sorting the proposals by `(bin, tie, ball)`.
    struct Model {
        scheme: AnyScheme,
        salt: u64,
        loads: Vec<u32>,
        index: HashMap<u64, Vec<u64>>,
        report: RoundReport,
        insert_probe: LoadHistogram,
        insert_load: LoadHistogram,
    }

    impl Model {
        fn new(name: &str, global_bins: u64, d: usize, seed: u64) -> Self {
            Self {
                scheme: AnyScheme::by_name(name, global_bins, d).expect("known scheme"),
                salt: SeedSequence::new(seed)
                    .child(ROUNDS_SALT_CHILD)
                    .derive_u64(),
                loads: vec![0; global_bins as usize],
                index: HashMap::new(),
                report: RoundReport::default(),
                insert_probe: LoadHistogram::default(),
                insert_load: LoadHistogram::default(),
            }
        }

        fn apply(&mut self, ops: &[Op]) -> BatchSummary {
            let mut summary = BatchSummary::default();
            let (mut deletes, mut keys) = (Vec::new(), Vec::new());
            for &op in ops {
                match op {
                    Op::Lookup(key) => {
                        let depth = self.index.get(&key).map_or(0, Vec::len);
                        summary.lookups += 1;
                        summary.hits += u64::from(depth > 0);
                    }
                    Op::Delete(key) => deletes.push(key),
                    Op::Insert(key) => keys.push(key),
                }
            }
            deletes.sort_unstable();
            for key in deletes {
                match self.index.get_mut(&key).and_then(Vec::pop) {
                    Some(bin) => {
                        self.loads[bin as usize] -= 1;
                        summary.deletes += 1;
                    }
                    None => summary.missed_deletes += 1,
                }
            }
            keys.sort_unstable();
            self.report.batches += 1;
            if keys.is_empty() {
                return summary;
            }
            let d = self.scheme.d();
            let probes: Vec<Vec<u64>> = keys
                .iter()
                .map(|&key| {
                    let mut row = vec![0; d];
                    self.scheme.choices_for(key, self.salt, &mut row);
                    row
                })
                .collect();
            // Keys are sorted: a ball's instance is its offset from the
            // first ball of its key.
            let ties: Vec<u64> = (0..keys.len())
                .map(|i| {
                    let first = keys.partition_point(|&k| k < keys[i]);
                    tie_hash(keys[i], self.salt, (i - first) as u64)
                })
                .collect();

            let mut threshold = *self.loads.iter().min().expect("bins") + 1;
            let mut pending: Vec<usize> = (0..keys.len()).collect();
            let mut next_probe = vec![0usize; keys.len()];
            let mut placed = vec![None; keys.len()];
            let (mut rounds, mut zero_streak) = (0usize, 0);
            while !pending.is_empty() {
                let mut proposals: Vec<(u64, u64, usize)> = pending
                    .iter()
                    .map(|&b| (probes[b][next_probe[b]], ties[b], b))
                    .collect();
                proposals.sort_unstable();
                let mut placed_now = 0;
                for (bin, _, b) in proposals {
                    let load = &mut self.loads[bin as usize];
                    if *load < threshold {
                        *load += 1;
                        self.insert_load.record(*load);
                        self.insert_probe.record(next_probe[b] as u32);
                        placed[b] = Some(bin);
                        placed_now += 1;
                    }
                }
                pending.retain(|&b| placed[b].is_none());
                for &b in &pending {
                    next_probe[b] = (next_probe[b] + 1) % d;
                }
                if !pending.is_empty() {
                    if self.report.reproposals.len() <= rounds {
                        self.report.reproposals.resize(rounds + 1, 0);
                    }
                    self.report.reproposals[rounds] += pending.len() as u64;
                }
                rounds += 1;
                zero_streak = if placed_now == 0 { zero_streak + 1 } else { 0 };
                if zero_streak == d {
                    threshold += 1;
                    zero_streak = 0;
                }
            }
            for (&key, bin) in keys.iter().zip(placed) {
                self.index
                    .entry(key)
                    .or_default()
                    .push(bin.expect("placed"));
            }
            summary.inserts += keys.len() as u64;
            self.report.balls += keys.len() as u64;
            self.report.rounds += rounds as u64;
            self.report.max_rounds_per_batch = self.report.max_rounds_per_batch.max(rounds as u64);
            let max_load = *self.loads.iter().max().expect("bins");
            self.report.max_load = self.report.max_load.max(max_load);
            summary
        }
    }

    /// Serves `batches` through a rounds engine and the [`Model`] and
    /// asserts they agree on every summary, the full report, the global
    /// loads and the insert observations.
    fn assert_matches_model(
        name: &str,
        d: usize,
        global_bins: u64,
        shards: usize,
        seed: u64,
        batches: &[Vec<Op>],
    ) -> Result<(), String> {
        let cfg = EngineConfig::new(shards, global_bins / shards as u64, d)
            .seed(seed)
            .rounds();
        let mut engine = Engine::by_name(name, cfg).expect("known scheme");
        let mut model = Model::new(name, global_bins, d, seed);
        let context = format!("{name} d={d} bins={global_bins} shards={shards} seed={seed}");
        for (i, batch) in batches.iter().enumerate() {
            let (got, want) = (engine.apply_batch(batch), model.apply(batch));
            if got != want {
                return Err(format!("{context}: batch {i} summary {got:?} != {want:?}"));
            }
        }
        let report = engine.take_round_report().expect("rounds mode");
        if report != model.report {
            return Err(format!(
                "{context}: report {report:?} != {:?}",
                model.report
            ));
        }
        if global_loads(&engine) != model.loads {
            return Err(format!("{context}: global loads differ"));
        }
        let observed = engine.stats().merged_observations();
        if observed.insert_probe != model.insert_probe || observed.insert_load != model.insert_load
        {
            return Err(format!("{context}: insert observations differ"));
        }
        Ok(())
    }

    proptest! {
        /// Few bins and few keys, so the threshold climbs far and the
        /// resolver spends most of a batch's rounds placing nothing.
        #[test]
        fn resolver_matches_the_reference_model(
            global_bins in prop_oneof![Just(8u64), Just(16u64), Just(64u64)],
            shards in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
            (name, d) in prop_oneof![
                Just(("double", 2usize)),
                Just(("double", 3usize)),
                Just(("double", 4usize)),
                Just(("one", 1usize)),
            ],
            seed in any::<u64>(),
            batches in proptest::collection::vec(
                proptest::collection::vec((1u64..=8, 0u8..4), 0..513),
                1..4,
            ),
        ) {
            // Every shard's own scheme must fit its bins.
            prop_assume!(d as u64 <= global_bins / shards as u64);
            let batches: Vec<Vec<Op>> = batches
                .into_iter()
                .map(|batch| {
                    batch
                        .into_iter()
                        .map(|(key, kind)| match kind {
                            0 | 1 => Op::Insert(key),
                            2 => Op::Delete(key),
                            _ => Op::Lookup(key),
                        })
                        .collect()
                })
                .collect();
            assert_matches_model(name, d, global_bins, shards, seed, &batches)
                .map_err(TestCaseError::Fail)?;
        }
    }

    #[test]
    fn one_hot_key_into_eight_bins_matches_the_reference_model() {
        // 256 balls of one key land on its d bins, in two batches. The
        // second batch's threshold restarts one above the untouched
        // bins while the key's bins sit ~128 / d higher, so its first
        // empty round is followed by a skip of ~128 rounds.
        let batch = vec![Op::Insert(5); 128];
        for (name, d) in [("one", 1), ("double", 2), ("double", 3), ("double", 4)] {
            assert_matches_model(name, d, 8, 2, 42, &[batch.clone(), batch.clone()]).unwrap();
        }
    }
}
