//! Round-based bulk-parallel allocation (`IngestMode::Rounds`).
//!
//! The paper's d-choice placement is inherently sequential per ball:
//! every insert observes the loads left by the previous one. The MPC
//! sparsification line (Ghaffari–Uitto; Czumaj–Davies–Parter) shows the
//! same load guarantees survive a *bulk* formulation, which this module
//! adopts as a genuinely different ingestion semantics: a whole batch of
//! inserts resolves in O(log log n)-style synchronized rounds —
//!
//! 1. **Propose** — every pending ball offers its next probe from a
//!    keyed choice vector derived from `(key, rounds salt)` over the
//!    *global* bin space (`shards × bins_per_shard` bins), derived for
//!    the whole batch in one batched-kernel call.
//! 2. **Resolve** — each bin accepts proposals while its load sits
//!    below the round's threshold, taking them in salted-key-hash tie
//!    order (never arrival order). Bins partition cleanly across the
//!    shard workers, so resolution is embarrassingly parallel too.
//! 3. **Re-propose** — losers advance to their next probe (wrapping).
//!    After `d` consecutive rounds with no placement every pending ball
//!    has offered all `d` probes at the current threshold, so the
//!    threshold rises by one — which guarantees termination.
//!
//! Deletes and lookups apply at batch barriers against pre-batch state:
//! lookups first (they observe the placements the batch started with),
//! then deletes in ascending key order (LIFO within a key's stack).
//! A delete therefore never sees an insert from its own batch — a
//! documented semantic difference from sequential ingestion.
//!
//! **Determinism contract.** The final [`Allocation`](ba_core::Allocation)
//! — and the engine's [`BatchSummary`](crate::BatchSummary) — is a pure
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
//! per-shard key indexes ([`Shard::bins_of`](crate::Shard::bins_of),
//! `live_key_ids`) stay empty, so cluster `Drain` rebalancing and
//! placement maps see no live keys under this mode. `ChoiceMode` and
//! `TieBreak` are ignored: choices are always keyed off the rounds salt
//! and ties always break by key hash.

use crate::index::KeyIndex;
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
    /// `r + 1` of their batch. A fast-decaying head is the O(log log n)
    /// signature.
    pub reproposals: Vec<u64>,
    /// The maximum bin load observed after any resolved batch.
    pub max_load: u32,
}

/// One pending ball's offer to one bin, addressed shard-locally.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Proposal {
    /// Index of the ball within the batch's sorted insert list.
    pub(crate) ball: u32,
    /// The proposed bin, local to the shard owning it.
    pub(crate) bin: u64,
    /// Salted key hash breaking same-bin collisions — never arrival order.
    pub(crate) tie: u64,
    /// Which probe of the ball's choice vector this is (0-based).
    pub(crate) probe: u8,
}

/// An accepted proposal a shard reports back after resolving a round.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Winner {
    /// Index of the placed ball within the batch's sorted insert list.
    pub(crate) ball: u32,
    /// The bin that accepted it, local to the reporting shard.
    pub(crate) bin: u64,
}

/// Collision tie-break hash: pure in `(key, salt, instance)`, where
/// `instance` distinguishes duplicate inserts of the same key within a
/// batch so they do not tie identically forever.
pub(crate) fn tie_hash(key: u64, salt: u64, instance: u64) -> u64 {
    SplitMix64::mix(SplitMix64::mix(key ^ salt).wrapping_add(instance))
}

/// The engine's rounds-mode companion state: the global choice scheme,
/// the shard-count-independent salt, the global key index, and the
/// accumulated [`RoundReport`]. Owned by the engine only under
/// [`IngestMode::Rounds`](crate::IngestMode::Rounds).
#[derive(Debug)]
pub(crate) struct RoundsState<S> {
    /// One scheme over the *global* bin space (`shards × bins_per_shard`
    /// bins), so probe vectors never depend on the shard layout.
    pub(crate) scheme: S,
    /// The engine-wide rounds salt (see [`ROUNDS_SALT_CHILD`]).
    pub(crate) salt: u64,
    /// key -> stack of *global* bins holding that key's balls (LIFO).
    pub(crate) index: KeyIndex,
    /// Everything resolved so far.
    pub(crate) report: RoundReport,
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
            // Salt-seeded like the shard indexes: deterministic probe
            // order, sorted enumeration on every observable surface.
            index: KeyIndex::with_seed(salt),
            report: RoundReport::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_hash::DoubleHashing;

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
}
