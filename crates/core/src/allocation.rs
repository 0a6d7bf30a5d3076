//! The bins state and the greedy placement rule.

use ba_hash::{ChoiceScheme, ChoiceSource};
use ba_rng::Rng64;
use ba_stats::LoadHistogram;

/// How to resolve ties among least-loaded choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TieBreak {
    /// Uniformly at random among the tied choices (the paper's standard
    /// process, Theorem 8: "ties broken randomly").
    Random,
    /// The earliest-offered tied choice wins. Under a
    /// [`ba_hash::Partitioned`] scheme, whose k-th choice lies in the k-th
    /// subtable, this is exactly Vöcking's "ties broken to the left".
    FirstOffered,
    /// The tied choice with the smallest bin index wins (deterministic and
    /// layout-independent; used in ablations).
    LowestIndex,
}

/// The mutable state of a balls-and-bins process: one load counter per bin.
///
/// Alongside the per-bin loads the allocation keeps load-level occupancy
/// counters (`occupancy[l]` = bins currently at load `l`), maintained
/// incrementally by [`Allocation::place`]/[`Allocation::remove`]. They
/// make [`Allocation::max_load`] O(1) — a place moves one bin up a
/// level, a remove moves one bin down, so the maximum can only step by
/// one in either direction — and they are the load histogram itself
/// ([`Allocation::histogram`]).
#[derive(Debug, Clone)]
pub struct Allocation {
    loads: Vec<u32>,
    balls: u64,
    /// `occupancy[l]` = number of bins whose load is exactly `l`, for
    /// `l <= max`. Invariant: sums to `n`.
    occupancy: Vec<u64>,
    /// The current maximum load; `occupancy[max] > 0` unless empty.
    max: u32,
}

impl Allocation {
    /// Creates an empty allocation over `n` bins.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "need at least one bin");
        Self {
            loads: vec![0u32; n as usize],
            balls: 0,
            occupancy: vec![n],
            max: 0,
        }
    }

    /// Moves `chosen` one load level up, keeping the occupancy counters
    /// and tracked maximum in sync. The single mutation path for placing.
    #[inline]
    fn bump(&mut self, chosen: u64) {
        let level = self.loads[chosen as usize];
        self.loads[chosen as usize] = level + 1;
        self.occupancy[level as usize] -= 1;
        if self.occupancy.len() as u32 == level + 1 {
            self.occupancy.push(0);
        }
        self.occupancy[level as usize + 1] += 1;
        if level + 1 > self.max {
            self.max = level + 1;
        }
        self.balls += 1;
    }

    /// The number of bins.
    pub fn n(&self) -> u64 {
        self.loads.len() as u64
    }

    /// The number of balls placed so far.
    pub fn balls(&self) -> u64 {
        self.balls
    }

    /// The load of a bin.
    ///
    /// # Panics
    ///
    /// Panics if `bin >= n`.
    pub fn load(&self, bin: u64) -> u32 {
        self.loads[bin as usize]
    }

    /// All bin loads, indexed by bin.
    pub fn loads(&self) -> &[u32] {
        &self.loads
    }

    /// The current maximum load. O(1): read from the incrementally
    /// maintained occupancy counters, never a scan over the bins.
    pub fn max_load(&self) -> u32 {
        self.max
    }

    /// The maximum load recomputed by a full scan over the loads —
    /// the reference the O(1) tracker is checked against in tests and
    /// CI. Production code should call [`Allocation::max_load`].
    pub fn scanned_max_load(&self) -> u32 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// Places one ball into the least loaded of `choices`, resolving ties
    /// per `tie`. Returns the chosen bin.
    ///
    /// Duplicate choices are allowed (they simply cannot win a tie against
    /// themselves differently); each slot still refers to the same counter.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty or contains an out-of-range bin.
    #[inline]
    pub fn place<R: Rng64 + ?Sized>(&mut self, choices: &[u64], tie: TieBreak, rng: &mut R) -> u64 {
        self.place_indexed(choices, tie, rng).0
    }

    /// [`Allocation::place`] that also reports *which probe won*: returns
    /// `(bin, probe_index)` where `probe_index` is the position of the
    /// first slot in `choices` holding the chosen bin — exactly what
    /// `choices.iter().position(|&c| c == bin)` would recover after the
    /// fact, without the rescan.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty or contains an out-of-range bin.
    /// The RNG is taken generically (`R: Rng64 + ?Sized`) rather than as
    /// `&mut dyn Rng64`, so a caller holding a concrete RNG gets the
    /// tie-break draws inlined — at high load nearly every probe ties,
    /// and a virtual call per tied probe dominates the placement cost.
    /// `&mut dyn Rng64` callers still compile (`R = dyn Rng64`).
    #[inline]
    pub fn place_indexed<R: Rng64 + ?Sized>(
        &mut self,
        choices: &[u64],
        tie: TieBreak,
        rng: &mut R,
    ) -> (u64, u32) {
        assert!(!choices.is_empty(), "a ball needs at least one choice");
        let (chosen, probe) = match tie {
            TieBreak::FirstOffered => {
                let mut best = choices[0];
                let mut best_load = self.loads[best as usize];
                let mut best_idx = 0u32;
                for (i, &c) in choices.iter().enumerate().skip(1) {
                    let l = self.loads[c as usize];
                    if l < best_load {
                        best = c;
                        best_load = l;
                        best_idx = i as u32;
                    }
                }
                // A strict improvement can never fire at a duplicate's
                // later slot (the earlier slot saw the same counter), so
                // best_idx is the bin's first occurrence.
                (best, best_idx)
            }
            TieBreak::LowestIndex => {
                let mut best = choices[0];
                let mut best_load = self.loads[best as usize];
                let mut best_idx = 0u32;
                for (i, &c) in choices.iter().enumerate().skip(1) {
                    let l = self.loads[c as usize];
                    if l < best_load || (l == best_load && c < best) {
                        best = c;
                        best_load = l;
                        best_idx = i as u32;
                    }
                }
                // Ties only replace with a strictly smaller bin, so a
                // duplicate of the incumbent can never move best_idx off
                // the first occurrence.
                (best, best_idx)
            }
            TieBreak::Random => {
                // Reservoir-style single pass: the i-th tied candidate
                // replaces the incumbent with probability 1/i.
                let mut best = choices[0];
                let mut best_load = self.loads[best as usize];
                let mut best_idx = 0u32;
                let mut ties = 1u64;
                for (i, &c) in choices.iter().enumerate().skip(1) {
                    let l = self.loads[c as usize];
                    if l < best_load {
                        best = c;
                        best_load = l;
                        best_idx = i as u32;
                        ties = 1;
                    } else if l == best_load {
                        ties += 1;
                        if rng.gen_range(ties) == 0 {
                            best = c;
                            best_idx = i as u32;
                        }
                    }
                }
                // The reservoir may land on a later duplicate of a bin
                // that tied (and lost) earlier; report the value's first
                // occurrence, matching the historical position() recovery.
                let probe = choices[..best_idx as usize]
                    .iter()
                    .position(|&c| c == best)
                    .map_or(best_idx, |first| first as u32);
                (best, probe)
            }
        };
        self.bump(chosen);
        (chosen, probe)
    }

    /// The monomorphized [`TieBreak::FirstOffered`] fast path: identical
    /// placement and probe index to
    /// `place_indexed(choices, TieBreak::FirstOffered, rng)`, with no
    /// `dyn Rng64` argument at all — first-offered ties consume no
    /// randomness, so keyed traffic under this tie-break never touches
    /// the RNG's vtable.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty or contains an out-of-range bin.
    #[inline]
    pub fn place_first_offered(&mut self, choices: &[u64]) -> (u64, u32) {
        assert!(!choices.is_empty(), "a ball needs at least one choice");
        let mut best = choices[0];
        let mut best_load = self.loads[best as usize];
        let mut best_idx = 0u32;
        for (i, &c) in choices.iter().enumerate().skip(1) {
            let l = self.loads[c as usize];
            if l < best_load {
                best = c;
                best_load = l;
                best_idx = i as u32;
            }
        }
        self.bump(best);
        (best, best_idx)
    }

    /// Generates the choices for the ball identified by `key` from
    /// `source` into `buf`, then places it — [`Allocation::place`] made
    /// generic over where the choice vector comes from.
    ///
    /// In [`ChoiceSource::Stream`] mode `key` is ignored and `rng` supplies
    /// the choices (plus any random tie-breaks); in
    /// [`ChoiceSource::Keyed`] mode the choices are a pure function of
    /// `(key, salt)` and `rng` is consulted only for tie-breaks. Returns
    /// the chosen bin.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != scheme.d()` or the scheme's bins exceed
    /// this allocation's.
    #[inline]
    pub fn place_from<S: ChoiceScheme + ?Sized>(
        &mut self,
        scheme: &S,
        source: ChoiceSource,
        key: u64,
        tie: TieBreak,
        rng: &mut dyn Rng64,
        buf: &mut [u64],
    ) -> u64 {
        source.fill(scheme, key, rng, buf);
        self.place(buf, tie, rng)
    }

    /// Removes one ball from `bin` (for deletion workloads).
    ///
    /// # Panics
    ///
    /// Panics if the bin is empty or out of range.
    pub fn remove(&mut self, bin: u64) {
        let level = self.loads[bin as usize];
        assert!(level > 0, "cannot remove from empty bin {bin}");
        self.loads[bin as usize] = level - 1;
        self.occupancy[level as usize] -= 1;
        self.occupancy[level as usize - 1] += 1;
        // Only one bin moved down a level, so the maximum can drop by at
        // most one — and the moved bin itself now sits at max - 1.
        if level == self.max && self.occupancy[level as usize] == 0 {
            self.max -= 1;
        }
        self.balls -= 1;
    }

    /// The load histogram of the current state, copied from the occupancy
    /// counters in O(max load). Levels above the maximum, which removes
    /// leave at zero, are not copied, so the histogram equals
    /// `LoadHistogram::from_loads(self.loads())`.
    pub fn histogram(&self) -> LoadHistogram {
        LoadHistogram::from_counts(self.occupancy[..=self.max as usize].to_vec())
    }
}

/// Throws `m` balls into the scheme's `n` bins, placing each in the least
/// loaded of its choices.
pub fn run_process<S: ChoiceScheme + ?Sized, R: Rng64>(
    scheme: &S,
    m: u64,
    tie: TieBreak,
    rng: &mut R,
) -> Allocation {
    run_process_keys(scheme, ChoiceSource::Stream, 0..m, tie, rng)
}

/// Throws one ball per key in `keys` into the scheme's `n` bins, with
/// choice vectors produced by `source` — [`run_process`] made generic
/// over the choice source.
///
/// With [`ChoiceSource::Stream`] the keys only set the ball count and this
/// is exactly [`run_process`]; with [`ChoiceSource::Keyed`] each ball's
/// probe sequence is derived from its key, so the run models a hash table
/// rather than the paper's RNG-driven process, and `rng` is consumed only
/// by random tie-breaks.
pub fn run_process_keys<S, R, I>(
    scheme: &S,
    source: ChoiceSource,
    keys: I,
    tie: TieBreak,
    rng: &mut R,
) -> Allocation
where
    S: ChoiceScheme + ?Sized,
    R: Rng64,
    I: IntoIterator<Item = u64>,
{
    let mut alloc = Allocation::new(scheme.n());
    let mut choices = vec![0u64; scheme.d()];
    for key in keys {
        alloc.place_from(scheme, source, key, tie, rng, &mut choices);
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_hash::{DoubleHashing, FullyRandom, OneChoice, Replacement};
    use ba_rng::Xoshiro256StarStar;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn place_prefers_least_loaded() {
        let mut a = Allocation::new(4);
        a.place(&[0], TieBreak::Random, &mut rng(0)); // bin 0 -> load 1
        let chosen = a.place(&[0, 1], TieBreak::Random, &mut rng(1));
        assert_eq!(chosen, 1, "must pick the empty bin");
        assert_eq!(a.load(0), 1);
        assert_eq!(a.load(1), 1);
    }

    #[test]
    fn tie_break_first_offered() {
        let mut a = Allocation::new(4);
        let chosen = a.place(&[2, 1, 3], TieBreak::FirstOffered, &mut rng(0));
        assert_eq!(chosen, 2);
    }

    #[test]
    fn tie_break_lowest_index() {
        let mut a = Allocation::new(4);
        let chosen = a.place(&[2, 1, 3], TieBreak::LowestIndex, &mut rng(0));
        assert_eq!(chosen, 1);
    }

    #[test]
    fn tie_break_random_is_uniform() {
        // Place a ball with 3 equally empty choices many times; each choice
        // should win about a third of the time.
        let mut counts = [0u64; 3];
        let mut r = rng(42);
        for _ in 0..30_000 {
            let mut a = Allocation::new(3);
            let c = a.place(&[0, 1, 2], TieBreak::Random, &mut r);
            counts[c as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (c as f64 - 10_000.0).abs() < 500.0,
                "tie break biased: {counts:?}"
            );
        }
    }

    #[test]
    fn duplicate_choices_count_once() {
        let mut a = Allocation::new(2);
        let c = a.place(&[1, 1, 1], TieBreak::Random, &mut rng(0));
        assert_eq!(c, 1);
        assert_eq!(a.load(1), 1);
        assert_eq!(a.balls(), 1);
    }

    #[test]
    fn remove_reverses_place() {
        let mut a = Allocation::new(4);
        let c = a.place(&[3], TieBreak::Random, &mut rng(0));
        a.remove(c);
        assert_eq!(a.load(3), 0);
        assert_eq!(a.balls(), 0);
    }

    #[test]
    #[should_panic(expected = "empty bin")]
    fn remove_from_empty_panics() {
        let mut a = Allocation::new(4);
        a.remove(0);
    }

    #[test]
    #[should_panic(expected = "at least one choice")]
    fn place_requires_choices() {
        let mut a = Allocation::new(4);
        a.place(&[], TieBreak::Random, &mut rng(0));
    }

    #[test]
    fn run_process_conserves_balls() {
        let scheme = FullyRandom::new(128, 3, Replacement::Without);
        let a = run_process(&scheme, 500, TieBreak::Random, &mut rng(5));
        assert_eq!(a.balls(), 500);
        assert_eq!(a.histogram().sum(), 500);
        assert_eq!(a.histogram().total(), 128);
    }

    #[test]
    fn one_choice_worse_than_three_choices() {
        // The classical separation: with n balls/bins, one choice gives max
        // load ~ ln n / ln ln n, three choices gives ~ log log n. At n = 2^12
        // these are reliably different (≥ 5-6 vs ≤ 4).
        let n = 1u64 << 12;
        let mut r = rng(7);
        let one = run_process(&OneChoice::new(n), n, TieBreak::Random, &mut r);
        let three = run_process(
            &FullyRandom::new(n, 3, Replacement::Without),
            n,
            TieBreak::Random,
            &mut r,
        );
        assert!(
            one.max_load() > three.max_load(),
            "one-choice {} vs three-choice {}",
            one.max_load(),
            three.max_load()
        );
        assert!(
            three.max_load() <= 4,
            "3 choices at n=2^12: {}",
            three.max_load()
        );
    }

    #[test]
    fn double_hashing_also_achieves_low_max_load() {
        let n = 1u64 << 12;
        let mut r = rng(8);
        let a = run_process(&DoubleHashing::new(n, 3), n, TieBreak::Random, &mut r);
        assert!(
            a.max_load() <= 4,
            "double hashing max load {}",
            a.max_load()
        );
    }

    #[test]
    fn heavily_loaded_mean_load_matches() {
        // m = 16n balls: average load 16, max load close to 16 + O(log log n).
        let n = 1u64 << 10;
        let m = n * 16;
        let mut r = rng(9);
        let a = run_process(&DoubleHashing::new(n, 3), m, TieBreak::Random, &mut r);
        assert_eq!(a.balls(), m);
        let hist = a.histogram();
        assert_eq!(hist.sum(), m);
        // Min load must be near 16 as well (two-choice processes are tight).
        assert!(a.max_load() >= 16);
        assert!(a.max_load() <= 22, "max load {}", a.max_load());
    }

    #[test]
    fn keyed_process_replays_bit_identically_across_interleavings() {
        // The keyed source is a pure function of the keys: running the
        // same key set twice gives identical tables, and the stream RNG is
        // consumed only by tie-breaks.
        let scheme = DoubleHashing::new(256, 3);
        let source = ChoiceSource::Keyed { salt: 99 };
        let a = run_process_keys(&scheme, source, 0..256, TieBreak::LowestIndex, &mut rng(1));
        let b = run_process_keys(&scheme, source, 0..256, TieBreak::LowestIndex, &mut rng(2));
        assert_eq!(
            a.loads(),
            b.loads(),
            "keyed + deterministic ties must not depend on the rng"
        );
    }

    #[test]
    fn keyed_process_matches_stream_statistics() {
        // The paper's claim carries over to the keyed formulation: the max
        // load of a keyed double-hashing table matches the process model.
        let n = 1u64 << 12;
        let scheme = DoubleHashing::new(n, 3);
        let keyed = run_process_keys(
            &scheme,
            ChoiceSource::Keyed { salt: 7 },
            0..n,
            TieBreak::Random,
            &mut rng(10),
        );
        assert_eq!(keyed.balls(), n);
        assert!(keyed.max_load() <= 4, "keyed max load {}", keyed.max_load());
    }

    #[test]
    fn place_from_stream_is_plain_place() {
        let scheme = DoubleHashing::new(64, 3);
        let mut a = Allocation::new(64);
        let mut b = Allocation::new(64);
        let mut r1 = rng(5);
        let mut r2 = rng(5);
        let mut buf = [0u64; 3];
        for key in 0..100 {
            a.place_from(
                &scheme,
                ChoiceSource::Stream,
                key,
                TieBreak::Random,
                &mut r1,
                &mut buf,
            );
            let mut choices = [0u64; 3];
            scheme.fill_choices(&mut r2, &mut choices);
            b.place(&choices, TieBreak::Random, &mut r2);
        }
        assert_eq!(a.loads(), b.loads());
    }

    #[test]
    fn deterministic_given_seed() {
        let scheme = DoubleHashing::new(256, 3);
        let a = run_process(&scheme, 256, TieBreak::Random, &mut rng(77));
        let b = run_process(&scheme, 256, TieBreak::Random, &mut rng(77));
        assert_eq!(a.loads(), b.loads());
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        Allocation::new(0);
    }

    #[test]
    fn max_load_tracker_matches_scan_through_churn() {
        // Drive places and removes and check the O(1) tracker and the
        // occupancy-built histogram against full scans at every step,
        // including max-load drops, which leave zero levels above max.
        let scheme = DoubleHashing::new(64, 3);
        let mut a = Allocation::new(64);
        let mut r = rng(21);
        let mut placed: Vec<u64> = Vec::new();
        let mut buf = [0u64; 3];
        for step in 0..2_000u64 {
            if step % 3 == 2 && !placed.is_empty() {
                let victim = placed.swap_remove((r.gen_range(placed.len() as u64)) as usize);
                a.remove(victim);
            } else {
                scheme.fill_choices(&mut r, &mut buf);
                placed.push(a.place(&buf, TieBreak::Random, &mut r));
            }
            assert_eq!(a.max_load(), a.scanned_max_load(), "step {step}");
            assert_eq!(
                a.histogram(),
                LoadHistogram::from_loads(a.loads()),
                "step {step}"
            );
        }
        for &bin in &placed {
            a.remove(bin);
        }
        assert_eq!(a.max_load(), 0);
        assert_eq!(a.scanned_max_load(), 0);
    }

    #[test]
    fn place_indexed_probe_matches_position_recovery() {
        // The probe index must be exactly what the old linear rescan
        // found: the *first* slot holding the chosen bin, even with
        // duplicate choices in the vector.
        let mut r = rng(33);
        for tie in [
            TieBreak::FirstOffered,
            TieBreak::LowestIndex,
            TieBreak::Random,
        ] {
            let mut a = Allocation::new(8);
            let mut twin = Allocation::new(8);
            for _ in 0..4_000 {
                // Duplicate-heavy vectors over a tiny table force ties.
                let d = 1 + (r.gen_range(4) as usize);
                let choices: Vec<u64> = (0..d).map(|_| r.gen_range(8)).collect();
                let mut r1 = rng(r.next_u64());
                let mut r2 = r1.clone();
                let (bin, probe) = a.place_indexed(&choices, tie, &mut r1);
                let reference = twin.place(&choices, tie, &mut r2);
                assert_eq!(bin, reference);
                let recovered = choices.iter().position(|&c| c == bin).unwrap() as u32;
                assert_eq!(probe, recovered, "tie {tie:?} choices {choices:?}");
                if a.balls().is_multiple_of(5) {
                    a.remove(bin);
                    twin.remove(reference);
                }
            }
        }
    }

    #[test]
    fn place_first_offered_agrees_with_general_path() {
        let scheme = DoubleHashing::new(32, 4);
        let mut gen = rng(55);
        let mut fast = Allocation::new(32);
        let mut slow = Allocation::new(32);
        let mut buf = [0u64; 4];
        for _ in 0..2_000 {
            scheme.fill_choices(&mut gen, &mut buf);
            let (fb, fp) = fast.place_first_offered(&buf);
            // The general path gets an RNG but must never draw from it.
            let mut guard = rng(0);
            let before = guard.clone().next_u64();
            let (sb, sp) = slow.place_indexed(&buf, TieBreak::FirstOffered, &mut guard);
            assert_eq!(guard.next_u64(), before, "first-offered consumed rng");
            assert_eq!((fb, fp), (sb, sp));
        }
        assert_eq!(fast.loads(), slow.loads());
        assert_eq!(fast.max_load(), slow.max_load());
    }
}
