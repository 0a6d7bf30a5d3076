//! Insertion/deletion churn workloads.
//!
//! Section 2.2 of the paper notes that the witness-tree argument "also
//! appl[ies] in settings with deletions". This module provides the standard
//! churn workload used to probe that claim empirically: fill the table,
//! then repeatedly delete a uniformly random *ball* and insert a fresh one,
//! holding the ball population constant. In steady state the load
//! distribution should again be indistinguishable between fully random and
//! double hashing.

use crate::{Allocation, TieBreak};
use ba_hash::ChoiceScheme;
use ba_rng::Rng64;

/// The state of a churn run: the allocation plus each live ball's bin.
#[derive(Debug, Clone)]
pub struct ChurnProcess {
    alloc: Allocation,
    /// `locations[i]` = bin currently holding ball `i`.
    locations: Vec<u64>,
}

impl ChurnProcess {
    /// Fills a fresh table with `m` balls placed by `scheme`.
    pub fn fill<S: ChoiceScheme + ?Sized, R: Rng64>(
        scheme: &S,
        m: u64,
        tie: TieBreak,
        rng: &mut R,
    ) -> Self {
        let mut alloc = Allocation::new(scheme.n());
        let mut locations = Vec::with_capacity(m as usize);
        let mut buf = vec![0u64; scheme.d()];
        for _ in 0..m {
            scheme.fill_choices(rng, &mut buf);
            locations.push(alloc.place(&buf, tie, rng));
        }
        Self { alloc, locations }
    }

    /// The current allocation.
    pub fn allocation(&self) -> &Allocation {
        &self.alloc
    }

    /// Number of live balls.
    pub fn balls(&self) -> u64 {
        self.locations.len() as u64
    }

    /// Performs `ops` churn operations: each deletes a uniformly random
    /// live ball and inserts a replacement via `scheme`.
    ///
    /// # Panics
    ///
    /// Panics if the process holds no balls.
    pub fn churn<S: ChoiceScheme + ?Sized, R: Rng64>(
        &mut self,
        scheme: &S,
        ops: u64,
        tie: TieBreak,
        rng: &mut R,
    ) {
        assert!(
            !self.locations.is_empty(),
            "churn needs at least one live ball"
        );
        let mut buf = vec![0u64; scheme.d()];
        for _ in 0..ops {
            // Delete a random ball…
            let victim = rng.gen_range(self.locations.len() as u64) as usize;
            let bin = self.locations[victim];
            self.alloc.remove(bin);
            // …and insert its replacement, reusing the slot.
            scheme.fill_choices(rng, &mut buf);
            self.locations[victim] = self.alloc.place(&buf, tie, rng);
        }
    }
}

/// Convenience wrapper: fill with `m` balls, churn `ops` times, return the
/// final allocation.
pub fn run_churn_process<S: ChoiceScheme + ?Sized, R: Rng64>(
    scheme: &S,
    m: u64,
    ops: u64,
    tie: TieBreak,
    rng: &mut R,
) -> Allocation {
    let mut p = ChurnProcess::fill(scheme, m, tie, rng);
    p.churn(scheme, ops, tie, rng);
    p.alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_hash::{DoubleHashing, FullyRandom, Replacement};
    use ba_rng::Xoshiro256StarStar;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn churn_conserves_ball_count() {
        let n = 256u64;
        let scheme = DoubleHashing::new(n, 3);
        let alloc = run_churn_process(&scheme, n, 5 * n, TieBreak::Random, &mut rng(1));
        assert_eq!(alloc.balls(), n);
        assert_eq!(alloc.histogram().sum(), n);
    }

    #[test]
    fn churn_keeps_loads_consistent() {
        // After heavy churn, every location entry must point at a bin whose
        // load accounting is exact: sum of loads == number of balls, and
        // recounting locations reproduces the loads.
        let n = 128u64;
        let scheme = FullyRandom::new(n, 2, Replacement::Without);
        let mut p = ChurnProcess::fill(&scheme, n, TieBreak::Random, &mut rng(2));
        p.churn(&scheme, 10 * n, TieBreak::Random, &mut rng(3));
        let mut recount = vec![0u32; n as usize];
        for ball in 0..p.balls() {
            recount[p.locations[ball as usize] as usize] += 1;
        }
        assert_eq!(recount.as_slice(), p.allocation().loads());
    }

    #[test]
    fn churn_reshapes_the_stationary_distribution() {
        // Deleting *uniformly random balls* removes from loaded bins in
        // proportion to their load, which is a different dynamic than
        // insert-only arrival: the stationary distribution is measurably
        // flatter (more empty bins). This is expected — the paper's claim
        // under deletions is that the two *hashing schemes* agree (checked
        // below), not that churn preserves the insert-only profile.
        let n = 1u64 << 12;
        let scheme = DoubleHashing::new(n, 3);
        let churned = run_churn_process(&scheme, n, 10 * n, TieBreak::Random, &mut rng(4));
        let fresh = crate::run_process(&scheme, n, TieBreak::Random, &mut rng(5));
        let f_churn = churned.histogram().fraction(0);
        let f_fresh = fresh.histogram().fraction(0);
        assert!(
            f_churn > f_fresh + 0.02,
            "churn should flatten the profile: churned {f_churn} vs fresh {f_fresh}"
        );
        // Still concentrated: max load stays at two-choice scale.
        assert!(churned.max_load() <= 6, "max load {}", churned.max_load());
    }

    #[test]
    fn churn_double_vs_random_indistinguishable() {
        let n = 1u64 << 12;
        let dh = run_churn_process(
            &DoubleHashing::new(n, 3),
            n,
            8 * n,
            TieBreak::Random,
            &mut rng(6),
        );
        let fr = run_churn_process(
            &FullyRandom::new(n, 3, Replacement::Without),
            n,
            8 * n,
            TieBreak::Random,
            &mut rng(7),
        );
        for load in 0..3usize {
            let a = dh.histogram().fraction(load);
            let b = fr.histogram().fraction(load);
            assert!((a - b).abs() < 0.03, "load {load}: {a} vs {b}");
        }
        // Churn must not blow up the maximum load.
        assert!(dh.max_load() <= 5, "max load {}", dh.max_load());
    }

    #[test]
    #[should_panic(expected = "at least one live ball")]
    fn churn_requires_balls() {
        let scheme = DoubleHashing::new(8, 2);
        let mut p = ChurnProcess::fill(&scheme, 0, TieBreak::Random, &mut rng(0));
        p.churn(&scheme, 1, TieBreak::Random, &mut rng(0));
    }
}
