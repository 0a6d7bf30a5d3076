//! Property-based tests (proptest) on the cross-crate invariants.

use balanced_allocations::numtheory::{euler_totient, gcd, is_prime, mod_inverse, mul_mod};
use balanced_allocations::prelude::*;
use balanced_allocations::stats::LoadHistogram;
use proptest::prelude::*;

/// Strategy: a plausible (n, d) pair for a choice scheme.
fn scheme_params() -> impl Strategy<Value = (u64, usize)> {
    (2u64..=512, 1usize..=6).prop_filter("d <= n", |(n, d)| *d as u64 <= *n)
}

proptest! {
    #[test]
    fn double_hashing_probes_distinct_and_in_range((n, d) in scheme_params(), seed in any::<u64>()) {
        let scheme = DoubleHashing::new(n, d);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let choices = scheme.choices(&mut rng);
        prop_assert_eq!(choices.len(), d);
        let mut sorted = choices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), d, "duplicates in {:?}", choices);
        prop_assert!(choices.iter().all(|&c| c < n));
    }

    #[test]
    fn double_hashing_strides_coprime((n, d) in scheme_params(), seed in any::<u64>()) {
        prop_assume!(n >= 3 && d >= 2);
        let scheme = DoubleHashing::new(n, d);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let choices = scheme.choices(&mut rng);
        let g = (choices[1] + n - choices[0]) % n;
        prop_assert_eq!(gcd(g, n), 1);
    }

    #[test]
    fn fully_random_without_replacement_distinct((n, d) in scheme_params(), seed in any::<u64>()) {
        let scheme = FullyRandom::new(n, d, Replacement::Without);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let choices = scheme.choices(&mut rng);
        let mut sorted = choices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), d);
    }

    #[test]
    fn allocation_conserves_balls(
        n in 1u64..=256,
        m in 0u64..=2048,
        seed in any::<u64>(),
        d in 1usize..=4,
    ) {
        prop_assume!(d as u64 <= n);
        let scheme = FullyRandom::new(n, d, Replacement::Without);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let alloc = run_process(&scheme, m, TieBreak::Random, &mut rng);
        prop_assert_eq!(alloc.balls(), m);
        let hist = alloc.histogram();
        prop_assert_eq!(hist.sum(), m);
        prop_assert_eq!(hist.total(), n);
        prop_assert_eq!(hist.max(), alloc.max_load());
    }

    #[test]
    fn more_choices_never_hurt_much(
        seed in any::<u64>(),
    ) {
        // Monotonicity in expectation (checked loosely per-seed): max load
        // with 4 choices is at most max load with 1 choice + 1 slack.
        let n = 1u64 << 10;
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let one = run_process(&OneChoice::new(n), n, TieBreak::Random, &mut rng).max_load();
        let four = run_process(
            &FullyRandom::new(n, 4, Replacement::Without),
            n,
            TieBreak::Random,
            &mut rng,
        )
        .max_load();
        prop_assert!(four <= one + 1, "four={four} one={one}");
    }

    #[test]
    fn histogram_tail_is_monotone(loads in proptest::collection::vec(0u32..32, 1..200)) {
        let hist = LoadHistogram::from_loads(&loads);
        for i in 0..hist.len() {
            prop_assert!(hist.tail_count(i) >= hist.tail_count(i + 1));
        }
        prop_assert_eq!(hist.tail_count(0), loads.len() as u64);
    }

    #[test]
    fn welford_merge_any_split(
        data in proptest::collection::vec(-1e6f64..1e6, 2..200),
        split in 0usize..200,
    ) {
        let split = split % data.len();
        let mut whole = Welford::new();
        for &x in &data { whole.push(x); }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &data[..split] { left.push(x); }
        for &x in &data[split..] { right.push(x); }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-3f64.max(whole.variance() * 1e-9));
    }

    #[test]
    fn mod_inverse_is_inverse(a in 1u64..100_000, m in 2u64..100_000) {
        match mod_inverse(a, m) {
            Some(inv) => {
                prop_assert_eq!(gcd(a % m, m), 1);
                prop_assert_eq!(mul_mod(a % m, inv, m), 1 % m);
            }
            None => prop_assert!(gcd(a % m, m) != 1),
        }
    }

    #[test]
    fn totient_multiplicative(a in 1u64..2_000, b in 1u64..2_000) {
        prop_assume!(gcd(a, b) == 1);
        prop_assert_eq!(euler_totient(a * b), euler_totient(a) * euler_totient(b));
    }

    #[test]
    fn primes_have_full_totient(n in 2u64..1_000_000) {
        if is_prime(n) {
            prop_assert_eq!(euler_totient(n), n - 1);
        }
    }

    #[test]
    fn seed_streams_never_collide(seed in any::<u64>(), i in 0u64..10_000, j in 0u64..10_000) {
        prop_assume!(i != j);
        let seq = SeedSequence::new(seed);
        prop_assert_ne!(seq.child(i).derive_u64(), seq.child(j).derive_u64());
    }

    #[test]
    fn experiment_deterministic_across_thread_counts(
        seed in any::<u64>(),
        trials in 1u64..12,
    ) {
        let n = 128u64;
        let scheme = DoubleHashing::new(n, 3);
        let base = ExperimentConfig::new(n).trials(trials).seed(seed);
        let seq = run_load_experiment(&scheme, &base.clone().threads(1));
        let par = run_load_experiment(&scheme, &base.threads(4));
        for load in 0..4 {
            prop_assert_eq!(seq.mean_fraction(load), par.mean_fraction(load));
        }
    }
}
