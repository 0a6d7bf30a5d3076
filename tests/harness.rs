//! Integration tests for the experiment harness (ba-bench): every
//! registered experiment runs and produces plausibly-shaped output at tiny
//! trial counts.

use ba_bench::{experiment, Opts, EXPERIMENTS};

fn tiny_opts() -> Opts {
    Opts {
        trials: 2,
        seed: 424242,
        threads: 0,
        full: false,
    }
}

#[test]
fn table1_output_contains_both_schemes() {
    let out = experiment("table1").expect("registered")(&tiny_opts());
    assert!(out.contains("Fully Random"));
    assert!(out.contains("Double Hashing"));
    assert!(out.contains("3 choices"));
    assert!(out.contains("4 choices"));
}

#[test]
fn table2_includes_fluid_column() {
    let out = experiment("table2").expect("registered")(&tiny_opts());
    assert!(out.contains("Fluid Limit"));
    // The known fluid values must appear (computed, not simulated, so they
    // are trial-count independent).
    assert!(out.contains("0.82304"), "missing fluid x1 in:\n{out}");
    assert!(out.contains("0.17645"), "missing fluid x2 in:\n{out}");
}

#[test]
fn majorize_reports_zero_violations() {
    let out = experiment("majorize").expect("registered")(&tiny_opts());
    for line in out
        .lines()
        .filter(|l| l.starts_with(|c: char| c.is_ascii_digit()))
    {
        let cols: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(cols[3], "0", "majorization violated: {line}");
    }
}

#[test]
fn branching_means_below_bounds() {
    let out = experiment("branching").expect("registered")(&tiny_opts());
    for line in out
        .lines()
        .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
    {
        let cols: Vec<&str> = line.split_whitespace().collect();
        if cols.len() == 4 {
            let mean: f64 = cols[2].parse().expect("mean column");
            let bound: f64 = cols[3].parse().expect("bound column");
            // The bound constrains the *expectation*; B is heavy-tailed, so
            // grant the sample mean 20% sampling slack.
            assert!(mean < bound * 1.2, "branching bound violated: {line}");
        }
    }
}

#[test]
fn witness_shows_adversarial_gap() {
    let out = experiment("witness").expect("registered")(&tiny_opts());
    assert!(out.contains("first n/3 loaded"));
    assert!(out.contains("random n/3 loaded"));
}

#[test]
fn experiment_output_is_deterministic() {
    let opts = tiny_opts();
    let a = experiment("table1").expect("registered")(&opts);
    let b = experiment("table1").expect("registered")(&opts);
    assert_eq!(a, b, "same opts must give identical output");
}

#[test]
fn experiment_output_varies_with_seed() {
    let mut opts = tiny_opts();
    let a = experiment("table1").expect("registered")(&opts);
    opts.seed += 1;
    let b = experiment("table1").expect("registered")(&opts);
    assert_ne!(a, b, "different seeds must give different samples");
}

#[test]
fn all_fast_experiments_render_tables() {
    // Skip the big-n sweeps (table3/4/5 go to 2^18+, table8 simulates
    // thousands of seconds); everything else must run at tiny scale.
    let skip = ["table3", "table4", "table5", "table6", "table7", "table8"];
    for (name, f) in EXPERIMENTS {
        if skip.contains(name) {
            continue;
        }
        let out = f(&tiny_opts());
        assert!(
            out.contains('-') && out.lines().count() >= 4,
            "{name} produced implausible output:\n{out}"
        );
    }
}
