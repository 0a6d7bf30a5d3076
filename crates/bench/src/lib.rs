//! The experiment harness: one function per table of the paper, plus the
//! theory-validation and ablation experiments from DESIGN.md.
//!
//! Each function returns its rendered output as a `String` so that the
//! `tables` binary stays a thin CLI shim and integration tests can assert
//! on experiment behaviour directly.
//!
//! Run via:
//!
//! ```text
//! cargo run --release -p ba-bench --bin tables -- table1 --trials 1000
//! cargo run --release -p ba-bench --bin tables -- all --trials 200
//! ```
//!
//! Paper-scale runs use `--trials 10000` (Tables 1–7) and `--full` for
//! Table 8's n = 2^14, T = 10^4 s protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod cluster;
pub mod engine;
pub mod extensions;
pub mod opts;
pub mod replay;
pub mod rounds;
pub mod tables;
pub mod theory;

pub use opts::Opts;

/// The signature every harness experiment shares.
pub type ExperimentFn = fn(&Opts) -> String;

/// Every experiment the harness knows, in DESIGN.md order.
pub const EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("table1", tables::table1),
    ("table2", tables::table2),
    ("table3", tables::table3),
    ("table4", tables::table4),
    ("table5", tables::table5),
    ("table6", tables::table6),
    ("table7", tables::table7),
    ("table8", tables::table8),
    ("majorize", theory::majorize),
    ("ancestry", theory::ancestry),
    ("pairwise", theory::pairwise),
    ("branching", theory::branching),
    ("fluid_dleft", theory::fluid_dleft),
    ("witness", theory::witness_activation),
    ("layered", theory::layered),
    ("bloom", extensions::bloom),
    ("cuckoo", extensions::cuckoo),
    ("ablate_replacement", ablations::replacement),
    ("ablate_ties", ablations::ties),
    ("ablate_modulus", ablations::modulus),
    ("ablate_prng", ablations::prng),
    ("churn", ablations::churn),
    ("engine", engine::engine),
    ("replay", replay::replay),
    ("cluster", cluster::cluster),
    ("rounds", rounds::rounds),
];

/// Looks up an experiment by name.
pub fn experiment(name: &str) -> Option<ExperimentFn> {
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, f)| f)
}

/// Runs every experiment in order, concatenating outputs.
pub fn run_all(opts: &Opts) -> String {
    let mut out = String::new();
    for (name, f) in EXPERIMENTS {
        out.push_str(&format!("##### {name} #####\n"));
        out.push_str(&f(opts));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_finds_every_experiment() {
        for (name, _) in EXPERIMENTS {
            assert!(experiment(name).is_some(), "{name} missing");
        }
        assert!(experiment("table9").is_none());
    }

    #[test]
    fn experiments_cover_all_paper_tables() {
        for i in 1..=8 {
            assert!(
                experiment(&format!("table{i}")).is_some(),
                "paper table {i} has no harness entry"
            );
        }
    }
}
