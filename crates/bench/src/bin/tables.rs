//! CLI entry point for the experiment harness.
//!
//! ```text
//! tables <experiment>... [--trials N] [--seed S] [--threads T] [--full]
//! tables all [--trials N]
//! tables list
//! ```

use ba_bench::{experiment, run_all, Opts, EXPERIMENTS};
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: tables <experiment>... [--trials N] [--seed S] [--threads T] [--full]\n\
         \n\
         experiments: all, list, {}\n\
         \n\
         --trials N   trials per configuration (default 200; paper used 10000)\n\
         --seed S     master seed (default 2014)\n\
         --threads T  worker threads (default: all cores)\n\
         --full       paper-scale sizes for table8 (n=2^14, 10^4 s horizon)\n\
         \n\
         engine throughput, latency and balance: the perfbench package\n\
         (perfbench/README.md).",
        names.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, names) = match Opts::parse(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if names.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    for name in &names {
        match name.as_str() {
            "list" => {
                for (n, _) in EXPERIMENTS {
                    println!("{n}");
                }
            }
            "all" => print!("{}", run_all(&opts)),
            other => match experiment(other) {
                Some(f) => {
                    println!("##### {other} #####");
                    println!("{}", f(&opts));
                }
                None => {
                    eprintln!("error: unknown experiment `{other}`\n\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    ExitCode::SUCCESS
}
