//! CLI entry point for the experiment harness.
//!
//! ```text
//! tables <experiment>... [--trials N] [--seed S] [--threads T] [--full]
//! tables all [--trials N]
//! tables list
//! tables gate <baseline.json> <candidate.json>
//! ```

use ba_bench::{experiment, gate, run_all, Opts, EXPERIMENTS};
use std::process::ExitCode;

/// Allowed fractional throughput drop before the perf gate fails.
const GATE_TOLERANCE: f64 = 0.20;

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: tables <experiment>... [--trials N] [--seed S] [--threads T] [--full]\n\
         \x20      tables gate <baseline.json> <candidate.json>\n\
         \n\
         experiments: all, list, {}\n\
         \n\
         --trials N   trials per configuration (default 200; paper used 10000)\n\
         --seed S     master seed (default 2014)\n\
         --threads T  worker threads (default: all cores)\n\
         --full       paper-scale sizes for table8 (n=2^14, 10^4 s horizon)\n\
         \n\
         gate compares two BENCH_pipeline.json or BENCH_hotpath.json files and\n\
         fails if any candidate cell is >{:.0}% slower than its baseline,\n\
         missing, extra, or no longer bit-identical.",
        names.join(", "),
        GATE_TOLERANCE * 100.0
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
    if names[0] == "gate" {
        let [_, baseline, candidate] = names.as_slice() else {
            eprintln!(
                "error: gate takes exactly two file arguments\n\n{}",
                usage()
            );
            return ExitCode::FAILURE;
        };
        return match gate::gate_files(baseline.as_ref(), candidate.as_ref(), GATE_TOLERANCE) {
            Ok(report) => {
                print!("{report}");
                println!("perf gate: OK (tolerance {:.0}%)", GATE_TOLERANCE * 100.0);
                ExitCode::SUCCESS
            }
            Err(violations) => {
                eprintln!("perf gate FAILED:\n{violations}");
                ExitCode::FAILURE
            }
        };
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
