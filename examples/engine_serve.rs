//! Serve production-shaped traffic through the sharded allocation engine.
//!
//! Builds a 4-shard engine for a chosen scheme, streams every workload
//! scenario through it (uniform, Zipf, bursty, churn, adversarial), and
//! prints the per-shard load tables, per-op-kind percentiles, and serve
//! rates. The punchline is the paper's, at serving scale: double hashing's
//! max loads match fully random hashing under every traffic shape — in
//! both choice modes.
//!
//! ```text
//! cargo run --release --example engine_serve [scheme] [shards] [ops] [keyed|stream] [pipelined[=DEPTH]|rounds] [metrics[=PATH]]
//! # scheme: random | double | blocks | one | ... (default: compares random vs double)
//! # keyed: derive choices from hash(key, shard_salt) so re-inserts replay
//! #        their f + k·g probe sequences (default: stream)
//! # pipelined: overlap workload generation with shard application through
//! #            one bounded SPSC ring per shard (default: phased
//! #            generate/apply); DEPTH sets the ring depth (default 4;
//! #            must be a power of two — the same `EngineConfig`
//! #            validation that guards direct engine construction
//! #            rejects anything else here too)
//! # rounds: resolve each batch's inserts in synchronized propose/accept
//! #         rounds over the global bin space, on the calling thread (no
//! #         shard workers); placement becomes a pure function of (batch
//! #         contents, seed), independent of op order and shard count, at
//! #         tens to hundreds of rounds per batch
//! # metrics: stream live windowed unit-of-work metrics (batch latency,
//! #          queue occupancy, backpressure stalls) as
//! #          JSON lines to stderr, or append them to PATH with
//! #          metrics=PATH; results are bit-identical with or without
//! #          the exporter attached
//! ```

use balanced_allocations::prelude::*;
use std::io::Write;
use std::time::Duration;

/// Where the live metrics stream goes, if anywhere.
#[derive(Clone, PartialEq)]
enum MetricsOut {
    Off,
    Stderr,
    File(String),
}

impl MetricsOut {
    /// Builds one JSON-lines exporter for a single scenario run (file
    /// targets append, so every scenario's windows land in one log).
    fn exporter(&self) -> Option<Box<dyn MetricsSink + Send>> {
        let window = Duration::from_millis(25);
        match self {
            MetricsOut::Off => None,
            MetricsOut::Stderr => Some(Box::new(JsonLinesExporter::stderr(window))),
            MetricsOut::File(path) => {
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .unwrap_or_else(|e| {
                        eprintln!("cannot open metrics file {path}: {e}");
                        std::process::exit(1);
                    });
                let writer: Box<dyn Write + Send> = Box::new(file);
                Some(Box::new(JsonLinesExporter::new(writer, window)))
            }
        }
    }
}

fn serve_suite(
    scheme: &str,
    shards: usize,
    total_ops: u64,
    mode: ChoiceMode,
    ingest: IngestMode,
    metrics: &MetricsOut,
) {
    let bins_per_shard = 1u64 << 12;
    let keyspace = bins_per_shard * shards as u64;
    println!(
        "== scheme `{scheme}` ({mode:?} choices, {ingest:?} ingest): {shards} shards x {bins_per_shard} bins, d = 3, {total_ops} ops/scenario ==\n"
    );
    for scenario in Scenario::all() {
        let config = EngineConfig::new(shards, bins_per_shard, 3)
            .seed(2014)
            .mode(mode)
            .ingest(ingest);
        let report = match metrics.exporter() {
            Some(sink) => {
                run_scenario_with_sink(scheme, &scenario, config, keyspace, total_ops, 4096, sink)
            }
            None => run_scenario(scheme, &scenario, config, keyspace, total_ops, 4096),
        }
        .expect("scheme validated in main");
        println!(
            "--- {} ({:.2} M ops/s) ---",
            report.scenario,
            report.ops_per_sec() / 1e6
        );
        println!("{}", report.stats.render());
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // A trailing `keyed`/`stream` selects the choice mode.
    let mode = match args.iter().position(|a| a == "keyed" || a == "stream") {
        Some(idx) => {
            if args.remove(idx) == "keyed" {
                ChoiceMode::Keyed
            } else {
                ChoiceMode::Stream
            }
        }
        None => ChoiceMode::Stream,
    };
    // A `rounds` token selects round-synchronized ingestion; a
    // `pipelined` or `pipelined=DEPTH` token selects pipelined
    // ingestion. The requested queue depth passes through verbatim:
    // `EngineConfig::validate` is the single contract for rejecting
    // unusable depths (see below), so no silent round-up happens here.
    let rounds = args
        .iter()
        .position(|a| a == "rounds")
        .map(|idx| args.remove(idx))
        .is_some();
    let ingest = match args
        .iter()
        .position(|a| a == "pipelined" || a.starts_with("pipelined="))
    {
        Some(_) if rounds => {
            eprintln!("pick one ingestion mode: `pipelined` or `rounds`, not both");
            std::process::exit(1);
        }
        Some(idx) => {
            let token = args.remove(idx);
            let queue_depth: usize = match token.strip_prefix("pipelined=") {
                Some(depth) => depth.parse().unwrap_or_else(|_| {
                    eprintln!("cannot parse `{token}`; expected pipelined=DEPTH");
                    std::process::exit(1);
                }),
                None => 4,
            };
            IngestMode::Pipelined { queue_depth }
        }
        None if rounds => IngestMode::Rounds,
        None => IngestMode::Phased,
    };
    // A `metrics` or `metrics=PATH` token turns on the live exporter.
    let metrics = match args
        .iter()
        .position(|a| a == "metrics" || a.starts_with("metrics="))
    {
        Some(idx) => {
            let token = args.remove(idx);
            match token.strip_prefix("metrics=") {
                Some(path) if !path.is_empty() => MetricsOut::File(path.to_string()),
                _ => MetricsOut::Stderr,
            }
        }
        None => MetricsOut::Off,
    };
    // A numeric first argument means the scheme was omitted: keep the
    // default two-scheme comparison and read [shards] [ops] from there.
    let (schemes, rest): (Vec<String>, &[String]) = match args.first() {
        Some(first) if first.parse::<u64>().is_err() => {
            if AnyScheme::by_name(first, 1 << 12, 3).is_none() {
                eprintln!(
                    "unknown scheme `{first}`; expected one of: {}",
                    AnyScheme::names().join(", ")
                );
                std::process::exit(1);
            }
            (vec![first.clone()], &args[1..])
        }
        _ => (vec!["random".into(), "double".into()], &args[..]),
    };
    let shards: usize = rest.first().and_then(|s| s.parse().ok()).unwrap_or(4);
    let total_ops: u64 = rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(200_000);
    // One validation contract for every construction path: the exact
    // config serve_suite will build gets checked up front, so a bad
    // `pipelined=DEPTH` fails here with the engine's own error instead of
    // being silently papered over.
    let probe = EngineConfig::new(shards, 1 << 12, 3)
        .seed(2014)
        .mode(mode)
        .ingest(ingest);
    if let Err(err) = probe.validate() {
        eprintln!("{err}");
        std::process::exit(2);
    }
    for scheme in &schemes {
        serve_suite(scheme, shards, total_ops, mode, ingest, &metrics);
    }
}
