//! The pipeline experiment: phased vs pipelined ingestion throughput.
//!
//! Where the `engine` experiment compares *schemes* and the worker-mode
//! bench races *application* strategies, this experiment isolates the
//! ingestion axis: the same scenarios, scheme, and seed are served once
//! with strict generate/apply phases (the `IngestMode::Phased` baseline,
//! persistent workers) and once through the lock-free SPSC-ring pipeline
//! at several queue depths, at the same engine-wide batch size. Every
//! pipelined cell is checked bit-identical to its phased baseline
//! (balls, max load, full stats) before any rate is reported, so a rate
//! can never be bought with a divergence.
//!
//! Besides the rendered table, the experiment emits a machine-readable
//! `BENCH_pipeline.json` next to the working directory — the perf
//! trajectory file CI regenerates on every run (and gates against the
//! committed baseline, see [`crate::gate`]), so ingestion throughput has
//! a tracked history.
//!
//! Every cell also runs with a [`ba_engine::SharedSink`] attached, so
//! the table and the JSON carry the pipeline's *pressure* alongside its
//! rate: backpressure stall count, total stall time, and the peak
//! bounded-queue occupancy seen at any ship.

use crate::Opts;
use ba_engine::{EngineConfig, SharedSink};
use ba_stats::json::JsonObject;
use ba_stats::Table;
use ba_workload::{run_scenario_with_sink, DriveReport, Scenario};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// Queue depths the pipelined cells sweep. Depth 1 is the strict
/// double-buffer; 64 approximates an unbounded ring at these batch
/// counts.
const QUEUE_DEPTHS: &[usize] = &[1, 4, 16, 64];

/// Scenarios the experiment times: cheap-to-generate uniform traffic
/// (application-bound, where pipelining helps least), the Zipf sampler
/// (generation-heavy, where overlap pays most), and mixed churn.
const SCENARIOS: &[Scenario] = &[
    Scenario::Uniform,
    Scenario::Zipf { theta: 0.9 },
    Scenario::Churn {
        delete_fraction: 0.5,
    },
];

/// Runs the sweep and writes `BENCH_pipeline.json` into the current
/// working directory (the repo root under `cargo run`).
pub fn pipeline(opts: &Opts) -> String {
    let total_ops = if opts.full { 1u64 << 21 } else { 1u64 << 19 };
    run_matrix(opts, total_ops, Path::new("BENCH_pipeline.json"))
}

/// One measured cell of the sweep.
struct Cell {
    scenario: &'static str,
    ingest: &'static str,
    queue_depth: Option<usize>,
    report: DriveReport,
    /// End-to-end generate+serve rate over the whole run's wall clock.
    /// [`DriveReport::ops_per_sec`] would be unfair here: phased runs
    /// report a serve-only rate (generation excluded), pipelined runs a
    /// combined rate (the overlap is the point) — so the sweep times the
    /// full drive for both and compares like with like.
    wall_ops_per_sec: f64,
    consistent: bool,
    /// Backpressure stalls across the run's shipped batches (pipelined
    /// cells; structurally zero for phased).
    stalls: u64,
    /// Total time the calling thread spent blocked on full queues.
    stalled: Duration,
    /// Highest bounded-queue occupancy observed at any ship.
    peak_occupancy: u32,
}

/// Runs one scenario cell with a metrics sink attached and times the
/// whole drive, generation included. The same sink rides along in both
/// modes so the phased and pipelined rates carry identical overhead.
fn timed_run(
    scenario: &Scenario,
    config: EngineConfig,
    keyspace: u64,
    total_ops: u64,
    batch: usize,
) -> (DriveReport, f64, SharedSink) {
    let sink = SharedSink::new();
    let start = std::time::Instant::now();
    let report = run_scenario_with_sink(
        "double",
        scenario,
        config,
        keyspace,
        total_ops,
        batch,
        Box::new(sink.clone()),
    )
    .expect("known scheme");
    let wall = start.elapsed().as_secs_f64();
    let rate = if wall > 0.0 {
        total_ops as f64 / wall
    } else {
        f64::INFINITY
    };
    (report, rate, sink)
}

/// Folds a run's metric records into the cell's stall/occupancy
/// columns.
fn pressure(sink: &SharedSink) -> (u64, Duration, u32) {
    let records = sink.records();
    let stalls = records.iter().map(|r| u64::from(r.stalls)).sum();
    let stalled = records.iter().map(|r| r.stalled).sum();
    let peak = records.iter().map(|r| r.queue_occupancy).max().unwrap_or(0);
    (stalls, stalled, peak)
}

/// The sweep body, parameterized so tests can run a small matrix against
/// a scratch JSON path.
pub(crate) fn run_matrix(opts: &Opts, total_ops: u64, json_path: &Path) -> String {
    let shards = 4usize;
    let bins_per_shard = if opts.full { 1u64 << 14 } else { 1u64 << 10 };
    let keyspace = bins_per_shard * shards as u64;
    let batch = 1_024usize;
    let d = 3;
    let config = || EngineConfig::new(shards, bins_per_shard, d).seed(opts.seed);

    let mut out = format!(
        "Pipelined ingestion sweep: {shards} shards x {bins_per_shard} bins, d = {d}, \
         {total_ops} ops per cell, batch {batch}, seed {}\n\
         (phased = generate/apply alternation with persistent workers; pipelined = \
         the driving thread ships per-shard batches into bounded queues while workers apply; \
         Mops/s is the end-to-end generate+serve wall rate for both modes, and every \
         pipelined cell is verified bit-identical to phased before timing counts)\n\n",
        opts.seed
    );
    let mut cells: Vec<Cell> = Vec::new();
    let mut all_consistent = true;
    for scenario in SCENARIOS {
        let (phased, phased_rate, phased_sink) =
            timed_run(scenario, config(), keyspace, total_ops, batch);
        for &depth in QUEUE_DEPTHS {
            let (pipelined, rate, sink) = timed_run(
                scenario,
                config().pipelined(depth),
                keyspace,
                total_ops,
                batch,
            );
            let consistent =
                pipelined.summary == phased.summary && pipelined.stats.matches(&phased.stats);
            all_consistent &= consistent;
            let (stalls, stalled, peak_occupancy) = pressure(&sink);
            cells.push(Cell {
                scenario: scenario.name(),
                ingest: "pipelined",
                queue_depth: Some(depth),
                report: pipelined,
                wall_ops_per_sec: rate,
                consistent,
                stalls,
                stalled,
                peak_occupancy,
            });
        }
        let (stalls, stalled, peak_occupancy) = pressure(&phased_sink);
        cells.push(Cell {
            scenario: scenario.name(),
            ingest: "phased",
            queue_depth: None,
            report: phased,
            wall_ops_per_sec: phased_rate,
            consistent: true,
            stalls,
            stalled,
            peak_occupancy,
        });
    }

    let mut table = Table::new(&[
        "scenario",
        "ingest",
        "depth",
        "Mops/s",
        "max load",
        "balls",
        "stalls",
        "stall ms",
        "identical",
    ]);
    for cell in &cells {
        table.row_owned(vec![
            cell.scenario.to_string(),
            cell.ingest.to_string(),
            cell.queue_depth.map_or("-".into(), |d| d.to_string()),
            format!("{:.2}", cell.wall_ops_per_sec / 1e6),
            cell.report.stats.max_load().to_string(),
            cell.report.stats.total_balls().to_string(),
            cell.stalls.to_string(),
            format!("{:.1}", cell.stalled.as_secs_f64() * 1e3),
            if cell.consistent { "yes" } else { "NO" }.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\noverall: pipelined results {} phased across every scenario x queue depth\n",
        if all_consistent {
            "bit-identical to"
        } else {
            "DIVERGE from"
        }
    ));

    let json = render_json(opts, shards, bins_per_shard, total_ops, batch, &cells);
    // A failed write must fail the run (CI would otherwise validate a
    // stale committed file), so this panics rather than logging.
    std::fs::write(json_path, &json)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", json_path.display()));
    let _ = writeln!(out, "wrote {}", json_path.display());
    out
}

/// Renders the sweep as a small JSON document. The outer shell is a
/// pretty-printed object; each cell line is built with the shared
/// [`ba_stats::json`] helper — the same escaping/formatting path the
/// engine's metrics exporter uses — since the workspace takes no
/// serialization dependency.
fn render_json(
    opts: &Opts,
    shards: usize,
    bins_per_shard: u64,
    total_ops: u64,
    batch: usize,
    cells: &[Cell],
) -> String {
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"experiment\": \"pipeline\",");
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    // Hardware parallelism of the box that produced the numbers, so a
    // reader can tell a two-lane run from a wide one.
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    let _ = writeln!(json, "  \"parallelism\": {parallelism},");
    let _ = writeln!(json, "  \"shards\": {shards},");
    let _ = writeln!(json, "  \"bins_per_shard\": {bins_per_shard},");
    let _ = writeln!(json, "  \"total_ops\": {total_ops},");
    let _ = writeln!(json, "  \"batch_size\": {batch},");
    let _ = writeln!(json, "  \"cells\": [");
    for (i, cell) in cells.iter().enumerate() {
        let obj = JsonObject::new()
            .field_str("scenario", cell.scenario)
            .field_str("ingest", cell.ingest);
        let obj = match cell.queue_depth {
            Some(depth) => obj.field_u64("queue_depth", depth as u64),
            None => obj.field_raw("queue_depth", "null"),
        };
        let line = obj
            .field_raw("ops_per_sec", &format!("{:.0}", cell.wall_ops_per_sec))
            .field_u64("max_load", u64::from(cell.report.stats.max_load()))
            .field_u64("balls", cell.report.stats.total_balls())
            .field_u64("stalls", cell.stalls)
            .field_u64("stall_us", cell.stalled.as_micros() as u64)
            .field_u64("peak_occupancy", u64::from(cell.peak_occupancy))
            .field_bool("identical", cell.consistent)
            .finish();
        let _ = write!(json, "    {line}");
        json.push_str(if i + 1 == cells.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_experiment_verifies_and_emits_json() {
        let opts = Opts {
            trials: 1,
            seed: 3,
            threads: 0,
            full: false,
        };
        let path =
            std::env::temp_dir().join(format!("BENCH_pipeline_test_{}.json", std::process::id()));
        let text = run_matrix(&opts, 8_192, &path);
        for name in ["uniform", "zipf", "churn"] {
            assert!(text.contains(name), "missing scenario {name}: {text}");
        }
        assert!(text.contains("bit-identical to phased"), "{text}");
        assert!(!text.contains("DIVERGE"), "{text}");
        let json = std::fs::read_to_string(&path).expect("json written");
        std::fs::remove_file(&path).ok();
        assert!(json.contains("\"experiment\": \"pipeline\""), "{json}");
        assert!(json.contains("\"parallelism\": "), "{json}");
        assert!(json.contains("\"queue_depth\": null"), "{json}");
        assert!(json.contains("\"queue_depth\": 64"), "{json}");
        assert!(json.contains("\"identical\": true"), "{json}");
        assert!(!json.contains("\"identical\": false"), "{json}");
        assert!(json.contains("\"stalls\": "), "{json}");
        assert!(json.contains("\"stall_us\": "), "{json}");
        assert!(json.contains("\"peak_occupancy\": "), "{json}");
        // The emitted document must at least be brace-balanced — cheap
        // insurance for a hand-rolled writer.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }
}
