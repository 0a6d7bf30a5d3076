//! The hotpath experiment: single-shard serving-kernel throughput.
//!
//! Where the pipeline experiment times whole-engine *ingestion* (threads,
//! queues, routing), this one pins a single [`ba_engine::Shard`] and
//! times the serving kernels themselves — the code paths PR'd through
//! the batched-choice/index/placement work: the batched keyed insert
//! kernel ([`ba_hash::ChoiceScheme::choices_for_batch`] feeding
//! insert-run placement), the allocation-free `KeyIndex` on lookups and
//! deletes, and the monomorphized placement fast paths.
//!
//! Two cell families share one JSON document:
//!
//! * **Workload cells** (`scenario` = `uniform`/`zipf`/`churn`) — a full
//!   scenario op stream pre-generated, then served through
//!   [`ba_engine::Shard::apply`] in batches; the rate is the serve-only
//!   wall rate. Each cell is verified bit-identical to a twin shard
//!   driven strictly per-op (`insert`/`delete`/`lookup` calls): loads,
//!   live keys, lifetime counters, and every observation histogram must
//!   match, and the O(1) max-load tracker must agree with a full scan.
//! * **Kernel cells** (`scenario` = a scheme name) — pure insert, then
//!   pure lookup, then pure delete phases over the same key set, timed
//!   separately so the per-op-kind `ns/op` columns isolate each kernel
//!   across every scheme x choice-mode combination. The same per-op twin
//!   check gates every cell.
//!
//! The emitted `BENCH_hotpath.json` is CI's hot-path perf baseline:
//! `tables gate` compares a fresh run against the committed file with
//! [`crate::gate::gate_rates`] (rate floor + lost-identity check).

use crate::Opts;
use ba_engine::{EngineConfig, Op, Shard};
use ba_hash::AnyScheme;
use ba_stats::json::JsonObject;
use ba_stats::Table;
use ba_workload::Scenario;
use std::fmt::Write as _;
use std::path::Path;

/// Batch size every `Shard::apply` call uses — matches the pipeline
/// experiment so insert-run lengths are representative.
const BATCH: usize = 1_024;

/// Timed passes per cell. Each pass serves a fresh shard over the same
/// pre-generated ops and the cell reports the fastest pass: single-shot
/// timings on a shared core swing ±20% (frequency ramps, neighbor
/// load), and best-of-N reads the steady-state rate back out of that
/// noise. Serving is deterministic, so every pass lands in bit-identical
/// state and the per-op twin check only needs to run against the final
/// pass.
const PASSES: usize = 3;

/// Scenarios the workload cells serve: uniform insert-heavy traffic
/// (longest insert runs, where batching pays most), Zipf with lookups
/// mixed in (runs broken by reads), and half-delete churn (runs broken
/// by writes, exercising the index delete path).
const SCENARIOS: &[Scenario] = &[
    Scenario::Uniform,
    Scenario::Zipf { theta: 0.9 },
    Scenario::Churn {
        delete_fraction: 0.5,
    },
];

/// Schemes the kernel cells sweep. Probe-set shapes differ enough that
/// the batched kernel's win is worth tracking per scheme.
const KERNEL_SCHEMES: &[&str] = &["random", "double", "blocks", "dleft-random", "dleft-double"];

/// Choices per ball in the kernel cells; divides the bin count so the
/// d-left layouts partition evenly.
const KERNEL_D: usize = 4;

/// Runs the sweep and writes `BENCH_hotpath.json` into the current
/// working directory (the repo root under `cargo run`).
pub fn hotpath(opts: &Opts) -> String {
    let (total_ops, kernel_keys) = if opts.full {
        (1u64 << 21, 1u64 << 18)
    } else {
        (1u64 << 19, 1u64 << 16)
    };
    run_matrix(
        opts,
        total_ops,
        kernel_keys,
        Path::new("BENCH_hotpath.json"),
    )
}

/// One measured cell.
struct Cell {
    /// Scenario name (workload cells) or scheme name (kernel cells).
    scenario: String,
    /// `keyed` or `stream`.
    ingest: &'static str,
    /// Serve-only wall rate: ops through `apply` per second, fastest of
    /// [`PASSES`] passes (kernel cells report the insert phase — the
    /// path the batching targets).
    ops_per_sec: f64,
    /// Per-op-kind nanoseconds (kernel cells only).
    insert_ns: Option<f64>,
    lookup_ns: Option<f64>,
    delete_ns: Option<f64>,
    max_load: u32,
    balls: u64,
    /// Whether the `apply`-served shard matched its per-op twin exactly
    /// (and the O(1) max-load tracker matched a full scan).
    identical: bool,
}

/// `true` iff the batch-served shard and the per-op twin are in exactly
/// the same state: allocation, live keys, counters, every histogram.
fn shards_match(served: &Shard<AnyScheme>, twin: &Shard<AnyScheme>) -> bool {
    served.allocation().loads() == twin.allocation().loads()
        && served.lifetime_summary() == twin.lifetime_summary()
        && served.observations() == twin.observations()
        && served.live_key_ids() == twin.live_key_ids()
        && served.allocation().max_load() == served.allocation().scanned_max_load()
}

/// Drives a twin shard through the strict per-op methods — the reference
/// the batched `apply` path must be indistinguishable from.
fn drive_per_op(twin: &mut Shard<AnyScheme>, ops: &[Op]) {
    for &op in ops {
        match op {
            Op::Insert(k) => {
                twin.insert(k);
            }
            Op::Delete(k) => {
                twin.delete(k);
            }
            Op::Lookup(k) => {
                twin.lookup(k);
            }
        }
    }
}

/// Serves `ops` through `apply` in [`BATCH`]-sized chunks, returning the
/// wall-clock seconds spent inside `apply`.
fn timed_apply(shard: &mut Shard<AnyScheme>, ops: &[Op]) -> f64 {
    let start = std::time::Instant::now();
    for chunk in ops.chunks(BATCH) {
        shard.apply(chunk);
    }
    start.elapsed().as_secs_f64()
}

fn rate(ops: usize, wall: f64) -> f64 {
    if wall > 0.0 {
        ops as f64 / wall
    } else {
        f64::INFINITY
    }
}

fn ns_per_op(ops: usize, wall: f64) -> f64 {
    if ops > 0 {
        wall * 1e9 / ops as f64
    } else {
        0.0
    }
}

/// One workload cell: pre-generates the scenario stream (generation is
/// excluded — this experiment times serving, not sampling), serves it
/// through `apply`, and verifies against the per-op twin.
fn workload_cell(
    scenario: &Scenario,
    mode: &'static str,
    config: &EngineConfig,
    bins: u64,
    total_ops: u64,
) -> Cell {
    // Keyspace follows the engine/replay bench convention (`total_ops =
    // 4 * keyspace`): mean key depth ≈ 4, the load-factor regime the
    // key index is built for, rather than a handful of keys with
    // thousand-deep stacks.
    let keyspace = (total_ops / 4).max(1);
    let mut workload = scenario.build(keyspace, config.seed);
    let mut ops = Vec::new();
    workload.fill(&mut ops, total_ops as usize);

    let scheme = || AnyScheme::by_name("double", bins, 3).expect("double parses");
    let mut shard = Shard::new(0, scheme(), config);
    let mut wall = timed_apply(&mut shard, &ops);
    for _ in 1..PASSES {
        let mut fresh = Shard::new(0, scheme(), config);
        wall = wall.min(timed_apply(&mut fresh, &ops));
        shard = fresh;
    }
    let mut twin = Shard::new(0, scheme(), config);
    drive_per_op(&mut twin, &ops);

    Cell {
        scenario: scenario.name().to_string(),
        ingest: mode,
        ops_per_sec: rate(ops.len(), wall),
        insert_ns: None,
        lookup_ns: None,
        delete_ns: None,
        max_load: shard.allocation().max_load(),
        balls: shard.allocation().balls(),
        identical: shards_match(&shard, &twin),
    }
}

/// One kernel cell: phase-separated insert, lookup, and delete sweeps
/// over the same key set so each op kind gets its own ns/op, with the
/// per-op twin replaying every phase.
fn kernel_cell(
    name: &str,
    mode: &'static str,
    config: &EngineConfig,
    bins: u64,
    kernel_keys: u64,
) -> Cell {
    let scheme = || AnyScheme::by_name(name, bins, KERNEL_D).expect("listed scheme parses");

    // Golden-ratio stride spreads sequential indices over the key space
    // without consuming any RNG the shards themselves use.
    let keys: Vec<u64> = (0..kernel_keys)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let inserts: Vec<Op> = keys.iter().map(|&k| Op::Insert(k)).collect();
    let lookups: Vec<Op> = keys.iter().map(|&k| Op::Lookup(k)).collect();
    let deletes: Vec<Op> = keys.iter().map(|&k| Op::Delete(k)).collect();

    let mut insert_wall = f64::INFINITY;
    let mut lookup_wall = f64::INFINITY;
    let mut delete_wall = f64::INFINITY;
    let mut identical = false;
    let mut max_load = 0u32;
    let mut balls = 0u64;
    for pass in 0..PASSES {
        let mut shard = Shard::new(0, scheme(), config);
        // The twin only replays the final pass; every pass serves the
        // same deterministic phases, so one check covers them all.
        let mut twin = (pass + 1 == PASSES).then(|| Shard::new(0, scheme(), config));
        insert_wall = insert_wall.min(timed_apply(&mut shard, &inserts));
        if let Some(twin) = twin.as_mut() {
            drive_per_op(twin, &inserts);
            // The insert phase is where state diverges if batching is
            // wrong, so check it while the table is full (after deletes
            // it would be empty).
            identical = shards_match(&shard, twin);
            max_load = shard.allocation().max_load();
            balls = shard.allocation().balls();
        }
        lookup_wall = lookup_wall.min(timed_apply(&mut shard, &lookups));
        if let Some(twin) = twin.as_mut() {
            drive_per_op(twin, &lookups);
        }
        delete_wall = delete_wall.min(timed_apply(&mut shard, &deletes));
        if let Some(twin) = twin.as_mut() {
            drive_per_op(twin, &deletes);
            identical &= shards_match(&shard, twin);
        }
    }

    Cell {
        scenario: name.to_string(),
        ingest: mode,
        ops_per_sec: rate(inserts.len(), insert_wall),
        insert_ns: Some(ns_per_op(inserts.len(), insert_wall)),
        lookup_ns: Some(ns_per_op(lookups.len(), lookup_wall)),
        delete_ns: Some(ns_per_op(deletes.len(), delete_wall)),
        max_load,
        balls,
        identical,
    }
}

/// The sweep body, parameterized so tests can run a small matrix against
/// a scratch JSON path.
pub(crate) fn run_matrix(
    opts: &Opts,
    total_ops: u64,
    kernel_keys: u64,
    json_path: &Path,
) -> String {
    let bins = if opts.full { 1u64 << 14 } else { 1u64 << 10 };
    let config = |keyed: bool| {
        let cfg = EngineConfig::new(1, bins, 3).seed(opts.seed);
        if keyed {
            cfg.keyed()
        } else {
            cfg
        }
    };
    let modes: [(&str, bool); 2] = [("keyed", true), ("stream", false)];

    let mut out = format!(
        "Hot-path kernel sweep: 1 shard x {bins} bins, {total_ops} workload ops, \
         {kernel_keys} kernel keys per phase, batch {BATCH}, best of {PASSES} passes, seed {}\n\
         (workload cells serve a pre-generated scenario stream through Shard::apply; \
         kernel cells time pure insert/lookup/delete phases per scheme; every cell is \
         verified bit-identical to a per-op twin before its rate counts)\n\n",
        opts.seed
    );

    let mut cells: Vec<Cell> = Vec::new();
    for scenario in SCENARIOS {
        for (mode, keyed) in modes {
            cells.push(workload_cell(
                scenario,
                mode,
                &config(keyed),
                bins,
                total_ops,
            ));
        }
    }
    for name in KERNEL_SCHEMES {
        for (mode, keyed) in modes {
            cells.push(kernel_cell(name, mode, &config(keyed), bins, kernel_keys));
        }
    }
    let all_identical = cells.iter().all(|c| c.identical);

    let mut table = Table::new(&[
        "cell",
        "mode",
        "Mops/s",
        "ins ns",
        "lkp ns",
        "del ns",
        "max load",
        "balls",
        "identical",
    ]);
    let ns_col = |ns: Option<f64>| ns.map_or("-".into(), |v| format!("{v:.0}"));
    for cell in &cells {
        table.row_owned(vec![
            cell.scenario.clone(),
            cell.ingest.to_string(),
            format!("{:.2}", cell.ops_per_sec / 1e6),
            ns_col(cell.insert_ns),
            ns_col(cell.lookup_ns),
            ns_col(cell.delete_ns),
            cell.max_load.to_string(),
            cell.balls.to_string(),
            if cell.identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\noverall: apply-served shards {} their per-op twins across every cell\n",
        if all_identical {
            "bit-identical to"
        } else {
            "DIVERGE from"
        }
    ));

    let json = render_json(opts, bins, total_ops, kernel_keys, &cells);
    // A failed write must fail the run (CI would otherwise validate a
    // stale committed file), so this panics rather than logging.
    std::fs::write(json_path, &json)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", json_path.display()));
    let _ = writeln!(out, "wrote {}", json_path.display());
    out
}

/// Renders the sweep as a small JSON document in the same shape the
/// pipeline experiment emits, so [`crate::gate::parse_cells`] reads it
/// unchanged (the ns/op fields ride along as extra cell fields).
fn render_json(opts: &Opts, bins: u64, total_ops: u64, kernel_keys: u64, cells: &[Cell]) -> String {
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"experiment\": \"hotpath\",");
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    let _ = writeln!(json, "  \"parallelism\": {parallelism},");
    let _ = writeln!(json, "  \"bins\": {bins},");
    let _ = writeln!(json, "  \"total_ops\": {total_ops},");
    let _ = writeln!(json, "  \"kernel_keys\": {kernel_keys},");
    let _ = writeln!(json, "  \"batch_size\": {BATCH},");
    let _ = writeln!(json, "  \"cells\": [");
    for (i, cell) in cells.iter().enumerate() {
        let obj = JsonObject::new()
            .field_str("scenario", &cell.scenario)
            .field_str("ingest", cell.ingest)
            .field_raw("ops_per_sec", &format!("{:.0}", cell.ops_per_sec));
        let ns = |obj: JsonObject, name: &str, value: Option<f64>| match value {
            Some(v) => obj.field_raw(name, &format!("{v:.1}")),
            None => obj.field_raw(name, "null"),
        };
        let obj = ns(obj, "insert_ns", cell.insert_ns);
        let obj = ns(obj, "lookup_ns", cell.lookup_ns);
        let obj = ns(obj, "delete_ns", cell.delete_ns);
        let line = obj
            .field_u64("max_load", u64::from(cell.max_load))
            .field_u64("balls", cell.balls)
            .field_bool("identical", cell.identical)
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
    fn hotpath_experiment_verifies_and_emits_json() {
        let opts = Opts {
            trials: 1,
            seed: 3,
            threads: 0,
            full: false,
        };
        let path =
            std::env::temp_dir().join(format!("BENCH_hotpath_test_{}.json", std::process::id()));
        let text = run_matrix(&opts, 4_096, 2_048, &path);
        for name in ["uniform", "zipf", "churn"] {
            assert!(text.contains(name), "missing scenario {name}: {text}");
        }
        for name in KERNEL_SCHEMES {
            assert!(text.contains(name), "missing scheme {name}: {text}");
        }
        assert!(text.contains("bit-identical to"), "{text}");
        assert!(!text.contains("DIVERGE"), "{text}");
        let json = std::fs::read_to_string(&path).expect("json written");
        std::fs::remove_file(&path).ok();
        assert!(json.contains("\"experiment\": \"hotpath\""), "{json}");
        assert!(json.contains("\"parallelism\": "), "{json}");
        assert!(json.contains("\"ingest\": \"keyed\""), "{json}");
        assert!(json.contains("\"ingest\": \"stream\""), "{json}");
        assert!(json.contains("\"insert_ns\": null"), "{json}");
        assert!(json.contains("\"lookup_ns\": "), "{json}");
        assert!(json.contains("\"identical\": true"), "{json}");
        assert!(!json.contains("\"identical\": false"), "{json}");
        // The gate must be able to round-trip the document: every cell
        // parsed, no duplicates, all bit-identical.
        let cells = crate::gate::parse_cells(&json).expect("gate parses hotpath json");
        assert_eq!(cells.len(), SCENARIOS.len() * 2 + KERNEL_SCHEMES.len() * 2);
        assert!(cells.iter().all(|c| c.identical));
        assert!(crate::gate::gate_rates(&cells, &cells, 0.2).is_ok());
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }
}
