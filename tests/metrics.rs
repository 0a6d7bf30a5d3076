//! Cross-layer acceptance tests for the telemetry subsystem.
//!
//! Three anchors, mirroring the replay suite's structure:
//!
//! 1. **Sketch oracle over the golden corpus** — for every golden
//!    scenario, every per-op-kind [`LoadHistogram`] in the merged
//!    [`OpObservations`](balanced_allocations::engine::OpObservations),
//!    converted via `to_sketch()`, reports p50/p99/max within one bin of
//!    the exact histogram (unit bins over integer loads: exactly equal),
//!    so the bounded-memory sketch path can replace the exact path
//!    without changing any reported number.
//! 2. **Merge reassembly** — splitting an engine's stats snapshot into
//!    per-shard-group pieces and re-merging with [`EngineStats::merge`]
//!    reproduces the single-engine snapshot, divergence-free — the
//!    cross-engine/cross-node aggregation contract, over real traffic.
//! 3. **Exporter fidelity** — serving with a [`JsonLinesExporter`]
//!    attached emits parseable JSON lines with the expected keys *and*
//!    leaves allocation results bit-identical to the sink-free run.

use balanced_allocations::prelude::*;
use balanced_allocations::workload::replay::{GOLDEN_KEYSPACE, GOLDEN_OPS, GOLDEN_SEED};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn golden_config() -> EngineConfig {
    EngineConfig::new(4, 1 << 10, 3).seed(GOLDEN_SEED)
}

#[test]
fn sketch_percentiles_match_exact_trackers_over_golden_corpus() {
    // The tentpole acceptance criterion: sketch vs exact, over every
    // golden scenario's merged observations. Integer loads into unit
    // bins make the sketch exact, not merely one-bin-close — assert the
    // stronger property and keep the one-bin bound as the documented
    // fallback.
    for scenario in Scenario::all() {
        let report = run_scenario(
            "double",
            &scenario,
            golden_config(),
            GOLDEN_KEYSPACE,
            GOLDEN_OPS,
            512,
        )
        .expect("known scheme");
        let observed = report.stats.merged_observations();
        let trackers = [
            ("insert_load", &observed.insert_load),
            ("insert_probe", &observed.insert_probe),
            ("delete_load", &observed.delete_load),
            ("lookup_depth", &observed.lookup_depth),
        ];
        for (name, exact) in trackers {
            if exact.total() == 0 {
                continue; // insert-only scenarios have no delete/lookup data
            }
            let sketch = exact.to_sketch().expect("non-empty tracker exports");
            assert_eq!(sketch.count(), exact.total(), "{}/{name}", scenario.name());
            for p in [50.0, 99.0] {
                let (s, e) = (sketch.percentile(p), f64::from(exact.percentile(p)));
                assert!(
                    (s - e).abs() <= 1.0,
                    "{}/{name} p{p}: sketch {s} vs exact {e} off by more than one bin",
                    scenario.name()
                );
                assert_eq!(
                    s,
                    e,
                    "{}/{name} p{p}: unit bins should be exact",
                    scenario.name()
                );
            }
            assert_eq!(
                sketch.max(),
                f64::from(exact.max()),
                "{}/{name} max",
                scenario.name()
            );
        }
    }
}

#[test]
fn merged_split_stats_match_single_engine_over_golden_corpus() {
    for scenario in Scenario::all() {
        let report = run_scenario(
            "double",
            &scenario,
            golden_config(),
            GOLDEN_KEYSPACE,
            GOLDEN_OPS,
            512,
        )
        .expect("known scheme");
        let whole = report.stats;
        let shards = whole.shards();
        // Split the snapshot as if shards 0-1 and 2-3 lived on separate
        // nodes, then aggregate the halves.
        let mut left = EngineStats::new(shards[..2].to_vec());
        let right = EngineStats::new(shards[2..].to_vec());
        left.merge(&right);
        assert!(
            left.matches(&whole),
            "{}: {:?}",
            scenario.name(),
            left.divergences(&whole)
        );
        assert_eq!(left.total_balls(), whole.total_balls());
        assert_eq!(left.max_load(), whole.max_load());
        // Merge must also reassemble out-of-order splits deterministically.
        let mut reversed = EngineStats::new(shards[2..].to_vec());
        reversed.merge(&EngineStats::new(shards[..2].to_vec()));
        assert!(reversed.matches(&whole), "{}", scenario.name());
    }
}

/// A `Write` target the test can read back after the exporter (boxed
/// into the engine) is gone.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Minimal structural JSON check for one exporter line: balanced braces
/// outside strings, expected keys present, no trailing comma.
fn assert_parses_as_metrics_line(line: &str) {
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    let mut depth = 0i32;
    let mut in_string = false;
    let mut prev = ' ';
    for c in line.chars() {
        match c {
            '"' if prev != '\\' => in_string = !in_string,
            '{' if !in_string => depth += 1,
            '}' if !in_string => {
                depth -= 1;
                assert!(prev != ',', "trailing comma: {line}");
            }
            _ => {}
        }
        prev = c;
    }
    assert_eq!(depth, 0, "unbalanced braces: {line}");
    assert!(!in_string, "unterminated string: {line}");
    for key in [
        "\"window\": ",
        "\"start_us\": ",
        "\"end_us\": ",
        "\"batches\": ",
        "\"ops\": ",
        "\"inserts\": ",
        "\"deletes\": ",
        "\"lookups\": ",
        "\"stalls\": ",
        "\"stall_us\": ",
        "\"apply_us\": {",
        "\"batch_ops\": {",
        "\"occupancy\": {",
    ] {
        assert!(line.contains(key), "missing {key}: {line}");
    }
    for nested in [
        "\"count\": ",
        "\"mean\": ",
        "\"p50\": ",
        "\"p99\": ",
        "\"max\": ",
    ] {
        assert!(
            line.contains(nested),
            "missing sketch field {nested}: {line}"
        );
    }
}

#[test]
fn exporter_emits_parseable_lines_and_results_stay_bit_identical() {
    // Both ingestion paths: phased (records as batches apply) and
    // pipelined (records at stream drain, stall accounting live).
    for pipelined in [false, true] {
        let config = || {
            let c = golden_config();
            if pipelined {
                c.pipelined(2)
            } else {
                c
            }
        };
        let plain = run_scenario(
            "double",
            &Scenario::Zipf { theta: 0.9 },
            config(),
            GOLDEN_KEYSPACE,
            GOLDEN_OPS,
            512,
        )
        .expect("known scheme");
        let buf = SharedBuf::default();
        let exporter = JsonLinesExporter::new(buf.clone(), Duration::from_millis(5));
        let observed = run_scenario_with_sink(
            "double",
            &Scenario::Zipf { theta: 0.9 },
            config(),
            GOLDEN_KEYSPACE,
            GOLDEN_OPS,
            512,
            Box::new(exporter),
        )
        .expect("known scheme");

        // Bit-identity: the exporter observed, never steered.
        assert_eq!(observed.summary, plain.summary, "pipelined={pipelined}");
        assert!(
            observed.stats.matches(&plain.stats),
            "pipelined={pipelined}: {:?}",
            observed.stats.divergences(&plain.stats)
        );

        // Every emitted line is a parseable metrics object, and the
        // stream accounts for every served op.
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).expect("exporter output is UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty(), "exporter emitted nothing");
        for line in &lines {
            assert_parses_as_metrics_line(line);
        }
        let total_ops: u64 = lines
            .iter()
            .map(|l| {
                let rest = &l[l.find("\"ops\": ").unwrap() + 7..];
                rest[..rest.find(',').unwrap()].parse::<u64>().unwrap()
            })
            .sum();
        assert_eq!(total_ops, GOLDEN_OPS, "pipelined={pipelined}");
    }
}

#[test]
fn windowed_aggregator_totals_match_shared_sink_totals() {
    // The aggregator is a lossless roll-up of the record stream: window
    // totals sum to exactly what a raw SharedSink collects.
    let records = {
        let sink = SharedSink::new();
        run_scenario_with_sink(
            "double",
            &Scenario::Churn {
                delete_fraction: 0.5,
            },
            golden_config().pipelined(2),
            GOLDEN_KEYSPACE,
            GOLDEN_OPS,
            512,
            Box::new(sink.clone()),
        )
        .expect("known scheme");
        sink.records()
    };
    let mut aggregator = WindowedAggregator::new(Duration::from_millis(2));
    for record in &records {
        aggregator.record(record);
    }
    let windows = aggregator.finish_all();
    assert_eq!(
        windows.iter().map(|w| w.batches).sum::<u64>(),
        records.len() as u64
    );
    assert_eq!(
        windows.iter().map(|w| w.ops).sum::<u64>(),
        records.iter().map(|r| u64::from(r.ops)).sum::<u64>()
    );
    assert_eq!(
        windows.iter().map(|w| w.stalls).sum::<u64>(),
        records.iter().map(|r| u64::from(r.stalls)).sum::<u64>()
    );
    // And the sketches hold every batch's latency sample.
    assert_eq!(
        windows.iter().map(|w| w.apply_us.count()).sum::<u64>(),
        records.len() as u64
    );
}
