//! Self-test: a tiny run of every workload, traced and untraced, must
//! pass its correctness checks and print every metric `BENCHMARK.json`
//! names, with that metric's unit.

use std::process::Command;

/// `(name, unit)` of every metric listed under `section` in the
/// repository's `BENCHMARK.json`, which keeps one metric per line.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let start = doc
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let end = doc[start..].find(']').expect("section closes") + start;
    doc[start..end]
        .lines()
        .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
        .collect()
}

/// The string value of `"key": "value"` on `line`.
fn field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let from = line.find(&tag)? + tag.len();
    let len = line[from..].find('"')?;
    Some(line[from..from + len].to_string())
}

fn workloads() -> Vec<String> {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside perfbench/");
    let start = doc.find("\"workloads\"").expect("workloads listed");
    let end = doc[start..].find(']').expect("workloads close") + start;
    doc[start..end]
        .lines()
        .filter_map(|line| field(line, "name"))
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.01"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let names = workloads();
    assert_eq!(names.len(), 4, "four workloads listed");
    for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
        let metrics = listed(section);
        assert!(!metrics.is_empty(), "{section} lists metrics");
        for workload in &names {
            let stdout = run(workload, trace);
            assert!(stdout.starts_with("header {"), "run header first");
            for key in [
                "\"seed\": 7",
                "\"shards\"",
                "\"batch\": 1024",
                "\"revision\"",
            ] {
                assert!(stdout.contains(key), "header lacks {key}");
            }
            let last = stdout.lines().last().expect("output");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload}: {last}"
            );
            assert!(last.contains("\"failed\": 0,"), "{workload}: {last}");
            for (name, unit) in &metrics {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing in {last}"));
                let rest = &last[at + entry.len()..];
                let value = &rest[..rest.find(',').expect("value ends")];
                assert!(
                    value.parse::<f64>().is_ok(),
                    "{workload}: {name} = {value} is not a number"
                );
                assert!(
                    rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
                    "{workload}: {name} lacks unit {unit}"
                );
            }
        }
    }
}
