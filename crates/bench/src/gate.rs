//! The perf-trajectory gate: compares a freshly generated
//! `BENCH_pipeline.json` or `BENCH_hotpath.json` against a committed
//! baseline and fails on regression.
//!
//! CI regenerates both sweeps on every run; without a gate, a
//! throughput regression only shows up as a diff nobody reads. This
//! module parses both documents with a dependency-free line scanner
//! (the workspace takes no serialization crate), matches cells by
//! `(scenario, ingest, queue_depth)`, and reports every cell whose
//! `ops_per_sec` fell more than the tolerance below its baseline —
//! along with any baseline cell that vanished from the candidate, any
//! candidate cell the baseline never had (a silently grown or shrunk
//! sweep fails loudly instead of sliding through unmatched), and any
//! cell that lost the `identical` bit-identity check.
//!
//! Wired into the CLI as `tables gate <baseline> <candidate>` and run by
//! CI's benches job with a 20% tolerance (generous, because shared
//! runners are noisy; trend-sized regressions still trip it).

use std::fmt::Write as _;
use std::path::Path;

/// One parsed throughput cell of a `BENCH_pipeline.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRate {
    /// Scenario name (`uniform`, `zipf`, ...).
    pub scenario: String,
    /// Ingest mode (`phased` or `pipelined`).
    pub ingest: String,
    /// Queue depth for pipelined cells; `None` for phased.
    pub depth: Option<u64>,
    /// The cell's `ops_per_sec` wall rate.
    pub rate: f64,
    /// Whether the cell passed the bit-identity verification.
    pub identical: bool,
}

impl CellRate {
    /// The cell's `(scenario, ingest, depth)` identity as a display key.
    pub fn key(&self) -> String {
        let mut key = format!("{}/{}", self.scenario, self.ingest);
        if let Some(d) = self.depth {
            let _ = write!(key, " depth {d}");
        }
        key
    }

    /// Whether two cells name the same point of the sweep.
    fn same_point(&self, other: &CellRate) -> bool {
        self.scenario == other.scenario && self.ingest == other.ingest && self.depth == other.depth
    }
}

/// Extracts the value following `"key": ` on a line, up to the next
/// `,` or `}`. Returns `None` if the key is absent.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let rest = line[start..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Parses every cell line of a `BENCH_pipeline.json` document. Cell
/// lines are recognized by carrying all of `scenario`, `ingest`, and
/// `ops_per_sec`; the document's header fields are skipped. Returns an
/// error naming the line on any malformed cell.
pub fn parse_cells(text: &str) -> Result<Vec<CellRate>, String> {
    let mut cells = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let Some(scenario) = field(line, "scenario") else {
            continue;
        };
        let bad = |what: &str| format!("line {}: {what}: {line}", i + 1);
        let ingest = field(line, "ingest").ok_or_else(|| bad("missing ingest"))?;
        let rate = field(line, "ops_per_sec")
            .ok_or_else(|| bad("missing ops_per_sec"))?
            .parse::<f64>()
            .map_err(|_| bad("unparseable ops_per_sec"))?;
        let depth = match field(line, "queue_depth") {
            None | Some("null") => None,
            Some(raw) => Some(
                raw.parse::<u64>()
                    .map_err(|_| bad("unparseable queue_depth"))?,
            ),
        };
        let identical = match field(line, "identical") {
            Some("true") => true,
            Some("false") => false,
            _ => return Err(bad("missing identical")),
        };
        cells.push(CellRate {
            scenario: scenario.trim_matches('"').to_string(),
            ingest: ingest.trim_matches('"').to_string(),
            depth,
            rate,
            identical,
        });
    }
    if cells.is_empty() {
        return Err("no cells found (not a BENCH_pipeline.json document?)".into());
    }
    Ok(cells)
}

/// Compares candidate cells against baseline cells. `tolerance` is the
/// allowed fractional rate drop (0.20 = a cell may be up to 20% slower
/// than its baseline). The floor is *inclusive*: a candidate at exactly
/// `baseline × (1 − tolerance)` passes, anything strictly below fails.
/// Returns a per-cell report on success; an error listing every
/// violation — regressed cell, missing cell, extra cell, unusable rate,
/// or failed bit-identity — on failure.
///
/// Rates must be finite and strictly positive in *both* documents. A
/// NaN rate (which `parse_cells` accepts — `"NaN".parse::<f64>()`
/// succeeds) would otherwise sail through the `<` comparison below, and
/// a zero or negative baseline rate makes the floor vacuous: either way
/// a malformed `BENCH_pipeline.json` would silently pass the gate.
pub fn gate_rates(
    baseline: &[CellRate],
    candidate: &[CellRate],
    tolerance: f64,
) -> Result<String, String> {
    assert!(
        (0.0..1.0).contains(&tolerance),
        "tolerance must be a fraction in [0, 1)"
    );
    let mut report = String::new();
    let mut violations = Vec::new();
    for (label, cells) in [("baseline", baseline), ("candidate", candidate)] {
        for cell in cells {
            if !cell.rate.is_finite() || cell.rate <= 0.0 {
                violations.push(format!(
                    "cell {} in {label} document has unusable ops_per_sec {} \
                     (need a finite rate > 0; malformed document?)",
                    cell.key(),
                    cell.rate
                ));
            }
        }
    }
    // Duplicate cells make the gate ambiguous: the match below takes the
    // first cell at each point, so a malformed sweep with two rows for
    // one (scenario, ingest, depth) point would gate only one of them. Fail loudly on duplicates in either document instead.
    for (label, cells) in [("baseline", baseline), ("candidate", candidate)] {
        for (i, cell) in cells.iter().enumerate() {
            if cells[..i].iter().any(|prior| prior.same_point(cell)) {
                violations.push(format!(
                    "duplicate cell {} in {label} document (only the first \
                     occurrence would be gated)",
                    cell.key()
                ));
            }
        }
    }
    // A candidate cell with no baseline counterpart means the sweep
    // changed shape without the committed file following — fail loudly
    // rather than leaving the new cell ungated.
    for cand in candidate {
        if !baseline.iter().any(|b| b.same_point(cand)) {
            violations.push(format!(
                "cell {} not in baseline (sweep changed shape? regenerate and commit the baseline)",
                cand.key()
            ));
        }
    }
    for base in baseline {
        let Some(cand) = candidate.iter().find(|c| c.same_point(base)) else {
            violations.push(format!("cell {} missing from candidate", base.key()));
            continue;
        };
        if !cand.identical {
            violations.push(format!("cell {} lost bit-identity", cand.key()));
            continue;
        }
        let floor = base.rate * (1.0 - tolerance);
        let verdict = if cand.rate < floor {
            violations.push(format!(
                "cell {} regressed: {:.0} ops/s vs baseline {:.0} (floor {:.0})",
                cand.key(),
                cand.rate,
                base.rate,
                floor
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        let _ = writeln!(
            report,
            "{:<28} baseline {:>12.0}  candidate {:>12.0}  {}",
            base.key(),
            base.rate,
            cand.rate,
            verdict
        );
    }
    if violations.is_empty() {
        Ok(report)
    } else {
        Err(violations.join("\n"))
    }
}

/// The CLI entry: reads both files, parses, and gates rates at
/// `tolerance`. Returns the rendered per-cell report, or an error message
/// suitable for stderr.
pub fn gate_files(baseline: &Path, candidate: &Path, tolerance: f64) -> Result<String, String> {
    let read = |path: &Path| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let base = parse_cells(&read(baseline)?)
        .map_err(|e| format!("baseline {}: {e}", baseline.display()))?;
    let cand = parse_cells(&read(candidate)?)
        .map_err(|e| format!("candidate {}: {e}", candidate.display()))?;
    gate_rates(&base, &cand, tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rate_uniform: f64, identical: bool) -> String {
        format!(
            "{{\n  \"experiment\": \"pipeline\",\n  \"seed\": 2014,\n  \"parallelism\": 16,\n  \
             \"cells\": [\n    \
             {{\"scenario\": \"uniform\", \"ingest\": \"pipelined\", \"queue_depth\": 4, \
             \"ops_per_sec\": {rate_uniform}, \"stalls\": 3, \
             \"identical\": {identical}}},\n    \
             {{\"scenario\": \"uniform\", \"ingest\": \"phased\", \"queue_depth\": null, \
             \"ops_per_sec\": 1000000, \"stalls\": 0, \
             \"identical\": true}}\n  ]\n}}\n"
        )
    }

    #[test]
    fn parses_cells_and_skips_header() {
        let cells = parse_cells(&doc(2.5e6, true)).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].scenario, "uniform");
        assert_eq!(cells[0].ingest, "pipelined");
        assert_eq!(cells[0].depth, Some(4));
        assert_eq!(cells[0].rate, 2.5e6);
        assert!(cells[0].identical);
        assert_eq!(cells[1].depth, None);
    }

    #[test]
    fn empty_document_is_an_error() {
        assert!(parse_cells("{}\n").is_err());
    }

    #[test]
    fn equal_rates_pass_and_report() {
        let base = parse_cells(&doc(2.0e6, true)).unwrap();
        let report = gate_rates(&base, &base, 0.2).unwrap();
        assert!(report.contains("uniform/pipelined depth 4"), "{report}");
        assert!(report.contains("ok"), "{report}");
        assert!(!report.contains("REGRESSED"), "{report}");
    }

    #[test]
    fn small_slowdown_within_tolerance_passes() {
        let base = parse_cells(&doc(2.0e6, true)).unwrap();
        let cand = parse_cells(&doc(1.7e6, true)).unwrap();
        assert!(gate_rates(&base, &cand, 0.2).is_ok());
    }

    #[test]
    fn big_regression_fails_with_the_cell_named() {
        let base = parse_cells(&doc(2.0e6, true)).unwrap();
        let cand = parse_cells(&doc(1.5e6, true)).unwrap();
        let err = gate_rates(&base, &cand, 0.2).unwrap_err();
        assert!(err.contains("uniform/pipelined depth 4"), "{err}");
        assert!(err.contains("regressed"), "{err}");
    }

    #[test]
    fn candidate_exactly_at_the_floor_passes_and_below_fails() {
        let base = parse_cells(&doc(2.0e6, true)).unwrap();
        let mut cand = base.clone();
        // The floor bound is closed: exactly 20% down is still within
        // tolerance; one ulp below is not.
        cand[0].rate = base[0].rate * (1.0 - 0.2);
        assert!(gate_rates(&base, &cand, 0.2).is_ok());
        cand[0].rate = f64::from_bits(cand[0].rate.to_bits() - 1);
        let err = gate_rates(&base, &cand, 0.2).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
    }

    #[test]
    fn nan_and_nonpositive_rates_fail_in_either_document() {
        let good = parse_cells(&doc(2.0e6, true)).unwrap();
        for bad_rate in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0e6] {
            for side in ["baseline", "candidate"] {
                let mut bad = good.clone();
                bad[0].rate = bad_rate;
                let (b, c) = if side == "baseline" {
                    (&bad, &good)
                } else {
                    (&good, &bad)
                };
                let err = gate_rates(b, c, 0.2).unwrap_err();
                assert!(
                    err.contains("unusable ops_per_sec"),
                    "rate {bad_rate} in {side}: {err}"
                );
                assert!(err.contains(side), "{err}");
            }
        }
    }

    #[test]
    fn rounds_cell_in_only_one_document_fails_loudly() {
        // The rounds sweep writes `"ingest": "rounds"` cells with no
        // queue depth; a document that grew (or lost) them without its
        // counterpart following must not slide through unmatched.
        let base = parse_cells(&doc(2.0e6, true)).unwrap();
        let mut with_rounds = base.clone();
        with_rounds.push(CellRate {
            scenario: "uniform".into(),
            ingest: "rounds".into(),
            depth: None,
            rate: 1.5e6,
            identical: true,
        });
        let err = gate_rates(&base, &with_rounds, 0.2).unwrap_err();
        assert!(err.contains("uniform/rounds not in baseline"), "{err}");
        let err = gate_rates(&with_rounds, &base, 0.2).unwrap_err();
        assert!(
            err.contains("uniform/rounds missing from candidate"),
            "{err}"
        );
    }

    #[test]
    fn faster_candidate_always_passes() {
        let base = parse_cells(&doc(2.0e6, true)).unwrap();
        let cand = parse_cells(&doc(9.9e6, true)).unwrap();
        assert!(gate_rates(&base, &cand, 0.2).is_ok());
    }

    #[test]
    fn missing_cell_fails() {
        let base = parse_cells(&doc(2.0e6, true)).unwrap();
        let mut cand = base.clone();
        cand.remove(0);
        let err = gate_rates(&base, &cand, 0.2).unwrap_err();
        assert!(err.contains("missing from candidate"), "{err}");
    }

    #[test]
    fn extra_candidate_cell_fails() {
        let mut base = parse_cells(&doc(2.0e6, true)).unwrap();
        let cand = base.clone();
        base.remove(0);
        let err = gate_rates(&base, &cand, 0.2).unwrap_err();
        assert!(err.contains("not in baseline"), "{err}");
    }

    #[test]
    fn duplicate_candidate_cells_fail_loudly() {
        let base = parse_cells(&doc(2.0e6, true)).unwrap();
        let mut cand = base.clone();
        // Two rows for one sweep point, second one slower: without the
        // duplicate check the first-match lookup would gate only the
        // healthy row.
        let mut slow = cand[0].clone();
        slow.rate = 1.0;
        cand.push(slow);
        let err = gate_rates(&base, &cand, 0.2).unwrap_err();
        assert!(err.contains("duplicate cell"), "{err}");
        assert!(err.contains("candidate document"), "{err}");
        assert!(err.contains("uniform/pipelined depth 4"), "{err}");
    }

    #[test]
    fn duplicate_baseline_cells_fail_loudly() {
        let cand = parse_cells(&doc(2.0e6, true)).unwrap();
        let mut base = cand.clone();
        base.push(base[1].clone());
        let err = gate_rates(&base, &cand, 0.2).unwrap_err();
        assert!(err.contains("duplicate cell"), "{err}");
        assert!(err.contains("baseline document"), "{err}");
        assert!(err.contains("uniform/phased"), "{err}");
    }

    #[test]
    fn lost_bit_identity_fails_even_when_fast() {
        let base = parse_cells(&doc(2.0e6, true)).unwrap();
        let cand = parse_cells(&doc(9.9e6, false)).unwrap();
        let err = gate_rates(&base, &cand, 0.2).unwrap_err();
        assert!(err.contains("lost bit-identity"), "{err}");
    }

    #[test]
    fn gate_parses_the_real_renderer_output() {
        // End-to-end against the actual pipeline JSON shape: regenerate a
        // tiny sweep and gate it against itself.
        let opts = crate::Opts {
            trials: 1,
            seed: 3,
            threads: 0,
            full: false,
        };
        let path =
            std::env::temp_dir().join(format!("BENCH_gate_test_{}.json", std::process::id()));
        crate::pipeline::run_matrix(&opts, 4_096, &path);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let cells = parse_cells(&text).unwrap();
        let report = gate_rates(&cells, &cells, 0.2).unwrap();
        assert!(report.contains("uniform/phased"), "{report}");
        assert!(report.contains("zipf/pipelined depth 64"), "{report}");
        assert!(!report.contains("REGRESSED"), "{report}");
    }

    #[test]
    fn file_gate_reads_hotpath_documents_and_names_unreadable_files() {
        // The one file gate serves every sweep document, including the
        // hotpath one with extra per-cell fields.
        let dir = std::env::temp_dir();
        let base_path = dir.join(format!("BENCH_hotpath_base_{}.json", std::process::id()));
        let cand_path = dir.join(format!("BENCH_hotpath_cand_{}.json", std::process::id()));
        let doc = "{\n  \"experiment\": \"hotpath\",\n  \"cells\": [\n    \
                   {\"scenario\": \"uniform\", \"ingest\": \"keyed\", \
                   \"ops_per_sec\": 1000000, \"insert_ns\": null, \"identical\": true}\n  ]\n}\n";
        std::fs::write(&base_path, doc).unwrap();
        std::fs::write(&cand_path, doc).unwrap();
        let report = gate_files(&base_path, &cand_path, 0.2);
        let absent = dir.join(format!("BENCH_absent_{}.json", std::process::id()));
        let missing = gate_files(&base_path, &absent, 0.2);
        std::fs::remove_file(&base_path).ok();
        std::fs::remove_file(&cand_path).ok();
        assert!(report.unwrap().contains("uniform/keyed"));
        assert!(missing.unwrap_err().contains("cannot read"));
    }
}
