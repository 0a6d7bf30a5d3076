//! `perfbench`: one benchmark of the `ba_engine` serving path.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Runs one of four named workloads (see [`spec::SPECS`]) closed-loop
//! for `--seconds` of timed serving, checks every pass against a
//! reference, and prints a run header, one line per metric, and as its
//! last line a JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! adds a traced replay and reports the per-layer metrics instead.
//! `--tiny` shrinks every pass to a few batches (the self-test). The
//! exit code is non-zero if any check failed.

mod check;
mod drive;
mod spec;
mod trace;
mod util;

use spec::{Spec, BATCH, QUEUE_DEPTH};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: util::CountingAlloc = util::CountingAlloc;

/// Timed batches a run needs at least, and the window the p99 is taken
/// over: 12 latencies lie beyond each window's p99.
const MIN_BATCHES: u64 = 1200;
/// Bytes per MiB.
const MIB: f64 = (1u64 << 20) as f64;
/// Wall-clock budget of the measuring loop, whatever the run length.
const WALL_CAP: Duration = Duration::from_secs(100);

/// Parsed command line.
pub struct Args {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
}

impl Args {
    /// Batches per pass.
    pub fn pass_batches(&self) -> u64 {
        if self.tiny {
            4
        } else {
            self.spec.pass_batches
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = Spec::by_name(&name).ok_or_else(|| {
        let names: Vec<_> = spec::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; known: {}", names.join(", "))
    })?;
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        spec,
        seed: seed.unwrap_or(2014),
        seconds,
        trace: trace.unwrap_or(false),
        tiny,
    })
}

/// What the untraced passes of a run measured.
pub struct Measured {
    pub passes: u64,
    pub ops: u64,
    pub timed_ns: u64,
    pub pass_rates: Vec<f64>,
    pub latencies: Vec<u64>,
    pub setup_s: Vec<f64>,
    pub peak_mb: Vec<f64>,
    pub gaps: Vec<f64>,
    pub over_mean1: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Measured {
    /// Median over passes of each pass's ops per second of timed drive:
    /// a pass disturbed by another tenant on the host moves the median
    /// far less than the aggregate rate.
    pub fn ops_per_sec(&self) -> f64 {
        util::median(&self.pass_rates)
    }
}

/// Serves passes until the run length, the batch floor, and the pass
/// floor are all met, checking each pass.
fn measure(args: &Args) -> Measured {
    let spec = args.spec;
    let batches = args.pass_batches();
    let (min_batches, min_passes) = if args.tiny {
        (0, 2)
    } else {
        (MIN_BATCHES, spec.min_passes)
    };
    let mut m = Measured {
        passes: 0,
        ops: 0,
        timed_ns: 0,
        pass_rates: Vec::new(),
        latencies: Vec::new(),
        setup_s: Vec::new(),
        peak_mb: Vec::new(),
        gaps: Vec::new(),
        over_mean1: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    // One untimed, unchecked pass first: it leaves the allocator holding
    // the blocks every later pass reuses (see `util::CountingAlloc`), so
    // OS page faults for them land outside the timed passes.
    let seed = util::pass_seed(args.seed, u64::MAX);
    let mut engine = spec::engine(spec.config(seed));
    drive::serve(&mut engine, spec.generator(seed).as_mut(), batches, false);
    drop(engine);
    let wall = Instant::now();
    while m.timed_ns as f64 / 1e9 < args.seconds
        || m.latencies.len() < min_batches as usize
        || m.passes < min_passes
    {
        if wall.elapsed() > WALL_CAP {
            break;
        }
        let seed = util::pass_seed(args.seed, m.passes);
        let heap_base = util::heap_bytes();
        util::reset_peak_heap();
        let t0 = Instant::now();
        let mut gen = spec.generator(seed);
        let mut engine = spec::engine(spec.config(seed));
        drive::warm_up(spec, &mut engine);
        if spec.sink {
            engine.set_sink(Box::new(ba_engine::WindowedAggregator::new(
                Duration::from_millis(spec::SINK_WINDOW_MS),
            )));
        }
        m.setup_s.push(t0.elapsed().as_secs_f64());
        let served = drive::serve(&mut engine, gen.as_mut(), batches, false);
        // The most heap the generator and engine held at once.
        m.peak_mb
            .push(util::peak_heap_bytes().saturating_sub(heap_base) as f64 / MIB);
        engine.take_sink();
        let snapshot = check::Snapshot::capture(served.summary, &engine);
        drop(engine);
        drop(gen);
        let attempted = batches * BATCH as u64;
        let failures = check::check_pass(spec, seed, batches, &snapshot);
        m.attempted += attempted;
        if failures.is_empty() {
            m.failed += attempted.saturating_sub(snapshot.summary.total_ops());
        } else {
            m.failed += attempted;
            m.failures.extend(
                failures
                    .into_iter()
                    .map(|f| format!("pass {}: {f}", m.passes)),
            );
        }
        m.ops += served.summary.total_ops();
        m.timed_ns += served.elapsed_ns();
        m.pass_rates
            .push(served.summary.total_ops() as f64 / (served.elapsed_ns() as f64 / 1e9));
        served.batch_latencies(&mut m.latencies);
        m.gaps.push(snapshot.gap());
        m.over_mean1.push(snapshot.over_mean1_frac());
        m.passes += 1;
    }
    m
}

/// The run header: everything two results must share to be compared.
fn header(args: &Args) -> String {
    let spec = args.spec;
    let revision = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let queue_depth = match spec.ingest {
        spec::Ingest::Pipelined => QUEUE_DEPTH,
        _ => 0,
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"shards\": {}, \"bins_per_shard\": {}, \
         \"batch\": {BATCH}, \"queue_depth\": {queue_depth}, \"pass_ops\": {}, \
         \"run_seconds\": {}, \"trace\": {}, \"profile\": \"{profile}\", \
         \"revision\": \"{revision}\", \"nproc\": {nproc}}}",
        spec.name,
        args.seed,
        spec.shards,
        spec.bins_per_shard,
        args.pass_batches() * BATCH as u64,
        args.seconds,
        u8::from(args.trace),
    )
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn end_to_end(spec: &Spec, pass_batches: u64, m: &Measured) -> Vec<Metric> {
    let mut lat = m.latencies.clone();
    lat.sort_unstable();
    let us = |ns: u64| ns as f64 / 1e3;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let balance_passes = (m.passes as usize).min(spec.min_passes as usize);
    vec![
        Metric {
            name: "ops_per_sec",
            value: m.ops_per_sec(),
            unit: "1/s",
        },
        Metric {
            name: "batch_p50_us",
            value: us(util::percentile(&lat, 50.0)),
            unit: "us",
        },
        Metric {
            name: "batch_p99_us",
            value: windowed_p99_ns(&m.latencies, pass_batches) / 1e3,
            unit: "us",
        },
        Metric {
            name: "gap",
            value: mean(&m.gaps[..balance_passes]),
            unit: "balls",
        },
        Metric {
            name: "bins_over_mean1_frac",
            value: mean(&m.over_mean1[..balance_passes]),
            unit: "fraction",
        },
        Metric {
            name: "setup_s",
            value: util::median(&m.setup_s),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: util::median(&m.peak_mb),
            unit: "MiB",
        },
    ]
}

/// The p99 batch latency of each window of whole passes holding at
/// least `MIN_BATCHES` batches (the last window absorbs the remainder),
/// and the median of those: the tail a typical stretch of serving
/// shows, which one disturbed stretch on a shared host cannot move.
/// Windows start at pass boundaries, so each holds the same mix of
/// index-growth batches.
fn windowed_p99_ns(latencies: &[u64], pass_batches: u64) -> f64 {
    let window = (MIN_BATCHES.div_ceil(pass_batches) * pass_batches) as usize;
    let window = window.min(latencies.len()).max(1);
    let windows = (latencies.len() / window).max(1);
    let p99s: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                latencies.len()
            } else {
                (w + 1) * window
            };
            let mut part = latencies[w * window..end].to_vec();
            part.sort_unstable();
            util::percentile(&part, 99.0) as f64
        })
        .collect();
    util::median(&p99s)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    println!("header {}", header(&args));
    let measured = measure(&args);
    let mut failures = measured.failures.clone();
    let (mut attempted, mut failed) = (measured.attempted, measured.failed);
    let metrics = if args.trace {
        let traced = trace::run(&args, &measured);
        attempted += traced.attempted;
        failed += traced.failed;
        failures.extend(traced.failures);
        traced.metrics
    } else {
        end_to_end(args.spec, args.pass_batches(), &measured)
    };
    let error_rate = failed as f64 / attempted.max(1) as f64;
    println!(
        "run passes={} timed_s={:.3} batches={} error_rate={error_rate}",
        measured.passes,
        measured.timed_ns as f64 / 1e9,
        measured.latencies.len(),
    );
    for f in &failures {
        println!("FAILED {f}");
    }
    for metric in &metrics {
        println!("metric {} {} {}", metric.name, metric.value, metric.unit);
    }
    let correct = failures.is_empty() && failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A JSON number for `v`; non-finite values (which JSON cannot hold)
/// become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
