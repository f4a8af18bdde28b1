//! The CAPSys benchmark: `place`, `fleet` and `adapt` workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload place --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with no spans recorded; `--trace 1` spends half the time
//! untraced and half traced, and reports the per-layer metrics and the
//! tracing overhead. Every run checks the outputs, appends a record to
//! `.perfbench/history.jsonl`, and prints one JSON result as the last
//! line of standard output. The exit code is non-zero when any
//! operation or output check failed. See `perfbench/README.md`.

mod adapt;
mod fleet;
mod metrics;
mod outputs;
mod place;
mod report;
mod span;
mod speed;
mod stats;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use capsys_util::json::{obj, Json};

use metrics::Metric;
use report::Run;
use span::Recorder;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// A seed kept out of every tuning run, for confirming a claimed gain on
/// inputs the change was not shaped on.
const HELD_OUT_SEED: u64 = 90_001;
/// Where run records and scratch files go, relative to the repository
/// root.
const STATE_DIR: &str = ".perfbench";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["place", "fleet", "adapt"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be place, fleet or adapt, got `{}`",
            args.workload
        ));
    }
    Ok(args)
}

fn run_workload(args: &Args, seconds: f64, scratch: &Path, rec: Option<&Recorder>) -> Run {
    let mut run = match args.workload.as_str() {
        "place" => place::run(args.seed, seconds, rec),
        "fleet" => fleet::run(args.seed, seconds, rec),
        _ => adapt::run(args.seed, seconds, scratch, rec),
    };
    run.settle();
    run
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The commit checked out, read from `.git` without running git.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Appends one provenance-stamped record to the run history.
fn append_history(args: &Args, run: &Run, metrics: &[Metric], wall_s: f64) {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let record = obj(vec![
        ("schema", Json::Str("capsys/perfbench/v1".into())),
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("default_seed", Json::Num(DEFAULT_SEED as f64)),
        ("held_out_seed", Json::Num(HELD_OUT_SEED as f64)),
        ("trace", Json::Bool(args.trace)),
        ("seconds", Json::Num(args.seconds)),
        ("wall_s", Json::Num(wall_s)),
        ("hardware_threads", Json::Num(threads as f64)),
        ("git_rev", Json::Str(git_rev())),
        ("ops", Json::Num(run.op_ms.len() as f64)),
        ("rounds", Json::Num(run.rounds() as f64)),
        ("attempted", Json::Num(run.attempted as f64)),
        ("failed", Json::Num(run.failed() as f64)),
        (
            "failed_frac",
            Json::Num(run.failed() as f64 / run.attempted.max(1) as f64),
        ),
        (
            "raw_op_ms_quartiles",
            Json::Arr(
                stats::quartiles(&run.best_raw_op_ms())
                    .map(|q| q.iter().map(|&v| Json::Num(v)).collect())
                    .unwrap_or_default(),
            ),
        ),
        (
            "raw_setup_s",
            stats::median(&run.raw_setup_s).map_or(Json::Null, Json::Num),
        ),
        (
            "setup_iqr_frac",
            stats::iqr_frac(&run.setup_s).map_or(Json::Null, Json::Num),
        ),
        (
            "probe_ms_quartiles",
            Json::Arr(
                stats::quartiles(run.meter.probes())
                    .map(|q| q.iter().map(|&v| Json::Num(v)).collect())
                    .unwrap_or_default(),
            ),
        ),
        ("metrics", metrics_json(metrics)),
    ]);
    let written = std::fs::create_dir_all(STATE_DIR).and_then(|_| {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(Path::new(STATE_DIR).join("history.jsonl"))?;
        writeln!(f, "{}", record.to_string())
    });
    if let Err(e) = written {
        eprintln!("warning: run history not written: {e}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload place|fleet|adapt [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let started = std::time::Instant::now();
    let scratch: PathBuf = Path::new(STATE_DIR).join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }

    let (run, metrics) = if args.trace {
        let plain = run_workload(&args, args.seconds / 2.0, &scratch, None);
        let rec = Recorder::default();
        let mut run = run_workload(&args, args.seconds / 2.0, &scratch, Some(&rec));
        run.attempted += plain.attempted;
        run.failures.extend(plain.failures.iter().cloned());
        let metrics = metrics::per_layer(&run, &rec.spans(), metrics::ops_per_s(&plain));
        (run, metrics)
    } else {
        let mut run = run_workload(&args, args.seconds, &scratch, None);
        let metrics = metrics::end_to_end(&mut run, peak_rss_mb());
        (run, metrics)
    };
    let _ = std::fs::remove_dir_all(&scratch);

    let wall_s = started.elapsed().as_secs_f64();
    append_history(&args, &run, &metrics, wall_s);
    for &(name, value, unit) in &metrics {
        eprintln!("{name:>36} {value:>16.6} {unit}");
    }
    eprintln!(
        "{}: {} ops attempted, {} failed, {wall_s:.1}s wall",
        args.workload,
        run.attempted,
        run.failed()
    );
    let correct = run.failures.is_empty();
    let result = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(run.attempted as f64)),
        ("failed", Json::Num(run.failed() as f64)),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{}", result.to_string());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
