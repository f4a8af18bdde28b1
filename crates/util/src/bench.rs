//! Wall-clock benchmark runner (std-only `criterion` replacement).
//!
//! Mirrors the criterion surface the workspace's benches use —
//! `Criterion`, `benchmark_group`, `sample_size`, `bench_function`,
//! `bench_with_input`, `BenchmarkId`, `black_box`, and the
//! `criterion_group!` / `criterion_main!` macros — so a bench file
//! only swaps its `use criterion::...` line.
//!
//! Each sample times one invocation of the measured closure; the
//! runner warms up first, then reports `[min median max]` per
//! benchmark. Environment knobs:
//!
//! * `CAPSYS_BENCH_QUICK=1` — one warm-up, one sample (smoke mode; CI
//!   uses this to prove benches run end-to-end without burning time).
//! * `CAPSYS_BENCH_JSON=<path>` — append one JSON line per benchmark
//!   (`{"bench": ..., "median_ns": ...}`), building the perf
//!   trajectory across commits.
//!
//! A single positional CLI argument filters benchmarks by substring,
//! like criterion: `cargo bench --bench caps_search -- alpha1`.

use std::time::Instant;

pub use std::hint::black_box;

pub use crate::{criterion_group, criterion_main};

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A compound id, rendered `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            label: format!("{}/{parameter}", name.into()),
        }
    }

    /// An id that is just the parameter value.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId {
            label: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId { label: s }
    }
}

/// Passed to the measured closure; its [`iter`](Bencher::iter) method
/// runs and times the workload.
pub struct Bencher<'a> {
    samples: usize,
    warmup: usize,
    results_ns: &'a mut Vec<u128>,
}

impl Bencher<'_> {
    /// Times `routine`, collecting the configured number of samples.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        for _ in 0..self.warmup {
            black_box(routine());
        }
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            self.results_ns.push(start.elapsed().as_nanos());
        }
    }
}

/// Top-level benchmark driver; one per bench binary.
pub struct Criterion {
    filter: Option<String>,
    quick: bool,
    json_path: Option<String>,
    default_samples: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            filter: None,
            quick: std::env::var("CAPSYS_BENCH_QUICK").is_ok_and(|v| v != "0"),
            json_path: std::env::var("CAPSYS_BENCH_JSON").ok(),
            default_samples: 20,
        }
    }
}

impl Criterion {
    /// Builds a driver from CLI args: flags are ignored (cargo passes
    /// `--bench`), the first positional argument is a substring filter.
    pub fn from_env() -> Criterion {
        let mut c = Criterion::default();
        for arg in std::env::args().skip(1) {
            if arg == "--test" {
                // `cargo test --benches` smoke-runs each bench binary.
                c.quick = true;
            } else if !arg.starts_with('-') {
                c.filter = Some(arg);
            }
        }
        c
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            samples: None,
        }
    }

    /// Runs one ungrouped benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Criterion {
        let samples = self.default_samples;
        self.run_one(None, &id.into(), samples, f);
        self
    }

    fn run_one(
        &mut self,
        group: Option<&str>,
        id: &BenchmarkId,
        samples: usize,
        mut f: impl FnMut(&mut Bencher),
    ) {
        let full_name = match group {
            Some(g) => format!("{g}/{}", id.label),
            None => id.label.clone(),
        };
        if let Some(filter) = &self.filter {
            if !full_name.contains(filter.as_str()) {
                return;
            }
        }
        let (samples, warmup) = if self.quick { (1, 1) } else { (samples, 2) };
        let mut results_ns = Vec::with_capacity(samples);
        let mut b = Bencher {
            samples,
            warmup,
            results_ns: &mut results_ns,
        };
        f(&mut b);
        if results_ns.is_empty() {
            // The closure never called `iter`; nothing to report.
            println!("{full_name:<50} (no measurement)");
            return;
        }
        results_ns.sort_unstable();
        let min = results_ns[0];
        let median = results_ns[results_ns.len() / 2];
        let max = results_ns[results_ns.len() - 1];
        println!(
            "{full_name:<50} time: [{} {} {}]  ({} samples)",
            format_ns(min),
            format_ns(median),
            format_ns(max),
            results_ns.len(),
        );
        if let Some(path) = &self.json_path {
            use crate::json::{obj, Json, ToJson};
            let line = obj(vec![
                ("bench", full_name.to_json()),
                ("samples", results_ns.len().to_json()),
                ("min_ns", Json::Num(min as f64)),
                ("median_ns", Json::Num(median as f64)),
                ("max_ns", Json::Num(max as f64)),
            ]);
            append_line(path, &line.to_string());
        }
    }
}

/// A named group of benchmarks sharing a sample-count setting.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    samples: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark in this group.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        assert!(samples > 0, "sample_size must be positive");
        self.samples = Some(samples);
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let samples = self.samples.unwrap_or(self.criterion.default_samples);
        let name = self.name.clone();
        self.criterion.run_one(Some(&name), &id.into(), samples, f);
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (kept for criterion API parity).
    pub fn finish(self) {}
}

fn format_ns(ns: u128) -> String {
    let ns = ns as f64;
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn append_line(path: &str, line: &str) {
    use std::io::Write;
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path);
    match file {
        Ok(mut f) => {
            let _ = writeln!(f, "{line}");
        }
        Err(e) => eprintln!("CAPSYS_BENCH_JSON: cannot open {path}: {e}"),
    }
}

/// Defines a bench group function from benchmark functions, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::bench::Criterion::from_env();
            $( $target(&mut criterion); )+
        }
    };
}

/// Defines `main` from bench group functions, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_requested_samples() {
        let mut results = Vec::new();
        let mut b = Bencher {
            samples: 5,
            warmup: 1,
            results_ns: &mut results,
        };
        let mut calls = 0usize;
        b.iter(|| calls += 1);
        assert_eq!(calls, 6); // 1 warmup + 5 samples
        assert_eq!(results.len(), 5);
    }

    #[test]
    fn groups_and_filters_run() {
        let mut c = Criterion {
            filter: Some("keep".into()),
            quick: true,
            json_path: None,
            default_samples: 3,
        };
        let mut ran = Vec::new();
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(2);
            g.bench_function("keep_this", |b| {
                b.iter(|| ran.push("keep"));
            });
            g.bench_with_input(BenchmarkId::new("skip", 4), &4, |b, &x| {
                b.iter(|| ran.push(if x == 4 { "skip" } else { "?" }));
            });
            g.finish();
        }
        assert_eq!(ran, vec!["keep", "keep"]); // quick: 1 warmup + 1 sample
    }

    #[test]
    fn benchmark_ids_render_like_criterion() {
        assert_eq!(BenchmarkId::new("alpha", 16).label, "alpha/16");
        assert_eq!(BenchmarkId::from_parameter(8).label, "8");
    }

    #[test]
    fn json_lines_are_appended_and_parse() {
        let path = std::env::temp_dir().join(format!(
            "capsys_bench_test_{}.jsonl",
            std::process::id()
        ));
        let path_str = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        let mut c = Criterion {
            filter: None,
            quick: true,
            json_path: Some(path_str.clone()),
            default_samples: 2,
        };
        c.bench_function("jsonline", |b| b.iter(|| black_box(2 + 2)));
        let contents = std::fs::read_to_string(&path).unwrap();
        let line = contents.lines().next().unwrap();
        let v = crate::json::Json::parse(line).unwrap();
        assert_eq!(v.get("bench").unwrap().as_str(), Some("jsonline"));
        assert!(v.get("median_ns").unwrap().as_f64().unwrap() >= 0.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn format_ns_uses_human_units() {
        assert_eq!(format_ns(500), "500 ns");
        assert_eq!(format_ns(1_500), "1.50 µs");
        assert_eq!(format_ns(2_500_000), "2.50 ms");
        assert_eq!(format_ns(3_000_000_000), "3.000 s");
    }
}
