//! Turning a run into named metrics: the end-to-end set (untraced run)
//! and the per-layer set (traced run).

use crate::report::Run;
use crate::span::{self_time, Span};
use crate::stats;

/// A named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("plan_cost", "ratio"),
    ("slots_peak", "slots"),
];

/// Metrics every traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("model.loads_us", "us"),
    ("core.setup_us", "us"),
    ("core.tune_ms", "ms"),
    ("core.tune_probes", "count/op"),
    ("core.tune_cache_hit_ratio", "ratio"),
    ("core.search_ms", "ms"),
    ("core.nodes", "count/op"),
    ("core.nodes_per_s", "1/s"),
    ("core.prune_ratio", "ratio"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.plans_found", "count/op"),
    ("placement.calls", "count"),
    ("placement.ms_total", "ms"),
    ("placement.ms_p95", "ms"),
    ("sim.advance_ms", "ms"),
    ("sim.task_ticks_per_s", "1/s"),
    ("sim.bytes_moved", "bytes"),
    ("sim.goodput_ratio", "ratio"),
    ("sim.backpressure_mean", "ratio"),
    ("sim.latency_p95_s", "sim_s"),
    ("sim.downtime_s", "sim_s"),
    ("ds2.decide_us", "us"),
    ("ds2.scalings", "count"),
    ("controller.self_ms", "ms"),
    ("controller.journal.append_us", "us"),
    ("controller.journal.records", "count"),
    ("controller.journal.bytes", "bytes"),
    ("controller.journal.parse_ms", "ms"),
    ("controller.recover_ms", "ms"),
    ("controller.replay_windows_per_s", "1/s"),
    ("controller.recoveries", "count"),
    ("controller.rollbacks", "count"),
    ("controller.sheds", "count"),
    ("controller.migration_waves", "count"),
    ("controller.fleet.takeovers", "count"),
    ("controller.fleet.takeover_window_ms", "ms"),
    ("bench.ops_per_s_untraced", "1/s"),
    ("bench.ops_per_s_traced", "1/s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.failed_frac", "ratio"),
];

/// Operations per second over one round of the sequence, each
/// operation at its typical (median scaled) execution time.
pub fn ops_per_s(run: &Run) -> f64 {
    let typical = run.typical_op_ms();
    typical.len() as f64 / (typical.iter().sum::<f64>() / 1e3)
}

fn quality(run: &Run, name: &str) -> f64 {
    run.quality
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, v)| v)
        .unwrap_or(0.0)
}

/// The end-to-end metrics of an untraced run. A tail percentile the
/// sample cannot support is a failed run.
pub fn end_to_end(run: &mut Run, peak_rss_mb: f64) -> Vec<Metric> {
    let typical = run.typical_op_ms();
    let p50 = stats::percentile(&typical, 0.5);
    let p95 = stats::percentile(&typical, 0.95);
    eprintln!(
        "op latency: median of {} rounds for each of {} ops; p95 has {} beyond it",
        run.rounds(),
        p95.samples,
        p95.beyond
    );
    if p95.value.is_none() {
        run.fail(format!("{} ops are too few for a p95", p95.samples));
    }
    let raw = run.best_raw_op_ms();
    eprintln!(
        "unscaled, fastest of rounds: op p50 {:.4} ms, p95 {:.4} ms, {:.2} ops/s, set-up {:.4} s; probe median {:.4} ms",
        stats::percentile(&raw, 0.5).value.unwrap_or(0.0),
        stats::percentile(&raw, 0.95).value.unwrap_or(0.0),
        raw.len() as f64 / (raw.iter().sum::<f64>() / 1e3),
        stats::median(&run.raw_setup_s).unwrap_or(0.0),
        stats::median(run.meter.probes()).unwrap_or(0.0),
    );
    let values = [
        stats::median(&run.setup_s).unwrap_or(0.0),
        p50.value.unwrap_or(0.0),
        p95.value.unwrap_or(0.0),
        ops_per_s(run),
        peak_rss_mb,
        quality(run, "plan_cost"),
        quality(run, "slots_peak"),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

/// Durations, in seconds, of every span named `name`.
fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run. `untraced` is the ops/s of
/// the untraced half of the same invocation. Layers a workload bypasses
/// read 0.
pub fn per_layer(run: &Run, spans: &[Span], untraced: f64) -> Vec<Metric> {
    let l = &run.layers;
    let med =
        |name: &str, scale: f64| stats::median(&durations(spans, name)).unwrap_or(0.0) * scale;
    let total = |name: &str| durations(spans, name).iter().sum::<f64>();
    let decisions = l.get("core.decisions");
    let placement = durations(spans, "placement");
    let placement_p95 = {
        let p = stats::percentile(&placement, 0.95);
        // Too few calls for a supported p95: report the slowest call.
        p.value
            .or_else(|| placement.iter().copied().reduce(f64::max))
            .unwrap_or(0.0)
    };
    let steps: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "step")
        .map(|(i, _)| self_time(spans, i))
        .collect();
    let appends = durations(spans, "journal.flush").len() as f64;
    let journal_s = total("journal.write") + total("journal.flush");
    let traced = ops_per_s(run);
    let values = [
        med("model.loads", 1e6),
        med("core.setup", 1e6),
        med("core.tune", 1e3),
        ratio(l.get("core.tune_probes"), decisions),
        ratio(l.get("core.tune_cache_hits"), l.get("core.tune_iterations")),
        med("core.search", 1e3),
        ratio(l.get("core.nodes"), decisions),
        ratio(l.get("core.nodes"), total("core.search")),
        ratio(l.get("core.pruned"), l.get("core.nodes")),
        ratio(l.get("core.memo_hits"), l.get("core.nodes")),
        ratio(l.get("core.plans_found"), decisions),
        placement.len() as f64,
        placement.iter().sum::<f64>() * 1e3,
        placement_p95 * 1e3,
        med("sim.advance", 1e3),
        ratio(l.get("sim.task_ticks"), total("sim.advance")),
        l.get("sim.bytes_moved"),
        quality(run, "goodput_ratio"),
        quality(run, "backpressure_mean"),
        quality(run, "latency_p95_s"),
        quality(run, "downtime_s"),
        med("ds2.decide", 1e6),
        l.get("ds2.scalings"),
        stats::median(&steps).unwrap_or(0.0) * 1e3,
        ratio(journal_s, appends) * 1e6,
        l.get("controller.journal.records"),
        l.get("controller.journal.bytes"),
        l.get("controller.journal.parse_s") * 1e3,
        quality(run, "recover_ms"),
        ratio(
            l.get("controller.replay_windows"),
            l.get("controller.replay_s"),
        ),
        l.get("controller.recoveries"),
        l.get("controller.rollbacks"),
        l.get("controller.sheds"),
        l.get("controller.migration_waves"),
        l.get("controller.fleet.takeovers"),
        ratio(
            l.get("controller.fleet.takeover_window_s") * 1e3,
            l.get("controller.fleet.takeover_windows"),
        ),
        untraced,
        traced,
        ratio(untraced - traced, untraced),
        ratio(run.failed() as f64, run.attempted as f64),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}
