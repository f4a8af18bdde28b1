//! What one workload run measured, before it becomes metrics.

use std::collections::BTreeMap;

use crate::speed::{Meter, Slot};
use crate::stats;

/// Rounds over its operation sequence a run makes at the least, however
/// short `--seconds` is, so every operation is measured more than once.
pub const MIN_ROUNDS: usize = 2;

/// Named counters a traced run accumulates at layer boundaries.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// The counter's total (0 when never touched).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Raw results of one workload run.
#[derive(Debug, Default)]
pub struct Run {
    /// Seconds of each repeated set-up, scaled to the reference host
    /// (see [`crate::speed`]).
    pub setup_s: Vec<f64>,
    /// Milliseconds of every timed execution of each operation, scaled
    /// to the reference host. A run repeats its whole operation
    /// sequence, so `op_ms[i]` holds one sample per round.
    pub op_ms: Vec<Vec<f64>>,
    /// The same executions as wall-clock milliseconds, unscaled.
    pub raw_op_ms: Vec<Vec<f64>>,
    /// Wall-clock seconds of each set-up, unscaled.
    pub raw_setup_s: Vec<f64>,
    /// Scales timings by the host speed measured around them.
    pub meter: Meter,
    /// Operations attempted.
    pub attempted: u64,
    /// One message per errored operation or failed output check.
    pub failures: Vec<String>,
    /// Deterministic quality metrics of the outputs.
    pub quality: Vec<(&'static str, f64)>,
    /// Layer counters (traced runs only, plus a few cheap ones always).
    pub layers: Layers,
}

impl Run {
    /// Records one execution of operation `i`, `ms` of wall-clock time.
    pub fn op(&mut self, i: usize, ms: f64) {
        push(&mut self.raw_op_ms, i, ms);
        let settled = self.meter.record(Slot::Op(i), ms);
        self.keep(settled);
    }

    /// Records one set-up, `s` seconds of wall-clock time.
    pub fn setup(&mut self, s: f64) {
        self.raw_setup_s.push(s);
        let settled = self.meter.record(Slot::Setup, s);
        self.keep(settled);
    }

    /// Scales the timings still waiting for a probe. Call once the last
    /// operation has run.
    pub fn settle(&mut self) {
        let settled = self.meter.settle();
        self.keep(settled);
    }

    fn keep(&mut self, settled: Vec<(Slot, f64)>) {
        for (slot, v) in settled {
            match slot {
                Slot::Op(i) => push(&mut self.op_ms, i, v),
                Slot::Setup => self.setup_s.push(v),
            }
        }
    }

    /// Complete rounds over the operation sequence so far.
    pub fn rounds(&self) -> usize {
        self.raw_op_ms.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Each operation's median scaled execution time over the rounds.
    /// Scaling to the reference host leaves noise on both sides, so the
    /// median, not the fastest repeat, is the steadiest estimate.
    pub fn typical_op_ms(&self) -> Vec<f64> {
        self.op_ms.iter().filter_map(|s| stats::median(s)).collect()
    }

    /// Each operation's fastest wall-clock execution, unscaled.
    pub fn best_raw_op_ms(&self) -> Vec<f64> {
        self.raw_op_ms
            .iter()
            .filter_map(|s| s.iter().copied().reduce(f64::min))
            .collect()
    }

    /// Failed operations and output checks, counted against `attempted`.
    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    /// Records a failed operation or output check.
    pub fn fail(&mut self, msg: String) {
        eprintln!("FAILED: {msg}");
        self.failures.push(msg);
    }

    /// Records a quality metric of the run's outputs.
    pub fn quality(&mut self, name: &'static str, v: f64) {
        self.quality.push((name, v));
    }
}

fn push(samples: &mut Vec<Vec<f64>>, i: usize, v: f64) {
    if samples.len() <= i {
        samples.resize_with(i + 1, Vec::new);
    }
    samples[i].push(v);
}

/// Output-quality samples pooled over every episode of a run.
#[derive(Debug, Default)]
pub struct Pool {
    /// `max_component` of every plan chosen or deployed.
    pub plan_costs: Vec<f64>,
    /// Admitted records/s summed over simulated samples.
    pub admitted: f64,
    /// Target records/s summed over the same samples.
    pub target: f64,
    /// Source backpressure of every simulated sample.
    pub backpressure: Vec<f64>,
    /// Simulated latency of every sample, seconds.
    pub latencies: Vec<f64>,
    /// Largest task-slot footprint of any episode.
    pub slots_peak: usize,
    /// Paused-task seconds summed over episodes.
    pub downtime: f64,
    /// Episodes pooled.
    pub episodes: usize,
    /// Wall-clock seconds of each journal recovery plus replay.
    pub recover_s: Vec<f64>,
}

impl Pool {
    /// Records the pooled quality metrics on `run`.
    pub fn finish(self, run: &mut Run) {
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let p95 = stats::percentile(&self.latencies, 0.95);
        run.quality("plan_cost", mean(&self.plan_costs));
        let goodput = if self.target > 0.0 {
            self.admitted / self.target
        } else {
            0.0
        };
        run.quality("goodput_ratio", goodput);
        run.quality("backpressure_mean", mean(&self.backpressure));
        run.quality("latency_p95_s", p95.value.unwrap_or(0.0));
        run.quality("slots_peak", self.slots_peak as f64);
        run.quality("downtime_s", self.downtime / self.episodes.max(1) as f64);
        run.quality(
            "recover_ms",
            stats::median(&self.recover_s).unwrap_or(0.0) * 1e3,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_kept_per_round_raw_and_scaled() {
        let mut run = Run::default();
        for (round, times) in [[3.0, 9.0, 1.5], [2.0, 12.0, 1.0]].iter().enumerate() {
            assert_eq!(run.rounds(), round);
            for (i, &t) in times.iter().enumerate() {
                run.op(i, t);
            }
        }
        assert_eq!(run.rounds(), 2);
        assert_eq!(run.best_raw_op_ms(), vec![2.0, 9.0, 1.0]);
        run.settle();
        assert_eq!(run.op_ms.iter().map(Vec::len).collect::<Vec<_>>(), [2, 2, 2]);
        // One scale per probe interval: here every sample shares it.
        let s = run.op_ms[0][0] / 3.0;
        let typical = run.typical_op_ms();
        for (t, want) in typical.iter().zip([2.5, 10.5, 1.25]) {
            assert!((t / s - want).abs() < 1e-9, "{t} vs {want}·{s}");
        }
    }

    #[test]
    fn an_unfinished_round_does_not_count() {
        let mut run = Run::default();
        run.op(0, 1.0);
        run.op(1, 1.0);
        run.op(0, 0.5);
        assert_eq!(run.rounds(), 1);
        assert_eq!(run.best_raw_op_ms(), vec![0.5, 1.0]);
    }
}
