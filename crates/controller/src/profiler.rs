//! Cost profiling (§5.1).
//!
//! CAPSys profiles a query by deploying the tasks of each operator on a
//! *separate* Task Manager and recording, per operator: CPU utilization,
//! state-backend bytes read/written, and bytes emitted. Dividing by the
//! observed record rate yields per-record unit costs, which are stored
//! and reused on every reconfiguration (profiling runs once).
//!
//! This module reproduces that procedure against the simulator: it
//! builds an isolation cluster with one worker per operator, runs the
//! query at a gentle probe rate, and recovers each operator's
//! [`ResourceProfile`] from worker-level utilization metrics — without
//! peeking at the ground-truth profiles.

use capsys_model::{
    Cluster, LogicalGraph, OperatorId, PhysicalGraph, Placement, ResourceProfile, WorkerId,
    WorkerSpec,
};
use capsys_queries::Query;
use capsys_sim::{SimConfig, Simulation};

use crate::ControllerError;

/// Fraction of the isolation cluster's capacity rate used as the probe
/// rate; well below 1 so no operator saturates.
const PROBE_FRACTION: f64 = 0.3;

/// Configuration of the profiling phase.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilerConfig {
    /// Worker spec of the isolation Task Managers.
    pub worker: WorkerSpec,
    /// Simulated profiling duration, seconds (the paper uses 20 min for
    /// realistic state accumulation; simulations converge much faster).
    pub duration: f64,
    /// Warm-up excluded from measurements, seconds.
    pub warmup: f64,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            worker: WorkerSpec::m5d_2xlarge(16),
            duration: 60.0,
            warmup: 10.0,
        }
    }
}

/// The result of profiling one query: measured unit costs per operator.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Measured per-operator profiles, indexed by operator id.
    pub profiles: Vec<ResourceProfile>,
    /// The probe rate used, records/s aggregate.
    pub probe_rate: f64,
    /// Observed backpressure during profiling (should be ~0).
    pub backpressure: f64,
}

/// Profiles a query by running each operator on a dedicated worker.
pub fn profile_query(
    query: &Query,
    config: &ProfilerConfig,
) -> Result<ProfileReport, ControllerError> {
    let logical = query.logical();
    let n_ops = logical.num_operators();

    // One isolation worker per operator, sized to host all its tasks.
    let max_par = logical
        .operators()
        .iter()
        .map(|o| o.parallelism)
        .max()
        .unwrap_or(1);
    let spec = WorkerSpec {
        slots: max_par.max(config.worker.slots),
        ..config.worker
    };
    let cluster = Cluster::homogeneous(n_ops, spec).map_err(ControllerError::Model)?;

    let physical = PhysicalGraph::expand(logical);
    let mut assignment = vec![WorkerId(0); physical.num_tasks()];
    for t in physical.tasks() {
        assignment[t.id.0] = WorkerId(t.operator.0);
    }
    let placement = Placement::new(assignment);

    let probe_rate = query
        .capacity_rate(&cluster, PROBE_FRACTION)
        .map_err(ControllerError::Model)?;
    let schedules = query.schedules(probe_rate);

    let sim_config = SimConfig {
        duration: config.duration,
        warmup: config.warmup,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(
        logical, &physical, &cluster, &placement, &schedules, sim_config,
    )
    .map_err(ControllerError::Sim)?;
    let report = sim.run();

    // Recover per-operator unit costs from worker-level metrics: worker i
    // hosts exactly the tasks of operator i.
    let mut profiles = Vec::with_capacity(n_ops);
    for op_idx in 0..n_ops {
        let op_id = OperatorId(op_idx);
        let range = physical.operator_tasks(op_id);
        let mut in_rate = 0.0;
        let mut out_rate = 0.0;
        for t in range {
            in_rate += report.task_rates[t].observed_rate;
            out_rate += report.task_rates[t].observed_output_rate;
        }
        let work_rate = in_rate.max(1e-9);
        let cpu_used = report.worker_cpu_util[op_idx] * spec.cpu_cores;
        let io_used = report.worker_io_util[op_idx] * spec.disk_bandwidth;
        // Outbound bytes: measured at the producing worker's NIC. All of
        // this operator's downstream consumers live on other workers, so
        // the NIC sees the full output stream.
        let net_used = report.worker_net_util[op_idx] * spec.network_bandwidth;
        let selectivity = if in_rate > 1e-9 {
            out_rate / in_rate
        } else {
            1.0
        };
        profiles.push(ResourceProfile::new(
            cpu_used / work_rate,
            io_used / work_rate,
            if out_rate > 1e-9 {
                net_used / out_rate
            } else {
                0.0
            },
            selectivity,
        ));
    }

    Ok(ProfileReport {
        profiles,
        probe_rate,
        backpressure: report.avg_backpressure,
    })
}

/// Replaces a logical graph's profiles with measured ones.
pub fn apply_profiles(logical: &LogicalGraph, profiles: &[ResourceProfile]) -> LogicalGraph {
    // `LogicalGraph` has no profile mutator by design; rebuild it.
    let mut b = LogicalGraph::builder(logical.name.clone());
    for (i, op) in logical.operators().iter().enumerate() {
        // Keep burst amplitude from the declared profile: bursts are a
        // workload property the profiler's averages cannot capture.
        let mut p = profiles.get(i).copied().unwrap_or(op.profile);
        p.cpu_burst_amplitude = op.profile.cpu_burst_amplitude;
        b.operator(op.name.clone(), op.kind, op.parallelism, p);
    }
    for e in logical.edges() {
        b.edge(e.from, e.to, e.pattern);
    }
    // The rebuilt graph shares the already-validated source structure, so
    // building cannot fail; keep the declared profiles rather than panic
    // if that invariant is ever broken.
    b.build().unwrap_or_else(|_| logical.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsys_queries::{q1_sliding, q2_join};

    #[test]
    fn profiling_recovers_unit_costs() {
        let q = q1_sliding();
        let report = profile_query(&q, &ProfilerConfig::default()).unwrap();
        assert!(
            report.backpressure < 0.02,
            "probe run saturated: {}",
            report.backpressure
        );
        for (i, op) in q.logical().operators().iter().enumerate() {
            let truth = op.profile;
            let measured = report.profiles[i];
            let close = |a: f64, b: f64, name: &str| {
                if b > 1e-12 {
                    let rel = (a - b).abs() / b;
                    assert!(rel < 0.2, "{}/{name}: measured {a} vs true {b}", op.name);
                }
            };
            close(measured.cpu_per_record, truth.cpu_per_record, "cpu");
            close(
                measured.state_bytes_per_record,
                truth.state_bytes_per_record,
                "io",
            );
            close(measured.selectivity, truth.selectivity, "selectivity");
        }
    }

    #[test]
    fn profiling_measures_output_bytes() {
        let q = q1_sliding();
        let report = profile_query(&q, &ProfilerConfig::default()).unwrap();
        // The window emits 200-byte records (ground truth); measured
        // within tolerance.
        let win = q.logical().operator_by_name("sliding-window").unwrap();
        let measured = report.profiles[win.0].out_bytes_per_record;
        assert!(
            (measured - 200.0).abs() / 200.0 < 0.25,
            "window out bytes measured {measured}"
        );
    }

    #[test]
    fn multi_source_query_profiles_cleanly() {
        let q = q2_join();
        let report = profile_query(&q, &ProfilerConfig::default()).unwrap();
        assert_eq!(report.profiles.len(), q.logical().num_operators());
        let join = q.logical().operator_by_name("tumbling-join").unwrap();
        assert!(report.profiles[join.0].state_bytes_per_record > 1000.0);
    }

    #[test]
    fn apply_profiles_round_trips() {
        let q = q1_sliding();
        let report = profile_query(&q, &ProfilerConfig::default()).unwrap();
        let g = apply_profiles(q.logical(), &report.profiles);
        assert_eq!(g.num_operators(), q.logical().num_operators());
        assert_eq!(g.parallelism_vector(), q.logical().parallelism_vector());
        // Burst amplitude is preserved from the declared profile.
        for (a, b) in g.operators().iter().zip(q.logical().operators()) {
            assert_eq!(a.profile.cpu_burst_amplitude, b.profile.cpu_burst_amplitude);
        }
    }
}
