//! Reading a controller's outputs back: the deployments its journal
//! records, and the metric samples and event counts of its trace; and
//! driving the simulator and DS2 directly on a journaled deployment.

use capsys_controller::journal::parse_journal;
use capsys_controller::DecisionRecord;
use capsys_core::CostModel;
use capsys_ds2::{Ds2Config, Ds2Controller};
use capsys_model::{Cluster, Placement, RateSchedule, WorkerId};
use capsys_queries::Query;
use capsys_sim::{SimConfig, Simulation};
use capsys_util::json::Json;

use crate::report::Run;
use crate::span::Recorder;

/// Drives `Simulation::advance` on the journal's initial deployment for
/// `windows` windows of `window` seconds, and `Ds2Controller::decide`
/// on each window's observed task rates, each call in its own span.
#[allow(clippy::too_many_arguments)]
pub fn drive_sim_and_ds2(
    query: &Query,
    cluster: &Cluster,
    schedule: &RateSchedule,
    journal: &str,
    sim: SimConfig,
    ds2: Ds2Config,
    windows: usize,
    window: f64,
    run: &mut Run,
    rec: &Recorder,
) -> Result<(), String> {
    let parsed = parse_journal(journal).map_err(|e| e.to_string())?;
    let Some(DecisionRecord::Init { assignment, .. }) = parsed.records.first() else {
        return Err("journal does not start with the initial deployment".into());
    };
    let physical = query.physical();
    let plan = Placement::new(assignment.iter().map(|&w| WorkerId(w)).collect());
    let ticks = (window / sim.tick).round();
    let mut sim = Simulation::new(
        query.logical(),
        &physical,
        cluster,
        &plan,
        &query.schedules_from(schedule),
        sim,
    )
    .map_err(|e| format!("cannot simulate the initial plan: {e}"))?;
    let ds2 = Ds2Controller::new(ds2);
    for w in 1..=windows {
        let report = {
            let _s = rec.span("sim.advance");
            sim.advance(window, 0.0)
        };
        run.layers
            .add("sim.task_ticks", physical.num_tasks() as f64 * ticks);
        let targets = query.source_rates(schedule.rate_at(w as f64 * window));
        let decision = {
            let _s = rec.span("ds2.decide");
            ds2.decide(query.logical(), &physical, &report.task_rates, &targets)
        }
        .map_err(|e| format!("DS2 failed on observed rates: {e}"))?;
        run.layers
            .add("ds2.scalings", decision.changed as u8 as f64);
    }
    Ok(())
}

/// `max_component` of every plan the journal deployed, each recosted
/// from scratch at the rate it was chosen for (the schedule's rate at
/// decision time where the record carries none).
pub fn deployed_costs(
    journal: &str,
    query: &Query,
    cluster: &Cluster,
    schedule: &RateSchedule,
    rec: Option<&Recorder>,
) -> Result<Vec<f64>, String> {
    let parsed = parse_journal(journal).map_err(|e| e.to_string())?;
    let mut costs = Vec::new();
    for r in &parsed.records {
        let (parallelism, assignment, rate) = match r {
            DecisionRecord::Init {
                parallelism,
                assignment,
                ..
            } => (parallelism, assignment, schedule.rate_at(0.0).max(1.0)),
            DecisionRecord::Prepare {
                parallelism,
                assignment,
                rate,
                ..
            }
            | DecisionRecord::MigratePrepare {
                parallelism,
                assignment,
                rate,
                ..
            } => (parallelism, assignment, *rate),
            DecisionRecord::Rollback {
                time,
                parallelism,
                assignment,
                ..
            } => (parallelism, assignment, schedule.rate_at(*time).max(1.0)),
            _ => continue,
        };
        let q = query
            .with_parallelism(parallelism)
            .map_err(|e| e.to_string())?;
        let physical = q.physical();
        let loads = {
            let _s = rec.map(|r| r.span("model.loads"));
            q.load_model_at(&physical, rate)
        }
        .map_err(|e| e.to_string())?;
        let model = CostModel::new(&physical, cluster, &loads).map_err(|e| e.to_string())?;
        let plan = Placement::new(assignment.iter().map(|&w| WorkerId(w)).collect());
        plan.validate(&physical, cluster)
            .map_err(|e| format!("journaled plan is invalid: {e}"))?;
        costs.push(model.cost(&physical, &plan).max_component());
    }
    Ok(costs)
}

/// The parts of a serialized `ClosedLoopTrace` the benchmark scores.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Per-sample simulated latency, seconds.
    pub latencies: Vec<f64>,
    /// Per-sample source backpressure.
    pub backpressure: Vec<f64>,
    /// Admitted records/s, summed over samples.
    pub admitted: f64,
    /// Target records/s, summed over samples.
    pub target: f64,
    /// Slots after each scaling event.
    pub event_slots: Vec<usize>,
    /// Completed failure recoveries, governor rollbacks, shed changes
    /// and state-transfer waves.
    pub recoveries: usize,
    pub rollbacks: usize,
    pub sheds: usize,
    pub migration_waves: usize,
}

/// Summarizes one serialized trace.
pub fn summarize_trace(trace_json: &str) -> Result<TraceSummary, String> {
    let t = Json::parse(trace_json).map_err(|e| e.to_string())?;
    let arr = |key: &str| -> Result<&[Json], String> {
        t.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("trace has no `{key}` array"))
    };
    let num = |v: &Json, key: &str| -> Result<f64, String> {
        v.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("trace sample has no `{key}`"))
    };
    let mut s = TraceSummary::default();
    for p in arr("points")? {
        s.latencies.push(num(p, "latency")?);
        s.backpressure.push(num(p, "backpressure")?);
        s.admitted += num(p, "source_throughput")?;
        s.target += num(p, "target_rate")?;
    }
    for e in arr("events")? {
        s.event_slots.push(num(e, "slots")? as usize);
    }
    s.recoveries = arr("recovery_events")?.len();
    s.rollbacks = arr("rollback_events")?.len();
    s.sheds = arr("shed_events")?.len();
    s.migration_waves = arr("migration_waves")?.len();
    Ok(s)
}
