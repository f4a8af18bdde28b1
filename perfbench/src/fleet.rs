//! `fleet`: the multi-tenant lockstep fleet of `exp_fleet`, kill arm.
//!
//! Twelve tenants (1,124 tasks) on 156 heterogeneous workers, 5 s
//! windows, `FlinkDefault` placement, with the kill arm's control-plane
//! faults: shard 0's controller killed mid-reconfiguration, shard 1
//! partitioned past its lease, and the arbiter killed and rebuilt from
//! its log. One operation is one `FleetController::step_window`.

use std::time::Instant;

use capsys_controller::journal::parse_journal;
use capsys_controller::{
    replay_shard, ArbiterConfig, DecisionRecord, FleetConfig, FleetController, FleetOutcome,
    FleetWorld, JobSpec, RecoveryConfig,
};
use capsys_core::SearchConfig;
use capsys_ds2::Ds2Config;
use capsys_model::{Cluster, RateSchedule, WorkerSpec};
use capsys_placement::{FlinkDefault, PlacementStrategy};
use capsys_sim::{DeciderFault, DeciderFaultKind, DeciderTarget, FaultPlan, KillPoint, SimConfig};

use crate::outputs::{deployed_costs, drive_sim_and_ds2, summarize_trace};
use crate::report::{Pool, Run, MIN_ROUNDS};
use crate::span::{Recorder, TimedStrategy};

const WORKERS: usize = 156;
const TENANTS: usize = 12;
const SCALE: usize = 5;
const REQUESTED: usize = 24;
const WINDOW: f64 = 5.0;
const LEASE: f64 = 12.0;
/// Windows per episode.
const WINDOWS: usize = 200;
/// The first reconfiguration of the undersized tenant 0 — DS2 must
/// scale it, and nothing else reconfigures it first.
const KILL_EPOCH: u64 = 1;
const PARTITION: (f64, f64) = (60.0, 85.0);
const ARBITER_KILL_AT: f64 = 45.0;
/// Windows the traced run drives each shard's simulation directly.
const SIM_WINDOWS: usize = 12;

fn global_cluster() -> Cluster {
    let specs = (0..WORKERS)
        .map(|i| match i % 3 {
            0 => WorkerSpec::m5d_2xlarge(8),
            1 => WorkerSpec::r5d_xlarge(8),
            _ => WorkerSpec::c5d_4xlarge(8),
        })
        .collect();
    Cluster::heterogeneous(specs).expect("uniform slot counts")
}

/// Tenant jobs as `exp_fleet` builds them: tenant 0 undersized so DS2
/// must scale it, and a greedy tenant admission must reject. The seed
/// only seeds each tenant's placement randomness.
fn jobs(seed: u64) -> Vec<JobSpec> {
    let tenants = capsys_queries::tenant_jobs(TENANTS, SCALE).expect("tenant fixtures");
    let reference =
        Cluster::homogeneous(REQUESTED, WorkerSpec::m5d_2xlarge(8)).expect("reference pool");
    let recovery = RecoveryConfig {
        search: SearchConfig {
            time_budget: Some(std::time::Duration::ZERO),
            ..SearchConfig::auto_tuned()
        },
        ..RecoveryConfig::default()
    };
    let mut out = Vec::with_capacity(TENANTS + 1);
    for (i, tenant) in tenants.iter().enumerate() {
        let max_parallelism = tenant
            .logical()
            .parallelism_vector()
            .into_iter()
            .max()
            .unwrap_or(1)
            .max(8);
        let (query, util) = if i == 0 {
            let ops = tenant.logical().num_operators();
            (
                tenant.with_parallelism(&vec![1; ops]).expect("undersized"),
                0.35,
            )
        } else {
            (tenant.clone(), 0.5)
        };
        let rate = tenant
            .capacity_rate(&reference, util)
            .expect("capacity rate");
        out.push(JobSpec {
            name: format!("tenant-{i}"),
            query,
            schedule: RateSchedule::Constant(rate),
            ds2: Ds2Config {
                activation_period: 20.0,
                policy_interval: WINDOW,
                max_parallelism,
                headroom: 1.0,
            },
            sim: SimConfig {
                duration: 1.0,
                warmup: 0.0,
                ..SimConfig::default()
            },
            seed: seed.wrapping_add(i as u64),
            weight: 1.0 + (i % 3) as f64,
            requested_workers: REQUESTED,
            recovery: recovery.clone(),
            faults: None,
        });
    }
    let mut greedy = out[1].clone();
    greedy.name = "greedy".into();
    greedy.requested_workers = WORKERS;
    out.push(greedy);
    out
}

fn config() -> FleetConfig {
    let faults = FaultPlan::default()
        .with_decider_fault(DeciderFault {
            target: DeciderTarget::Shard(0),
            kind: DeciderFaultKind::Kill(KillPoint::MidReconfig(KILL_EPOCH)),
        })
        .and_then(|p| {
            p.with_decider_fault(DeciderFault {
                target: DeciderTarget::Shard(1),
                kind: DeciderFaultKind::Partition {
                    from: PARTITION.0,
                    until: PARTITION.1,
                },
            })
        })
        .and_then(|p| {
            p.with_decider_fault(DeciderFault {
                target: DeciderTarget::Arbiter,
                kind: DeciderFaultKind::Kill(KillPoint::AtTime(ARBITER_KILL_AT)),
            })
        })
        .expect("valid control-plane faults");
    FleetConfig {
        arbiter: ArbiterConfig {
            max_tenancy: 2,
            lease_duration: LEASE,
            overload_util: 50.0,
            overload_windows: 2,
            min_pool: 2,
            ..ArbiterConfig::default()
        },
        alpha: 0.5,
        window: WINDOW,
        control_faults: faults,
    }
}

/// Everything deterministic about an outcome.
fn fingerprint(o: &FleetOutcome) -> String {
    let mut s = String::new();
    for shard in &o.shards {
        s.push_str(&shard.name);
        s.push_str(&shard.trace_json);
        s.push_str(&shard.journal);
        for w in &shard.history {
            s.push_str(&format!("{w:?}"));
        }
    }
    s.push_str(&o.arbiter_log);
    s.push_str(&format!(
        "takeovers={:?} reacq={} fenced={} split={} arb={}",
        o.takeovers,
        o.reacquisitions,
        o.fenced_attempts,
        o.split_brain_stamps,
        o.arbiter_recoveries
    ));
    s
}

/// Builds the world: admission, sub-clusters, and the arbiter.
fn build(
    seed: u64,
    rec: Option<&Recorder>,
) -> Result<
    (
        FleetWorld,
        capsys_controller::Arbiter,
        capsys_util::journal::SharedBuf,
    ),
    String,
> {
    let strategy: Box<dyn PlacementStrategy> = match rec {
        Some(r) => Box::new(TimedStrategy::new(FlinkDefault, r.clone())),
        None => Box::new(FlinkDefault),
    };
    let (world, arbiter, buf) =
        FleetWorld::build(&global_cluster(), jobs(seed), strategy, &config())
            .map_err(|e| e.to_string())?;
    if world.jobs().len() != TENANTS || world.rejected() != ["greedy".to_string()] {
        return Err(format!(
            "admission: {} admitted, rejected {:?}",
            world.jobs().len(),
            world.rejected()
        ));
    }
    Ok((world, arbiter, buf))
}

/// Runs whole episodes until `seconds` of windows have been timed. The
/// first episode's output is checked in full; later episodes must
/// reproduce it byte for byte.
pub fn run(seed: u64, seconds: f64, rec: Option<&Recorder>) -> Run {
    let mut run = Run::default();
    let mut golden: Option<String> = None;
    let mut timed = 0.0;
    while run.rounds() < MIN_ROUNDS || timed < seconds {
        let t0 = Instant::now();
        let built = build(seed, rec);
        let (world, arbiter, buf) = match built {
            Ok(b) => b,
            Err(e) => {
                run.attempted += 1;
                run.fail(format!("fleet set-up failed: {e}"));
                return run;
            }
        };
        let mut fc = match FleetController::new(&world, arbiter, buf, config()) {
            Ok(fc) => fc,
            Err(e) => {
                run.attempted += 1;
                run.fail(format!("fleet controller set-up failed: {e}"));
                return run;
            }
        };
        let setup = t0.elapsed().as_secs_f64();
        run.setup(setup);

        let mut failed = false;
        for w in 0..WINDOWS {
            run.attempted += 1;
            let takeovers = fc.takeovers().len();
            let t0 = Instant::now();
            let result = {
                let _s = rec.map(|r| r.span("step"));
                fc.step_window()
            };
            let dt = t0.elapsed().as_secs_f64();
            timed += dt;
            run.op(w, dt * 1e3);
            if fc.takeovers().len() > takeovers {
                run.layers.add("controller.fleet.takeover_window_s", dt);
                run.layers.add("controller.fleet.takeover_windows", 1.0);
            }
            if let Err(e) = result {
                run.fail(format!("window at t={}: {e}", fc.time()));
                failed = true;
                break;
            }
        }
        if failed {
            break;
        }
        let outcome = match fc.finish() {
            Ok(o) => o,
            Err(e) => {
                run.fail(format!("fleet finish failed: {e}"));
                break;
            }
        };
        let print = fingerprint(&outcome);
        match &golden {
            Some(g) if *g != print => run.fail("same-seed fleet episode diverged".into()),
            Some(_) => {}
            None => {
                check(&world, &outcome, &mut run, rec);
                golden = Some(print);
            }
        }
    }
    run
}

/// The output checks on the first episode, and its quality metrics.
fn check(world: &FleetWorld, o: &FleetOutcome, run: &mut Run, rec: Option<&Recorder>) {
    if o.split_brain_stamps != 0 {
        run.fail(format!(
            "{} split-brain stamps passed the lease barrier",
            o.split_brain_stamps
        ));
    }
    if o.fenced_attempts == 0 {
        run.fail("the healed zombie never probed the lease barrier".into());
    }
    if o.arbiter_recoveries != 1 {
        run.fail(format!(
            "arbiter recovered {} times, expected 1",
            o.arbiter_recoveries
        ));
    }
    for shard in [0, 1] {
        if !o.takeovers.iter().any(|t| t.shard == shard) {
            run.fail(format!("no standby takeover of shard {shard}"));
        }
    }
    match parse_journal(&o.shards[0].journal) {
        Ok(j) => {
            let prepared = j.records.iter().any(
                |r| matches!(r, DecisionRecord::Prepare { epoch, .. } if *epoch == KILL_EPOCH),
            );
            let committed = j
                .records
                .iter()
                .any(|r| matches!(r, DecisionRecord::Commit { epoch, .. } if *epoch == KILL_EPOCH));
            if !(prepared && committed) {
                run.fail("the in-doubt reconfiguration of shard 0 was not rolled forward".into());
            }
        }
        Err(e) => run.fail(format!("shard 0 journal unreadable: {e}")),
    }

    // Every shard's journal and recorded history must replay to a
    // byte-identical trace and journal.
    let mut recover_s = Vec::new();
    for (s, shard) in o.shards.iter().enumerate() {
        let t0 = Instant::now();
        let replayed = {
            let _span = rec.map(|r| r.span("recover"));
            replay_shard(
                &world.jobs()[s],
                &world.clusters()[s],
                &FlinkDefault,
                &shard.journal,
                &shard.history,
                WINDOW,
            )
        };
        let dt = t0.elapsed().as_secs_f64();
        recover_s.push(dt);
        run.layers
            .add("controller.replay_windows", shard.history.len() as f64);
        run.layers.add("controller.replay_s", dt);
        match replayed {
            Ok((trace, journal)) => {
                if trace != shard.trace_json || journal != shard.journal {
                    run.fail(format!("shard {s} replay diverged from the live run"));
                }
            }
            Err(e) => run.fail(format!("shard {s} replay failed: {e}")),
        }
    }
    let mut pool = Pool {
        recover_s,
        episodes: 1,
        ..Pool::default()
    };
    for (s, shard) in o.shards.iter().enumerate() {
        let job = &world.jobs()[s];
        match deployed_costs(
            &shard.journal,
            &job.query,
            &world.clusters()[s],
            &job.schedule,
            rec,
        ) {
            Ok(c) => pool.plan_costs.extend(c),
            Err(e) => run.fail(format!("shard {s}: {e}")),
        }
        match summarize_trace(&shard.trace_json) {
            Ok(t) => {
                pool.latencies.extend(t.latencies);
                pool.backpressure.extend(t.backpressure);
                let initial = job.query.logical().total_tasks();
                pool.slots_peak += t.event_slots.into_iter().fold(initial, usize::max);
                run.layers.add("controller.recoveries", t.recoveries as f64);
                run.layers.add("controller.rollbacks", t.rollbacks as f64);
                run.layers.add("controller.sheds", t.sheds as f64);
                run.layers
                    .add("controller.migration_waves", t.migration_waves as f64);
            }
            Err(e) => run.fail(format!("shard {s}: {e}")),
        }
        if let Some(r) = rec {
            let t0 = Instant::now();
            let parsed = parse_journal(&shard.journal);
            run.layers
                .add("controller.journal.parse_s", t0.elapsed().as_secs_f64());
            if let Err(e) = parsed {
                run.fail(format!("shard {s} journal unreadable: {e}"));
            }
            let driven = drive_sim_and_ds2(
                &job.query,
                &world.clusters()[s],
                &job.schedule,
                &shard.journal,
                job.sim.clone(),
                job.ds2.clone(),
                SIM_WINDOWS,
                WINDOW,
                run,
                r,
            );
            if let Err(e) = driven {
                run.fail(format!("shard {s}: {e}"));
            }
        }
    }
    // Goodput is the fleet's own time-integrated account of admitted
    // and target records.
    pool.admitted = o.shards.iter().map(|s| s.goodput).sum();
    pool.target = o.shards.iter().map(|s| s.target).sum();
    run.layers
        .add("controller.fleet.takeovers", o.takeovers.len() as f64);
    pool.finish(run);
}
