//! `adapt`: one CAPS job under hostile traffic, journaled to a file.
//!
//! Q1-sliding ×2 (32 tasks) on twelve 4-slot r5d workers with
//! `CapsStrategy`, seeded diurnal + flash + growth traffic, seeded worker
//! crashes and one network partition, and the loop's guard, shedding,
//! state transfer and incremental migration all on. One operation is
//! one `ClosedLoop::step`. After each checked episode the controller is
//! rebuilt from journal prefixes and replayed to the tail.

use std::collections::hash_map::DefaultHasher;
use std::fs::File;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::Instant;

use capsys_controller::journal::parse_journal;
use capsys_controller::{
    ClosedLoop, ClosedLoopTrace, DecisionJournal, GuardConfig, MigrationConfig, RecoveryConfig,
    ShedConfig,
};
use capsys_core::SearchConfig;
use capsys_ds2::Ds2Config;
use capsys_model::{Cluster, OperatorId, RateSchedule, WorkerSpec};
use capsys_placement::{CapsStrategy, PlacementStrategy};
use capsys_queries::Query;
use capsys_sim::{ChaosConfig, FaultPlan, SimConfig, WorkloadConfig, WorkloadEngine};
use capsys_util::rng::{RngCore, SeedableRng, SmallRng};

use crate::outputs::{deployed_costs, drive_sim_and_ds2, summarize_trace};
use crate::report::{Pool, Run, MIN_ROUNDS};
use crate::span::{Recorder, TimedStrategy, TimedWrite};

const WINDOW: f64 = 5.0;
/// Windows per episode.
const WINDOWS: usize = 360;
const HORIZON: f64 = WINDOW * WINDOWS as f64;
const RETAINED_RECORDS: f64 = 2e5;
/// Node budget of every search in the loop. Without one, some DS2
/// re-placements search for minutes; with 2,000,000 a few budget-bound
/// searches of ~0.3 s each made up nine tenths of a round, so the
/// round's time swung with how many of them a seed happened to draw.
const NODE_BUDGET: usize = 200_000;
/// Sub-seeded episodes per round.
const EPISODES: usize = 24;
/// Journal prefixes, as shares of its records, that each sub-seed's
/// checked episode is recovered from and replayed to the tail; `true`
/// also runs the recovered loop to the horizon and compares its trace
/// and journal byte for byte with the uninterrupted episode.
const PREFIXES: [(f64, bool); 3] = [(0.25, false), (0.5, true), (0.75, false)];
/// Windows the traced run drives the simulation directly.
const SIM_WINDOWS: usize = 60;

/// Everything an episode is built from. The traffic and fault shapes
/// are fixed; the seed only reaches the generators, which place them in
/// time (diurnal phase, flash onsets, which workers fail and when).
struct Inputs {
    query: Query,
    cluster: Cluster,
    schedule: RateSchedule,
    faults: FaultPlan,
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    let query = capsys_queries::q1_sliding()
        .scaled(2)
        .map_err(|e| e.to_string())?;
    let cluster = Cluster::homogeneous(12, WorkerSpec::r5d_xlarge(4)).map_err(|e| e.to_string())?;
    let base = query
        .capacity_rate(&cluster, 0.3)
        .map_err(|e| e.to_string())?;
    let engine = WorkloadEngine::new(WorkloadConfig {
        seed,
        horizon: HORIZON,
        base_rate: base,
        diurnal_amplitude: (0.3, 0.3),
        diurnal_period: (600.0, 600.0),
        flashes: 2,
        flash_magnitude: (2.5, 2.5),
        flash_ramp: (30.0, 30.0),
        flash_hold: (60.0, 60.0),
        growth_per_sec: (base * 3e-4, base * 3e-4),
        ..WorkloadConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let schedule = engine
        .generate(&[OperatorId(0)])
        .map_err(|e| e.to_string())?
        .pop()
        .ok_or("workload engine produced no program")?
        .1;
    let faults = FaultPlan::generate(
        &ChaosConfig {
            seed,
            horizon: HORIZON,
            crashes: 2,
            crash_downtime: (90.0, 90.0),
            stragglers: 0,
            blackouts: 0,
            partitions: 1,
            partition_duration: (40.0, 40.0),
            ..ChaosConfig::default()
        },
        cluster.num_workers(),
    )
    .map_err(|e| e.to_string())?;
    Ok(Inputs {
        query,
        cluster,
        schedule,
        faults,
    })
}

/// The CAPS search every placement in the loop runs: the auto-tuned
/// default, capped at a deterministic node budget.
fn search() -> SearchConfig {
    SearchConfig {
        node_budget: Some(NODE_BUDGET),
        ..SearchConfig::auto_tuned()
    }
}

fn ds2() -> Ds2Config {
    Ds2Config {
        activation_period: 15.0,
        policy_interval: WINDOW,
        max_parallelism: 12,
        headroom: 1.0,
    }
}

fn sim_config() -> SimConfig {
    SimConfig {
        duration: 1.0,
        warmup: 0.0,
        ..SimConfig::default()
    }
}

/// Attaches everything but the journal, identically for a fresh and a
/// recovered loop.
fn configure<'a>(lp: ClosedLoop<'a>, inp: &Inputs) -> Result<ClosedLoop<'a>, String> {
    let e = |e: capsys_controller::ControllerError| e.to_string();
    lp.with_fault_plan(inp.faults.clone())
        .map_err(e)?
        .with_guard(GuardConfig::default())
        .map_err(e)?
        .with_shedding(ShedConfig::default())
        .map_err(e)?
        .with_recovery(RecoveryConfig {
            search: search(),
            ..RecoveryConfig::default()
        })
        .with_state_transfer(RETAINED_RECORDS)
        .map_err(e)?
        .with_incremental_migration(MigrationConfig {
            epsilon: 0.05,
            wave_size: 4,
        })
        .map_err(e)
}

/// A journal writing to a fresh file at `path`; when traced, every
/// write and flush into the file is timed.
fn journal_to(path: &Path, rec: Option<&Recorder>) -> Result<DecisionJournal, String> {
    let file = File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    Ok(match rec {
        Some(r) => DecisionJournal::writing_to(Box::new(TimedWrite::new(file, r.clone()))),
        None => DecisionJournal::writing_to(Box::new(file)),
    })
}

/// One episode's uninterrupted output.
struct Golden {
    trace: String,
    journal: String,
}

impl Golden {
    /// Length and hash of the trace and the journal: what a repeat of
    /// the episode is compared against, so a run holds no more than one
    /// episode's output at a time.
    fn digest(&self) -> [(usize, u64); 2] {
        [&self.trace, &self.journal].map(|text| {
            let mut h = DefaultHasher::new();
            text.hash(&mut h);
            (text.len(), h.finish())
        })
    }
}

/// Runs rounds of episodes, one per sub-seed drawn from `seed`, until
/// `seconds` of windows have been timed. Each sub-seed's first
/// episode is checked in full; its repeats must reproduce it byte for
/// byte.
pub fn run(seed: u64, seconds: f64, scratch: &Path, rec: Option<&Recorder>) -> Run {
    let mut run = Run::default();
    let mut pool = Pool::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut episodes = Vec::with_capacity(EPISODES);
    for _ in 0..EPISODES {
        let sub = rng.next_u64();
        match inputs(sub) {
            Ok(i) => episodes.push((sub, i, None)),
            Err(e) => {
                run.attempted += 1;
                run.fail(format!("adapt inputs for sub-seed {sub}: {e}"));
                return run;
            }
        }
    }
    let caps = CapsStrategy::new(search());
    let timed_caps = rec.map(|r| TimedStrategy::new(CapsStrategy::new(search()), r.clone()));
    let strategy: &dyn PlacementStrategy = match &timed_caps {
        Some(t) => t,
        None => &caps,
    };
    let path = scratch.join("adapt.journal");
    let mut timed = 0.0;
    'rounds: while run.rounds() < MIN_ROUNDS || timed < seconds {
        for (k, (sub, inp, golden)) in episodes.iter_mut().enumerate() {
            let first_op = k * WINDOWS;
            match episode(
                *sub, inp, strategy, &path, first_op, &mut run, &mut timed, rec,
            ) {
                None => break 'rounds,
                Some((trace, fresh)) => match golden {
                    Some(g) => {
                        if *g != fresh.digest() {
                            run.fail(format!("sub-seed {sub}: repeated episode diverged"));
                        }
                    }
                    None => {
                        if let Some(r) = rec {
                            run.layers
                                .add("controller.journal.bytes", fresh.journal.len() as f64);
                            run.layers
                                .add("sim.bytes_moved", trace.bytes_moved() as f64);
                            drive_layers(inp, &fresh.journal, &mut run, r);
                        }
                        // Recovery and replay use the untimed strategy, so
                        // placement.* covers only the live loop's steps.
                        check(inp, &caps, &trace, &fresh, scratch, &mut run, &mut pool, rec);
                        *golden = Some(fresh.digest());
                    }
                },
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    pool.finish(&mut run);
    run
}

/// Builds, runs and finishes one episode, whose windows are operations
/// `index..index + WINDOWS`. `None` when it failed (the failure is
/// recorded on `run`).
#[allow(clippy::too_many_arguments)]
fn episode(
    sub: u64,
    inp: &Inputs,
    strategy: &dyn PlacementStrategy,
    path: &Path,
    index: usize,
    run: &mut Run,
    timed: &mut f64,
    rec: Option<&Recorder>,
) -> Option<(ClosedLoopTrace, Golden)> {
    let t0 = Instant::now();
    let lp = ClosedLoop::new(
        &inp.query,
        &inp.cluster,
        strategy,
        ds2(),
        sim_config(),
        inp.schedule.clone(),
        sub,
    )
    .map_err(|e| e.to_string())
    .and_then(|lp| configure(lp, inp))
    .and_then(|lp| {
        lp.with_journal(journal_to(path, rec)?)
            .map_err(|e| e.to_string())
    });
    let mut lp = match lp {
        Ok(lp) => lp,
        Err(e) => {
            run.attempted += 1;
            run.fail(format!("sub-seed {sub}: set-up failed: {e}"));
            return None;
        }
    };
    run.setup(t0.elapsed().as_secs_f64());

    for w in 0..WINDOWS {
        run.attempted += 1;
        let t0 = Instant::now();
        let result = {
            let _s = rec.map(|r| r.span("step"));
            lp.step(WINDOW)
        };
        let dt = t0.elapsed().as_secs_f64();
        *timed += dt;
        run.op(index + w, dt * 1e3);
        if let Err(e) = result {
            run.fail(format!("sub-seed {sub}: window at t={}: {e}", lp.time()));
            return None;
        }
    }
    let trace = match lp.into_trace() {
        Ok(t) => t,
        Err(e) => {
            run.fail(format!("sub-seed {sub}: trace: {e}"));
            return None;
        }
    };
    match std::fs::read_to_string(path) {
        Ok(journal) => {
            let trace_json = trace.to_json().to_string();
            Some((
                trace,
                Golden {
                    trace: trace_json,
                    journal,
                },
            ))
        }
        Err(e) => {
            run.fail(format!("sub-seed {sub}: cannot read the journal back: {e}"));
            None
        }
    }
}

/// Rebuilds the controller from the first `records` journal records
/// and steps it up to the journal's tail. Returns the loop, the seconds
/// recovery plus replay took, and the prefix recovered from.
fn recover<'a>(
    inp: &'a Inputs,
    strategy: &'a dyn PlacementStrategy,
    journal: &str,
    records: usize,
    sink: &Path,
    rec: Option<&Recorder>,
) -> Result<(ClosedLoop<'a>, f64, String), String> {
    let prefix: String = journal.split_inclusive('\n').take(records).collect();
    let tail = parse_journal(&prefix)
        .map_err(|e| e.to_string())?
        .records
        .last()
        .map(|r| r.time())
        .unwrap_or(0.0);
    let t0 = Instant::now();
    let mut lp = {
        let _s = rec.map(|r| r.span("recover"));
        let lp = ClosedLoop::recover_from_journal(
            &inp.query,
            &inp.cluster,
            strategy,
            ds2(),
            sim_config(),
            inp.schedule.clone(),
            &prefix,
        )
        .map_err(|e| e.to_string())?;
        configure(lp, inp)?
            .with_journal(journal_to(sink, None)?)
            .map_err(|e| e.to_string())?
    };
    while lp.time() < tail - 1e-9 {
        let _s = rec.map(|r| r.span("replay"));
        lp.step(WINDOW).map_err(|e| e.to_string())?;
    }
    Ok((lp, t0.elapsed().as_secs_f64(), prefix))
}

/// Recovers from each journal prefix and checks the result against the
/// uninterrupted episode; pools the episode's quality samples.
#[allow(clippy::too_many_arguments)]
fn check(
    inp: &Inputs,
    strategy: &dyn PlacementStrategy,
    trace: &ClosedLoopTrace,
    golden: &Golden,
    scratch: &Path,
    run: &mut Run,
    pool: &mut Pool,
    rec: Option<&Recorder>,
) {
    let lines = golden.journal.lines().count();
    let sink: PathBuf = scratch.join("adapt-recovered.journal");
    for (share, full) in PREFIXES {
        let records = ((lines as f64 * share).round() as usize).clamp(1, lines);
        let (mut lp, secs, prefix) =
            match recover(inp, strategy, &golden.journal, records, &sink, rec) {
                Ok(r) => r,
                Err(e) => {
                    run.fail(format!("recovery from {records} records failed: {e}"));
                    continue;
                }
            };
        pool.recover_s.push(secs);
        run.layers
            .add("controller.replay_windows", lp.time() / WINDOW);
        run.layers.add("controller.replay_s", secs);
        if !full {
            drop(lp);
            if !std::fs::read_to_string(&sink).is_ok_and(|j| j.starts_with(&prefix)) {
                run.fail(format!(
                    "recovery from {records} records re-journaled other decisions"
                ));
            }
            continue;
        }
        let mut finished = Ok(());
        while finished.is_ok() && lp.time() < HORIZON - 1e-9 {
            finished = lp.step(WINDOW).map(|_| ());
        }
        let replayed = finished
            .and_then(|_| lp.into_trace())
            .map(|t| t.to_json().to_string());
        let rejournal = std::fs::read_to_string(&sink).unwrap_or_default();
        match replayed {
            Ok(t) if t == golden.trace && rejournal == golden.journal => {}
            Ok(_) => run.fail(format!("recovery from {records} records diverged")),
            Err(e) => run.fail(format!("recovery from {records} records failed: {e}")),
        }
    }
    let _ = std::fs::remove_file(&sink);

    match deployed_costs(
        &golden.journal,
        &inp.query,
        &inp.cluster,
        &inp.schedule,
        rec,
    ) {
        Ok(c) => pool.plan_costs.extend(c),
        Err(e) => run.fail(format!("adapt journal: {e}")),
    }
    match summarize_trace(&golden.trace) {
        Ok(t) => {
            pool.admitted += t.admitted;
            pool.target += t.target;
            pool.backpressure.extend(t.backpressure);
            pool.latencies.extend(t.latencies);
            run.layers.add("controller.recoveries", t.recoveries as f64);
            run.layers.add("controller.rollbacks", t.rollbacks as f64);
            run.layers.add("controller.sheds", t.sheds as f64);
            run.layers
                .add("controller.migration_waves", t.migration_waves as f64);
        }
        Err(e) => run.fail(format!("adapt trace: {e}")),
    }
    let initial = inp.query.logical().total_tasks();
    pool.slots_peak = pool
        .slots_peak
        .max(trace.max_slots(0.0, HORIZON).max(initial));
    pool.downtime += trace.downtime();
    pool.episodes += 1;
}

/// Times the journal parser on the episode's journal, and drives the
/// simulator and DS2 on its initial deployment, for the per-layer
/// numbers.
fn drive_layers(inp: &Inputs, journal: &str, run: &mut Run, rec: &Recorder) {
    let t0 = Instant::now();
    let parsed = {
        let _s = rec.span("journal.parse");
        parse_journal(journal)
    };
    run.layers
        .add("controller.journal.parse_s", t0.elapsed().as_secs_f64());
    match parsed {
        Ok(p) => run
            .layers
            .add("controller.journal.records", p.records.len() as f64),
        Err(e) => run.fail(format!("adapt journal unreadable: {e}")),
    }
    let driven = drive_sim_and_ds2(
        &inp.query,
        &inp.cluster,
        &inp.schedule,
        journal,
        sim_config(),
        ds2(),
        SIM_WINDOWS,
        WINDOW,
        run,
        rec,
    );
    if let Err(e) = driven {
        run.fail(format!("adapt: {e}"));
    }
}
