//! Cross-commit journal goldens: five small seeded closed-loop scenarios
//! whose decision journal and trace are pinned byte-for-byte under
//! `tests/golden/journal_*.jsonl`.
//!
//! The other durability oracles compare two runs of one build (killed
//! vs uninterrupted, replayed vs live), so a change that altered the
//! live and the replay path in the same way would pass them. These
//! files were written by an earlier build, which pins both paths
//! against history:
//!
//! * every scenario's uninterrupted run reproduces its golden journal
//!   and trace;
//! * a run killed after any journaled decision and recovered from its
//!   partial journal reproduces them too;
//! * across the goldens, every `DecisionRecord` kind appears;
//! * a golden journal with one field tampered fails replay with
//!   `ControllerError::JournalReplay` — never a panic, never a silent
//!   success.
//!
//! Each golden holds the journal's lines followed by one line with the
//! run's `ClosedLoopTrace::to_json`. If a change intentionally alters
//! journals or traces, regenerate with:
//!
//! ```text
//! cargo test --release --test golden_journals -- --ignored regenerate_goldens
//! ```

use std::collections::BTreeSet;

use capsys::controller::journal::parse_journal;
use capsys::controller::{
    ClosedLoop, ClosedLoopTrace, ControllerError, DecisionJournal, DecisionRecord, GuardConfig,
    MigrationConfig, RecoveryConfig, RedeployReason, ShedConfig,
};
use capsys::ds2::Ds2Config;
use capsys::model::{FlashCrowd, RateProgram};
use capsys::placement::CapsStrategy;
use capsys::prelude::*;
use capsys::sim::{FaultEvent, FaultKind, FaultPlan, KillPoint, ModelSkew};

/// The pinned scenarios.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scenario {
    /// A worker crash re-placed on the survivors (whole-plan redeploy).
    Recovery,
    /// DS2 scaling an under-provisioned job out.
    Scaling,
    /// A model-skew fault whose regressed canary the governor rolls back.
    Rollback,
    /// A flash crowd beyond any deployable capacity, met by shedding.
    Shed,
    /// A worker crash recovered by incremental migration; a second
    /// crash mid-migration abandons the first attempt.
    Migration,
}

const SCENARIOS: [Scenario; 5] = [
    Scenario::Recovery,
    Scenario::Scaling,
    Scenario::Rollback,
    Scenario::Shed,
    Scenario::Migration,
];

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::Recovery => "recovery",
            Scenario::Scaling => "scaling",
            Scenario::Rollback => "rollback",
            Scenario::Shed => "shed",
            Scenario::Migration => "migration",
        }
    }

    fn golden(self) -> &'static str {
        match self {
            Scenario::Recovery => include_str!("golden/journal_recovery.jsonl"),
            Scenario::Scaling => include_str!("golden/journal_scaling.jsonl"),
            Scenario::Rollback => include_str!("golden/journal_rollback.jsonl"),
            Scenario::Shed => include_str!("golden/journal_shed.jsonl"),
            Scenario::Migration => include_str!("golden/journal_migration.jsonl"),
        }
    }

    /// The golden's journal text (every line but the last).
    fn golden_journal(self) -> String {
        let golden = self.golden();
        let body = golden.trim_end_matches('\n');
        let cut = body.rfind('\n').map(|i| i + 1).unwrap_or(0);
        golden[..cut].to_string()
    }
}

/// A run's outcome and the journal it wrote.
type Outcome = (Result<ClosedLoopTrace, ControllerError>, String);

/// Runs `scenario` fresh, or recovered from `journal` when given, with
/// an optional controller kill.
fn run(scenario: Scenario, kill: Option<KillPoint>, journal: Option<&str>) -> Outcome {
    let q1 = capsys::queries::q1_sliding();
    let (query, cluster) = match scenario {
        Scenario::Scaling => (
            q1.with_parallelism(&[1, 1, 1, 1]).unwrap(),
            Cluster::homogeneous(4, WorkerSpec::m5d_2xlarge(8)).unwrap(),
        ),
        _ => (
            q1.clone(),
            Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4)).unwrap(),
        ),
    };
    let base = q1.capacity_rate(&cluster, 0.5).unwrap();
    let schedule = match scenario {
        Scenario::Rollback => RateSchedule::Steps(vec![(0.0, base), (80.0, 1.8 * base)]),
        Scenario::Shed => RateSchedule::Program(RateProgram {
            base,
            origin: 0.0,
            growth_per_sec: 0.0,
            diurnal_amplitude: 0.0,
            diurnal_period: 0.0,
            diurnal_phase: 0.0,
            flashes: vec![FlashCrowd {
                start: 60.0,
                ramp: 5.0,
                hold: 60.0,
                decay: 5.0,
                magnitude: 7.0,
            }],
            horizon: 240.0,
        }),
        _ => RateSchedule::Constant(base),
    };
    let (activation_period, horizon) = match scenario {
        Scenario::Recovery => (60.0, 200.0),
        Scenario::Scaling => (20.0, 120.0),
        Scenario::Rollback => (60.0, 200.0),
        Scenario::Shed => (1e6, 200.0),
        Scenario::Migration => (1000.0, 300.0),
    };
    let ds2 = Ds2Config {
        activation_period,
        policy_interval: 5.0,
        max_parallelism: 8,
        headroom: 1.0,
    };
    let sim = SimConfig {
        duration: 1.0,
        warmup: 0.0,
        ..SimConfig::default()
    };
    let strategy = CapsStrategy::default();
    let built = match journal {
        None => ClosedLoop::new(&query, &cluster, &strategy, ds2, sim, schedule, 7),
        Some(text) => {
            ClosedLoop::recover_from_journal(&query, &cluster, &strategy, ds2, sim, schedule, text)
        }
    };
    let mut loop_ = match built {
        Ok(l) => l,
        Err(e) => return (Err(e), String::new()),
    };

    // Crash victims are named by the tasks they host in the initial
    // placement, so the fresh and the recovered run pick the same ones.
    let victim = loop_.placement().worker_of(TaskId(0));
    let crashes = match scenario {
        Scenario::Recovery => vec![(60.0, victim)],
        Scenario::Migration => {
            let second = (1..query.physical().num_tasks())
                .map(|t| loop_.placement().worker_of(TaskId(t)))
                .find(|&w| w != victim)
                .unwrap();
            vec![(60.0, victim), (SECOND_CRASH, second)]
        }
        _ => vec![],
    };
    let mut plan = FaultPlan::new(
        crashes
            .into_iter()
            .map(|(time, w)| FaultEvent {
                time,
                kind: FaultKind::Crash(w),
            })
            .collect(),
    )
    .unwrap();
    if scenario == Scenario::Rollback {
        plan = plan
            .with_model_skew(ModelSkew {
                time: 70.0,
                factor: 3.5,
            })
            .unwrap();
    }
    if let Some(k) = kill {
        plan = plan.with_controller_kill(k).unwrap();
    }
    loop_ = loop_.with_fault_plan(plan).unwrap();
    match scenario {
        Scenario::Recovery => loop_ = loop_.with_recovery(RecoveryConfig::default()),
        Scenario::Scaling => {}
        Scenario::Rollback => loop_ = loop_.with_guard(GuardConfig::default()).unwrap(),
        Scenario::Shed => loop_ = loop_.with_shedding(ShedConfig::default()).unwrap(),
        Scenario::Migration => {
            loop_ = loop_
                .with_recovery(RecoveryConfig::default())
                .with_state_transfer(2e5)
                .unwrap()
                .with_incremental_migration(MigrationConfig {
                    epsilon: 0.05,
                    wave_size: 1,
                })
                .unwrap();
        }
    }
    let (sink, buf) = DecisionJournal::in_memory();
    let result = loop_.with_journal(sink).unwrap().run(horizon);
    (result, buf.text())
}

/// When the second worker of the migration scenario dies: while the
/// first migration's waves are still draining.
const SECOND_CRASH: f64 = 80.0;

/// The golden text of a finished run: journal, then the trace line.
fn golden_text(journal: &str, trace: &ClosedLoopTrace) -> String {
    format!("{journal}{}\n", trace.to_json())
}

/// A record's kind, with `Prepare` split by its reason.
fn kind(rec: &DecisionRecord) -> &'static str {
    match rec {
        DecisionRecord::Init { .. } => "init",
        DecisionRecord::Prepare {
            reason: RedeployReason::Scaling,
            ..
        } => "prepare/scaling",
        DecisionRecord::Prepare {
            reason: RedeployReason::Recovery,
            ..
        } => "prepare/recovery",
        DecisionRecord::Commit { .. } => "commit",
        DecisionRecord::Retry { .. } => "retry",
        DecisionRecord::Rollback { .. } => "rollback",
        DecisionRecord::Shed { .. } => "shed",
        DecisionRecord::MigratePrepare { .. } => "migrate-prepare",
        DecisionRecord::MigrateStep { .. } => "migrate-step",
        DecisionRecord::MigrateCommit { .. } => "migrate-commit",
    }
}

#[test]
fn runs_reproduce_the_golden_journals_and_traces() {
    for s in SCENARIOS {
        let (result, journal) = run(s, None, None);
        let trace = result.unwrap_or_else(|e| panic!("{} run failed: {e}", s.name()));
        assert!(
            golden_text(&journal, &trace) == s.golden(),
            "{}: journal or trace differs from tests/golden/journal_{}.jsonl",
            s.name(),
            s.name()
        );
    }
}

#[test]
fn killed_runs_recover_to_the_golden_journals_and_traces() {
    for s in SCENARIOS {
        // Record 0 (`Init`) is written before the loop runs; the kill
        // switch guards decisions from record 1 on.
        let records = s.golden_journal().lines().count() as u64;
        for k in 1..records {
            let (dead, partial) = run(s, Some(KillPoint::AfterRecord(k)), None);
            assert!(
                matches!(dead, Err(ControllerError::ControllerKilled { .. })),
                "{}: kill after record {k} did not fire",
                s.name()
            );
            let (result, journal) = run(s, None, Some(&partial));
            let trace = result
                .unwrap_or_else(|e| panic!("{}: recovery after record {k} failed: {e}", s.name()));
            assert!(
                golden_text(&journal, &trace) == s.golden(),
                "{}: recovery after record {k} diverged from the golden",
                s.name()
            );
        }
    }
}

#[test]
fn goldens_hold_every_record_kind() {
    let mut seen = BTreeSet::new();
    for s in SCENARIOS {
        let parsed = parse_journal(&s.golden_journal()).unwrap();
        assert!(!parsed.torn, "{}: golden journal is torn", s.name());
        seen.extend(parsed.records.iter().map(kind));
    }
    let all = [
        "init",
        "prepare/scaling",
        "prepare/recovery",
        "commit",
        "retry",
        "rollback",
        "shed",
        "migrate-prepare",
        "migrate-step",
        "migrate-commit",
    ];
    for k in all {
        assert!(seen.contains(k), "no golden journal holds a `{k}` record");
    }
}

/// Serializes `records` as a fresh journal.
fn encode(records: &[DecisionRecord]) -> String {
    let (mut sink, buf) = DecisionJournal::in_memory();
    for r in records {
        sink.append(r).unwrap();
    }
    buf.text()
}

/// Index of the first record matching `pred`.
fn find(records: &[DecisionRecord], pred: impl Fn(&DecisionRecord) -> bool) -> usize {
    records
        .iter()
        .position(pred)
        .expect("golden holds the record to tamper with")
}

fn first_scaling_prepare(records: &[DecisionRecord]) -> usize {
    find(records, |r| {
        matches!(
            r,
            DecisionRecord::Prepare {
                reason: RedeployReason::Scaling,
                ..
            }
        )
    })
}

/// One tamper row: the scenario whose golden journal is edited, and the
/// edit.
type Tamper = (&'static str, Scenario, fn(&mut Vec<DecisionRecord>));

#[test]
fn tampered_journals_fail_replay() {
    let rows: [Tamper; 10] = [
        (
            "rollback target differs from the verdict",
            Scenario::Rollback,
            |recs| {
                let i = find(recs, |r| matches!(r, DecisionRecord::Rollback { .. }));
                if let DecisionRecord::Rollback { assignment, .. } = &mut recs[i] {
                    assignment[0] = (assignment[0] + 1) % 6;
                }
            },
        ),
        (
            "shed fraction differs from the verdict",
            Scenario::Shed,
            |recs| {
                let i = find(recs, |r| matches!(r, DecisionRecord::Shed { .. }));
                if let DecisionRecord::Shed { fraction, .. } = &mut recs[i] {
                    *fraction *= 0.5;
                }
            },
        ),
        (
            "migration moves differ from the plan diff",
            Scenario::Migration,
            |recs| {
                let i = find(recs, |r| matches!(r, DecisionRecord::MigratePrepare { .. }));
                if let DecisionRecord::MigratePrepare { moved, .. } = &mut recs[i] {
                    moved.pop();
                }
            },
        ),
        (
            "migration changes parallelism",
            Scenario::Migration,
            |recs| {
                let i = find(recs, |r| matches!(r, DecisionRecord::MigratePrepare { .. }));
                if let DecisionRecord::MigratePrepare { parallelism, .. } = &mut recs[i] {
                    parallelism[1] += 1;
                }
            },
        ),
        (
            "commit epoch differs from its prepare",
            Scenario::Scaling,
            |recs| {
                let i = first_scaling_prepare(recs);
                if let DecisionRecord::Commit { epoch, .. } = &mut recs[i + 1] {
                    *epoch += 1;
                }
            },
        ),
        (
            "scaling prepare followed by a retry",
            Scenario::Scaling,
            |recs| {
                let i = first_scaling_prepare(recs);
                let time = recs[i].time();
                recs[i + 1] = DecisionRecord::Retry {
                    time,
                    attempts: 1,
                    gave_up: false,
                    next_attempt_at: Some(time + 5.0),
                    rng: [1, 2, 3, 4],
                };
            },
        ),
        (
            "prepare followed by an unrelated record",
            Scenario::Scaling,
            |recs| {
                let i = first_scaling_prepare(recs);
                let time = recs[i].time();
                recs[i + 1] = DecisionRecord::Shed {
                    epoch: 99,
                    time,
                    fraction: 0.25,
                    rng: [1, 2, 3, 4],
                };
            },
        ),
        (
            "decision left behind the replay clock",
            Scenario::Scaling,
            |recs| {
                // Half a window early: never due at any window boundary.
                let i = first_scaling_prepare(recs);
                if let DecisionRecord::Prepare { time, .. } = &mut recs[i] {
                    *time -= 2.5;
                }
            },
        ),
        ("all-zero rng state", Scenario::Scaling, |recs| {
            let i = first_scaling_prepare(recs);
            if let DecisionRecord::Prepare { rng, .. } = &mut recs[i] {
                *rng = [0; 4];
            }
        }),
        ("invalid journaled placement", Scenario::Scaling, |recs| {
            let i = first_scaling_prepare(recs);
            if let DecisionRecord::Prepare { assignment, .. } = &mut recs[i] {
                assignment[0] = 99;
            }
        }),
    ];
    for (what, scenario, edit) in rows {
        let mut records = parse_journal(&scenario.golden_journal()).unwrap().records;
        let before = records.clone();
        edit(&mut records);
        assert_ne!(records, before, "{what}: the edit changed nothing");
        let (result, _) = run(scenario, None, Some(&encode(&records)));
        match result {
            Err(ControllerError::JournalReplay(_)) => {}
            Err(e) => panic!("{what}: expected a journal-replay error, got {e}"),
            Ok(_) => panic!("{what}: the tampered journal replayed without error"),
        }
    }
}

/// Rewrites every golden from the current build. Run only when a change
/// is meant to alter journals or traces (see the module docs).
#[test]
#[ignore]
fn regenerate_goldens() {
    for s in SCENARIOS {
        let (result, journal) = run(s, None, None);
        let trace = result.unwrap_or_else(|e| panic!("{} run failed: {e}", s.name()));
        let path = format!(
            "{}/tests/golden/journal_{}.jsonl",
            env!("CARGO_MANIFEST_DIR"),
            s.name()
        );
        std::fs::write(&path, golden_text(&journal, &trace)).unwrap();
    }
}
