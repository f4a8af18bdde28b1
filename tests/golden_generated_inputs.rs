//! Cross-commit golden for the seeded input generators: the fault plans
//! `FaultPlan::generate` draws and the rate programs
//! `WorkloadEngine::generate` draws for the configurations the
//! experiment harnesses and the `adapt` benchmark use, pinned
//! byte-for-byte in `tests/golden/generated_inputs.txt`.
//!
//! Each line is a case label and the `Debug` rendering of the generated
//! value (Rust prints shortest round-trip floats, so equal text means
//! equal bits). A change that removes a generator class no caller
//! enables, or reorders a class's draws, must leave every line as it
//! is: a zero-count class draws nothing, so no other class may move.
//!
//! If a change intentionally alters what the generators draw,
//! regenerate with:
//!
//! ```text
//! cargo test --release --test golden_generated_inputs -- --ignored regenerate_golden
//! ```

use capsys::model::{Cluster, OperatorId, WorkerSpec};
use capsys::queries::q1_sliding;
use capsys::sim::{ChaosConfig, FaultPlan, WorkloadConfig, WorkloadEngine};

const GOLDEN: &str = include_str!("golden/generated_inputs.txt");

/// Seeds the self-asserting harnesses run under in CI.
const HARNESS_SEEDS: [u64; 3] = [7, 11, 23];
/// `perfbench`'s default and held-out seeds.
const BENCH_SEEDS: [u64; 2] = [1, 90_001];
/// Workers of the 6 × r5d.xlarge cluster the harnesses fault.
const HARNESS_WORKERS: usize = 6;
/// `adapt`'s episode: 360 windows of 5 s on 12 workers.
const ADAPT_HORIZON: f64 = 5.0 * 360.0;
const ADAPT_WORKERS: usize = 12;

/// `exp_chaos`: a crash that outlives the run, a straggler, a blackout
/// and 2% metric noise.
fn chaos_exp_chaos(seed: u64, horizon: f64) -> ChaosConfig {
    ChaosConfig {
        seed,
        horizon,
        crashes: 1,
        crash_downtime: (horizon, horizon),
        stragglers: 1,
        slowdown: (2.0, 3.0),
        straggler_duration: (40.0, 60.0),
        blackouts: 1,
        blackout_duration: (5.0, 10.0),
        metric_noise: 0.02,
        controller_kills: 0,
        model_skews: 0,
        skew_factor: (2.0, 4.0),
        ..ChaosConfig::default()
    }
}

/// `exp_guard` and `exp_hostile`'s regression scenario: one model skew
/// and nothing else.
fn chaos_skew_only(seed: u64, horizon: f64) -> ChaosConfig {
    ChaosConfig {
        seed,
        horizon,
        crashes: 0,
        stragglers: 0,
        blackouts: 0,
        metric_noise: 0.0,
        controller_kills: 0,
        model_skews: 1,
        skew_factor: (3.0, 4.0),
        ..ChaosConfig::default()
    }
}

/// `exp_recovery`'s chaos kill case: a permanent crash, metric noise and
/// one seeded controller kill.
fn chaos_exp_recovery(seed: u64, horizon: f64) -> ChaosConfig {
    ChaosConfig {
        seed,
        horizon,
        crashes: 1,
        crash_downtime: (horizon, horizon),
        stragglers: 0,
        slowdown: (2.0, 3.0),
        straggler_duration: (40.0, 60.0),
        blackouts: 0,
        blackout_duration: (5.0, 10.0),
        metric_noise: 0.02,
        controller_kills: 1,
        model_skews: 0,
        skew_factor: (2.0, 4.0),
        ..ChaosConfig::default()
    }
}

/// `adapt`: two crashes and one worker partition.
fn chaos_adapt(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        horizon: ADAPT_HORIZON,
        crashes: 2,
        crash_downtime: (90.0, 90.0),
        stragglers: 0,
        blackouts: 0,
        partitions: 1,
        partition_duration: (40.0, 40.0),
        ..ChaosConfig::default()
    }
}

/// `exp_hostile`'s three traffic shapes (organic growth, a flash crowd
/// and the sustained 8x overload) at its 300 s horizon.
fn workloads_exp_hostile(seed: u64, base: f64) -> Vec<(&'static str, WorkloadConfig)> {
    let horizon = 300.0;
    let growth_base = base * 0.5;
    let flash_base = base * 0.45;
    vec![
        (
            "growth",
            WorkloadConfig {
                seed,
                horizon,
                base_rate: growth_base,
                growth_per_sec: (growth_base * 0.015, growth_base * 0.018),
                ..WorkloadConfig::default()
            },
        ),
        (
            "flash",
            WorkloadConfig {
                seed,
                horizon,
                base_rate: flash_base,
                flashes: 1,
                flash_magnitude: (6.0, 7.5),
                flash_ramp: (30.0, 45.0),
                flash_hold: (40.0, 60.0),
                ..WorkloadConfig::default()
            },
        ),
        (
            "overload",
            WorkloadConfig {
                seed,
                horizon,
                base_rate: base,
                flashes: 1,
                flash_magnitude: (7.0, 7.0),
                flash_ramp: (30.0, 30.0),
                flash_hold: (90.0, 90.0),
                ..WorkloadConfig::default()
            },
        ),
    ]
}

/// `adapt`: a diurnal swing, two flash crowds and slow growth. Built in
/// two steps so that every literal leaves some field to its base, which
/// keeps it independent of how many fields the config has.
fn workload_adapt(seed: u64, base: f64) -> WorkloadConfig {
    let shape = WorkloadConfig {
        diurnal_amplitude: (0.3, 0.3),
        diurnal_period: (600.0, 600.0),
        flashes: 2,
        flash_magnitude: (2.5, 2.5),
        flash_ramp: (30.0, 30.0),
        flash_hold: (60.0, 60.0),
        ..WorkloadConfig::default()
    };
    WorkloadConfig {
        seed,
        horizon: ADAPT_HORIZON,
        base_rate: base,
        growth_per_sec: (base * 3e-4, base * 3e-4),
        ..shape
    }
}

fn fault_line(label: &str, config: &ChaosConfig, workers: usize) -> String {
    let plan = FaultPlan::generate(config, workers)
        .unwrap_or_else(|e| panic!("{label}: fault plan generation failed: {e}"));
    format!("{label}: {plan:?}")
}

fn workload_line(label: &str, config: WorkloadConfig, sources: &[OperatorId]) -> String {
    let programs = WorkloadEngine::new(config)
        .and_then(|engine| engine.generate(sources))
        .unwrap_or_else(|e| panic!("{label}: workload generation failed: {e}"));
    format!("{label}: {programs:?}")
}

/// Every pinned line, in file order.
fn lines() -> Vec<String> {
    let mut out = Vec::new();
    for seed in HARNESS_SEEDS {
        for horizon in [240.0, 600.0] {
            out.push(fault_line(
                &format!("fault exp_chaos seed={seed} horizon={horizon}"),
                &chaos_exp_chaos(seed, horizon),
                HARNESS_WORKERS,
            ));
        }
        for horizon in [300.0, 600.0] {
            out.push(fault_line(
                &format!("fault exp_guard/exp_hostile seed={seed} horizon={horizon}"),
                &chaos_skew_only(seed, horizon),
                HARNESS_WORKERS,
            ));
        }
        for horizon in [150.0, 300.0] {
            out.push(fault_line(
                &format!("fault exp_recovery seed={seed} horizon={horizon}"),
                &chaos_exp_recovery(seed, horizon),
                HARNESS_WORKERS,
            ));
        }
    }
    for seed in BENCH_SEEDS {
        out.push(fault_line(
            &format!("fault adapt seed={seed}"),
            &chaos_adapt(seed),
            ADAPT_WORKERS,
        ));
    }

    let query = q1_sliding();
    let harness_cluster =
        Cluster::homogeneous(HARNESS_WORKERS, WorkerSpec::r5d_xlarge(4)).expect("cluster");
    let hostile_base = query.capacity_rate(&harness_cluster, 0.5).expect("capacity");
    for seed in HARNESS_SEEDS {
        for (shape, config) in workloads_exp_hostile(seed, hostile_base) {
            out.push(workload_line(
                &format!("workload exp_hostile {shape} seed={seed}"),
                config,
                &[OperatorId(0)],
            ));
        }
    }
    let adapt_query = q1_sliding().scaled(2).expect("scaled query");
    let adapt_cluster =
        Cluster::homogeneous(ADAPT_WORKERS, WorkerSpec::r5d_xlarge(4)).expect("cluster");
    let adapt_base = adapt_query
        .capacity_rate(&adapt_cluster, 0.3)
        .expect("capacity");
    for seed in BENCH_SEEDS {
        out.push(workload_line(
            &format!("workload adapt seed={seed}"),
            workload_adapt(seed, adapt_base),
            &[OperatorId(0)],
        ));
    }
    out
}

fn golden_text() -> String {
    let mut text = lines().join("\n");
    text.push('\n');
    text
}

#[test]
fn generated_inputs_match_the_golden() {
    let actual = golden_text();
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let got: Vec<&str> = actual.lines().collect();
    assert_eq!(
        got.len(),
        expected.len(),
        "golden has {} lines, generators produced {}",
        expected.len(),
        got.len()
    );
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g, e, "line {} differs from the golden", i + 1);
    }
}

#[test]
fn generated_inputs_are_pure_functions_of_their_config() {
    assert_eq!(golden_text(), golden_text());
}

#[test]
#[ignore]
fn regenerate_golden() {
    let path = format!(
        "{}/tests/golden/generated_inputs.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::write(&path, golden_text()).unwrap();
}
