//! Warm-started threshold auto-tuning against the cold reference.
//!
//! The warm tuner answers probes from cached witnesses and cached
//! failures (crates/core/src/autotune.rs). On instances where no probe
//! runs out of its budget, every cached answer is the one a search would
//! give, so the tuning result must be the cold tuner's bit for bit; only
//! the number of probe searches may fall.

use capsys::caps::{
    AutoTuneConfig, AutoTuneReport, AutoTuner, CapsSearch, MctsConfig, SearchBackend, SearchConfig,
};
use capsys::model::{Cluster, WorkerSpec};
use capsys::queries::{all_queries, q6_session, Query};

/// Tunes `query` on `workers` r5d workers of `slots` slots at `util` of
/// the cluster's capacity, warm or cold.
fn tune(
    query: &Query,
    workers: usize,
    slots: usize,
    util: f64,
    base: &SearchConfig,
    warm: bool,
) -> AutoTuneReport {
    let cluster = Cluster::homogeneous(workers, WorkerSpec::r5d_xlarge(slots)).expect("cluster");
    let physical = query.physical();
    let rate = query.capacity_rate(&cluster, util).expect("capacity");
    let loads = query.load_model_at(&physical, rate).expect("loads");
    let search = CapsSearch::new(query.logical(), &physical, &cluster, &loads).expect("search");
    let config = AutoTuneConfig {
        warm_start: warm,
        ..base.auto_tune.clone()
    };
    AutoTuner::new(&config)
        .tune(&search, base)
        .expect("tuning succeeds")
}

fn bits(xs: [f64; 3]) -> [u64; 3] {
    xs.map(f64::to_bits)
}

/// Asserts the warm report is the cold one apart from probe economy,
/// and returns both.
fn warm_matches_cold(
    query: &Query,
    workers: usize,
    slots: usize,
    util: f64,
    base: &SearchConfig,
) -> (AutoTuneReport, AutoTuneReport) {
    let warm = tune(query, workers, slots, util, base, true);
    let cold = tune(query, workers, slots, util, base, false);
    let at = format!("{} on {workers}x{slots} at {util}", query.name());
    let th = |r: &AutoTuneReport| bits([r.thresholds.cpu, r.thresholds.io, r.thresholds.net]);
    assert_eq!(th(&warm), th(&cold), "thresholds differ: {at}");
    assert_eq!(
        bits(warm.per_dimension),
        bits(cold.per_dimension),
        "per-dimension minima differ: {at}"
    );
    assert_eq!(warm.iterations, cold.iterations, "iterations differ: {at}");
    assert_eq!(cold.cache_hits, 0, "cold tuner used its cache: {at}");
    assert!(
        warm.probe_searches <= cold.probe_searches,
        "warm tuner searched more: {at}"
    );
    assert_eq!(
        warm.probe_searches + warm.cache_hits,
        warm.iterations,
        "probe accounting broken: {at}"
    );
    (warm, cold)
}

#[test]
fn warm_tuner_matches_cold_on_the_paper_queries() {
    let base = SearchConfig::auto_tuned();
    for query in all_queries() {
        for scale in [1, 2] {
            let query = query.scaled(scale).expect("paper queries scale");
            let tasks = query.logical().total_tasks();
            for slots in [4, 8] {
                warm_matches_cold(&query, tasks.div_ceil(slots), slots, 0.5, &base);
            }
        }
    }
}

#[test]
fn identical_infeasible_probes_are_answered_from_the_cache() {
    // Q6-session on five 4-slot workers: the per-dimension phase relaxes
    // its thresholds through dozens of 1.1x steps whose probes all walk
    // the same tree. A failure's rejected-load minima answer the rest of
    // its run; the cold tuner searches every probe.
    let (warm, cold) = warm_matches_cold(&q6_session(), 5, 4, 0.5, &SearchConfig::auto_tuned());
    assert_eq!(cold.probe_searches, 77);
    assert_eq!(warm.probe_searches, 3);
}

#[test]
fn mcts_backed_warm_tuner_matches_cold() {
    // MCTS probes sample rather than exhaust, so a failure only answers
    // probes at or below its own load bound; the tuned thresholds must
    // still equal the cold tuner's.
    let base = SearchConfig {
        node_budget: Some(20_000),
        backend: SearchBackend::Mcts(MctsConfig::seeded(0xFEED)),
        ..SearchConfig::auto_tuned()
    };
    let query = q6_session();
    warm_matches_cold(&query, 5, 4, 0.5, &base);
}
