//! Parallel CAPS search (§5.1): a work-stealing runtime.
//!
//! The paper parallelizes the search with a thread pool: "Each thread is
//! initially assigned to a random partition of the search space and can
//! subsequently dynamically offload work to other threads, if they become
//! available. Threads cache any satisfactory plan they identify locally.
//! When the search space has been fully explored, threads merge their
//! results and return the pareto-optimal solution."
//!
//! Earlier versions split the space into a fixed number of prefixes up
//! front and served them from one global queue, which serializes every
//! hand-off on a single lock and strands threads idle behind long
//! branches. This implementation instead gives each thread its own
//! [`capsys_util::deque::Worker`] deque (LIFO for the owner, FIFO for
//! thieves) and re-splits adaptively:
//!
//! * the space is seeded as depth-1 prefix units, dealt round-robin;
//! * when a thread picks up a unit while the global unit supply is low —
//!   or while a sibling has signalled starvation — it expands the unit
//!   into its children (one more fixed layer) instead of exploring it,
//!   pushing them onto its own deque where thieves can take the oldest,
//!   coarsest ones;
//! * splitting is capped at [`MAX_SPLIT_DEPTH`] layers, so the total
//!   prefix-replay overhead never exceeds what the old static split paid
//!   up front, but units finer than depth 1 are only materialized when
//!   someone actually needs the parallelism.
//!
//! Because the children of a prefix partition exactly its subtree (see
//! `expand_prefix`), the set of feasible plans found — and the
//! `plans_found` statistic — are independent of the steal schedule.
//!
//! Threads additionally share:
//!
//! * a stop flag (first-feasible and abort propagation);
//! * a deadline flag raised by one watchdog thread, so workers never
//!   call `Instant::now` on the hot path;
//! * the dead-state memo table, when the search uses one.
//!
//! In a decision search (`SearchConfig::thresholds` is `None`) each
//! thread also bounds its walk by the worst plan of its own full local
//! store. Every cut is justified by `max_plans` strictly cheaper plans in
//! that thread's store, so no plan of the merged top-`max_plans` is lost,
//! though `plans_found` then depends on the schedule.
//!
//! A worker that panics is caught, the remaining workers are stopped and
//! joined cleanly, and the run returns [`CapsError::SearchPanicked`]
//! instead of poisoning the whole process.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use capsys_model::PlanEnumerator;
use capsys_util::deque::{Steal, Stealer, Worker};
use capsys_util::fixed::Fixed64;

use crate::error::CapsError;
use crate::search::{cmp_scored, CapsVisitor, RunStats, ScoredPlan, SearchConfig};
use crate::strategy::StrategyContext;

/// Maximum prefix depth for adaptive re-splitting. Deeper splits would
/// pay more prefix-replay overhead than the parallelism they buy.
const MAX_SPLIT_DEPTH: usize = 3;

/// A thread splits (rather than explores) a picked-up unit whenever the
/// global unit supply is below `threads * LOW_WATER`.
const LOW_WATER: usize = 4;

/// While a sibling is starving, splitting stays on until the supply
/// reaches `threads * HIGH_WATER`.
const HIGH_WATER: usize = 32;

/// How many failed steal sweeps a starving thread spin-yields before it
/// starts sleeping between sweeps.
const SPIN_SWEEPS: usize = 64;

/// A work unit: the rows of the first `len` outer layers, fixed.
type Unit = Vec<Vec<usize>>;

/// State shared by all workers of one parallel run.
struct Shared {
    stealers: Vec<Stealer<Unit>>,
    /// Units created but not yet fully explored. Splitting a unit into
    /// `k` children adds `k - 1` *before* the children are published, so
    /// `in_flight == 0` proves the space is exhausted.
    in_flight: AtomicUsize,
    /// Number of threads currently failing to find work.
    starving: AtomicUsize,
    /// Cooperative stop: first-feasible hit, abort, or worker panic.
    stop: AtomicBool,
    /// Raised by the watchdog thread when the deadline passes.
    deadline_hit: AtomicBool,
    /// Workers still running; the watchdog exits when this hits zero.
    active: AtomicUsize,
}

/// Runs the search across `config.threads` threads and merges the
/// per-thread plan caches. Also returns the per-dimension minimum of
/// the threads' `unchanged_up_to` limits, which describes the whole walk
/// when it finished.
pub(crate) fn run_parallel(
    ctx: &StrategyContext<'_>,
) -> Result<(Vec<ScoredPlan>, RunStats, [Fixed64; 3]), CapsError> {
    let StrategyContext {
        physical,
        model,
        topo,
        enumerator,
        bound,
        memo,
        config,
        deadline,
        start,
    } = *ctx;
    let threads = config.threads;
    let split_cap = MAX_SPLIT_DEPTH.min(enumerator.order().len());

    let mut stats = RunStats {
        threads,
        ..RunStats::default()
    };

    // Seed: depth-1 prefixes dealt round-robin across the thread deques.
    let units = enumerator.prefixes(1);
    if units.is_empty() {
        stats.elapsed = start.elapsed();
        return Ok((Vec::new(), stats, [Fixed64::MAX; 3]));
    }

    let deques: Vec<Worker<Unit>> = (0..threads).map(|_| Worker::new_lifo()).collect();
    let shared = Shared {
        stealers: deques.iter().map(|d| d.stealer()).collect(),
        in_flight: AtomicUsize::new(units.len()),
        starving: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        deadline_hit: AtomicBool::new(false),
        active: AtomicUsize::new(threads),
    };
    for (i, u) in units.into_iter().enumerate() {
        deques[i % threads].push(u);
    }

    let mut merged: Vec<ScoredPlan> = Vec::new();
    let mut unchanged_up_to = [Fixed64::MAX; 3];
    let mut panicked = false;

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for (idx, my) in deques.into_iter().enumerate() {
            let shared = &shared;
            handles.push(scope.spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut visitor = CapsVisitor::new(
                        physical,
                        model,
                        topo,
                        bound,
                        config,
                        None,
                        Some(&shared.stop),
                    );
                    if deadline.is_some() {
                        visitor.set_deadline_flag(&shared.deadline_hit);
                    }
                    if let Some(setup) = memo {
                        // The table is shared: one thread proving a state
                        // dead spares every sibling that reaches it.
                        visitor.set_memo(setup);
                    }
                    let mut local = RunStats::default();
                    worker_loop(idx, &my, enumerator, split_cap, threads, shared, &mut visitor, &mut local);
                    local.aborted |= visitor.was_aborted();
                    local.memo_hits = visitor.memo_hits();
                    let unchanged = visitor.unchanged_up_to();
                    (visitor.into_found(), local, unchanged)
                }));
                shared.active.fetch_sub(1, Ordering::Release);
                match result {
                    Ok(r) => Some(r),
                    Err(_) => {
                        // Stop the siblings; the panicking thread's
                        // subtree is incomplete, so the run must fail.
                        shared.stop.store(true, Ordering::Relaxed);
                        None
                    }
                }
            }));
        }

        // One watchdog owns the clock: workers only read an atomic.
        if let Some(d) = deadline {
            let shared = &shared;
            scope.spawn(move || {
                while shared.active.load(Ordering::Acquire) > 0 {
                    if Instant::now() >= d {
                        shared.deadline_hit.store(true, Ordering::Relaxed);
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
            });
        }

        for h in handles {
            match h.join() {
                Ok(Some((found, local, unchanged))) => {
                    merged.extend(found);
                    for (acc, u) in unchanged_up_to.iter_mut().zip(unchanged) {
                        *acc = (*acc).min(u);
                    }
                    stats.nodes += local.nodes;
                    stats.pruned += local.pruned;
                    stats.plans_found += local.plans_found;
                    stats.memo_hits += local.memo_hits;
                    stats.aborted |= local.aborted;
                }
                Ok(None) | Err(_) => {
                    shared.stop.store(true, Ordering::Relaxed);
                    panicked = true;
                }
            }
        }
    });

    if panicked {
        return Err(CapsError::SearchPanicked);
    }

    let merged = finalize_merge(merged, config);
    stats.elapsed = start.elapsed();
    Ok((merged, stats, unchanged_up_to))
}

/// The per-thread scheduling loop: pop own work, steal when empty, split
/// units while siblings starve, explore otherwise.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    idx: usize,
    my: &Worker<Unit>,
    enumerator: &PlanEnumerator,
    split_cap: usize,
    threads: usize,
    shared: &Shared,
    visitor: &mut CapsVisitor<'_>,
    local: &mut RunStats,
) {
    // Test-only fault hook: lets an integration test (running in its own
    // process) prove that a worker panic surfaces as `SearchPanicked`
    // instead of hanging the remaining workers. Checked once per thread
    // per search, so the env lookup costs nothing on the hot path.
    if idx == 1 && std::env::var_os("CAPSYS_TEST_PANIC_SEARCH").is_some() {
        panic!("induced worker panic (CAPSYS_TEST_PANIC_SEARCH)");
    }

    let mut starving = false;
    let mut idle_sweeps = 0usize;
    loop {
        if shared.stop.load(Ordering::Relaxed) || shared.deadline_hit.load(Ordering::Relaxed) {
            if shared.deadline_hit.load(Ordering::Relaxed) {
                local.aborted = true;
            }
            break;
        }

        // Acquire: own deque first (LIFO), then sweep the siblings'
        // stealers starting after our own slot (FIFO — coarsest unit).
        let mut saw_retry = false;
        let unit = my.pop().or_else(|| {
            for k in 1..threads {
                match shared.stealers[(idx + k) % threads].steal() {
                    Steal::Success(u) => return Some(u),
                    Steal::Retry => saw_retry = true,
                    Steal::Empty => {}
                }
            }
            None
        });

        let Some(unit) = unit else {
            if !saw_retry && shared.in_flight.load(Ordering::Acquire) == 0 {
                break; // Space exhausted.
            }
            if !starving {
                starving = true;
                shared.starving.fetch_add(1, Ordering::Relaxed);
            }
            idle_sweeps += 1;
            if idle_sweeps < SPIN_SWEEPS {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(50));
            }
            continue;
        };
        if starving {
            starving = false;
            shared.starving.fetch_sub(1, Ordering::Relaxed);
        }
        idle_sweeps = 0;

        // Adaptive re-split: while units are scarce (or a sibling is
        // starving), publish this unit's children instead of exploring
        // it, so thieves can lift whole subtrees off our deque.
        let supply = shared.in_flight.load(Ordering::Relaxed);
        let hungry = shared.starving.load(Ordering::Relaxed) > 0;
        if unit.len() < split_cap
            && (supply < threads * LOW_WATER || (hungry && supply < threads * HIGH_WATER))
        {
            let children = enumerator.expand_prefix(&unit);
            if children.len() > 1 {
                shared
                    .in_flight
                    .fetch_add(children.len() - 1, Ordering::AcqRel);
                for child in children {
                    my.push(child);
                }
                continue;
            }
        }

        let s = enumerator.explore_with_prefix(&unit, visitor);
        local.nodes += s.nodes;
        local.pruned += s.pruned;
        local.plans_found += s.plans;
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        if visitor.was_aborted() {
            shared.stop.store(true, Ordering::Relaxed);
            break;
        }
    }

    if starving {
        shared.starving.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Applies the storage cap and first-feasible truncation to the merged
/// per-thread caches, without touching the run statistics.
///
/// Plans are ranked by the total order [`cmp_scored`], so the retained
/// set — and its order — is a deterministic function of the *set* of
/// plans the threads found, not of the steal schedule that found them.
pub(crate) fn finalize_merge(mut merged: Vec<ScoredPlan>, config: &SearchConfig) -> Vec<ScoredPlan> {
    if config.first_feasible && merged.len() > 1 {
        // Keep one witness. The stats still report every plan the race
        // found before the stop flag landed.
        if let Some(best) = merged.into_iter().min_by(cmp_scored) {
            return vec![best];
        }
        return Vec::new();
    }
    if merged.len() > config.max_plans {
        // Partition around the cap instead of sorting the full set.
        merged.select_nth_unstable_by(config.max_plans, cmp_scored);
        merged.truncate(config.max_plans);
    }
    merged.sort_by(cmp_scored);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostVector, Thresholds};
    use crate::search::CapsSearch;
    use capsys_model::{
        Cluster, ConnectionPattern, LoadModel, LogicalGraph, OperatorId, OperatorKind,
        PhysicalGraph, Placement, ResourceProfile, WorkerSpec,
    };
    use std::collections::HashMap;

    fn fixture() -> (LogicalGraph, PhysicalGraph, Cluster, LoadModel) {
        let mut b = LogicalGraph::builder("q");
        let s = b.operator(
            "src",
            OperatorKind::Source,
            2,
            ResourceProfile::new(0.0005, 0.0, 100.0, 1.0),
        );
        let m = b.operator(
            "map",
            OperatorKind::Stateless,
            3,
            ResourceProfile::new(0.001, 0.0, 80.0, 1.0),
        );
        let h = b.operator(
            "win",
            OperatorKind::Window,
            5,
            ResourceProfile::new(0.002, 500.0, 50.0, 0.5),
        );
        let k = b.operator(
            "sink",
            OperatorKind::Sink,
            2,
            ResourceProfile::new(0.0001, 0.0, 0.0, 1.0),
        );
        b.edge(s, m, ConnectionPattern::Rebalance);
        b.edge(m, h, ConnectionPattern::Hash);
        b.edge(h, k, ConnectionPattern::Hash);
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let c = Cluster::homogeneous(3, WorkerSpec::new(4, 4.0, 1e8, 1e9)).unwrap();
        let mut rates = HashMap::new();
        rates.insert(OperatorId(0), 1000.0);
        let lm = LoadModel::derive(&g, &p, &rates).unwrap();
        (g, p, c, lm)
    }

    #[test]
    fn parallel_matches_sequential_plan_count() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let th = Thresholds::new(0.6, 0.6, 0.9);
        let seq = search
            .run(&crate::search::SearchConfig {
                max_plans: usize::MAX / 2,
                ..crate::search::SearchConfig::with_thresholds(th)
            })
            .unwrap();
        let par = search
            .run(&crate::search::SearchConfig {
                max_plans: usize::MAX / 2,
                threads: 4,
                ..crate::search::SearchConfig::with_thresholds(th)
            })
            .unwrap();
        assert_eq!(seq.stats.plans_found, par.stats.plans_found);
        assert_eq!(seq.feasible.len(), par.feasible.len());
        // Same canonical plan sets regardless of thread interleaving.
        let key = |plans: &[ScoredPlan]| {
            let mut ks: Vec<_> = plans
                .iter()
                .map(|s| s.plan.canonical_key(&p, c.num_workers()))
                .collect();
            ks.sort();
            ks
        };
        assert_eq!(key(&seq.feasible), key(&par.feasible));
    }

    #[test]
    fn parallel_first_feasible_returns_one_plan() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let out = search
            .run(
                &crate::search::SearchConfig::exhaustive()
                    .with_threads(4)
                    .first_feasible(),
            )
            .unwrap();
        assert_eq!(out.feasible.len(), 1);
        out.feasible[0].plan.validate(&p, &c).unwrap();
        // Regression: truncating storage to one witness must not rewrite
        // the statistics — they report what the race actually found.
        assert!(out.stats.plans_found >= 1);
    }

    #[test]
    fn parallel_costs_match_cost_model() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let out = search
            .run(&crate::search::SearchConfig {
                threads: 3,
                max_plans: usize::MAX / 2,
                ..crate::search::SearchConfig::exhaustive()
            })
            .unwrap();
        let model = search.cost_model();
        for s in out.feasible.iter().take(50) {
            let exact = model.cost(&p, &s.plan);
            assert!((exact.cpu - s.cost.cpu).abs() < 1e-9);
            assert!((exact.io - s.cost.io).abs() < 1e-9);
            assert!((exact.net - s.cost.net).abs() < 1e-9);
        }
    }

    fn scored(max: f64, tag: usize) -> ScoredPlan {
        // Distinct single-task plans so the assignment tie-break kicks in.
        ScoredPlan {
            plan: Placement::new(vec![capsys_model::WorkerId(tag)]),
            cost: CostVector::new(max, 0.0, 0.0),
        }
    }

    #[test]
    fn finalize_merge_caps_and_orders_deterministically() {
        let config = crate::search::SearchConfig {
            max_plans: 2,
            ..crate::search::SearchConfig::exhaustive()
        };
        // Two arrival orders of the same set give the same result.
        let a = vec![scored(0.5, 0), scored(0.1, 1), scored(0.3, 2)];
        let b = vec![scored(0.3, 2), scored(0.5, 0), scored(0.1, 1)];
        let fa = finalize_merge(a, &config);
        let fb = finalize_merge(b, &config);
        assert_eq!(fa, fb);
        assert_eq!(fa.len(), 2);
        assert!(fa[0].cost.max_component() <= fa[1].cost.max_component());
    }

    #[test]
    fn finalize_merge_first_feasible_keeps_stats_untouched() {
        // The first-feasible truncation must not pretend only one plan
        // was found: finalize_merge never touches stats at all, it only
        // picks the deterministic best witness.
        let config = crate::search::SearchConfig::exhaustive().first_feasible();
        let merged = vec![scored(0.5, 0), scored(0.1, 1)];
        let out = finalize_merge(merged, &config);
        assert_eq!(out.len(), 1);
        assert!((out[0].cost.max_component() - 0.1).abs() < 1e-12);
    }
}
