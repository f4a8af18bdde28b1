//! Threshold auto-tuning (§5.2).
//!
//! Threshold-based pruning requires a factor `α⃗`, and the paper's goal is
//! the *minimum feasible* threshold: tight enough to return the most
//! resource-balanced plan, loose enough that a plan exists. The
//! auto-tuner proceeds in two phases:
//!
//! 1. **Per-dimension minimum.** For each dimension in isolation (the
//!    other two disabled), start from the tightest possible bound and
//!    relax it geometrically (factor 1.1, as in the paper) until a
//!    feasible plan exists.
//! 2. **Joint relaxation.** Feasibility per dimension does not imply
//!    joint feasibility, so starting from the phase-1 vector, all three
//!    thresholds are relaxed together until a plan satisfying all of them
//!    exists.
//!
//! A configurable timeout bounds the total tuning time; hitting it
//! returns [`CapsError::AutoTuneTimeout`].
//!
//! Both phases are **warm-started** (on by default), so most probes are
//! answered without a search:
//!
//! * **Witnesses.** A probe that finds a plan caches its cost vector; a
//!   later probe whose thresholds admit a cached witness is feasible.
//!   This answer is exact about feasibility, but a cold probe under the
//!   same thresholds could still run out of its node budget before it
//!   reaches any plan and report "infeasible".
//! * **Failures.** A probe that comes up empty caches, per dimension, the
//!   largest load bound up to which its answer carries over; a later
//!   probe whose exact load bound
//!   ([`CostModel::load_bound`](crate::cost::CostModel::load_bound))
//!   stays within that in every dimension is infeasible. For a DFS probe that
//!   finished, or that ran sequentially into its node budget, the cached
//!   bound sits one mantissa below the smallest load its limit checks
//!   rejected: loads only grow down the tree, so any bound between the
//!   probe's own and that value walks the identical tree and gets the
//!   identical answer — budget abort included, which lands on the same
//!   node — and any tighter bound walks a subtree. This answer equals
//!   the cold tuner's. For MCTS probes, time-budget aborts and parallel
//!   budget aborts (schedule-dependent) the cached bound is the probe's
//!   own, so only equal or tighter probes are answered; that is exact
//!   for a finished walk, and a conservative early exit otherwise, like
//!   the budget-aborted probe itself.
//!
//! The tuner relaxes each chain of probes monotonically, so a failure
//! entry answers the later probes of its own chain, which sit at or
//! above its bound; the long runs of identical infeasible searches that
//! small relaxation steps produce become O(1) checks. Where no probe
//! runs out of a budget, every warm answer equals the cold one, so the
//! tuned thresholds are the cold tuner's. With `warm_start: false`
//! every probe searches: the cold reference.

use std::time::{Duration, Instant};

use capsys_util::fixed::Fixed64;

use crate::cost::{CostVector, Thresholds};
use crate::error::CapsError;
use crate::search::{CapsSearch, SearchConfig};

/// Geometric relaxation factor of both tuning phases (paper: 1.1).
const RELAX_FACTOR: f64 = 1.1;

/// The smallest non-zero threshold to try when the tightest bound is
/// zero (a geometric relaxation cannot leave zero on its own).
const RELAX_SEED: f64 = 0.01;

/// Dimensions whose aggregate demand is below this fraction of the
/// cluster capacity are left unconstrained (`α = ∞`): an under-pressure
/// dimension cannot produce contention, and tight thresholds on it would
/// push the search toward plans that trade real balance (e.g. CPU) for
/// irrelevant balance (e.g. network on an idle NIC).
const MIN_PRESSURE: f64 = 0.05;

/// Configuration of the threshold auto-tuner.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoTuneConfig {
    /// Wall-clock budget for the whole tuning process.
    pub timeout: Duration,
    /// Node budget per feasibility probe. A probe that exhausts the
    /// budget without finding a plan is treated as infeasible and the
    /// threshold is relaxed further — a conservative early exit that
    /// keeps tuning fast on very large plan spaces.
    pub probe_node_budget: usize,
    /// Answer probes from cached witness plans and cached failures before
    /// launching a probe search (see the module docs). A failure answer
    /// is the answer the cold search would give; a witness answer is
    /// exact about feasibility, and differs from a cold probe only where
    /// that probe would have run out of its node budget first. `false`
    /// searches every probe: the cold reference.
    pub warm_start: bool,
}

impl Default for AutoTuneConfig {
    fn default() -> Self {
        AutoTuneConfig {
            timeout: Duration::from_secs(5),
            probe_node_budget: 2_000_000,
            warm_start: true,
        }
    }
}

/// The outcome of threshold auto-tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoTuneReport {
    /// The minimum jointly feasible threshold vector.
    pub thresholds: Thresholds,
    /// Phase-1 per-dimension minima `[α_cpu, α_io, α_net]`.
    pub per_dimension: [f64; 3],
    /// Total feasibility probes performed (searches plus cache hits).
    pub iterations: usize,
    /// Probes answered by an actual first-feasible search.
    pub probe_searches: usize,
    /// Probes answered from the warm-start caches without searching.
    pub cache_hits: usize,
    /// Total tuning time.
    pub elapsed: Duration,
}

/// Warm-start state shared by all probes of one tuning run.
#[derive(Default)]
struct ProbeCache {
    /// Cost vectors of witness plans found by earlier probes. Any
    /// thresholds a cached witness satisfies are feasible.
    witnesses: Vec<CostVector>,
    /// Per failed probe, the per-dimension load bounds up to which its
    /// answer carries over. A probe whose load bound is within one entry
    /// in every dimension is infeasible.
    infeasible: Vec<[Fixed64; 3]>,
    searches: usize,
    hits: usize,
}

impl ProbeCache {
    /// Answers a feasibility probe, from cache when possible.
    fn probe(
        &mut self,
        search: &CapsSearch<'_>,
        th: &Thresholds,
        base: &SearchConfig,
        deadline: Instant,
        warm: bool,
    ) -> Result<bool, CapsError> {
        if warm {
            if self.witnesses.iter().any(|w| w.within(th)) {
                self.hits += 1;
                return Ok(true);
            }
            let bound = search.cost_model().load_bound(th);
            let covered = |u: &[Fixed64; 3]| bound.iter().zip(u).all(|(b, u)| b <= u);
            if self.infeasible.iter().any(covered) {
                self.hits += 1;
                return Ok(false);
            }
        }
        self.searches += 1;
        match search.probe(th, base, Some(deadline))? {
            (Some(w), _) => {
                self.witnesses.push(w.cost);
                Ok(true)
            }
            (None, unchanged_up_to) => {
                self.infeasible.push(unchanged_up_to);
                Ok(false)
            }
        }
    }
}

/// The threshold auto-tuner.
pub struct AutoTuner<'a> {
    config: &'a AutoTuneConfig,
}

impl<'a> AutoTuner<'a> {
    /// Creates an auto-tuner with the given configuration.
    pub fn new(config: &'a AutoTuneConfig) -> AutoTuner<'a> {
        AutoTuner { config }
    }

    /// Runs both tuning phases for the given search instance.
    ///
    /// `base` supplies the search settings (thread count, reordering) used
    /// for the feasibility probes.
    pub fn tune(
        &self,
        search: &CapsSearch<'_>,
        base: &SearchConfig,
    ) -> Result<AutoTuneReport, CapsError> {
        let start = Instant::now();
        let deadline = start + self.config.timeout;
        let mut iterations = 0usize;
        let mut cache = ProbeCache::default();
        let warm = self.config.warm_start;
        let probe_base = SearchConfig {
            node_budget: Some(
                base.node_budget
                    .unwrap_or(usize::MAX)
                    .min(self.config.probe_node_budget),
            ),
            ..base.clone()
        };
        let base = &probe_base;

        // Phase 1: per-dimension minima with the other dimensions disabled.
        let pressure = search.cost_model().pressure();
        let mut per_dimension = [f64::INFINITY; 3];
        for dim in 0..3 {
            if pressure[dim] < MIN_PRESSURE {
                continue;
            }
            let mut alpha = search.cost_model().tightest_cost(dim);
            loop {
                let th = Thresholds::unbounded().with(crate::cost::Dimension::ALL[dim], alpha);
                iterations += 1;
                if cache.probe(search, &th, base, deadline, warm)? {
                    per_dimension[dim] = alpha;
                    break;
                }
                if alpha >= 1.0 {
                    // C_i <= 1 holds for every plan, so an infeasible
                    // alpha of 1 means no plan exists at all.
                    return Err(CapsError::NoFeasiblePlan);
                }
                alpha = relax(alpha).min(1.0);
                if Instant::now() >= deadline {
                    return Err(CapsError::AutoTuneTimeout {
                        last_tried: {
                            let mut t = per_dimension;
                            t[dim] = alpha;
                            t
                        },
                    });
                }
            }
        }

        // Phase 2: joint relaxation of the active thresholds.
        let mut th = Thresholds::new(per_dimension[0], per_dimension[1], per_dimension[2]);
        let relax_active = |v: f64| if v.is_finite() { relax(v).min(1.0) } else { v };
        loop {
            iterations += 1;
            if cache.probe(search, &th, base, deadline, warm)? {
                break;
            }
            let active_maxed = [th.cpu, th.io, th.net]
                .iter()
                .all(|v| !v.is_finite() || *v >= 1.0);
            if active_maxed {
                return Err(CapsError::NoFeasiblePlan);
            }
            th = Thresholds::new(
                relax_active(th.cpu),
                relax_active(th.io),
                relax_active(th.net),
            );
            if Instant::now() >= deadline {
                return Err(CapsError::AutoTuneTimeout {
                    last_tried: [th.cpu, th.io, th.net],
                });
            }
        }

        Ok(AutoTuneReport {
            thresholds: th,
            per_dimension,
            iterations,
            probe_searches: cache.searches,
            cache_hits: cache.hits,
            elapsed: start.elapsed(),
        })
    }
}

/// One relaxation step: geometric growth, bootstrapped by
/// [`RELAX_SEED`] when the current value is zero.
fn relax(alpha: f64) -> f64 {
    if alpha < RELAX_SEED {
        RELAX_SEED
    } else {
        alpha * RELAX_FACTOR
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsys_model::{
        Cluster, ConnectionPattern, LoadModel, LogicalGraph, OperatorId, OperatorKind,
        PhysicalGraph, ResourceProfile, WorkerSpec,
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
        let h = b.operator(
            "heavy",
            OperatorKind::Window,
            4,
            ResourceProfile::new(0.002, 500.0, 50.0, 0.5),
        );
        let k = b.operator(
            "sink",
            OperatorKind::Sink,
            2,
            ResourceProfile::new(0.0001, 0.0, 0.0, 1.0),
        );
        b.edge(s, h, ConnectionPattern::Rebalance);
        b.edge(h, k, ConnectionPattern::Hash);
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let c = Cluster::homogeneous(2, WorkerSpec::new(4, 4.0, 1e8, 1e9)).unwrap();
        let mut rates = HashMap::new();
        rates.insert(OperatorId(0), 1000.0);
        let lm = LoadModel::derive(&g, &p, &rates).unwrap();
        (g, p, c, lm)
    }

    #[test]
    fn tuned_thresholds_are_feasible() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let base = SearchConfig::auto_tuned();
        let report = AutoTuner::new(&base.auto_tune)
            .tune(&search, &base)
            .unwrap();
        assert!(search.is_feasible(&report.thresholds, &base, None).unwrap());
        assert!(report.iterations >= 2, "at least one probe per phase");
    }

    #[test]
    fn tuned_thresholds_are_near_minimal() {
        // Tightening the active dimensions by more than one relaxation
        // step must make the search infeasible (minimality up to step
        // granularity), unless the tuner already sits at the analytic
        // floor where tightening is a no-op.
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let base = SearchConfig::auto_tuned();
        let report = AutoTuner::new(&base.auto_tune)
            .tune(&search, &base)
            .unwrap();
        let th = report.thresholds;
        let factor = RELAX_FACTOR.powi(2);
        let floor: Vec<f64> = (0..3)
            .map(|d| search.cost_model().tightest_cost(d))
            .collect();
        let at_floor = |v: f64, f: f64| !v.is_finite() || v <= f + 1e-12;
        if at_floor(th.cpu, floor[0]) && at_floor(th.io, floor[1]) && at_floor(th.net, floor[2]) {
            // Already minimal by construction.
            return;
        }
        let tighter = Thresholds::new(th.cpu / factor, th.io / factor, th.net / factor);
        assert!(
            !search.is_feasible(&tighter, &base, None).unwrap(),
            "thresholds {th:?} were not minimal"
        );
    }

    #[test]
    fn full_run_with_autotuning_attaches_report() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let out = search.run(&SearchConfig::auto_tuned()).unwrap();
        assert!(out.autotune.is_some());
        assert!(!out.feasible.is_empty());
        let best = out.best_scored().unwrap();
        assert!(best.cost.within(&out.thresholds));
    }

    #[test]
    fn per_dimension_minima_do_not_exceed_joint_thresholds() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let base = SearchConfig::auto_tuned();
        let report = AutoTuner::new(&base.auto_tune)
            .tune(&search, &base)
            .unwrap();
        assert!(report.thresholds.cpu >= report.per_dimension[0] - 1e-12);
        assert!(report.thresholds.io >= report.per_dimension[1] - 1e-12);
        assert!(report.thresholds.net >= report.per_dimension[2] - 1e-12);
    }

    #[test]
    fn warm_start_matches_cold_thresholds_with_fewer_searches() {
        // Warm-starting reuses exact monotonicity facts, so it must land
        // on the same thresholds as a cold run while launching no more
        // probe searches.
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let warm_base = SearchConfig::auto_tuned();
        let cold_base = SearchConfig {
            auto_tune: AutoTuneConfig {
                warm_start: false,
                ..AutoTuneConfig::default()
            },
            ..SearchConfig::auto_tuned()
        };
        let warm = AutoTuner::new(&warm_base.auto_tune)
            .tune(&search, &warm_base)
            .unwrap();
        let cold = AutoTuner::new(&cold_base.auto_tune)
            .tune(&search, &cold_base)
            .unwrap();
        assert_eq!(warm.thresholds, cold.thresholds);
        assert_eq!(warm.per_dimension, cold.per_dimension);
        assert_eq!(warm.iterations, cold.iterations);
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.probe_searches, cold.iterations);
        assert!(warm.probe_searches <= cold.probe_searches);
        assert_eq!(warm.probe_searches + warm.cache_hits, warm.iterations);
    }

    #[test]
    fn probe_cache_reuses_witnesses_and_failures() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let base = SearchConfig::auto_tuned();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut cache = ProbeCache::default();
        let feasible = Thresholds::new(1.0, 1.0, 1.0);
        let infeasible = Thresholds::new(0.0, 0.0, 0.0);
        assert!(cache.probe(&search, &feasible, &base, deadline, true).unwrap());
        assert!(!cache.probe(&search, &infeasible, &base, deadline, true).unwrap());
        assert_eq!(cache.searches, 2);
        // A looser vector than a known witness: answered from cache.
        assert!(cache.probe(&search, &feasible, &base, deadline, true).unwrap());
        // A tighter vector than a known failure: answered from cache.
        assert!(!cache.probe(&search, &infeasible, &base, deadline, true).unwrap());
        assert_eq!(cache.searches, 2);
        assert_eq!(cache.hits, 2);
        // Warm-start off: both go back to the search.
        assert!(cache.probe(&search, &feasible, &base, deadline, false).unwrap());
        assert_eq!(cache.searches, 3);
    }

    #[test]
    fn zero_timeout_times_out() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let base = SearchConfig::auto_tuned();
        let cfg = AutoTuneConfig {
            timeout: Duration::ZERO,
            ..AutoTuneConfig::default()
        };
        let err = AutoTuner::new(&cfg).tune(&search, &base).unwrap_err();
        assert!(matches!(err, CapsError::AutoTuneTimeout { .. }));
    }
}
