//! Backend dispatch over the CAPS plan space.
//!
//! [`CapsSearch::run_with_thresholds`](crate::CapsSearch::run_with_thresholds)
//! prepares one problem instance — the exploration order, the exact
//! per-dimension load bound, the symmetry-deduplicated
//! [`PlanEnumerator`], and (for the DFS backend) the dead-state memo —
//! and [`search`] hands it to the backend [`SearchConfig::backend`]
//! selects:
//!
//! * the threshold-pruned exhaustive DFS of §4.3-4.4, single-threaded
//!   for `threads == 1` and under the work-stealing thread pool of §5.1
//!   (`crate::parallel`) otherwise;
//! * [`MctsStrategy`](crate::mcts::MctsStrategy) — a seeded,
//!   deterministic Monte Carlo Tree Search for plan spaces too large to
//!   exhaust.
//!
//! The auto-tuner, the minimum-movement screen, and the controller's
//! placement paths all go through `run`/`run_with_thresholds`, so a
//! backend choice propagates to every search the system performs.

use std::time::Instant;

use capsys_model::{PhysicalGraph, PlanEnumerator};
use capsys_util::fixed::Fixed64;

use crate::cost::CostModel;
use crate::error::CapsError;
use crate::mcts::{MctsConfig, MctsReport, MctsStrategy};
use crate::memo::MemoSetup;
use crate::search::{AnytimePoint, CapsVisitor, OpTopology, RunStats, ScoredPlan, SearchConfig};

/// Which search algorithm a [`SearchConfig`] selects.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchBackend {
    /// Threshold-pruned exhaustive DFS — sequential for `threads == 1`,
    /// the work-stealing parallel search otherwise. Exhaustive within
    /// its budget: an un-aborted run proves (in)feasibility.
    Dfs,
    /// Seeded Monte Carlo Tree Search (UCT) over placement prefixes. An
    /// anytime search: it returns its best feasible plans within the
    /// budget but never proves infeasibility. Always single-threaded and
    /// deterministic for a fixed seed and node budget.
    Mcts(MctsConfig),
}

impl SearchBackend {
    /// Stable identifier, used in reports and journaled decisions.
    pub fn id(&self) -> &'static str {
        match self {
            SearchBackend::Dfs => "dfs",
            SearchBackend::Mcts(_) => "mcts",
        }
    }

    /// The backend's RNG seed, if it has one.
    pub fn seed(&self) -> Option<u64> {
        match self {
            SearchBackend::Dfs => None,
            SearchBackend::Mcts(m) => Some(m.seed),
        }
    }
}

/// One fully prepared search problem, handed to a backend.
///
/// Built by `CapsSearch::run_with_thresholds`; bundles everything a
/// backend needs so all backends search the identical problem: same
/// operator order, same exact bound, same symmetry groups.
pub(crate) struct StrategyContext<'a> {
    pub(crate) physical: &'a PhysicalGraph,
    pub(crate) model: &'a CostModel,
    pub(crate) topo: &'a OpTopology,
    pub(crate) enumerator: &'a PlanEnumerator,
    pub(crate) bound: [Fixed64; 3],
    pub(crate) memo: Option<&'a MemoSetup>,
    pub(crate) config: &'a SearchConfig,
    pub(crate) deadline: Option<Instant>,
    pub(crate) start: Instant,
}

/// What a backend hands back to `run_with_thresholds`.
pub(crate) struct BackendResult {
    /// Stored feasible plans (up to `max_plans`), in `cmp_scored` order.
    pub(crate) plans: Vec<ScoredPlan>,
    /// Run statistics in DFS-comparable units.
    pub(crate) stats: RunStats,
    /// Best-cost improvement points (empty when schedule-dependent).
    pub(crate) anytime: Vec<AnytimePoint>,
    /// MCTS diagnostics, `None` for the DFS backend.
    pub(crate) mcts: Option<MctsReport>,
}

/// A backend's result, plus — when its walk is a pure function of its
/// limit checks — the per-dimension load bound up to which that walk is
/// provably unchanged (`CapsVisitor::unchanged_up_to`). The walk
/// qualifies when a DFS finished, or when a sequential DFS stopped on
/// its node budget; schedule- and clock-dependent aborts and sampled
/// (MCTS) walks give `None`.
pub(crate) type DfsResult = (BackendResult, Option<[Fixed64; 3]>);

/// Runs the backend `ctx.config.backend` selects. Every backend is
/// deterministic: the same context (and, for MCTS, the same seed)
/// produces the same result modulo wall-clock fields, independent of
/// thread schedule.
pub(crate) fn search(ctx: &StrategyContext<'_>) -> Result<DfsResult, CapsError> {
    match &ctx.config.backend {
        SearchBackend::Dfs if ctx.config.threads <= 1 => sequential_dfs(ctx),
        SearchBackend::Dfs => parallel_dfs(ctx),
        SearchBackend::Mcts(mcfg) => Ok((MctsStrategy::new(mcfg.clone()).search(ctx)?, None)),
    }
}

/// The single-threaded threshold-pruned DFS (§4.3-4.4).
fn sequential_dfs(ctx: &StrategyContext<'_>) -> Result<DfsResult, CapsError> {
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut visitor = CapsVisitor::new(
        ctx.physical,
        ctx.model,
        ctx.topo,
        ctx.bound,
        ctx.config,
        ctx.deadline,
        Some(&stop),
    );
    if let Some(setup) = ctx.memo {
        visitor.set_memo(setup);
    }
    let s = ctx.enumerator.explore(&mut visitor);
    let aborted = visitor.was_aborted();
    let memo_hits = visitor.memo_hits();
    let anytime = visitor.take_anytime();
    let unchanged_up_to = (!aborted || visitor.budget_spent()).then(|| visitor.unchanged_up_to());
    let result = BackendResult {
        plans: visitor.into_found(),
        stats: RunStats {
            nodes: s.nodes,
            pruned: s.pruned,
            plans_found: s.plans,
            memo_hits,
            elapsed: ctx.start.elapsed(),
            threads: 1,
            aborted,
        },
        anytime,
        mcts: None,
    };
    Ok((result, unchanged_up_to))
}

/// The work-stealing parallel DFS (§5.1).
fn parallel_dfs(ctx: &StrategyContext<'_>) -> Result<DfsResult, CapsError> {
    let (plans, stats, unchanged_up_to) = crate::parallel::run_parallel(ctx)?;
    // Each thread spends its own node budget on a schedule-dependent
    // share of the tree, so only a finished walk counts.
    let unchanged_up_to = (!stats.aborted).then_some(unchanged_up_to);
    let result = BackendResult {
        plans,
        stats,
        // Improvement times depend on the steal schedule; reporting
        // them would leak nondeterminism into the outcome.
        anytime: Vec::new(),
        mcts: None,
    };
    Ok((result, unchanged_up_to))
}
