//! `place`: a closed-loop stream of auto-tuned CAPS placement decisions.
//!
//! One operation is `Query::load_model_at` + `CapsSearch::new` +
//! `run(&SearchConfig::auto_tuned())` — the `CapsStrategy::default()`
//! search — on one generated instance. No simulator, DS2 or controller
//! is involved.

use std::time::Instant;

use capsys_core::{AutoTuner, CapsSearch, CostModel, CostVector, SearchConfig, SearchOutcome};
use capsys_model::{Cluster, LoadModel, PhysicalGraph, WorkerSpec};
use capsys_queries::Query;
use capsys_util::rng::{Rng, SeedableRng, SliceRandom, SmallRng};

use crate::report::{Layers, Pool, Run, MIN_ROUNDS};
use crate::span::Recorder;

/// Instances drawn per (query, scale, slots, spare) cell: two per
/// worker family.
const VARIANTS: usize = 6;
/// Node budget under which the exhaustive reference search must finish
/// for an instance to count as small enough to enumerate.
const REFERENCE_NODES: usize = 300_000;
/// Times the set-up is repeated, for a steady median.
const SETUPS: usize = 21;

/// One generated placement problem.
pub struct Instance {
    label: String,
    query: Query,
    physical: PhysicalGraph,
    cluster: Cluster,
    rate: f64,
}

/// The seeded instance mix: the six paper queries at parallelism ×1 and
/// ×2, on homogeneous clusters of 4- or 8-slot workers that are either
/// as small as the task count allows or one worker larger. Each such
/// cell gets [`VARIANTS`] instances, stratified so every run sees the
/// same spread of difficulty: variant `v` targets a utilization drawn
/// from the `v`-th of [`VARIANTS`] equal bands of 0.4–0.7, on a worker
/// family rotated from a seeded offset. The seed also sets the order
/// the stream visits the instances in. A band edge sits at 0.65 because
/// Q3-inf ×2 on 8×4 jumps from 3 ms to 0.53 s between 0.648 and 0.650
/// (auto-tune probes), for every worker family; a band straddling that
/// step would put a fifth of a round's time at the mercy of one draw.
///
/// One cell is left out: Q3-inf ×2 with a spare 8-slot worker. Its
/// decisions take about a second each, four times the slowest of the
/// rest, and would fill two thirds of every round.
pub fn instances(seed: u64) -> Vec<Instance> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let band = 0.3 / VARIANTS as f64;
    let mut out = Vec::new();
    for query in capsys_queries::all_queries() {
        for scale in [1, 2] {
            let query = query.scaled(scale).expect("paper queries scale");
            let tasks = query.logical().total_tasks();
            for slots in [4, 8] {
                for spare in [0, 1] {
                    if query.name() == "Q3-inf" && scale == 2 && slots == 8 && spare == 1 {
                        continue;
                    }
                    let workers = tasks.div_ceil(slots) + spare;
                    let offset = rng.gen_range(0..3usize);
                    for v in 0..VARIANTS {
                        let spec = match (offset + v) % 3 {
                            0 => WorkerSpec::m5d_2xlarge(slots),
                            1 => WorkerSpec::r5d_xlarge(slots),
                            _ => WorkerSpec::c5d_4xlarge(slots),
                        };
                        let cluster = Cluster::homogeneous(workers, spec).expect("cluster");
                        let util = 0.4 + band * (v as f64 + rng.gen_range(0.0..1.0));
                        let rate = query.capacity_rate(&cluster, util).expect("capacity");
                        out.push(Instance {
                            label: format!(
                                "{}x{scale} on {workers}x{slots} at {util:.2}",
                                query.name()
                            ),
                            physical: query.physical(),
                            query: query.clone(),
                            cluster,
                            rate,
                        });
                    }
                }
            }
        }
    }
    out.shuffle(&mut rng);
    out
}

/// One decision, exactly as `CapsStrategy::default()` makes it.
fn decide(inst: &Instance) -> Result<(LoadModel, SearchOutcome), String> {
    let loads = inst
        .query
        .load_model_at(&inst.physical, inst.rate)
        .map_err(|e| e.to_string())?;
    let search = CapsSearch::new(inst.query.logical(), &inst.physical, &inst.cluster, &loads)
        .map_err(|e| e.to_string())?;
    let outcome = search
        .run(&SearchConfig::auto_tuned())
        .map_err(|e| e.to_string())?;
    Ok((loads, outcome))
}

/// The same decision with a span around each layer call: model loads,
/// search set-up, auto-tuning, and the final tuned search.
fn decide_traced(
    inst: &Instance,
    rec: &Recorder,
    layers: &mut Layers,
) -> Result<(LoadModel, SearchOutcome), String> {
    let config = SearchConfig::auto_tuned();
    let loads = {
        let _s = rec.span("model.loads");
        inst.query.load_model_at(&inst.physical, inst.rate)
    }
    .map_err(|e| e.to_string())?;
    let search = {
        let _s = rec.span("core.setup");
        CapsSearch::new(inst.query.logical(), &inst.physical, &inst.cluster, &loads)
    }
    .map_err(|e| e.to_string())?;
    let report = {
        let _s = rec.span("core.tune");
        AutoTuner::new(&config.auto_tune).tune(&search, &config)
    }
    .map_err(|e| e.to_string())?;
    let mut outcome = {
        let _s = rec.span("core.search");
        search.run_with_thresholds(&report.thresholds, &config)
    }
    .map_err(|e| e.to_string())?;
    outcome.autotune = Some(report);
    layers.add("core.tune_probes", report.probe_searches as f64);
    layers.add("core.tune_iterations", report.iterations as f64);
    layers.add("core.tune_cache_hits", report.cache_hits as f64);
    layers.add("core.nodes", outcome.stats.nodes as f64);
    layers.add("core.pruned", outcome.stats.pruned as f64);
    layers.add("core.memo_hits", outcome.stats.memo_hits as f64);
    layers.add("core.plans_found", outcome.stats.plans_found as f64);
    layers.add("core.decisions", 1.0);
    Ok((loads, outcome))
}

/// What the first pass chose for one instance, kept for the checks.
struct Chosen {
    loads: LoadModel,
    outcome: SearchOutcome,
}

/// Runs the workload: whole passes over the instance stream until
/// `seconds` of decisions have been timed, then the output checks on
/// every chosen plan.
pub fn run(seed: u64, seconds: f64, rec: Option<&Recorder>) -> Run {
    let mut run = Run::default();

    // Set-up: generating the instance stream, repeated so the median
    // is steady.
    let mut insts = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        insts = instances(seed);
        run.setup(t0.elapsed().as_secs_f64());
    }

    let mut chosen: Vec<Option<Chosen>> = Vec::new();
    let mut timed = 0.0;
    while run.rounds() < MIN_ROUNDS || timed < seconds {
        let first = chosen.is_empty();
        for (i, inst) in insts.iter().enumerate() {
            run.attempted += 1;
            let t0 = Instant::now();
            let result = match rec {
                Some(r) => decide_traced(inst, r, &mut run.layers),
                None => decide(inst),
            };
            let dt = t0.elapsed().as_secs_f64();
            timed += dt;
            run.op(i, dt * 1e3);
            match result {
                Err(e) => run.fail(format!("{}: decision failed: {e}", inst.label)),
                Ok((loads, outcome)) => {
                    if first {
                        chosen.push(Some(Chosen { loads, outcome }));
                    } else if let Some(Some(c)) = chosen.get(i) {
                        // Every pass must choose the first pass's plan.
                        if c.outcome.best_scored() != outcome.best_scored() {
                            run.fail(format!("{}: plan differs between passes", inst.label));
                        }
                    }
                }
            }
            if first && chosen.len() <= i {
                chosen.push(None);
            }
        }
    }

    check(&insts, &chosen, &mut run);
    run
}

/// The output checks on every chosen plan, and its quality.
fn check(insts: &[Instance], chosen: &[Option<Chosen>], run: &mut Run) {
    let mut pool = Pool::default();
    let mut referenced = 0usize;
    let bits = |c: &CostVector| [c.cpu.to_bits(), c.io.to_bits(), c.net.to_bits()];
    for (inst, c) in insts.iter().zip(chosen) {
        let Some(Chosen { loads, outcome }) = c else {
            continue;
        };
        let Some(best) = outcome.best_scored() else {
            run.fail(format!("{}: no plan chosen", inst.label));
            continue;
        };
        if let Err(e) = best.plan.validate(&inst.physical, &inst.cluster) {
            run.fail(format!("{}: invalid plan: {e}", inst.label));
            continue;
        }
        match CostModel::new(&inst.physical, &inst.cluster, loads) {
            Ok(model) => {
                let recost = model.cost(&inst.physical, &best.plan);
                if bits(&recost) != bits(&best.cost) {
                    run.fail(format!(
                        "{}: stored cost {:?} != recost {:?}",
                        inst.label, best.cost, recost
                    ));
                }
            }
            Err(e) => run.fail(format!("{}: recost failed: {e}", inst.label)),
        }
        if !best.cost.within(&outcome.thresholds) {
            run.fail(format!(
                "{}: plan violates its tuned thresholds",
                inst.label
            ));
        }
        match reference_choice(inst, loads, outcome) {
            Ok(Some(reference)) => {
                referenced += 1;
                if bits(&reference) != bits(&best.cost) {
                    run.fail(format!(
                        "{}: chosen cost {:?} != exhaustive-reference choice {:?}",
                        inst.label, best.cost, reference
                    ));
                }
            }
            Ok(None) => {}
            Err(e) => run.fail(format!("{}: reference search failed: {e}", inst.label)),
        }
        // Quality: the plan's cost, and the slots of the workers it
        // occupies (a plan that leaves a worker empty frees its slots).
        pool.plan_costs.push(best.cost.max_component());
        let occupied = best
            .plan
            .worker_counts(inst.cluster.num_workers())
            .iter()
            .filter(|&&n| n > 0)
            .count();
        pool.slots_peak = pool
            .slots_peak
            .max(occupied * inst.cluster.slots_per_worker());
    }
    if referenced == 0 {
        run.fail("no instance was small enough for the exhaustive reference".into());
    }
    pool.episodes = 1;
    pool.finish(run);
}

/// The cost of the plan an unordered, memo-free enumeration of every
/// plan within the tuned thresholds recommends, keeping the same number
/// of plans and choosing by the same pressure-weighted rule
/// ([`SearchOutcome::best_scored`]) — or `None` when the instance is too
/// large to enumerate within the node budget.
fn reference_choice(
    inst: &Instance,
    loads: &LoadModel,
    outcome: &SearchOutcome,
) -> Result<Option<CostVector>, String> {
    let search = CapsSearch::new(inst.query.logical(), &inst.physical, &inst.cluster, loads)
        .map_err(|e| e.to_string())?;
    let config = SearchConfig {
        reorder: false,
        memo: false,
        max_plans: SearchConfig::auto_tuned().max_plans,
        node_budget: Some(REFERENCE_NODES),
        ..SearchConfig::exhaustive()
    };
    let all = search
        .run_with_thresholds(&outcome.thresholds, &config)
        .map_err(|e| e.to_string())?;
    if all.stats.aborted {
        return Ok(None);
    }
    all.best_scored()
        .map(|s| Some(s.cost))
        .ok_or_else(|| "found no plan within the tuned thresholds".into())
}
