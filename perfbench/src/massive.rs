//! `massive_n1000`: one warm lineage of N = 1000 femtocell slots through
//! the partitioned allocation core.
//!
//! Each slot runs `Partition::of` → `GreedyAllocator::allocate` per
//! cluster on the shared pool (`run_batch`) → `Partition::merge` +
//! `problem_for` → `DualSolver::solve_with_state`, warm-started from the
//! previous slot. The instances are built here from `fcr-core` types,
//! bit-identical to the simulator's massive-N generator at the same
//! seed, so the benchmark outlives that generator.

use crate::common::{
    mean, median, ms, quantile, repeated_setup, tail_quantile, Host, Report, Stopwatch,
};
use crate::probe::{self, PoolProbe};
use fcr_core::dual::{DualConfig, DualSolution, DualSolver};
use fcr_core::interfering::{ChannelAssignment, InterferingProblem};
use fcr_core::partition::Partition;
use fcr_core::problem::{SlotProblem, UserState};
use fcr_core::{kkt, GreedyAllocator, SolverState, WaterfillingSolver};
use fcr_net::interference::InterferenceGraph;
use fcr_net::node::FbsId;
use fcr_runtime::Runtime;
use fcr_stats::rng::SeedSequence;
use rand::RngExt;
use std::time::{Duration, Instant};

/// Size of the slot instances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Femtocells `N`.
    pub num_fbss: usize,
    /// FBSs per path-shaped interference cluster.
    pub cluster_size: usize,
    /// CR users per femtocell.
    pub users_per_fbs: usize,
    /// Licensed channels in `A(t)`.
    pub num_channels: usize,
    /// Slots per warm lineage: the first solves cold, the rest warm.
    pub lineage: usize,
    /// Relative perturbation of the channel state between slots.
    pub perturbation: f64,
}

/// The benchmark's shape: N = 1000 in 250 clusters of 4, two users per
/// FBS, four channels, 1e-3 drift per slot.
pub const N1000: Shape = Shape {
    num_fbss: 1000,
    cluster_size: 4,
    users_per_fbs: 2,
    num_channels: 4,
    lineage: 4,
    perturbation: 1e-3,
};

/// The slot-0 instance: a disjoint union of paths of `cluster_size`
/// FBSs, offload-regime users, per-channel weights — every draw from a
/// stream of `SeedSequence::new(seed)`.
pub fn generate(shape: &Shape, seed: u64) -> InterferingProblem {
    let seq = SeedSequence::new(seed);
    let edges: Vec<(FbsId, FbsId)> = (0..shape.num_fbss.saturating_sub(1))
        .filter(|i| i / shape.cluster_size == (i + 1) / shape.cluster_size)
        .map(|i| (FbsId(i), FbsId(i + 1)))
        .collect();
    let graph = InterferenceGraph::new(shape.num_fbss, &edges);
    let mut users = Vec::with_capacity(shape.num_fbss * shape.users_per_fbs);
    for f in 0..shape.num_fbss {
        let mut rng = seq.stream("massive.user", f as u64);
        for _ in 0..shape.users_per_fbs {
            let w = rng.random_range(20.0..40.0f64);
            let s_mbs = rng.random_range(0.10..0.40f64);
            let s_fbs = rng.random_range(0.70..0.95f64);
            users.push(UserState::new(w, FbsId(f), 0.72, 0.72, s_mbs, s_fbs).expect("valid draw"));
        }
    }
    let mut rng = seq.stream("massive.channel", 0);
    let weights: Vec<f64> = (0..shape.num_channels)
        .map(|_| rng.random_range(0.60..0.95f64))
        .collect();
    InterferingProblem::new(users, graph, weights).expect("generated instance is valid")
}

/// The next slot's channel state: every user quality, success
/// probability and channel weight jittered by at most `magnitude`
/// (relative), topology unchanged.
pub fn perturb(problem: &InterferingProblem, seed: u64, magnitude: f64) -> InterferingProblem {
    let seq = SeedSequence::new(seed);
    let mut rng = seq.stream("perturb.user", 0);
    let jitter = |rng: &mut rand::rngs::StdRng, x: f64| -> f64 {
        x * (1.0 + magnitude * rng.random_range(-1.0..1.0f64))
    };
    let users: Vec<UserState> = problem
        .users()
        .iter()
        .map(|u| {
            UserState::new(
                jitter(&mut rng, u.w()),
                u.fbs(),
                u.r_mbs(),
                u.r_fbs(),
                jitter(&mut rng, u.success_mbs()).clamp(0.01, 1.0),
                jitter(&mut rng, u.success_fbs()).clamp(0.01, 1.0),
            )
            .expect("jittered state stays valid")
        })
        .collect();
    let mut rng = seq.stream("perturb.channel", 0);
    let weights: Vec<f64> = problem
        .channel_weights()
        .iter()
        .map(|w| jitter(&mut rng, *w).clamp(0.01, 1.0))
        .collect();
    InterferingProblem::new(users, problem.graph().clone(), weights)
        .expect("perturbed instance is valid")
}

/// The lineage's slot instances: slot `k ≥ 1` perturbs slot `k − 1`
/// with seed `seed + k`.
pub fn lineage(shape: &Shape, seed: u64) -> Vec<InterferingProblem> {
    let mut slots = vec![generate(shape, seed)];
    for k in 1..shape.lineage {
        let next = perturb(
            &slots[k - 1],
            seed.wrapping_add(k as u64),
            shape.perturbation,
        );
        slots.push(next);
    }
    slots
}

/// The dual configuration for an `n`-FBS slot: the default step-11
/// tolerance read per price and scaled by the `n + 1` prices.
pub fn dual_for(n: usize) -> DualConfig {
    let base = DualConfig::default();
    DualConfig {
        tolerance: base.tolerance * (n + 1) as f64,
        ..base
    }
}

/// Wall time of each layer of one slot, timed around its public call.
#[derive(Debug, Clone, Default)]
pub struct SlotLayers {
    /// `Partition::of`.
    pub partition: Duration,
    /// `run_batch` of the cluster greedies, submit to last join.
    pub greedy_batch: Duration,
    /// Sum of the cluster greedy closures' own run times.
    pub greedy_jobs: Duration,
    /// Per-job wait from submission to closure start (ms).
    pub queue_wait_ms: Vec<f64>,
    /// `Partition::merge` + `problem_for`.
    pub merge: Duration,
    /// `DualSolver::solve_with_state`.
    pub global_solve: Duration,
}

/// One solved slot.
#[derive(Debug, Clone)]
pub struct Slot {
    /// The merged channel assignment.
    pub assignment: ChannelAssignment,
    /// The time-share problem at that assignment.
    pub problem: SlotProblem,
    /// The global dual solution.
    pub solution: DualSolution,
    /// Layer timings (traced passes only).
    pub layers: Option<SlotLayers>,
}

/// Solves one slot on `runtime`, warm-starting from `state`.
pub fn solve_slot(
    runtime: &Runtime,
    problem: &InterferingProblem,
    state: &mut SolverState,
    traced: bool,
) -> Slot {
    let mut layers = SlotLayers::default();
    let t = Instant::now();
    let partition = Partition::of(problem);
    layers.partition = t.elapsed();

    let allocator = GreedyAllocator::new().incremental(true);
    let t = Instant::now();
    let outcomes = runtime.run_batch(partition.clusters().iter().map(|cluster| {
        let cluster = cluster.clone();
        let submitted = traced.then(Instant::now);
        move || {
            let started = submitted.map(|s| (s.elapsed(), Instant::now()));
            let assignment = allocator.allocate(cluster.problem()).assignment().clone();
            let timing = started.map(|(wait, start)| (wait, start.elapsed()));
            (assignment, timing)
        }
    }));
    layers.greedy_batch = t.elapsed();
    let mut locals = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        let (assignment, timing) = outcome.expect("cluster greedy must not panic");
        if let Some((wait, run)) = timing {
            layers.queue_wait_ms.push(ms(wait));
            layers.greedy_jobs += run;
        }
        locals.push(assignment);
    }

    let t = Instant::now();
    let assignment = partition.merge(&locals);
    let slot_problem = problem.problem_for(&assignment);
    layers.merge = t.elapsed();

    let t = Instant::now();
    let solution =
        DualSolver::new(dual_for(problem.num_fbss())).solve_with_state(&slot_problem, state);
    layers.global_solve = t.elapsed();

    Slot {
        assignment,
        problem: slot_problem,
        solution,
        layers: traced.then_some(layers),
    }
}

/// Results of one measured pass.
#[derive(Debug, Default)]
struct Pass {
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    /// Every slot's wall time, in solve order.
    slot_ms: Vec<f64>,
    slots: u64,
    wall_s: f64,
    /// Objective and dual iterations per lineage slot (first lineage).
    objectives: Vec<f64>,
    iterations: Vec<usize>,
    layers: Vec<SlotLayers>,
    polish_ms: Vec<f64>,
    kkt_worst: f64,
}

fn measure(
    runtime: &Runtime,
    slots: &[InterferingProblem],
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Pass {
    let mut pass = Pass::default();
    let started = Instant::now();
    let polisher = WaterfillingSolver::new();
    'lineages: for lineage in 0.. {
        let mut state = SolverState::new();
        for (k, problem) in slots.iter().enumerate() {
            let t = Instant::now();
            let slot = solve_slot(runtime, problem, &mut state, traced);
            let slot_ms = ms(t.elapsed());
            pass.slots += 1;
            pass.slot_ms.push(slot_ms);
            if k == 0 {
                pass.cold_ms.push(slot_ms);
            } else {
                pass.warm_ms.push(slot_ms);
            }
            check_slot(problem, &slot, lineage, k, &mut pass, report);
            if let Some(layers) = slot.layers {
                let t = Instant::now();
                let polished = polisher.polish(&slot.problem, slot.solution.allocation().clone());
                pass.polish_ms.push(ms(t.elapsed()));
                std::hint::black_box(polished);
                let kkt = kkt::verify(
                    &slot.problem,
                    slot.solution.allocation(),
                    slot.solution.lambda(),
                );
                pass.kkt_worst = pass.kkt_worst.max(kkt.worst());
                pass.layers.push(layers);
            }
            // The first lineage always completes, so the objective and
            // iteration figures cover the same slots on every run.
            if lineage > 0 && started.elapsed().as_secs_f64() >= seconds {
                break 'lineages;
            }
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass
}

/// Output checks of one slot: a conflict-free assignment, a feasible
/// eq.-(12) allocation, a finite objective, and — on repeated
/// lineages — the exact objective and iteration count of the first.
fn check_slot(
    problem: &InterferingProblem,
    slot: &Slot,
    lineage: usize,
    k: usize,
    pass: &mut Pass,
    report: &mut Report,
) {
    let objective = slot.solution.objective();
    let iterations = slot.solution.iterations();
    let mut ok = slot.assignment.is_conflict_free(problem.graph())
        && slot.problem.is_feasible(slot.solution.allocation(), 1e-6)
        && objective.is_finite();
    if lineage == 0 {
        pass.objectives.push(objective);
        pass.iterations.push(iterations);
    } else {
        ok &=
            pass.objectives[k].to_bits() == objective.to_bits() && pass.iterations[k] == iterations;
    }
    report.check(ok, || {
        format!("massive slot {k} of lineage {lineage}: infeasible, conflicting or not repeatable")
    });
}

/// Runs the workload: set-up, an untraced measured pass, and with
/// `trace` a traced pass reporting per-layer metrics.
pub fn run(shape: &Shape, seed: u64, seconds: f64, trace: bool, host: &Host) -> Report {
    let mut report = Report::default();
    let (slots, setup_s) = repeated_setup(|| lineage(shape, seed));
    let runtime = fcr_sim::pool::shared();
    let untraced_seconds = if trace { seconds / 2.0 } else { seconds };

    let watch = Stopwatch::start();
    let plain = measure(runtime, &slots, untraced_seconds, false, &mut report);
    if !trace {
        end_to_end(&mut report, &plain, setup_s, watch.cpu_s());
        return report;
    }

    probe::telemetry(true);
    let probe = PoolProbe::start(runtime);
    let traced = measure(runtime, &slots, seconds / 2.0, true, &mut report);
    let telemetry = fcr_telemetry::global().snapshot();
    probe::telemetry(false);
    probe::telemetry_metrics(&mut report, &telemetry, traced.slots as f64);
    probe.finish(runtime, host.cores, &mut report);
    report.check(
        traced.objectives == plain.objectives && traced.iterations == plain.iterations,
        || "massive traced lineage differs from the untraced one".into(),
    );
    per_layer(&mut report, &plain, &traced);
    report
}

fn end_to_end(report: &mut Report, pass: &Pass, setup_s: f64, cpu_s: f64) {
    let all: Vec<f64> = pass.cold_ms.iter().chain(&pass.warm_ms).copied().collect();
    let tail_q = tail_quantile(all.len());
    report.metric("setup_s", setup_s, "s");
    report.metric("sim_slots_per_s", pass.slots as f64 / pass.wall_s, "1/s");
    report.metric("p50_ms", median(&pass.warm_ms), "ms");
    report.metric("quality", mean(&pass.objectives), "score");
    report.metric("peak_rss_mb", crate::common::peak_rss_mb(), "MB");
    report.detail("slot_p50_ms", median(&pass.warm_ms), "ms");
    report.detail("cold_slot_ms", median(&pass.cold_ms), "ms");
    report.detail("slot_tail_ms", quantile(&all, tail_q), "ms");
    report.detail("slot_tail_quantile", tail_q, "share");
    report.detail("objective", mean(&pass.objectives), "score");
    report.detail("slots", pass.slots as f64, "count");
    report.detail("cold_slots", pass.cold_ms.len() as f64, "count");
    report.detail("wall_s", pass.wall_s, "s");
    report.detail("cpu_s", cpu_s, "s");
}

fn per_layer(report: &mut Report, plain: &Pass, traced: &Pass) {
    let p50 =
        |f: &dyn Fn(&SlotLayers) -> f64| median(&traced.layers.iter().map(f).collect::<Vec<_>>());
    let partition = p50(&|l| ms(l.partition));
    let batch = p50(&|l| ms(l.greedy_batch));
    let merge = p50(&|l| ms(l.merge));
    let solve = p50(&|l| ms(l.global_solve));
    let waits: Vec<f64> = traced
        .layers
        .iter()
        .flat_map(|l| l.queue_wait_ms.iter().copied())
        .collect();
    let polish = median(&traced.polish_ms);
    let warm_p50 = median(&traced.warm_ms);
    report.metric("core.partition_ms", partition, "ms");
    report.metric("core.greedy_batch_ms", batch, "ms");
    report.metric("core.greedy_job_ms_sum", p50(&|l| ms(l.greedy_jobs)), "ms");
    report.metric("runtime.queue_wait_ms_p50", median(&waits), "ms");
    report.metric("core.merge_ms", merge, "ms");
    report.metric("core.global_solve_ms", solve, "ms");
    report.metric(
        "core.dual_iterations",
        mean(
            &traced
                .iterations
                .iter()
                .map(|&i| i as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
    );
    report.metric("core.polish_pass_ms", polish, "ms");
    report.metric("core.polish_share_of_solve", polish / solve, "share");
    report.metric("core.kkt_worst", traced.kkt_worst, "1");
    let coverage: Vec<f64> = traced
        .layers
        .iter()
        .zip(&traced.slot_ms)
        .map(|(l, total)| ms(l.partition + l.greedy_batch + l.merge + l.global_solve) / total)
        .collect();
    report.metric("core.layer_coverage", median(&coverage), "share");
    report.overhead(median(&plain.warm_ms), warm_p50);
}
