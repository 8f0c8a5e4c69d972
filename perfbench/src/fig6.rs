//! `fig6_interfering`: the paper's Fig. 6 setting as a batch, through
//! `Pack::session().run(scheme)` for all four schemes.
//!
//! Thousands of tiny slot problems make the greedy inner `Q` solves and
//! the exhaustive upper-bound oracle do the work; partitioning, warm
//! duals and the large-n polish do none of it.

use crate::common::{mean, median, ms, pack_seed, quantile, tail_quantile, Host, Report};
use crate::probe::{self, PoolProbe};
use fcr_scenario::Pack;
use fcr_sim::pool::SLOTS_COUNTER;
use fcr_sim::{RunResult, Scheme, SimSession};
use fcr_stats::rng::SeedSequence;
use std::time::Instant;

/// The benchmark-owned pack: the Fig. 5 chain, 9 users, four schemes.
pub const PACK: &str = include_str!("../packs/fig6_interfering.json");

/// Stable metric token of a scheme.
pub fn scheme_token(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::UpperBound => "upper_bound",
        Scheme::Proposed => "proposed",
        Scheme::Heuristic1 => "heuristic1",
        Scheme::Heuristic2 => "heuristic2",
    }
}

/// Distinct seeded instances an evaluation cycles through, so one run
/// averages over many channel realizations instead of timing one.
pub const INSTANCES: u64 = 64;

/// Evaluations whose proposed-scheme PSNR makes up `quality`: always
/// run, so the figure covers the same instances on every run.
pub const QUALITY_EVALUATIONS: usize = 8;

/// Set-ups timed after each untraced evaluation. The set-up takes tens
/// of microseconds, so a burst of them timed at one moment reads the
/// host's state at that moment (runs differed 2×); samples spread over
/// the whole pass give a median as steady as the other metrics.
const SETUPS_PER_EVALUATION: usize = 8;

/// The parsed pack, one batch session per seeded instance, and the
/// parse time. Instance `i` runs the pack at seed
/// `SeedSequence::new(seed).derive("fig6", i)`.
pub fn setup(text: &str, seed: u64, instances: u64) -> (Pack, Vec<SimSession>, f64) {
    let t = Instant::now();
    let pack = Pack::from_json(text).expect("benchmark pack is valid");
    let parse_ms = ms(t.elapsed());
    let seeds = SeedSequence::new(seed);
    let sessions = (0..instances)
        .map(|i| {
            let mut seeded = pack.clone();
            seeded.seed = pack_seed(seeds.derive("fig6", i));
            seeded.validate().expect("seeded pack is valid");
            seeded.session()
        })
        .collect();
    (pack, sessions, parse_ms)
}

/// One evaluation of the pack: every scheme's runs, with the wall time
/// of each scheme batch.
#[derive(Debug, Clone, PartialEq)]
struct Evaluation {
    results: Vec<(Scheme, Vec<RunResult>)>,
    scheme_s: Vec<f64>,
    wall_ms: f64,
}

fn evaluate(pack: &Pack, session: &SimSession, report: &mut Report) -> Evaluation {
    let started = Instant::now();
    let mut results = Vec::with_capacity(pack.schemes.len());
    let mut scheme_s = Vec::with_capacity(pack.schemes.len());
    for &scheme in &pack.schemes {
        let t = Instant::now();
        let outcome = session.run(scheme);
        scheme_s.push(t.elapsed().as_secs_f64());
        let mut runs = Vec::new();
        for (r, o) in outcome.outcomes().iter().enumerate() {
            report.check(o.is_ok(), || {
                format!("fig6 {} run {r} failed", scheme_token(scheme))
            });
            if let Ok(out) = o {
                runs.push(out.result.clone());
            }
        }
        results.push((scheme, runs));
    }
    Evaluation {
        results,
        scheme_s,
        wall_ms: ms(started.elapsed()),
    }
}

/// Results of one measured pass.
#[derive(Debug, Default)]
struct Pass {
    eval_ms: Vec<f64>,
    scheme_s: Vec<Vec<f64>>,
    slots: u64,
    wall_s: f64,
    cpu_s: f64,
    /// Results per instance, from its first evaluation.
    results: Vec<Option<Evaluation>>,
}

/// Evaluates the instances in turn for `seconds` (and at least
/// [`QUALITY_EVALUATIONS`] times). Every evaluation must reproduce the
/// results `reference` holds for its instance, or else those of the
/// instance's first evaluation in this pass.
fn measure(
    pack: &Pack,
    sessions: &[SimSession],
    seconds: f64,
    reference: &[Option<Evaluation>],
    report: &mut Report,
    between_evaluations: &mut dyn FnMut(),
) -> Pass {
    let runtime = fcr_sim::pool::shared();
    let slots_before = runtime.snapshot().counter(SLOTS_COUNTER).unwrap_or(0);
    let watch = crate::common::Stopwatch::start();
    let mut pass = Pass {
        scheme_s: vec![Vec::new(); pack.schemes.len()],
        results: vec![None; sessions.len()],
        ..Pass::default()
    };
    for i in 0.. {
        let instance = i % sessions.len();
        let eval = evaluate(pack, &sessions[instance], report);
        pass.eval_ms.push(eval.wall_ms);
        for (acc, s) in pass.scheme_s.iter_mut().zip(&eval.scheme_s) {
            acc.push(*s);
        }
        let expected = reference
            .get(instance)
            .and_then(Option::as_ref)
            .or(pass.results[instance].as_ref());
        if let Some(expected) = expected {
            report.check(expected.results == eval.results, || {
                format!("fig6 instance {instance} differs from its earlier evaluation")
            });
        }
        if pass.results[instance].is_none() {
            pass.results[instance] = Some(eval);
        }
        between_evaluations();
        if i + 1 >= QUALITY_EVALUATIONS.min(sessions.len()) && watch.wall_s() >= seconds {
            break;
        }
    }
    pass.wall_s = watch.wall_s();
    pass.cpu_s = watch.cpu_s();
    pass.slots = runtime
        .snapshot()
        .counter(SLOTS_COUNTER)
        .unwrap_or(0)
        .saturating_sub(slots_before);
    pass
}

/// Mean Y-PSNR of the proposed scheme over the pack's runs and the
/// first [`QUALITY_EVALUATIONS`] instances.
fn proposed_psnr(results: &[Option<Evaluation>]) -> f64 {
    let psnr: Vec<f64> = results
        .iter()
        .take(QUALITY_EVALUATIONS)
        .flatten()
        .flat_map(|eval| eval.results.iter().filter(|(s, _)| *s == Scheme::Proposed))
        .flat_map(|(_, runs)| runs.iter().map(RunResult::mean_psnr))
        .collect();
    mean(&psnr)
}

/// Runs the workload: set-up, an untraced measured pass, and with
/// `trace` a traced pass whose results must equal the untraced ones.
pub fn run(text: &str, seed: u64, seconds: f64, trace: bool, host: &Host) -> Report {
    let mut report = Report::default();
    let mut setup_secs = Vec::new();
    let mut timed_setup = || {
        let t = Instant::now();
        let built = setup(text, seed, INSTANCES);
        setup_secs.push(t.elapsed().as_secs_f64());
        built
    };
    let (pack, sessions, parse_ms) = timed_setup();
    let runtime = fcr_sim::pool::shared();
    let untraced_seconds = if trace { seconds / 2.0 } else { seconds };

    let plain = measure(
        &pack,
        &sessions,
        untraced_seconds,
        &[],
        &mut report,
        &mut || {
            for _ in 0..SETUPS_PER_EVALUATION {
                timed_setup();
            }
        },
    );
    let setup_s = median(&setup_secs);
    let psnr = proposed_psnr(&plain.results);
    report.check(psnr.is_finite() && psnr > 0.0, || {
        format!("fig6 proposed PSNR {psnr}")
    });
    if !trace {
        let tail_q = tail_quantile(plain.eval_ms.len());
        report.metric("setup_s", setup_s, "s");
        report.metric("sim_slots_per_s", plain.slots as f64 / plain.wall_s, "1/s");
        report.metric("p50_ms", median(&plain.eval_ms), "ms");
        report.metric("quality", psnr, "score");
        report.metric("peak_rss_mb", crate::common::peak_rss_mb(), "MB");
        report.detail("psnr_db", psnr, "dB");
        report.detail("evaluation_tail_ms", quantile(&plain.eval_ms, tail_q), "ms");
        report.detail("evaluation_tail_quantile", tail_q, "share");
        report.detail("evaluations", plain.eval_ms.len() as f64, "count");
        report.detail("wall_s", plain.wall_s, "s");
        report.detail("cpu_s", plain.cpu_s, "s");
        return report;
    }

    probe::telemetry(true);
    let probe = PoolProbe::start(runtime);
    let traced = measure(
        &pack,
        &sessions,
        seconds / 2.0,
        &plain.results,
        &mut report,
        &mut || {},
    );
    let telemetry = fcr_telemetry::global().snapshot();
    probe::telemetry(false);
    probe.finish(runtime, host.cores, &mut report);

    let evals = traced.eval_ms.len() as f64;
    for (scheme, secs) in pack.schemes.iter().zip(&traced.scheme_s) {
        report.metric(
            &format!("sim.scheme_{}_s", scheme_token(*scheme)),
            median(secs),
            "s",
        );
    }
    probe::telemetry_metrics(&mut report, &telemetry, evals);
    report.metric("scenario.parse_ms", parse_ms, "ms");
    report.overhead(median(&plain.eval_ms), median(&traced.eval_ms));
    report.detail("psnr_db", psnr, "dB");
    report
}
