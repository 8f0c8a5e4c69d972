//! `serve_churn`: an open-loop replay of a churn pack against a live
//! `Service` on a fixed wall-clock slot schedule.
//!
//! Arrivals, handovers and holding-time retirements come from
//! `ChurnSchedule::generate` and reach the service through the public
//! per-event calls (`admit`, `handover`, `retire`) plus one `step` per
//! slot. Each session is timed from the slot its arrival was due to its
//! completion, so a stalled clock shows up in every later session.

use crate::common::{
    grouped_median, layer_quantile, mean, median, ms, pack_seed, quantile, repeated_setup,
    tail_quantile, Host, Report, Stopwatch,
};
use crate::probe::{self, PoolProbe};
use fcr_scenario::{ChurnDriver, ChurnEventKind, ChurnSchedule, Pack};
use fcr_serve::{AdmitOutcome, HandoverOutcome, ServeConfig, Service, SessionId};
use fcr_sim::pool::SLOTS_COUNTER;
use fcr_sim::Scenario;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark-owned churn pack.
pub const PACK: &str = include_str!("../packs/serve_churn.json");

/// Wall-clock length of one service slot.
pub const SLOT: Duration = Duration::from_millis(1);

/// Share of `--seconds` over which sessions arrive; the rest drains.
const ARRIVAL_SHARE: f64 = 0.95;

/// Extra wall time the drain may take beyond `--seconds` before
/// unresolved sessions count as failed.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Everything a replay needs, built before the clock starts.
#[derive(Debug)]
pub struct Setup {
    /// The pack with the run's seed and horizon.
    pub pack: Pack,
    /// Its churn schedule.
    pub schedule: ChurnSchedule,
    /// The shared session scenario.
    pub scenario: Arc<Scenario>,
    /// Pack parse time.
    pub parse_ms: f64,
    /// Schedule generation time.
    pub schedule_ms: f64,
}

/// Parses the pack, sets seed and horizon, and generates the schedule.
pub fn setup(text: &str, seed: u64, horizon_slots: u64) -> Setup {
    let t = Instant::now();
    let mut pack = Pack::from_json(text).expect("benchmark pack is valid");
    let parse_ms = ms(t.elapsed());
    pack.seed = pack_seed(seed);
    if let Some(churn) = pack.churn.as_mut() {
        churn.slots = horizon_slots.max(1);
    }
    pack.validate().expect("seeded pack is valid");
    let t = Instant::now();
    let schedule = ChurnSchedule::generate(&pack);
    let schedule_ms = ms(t.elapsed());
    let scenario = Arc::new(pack.scenario());
    Setup {
        pack,
        schedule,
        scenario,
        parse_ms,
        schedule_ms,
    }
}

/// The service configuration: budget and watermark from the pack.
fn service_config(pack: &Pack) -> ServeConfig {
    let churn = pack.churn.expect("churn pack");
    ServeConfig {
        mbs_budget: churn.mbs_budget,
        max_sessions: churn.max_sessions as usize,
        ..ServeConfig::default()
    }
}

/// Results of one replay.
#[derive(Debug, Default)]
struct Pass {
    session_ms: Vec<f64>,
    psnr: Vec<f64>,
    admit_us: Vec<f64>,
    step_us: Vec<f64>,
    handover_us: Vec<f64>,
    retire_us: Vec<f64>,
    lateness_ms: Vec<f64>,
    arrivals: u64,
    completed: u64,
    slots: u64,
    wall_s: f64,
    cpu_s: f64,
    deferrals: u64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Replays `setup` against a fresh service on the serve pool, pacing
/// one slot per [`SLOT`], then drains until every session resolves or
/// the deadline passes.
fn replay(setup: &Setup, deadline: Duration, report: &mut Report) -> Pass {
    let pack = &setup.pack;
    let service = Service::on_shared_pool(service_config(pack));
    let runtime = Arc::clone(service.runtime());
    let slots_before = runtime.snapshot().counter(SLOTS_COUNTER).unwrap_or(0);
    let horizon = pack.churn.map(|c| c.slots).unwrap_or(0);
    let mut pass = Pass::default();
    // Active sessions: ordinal → (id, due time of the arrival), and
    // back. Completed and shed sessions leave both maps, so their later
    // scheduled events cost nothing.
    let mut live: HashMap<u64, (SessionId, Instant)> = HashMap::new();
    let mut ordinal_of: HashMap<SessionId, u64> = HashMap::new();
    let mut cursor = 0;
    let events = &setup.schedule.events;
    let watch = Stopwatch::start();
    let t0 = Instant::now();
    for slot in 0u64.. {
        let slot_due = t0 + SLOT * slot as u32;
        let now = Instant::now();
        if now < slot_due {
            std::thread::sleep(slot_due - now);
        }
        pass.lateness_ms
            .push(ms(Instant::now().saturating_duration_since(slot_due)));

        // Events of this slot. The schedule's close-out retirements at
        // the horizon are skipped: sessions still holding then drain.
        while cursor < events.len() && events[cursor].slot == slot && slot < horizon {
            let event = events[cursor];
            cursor += 1;
            match event.kind {
                ChurnEventKind::Arrive { during_pu_burst } => {
                    pass.arrivals += 1;
                    let spec = ChurnDriver::spec_for(
                        pack,
                        &setup.scenario,
                        event.ordinal,
                        during_pu_burst,
                    );
                    let t = Instant::now();
                    let outcome = service.admit(spec);
                    pass.admit_us.push(us(t.elapsed()));
                    match outcome {
                        AdmitOutcome::Admitted(id) => {
                            report.check(true, String::new);
                            live.insert(event.ordinal, (id, slot_due));
                            ordinal_of.insert(id, event.ordinal);
                        }
                        AdmitOutcome::Rejected(reason) => {
                            report.check(false, || format!("serve admission rejected: {reason}"))
                        }
                    }
                }
                ChurnEventKind::Handover {
                    kind,
                    demand_factor,
                    ..
                } => {
                    let Some(&(id, _)) = live.get(&event.ordinal) else {
                        continue;
                    };
                    let demand = ChurnDriver::handover_demand(
                        pack,
                        &setup.scenario,
                        event.ordinal,
                        kind,
                        demand_factor,
                    );
                    let t = Instant::now();
                    let outcome = service.handover(id, demand, kind);
                    pass.handover_us.push(us(t.elapsed()));
                    match outcome {
                        HandoverOutcome::Completed { .. } => report.check(true, String::new),
                        HandoverOutcome::Rejected(reason) => {
                            report.check(false, || format!("serve handover rejected: {reason}"))
                        }
                        HandoverOutcome::NotActive => {}
                    }
                }
                ChurnEventKind::Retire => {
                    if let Some((id, _)) = live.remove(&event.ordinal) {
                        ordinal_of.remove(&id);
                        let t = Instant::now();
                        service.retire(id);
                        pass.retire_us.push(us(t.elapsed()));
                    }
                }
            }
        }

        let t = Instant::now();
        let step = service.step();
        pass.step_us.push(us(t.elapsed()));
        let done_at = Instant::now();
        for completed in service.take_completed() {
            pass.completed += 1;
            if let Some(ordinal) = ordinal_of.remove(&completed.id) {
                let (_, arrived) = live.remove(&ordinal).expect("live session");
                pass.session_ms.push(ms(done_at - arrived));
            }
            if let Some(Some(out)) = completed.outputs.first() {
                pass.psnr.push(out.result.mean_psnr());
            }
        }
        for id in &step.shed {
            if let Some(ordinal) = ordinal_of.remove(id) {
                live.remove(&ordinal);
            }
            report.check(false, || format!("serve session {} shed", id.0));
        }

        if slot + 1 >= horizon {
            let quiet = step.active == 0 && step.pending == 0 && service.snapshot().draining == 0;
            if quiet {
                break;
            }
            if t0.elapsed() >= deadline {
                let unresolved = step.active as u64;
                for _ in 0..unresolved {
                    report.check(false, || {
                        "serve session unresolved at the drain deadline".into()
                    });
                }
                break;
            }
        }
    }
    pass.wall_s = watch.wall_s();
    pass.cpu_s = watch.cpu_s();
    pass.slots = runtime
        .snapshot()
        .counter(SLOTS_COUNTER)
        .unwrap_or(0)
        .saturating_sub(slots_before);

    let snap = service.snapshot();
    pass.deferrals = snap.deferrals;
    report.check(snap.accounting_holds(), || {
        "serve accounting identity broken".into()
    });
    report.check(snap.windows_retried == 0, || {
        format!("serve retried {} windows", snap.windows_retried)
    });
    report.check(
        snap.active > 0 || snap.admitted == snap.completed + snap.retired + snap.shed,
        || {
            format!(
                "serve admitted {} != completed {} + retired {} + shed {}",
                snap.admitted, snap.completed, snap.retired, snap.shed
            )
        },
    );
    pass
}

/// Arrival horizon in slots for a run of `seconds`.
pub fn horizon_slots(seconds: f64) -> u64 {
    (seconds * ARRIVAL_SHARE / SLOT.as_secs_f64()) as u64
}

/// Runs the workload: set-up, an untraced replay, and with `trace` a
/// traced replay reporting per-layer metrics.
pub fn run(text: &str, seed: u64, seconds: f64, trace: bool, host: &Host) -> Report {
    let mut report = Report::default();
    let pass_seconds = if trace { seconds / 2.0 } else { seconds };
    let (setup, setup_s) = repeated_setup(|| setup(text, seed, horizon_slots(pass_seconds)));
    let deadline = Duration::from_secs_f64(pass_seconds) + DRAIN_GRACE;

    let plain = replay(&setup, deadline, &mut report);
    if !trace {
        let tail_q = tail_quantile(plain.session_ms.len());
        report.metric("setup_s", setup_s, "s");
        report.metric("sim_slots_per_s", plain.slots as f64 / plain.wall_s, "1/s");
        let p50 = grouped_median(&plain.session_ms, ms(SLOT));
        report.metric("p50_ms", p50, "ms");
        report.metric("quality", mean(&plain.psnr), "score");
        report.metric("peak_rss_mb", crate::common::peak_rss_mb(), "MB");
        report.detail("session_p50_ms", p50, "ms");
        report.detail("session_p50_raw_ms", median(&plain.session_ms), "ms");
        report.detail("session_mean_ms", mean(&plain.session_ms), "ms");
        report.detail(
            "clock_lateness_ms_p99",
            quantile(&plain.lateness_ms, 0.99),
            "ms",
        );
        report.detail("session_tail_ms", quantile(&plain.session_ms, tail_q), "ms");
        report.detail("session_tail_quantile", tail_q, "share");
        report.detail("sessions_timed", plain.session_ms.len() as f64, "count");
        report.detail("arrivals", plain.arrivals as f64, "count");
        report.detail(
            "completed_per_s",
            plain.completed as f64 / plain.wall_s,
            "1/s",
        );
        report.detail("psnr_db", mean(&plain.psnr), "dB");
        report.detail("wall_s", plain.wall_s, "s");
        report.detail("cpu_s", plain.cpu_s, "s");
        return report;
    }

    let runtime = fcr_serve::shared_runtime();
    probe::telemetry(true);
    let probe = PoolProbe::start(&runtime);
    let traced = replay(&setup, deadline, &mut report);
    let telemetry = fcr_telemetry::global().snapshot();
    probe::telemetry(false);
    probe::telemetry_metrics(&mut report, &telemetry, traced.completed.max(1) as f64);
    probe.finish(&runtime, host.cores, &mut report);
    report.metric(
        "serve.admit_us_p50",
        layer_quantile(&traced.admit_us, 0.5),
        "us",
    );
    report.metric(
        "serve.admit_us_p99",
        layer_quantile(&traced.admit_us, 0.99),
        "us",
    );
    report.metric(
        "serve.step_us_p50",
        layer_quantile(&traced.step_us, 0.5),
        "us",
    );
    report.metric(
        "serve.step_us_p99",
        layer_quantile(&traced.step_us, 0.99),
        "us",
    );
    report.metric(
        "serve.handover_us_p50",
        layer_quantile(&traced.handover_us, 0.5),
        "us",
    );
    report.metric(
        "serve.retire_us_p50",
        layer_quantile(&traced.retire_us, 0.5),
        "us",
    );
    report.metric("serve.deferrals", traced.deferrals as f64, "count");
    report.metric(
        "serve.clock_lateness_ms_p99",
        quantile(&traced.lateness_ms, 0.99),
        "ms",
    );
    report.metric("scenario.parse_ms", setup.parse_ms, "ms");
    report.metric("scenario.schedule_ms", setup.schedule_ms, "ms");
    report.overhead(
        grouped_median(&plain.session_ms, ms(SLOT)),
        grouped_median(&traced.session_ms, ms(SLOT)),
    );
    report
}
