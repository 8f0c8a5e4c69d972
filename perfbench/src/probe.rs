//! Runtime-layer probe: the worker pool's own counters read before and
//! after a measured phase, plus the telemetry sink switch for traced
//! passes.

use crate::common::{idle_cpu_share, Report, Stopwatch};
use fcr_runtime::{HistogramSnapshot, MetricsSnapshot, Runtime};
use fcr_telemetry::{Phase, TelemetrySnapshot};
use std::time::Duration;

/// How long the process sits idle after a phase while its CPU use is
/// sampled for `runtime.idle_cpu_share`.
pub const IDLE_WINDOW: Duration = Duration::from_millis(300);

/// Snapshot of a pool at the start of a measured phase.
#[derive(Debug)]
pub struct PoolProbe {
    before: MetricsSnapshot,
    watch: Stopwatch,
}

impl PoolProbe {
    /// Starts probing `runtime`, dropping resize events buffered before
    /// the phase.
    pub fn start(runtime: &Runtime) -> PoolProbe {
        runtime.drain_resize_events();
        PoolProbe {
            before: runtime.snapshot(),
            watch: Stopwatch::start(),
        }
    }

    /// Ends the phase and writes the `runtime.*` per-layer metrics:
    /// job wall-time percentiles, busy share of all worker slots,
    /// resizes, process CPU seconds, and the idle CPU share measured
    /// over [`IDLE_WINDOW`] after the phase.
    pub fn finish(self, runtime: &Runtime, cores: usize, report: &mut Report) {
        let wall = self.watch.wall_s();
        let cpu = self.watch.cpu_s();
        let after = runtime.snapshot();
        // Resizes reach the telemetry sink when the program flushes
        // them (sessions and service steps do); the rest are still
        // buffered on the pool.
        let resizes =
            fcr_telemetry::global().snapshot().resizes.len() + runtime.drain_resize_events().len();
        let jobs = histogram_delta(&after.job_wall_time, &self.before.job_wall_time);
        let busy_ns: u64 = after
            .per_worker
            .iter()
            .zip(&self.before.per_worker)
            .map(|(a, b)| a.busy_ns.saturating_sub(b.busy_ns))
            .sum();
        let slots = after.per_worker.len().max(1) as f64;
        let idle = idle_cpu_share(IDLE_WINDOW, cores);
        let pct = |q| jobs.percentile_micros(q).unwrap_or(0) as f64;
        report.metric("runtime.job_us_p50", pct(0.5), "us");
        report.metric("runtime.job_us_p99", pct(0.99), "us");
        report.metric(
            "runtime.busy_share",
            busy_ns as f64 / (wall * 1e9 * slots),
            "share",
        );
        report.metric("runtime.resizes", resizes as f64, "count");
        report.metric("runtime.cpu_s", cpu, "s");
        report.metric("runtime.idle_cpu_share", idle, "share");
        report.detail("runtime.jobs", jobs.count as f64, "count");
    }
}

/// The samples recorded between two snapshots of one histogram.
fn histogram_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        count: after.count.saturating_sub(before.count),
        sum_micros: after.sum_micros.saturating_sub(before.sum_micros),
        min_micros: None,
        max_micros: after.max_micros,
        buckets: after
            .buckets
            .iter()
            .zip(&before.buckets)
            .map(|(&(bound, a), &(_, b))| (bound, a.saturating_sub(b)))
            .collect(),
    }
}

/// Turns the program's telemetry sink on (traced pass, starting from an
/// empty sink) or off (what it collected stays readable).
pub fn telemetry(on: bool) {
    if on {
        fcr_telemetry::reset();
        fcr_telemetry::enable();
    } else {
        fcr_telemetry::disable();
    }
}

/// Adds the program's own telemetry, per unit of work: wall time summed
/// over every span of each of the six pipeline phases
/// (`sim.phase_*_ms`) and the greedy's inner `Q` solves
/// (`core.greedy_inner_solves`).
pub fn telemetry_metrics(report: &mut Report, telemetry: &TelemetrySnapshot, units: f64) {
    for phase in Phase::ALL {
        let total_ms = telemetry.phase(phase).total_ns as f64 / 1e6;
        report.metric(
            &format!("sim.phase_{}_ms", phase.name()),
            total_ms / units,
            "ms",
        );
    }
    let inner = telemetry.counter("greedy.inner_solves").unwrap_or(0) as f64;
    report.metric("core.greedy_inner_solves", inner / units, "count");
}
