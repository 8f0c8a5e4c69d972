//! The fcr benchmark: one workload per process. `--trace 0`
//! measures the end-to-end metrics with tracing off; `--trace 1` runs an
//! untraced and a traced pass and reports the per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload massive_n1000 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it carries the host, CPU and workload-specific details.

mod common;
mod fig6;
mod massive;
mod probe;
mod serve;

use common::{Args, Host, Metric, Report};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["fig6_interfering", "massive_n1000", "serve_churn"];

/// End-to-end metrics every workload reports untraced: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sim_slots_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("quality", "score"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports: `(name, unit)`. A layer
/// the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("core.partition_ms", "ms"),
    ("core.greedy_batch_ms", "ms"),
    ("core.greedy_job_ms_sum", "ms"),
    ("core.merge_ms", "ms"),
    ("core.global_solve_ms", "ms"),
    ("core.dual_iterations", "count"),
    ("core.polish_pass_ms", "ms"),
    ("core.polish_share_of_solve", "share"),
    ("core.kkt_worst", "1"),
    ("core.layer_coverage", "share"),
    ("core.greedy_inner_solves", "count"),
    ("sim.scheme_upper_bound_s", "s"),
    ("sim.scheme_proposed_s", "s"),
    ("sim.scheme_heuristic1_s", "s"),
    ("sim.scheme_heuristic2_s", "s"),
    ("sim.phase_sensing_ms", "ms"),
    ("sim.phase_fusion_ms", "ms"),
    ("sim.phase_access_ms", "ms"),
    ("sim.phase_solver_ms", "ms"),
    ("sim.phase_greedy_alloc_ms", "ms"),
    ("sim.phase_video_credit_ms", "ms"),
    ("serve.admit_us_p50", "us"),
    ("serve.admit_us_p99", "us"),
    ("serve.step_us_p50", "us"),
    ("serve.step_us_p99", "us"),
    ("serve.handover_us_p50", "us"),
    ("serve.retire_us_p50", "us"),
    ("serve.deferrals", "count"),
    ("serve.clock_lateness_ms_p99", "ms"),
    ("scenario.parse_ms", "ms"),
    ("scenario.schedule_ms", "ms"),
    ("runtime.queue_wait_ms_p50", "ms"),
    ("runtime.job_us_p50", "us"),
    ("runtime.job_us_p99", "us"),
    ("runtime.busy_share", "share"),
    ("runtime.resizes", "count"),
    ("runtime.cpu_s", "s"),
    ("runtime.idle_cpu_share", "share"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.traced_p50_ms", "ms"),
];

/// Runs one workload and returns its report with the metrics put in
/// the canonical order of `BENCHMARK.json`.
pub fn run(args: &Args, host: &Host) -> Result<Report, String> {
    let mut report = match args.workload.as_str() {
        "fig6_interfering" => fig6::run(fig6::PACK, args.seed, args.seconds, args.trace, host),
        "massive_n1000" => massive::run(&massive::N1000, args.seed, args.seconds, args.trace, host),
        "serve_churn" => serve::run(serve::PACK, args.seed, args.seconds, args.trace, host),
        other => return Err(format!("unknown workload {other}; one of {WORKLOADS:?}")),
    };
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    report.detail("failed_share", failed_share, "share");
    canonicalize(&mut report, args.trace)?;
    Ok(report)
}

/// The metric table of a run: [`PER_LAYER`] when traced, else
/// [`END_TO_END`].
fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Orders the report's metrics as [`table`], moving any other metric to
/// the detail line. Per-layer metrics a workload does not exercise are
/// filled with 0; a missing end-to-end metric is an error.
fn canonicalize(report: &mut Report, trace: bool) -> Result<(), String> {
    let mut measured = std::mem::take(&mut report.metrics);
    for &(name, unit) in table(trace) {
        match measured.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = measured.remove(i);
                if m.unit != unit {
                    return Err(format!("metric {name}: unit {} != {unit}", m.unit));
                }
                report.metrics.push(m);
            }
            None if trace => report.metrics.push(Metric {
                name: name.to_string(),
                value: 0.0,
                unit,
            }),
            None => return Err(format!("workload did not report {name}")),
        }
    }
    for m in measured {
        report.detail(&m.name, m.value, m.unit);
    }
    Ok(())
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = Host::detect();
    let report = match run(&args, &host) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    print!("{}", report.table());
    println!("{}", report.detail_line(&args, &host));
    println!("{}", report.result_line());
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The workloads share the process-wide pools and telemetry sink;
    /// run them one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn names(report: &Report) -> Vec<(&str, &str)> {
        report
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect()
    }

    /// Runs a small workload untraced and traced: every metric of the
    /// table is present in order, every check passes, and no end-to-end
    /// metric reads 0.
    fn small<F: Fn(bool) -> Report>(f: F) {
        let _guard = SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for trace in [false, true] {
            let mut report = f(trace);
            canonicalize(&mut report, trace).expect("every metric reported");
            assert!(report.correct(), "checks failed: {:?}", report.violations);
            assert_eq!(names(&report), table(trace).to_vec());
            if !trace {
                for m in &report.metrics {
                    assert!(m.value > 0.0, "end-to-end metric {} is {}", m.name, m.value);
                }
            }
        }
    }

    #[test]
    fn small_massive_lineage_reports_every_metric_and_passes_its_checks() {
        let shape = massive::Shape {
            num_fbss: 16,
            lineage: 3,
            ..massive::N1000
        };
        let host = Host::detect();
        small(|trace| massive::run(&shape, 7, 0.05, trace, &host));
    }

    #[test]
    fn small_fig6_batch_reports_every_metric_and_passes_its_checks() {
        let pack = fig6::PACK.replace("\"runs\": 2", "\"runs\": 1");
        let host = Host::detect();
        small(|trace| fig6::run(&pack, 7, 0.05, trace, &host));
    }

    #[test]
    fn small_serve_replay_reports_every_metric_and_passes_its_checks() {
        let host = Host::detect();
        small(|trace| serve::run(serve::PACK, 7, 1.0, trace, &host));
    }

    #[test]
    fn massive_instances_match_the_simulator_generator_bit_for_bit() {
        let shape = massive::Shape {
            num_fbss: 24,
            lineage: 3,
            ..massive::N1000
        };
        let cfg = fcr_sim::massive::MassiveConfig {
            num_fbss: shape.num_fbss,
            cluster_size: shape.cluster_size,
            users_per_fbs: shape.users_per_fbs,
            num_channels: shape.num_channels,
            ..fcr_sim::massive::MassiveConfig::default()
        };
        let slots = massive::lineage(&shape, 11);
        assert_eq!(slots[0], fcr_sim::massive::generate_problem(&cfg, 11));
        for k in 1..slots.len() {
            let expected = fcr_sim::massive::perturb_problem(&slots[k - 1], 11 + k as u64, 1e-3);
            assert_eq!(slots[k], expected);
        }
        assert_eq!(massive::dual_for(1000), cfg.dual_for(1000));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = fcr_telemetry::json::Json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.items())
                .expect("array")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS.to_vec());
    }
}
