//! Shared plumbing: arguments, clocks, percentiles, host facts, and the
//! result line every workload prints.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Command-line arguments of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name (see [`crate::WORKLOADS`]).
    pub workload: String,
    /// Seed every input of the run derives from.
    pub seed: u64,
    /// Wall seconds the measured phase lasts.
    pub seconds: f64,
    /// `false`: end-to-end metrics, nothing traced. `true`: an untraced
    /// pass and a traced pass, reporting per-layer metrics.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => parsed.workload = value,
                "--seed" => {
                    parsed.seed = value
                        .parse()
                        .map_err(|_| format!("--seed: not an integer: {value}"))?
                }
                "--seconds" => {
                    parsed.seconds = value
                        .parse()
                        .map_err(|_| format!("--seconds: not a number: {value}"))?
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
            return Err(format!(
                "--seconds must be in (0, 600], got {}",
                parsed.seconds
            ));
        }
        if parsed.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(parsed)
    }
}

/// One metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a workload run produced: its metrics, its output checks, and a
/// free-form detail section (host, CPU, workload-specific figures).
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (slots, scheme batches, session events).
    pub attempted: u64,
    /// Operations that failed or violated an output check.
    pub failed: u64,
    /// Descriptions of the first few check violations.
    pub violations: Vec<String>,
    /// Extra `(key, value, unit)` facts printed on the detail line.
    pub detail: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds the tracing overhead: the traced pass's median latency
    /// against the untraced pass's.
    pub fn overhead(&mut self, untraced_p50_ms: f64, traced_p50_ms: f64) {
        let overhead = traced_p50_ms - untraced_p50_ms;
        self.metric("trace.overhead_ms", overhead, "ms");
        self.metric("trace.overhead_share", overhead / untraced_p50_ms, "share");
        self.metric("trace.traced_p50_ms", traced_p50_ms, "ms");
    }

    /// Adds a detail fact.
    pub fn detail(&mut self, key: &str, value: f64, unit: &'static str) {
        self.detail.push((key.to_string(), value, unit));
    }

    /// Counts one attempted operation and, when `ok` is false, one
    /// failure described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.violations.len() < 8 {
                self.violations.push(what());
            }
        }
    }

    /// `true` when every check passed and every metric is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The detail line: host facts and workload-specific figures.
    pub fn detail_line(&self, args: &Args, host: &Host) -> String {
        let mut out = format!(
            "{{\"detail\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host_cores\": {}, \"cpu_model\": \"{}\", \"git_revision\": \"{}\"",
            args.workload,
            args.seed,
            u8::from(args.trace),
            host.cores,
            escape(&host.cpu_model),
            escape(&host.revision)
        );
        for (key, value, unit) in &self.detail {
            let _ = write!(
                out,
                ", \"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| format!("\"{}\"", escape(v)))
            .collect();
        let _ = write!(out, ", \"violations\": [{}]}}}}", violations.join(", "));
        out
    }

    /// A human-readable table of every metric and detail.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for (k, v, u) in &self.detail {
            let _ = writeln!(out, "  {:<34} {:>16.6} {}", k, v, u);
        }
        for v in &self.violations {
            let _ = writeln!(out, "  VIOLATION: {v}");
        }
        out
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .map(|c| match c {
            '"' => "\\\"".to_string(),
            '\\' => "\\\\".to_string(),
            c => c.to_string(),
        })
        .collect()
}

/// Facts about the machine a result was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub cores: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Git revision of the checkout, or `unknown` outside a git tree.
    pub revision: String,
}

impl Host {
    /// Reads the host facts.
    pub fn detect() -> Host {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            cores,
            cpu_model,
            revision: git_revision().unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Resolves `HEAD` by reading `.git` directly (no `git` process).
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Process CPU time (user + system, every thread, live or exited).
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks (USER_HZ,
    // 100 on Linux). The command name (field 2) may hold spaces, so
    // split after its closing parenthesis.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 2..];
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Peak resident set size of the process in MB.
pub fn peak_rss_mb() -> f64 {
    fcr_telemetry::peak_rss_kb() as f64 / 1024.0
}

/// CPU the process burns while it should be idle: the share of all
/// cores used over a short sleep of the calling thread. A parked pool
/// reads ~0; a spinning one reads up to 1.
pub fn idle_cpu_share(window: Duration, cores: usize) -> f64 {
    let before = cpu_seconds();
    let started = Instant::now();
    std::thread::sleep(window);
    let used = cpu_seconds() - before;
    used / (started.elapsed().as_secs_f64() * cores.max(1) as f64)
}

/// Wall clock and process CPU over one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// Wall seconds since start.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// Process CPU seconds since start.
    pub fn cpu_s(&self) -> f64 {
        cpu_seconds() - self.cpu
    }
}

/// `seed` folded into the JSON-safe integer range a scenario pack
/// accepts (at most 2^53 − 1).
pub fn pack_seed(seed: u64) -> u64 {
    seed & ((1 << 53) - 1)
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (NaN when
/// empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quantile of one layer's call timings; 0 when the pass made no such
/// call (a short pass may retire no session, for example).
pub fn layer_quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        quantile(values, q)
    }
}

/// Median of values that sit on a grid of spacing `h`: the grouped-data
/// median, which places the middle rank linearly inside its grid cell.
/// A plain median of slot-clocked latencies jumps a whole cell when the
/// distribution shifts a little; this estimate moves with it.
pub fn grouped_median(values: &[f64], h: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut cells: Vec<i64> = values.iter().map(|v| (v / h).round() as i64).collect();
    cells.sort_unstable();
    let mid = cells[cells.len() / 2];
    let below = cells.partition_point(|&c| c < mid) as f64;
    let within = cells.partition_point(|&c| c <= mid) as f64 - below;
    let n = cells.len() as f64;
    (mid as f64 - 0.5 + (n / 2.0 - below) / within) * h
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it, as a fraction (0.5 when `n < 20`).
pub fn tail_quantile(n: usize) -> f64 {
    [0.999, 0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|q| (n as f64) * (1.0 - q) >= 10.0)
        .unwrap_or(0.5)
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Runs `setup` at least [`SETUP_MIN_REPS`] times and until
/// [`SETUP_MIN_TOTAL`] has passed (at most [`SETUP_MAX_REPS`] times), and
/// returns the last result with the median wall seconds of one set-up.
/// Many repetitions make the median of a sub-millisecond set-up steady.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::new();
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let value = setup();
        secs.push(t.elapsed().as_secs_f64());
        let enough = secs.len() >= SETUP_MIN_REPS && started.elapsed() >= SETUP_MIN_TOTAL;
        if enough || secs.len() >= SETUP_MAX_REPS {
            return (value, median(&secs));
        }
    }
}

/// Fewest set-up repetitions per run.
const SETUP_MIN_REPS: usize = 5;
/// Least total set-up time per run.
const SETUP_MIN_TOTAL: Duration = Duration::from_millis(250);
/// Most set-up repetitions per run.
const SETUP_MAX_REPS: usize = 500;

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "x",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "x");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 3.0);
        assert!(a.trace);
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "x", "--bogus", "1"]).is_err());
    }

    #[test]
    fn quantiles_interpolate_and_tail_keeps_ten_beyond() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(5), 0.5);
        assert!(median(&[]).is_nan());
        assert_eq!(layer_quantile(&[], 0.5), 0.0);
        assert_eq!(layer_quantile(&v, 0.5), 3.0);
    }

    #[test]
    fn grouped_median_interpolates_inside_the_middle_cell() {
        // Half the mass at 12, half at 13: the middle rank sits at the
        // top of cell 12.
        assert_eq!(grouped_median(&[12.0, 12.0, 13.0, 13.0], 1.0), 12.5);
        assert_eq!(grouped_median(&[12.07; 4], 1.0), 12.0);
        // Three of four in cell 12: the middle rank is two thirds of
        // the way up it.
        let m = grouped_median(&[11.9, 12.1, 12.05, 14.0], 1.0);
        assert!((m - (11.5 + 2.0 / 3.0)).abs() < 1e-12, "{m}");
        assert!(grouped_median(&[], 1.0).is_nan());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.metric("latency_ms", 1.5, "ms");
        r.check(true, String::new);
        let line = r.result_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        r.check(false, || "bad".into());
        assert!(!r.correct());
    }
}
