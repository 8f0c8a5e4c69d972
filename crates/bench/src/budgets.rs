//! Perf budgets: the in-tree thresholds `fcr-bench check` holds fresh
//! `BENCH_<area>.json` artifacts to.
//!
//! The machine-readable source of truth is `bench/budgets.json`
//! (prose rationale in `docs/perf_budgets.md`):
//!
//! ```text
//! {
//!   "schema_version": 1,
//!   "budgets": {
//!     "serve": {
//!       "windows_retried": { "max": 0 },
//!       "sessions_per_sec": { "min": 0.5 }
//!     }
//!   }
//! }
//! ```
//!
//! Each budget bounds one envelope metric with an inclusive `min`
//! and/or `max`. [`check`] diffs a set of envelopes against the file
//! and returns every violation — a missing artifact for a budgeted
//! area, a missing or non-numeric metric, a schema-version mismatch,
//! or a bound breach — each rendering as a diff-style line naming the
//! metric, the budget, and the measured value.

use fcr_telemetry::json::Json;
use fcr_telemetry::{BenchEnvelope, BENCH_SCHEMA_VERSION};

/// One metric bound: `min`/`max` are inclusive; either may be absent.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    /// The benchmark area the metric lives in.
    pub area: String,
    /// The envelope metric name this budget bounds.
    pub metric: String,
    /// Inclusive lower bound (throughput floors, invariant flags).
    pub min: Option<f64>,
    /// Inclusive upper bound (latency ceilings, error counts).
    pub max: Option<f64>,
}

/// The parsed `bench/budgets.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetFile {
    /// Envelope schema version the budgets were written against.
    pub schema_version: u32,
    /// Every budget, in document order.
    pub budgets: Vec<Budget>,
}

impl BudgetFile {
    /// Parses the `bench/budgets.json` document.
    pub fn parse(text: &str) -> Result<BudgetFile, String> {
        let doc = Json::parse(text)?;
        let schema_version = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("budgets: missing schema_version")? as u32;
        let areas = doc
            .get("budgets")
            .and_then(Json::fields)
            .ok_or("budgets: missing budgets object")?;
        let mut budgets = Vec::new();
        for (area, metrics) in areas {
            let metrics = metrics
                .fields()
                .ok_or(format!("budgets: area {area:?} is not an object"))?;
            for (metric, bound) in metrics {
                let min = bound.get("min").and_then(Json::as_f64);
                let max = bound.get("max").and_then(Json::as_f64);
                if min.is_none() && max.is_none() {
                    return Err(format!("budgets: {area}/{metric} has neither min nor max"));
                }
                budgets.push(Budget {
                    area: area.clone(),
                    metric: metric.clone(),
                    min,
                    max,
                });
            }
        }
        Ok(BudgetFile {
            schema_version,
            budgets,
        })
    }

    /// The areas this file budgets, deduplicated in document order.
    pub fn areas(&self) -> Vec<&str> {
        let mut areas: Vec<&str> = Vec::new();
        for b in &self.budgets {
            if !areas.contains(&b.area.as_str()) {
                areas.push(&b.area);
            }
        }
        areas
    }
}

/// One budget breach (or structural problem), renderable as the
/// diff-style line the CI job fails with.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The budgeted area.
    pub area: String,
    /// The budgeted metric (empty for whole-artifact problems).
    pub metric: String,
    /// What went wrong, naming the budget and the measured value.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.metric.is_empty() {
            write!(f, "FAIL {}: {}", self.area, self.message)
        } else {
            write!(f, "FAIL {}/{}: {}", self.area, self.metric, self.message)
        }
    }
}

/// Diffs `envelopes` against `budgets`: every budgeted area must have
/// an envelope at the current schema version, and every budgeted
/// metric must exist, be numeric, and sit within its bounds. Returns
/// all violations (empty = the run passes the gate).
pub fn check(budgets: &BudgetFile, envelopes: &[BenchEnvelope]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for area in budgets.areas() {
        let Some(envelope) = envelopes.iter().find(|e| e.area == area) else {
            violations.push(Violation {
                area: area.to_string(),
                metric: String::new(),
                message: format!("no BENCH_{area}.json artifact for budgeted area"),
            });
            continue;
        };
        if envelope.schema_version != BENCH_SCHEMA_VERSION {
            violations.push(Violation {
                area: area.to_string(),
                metric: String::new(),
                message: format!(
                    "{}: schema_version {} != expected {BENCH_SCHEMA_VERSION} \
                     (stale artifact — regenerate with `fcr-bench run --area {area}`)",
                    envelope.file_name(),
                    envelope.schema_version
                ),
            });
            continue;
        }
        for budget in budgets.budgets.iter().filter(|b| b.area == area) {
            let Some(measured) = envelope.metric_value(&budget.metric) else {
                violations.push(Violation {
                    area: area.to_string(),
                    metric: budget.metric.clone(),
                    message: "metric missing or non-numeric in artifact".to_string(),
                });
                continue;
            };
            // NaN compares false against every bound, so `< min` /
            // `> max` alone would wave a poisoned metric through the
            // gate. Reject it outright.
            if measured.is_nan() {
                violations.push(Violation {
                    area: area.to_string(),
                    metric: budget.metric.clone(),
                    message: "measured NaN violates every bound".to_string(),
                });
                continue;
            }
            if let Some(min) = budget.min {
                if measured < min {
                    violations.push(Violation {
                        area: area.to_string(),
                        metric: budget.metric.clone(),
                        message: format!("measured {measured} < budget min {min}"),
                    });
                }
            }
            if let Some(max) = budget.max {
                if measured > max {
                    violations.push(Violation {
                        area: area.to_string(),
                        metric: budget.metric.clone(),
                        message: format!("measured {measured} > budget max {max}"),
                    });
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
      "schema_version": 1,
      "budgets": {
        "solver": {
          "waterfill_solves_per_sec": { "min": 10.0 },
          "dual_iterations_max": { "max": 5000 }
        },
        "serve": {
          "windows_retried": { "max": 0 }
        }
      }
    }"#;

    fn passing_solver() -> BenchEnvelope {
        BenchEnvelope::new("solver", 1)
            .metric("waterfill_solves_per_sec", 100.0)
            .metric("dual_iterations_max", 870u64)
    }

    #[test]
    fn parses_budget_files() {
        let file = BudgetFile::parse(SAMPLE).expect("parse");
        assert_eq!(file.schema_version, 1);
        assert_eq!(file.budgets.len(), 3);
        assert_eq!(file.areas(), vec!["solver", "serve"]);
        assert_eq!(file.budgets[0].min, Some(10.0));
        assert_eq!(file.budgets[1].max, Some(5000.0));
    }

    #[test]
    fn empty_bounds_are_rejected() {
        let err =
            BudgetFile::parse(r#"{"schema_version": 1, "budgets": {"x": {"m": {}}}}"#).unwrap_err();
        assert!(err.contains("neither min nor max"), "{err}");
    }

    #[test]
    fn clean_run_passes() {
        let file = BudgetFile::parse(SAMPLE).expect("parse");
        let envelopes = [
            passing_solver(),
            BenchEnvelope::new("serve", 2).metric("windows_retried", 0u64),
        ];
        assert_eq!(check(&file, &envelopes), Vec::new());
    }

    #[test]
    fn injected_regression_fails_naming_metric_budget_and_value() {
        let file = BudgetFile::parse(SAMPLE).expect("parse");
        let envelopes = [
            BenchEnvelope::new("solver", 1)
                .metric("waterfill_solves_per_sec", 2.5)
                .metric("dual_iterations_max", 9000u64),
            BenchEnvelope::new("serve", 2).metric("windows_retried", 3u64),
        ];
        let violations = check(&file, &envelopes);
        assert_eq!(violations.len(), 3, "{violations:?}");
        let lines: Vec<String> = violations.iter().map(ToString::to_string).collect();
        assert_eq!(
            lines[0],
            "FAIL solver/waterfill_solves_per_sec: measured 2.5 < budget min 10"
        );
        assert_eq!(
            lines[1],
            "FAIL solver/dual_iterations_max: measured 9000 > budget max 5000"
        );
        assert_eq!(
            lines[2],
            "FAIL serve/windows_retried: measured 3 > budget max 0"
        );
    }

    #[test]
    fn a_nan_metric_is_a_violation_not_a_pass() {
        let file = BudgetFile::parse(SAMPLE).expect("parse");
        let envelopes = [
            BenchEnvelope::new("solver", 1)
                .metric("waterfill_solves_per_sec", f64::NAN)
                .metric("dual_iterations_max", f64::NAN),
            BenchEnvelope::new("serve", 2).metric("windows_retried", 0u64),
        ];
        let violations = check(&file, &envelopes);
        assert_eq!(violations.len(), 2, "{violations:?}");
        for v in &violations {
            assert!(v.to_string().contains("NaN"), "{v}");
        }
    }

    #[test]
    fn missing_artifact_metric_and_schema_mismatch_all_fail() {
        let file = BudgetFile::parse(SAMPLE).expect("parse");
        // Missing serve artifact entirely.
        let violations = check(&file, &[passing_solver()]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].to_string().contains("no BENCH_serve.json"));

        // Metric absent from the artifact.
        let violations = check(&file, &[passing_solver(), BenchEnvelope::new("serve", 2)]);
        assert!(violations[0]
            .to_string()
            .contains("metric missing or non-numeric"));

        // Wrong schema version short-circuits the area's metric checks.
        let mut stale = BenchEnvelope::new("serve", 2).metric("windows_retried", 0u64);
        stale.schema_version = 99;
        let violations = check(&file, &[passing_solver(), stale]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].to_string().contains("schema_version 99"));
    }
}
