//! `fcr-bench` — the benchmark subsystem: the standing `fcr-bench`
//! runner, the shared `BENCH_<area>.json` artifact machinery, the
//! perf-budget gate, and the canonical solver fixtures its areas time.
//!
//! # The standing harness
//!
//! The `fcr-bench` binary runs named [`areas`] (`solver`, `runtime`,
//! `serve`, `scenario`), each emitting one `BENCH_<area>.json` on the shared
//! [`fcr_telemetry::BenchEnvelope`] schema; `fcr-bench check` diffs
//! fresh artifacts against the in-tree thresholds
//! ([`budgets`], `bench/budgets.json`) and exits nonzero on any
//! regression — the CI `bench-smoke` job is exactly `run --all
//! --scale smoke` followed by `check`. Artifacts are parsed back with
//! the std-only reader in [`json`] (the build is offline; no serde).

#![forbid(unsafe_code)]

pub mod areas;
pub mod budgets;
pub mod json;

pub use areas::{run_area, Scale, ALL_AREAS};
pub use budgets::{check, Budget, BudgetFile, Violation};
pub use json::parse_envelope;

use fcr_core::interfering::InterferingProblem;
use fcr_core::problem::{SlotProblem, UserState};
use fcr_net::interference::InterferenceGraph;
use fcr_net::node::FbsId;

/// The paper's three-user single-FBS slot problem (Fig. 3 flavour).
pub fn single_fbs_problem() -> SlotProblem {
    SlotProblem::single_fbs(
        vec![
            UserState::new(30.2, FbsId(0), 0.72, 0.72, 0.9, 0.85).expect("valid"),
            UserState::new(27.6, FbsId(0), 0.63, 0.63, 0.8, 0.9).expect("valid"),
            UserState::new(28.8, FbsId(0), 0.675, 0.675, 0.85, 0.8).expect("valid"),
        ],
        3.0,
    )
    .expect("valid")
}

/// The Fig. 5 interfering instance: path graph, nine users, four
/// available channels.
pub fn fig5_problem() -> InterferingProblem {
    let graph = InterferenceGraph::new(3, &[(FbsId(0), FbsId(1)), (FbsId(1), FbsId(2))]);
    let users: Vec<UserState> = (0..9)
        .map(|j| {
            UserState::new(
                27.0 + j as f64 * 0.7,
                FbsId(j / 3),
                0.72,
                0.72,
                0.5 + 0.04 * (j % 3) as f64,
                0.95 - 0.05 * (j % 3) as f64,
            )
            .expect("valid")
        })
        .collect();
    InterferingProblem::new(users, graph, vec![0.9, 0.8, 0.75, 0.7]).expect("valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        assert_eq!(single_fbs_problem().num_users(), 3);
        let p = fig5_problem();
        assert_eq!(p.num_fbss(), 3);
        assert_eq!(p.num_channels(), 4);
    }
}
