//! The process-wide simulation pool: the shared
//! [`fcr_runtime::Runtime`] every multi-run code path submits to, and
//! the names of the domain counters its jobs feed.
//!
//! [`crate::session::SimSession`] executes its window jobs here unless
//! a session is given a runtime of its own, so the whole process shares
//! **one** fixed-size worker pool — a hard concurrency cap, replacing
//! the seed's unbounded per-run thread spawning. The pool keeps one
//! worker per available core for the life of the process: the batches
//! it runs are independent seeded runs, so a fixed width returning
//! results in submission order is all they need.
//!
//! # Determinism
//!
//! Every job derives its RNG streams from `(master seed, run, gop)`,
//! never from the worker that runs it, and the runtime returns batch
//! results in submission order. Pooled execution is therefore
//! **bit-identical** to the serial [`crate::engine::run`] loop
//! regardless of worker count or scheduling, and the
//! common-random-numbers property across schemes is preserved
//! (verified by `tests/determinism.rs`).

use fcr_runtime::{MetricsSnapshot, Runtime};
use std::sync::OnceLock;

/// Name of the domain counter tracking simulated channel slots.
pub const SLOTS_COUNTER: &str = "slots_simulated";
/// Name of the domain counter tracking per-slot allocator invocations.
pub const SOLVER_COUNTER: &str = "solver_invocations";
/// Name of the domain counter tracking executed intra-run shard jobs
/// (GOP-aligned slot windows, counted by [`crate::stream::ShardCounters`]).
pub const SHARDS_COUNTER: &str = "shards_executed";

/// The process-wide runtime, built on first use and shared by every
/// experiment in the process: a [`Runtime::new`] pool of
/// [`std::thread::available_parallelism`] workers.
pub fn shared() -> &'static Runtime {
    static POOL: OnceLock<Runtime> = OnceLock::new();
    POOL.get_or_init(Runtime::new)
}

/// A live snapshot of the shared pool's metrics (jobs, queue depth,
/// wall-time histogram, slots simulated, solver invocations).
pub fn snapshot() -> MetricsSnapshot {
    shared().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_pool_is_a_singleton() {
        let a = shared() as *const Runtime;
        let b = shared() as *const Runtime;
        assert_eq!(a, b);
        let cores = fcr_runtime::RuntimeConfig::default().workers;
        assert_eq!(shared().workers(), cores, "one worker per core");
    }
}
