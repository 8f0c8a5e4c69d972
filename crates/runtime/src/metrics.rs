//! The atomic metrics registry and its snapshots.
//!
//! Every counter is updated with relaxed atomics on the hot path;
//! [`MetricsRegistry::snapshot`] can be taken from any thread
//! mid-flight without pausing the pool.

use crate::histogram::{AtomicHistogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Live per-worker counters: how much wall time worker `i` spent
/// executing jobs, how many jobs it ran, and how many of those it
/// stole from a sibling's shard.
#[derive(Debug)]
pub(crate) struct WorkerStats {
    busy_ns: AtomicU64,
    jobs_executed: AtomicU64,
    steals: AtomicU64,
}

impl WorkerStats {
    fn new() -> Self {
        WorkerStats {
            busy_ns: AtomicU64::new(0),
            jobs_executed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        }
    }
}

/// Live counters for one [`crate::Runtime`].
#[derive(Debug)]
pub struct MetricsRegistry {
    started_at: Instant,
    /// Currently active worker count (elastic pools update this on
    /// resize).
    active_workers: AtomicU64,
    /// Per-worker execution accounting, indexed by worker slot (sized
    /// to the pool's `max_workers`).
    worker_stats: Vec<WorkerStats>,
    /// Jobs accepted into a shard queue.
    pub(crate) jobs_submitted: AtomicU64,
    /// Jobs that ran to completion.
    pub(crate) jobs_completed: AtomicU64,
    /// Jobs whose closure panicked (contained, not propagated).
    pub(crate) jobs_failed: AtomicU64,
    /// Jobs taken from a sibling's shard.
    pub(crate) jobs_stolen: AtomicU64,
    /// `try_spawn` submissions bounced by a full pool.
    pub(crate) jobs_rejected: AtomicU64,
    /// Jobs currently sitting in shard queues.
    pub(crate) queue_depth: AtomicU64,
    /// Jobs currently executing on a worker.
    pub(crate) jobs_in_flight: AtomicU64,
    /// Wall-clock time per executed job.
    pub(crate) job_wall_time: AtomicHistogram,
    /// Domain counters registered at runtime (e.g. `slots_simulated`).
    named: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
}

impl MetricsRegistry {
    pub(crate) fn new(workers: usize) -> Self {
        MetricsRegistry {
            started_at: Instant::now(),
            active_workers: AtomicU64::new(workers as u64),
            worker_stats: (0..workers).map(|_| WorkerStats::new()).collect(),
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_stolen: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            jobs_in_flight: AtomicU64::new(0),
            job_wall_time: AtomicHistogram::new(),
            named: Mutex::new(BTreeMap::new()),
        }
    }

    /// Returns (registering on first use) the named domain counter.
    /// Callers keep the `Arc` and bump it with
    /// [`AtomicU64::fetch_add`]; the snapshot lists every registered
    /// counter.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        let mut named = self.named.lock().expect("metrics registry poisoned");
        Arc::clone(
            named
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Records the pool's current active worker count (called by the
    /// elastic resize path).
    pub(crate) fn set_active_workers(&self, n: usize) {
        self.active_workers.store(n as u64, Ordering::Relaxed);
    }

    /// Decrements the queue-depth gauge, saturating at zero. A plain
    /// `fetch_sub` on an unpaired path would wrap the gauge to
    /// `u64::MAX`; saturating keeps a momentarily-skewed gauge merely
    /// skewed, never absurd.
    pub(crate) fn dec_queue_depth(&self) {
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    pub(crate) fn record_job(&self, wall: Duration, ok: bool) {
        if ok {
            self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.jobs_failed.fetch_add(1, Ordering::Relaxed);
        }
        self.job_wall_time.record(wall);
    }

    /// Attributes one executed job and its wall time to worker
    /// `index`. (Jobs absorbed inline by a caller via
    /// [`crate::RejectedJob::run_inline`] run on no worker and are
    /// deliberately not attributed here.)
    pub(crate) fn record_worker_job(&self, index: usize, busy: Duration) {
        if let Some(w) = self.worker_stats.get(index) {
            let ns = u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX);
            w.busy_ns.fetch_add(ns, Ordering::Relaxed);
            w.jobs_executed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Attributes one successful steal to the **stealing** worker
    /// `index` (the pool-wide `jobs_stolen` counter is kept
    /// separately by the queue path).
    pub(crate) fn record_worker_steal(&self, index: usize) {
        if let Some(w) = self.worker_stats.get(index) {
            w.steals.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of every counter. Safe to call while the
    /// pool is running; relaxed loads may be mutually skewed by a few
    /// in-flight jobs.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let named = self
            .named
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let uptime = self.started_at.elapsed();
        let lifetime_ns = u64::try_from(uptime.as_nanos()).unwrap_or(u64::MAX);
        let per_worker = self
            .worker_stats
            .iter()
            .enumerate()
            .map(|(index, w)| WorkerSnapshot {
                index,
                busy_ns: w.busy_ns.load(Ordering::Relaxed),
                lifetime_ns,
                jobs_executed: w.jobs_executed.load(Ordering::Relaxed),
                steals: w.steals.load(Ordering::Relaxed),
            })
            .collect();
        MetricsSnapshot {
            workers: self.active_workers.load(Ordering::Relaxed) as usize,
            uptime,
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_stolen: self.jobs_stolen.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            jobs_in_flight: self.jobs_in_flight.load(Ordering::Relaxed),
            job_wall_time: self.job_wall_time.snapshot(),
            per_worker,
            counters: named,
        }
    }
}

/// A point-in-time copy of one worker's execution accounting.
///
/// `busy_ns / lifetime_ns` is the worker's utilization: the fraction of
/// its lifetime so far spent executing jobs (as opposed to parked or
/// scanning for work). `lifetime_ns` is the pool's uptime at snapshot
/// time — workers are spawned with the pool and live until shutdown,
/// so one shared lifetime is exact up to thread-spawn jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// The worker's index (also its home shard).
    pub index: usize,
    /// Wall time this worker spent executing jobs (ns).
    pub busy_ns: u64,
    /// The worker's lifetime at snapshot time (ns).
    pub lifetime_ns: u64,
    /// Jobs this worker executed (own shard + stolen).
    pub jobs_executed: u64,
    /// Of those, jobs stolen from a sibling's shard.
    pub steals: u64,
}

impl WorkerSnapshot {
    /// Fraction of this worker's lifetime spent executing jobs
    /// (0 when the lifetime is zero).
    pub fn utilization(&self) -> f64 {
        if self.lifetime_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.lifetime_ns as f64
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// **Active** worker count at snapshot time (elastic pools resize
    /// this between batches; `per_worker.len()` is the slot count,
    /// i.e. the pool's `max_workers`).
    pub workers: usize,
    /// Time since the pool was built.
    pub uptime: Duration,
    /// Jobs accepted into a shard queue.
    pub jobs_submitted: u64,
    /// Jobs that ran to completion.
    pub jobs_completed: u64,
    /// Jobs whose closure panicked (contained).
    pub jobs_failed: u64,
    /// Jobs executed by a worker other than the shard owner.
    pub jobs_stolen: u64,
    /// `try_spawn` submissions bounced by a full pool.
    pub jobs_rejected: u64,
    /// Jobs queued but not yet started.
    pub queue_depth: u64,
    /// Jobs executing right now.
    pub jobs_in_flight: u64,
    /// Wall-clock time per executed job.
    pub job_wall_time: HistogramSnapshot,
    /// Per-worker execution accounting, indexed by worker.
    pub per_worker: Vec<WorkerSnapshot>,
    /// Named domain counters (e.g. `slots_simulated`,
    /// `solver_invocations`), sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    /// Jobs finished (ok or failed) per wall-clock second since the
    /// pool started.
    pub fn jobs_per_sec(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            (self.jobs_completed + self.jobs_failed) as f64 / secs
        }
    }

    /// Value of a named domain counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_counters_register_once_and_accumulate() {
        let m = MetricsRegistry::new(4);
        let a = m.counter("slots_simulated");
        let b = m.counter("slots_simulated");
        a.fetch_add(10, Ordering::Relaxed);
        b.fetch_add(5, Ordering::Relaxed);
        let snap = m.snapshot();
        assert_eq!(snap.counter("slots_simulated"), Some(15));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.workers, 4);
    }

    #[test]
    fn worker_attribution_lands_on_the_right_worker() {
        let m = MetricsRegistry::new(2);
        m.record_worker_job(0, Duration::from_micros(40));
        m.record_worker_job(0, Duration::from_micros(60));
        m.record_worker_job(1, Duration::from_micros(10));
        m.record_worker_steal(1);
        // Out-of-range indices are ignored, not panicking.
        m.record_worker_job(7, Duration::from_micros(1));
        m.record_worker_steal(7);
        let snap = m.snapshot();
        assert_eq!(snap.per_worker.len(), 2);
        let w0 = snap.per_worker[0];
        let w1 = snap.per_worker[1];
        assert_eq!((w0.index, w0.jobs_executed, w0.steals), (0, 2, 0));
        assert_eq!(w0.busy_ns, 100_000);
        assert_eq!((w1.index, w1.jobs_executed, w1.steals), (1, 1, 1));
        assert_eq!(w1.busy_ns, 10_000);
        for w in &snap.per_worker {
            assert_eq!(w.lifetime_ns, snap.per_worker[0].lifetime_ns);
            assert!(w.lifetime_ns > 0);
            // Synthetic busy times can exceed the registry's (tiny)
            // uptime here, so only check sanity, not the ≤ 1 bound —
            // the pool test covers the real invariant.
            assert!(
                w.utilization() >= 0.0 && w.utilization().is_finite(),
                "{w:?}"
            );
        }
    }

    #[test]
    fn zero_lifetime_utilization_is_zero() {
        let w = WorkerSnapshot {
            index: 0,
            busy_ns: 5,
            lifetime_ns: 0,
            jobs_executed: 1,
            steals: 0,
        };
        assert_eq!(w.utilization(), 0.0);
    }

    #[test]
    fn queue_depth_gauge_saturates_at_zero() {
        let m = MetricsRegistry::new(1);
        m.queue_depth.fetch_add(2, Ordering::Relaxed);
        m.dec_queue_depth();
        m.dec_queue_depth();
        assert_eq!(m.snapshot().queue_depth, 0);
        // An unpaired extra decrement must NOT wrap to u64::MAX.
        m.dec_queue_depth();
        assert_eq!(m.snapshot().queue_depth, 0);
    }

    #[test]
    fn record_job_splits_ok_and_failed() {
        let m = MetricsRegistry::new(1);
        m.record_job(Duration::from_micros(5), true);
        m.record_job(Duration::from_micros(7), false);
        let snap = m.snapshot();
        assert_eq!(snap.jobs_completed, 1);
        assert_eq!(snap.jobs_failed, 1);
        assert_eq!(snap.job_wall_time.count, 2);
        assert!(snap.jobs_per_sec() > 0.0);
    }
}
