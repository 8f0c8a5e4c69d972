//! `Service::quiesce` waits on pool progress under a wall-clock
//! deadline: a slow window delays quiescing instead of failing it, the
//! wait for retired sessions' windows does not tick the slot clock, and
//! a service that cannot drain in time still fails loudly.

use fcr_runtime::{FaultEvent, FaultKind, FaultPlan, Runtime, RuntimeConfig, ShardPolicy};
use fcr_serve::{ServeConfig, Service, SessionSpec};
use fcr_sim::config::SimConfig;
use fcr_sim::Scenario;
use std::sync::Arc;
use std::time::Duration;

/// A two-worker service whose first executed job stalls its worker
/// for `delay` before running.
fn service_with_one_slow_job(delay: Duration) -> Service {
    let runtime = Runtime::with_faults(
        RuntimeConfig {
            workers: 2,
            queue_capacity: 64,
            min_workers: 2,
            max_workers: 2,
            shard: ShardPolicy::Auto,
        },
        FaultPlan::new(&[FaultEvent {
            at: 0,
            kind: FaultKind::Delay(delay),
        }]),
    );
    Service::new(
        ServeConfig {
            mbs_budget: 1e12,
            ..ServeConfig::default()
        },
        Arc::new(runtime),
    )
}

fn spec(seed: u64) -> SessionSpec {
    let cfg = SimConfig {
        gops: 2,
        deadline: 2,
        num_channels: 2,
        ..SimConfig::default()
    };
    SessionSpec::new(Arc::new(Scenario::single_fbs(&cfg)), cfg).seed(seed)
}

#[test]
fn quiesce_waits_out_a_slow_draining_window_without_ticking_the_clock() {
    let service = service_with_one_slow_job(Duration::from_millis(300));
    let id = service.admit(spec(1)).expect_admitted();
    service.step(); // ships the first windows; one stalls 300 ms
    assert!(service.retire(id));
    let before = service.snapshot();
    assert_eq!(before.draining, 1, "the slow window is still in flight");

    service.quiesce(Duration::from_secs(60));

    let after = service.snapshot();
    assert_eq!(after.slot, before.slot, "draining must not tick the clock");
    assert_eq!(after.draining, 0);
    assert_eq!(after.pending, 0);
    assert!(after.accounting_holds());
}

#[test]
fn quiesce_completes_an_active_session_behind_a_slow_window() {
    let service = service_with_one_slow_job(Duration::from_millis(300));
    let id = service.admit(spec(2)).expect_admitted();
    service.quiesce(Duration::from_secs(60));
    let done = service.take_completed();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].id, id);
    assert!(done[0].outputs.iter().all(Option::is_some));
    let snap = service.snapshot();
    assert_eq!((snap.active, snap.pending), (0, 0));
}

#[test]
#[should_panic(expected = "failed to quiesce")]
fn quiesce_still_fails_loudly_past_its_deadline() {
    let service = service_with_one_slow_job(Duration::from_millis(500));
    let id = service.admit(spec(3)).expect_admitted();
    service.step();
    assert!(service.retire(id));
    service.quiesce(Duration::from_millis(20));
}
