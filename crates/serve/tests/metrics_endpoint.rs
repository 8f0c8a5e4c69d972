//! The `/metrics` endpoint survives a client that sends a request and
//! never reads the response: a later scrape still answers and
//! `MetricsServer::shutdown` still returns.

use fcr_runtime::{Runtime, RuntimeConfig};
use fcr_serve::{MetricsServer, ServeConfig, Service};
use std::io::{Read, Write};
use std::mem::ManuallyDrop;
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Wall-clock bound on each step, generous so a slow host never trips
/// it; a stalled endpoint never finishes at all.
const DEADLINE: Duration = Duration::from_secs(60);

/// Grows the metrics body to ~25 MB of JSONL with long-named telemetry
/// counters — far more than loopback socket buffers hold, so a client
/// that never reads blocks the server's write.
fn grow_metrics_body() {
    fcr_telemetry::enable();
    let pad = "x".repeat(1_000);
    for i in 0..24_000 {
        fcr_telemetry::incr(&format!("stall.{i:05}.{pad}"), 1);
    }
}

/// Runs `f` on its own thread and waits at most [`DEADLINE`] for its
/// result. The thread is not joined: on a stalled endpoint it never
/// returns, and the test must fail rather than hang.
fn within_deadline<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("{what} failed or did not finish within {DEADLINE:?}"))
}

#[test]
fn a_client_that_never_reads_stalls_neither_scrapes_nor_shutdown() {
    grow_metrics_body();
    let runtime = Arc::new(Runtime::with_config(RuntimeConfig {
        workers: 1,
        ..RuntimeConfig::default()
    }));
    let service = Arc::new(Service::new(ServeConfig::default(), runtime));
    // Dropping a stalled server would join its thread forever, so the
    // server is only ever shut down explicitly, under the deadline.
    let server = ManuallyDrop::new(MetricsServer::spawn(service, "127.0.0.1:0").expect("bind"));
    let addr = server.local_addr();

    // The stalled client: sends a request, never reads, stays open.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("request");

    let response = within_deadline("a second scrape", move || {
        let mut conn = TcpStream::connect(addr).expect("second connect");
        conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .expect("request");
        let mut response = Vec::new();
        conn.read_to_end(&mut response).expect("second response");
        response
    });
    assert!(response.starts_with(b"HTTP/1.0 200 OK\r\n"));
    assert!(
        response.len() > 16 << 20,
        "the body must outgrow the socket buffers: {} bytes",
        response.len()
    );

    let server = ManuallyDrop::into_inner(server);
    within_deadline("shutdown", move || server.shutdown());
    drop(stalled);
}
