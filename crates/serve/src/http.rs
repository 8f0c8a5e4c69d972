//! The `/metrics`-style live endpoint: a std-only TCP server that
//! answers every request with the service's metrics body.
//!
//! Deliberately minimal (the vendored-deps constraint rules out an
//! HTTP stack): the request line is read best-effort for one piece of
//! negotiation — a `format=prom` query selects the Prometheus text
//! exposition; anything else gets the JSONL body — and every
//! connection gets an `HTTP/1.0 200` with `text/plain`, curl-able,
//! `nc`-able, and parseable line by line.

use crate::service::Service;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running metrics endpoint. Dropping (or [`MetricsServer::shutdown`])
/// stops the accept loop and joins the serving thread.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serves `service`'s metrics body to every connection from a
    /// background thread.
    pub fn spawn(service: Arc<Service>, addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("fcr-serve-metrics".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    serve_one(stream, &service);
                }
            })?;
        Ok(MetricsServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // Unblock the accept() with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// How long one blocked write of a response may wait for the client to
/// drain its socket before the connection is abandoned.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Answers one connection: read the request line best-effort, pick the
/// body format from it (`format=prom` → Prometheus text exposition,
/// anything else → JSONL), then write the response. All I/O errors are
/// ignored — a dropped scrape must not disturb the service. Both
/// directions time out, so a client that never sends or never reads
/// cannot stall later scrapes or [`MetricsServer::shutdown`].
fn serve_one(mut stream: TcpStream, service: &Service) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf).unwrap_or(0);
    let request = String::from_utf8_lossy(&buf[..n]);
    let (body, content_type) = if wants_prometheus(&request) {
        (
            service.metrics_prometheus(),
            "text/plain; version=0.0.4; charset=utf-8",
        )
    } else {
        (service.metrics_text(), "text/plain; charset=utf-8")
    };
    let header = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        content_type,
        body.len(),
    );
    // The body can run to megabytes: write it as rendered instead of
    // copying it behind the header first.
    let _ = stream
        .write_all(header.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()));
    let _ = stream.flush();
}

/// `true` when the request line's query string asks for the Prometheus
/// format (`GET /metrics?format=prom` — `prometheus` is accepted too).
fn wants_prometheus(request: &str) -> bool {
    let Some(line) = request.lines().next() else {
        return false;
    };
    let Some(target) = line.split_whitespace().nth(1) else {
        return false;
    };
    let Some((_, query)) = target.split_once('?') else {
        return false;
    };
    query
        .split('&')
        .any(|pair| matches!(pair, "format=prom" | "format=prometheus"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use fcr_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn endpoint_serves_a_parseable_metrics_body() {
        let runtime = Arc::new(Runtime::with_config(RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        }));
        let service = Arc::new(Service::new(ServeConfig::default(), runtime));
        let server = MetricsServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();

        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("response");

        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        let body = response.split("\r\n\r\n").nth(1).expect("body");
        let serve_line = body.lines().next().expect("serve line");
        assert!(
            serve_line.starts_with("{\"type\":\"serve\""),
            "{serve_line}"
        );
        assert!(body.contains("\"type\":\"meta\""), "{body}");
        // Two scrapes both answer (the loop keeps serving).
        let mut conn = TcpStream::connect(addr).expect("second connect");
        conn.write_all(b"GET / HTTP/1.0\r\n\r\n").expect("request");
        let mut second = String::new();
        conn.read_to_string(&mut second).expect("second response");
        assert!(second.contains("\"type\":\"serve\""));

        // format=prom negotiates the Prometheus exposition instead.
        let mut conn = TcpStream::connect(addr).expect("prom connect");
        conn.write_all(b"GET /metrics?format=prom HTTP/1.0\r\n\r\n")
            .expect("request");
        let mut prom = String::new();
        conn.read_to_string(&mut prom).expect("prom response");
        assert!(
            prom.contains("Content-Type: text/plain; version=0.0.4"),
            "{prom}"
        );
        let prom_body = prom.split("\r\n\r\n").nth(1).expect("prom body");
        assert!(
            prom_body.starts_with("# TYPE fcr_serve_slot counter"),
            "{prom_body}"
        );
        assert!(
            prom_body.contains("fcr_serve_sessions_active 0"),
            "{prom_body}"
        );
        assert!(!prom_body.contains("\"type\":"), "{prom_body}");
        server.shutdown();
    }

    #[test]
    fn format_negotiation_parses_the_query_string() {
        assert!(wants_prometheus("GET /metrics?format=prom HTTP/1.0\r\n"));
        assert!(wants_prometheus(
            "GET /metrics?x=1&format=prometheus HTTP/1.1\r\n"
        ));
        assert!(!wants_prometheus("GET /metrics HTTP/1.0\r\n"));
        assert!(!wants_prometheus("GET /metrics?format=json HTTP/1.0\r\n"));
        assert!(!wants_prometheus("GET /metrics?format=promx HTTP/1.0\r\n"));
        assert!(!wants_prometheus(""));
    }
}
