//! Telemetry server: stand up the TCP front-end, run a small workload
//! over the binary protocol, then scrape the *same listener* over
//! plain HTTP — `/healthz`, `/metrics` (validated with
//! [`lint_exposition`]), and the trace-filtered `/debug/journal`.
//!
//! ```text
//! cargo run --release --example telemetry_server
//! cargo run --release --example telemetry_server -- --listen 127.0.0.1:7070 --hold-ms 30000
//! ```
//!
//! With no arguments the example scrapes itself and exits — that is
//! what CI's examples job runs. `--listen` pins the port and
//! `--hold-ms` keeps the server up after the self-check so an external
//! scraper (curl, Prometheus) can hit the endpoints; CI's server-smoke
//! job uses exactly that to curl the observability plane from a shell.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;

use bader_cong_spanning::prelude::*;

/// One HTTP/1.1 GET over a raw socket; returns (status line, body).
fn http_get(addr: std::net::SocketAddr, target: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(
        s,
        "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header terminator");
    let status = head.lines().next().unwrap_or_default().to_owned();
    (status, body.to_owned())
}

fn main() {
    let mut listen = "127.0.0.1:0".to_owned();
    let mut hold_ms: u64 = 0;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--listen" => listen = args.next().expect("--listen needs an address"),
            "--hold-ms" => {
                hold_ms = args
                    .next()
                    .expect("--hold-ms needs a value")
                    .parse()
                    .expect("--hold-ms must be an integer")
            }
            other => panic!("unknown option {other}"),
        }
    }

    let service = Arc::new(
        Service::builder()
            .cores(2)
            .queue_capacity(32)
            .result_cache_capacity(16)
            .build(),
    );
    let config = ServerConfig {
        addr: listen.parse().expect("--listen must be host:port"),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&service), config).expect("bind listen address");
    let addr = server.local_addr();
    println!("serving on {addr} (binary protocol + HTTP observability plane)");

    // A small workload over the binary protocol so every telemetry
    // surface has data: three executions and one cache hit.
    let mut client = Client::connect(addr).expect("loopback connect");
    let remote = client.register(&gen::torus2d(64, 64)).expect("register");
    let mut last_trace = 0u64;
    for seed in 0..3u64 {
        let reply = client
            .submit(SubmitRequest::new(remote).seed(seed))
            .expect("submit");
        client.wait(reply.ticket).expect("wait");
        last_trace = reply.trace;
    }
    let hit = client
        .submit(SubmitRequest::new(remote).seed(2))
        .expect("submit repeat");
    assert!(hit.cached, "repeat spec is served from the result cache");

    // Scrape ourselves over HTTP — the same checks CI runs with curl.
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body, "ok\n");

    let (status, page) = http_get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let samples = lint_exposition(&page).expect("scraped page passes the exposition lint");
    let wall_count: f64 = samples
        .iter()
        .filter(|(k, _)| k.starts_with("st_service_job_wall_seconds_count"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(
        wall_count, 3.0,
        "three executed jobs in the wall histograms"
    );
    println!("/metrics: {} samples pass the lint", samples.len());

    let (status, jsonl) = http_get(addr, &format!("/debug/journal?trace={last_trace:016x}"));
    assert_eq!(status, "HTTP/1.1 200 OK");
    // submitted, admitted, dequeued, started, finished — plus
    // direction_switched before finished when the default hybrid
    // traversal swept bottom-up.
    let switched = jsonl.contains("\"event\":\"direction_switched\"");
    assert_eq!(
        jsonl.lines().count(),
        5 + usize::from(switched),
        "the last execution's full lifecycle is journaled"
    );
    println!("/debug/journal: trace {last_trace:016x} shows its full lifecycle");

    if hold_ms > 0 {
        println!("holding the listener open for {hold_ms}ms for external scrapers");
        std::thread::sleep(std::time::Duration::from_millis(hold_ms));
    }
    server.shutdown();
    println!("telemetry server drained cleanly");
}
