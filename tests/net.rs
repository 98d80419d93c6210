//! Integration tests for the TCP front-end: the full protocol over
//! loopback, framing robustness (malformed, truncated, oversized,
//! segmented), remote backpressure, remote cancellation and deadlines,
//! the connection limit, and clean shutdown.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bader_cong_spanning::prelude::*;
use bader_cong_spanning::service::net::{ops, Status, SubmitReply, WireError};
use bader_cong_spanning::service::AlgorithmId;

fn serve(cores: usize, queue_capacity: usize) -> (Server, Arc<Service>) {
    serve_with(cores, queue_capacity, ServerConfig::default())
}

fn serve_with(cores: usize, queue_capacity: usize, cfg: ServerConfig) -> (Server, Arc<Service>) {
    let svc = Arc::new(
        Service::builder()
            .cores(cores)
            .queue_capacity(queue_capacity)
            .result_cache_capacity(8)
            .build(),
    );
    let server = Server::start(Arc::clone(&svc), cfg).expect("bind loopback");
    (server, svc)
}

#[test]
fn ping_echoes() {
    let (server, _svc) = serve(1, 4);
    let mut c = Client::connect(server.local_addr()).unwrap();
    assert_eq!(c.ping(b"hello").unwrap(), b"hello");
    assert_eq!(c.ping(b"").unwrap(), b"");
    server.shutdown();
}

#[test]
fn register_submit_wait_roundtrip() {
    let (server, _svc) = serve(2, 16);
    let g = gen::torus2d(16, 16);
    let mut c = Client::connect(server.local_addr()).unwrap();

    let remote = c.register(&g).unwrap();
    assert_eq!(remote.version, 1);
    let reply = c.submit(SubmitRequest::new(remote)).unwrap();
    assert!(!reply.cached);
    let forest = c.wait(reply.ticket).unwrap();
    assert_eq!(forest.num_trees(), 1);
    assert!(forest.is_valid_for(&g));
    server.shutdown();
}

#[test]
fn cache_hits_are_visible_remotely() {
    let (server, svc) = serve(2, 8);
    let g = gen::torus2d(16, 16);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let remote = c.register(&g).unwrap();

    let cold = c.submit(SubmitRequest::new(remote).seed(5)).unwrap();
    assert!(!cold.cached);
    let cold_forest = c.wait(cold.ticket).unwrap();

    let hot = c.submit(SubmitRequest::new(remote).seed(5)).unwrap();
    assert!(hot.cached, "second identical submission is a cache hit");
    let hot_forest = c.wait(hot.ticket).unwrap();
    assert_eq!(hot_forest, cold_forest);
    assert_eq!(svc.snapshot().cache_hits, 1);
    server.shutdown();
}

#[test]
fn every_algorithm_runs_remotely() {
    let (server, _svc) = serve(2, 8);
    let g = gen::random_gnm(1_000, 3_000, 3);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let remote = c.register(&g).unwrap();
    for algo in [
        AlgorithmId::BaderCong,
        AlgorithmId::Multiroot,
        AlgorithmId::Sv,
        AlgorithmId::Hcs,
    ] {
        let reply = c
            .submit(SubmitRequest::new(remote).algorithm(algo))
            .unwrap();
        let forest = c.wait(reply.ticket).unwrap();
        assert!(forest.is_valid_for(&g), "{algo:?}");
    }
    server.shutdown();
}

#[test]
fn unknown_graph_and_unknown_ticket() {
    let (server, _svc) = serve(1, 4);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let bogus = SubmitRequest::new(bader_cong_spanning::service::net::RemoteGraph {
        id: 999,
        version: 1,
    });
    let err = c.submit(bogus).unwrap_err();
    assert_eq!(err.status(), Some(Status::UnknownGraph));
    let err = c.wait(123).unwrap_err();
    assert_eq!(err.status(), Some(Status::UnknownTicket));
    let err = c.cancel(77).unwrap_err();
    assert_eq!(err.status(), Some(Status::UnknownTicket));
    server.shutdown();
}

#[test]
fn waiting_twice_consumes_the_ticket() {
    let (server, _svc) = serve(1, 4);
    let g = gen::torus2d(8, 8);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let remote = c.register(&g).unwrap();
    let reply = c.submit(SubmitRequest::new(remote)).unwrap();
    c.wait(reply.ticket).unwrap();
    let err = c.wait(reply.ticket).unwrap_err();
    assert_eq!(err.status(), Some(Status::UnknownTicket));
    server.shutdown();
}

#[test]
fn malformed_requests_get_malformed_status() {
    let (server, _svc) = serve(1, 4);
    let mut c = Client::connect(server.local_addr()).unwrap();
    // Unknown opcode.
    let (status, _) = c.raw_call(&[0xEE]).unwrap();
    assert_eq!(status, Status::Malformed);
    // Empty request.
    let (status, _) = c.raw_call(&[]).unwrap();
    assert_eq!(status, Status::Malformed);
    // SUBMIT with a truncated payload.
    let (status, _) = c.raw_call(&[ops::SUBMIT, 1, 2, 3]).unwrap();
    assert_eq!(status, Status::Malformed);
    // SUBMIT with an undefined algorithm code.
    let mut req = vec![ops::SUBMIT];
    req.extend_from_slice(&0u64.to_le_bytes());
    req.push(250); // no such algorithm
    req.push(1);
    req.extend_from_slice(&0u64.to_le_bytes());
    req.extend_from_slice(&0u64.to_le_bytes());
    req.extend_from_slice(&0u32.to_le_bytes());
    let (status, _) = c.raw_call(&req).unwrap();
    assert_eq!(status, Status::Malformed);
    // The connection survives malformed requests.
    assert_eq!(c.ping(b"still here").unwrap(), b"still here");
    server.shutdown();
}

#[test]
fn bad_graph_bytes_are_rejected() {
    let (server, _svc) = serve(1, 4);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let mut req = vec![ops::REGISTER];
    req.extend_from_slice(b"not a graph at all");
    let (status, msg) = c.raw_call(&req).unwrap();
    assert_eq!(status, Status::BadGraph);
    assert!(!msg.is_empty(), "diagnostic message expected");
    server.shutdown();
}

#[test]
fn register_with_lying_header_is_rejected_not_fatal() {
    let (server, _svc) = serve(1, 4);
    let mut c = Client::connect(server.local_addr()).unwrap();
    // A valid STCSRv01 magic with astronomical declared sizes and no
    // payload: must come back as a clean BadGraph, not crash the
    // session (or the server) with an allocation failure.
    let mut req = vec![ops::REGISTER];
    req.extend_from_slice(b"STCSRv01");
    req.extend_from_slice(&3u64.to_le_bytes()); // n
    req.extend_from_slice(&(1u64 << 60).to_le_bytes()); // m
    req.extend_from_slice(&[0u8; 16]); // checksum + reserved
    let (status, msg) = c.raw_call(&req).unwrap();
    assert_eq!(status, Status::BadGraph);
    assert!(!msg.is_empty(), "diagnostic message expected");
    // The same session and fresh connections both still get service.
    assert_eq!(c.ping(b"alive").unwrap(), b"alive");
    let mut c2 = Client::connect(server.local_addr()).unwrap();
    assert_eq!(c2.ping(b"fresh").unwrap(), b"fresh");
    server.shutdown();
}

#[test]
fn catalog_limit_bounds_remote_registration() {
    let cfg = ServerConfig {
        max_catalog_entries: 2,
        ..ServerConfig::default()
    };
    let (server, svc) = serve_with(1, 4, cfg);
    let g = gen::torus2d(4, 4);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let first = c.register(&g).unwrap();
    c.register(&g).unwrap();
    let err = c.register(&g).unwrap_err();
    assert_eq!(err.status(), Some(Status::CatalogFull), "{err}");
    // Removing an entry frees a slot for the next upload.
    assert!(svc.remove_graph(GraphId(first.id)));
    c.register(&g).unwrap();
    server.shutdown();
}

#[test]
fn oversized_response_poisons_the_client() {
    let (server, _svc) = serve(1, 4);
    let mut c = Client::connect(server.local_addr())
        .unwrap()
        .with_max_frame_bytes(8);
    // The echo of a >8-byte payload overflows the client's ceiling;
    // its payload is never consumed, so the stream is unaligned.
    let err = c.ping(b"this echo exceeds eight bytes").unwrap_err();
    assert!(matches!(err, WireError::Protocol(_)), "{err}");
    // Later calls must fail fast instead of parsing garbage.
    let err = c.ping(b"x").unwrap_err();
    assert!(
        matches!(err, WireError::Protocol(_) | WireError::Io(_)),
        "{err}"
    );
    server.shutdown();
}

#[test]
fn oversized_frames_are_rejected_and_close_the_connection() {
    let cfg = ServerConfig {
        max_frame_bytes: 1024,
        ..ServerConfig::default()
    };
    let (server, _svc) = serve_with(1, 4, cfg);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let big = vec![0u8; 4096];
    let err = {
        let mut req = vec![ops::PING];
        req.extend_from_slice(&big);
        c.raw_call(&req)
    };
    match err {
        Ok((status, _)) => assert_eq!(status, Status::TooLarge),
        // The server may close before the write completes; both are
        // acceptable rejections.
        Err(e) => assert!(matches!(e, WireError::Io(_)), "{e}"),
    }
    server.shutdown();
}

#[test]
fn truncated_frame_then_disconnect_leaves_server_healthy() {
    let (server, _svc) = serve(1, 4);
    {
        // Write half a length prefix and vanish.
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.write_all(&[0x10, 0x00]).unwrap();
    }
    {
        // Promise 100 bytes, deliver 3, vanish.
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.write_all(&100u32.to_le_bytes()).unwrap();
        s.write_all(&[1, 2, 3]).unwrap();
    }
    // A well-behaved client still gets service.
    let mut c = Client::connect(server.local_addr()).unwrap();
    assert_eq!(c.ping(b"ok").unwrap(), b"ok");
    server.shutdown();
}

#[test]
fn frames_split_across_tcp_segments_reassemble() {
    let (server, _svc) = serve(1, 4);
    let mut c = Client::connect(server.local_addr()).unwrap();
    // Hand-feed a PING frame a few bytes at a time with pauses, forcing
    // the server through its partial-read path.
    let payload = [ops::PING, b'x', b'y', b'z'];
    let mut wire = Vec::new();
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(&payload);
    for chunk in wire.chunks(3) {
        c.raw_write(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    let (status, body) = c.raw_read().unwrap();
    assert_eq!(status, Status::Ok);
    assert_eq!(body, b"xyz");
    server.shutdown();
}

#[test]
fn remote_backpressure_when_the_queue_fills() {
    // One 1-wide team and a tiny queue; jobs are made slow by size.
    let (server, _svc) = serve(1, 2);
    let g = gen::random_gnm(200_000, 400_000, 9);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let remote = c.register(&g).unwrap();

    // Distinct seeds bypass the cache so every submission queues.
    let mut accepted = Vec::new();
    let mut backpressured = false;
    for seed in 0..32 {
        match c.submit(SubmitRequest::new(remote).seed(seed)) {
            Ok(SubmitReply { ticket, .. }) => accepted.push(ticket),
            Err(e) => {
                assert_eq!(e.status(), Some(Status::Backpressure), "{e}");
                backpressured = true;
                break;
            }
        }
    }
    assert!(
        backpressured,
        "32 slow jobs into a 2-deep queue must backpressure"
    );
    // Accepted work still completes.
    for ticket in accepted {
        c.wait(ticket).unwrap();
    }
    server.shutdown();
}

#[test]
fn remote_tenant_quota_is_a_typed_error() {
    // Quota of one queued job per tenant.
    let svc = Arc::new(
        Service::builder()
            .cores(1)
            .queue_capacity(8)
            .result_cache_capacity(8)
            .tenant_quota(1)
            .build(),
    );
    let server = Server::start(Arc::clone(&svc), ServerConfig::default()).expect("bind loopback");
    let g = gen::random_gnm(100_000, 200_000, 6);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let remote = c.register(&g).unwrap();

    // Occupy the only team (anonymous tenant), then queue one job for
    // tenant 7. Tenant 7's second queued job trips the quota; tenant 8
    // is unaffected.
    let busy = c.submit(SubmitRequest::new(remote).seed(1)).unwrap();
    let queued = c
        .submit(SubmitRequest::new(remote).seed(2).tenant(7))
        .unwrap();
    let err = c
        .submit(SubmitRequest::new(remote).seed(3).tenant(7))
        .unwrap_err();
    assert_eq!(err.status(), Some(Status::QuotaExceeded), "{err}");
    assert!(matches!(err, WireError::Remote { .. }), "{err}");
    let other = c
        .submit(SubmitRequest::new(remote).seed(4).tenant(8))
        .unwrap();

    for ticket in [busy.ticket, queued.ticket, other.ticket] {
        c.wait(ticket).unwrap();
    }
    assert_eq!(svc.snapshot().rejected_quota, 1);
    server.shutdown();
}

#[test]
fn remote_unmeetable_deadline_is_a_typed_error() {
    let (server, svc) = serve(1, 8);
    // The first job must run well over 8 ms: the estimator's first
    // real sample is an eighth of its runtime and must top the smallest
    // deadline the wire carries, 1 ms. On a torus the default hybrid
    // traversal never switches to bottom-up sweeps, so the job runs
    // top-down; a random graph would finish in a few milliseconds.
    let g = gen::torus2d(1000, 1000);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let remote = c.register(&g).unwrap();

    // Occupy the only team, then queue a second job: its dequeue feeds
    // the lane's queue-delay estimator with the first job's runtime.
    let busy = c.submit(SubmitRequest::new(remote).seed(1)).unwrap();
    let warm = c.submit(SubmitRequest::new(remote).seed(2)).unwrap();
    c.wait(busy.ticket).unwrap();
    c.wait(warm.ticket).unwrap();

    // A deadline far below the observed queue delay is rejected on
    // arrival with a diagnosis, not accepted and then deadline-tripped.
    let err = c
        .submit(
            SubmitRequest::new(remote)
                .seed(3)
                .deadline(Duration::from_micros(1)),
        )
        .unwrap_err();
    assert_eq!(err.status(), Some(Status::DeadlineUnmeetable), "{err}");
    // A generous deadline sails through the same estimator.
    let ok = c
        .submit(
            SubmitRequest::new(remote)
                .seed(4)
                .deadline(Duration::from_secs(60)),
        )
        .unwrap();
    c.wait(ok.ticket).unwrap();
    assert_eq!(svc.snapshot().rejected_deadline_unmeetable, 1);
    server.shutdown();
}

#[test]
fn remote_cancel_resolves_the_job() {
    let (server, _svc) = serve(1, 8);
    let g = gen::random_gnm(100_000, 200_000, 4);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let remote = c.register(&g).unwrap();

    // Occupy the only team, then cancel a queued job before it runs.
    let busy = c.submit(SubmitRequest::new(remote).seed(1)).unwrap();
    let doomed = c.submit(SubmitRequest::new(remote).seed(2)).unwrap();
    c.cancel(doomed.ticket).unwrap();
    let err = c.wait(doomed.ticket).unwrap_err();
    assert_eq!(err.status(), Some(Status::Cancelled));
    c.wait(busy.ticket).unwrap();
    server.shutdown();
}

#[test]
fn remote_deadline_is_observed() {
    let (server, _svc) = serve(1, 8);
    let g = gen::random_gnm(100_000, 200_000, 5);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let remote = c.register(&g).unwrap();

    // Fill the team with a long job, then submit one whose deadline
    // expires while it queues.
    let long = c.submit(SubmitRequest::new(remote).seed(1)).unwrap();
    let dead = c
        .submit(
            SubmitRequest::new(remote)
                .seed(2)
                .deadline(Duration::from_millis(1)),
        )
        .unwrap();
    let err = c.wait(dead.ticket).unwrap_err();
    assert_eq!(err.status(), Some(Status::DeadlineExceeded));
    c.wait(long.ticket).unwrap();
    server.shutdown();
}

#[test]
fn connection_limit_answers_busy() {
    let cfg = ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    };
    let (server, _svc) = serve_with(1, 4, cfg);
    let mut a = Client::connect(server.local_addr()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    a.ping(b"a").unwrap();
    b.ping(b"b").unwrap();
    // Third connection: admitted at the TCP level, rejected by the
    // protocol with one Busy frame.
    let mut c = Client::connect(server.local_addr()).unwrap();
    // Give the accept loop a moment to write the rejection.
    std::thread::sleep(Duration::from_millis(100));
    let err = c.ping(b"c").unwrap_err();
    assert_eq!(err.status(), Some(Status::Busy), "{err}");
    // Existing sessions are unaffected.
    a.ping(b"again").unwrap();
    server.shutdown();
}

#[test]
fn metrics_are_scrapeable_remotely() {
    let (server, _svc) = serve(2, 8);
    let g = gen::torus2d(16, 16);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let remote = c.register(&g).unwrap();
    let r = c.submit(SubmitRequest::new(remote)).unwrap();
    c.wait(r.ticket).unwrap();

    let page = c.metrics().unwrap();
    assert!(page.contains("# TYPE st_service_jobs_submitted_total counter"));
    assert!(page.contains("st_service_jobs_submitted_total 1"));
    assert!(page.contains("st_service_jobs_finished_total{outcome=\"completed\"} 1"));
    server.shutdown();
}

#[test]
fn concurrent_clients_share_the_catalog() {
    let (server, _svc) = serve(2, 32);
    let g = gen::torus2d(32, 32);
    let remote = {
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.register(&g).unwrap()
    };
    let addr = server.local_addr();
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let g = &g;
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for i in 0..4 {
                    let reply = c
                        .submit(SubmitRequest::new(remote).seed(t * 31 + i))
                        .unwrap();
                    let forest = c.wait(reply.ticket).unwrap();
                    assert!(forest.is_valid_for(g));
                }
            });
        }
    });
    server.shutdown();
}

#[test]
fn shutdown_drains_idle_and_active_connections() {
    let (server, svc) = serve(2, 8);
    let g = gen::torus2d(16, 16);
    let mut busy = Client::connect(server.local_addr()).unwrap();
    let _idle = Client::connect(server.local_addr()).unwrap();
    let remote = busy.register(&g).unwrap();
    let reply = busy.submit(SubmitRequest::new(remote)).unwrap();
    busy.wait(reply.ticket).unwrap();

    let start = Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "drain must not hang on the idle connection"
    );
    // The service itself survives the front-end going away.
    let handle = svc.submit_spec(JobSpec::new(GraphId(0))).unwrap();
    assert!(handle.handle.wait().is_ok());
}

// ---- batch-dynamic updates and version pinning over the wire ----

#[test]
fn update_bumps_versions_and_keeps_the_forest_current() {
    let (server, svc) = serve(2, 8);
    let g = gen::torus2d(16, 16);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let remote = c.register(&g).unwrap();

    // A small insert batch repairs the forest in place.
    let up = c.update(remote.id, &[(0, 255), (3, 200)], &[]).unwrap();
    assert_eq!(up.version, remote.version + 1);
    assert!(up.incremental, "a 2-edge batch must repair in place");
    assert_eq!(up.components, 1);
    assert_eq!(up.edges_added, 2);
    assert_eq!(up.edges_removed, 0);

    // Deleting one of them comes back out, still connected.
    let down = c.update(remote.id, &[], &[(0, 255)]).unwrap();
    assert_eq!(down.version, up.version + 1);
    assert_eq!(down.components, 1);
    assert_eq!(down.edges_removed, 1);

    // A latest-addressed submit runs against the mutated graph.
    let reply = c.submit(SubmitRequest::new(remote).seed(9)).unwrap();
    let forest = c.wait(reply.ticket).unwrap();
    let (latest, newest) = svc.catalog().resolve_latest(GraphId(remote.id)).unwrap();
    assert_eq!(newest.version, down.version);
    assert!(forest.is_valid_for(&latest));
    server.shutdown();
}

#[test]
fn update_rejects_unknown_graphs_and_bad_batches() {
    let (server, _svc) = serve(1, 4);
    let g = gen::torus2d(4, 4);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let remote = c.register(&g).unwrap();

    let err = c.update(999, &[(0, 1)], &[]).unwrap_err();
    assert_eq!(err.status(), Some(Status::UnknownGraph), "{err}");
    // An out-of-range endpoint is a malformed batch, not a crash; the
    // session survives it.
    let err = c.update(remote.id, &[(0, 9_999)], &[]).unwrap_err();
    assert_eq!(err.status(), Some(Status::Malformed), "{err}");
    assert_eq!(c.ping(b"alive").unwrap(), b"alive");
    server.shutdown();
}

#[test]
fn pinned_submissions_and_stale_versions_on_the_wire() {
    let (server, _svc) = serve(2, 8);
    let g = gen::torus2d(8, 8);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let remote = c.register(&g).unwrap();

    // Warm the result cache at v1, then bump the catalog to v2.
    let warm = c.submit(SubmitRequest::new(remote).pinned()).unwrap();
    let at_v1 = c.wait(warm.ticket).unwrap();
    let up = c.update(remote.id, &[(0, 63)], &[]).unwrap();

    // The stale pin is still served — from the exact-version cache.
    let hit = c.submit(SubmitRequest::new(remote).pinned()).unwrap();
    assert!(hit.cached, "stale pin with a cached result must hit");
    assert_eq!(c.wait(hit.ticket).unwrap(), at_v1);

    // A stale pin the cache cannot serve answers StaleVersion, with the
    // live version as the payload (checked on the raw frame).
    let err = c
        .submit(SubmitRequest::new(remote).pinned().seed(77))
        .unwrap_err();
    assert_eq!(err.status(), Some(Status::StaleVersion), "{err}");
    let mut req = vec![ops::SUBMIT];
    req.extend_from_slice(&remote.id.to_le_bytes());
    req.push(AlgorithmId::BaderCong.code());
    req.push(1); // Priority::Normal
    req.extend_from_slice(&78u64.to_le_bytes()); // seed: another cache miss
    req.extend_from_slice(&0u64.to_le_bytes()); // no deadline
    req.extend_from_slice(&0u32.to_le_bytes()); // auto width
    req.extend_from_slice(&0u64.to_le_bytes()); // anonymous tenant
    req.push(1); // pinned…
    req.extend_from_slice(&remote.version.to_le_bytes()); // …to stale v1
    let (status, body) = c.raw_call(&req).unwrap();
    assert_eq!(status, Status::StaleVersion);
    assert_eq!(
        body,
        up.version.to_le_bytes(),
        "payload is the live version"
    );

    // Re-pinning at the live version executes normally.
    let live = bader_cong_spanning::service::net::RemoteGraph {
        id: remote.id,
        version: up.version,
    };
    let fresh = c.submit(SubmitRequest::new(live).pinned()).unwrap();
    assert!(!fresh.cached);
    c.wait(fresh.ticket).unwrap();
    server.shutdown();
}
