//! Integration tests for the TCP front-end: the full protocol over
//! loopback, framing robustness (malformed, truncated, oversized,
//! segmented), remote backpressure, remote cancellation and deadlines,
//! the connection limit, and clean shutdown.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bader_cong_spanning::prelude::*;
use bader_cong_spanning::service::net::proto::{read_frame, ReadFrame};
use bader_cong_spanning::service::net::{ops, RemoteForest, Status, SubmitReply, WireError};
use bader_cong_spanning::service::AlgorithmId;
use bader_cong_spanning::smp::Executor;

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
    for algo in AlgorithmId::ALL {
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

/// Writes one request frame on a raw socket and reads the raw reply
/// frame back, length prefix included.
fn raw_exchange(s: &mut TcpStream, request: &[u8]) -> Vec<u8> {
    s.write_all(&(request.len() as u32).to_le_bytes()).unwrap();
    s.write_all(request).unwrap();
    let mut wire = vec![0u8; 4];
    s.read_exact(&mut wire).unwrap();
    let len = u32::from_le_bytes(wire[..4].try_into().unwrap()) as usize;
    wire.resize(4 + len, 0);
    s.read_exact(&mut wire[4..]).unwrap();
    wire
}

#[test]
fn retired_algorithm_code_one_is_malformed_and_the_connection_stays_aligned() {
    let (server, _svc) = serve(1, 4);
    let g = gen::chain(6);
    let remote = Client::connect(server.local_addr())
        .unwrap()
        .register(&g)
        .unwrap();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    // SUBMIT: id, algorithm, priority, seed, deadline-ms, width — a
    // well-formed request naming the retired multiroot code.
    let mut submit = vec![ops::SUBMIT];
    submit.extend_from_slice(&remote.id.to_le_bytes());
    submit.push(1); // the retired algorithm code
    submit.push(1); // normal priority
    submit.extend_from_slice(&7u64.to_le_bytes());
    submit.extend_from_slice(&0u64.to_le_bytes());
    submit.extend_from_slice(&0u32.to_le_bytes());
    let reply = raw_exchange(&mut s, &submit);
    assert_eq!(reply, [1, 0, 0, 0, Status::Malformed.code()]);
    // The next frame on the same socket is read from its own start.
    let reply = raw_exchange(&mut s, &[ops::PING, b'o', b'k']);
    assert_eq!(reply, [3, 0, 0, 0, Status::Ok.code(), b'o', b'k']);
    server.shutdown();
}

#[test]
fn wait_reply_matches_the_documented_layout_byte_for_byte() {
    let (server, svc) = serve(2, 8);
    let g = gen::chain(6);
    let remote = Client::connect(server.local_addr())
        .unwrap()
        .register(&g)
        .unwrap();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    // SUBMIT: id, algorithm, priority, seed, deadline-ms, width.
    let mut submit = vec![ops::SUBMIT];
    submit.extend_from_slice(&remote.id.to_le_bytes());
    submit.push(AlgorithmId::BaderCong.code());
    submit.push(1);
    submit.extend_from_slice(&7u64.to_le_bytes());
    submit.extend_from_slice(&0u64.to_le_bytes());
    submit.extend_from_slice(&0u32.to_le_bytes());
    let reply = raw_exchange(&mut s, &submit);
    assert_eq!(reply[..5], [14, 0, 0, 0, Status::Ok.code()]);
    let ticket: [u8; 4] = reply[5..9].try_into().unwrap();
    let mut wait = vec![ops::WAIT];
    wait.extend_from_slice(&ticket);
    let wire = raw_exchange(&mut s, &wait);

    // The same spec in process is a cache hit on the forest just sent.
    let spec = JobSpec::new(GraphId(remote.id)).seed(7);
    let hit = svc.submit_spec(spec).unwrap();
    assert!(hit.cached);
    let forest = hit.handle.wait().unwrap();
    assert_eq!(forest.parents.len(), 6);
    // Length, status, n u64, parents n×u32, r u64, roots r×u32.
    let mut want = Vec::new();
    want.extend_from_slice(&(1 + 8 + 4 * 6 + 8 + 4 * forest.roots.len() as u32).to_le_bytes());
    want.push(Status::Ok.code());
    want.extend_from_slice(&6u64.to_le_bytes());
    forest
        .parents
        .iter()
        .for_each(|p| want.extend_from_slice(&p.to_le_bytes()));
    want.extend_from_slice(&(forest.roots.len() as u64).to_le_bytes());
    forest
        .roots
        .iter()
        .for_each(|r| want.extend_from_slice(&r.to_le_bytes()));
    assert_eq!(wire, want);
    server.shutdown();
}

/// A one-connection server that answers the client's first request
/// with `reply` (a whole frame, length prefix included) and its second
/// with an `Ok` "ok" frame — so a client that skipped a bad reply
/// exactly reads the "ok".
fn scripted_server(reply: Vec<u8>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let thread = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        for answer in [reply, vec![3, 0, 0, 0, Status::Ok.code(), b'o', b'k']] {
            match read_frame(&mut s, 1 << 20).unwrap() {
                ReadFrame::Frame(_) => s.write_all(&answer).unwrap(),
                other => panic!("expected a request, got {other:?}"),
            }
        }
    });
    (addr, thread)
}

/// A WAIT reply frame from raw fields.
fn wait_frame(n: u64, parents: &[u32], r: u64, roots: &[u32], trailer: &[u8]) -> Vec<u8> {
    let mut payload = vec![Status::Ok.code()];
    payload.extend_from_slice(&n.to_le_bytes());
    parents
        .iter()
        .for_each(|w| payload.extend_from_slice(&w.to_le_bytes()));
    payload.extend_from_slice(&r.to_le_bytes());
    roots
        .iter()
        .for_each(|w| payload.extend_from_slice(&w.to_le_bytes()));
    payload.extend_from_slice(trailer);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

/// Runs one `wait` against a scripted reply; returns its result after
/// checking that the connection stayed frame-aligned.
fn wait_against(reply: Vec<u8>) -> Result<RemoteForest, WireError> {
    let (addr, server) = scripted_server(reply);
    let mut c = Client::connect(addr).unwrap();
    let got = c.wait(0);
    assert_eq!(c.ping(b"?").unwrap(), b"ok", "the bad reply was skipped");
    server.join().unwrap();
    got
}

#[test]
fn client_reads_a_well_formed_wait_reply() {
    let got = wait_against(wait_frame(3, &[u32::MAX, 0, 1], 1, &[0], &[])).unwrap();
    assert_eq!(got.parents, [u32::MAX, 0, 1]);
    assert_eq!(got.roots, [0]);
}

#[test]
fn client_rejects_counts_that_run_past_the_frame() {
    for reply in [
        wait_frame(3, &[u32::MAX, 0], 0, &[], &[]),
        wait_frame(2, &[u32::MAX, 0], 2, &[0], &[]),
        // 2^40 parents (4 TiB) must fail the length check before any
        // allocation — one would abort the test process.
        wait_frame(1 << 40, &[], 0, &[], &[]),
    ] {
        let err = wait_against(reply).unwrap_err();
        assert!(
            matches!(err, WireError::Protocol("short WAIT reply")),
            "{err}"
        );
    }
}

#[test]
fn client_rejects_trailing_bytes_after_the_roots() {
    let err = wait_against(wait_frame(1, &[u32::MAX], 1, &[0], &[9, 9, 9])).unwrap_err();
    assert!(
        matches!(err, WireError::Protocol("trailing bytes in WAIT reply")),
        "{err}"
    );
}

#[test]
fn client_surfaces_an_error_status_with_its_message() {
    let mut reply = 6u32.to_le_bytes().to_vec();
    reply.push(Status::Panicked.code());
    reply.extend_from_slice(b"boom!");
    match wait_against(reply) {
        Err(WireError::Remote(Status::Panicked, msg)) => assert_eq!(msg, "boom!"),
        other => panic!("{other:?}"),
    }
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

/// Occupies its team until `release` flips, then runs Bader–Cong.
/// `started` flips once a dispatcher has actually picked the job up.
struct Gate {
    started: Arc<AtomicBool>,
    release: Arc<AtomicBool>,
}

impl SpanningAlgorithm for Gate {
    fn name(&self) -> &'static str {
        "gate"
    }

    fn run(
        &self,
        g: &CsrGraph,
        exec: &Executor,
        ws: &mut Workspace,
        cancel: &CancelToken,
    ) -> Result<SpanningForest, Cancelled> {
        self.started.store(true, Ordering::Release);
        while !self.release.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        BaderCong::with_defaults().run(g, exec, ws, cancel)
    }
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
    let g = Arc::new(gen::torus2d(8, 8));
    let mut c = Client::connect(server.local_addr()).unwrap();
    let remote = c.register(&g).unwrap();

    // Hold the only core with an in-process gated job (anonymous
    // tenant), then queue one job for tenant 7. Tenant 7's second
    // queued job trips the quota; tenant 8 is unaffected.
    let started = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let gate = Gate {
        started: Arc::clone(&started),
        release: Arc::clone(&release),
    };
    let busy = svc.job(&g).algorithm(gate).submit().expect("queue empty");
    let deadline = Instant::now() + Duration::from_secs(5);
    while !started.load(Ordering::Acquire) {
        assert!(Instant::now() < deadline, "gate job never started");
        std::thread::sleep(Duration::from_millis(1));
    }
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

    release.store(true, Ordering::Release);
    busy.wait().unwrap();
    for ticket in [queued.ticket, other.ticket] {
        c.wait(ticket).unwrap();
    }
    assert_eq!(svc.snapshot().rejected_quota, 1);
    server.shutdown();
}

/// An UPDATE's seed is a job of the anonymous tenant: with that
/// tenant's one queued slot taken, the update is refused with the
/// quota's status, the session goes on, and the same update applies
/// once the queue drains.
#[test]
fn remote_update_whose_seed_is_over_quota_is_a_typed_error() {
    let svc = Arc::new(
        Service::builder()
            .cores(1)
            .queue_capacity(8)
            .result_cache_capacity(8)
            .tenant_quota(1)
            .build(),
    );
    let server = Server::start(Arc::clone(&svc), ServerConfig::default()).expect("bind loopback");
    let g = Arc::new(gen::torus2d(8, 8));
    let mut c = Client::connect(server.local_addr()).unwrap();
    let remote = c.register(&g).unwrap();

    let started = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let gate = Gate {
        started: Arc::clone(&started),
        release: Arc::clone(&release),
    };
    let busy = svc.job(&g).algorithm(gate).submit().expect("queue empty");
    let deadline = Instant::now() + Duration::from_secs(5);
    while !started.load(Ordering::Acquire) {
        assert!(Instant::now() < deadline, "gate job never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    let queued = svc.job(&g).submit().expect("within quota");

    // The refusal must come while the gate still holds the core; an
    // update that waits for one instead times out here, and the gate
    // is released either way so the service can shut down.
    let (tx, rx) = std::sync::mpsc::channel();
    let session = std::thread::spawn(move || {
        let refused = c.update(remote.id, &[(0, 27)], &[]);
        let _ = tx.send(refused);
        c
    });
    let refused = rx.recv_timeout(Duration::from_secs(5));
    release.store(true, Ordering::Release);
    busy.wait().unwrap();
    queued.wait().unwrap();
    let mut c = session.join().unwrap();
    let err = refused
        .expect("the update waited for the held core")
        .expect_err("the seed is over quota");
    assert_eq!(err.status(), Some(Status::QuotaExceeded), "{err}");
    assert!(matches!(err, WireError::Remote { .. }), "{err}");
    assert_eq!(c.ping(b"alive").unwrap(), b"alive");
    let up = c.update(remote.id, &[(0, 27)], &[]).unwrap();
    assert_eq!(up.version, remote.version + 1);
    assert_eq!(up.edges_added, 1);
    assert_eq!(up.components, 1);
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
