//! End-to-end telemetry tests: trace-id propagation from the wire to
//! the journal, the Prometheus exposition (grammar + histogram
//! invariants + count reconciliation), and the HTTP observability
//! plane multiplexed onto the job protocol's listener.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use bader_cong_spanning::prelude::*;

fn serve(cores: usize) -> (Server, Arc<Service>) {
    let svc = Arc::new(
        Service::builder()
            .cores(cores)
            .queue_capacity(16)
            .result_cache_capacity(8)
            .build(),
    );
    let server = Server::start(Arc::clone(&svc), ServerConfig::default()).expect("bind loopback");
    (server, svc)
}

/// The journaled lifecycle of a job that ran. A job whose traversal
/// swept bottom-up — the default hybrid direction decides that at run
/// time — also journals `direction_switched`, just before `finished`.
fn executed_lifecycle(switched: bool) -> Vec<&'static str> {
    let mut kinds = vec!["submitted", "admitted", "dequeued", "started", "finished"];
    if switched {
        kinds.insert(4, "direction_switched");
    }
    kinds
}

/// One plain HTTP/1.1 GET over a raw socket; returns (status line,
/// body). Connection: close keeps the read loop trivial.
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

#[test]
fn submit_trace_appears_in_journal_with_full_lifecycle() {
    let (server, svc) = serve(2);
    let g = gen::torus2d(24, 24);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let remote = c.register(&g).unwrap();

    let reply = c.submit(SubmitRequest::new(remote)).unwrap();
    assert_ne!(reply.trace, 0, "the wire reply carries a minted trace id");
    let forest = c.wait(reply.ticket).unwrap();
    assert!(forest.is_valid_for(&g));

    // The journal holds the job's ordered lifecycle under that id.
    let events = svc.telemetry().journal().events_for(TraceId(reply.trace));
    let kinds: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
    assert_eq!(
        kinds,
        executed_lifecycle(kinds.contains(&"direction_switched")),
        "full ordered chain for trace {:016x}",
        reply.trace
    );
    let finished = events.last().unwrap();
    assert_eq!(finished.detail.as_deref(), Some("completed"));
    assert!(finished.team.is_some(), "finish is attributed to a team");
    // Timestamps never run backwards within a trace.
    assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));

    // And the job's metrics report carries the same id.
    let hot = c.submit(SubmitRequest::new(remote)).unwrap();
    assert!(hot.cached);
    assert_ne!(hot.trace, reply.trace, "every submission gets its own id");
    let hit_events = svc.telemetry().journal().events_for(TraceId(hot.trace));
    let hit_kinds: Vec<&str> = hit_events.iter().map(|e| e.kind.name()).collect();
    assert_eq!(hit_kinds, vec!["submitted", "finished"]);
    assert_eq!(hit_events[1].detail.as_deref(), Some("cache_hit"));
    server.shutdown();
}

#[test]
fn handle_trace_id_matches_journal_for_in_process_jobs() {
    let svc = Service::builder().cores(2).queue_capacity(8).build();
    let g = Arc::new(gen::torus2d(16, 16));
    let handle = svc.job(&g).submit().expect("open");
    let trace = handle.trace_id();
    assert_ne!(trace, 0);
    handle.wait().expect("completes");
    let kinds: Vec<&str> = svc
        .telemetry()
        .journal()
        .events_for(TraceId(trace))
        .iter()
        .map(|e| e.kind.name())
        .collect();
    assert_eq!(
        kinds,
        executed_lifecycle(kinds.contains(&"direction_switched"))
    );
}

#[test]
fn live_metrics_page_passes_exposition_lint_and_reconciles() {
    let svc = Service::builder().cores(2).queue_capacity(16).build();
    let gref = svc.catalog().register(Arc::new(gen::torus2d(32, 32)));
    for seed in 0..5u64 {
        svc.submit_spec(JobSpec::new(gref.id).seed(seed))
            .unwrap()
            .handle
            .wait()
            .unwrap();
    }
    // One cache hit, one deadline miss.
    assert!(
        svc.submit_spec(JobSpec::new(gref.id).seed(0))
            .unwrap()
            .cached
    );
    let missed = svc
        .submit_spec(JobSpec::new(gref.id).seed(9).deadline(Duration::ZERO))
        .unwrap();
    assert!(missed.handle.wait().is_err());

    let page = svc.render_metrics();
    let samples = lint_exposition(&page).expect("page passes the lint");

    let wall_count: f64 = samples
        .iter()
        .filter(|(k, _)| k.starts_with("st_service_job_wall_seconds_count"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(wall_count, 5.0, "one _count per executed completion");
    assert_eq!(
        samples["st_service_jobs_finished_total{outcome=\"completed\"}"],
        5.0
    );
    assert_eq!(
        samples["st_service_jobs_finished_total{outcome=\"cached\"}"],
        1.0
    );
    assert_eq!(
        samples["st_service_jobs_finished_total{outcome=\"deadline_exceeded\"}"],
        1.0
    );
    assert_eq!(samples["st_service_cached_wall_seconds_count"], 1.0);
    let miss = samples["st_service_deadline_miss_ratio"];
    assert!(
        (miss - 1.0 / 7.0).abs() < 1e-9,
        "1 miss / 7 finished, got {miss}"
    );
    // Quantile accessor agrees with a non-empty distribution.
    let (p50, p99) = svc.telemetry().wall_quantiles();
    assert!(p50 > 0 && p99 >= p50);
}

#[test]
fn http_endpoints_share_the_listener_with_the_binary_protocol() {
    let (server, svc) = serve(2);
    let addr = server.local_addr();
    let g = gen::torus2d(24, 24);

    // Binary protocol first: run one job so the page has data.
    let mut c = Client::connect(addr).unwrap();
    let remote = c.register(&g).unwrap();
    let reply = c.submit(SubmitRequest::new(remote)).unwrap();
    c.wait(reply.ticket).unwrap();

    // /metrics: valid exposition over plain HTTP.
    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let samples = lint_exposition(&body).expect("scraped page passes the lint");
    assert_eq!(
        samples["st_service_jobs_finished_total{outcome=\"completed\"}"],
        1.0
    );

    // /healthz while accepting.
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body, "ok\n");

    // /debug/jobs: valid JSON with the expected top-level keys.
    let (status, body) = http_get(addr, "/debug/jobs");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.starts_with("{\"inflight\":["), "got: {body}");
    assert!(body.contains("\"slow\":["));

    // /debug/journal?trace= filters to the submitted job's chain.
    let (status, body) = http_get(addr, &format!("/debug/journal?trace={:016x}", reply.trace));
    assert_eq!(status, "HTTP/1.1 200 OK");
    let lines: Vec<&str> = body.lines().collect();
    let lifecycle = executed_lifecycle(body.contains("\"event\":\"direction_switched\""));
    assert_eq!(
        lines.len(),
        lifecycle.len(),
        "full lifecycle, one JSONL line each: {body}"
    );
    for (line, kind) in lines.iter().zip(&lifecycle) {
        assert!(
            line.contains(&format!("\"event\":\"{kind}\"")),
            "expected {kind}: {body}"
        );
    }
    let want = format!("\"trace\":\"{:016x}\"", reply.trace);
    assert!(lines.iter().all(|l| l.contains(&want)));

    // Unknown path → 404; bad trace filter → 400.
    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    let (status, _) = http_get(addr, "/debug/journal?trace=zzz");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");

    // 405: once a connection has committed to HTTP via the `GET `
    // sniff, a later keep-alive request may use another method.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut buf = [0u8; 512];
        let n = s.read(&mut buf).unwrap();
        assert!(buf[..n].starts_with(b"HTTP/1.1 200 OK"));
        write!(
            s,
            "POST /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut rest = String::new();
        s.read_to_string(&mut rest).unwrap();
        assert!(
            rest.starts_with("HTTP/1.1 405 Method Not Allowed"),
            "got: {rest}"
        );
    }

    // The binary client still works on the same listener afterwards.
    let mut c2 = Client::connect(addr).unwrap();
    assert_eq!(c2.ping(b"still binary").unwrap(), b"still binary");

    // Keep-alive: two requests over one connection.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut buf = [0u8; 512];
        let n = s.read(&mut buf).unwrap();
        let first = String::from_utf8_lossy(&buf[..n]).into_owned();
        assert!(first.starts_with("HTTP/1.1 200 OK"), "got: {first}");
        assert!(first.contains("Connection: keep-alive"));
        write!(
            s,
            "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut rest = String::new();
        s.read_to_string(&mut rest).unwrap();
        assert!(rest.starts_with("HTTP/1.1 200 OK"), "got: {rest}");
    }

    // The service keeps accepting: the TCP front-end and the service
    // drain independently (the server holds only an Arc).
    assert!(svc.is_accepting());
    server.shutdown();
}

#[test]
fn slow_job_log_keeps_full_metrics() {
    let svc = Service::builder()
        .cores(2)
        .queue_capacity(8)
        .slow_job_threshold(Duration::from_nanos(1))
        .build();
    let gref = svc.catalog().register(Arc::new(gen::torus2d(32, 32)));
    let sub = svc.submit_spec(JobSpec::new(gref.id)).unwrap();
    let trace = sub.handle.trace_id();
    sub.handle.wait().unwrap();

    // Every job is "slow" at a 1ns threshold.
    let slow = svc.telemetry().slow_jobs();
    assert_eq!(slow.len(), 1);
    assert_eq!(slow[0].trace.as_u64(), trace);
    assert!(slow[0].wall_ns > 0);
    // The report embeds the full JobMetrics, joined by trace id.
    assert!(
        slow[0]
            .metrics_json
            .contains(&format!("\"trace_id\":{trace}")),
        "metrics dump carries the trace id: {}",
        slow[0].metrics_json
    );
    assert!(slow[0].metrics_json.contains("\"per_rank\""));
}

#[test]
fn journal_capacity_knob_bounds_and_counts_drops() {
    let svc = Service::builder()
        .cores(1)
        .queue_capacity(8)
        .journal_capacity(4)
        .build();
    let gref = svc.catalog().register(Arc::new(gen::torus2d(8, 8)));
    for seed in 0..4u64 {
        svc.submit_spec(JobSpec::new(gref.id).seed(seed))
            .unwrap()
            .handle
            .wait()
            .unwrap();
    }
    let journal = svc.telemetry().journal();
    assert_eq!(journal.capacity(), 4);
    assert_eq!(journal.events().len(), 4, "ring is clamped at capacity");
    // 4 jobs × 5 lifecycle events = 20 recorded, 16 dropped.
    assert_eq!(journal.dropped(), 16);
}

/// Occupies its team until `release` flips (see tests/service.rs);
/// local copy so this suite can hold a queue slot deterministically.
struct HoldTeam {
    inner: BaderCong,
    started: Arc<std::sync::atomic::AtomicBool>,
    release: Arc<std::sync::atomic::AtomicBool>,
}

impl SpanningAlgorithm for HoldTeam {
    fn name(&self) -> &'static str {
        "hold"
    }

    fn run(
        &self,
        g: &CsrGraph,
        exec: &bader_cong_spanning::smp::Executor,
        ws: &mut Workspace,
        cancel: &CancelToken,
    ) -> Result<SpanningForest, Cancelled> {
        self.started
            .store(true, std::sync::atomic::Ordering::Release);
        while !self.release.load(std::sync::atomic::Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.inner.run(g, exec, ws, cancel)
    }
}

/// The outcome-classification reconciliation: a job whose deadline
/// trips while queued must be diagnosed as `deadline_exceeded` by
/// *every* surface — the handle's error, the journal's finished event,
/// the gauges, and the Prometheus page — even when the queue entry is
/// removed by the eager cancel sweep rather than a dispatcher, and
/// never misreported as a generic cancellation.
#[test]
fn swept_deadline_job_reconciles_journal_gauges_and_exposition() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let svc = Service::builder().cores(1).queue_capacity(4).build();
    let g = Arc::new(gen::torus2d(16, 16));
    let started = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let gated = svc
        .job(&g)
        .algorithm(HoldTeam {
            inner: BaderCong::with_defaults(),
            started: Arc::clone(&started),
            release: Arc::clone(&release),
        })
        .submit()
        .expect("open");
    while !started.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(1));
    }

    let doomed = svc
        .job(&g)
        .deadline(Duration::from_millis(10))
        .submit()
        .expect("queue has room");
    let trace = doomed.trace_id();
    std::thread::sleep(Duration::from_millis(30));
    // The deadline has tripped; the explicit cancel triggers the eager
    // sweep, whose classification must come from the token.
    doomed.cancel();
    assert!(matches!(doomed.wait(), Err(JobError::DeadlineExceeded)));

    // Journal: the swept job still gets its dequeued + finished chain,
    // and the finished detail names the real outcome.
    let events = svc.telemetry().journal().events_for(TraceId(trace));
    let kinds: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
    assert_eq!(kinds, vec!["submitted", "admitted", "dequeued", "finished"]);
    assert_eq!(
        events.last().unwrap().detail.as_deref(),
        Some("deadline_exceeded"),
        "the journal must agree with the handle's diagnosis"
    );

    // Gauges and the exposition page agree too.
    let snap = svc.snapshot();
    assert_eq!(snap.deadline_exceeded, 1);
    assert_eq!(snap.cancelled, 0, "not a generic cancellation");
    assert_eq!(snap.queue_depth, 0, "the sweep released the slot");
    let page = svc.render_metrics();
    let samples = lint_exposition(&page).expect("page passes the lint");
    assert_eq!(
        samples["st_service_jobs_finished_total{outcome=\"deadline_exceeded\"}"],
        1.0
    );
    assert_eq!(
        samples["st_service_lane_dequeued_total{lane=\"normal\"}"], 2.0,
        "the gate job and the swept job both count as lane dequeues"
    );

    release.store(true, Ordering::Release);
    assert!(gated.wait().is_ok());
}

/// The page's series set, one `family TYPE {label=value,…}` entry per
/// distinct series (histogram `_bucket`/`_sum`/`_count` samples fold
/// into their family, and `le` is dropped).
fn series_set(page: &str) -> std::collections::BTreeSet<String> {
    let mut types = std::collections::HashMap::new();
    let mut set = std::collections::BTreeSet::new();
    for line in page.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE name kind");
            types.insert(name.to_owned(), kind.to_owned());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let series = line.rsplit_once(' ').expect("series value").0;
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => (name, rest.trim_end_matches('}')),
            None => (series, ""),
        };
        let family = if types.contains_key(name) {
            name
        } else {
            ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|s| name.strip_suffix(s))
                .filter(|base| types.contains_key(*base))
                .expect("every sample belongs to a TYPE-declared family")
        };
        let labels: Vec<&str> = labels
            .split(',')
            .filter(|kv| !kv.is_empty() && !kv.starts_with("le="))
            .collect();
        set.insert(format!(
            "{family} {} {{{}}}",
            types[family],
            labels.join(",")
        ));
    }
    set
}

#[test]
fn exposition_series_set_is_pinned() {
    let svc = Service::builder().cores(2).queue_capacity(8).build();
    let fresh = series_set(&svc.render_metrics());

    // A mixed workload: every lane, every catalog algorithm, a cache
    // hit, a deadline miss, and a batch update.
    let gref = svc.catalog().register(Arc::new(gen::torus2d(16, 16)));
    for (i, algo) in AlgorithmId::ALL.into_iter().enumerate() {
        let prio = [Priority::High, Priority::Normal, Priority::Low][i % 3];
        svc.submit_spec(JobSpec::new(gref.id).algorithm(algo).priority(prio))
            .unwrap()
            .handle
            .wait()
            .unwrap();
    }
    assert!(svc.submit_spec(JobSpec::new(gref.id)).unwrap().cached);
    let missed = svc
        .submit_spec(JobSpec::new(gref.id).seed(9).deadline(Duration::ZERO))
        .unwrap();
    assert!(missed.handle.wait().is_err());
    svc.apply(gref.id, &EdgeBatch::new().insert(0, 100))
        .expect("valid batch");
    let after = series_set(&svc.render_metrics());

    let pinned: std::collections::BTreeSet<String> =
        PINNED_SERIES.iter().map(|s| (*s).to_owned()).collect();
    assert_eq!(fresh, pinned, "fresh page series set drifted");
    assert_eq!(after, pinned, "series set must not depend on traffic");

    // Every row of the declaration table is on the live page, under
    // its declared TYPE and label key.
    for family in bader_cong_spanning::obs::pool::FAMILIES {
        let kind = family.kind.name();
        let label = family
            .label
            .map_or("{}".to_owned(), |key| format!("{{{key}=\""));
        assert!(
            after
                .iter()
                .any(|s| s.starts_with(&format!("{} {kind} {label}", family.name))),
            "table row {} ({kind}) missing from the page",
            family.name
        );
    }
}

/// The series set of the `/metrics` page, captured before the metrics
/// plane was generated from its declaration table.
const PINNED_SERIES: &[&str] = &[
    "st_service_algo_exec_seconds histogram {algorithm=\"bader-cong\"}",
    "st_service_algo_exec_seconds histogram {algorithm=\"hcs\"}",
    "st_service_algo_exec_seconds histogram {algorithm=\"other\"}",
    "st_service_algo_exec_seconds histogram {algorithm=\"sv\"}",
    "st_service_busy_teams gauge {}",
    "st_service_cached_wall_seconds histogram {}",
    "st_service_deadline_miss_ratio gauge {}",
    "st_service_exec_seconds_total counter {}",
    "st_service_job_exec_seconds histogram {lane=\"high\"}",
    "st_service_job_exec_seconds histogram {lane=\"low\"}",
    "st_service_job_exec_seconds histogram {lane=\"normal\"}",
    "st_service_job_queue_seconds histogram {lane=\"high\"}",
    "st_service_job_queue_seconds histogram {lane=\"low\"}",
    "st_service_job_queue_seconds histogram {lane=\"normal\"}",
    "st_service_job_wall_seconds histogram {lane=\"high\"}",
    "st_service_job_wall_seconds histogram {lane=\"low\"}",
    "st_service_job_wall_seconds histogram {lane=\"normal\"}",
    "st_service_jobs_finished_total counter {outcome=\"cached\"}",
    "st_service_jobs_finished_total counter {outcome=\"cancelled\"}",
    "st_service_jobs_finished_total counter {outcome=\"completed\"}",
    "st_service_jobs_finished_total counter {outcome=\"deadline_exceeded\"}",
    "st_service_jobs_finished_total counter {outcome=\"panicked\"}",
    "st_service_jobs_rejected_total counter {}",
    "st_service_jobs_submitted_total counter {}",
    "st_service_lane_dequeued_total counter {lane=\"high\"}",
    "st_service_lane_dequeued_total counter {lane=\"low\"}",
    "st_service_lane_dequeued_total counter {lane=\"normal\"}",
    "st_service_lane_queue_depth gauge {lane=\"high\"}",
    "st_service_lane_queue_depth gauge {lane=\"low\"}",
    "st_service_lane_queue_depth gauge {lane=\"normal\"}",
    "st_service_lane_rejected_total counter {lane=\"high\"}",
    "st_service_lane_rejected_total counter {lane=\"low\"}",
    "st_service_lane_rejected_total counter {lane=\"normal\"}",
    "st_service_queue_depth gauge {}",
    "st_service_queue_depth_peak gauge {}",
    "st_service_queue_wait_seconds_total counter {}",
    "st_service_reject_reason_total counter {reason=\"backpressure\"}",
    "st_service_reject_reason_total counter {reason=\"deadline_unmeetable\"}",
    "st_service_reject_reason_total counter {reason=\"quota\"}",
    "st_service_result_cache_hit_ratio gauge {}",
    "st_service_result_cache_hits_total counter {}",
    "st_service_result_cache_misses_total counter {}",
    "st_service_update_edges_added_total counter {}",
    "st_service_update_edges_removed_total counter {}",
    "st_service_update_seconds histogram {mode=\"incremental\"}",
    "st_service_update_seconds histogram {mode=\"recomputed\"}",
    "st_service_updates_incremental_total counter {}",
    "st_service_updates_recomputed_total counter {}",
];
