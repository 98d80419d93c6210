//! Integration tests for the multi-tenant job service (`st-service`):
//! concurrent tenants, backpressure, deadlines, cancellation, priority
//! ordering, panic isolation, and shutdown semantics.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bader_cong_spanning::prelude::*;
use bader_cong_spanning::smp::Executor;

/// Spin-waits (with yields) until `cond` holds, failing after 5s.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Occupies its team until `release` flips, then runs Bader–Cong.
/// `started` flips once a dispatcher has actually picked the job up.
struct Gate {
    inner: BaderCong,
    started: Arc<AtomicBool>,
    release: Arc<AtomicBool>,
}

impl Gate {
    fn new() -> (Self, Arc<AtomicBool>, Arc<AtomicBool>) {
        let started = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let gate = Gate {
            inner: BaderCong::with_defaults(),
            started: Arc::clone(&started),
            release: Arc::clone(&release),
        };
        (gate, started, release)
    }
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
        self.inner.run(g, exec, ws, cancel)
    }
}

/// Delegates to Bader–Cong's cancellable path, flipping `started` first
/// so a test can cancel a job it knows is mid-traversal.
struct Notify {
    inner: BaderCong,
    started: Arc<AtomicBool>,
}

impl SpanningAlgorithm for Notify {
    fn name(&self) -> &'static str {
        "notify"
    }

    fn run(
        &self,
        g: &CsrGraph,
        exec: &Executor,
        ws: &mut Workspace,
        cancel: &CancelToken,
    ) -> Result<SpanningForest, Cancelled> {
        self.started.store(true, Ordering::Release);
        self.inner.run(g, exec, ws, cancel)
    }
}

/// A tenant bug: panics as soon as it gets a team.
struct Boom;

impl SpanningAlgorithm for Boom {
    fn name(&self) -> &'static str {
        "boom"
    }

    fn run(
        &self,
        _g: &CsrGraph,
        _exec: &Executor,
        _ws: &mut Workspace,
        _cancel: &CancelToken,
    ) -> Result<SpanningForest, Cancelled> {
        panic!("tenant bug: boom");
    }
}

/// Appends its tag to a shared log before running, so dispatch order is
/// observable.
struct Tagged {
    tag: &'static str,
    log: Arc<Mutex<Vec<&'static str>>>,
    inner: BaderCong,
}

impl SpanningAlgorithm for Tagged {
    fn name(&self) -> &'static str {
        self.tag
    }

    fn run(
        &self,
        g: &CsrGraph,
        exec: &Executor,
        ws: &mut Workspace,
        cancel: &CancelToken,
    ) -> Result<SpanningForest, Cancelled> {
        self.log.lock().unwrap().push(self.tag);
        self.inner.run(g, exec, ws, cancel)
    }
}

#[test]
fn many_tenants_all_get_valid_forests() {
    const TENANTS: usize = 4;
    const JOBS_PER_TENANT: usize = 5;
    let svc = Service::builder().cores(2).queue_capacity(16).build();
    let graphs = [
        Arc::new(gen::torus2d(40, 40)),
        Arc::new(gen::random_gnm(2_000, 3_000, 7)),
    ];
    std::thread::scope(|s| {
        for t in 0..TENANTS {
            let svc = &svc;
            let graphs = &graphs;
            s.spawn(move || {
                for j in 0..JOBS_PER_TENANT {
                    let g = &graphs[(t + j) % graphs.len()];
                    let handle = svc.job(g).submit().expect("service is open");
                    let forest = handle.wait().expect("no deadline, no cancel");
                    assert!(
                        is_spanning_forest(g, &forest.parents),
                        "tenant {t} job {j} got an invalid forest"
                    );
                }
            });
        }
    });
    let snap = svc.shutdown();
    let total = (TENANTS * JOBS_PER_TENANT) as u64;
    assert_eq!(snap.submitted, total);
    assert_eq!(snap.completed, total);
    assert_eq!(snap.queue_depth, 0);
    assert_eq!(snap.busy_teams, 0);
    assert!(snap.exec_ns_total > 0);
}

#[test]
fn full_queue_try_submit_reports_backpressure() {
    let svc = Service::builder().cores(1).queue_capacity(1).build();
    let g = Arc::new(gen::torus2d(8, 8));
    let (gate, started, release) = Gate::new();
    let gated = svc.job(&g).algorithm(gate).submit().expect("queue empty");
    wait_until("gate job to occupy the team", || {
        started.load(Ordering::Acquire)
    });

    // The team is busy and the queue holds one job: admission is full.
    let queued = svc.job(&g).submit().expect("one slot free");
    let rejected = svc.job(&g).try_submit();
    assert!(matches!(rejected, Err(JobError::Backpressure)));
    assert_eq!(svc.snapshot().rejected, 1);

    release.store(true, Ordering::Release);
    assert!(gated.wait().is_ok());
    assert!(queued.wait().is_ok());
}

#[test]
fn deadline_in_queue_reports_deadline_exceeded() {
    let svc = Service::builder().cores(1).queue_capacity(4).build();
    let g = Arc::new(gen::torus2d(8, 8));
    let (gate, started, release) = Gate::new();
    let gated = svc.job(&g).algorithm(gate).submit().expect("queue empty");
    wait_until("gate job to occupy the team", || {
        started.load(Ordering::Acquire)
    });

    // This job's deadline expires while the gate holds the only team.
    let doomed = svc
        .job(&g)
        .deadline(Duration::from_millis(10))
        .submit()
        .expect("queue has room");
    std::thread::sleep(Duration::from_millis(30));
    release.store(true, Ordering::Release);

    assert!(matches!(doomed.wait(), Err(JobError::DeadlineExceeded)));
    assert!(gated.wait().is_ok());
    assert_eq!(svc.snapshot().deadline_exceeded, 1);
}

#[test]
fn queued_job_can_be_cancelled_before_running() {
    let svc = Service::builder().cores(1).queue_capacity(4).build();
    let g = Arc::new(gen::torus2d(8, 8));
    let (gate, started, release) = Gate::new();
    let gated = svc.job(&g).algorithm(gate).submit().expect("queue empty");
    wait_until("gate job to occupy the team", || {
        started.load(Ordering::Acquire)
    });

    let victim = svc.job(&g).submit().expect("queue has room");
    victim.cancel();
    release.store(true, Ordering::Release);

    assert!(matches!(victim.wait(), Err(JobError::Cancelled)));
    assert!(gated.wait().is_ok());
    assert_eq!(svc.snapshot().cancelled, 1);
}

#[test]
fn cancellation_mid_traversal_leaves_pool_reusable() {
    let svc = Service::builder().cores(2).queue_capacity(4).build();
    let big = Arc::new(gen::torus2d(150, 150));
    let started = Arc::new(AtomicBool::new(false));
    let notify = Notify {
        inner: BaderCong::with_defaults(),
        started: Arc::clone(&started),
    };
    let handle = svc
        .job(&big)
        .algorithm(notify)
        .processors(2)
        .submit()
        .expect("open");
    wait_until("job to start traversing", || {
        started.load(Ordering::Acquire)
    });
    handle.cancel();
    // The cancel races the traversal: either it lost and the forest is
    // complete (and valid), or it won and the job reports Cancelled.
    match handle.wait() {
        Ok(forest) => assert!(is_spanning_forest(&big, &forest.parents)),
        Err(e) => assert!(matches!(e, JobError::Cancelled)),
    }

    // Either way, the team went back to the pool in working order.
    let again = svc.job(&big).submit().expect("open");
    let forest = again.wait().expect("no cancel on the second job");
    assert!(is_spanning_forest(&big, &forest.parents));
}

#[test]
fn panicked_job_is_isolated_from_other_tenants() {
    let svc = Service::builder().cores(1).queue_capacity(4).build();
    let g = Arc::new(gen::torus2d(16, 16));

    let bad = svc.job(&g).algorithm(Boom).submit().expect("open");
    let good = svc.job(&g).submit().expect("open");

    match bad.wait() {
        Err(JobError::Panicked(msg)) => assert!(msg.contains("boom"), "message was {msg:?}"),
        other => panic!("expected Panicked, got {other:?}"),
    }
    let forest = good.wait().expect("the pool must survive a tenant panic");
    assert!(is_spanning_forest(&g, &forest.parents));

    let snap = svc.snapshot();
    assert_eq!(snap.panicked, 1);
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.busy_teams, 0, "the panicked team must be returned");
}

#[test]
fn queued_jobs_dispatch_in_priority_order() {
    let svc = Service::builder().cores(1).queue_capacity(8).build();
    let g = Arc::new(gen::torus2d(8, 8));
    let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    let (gate, started, release) = Gate::new();
    let gated = svc.job(&g).algorithm(gate).submit().expect("queue empty");
    wait_until("gate job to occupy the team", || {
        started.load(Ordering::Acquire)
    });

    // Queue in "wrong" order while the single team is held.
    let tag = |tag| Tagged {
        tag,
        log: Arc::clone(&log),
        inner: BaderCong::with_defaults(),
    };
    let low = svc
        .job(&g)
        .algorithm(tag("low"))
        .priority(Priority::Low)
        .submit()
        .expect("open");
    let normal = svc.job(&g).algorithm(tag("normal")).submit().expect("open");
    let high = svc
        .job(&g)
        .algorithm(tag("high"))
        .priority(Priority::High)
        .submit()
        .expect("open");

    release.store(true, Ordering::Release);
    for h in [gated, high, normal, low] {
        assert!(h.wait().is_ok());
    }
    assert_eq!(*log.lock().unwrap(), ["high", "normal", "low"]);
}

#[test]
fn shutdown_drains_queued_jobs_without_running_them() {
    let svc = Service::builder().cores(1).queue_capacity(4).build();
    let g = Arc::new(gen::torus2d(8, 8));
    let (gate, started, release) = Gate::new();
    let gated = svc.job(&g).algorithm(gate).submit().expect("queue empty");
    wait_until("gate job to occupy the team", || {
        started.load(Ordering::Acquire)
    });
    let q1 = svc.job(&g).submit().expect("open");
    let q2 = svc.job(&g).submit().expect("open");

    // Let the running job finish shortly after shutdown starts; the
    // queued ones must resolve as ShuttingDown, not run.
    let releaser = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        release.store(true, Ordering::Release);
    });
    let snap = svc.shutdown();
    releaser.join().unwrap();

    assert!(gated.wait().is_ok(), "the in-flight job runs to completion");
    assert!(matches!(q1.wait(), Err(JobError::ShuttingDown)));
    assert!(matches!(q2.wait(), Err(JobError::ShuttingDown)));
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.cancelled, 2, "drained jobs land in the cancelled lane");
}

#[test]
fn blocking_submit_waits_for_space_instead_of_failing() {
    let svc = Service::builder().cores(1).queue_capacity(1).build();
    let g = Arc::new(gen::torus2d(8, 8));
    let (gate, started, release) = Gate::new();
    let gated = svc.job(&g).algorithm(gate).submit().expect("queue empty");
    wait_until("gate job to occupy the team", || {
        started.load(Ordering::Acquire)
    });
    let queued = svc.job(&g).submit().expect("one slot free");

    // The queue is now full. A blocking submit parks instead of
    // reporting Backpressure, and is admitted once the gate lifts.
    let blocked_submitted = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let svc = &svc;
        let g = &g;
        let flag = Arc::clone(&blocked_submitted);
        let submitter = s.spawn(move || {
            let handle = svc.job(g).submit().expect("unblocked by dequeue");
            flag.store(true, Ordering::Release);
            handle.wait()
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            !blocked_submitted.load(Ordering::Acquire),
            "submit must block while the queue is full"
        );
        release.store(true, Ordering::Release);
        assert!(submitter.join().unwrap().is_ok());
    });
    assert!(gated.wait().is_ok());
    assert!(queued.wait().is_ok());
    let snap = svc.snapshot();
    assert_eq!(snap.rejected, 0, "blocking submits are never rejected");
    assert_eq!(snap.completed, 3);
}

#[test]
fn cancelled_queued_job_releases_its_lane_slot_eagerly() {
    let svc = Service::builder().cores(1).queue_capacity(1).build();
    let g = Arc::new(gen::torus2d(8, 8));
    let (gate, started, release) = Gate::new();
    let gated = svc.job(&g).algorithm(gate).submit().expect("queue empty");
    wait_until("gate job to occupy the team", || {
        started.load(Ordering::Acquire)
    });

    // The queue's only slot is taken; admission is full.
    let parked = svc.job(&g).submit().expect("one slot free");
    assert!(matches!(
        svc.job(&g).try_submit(),
        Err(JobError::Backpressure)
    ));

    // Cancel while queued: the slot must free *synchronously*, with the
    // team still gated — regression for the bug where the dead job held
    // its bounded slot until a dispatcher happened to drain it.
    parked.cancel();
    assert!(matches!(parked.wait(), Err(JobError::Cancelled)));
    let replacement = svc
        .job(&g)
        .try_submit()
        .expect("the cancelled job's slot must free eagerly, not at dequeue");

    release.store(true, Ordering::Release);
    assert!(gated.wait().is_ok());
    assert!(replacement.wait().is_ok());
    let snap = svc.shutdown();
    assert_eq!(snap.cancelled, 1);
    assert_eq!(snap.completed, 2);
    assert_eq!(snap.rejected, 1);
    assert_eq!(
        snap.queue_depth, 0,
        "the swept job must leave the depth gauge"
    );
}

#[test]
fn shutdown_drain_classifies_tripped_deadline_from_the_token() {
    let svc = Service::builder().cores(1).queue_capacity(4).build();
    let g = Arc::new(gen::torus2d(8, 8));
    let (gate, started, release) = Gate::new();
    let gated = svc.job(&g).algorithm(gate).submit().expect("queue empty");
    wait_until("gate job to occupy the team", || {
        started.load(Ordering::Acquire)
    });

    let doomed = svc
        .job(&g)
        .deadline(Duration::from_millis(10))
        .submit()
        .expect("queue has room");
    // The deadline trips while the job is queued and the team is held.
    std::thread::sleep(Duration::from_millis(30));

    // Shut down while the dead job is still queued: the drain must
    // diagnose the tripped deadline, not report a generic shutdown
    // cancellation — regression for the drain path hardcoding
    // `Cancelled`/"shutting_down" regardless of the token's reason.
    let releaser = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        release.store(true, Ordering::Release);
    });
    let snap = svc.shutdown();
    releaser.join().unwrap();

    assert!(gated.wait().is_ok());
    assert!(matches!(doomed.wait(), Err(JobError::DeadlineExceeded)));
    assert_eq!(snap.deadline_exceeded, 1);
    assert_eq!(snap.cancelled, 0, "a deadline miss is not a cancellation");
}

#[test]
fn tenant_quota_caps_queued_jobs_and_frees_on_cancel() {
    let svc = Service::builder()
        .cores(1)
        .queue_capacity(8)
        .tenant_quota(2)
        .build();
    let g = Arc::new(gen::torus2d(8, 8));
    let (gate, started, release) = Gate::new();
    let gated = svc
        .job(&g)
        .algorithm(gate)
        .tenant(7)
        .submit()
        .expect("open");
    wait_until("gate job to occupy the team", || {
        started.load(Ordering::Acquire)
    });

    // The gated job is *running*, so tenant 7's queued-job count is 0.
    let a = svc.job(&g).tenant(7).submit().expect("within quota");
    let b = svc.job(&g).tenant(7).submit().expect("within quota");
    // Over quota: rejected without blocking, even on the blocking path —
    // waiting for global space would never clear the tenant's own cap.
    assert!(matches!(
        svc.job(&g).tenant(7).submit(),
        Err(JobError::QuotaExceeded)
    ));
    // Another tenant still has the whole queue available.
    let c = svc.job(&g).tenant(8).submit().expect("different tenant");

    // The eager cancel sweep releases the quota charge too.
    a.cancel();
    assert!(matches!(a.wait(), Err(JobError::Cancelled)));
    let d = svc.job(&g).tenant(7).submit().expect("cancel freed quota");

    release.store(true, Ordering::Release);
    for h in [gated, b, c, d] {
        assert!(h.wait().is_ok());
    }
    let snap = svc.shutdown();
    assert_eq!(snap.rejected_quota, 1);
    assert_eq!(snap.rejected, 1);
    assert_eq!(snap.cancelled, 1);
}

#[test]
fn deadline_shorter_than_estimated_queue_delay_is_rejected() {
    let svc = Service::builder().cores(1).queue_capacity(8).build();
    let g = Arc::new(gen::torus2d(8, 8));
    let (gate, started, release) = Gate::new();
    let gated = svc.job(&g).algorithm(gate).submit().expect("open");
    wait_until("gate job to occupy the team", || {
        started.load(Ordering::Acquire)
    });

    // Warm the normal lane's estimator with a genuinely delayed job:
    // its ~60 ms queue wait feeds the EWMA at dequeue.
    let delayed = svc.job(&g).submit().expect("open");
    std::thread::sleep(Duration::from_millis(60));
    release.store(true, Ordering::Release);
    assert!(gated.wait().is_ok());
    assert!(delayed.wait().is_ok());

    // One EWMA step of a 60 ms sample leaves an estimate of at least
    // ~7 ms, so a 1 ms deadline is rejected at the door...
    assert!(matches!(
        svc.job(&g).deadline(Duration::from_millis(1)).submit(),
        Err(JobError::DeadlineUnmeetable)
    ));
    // ...while a roomy deadline is still admitted and runs.
    let ok = svc
        .job(&g)
        .deadline(Duration::from_secs(30))
        .submit()
        .expect("the estimator must not reject meetable deadlines");
    assert!(ok.wait().is_ok());

    let snap = svc.shutdown();
    assert_eq!(snap.rejected_deadline_unmeetable, 1);
    assert_eq!(snap.rejected, 1);
}

#[test]
fn saturated_high_lane_cannot_starve_the_bulk_lane() {
    // Default weights [4, 2, 1]: one rotation grants the high lane 4
    // dispatches and the (empty) normal lane's turn passes to low.
    let svc = Service::builder().cores(1).queue_capacity(16).build();
    let g = Arc::new(gen::torus2d(8, 8));
    let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    let (gate, started, release) = Gate::new();
    let gated = svc.job(&g).algorithm(gate).submit().expect("open");
    wait_until("gate job to occupy the team", || {
        started.load(Ordering::Acquire)
    });

    let tag = |tag| Tagged {
        tag,
        log: Arc::clone(&log),
        inner: BaderCong::with_defaults(),
    };
    let mut handles = Vec::new();
    for _ in 0..8 {
        handles.push(
            svc.job(&g)
                .algorithm(tag("high"))
                .priority(Priority::High)
                .submit()
                .expect("open"),
        );
    }
    for _ in 0..2 {
        handles.push(
            svc.job(&g)
                .algorithm(tag("low"))
                .priority(Priority::Low)
                .submit()
                .expect("open"),
        );
    }
    release.store(true, Ordering::Release);
    assert!(gated.wait().is_ok());
    for h in handles {
        assert!(h.wait().is_ok());
    }

    // Strict priority would run all 8 high jobs before any low one;
    // DRR must interleave a low dispatch after every 4 high credits.
    let order = log.lock().unwrap().clone();
    assert_eq!(
        order,
        [
            "high", "high", "high", "high", "low", //
            "high", "high", "high", "high", "low",
        ],
        "bulk-lane jobs must be interleaved at the weight ratio"
    );
    let snap = svc.shutdown();
    assert_eq!(snap.dequeued_high, 8);
    assert_eq!(snap.dequeued_low, 2);
}

#[test]
fn grain_sizing_gives_a_large_job_every_core() {
    let svc = Service::builder().cores(2).build();
    assert_eq!(svc.team_sizes(), vec![2, 1, 1]);
    // G(2^18, 1.5n): n + m = 640 Ki clears two ranks' grain.
    let large = Arc::new(gen::random_gnm(1 << 18, 3 << 17, 7));
    // G(2^12, 1.5n): 10 Ki, far below one rank's grain.
    let small = Arc::new(gen::random_gnm(1 << 12, 3 << 11, 7));
    for (g, p) in [(&large, 2), (&small, 1)] {
        let forest = svc.job(g).submit().expect("open").wait().expect("ran");
        assert!(is_spanning_forest(g, &forest.parents));
        assert_eq!(forest.stats.metrics.p, p, "n = {}", g.num_vertices());
    }
}

/// Counts the ranks running across all jobs before spanning.
struct CountRanks {
    inner: BaderCong,
    running: Arc<AtomicUsize>,
    peak: Arc<AtomicUsize>,
}

impl SpanningAlgorithm for CountRanks {
    fn name(&self) -> &'static str {
        "count-ranks"
    }

    fn run(
        &self,
        g: &CsrGraph,
        exec: &Executor,
        ws: &mut Workspace,
        cancel: &CancelToken,
    ) -> Result<SpanningForest, Cancelled> {
        exec.run(|_| {
            let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(2));
            self.running.fetch_sub(1, Ordering::SeqCst);
        });
        self.inner.run(g, exec, ws, cancel)
    }
}

#[test]
fn jobs_in_flight_never_run_more_ranks_than_cores() {
    let svc = Service::builder().cores(2).queue_capacity(16).build();
    let g = Arc::new(gen::torus2d(16, 16));
    let running = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let algo = CountRanks {
                inner: BaderCong::with_defaults(),
                running: Arc::clone(&running),
                peak: Arc::clone(&peak),
            };
            // Half ask for both cores, half leave it to the sizing rule.
            let job = svc.job(&g).algorithm(algo);
            let job = if i % 2 == 0 { job.processors(2) } else { job };
            job.submit().expect("open")
        })
        .collect();
    for h in handles {
        let forest = h.wait().expect("no deadline, no cancel");
        assert!(is_spanning_forest(&g, &forest.parents));
    }
    let peak = peak.load(Ordering::SeqCst);
    assert!(
        (1..=2).contains(&peak),
        "{peak} ranks ran on a 2-core budget"
    );
    assert_eq!(svc.shutdown().completed, 8);
}

#[test]
fn a_small_job_waits_for_a_large_one_holding_every_core() {
    let svc = Service::builder().cores(2).queue_capacity(4).build();
    let g = Arc::new(gen::torus2d(8, 8));
    let (gate, started, release) = Gate::new();
    let large = svc
        .job(&g)
        .algorithm(gate)
        .processors(2)
        .submit()
        .expect("open");
    wait_until("the large job to hold both cores", || {
        started.load(Ordering::Acquire)
    });
    // The second dispatcher takes the small job but finds no free core.
    let mut small = svc.job(&g).submit().expect("open");
    std::thread::sleep(Duration::from_millis(30));
    assert!(
        small.try_wait().is_none(),
        "the small job ran while every core was leased"
    );
    release.store(true, Ordering::Release);
    let large = large.wait().expect("released");
    assert_eq!(large.stats.metrics.p, 2);
    let small = small.wait().expect("woken by the large job's return");
    assert!(is_spanning_forest(&g, &small.parents));
    assert_eq!(svc.shutdown().completed, 2);
}

#[test]
fn a_cache_hit_shares_the_forest_the_miss_produced() {
    let svc = Service::builder()
        .cores(2)
        .queue_capacity(4)
        .result_cache_capacity(4)
        .build();
    let gref = svc.catalog().register(Arc::new(gen::torus2d(16, 16)));
    let spec = JobSpec::new(gref.id).seed(3);
    let miss = svc.submit_spec(spec).unwrap();
    assert!(!miss.cached);
    let cold = miss.handle.wait().expect("no deadline, no cancel");
    let hit = svc.submit_spec(spec).unwrap();
    assert!(hit.cached);
    let hot = hit.handle.wait().expect("served from the cache");
    assert!(Arc::ptr_eq(&cold, &hot), "a hit shares, never copies");
}

#[test]
fn a_held_forest_survives_its_cache_eviction() {
    let svc = Service::builder()
        .cores(2)
        .queue_capacity(4)
        .result_cache_capacity(1)
        .build();
    let g = Arc::new(gen::random_gnm(2_000, 5_000, 9));
    let gref = svc.catalog().register(Arc::clone(&g));
    let first = JobSpec::new(gref.id).seed(1);
    let held = svc.submit_spec(first).unwrap().handle.wait().unwrap();
    let parents = held.parents.clone();
    let roots = held.roots.clone();
    // A second spec takes the only cache slot.
    let second = JobSpec::new(gref.id).seed(2);
    svc.submit_spec(second).unwrap().handle.wait().unwrap();
    assert!(svc.submit_spec(second).unwrap().cached);
    assert!(
        !svc.submit_spec(first).unwrap().cached,
        "the first entry was evicted"
    );
    assert_eq!(held.parents, parents);
    assert_eq!(held.roots, roots);
    assert!(is_spanning_forest(&g, &held.parents));
}

/// Drives 200 updates of 3 inserts and 1 delete through
/// `Service::apply` on `random_gnm(2^10, 1.5n)` and checks every
/// forest a client can receive against the oracle. With
/// `read_each_batch`, a pinned read follows each update; without, the
/// stream runs unread past the 25% overlay rebuild and one read ends
/// it. A local overlay chain mirrors the graph, so the oracle's
/// component count never reads through the catalog.
fn update_stream_matches_the_oracle(read_each_batch: bool) {
    use bader_cong_spanning::graph::validate::{check_spanning_forest, count_components};
    use bader_cong_spanning::graph::Neighbors;

    let n = 1usize << 10;
    let svc = Service::builder().cores(2).result_cache_capacity(4).build();
    let id = svc
        .catalog()
        .register(Arc::new(gen::random_gnm(n, 3 * n / 2, 5)))
        .id;
    let mut mirror = svc.catalog().view(id).unwrap().0;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |below: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % below as u64) as u32
    };
    let read_and_check = |gref: GraphRef, seed: u64| {
        let forest = svc
            .submit_spec(JobSpec::new(gref).seed(seed))
            .unwrap()
            .handle
            .wait()
            .expect("no deadline, no cancel");
        let (live, at) = svc.catalog().resolve_latest(id).unwrap();
        assert_eq!(at, gref);
        let check = check_spanning_forest(&live, &forest.parents);
        assert!(check.is_valid(), "read of {gref:?}: {check:?}");
    };
    let mut mirror_crossed_rebuild = false;
    for i in 0..200u64 {
        let mut batch = EdgeBatch::new();
        let u = loop {
            let u = next(n);
            if !mirror.neighbors(u).is_empty() {
                break u;
            }
        };
        let row = mirror.neighbors(u);
        batch = batch.delete(u, row[next(row.len()) as usize]);
        for _ in 0..3 {
            let (a, b) = (next(n), next(n));
            if a != b {
                batch = batch.insert(a, b);
            }
        }
        let report = svc.apply(id, &batch).unwrap();
        mirror = mirror.apply(&batch).unwrap().0;
        mirror_crossed_rebuild |= mirror.patched_fraction() > 0.25;
        assert_eq!(
            report.components,
            count_components(&mirror.materialize()),
            "batch {i}"
        );
        if read_each_batch {
            // The batch stacked on the flat CSR the last read left.
            if let GraphView::Delta(delta) = svc.catalog().view(id).unwrap().0 {
                assert!(delta.patched_vertices() <= 2 * batch.len(), "batch {i}");
            }
            read_and_check(report.graph, i);
        }
    }
    assert!(
        mirror_crossed_rebuild,
        "the stream is long enough to rebuild"
    );
    let (_, live) = svc.catalog().view(id).unwrap();
    read_and_check(live, 7);
}

#[test]
fn updates_read_after_every_batch_match_the_oracle() {
    update_stream_matches_the_oracle(true);
}

#[test]
fn unread_updates_past_the_rebuild_then_one_read_match_the_oracle() {
    update_stream_matches_the_oracle(false);
}
