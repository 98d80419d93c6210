//! Integration tests for the catalog-addressed job path: graph
//! registration and versioning, spec submission, the result cache's
//! short-circuit, and the gauges that make its behavior observable.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bader_cong_spanning::prelude::*;
use bader_cong_spanning::service::Submitted;
use bader_cong_spanning::smp::Executor;

fn small_service() -> Service {
    Service::builder()
        .cores(2)
        .queue_capacity(16)
        .result_cache_capacity(8)
        .build()
}

#[test]
fn spec_submission_spans_a_registered_graph() {
    let svc = small_service();
    let g = Arc::new(gen::torus2d(16, 16));
    let gref = svc.catalog().register(Arc::clone(&g));

    let Submitted { handle, cached } = svc.submit_spec(JobSpec::new(gref.id)).unwrap();
    assert!(!cached, "first submission must execute");
    let forest = handle.wait().expect("no deadline, no cancel");
    assert_eq!(forest.num_trees(), 1);
    assert!(is_spanning_forest(&g, &forest.parents));
}

#[test]
fn unknown_graph_is_rejected_at_submission() {
    let svc = small_service();
    let err = svc.submit_spec(JobSpec::new(GraphId(404))).unwrap_err();
    assert_eq!(err, JobError::UnknownGraph);
    let s = svc.snapshot();
    assert_eq!(s.submitted, 0, "rejected specs never count as submitted");
}

#[test]
fn repeat_submissions_hit_the_cache() {
    let svc = small_service();
    let g = Arc::new(gen::torus2d(16, 16));
    let gref = svc.catalog().register(g);
    let spec = JobSpec::new(gref.id).seed(99);

    let first = svc.submit_spec(spec).unwrap();
    assert!(!first.cached);
    let cold = first.handle.wait().unwrap();

    let second = svc.submit_spec(spec).unwrap();
    assert!(second.cached, "identical spec must be served from cache");
    assert!(
        second.handle.is_finished(),
        "cache hits resolve before the handle is returned"
    );
    let hot = second.handle.wait().unwrap();
    assert_eq!(hot.parents, cold.parents);
    assert_eq!(hot.roots, cold.roots);

    let s = svc.snapshot();
    assert_eq!(s.cache_hits, 1);
    assert_eq!(s.cache_misses, 1);
    assert_eq!(s.submitted, 2, "hits still count as submissions");
    assert_eq!(s.completed, 1, "only the cold run executed");
    assert_eq!(s.completed_cached, 1, "the hit lands in its own series");
    assert_eq!(s.finished(), 2, "finished() spans executed and cached");
}

#[test]
fn distinct_seeds_algorithms_and_widths_cache_separately() {
    let svc = small_service();
    let gref = svc.catalog().register(Arc::new(gen::torus2d(8, 8)));
    let base = JobSpec::new(gref.id);

    for spec in [
        base,
        base.seed(7),
        base.algorithm(AlgorithmId::Sv),
        base.processors(1),
    ] {
        let sub = svc.submit_spec(spec).unwrap();
        assert!(!sub.cached, "each distinct key must miss: {spec:?}");
        sub.handle.wait().unwrap();
    }
    assert_eq!(svc.snapshot().cache_misses, 4);
    assert_eq!(svc.result_cache_len(), 4);
}

#[test]
fn publishing_a_new_version_makes_old_results_unreachable() {
    let svc = small_service();
    let gref = svc.catalog().register(Arc::new(gen::torus2d(4, 4)));
    let spec = JobSpec::new(gref.id);

    svc.submit_spec(spec).unwrap().handle.wait().unwrap();
    assert!(svc.submit_spec(spec).unwrap().cached);

    // Republish under the same id: next submission resolves to v2 and
    // must execute against the new bytes.
    svc.catalog()
        .publish(gref.id, Arc::new(gen::torus2d(32, 32)))
        .unwrap();
    let after = svc.submit_spec(spec).unwrap();
    assert!(!after.cached, "version bump must invalidate addressing");
    let forest = after.handle.wait().unwrap();
    assert_eq!(forest.parents.len(), 32 * 32, "ran against the new bytes");
}

#[test]
fn removing_a_graph_purges_its_cache_entries() {
    let svc = small_service();
    let gref = svc.catalog().register(Arc::new(gen::torus2d(4, 4)));
    let spec = JobSpec::new(gref.id);
    svc.submit_spec(spec).unwrap().handle.wait().unwrap();
    assert_eq!(svc.result_cache_len(), 1);

    assert!(svc.remove_graph(gref.id));
    assert_eq!(svc.result_cache_len(), 0);
    assert_eq!(
        svc.submit_spec(spec).unwrap_err(),
        JobError::UnknownGraph,
        "removed ids no longer resolve"
    );
}

#[test]
fn cached_results_respect_deadlines_trivially() {
    // A cache hit resolves instantly, so even a tiny deadline passes.
    let svc = small_service();
    let gref = svc.catalog().register(Arc::new(gen::torus2d(8, 8)));
    let spec = JobSpec::new(gref.id);
    svc.submit_spec(spec).unwrap().handle.wait().unwrap();

    let hit = svc
        .submit_spec(spec.deadline(Duration::from_millis(1)))
        .unwrap();
    assert!(hit.cached);
    assert!(hit.handle.wait().is_ok());
}

#[test]
fn expired_deadline_is_reported_even_when_the_result_is_cached() {
    // A deadline that has already passed at submission must resolve to
    // DeadlineExceeded — the cache must not rewrite it as Completed.
    let svc = small_service();
    let gref = svc.catalog().register(Arc::new(gen::torus2d(8, 8)));
    let spec = JobSpec::new(gref.id);
    svc.submit_spec(spec).unwrap().handle.wait().unwrap();

    let dead = svc.submit_spec(spec.deadline(Duration::ZERO)).unwrap();
    assert!(!dead.cached, "an expired submission is not a cache hit");
    assert!(dead.handle.is_finished(), "resolved at the door");
    assert_eq!(dead.handle.wait().unwrap_err(), JobError::DeadlineExceeded);
    let s = svc.snapshot();
    assert_eq!(s.deadline_exceeded, 1);
    assert_eq!(s.submitted, 2, "the dead submission still counts");
}

#[test]
fn every_algorithm_id_produces_a_valid_forest() {
    let svc = small_service();
    let g = Arc::new(gen::random_gnm(2_000, 6_000, 11));
    let gref = svc.catalog().register(Arc::clone(&g));
    for algo in AlgorithmId::ALL {
        let forest = svc
            .submit_spec(JobSpec::new(gref.id).algorithm(algo))
            .unwrap()
            .handle
            .wait()
            .unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        assert!(is_spanning_forest(&g, &forest.parents), "{algo:?}");
    }
}

#[test]
fn in_process_job_builder_still_bypasses_the_catalog() {
    // The pre-catalog API: ad-hoc Arc<CsrGraph> jobs, no cache
    // interaction at all.
    let svc = small_service();
    let g = Arc::new(gen::torus2d(8, 8));
    svc.job(&g).submit().unwrap().wait().unwrap();
    svc.job(&g).submit().unwrap().wait().unwrap();
    let s = svc.snapshot();
    assert_eq!(s.cache_hits + s.cache_misses, 0);
    assert_eq!(svc.result_cache_len(), 0);
}

#[test]
fn prometheus_page_reflects_cache_traffic() {
    let svc = small_service();
    let gref = svc.catalog().register(Arc::new(gen::torus2d(8, 8)));
    let spec = JobSpec::new(gref.id);
    svc.submit_spec(spec).unwrap().handle.wait().unwrap();
    svc.submit_spec(spec).unwrap().handle.wait().unwrap();

    let page = svc.render_metrics();
    assert!(page.contains("st_service_result_cache_hits_total 1"));
    assert!(page.contains("st_service_result_cache_misses_total 1"));
    assert!(page.contains("st_service_jobs_submitted_total 2"));
    assert!(page.contains("# TYPE st_service_lane_queue_depth gauge"));
}

// ---- batch-dynamic updates: the versioned mutation path ----

use bader_cong_spanning::graph::validate::count_components;
use bader_cong_spanning::service::UpdateError;

/// xorshift64*: deterministic stream for randomized batches.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn vertex(&mut self, n: usize) -> VertexId {
        (self.next() % n as u64) as VertexId
    }
}

#[test]
fn apply_bumps_the_version_and_maintains_the_forest() {
    let svc = small_service();
    let g = Arc::new(gen::torus2d(16, 16));
    let gref = svc.catalog().register(Arc::clone(&g));

    let report = svc
        .apply(gref.id, &EdgeBatch::new().insert(0, 255).insert(3, 200))
        .unwrap();
    assert_eq!(report.graph.version, gref.version + 1);
    assert_eq!(report.outcome.edges_added, 2);
    assert_eq!(report.outcome.edges_removed, 0);
    assert!(report.incremental, "a 2-edge batch must repair in place");
    assert_eq!(report.components, 1);

    let (after, newest) = svc.catalog().resolve_latest(gref.id).unwrap();
    assert_eq!(newest.version, report.graph.version);
    assert_eq!(after.num_edges(), g.num_edges() + 2);
    assert_eq!(count_components(&after), 1);
}

#[test]
fn apply_rejects_unknown_graphs_and_bad_batches() {
    let svc = small_service();
    let gref = svc.catalog().register(Arc::new(gen::torus2d(4, 4)));
    assert!(matches!(
        svc.apply(GraphId(404), &EdgeBatch::new().insert(0, 1)),
        Err(UpdateError::UnknownGraph(GraphId(404)))
    ));
    assert!(matches!(
        svc.apply(gref.id, &EdgeBatch::new().insert(0, 9_999)),
        Err(UpdateError::Batch(_))
    ));
    let (_, same) = svc.catalog().resolve_latest(gref.id).unwrap();
    assert_eq!(same.version, gref.version, "failed applies must not bump");
}

/// The oracle-equivalence suite: randomized insert/delete batch streams
/// maintained incrementally at p ∈ {1, 4, 8}, checked after every batch
/// against a sequential component count over the materialized graph.
#[test]
fn randomized_batch_streams_track_the_oracle_across_widths() {
    for p in [1usize, 4, 8] {
        let svc = Service::builder()
            .cores(p)
            // Never fall back: this test must exercise the incremental
            // maintainer itself at every width.
            .dyn_recompute_fraction(2.0)
            .build();
        let n = 600;
        let g = Arc::new(gen::random_gnm(n, 900, 7 + p as u64));
        let gref = svc.catalog().register(g);
        let mut rng = Rng(0x5eed_0000 + p as u64);
        let mut live: Vec<(VertexId, VertexId)> = Vec::new();
        for round in 0..20 {
            let mut batch = EdgeBatch::new();
            for op in 0..12 {
                if op % 3 == 2 && !live.is_empty() {
                    let i = (rng.next() % live.len() as u64) as usize;
                    let (u, v) = live.swap_remove(i);
                    batch = batch.delete(u, v);
                } else {
                    let (u, v) = (rng.vertex(n), rng.vertex(n));
                    if u != v {
                        live.push((u, v));
                        batch = batch.insert(u, v);
                    }
                }
            }
            let report = svc.apply(gref.id, &batch).unwrap();
            assert!(report.incremental, "p={p} round={round}: fell back");
            let (flat, _) = svc.catalog().resolve_latest(gref.id).unwrap();
            assert_eq!(
                report.components,
                count_components(&flat),
                "p={p} round={round}: maintained components diverged"
            );
        }
        svc.shutdown();
    }
}

#[test]
fn recompute_fraction_zero_forces_the_fallback_path() {
    let svc = Service::builder()
        .cores(2)
        .dyn_recompute_fraction(0.0)
        .build();
    let gref = svc.catalog().register(Arc::new(gen::torus2d(8, 8)));
    let report = svc.apply(gref.id, &EdgeBatch::new().insert(0, 63)).unwrap();
    assert!(!report.incremental, "fraction 0 must always recompute");
    assert_eq!(report.components, 1);
    let page = svc.render_metrics();
    assert!(page.contains("st_service_updates_recomputed_total 1"));
    assert!(page.contains("st_service_updates_incremental_total 0"));
}

/// Regression: at default knobs, small batches against a graph with a
/// giant component repair incrementally. Charging each batch the whole
/// size of every component it touched sent nearly all of them to the
/// full recompute.
#[test]
fn small_batches_on_a_giant_component_stay_incremental_at_default_knobs() {
    let svc = Service::builder().cores(2).build();
    let n = 1 << 12;
    let gref = svc
        .catalog()
        .register(Arc::new(gen::random_gnm(n, 3 * n / 2, 12)));
    let mut rng = Rng(0x0b5e_55ed);
    let mut inserted: Vec<(VertexId, VertexId)> = Vec::new();
    let batches = 40;
    let mut incremental = 0;
    for round in 0..batches {
        // 16 edits, three inserts to one delete of an earlier insert.
        let mut batch = EdgeBatch::new();
        let mut fresh = Vec::new();
        for op in 0..16 {
            if op % 4 == 3 && !inserted.is_empty() {
                let i = (rng.next() % inserted.len() as u64) as usize;
                let (u, v) = inserted.swap_remove(i);
                batch = batch.delete(u, v);
            } else {
                let (u, v) = (rng.vertex(n), rng.vertex(n));
                if u != v {
                    fresh.push((u, v));
                    batch = batch.insert(u, v);
                }
            }
        }
        inserted.extend(fresh);
        let report = svc.apply(gref.id, &batch).unwrap();
        incremental += usize::from(report.incremental);
        let (flat, _) = svc.catalog().resolve_latest(gref.id).unwrap();
        assert_eq!(
            report.components,
            count_components(&flat),
            "round {round}: maintained components diverged"
        );
    }
    assert!(
        incremental * 10 >= batches * 9,
        "only {incremental} of {batches} batches repaired incrementally"
    );
    svc.shutdown();
}

#[test]
fn pinned_submissions_follow_their_version_not_the_latest() {
    let svc = small_service();
    let g = Arc::new(gen::torus2d(8, 8));
    let gref = svc.catalog().register(g);

    // Warm the cache at v1, then move the catalog to v2.
    let spec_v1 = JobSpec::new(gref);
    svc.submit_spec(spec_v1).unwrap().handle.wait().unwrap();
    svc.apply(gref.id, &EdgeBatch::new().insert(0, 63)).unwrap();

    // The stale pin is still served — from the exact-version cache.
    let hit = svc.submit_spec(spec_v1).unwrap();
    assert!(hit.cached, "stale pin with a cached result must hit");
    hit.handle.wait().unwrap();

    // A stale pin the cache cannot serve reports the live version.
    let uncached = svc.submit_spec(JobSpec::new(gref).seed(1234)).unwrap_err();
    assert_eq!(uncached, JobError::StaleVersion(gref.version + 1));

    // Pinning the live version executes normally.
    let (_, live) = svc.catalog().resolve_latest(gref.id).unwrap();
    let fresh = svc.submit_spec(JobSpec::new(live)).unwrap();
    assert!(!fresh.cached);
    fresh.handle.wait().unwrap();
}

/// Regression: a version bump (or removal) racing an admitted job must
/// never hand the dispatcher a dangling graph — jobs pin their
/// `Arc<CsrGraph>` at admission and finish against it.
#[test]
fn version_churn_never_dangles_in_flight_jobs() {
    let svc = Service::builder().cores(2).queue_capacity(64).build();
    let n = 32 * 32;
    let gref = svc.catalog().register(Arc::new(gen::torus2d(32, 32)));

    // Queue a wave of latest-addressed jobs with distinct seeds (no
    // cache hits), then immediately churn versions underneath them and
    // finally remove the graph outright.
    let waves: Vec<_> = (0..24)
        .map(|i| {
            svc.submit_spec(JobSpec::new(gref.id).seed(1_000 + i))
                .unwrap()
        })
        .collect();
    for i in 0..6 {
        svc.apply(gref.id, &EdgeBatch::new().insert(i, i + 40))
            .unwrap();
    }
    assert!(svc.remove_graph(gref.id));
    for sub in waves {
        let forest = sub.handle.wait().expect("admitted jobs must finish");
        assert_eq!(forest.parents.len(), n, "ran against its pinned snapshot");
    }
}

/// Concurrent submitters against a graph whose versions churn under
/// them: every admission must resolve to a forest of the right shape,
/// and the maintained component count must still match the oracle at
/// quiescence.
#[test]
fn concurrent_submissions_survive_version_churn() {
    let svc = Arc::new(Service::builder().cores(2).queue_capacity(128).build());
    let n = 24 * 24;
    let gref = svc.catalog().register(Arc::new(gen::torus2d(24, 24)));

    std::thread::scope(|s| {
        for t in 0..3u64 {
            let svc = Arc::clone(&svc);
            s.spawn(move || {
                for i in 0..30 {
                    let sub = svc
                        .submit_spec(JobSpec::new(gref.id).seed(t * 1_000 + i))
                        .unwrap();
                    let forest = sub.handle.wait().expect("churn must not break jobs");
                    assert_eq!(forest.parents.len(), n);
                }
            });
        }
        let svc = Arc::clone(&svc);
        s.spawn(move || {
            let mut rng = Rng(0xc0ffee);
            for _ in 0..30 {
                let (u, v) = (rng.vertex(n), rng.vertex(n));
                if u != v {
                    svc.apply(gref.id, &EdgeBatch::new().insert(u, v)).unwrap();
                }
            }
        });
    });

    let (flat, _) = svc.catalog().resolve_latest(gref.id).unwrap();
    let report = svc.apply(gref.id, &EdgeBatch::new().insert(0, 1)).unwrap();
    assert_eq!(report.components, count_components(&flat));
}

#[test]
fn removing_a_graph_drops_its_updater_state() {
    let svc = small_service();
    let gref = svc.catalog().register(Arc::new(gen::torus2d(8, 8)));
    svc.apply(gref.id, &EdgeBatch::new().insert(0, 63)).unwrap();
    assert!(svc.remove_graph(gref.id));
    assert!(matches!(
        svc.apply(gref.id, &EdgeBatch::new().insert(0, 1)),
        Err(UpdateError::UnknownGraph(_))
    ));
}

/// Holds its team until `release` flips, then runs Bader–Cong;
/// `started` flips once a dispatcher has picked the job up.
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

/// A pin admitted while its version was live runs against that version
/// even when an update supersedes it before a dispatcher reaches it;
/// afterwards the version is served from the cache for that exact key
/// and reported stale for any other, as before reads flattened on the
/// job's team.
#[test]
fn a_pin_superseded_in_the_queue_runs_its_version_then_reads_stale() {
    let svc = Service::builder().cores(1).result_cache_capacity(8).build();
    let gref = svc.catalog().register(Arc::new(gen::torus2d(8, 8)));
    let v2 = svc
        .apply(gref.id, &EdgeBatch::new().delete(0, 1).insert(0, 27))
        .unwrap()
        .graph;
    let (view, _) = svc.catalog().view(gref.id).unwrap();
    assert!(matches!(view, GraphView::Delta(_)));
    let v2_graph = view.materialize();

    // Hold the one core so the pinned read waits in the queue.
    let started = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let gate = Gate {
        started: Arc::clone(&started),
        release: Arc::clone(&release),
    };
    let blocker = svc
        .job(&Arc::new(gen::chain(4)))
        .algorithm(gate)
        .submit()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !started.load(Ordering::Acquire) {
        assert!(Instant::now() < deadline, "the gate job never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    let queued = svc.submit_spec(JobSpec::new(v2).seed(5)).unwrap();
    assert!(!queued.cached);
    // Supersede v2 through the catalog alone, which leases no core,
    // with a version that cuts the torus in two: every edge between
    // rows 3 and 4 and the wrap-around edges between rows 7 and 0.
    let mut cut = EdgeBatch::new();
    for col in 0..8u32 {
        cut = cut
            .delete(3 * 8 + col, 4 * 8 + col)
            .delete(col, 7 * 8 + col);
    }
    let (v3, _) = svc.catalog().apply(gref.id, &cut, 1.0).unwrap();
    release.store(true, Ordering::Release);
    blocker.wait().unwrap();

    let forest = queued.handle.wait().expect("an admitted pin runs");
    assert!(is_spanning_forest(&v2_graph, &forest.parents));
    assert_eq!(forest.num_trees(), 1, "ran on v2, not on the cut v3");
    assert!(svc.submit_spec(JobSpec::new(v2).seed(5)).unwrap().cached);
    assert_eq!(
        svc.submit_spec(JobSpec::new(v2).seed(6)).unwrap_err(),
        JobError::StaleVersion(v3.version)
    );
    let (live, now) = svc.catalog().resolve_latest(gref.id).unwrap();
    assert_eq!(now, v3);
    assert_eq!(count_components(&live), 2, "v3 stays v3");
}

/// Every read of a delta version served over G(2^16, 1.5n) on two cores
/// is a spanning forest of an independently mirrored graph, with one
/// tree per component, and ran on both cores.
#[test]
fn served_delta_reads_match_a_mirrored_oracle_on_two_cores() {
    let svc = Service::builder().cores(2).build();
    let n = 1usize << 16;
    let base = gen::random_gnm(n, 3 * n / 2, 7);
    let mut mirror: HashSet<(VertexId, VertexId)> = base.edges().filter(|&(u, v)| u != v).collect();
    let gref = svc.catalog().register(Arc::new(base));
    let mut rng = Rng(0x0dd5_eed5);
    let mut inserted: Vec<(VertexId, VertexId)> = Vec::new();
    for round in 0..20 {
        // 16 edits, three inserts to one delete of an earlier insert.
        let (mut batch, mut fresh) = (EdgeBatch::new(), Vec::new());
        for op in 0..16 {
            if op % 4 == 3 && !inserted.is_empty() {
                let i = (rng.next() % inserted.len() as u64) as usize;
                let (u, v) = inserted.swap_remove(i);
                batch = batch.delete(u, v);
                mirror.remove(&(u.min(v), u.max(v)));
            } else {
                let (u, v) = (rng.vertex(n), rng.vertex(n));
                if u != v {
                    fresh.push((u.min(v), u.max(v)));
                    batch = batch.insert(u, v);
                }
            }
        }
        mirror.extend(fresh.iter().copied());
        inserted.extend(fresh);
        let version = svc.apply(gref.id, &batch).unwrap().graph;
        let read = svc.submit_spec(JobSpec::new(version)).unwrap();
        assert!(!read.cached, "round {round}: a new version misses");
        let forest = read.handle.wait().unwrap();

        let mut b = GraphBuilder::new(n);
        b.extend(mirror.iter().copied());
        let oracle = b.build();
        assert!(
            is_spanning_forest(&oracle, &forest.parents),
            "round {round}: not a spanning forest of the mirrored graph"
        );
        assert_eq!(
            forest.num_trees(),
            count_components(&oracle),
            "round {round}"
        );
        assert_eq!(forest.stats.metrics.p, 2, "round {round}: read ran narrow");
    }
}
