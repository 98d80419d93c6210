//! Metrics-consistency suite: the observability layer's counters must
//! obey their documented invariants across processor counts, every
//! engine job must return a populated `JobMetrics`, and the exporters
//! must emit parseable JSON. Runs identically with and without the
//! `obs-trace` feature (span assertions are gated on
//! `TraceSet::enabled()`).

use bader_cong_spanning::core::hcs::Hcs;
use bader_cong_spanning::core::traversal::TraversalOutcome;
use bader_cong_spanning::obs::TraceSet;
use bader_cong_spanning::prelude::*;
use bader_cong_spanning::smp::Executor;

/// One single-round work-stealing traversal over connected `g`, seeded
/// at vertex 0, returning the job's metrics.
fn traversal_metrics(g: &CsrGraph, p: usize) -> JobMetrics {
    let exec = Executor::new(p);
    let mut ws = Workspace::new();
    ws.begin_job(&exec);
    {
        let t = ws.traversal(g, &exec, TraversalConfig::default());
        t.begin_round(0);
        exec.run(|ctx| {
            assert_eq!(t.run_worker_ctx(&ctx), TraversalOutcome::Completed);
        });
    }
    ws.finish_job(&exec)
}

#[test]
fn steal_traffic_invariants_across_processor_counts() {
    let g = gen::random_connected(4_000, 6_000, 17);
    let n = g.num_vertices() as u64;
    for p in [1usize, 4, 8] {
        let m = traversal_metrics(&g, p);
        assert_eq!(m.p, p);
        assert_eq!(m.per_rank.len(), p);

        // Stolen items must have been published first.
        assert!(
            m.get(Counter::StolenItems) <= m.get(Counter::ItemsPublished),
            "p = {p}: stolen {} > published {}",
            m.get(Counter::StolenItems),
            m.get(Counter::ItemsPublished)
        );
        // Every sweep either succeeds or is a failed sweep.
        assert_eq!(
            m.get(Counter::StealAttempts),
            m.get(Counter::Steals) + m.get(Counter::FailedSweeps),
            "p = {p}"
        );
        // Each non-seed vertex is claimed by exactly one processor.
        let discovered: u64 = m.per_rank.iter().map(|s| s.get(Counter::Discovered)).sum();
        assert_eq!(discovered, n - 1, "p = {p}");
        // Every kept-local item is one private-buffer pop, and every
        // pop is processed.
        assert!(
            m.get(Counter::ItemsKeptLocal) <= m.get(Counter::Processed),
            "p = {p}"
        );
        // The merged totals are exactly the per-rank sums.
        let mut folded = bader_cong_spanning::obs::CounterSnapshot::default();
        for s in &m.per_rank {
            folded.merge(s);
        }
        // Detector stats are folded into rank 0 after the per-rank
        // snapshots are taken, so compare the non-detector lanes.
        for c in Counter::ALL {
            if matches!(
                c,
                Counter::DetectorSleeps | Counter::DetectorWakes | Counter::StarvationTrips
            ) {
                continue;
            }
            assert_eq!(m.totals.get(c), folded.get(c), "p = {p}, lane {}", c.name());
        }

        if p == 1 {
            assert_eq!(m.get(Counter::Steals), 0, "p = 1 has no one to steal from");
            assert_eq!(m.get(Counter::StolenItems), 0);
        }
        // A quiescent team has woken every sleeper it put to sleep.
        assert_eq!(
            m.get(Counter::DetectorSleeps),
            m.get(Counter::DetectorWakes),
            "p = {p}"
        );
    }
}

#[test]
fn counters_are_zero_after_begin_job() {
    let g = gen::torus2d(30, 30);
    let exec = Executor::new(4);
    let mut ws = Workspace::new();
    ws.begin_job(&exec);
    {
        let t = ws.traversal(&g, &exec, TraversalConfig::default());
        t.begin_round(0);
        exec.run(|ctx| {
            t.run_worker_ctx(&ctx);
        });
    }
    let m = ws.finish_job(&exec);
    assert!(m.get(Counter::Processed) > 0, "the job did real work");

    // Opening the next window must start from zero.
    ws.begin_job(&exec);
    let fresh = ws.finish_job(&exec);
    assert!(
        fresh.totals.is_zero(),
        "counters leaked across begin_job: {:?}",
        fresh.totals
    );
    assert!(fresh.spans.is_empty());
    assert_eq!(fresh.spans_dropped, 0);
}

#[test]
fn every_engine_job_returns_populated_metrics() {
    let g = gen::random_connected(2_000, 3_000, 5);
    let p = 4;
    let mut engine = Engine::new(p);

    let forests = [
        engine.run(&BaderCong::with_defaults(), &g),
        engine.run(&sv::Sv::new(SvConfig::default()), &g),
        engine.run(&Hcs, &g),
    ];
    for (i, f) in forests.iter().enumerate() {
        let m = &f.stats.metrics;
        assert_eq!(m.p, p, "algorithm #{i}");
        assert_eq!(m.per_rank.len(), p, "algorithm #{i}");
        assert!(m.wall_ns() > 0, "algorithm #{i}");
        assert!(!m.totals.is_zero(), "algorithm #{i} reported no activity");
    }
    assert!(forests[1].stats.metrics.get(Counter::Barriers) > 0);
    // The round driver seeds stub vertices before each traversal round.
    let bc = &forests[0].stats.metrics;
    assert!(bc.get(Counter::StubWalks) > 0);
    assert!(bc.get(Counter::StubVertices) > 0);
}

/// The counters that carry the paper's counts, for every engine
/// algorithm: barrier episodes are team rendezvous, so every rank
/// reports the same `Barriers`; graft-and-shortcut grafts once per tree
/// edge and counts its iterations; Bader–Cong runs no graft iteration
/// unless it starves into the SV fallback.
#[test]
fn engine_counters_hold_the_paper_counts() {
    let n = 1 << 14;
    let g = gen::random_gnm(n, 3 * n / 2, 7);
    let paper = BaderCong::new(Config {
        traversal: TraversalConfig::paper_protocol(),
        ..Config::default()
    });
    let lock = sv::Sv::new(SvConfig {
        variant: GraftVariant::Lock,
    });
    let algos: [(&dyn SpanningAlgorithm, bool); 5] = [
        (&BaderCong::with_defaults(), false),
        (&paper, false),
        (&sv::Sv::new(SvConfig::default()), true),
        (&lock, true),
        (&Hcs, true),
    ];
    for p in [1usize, 2, 4] {
        let mut engine = Engine::new(p);
        for (algo, grafts) in algos {
            let f = engine.run(algo, &g);
            assert!(
                is_spanning_forest(&g, &f.parents),
                "{} p = {p}",
                algo.name()
            );
            let m = &f.stats.metrics;
            assert_rank_uniform_barriers(m, algo.name());
            let iterations = m.get(Counter::GraftIterations);
            if grafts {
                assert_eq!(
                    m.get(Counter::Grafts),
                    (n - f.num_trees()) as u64,
                    "{} p = {p}",
                    algo.name()
                );
                assert!(iterations >= 1, "{} p = {p}", algo.name());
            } else {
                assert!(!f.stats.fallback_triggered, "{} p = {p}", algo.name());
                assert_eq!(iterations, 0, "{} p = {p}", algo.name());
            }
        }
    }

    // A chain rooted a quarter of the way along starves: one rank
    // crawls the long side while three sleep, and SV finishes the job.
    let chain = gen::chain(20_000);
    let starving = BaderCong::new(Config {
        traversal: TraversalConfig {
            starvation_threshold: Some(3),
            ..TraversalConfig::default()
        },
        start_root: Some(5_000),
        ..Config::default()
    });
    let f = Engine::new(4).run(&starving, &chain);
    assert!(f.stats.fallback_triggered, "the chain should starve");
    assert!(f.stats.metrics.get(Counter::GraftIterations) > 0);
    assert_rank_uniform_barriers(&f.stats.metrics, "starved bader-cong");
}

fn assert_rank_uniform_barriers(m: &JobMetrics, name: &str) {
    let barriers = m.per_rank[0].get(Counter::Barriers);
    assert!(barriers > 0, "{name} p = {}", m.p);
    for (rank, s) in m.per_rank.iter().enumerate() {
        assert_eq!(
            s.get(Counter::Barriers),
            barriers,
            "{name} p = {}: rank {rank}",
            m.p
        );
    }
}

#[test]
fn spans_are_recorded_exactly_when_the_feature_is_on() {
    let g = gen::random_connected(2_000, 3_000, 9);
    let mut engine = Engine::new(2);
    let f = engine.run(&BaderCong::with_defaults(), &g);
    let m = &f.stats.metrics;
    if TraceSet::enabled() {
        assert!(!m.spans.is_empty(), "obs-trace build must record spans");
        let totals = m.phase_totals();
        assert!(
            totals.iter().any(|t| t.phase == Phase::Traverse),
            "missing traverse phase: {totals:?}"
        );
        // Spans drain oldest-first, sorted by start time.
        for w in m.spans.windows(2) {
            assert!(w[0].start_ns <= w[1].start_ns);
        }
    } else {
        assert!(m.spans.is_empty(), "cfg-off build must compile spans out");
        assert_eq!(m.spans_dropped, 0);
    }
}

#[test]
fn json_and_chrome_exports_parse() {
    let g = gen::torus2d(24, 24);
    let m = traversal_metrics(&g, 2);

    let report = m.to_json_pretty();
    let v = serde_json::parse_value(&report).expect("JobMetrics JSON must parse");
    match &v {
        serde_json::Value::Object(fields) => {
            assert!(fields.contains_key("totals"));
            assert!(fields.contains_key("per_rank"));
            assert_eq!(fields.get("p"), Some(&serde_json::Value::Number(2.0)));
        }
        other => panic!("expected object, got {other:?}"),
    }

    let trace = m.to_chrome_trace();
    let v = serde_json::parse_value(&trace).expect("chrome trace must parse");
    match v {
        serde_json::Value::Array(events) => {
            // Process metadata + one thread name per rank + totals
            // instant, plus one "X" event per span.
            assert_eq!(events.len(), 1 + 2 + m.spans.len() + 1);
        }
        other => panic!("expected array, got {other:?}"),
    }
}

/// The invariant behind the deterministic steal sweep (see
/// `steal_sweep` in st-core): `steal_into` must use the exact
/// under-lock length, never the lagging `approx_len` mirror, so a rank
/// can't be sent into `idle_wait` while stealable work is published.
/// Here the mirror is artificially desynced to "empty" — the steal must
/// still succeed, and afterwards the mirror must be re-published
/// exactly.
#[test]
fn steal_into_uses_exact_length_not_stale_mirror() {
    use bader_cong_spanning::smp::{StealPolicy, WorkQueue};
    let q: WorkQueue<u32> = WorkQueue::new();
    q.push_all([1, 2, 3, 4]);
    q.desync_mirror_for_test(0);
    assert!(q.appears_empty(), "mirror must look empty for this test");
    let mut out = std::collections::VecDeque::new();
    let got = q.steal_into(&mut out, StealPolicy::Half);
    assert_eq!(got, 2, "steal must trust the exact length, not the mirror");
    assert_eq!(q.len(), 2);
    assert_eq!(
        q.approx_len(),
        q.len(),
        "steal_into must re-publish the mirror it found stale"
    );
}
