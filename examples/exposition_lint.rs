//! Exposition lint: drive a real workload through the service, render
//! the Prometheus page, and verify it is grammatically valid with
//! internally consistent histograms.
//!
//! ```text
//! cargo run --release --example exposition_lint
//! ```
//!
//! This is the metrics plane's end-to-end check (CI runs it in the
//! server-smoke job): every family the service exports is parsed back
//! with [`lint_exposition`], which enforces the text-format grammar
//! plus the histogram invariants — strictly increasing `le` bounds,
//! monotone cumulative counts, `+Inf == _count`, `_sum` present — and
//! the job counts baked into the page are reconciled against the
//! workload we just ran.

use std::sync::Arc;
use std::time::Duration;

use bader_cong_spanning::prelude::*;

fn main() {
    let svc = Service::builder()
        .cores(2)
        .queue_capacity(32)
        .slow_job_threshold(Duration::from_millis(1))
        .build();
    let gref = svc.catalog().register(Arc::new(gen::torus2d(64, 64)));

    // A mixed workload: every priority lane, two algorithms, a cache
    // hit, and a deadline miss — so the page has non-trivial series to
    // lint in every family.
    let mut executed = 0u64;
    for (i, (algo, prio)) in [
        (AlgorithmId::BaderCong, Priority::High),
        (AlgorithmId::BaderCong, Priority::Normal),
        (AlgorithmId::Sv, Priority::Low),
        (AlgorithmId::Hcs, Priority::Normal),
    ]
    .into_iter()
    .enumerate()
    {
        // Distinct seeds keep the cache out of this loop (priority is
        // not part of the cache key; seed and algorithm are).
        let sub = svc
            .submit_spec(
                JobSpec::new(gref.id)
                    .algorithm(algo)
                    .priority(prio)
                    .seed(100 + i as u64),
            )
            .expect("service is open");
        sub.handle.wait().expect("no deadline, no cancel");
        executed += 1;
    }
    // Identical spec: served from the result cache.
    let hit = svc
        .submit_spec(JobSpec::new(gref.id).algorithm(AlgorithmId::Hcs).seed(103))
        .expect("service is open");
    assert!(hit.cached, "repeat spec must hit the cache");
    // Expired at submission: a deadline miss for the SLO series.
    let missed = svc
        .submit_spec(JobSpec::new(gref.id).seed(7).deadline(Duration::ZERO))
        .expect("submission itself succeeds");
    assert!(missed.handle.wait().is_err(), "deadline already expired");

    let page = svc.render_metrics();
    let samples = match lint_exposition(&page) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("--- page ---\n{page}");
            panic!("exposition lint failed: {e}");
        }
    };
    println!(
        "lint OK: {} samples across {} lines",
        samples.len(),
        page.lines().count()
    );

    // Reconcile the histogram counts against the workload: every
    // executed completion must appear in exactly one lane wall series.
    let wall_count: f64 = samples
        .iter()
        .filter(|(name, _)| name.starts_with("st_service_job_wall_seconds_count"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(
        wall_count as u64, executed,
        "wall-histogram _count must equal executed completions"
    );
    let completed = samples
        .get("st_service_jobs_finished_total{outcome=\"completed\"}")
        .copied()
        .unwrap_or(f64::NAN);
    assert_eq!(
        completed as u64, executed,
        "completed counter must match the workload"
    );
    let cached = samples
        .get("st_service_cached_wall_seconds_count")
        .copied()
        .unwrap_or(f64::NAN);
    assert_eq!(cached as u64, 1, "exactly one cache hit was served");
    let miss_ratio = samples
        .get("st_service_deadline_miss_ratio")
        .copied()
        .unwrap_or(f64::NAN);
    assert!(
        miss_ratio > 0.0 && miss_ratio < 1.0,
        "one deadline miss out of several jobs, got {miss_ratio}"
    );
    println!("reconciled: {executed} executed, 1 cached, deadline-miss ratio {miss_ratio:.3}");

    // The journal saw the whole story.
    let journal = svc.telemetry().journal();
    assert!(journal.events().len() >= 4 * executed as usize);
    let slow = svc.telemetry().slow_jobs();
    println!(
        "journal holds {} events; {} slow-job reports past the 1ms threshold",
        journal.events().len(),
        slow.len()
    );
    svc.shutdown();
    println!("exposition lint passed");
}
