//! `update-read`: writes beside reads. One client in a closed loop
//! sends a 16-edit update, then reads the spanning forest of the
//! version it produced. The first update seeds the server's forest
//! maintainer; it is set-up, not a timed update.

use std::sync::Arc;
use std::time::{Duration, Instant};

use st_graph::{gen, GraphView};
use st_service::net::{RemoteGraph, SubmitRequest};

use super::replay::{DynReplay, Layers, Replayer};
use super::{
    check_forest, closed_loop_rate, median_of, millis, ping_rtts, repeated_setup, start_echo,
    take_sample, trace_wire_job, wire_job, wire_update, yardstick_of, JobOp, Live, Mirror, RunCfg,
    Seen, SetupClock, UpdateOp, UpdateStream,
};
use crate::registry::Outcome;
use crate::rng::derive;
use crate::stats;
use crate::trace::Tracer;
use crate::yardstick::Samples;

/// Percentile the job tail (printed on stderr) is read at: p99 with ten
/// samples beyond it needs 1000 iterations, about 35 s at 2^16 vertices
/// on a 2-core host; p90 needs 100.
const TAIL_LEVEL: f64 = 0.9;

/// Set-ups per run. One takes about 0.15 s, so more of them than the
/// large workloads' three cost little and steady the median.
const SETUP_REPS: usize = 7;

/// Untimed update-then-read iterations each set-up runs after the
/// seeding update.
const WARM_UP_ITERATIONS: usize = 2;

/// Share of `--seconds` the loop runs for.
const LOOP_SHARE: f64 = 0.9;

pub(crate) fn run(cfg: &RunCfg, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let seed = derive(cfg.seed, "update-read");
    let n = 1usize << cfg.pick(16, 10);
    let base = Arc::new(gen::random_gnm(n, 3 * n / 2, seed));
    let mut stream = UpdateStream::new(derive(seed, "updates"), n);
    let warm_batches: Vec<_> = (0..=WARM_UP_ITERATIONS)
        .map(|_| stream.next_batch())
        .collect();
    let warm_seed = derive(seed, "warm-up");
    let mut echo = start_echo()?;
    let mut out = Outcome::default();

    let ((live, mut conn, mut mirror, graph_id), setup) = repeated_setup(SETUP_REPS, || {
        let t = SetupClock::start();
        let live = Live::start()?;
        let mut conn = live.connect()?;
        let remote = conn
            .register(&base)
            .map_err(|e| format!("registering the graph: {e}"))?;
        let mut replies = Vec::with_capacity(warm_batches.len());
        let mut jobs = Vec::with_capacity(WARM_UP_ITERATIONS);
        for (i, batch) in warm_batches.iter().enumerate() {
            replies.push(conn.update(remote.id, &batch.inserts, &batch.deletes));
            if i > 0 {
                let req = SubmitRequest::new(remote).seed(warm_seed + i as u64);
                jobs.push(wire_job(&mut conn, req));
            }
        }
        let took = t.stop();
        // Check what set-up received against a fresh mirror.
        let mut mirror = Mirror::new(Arc::clone(&base), remote.version);
        let mut jobs = jobs.into_iter();
        for (i, (batch, reply)) in warm_batches.iter().zip(replies).enumerate() {
            let followed = reply
                .map_err(|e| format!("warm-up update failed: {e}"))
                .and_then(|r| mirror.follow(batch, &r));
            match followed {
                Ok(()) => out.op(true),
                Err(e) => out.wrong(e),
            }
            if i > 0 {
                let g = mirror.flat();
                let components = st_graph::validate::count_components(&g);
                let ok = jobs.next().is_some_and(|j| {
                    j.is_ok_and(|j| check_forest(&mut out, &g, &j.forest, components))
                });
                out.op(ok);
            }
        }
        Ok(((live, conn, mirror, remote.id), took))
    })?;
    let pings = match tracer {
        Some(_) => ping_rtts(&mut conn, 200, &mut out),
        None => Vec::new(),
    };

    let job_seed = derive(seed, "jobs");
    let budget = cfg.budget(LOOP_SHARE);
    let min_iterations = cfg.pick(stats::min_samples(TAIL_LEVEL), 20);
    let traced_iterations = cfg.pick(300, 10);
    let (mut update_ms, mut job_ms, mut iteration_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut stick = Samples::default();
    let mut updates: Vec<UpdateOp> = Vec::new();
    let mut jobs: Vec<JobOp> = Vec::new();
    let mut lag = Duration::ZERO;
    let mut last_done: Option<Instant> = None;
    let start = Instant::now();
    for k in 0u64.. {
        let enough = match tracer {
            Some(_) => k >= traced_iterations,
            None => start.elapsed() >= budget && job_ms.len() >= min_iterations,
        };
        if enough
            || out.wrong.is_some()
            || start.elapsed() >= 3 * budget.max(Duration::from_secs(1))
        {
            break;
        }
        let sent = Instant::now();
        if let Some(prev) = last_done {
            lag = lag.max(sent - prev);
        }
        let batch = stream.next_batch();
        let Some((update, reply)) = wire_update(
            &mut conn,
            graph_id,
            &mut mirror,
            batch,
            2 * k,
            tracer,
            &mut out,
        ) else {
            last_done = Some(Instant::now());
            continue;
        };
        let remote = RemoteGraph {
            id: graph_id,
            version: mirror.version,
        };
        let req = SubmitRequest::new(remote).seed(job_seed.wrapping_add(k));
        let job = wire_job(&mut conn, req);
        last_done = Some(Instant::now());
        let g = mirror.flat();
        let components = take_sample(&mut stick, &mut echo, &g)?;
        if reply.components as usize != components {
            out.wrong(format!(
                "maintained forest has {} components, the graph {components}",
                reply.components
            ));
        }
        match job {
            Ok(job) => {
                let ok = check_forest(&mut out, &g, &job.forest, components);
                out.op(ok);
                update_ms.push(millis(update.rtt));
                job_ms.push(millis(job.rtt()));
                iteration_ms.push(millis(update.rtt + job.rtt()));
                if let Some(t) = tracer {
                    let traced = k % 2 == 0;
                    if traced {
                        trace_wire_job(t, 2 * k + 1, &job);
                    }
                    jobs.push(JobOp::new(2 * k + 1, 0, &req, &job, traced));
                }
            }
            Err(e) => {
                eprintln!("update-read: job failed: {e}");
                out.op(false);
            }
        }
        updates.push(update);
    }

    let Some(tracer) = tracer else {
        eprintln!(
            "update-read: update p50 {:.4} ms",
            median_of("updates", &update_ms)?
        );
        let seen = Seen {
            setup,
            bfs_ms: yardstick_of("the updated graph", &stick)?,
            job_p50_ms: median_of("jobs", &job_ms)?,
            job_tail_ms: stats::tail(&job_ms, TAIL_LEVEL)
                .expect("jobs were measured")
                .0,
            tail_level: TAIL_LEVEL,
            ops_per_s: closed_loop_rate("iterations", &iteration_ms)?,
        };
        seen.report("update-read", &mut out)?;
        return Ok(out);
    };

    let mut layers = Layers::default();
    layers.pings(&pings);
    layers.wire_jobs(&jobs);
    layers.wire_updates(&updates);
    layers.wire_service(&live.svc.snapshot());
    layers.set("gen.lag_ms", millis(lag));
    layers.set("gen.ops", (jobs.len() + updates.len()) as f64);
    drop(conn);
    drop(live);

    // Replay in wire order: each update, then the read of its version.
    let mut rep = Replayer::new(layers);
    let id = rep.register(&base);
    let team = rep.team_sizes();
    let mut dynr = DynReplay::seed(&base, &team, rep.layers_mut());
    let mut view = GraphView::Flat(Arc::clone(&base));
    let apply = |view: &mut GraphView, batch| -> Result<(), String> {
        *view = view.apply(batch).map_err(|e| e.to_string())?.0;
        Ok(())
    };
    for (i, batch) in warm_batches.iter().enumerate() {
        rep.apply(id, batch, None, tracer, &mut out);
        dynr.step(
            batch,
            u64::MAX - i as u64,
            tracer,
            rep.layers_mut(),
            &mut out,
        );
        apply(&mut view, batch)?;
    }
    let mut reads = jobs.iter().peekable();
    for update in &updates {
        rep.apply(id, &update.batch, Some(update.op_id), tracer, &mut out);
        dynr.step(
            &update.batch,
            update.op_id,
            tracer,
            rep.layers_mut(),
            &mut out,
        );
        apply(&mut view, &update.batch)?;
        if let Some(job) = reads.next_if(|j| j.op_id == update.op_id + 1) {
            let g = view.materialize();
            view = GraphView::Flat(Arc::clone(&g));
            let components = st_graph::validate::count_components(&g);
            rep.job(id, &g, components, job, tracer, &mut out);
        }
    }
    dynr.finish(&mut out);
    let mut layers = rep.into_layers();
    layers.smp_probes(&team);
    layers.finish(&mut out)?;
    Ok(out)
}
