//! `random-dense` and `fig3-sparse`: one large graph, one client in a
//! closed loop, every job with a fresh seed so it misses the result
//! cache and runs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use st_graph::gen;
use st_service::net::SubmitRequest;
use st_service::service::DEFAULT_RESULT_CACHE_CAPACITY;

use super::replay::{DynReplay, Layers, Replayer};
use super::{
    check_forest, closed_loop_rate, median_of, millis, ping_rtts, repeated_setup, start_echo,
    take_sample, trace_wire_job, update_probe, wire_job, yardstick_of, JobOp, Live, ProbePlan,
    RunCfg, Seen, SetupClock,
};
use crate::registry::Outcome;
use crate::rng::derive;
use crate::stats;
use crate::trace::Tracer;
use crate::yardstick::Samples;

/// The two large inputs.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Kind {
    /// `random_connected(2^20, +4n)`: one component, ~5.2M edges.
    Dense,
    /// `random_gnm(2^20, 1.5n)`, the paper's Fig. 3 input.
    Sparse,
}

/// Set-ups per run (`setup_s` is their median). One takes over a
/// second.
const SETUP_REPS: usize = 3;

/// Jobs each set-up runs before it counts as done.
const WARM_UP_JOBS: u64 = 3;

/// Percentile the job tail (printed on stderr) is read at: the highest
/// that keeps ten of the ~64 jobs a run affords beyond it (p90 would
/// need 100 jobs, ~30 s per run on a 2-core host).
const TAIL_LEVEL: f64 = 0.8;

/// Share of `--seconds` the job loop runs for.
const JOB_SHARE: f64 = 0.9;

/// The job loop stops at this multiple of its share even short of its
/// floor of jobs, so that a slow host (or a server failing every job)
/// lengthens the loop by half at most.
const JOB_CAP: f64 = 1.5;

/// Share of `--seconds` a traced run's update probe is paced over.
const PROBE_SHARE: f64 = 0.1;

/// One yardstick sample is taken after every this many jobs, so the
/// denominator samples the machine across the run as the jobs do.
const STICK_EVERY: u64 = 5;

/// Op ids of the update probe start here (job ops count from 0).
const PROBE_OPS: u64 = 1 << 32;

pub(crate) fn run(kind: Kind, cfg: &RunCfg, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let label = match kind {
        Kind::Dense => "random-dense",
        Kind::Sparse => "fig3-sparse",
    };
    let seed = derive(cfg.seed, label);
    let n = 1usize << cfg.pick(20, 12);
    let g = Arc::new(match kind {
        Kind::Dense => gen::random_connected(n, 4 * n, seed),
        Kind::Sparse => gen::random_gnm(n, 3 * n / 2, seed),
    });
    let components = st_graph::validate::count_components(&g);
    let mut echo = start_echo()?;
    let mut out = Outcome::default();

    let warm_seed = derive(seed, "warm-up");
    let ((live, mut conn, remote), setup) = repeated_setup(SETUP_REPS, || {
        let t = SetupClock::start();
        let live = Live::start()?;
        let mut conn = live.connect()?;
        let remote = conn
            .register(&g)
            .map_err(|e| format!("registering the graph: {e}"))?;
        let warm: Vec<_> = (0..WARM_UP_JOBS)
            .map(|k| wire_job(&mut conn, SubmitRequest::new(remote).seed(warm_seed + k)))
            .collect();
        let took = t.stop();
        for job in warm {
            let ok = job.is_ok_and(|j| check_forest(&mut out, &g, &j.forest, components));
            out.op(ok);
        }
        Ok(((live, conn, remote), took))
    })?;
    let pings = match tracer {
        Some(_) => ping_rtts(&mut conn, 200, &mut out),
        None => Vec::new(),
    };

    // The job loop. Untraced runs measure for their share of the time
    // and, up to `JOB_CAP`, until the service's result cache is full and
    // the tail has ten samples beyond it; traced runs send a fixed,
    // smaller number of jobs. The cached forests (4 MiB each at 2^20
    // vertices) are most of `peak_rss_mb`, which would otherwise rise
    // with the number of jobs a run happened to fit.
    let job_seed = derive(seed, "jobs");
    let budget = cfg.budget(JOB_SHARE);
    let cap = budget.max(Duration::from_secs(1)).mul_f64(JOB_CAP);
    let min_jobs = cfg.pick(
        DEFAULT_RESULT_CACHE_CAPACITY.max(stats::min_samples(TAIL_LEVEL)),
        5,
    );
    let traced_jobs = cfg.pick(30, 4);
    let mut rtts = Vec::new();
    let mut stick = Samples::default();
    let mut ops = Vec::new();
    let mut lag = Duration::ZERO;
    let mut last_done = None;
    let start = Instant::now();
    for k in 0u64.. {
        let enough = match tracer {
            Some(_) => k >= traced_jobs,
            None => start.elapsed() >= budget && rtts.len() >= min_jobs,
        };
        if enough || start.elapsed() >= cap {
            break;
        }
        let req = SubmitRequest::new(remote).seed(job_seed.wrapping_add(k));
        match wire_job(&mut conn, req) {
            Ok(job) => {
                if let Some(prev) = last_done {
                    lag = lag.max(job.sent - prev);
                }
                last_done = Some(job.done);
                rtts.push(millis(job.rtt()));
                if let Some(t) = tracer {
                    let traced = k % 2 == 0;
                    if traced {
                        trace_wire_job(t, k, &job);
                    }
                    ops.push(JobOp::new(k, 0, &req, &job, traced));
                }
                let ok = check_forest(&mut out, &g, &job.forest, components);
                out.op(ok);
                if tracer.is_none() && k % STICK_EVERY == 0 {
                    take_sample(&mut stick, &mut echo, &g)?;
                }
            }
            Err(e) => {
                eprintln!("{label}: job failed: {e}");
                out.op(false);
                last_done = Some(Instant::now());
            }
        }
    }
    let Some(tracer) = tracer else {
        let seen = Seen {
            setup,
            bfs_ms: yardstick_of("the jobs' graph", &stick)?,
            job_p50_ms: median_of("jobs", &rtts)?,
            job_tail_ms: stats::tail(&rtts, TAIL_LEVEL)
                .expect("jobs were measured")
                .0,
            tail_level: TAIL_LEVEL,
            ops_per_s: closed_loop_rate("jobs", &rtts)?,
        };
        seen.report(label, &mut out)?;
        return Ok(out);
    };

    // Most sparse-graph updates join the giant component and take the
    // full-recompute path (~0.7 s each), hence fewer there.
    let (bursts, per_burst) = match kind {
        Kind::Dense => (9, 11),
        Kind::Sparse => (7, 1),
    };
    let plan = ProbePlan {
        seed: derive(seed, "updates"),
        bursts: cfg.pick(bursts, 3),
        per_burst: cfg.pick(per_burst, 1),
        span: cfg.budget(PROBE_SHARE),
        first_op: PROBE_OPS,
    };
    let probe = update_probe(&mut conn, remote.id, &g, &plan, tracer, &mut out)?;

    let mut layers = Layers::default();
    layers.pings(&pings);
    layers.wire_jobs(&ops);
    layers.wire_updates(&probe.ops);
    layers.wire_service(&live.svc.snapshot());
    layers.set("gen.lag_ms", millis(lag));
    layers.set("gen.ops", ops.len() as f64);
    // Quiet the machine before replaying below the wire.
    drop(conn);
    drop(live);

    let mut rep = Replayer::new(layers);
    let id = rep.register(&g);
    for op in &ops {
        rep.job(id, &g, components, op, tracer, &mut out);
    }
    rep.apply(id, &probe.seed_batch, None, tracer, &mut out);
    for op in &probe.ops {
        rep.apply(id, &op.batch, Some(op.op_id), tracer, &mut out);
    }
    let team = rep.team_sizes();
    let mut layers = rep.into_layers();
    let mut dynr = DynReplay::seed(&g, &team, &mut layers);
    dynr.step(&probe.seed_batch, PROBE_OPS, tracer, &mut layers, &mut out);
    for op in &probe.ops {
        dynr.step(&op.batch, op.op_id, tracer, &mut layers, &mut out);
    }
    dynr.finish(&mut out);
    layers.smp_probes(&team);
    layers.finish(&mut out)?;
    Ok(out)
}
