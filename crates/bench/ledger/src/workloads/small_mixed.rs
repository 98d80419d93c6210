//! `small-mixed`: many small jobs from independent tenants on two
//! connections. Core work per job is tiny, so the wire, admission, the
//! lanes' deficit round-robin, dispatch and the result cache carry the
//! cost.
//!
//! Untraced runs compare the service with the reference service
//! (`reference.rs`) by the CPU time their server side spends per job,
//! in an open loop (jobs arriving one at a time at a fixed rate, so
//! each one wakes an idle server) and in a closed loop (each connection
//! sending its next job as soon as the last one returns). Both loops run
//! in short pieces that alternate between the two services, so that
//! both meet the host in the same states.
//!
//! Why CPU time: a small job takes a few hundred microseconds, mostly
//! thread wake-ups. On a shared virtual machine a wake-up waits for the
//! hypervisor to run the woken virtual CPU, which takes from
//! microseconds to milliseconds as the other tenants' load comes and
//! goes; the job's wall time follows that load, not the service, and
//! even its ratio to the reference's did not settle within ±10% from run
//! to run. CPU time leaves the waiting out and keeps the work, which on
//! a dedicated host is most of a small job's latency and all of what
//! limits its throughput. Wall times go to stderr.

use std::sync::Arc;
use std::time::{Duration, Instant};

use st_graph::{gen, CsrGraph};
use st_service::net::{Client, RemoteGraph, SubmitRequest};
use st_service::Priority;

use super::replay::{DynReplay, Layers, Replayer};
use super::{
    check_forest, median_of, millis, ping_rtts, repeated_setup, trace_wire_job, update_probe,
    wire_job, JobOp, Live, ProbePlan, Ratios, RunCfg, SetupClock, SetupTime,
};
use crate::host::{process_cpu, thread_cpu};
use crate::load::{open_loop, poisson_schedule, Sample};
use crate::reference::{RefClient, Reference};
use crate::registry::Outcome;
use crate::rng::{derive, Rng};
use crate::stats;
use crate::trace::Tracer;

/// Client connections, one generator thread each.
const CONNECTIONS: usize = 2;

/// Offered rate of the open loop, jobs per second over all connections:
/// a twentieth of what the two connections complete back to back, so
/// that jobs arrive at an idle server even while the shared host runs
/// at a third of its usual speed.
const RATE: f64 = 250.0;

/// Shares of `--seconds`: the open loop, then the closed loop.
const OPEN_SHARE: f64 = 0.6;
const CLOSED_SHARE: f64 = 0.3;

/// Share of `--seconds` a traced run's update probe is paced over.
const PROBE_SHARE: f64 = 0.1;

/// Pairs of pieces, one on each service, the open and the closed loop
/// run in.
const OPEN_PAIRS: u64 = 10;
const CLOSED_PAIRS: u64 = 10;

/// Set-ups per run. One takes a few milliseconds, so a share of a
/// scheduler tick or a cache refill moves it visibly.
const SETUP_REPS: usize = 9;

/// Seeds per graph that repeated submissions draw from.
const REUSED_SEEDS: usize = 4;

/// Graph the update probe mutates (the largest G(n, m) one).
const PROBE_GRAPH: usize = 2;

/// The probe times `PROBE_BURSTS` bursts of `PROBE_BURST_UPDATES`
/// updates.
const PROBE_BURSTS: usize = 9;
const PROBE_BURST_UPDATES: usize = 22;

/// Op ids of the update probe start here (job op ids carry a phase tag
/// below bit 48).
const PROBE_OPS: u64 = 1 << 48;

/// The eight catalog graphs: G(n, 1.5n), tori and connected random
/// graphs at n = 2^10..2^12 (2^6..2^8 in smoke runs).
fn graphs(seed: u64, smoke: bool) -> Vec<Arc<CsrGraph>> {
    let shift = if smoke { 4 } else { 0 };
    let n = |log2: u32| 1usize << (log2 - shift);
    let side = |log2: u32| 1usize << ((log2 - shift) / 2);
    let s = |i: u64| derive(seed, "graph").wrapping_add(i);
    [
        gen::random_gnm(n(10), 3 * n(10) / 2, s(0)),
        gen::random_gnm(n(11), 3 * n(11) / 2, s(1)),
        gen::random_gnm(n(12), 3 * n(12) / 2, s(2)),
        gen::torus2d(side(10), side(10)),
        gen::torus2d(side(12), side(12)),
        gen::random_connected(n(10), n(10), s(5)),
        gen::random_connected(n(11), n(11), s(6)),
        gen::random_connected(n(12), n(12), s(7)),
    ]
    .into_iter()
    .map(Arc::new)
    .collect()
}

/// One job of the mix.
#[derive(Clone, Copy, Debug)]
struct MixOp {
    graph: usize,
    seed: u64,
    tenant: u64,
    priority: Priority,
}

/// The job mix: a uniform graph; half the time one of its reused seeds
/// (so the cache can answer), else a fresh one; one of four tenants;
/// lanes 20/60/20 high/normal/low.
#[derive(Clone)]
struct Mix {
    rng: Rng,
    reused: Vec<[u64; REUSED_SEEDS]>,
    fresh: u64,
}

impl Mix {
    fn new(seed: u64, graphs: usize) -> Self {
        let mut rng = Rng::new(derive(seed, "reused seeds"));
        let reused = (0..graphs)
            .map(|_| std::array::from_fn(|_| rng.next_u64()))
            .collect();
        Self {
            rng: Rng::new(derive(seed, "mix")),
            reused,
            fresh: derive(seed, "fresh seeds"),
        }
    }

    /// An independent stream over the same reused seeds.
    fn fork(&mut self) -> Self {
        Self {
            rng: Rng::new(self.rng.next_u64()),
            reused: self.reused.clone(),
            fresh: self.rng.next_u64(),
        }
    }

    fn next(&mut self) -> MixOp {
        let graph = self.rng.below(self.reused.len() as u64) as usize;
        let seed = if self.rng.unit() < 0.5 {
            self.reused[graph][self.rng.below(REUSED_SEEDS as u64) as usize]
        } else {
            self.fresh = self.fresh.wrapping_add(1);
            self.fresh
        };
        let tenant = self.rng.below(4);
        let lane = self.rng.unit();
        let priority = if lane < 0.2 {
            Priority::High
        } else if lane < 0.8 {
            Priority::Normal
        } else {
            Priority::Low
        };
        MixOp {
            graph,
            seed,
            tenant,
            priority,
        }
    }
}

/// The registered graphs, as both services know them.
struct Catalog<'a> {
    graphs: &'a [Arc<CsrGraph>],
    components: &'a [usize],
    remotes: &'a [RemoteGraph],
}

/// One client thread's share of a piece.
#[derive(Default)]
struct Worker {
    tally: Outcome,
    samples: Vec<Sample>,
    ops: Vec<JobOp>,
    completed: usize,
    /// CPU time the thread used.
    cpu: Duration,
    /// What went wrong with the reference, which ends the run.
    broken: Option<String>,
}

impl Worker {
    /// Sends one job of the mix to the service and checks its forest.
    fn send(
        &mut self,
        conn: &mut Client,
        cat: &Catalog<'_>,
        op: MixOp,
        op_id: u64,
        tracer: Option<&Tracer>,
    ) -> bool {
        let req = SubmitRequest::new(cat.remotes[op.graph])
            .seed(op.seed)
            .tenant(op.tenant)
            .priority(op.priority);
        let job = match wire_job(conn, req) {
            Ok(job) => job,
            Err(e) => {
                eprintln!("small-mixed: job failed: {e}");
                self.tally.op(false);
                return false;
            }
        };
        if let Some(t) = tracer {
            let traced = op_id.is_multiple_of(2);
            if traced {
                trace_wire_job(t, op_id, &job);
            }
            self.ops
                .push(JobOp::new(op_id, op.graph, &req, &job, traced));
        }
        let g = &cat.graphs[op.graph];
        let ok = check_forest(&mut self.tally, g, &job.forest, cat.components[op.graph]);
        self.tally.op(ok);
        self.completed += usize::from(ok);
        ok
    }

    /// Sends the same job to the reference and checks its forest just
    /// as carefully, so that both services leave their client the same
    /// work.
    fn send_ref(&mut self, conn: &mut RefClient, cat: &Catalog<'_>, op: MixOp) -> bool {
        let g = &cat.graphs[op.graph];
        let checked = conn
            .job(op.graph)
            .map_err(|e| format!("reference job failed: {e}"))
            .and_then(|(parents, roots)| {
                crate::check::forest(g, &parents, &roots, cat.components[op.graph])
                    .map_err(|e| format!("wrong reference forest: {e}"))
            });
        match checked {
            Ok(()) => {
                self.completed += 1;
                true
            }
            Err(e) => {
                self.broken.get_or_insert(e);
                false
            }
        }
    }
}

/// What one piece measured.
#[derive(Default)]
struct Piece {
    samples: Vec<Sample>,
    ops: Vec<JobOp>,
    completed: usize,
    /// CPU time the process used outside the client threads: the server
    /// side.
    server_cpu: Duration,
    wall: Duration,
}

/// Runs `body` once per connection, each on its own thread, merges the
/// threads' tallies into `out`, and returns what they measured. Fails
/// if the reference broke.
fn on_each_connection<C: Send>(
    conns: &mut [C],
    out: &mut Outcome,
    body: impl Fn(usize, &mut C) -> Worker + Sync,
) -> Result<Piece, String> {
    let (cpu, start) = (process_cpu(), Instant::now());
    let per_thread: Vec<Worker> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let body = &body;
                s.spawn(move || {
                    let cpu = thread_cpu();
                    let mut me = body(c, conn);
                    me.cpu = thread_cpu() - cpu;
                    me
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let mut piece = Piece {
        server_cpu: process_cpu() - cpu,
        wall: start.elapsed(),
        ..Piece::default()
    };
    for t in per_thread {
        if let Some(e) = t.broken {
            return Err(e);
        }
        out.absorb(t.tally);
        piece.samples.extend(t.samples);
        piece.ops.extend(t.ops);
        piece.completed += t.completed;
        piece.server_cpu = piece.server_cpu.saturating_sub(t.cpu);
    }
    Ok(piece)
}

/// One piece of the open loop: [`RATE`] jobs per second over all
/// connections for `span`, each connection on its own Poisson schedule,
/// each job sent by `send(worker, conn, op, op_id)`. `piece` keeps op
/// ids distinct across calls.
fn open_piece<C: Send>(
    conns: &mut [C],
    mix: &mut Mix,
    span: Duration,
    piece: u64,
    out: &mut Outcome,
    send: impl Fn(&mut Worker, &mut C, MixOp, u64) -> bool + Sync,
) -> Result<Piece, String> {
    let plans: Vec<(Vec<Duration>, Vec<MixOp>)> = (0..conns.len())
        .map(|_| {
            let mut rng = Rng::new(derive(mix.rng.next_u64(), "arrivals"));
            let due = poisson_schedule(RATE / conns.len() as f64, span, &mut rng);
            let ops = due.iter().map(|_| mix.next()).collect();
            (due, ops)
        })
        .collect();
    // Leave the threads time to start before the first job is due.
    let start = Instant::now() + Duration::from_millis(5);
    on_each_connection(conns, out, |c, conn| {
        let (due, ops) = &plans[c];
        let mut me = Worker::default();
        me.samples = open_loop(start, due, |i| {
            let op_id = (piece << 40) | ((c as u64) << 32) | i as u64;
            send(&mut me, conn, ops[i], op_id)
        });
        me
    })
}

/// One piece of the closed loop: each connection sends jobs back to
/// back for `span`.
fn closed_piece<C: Send>(
    conns: &mut [C],
    mix: &mut Mix,
    span: Duration,
    out: &mut Outcome,
    send: impl Fn(&mut Worker, &mut C, MixOp) -> bool + Sync,
) -> Result<Piece, String> {
    let mixes: Vec<Mix> = (0..conns.len()).map(|_| mix.fork()).collect();
    let start = Instant::now();
    on_each_connection(conns, out, |c, conn| {
        let mut mix = mixes[c].clone();
        let mut me = Worker::default();
        while start.elapsed() < span {
            send(&mut me, conn, mix.next());
        }
        me
    })
}

/// Which service a piece sends its jobs to.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    Service,
    Reference,
}

/// The connections to both services.
struct Ends<'a> {
    cat: Catalog<'a>,
    conns: Vec<Client>,
    refs: Vec<RefClient>,
}

impl Ends<'_> {
    /// One piece of the open loop on `side`.
    fn open(
        &mut self,
        side: Side,
        mix: &mut Mix,
        span: Duration,
        piece: u64,
        tracer: Option<&Tracer>,
        out: &mut Outcome,
    ) -> Result<Piece, String> {
        let cat = &self.cat;
        match side {
            Side::Service => open_piece(&mut self.conns, mix, span, piece, out, |me, c, op, id| {
                me.send(c, cat, op, id, tracer)
            }),
            Side::Reference => open_piece(&mut self.refs, mix, span, piece, out, |me, c, op, _| {
                me.send_ref(c, cat, op)
            }),
        }
    }

    /// One piece of the closed loop on `side`.
    fn closed(
        &mut self,
        side: Side,
        mix: &mut Mix,
        span: Duration,
        out: &mut Outcome,
    ) -> Result<Piece, String> {
        let cat = &self.cat;
        match side {
            Side::Service => closed_piece(&mut self.conns, mix, span, out, |me, c, op| {
                me.send(c, cat, op, 0, None)
            }),
            Side::Reference => closed_piece(&mut self.refs, mix, span, out, |me, c, op| {
                me.send_ref(c, cat, op)
            }),
        }
    }
}

/// Server-side CPU time per completed job, in microseconds.
fn cpu_per_job_us(server_cpu: Duration, completed: usize) -> Result<f64, String> {
    if completed == 0 {
        return Err("a piece completed no jobs".to_owned());
    }
    Ok(server_cpu.as_secs_f64() * 1e6 / completed as f64)
}

/// One service's share of a loop: its pieces summed.
#[derive(Default)]
struct Totals {
    latencies_ms: Vec<f64>,
    completed: usize,
    server_cpu: Duration,
    wall: Duration,
}

impl Totals {
    fn add(&mut self, piece: Piece) {
        self.latencies_ms.extend(
            piece
                .samples
                .iter()
                .filter(|s| s.ok)
                .map(|s| millis(s.latency)),
        );
        self.completed += piece.completed;
        self.server_cpu += piece.server_cpu;
        self.wall += piece.wall;
    }

    fn cpu_per_job_us(&self) -> Result<f64, String> {
        cpu_per_job_us(self.server_cpu, self.completed)
    }

    fn jobs_per_s(&self) -> f64 {
        self.completed as f64 / self.wall.as_secs_f64()
    }
}

/// What a loop measured: the service's totals and the reference's, and
/// the median over pairs of pieces of the reference's CPU time per job
/// divided by the service's.
struct Paired {
    service: Totals,
    reference: Totals,
    ratio: f64,
}

/// Runs `pairs` pairs of pieces, one on each service. The pairs take
/// turns at going first, so that neither service always meets the host
/// a piece later.
fn alternate(
    ends: &mut Ends<'_>,
    pairs: u64,
    mut piece: impl FnMut(&mut Ends<'_>, Side, u64) -> Result<Piece, String>,
) -> Result<Paired, String> {
    let mut totals: [Totals; 2] = Default::default();
    let mut ratios = Vec::new();
    for pair in 0..pairs {
        let order = if pair.is_multiple_of(2) {
            [Side::Service, Side::Reference]
        } else {
            [Side::Reference, Side::Service]
        };
        let mut cpu = [0.0; 2];
        for side in order {
            let p = piece(ends, side, pair)?;
            let k = usize::from(side == Side::Reference);
            cpu[k] = cpu_per_job_us(p.server_cpu, p.completed)?;
            totals[k].add(p);
        }
        ratios.push(cpu[1] / cpu[0]);
    }
    let [service, reference] = totals;
    Ok(Paired {
        service,
        reference,
        ratio: median_of("pairs of pieces", &ratios)?,
    })
}

/// The end-to-end metrics of an untraced run.
fn compare(
    ends: &mut Ends<'_>,
    mix: &mut Mix,
    cfg: &RunCfg,
    setup: SetupTime,
    out: &mut Outcome,
) -> Result<Ratios, String> {
    let pairs = cfg.pick(OPEN_PAIRS, 2);
    let span = cfg.budget(OPEN_SHARE / (2 * pairs) as f64);
    let open = alternate(ends, pairs, |ends, side, pair| {
        ends.open(side, mix, span, pair, None, out)
    })?;
    let pairs = cfg.pick(CLOSED_PAIRS, 2);
    let span = cfg.budget(CLOSED_SHARE / (2 * pairs) as f64);
    let closed = alternate(ends, pairs, |ends, side, _| {
        ends.closed(side, mix, span, out)
    })?;

    let p90 = |t: &Totals| stats::tail(&t.latencies_ms, 0.9).map_or(f64::NAN, |(v, _)| v);
    eprintln!(
        "small-mixed: open loop p50 {:.4} ms, p90 {:.4} ms (reference {:.4}, {:.4}); closed \
         loop {:.2} jobs/s (reference {:.2}); server CPU per job: open {:.2} us (reference \
         {:.2}), closed {:.2} us (reference {:.2}); set-up {:.4} s CPU, {:.4} s wall",
        median_of("jobs", &open.service.latencies_ms)?,
        p90(&open.service),
        median_of("reference jobs", &open.reference.latencies_ms)?,
        p90(&open.reference),
        closed.service.jobs_per_s(),
        closed.reference.jobs_per_s(),
        open.service.cpu_per_job_us()?,
        open.reference.cpu_per_job_us()?,
        closed.service.cpu_per_job_us()?,
        closed.reference.cpu_per_job_us()?,
        setup.cpu_s,
        setup.wall_s,
    );
    Ok(Ratios {
        setup,
        speedup: open.ratio,
        throughput: closed.ratio,
    })
}

pub(crate) fn run(cfg: &RunCfg, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let seed = derive(cfg.seed, "small-mixed");
    let graphs = graphs(seed, cfg.smoke);
    let components: Vec<usize> = graphs
        .iter()
        .map(|g| st_graph::validate::count_components(g))
        .collect();
    let mut out = Outcome::default();

    let warm_seed = derive(seed, "warm-up");
    let ((live, mut conns, remotes), setup) = repeated_setup(SETUP_REPS, || {
        let t = SetupClock::start();
        let live = Live::start()?;
        let mut conns = (0..CONNECTIONS)
            .map(|_| live.connect())
            .collect::<Result<Vec<_>, _>>()?;
        let remotes = graphs
            .iter()
            .map(|g| conns[0].register(g))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("registering a graph: {e}"))?;
        let warm: Vec<_> = remotes
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                wire_job(
                    &mut conns[0],
                    SubmitRequest::new(r).seed(warm_seed + i as u64),
                )
            })
            .collect();
        let took = t.stop();
        for (i, job) in warm.into_iter().enumerate() {
            let ok =
                job.is_ok_and(|j| check_forest(&mut out, &graphs[i], &j.forest, components[i]));
            out.op(ok);
        }
        Ok(((live, conns, remotes), took))
    })?;
    let pings = match tracer {
        Some(_) => ping_rtts(&mut conns[0], 200, &mut out),
        None => Vec::new(),
    };
    let mut mix = Mix::new(seed, graphs.len());
    let cat = Catalog {
        graphs: &graphs,
        components: &components,
        remotes: &remotes,
    };

    let Some(tracer) = tracer else {
        let (reference, refs) = Reference::start(graphs.clone(), CONNECTIONS)
            .map_err(|e| format!("starting the reference service: {e}"))?;
        let mut ends = Ends { cat, conns, refs };
        let ratios = compare(&mut ends, &mut mix, cfg, setup, &mut out)?;
        drop(ends);
        drop(reference);
        ratios.report(&mut out)?;
        return Ok(out);
    };

    // Traced runs send a fixed number of jobs to the service alone.
    let mut ends = Ends {
        cat,
        conns,
        refs: Vec::new(),
    };
    let span = Duration::from_secs_f64(cfg.pick(2000.0, 100.0) / RATE);
    let open = ends.open(Side::Service, &mut mix, span, 0, Some(tracer), &mut out)?;
    let mut conns = ends.conns;
    let lag = open
        .samples
        .iter()
        .map(|s| s.lateness)
        .max()
        .unwrap_or_default();

    let plan = ProbePlan {
        seed: derive(seed, "updates"),
        bursts: cfg.pick(PROBE_BURSTS, 3),
        per_burst: cfg.pick(PROBE_BURST_UPDATES, 1),
        span: cfg.budget(PROBE_SHARE),
        first_op: PROBE_OPS,
    };
    let probe = update_probe(
        &mut conns[0],
        remotes[PROBE_GRAPH].id,
        &graphs[PROBE_GRAPH],
        &plan,
        tracer,
        &mut out,
    )?;

    let mut ops = open.ops;
    ops.sort_by_key(|o| o.sent);
    let mut layers = Layers::default();
    layers.pings(&pings);
    layers.wire_jobs(&ops);
    layers.wire_updates(&probe.ops);
    layers.wire_service(&live.svc.snapshot());
    layers.set("gen.lag_ms", millis(lag));
    layers.set("gen.ops", ops.len() as f64);
    drop(conns);
    drop(live);

    let mut rep = Replayer::new(layers);
    let ids: Vec<_> = graphs.iter().map(|g| rep.register(g)).collect();
    for op in &ops {
        rep.job(
            ids[op.graph],
            &graphs[op.graph],
            components[op.graph],
            op,
            tracer,
            &mut out,
        );
    }
    let probe_id = ids[PROBE_GRAPH];
    rep.apply(probe_id, &probe.seed_batch, None, tracer, &mut out);
    for op in &probe.ops {
        rep.apply(probe_id, &op.batch, Some(op.op_id), tracer, &mut out);
    }
    let team = rep.team_sizes();
    let mut layers = rep.into_layers();
    let mut dynr = DynReplay::seed(&graphs[PROBE_GRAPH], &team, &mut layers);
    dynr.step(&probe.seed_batch, PROBE_OPS, tracer, &mut layers, &mut out);
    for op in &probe.ops {
        dynr.step(&op.batch, op.op_id, tracer, &mut layers, &mut out);
    }
    dynr.finish(&mut out);
    layers.smp_probes(&team);
    layers.finish(&mut out)?;
    Ok(out)
}
