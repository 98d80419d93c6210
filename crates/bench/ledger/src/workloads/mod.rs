//! The four workloads and what they share: the server under test, the
//! wire job, the update stream and its local mirror.
//!
//! Every workload builds the server exactly as a user would get it —
//! `Service::builder().build()` behind `ServerConfig::default()` — and
//! drives it through `st_service::net::Client` over loopback. The
//! program only ever receives generated inputs; every forest that comes
//! back is checked against the graph it was asked about.

mod large;
mod replay;
mod small_mixed;
mod update_read;

use std::sync::Arc;
use std::time::{Duration, Instant};

use st_graph::{CsrGraph, EdgeBatch, GraphView, VertexId};
use st_service::net::{
    Client, RemoteForest, RemoteUpdate, Server, ServerConfig, SubmitRequest, WireError,
};
use st_service::{Priority, Service};

use crate::check;
use crate::registry::Outcome;
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::yardstick::{Echo, Samples};

/// Edits per update batch: three insertions to one deletion.
const BATCH_EDITS: usize = 16;

/// One run's parameters, all from the command line.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Every input derives from this.
    pub seed: u64,
    /// How long the timed phases run.
    pub seconds: f64,
    /// Tiny inputs and counts, for the self-test.
    pub smoke: bool,
}

impl RunCfg {
    /// The run's measuring time, as a duration scaled by `share`.
    fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// `full` normally, `tiny` in smoke runs.
    fn pick<T>(&self, full: T, tiny: T) -> T {
        if self.smoke {
            tiny
        } else {
            full
        }
    }
}

/// Runs one workload. `tracer` is set exactly for traced runs.
pub fn run(workload: &str, cfg: &RunCfg, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    match workload {
        "random-dense" => large::run(large::Kind::Dense, cfg, tracer),
        "fig3-sparse" => large::run(large::Kind::Sparse, cfg, tracer),
        "small-mixed" => small_mixed::run(cfg, tracer),
        "update-read" => update_read::run(cfg, tracer),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The server under test, with shipped defaults, on a loopback port.
struct Live {
    svc: Arc<Service>,
    server: Server,
}

impl Live {
    fn start() -> Result<Self, String> {
        let svc = Arc::new(Service::builder().build());
        let server = Server::start(Arc::clone(&svc), ServerConfig::default())
            .map_err(|e| format!("starting the server: {e}"))?;
        Ok(Self { svc, server })
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(self.server.local_addr()).map_err(|e| format!("connecting: {e}"))
    }
}

/// Times one set-up two ways: wall time, and the CPU time the whole
/// process (client and server threads alike) spent.
struct SetupClock {
    wall: Instant,
    cpu: Duration,
}

impl SetupClock {
    fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: crate::host::process_cpu(),
        }
    }

    fn stop(&self) -> SetupTime {
        SetupTime {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: (crate::host::process_cpu() - self.cpu).as_secs_f64(),
        }
    }
}

/// How long a set-up took, in seconds.
#[derive(Clone, Copy, Debug)]
struct SetupTime {
    wall_s: f64,
    /// What `setup_s` reports. Set-up is mostly thread start-up, loopback
    /// transfers and a few jobs, whose wall time on a shared 2-core
    /// virtual machine moved by half from one set of runs to the next
    /// with the other tenants' load; the work it takes, which is what a
    /// change moving work into set-up adds to, moves far less.
    cpu_s: f64,
}

/// Sets up `reps` times from scratch (each `setup` call returns its
/// product and how long setting up took), keeps the last product, and
/// returns the median set-up times. Each product is torn down before the
/// next set-up starts, outside the timed part, so only one server is
/// ever alive.
fn repeated_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<(T, SetupTime), String>,
) -> Result<(T, SetupTime), String> {
    let (mut wall, mut cpu) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let (product, took) = setup()?;
        wall.push(took.wall_s);
        cpu.push(took.cpu_s);
        kept = Some(product);
    }
    let median = |v: &[f64]| crate::stats::median(v).expect("at least one repetition");
    let took = SetupTime {
        wall_s: median(&wall),
        cpu_s: median(&cpu),
    };
    Ok((kept.expect("at least one repetition"), took))
}

/// A job that went over the wire.
struct WireJob {
    forest: RemoteForest,
    sent: Instant,
    submitted: Instant,
    done: Instant,
}

impl WireJob {
    fn rtt(&self) -> Duration {
        self.done - self.sent
    }

    /// Bytes of the WAIT response payload that carried the forest.
    fn forest_bytes(&self) -> usize {
        1 + 16 + 4 * (self.forest.parents.len() + self.forest.roots.len())
    }
}

/// SUBMIT then WAIT on one connection.
fn wire_job(conn: &mut Client, req: SubmitRequest) -> Result<WireJob, WireError> {
    let sent = Instant::now();
    let reply = conn.submit(req)?;
    let submitted = Instant::now();
    let forest = conn.wait(reply.ticket)?;
    Ok(WireJob {
        forest,
        sent,
        submitted,
        done: Instant::now(),
    })
}

/// What a traced run keeps of each wire job, to replay it layer by
/// layer afterwards.
#[derive(Clone, Debug)]
struct JobOp {
    op_id: u64,
    graph: usize,
    seed: u64,
    priority: Priority,
    tenant: u64,
    /// Spans were recorded for this op (every other op is left
    /// untraced, to measure what recording costs).
    traced: bool,
    sent: Instant,
    rtt: Duration,
    submit: Duration,
    wait: Duration,
    forest_bytes: usize,
}

impl JobOp {
    fn new(op_id: u64, graph: usize, req: &SubmitRequest, job: &WireJob, traced: bool) -> Self {
        Self {
            op_id,
            graph,
            seed: req.seed,
            priority: req.priority,
            tenant: req.tenant,
            traced,
            sent: job.sent,
            rtt: job.rtt(),
            submit: job.submitted - job.sent,
            wait: job.done - job.submitted,
            forest_bytes: job.forest_bytes(),
        }
    }
}

/// Records the wire spans of one traced job.
fn trace_wire_job(tracer: &Tracer, op_id: u64, job: &WireJob) {
    let root = tracer.span(op_id, "job", None, job.sent, job.done);
    tracer.span(op_id, "net.submit", Some(root), job.sent, job.submitted);
    tracer.span(op_id, "net.wait", Some(root), job.submitted, job.done);
}

/// Checks a received forest, counting the op as failed when it is wrong.
fn check_forest(out: &mut Outcome, g: &CsrGraph, forest: &RemoteForest, components: usize) -> bool {
    match check::forest(g, &forest.parents, &forest.roots, components) {
        Ok(()) => true,
        Err(e) => {
            out.wrong(format!("wrong forest: {e}"));
            false
        }
    }
}

/// The update stream: batches of [`BATCH_EDITS`] edits, three random
/// insertions to one deletion of an edge an earlier batch inserted.
struct UpdateStream {
    rng: Rng,
    n: u64,
    inserted: Vec<(VertexId, VertexId)>,
}

impl UpdateStream {
    fn new(seed: u64, n: usize) -> Self {
        Self {
            rng: Rng::new(seed),
            n: n as u64,
            inserted: Vec::new(),
        }
    }

    fn next_batch(&mut self) -> EdgeBatch {
        let mut batch = EdgeBatch::new();
        let mut fresh = Vec::new();
        for op in 0..BATCH_EDITS {
            if op % 4 == 3 && !self.inserted.is_empty() {
                let i = self.rng.below(self.inserted.len() as u64) as usize;
                let (u, v) = self.inserted.swap_remove(i);
                batch = batch.delete(u, v);
            } else {
                let u = self.rng.below(self.n) as VertexId;
                let v = self.rng.below(self.n) as VertexId;
                if u != v {
                    fresh.push((u, v));
                    batch = batch.insert(u, v);
                }
            }
        }
        self.inserted.extend(fresh);
        batch
    }
}

/// A local copy of a graph that follows the server's updates, so every
/// update reply and every later forest can be checked.
struct Mirror {
    view: GraphView,
    version: u32,
}

impl Mirror {
    fn new(g: Arc<CsrGraph>, version: u32) -> Self {
        Self {
            view: GraphView::Flat(g),
            version,
        }
    }

    /// Applies `batch` locally and checks the server's reply against it.
    fn follow(&mut self, batch: &EdgeBatch, reply: &RemoteUpdate) -> Result<(), String> {
        let (next, outcome) = self
            .view
            .apply(batch)
            .map_err(|e| format!("the update stream made an invalid batch: {e}"))?;
        let expected = (self.version + 1, outcome.edges_added, outcome.edges_removed);
        let got = (
            reply.version,
            reply.edges_added as usize,
            reply.edges_removed as usize,
        );
        if got != expected {
            return Err(format!(
                "update reply (version, added, removed) = {got:?}, expected {expected:?}"
            ));
        }
        self.view = next;
        self.version += 1;
        Ok(())
    }

    /// The current version as a flat CSR.
    fn flat(&mut self) -> Arc<CsrGraph> {
        let g = self.view.materialize();
        self.view = GraphView::Flat(Arc::clone(&g));
        g
    }
}

/// An update that went over the wire.
#[derive(Clone, Debug)]
struct UpdateOp {
    op_id: u64,
    batch: EdgeBatch,
    rtt: Duration,
    incremental: bool,
}

/// Sends one update, checks the reply against the mirror, and records
/// it (and, when traced, its span).
fn wire_update(
    conn: &mut Client,
    graph_id: u64,
    mirror: &mut Mirror,
    batch: EdgeBatch,
    op_id: u64,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> Option<(UpdateOp, RemoteUpdate)> {
    let sent = Instant::now();
    let reply = conn.update(graph_id, &batch.inserts, &batch.deletes);
    let done = Instant::now();
    let reply = match reply {
        Ok(r) => r,
        Err(e) => {
            eprintln!("update failed: {e}");
            out.op(false);
            return None;
        }
    };
    if let Err(e) = mirror.follow(&batch, &reply) {
        out.wrong(e);
        return None;
    }
    out.op(true);
    if let Some(t) = tracer {
        t.span(op_id, "net.update", None, sent, done);
    }
    let op = UpdateOp {
        op_id,
        batch,
        rtt: done - sent,
        incremental: reply.incremental,
    };
    Some((op, reply))
}

/// The updates a traced run of a read-only workload sends after its
/// jobs, so that the update path's layers are measured on its graph
/// too. The first update seeds the server's forest maintainer and is
/// not timed.
struct Probe {
    seed_batch: EdgeBatch,
    ops: Vec<UpdateOp>,
}

/// How an update probe runs: `bursts` bursts of `per_burst` timed
/// updates drawn from the stream seeded with `seed`, with op ids from
/// `first_op` on. The bursts are paced evenly over `span` (a burst whose
/// predecessor overran its slot goes out at once), which spreads the
/// samples over the host's fluctuations; within a burst the updates go
/// back to back, so few of them pay for waking an idle server thread,
/// a cost that varies more from run to run than the update itself.
/// A fixed count keeps every run's overlay the same size.
struct ProbePlan {
    seed: u64,
    bursts: usize,
    per_burst: usize,
    span: Duration,
    first_op: u64,
}

/// Runs the update probe on `graph_id` (registered from `base`), then
/// checks the final state: the maintained component count and one
/// fresh job on the latest version.
fn update_probe(
    conn: &mut Client,
    graph_id: u64,
    base: &Arc<CsrGraph>,
    plan: &ProbePlan,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<Probe, String> {
    let mut mirror = Mirror::new(Arc::clone(base), 1);
    let mut stream = UpdateStream::new(plan.seed, base.num_vertices());
    let seed_batch = stream.next_batch();
    wire_update(
        conn,
        graph_id,
        &mut mirror,
        seed_batch.clone(),
        plan.first_op,
        None,
        out,
    )
    .ok_or("the seeding update failed")?;
    let mut ops = Vec::with_capacity(plan.bursts * plan.per_burst);
    let mut last = None;
    let mut op_id = plan.first_op;
    let start = Instant::now();
    for b in 0..plan.bursts {
        let due = start + plan.span.mul_f64(b as f64 / plan.bursts as f64);
        if let Some(early) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(early);
        }
        for _ in 0..plan.per_burst {
            op_id += 1;
            let batch = stream.next_batch();
            if let Some((op, reply)) =
                wire_update(conn, graph_id, &mut mirror, batch, op_id, Some(tracer), out)
            {
                ops.push(op);
                last = Some(reply);
            }
        }
    }
    let g = mirror.flat();
    let components = st_graph::validate::count_components(&g);
    if let Some(reply) = last {
        if reply.components as usize != components {
            out.wrong(format!(
                "maintained forest has {} components, the graph {components}",
                reply.components
            ));
        }
    }
    let remote = st_service::net::RemoteGraph {
        id: graph_id,
        version: mirror.version,
    };
    match wire_job(conn, SubmitRequest::new(remote).seed(plan.seed)) {
        Ok(job) => {
            let ok = check_forest(out, &g, &job.forest, components);
            out.op(ok);
        }
        Err(e) => {
            eprintln!("job after the update probe failed: {e}");
            out.op(false);
        }
    }
    Ok(Probe { seed_batch, ops })
}

/// What a run's users saw, in raw units. The end-to-end metrics give it
/// relative to sequential BFS on the same graphs, timed in the same run:
/// the measuring host's speed drifts by tens of percent over minutes,
/// and a ratio of two times taken side by side cancels most of that
/// drift where a raw time does not. The raw numbers go to stderr.
struct Seen {
    setup: SetupTime,
    /// Yardstick time (`yardstick.rs`) of the jobs' graphs.
    bfs_ms: f64,
    job_p50_ms: f64,
    job_tail_ms: f64,
    /// The percentile `job_tail_ms` was read at.
    tail_level: f64,
    ops_per_s: f64,
}

impl Seen {
    /// Sets the end-to-end metrics.
    fn report(&self, workload: &str, out: &mut Outcome) -> Result<(), String> {
        eprintln!(
            "{workload}: job p50 {:.4} ms, p{:.0} {:.4} ms; {:.2} ops/s; yardstick {:.4} ms; \
             set-up {:.4} s CPU, {:.4} s wall",
            self.job_p50_ms,
            self.tail_level * 100.0,
            self.job_tail_ms,
            self.ops_per_s,
            self.bfs_ms,
            self.setup.cpu_s,
            self.setup.wall_s,
        );
        Ratios {
            setup: self.setup,
            speedup: self.bfs_ms / self.job_p50_ms,
            throughput: self.ops_per_s * self.bfs_ms / 1e3,
        }
        .report(out)
    }
}

/// The end-to-end metrics of a run: its set-up time and how its jobs
/// compared with the yardstick.
struct Ratios {
    setup: SetupTime,
    /// `speedup_vs_bfs`.
    speedup: f64,
    /// `throughput_vs_bfs`.
    throughput: f64,
}

impl Ratios {
    /// Sets the end-to-end metrics, with the process's peak memory.
    fn report(&self, out: &mut Outcome) -> Result<(), String> {
        out.set("setup_s", self.setup.cpu_s);
        out.set("speedup_vs_bfs", self.speedup);
        out.set("throughput_vs_bfs", self.throughput);
        out.set(
            "peak_rss_mb",
            crate::host::peak_rss_mib().ok_or("no VmHWM")?,
        );
        Ok(())
    }
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of `values`, or an error naming what had no samples.
fn median_of(what: &str, values: &[f64]) -> Result<f64, String> {
    crate::stats::median(values).ok_or_else(|| format!("no samples of {what}"))
}

/// Operations per second of a closed loop on one connection whose
/// operations took `op_ms` each, their typical time taken as the
/// yardstick takes its own (`yardstick::time_of`).
fn closed_loop_rate(what: &str, op_ms: &[f64]) -> Result<f64, String> {
    crate::yardstick::time_of(op_ms)
        .map(|ms| 1e3 / ms)
        .ok_or_else(|| format!("no samples of {what}"))
}

/// The echo peer half of the yardstick.
fn start_echo() -> Result<Echo, String> {
    Echo::start().map_err(|e| format!("starting the yardstick's echo peer: {e}"))
}

/// Takes one yardstick sample of `g`; returns its component count.
fn take_sample(samples: &mut Samples, echo: &mut Echo, g: &CsrGraph) -> Result<usize, String> {
    samples
        .take(echo, g)
        .map_err(|e| format!("yardstick round trip: {e}"))
}

/// The yardstick time of `samples`, or an error naming what had none.
fn yardstick_of(what: &str, samples: &Samples) -> Result<f64, String> {
    samples
        .time_ms()
        .ok_or_else(|| format!("no yardstick samples of {what}"))
}

/// Round trips of `count` empty PINGs, in microseconds.
fn ping_rtts(conn: &mut Client, count: usize, out: &mut Outcome) -> Vec<f64> {
    (0..count)
        .filter_map(|_| {
            let t = Instant::now();
            let ok = conn.ping(&[]).is_ok();
            out.op(ok);
            ok.then(|| micros(t.elapsed()))
        })
        .collect()
}
