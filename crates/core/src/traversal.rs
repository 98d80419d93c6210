//! The work-stealing graph-traversal engine (phase 2 of the new
//! algorithm, Alg. 1 of the paper).
//!
//! Each processor runs the modified BFS of Alg. 1 against a shared
//! visited bitmap and `parent` array; idle processors steal queue
//! segments from random victims, and the [`TerminationDetector`] turns
//! "everyone is asleep" into completion and "threshold asleep" into a
//! starvation abort.
//!
//! ## The benign race (paper §2, Fig. 1)
//!
//! Two processors may both observe a vertex `w` uncolored and both color
//! it, enqueue it, and write `parent[w]`. The paper argues this is safe:
//! whichever parent write lands last is an edge of the graph, so the
//! tree stays valid; and when `w`'s unvisited children are later claimed
//! by either copy, their parent is `w` regardless. We reproduce exactly
//! this protocol — the losing processor *also* enqueues `w` — and count
//! the collisions (`multi_colored`) to reproduce the paper's "fewer than
//! ten vertices in millions" measurement.
//!
//! "Colored" is one bit per vertex in an [`AtomicBitmap`] (128 KiB at
//! n = 2^20, where a `u32` color per vertex took 4 MiB and fell out of
//! L2). A claim tests the bit and, if it is clear, sets it with one
//! `fetch_or`; a `fetch_or` that finds the bit already set is the
//! collision above — the same event as a failed color CAS. The
//! read-modify-write is required, not a plain store: 64 vertices share
//! a word, and a separate load, OR and store of the word would let two
//! processors claiming neighbouring vertices erase each other's bit.
//!
//! ## The two-level frontier (deviation from the paper's protocol)
//!
//! The paper's protocol pushes every newly discovered vertex straight
//! into the owner's shared queue, paying one lock acquisition per vertex
//! even when nobody is stealing. This engine splits the frontier into
//! two levels:
//!
//! * **Level 1 — private buffer.** Each worker owns an unsynchronized
//!   `Vec` that newly discovered vertices land in and that the worker
//!   pops from without any atomic operation.
//! * **Level 2 — shared queue.** The per-worker [`WorkQueue`] of the
//!   paper, from which thieves steal. Surplus moves from level 1 to
//!   level 2 in one batched [`push_all`](WorkQueue::push_all) when the
//!   private buffer reaches [`TraversalConfig::publish_threshold`], or
//!   as soon as the termination detector reports sleeping processors.
//!
//! `publish_threshold = 1` publishes every discovery immediately and
//! reproduces the paper's shared-queue protocol exactly. Steal and
//! starvation semantics are unchanged in all configurations: a worker's
//! private buffer is always empty before it registers as idle with the
//! detector, so quiescence ("all asleep") still implies every vertex has
//! been processed, and sleeper-driven publication guarantees thieves see
//! any surplus before the starvation threshold can misfire.
//!
//! ## Direction-optimizing traversal (deviation from the paper)
//!
//! The paper's traversal is pure top-down: work is proportional to the
//! edges leaving the frontier. On low-diameter graphs the frontier
//! briefly spans most of the graph, and in those rounds a Beamer-style
//! *bottom-up* sweep is cheaper: every unvisited vertex scans its own
//! CSR row for *any* visited neighbor and claims itself. Spanning trees
//! make this simpler than level-synchronous BFS — any visited vertex is
//! a valid parent, no level check needed.
//!
//! With [`Direction::Hybrid`] (the default; the paper's protocol is
//! [`Direction::TopDown`]), workers maintain a frontier-size
//! estimate (shared `visited`/`drained` tallies flushed on the cancel
//! cadence) and any worker that observes
//! `frontier × ALPHA > unvisited` *and* `frontier × BETA > n` raises a
//! direction switch through the round's abort byte. The team rendezvous
//! at a barrier and runs bottom-up sweeps, partitioned by an atomic
//! chunk cursor; since the cursor hands each vertex to exactly one
//! rank, a claim cannot be lost to a race and is a relaxed `fetch_or`
//! of the vertex's bit (model-checked in st-smp's
//! `loom_models/bottom_up.rs`). Each sweep is decided by a
//! leader-written control word: rank 0 alone reads the claim tally in
//! the window between barriers and publishes run/done/switch-back/
//! cancel, so followers never race the reset. When a sweep's claims
//! fall below `n / BETA` the team switches back, reseeding each rank's
//! private buffer with its own last-sweep claims — which are exactly
//! the live frontier: any vertex still unvisited after a full sweep
//! had no visited neighbor *before* that sweep, so all its visited
//! neighbors are last-sweep claims. The same argument lets the switch
//! *into* bottom-up drop the pre-switch frontier (queues and private
//! buffers) entirely.
//!
//! The worker entry point, [`Traversal::run_worker_ctx`], takes the
//! team context the bottom-up barriers need.
//!
//! ## Engine integration
//!
//! A [`Traversal`] is a *borrowed view*: the visited bitmap and the
//! per-rank queues live in a reusable
//! [`Workspace`](crate::engine::Workspace) arena, and the
//! [`TerminationDetector`] is owned by the long-lived [`Executor`] team.
//! Construct one with
//! [`Workspace::traversal`](crate::engine::Workspace::traversal), which
//! grows-and-resets them for the target graph without reallocating
//! across runs. The parent array is the view's own: a zeroed allocation
//! per job that nobody resets. Every vertex the job colors gets its
//! parent written by whoever colors it, so its pages are first touched
//! by the team, and [`Traversal::into_parents`] hands the array out as
//! the result without a copy, writing [`st_graph::NO_VERTEX`] only where
//! a vertex stayed uncolored.
//!
//! Multi-round sessions belong to the forest driver in
//! [`crate::bader_cong`], which also orients Shiloach–Vishkin's and
//! HCS's undirected tree-edge output into rooted parent arrays (see
//! [`crate::orient`]). A caller outside the crate runs single rounds:
//! [`Traversal::begin_round`], then [`Traversal::run_worker_ctx`] on
//! every rank.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_graph::{CsrGraph, VertexId, NO_VERTEX};
use st_obs::{now_ns, Counter, CounterSet, Phase, TraceSet};
use st_smp::pad::CacheAligned;
use st_smp::steal::{StealPolicy, WorkQueue};
use st_smp::{
    AtomicBitmap, AtomicU32Array, CancelToken, Executor, IdleOutcome, TeamCtx, TerminationDetector,
};

use crate::config::RuntimeConfig;
use crate::engine::timed_barrier;

/// Which strategy phase 2 uses to expand the frontier (see the
/// direction-optimizing section of the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Direction {
    /// Classic frontier expansion (the paper's Alg. 1), as
    /// [`TraversalConfig::paper_protocol`] runs it.
    TopDown,
    /// Bottom-up sweeps only: every sweep, each unvisited vertex scans
    /// its CSR row for a visited parent. A forced mode for tests and
    /// ablation — it takes O(graph diameter) full-vertex sweeps, so it
    /// is only reasonable on small or low-diameter graphs.
    BottomUp,
    /// Direction-optimizing: start top-down, switch to bottom-up when
    /// the frontier gets dense (`frontier × ALPHA > unvisited` and
    /// `frontier × BETA > n`), and back once a sweep claims fewer than
    /// `n / BETA` vertices (Beamer's constants, 14 and 24). The default.
    #[default]
    Hybrid,
}

/// Tuning knobs of the traversal.
///
/// Not `Copy` since it carries a [`CancelToken`]; clone it where the
/// old code copied (the token clone is an `Arc` bump — or free for the
/// default inert token).
#[derive(Clone, Debug, PartialEq)]
pub struct TraversalConfig {
    /// How much a thief takes from a victim.
    pub steal_policy: StealPolicy,
    /// How long an idle processor sleeps before re-scanning for victims.
    pub idle_timeout: Duration,
    /// Sleeping-processor count that aborts the traversal
    /// ([`None`] disables the starvation detector, matching the paper's
    /// observation that it "will almost never be triggered").
    pub starvation_threshold: Option<usize>,
    /// Seed for the per-processor victim-selection RNGs.
    pub seed: u64,
    /// How many vertices the owner dequeues per queue-lock acquisition
    /// (the `ablate_chunk` knob). 1 reproduces the paper's per-vertex
    /// protocol exactly; larger batches amortize lock traffic at the
    /// cost of making the in-flight batch unstealable.
    pub local_batch: usize,
    /// Private-buffer size at which a worker publishes surplus frontier
    /// vertices to its shared stealable queue (see the module docs).
    /// `1` publishes every discovery immediately — the paper's protocol;
    /// `usize::MAX` publishes only when sleepers demand it. Whatever the
    /// threshold, the whole private buffer is donated (and the sleepers
    /// woken) whenever the termination detector reports sleeping
    /// processors, which keeps steal/starvation behavior equivalent to
    /// the paper's protocol. Clamped to at least 1.
    pub publish_threshold: usize,
    /// Cooperative cancellation token. The default
    /// ([`CancelToken::none`]) never fires and costs one non-atomic
    /// check per poll; a live token (from
    /// [`CancelToken::new`]/[`with_deadline`](CancelToken::with_deadline))
    /// is polled at publication boundaries, on the idle path, and at
    /// round barriers, ending the traversal with
    /// [`TraversalOutcome::Cancelled`].
    pub cancel: CancelToken,
    /// Traversal direction strategy. [`Direction::Hybrid`] requires the
    /// team entry point [`Traversal::run_worker_ctx`].
    pub direction: Direction,
    /// Software-prefetch lookahead, in frontier entries. Top-down
    /// prefetches the CSR row of the vertex `distance` below the top of
    /// the private buffer; bottom-up additionally prefetches the visited
    /// word `distance` neighbors ahead in the row being scanned. `0`
    /// disables software prefetch entirely.
    pub prefetch_distance: usize,
}

/// The process-wide [`RuntimeConfig`], parsed and validated once.
/// A malformed `ST_*` value aborts the process with the validation
/// message — a bad environment should stop the run, not silently skew
/// it into looking like a baseline.
pub(crate) fn runtime_env() -> &'static RuntimeConfig {
    static CELL: std::sync::OnceLock<RuntimeConfig> = std::sync::OnceLock::new();
    CELL.get_or_init(|| RuntimeConfig::from_env().unwrap_or_else(|e| panic!("{e}")))
}

impl Default for TraversalConfig {
    /// The two-level frontier defaults, with any `ST_PUBLISH_THRESHOLD`
    /// or `ST_DIRECTION` environment override applied (parsed and
    /// validated once per process via [`RuntimeConfig::from_env`]). The
    /// CI stress job uses `ST_PUBLISH_THRESHOLD=1` and
    /// `ST_DIRECTION=top-down` to pin the whole suite to the paper's
    /// protocol, and the CI smoke runs force the direction.
    fn default() -> Self {
        let mut cfg = Self::base();
        runtime_env().apply_frontier(&mut cfg);
        cfg
    }
}

impl TraversalConfig {
    /// The literal defaults, ignoring the environment.
    fn base() -> Self {
        Self {
            steal_policy: StealPolicy::Half,
            idle_timeout: Duration::from_micros(200),
            starvation_threshold: None,
            seed: 0x5eed,
            local_batch: 1,
            publish_threshold: 64,
            cancel: CancelToken::none(),
            direction: Direction::Hybrid,
            prefetch_distance: 1,
        }
    }

    /// The paper's protocol: pure top-down expansion (Alg. 1), every
    /// discovered vertex published (and stealable) immediately, and the
    /// owner dequeuing one vertex per lock acquisition. This is the seed
    /// configuration the `traversal-frontier` benchmark compares
    /// against; it is pinned regardless of `ST_*` overrides.
    pub fn paper_protocol() -> Self {
        Self {
            publish_threshold: 1,
            local_batch: 1,
            direction: Direction::TopDown,
            ..Self::base()
        }
    }
}

/// Why a traversal round ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraversalOutcome {
    /// Quiescence: every reachable vertex has been processed.
    Completed,
    /// The starvation threshold fired; the caller should fall back.
    Starved,
    /// The [`TraversalConfig::cancel`] token fired; the partial state is
    /// abandoned.
    Cancelled,
}

/// No abort requested (hot-path fast case).
const ABORT_NONE: u8 = 0;
/// The starvation detector fired; fall back to SV.
const ABORT_STARVED: u8 = 1;
/// The cancel token fired; abandon the job.
const ABORT_CANCELLED: u8 = 2;
/// A hybrid worker requested a top-down → bottom-up switch; the team
/// rendezvous at a barrier instead of exiting. Every transition out of
/// [`ABORT_NONE`] is a CAS, so the byte settles exactly once per round
/// and all ranks route to the same destination (the loser of a racing
/// CAS follows the settled value — model-checked in st-smp's
/// `loom_models/bottom_up.rs`).
const ABORT_SWITCH: u8 = 3;

/// Leader-written per-sweep control word (see [`Traversal::bottom_up_phase`]).
const CTL_RUN: u8 = 0;
/// Quiescence: the previous sweep claimed nothing.
const CTL_DONE: u8 = 1;
/// The frontier went sparse; switch back to top-down.
const CTL_SWITCH: u8 = 2;
/// The cancel token fired.
const CTL_CANCEL: u8 = 3;

/// Vertices per bottom-up cursor grab: large enough to amortize the
/// shared `fetch_add`, small enough to balance tail sweeps across the
/// team.
const BU_CHUNK: usize = 4096;
// A chunk must be whole bitmap words (see the sweep in
// `bottom_up_phase`).
const _: () = assert!(BU_CHUNK.is_multiple_of(AtomicBitmap::WORD_BITS));

/// Hybrid switch-forward weight (Beamer's α): switch to bottom-up when
/// the estimated live frontier times `ALPHA` exceeds the unvisited
/// count. Larger values switch later.
const ALPHA: f64 = 14.0;
/// Hybrid switch-back weight (Beamer's β): return to top-down once a
/// sweep claims fewer than `n / BETA` vertices; also guards the forward
/// switch (`frontier × BETA > n`) so the end-game tail never flips to
/// bottom-up. `ALPHA` and `BETA` are Beamer's published constants,
/// adapted to vertex counts (the estimator tracks frontier vertices,
/// not edges).
const BETA: f64 = 24.0;

/// Poll the cancel token every this many processed vertices (power of
/// two). Keeps the per-vertex cost at one abort-flag load; the token
/// itself (which may read the clock for deadline tokens) is touched
/// only on this cadence and on the cold idle path.
pub(crate) const CANCEL_POLL_MASK: usize = 0xFF;

/// Shared state of one traversal session, borrowed from a
/// [`Workspace`](crate::engine::Workspace) arena and the team's
/// [`Executor`]. Created once per algorithm run and reused across
/// per-component rounds; dropping it releases the workspace borrow
/// without freeing any array.
pub struct Traversal<'a> {
    g: &'a CsrGraph,
    /// Bit v is set once v is colored (visited). May be longer than
    /// `g.num_vertices()` (grown arena).
    colored: &'a AtomicBitmap,
    /// `parent[v]`: v's tree parent once v is colored ([`NO_VERTEX`]
    /// for a root); unspecified (zero) while v is uncolored.
    parent: AtomicU32Array,
    queues: &'a [CacheAligned<WorkQueue<VertexId>>],
    detector: &'a TerminationDetector,
    /// Workspace-owned per-rank counters; workers flush their batched
    /// local tallies here at the end of each round, slow paths (steals,
    /// barriers) write directly.
    counters: &'a CounterSet,
    /// Workspace-owned span rings (no-op unless built with `obs-trace`).
    trace: &'a TraceSet,
    cfg: TraversalConfig,
    /// Round-wide abort flag ([`ABORT_NONE`]/[`ABORT_STARVED`]/
    /// [`ABORT_CANCELLED`]/[`ABORT_SWITCH`]): one byte so the per-vertex
    /// check stays a single Acquire load regardless of how many abort
    /// reasons exist.
    abort: AtomicU8,
    /// Job-cumulative count of colored vertices (discoveries + seeds +
    /// marks), flushed on the poll cadence. `n - visited` estimates the
    /// unvisited count for the direction heuristic.
    visited: AtomicUsize,
    /// Job-cumulative count of vertices no longer on the live frontier
    /// (expanded top-down, marked, discarded at a switch, or claimed in
    /// a non-final bottom-up sweep). `visited - drained` estimates the
    /// live frontier.
    drained: AtomicUsize,
    /// Largest frontier estimate observed this round; rank 0 flushes it
    /// into [`Counter::FrontierPeak`] at the end of
    /// [`run_worker_ctx`](Self::run_worker_ctx).
    frontier_peak: AtomicUsize,
    /// Bottom-up sweep chunk cursor (reset by the sweep leader).
    cursor: AtomicUsize,
    /// Claims made in the current bottom-up sweep; read only by the
    /// sweep leader in the window between barriers.
    sweep_claims: AtomicUsize,
    /// Leader-written sweep decision ([`CTL_RUN`]…), read by followers
    /// only after the sweep-start barrier.
    sweep_ctl: AtomicU8,
}

impl<'a> Traversal<'a> {
    /// Assembles a traversal view from workspace-owned parts and a
    /// parent array of at least `g.num_vertices()` cells. The bitmap
    /// prefix must be clear and the queues empty;
    /// [`Workspace::traversal`](crate::engine::Workspace::traversal)
    /// guarantees both.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        g: &'a CsrGraph,
        colored: &'a AtomicBitmap,
        parent: AtomicU32Array,
        queues: &'a [CacheAligned<WorkQueue<VertexId>>],
        detector: &'a TerminationDetector,
        counters: &'a CounterSet,
        trace: &'a TraceSet,
        cfg: TraversalConfig,
    ) -> Self {
        debug_assert!(!queues.is_empty(), "traversal needs at least one processor");
        debug_assert!(colored.len() >= g.num_vertices());
        debug_assert!(parent.len() >= g.num_vertices());
        debug_assert!(counters.len() >= queues.len());
        debug_assert!(trace.len() >= queues.len());
        Self {
            g,
            colored,
            parent,
            queues,
            detector,
            counters,
            trace,
            cfg,
            abort: AtomicU8::new(ABORT_NONE),
            visited: AtomicUsize::new(0),
            drained: AtomicUsize::new(0),
            frontier_peak: AtomicUsize::new(0),
            cursor: AtomicUsize::new(0),
            sweep_claims: AtomicUsize::new(0),
            sweep_ctl: AtomicU8::new(CTL_RUN),
        }
    }

    /// Number of processors.
    pub fn processors(&self) -> usize {
        self.queues.len()
    }

    /// The shared parent array (live prefix `g.num_vertices()`; an
    /// uncolored vertex's cell is unspecified).
    pub fn parent(&self) -> &AtomicU32Array {
        &self.parent
    }

    /// True when `v` has been colored.
    pub fn is_colored(&self, v: VertexId) -> bool {
        self.colored.get(v as usize, Ordering::Acquire)
    }

    /// The visited bitmap itself, for the round driver's stub walks
    /// ([`crate::stub`]), which claim in it: alone while the team waits
    /// at a barrier, or on every rank at once in the team prepare.
    pub(crate) fn colored(&self) -> &'a AtomicBitmap {
        self.colored
    }

    /// The smallest uncolored vertex at or after `from`, read a bitmap
    /// word at a time; [`None`] when every later vertex is colored.
    pub fn next_uncolored(&self, from: VertexId) -> Option<VertexId> {
        self.colored
            .next_clear(from as usize, self.g.num_vertices())
            .map(|v| v as VertexId)
    }

    /// A [`Seeder`] for coloring and enqueueing vertices before a round
    /// starts. One per rank in the team prepare, which only marks.
    pub(crate) fn seeder(&self) -> Seeder<'_, 'a> {
        Seeder {
            t: self,
            seeded: 0,
            marked: 0,
        }
    }

    /// Starts a single round from `root`: resets the round state, then
    /// colors `root` and enqueues it on rank 0's queue as a tree root.
    /// Every rank then calls [`run_worker_ctx`](Self::run_worker_ctx)
    /// once. Must only be called while no worker is inside it.
    pub fn begin_round(&self, root: VertexId) {
        self.reset_round();
        self.seeder().seed(0, root, NO_VERTEX);
    }

    /// Resets the detector and round-local flags between per-component
    /// rounds. Must only be called while no worker is inside
    /// [`run_worker_ctx`](Self::run_worker_ctx) (i.e. between barriers).
    pub(crate) fn reset_round(&self) {
        debug_assert!(self
            .queues
            .iter()
            .all(|q| q.is_empty() || self.abort.load(Ordering::Relaxed) != ABORT_NONE));
        self.detector.reset();
        self.abort.store(ABORT_NONE, Ordering::Release);
    }

    /// Maps the abort flag to a segment exit ([`None`] when no abort is
    /// pending). `allow_switch` is set only on the hybrid path, where a
    /// pending [`ABORT_SWITCH`] routes to the rendezvous barrier; the
    /// legacy top-down path can never observe it (nothing raises a
    /// switch without a team context).
    #[inline]
    fn pending_exit(&self, allow_switch: bool) -> Option<SegmentExit> {
        match self.abort.load(Ordering::Acquire) {
            ABORT_NONE => None,
            ABORT_STARVED => Some(SegmentExit::Done(TraversalOutcome::Starved)),
            ABORT_CANCELLED => Some(SegmentExit::Done(TraversalOutcome::Cancelled)),
            _ => {
                debug_assert!(allow_switch, "switch raised without a team context");
                Some(SegmentExit::Switch)
            }
        }
    }

    /// Polls the cancel token; on fire, claims the abort byte (CAS from
    /// clean) and wakes any sleeping ranks so every worker observes the
    /// abort within one idle timeout. Returns `true` when the byte has
    /// settled on cancellation — a pending direction switch is left in
    /// place (the rendezvous leader re-polls the token, so the
    /// cancellation is honored one barrier later instead).
    #[inline]
    fn poll_cancel(&self) -> bool {
        if !self.cfg.cancel.is_cancelled() {
            return false;
        }
        let mut current = self.abort.load(Ordering::Acquire);
        loop {
            match current {
                ABORT_CANCELLED => return true,
                ABORT_SWITCH => return false,
                _ => {
                    // Cancellation claims a clean byte and outranks a
                    // starvation that already settled (a cancelled job
                    // is being torn down, not asking for the fallback).
                    match self.abort.compare_exchange(
                        current,
                        ABORT_CANCELLED,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => {
                            self.detector.notify_work();
                            return true;
                        }
                        Err(actual) => current = actual,
                    }
                }
            }
        }
    }

    /// Attempts to raise a top-down → bottom-up switch. Returns `true`
    /// when the byte settled on [`ABORT_SWITCH`] (ours or a racing
    /// rank's) — the caller heads to the rendezvous barrier; `false`
    /// means a starvation or cancellation won the byte and the next
    /// [`pending_exit`](Self::pending_exit) check routes it.
    #[inline]
    fn raise_switch(&self) -> bool {
        match self.abort.compare_exchange(
            ABORT_NONE,
            ABORT_SWITCH,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                // Wake sleepers so they observe the switch and reach the
                // barrier within one idle timeout. The raiser itself
                // stays awake until the rendezvous, so the detector can
                // never report AllDone while a switch is pending.
                self.detector.notify_work();
                true
            }
            Err(actual) => actual == ABORT_SWITCH,
        }
    }

    /// Runs processor `ctx.rank()`'s share of the current round and
    /// returns the round outcome; the vertices it processed land in the
    /// rank's [`Counter::Processed`]. All `p` ranks must call it exactly
    /// once per round (the barrier schedules of the directions are uniform
    /// by construction); [`Direction::Hybrid`] and
    /// [`Direction::BottomUp`] sweeps synchronize through the team
    /// barrier.
    ///
    /// Observability: the hot loop tallies into plain locals
    /// (`WorkerTally`) and this wrapper flushes them to the rank's
    /// [`CounterSlot`](st_obs::CounterSlot) once per round, so the
    /// always-on cost per round is a handful of Relaxed adds. The whole
    /// shift is recorded as one [`Phase::Traverse`] span (no-op without
    /// `obs-trace`).
    pub fn run_worker_ctx(&self, ctx: &TeamCtx<'_>) -> TraversalOutcome {
        let rank = ctx.rank();
        let t0 = now_ns();
        let mut tally = WorkerTally::default();
        let mut state = WorkerState::new(rank, &self.cfg);
        let outcome = match self.cfg.direction {
            Direction::TopDown => {
                match self.top_down_segment(rank, &mut state, &mut tally, false) {
                    SegmentExit::Done(outcome) => outcome,
                    SegmentExit::Switch => unreachable!("switch raised in top-down mode"),
                }
            }
            Direction::BottomUp => match self.bottom_up_phase(ctx, &mut state, &mut tally, true) {
                BottomUpExit::Done(outcome) => outcome,
                BottomUpExit::SwitchBack => unreachable!("forced bottom-up never switches back"),
            },
            Direction::Hybrid => loop {
                match self.top_down_segment(rank, &mut state, &mut tally, true) {
                    SegmentExit::Done(outcome) => break outcome,
                    SegmentExit::Switch => {
                        // Rendezvous: every rank observed ABORT_SWITCH
                        // and arrives here with its frontier state
                        // frozen; the sweep leader takes over from the
                        // far side of this barrier.
                        timed_barrier(ctx, self.counters, self.trace);
                        match self.bottom_up_phase(ctx, &mut state, &mut tally, false) {
                            BottomUpExit::Done(outcome) => break outcome,
                            BottomUpExit::SwitchBack => continue,
                        }
                    }
                }
            },
        };
        if rank == 0 {
            // Telemetry flush. A straggler's last fetch_max can land
            // after this swap and carry into the next round's tally —
            // harmless for an estimator counter.
            let peak = self.frontier_peak.swap(0, Ordering::Relaxed);
            if peak > 0 {
                self.counters
                    .rank(0)
                    .add(Counter::FrontierPeak, peak as u64);
            }
        }
        self.flush_tally(rank, &state, &tally);
        self.trace.rank(rank).record(Phase::Traverse, t0);
        outcome
    }

    /// Flushes a worker's round-local tallies to its counter slot.
    fn flush_tally(&self, rank: usize, state: &WorkerState, tally: &WorkerTally) {
        let slot = self.counters.rank(rank);
        slot.add(Counter::Processed, state.processed as u64);
        slot.add(Counter::Discovered, tally.discovered);
        slot.add(Counter::MultiColored, tally.multi_colored);
        slot.add(Counter::ItemsPublished, tally.published);
        slot.add(Counter::ItemsKeptLocal, tally.kept_local);
    }

    /// Adds the worker's pending frontier-estimate deltas to the shared
    /// tallies (cheap no-op when nothing accumulated).
    #[inline]
    fn flush_frontier_deltas(&self, state: &mut WorkerState) {
        if state.visited_delta != 0 {
            self.visited
                .fetch_add(state.visited_delta, Ordering::Relaxed);
            state.visited_delta = 0;
        }
        if state.drained_delta != 0 {
            self.drained
                .fetch_add(state.drained_delta, Ordering::Relaxed);
            state.drained_delta = 0;
        }
    }

    /// One top-down work-stealing shift (the paper's Alg. 1 hot loop);
    /// counts into `tally` without touching shared counters. With
    /// `hybrid` set it additionally maintains the frontier estimate and
    /// may exit with [`SegmentExit::Switch`]; re-entering after a
    /// switch-back resumes from the `state` the bottom-up phase seeded.
    fn top_down_segment(
        &self,
        rank: usize,
        state: &mut WorkerState,
        tally: &mut WorkerTally,
        hybrid: bool,
    ) -> SegmentExit {
        if rank == 0 {
            self.counters.rank(0).incr(Counter::RoundsTopDown);
        }
        let my_q = &*self.queues[rank];
        // Hoisted: an inert token (the default) can never fire, so the
        // hot loop skips the poll cadence entirely and cancellation
        // costs nothing unless a caller actually armed a token.
        let cancellable = self.cfg.cancel.is_live();
        let batch_size = self.cfg.local_batch.max(1);
        let publish_threshold = self.cfg.publish_threshold.max(1);
        // On a threshold publication, keep the newest half of the buffer
        // private: those vertices are cache-hot and about to be popped.
        // Threshold 1 keeps nothing — publish-everything, the paper's
        // protocol.
        let keep_after_publish = publish_threshold / 2;
        // Shared-queue refills pull at least half a threshold's worth so
        // the owner does not re-acquire the lock per vertex to drain its
        // own published surplus. With the paper protocol (threshold 1)
        // this degenerates to `local_batch`, preserving the seed
        // semantics; refilled vertices land in the private buffer and so
        // remain eligible for sleeper-driven re-publication.
        let refill_size = batch_size.max(keep_after_publish);
        let prefetch = self.cfg.prefetch_distance;
        let n = self.g.num_vertices();
        let state = &mut *state;

        loop {
            // Drain the frontier (Alg. 1 lines 2.1-2.7): private buffer
            // first (no lock), then the shared queue.
            loop {
                let v = match state.private.pop() {
                    Some(v) => {
                        if state.private.len() >= state.shared_origin {
                            tally.kept_local += 1;
                        } else {
                            state.shared_origin = state.private.len();
                        }
                        v
                    }
                    None => {
                        if my_q.pop_chunk(&mut state.refill, refill_size) == 0 {
                            break;
                        }
                        state.private.extend(state.refill.drain(..));
                        let v = state.private.pop().expect("pop_chunk reported items");
                        // Everything just refilled came from the shared
                        // queue (the buffer was empty), so the whole
                        // remaining buffer is shared-origin.
                        state.shared_origin = state.private.len();
                        v
                    }
                };
                // We already know which vertex we will expand `prefetch`
                // pops from now; request its CSR row so the neighbor
                // list arrives while we chase the intervening ones.
                if prefetch != 0 {
                    if let Some(&next) = state
                        .private
                        .get(state.private.len().wrapping_sub(prefetch))
                    {
                        self.g.prefetch_neighbors(next);
                    }
                }
                for &w in self.g.neighbors(v) {
                    if !self.colored.get(w as usize, Ordering::Acquire) {
                        if self.colored.set(w as usize, Ordering::AcqRel) {
                            tally.discovered += 1;
                        } else {
                            // Benign race: someone set w's bit between
                            // our test and our fetch_or. Count it and
                            // proceed exactly as the paper's
                            // unconditional-store protocol does —
                            // overwrite the parent and enqueue.
                            tally.multi_colored += 1;
                        }
                        // Relaxed: the fetch_or above is the publishing
                        // store for w. Cross-thread reads of `parent`
                        // only happen after the team joins or behind the
                        // round barrier, both of which order all prior
                        // writes.
                        self.parent.store(w as usize, v, Ordering::Relaxed);
                        state.private.push(w);
                        if hybrid {
                            state.visited_delta += 1;
                        }
                    }
                }
                state.processed += 1;
                if hybrid {
                    state.drained_delta += 1;
                }
                // Level 2: publish surplus in one batched push when the
                // private buffer overflows, or donate everything as soon
                // as sleepers are waiting for work.
                let sleepers = self.detector.approx_sleeping() > 0;
                let overflow = state.private.len() >= publish_threshold;
                if overflow || sleepers {
                    let keep = if overflow { keep_after_publish } else { 0 };
                    if state.private.len() > keep {
                        // Publish the oldest entries (the bottom of the
                        // stack); the newest stay private and cache-hot.
                        let surplus = state.private.len() - keep;
                        my_q.push_all(state.private.drain(..surplus));
                        tally.published += surplus as u64;
                        // The drain took from the bottom, shared-origin
                        // entries first.
                        state.shared_origin = state.shared_origin.saturating_sub(surplus);
                    }
                }
                if sleepers && my_q.approx_len() > 1 {
                    self.detector.notify_work();
                }
                if let Some(exit) = self.pending_exit(hybrid) {
                    return exit;
                }
                // Amortized slow-path work, every CANCEL_POLL_MASK+1
                // vertices: the cancel token (which may read the clock)
                // and, on the hybrid path, the direction heuristic.
                if state.processed & CANCEL_POLL_MASK == 0 {
                    if cancellable && self.poll_cancel() {
                        return SegmentExit::Done(TraversalOutcome::Cancelled);
                    }
                    if hybrid {
                        self.flush_frontier_deltas(state);
                        let visited = self.visited.load(Ordering::Relaxed);
                        let frontier = visited.saturating_sub(self.drained.load(Ordering::Relaxed));
                        self.frontier_peak.fetch_max(frontier, Ordering::Relaxed);
                        let unvisited = n.saturating_sub(visited);
                        // Switch forward when the frontier dominates the
                        // unvisited remainder — and is itself a real
                        // fraction of the graph, so the end-game tail
                        // never flips back to bottom-up.
                        if (frontier as f64) * ALPHA > unvisited as f64
                            && (frontier as f64) * BETA > n as f64
                            && self.raise_switch()
                        {
                            return SegmentExit::Switch;
                        }
                    }
                }
            }
            debug_assert!(
                state.private.is_empty(),
                "private frontier must be drained before idling"
            );

            // Cold path: out of local work. Check aborts here too so a
            // rank cycling steal-idle-retry (which never touches the
            // per-vertex check) still observes a cancellation or switch
            // raised by another rank within one idle timeout.
            if hybrid {
                self.flush_frontier_deltas(state);
            }
            if let Some(exit) = self.pending_exit(hybrid) {
                return exit;
            }
            if cancellable && self.poll_cancel() {
                return SegmentExit::Done(TraversalOutcome::Cancelled);
            }

            // Local queues empty: try to steal.
            if self.try_steal(rank, &mut state.rng, &mut state.steal_buf) {
                continue;
            }

            let t_idle = now_ns();
            let outcome = self.detector.idle_wait(self.cfg.idle_timeout);
            self.trace.rank(rank).record(Phase::Idle, t_idle);
            match outcome {
                IdleOutcome::AllDone => return SegmentExit::Done(TraversalOutcome::Completed),
                IdleOutcome::Starved => {
                    // Starvation only claims a clean byte; whatever the
                    // byte settled on — a cancellation or switch that
                    // raced in — routes every rank identically.
                    let _ = self.abort.compare_exchange(
                        ABORT_NONE,
                        ABORT_STARVED,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                    return self
                        .pending_exit(hybrid)
                        .expect("abort byte settled before routing");
                }
                IdleOutcome::Retry => continue,
            }
        }
    }

    /// The bottom-up phase: full-vertex sweeps until quiescence, a
    /// switch-back (hybrid only), or cancellation. Entered by the whole
    /// team together — after the rendezvous barrier (hybrid) or
    /// directly from [`run_worker_ctx`](Self::run_worker_ctx) (forced).
    ///
    /// Every sweep runs the same two-barrier protocol (model-checked in
    /// st-smp's `loom_models/bottom_up.rs`): rank 0 decides the sweep in
    /// the window between the previous sweep-end barrier and the next
    /// sweep-start barrier — it alone reads `sweep_claims`, polls the
    /// cancel token, resets the cursor, and publishes the decision in
    /// `sweep_ctl` — and followers read only the control word after the
    /// sweep-start barrier, so no read ever races the leader's reset.
    fn bottom_up_phase(
        &self,
        ctx: &TeamCtx<'_>,
        state: &mut WorkerState,
        tally: &mut WorkerTally,
        forced: bool,
    ) -> BottomUpExit {
        let t0 = now_ns();
        let rank = ctx.rank();
        let n = self.g.num_vertices();
        let cancellable = self.cfg.cancel.is_live();
        let prefetch = self.cfg.prefetch_distance;
        let my_q = &*self.queues[rank];

        // Entry: drop the pre-switch frontier. Safe because the first
        // sweep visits every unvisited vertex and the pre-sweep bits
        // are barrier-published, so anything the dropped entries would
        // have discovered is claimed by the sweep instead (module docs).
        // Each rank clears its *own* queue — no thief is running.
        let mut discarded = state.private.len();
        state.private.clear();
        state.shared_origin = 0;
        loop {
            let got = my_q.pop_chunk(&mut state.refill, usize::MAX);
            if got == 0 {
                break;
            }
            discarded += got;
            state.refill.clear();
        }
        // Dropped entries were visited but will never expand: drain
        // them so the estimate reflects the (empty) live frontier.
        state.drained_delta += discarded;
        self.flush_frontier_deltas(state);
        state.claims.clear();

        let mut first = true;
        loop {
            if rank == 0 {
                // Leader window: everything here happens between
                // barriers, unobserved by followers until the control
                // word is republished.
                let ctl = if cancellable && self.cfg.cancel.is_cancelled() {
                    CTL_CANCEL
                } else if first {
                    // Always run the first sweep — the dropped frontier
                    // above is only covered by a *completed* sweep.
                    CTL_RUN
                } else {
                    let claimed = self.sweep_claims.load(Ordering::Relaxed);
                    if claimed == 0 {
                        CTL_DONE
                    } else if !forced && (claimed as f64) * BETA < n as f64 {
                        CTL_SWITCH
                    } else {
                        CTL_RUN
                    }
                };
                if !forced && first {
                    // Consume the ABORT_SWITCH that brought us here so
                    // the round can abort or switch again later.
                    self.abort.store(ABORT_NONE, Ordering::Release);
                }
                self.cursor.store(0, Ordering::Relaxed);
                self.sweep_claims.store(0, Ordering::Relaxed);
                self.sweep_ctl.store(ctl, Ordering::Relaxed);
                if ctl == CTL_RUN {
                    self.counters.rank(0).incr(Counter::RoundsBottomUp);
                }
            }
            first = false;
            timed_barrier(ctx, self.counters, self.trace); // sweep start: ctl published
            match self.sweep_ctl.load(Ordering::Relaxed) {
                CTL_DONE => {
                    self.trace.rank(rank).record(Phase::BottomUp, t0);
                    return BottomUpExit::Done(TraversalOutcome::Completed);
                }
                CTL_CANCEL => {
                    self.trace.rank(rank).record(Phase::BottomUp, t0);
                    return BottomUpExit::Done(TraversalOutcome::Cancelled);
                }
                CTL_SWITCH => {
                    // The last sweep's claims are exactly the live
                    // frontier (module docs); seed them back into the
                    // private buffer for the top-down tail.
                    state.private.append(&mut state.claims);
                    state.shared_origin = 0;
                    self.trace.rank(rank).record(Phase::BottomUp, t0);
                    return BottomUpExit::SwitchBack;
                }
                _ => {}
            }
            // A new sweep is running, so the previous sweep's claims
            // are interior vertices now, not frontier.
            state.drained_delta += state.claims.len();
            state.claims.clear();
            loop {
                let base = self.cursor.fetch_add(BU_CHUNK, Ordering::Relaxed);
                if base >= n {
                    break;
                }
                let hi = (base + BU_CHUNK).min(n);
                // The chunk is whole bitmap words (BU_CHUNK is a multiple
                // of 64) that no other rank claims in this sweep, so one
                // word load finds all of its unvisited vertices. Relaxed
                // loads: pre-sweep bits are barrier-published, and
                // seeing (or missing) a same-sweep claim is benign — any
                // visited vertex is a valid parent.
                for word_base in (base..hi).step_by(AtomicBitmap::WORD_BITS) {
                    let mut free = !self
                        .colored
                        .word(word_base / AtomicBitmap::WORD_BITS, Ordering::Relaxed);
                    if hi - word_base < AtomicBitmap::WORD_BITS {
                        free &= (1u64 << (hi - word_base)) - 1;
                    }
                    while free != 0 {
                        let v = word_base + free.trailing_zeros() as usize;
                        free &= free - 1;
                        if let Some(w) = self.visited_neighbor(v, prefetch) {
                            // The cursor handed v to this rank alone, so
                            // the claim cannot lose a race: a relaxed
                            // fetch_or, published by the sweep-end
                            // barrier.
                            self.colored.set(v, Ordering::Relaxed);
                            self.parent.store(v, w, Ordering::Relaxed);
                            state.claims.push(v as VertexId);
                        }
                    }
                }
                // Per-chunk cancellation poll: stop claiming and let the
                // leader turn the (monotone) token into CTL_CANCEL at
                // the next decision window.
                if cancellable && self.cfg.cancel.is_cancelled() {
                    break;
                }
            }
            // Bottom-up claims are both discovered and processed: the
            // sweep colored them and no later expansion revisits them.
            tally.discovered += state.claims.len() as u64;
            state.processed += state.claims.len();
            state.visited_delta += state.claims.len();
            self.flush_frontier_deltas(state);
            if !state.claims.is_empty() {
                self.sweep_claims
                    .fetch_add(state.claims.len(), Ordering::Relaxed);
            }
            timed_barrier(ctx, self.counters, self.trace); // sweep end: claims published
        }
    }

    /// The bottom-up test of unvisited `v`: the first visited neighbor
    /// in its row, if any (Relaxed loads; see the sweep in
    /// [`bottom_up_phase`](Self::bottom_up_phase)).
    #[inline]
    fn visited_neighbor(&self, v: usize, prefetch: usize) -> Option<VertexId> {
        if prefetch != 0 {
            self.g.prefetch_neighbors((v + prefetch) as VertexId);
        }
        let row = self.g.neighbors(v as VertexId);
        for (i, &w) in row.iter().enumerate() {
            if prefetch != 0 {
                if let Some(&ahead) = row.get(i + prefetch) {
                    self.colored.prefetch(ahead as usize);
                }
            }
            if self.colored.get(w as usize, Ordering::Relaxed) {
                return Some(w);
            }
        }
        None
    }

    /// One steal sweep for `rank`; updates the steal counters. Returns
    /// true when anything was stolen. Counters are written directly —
    /// this is the idle path, a Relaxed add per sweep is noise.
    fn try_steal(&self, rank: usize, rng: &mut SmallRng, buf: &mut VecDeque<VertexId>) -> bool {
        let slot = self.counters.rank(rank);
        slot.incr(Counter::StealAttempts);
        let got = steal_sweep(self.queues, rank, rng, self.cfg.steal_policy, buf);
        if got > 0 {
            slot.incr(Counter::Steals);
            slot.add(Counter::StolenItems, got as u64);
            // steal_sweep re-pushes the loot into our shared queue,
            // where it is again visible to thieves.
            slot.add(Counter::ItemsPublished, got as u64);
            true
        } else {
            slot.incr(Counter::FailedSweeps);
            false
        }
    }

    /// Runs a whole multi-round session on the executor's team: the
    /// engine under the forest driver
    /// ([`crate::bader_cong::grow_forest`]), its only caller.
    ///
    /// The session has up to three parts, each skipped when it has
    /// nothing to do:
    ///
    /// 1. `seeded`: the driver seeded a round before dispatch; the team
    ///    runs it first.
    /// 2. `team` (given only when p > 1): every rank calls
    ///    `team(ctx, seeder)` once with a seeder of its own; it returns
    ///    whether it left work behind. One barrier ends the phase, and
    ///    when no rank left work it also ends the session.
    /// 3. Rounds: rank 0 calls `prepare(seeder, round_index)` (all
    ///    other ranks wait at a barrier) to seed the next round's queues.
    ///    `prepare` returning `false` ends the session.
    ///
    /// A seeder's tallies reach the shared counters once, when it drops.
    /// Dispatching the persistent team once and cycling rounds with two
    /// barriers each keeps the rounds of a job cheap.
    ///
    /// `exec` must be the same team whose detector this traversal was
    /// built against (`Workspace::traversal` ties them together).
    ///
    /// Returns the session outcome ([`TraversalOutcome::Starved`] as
    /// soon as any round starves).
    pub(crate) fn run_rounds<T, F>(
        &self,
        exec: &Executor,
        seeded: bool,
        team: Option<T>,
        prepare: F,
    ) -> TraversalOutcome
    where
        T: Fn(&TeamCtx<'_>, &mut Seeder<'_, 'a>) -> bool + Sync,
        F: FnMut(&mut Seeder<'_, 'a>, usize) -> bool + Send,
    {
        use st_smp::SpinLock;
        assert_eq!(
            exec.size(),
            self.processors(),
            "executor team does not match traversal width"
        );
        let prepare = SpinLock::new(prepare);
        let finished = AtomicBool::new(false);
        let any_left = AtomicBool::new(false);
        let any_starved = AtomicBool::new(false);
        let any_cancelled = AtomicBool::new(false);
        // One round on every rank, then the barrier that publishes its
        // outcome; `true` when the session must stop.
        let round = |ctx: &TeamCtx<'_>| {
            match self.run_worker_ctx(ctx) {
                TraversalOutcome::Completed => {}
                TraversalOutcome::Starved => any_starved.store(true, Ordering::Release),
                TraversalOutcome::Cancelled => any_cancelled.store(true, Ordering::Release),
            }
            // The abort flags are published before this barrier and
            // read after it, so every rank takes the same branch — even
            // when outcomes diverged (e.g. one rank saw AllDone while
            // another observed the cancel token).
            timed_barrier(ctx, self.counters, self.trace);
            any_starved.load(Ordering::Acquire) || any_cancelled.load(Ordering::Acquire)
        };
        exec.run(|ctx| {
            let mut index = 0usize;
            if seeded {
                if round(&ctx) {
                    return;
                }
                index = 1;
            }
            if let Some(team) = &team {
                let mut seeder = self.seeder();
                if team(&ctx, &mut seeder) {
                    any_left.store(true, Ordering::Release);
                }
                drop(seeder);
                timed_barrier(&ctx, self.counters, self.trace);
                if !any_left.load(Ordering::Acquire) {
                    return;
                }
            }
            loop {
                if ctx.rank() == 0 {
                    // Round boundary cancellation checkpoint: a job
                    // cancelled between components never seeds the next
                    // round.
                    if self.cfg.cancel.is_cancelled() {
                        any_cancelled.store(true, Ordering::Release);
                        finished.store(true, Ordering::Release);
                    } else {
                        self.reset_round();
                        let mut seeder = self.seeder();
                        let more = (prepare.lock())(&mut seeder, index);
                        drop(seeder); // flushes the seeding tallies
                        if !more {
                            finished.store(true, Ordering::Release);
                        }
                    }
                }
                timed_barrier(&ctx, self.counters, self.trace);
                if finished.load(Ordering::Acquire) || round(&ctx) {
                    break;
                }
                index += 1;
            }
        });
        // Cancellation outranks starvation: a cancelled job is being
        // torn down, not asking for the SV fallback.
        if any_cancelled.load(Ordering::Acquire) {
            TraversalOutcome::Cancelled
        } else if any_starved.load(Ordering::Acquire) {
            TraversalOutcome::Starved
        } else {
            TraversalOutcome::Completed
        }
    }

    /// The per-rank counter set this session writes into (the
    /// workspace's; `Workspace::finish_job` merges it into a
    /// [`st_obs::JobMetrics`]).
    pub fn counters(&self) -> &CounterSet {
        self.counters
    }

    /// The per-rank span rings this session records into.
    pub(crate) fn trace(&self) -> &TraceSet {
        self.trace
    }

    /// Copies out the parent array (call after all workers joined):
    /// [`NO_VERTEX`] for every vertex left uncolored.
    pub fn parents_vec(&self) -> Vec<VertexId> {
        let mut parents = self.parent.snapshot_prefix(self.g.num_vertices());
        unset_uncolored(self.colored, &mut parents);
        parents
    }

    /// Hands the parent array out without copying it, consuming the
    /// view (call after all workers joined): [`NO_VERTEX`] for every
    /// vertex left uncolored, which after a completed forest session is
    /// none.
    pub fn into_parents(self) -> Vec<VertexId> {
        let n = self.g.num_vertices();
        let colored = self.colored;
        let mut parents: Vec<VertexId> = self.parent.into();
        parents.truncate(n);
        unset_uncolored(colored, &mut parents);
        parents
    }
}

/// Writes [`NO_VERTEX`] over the parent of every vertex whose bit in
/// `colored` is clear, reading a bitmap word at a time.
fn unset_uncolored(colored: &AtomicBitmap, parents: &mut [VertexId]) {
    let n = parents.len();
    for word_base in (0..n).step_by(AtomicBitmap::WORD_BITS) {
        let mut free = !colored.word(word_base / AtomicBitmap::WORD_BITS, Ordering::Relaxed);
        if n - word_base < AtomicBitmap::WORD_BITS {
            free &= (1u64 << (n - word_base)) - 1;
        }
        while free != 0 {
            parents[word_base + free.trailing_zeros() as usize] = NO_VERTEX;
            free &= free - 1;
        }
    }
}

/// The round driver's handle for seeding a round: it colors vertices,
/// sets their parents, and deals them into the queues while the team
/// waits (before [`Traversal::run_worker_ctx`], or at the barrier
/// inside [`Traversal::run_rounds`]); in the team prepare each rank
/// holds one and only marks. Its tallies — seeds published, and the
/// frontier-estimate deltas — stay local and reach the shared counters
/// once, when the seeder drops, instead of costing shared
/// read-modify-writes per vertex.
pub(crate) struct Seeder<'t, 'a> {
    t: &'t Traversal<'a>,
    seeded: usize,
    marked: usize,
}

impl<'t, 'a> Seeder<'t, 'a> {
    /// The traversal being seeded.
    pub fn traversal(&self) -> &'t Traversal<'a> {
        self.t
    }

    /// Colors `v` (already colored is fine: a stub walk claims before
    /// it seeds), sets its parent, and enqueues it on `rank`'s queue.
    pub fn seed(&mut self, rank: usize, v: VertexId, parent: VertexId) {
        self.t.colored.set(v as usize, Ordering::Release);
        self.t.parent.store(v as usize, parent, Ordering::Release);
        self.t.queues[rank].push(v);
        self.seeded += 1;
    }

    /// Colors `v` and sets its parent *without* enqueueing it: for
    /// isolated roots and components the stub walk covered entirely,
    /// which need no traversal round at all. A vertex the walk already
    /// claimed skips the `fetch_or`, whose implied fence would otherwise
    /// stall on the previous vertex's parent store.
    pub fn mark(&mut self, v: VertexId, parent: VertexId) {
        if !self.t.colored.get(v as usize, Ordering::Relaxed) {
            self.t.colored.set(v as usize, Ordering::Release);
        }
        self.t.parent.store(v as usize, parent, Ordering::Release);
        self.marked += 1;
    }

    /// [`mark`](Self::mark) as a root every vertex `64·w + b` for bit
    /// `b` of `mask`, coloring them with one `fetch_or`: for isolated
    /// vertices, which no walk or traversal ever reaches, found a bitmap
    /// word at a time.
    pub fn mark_roots(&mut self, w: usize, mask: u64) {
        let mut bits = mask;
        while bits != 0 {
            let v = w * AtomicBitmap::WORD_BITS + bits.trailing_zeros() as usize;
            self.t.parent.store(v, NO_VERTEX, Ordering::Relaxed);
            bits &= bits - 1;
        }
        self.t.colored.set_word(w, mask, Ordering::Release);
        self.marked += mask.count_ones() as usize;
    }
}

impl Drop for Seeder<'_, '_> {
    fn drop(&mut self) {
        let t = self.t;
        if self.seeded > 0 {
            // Seeds land straight in the shared queues: stealable, hence
            // published — by the driver, so on rank 0's slot.
            t.counters
                .rank(0)
                .add(Counter::ItemsPublished, self.seeded as u64);
        }
        // Seeds are colored and on the frontier: visited, not drained.
        // Marked vertices never expand: visited *and* drained, so the
        // frontier estimate is untouched (stub-heavy many-component
        // graphs would otherwise inflate it permanently).
        let visited = self.seeded + self.marked;
        if visited > 0 {
            t.visited.fetch_add(visited, Ordering::Relaxed);
        }
        if self.marked > 0 {
            t.drained.fetch_add(self.marked, Ordering::Relaxed);
        }
    }
}

/// Per-worker round-local tallies: plain `u64`s bumped in the hot loop
/// and flushed once per [`Traversal::run_worker_ctx`] call to the rank's
/// cache-padded [`CounterSlot`](st_obs::CounterSlot), keeping atomic
/// traffic out of the per-vertex path.
#[derive(Default)]
struct WorkerTally {
    discovered: u64,
    multi_colored: u64,
    published: u64,
    kept_local: u64,
}

/// How a top-down segment ended.
enum SegmentExit {
    /// The round is over for this rank.
    Done(TraversalOutcome),
    /// The abort byte settled on [`ABORT_SWITCH`]: head to the
    /// rendezvous barrier and enter the bottom-up phase.
    Switch,
}

/// How a bottom-up phase ended (leader-decided, uniform across ranks).
enum BottomUpExit {
    /// Quiescence or cancellation.
    Done(TraversalOutcome),
    /// The frontier went sparse; resume top-down with the private
    /// buffer seeded from this rank's last-sweep claims.
    SwitchBack,
}

/// A worker's per-round mutable state, hoisted into one struct so the
/// top-down segment can be exited (for a direction switch) and
/// re-entered without losing the frontier buffers, RNG stream, or
/// tallies-in-flight.
struct WorkerState {
    /// Victim-selection RNG.
    rng: SmallRng,
    /// Level 1 of the frontier: the owner-private LIFO buffer. No
    /// synchronization; invisible to thieves until published. Always
    /// fully drained before this worker registers as idle, which is
    /// what keeps quiescence detection sound.
    private: Vec<VertexId>,
    /// Watermark separating shared-origin entries (below: refilled from
    /// the shared queue) from locally discovered ones (above). A pop at
    /// or above it processed a vertex that was never published — the
    /// `items_kept_local` the two-level frontier exists to maximize.
    shared_origin: usize,
    /// Scratch for shared-queue refills.
    refill: VecDeque<VertexId>,
    /// Scratch for steal sweeps.
    steal_buf: VecDeque<VertexId>,
    /// Vertices this rank dequeued and expanded (plus bottom-up claims).
    processed: usize,
    /// This rank's claims in the current bottom-up sweep; becomes the
    /// switch-back seed when the sweep goes sparse.
    claims: Vec<VertexId>,
    /// Pending (unflushed) additions to [`Traversal::visited`].
    visited_delta: usize,
    /// Pending (unflushed) additions to [`Traversal::drained`].
    drained_delta: usize,
}

impl WorkerState {
    fn new(rank: usize, cfg: &TraversalConfig) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(
                cfg.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            private: Vec::with_capacity(cfg.publish_threshold.clamp(1, 1 << 12)),
            shared_origin: 0,
            refill: VecDeque::new(),
            steal_buf: VecDeque::new(),
            processed: 0,
            claims: Vec::new(),
            visited_delta: 0,
            drained_delta: 0,
        }
    }
}

/// One steal sweep over `queues`: a few random probes, then a
/// deterministic scan so a lone victim cannot be missed forever. Stolen
/// items land in `queues[rank]` (so they stay stealable by others).
/// `buf` is caller-owned scratch (always left empty) so a round's many
/// sweeps share one allocation. Returns the number of items stolen.
fn steal_sweep(
    queues: &[CacheAligned<WorkQueue<VertexId>>],
    rank: usize,
    rng: &mut SmallRng,
    policy: StealPolicy,
    buf: &mut VecDeque<VertexId>,
) -> usize {
    let p = queues.len();
    if p == 1 {
        return 0;
    }
    // Random probes (the paper: "randomly checks other processors'
    // queues").
    for _ in 0..p {
        let victim = rng.gen_range(0..p);
        if victim == rank || queues[victim].appears_empty() {
            continue;
        }
        let got = queues[victim].steal_into(buf, policy);
        if got > 0 {
            queues[rank].push_all(buf.drain(..));
            return got;
        }
    }
    // Deterministic sweep: no appears_empty fast path here. The mirror
    // lags the real length (it is published only after the lock is
    // released), so a victim whose push landed between the mirror read
    // and this probe would be skipped — and a sweep that misses the
    // only non-empty queue sends this processor into idle_wait with
    // stealable work still published. steal_into's under-lock length
    // check is the exact test; the mirror stays a heuristic for the
    // random probes above, where a stale answer only costs one probe.
    for offset in 1..p {
        let victim = (rank + offset) % p;
        let got = queues[victim].steal_into(buf, policy);
        if got > 0 {
            queues[rank].push_all(buf.drain(..));
            return got;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Workspace;
    use st_graph::gen::{chain, complete, random_connected, star, torus2d};
    use st_graph::validate::is_spanning_tree;

    /// Runs a single-round traversal seeded with one root on a connected
    /// graph; returns (parents, steals).
    fn traverse(
        g: &CsrGraph,
        p: usize,
        root: VertexId,
        cfg: TraversalConfig,
    ) -> (Vec<VertexId>, usize) {
        let exec = Executor::new(p);
        let mut ws = Workspace::new();
        let t = ws.traversal(g, &exec, cfg);
        t.begin_round(root);
        exec.run(|ctx| {
            assert_eq!(t.run_worker_ctx(&ctx), TraversalOutcome::Completed);
        });
        let steals = t.counters().merged().get(Counter::Steals) as usize;
        (t.parents_vec(), steals)
    }

    #[test]
    fn single_processor_matches_bfs_reachability() {
        let g = torus2d(10, 10);
        let (parents, _) = traverse(&g, 1, 0, TraversalConfig::default());
        assert!(is_spanning_tree(&g, &parents, 0));
    }

    #[test]
    fn multi_processor_produces_valid_tree() {
        let g = random_connected(2_000, 3_000, 11);
        for p in [2, 4, 8] {
            let (parents, _) = traverse(&g, p, 0, TraversalConfig::default());
            assert!(is_spanning_tree(&g, &parents, 0), "p = {p}");
        }
    }

    #[test]
    fn star_graph_with_stealing_is_correct() {
        // All work lives in one queue after the hub is processed; other
        // processors make progress only by stealing. (Whether steals
        // actually occur is scheduler-dependent on an oversubscribed
        // host, so only correctness is asserted here; steal mechanics
        // are covered deterministically in st-smp and st-model.)
        let g = star(5_000);
        let (parents, _) = traverse(&g, 4, 0, TraversalConfig::default());
        assert!(is_spanning_tree(&g, &parents, 0));
    }

    #[test]
    fn steal_policies_all_correct() {
        let g = random_connected(1_000, 1_500, 3);
        for policy in [StealPolicy::Half, StealPolicy::One, StealPolicy::Chunk(16)] {
            let cfg = TraversalConfig {
                steal_policy: policy,
                ..TraversalConfig::default()
            };
            let (parents, _) = traverse(&g, 4, 0, cfg);
            assert!(is_spanning_tree(&g, &parents, 0), "policy {policy:?}");
        }
    }

    /// Regression for the stale-`appears_empty` window: fake the
    /// victim's lock-free length mirror to zero (as a thief observes it
    /// between the victim's push and its mirror publication). The
    /// random probes may legitimately skip the victim, but the final
    /// deterministic sweep must find the work via `steal_into`'s exact
    /// under-lock check — before the fix it trusted the mirror and sent
    /// the rank into `idle_wait` with stealable work still published.
    #[test]
    fn deterministic_sweep_ignores_stale_empty_mirror() {
        let queues: Vec<CacheAligned<WorkQueue<VertexId>>> = (0..4)
            .map(|_| CacheAligned::new(WorkQueue::new()))
            .collect();
        queues[2].push_all([7u32, 8, 9]);
        queues[2].desync_mirror_for_test(0);
        assert!(queues[2].appears_empty(), "mirror must look empty");
        let mut rng = SmallRng::seed_from_u64(42);
        let mut buf = VecDeque::new();
        let got = steal_sweep(&queues, 0, &mut rng, StealPolicy::Half, &mut buf);
        assert!(got > 0, "sweep missed the only non-empty queue");
        assert_eq!(got + queues[2].len(), 3, "items lost in the steal");
        assert_eq!(queues[0].len(), got, "stolen items must land locally");
    }

    #[test]
    fn starvation_triggers_on_chain() {
        // A long chain with a single seed: one processor crawls, the
        // rest starve. With threshold p-1 the round must abort.
        let g = chain(50_000);
        let cfg = TraversalConfig {
            starvation_threshold: Some(3),
            ..TraversalConfig::default()
        };
        let exec = Executor::new(4);
        let mut ws = Workspace::new();
        let t = ws.traversal(&g, &exec, cfg);
        t.begin_round(0);
        let outcomes = exec.run(|ctx| t.run_worker_ctx(&ctx));
        assert!(
            outcomes.iter().all(|&o| o == TraversalOutcome::Starved),
            "expected starvation, got {outcomes:?}"
        );
    }

    #[test]
    fn complete_graph_single_frontier_wave() {
        let g = complete(300);
        let (parents, _) = traverse(&g, 4, 0, TraversalConfig::default());
        assert!(is_spanning_tree(&g, &parents, 0));
    }

    #[test]
    fn multiple_seeds_partition_work() {
        // Seeding each processor's queue with distinct chain vertices
        // (as the stub tree does) lets all processors work on a chain.
        let n = 10_000;
        let g = chain(n);
        let p = 4;
        let exec = Executor::new(p);
        let mut ws = Workspace::new();
        let t = ws.traversal(&g, &exec, TraversalConfig::default());
        // Seed a contiguous prefix walk 0-1-2-...-(2p-1), round-robin.
        t.begin_round(0);
        {
            let mut s = t.seeder();
            for v in 1..(2 * p as u32) {
                s.seed((v as usize) % p, v, v - 1);
            }
        }
        exec.run(|ctx| {
            assert_eq!(t.run_worker_ctx(&ctx), TraversalOutcome::Completed);
        });
        // Everyone processed at least its seeds; the far-end processor
        // does the bulk (the chain is pathological by design).
        assert!(t.counters().merged().get(Counter::Processed) >= n as u64);
        let parents = t.parents_vec();
        assert!(is_spanning_tree(&g, &parents, 0));
    }

    #[test]
    fn local_batch_sizes_are_correct() {
        let g = random_connected(3_000, 4_000, 17);
        for batch in [1usize, 4, 32] {
            let cfg = TraversalConfig {
                local_batch: batch,
                ..TraversalConfig::default()
            };
            let (parents, _) = traverse(&g, 4, 0, cfg);
            assert!(is_spanning_tree(&g, &parents, 0), "batch {batch}");
        }
        // Zero batch clamps to 1 instead of hanging.
        let cfg = TraversalConfig {
            local_batch: 0,
            ..TraversalConfig::default()
        };
        let (parents, _) = traverse(&g, 2, 0, cfg);
        assert!(is_spanning_tree(&g, &parents, 0));
    }

    #[test]
    fn paper_protocol_matches_default_results() {
        // publish_threshold = 1 publishes every discovery immediately:
        // the seed protocol. Both configurations must produce valid
        // trees on the same inputs.
        let g = random_connected(3_000, 4_500, 23);
        for p in [1, 2, 4] {
            let (parents, _) = traverse(&g, p, 0, TraversalConfig::paper_protocol());
            assert!(is_spanning_tree(&g, &parents, 0), "paper p={p}");
            let (parents, _) = traverse(&g, p, 0, TraversalConfig::default());
            assert!(is_spanning_tree(&g, &parents, 0), "default p={p}");
        }
    }

    #[test]
    fn published_but_unstolen_work_is_drained() {
        // With p = 1 nothing is ever stolen, so every vertex the worker
        // publishes past the threshold must be drained back from its own
        // shared queue before the round can complete.
        let g = star(2_000);
        let cfg = TraversalConfig {
            publish_threshold: 4,
            ..TraversalConfig::default()
        };
        let (parents, steals) = traverse(&g, 1, 0, cfg);
        assert_eq!(steals, 0);
        assert!(is_spanning_tree(&g, &parents, 0));
    }

    #[test]
    fn never_publish_threshold_still_terminates() {
        // usize::MAX never overflows the private buffer; publication is
        // purely sleeper-driven.
        let g = random_connected(2_000, 3_000, 29);
        let cfg = TraversalConfig {
            publish_threshold: usize::MAX,
            ..TraversalConfig::default()
        };
        let (parents, _) = traverse(&g, 4, 0, cfg);
        assert!(is_spanning_tree(&g, &parents, 0));
    }

    #[test]
    fn starvation_still_fires_with_two_level_frontier() {
        // The private buffer must not hide the chain's serial frontier
        // from the starvation detector.
        let g = chain(50_000);
        let cfg = TraversalConfig {
            starvation_threshold: Some(3),
            publish_threshold: 256,
            ..TraversalConfig::default()
        };
        let exec = Executor::new(4);
        let mut ws = Workspace::new();
        let t = ws.traversal(&g, &exec, cfg);
        t.begin_round(0);
        let outcomes = exec.run(|ctx| t.run_worker_ctx(&ctx));
        assert!(
            outcomes.iter().all(|&o| o == TraversalOutcome::Starved),
            "expected starvation, got {outcomes:?}"
        );
    }

    #[test]
    fn hybrid_is_the_default_and_the_paper_protocol_is_top_down() {
        assert_eq!(Direction::default(), Direction::Hybrid);
        assert_eq!(TraversalConfig::base().direction, Direction::Hybrid);
        assert_eq!(
            TraversalConfig::paper_protocol().direction,
            Direction::TopDown
        );
    }

    #[test]
    fn seeder_tallies_reach_the_shared_counters_when_it_drops() {
        let g = chain(10);
        let exec = Executor::new(2);
        let mut ws = Workspace::new();
        ws.begin_job(&exec);
        let t = ws.traversal(&g, &exec, TraversalConfig::default());
        t.reset_round();
        {
            let mut s = t.seeder();
            s.seed(0, 0, NO_VERTEX);
            s.seed(1, 1, 0);
            for v in 5..8 {
                s.mark(v, NO_VERTEX);
            }
            assert!(t.is_colored(1) && t.is_colored(7) && !t.is_colored(2));
            assert_eq!(t.visited.load(Ordering::Relaxed), 0, "flushed early");
        }
        assert_eq!(t.visited.load(Ordering::Relaxed), 5);
        assert_eq!(t.drained.load(Ordering::Relaxed), 3);
        assert_eq!(t.counters().merged().get(Counter::ItemsPublished), 2);
        assert_eq!(t.next_uncolored(0), Some(2));
        assert_eq!(t.next_uncolored(5), Some(8));
    }

    #[test]
    fn seeded_colors_are_respected() {
        let g = chain(5);
        let exec = Executor::new(2);
        let mut ws = Workspace::new();
        let t = ws.traversal(&g, &exec, TraversalConfig::default());
        t.begin_round(2);
        assert!(t.is_colored(2));
        assert!(!t.is_colored(1));
    }

    #[test]
    fn workspace_arrays_are_reused_across_graphs() {
        // The same workspace serves graphs of shrinking and growing n;
        // every run starts from a fully reset prefix.
        let exec = Executor::new(2);
        let mut ws = Workspace::new();
        for n in [1000usize, 10, 5000, 100] {
            let g = chain(n);
            let t = ws.traversal(&g, &exec, TraversalConfig::default());
            t.begin_round(0);
            exec.run(|ctx| {
                t.run_worker_ctx(&ctx);
            });
            let parents = t.parents_vec();
            assert!(is_spanning_tree(&g, &parents, 0), "n = {n}");
        }
    }
}
