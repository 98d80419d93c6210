//! The Bader–Cong SMP spanning-tree algorithm (the paper's contribution).
//!
//! Two steps per component (§2):
//!
//! 1. **Stub spanning tree** — one processor grows a small tree by a
//!    random walk of O(p) steps and distributes its vertices evenly into
//!    the processors' queues ([`crate::stub`]).
//! 2. **Work-stealing graph traversal** — all p processors run the
//!    modified BFS of Alg. 1 with randomized work stealing
//!    ([`crate::traversal`]).
//!
//! The paper's starvation mechanism is included: when the configured
//! number of processors sleeps simultaneously, the traversal halts, the
//! partially grown trees are merged into super-vertices, and the
//! Shiloach–Vishkin algorithm finishes the job (the `fallback` routine
//! below). The partial trees' edges and SV's graft edges are then
//! oriented by the same round driver, rooted at the job's start root.
//!
//! Unlike the paper (which assumes a connected input and produces a
//! spanning tree) this driver produces a spanning *forest*: components
//! are processed one round at a time inside a single team session, the
//! next root found by an id-order scan — the natural generalization, and
//! what the disconnected experiment inputs (2D60, 3D40, sparse random)
//! require.
//!
//! Small components never pay for a round (two barriers and a team
//! wake-up): the driver finishes them with a walk of up to
//! [`WALK_BUDGET`] vertices. A walk that ends short of the budget has
//! covered its whole component, which is marked as a tree; isolated
//! vertices are marked without a walk. A component the walk cannot
//! exhaust gets a round: the walk from its smallest vertex seeds its
//! first `stub_factor · p` vertices, exactly the paper's stub for that
//! root and seed, and releases the rest to the traversal.
//!
//! On a team of one, a serial step does all of this between rounds, in
//! id order, recording one stub span and one counter add per call. On
//! a wider team the work is split three ways:
//!
//! 1. **Lead-in.** Before dispatch, the serial step covers the first
//!    page of ids (1024, a 4 KiB page of parents) and stops at the first
//!    component that needs a round, which then runs first. On inputs
//!    with a giant component this is nearly always the giant, so the
//!    team never walks its vertices in step 2.
//! 2. **Team prepare.** Every rank scans its own page-aligned id range
//!    and walks each uncolored vertex's component, claiming vertices
//!    with one `fetch_or` each on the visited bitmap (`claim_walk` in
//!    [`crate::stub`]). A walk that meets another walk's claim releases
//!    its own claims and yields; one that covers its component re-roots
//!    the tree at the smallest vertex. A walk that fills the budget
//!    releases its claims too, but marks its vertices as part of a big
//!    component, so later walks there stop at once. No vertex is lost:
//!    a component stays uncolored only if some walk released it, and
//!    that rank reports work left. No walk repeats forever: each rank
//!    starts at most one walk per vertex of its range. One barrier ends
//!    the phase, and the session when nothing is left. The loom model
//!    `loom_models/prepare.rs` in st-smp checks the claim-and-yield
//!    rule.
//! 3. **Rounds.** The serial step resumes in id order over whatever
//!    stayed uncolored: components that fill the budget (each rooted at
//!    its smallest vertex, since every vertex below it is colored) and
//!    the few that yields left behind.
//!
//! Every tree but the start root's is rooted at its smallest vertex,
//! and the roots come out as [`SpanningForest::roots`] documents them.
//!
//! This driver (`grow_forest`, crate-private) is st-core's only one:
//! orienting SV's and HCS's undirected tree edges ([`crate::orient`])
//! and the fallback run it on a forest's adjacency.

use st_graph::preprocess::{eliminate_degree2, Reduction};
use st_graph::{CsrGraph, VertexId, NO_VERTEX};
use st_obs::{now_ns, Counter, Phase};
use st_smp::mem::prefetch_read;
use st_smp::pad::CacheAligned;
use st_smp::team::block_range;
use st_smp::{AtomicBitmap, CancelToken, Executor, SpinLock, TeamCtx};
use std::ops::Range;
use std::sync::atomic::Ordering;

use crate::connected::tree_roots;
use crate::engine::{Cancelled, Engine, SpanningAlgorithm, Workspace};
use crate::orient::forest_adjacency;
use crate::result::{AlgoStats, SpanningForest};
use crate::stub::{claim_walk, grow_stub_into, Claim, StubScratch};
use crate::sv::{self, SvConfig};
use crate::traversal::{Seeder, TraversalConfig, TraversalOutcome};

/// How many vertices the round driver's stub walk may take before it
/// gives a component a traversal round (the stub target, if larger).
///
/// A walk that ends short of the budget has covered its whole
/// component, which the driver then marks without a round. A walk that
/// reaches it seeds its first `stub_factor · p` vertices, the paper's
/// stub, and releases the rest: those steps were wasted. The budget is
/// sized by ski rental: the steps a failed walk wastes should cost no
/// more than the round a successful walk saves.
///
/// Measured on a 2-vCPU Xeon (release build, medians):
/// - a round costs 1.2–1.6 µs at p = 1 and 4.3–5.3 µs at p = 2 (8192
///   disjoint chains of 2p vertices, timed with a budget of 2p, which
///   gives each chain a round, and with this one, which gives none);
/// - a walk step costs about 53 ns on `random_connected(2^10..2^12,
///   2n)`, 80 ns at 2^16 and 24 ns on a chain (`grow_stub_into`, 1000
///   walks per budget);
/// - a traversal visit costs about 20 ns, so a walk that finishes a
///   component of s vertices saves R − (s − 2p) · 33 ns over its round.
///
/// At 32, a failed walk wastes 30 steps, about 1.6 µs on a random graph:
/// one round at p = 1 and a third of one at p = 2. A walk that finishes
/// 31 vertices saves about 0.2 µs at p = 1 and 3.6 µs at p = 2. Jobs on
/// small connected graphs, which the service runs at p = 1, pay the
/// waste once each; a larger budget would pay more there and gain
/// nothing on `random_gnm(2^20, 1.5n)` (seed 7), whose components other
/// than the giant have fewer than 16 vertices.
pub const WALK_BUDGET: usize = 32;

/// Configuration of the Bader–Cong algorithm.
#[derive(Clone, Debug, PartialEq)]
pub struct Config {
    /// Traversal tuning (steal policy, idle timeout, starvation
    /// threshold, RNG seed).
    pub traversal: TraversalConfig,
    /// Stub tree target length as a multiple of p (the paper: "O(p)
    /// steps").
    pub stub_factor: usize,
    /// Run the degree-2 chain-elimination preprocessing of §2 first.
    pub deg2_preprocess: bool,
    /// Root the first tree here instead of at the id-order scan start.
    pub start_root: Option<VertexId>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            traversal: TraversalConfig::default(),
            stub_factor: 2,
            deg2_preprocess: false,
            start_root: None,
        }
    }
}

/// The algorithm object; construct once, run on many graphs.
#[derive(Clone, Debug, Default)]
pub struct BaderCong {
    cfg: Config,
}

impl BaderCong {
    /// With explicit configuration.
    pub fn new(cfg: Config) -> Self {
        Self { cfg }
    }

    /// With the paper's defaults (steal-half, stub length 2p, starvation
    /// detector disabled).
    pub fn with_defaults() -> Self {
        Self::default()
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Computes a spanning tree of a connected `g` rooted at `root` on
    /// `engine`'s team; `None` when `g` is not connected or `root` is out
    /// of range.
    pub fn spanning_tree(
        &self,
        engine: &mut Engine,
        g: &CsrGraph,
        root: VertexId,
    ) -> Option<Vec<VertexId>> {
        if (root as usize) >= g.num_vertices() {
            return None;
        }
        let mut cfg = self.cfg.clone();
        cfg.start_root = Some(root);
        // Degree-2 preprocessing changes vertex identity; the rooted-tree
        // entry point keeps it off so `root` stays meaningful.
        cfg.deg2_preprocess = false;
        let forest = engine.run(&BaderCong::new(cfg), g);
        (forest.roots.len() == 1).then_some(forest.parents)
    }

    fn forest_with_preprocess(
        &self,
        g: &CsrGraph,
        exec: &Executor,
        ws: &mut Workspace,
        cancel: &CancelToken,
    ) -> Result<SpanningForest, Cancelled> {
        let red: Reduction = eliminate_degree2(g);
        let mut inner_cfg = self.cfg.clone();
        inner_cfg.deg2_preprocess = false;
        inner_cfg.start_root = None;
        let reduced_forest =
            BaderCong::new(inner_cfg).forest_direct(&red.reduced, exec, ws, cancel)?;
        let parents = red.expand_parents(&reduced_forest.parents);
        Ok(SpanningForest::from_parents(parents, reduced_forest.stats))
    }

    fn forest_direct(
        &self,
        g: &CsrGraph,
        exec: &Executor,
        ws: &mut Workspace,
        cancel: &CancelToken,
    ) -> Result<SpanningForest, Cancelled> {
        // A live caller token takes over the traversal's cancellation
        // plumbing; otherwise any token already on the config applies.
        let mut tcfg = self.cfg.traversal.clone();
        if cancel.is_live() {
            tcfg.cancel = cancel.clone();
        }
        let cancel = tcfg.cancel.clone();
        ws.begin_job(exec);
        let grown = grow_forest(g, exec, ws, tcfg, self.cfg.stub_factor, self.cfg.start_root);
        match grown.outcome {
            TraversalOutcome::Completed => Ok(SpanningForest {
                parents: grown.parents,
                roots: grown.roots,
                stats: AlgoStats {
                    fallback_triggered: false,
                    metrics: ws.finish_job(exec),
                },
            }),
            TraversalOutcome::Starved => self.fallback(g, exec, ws, grown.parents, &cancel),
            TraversalOutcome::Cancelled => {
                // Close the observability window (discarding the report)
                // so the workspace is clean for its next job.
                let _ = ws.finish_job(exec);
                Err(Cancelled)
            }
        }
    }

    /// The paper's starvation fallback: "merge the grown spanning
    /// subtree into a super-vertex, and start a different algorithm, for
    /// instance, the SV approach."
    ///
    /// SV's hook array D starts with every vertex contracted into the
    /// root of its partial tree (an uncolored vertex is its own root), so
    /// SV grafts only between distinct super-vertices. Its graft edges
    /// and the partial trees' edges (v, `parents[v]`) therefore form a
    /// spanning forest of `g`, which the forest driver orients, rooted
    /// at the job's start root.
    fn fallback(
        &self,
        g: &CsrGraph,
        exec: &Executor,
        ws: &mut Workspace,
        parents: Vec<VertexId>,
        cancel: &CancelToken,
    ) -> Result<SpanningForest, Cancelled> {
        let n = g.num_vertices();
        let t_fallback = now_ns();

        let init = tree_roots(&parents);
        let sv_out = match sv::sv_core(g, exec, ws, Some(&init), SvConfig::default(), cancel) {
            Ok(out) => out,
            Err(Cancelled) => {
                let _ = ws.finish_job(exec);
                return Err(Cancelled);
            }
        };

        let mut edges = sv_out.tree_edges;
        edges.extend(
            (0..n as VertexId)
                .map(|v| (v, parents[v as usize]))
                .filter(|&(_, pv)| pv != NO_VERTEX),
        );
        let forest = forest_adjacency(n, &edges);
        let Config {
            traversal,
            stub_factor,
            ..
        } = Config::default();
        let oriented = grow_forest(
            &forest,
            exec,
            ws,
            traversal,
            stub_factor,
            self.cfg.start_root,
        );

        ws.trace.rank(0).record(Phase::Fallback, t_fallback);
        let stats = AlgoStats {
            fallback_triggered: true,
            metrics: ws.finish_job(exec),
        };
        Ok(SpanningForest::from_parents(oriented.parents, stats))
    }
}

/// What the forest driver leaves behind.
pub(crate) struct Grown {
    /// One root per tree: the start root first, then ascending ids.
    pub(crate) roots: Vec<VertexId>,
    /// How the session ended.
    pub(crate) outcome: TraversalOutcome,
    /// The parent array; partial unless the outcome is
    /// [`TraversalOutcome::Completed`].
    pub(crate) parents: Vec<VertexId>,
}

/// Vertex ids per 4 KiB page of a `u32` parent array. The team prepare
/// gives each rank a whole number of pages (hence of bitmap words), and
/// the serial lead-in covers the first page.
const PAGE_VERTICES: usize = 1024;

/// The forest driver's scratch, kept in the workspace between jobs.
#[derive(Debug, Default)]
pub(crate) struct DriverScratch {
    /// One walk scratch per rank; rank 0's also serves the serial steps.
    walks: Vec<CacheAligned<SpinLock<StubScratch>>>,
    /// The team prepare's roots, one bit each.
    rooted: AtomicBitmap,
    /// Vertices the team prepare found in components of at least the
    /// walk budget.
    big: AtomicBitmap,
}

/// The driver's serial step, run by one processor while the others
/// wait: the lead-in before dispatch and every round preparation.
struct Serial<'d> {
    g: &'d CsrGraph,
    walk: &'d SpinLock<StubScratch>,
    start_root: Option<VertexId>,
    budget: usize,
    stub_target: usize,
    seed: u64,
    /// Every vertex below it is colored.
    cursor: usize,
    /// The roots this step found, in order.
    roots: Vec<VertexId>,
}

impl Serial<'_> {
    /// Finishes components below `end` in id order until one fills the
    /// walk budget, which it seeds for a round (returning `true`); the
    /// start root, when given, goes first. Records one stub span and
    /// one add per counter, however many components it finishes.
    fn prepare(&mut self, s: &mut Seeder<'_, '_>, round: usize, end: usize) -> bool {
        let g = self.g;
        let n = g.num_vertices();
        let p = s.traversal().processors();
        let visited = s.traversal().colored();
        let mut walk = self.walk.lock();
        let t_stub = now_ns();
        let (mut walks, mut walked) = (0u64, 0u64);
        let more = loop {
            // The next component root: the smallest uncolored vertex
            // (every vertex below the cursor is colored).
            let root = match self.start_root {
                Some(r) if self.roots.is_empty() && (r as usize) < n => r,
                _ => match visited.next_clear(self.cursor, end) {
                    Some(v) => {
                        self.cursor = v;
                        v as VertexId
                    }
                    None => break false,
                },
            };
            self.roots.push(root);
            // Roots ascend, so their CSR offsets are read as a sparse
            // stream: fetch a few lines ahead.
            prefetch_read(g.raw_offsets().as_ptr().wrapping_add(root as usize + 128));
            if g.degree(root) == 0 {
                // An isolated vertex is its own tree: no walk.
                s.mark(root, NO_VERTEX);
                continue;
            }
            // Phase 1: stub spanning tree, grown by "one processor",
            // up to the budget.
            let stub = grow_stub_into(
                g,
                root,
                self.budget,
                self.seed ^ (round as u64) ^ (walks << 32),
                visited,
                &mut walk,
            );
            walks += 1;
            walked += stub.len() as u64;
            if stub.len() < self.budget {
                // The backtracking walk exhausted the component: it is
                // fully covered, so no traversal round (and no
                // barriers) are needed.
                for (&v, &par) in stub.vertices.iter().zip(stub.parents.iter()) {
                    s.mark(v, par);
                }
                continue;
            }
            // Big component: deal the walk's first `stub_target`
            // vertices (the paper's O(p) stub) round-robin into the
            // queues, release the rest to the traversal, and run a
            // work-stealing round.
            let (keep, release) = stub.vertices.split_at(self.stub_target);
            for (i, (&v, &par)) in keep.iter().zip(stub.parents.iter()).enumerate() {
                s.seed(i % p, v, par);
            }
            for &v in release {
                visited.clear(v as usize, Ordering::Relaxed);
            }
            break true;
        };
        let t = s.traversal();
        t.trace().rank(0).record(Phase::Stub, t_stub);
        let slot0 = t.counters().rank(0);
        slot0.add(Counter::StubWalks, walks);
        slot0.add(Counter::StubVertices, walked);
        more
    }
}

/// The team prepare on one rank: scans `range` in id order and finishes
/// every component that a [`claim_walk`] from its first uncolored vertex
/// covers, rooted at its smallest vertex, marking isolated vertices
/// without a walk; sets each root's bit in `rooted`. A walk that meets
/// a big component marks its vertices in `big`, so later walks there
/// stop at once. Returns whether it left anything uncolored: a walk
/// that met a big component or another walk, whose claims it released.
/// Counts only the walks that finished a component in
/// [`Counter::StubWalks`], and every vertex walked in
/// [`Counter::StubVertices`].
fn prepare_range(
    g: &CsrGraph,
    s: &mut Seeder<'_, '_>,
    rank: usize,
    range: Range<usize>,
    budget: usize,
    driver: &DriverScratch,
    walk: &mut StubScratch,
) -> bool {
    let t = s.traversal();
    let visited = t.colored();
    let t_stub = now_ns();
    let (mut walks, mut walked, mut left) = (0u64, 0u64, false);
    const W: usize = AtomicBitmap::WORD_BITS;
    for w in range.start / W..range.end.div_ceil(W) {
        let base = w * W;
        let mut free = !visited.word(w, Ordering::Relaxed) & !driver.big.word(w, Ordering::Relaxed);
        if range.end - base < W {
            free &= (1u64 << (range.end - base)) - 1;
        }
        if free == 0 {
            continue;
        }
        prefetch_read(g.raw_offsets().as_ptr().wrapping_add(base + 2 * W));
        let mut isolated = 0u64;
        while free != 0 {
            let bit = free.trailing_zeros();
            free &= free - 1;
            let start = (base + bit as usize) as VertexId;
            if g.degree(start) == 0 {
                isolated |= 1 << bit;
                continue;
            }
            if visited.get(start as usize, Ordering::Relaxed) {
                // Claimed since the word was read.
                continue;
            }
            let (end, tree) = claim_walk(g, start, budget, visited, &driver.big, walk);
            walked += tree.len() as u64;
            match end {
                Claim::Covered(root) => {
                    for (&v, &par) in tree.vertices.iter().zip(tree.parents.iter()) {
                        s.mark(v, par);
                    }
                    driver.rooted.set(root as usize, Ordering::Relaxed);
                    walks += 1;
                }
                Claim::Big | Claim::Blocked => {
                    for &v in &tree.vertices {
                        if end == Claim::Big {
                            driver.big.set(v as usize, Ordering::Relaxed);
                        }
                        visited.clear(v as usize, Ordering::Relaxed);
                    }
                    left = true;
                }
            }
        }
        if isolated != 0 {
            // Isolated vertices are each their own tree, and no walk
            // reaches them: one `fetch_or` per word colors them.
            s.mark_roots(w, isolated);
            driver.rooted.set_word(w, isolated, Ordering::Relaxed);
        }
    }
    t.trace().rank(rank).record(Phase::Stub, t_stub);
    let slot = t.counters().rank(rank);
    slot.add(Counter::StubWalks, walks);
    slot.add(Counter::StubVertices, walked);
    left
}

/// Rank `rank`'s share of the ids `0..n` in the team prepare: a
/// contiguous run of whole pages ([`PAGE_VERTICES`]).
fn page_range(rank: usize, p: usize, n: usize) -> Range<usize> {
    let pages = block_range(rank, p, n.div_ceil(PAGE_VERTICES));
    (pages.start * PAGE_VERTICES).min(n)..(pages.end * PAGE_VERTICES).min(n)
}

/// Merges the set bits of `team` below `n` (ascending) with `later`
/// (ascending) onto the end of `roots`.
fn merge_roots(roots: &mut Vec<VertexId>, team: &AtomicBitmap, n: usize, later: Vec<VertexId>) {
    let mut later = later.into_iter().peekable();
    for word_base in (0..n).step_by(AtomicBitmap::WORD_BITS) {
        let mut bits = team.word(word_base / AtomicBitmap::WORD_BITS, Ordering::Relaxed);
        while bits != 0 {
            let r = (word_base + bits.trailing_zeros() as usize) as VertexId;
            bits &= bits - 1;
            while let Some(l) = later.next_if(|&l| l < r) {
                roots.push(l);
            }
            roots.push(r);
        }
    }
    roots.extend(later);
}

/// The forest driver: grows a spanning forest of `g` on `exec`'s team,
/// one round per component its walks cannot exhaust (module docs).
///
/// The first tree is rooted at `start_root` (when in range), every
/// other at the smallest vertex id of its component: a serial step
/// roots a component at the smallest uncolored vertex, every vertex
/// below it belonging to a finished component, and a team walk re-roots
/// the component it covers at its smallest vertex. Opens no job window, so
/// the caller's job records the session's counters and spans.
/// Bader–Cong runs it on the input graph; orientation
/// ([`crate::orient`]) and the starvation fallback run it on a forest's
/// adjacency.
pub(crate) fn grow_forest(
    g: &CsrGraph,
    exec: &Executor,
    ws: &mut Workspace,
    tcfg: TraversalConfig,
    stub_factor: usize,
    start_root: Option<VertexId>,
) -> Grown {
    let n = g.num_vertices();
    let p = exec.size();
    if n == 0 || tcfg.cancel.is_cancelled() {
        let outcome = if n == 0 {
            TraversalOutcome::Completed
        } else {
            TraversalOutcome::Cancelled
        };
        return Grown {
            roots: Vec::new(),
            outcome,
            parents: Vec::new(),
        };
    }
    let stub_target = (stub_factor * p).max(1);
    let budget = WALK_BUDGET.max(stub_target);
    let seed = tcfg.seed;

    // The driver's scratch leaves the workspace while the session
    // borrows the rest of it.
    let mut driver = std::mem::take(&mut ws.driver);
    while driver.walks.len() < p {
        driver
            .walks
            .push(CacheAligned::new(SpinLock::new(StubScratch::default())));
    }
    if p > 1 {
        for bits in [&mut driver.rooted, &mut driver.big] {
            bits.ensure_len(n);
            bits.clear_prefix(n);
        }
    }
    let mut serial = Serial {
        g,
        walk: &driver.walks[0],
        start_root,
        budget,
        stub_target,
        seed,
        cursor: 0,
        roots: Vec::new(),
    };
    let (outcome, parents, lead_in) = {
        let t = ws.traversal(g, exec, tcfg);
        // Wider teams first run the lead-in: the serial step over the
        // first page, before dispatch. On most inputs with a giant
        // component it meets the giant there and seeds its round, which
        // then runs before the team prepare, so the team never walks
        // the giant.
        let seeded = p > 1 && {
            t.reset_round();
            let mut s = t.seeder();
            serial.prepare(&mut s, 0, n.min(PAGE_VERTICES))
        };
        let lead_in = serial.roots.len();
        let driver = &driver;
        let team = (p > 1).then_some(|ctx: &TeamCtx<'_>, s: &mut Seeder<'_, '_>| {
            let rank = ctx.rank();
            let range = page_range(rank, p, n);
            let mut walk = driver.walks[rank].lock();
            prepare_range(g, s, rank, range, budget, driver, &mut walk)
        });
        let outcome = t.run_rounds(exec, seeded, team, |s, round| serial.prepare(s, round, n));
        (outcome, t.into_parents(), lead_in)
    };
    let mut roots = serial.roots;
    if p > 1 {
        let later = roots.split_off(lead_in);
        merge_roots(&mut roots, &driver.rooted, n, later);
    }
    ws.driver = driver;
    Grown {
        roots,
        outcome,
        parents,
    }
}

impl SpanningAlgorithm for BaderCong {
    fn name(&self) -> &'static str {
        "bader-cong"
    }

    /// Ends early with `Err(Cancelled)` if `cancel` (or a live token
    /// already in [`Config::traversal`]) fires. The token is polled at
    /// publication boundaries, on the idle path, at round barriers, and
    /// at the SV fallback's iteration barriers.
    fn run(
        &self,
        g: &CsrGraph,
        exec: &Executor,
        ws: &mut Workspace,
        cancel: &CancelToken,
    ) -> Result<SpanningForest, Cancelled> {
        if self.cfg.deg2_preprocess {
            return self.forest_with_preprocess(g, exec, ws, cancel);
        }
        self.forest_direct(g, exec, ws, cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use st_graph::gen;
    use st_graph::label::{random_permutation, relabel};
    use st_graph::validate::{count_components, is_spanning_forest, is_spanning_tree};
    use st_obs::JobMetrics;
    use st_smp::StealPolicy;

    fn check_forest(g: &CsrGraph, p: usize) -> SpanningForest {
        let f = Engine::new(p).run(&BaderCong::with_defaults(), g);
        assert!(
            is_spanning_forest(g, &f.parents),
            "invalid forest for p = {p}"
        );
        assert_eq!(f.roots.len(), count_components(g));
        f
    }

    /// Traversal rounds the driver ran: every rank records one
    /// traverse span per round.
    fn driver_rounds(m: &JobMetrics) -> u64 {
        let traverse = m.phases.iter().find(|t| t.phase == Phase::Traverse);
        traverse.map_or(0, |t| t.count) / m.p as u64
    }

    /// Component sizes, in no particular order.
    fn component_sizes(g: &CsrGraph) -> Vec<usize> {
        let n = g.num_vertices();
        let mut dsu = st_graph::dsu::DisjointSets::new(n);
        for (u, v) in g.edges() {
            dsu.union(u, v);
        }
        let mut size = vec![0usize; n];
        for v in 0..n as VertexId {
            size[dsu.find(v) as usize] += 1;
        }
        size.retain(|&s| s > 0);
        size
    }

    /// Disjoint chains and stars of B − 1, B and B + 1 vertices, then
    /// `isolated` vertices.
    fn budget_boundary_graph(isolated: usize) -> CsrGraph {
        let b = WALK_BUDGET;
        let mut el = st_graph::EdgeList::new(6 * b + isolated);
        let mut start = 0u32;
        for len in [b - 1, b, b + 1] {
            for i in 1..len as u32 {
                el.push(start + i - 1, start + i);
            }
            start += len as u32;
            for i in 1..len as u32 {
                el.push(start, start + i);
            }
            start += len as u32;
        }
        CsrGraph::from_edge_list(&el)
    }

    #[test]
    fn components_under_the_budget_finish_in_the_driver() {
        let g = budget_boundary_graph(50);
        for p in [1, 2, 4] {
            let f = check_forest(&g, p);
            assert_eq!(f.roots.len(), 6 + 50, "p = {p}");
            // The four components of B or B + 1 vertices fill the walk's
            // budget and get a round each.
            assert_eq!(driver_rounds(&f.stats.metrics), 4, "p = {p}");
            // The isolated vertices are not walked.
            assert_eq!(f.stats.metrics.get(Counter::StubWalks), 6, "p = {p}");
        }
    }

    #[test]
    fn sparse_random_graph_runs_one_round_per_big_component() {
        let n = 1 << 14;
        let g = gen::random_gnm(n, 3 * n / 2, 11);
        let sizes = component_sizes(&g);
        let big = sizes.iter().filter(|&&s| s >= WALK_BUDGET).count();
        let walked = sizes.iter().filter(|&&s| s > 1).count();
        assert!(sizes.len() > 500 && big >= 1, "test graph lost its shape");
        for p in [1, 2, 4] {
            let f = check_forest(&g, p);
            assert_eq!(f.roots.len(), sizes.len(), "p = {p}");
            // A component of exactly B vertices fills the budget too, so
            // "big" counts sizes >= B. One stub span per round
            // preparation, not per component.
            let m = &f.stats.metrics;
            assert_eq!(driver_rounds(m), big as u64, "p = {p}");
            // Each round costs two barriers; the session ends with one
            // more (bottom-up sweeps add their own).
            assert!(
                m.per_rank[0].get(Counter::Barriers) > 2 * big as u64,
                "p = {p}"
            );
            assert_eq!(m.get(Counter::StubWalks), walked as u64, "p = {p}");
        }
    }

    #[test]
    fn torus_all_processor_counts() {
        let g = gen::torus2d(20, 20);
        for p in [1, 2, 3, 4, 8] {
            let f = check_forest(&g, p);
            assert_eq!(f.roots.len(), 1);
        }
    }

    #[test]
    fn random_graph_forest() {
        let g = gen::random_gnm(2_000, 3_000, 21);
        check_forest(&g, 4);
    }

    #[test]
    fn disconnected_mesh_forest() {
        // 2D60 meshes are naturally disconnected.
        let g = gen::mesh2d_p(30, 30, 0.6, 5);
        let f = check_forest(&g, 4);
        assert!(f.roots.len() > 1, "2D60 should have multiple components");
    }

    #[test]
    fn spanning_tree_api() {
        let g = gen::random_connected(500, 700, 2);
        let t = BaderCong::with_defaults()
            .spanning_tree(&mut Engine::new(4), &g, 7)
            .expect("graph is connected");
        assert!(is_spanning_tree(&g, &t, 7));
    }

    #[test]
    fn spanning_tree_rejects_disconnected_and_bad_root() {
        let g = gen::random_gnm(100, 30, 3);
        let algo = BaderCong::with_defaults();
        let mut engine = Engine::new(2);
        assert!(algo.spanning_tree(&mut engine, &g, 0).is_none());
        let g2 = gen::chain(5);
        assert!(algo.spanning_tree(&mut engine, &g2, 500).is_none());
    }

    #[test]
    fn labeling_does_not_break_correctness() {
        // The paper: "the labeling of vertices does not affect the
        // performance of our new algorithm" — and certainly not its
        // correctness.
        let g = gen::torus2d(16, 16);
        let perm = random_permutation(g.num_vertices(), 77);
        let h = relabel(&g, &perm);
        check_forest(&h, 4);
    }

    #[test]
    fn geometric_and_geographic_families() {
        check_forest(&gen::ad3(800, 4), 4);
        check_forest(
            &gen::geographic_flat(800, gen::GeoFlatParams::with_target_degree(800, 4.0), 9),
            4,
        );
        check_forest(&gen::geographic_hier(gen::GeoHierParams::default(), 3), 4);
    }

    #[test]
    fn chain_without_detector_still_correct() {
        let g = gen::chain(5_000);
        let f = check_forest(&g, 4);
        assert!(!f.stats.fallback_triggered);
    }

    #[test]
    fn chain_with_detector_falls_back_and_stays_correct() {
        let g = gen::chain(20_000);
        let cfg = Config {
            traversal: TraversalConfig {
                starvation_threshold: Some(3),
                ..TraversalConfig::default()
            },
            ..Config::default()
        };
        let f = Engine::new(4).run(&BaderCong::new(cfg), &g);
        assert!(
            f.stats.fallback_triggered,
            "chain should trigger starvation with threshold 3"
        );
        assert!(is_spanning_forest(&g, &f.parents));
        assert_eq!(f.roots.len(), 1);
    }

    #[test]
    fn fallback_keeps_the_requested_root() {
        // A root a quarter of the way along: once the short side is done,
        // one rank crawls the long side while three sleep.
        let g = gen::chain(20_000);
        let root = 5_000;
        let detector = TraversalConfig {
            starvation_threshold: Some(3),
            ..TraversalConfig::default()
        };
        let mut engine = Engine::new(4);
        let rooted = BaderCong::new(Config {
            traversal: detector.clone(),
            start_root: Some(root),
            ..Config::default()
        });
        let f = engine.run(&rooted, &g);
        assert!(f.stats.fallback_triggered, "the chain should starve");
        assert_eq!(f.roots, vec![root]);
        let algo = BaderCong::new(Config {
            traversal: detector,
            ..Config::default()
        });
        let t = algo
            .spanning_tree(&mut engine, &g, root)
            .expect("chain is connected");
        assert!(is_spanning_tree(&g, &t, root));
        assert_eq!(t.iter().filter(|&&v| v == NO_VERTEX).count(), 1);
    }

    #[test]
    fn fallback_on_disconnected_graph() {
        // Long chain plus separate components, detector armed.
        let mut el = st_graph::EdgeList::new(10_050);
        for v in 1..10_000u32 {
            el.push(v - 1, v);
        }
        for v in 10_000..10_050u32 {
            if v > 10_000 && v % 5 != 0 {
                el.push(v - 1, v);
            }
        }
        let g = CsrGraph::from_edge_list(&el);
        let cfg = Config {
            traversal: TraversalConfig {
                starvation_threshold: Some(3),
                ..TraversalConfig::default()
            },
            ..Config::default()
        };
        let f = Engine::new(4).run(&BaderCong::new(cfg), &g);
        assert!(
            is_spanning_forest(&g, &f.parents),
            "fallback forest invalid"
        );
    }

    #[test]
    fn deg2_preprocess_path() {
        // Lollipop-ish graph with long chains: preprocessing shrinks it.
        let g = {
            let mut el = st_graph::EdgeList::new(1_000);
            // Dense head.
            for u in 0..20u32 {
                for v in (u + 1)..20 {
                    el.push(u, v);
                }
            }
            // Long tail chain.
            for v in 20..1_000u32 {
                el.push(v - 1, v);
            }
            CsrGraph::from_edge_list(&el)
        };
        let cfg = Config {
            deg2_preprocess: true,
            ..Config::default()
        };
        let f = Engine::new(4).run(&BaderCong::new(cfg), &g);
        assert!(is_spanning_forest(&g, &f.parents));
        assert_eq!(f.roots.len(), 1);
    }

    #[test]
    fn stats_are_populated() {
        let g = gen::random_connected(3_000, 4_500, 6);
        let f = check_forest(&g, 4);
        let m = &f.stats.metrics;
        assert_eq!(m.per_rank.len(), 4);
        assert!(m.get(Counter::Processed) > 0);
        assert!(m.per_rank[0].get(Counter::Barriers) >= 2);
        // Top-down expands every vertex at least once, so its processed
        // count is >= n (duplicates possible from benign races). The
        // default hybrid direction drops the frontier it holds when it
        // switches to bottom-up, so it may process fewer.
        let top_down = Config {
            traversal: TraversalConfig {
                direction: crate::traversal::Direction::TopDown,
                ..TraversalConfig::default()
            },
            ..Config::default()
        };
        let f = Engine::new(4).run(&BaderCong::new(top_down), &g);
        assert!(is_spanning_forest(&g, &f.parents));
        assert!(f.stats.metrics.get(Counter::Processed) >= g.num_vertices() as u64);
    }

    #[test]
    fn steal_policy_ablation_configs_work() {
        let g = gen::random_connected(1_500, 2_000, 8);
        for policy in [StealPolicy::Half, StealPolicy::One, StealPolicy::Chunk(8)] {
            let cfg = Config {
                traversal: TraversalConfig {
                    steal_policy: policy,
                    ..TraversalConfig::default()
                },
                ..Config::default()
            };
            let f = Engine::new(4).run(&BaderCong::new(cfg), &g);
            assert!(is_spanning_forest(&g, &f.parents), "policy {policy:?}");
        }
    }

    #[test]
    fn empty_graph() {
        let f = Engine::new(2).run(&BaderCong::with_defaults(), &CsrGraph::empty(0));
        assert!(f.parents.is_empty());
    }

    #[test]
    fn edgeless_graph() {
        let f = Engine::new(3).run(&BaderCong::with_defaults(), &CsrGraph::empty(7));
        assert_eq!(f.roots.len(), 7);
    }

    #[test]
    fn stub_factor_variations() {
        let g = gen::torus2d(12, 12);
        for factor in [1, 4, 16] {
            let cfg = Config {
                stub_factor: factor,
                ..Config::default()
            };
            let f = Engine::new(4).run(&BaderCong::new(cfg), &g);
            assert!(is_spanning_forest(&g, &f.parents), "stub factor {factor}");
        }
    }

    #[test]
    fn pre_cancelled_job_aborts_and_leaves_team_reusable() {
        use st_smp::CancelToken;
        let exec = Executor::new(4);
        let mut ws = Workspace::new();
        let g = gen::torus2d(30, 30);
        let token = CancelToken::new();
        token.cancel();
        let algo = BaderCong::with_defaults();
        let out = algo.run(&g, &exec, &mut ws, &token);
        assert!(out.is_err(), "cancelled token must abort the job");
        // The same team and workspace must run clean jobs afterwards.
        let f = algo
            .run(&g, &exec, &mut ws, &CancelToken::none())
            .expect("inert token cannot cancel");
        assert!(is_spanning_forest(&g, &f.parents));
    }

    #[test]
    fn cancel_mid_run_is_either_clean_or_complete() {
        use st_smp::CancelToken;
        use std::sync::Arc;
        // Racing a cancel against a running traversal must yield either
        // a complete valid forest or a clean `Cancelled` — never a
        // wedged team. Both outcomes are legitimate on a fast machine.
        let exec = Arc::new(Executor::new(4));
        let mut ws = Workspace::new();
        let g = gen::torus2d(120, 120);
        let algo = BaderCong::with_defaults();
        for delay_us in [0u64, 50, 500] {
            let token = CancelToken::new();
            let canceller = {
                let token = token.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_micros(delay_us));
                    token.cancel();
                })
            };
            if let Ok(f) = algo.run(&g, &exec, &mut ws, &token) {
                assert!(is_spanning_forest(&g, &f.parents));
            }
            canceller.join().unwrap();
            // Team stays healthy either way.
            let f = algo
                .run(&g, &exec, &mut ws, &CancelToken::none())
                .expect("inert token cannot cancel");
            assert!(is_spanning_forest(&g, &f.parents), "delay {delay_us}us");
        }
    }

    #[test]
    fn deadline_token_cancels_like_explicit_cancel() {
        use st_smp::CancelToken;
        use std::time::{Duration, Instant};
        let exec = Executor::new(2);
        let mut ws = Workspace::new();
        let g = gen::torus2d(40, 40);
        let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let out = BaderCong::with_defaults().run(&g, &exec, &mut ws, &expired);
        assert!(out.is_err(), "expired deadline must abort the job");
        assert!(expired.deadline_expired());
    }
}
