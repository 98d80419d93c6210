//! Incremental spanning-forest maintenance under batch edge updates.
//!
//! A [`DynForest`] keeps a rooted spanning forest of an evolving graph
//! alive across [`EdgeBatch`](st_graph::EdgeBatch) applications without
//! recomputing it from scratch:
//!
//! * **Insertions** run the gbbs CAS-hook union-find idiom over the
//!   *components* touched by the batch (not the whole vertex set): each
//!   batch edge whose endpoints carry different component labels races
//!   to hook the smaller-indexed component root under the larger via a
//!   single CAS on a `hooks` slot; the winning edges — at most one per
//!   hooked component — are exactly the new tree edges. The local
//!   union-find state lives in the [`Workspace`] arena (`parent` and
//!   `color` arrays over the ≤ 2·batch locals). Its `find` compresses
//!   paths upward only, so every union-find chain stays strictly
//!   increasing while ranks compress and link at once.
//! * **Deletions** of non-tree edges are free. Cutting a tree edge
//!   (u, v) leaves both halves properly rooted (the child side's parent
//!   pointers already point at the cut point), so the maintainer finds
//!   the smaller half S by an alternating BFS in O(|S|), then searches
//!   the edges incident to S for a *replacement edge* back to the rest
//!   of the old component — in parallel, seeded from the workspace's
//!   per-processor work queues with a CAS election slot, when S is
//!   large. No replacement means the component genuinely split and S
//!   takes a label from the free pool.
//!
//! All state sits in flat `u32` arrays over the vertices. The tree is
//! the parent array plus a first-child array and doubly linked sibling
//! chains, so a link or a cut is an O(1) splice and a whole tree can be
//! walked in preorder without a stack. Component labels are dense ids
//! below n with their sizes in a label-indexed array; a merge retires
//! the losers' labels onto a free stack and a split takes one back. The
//! per-batch scratch belongs to the maintainer and is reset entry by
//! entry, so once it has grown a batch stream allocates nothing.
//!
//! The maintainer is exact, not approximate — after every batch the
//! forest is a true spanning forest of the new graph (the oracle
//! equivalence suite checks this against full recomputation). What it
//! does *not* promise is that incremental is always cheaper: a batch
//! that touches most of the graph costs more than a recompute. So
//! [`DynForest::apply_batch_within`] meters the work a repair actually
//! does — vertices the smaller-side search dequeues, edges the
//! replacement search will scan, vertices relabeled, re-root steps —
//! and stops with [`OverBudget`] as soon as the next charge would pass
//! its budget. The service then drops the half-repaired forest and
//! falls back to the full Bader–Cong run.

use std::sync::atomic::{AtomicU64, Ordering};

use st_graph::delta::Neighbors;
use st_graph::{VertexId, NO_VERTEX};
use st_smp::Executor;

use crate::connected::tree_roots;
use crate::engine::Workspace;
use crate::result::{AlgoStats, SpanningForest};

/// Sentinel for the workspace-local union-find: an `EMPTY` parent marks
/// a root, an `EMPTY` hook an unhooked component. It also marks labels
/// the current batch has not touched.
const EMPTY: u32 = u32::MAX;

/// Election-slot sentinel: no replacement edge published yet.
const NO_WINNER: u64 = u64::MAX;

/// Below this many cross-component batch edges the CAS-hook phase runs
/// sequentially — team handoff costs more than the loop.
const PAR_INSERT_THRESHOLD: usize = 64;

/// Below this many scanned edges the replacement search runs
/// sequentially on the cutting thread.
const PAR_SCAN_THRESHOLD: usize = 4096;

/// What one batch did to the forest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Components merged away by insertions (tree links added).
    pub tree_merges: usize,
    /// Components created by deletions that found no replacement.
    pub tree_splits: usize,
    /// Tree-edge deletions healed by a replacement edge.
    pub replacements: usize,
    /// Vertices whose component label was rewritten.
    pub relabeled: usize,
}

impl UpdateStats {
    fn absorb(&mut self, other: UpdateStats) {
        self.tree_merges += other.tree_merges;
        self.tree_splits += other.tree_splits;
        self.replacements += other.replacements;
        self.relabeled += other.relabeled;
    }
}

/// A budgeted repair ([`DynForest::apply_batch_within`]) stopped
/// because finishing would cost more work than its budget. The forest
/// is left half-repaired and must be discarded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverBudget;

/// Repair work a budgeted batch may still do, in units of one vertex
/// visited or one edge scanned.
struct Meter(usize);

impl Meter {
    /// Pays for `work` units, or fails when the budget cannot cover them.
    #[inline]
    fn charge(&mut self, work: usize) -> Result<(), OverBudget> {
        self.0 = self.0.checked_sub(work).ok_or(OverBudget)?;
        Ok(())
    }
}

/// A rooted spanning forest maintained incrementally across batches.
///
/// Component identity is a dense `u32` label below n. Merges keep the
/// label of the largest constituent (fewest rewrites) and free the
/// others; splits take a free label. Equal labels mean the same
/// component at any one moment, but a label says nothing across batches.
#[derive(Clone, Debug)]
pub struct DynForest {
    /// Rootward parent per vertex; [`NO_VERTEX`] at roots.
    parents: Vec<VertexId>,
    /// Head of each vertex's child list; [`NO_VERTEX`] at leaves.
    first_child: Vec<VertexId>,
    /// Next and previous vertex in the parent's child list;
    /// [`NO_VERTEX`] at the ends and at roots.
    next_sibling: Vec<VertexId>,
    prev_sibling: Vec<VertexId>,
    /// Component label per vertex.
    comp: Vec<u32>,
    /// Component size per label; 0 for labels on `free`.
    size: Vec<u32>,
    /// Labels no component holds.
    free: Vec<u32>,
    /// Epoch-stamped BFS visit marks (no O(n) clear per deletion).
    mark: Vec<u32>,
    epoch: u32,
    /// Per-batch scratch, kept to be reused by the next batch.
    scratch: Scratch,
}

/// Buffers one batch needs, owned by the maintainer so that a stream of
/// batches grows them once.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// Batch-local index per component label; [`EMPTY`] for labels the
    /// batch has not touched. Reset entry by entry after the mapping.
    local_of: Vec<u32>,
    /// Per local: its label and a member vertex (a batch endpoint).
    locals: Vec<(u32, VertexId)>,
    /// Cross-component inserts as (local a, local b, u, v).
    edges: Vec<(u32, u32, VertexId, VertexId)>,
    /// Per union-find root local: the largest member local and the
    /// merged size.
    groups: Vec<(u32, u32)>,
    /// Frontiers of the smaller-side search, one per cut endpoint.
    qa: Vec<VertexId>,
    qb: Vec<VertexId>,
}

impl DynForest {
    /// Adopts an existing forest (typically a full Bader–Cong run) as
    /// the maintenance baseline. Each tree is labeled by its root.
    pub fn from_forest(forest: &SpanningForest) -> Self {
        let n = forest.parents.len();
        let comp = tree_roots(&forest.parents);
        let mut size = vec![0u32; n];
        for &r in &comp {
            size[r as usize] += 1;
        }
        let mut free = Vec::with_capacity(n);
        free.extend((0..n as u32).rev().filter(|&l| size[l as usize] == 0));
        let mut this = Self {
            parents: vec![NO_VERTEX; n],
            first_child: vec![NO_VERTEX; n],
            next_sibling: vec![NO_VERTEX; n],
            prev_sibling: vec![NO_VERTEX; n],
            comp,
            size,
            free,
            mark: vec![0; n],
            epoch: 0,
            scratch: Scratch::default(),
        };
        for (v, &p) in forest.parents.iter().enumerate() {
            if p != NO_VERTEX {
                this.attach(v as VertexId, p);
            }
        }
        this
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.parents.len()
    }

    /// Number of components (= trees).
    pub fn num_components(&self) -> usize {
        self.size.len() - self.free.len()
    }

    /// The component label of `v` (opaque; equal iff same component).
    pub fn label(&self, v: VertexId) -> u32 {
        self.comp[v as usize]
    }

    /// True when (u, v) is currently a tree edge.
    pub fn is_tree_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.parents[u as usize] == v || self.parents[v as usize] == u
    }

    /// Snapshots the forest in the engine's result shape.
    pub fn forest(&self) -> SpanningForest {
        let roots: Vec<VertexId> = self
            .parents
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p == NO_VERTEX)
            .map(|(v, _)| v as VertexId)
            .collect();
        SpanningForest {
            parents: self.parents.clone(),
            roots,
            stats: AlgoStats::default(),
        }
    }

    /// Upper-bound estimate of the vertices a batch will touch: the
    /// total size of every component that a cross-component insertion
    /// merges or a tree-edge deletion cuts. Any batch that touches a
    /// giant component is charged its whole size, so the service no
    /// longer decides on this bound; it meters the actual repair with
    /// [`apply_batch_within`](Self::apply_batch_within) instead.
    pub fn touched_estimate(&self, batch: &st_graph::EdgeBatch) -> usize {
        let mut labels: Vec<u32> = Vec::new();
        for &(u, v) in &batch.deletes {
            if (u as usize) < self.parents.len() && self.is_tree_edge(u, v) {
                labels.push(self.comp[u as usize]);
            }
        }
        for &(u, v) in &batch.inserts {
            if (u as usize) >= self.parents.len() || (v as usize) >= self.parents.len() {
                continue;
            }
            let (lu, lv) = (self.comp[u as usize], self.comp[v as usize]);
            if lu != lv {
                labels.push(lu);
                labels.push(lv);
            }
        }
        labels.sort_unstable();
        labels.dedup();
        labels.iter().map(|&l| self.size[l as usize] as usize).sum()
    }

    /// Applies one batch to the forest: deletions first (mirroring the
    /// graph-layer order), then insertions. `g_after` must be the graph
    /// *with the batch already applied* — the replacement search scans
    /// its adjacency. Parallel phases run on `exec` using `ws` scratch.
    pub fn apply_batch<G: Neighbors + Sync>(
        &mut self,
        g_after: &G,
        batch: &st_graph::EdgeBatch,
        exec: &Executor,
        ws: &mut Workspace,
    ) -> UpdateStats {
        self.apply_batch_within(g_after, batch, exec, ws, usize::MAX)
            .expect("an unbounded budget is never exceeded")
    }

    /// [`apply_batch`](Self::apply_batch) with a repair-work budget.
    /// One unit each: a vertex dequeued by a cut's smaller-side search
    /// (charged as the search walks), an edge incident to the cut-off
    /// side that the replacement search may scan (charged before the
    /// scan starts), a vertex relabeled by a merge or a split, and a
    /// re-root step. Returns [`OverBudget`] as soon as the next charge
    /// would exceed `budget`; the forest is then half-repaired and must
    /// be discarded.
    pub fn apply_batch_within<G: Neighbors + Sync>(
        &mut self,
        g_after: &G,
        batch: &st_graph::EdgeBatch,
        exec: &Executor,
        ws: &mut Workspace,
        budget: usize,
    ) -> Result<UpdateStats, OverBudget> {
        let mut meter = Meter(budget);
        let mut s = std::mem::take(&mut self.scratch);
        let repaired = self
            .delete_edges(g_after, &batch.deletes, exec, ws, &mut s, &mut meter)
            .and_then(|mut stats| {
                stats.absorb(self.insert_edges(&batch.inserts, exec, ws, &mut s, &mut meter)?);
                Ok(stats)
            });
        self.scratch = s;
        repaired
    }

    // ------------------------------------------------------------------
    // Insertion: CAS-hook union-find over touched components.
    // ------------------------------------------------------------------

    /// Splices the forest across `inserts`. Same-component edges are
    /// no-ops; cross-component edges merge trees, at most one tree link
    /// per component pair (extra parallel edges lose the CAS race or
    /// find the components already joined).
    fn insert_edges(
        &mut self,
        inserts: &[(VertexId, VertexId)],
        exec: &Executor,
        ws: &mut Workspace,
        s: &mut Scratch,
        meter: &mut Meter,
    ) -> Result<UpdateStats, OverBudget> {
        let mut stats = UpdateStats::default();
        // Map the distinct component labels at the batch's endpoints to
        // dense local indices 0..k. Each local remembers a member vertex
        // (for the relabel walk) — every touched component has one,
        // because locals only arise from endpoints.
        if s.local_of.len() < self.size.len() {
            s.local_of.resize(self.size.len(), EMPTY);
        }
        s.locals.clear();
        s.edges.clear();
        for &(u, v) in inserts {
            let (lu, lv) = (self.comp[u as usize], self.comp[v as usize]);
            if lu == lv {
                continue;
            }
            let a = s.local(lu, u);
            let b = s.local(lv, v);
            s.edges.push((a, b, u, v));
        }
        for &(label, _) in &s.locals {
            s.local_of[label as usize] = EMPTY;
        }
        if s.edges.is_empty() {
            return Ok(stats);
        }
        let k = s.locals.len();

        // Workspace arena: `uf` is the local union-find (EMPTY =
        // root), `color` the hooks array recording which batch edge
        // claimed each local root (Snippet-1 idiom: link smaller local
        // under larger via CAS on the hook slot).
        ws.uf.ensure_len(k);
        ws.uf.fill_prefix(k, EMPTY);
        ws.color.ensure_len(k);
        ws.color.fill_prefix(k, EMPTY);
        let uf = &ws.uf;
        let hooks = &ws.color;
        let edges = &s.edges;

        let hook_one = |i: usize| {
            let (a, b, ..) = edges[i];
            loop {
                let ra = find(uf, a);
                let rb = find(uf, b);
                if ra == rb {
                    break;
                }
                let (small, large) = if ra < rb { (ra, rb) } else { (rb, ra) };
                if hooks.try_claim(small as usize, EMPTY, i as u32) {
                    uf.store(small as usize, large, Ordering::Release);
                    break;
                }
                // Lost the hook race: someone else linked `small`;
                // re-find and retry.
            }
        };
        if edges.len() >= PAR_INSERT_THRESHOLD && exec.size() > 1 {
            let p = exec.size();
            exec.run(|ctx| {
                let mut i = ctx.rank();
                while i < edges.len() {
                    hook_one(i);
                    i += p;
                }
            });
        } else {
            for i in 0..edges.len() {
                hook_one(i);
            }
        }

        // Sequential reconstruction. Group locals by final union-find
        // root; each multi-member group is one merged component whose
        // largest member (the first, on ties) keeps its label.
        s.groups.clear();
        s.groups.resize(k, (EMPTY, 0));
        for l in 0..k as u32 {
            let size = self.size[s.locals[l as usize].0 as usize];
            let group = &mut s.groups[find(uf, l) as usize];
            if group.0 == EMPTY || size > self.size[s.locals[group.0 as usize].0 as usize] {
                group.0 = l;
            }
            group.1 += size;
        }
        // Relabel FIRST, while the trees are still separate: each loser
        // constituent's tree is found from its representative without
        // bleeding into the winners.
        for l in 0..k as u32 {
            let (winner, total) = s.groups[find(uf, l) as usize];
            let (label, rep) = s.locals[l as usize];
            if winner == l {
                self.size[label as usize] = total;
                continue;
            }
            meter.charge(self.size[label as usize] as usize)?;
            stats.relabeled += self.relabel_tree(rep, s.locals[winner as usize].0);
            self.size[label as usize] = 0;
            self.free.push(label);
        }
        // Splice the trees along the hook edges. The hooks form a
        // forest over the locals, so each edge joins two distinct trees
        // regardless of processing order: re-root one side at its
        // endpoint, then hang it under the other. The side re-rooted is
        // the one whose endpoint is nearer its root, so joining a small
        // tree to a giant one never walks the giant's long paths.
        for l in 0..k {
            let i = hooks.load(l, Ordering::Acquire);
            if i == EMPTY {
                continue;
            }
            let (_, _, u, v) = edges[i as usize];
            let (x, y) = if self.nearer_root(u, v, meter)? {
                (u, v)
            } else {
                (v, u)
            };
            self.reroot_at(x, meter)?;
            self.attach(x, y);
            stats.tree_merges += 1;
        }
        Ok(stats)
    }

    // ------------------------------------------------------------------
    // Deletion: cut, smaller-side search, replacement election.
    // ------------------------------------------------------------------

    /// Processes `deletes` against the post-batch graph `g_after`.
    fn delete_edges<G: Neighbors + Sync>(
        &mut self,
        g_after: &G,
        deletes: &[(VertexId, VertexId)],
        exec: &Executor,
        ws: &mut Workspace,
        s: &mut Scratch,
        meter: &mut Meter,
    ) -> Result<UpdateStats, OverBudget> {
        let mut stats = UpdateStats::default();
        for &(u, v) in deletes {
            // Non-tree edges never touch the forest. (A duplicate
            // delete of the same tree edge lands here on its second
            // occurrence, after the first cut.)
            let child = if self.parents[u as usize] == v {
                u
            } else if self.parents[v as usize] == u {
                v
            } else {
                continue;
            };
            let parent = self.parents[child as usize];
            self.detach(child);
            // Both halves are rooted trees now; find the smaller one.
            let (side, side_epoch) =
                self.smaller_side(child, parent, &mut s.qa, &mut s.qb, meter)?;
            let old_label = self.comp[child as usize];
            match self.find_replacement(g_after, (side, side_epoch), old_label, exec, ws, meter)? {
                Some((x, y)) => {
                    // Heal: re-root the cut-off side at x and hang it
                    // back under y. Labels and sizes are untouched —
                    // the component never actually split.
                    self.reroot_at(x, meter)?;
                    self.attach(x, y);
                    stats.replacements += 1;
                }
                None => {
                    // True split: the smaller side takes a free label.
                    meter.charge(side.len())?;
                    let label = self
                        .free
                        .pop()
                        .expect("a split component leaves a label free");
                    for &x in side {
                        self.comp[x as usize] = label;
                    }
                    let moved = side.len() as u32;
                    self.size[label as usize] = moved;
                    self.size[old_label as usize] -= moved;
                    stats.tree_splits += 1;
                    stats.relabeled += side.len();
                }
            }
        }
        Ok(stats)
    }

    /// Alternating BFS from both cut endpoints over the tree (parent
    /// pointer and child chain); returns the vertex list of the smaller
    /// side and the epoch its members are marked with —
    /// O(min(|A|, |B|)) on each side. Every dequeue is charged as it
    /// happens, so a cut through the middle of a giant tree stops at the
    /// budget instead of walking half of it.
    fn smaller_side<'q>(
        &mut self,
        a: VertexId,
        b: VertexId,
        qa: &'q mut Vec<VertexId>,
        qb: &'q mut Vec<VertexId>,
        meter: &mut Meter,
    ) -> Result<(&'q [VertexId], u32), OverBudget> {
        if self.epoch >= u32::MAX - 2 {
            self.mark.fill(0);
            self.epoch = 0;
        }
        let ea = self.epoch + 1;
        let eb = self.epoch + 2;
        self.epoch += 2;
        // A queue never holds more than its side's whole tree, so room
        // for n (address space only until touched) means the search
        // reallocates once per maintainer, not once per new largest cut.
        qa.clear();
        qb.clear();
        qa.reserve(self.parents.len());
        qb.reserve(self.parents.len());
        qa.push(a);
        qb.push(b);
        self.mark[a as usize] = ea;
        self.mark[b as usize] = eb;
        let (mut ha, mut hb) = (0usize, 0usize);
        loop {
            // Expand one vertex on the A side, then one on B; the side
            // that runs out of frontier first is the smaller tree.
            if ha == qa.len() {
                return Ok((qa, ea));
            }
            meter.charge(1)?;
            self.expand(qa[ha], ea, qa);
            ha += 1;
            if hb == qb.len() {
                return Ok((qb, eb));
            }
            meter.charge(1)?;
            self.expand(qb[hb], eb, qb);
            hb += 1;
        }
    }

    /// Marks `x`'s tree neighbours (its parent and children) with
    /// `epoch` and queues those not marked yet.
    fn expand(&mut self, x: VertexId, epoch: u32, queue: &mut Vec<VertexId>) {
        let mut visit = |y: VertexId| {
            if self.mark[y as usize] != epoch {
                self.mark[y as usize] = epoch;
                queue.push(y);
            }
        };
        let p = self.parents[x as usize];
        if p != NO_VERTEX {
            visit(p);
        }
        let mut c = self.first_child[x as usize];
        while c != NO_VERTEX {
            visit(c);
            c = self.next_sibling[c as usize];
        }
    }

    /// Scans the post-batch edges incident to `side` for an edge (x, y)
    /// with x inside, y outside but still in the old component — the
    /// replacement that heals the cut. Large sides fan the scan out
    /// over the team: vertices are dealt round-robin into the
    /// workspace's per-rank queues and the first find wins a CAS
    /// election; ranks poll the slot and bail early once it is decided.
    /// The whole scan is charged before it starts.
    fn find_replacement<G: Neighbors + Sync>(
        &self,
        g_after: &G,
        (side, side_epoch): (&[VertexId], u32),
        old_label: u32,
        exec: &Executor,
        ws: &mut Workspace,
        meter: &mut Meter,
    ) -> Result<Option<(VertexId, VertexId)>, OverBudget> {
        let accept = |x: VertexId, y: VertexId| {
            self.mark[y as usize] != side_epoch && self.comp[y as usize] == old_label
                // Guard against a stale mark from an earlier epoch that
                // happens to equal side_epoch after a wrap reset: the
                // label check is the authoritative one; the mark check
                // only excludes the side itself, whose labels still
                // read `old_label` here.
                && x != y
        };
        let scan_size: usize = side.iter().map(|&x| g_after.degree(x)).sum();
        meter.charge(scan_size)?;
        let p = exec.size();
        if scan_size < PAR_SCAN_THRESHOLD || p < 2 || side.len() < p {
            for &x in side {
                for &y in g_after.neighbors(x) {
                    if accept(x, y) {
                        return Ok(Some((x, y)));
                    }
                }
            }
            return Ok(None);
        }
        // Parallel election. Seed the per-rank queues round-robin.
        while ws.queues.len() < p {
            ws.queues
                .push(st_smp::CacheAligned::new(st_smp::WorkQueue::new()));
        }
        for q in &ws.queues[..p] {
            while q.pop().is_some() {}
        }
        for (i, &x) in side.iter().enumerate() {
            ws.queues[i % p].push(x);
        }
        let queues = &ws.queues[..p];
        let slot = AtomicU64::new(NO_WINNER);
        exec.run(|ctx| {
            let rank = ctx.rank();
            let mut since_poll = 0usize;
            while let Some(x) = queues[rank].pop() {
                if since_poll == 0 && slot.load(Ordering::Acquire) != NO_WINNER {
                    return;
                }
                since_poll = (since_poll + 1) % 16;
                for &y in g_after.neighbors(x) {
                    if accept(x, y) {
                        let packed = (u64::from(x) << 32) | u64::from(y);
                        let _ = slot.compare_exchange(
                            NO_WINNER,
                            packed,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        );
                        return;
                    }
                }
            }
        });
        Ok(match slot.load(Ordering::Acquire) {
            NO_WINNER => None,
            packed => Some(((packed >> 32) as VertexId, packed as VertexId)),
        })
    }

    // ------------------------------------------------------------------
    // Shared tree surgery.
    // ------------------------------------------------------------------

    /// Hangs the root `x` under `y`: sets its parent and pushes it on
    /// the front of `y`'s child list.
    fn attach(&mut self, x: VertexId, y: VertexId) {
        debug_assert_eq!(self.parents[x as usize], NO_VERTEX);
        let head = self.first_child[y as usize];
        self.parents[x as usize] = y;
        self.prev_sibling[x as usize] = NO_VERTEX;
        self.next_sibling[x as usize] = head;
        if head != NO_VERTEX {
            self.prev_sibling[head as usize] = x;
        }
        self.first_child[y as usize] = x;
    }

    /// Cuts `x` from its parent, unsplicing it from the parent's child
    /// list. `x`'s subtree is left as its own properly rooted tree
    /// (every parent pointer in it already points toward `x`).
    fn detach(&mut self, x: VertexId) {
        let (prev, next) = (self.prev_sibling[x as usize], self.next_sibling[x as usize]);
        if prev == NO_VERTEX {
            self.first_child[self.parents[x as usize] as usize] = next;
        } else {
            self.next_sibling[prev as usize] = next;
        }
        if next != NO_VERTEX {
            self.prev_sibling[next as usize] = prev;
        }
        self.parents[x as usize] = NO_VERTEX;
        self.prev_sibling[x as usize] = NO_VERTEX;
        self.next_sibling[x as usize] = NO_VERTEX;
    }

    /// Makes `v` the root of its tree by reversing the parent pointers
    /// along the single path v → old root, moving each vertex on it
    /// from its old parent's child list into the list of the vertex
    /// below it; every other pointer in the tree is already oriented
    /// correctly. Each step is charged.
    fn reroot_at(&mut self, v: VertexId, meter: &mut Meter) -> Result<(), OverBudget> {
        let mut prev = NO_VERTEX;
        let mut cur = v;
        while cur != NO_VERTEX {
            meter.charge(1)?;
            let next = self.parents[cur as usize];
            if next != NO_VERTEX {
                self.detach(cur);
            }
            if prev != NO_VERTEX {
                self.attach(cur, prev);
            }
            prev = cur;
            cur = next;
        }
        Ok(())
    }

    /// True when `u` is at most as deep in its tree as `v` is in its
    /// own. Walks both root paths in lockstep, so it costs (and is
    /// charged) about twice the smaller depth.
    fn nearer_root(&self, u: VertexId, v: VertexId, meter: &mut Meter) -> Result<bool, OverBudget> {
        let (mut a, mut b) = (u, v);
        loop {
            meter.charge(2)?;
            a = self.parents[a as usize];
            if a == NO_VERTEX {
                return Ok(true);
            }
            b = self.parents[b as usize];
            if b == NO_VERTEX {
                return Ok(false);
            }
        }
    }

    /// The vertex after `x` in a preorder walk of `root`'s subtree, or
    /// [`NO_VERTEX`] once the walk is done: down the first child, else
    /// on to the next sibling of `x` or of its nearest ancestor below
    /// `root` that has one. No stack.
    fn preorder_next(&self, mut x: VertexId, root: VertexId) -> VertexId {
        let c = self.first_child[x as usize];
        if c != NO_VERTEX {
            return c;
        }
        while x != root {
            let s = self.next_sibling[x as usize];
            if s != NO_VERTEX {
                return s;
            }
            x = self.parents[x as usize];
        }
        NO_VERTEX
    }

    /// Rewrites the component label of every vertex in `start`'s tree;
    /// returns how many were rewritten.
    fn relabel_tree(&mut self, start: VertexId, label: u32) -> usize {
        let mut root = start;
        while self.parents[root as usize] != NO_VERTEX {
            root = self.parents[root as usize];
        }
        debug_assert_ne!(self.comp[root as usize], label);
        let mut count = 0usize;
        let mut x = root;
        while x != NO_VERTEX {
            self.comp[x as usize] = label;
            count += 1;
            x = self.preorder_next(x, root);
        }
        count
    }

    /// Internal-consistency audit for tests: child lists mirror the
    /// parent pointers, the forest is acyclic, labels are uniform per
    /// tree, sizes are exact, and the label pool holds every label no
    /// component uses, once.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.parents.len();
        let mut pointers = vec![0u32; n];
        for v in 0..n {
            let p = self.parents[v];
            if p == NO_VERTEX {
                continue;
            }
            pointers[p as usize] += 1;
            if self.comp[v] != self.comp[p as usize] {
                return Err(format!("edge ({v}, {p}) crosses labels"));
            }
        }
        for (x, &pointed) in pointers.iter().enumerate() {
            let mut children = 0u32;
            let mut prev = NO_VERTEX;
            let mut c = self.first_child[x];
            while c != NO_VERTEX {
                if self.parents[c as usize] != x as VertexId {
                    return Err(format!(
                        "{c} is on {x}'s child list but its parent is not {x}"
                    ));
                }
                if self.prev_sibling[c as usize] != prev {
                    return Err(format!("sibling links around {c} are not mirrored"));
                }
                children += 1;
                if children > pointed {
                    break;
                }
                prev = c;
                c = self.next_sibling[c as usize];
            }
            if children != pointed {
                return Err(format!(
                    "{x} lists {children} children but {pointed} vertices point at it"
                ));
            }
        }
        // Acyclicity: the preorder walks from the roots reach every
        // vertex (a parent cycle is unreachable from any root).
        let mut reached = 0usize;
        for r in (0..n as VertexId).filter(|&r| self.parents[r as usize] == NO_VERTEX) {
            let mut x = r;
            while x != NO_VERTEX {
                reached += 1;
                x = self.preorder_next(x, r);
            }
        }
        if reached != n {
            return Err(format!(
                "parent cycle: {} vertices unreachable from a root",
                n - reached
            ));
        }
        let mut counted = vec![0u32; n];
        for &l in &self.comp {
            counted[l as usize] += 1;
        }
        if counted != self.size {
            return Err("component sizes drifted from the labels".into());
        }
        let mut pooled = vec![false; n];
        for &l in &self.free {
            if self.size[l as usize] != 0 || std::mem::replace(&mut pooled[l as usize], true) {
                return Err(format!("label {l} is both live and free, or free twice"));
            }
        }
        let live = self.size.iter().filter(|&&s| s > 0).count();
        if live + self.free.len() != n {
            return Err(format!(
                "{} labels neither live nor free",
                n - live - self.free.len()
            ));
        }
        Ok(())
    }
}

impl Scratch {
    /// The batch-local index of `label`, allocating the next one (with
    /// `member` as its representative) on first sight.
    fn local(&mut self, label: u32, member: VertexId) -> u32 {
        let slot = &mut self.local_of[label as usize];
        if *slot == EMPTY {
            *slot = self.locals.len() as u32;
            self.locals.push((label, member));
        }
        *slot
    }
}

/// Union-find `find` with path compression over the workspace array.
/// `EMPTY` parents mark roots. Links go from a smaller root to a larger
/// one (the hook CAS), so every chain is strictly increasing. The
/// compression keeps it so: it writes `root` over an entry only while
/// that entry is still below `root`, and stops at the first entry that
/// is `root`, `EMPTY` or already past `root` (another rank compressed
/// it to a root that has since been linked higher). Writing a smaller
/// `root` over such an entry would point it downward and could close a
/// cycle that no later `find` leaves.
fn find(uf: &st_smp::AtomicU32Array, start: u32) -> u32 {
    let mut root = start;
    loop {
        let p = uf.load(root as usize, Ordering::Acquire);
        if p == EMPTY {
            break;
        }
        root = p;
    }
    // Compress the path behind us, upward only.
    let mut cur = start;
    loop {
        let p = uf.load(cur as usize, Ordering::Acquire);
        if p >= root {
            break;
        }
        uf.store(cur as usize, root, Ordering::Release);
        cur = p;
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::delta::{CsrDelta, EdgeBatch, GraphView};
    use st_graph::{gen, validate::is_spanning_forest};
    use std::sync::Arc;

    fn maintained(
        g0: st_graph::CsrGraph,
        batches: &[EdgeBatch],
        exec: &Executor,
    ) -> (DynForest, st_graph::CsrGraph) {
        let mut ws = Workspace::new();
        let mut forest = DynForest::from_forest(&crate::seq::bfs_forest(&g0));
        let mut view = GraphView::Flat(Arc::new(g0));
        for batch in batches {
            let (next, _) = view.apply(batch).unwrap();
            forest.apply_batch(&next, batch, exec, &mut ws);
            view = next;
        }
        let flat = view.materialize();
        (forest, (*flat).clone())
    }

    fn assert_oracle(forest: &DynForest, g: &st_graph::CsrGraph) {
        forest.check_invariants().unwrap();
        let f = forest.forest();
        assert!(is_spanning_forest(g, &f.parents), "not a spanning forest");
        assert_eq!(
            forest.num_components(),
            st_graph::validate::count_components(g),
            "component count drifted from the oracle"
        );
    }

    #[test]
    fn adopts_forest_with_labels_and_sizes() {
        // Two components: a 4-chain and an isolated pair.
        let g = gen::random_gnm(64, 40, 3);
        let f = DynForest::from_forest(&crate::seq::bfs_forest(&g));
        f.check_invariants().unwrap();
        assert_eq!(f.num_components(), st_graph::validate::count_components(&g));
    }

    #[test]
    fn insert_merges_components() {
        let exec = Executor::new(2);
        // Two disjoint chains 0-1-2 and 3-4-5.
        let el = st_graph::EdgeList::from_edges(6, vec![(0, 1), (1, 2), (3, 4), (4, 5)]);
        let g = st_graph::CsrGraph::from_edge_list(&el);
        let batch = EdgeBatch::new().insert(2, 3);
        let (forest, flat) = maintained(g, std::slice::from_ref(&batch), &exec);
        assert_eq!(forest.num_components(), 1);
        assert_oracle(&forest, &flat);
    }

    #[test]
    fn parallel_insert_wave_is_exact() {
        let exec = Executor::new(4);
        // 256 isolated pairs, then one batch chaining them all together:
        // enough cross-component edges to take the parallel CAS path.
        let n = 512u32;
        let pairs: Vec<_> = (0..n / 2).map(|i| (2 * i, 2 * i + 1)).collect();
        let g =
            st_graph::CsrGraph::from_edge_list(&st_graph::EdgeList::from_edges(n as usize, pairs));
        let mut batch = EdgeBatch::new();
        for i in 0..(n / 2 - 1) {
            batch = batch.insert(2 * i + 1, 2 * i + 2);
        }
        // Parallel duplicates of the same merge must not double-link.
        for i in 0..(n / 2 - 1) {
            batch = batch.insert(2 * i + 1, 2 * i + 2);
        }
        let (forest, flat) = maintained(g, std::slice::from_ref(&batch), &exec);
        assert_eq!(forest.num_components(), 1);
        assert_oracle(&forest, &flat);
    }

    #[test]
    fn delete_with_replacement_keeps_component_whole() {
        let exec = Executor::new(2);
        // A 4-cycle: deleting any edge leaves it connected.
        let el = st_graph::EdgeList::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        let g = st_graph::CsrGraph::from_edge_list(&el);
        let batch = EdgeBatch::new().delete(0, 1);
        let (forest, flat) = maintained(g, std::slice::from_ref(&batch), &exec);
        assert_eq!(forest.num_components(), 1);
        assert_oracle(&forest, &flat);
    }

    #[test]
    fn delete_bridge_splits_component() {
        let exec = Executor::new(2);
        let g = gen::chain(10);
        let batch = EdgeBatch::new().delete(4, 5);
        let (forest, flat) = maintained(g, std::slice::from_ref(&batch), &exec);
        assert_eq!(forest.num_components(), 2);
        assert_oracle(&forest, &flat);
    }

    #[test]
    fn mixed_batch_stream_tracks_the_oracle() {
        let exec = Executor::new(4);
        // Two inputs. A random graph takes uniform random edits. A long
        // cycle, whose BFS tree is two deep paths, has one edge cut per
        // batch while the previous cut edge comes back: the cut heals
        // through that edge, so each heal re-roots the chain between
        // the two cuts.
        let ring_n = 4000u32;
        let ring: Vec<_> = (0..ring_n).map(|i| (i, (i + 1) % ring_n)).collect();
        let ring = st_graph::CsrGraph::from_edge_list(&st_graph::EdgeList::from_edges(
            ring_n as usize,
            ring,
        ));
        for (g, is_ring) in [(gen::random_gnm(300, 500, 7), false), (ring, true)] {
            let n = g.num_vertices() as u64;
            // A deterministic pseudo-random stream of mixed batches.
            let mut state = 0x9e3779b97f4a7c15u64;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut view = GraphView::Flat(Arc::new(g.clone()));
            let mut ws = Workspace::new();
            let mut forest = DynForest::from_forest(&crate::seq::bfs_forest(&g));
            let (mut last_cut, mut heals) = (None, 0);
            for _ in 0..30 {
                let mut batch = EdgeBatch::new();
                if is_ring {
                    let c = ring_n / 4 + (next() % (n / 2)) as VertexId;
                    batch = batch.delete(c, c + 1);
                    if let Some(b) = last_cut.replace(c) {
                        batch = batch.insert(b, b + 1);
                    }
                } else {
                    for _ in 0..10 {
                        let u = (next() % n) as VertexId;
                        let v = (next() % n) as VertexId;
                        if u == v {
                            continue;
                        }
                        if next() % 2 == 0 {
                            batch = batch.insert(u, v);
                        } else {
                            batch = batch.delete(u, v);
                        }
                    }
                }
                let (nv, _) = view.apply(&batch).unwrap();
                heals += forest.apply_batch(&nv, &batch, &exec, &mut ws).replacements;
                view = nv;
                let flat = view.materialize();
                assert_oracle(&forest, &flat);
            }
            assert!(!is_ring || heals >= 20, "only {heals} ring cuts healed");
        }
    }

    #[test]
    fn touched_estimate_counts_affected_components() {
        let g = gen::chain(10); // one 10-vertex component
        let f = DynForest::from_forest(&crate::seq::bfs_forest(&g));
        // A same-component insert touches nothing.
        assert_eq!(f.touched_estimate(&EdgeBatch::new().insert(0, 9)), 0);
        // A tree-edge delete touches the whole component.
        assert_eq!(f.touched_estimate(&EdgeBatch::new().delete(3, 4)), 10);
        // A non-tree delete is free.
        assert_eq!(f.touched_estimate(&EdgeBatch::new().delete(0, 5)), 0);
    }

    #[test]
    fn cutting_the_middle_of_a_long_path_runs_over_a_small_budget() {
        let exec = Executor::new(2);
        let mut ws = Workspace::new();
        let g = gen::chain(1000);
        let mut forest = DynForest::from_forest(&crate::seq::bfs_forest(&g));
        let batch = EdgeBatch::new().delete(499, 500);
        let (next, _) = GraphView::Flat(Arc::new(g)).apply(&batch).unwrap();
        // Either side of the cut has 500 vertices: the smaller-side
        // search alone needs ~1000 dequeues.
        assert_eq!(
            forest.apply_batch_within(&next, &batch, &exec, &mut ws, 100),
            Err(OverBudget)
        );
    }

    #[test]
    fn an_unbounded_budget_matches_apply_batch() {
        // One thread, so the CAS-hook races resolve the same way twice.
        let exec = Executor::new(1);
        let g = gen::random_gnm(300, 450, 11);
        let mut ws = Workspace::new();
        let mut plain = DynForest::from_forest(&crate::seq::bfs_forest(&g));
        let mut metered = plain.clone();
        let mut view = GraphView::Flat(Arc::new(g));
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..20 {
            let batch = random_batch(&mut rng, &view, 12);
            let (next, _) = view.apply(&batch).unwrap();
            let a = plain.apply_batch(&next, &batch, &exec, &mut ws);
            let b = metered
                .apply_batch_within(&next, &batch, &exec, &mut ws, usize::MAX)
                .unwrap();
            assert_eq!(a, b);
            assert_eq!(plain.forest().parents, metered.forest().parents);
            view = next;
        }
        assert_oracle(&metered, &view.materialize());
    }

    #[test]
    fn invariants_hold_after_every_successful_budgeted_batch() {
        let exec = Executor::new(2);
        let g = gen::random_gnm(400, 600, 5);
        let mut ws = Workspace::new();
        let mut forest = DynForest::from_forest(&crate::seq::bfs_forest(&g));
        let mut view = GraphView::Flat(Arc::new(g));
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let (mut repaired, mut over) = (0, 0);
        for _ in 0..60 {
            let batch = random_batch(&mut rng, &view, 8);
            let (next, _) = view.apply(&batch).unwrap();
            let flat = next.materialize();
            match forest.apply_batch_within(&next, &batch, &exec, &mut ws, 150) {
                Ok(_) => {
                    repaired += 1;
                    assert_oracle(&forest, &flat);
                }
                Err(OverBudget) => {
                    // What the service does: drop the half-repaired
                    // forest and reseed from a full run.
                    over += 1;
                    forest = DynForest::from_forest(&crate::seq::bfs_forest(&flat));
                }
            }
            view = next;
        }
        assert!(repaired > 0 && over > 0, "{repaired} repaired, {over} over");
    }

    /// `ops` random edits of `g`: half insert a random pair, half
    /// delete a random edge of `g`.
    fn random_batch(state: &mut u64, g: &GraphView, ops: usize) -> EdgeBatch {
        let mut next = || {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state
        };
        let n = g.num_vertices() as u64;
        let mut batch = EdgeBatch::new();
        for _ in 0..ops {
            let u = (next() % n) as VertexId;
            let row = g.neighbors(u);
            batch = if next() % 2 == 0 || row.is_empty() {
                match (next() % n) as VertexId {
                    v if v == u => batch,
                    v => batch.insert(u, v),
                }
            } else {
                batch.delete(u, row[next() as usize % row.len()])
            };
        }
        batch
    }

    #[test]
    fn large_cycle_uses_parallel_replacement_scan() {
        let exec = Executor::new(4);
        // One big cycle, so deleting an edge forces a half-graph side
        // search and a replacement scan above the parallel threshold.
        let n = 20_000u32;
        let mut edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        let g =
            st_graph::CsrGraph::from_edge_list(&st_graph::EdgeList::from_edges(n as usize, edges));
        let batch = EdgeBatch::new().delete(0, 1);
        let (forest, flat) = maintained(g, std::slice::from_ref(&batch), &exec);
        assert_eq!(forest.num_components(), 1);
        assert_oracle(&forest, &flat);
    }

    #[test]
    fn delta_view_and_flat_graph_agree_for_maintenance() {
        // Maintenance runs against the overlay, never materializing.
        let exec = Executor::new(2);
        let g = gen::torus2d(16, 16);
        let mut ws = Workspace::new();
        let mut forest = DynForest::from_forest(&crate::seq::bfs_forest(&g));
        let d0 = CsrDelta::from_base(Arc::new(g));
        let batch = EdgeBatch::new().delete(0, 1).delete(0, 16).insert(5, 200);
        let (d1, _) = d0.apply(&batch).unwrap();
        forest.apply_batch(&d1, &batch, &exec, &mut ws);
        forest.check_invariants().unwrap();
        let flat = d1.materialize();
        assert!(is_spanning_forest(&flat, &forest.forest().parents));
    }
}
