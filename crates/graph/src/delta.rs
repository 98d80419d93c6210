//! Batch edge mutations and copy-on-write CSR overlays.
//!
//! A flat CSR cannot be edited in place — inserting one edge shifts
//! every offset after it — so mutation happens at two granularities:
//!
//! * an [`EdgeBatch`] names the insertions and deletions of one atomic
//!   update, validated against the graph's vertex range;
//! * a [`CsrDelta`] is a *persistent* overlay on an immutable base
//!   [`CsrGraph`]: untouched vertices read their neighbor row straight
//!   from the base, touched vertices own a private copy-on-write row.
//!   Applying a batch produces a **new** delta sharing every untouched
//!   row with its predecessor, so readers of older versions are never
//!   invalidated — the versioned-catalog property the service builds
//!   on.
//!
//! Overlay reads cost one hash probe before the row access, so a delta
//! whose patch set has grown past a threshold fraction of the vertices
//! should be flattened back to a plain CSR ([`CsrDelta::materialize_on`]
//! on a team, [`CsrDelta::materialize`] on the calling thread, gated by
//! [`CsrDelta::patched_fraction`]); the catalog does this
//! automatically.
//!
//! The [`Neighbors`] trait abstracts over both representations so graph
//! consumers that only need adjacency (the incremental forest
//! maintainer's replacement-edge search, validation walks) run on
//! either without materializing.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use st_smp::team::block_range;
use st_smp::Executor;

use crate::repr::{check_rows, CsrGraph, VertexId};

/// Read-only adjacency, implemented by both the flat [`CsrGraph`] and
/// the copy-on-write [`CsrDelta`].
pub trait Neighbors {
    /// Number of vertices n.
    fn num_vertices(&self) -> usize;
    /// Number of undirected edges m.
    fn num_edges(&self) -> usize;
    /// The neighbor row of `v`.
    fn neighbors(&self, v: VertexId) -> &[VertexId];
    /// Degree of `v`.
    fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }
}

impl Neighbors for CsrGraph {
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }
    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        CsrGraph::neighbors(self, v)
    }
}

/// A rejected batch: the offending edge and why it cannot apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchError {
    /// An endpoint is ≥ the graph's vertex count (batches mutate edges,
    /// never grow the vertex set).
    VertexOutOfRange(VertexId, VertexId),
    /// Self-loops carry no connectivity and are rejected outright.
    SelfLoop(VertexId),
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::VertexOutOfRange(u, v) => {
                write!(f, "edge ({u}, {v}) names a vertex outside the graph")
            }
            BatchError::SelfLoop(u) => write!(f, "self-loop ({u}, {u}) rejected"),
        }
    }
}

impl std::error::Error for BatchError {}

/// One atomic set of edge insertions and deletions.
///
/// Semantics are idempotent and order-defined: **deletions apply
/// first**, then insertions (an edge in both lists ends up present).
/// Inserting an edge that already exists and deleting one that does
/// not are no-ops, reported through
/// [`BatchOutcome::edges_added`] / [`edges_removed`](BatchOutcome::edges_removed)
/// so callers can see what actually changed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeBatch {
    /// Undirected edges to insert.
    pub inserts: Vec<(VertexId, VertexId)>,
    /// Undirected edges to delete.
    pub deletes: Vec<(VertexId, VertexId)>,
}

impl EdgeBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an insertion.
    pub fn insert(mut self, u: VertexId, v: VertexId) -> Self {
        self.inserts.push((u, v));
        self
    }

    /// Adds a deletion.
    pub fn delete(mut self, u: VertexId, v: VertexId) -> Self {
        self.deletes.push((u, v));
        self
    }

    /// Total operations named by the batch.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// True when the batch names no operations.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Checks every edge against an `n`-vertex graph.
    pub fn validate(&self, n: usize) -> Result<(), BatchError> {
        for &(u, v) in self.inserts.iter().chain(self.deletes.iter()) {
            if u == v {
                return Err(BatchError::SelfLoop(u));
            }
            if u as usize >= n || v as usize >= n {
                return Err(BatchError::VertexOutOfRange(u, v));
            }
        }
        Ok(())
    }
}

/// What applying a batch actually changed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Insertions that were not already present.
    pub edges_added: usize,
    /// Deletions that named a live edge.
    pub edges_removed: usize,
}

/// A persistent copy-on-write overlay over an immutable base CSR.
///
/// Cloning is cheap (`Arc` per patched row); [`apply`](Self::apply)
/// returns a new delta and leaves `self` untouched, so every graph
/// version stays readable for as long as something holds it.
#[derive(Clone, Debug)]
pub struct CsrDelta {
    base: Arc<CsrGraph>,
    /// Replacement neighbor rows, sorted ascending (base rows are in
    /// construction order; a row is sorted when first copied out so
    /// later edits binary-search instead of scanning).
    rows: HashMap<VertexId, Arc<Vec<VertexId>>>,
    num_edges: usize,
}

impl CsrDelta {
    /// An overlay with no patches: every read falls through to `base`.
    pub fn from_base(base: Arc<CsrGraph>) -> Self {
        let num_edges = base.num_edges();
        Self {
            base,
            rows: HashMap::new(),
            num_edges,
        }
    }

    /// The immutable base graph this overlay patches.
    pub fn base(&self) -> &Arc<CsrGraph> {
        &self.base
    }

    /// Number of vertices (fixed by the base — batches never grow it).
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Current number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Vertices whose rows are patched.
    pub fn patched_vertices(&self) -> usize {
        self.rows.len()
    }

    /// Patched fraction of the vertex set — the catalog's rebuild
    /// trigger: once a delta covers this much of the graph, overlay
    /// reads stop paying for themselves.
    pub fn patched_fraction(&self) -> f64 {
        if self.base.num_vertices() == 0 {
            return 0.0;
        }
        self.rows.len() as f64 / self.base.num_vertices() as f64
    }

    /// The neighbor row of `v` (patched row if present, else base).
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match self.rows.get(&v) {
            Some(row) => row,
            None => self.base.neighbors(v),
        }
    }

    /// True when the undirected edge (u, v) is present.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        match self.rows.get(&u) {
            Some(row) => row.binary_search(&v).is_ok(),
            None => self.base.neighbors(u).contains(&v),
        }
    }

    /// Applies `batch` (deletes first, then inserts), returning the
    /// successor delta and what actually changed. `self` is untouched;
    /// rows not named by the batch are shared between the versions.
    ///
    /// The successor starts as a clone of the patch table (one `Arc`
    /// per patched row), so an apply costs O(patched rows) on top of
    /// the batch's own edits. Stacking each batch on a flat CSR keeps
    /// that table to the batch's rows.
    pub fn apply(&self, batch: &EdgeBatch) -> Result<(CsrDelta, BatchOutcome), BatchError> {
        batch.validate(self.num_vertices())?;
        let mut next = self.clone();
        let mut outcome = BatchOutcome::default();
        for &(u, v) in &batch.deletes {
            if next.remove_one(u, v) {
                let existed = next.remove_one(v, u);
                debug_assert!(existed, "undirected rows out of sync");
                next.num_edges -= 1;
                outcome.edges_removed += 1;
            }
        }
        for &(u, v) in &batch.inserts {
            if next.insert_one(u, v) {
                let fresh = next.insert_one(v, u);
                debug_assert!(fresh, "undirected rows out of sync");
                next.num_edges += 1;
                outcome.edges_added += 1;
            }
        }
        Ok((next, outcome))
    }

    /// Copies `v`'s row out of the base (sorted) on first touch and
    /// returns it mutably; `Arc::make_mut` keeps rows still shared with
    /// predecessor versions intact.
    fn row_mut(&mut self, v: VertexId) -> &mut Vec<VertexId> {
        let base = &self.base;
        let row = self.rows.entry(v).or_insert_with(|| {
            let mut copy = base.neighbors(v).to_vec();
            copy.sort_unstable();
            Arc::new(copy)
        });
        Arc::make_mut(row)
    }

    /// Removes one occurrence of `target` from `v`'s row; false when
    /// absent (the row is then left unpatched).
    fn remove_one(&mut self, v: VertexId, target: VertexId) -> bool {
        let present = match self.rows.get(&v) {
            Some(row) => row.binary_search(&target).is_ok(),
            None => self.base.neighbors(v).contains(&target),
        };
        if !present {
            return false;
        }
        let row = self.row_mut(v);
        let at = row.binary_search(&target).expect("presence checked above");
        row.remove(at);
        true
    }

    /// Inserts `target` into `v`'s sorted row; false when already
    /// present (the row is then left unpatched).
    fn insert_one(&mut self, v: VertexId, target: VertexId) -> bool {
        let present = match self.rows.get(&v) {
            Some(row) => row.binary_search(&target).is_ok(),
            None => self.base.neighbors(v).contains(&target),
        };
        if present {
            return false;
        }
        let row = self.row_mut(v);
        let at = row
            .binary_search(&target)
            .expect_err("absence checked above");
        row.insert(at, target);
        true
    }

    /// Flattens the overlay into a plain CSR on the calling thread: the
    /// single-block case of [`materialize_on`](Self::materialize_on).
    pub fn materialize(&self) -> CsrGraph {
        self.materialize_on(&Executor::new(1))
    }

    /// Flattens the overlay into a plain CSR on `team`, each rank
    /// writing one block of whole 1024-vertex pages.
    /// The result is a fresh, offset-contiguous graph suitable as the
    /// base of future deltas.
    ///
    /// One team dispatch, no barrier. In pass one every rank reads the
    /// patch table once: it keeps the patched rows of its own block and
    /// sums how many arcs the patched rows below its block add or drop,
    /// which with the base offset at its first vertex is the prefix
    /// over the lower blocks' totals, i.e. where its targets start. In
    /// pass two it writes its block: each run of unpatched base rows
    /// between patched ones is one bulk copy of targets plus one shifted
    /// pass over offsets, and each patched row is spliced in after the
    /// run before it. Each rank then runs [`CsrGraph::from_raw_parts`]'s
    /// row checks over what it wrote, so the pages it checks are the
    /// pages it first touched.
    ///
    /// # Panics
    ///
    /// Panics with `from_raw_parts`'s message if the result would not be
    /// a structurally valid CSR.
    pub fn materialize_on(&self, team: &Executor) -> CsrGraph {
        self.flatten(team, FLATTEN_PAGE)
    }

    /// [`materialize_on`](Self::materialize_on) with blocks of whole
    /// `page`-vertex pages.
    fn flatten(&self, team: &Executor, page: usize) -> CsrGraph {
        let n = self.num_vertices();
        let p = team.size();
        let arcs = 2 * self.num_edges;
        let mut offsets: Vec<usize> = Vec::with_capacity(n + 1);
        let mut targets: Vec<VertexId> = Vec::with_capacity(arcs);
        let out = (RankOut(offsets.as_mut_ptr()), RankOut(targets.as_mut_ptr()));
        let checks = team.run(|ctx| {
            let pages = block_range(ctx.rank(), p, n.div_ceil(page));
            let block = (pages.start * page).min(n)..(pages.end * page).min(n);
            // SAFETY: the blocks of `block_range` partition 0..n, so each
            // rank writes its own offsets (rank 0 also offsets[0]) and,
            // by the prefix, its own targets; both arrays hold n + 1 and
            // `arcs` elements.
            unsafe { self.flatten_block(ctx.rank() == 0, block, arcs, &out.0, &out.1) }
        });
        if let Some(msg) = checks.into_iter().find_map(Result::err) {
            panic!("{msg}");
        }
        // SAFETY: every rank returned Ok, so together they wrote
        // offsets[0..=n] and targets[0..arcs].
        unsafe {
            offsets.set_len(n + 1);
            targets.set_len(arcs);
        }
        CsrGraph::from_checked_rows(offsets.into(), targets.into())
    }

    /// One rank's share of [`flatten`](Self::flatten): the rows of
    /// `block` (and offsets[0] when `first`). Writes nothing when the
    /// patch table's arc count disagrees with `arcs`, which every rank
    /// sees alike.
    ///
    /// # Safety
    ///
    /// `offsets` must be valid for n + 1 writes and `targets` for
    /// `arcs`, and no other thread may write `block`'s offsets or its
    /// targets (the other blocks of one partition of 0..n).
    unsafe fn flatten_block(
        &self,
        first: bool,
        block: Range<usize>,
        arcs: usize,
        offsets: &RankOut<usize>,
        targets: &RankOut<VertexId>,
    ) -> Result<(), String> {
        let (base_offsets, base_targets) = (self.base.raw_offsets(), self.base.raw_targets());
        let (lo, hi) = (block.start, block.end);
        // Pass one: this block's patched rows, the arcs gained by
        // patched rows below it, and by all of them.
        let mut mine: Vec<(usize, &[VertexId])> = Vec::new();
        let (mut below, mut all) = (0isize, 0isize);
        for (&v, row) in &self.rows {
            let v = v as usize;
            let gained = row.len() as isize - (base_offsets[v + 1] - base_offsets[v]) as isize;
            all += gained;
            if v < lo {
                below += gained;
            } else if v < hi {
                mine.push((v, row.as_slice()));
            }
        }
        if base_targets.len() as isize + all != arcs as isize {
            return Err("offsets must end at targets.len()".into());
        }
        mine.sort_unstable_by_key(|&(v, _)| v);
        let start = (base_offsets[lo] as isize + below) as usize;
        // Pass two: `next` is the first vertex whose row is not yet
        // written; the sentinel (hi, []) flushes the base rows after the
        // last patch.
        let (offsets, targets) = (offsets.0, targets.0);
        if first {
            // SAFETY: offsets[0] is this rank's alone (`first`).
            unsafe { offsets.write(0) };
        }
        let mut at = start;
        let mut next = lo;
        for (v, row) in mine.into_iter().chain([(hi, &[][..])]) {
            let (from, to) = (base_offsets[next], base_offsets[v]);
            // SAFETY: rows next..v lie in this rank's block, and the base
            // run from..to lands at targets[at..], inside the block's
            // share of targets (the prefix says where it starts).
            unsafe {
                for (u, &o) in (next + 1..=v).zip(&base_offsets[next + 1..=v]) {
                    offsets.add(u).write(o - from + at);
                }
                let run = &base_targets[from..to];
                std::ptr::copy_nonoverlapping(run.as_ptr(), targets.add(at), run.len());
                at += run.len();
                if v < hi {
                    std::ptr::copy_nonoverlapping(row.as_ptr(), targets.add(at), row.len());
                    at += row.len();
                    offsets.add(v + 1).write(at);
                }
            }
            next = v + 1;
        }
        // SAFETY: the loop wrote offsets[lo + 1..=hi] and
        // targets[start..at], and only this thread writes them.
        let (ends, written) = unsafe {
            (
                std::slice::from_raw_parts(offsets.add(lo + 1), hi - lo),
                std::slice::from_raw_parts(targets.add(start), at - start),
            )
        };
        check_rows(start, ends, written, self.num_vertices())
    }
}

/// Vertices per page of the team flatten: a rank's block is a run of
/// whole pages, so the ranks' writes meet at most at page edges.
const FLATTEN_PAGE: usize = 1024;

/// A raw pointer into one of the arrays the team flatten writes, shared
/// by the ranks; each writes only its own block.
struct RankOut<T>(*mut T);

// SAFETY: ranks write disjoint elements through the pointer, and the
// team run joins every rank before the owner reads the array.
unsafe impl<T: Send> Sync for RankOut<T> {}

impl Neighbors for CsrDelta {
    fn num_vertices(&self) -> usize {
        CsrDelta::num_vertices(self)
    }
    fn num_edges(&self) -> usize {
        CsrDelta::num_edges(self)
    }
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        CsrDelta::neighbors(self, v)
    }
}

/// A graph version as the catalog stores it: either a flat CSR or a
/// copy-on-write overlay. Cloning clones `Arc`s, never graph data.
#[derive(Clone, Debug)]
pub enum GraphView {
    /// A plain contiguous CSR (registered graphs, rebuilt versions).
    Flat(Arc<CsrGraph>),
    /// A copy-on-write overlay produced by a batch update.
    Delta(Arc<CsrDelta>),
}

impl GraphView {
    /// Applies a batch, producing the successor view (always a delta;
    /// the caller decides when to flatten via
    /// [`patched_fraction`](Self::patched_fraction)).
    pub fn apply(&self, batch: &EdgeBatch) -> Result<(GraphView, BatchOutcome), BatchError> {
        let (next, outcome) = match self {
            GraphView::Flat(g) => CsrDelta::from_base(Arc::clone(g)).apply(batch)?,
            GraphView::Delta(d) => d.apply(batch)?,
        };
        Ok((GraphView::Delta(Arc::new(next)), outcome))
    }

    /// Patched fraction of the underlying delta (0 for flat views).
    pub fn patched_fraction(&self) -> f64 {
        match self {
            GraphView::Flat(_) => 0.0,
            GraphView::Delta(d) => d.patched_fraction(),
        }
    }

    /// A flat CSR of this version on the calling thread: the
    /// single-block case of [`materialize_on`](Self::materialize_on).
    pub fn materialize(&self) -> Arc<CsrGraph> {
        self.materialize_on(&Executor::new(1))
    }

    /// A flat CSR of this version: free for flat views, one team
    /// flatten ([`CsrDelta::materialize_on`]) for deltas. Callers should
    /// keep the result per version.
    pub fn materialize_on(&self, team: &Executor) -> Arc<CsrGraph> {
        match self {
            GraphView::Flat(g) => Arc::clone(g),
            GraphView::Delta(d) => Arc::new(d.materialize_on(team)),
        }
    }
}

impl Neighbors for GraphView {
    fn num_vertices(&self) -> usize {
        match self {
            GraphView::Flat(g) => g.num_vertices(),
            GraphView::Delta(d) => d.num_vertices(),
        }
    }
    fn num_edges(&self) -> usize {
        match self {
            GraphView::Flat(g) => g.num_edges(),
            GraphView::Delta(d) => d.num_edges(),
        }
    }
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match self {
            GraphView::Flat(g) => g.neighbors(v),
            GraphView::Delta(d) => d.neighbors(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn delta_of(g: CsrGraph) -> CsrDelta {
        CsrDelta::from_base(Arc::new(g))
    }

    #[test]
    fn empty_delta_reads_through_to_base() {
        let g = gen::torus2d(4, 4);
        let d = delta_of(g.clone());
        assert_eq!(d.num_vertices(), 16);
        assert_eq!(d.num_edges(), g.num_edges());
        for v in 0..16u32 {
            assert_eq!(d.neighbors(v), g.neighbors(v));
        }
        assert_eq!(d.patched_vertices(), 0);
        assert_eq!(d.patched_fraction(), 0.0);
    }

    #[test]
    fn insert_and_delete_roundtrip() {
        // chain 0-1-2-3: delete (1,2), insert (0,3).
        let d = delta_of(gen::chain(4));
        let batch = EdgeBatch::new().delete(1, 2).insert(0, 3);
        let (next, out) = d.apply(&batch).unwrap();
        assert_eq!(
            out,
            BatchOutcome {
                edges_added: 1,
                edges_removed: 1
            }
        );
        assert_eq!(next.num_edges(), 3);
        assert!(!next.has_edge(1, 2));
        assert!(!next.has_edge(2, 1));
        assert!(next.has_edge(0, 3));
        assert!(next.has_edge(3, 0));
        // The predecessor version is untouched.
        assert!(d.has_edge(1, 2));
        assert!(!d.has_edge(0, 3));
        assert_eq!(d.num_edges(), 3);
    }

    #[test]
    fn redundant_operations_are_noops() {
        let d = delta_of(gen::chain(3));
        let batch = EdgeBatch::new()
            .insert(0, 1) // already present
            .delete(0, 2); // never existed
        let (next, out) = d.apply(&batch).unwrap();
        assert_eq!(out, BatchOutcome::default());
        assert_eq!(next.num_edges(), d.num_edges());
        assert_eq!(next.patched_vertices(), 0, "no-ops patch nothing");
    }

    #[test]
    fn deletes_apply_before_inserts() {
        let d = delta_of(gen::chain(3));
        let batch = EdgeBatch::new().delete(0, 1).insert(0, 1);
        let (next, out) = d.apply(&batch).unwrap();
        assert!(next.has_edge(0, 1), "delete-then-insert ends present");
        assert_eq!(out.edges_added, 1);
        assert_eq!(out.edges_removed, 1);
        assert_eq!(next.num_edges(), d.num_edges());
    }

    #[test]
    fn validation_rejects_bad_edges() {
        let d = delta_of(gen::chain(3));
        assert_eq!(
            d.apply(&EdgeBatch::new().insert(1, 1)).unwrap_err(),
            BatchError::SelfLoop(1)
        );
        assert_eq!(
            d.apply(&EdgeBatch::new().delete(0, 7)).unwrap_err(),
            BatchError::VertexOutOfRange(0, 7)
        );
    }

    #[test]
    fn materialize_matches_overlay_reads() {
        let d = delta_of(gen::torus2d(4, 4));
        let (next, _) = d
            .apply(&EdgeBatch::new().delete(0, 1).insert(0, 10).insert(3, 12))
            .unwrap();
        let flat = next.materialize();
        assert_eq!(flat.num_vertices(), next.num_vertices());
        assert_eq!(flat.num_edges(), next.num_edges());
        for v in 0..16u32 {
            assert_eq!(flat.neighbors(v), next.neighbors(v), "vertex {v}");
        }
    }

    /// The bulk-copy flatten agrees with per-vertex overlay reads on
    /// random batch streams: the first and last vertex patched, rows
    /// emptied, deltas stacked on deltas, and deltas over a flattened
    /// base.
    #[test]
    fn materialize_matches_neighbors_on_random_streams() {
        let n = 200u32;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut d = delta_of(gen::random_gnm(n as usize, 300, 9));
        for round in 0..40 {
            // Toggling (0, n-1) patches the first and last rows.
            let mut batch = if round % 2 == 0 {
                EdgeBatch::new().insert(0, n - 1)
            } else {
                EdgeBatch::new().delete(0, n - 1)
            };
            for _ in 0..8 {
                let (u, v) = ((next() % n as u64) as u32, (next() % n as u64) as u32);
                if u != v {
                    batch = batch.insert(u, v);
                }
            }
            // Empty one row outright (deletes apply first, so pick a
            // vertex no insert names).
            let victim = (next() % n as u64) as VertexId;
            let emptied = !batch
                .inserts
                .iter()
                .any(|&(u, v)| u == victim || v == victim);
            if emptied {
                for &w in d.neighbors(victim) {
                    batch = batch.delete(victim, w);
                }
            }
            d = d.apply(&batch).unwrap().0;
            assert!(!emptied || d.neighbors(victim).is_empty());
            if round > 0 {
                assert!(d.rows.contains_key(&0) && d.rows.contains_key(&(n - 1)));
            }
            let flat = d.materialize();
            assert_eq!(flat.num_vertices(), d.num_vertices());
            assert_eq!(flat.num_edges(), d.num_edges());
            for v in 0..n {
                assert_eq!(
                    flat.neighbors(v),
                    d.neighbors(v),
                    "round {round}, vertex {v}"
                );
            }
            // Every tenth round, restart the overlay on the flattened
            // graph, as the catalog does past its rebuild threshold.
            if round % 10 == 9 {
                d = delta_of(flat);
            }
        }
    }

    /// The oracle for the team flatten: the overlay's rows read one by
    /// one through `neighbors()` and laid end to end.
    fn rows_of(d: &CsrDelta) -> (Vec<usize>, Vec<VertexId>) {
        let mut offsets = vec![0];
        let mut targets = Vec::new();
        for v in 0..d.num_vertices() as VertexId {
            targets.extend_from_slice(d.neighbors(v));
            offsets.push(targets.len());
        }
        (offsets, targets)
    }

    /// Toggles (u, v): deletes it when present, else inserts it, so both
    /// rows end up patched either way.
    fn toggle(d: &CsrDelta, batch: EdgeBatch, u: VertexId, v: VertexId) -> EdgeBatch {
        if d.has_edge(u, v) {
            batch.delete(u, v)
        } else {
            batch.insert(u, v)
        }
    }

    /// A random overlay for the flatten tests: a multigraph base with
    /// self-loops and duplicates, three stacked random batches, then
    /// `patch` toggled on top; `full` toggles a ring through every
    /// vertex, patching them all.
    fn random_overlay(n: usize, seed: u64, patch: &[(VertexId, VertexId)], full: bool) -> CsrDelta {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut base = crate::repr::EdgeList::new(n);
        for _ in 0..if n == 0 { 0 } else { 2 * n } {
            base.push((next() % n as u64) as u32, (next() % n as u64) as u32);
        }
        let mut d = delta_of(CsrGraph::from_edge_list(&base));
        for _ in 0..if n < 2 { 0 } else { 3 } {
            let mut batch = EdgeBatch::new();
            for _ in 0..4 {
                let (u, v) = ((next() % n as u64) as u32, (next() % n as u64) as u32);
                if u != v {
                    batch = toggle(&d, batch, u, v);
                }
            }
            d = d.apply(&batch).unwrap().0;
        }
        let mut batch = EdgeBatch::new();
        for &(u, v) in patch {
            batch = toggle(&d, batch, u, v);
        }
        if full && n >= 2 {
            for v in 0..n as u32 {
                batch = toggle(&d, batch, v, (v + 1) % n as u32);
            }
        }
        d.apply(&batch).unwrap().0
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The team flatten writes exactly the oracle's offsets and
        /// targets at p ∈ {1, 2, 3, 4}, with pages of 1 to 8 vertices so
        /// that most cases split into several blocks and patch the rows
        /// on both sides of every block edge; one case in three patches
        /// every row, and n = 0 and n not a multiple of p occur.
        #[test]
        fn team_flatten_matches_the_row_by_row_oracle(
            n in 0usize..160,
            seed in proptest::prelude::any::<u64>(),
            page in 1usize..9,
            mode in 0u8..3,
        ) {
            let mut edges = Vec::new();
            for p in 1..=4 {
                for rank in 1..p {
                    let lo = block_range(rank, p, n.div_ceil(page)).start * page;
                    if lo > 0 && lo < n {
                        edges.push(((lo - 1) as VertexId, lo as VertexId));
                    }
                }
            }
            let d = random_overlay(n, seed, &edges, mode == 2);
            if mode == 2 && n >= 2 {
                proptest::prop_assert_eq!(d.patched_vertices(), n);
            }
            let (offsets, targets) = rows_of(&d);
            for p in 1..=4 {
                let flat = d.flatten(&Executor::new(p), page);
                proptest::prop_assert_eq!(flat.raw_offsets(), &offsets[..]);
                proptest::prop_assert_eq!(flat.raw_targets(), &targets[..]);
                proptest::prop_assert_eq!(flat.num_edges(), d.num_edges());
            }
        }
    }

    /// At the real page size: several pages, n not a multiple of the
    /// page or of p, and patched rows on both sides of every block edge.
    #[test]
    fn team_flatten_at_full_pages_matches_the_oracle() {
        let n = 5 * FLATTEN_PAGE + 77;
        let edges: Vec<_> = (1..=5)
            .map(|k| (k * FLATTEN_PAGE) as VertexId)
            .map(|lo| (lo - 1, lo))
            .collect();
        let d = random_overlay(n, 11, &edges, false);
        let (offsets, targets) = rows_of(&d);
        for p in 1..=4 {
            let flat = d.materialize_on(&Executor::new(p));
            assert_eq!(flat.raw_offsets(), &offsets[..], "p = {p}");
            assert_eq!(flat.raw_targets(), &targets[..], "p = {p}");
        }
        assert_eq!(d.materialize(), d.materialize_on(&Executor::new(3)));
    }

    #[test]
    fn empty_graphs_flatten_on_any_team() {
        for n in [0, 1, 5] {
            let d = delta_of(CsrGraph::empty(n));
            for p in 1..=4 {
                assert_eq!(d.materialize_on(&Executor::new(p)), CsrGraph::empty(n));
            }
        }
    }

    #[test]
    fn successive_versions_share_untouched_rows() {
        let d = delta_of(gen::torus2d(8, 8));
        let (v2, _) = d.apply(&EdgeBatch::new().delete(0, 1)).unwrap();
        let (v3, _) = v2.apply(&EdgeBatch::new().delete(2, 3)).unwrap();
        // v3 patched rows 0,1 (from v2, shared) and 2,3 (fresh).
        assert_eq!(v2.patched_vertices(), 2);
        assert_eq!(v3.patched_vertices(), 4);
        assert!(Arc::ptr_eq(
            v2.rows.get(&0).unwrap(),
            v3.rows.get(&0).unwrap()
        ));
    }

    #[test]
    fn graph_view_applies_and_flattens() {
        let view = GraphView::Flat(Arc::new(gen::chain(5)));
        let (next, out) = view.apply(&EdgeBatch::new().insert(0, 4)).unwrap();
        assert_eq!(out.edges_added, 1);
        assert_eq!(Neighbors::num_edges(&next), 5);
        let flat = next.materialize();
        assert!(flat.neighbors(0).contains(&4));
        assert!(next.patched_fraction() > 0.0);
        assert_eq!(view.patched_fraction(), 0.0);
    }

    #[test]
    fn multigraph_duplicates_delete_one_at_a_time() {
        // Base built with a duplicated edge (0,1) x2.
        let edges = crate::repr::EdgeList::from_edges(3, vec![(0, 1), (0, 1), (1, 2)]);
        let g = CsrGraph::from_edge_list(&edges);
        assert_eq!(g.num_edges(), 3);
        let d = delta_of(g);
        let (v2, out) = d.apply(&EdgeBatch::new().delete(0, 1)).unwrap();
        assert_eq!(out.edges_removed, 1);
        assert!(v2.has_edge(0, 1), "one duplicate remains");
        let (v3, _) = v2.apply(&EdgeBatch::new().delete(0, 1)).unwrap();
        assert!(!v3.has_edge(0, 1));
        // Inserting onto a still-present duplicate is a no-op.
        let (v4, out) = v2.apply(&EdgeBatch::new().insert(0, 1)).unwrap();
        assert_eq!(out.edges_added, 0);
        assert_eq!(v4.num_edges(), v2.num_edges());
    }
}
