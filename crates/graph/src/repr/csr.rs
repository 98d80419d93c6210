//! Compressed sparse row (adjacency array) graph.

use super::storage::SharedSlice;
use super::{EdgeList, VertexId};

/// An immutable, undirected graph in compressed-sparse-row form.
///
/// ```
/// use st_graph::{CsrGraph, EdgeList};
///
/// let mut el = EdgeList::new(3);
/// el.push(0, 1);
/// el.push(1, 2);
/// let g = CsrGraph::from_edge_list(&el);
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
///
/// Each undirected edge {u, v} is stored twice (u → v and v → u), so the
/// `targets` array has length 2 m. The representation is the classic
/// "adjacency list in two flat arrays" layout used by the paper's C
/// implementation: one non-contiguous memory access reaches a vertex's
/// offset, and its neighbor list is then a contiguous scan — the access
/// pattern the Helman–JáJá analysis in §3 of the paper counts.
/// The arrays live in [`SharedSlice`] storage: owned allocations for
/// every constructive path, or zero-copy windows into a shared `mmap`
/// region when the graph came from [`crate::io::load_binary`] — the
/// catalog's instant-startup path. Cloning a mapped graph is O(1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v] .. offsets[v + 1]` indexes `targets` for vertex `v`;
    /// length n + 1.
    offsets: SharedSlice<usize>,
    /// Concatenated neighbor lists; length 2 m.
    targets: SharedSlice<VertexId>,
    /// Number of undirected edges m.
    num_edges: usize,
}

impl CsrGraph {
    /// Builds a graph from raw CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are not a structurally valid CSR: `offsets`
    /// must be non-empty, non-decreasing, start at 0 and end at
    /// `targets.len()`, and every target must be `< n`.
    pub fn from_raw_parts(offsets: Vec<usize>, targets: Vec<VertexId>) -> Self {
        match Self::try_from_shared_parts(offsets.into(), targets.into()) {
            Ok(g) => g,
            Err(msg) => panic!("{msg}"),
        }
    }

    /// Builds a graph from pre-validated shared storage, checking the
    /// same structural invariants as [`from_raw_parts`](Self::from_raw_parts)
    /// but reporting violations as an error instead of panicking — the
    /// shape the binary loader needs for untrusted files.
    pub(crate) fn try_from_shared_parts(
        offsets: SharedSlice<usize>,
        targets: SharedSlice<VertexId>,
    ) -> Result<Self, String> {
        if offsets.is_empty() {
            return Err("offsets must have length n + 1 >= 1".into());
        }
        if offsets[0] != 0 {
            return Err("offsets must start at 0".into());
        }
        if *offsets.last().unwrap() != targets.len() {
            return Err("offsets must end at targets.len()".into());
        }
        check_rows(0, &offsets[1..], &targets, offsets.len() - 1)?;
        if !targets.len().is_multiple_of(2) {
            return Err("undirected CSR must contain an even number of directed arcs".into());
        }
        Ok(Self::from_checked_rows(offsets, targets))
    }

    /// Assembles a graph whose rows already passed [`check_rows`] block
    /// by block (the team flatten of a [`CsrDelta`](crate::CsrDelta)),
    /// so only the O(1) checks on the arrays' ends remain.
    pub(crate) fn from_checked_rows(
        offsets: SharedSlice<usize>,
        targets: SharedSlice<VertexId>,
    ) -> Self {
        assert!(
            offsets.first() == Some(&0) && offsets.last() == Some(&targets.len()),
            "offsets must run from 0 to targets.len()"
        );
        assert!(
            targets.len().is_multiple_of(2),
            "undirected CSR must contain an even number of directed arcs"
        );
        let num_edges = targets.len() / 2;
        Self {
            offsets,
            targets,
            num_edges,
        }
    }

    /// True when both CSR arrays alias an `mmap`ed file (the zero-copy
    /// load path) rather than owned heap memory.
    pub fn is_mapped(&self) -> bool {
        self.offsets.is_mapped() && self.targets.is_mapped()
    }

    /// Builds the CSR form of an edge list via counting sort.
    ///
    /// The edge list is interpreted as undirected: each pair (u, v) creates
    /// arcs u → v and v → u. Duplicate edges and self-loops are kept as-is;
    /// use [`GraphBuilder`](super::GraphBuilder) for deduplication.
    pub fn from_edge_list(edges: &EdgeList) -> Self {
        let n = edges.num_vertices();
        let mut degree = vec![0usize; n];
        for &(u, v) in edges.iter() {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as VertexId; offsets[n]];
        for &(u, v) in edges.iter() {
            targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        Self {
            offsets: offsets.into(),
            targets: targets.into(),
            num_edges: edges.len(),
        }
    }

    /// Parallel CSR construction from an edge list (rayon).
    ///
    /// Same graph as [`from_edge_list`](Self::from_edge_list) with
    /// canonically sorted neighbor lists, built in three data-parallel
    /// passes: per-chunk degree histograms merged into offsets, then
    /// atomic-cursor placement. Worthwhile from roughly a million edges;
    /// below that the sequential counting sort wins.
    pub fn from_edge_list_parallel(edges: &EdgeList) -> Self {
        use rayon::prelude::*;
        use std::sync::atomic::{AtomicUsize, Ordering};

        let n = edges.num_vertices();
        let pairs = edges.as_slice();
        const CHUNK: usize = 1 << 16;

        // Pass 1: per-chunk degree histograms, reduced.
        let degree: Vec<usize> = pairs
            .par_chunks(CHUNK)
            .fold(
                || vec![0usize; n],
                |mut acc, chunk| {
                    for &(u, v) in chunk {
                        acc[u as usize] += 1;
                        acc[v as usize] += 1;
                    }
                    acc
                },
            )
            .reduce(
                || vec![0usize; n],
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(b.iter()) {
                        *x += *y;
                    }
                    a
                },
            );

        // Pass 2: prefix sum (sequential; O(n)).
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }

        // Pass 3: placement with atomic per-vertex cursors.
        struct SendPtr(*mut VertexId);
        // SAFETY: the raw pointer is only used for disjoint writes (see
        // below), so sharing it across the rayon workers is sound.
        unsafe impl Sync for SendPtr {}
        let cursor: Vec<AtomicUsize> = offsets[..n].iter().map(|&o| AtomicUsize::new(o)).collect();
        let mut targets = vec![0 as VertexId; offsets[n]];
        {
            let targets_ptr = SendPtr(targets.as_mut_ptr());
            pairs.par_chunks(CHUNK).for_each(|chunk| {
                let targets_ptr = &targets_ptr;
                for &(u, v) in chunk {
                    let iu = cursor[u as usize].fetch_add(1, Ordering::Relaxed);
                    let iv = cursor[v as usize].fetch_add(1, Ordering::Relaxed);
                    // SAFETY: every write lands at a unique index — each
                    // vertex's cursor starts at its offset and fetch_add
                    // hands out distinct slots within that vertex's
                    // exclusive [offsets[v], offsets[v + 1]) range, and
                    // the total slot count equals targets.len().
                    unsafe {
                        *targets_ptr.0.add(iu) = v;
                        *targets_ptr.0.add(iv) = u;
                    }
                }
            });
        }
        // Neighbor order differs from the sequential build (placement
        // races between chunks), so canonicalize the lists before the
        // arrays move into immutable shared storage.
        for v in 0..n {
            let (lo, hi) = (offsets[v], offsets[v + 1]);
            targets[lo..hi].sort_unstable();
        }
        Self {
            offsets: offsets.into(),
            targets: targets.into(),
            num_edges: edges.len(),
        }
    }

    /// A graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Self {
            offsets: vec![0usize; n + 1].into(),
            targets: Vec::new().into(),
            num_edges: 0,
        }
    }

    /// Number of vertices n.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges m.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of vertex `v` (self-loops count twice, matching the two arcs
    /// they occupy).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The neighbor list of `v` as a contiguous slice.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Hints the CPU to pull the start of `v`'s neighbor list into cache.
    ///
    /// The traversal engine calls this for the *next* frontier vertex
    /// while it expands the current one, hiding the CSR row's memory
    /// latency behind useful work. Purely a performance hint: a no-op on
    /// non-x86_64 targets and for out-of-range ids, and never required
    /// for correctness.
    #[inline]
    pub fn prefetch_neighbors(&self, v: VertexId) {
        let v = v as usize;
        if v + 1 >= self.offsets.len() {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        {
            let lo = self.offsets[v];
            if lo < self.targets.len() {
                // SAFETY: `lo < targets.len()` makes the address in
                // bounds, and prefetch has no architectural effect beyond
                // the cache regardless.
                unsafe {
                    std::arch::x86_64::_mm_prefetch(
                        self.targets.as_ptr().add(lo) as *const i8,
                        std::arch::x86_64::_MM_HINT_T0,
                    );
                }
            }
        }
    }

    /// Rebuilds both CSR arrays in fresh allocations advised with
    /// `madvise(MADV_HUGEPAGE)` *before* the copy-in, so the copy — the
    /// first touch — faults 2 MiB transparent huge pages directly.
    ///
    /// At traversal scale the `targets` array dominates the workload's
    /// random reads; backing it with huge pages cuts TLB misses on both
    /// traversal directions. Returns the rehomed graph and whether at
    /// least one array accepted the advice (graphs smaller than a huge
    /// page and non-Linux hosts report `false`; the graph itself is
    /// identical either way).
    pub fn into_hugepage_backed(self) -> (Self, bool) {
        fn rehome<T: Copy>(src: &[T]) -> (SharedSlice<T>, bool) {
            let mut v: Vec<T> = Vec::with_capacity(src.len());
            let advised =
                st_smp::mem::advise_hugepages(v.as_ptr() as *const u8, std::mem::size_of_val(src));
            v.extend_from_slice(src);
            (v.into(), advised)
        }
        let (offsets, offsets_advised) = rehome(&self.offsets);
        let (targets, targets_advised) = rehome(&self.targets);
        (
            Self {
                offsets,
                targets,
                num_edges: self.num_edges,
            },
            offsets_advised || targets_advised,
        )
    }

    /// Iterator over all vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over each undirected edge exactly once, as (u, v) with
    /// u ≤ v.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| u <= v)
                .map(move |&v| (u, v))
        })
    }

    /// The raw offsets array (length n + 1). Exposed for the cost-model
    /// executor, which replays memory accesses against the real layout.
    #[inline]
    pub fn raw_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw concatenated targets array (length 2 m).
    #[inline]
    pub fn raw_targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// True when the stored arc multiset is symmetric (every u → v has a
    /// matching v → u). All construction paths guarantee this; the check is
    /// O(m log m) and intended for tests.
    pub fn is_symmetric(&self) -> bool {
        let mut arcs: Vec<(VertexId, VertexId)> = Vec::with_capacity(self.targets.len());
        for u in self.vertices() {
            for &v in self.neighbors(u) {
                arcs.push((u, v));
            }
        }
        let mut forward = arcs.clone();
        forward.sort_unstable();
        let mut backward: Vec<(VertexId, VertexId)> =
            arcs.into_iter().map(|(u, v)| (v, u)).collect();
        backward.sort_unstable();
        forward == backward
    }

    /// True when no vertex lists itself as a neighbor.
    pub fn has_no_self_loops(&self) -> bool {
        self.vertices()
            .all(|u| self.neighbors(u).iter().all(|&v| v != u))
    }

    /// True when every neighbor list is duplicate-free (simple graph).
    pub fn has_no_parallel_edges(&self) -> bool {
        let mut scratch = Vec::new();
        for u in self.vertices() {
            scratch.clear();
            scratch.extend_from_slice(self.neighbors(u));
            scratch.sort_unstable();
            if scratch.windows(2).any(|w| w[0] == w[1]) {
                return false;
            }
        }
        true
    }

    /// Summary degree statistics, useful for workload characterization in
    /// the benchmark harness.
    pub fn degree_stats(&self) -> DegreeStats {
        let n = self.num_vertices();
        if n == 0 {
            return DegreeStats::default();
        }
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut isolated = 0usize;
        let mut degree_two = 0usize;
        for v in self.vertices() {
            let d = self.degree(v);
            min = min.min(d);
            max = max.max(d);
            if d == 0 {
                isolated += 1;
            }
            if d == 2 {
                degree_two += 1;
            }
        }
        DegreeStats {
            min,
            max,
            mean: 2.0 * self.num_edges as f64 / n as f64,
            isolated,
            degree_two,
        }
    }

    /// Converts back to an edge list with each undirected edge listed once.
    pub fn to_edge_list(&self) -> EdgeList {
        let mut out = EdgeList::new(self.num_vertices());
        for (u, v) in self.edges() {
            out.push(u, v);
        }
        out
    }
}

/// The per-row half of a CSR's structural checks, over one block of
/// rows: the block's row ends `ends` (its offsets after the first)
/// never fall below the block's first offset `start` or below each
/// other, and every target in `targets` names one of the graph's `n`
/// vertices. [`CsrGraph::from_raw_parts`] runs it over the whole graph
/// as one block; the team flatten of a [`CsrDelta`](crate::CsrDelta)
/// runs it on each rank over the rows that rank wrote.
pub(crate) fn check_rows(
    start: usize,
    ends: &[usize],
    targets: &[VertexId],
    n: usize,
) -> Result<(), String> {
    let mut last = start;
    for &end in ends {
        if end < last {
            return Err("offsets must be non-decreasing".into());
        }
        last = end;
    }
    if !targets.iter().all(|&t| (t as usize) < n) {
        return Err("all targets must be < n".into());
    }
    Ok(())
}

/// Degree summary of a graph.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree 2m / n.
    pub mean: f64,
    /// Number of degree-0 vertices.
    pub isolated: usize,
    /// Number of degree-2 vertices (candidates for chain elimination).
    pub degree_two: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrGraph {
        let mut el = EdgeList::new(3);
        el.push(0, 1);
        el.push(1, 2);
        el.push(2, 0);
        CsrGraph::from_edge_list(&el)
    }

    #[test]
    fn triangle_shape() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.is_symmetric());
        assert!(g.has_no_self_loops());
        assert!(g.has_no_parallel_edges());
    }

    #[test]
    fn neighbors_are_correct() {
        let g = triangle();
        let mut n0: Vec<_> = g.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2]);
    }

    #[test]
    fn edges_listed_once() {
        let g = triangle();
        let mut e: Vec<_> = g.edges().collect();
        e.sort_unstable();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(4), 0);
        assert!(g.neighbors(4).is_empty());
    }

    #[test]
    fn zero_vertex_graph() {
        let g = CsrGraph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.edges().count(), 0);
        assert_eq!(g.degree_stats(), DegreeStats::default());
    }

    #[test]
    fn from_raw_parts_roundtrip() {
        let g = triangle();
        let g2 = CsrGraph::from_raw_parts(g.raw_offsets().to_vec(), g.raw_targets().to_vec());
        assert_eq!(g, g2);
    }

    #[test]
    #[should_panic(expected = "offsets must start at 0")]
    fn from_raw_parts_rejects_bad_start() {
        CsrGraph::from_raw_parts(vec![1, 2], vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn from_raw_parts_rejects_decreasing() {
        CsrGraph::from_raw_parts(vec![0, 2, 1, 2], vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "all targets must be < n")]
    fn from_raw_parts_rejects_out_of_range_target() {
        CsrGraph::from_raw_parts(vec![0, 1, 2], vec![5, 0]);
    }

    #[test]
    fn degree_stats_on_path() {
        let mut el = EdgeList::new(4);
        el.push(0, 1);
        el.push(1, 2);
        el.push(2, 3);
        let g = CsrGraph::from_edge_list(&el);
        let s = g.degree_stats();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 2);
        assert_eq!(s.degree_two, 2);
        assert_eq!(s.isolated, 0);
        assert!((s.mean - 1.5).abs() < 1e-9);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        for seed in 0..4u64 {
            let g = crate::gen::random_gnm(2_000, 6_000, seed);
            let el = g.to_edge_list();
            let par = CsrGraph::from_edge_list_parallel(&el);
            assert_eq!(par.num_vertices(), g.num_vertices());
            assert_eq!(par.num_edges(), g.num_edges());
            assert!(par.is_symmetric());
            // Same adjacency as the sequential build, list by list.
            for v in g.vertices() {
                let mut a = g.neighbors(v).to_vec();
                a.sort_unstable();
                assert_eq!(par.neighbors(v), &a[..], "vertex {v}");
            }
        }
    }

    #[test]
    fn parallel_build_edge_cases() {
        let empty = CsrGraph::from_edge_list_parallel(&EdgeList::new(5));
        assert_eq!(empty.num_vertices(), 5);
        assert_eq!(empty.num_edges(), 0);

        let mut el = EdgeList::new(2);
        el.push(0, 1);
        let tiny = CsrGraph::from_edge_list_parallel(&el);
        assert_eq!(tiny.num_edges(), 1);
        assert_eq!(tiny.neighbors(0), &[1]);
    }

    #[test]
    fn hugepage_rehoming_preserves_the_graph() {
        let g = triangle();
        let (h, _advised) = g.clone().into_hugepage_backed();
        assert_eq!(h, g);

        // Large enough that targets spans a huge page: advice must be
        // accepted on Linux and the graph must survive byte-for-byte.
        let n = 300_000usize;
        let mut el = EdgeList::new(n);
        for v in 0..n as VertexId - 1 {
            el.push(v, v + 1);
        }
        let big = CsrGraph::from_edge_list(&el);
        let (rehomed, advised) = big.clone().into_hugepage_backed();
        assert_eq!(rehomed, big);
        if cfg!(target_os = "linux") {
            assert!(advised, "multi-megabyte CSR should accept THP advice");
        }
    }

    #[test]
    fn to_edge_list_roundtrip() {
        let g = triangle();
        let el = g.to_edge_list();
        let g2 = CsrGraph::from_edge_list(&el);
        assert_eq!(g.num_edges(), g2.num_edges());
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = g2.edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
