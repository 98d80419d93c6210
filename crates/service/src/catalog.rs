//! The graph catalog and its bounded result cache.
//!
//! A server cannot ship a whole graph over the wire per job, and even
//! in-process tenants should not each load their own copy of a shared
//! input. The [`GraphCatalog`] is the fix: graphs are registered (or
//! loaded from the [`st_graph::io`] binary format, mmap-backed where
//! the platform allows) **once**, and every subsequent submission
//! addresses them by a small [`GraphRef`] — jobs then share one
//! immutable `Arc<CsrGraph>` per version across all tenants and
//! connections.
//!
//! Versioning makes republication safe without coordination: publishing
//! new bytes under an existing [`GraphId`] bumps the version, so cached
//! results for the old bytes — keyed by `(id, version, …)` — can never
//! be served for the new ones. Nothing is invalidated eagerly; stale
//! entries simply stop matching and age out of the LRU.
//!
//! The [`ResultCache`] completes the addressed path: a bounded
//! least-recently-used map keyed on [`CacheKey`] lets the service
//! answer repeat submissions without leasing a team at all. It serves
//! the first forest computed for a key. That forest is not the only
//! one the key could produce — Bader–Cong at p > 1 may pick a
//! different tree on every run — so the guarantee is a valid spanning
//! forest of the key's graph version, not a particular one. It is
//! bounded by entries and by bytes ([`RESULT_CACHE_MAX_BYTES`]), so a
//! few forests of a huge graph cannot pin gigabytes.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use st_core::SpanningForest;
use st_graph::io::LoadKind;
use st_graph::{BatchError, BatchOutcome, CsrGraph, EdgeBatch, GraphView};
use st_smp::Executor;

use crate::spec::AlgorithmId;

/// Opaque identifier of a catalog entry, stable across republication.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphId(pub u64);

impl std::fmt::Display for GraphId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// One concrete published version of a catalog entry: the unit result
/// caches key on. Two refs are equal iff they name bit-identical graph
/// bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GraphRef {
    /// The catalog entry.
    pub id: GraphId,
    /// Publication counter, starting at 1 and bumped by
    /// [`GraphCatalog::publish`].
    pub version: u32,
}

/// Why a batch apply was rejected by the catalog.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ApplyError {
    /// The id was never registered (or was removed).
    UnknownGraph(GraphId),
    /// The batch itself is malformed for this graph.
    Batch(BatchError),
    /// The entry's version moved between read and install — another
    /// writer (a concurrent `publish` or `apply`) got there first.
    Conflict {
        /// The version the writer read and based its work on.
        expected: u32,
        /// The version actually found at install time.
        found: u32,
    },
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::UnknownGraph(id) => write!(f, "graph {id} is not in the catalog"),
            ApplyError::Batch(e) => write!(f, "invalid batch: {e}"),
            ApplyError::Conflict { expected, found } => write!(
                f,
                "version moved during apply (based on v{expected}, found v{found})"
            ),
        }
    }
}

impl std::error::Error for ApplyError {}

impl From<BatchError> for ApplyError {
    fn from(e: BatchError) -> Self {
        ApplyError::Batch(e)
    }
}

struct Entry {
    /// The live version as readers and writers take it. A flat CSR
    /// replaces an overlay as soon as one exists for the version (see
    /// [`GraphCatalog::flatten`]), so the next write stacks its batch
    /// on that CSR instead of on the overlay's history.
    view: GraphView,
    version: u32,
}

/// A concurrent registry of immutable, shared graphs.
///
/// Cheap to share (`Arc<GraphCatalog>`); all methods take `&self`.
/// Lookups clone an `Arc`, never graph data.
#[derive(Default)]
pub struct GraphCatalog {
    entries: Mutex<HashMap<GraphId, Entry>>,
    next_id: AtomicU64,
}

impl std::fmt::Debug for GraphCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphCatalog")
            .field("graphs", &self.len())
            .finish()
    }
}

impl GraphCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an already-built graph under a fresh id (version 1).
    pub fn register(&self, graph: Arc<CsrGraph>) -> GraphRef {
        self.register_bounded(graph, usize::MAX)
            .expect("an unbounded registration cannot fail")
    }

    /// As [`register`](Self::register), but refuses (returning `None`)
    /// when the catalog already holds `max_entries` graphs. The check
    /// and insertion are atomic, so concurrent registrations cannot
    /// overshoot the bound. Used by the TCP front-end to keep
    /// untrusted `REGISTER` traffic from growing server memory without
    /// limit.
    pub fn register_bounded(&self, graph: Arc<CsrGraph>, max_entries: usize) -> Option<GraphRef> {
        let mut entries = self.entries.lock().unwrap();
        if entries.len() >= max_entries {
            return None;
        }
        let id = GraphId(self.next_id.fetch_add(1, Relaxed));
        entries.insert(
            id,
            Entry {
                view: GraphView::Flat(graph),
                version: 1,
            },
        );
        Some(GraphRef { id, version: 1 })
    }

    /// Replaces the bytes published under `id`, bumping its version.
    /// Jobs addressing `id` from now on see the new graph; results
    /// cached against the old version can no longer match. `None` when
    /// `id` was never registered (or was removed).
    pub fn publish(&self, id: GraphId, graph: Arc<CsrGraph>) -> Option<GraphRef> {
        let mut entries = self.entries.lock().unwrap();
        let entry = entries.get_mut(&id)?;
        entry.version += 1;
        entry.view = GraphView::Flat(graph);
        Some(GraphRef {
            id,
            version: entry.version,
        })
    }

    /// The current view of `id` with its exact ref — the read half of
    /// the optimistic apply protocol, and what a job holds. The view is
    /// the version's flat CSR once one exists, else its overlay; either
    /// way a cheap `Arc`-level clone that keeps the version alive and
    /// never blocks writers. Flattens nothing.
    pub fn view(&self, id: GraphId) -> Option<(GraphView, GraphRef)> {
        let entries = self.entries.lock().unwrap();
        let entry = entries.get(&id)?;
        Some((
            entry.view.clone(),
            GraphRef {
                id,
                version: entry.version,
            },
        ))
    }

    /// Installs a successor view computed from version `expected` of
    /// `id`, bumping to `expected + 1` — the write half of the
    /// optimistic apply protocol. Fails with [`ApplyError::Conflict`]
    /// when another writer moved the version first, so a stale
    /// computation can never clobber a newer one. `flat` carries an
    /// already-materialized CSR of `view` when the writer flattened
    /// (rebuild threshold crossed, or a recompute); it then becomes the
    /// version's view. Otherwise materialization stays lazy.
    pub fn install(
        &self,
        id: GraphId,
        expected: u32,
        view: GraphView,
        flat: Option<Arc<CsrGraph>>,
    ) -> Result<GraphRef, ApplyError> {
        let mut entries = self.entries.lock().unwrap();
        let entry = entries.get_mut(&id).ok_or(ApplyError::UnknownGraph(id))?;
        if entry.version != expected {
            return Err(ApplyError::Conflict {
                expected,
                found: entry.version,
            });
        }
        entry.version += 1;
        entry.view = flat.map_or(view, GraphView::Flat);
        Ok(GraphRef {
            id,
            version: entry.version,
        })
    }

    /// Applies one edge batch to `id`, producing a new version whose
    /// view shares every untouched row with its predecessor. When the
    /// overlay's patched fraction exceeds `rebuild_fraction` the new
    /// version is flattened to a fresh contiguous CSR instead.
    ///
    /// This is the catalog-only mutation path (no forest maintenance) —
    /// the service's [`Service::apply`](crate::Service::apply) wraps it
    /// together with the incremental maintainer. Concurrent applies to
    /// the same id retry internally, so callers always see either
    /// success or a real error.
    pub fn apply(
        &self,
        id: GraphId,
        batch: &EdgeBatch,
        rebuild_fraction: f64,
    ) -> Result<(GraphRef, BatchOutcome), ApplyError> {
        loop {
            let (view, gref) = self.view(id).ok_or(ApplyError::UnknownGraph(id))?;
            // Compute the successor outside the catalog lock: readers
            // and other graphs stay unblocked during the row edits.
            let (next, outcome) = view.apply(batch)?;
            let flat = (next.patched_fraction() > rebuild_fraction).then(|| next.materialize());
            match self.install(id, gref.version, next, flat) {
                Ok(new_ref) => return Ok((new_ref, outcome)),
                Err(ApplyError::Conflict { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Loads an [`st_graph::io`] binary file and registers it. Returns
    /// the new ref and whether the bytes were memory-mapped in place
    /// ([`LoadKind::Mapped`]) or buffered through a read.
    pub fn load(&self, path: impl AsRef<Path>) -> std::io::Result<(GraphRef, LoadKind)> {
        let (graph, kind) = st_graph::io::load_binary_with_info(path)?;
        Ok((self.register(Arc::new(graph)), kind))
    }

    /// Resolves an *exact* pinned ref as [`view`](Self::view) does: the
    /// view only if `gref.version` is still the live version
    /// of `gref.id`. On a version mismatch returns `Err(current_version)`
    /// so callers can distinguish "stale pin" from "unknown graph"
    /// (collapsed to the outer `Option`).
    #[allow(clippy::result_unit_err)]
    pub fn resolve_pinned(&self, gref: GraphRef) -> Option<Result<GraphView, u32>> {
        let (view, live) = self.view(gref.id)?;
        Some(if live.version == gref.version {
            Ok(view)
        } else {
            Err(live.version)
        })
    }

    /// A flat CSR of `view`, the version `gref` names, flattened on
    /// `team` ([`GraphView::materialize_on`]) unless the catalog already
    /// holds one. While `gref` is the live version the result becomes
    /// its view, and a job that flattened alongside another returns the
    /// winner's, so every read of one version shares one
    /// `Arc<CsrGraph>`. A superseded version is flattened but not kept.
    pub fn flatten(&self, gref: GraphRef, view: &GraphView, team: &Executor) -> Arc<CsrGraph> {
        if let GraphView::Flat(flat) = view {
            return Arc::clone(flat);
        }
        if let Some((GraphView::Flat(flat), live)) = self.view(gref.id) {
            if live == gref {
                return flat;
            }
        }
        let flat = view.materialize_on(team);
        let mut entries = self.entries.lock().unwrap();
        match entries.get_mut(&gref.id) {
            Some(entry) if entry.version == gref.version => match &entry.view {
                GraphView::Flat(won) => Arc::clone(won),
                GraphView::Delta(_) => {
                    entry.view = GraphView::Flat(Arc::clone(&flat));
                    flat
                }
            },
            _ => flat,
        }
    }

    /// The current graph under `id` as a flat CSR, with the exact ref
    /// (including version) it resolves to right now: [`flatten`](Self::flatten)
    /// of the [`view`](Self::view) on the calling thread, for callers
    /// that hold no team.
    pub fn resolve_latest(&self, id: GraphId) -> Option<(Arc<CsrGraph>, GraphRef)> {
        let (view, gref) = self.view(id)?;
        Some((self.flatten(gref, &view, &Executor::new(1)), gref))
    }

    /// Unregisters `id`. Later submissions addressing it fail with
    /// [`JobError::UnknownGraph`](crate::JobError::UnknownGraph);
    /// in-flight jobs keep their `Arc` and finish normally.
    pub fn remove(&self, id: GraphId) -> bool {
        self.entries.lock().unwrap().remove(&id).is_some()
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current refs with their sizes, for listings: `(ref, n, m)`.
    pub fn list(&self) -> Vec<(GraphRef, usize, usize)> {
        use st_graph::Neighbors as _;
        let entries = self.entries.lock().unwrap();
        let mut out: Vec<_> = entries
            .iter()
            .map(|(&id, e)| {
                (
                    GraphRef {
                        id,
                        version: e.version,
                    },
                    e.view.num_vertices(),
                    e.view.num_edges(),
                )
            })
            .collect();
        out.sort_by_key(|(r, _, _)| r.id);
        out
    }
}

/// Everything that determines a catalog-addressed job's forest.
///
/// `processors` is the *requested* width (0 when the submission left
/// sizing to the oracle): the sizing decision happens at dispatch, so
/// the request is the stable part of the key. Different widths may
/// produce different (equally valid) forests under work stealing, so
/// they cache separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The exact graph version the job ran against.
    pub graph: GraphRef,
    /// The algorithm.
    pub algorithm: AlgorithmId,
    /// The traversal RNG seed.
    pub seed: u64,
    /// Requested team width; 0 = sizing oracle.
    pub processors: usize,
}

/// Bytes of forest the result cache holds at most, whatever its entry
/// capacity: 64 forests of a 2^26-vertex graph would otherwise pin
/// 16 GiB. A forest larger than this is never cached.
pub const RESULT_CACHE_MAX_BYTES: usize = 128 << 20;

struct CacheEntry {
    forest: Arc<SpanningForest>,
    /// The forest's size, as [`forest_bytes`] counted it on insert.
    bytes: usize,
    /// Logical access time for LRU ordering.
    tick: u64,
}

/// The bytes a cached forest pins: its parent and root arrays.
fn forest_bytes(f: &SpanningForest) -> usize {
    std::mem::size_of_val(f.parents.as_slice()) + std::mem::size_of_val(f.roots.as_slice())
}

/// A least-recently-used map from [`CacheKey`] to a finished forest,
/// bounded by entries and by [`RESULT_CACHE_MAX_BYTES`].
///
/// Entries are `Arc<SpanningForest>`: the cache holds the same
/// allocation the job's handle returned, so inserting and hitting are
/// reference-count increments, never copies. Evicting an entry drops
/// only the cache's reference; a handle or reply still holding the
/// forest keeps it intact. The byte bound counts each cached forest
/// once, whoever else shares it.
///
/// Capacity 0 disables caching entirely (`get` always misses, `insert`
/// is a no-op). Eviction is an O(capacity) minimum-tick scan — the
/// capacity is small (tens to hundreds) and insertions only happen on
/// misses that already paid for a full traversal, so simplicity beats
/// an intrusive list here.
pub struct ResultCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    max_bytes: usize,
}

struct CacheInner {
    map: HashMap<CacheKey, CacheEntry>,
    clock: u64,
    /// Sum of the cached entries' `bytes`.
    bytes: usize,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl ResultCache {
    /// A cache holding at most `capacity` forests and at most
    /// [`RESULT_CACHE_MAX_BYTES`] of them.
    pub fn new(capacity: usize) -> Self {
        Self::with_byte_bound(capacity, RESULT_CACHE_MAX_BYTES)
    }

    /// A cache bounded by `capacity` forests and `max_bytes` bytes.
    pub(crate) fn with_byte_bound(capacity: usize, max_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner {
                map: HashMap::with_capacity(capacity.min(1024)),
                clock: 0,
                bytes: 0,
            }),
            capacity,
            max_bytes,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key`, refreshing its recency on a hit. A hit shares
    /// the cached forest; it does not copy it.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<SpanningForest>> {
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let now = inner.clock;
        let entry = inner.map.get_mut(key)?;
        entry.tick = now;
        Some(Arc::clone(&entry.forest))
    }

    /// Stores `forest` under `key`, evicting least-recently-used
    /// entries until both the entry and the byte bound hold. A forest
    /// larger than the byte bound is not cached.
    pub fn insert(&self, key: CacheKey, forest: Arc<SpanningForest>) {
        let bytes = forest_bytes(&forest);
        if self.capacity == 0 || bytes > self.max_bytes {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let tick = inner.clock;
        if let Some(old) = inner.map.remove(&key) {
            inner.bytes -= old.bytes;
        }
        // Terminates: an empty map satisfies both bounds.
        while inner.map.len() >= self.capacity || inner.bytes + bytes > self.max_bytes {
            let oldest = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| *k)
                .expect("a bound is exceeded only while entries remain");
            let evicted = inner.map.remove(&oldest).expect("key came from the map");
            inner.bytes -= evicted.bytes;
        }
        inner.bytes += bytes;
        inner.map.insert(
            key,
            CacheEntry {
                forest,
                bytes,
                tick,
            },
        );
    }

    /// Drops every entry whose key addresses graph `id` (any version).
    /// Used when an id is removed from the catalog; republication does
    /// NOT need this — version bumps make old entries unmatchable.
    pub fn purge_graph(&self, id: GraphId) {
        let mut inner = self.inner.lock().unwrap();
        let CacheInner { map, bytes, .. } = &mut *inner;
        map.retain(|k, e| {
            let keep = k.graph.id != id;
            if !keep {
                *bytes -= e.bytes;
            }
            keep
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::gen;

    fn forest_of(g: &CsrGraph) -> Arc<SpanningForest> {
        Arc::new(st_core::seq::bfs_forest(g))
    }

    fn key(graph: GraphRef, seed: u64) -> CacheKey {
        CacheKey {
            graph,
            algorithm: AlgorithmId::BaderCong,
            seed,
            processors: 0,
        }
    }

    #[test]
    fn register_resolve_share_one_arc() {
        let cat = GraphCatalog::new();
        let g = Arc::new(gen::torus2d(8, 8));
        let gref = cat.register(Arc::clone(&g));
        assert_eq!(gref.version, 1);
        let (resolved, exact) = cat.resolve_latest(gref.id).expect("registered");
        assert!(Arc::ptr_eq(&resolved, &g), "no copy on resolve");
        assert_eq!(exact, gref);
        assert!(cat.resolve_latest(GraphId(999)).is_none());
    }

    #[test]
    fn publish_bumps_version_and_swaps_bytes() {
        let cat = GraphCatalog::new();
        let gref = cat.register(Arc::new(gen::torus2d(4, 4)));
        let v2 = cat
            .publish(gref.id, Arc::new(gen::torus2d(8, 8)))
            .expect("id exists");
        assert_eq!(v2.id, gref.id);
        assert_eq!(v2.version, 2);
        let (g, exact) = cat.resolve_latest(gref.id).unwrap();
        assert_eq!(g.num_vertices(), 64, "new bytes are live");
        assert_eq!(exact.version, 2);
        assert_ne!(exact, gref, "old ref no longer matches");
        assert!(cat.publish(GraphId(999), Arc::new(gen::chain(2))).is_none());
    }

    #[test]
    fn remove_unregisters() {
        let cat = GraphCatalog::new();
        let gref = cat.register(Arc::new(gen::chain(4)));
        assert_eq!(cat.len(), 1);
        assert!(cat.remove(gref.id));
        assert!(!cat.remove(gref.id), "second remove is a no-op");
        assert!(cat.resolve_latest(gref.id).is_none());
        assert!(cat.is_empty());
    }

    #[test]
    fn list_reports_sizes_in_id_order() {
        let cat = GraphCatalog::new();
        let a = cat.register(Arc::new(gen::chain(10)));
        let b = cat.register(Arc::new(gen::torus2d(4, 4)));
        let listing = cat.list();
        assert_eq!(listing.len(), 2);
        assert_eq!(listing[0], (a, 10, 9));
        assert_eq!(listing[1], (b, 16, 32));
    }

    #[test]
    fn load_roundtrips_through_binary_format() {
        let g = gen::torus2d(8, 8);
        let dir = std::env::temp_dir().join("st-catalog-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("load-{}.stcsr", std::process::id()));
        st_graph::io::save_binary(&g, &path).unwrap();

        let cat = GraphCatalog::new();
        let (gref, _kind) = cat.load(&path).unwrap();
        let (loaded, _) = cat.resolve_latest(gref.id).unwrap();
        assert_eq!(*loaded, g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn apply_bumps_version_and_mutates_edges() {
        let cat = GraphCatalog::new();
        let gref = cat.register(Arc::new(gen::chain(4)));
        let batch = EdgeBatch::new().delete(1, 2).insert(0, 3);
        let (v2, out) = cat.apply(gref.id, &batch, 0.5).expect("applies");
        assert_eq!(v2.version, 2);
        assert_eq!(
            out,
            BatchOutcome {
                edges_added: 1,
                edges_removed: 1
            }
        );
        let (g, exact) = cat.resolve_latest(gref.id).unwrap();
        assert_eq!(exact, v2);
        assert!(g.neighbors(0).contains(&3));
        assert!(!g.neighbors(1).contains(&2));
        // Unknown ids and malformed batches are rejected.
        assert_eq!(
            cat.apply(GraphId(99), &EdgeBatch::new(), 0.5),
            Err(ApplyError::UnknownGraph(GraphId(99)))
        );
        assert!(matches!(
            cat.apply(gref.id, &EdgeBatch::new().insert(0, 0), 0.5),
            Err(ApplyError::Batch(BatchError::SelfLoop(0)))
        ));
    }

    #[test]
    fn apply_flattens_past_the_rebuild_fraction() {
        let cat = GraphCatalog::new();
        let gref = cat.register(Arc::new(gen::chain(4)));
        // Touch 2 of 4 vertices with threshold 0.25: must flatten.
        let (_, _) = cat
            .apply(gref.id, &EdgeBatch::new().insert(0, 2), 0.25)
            .unwrap();
        let (view, _) = cat.view(gref.id).unwrap();
        assert!(
            matches!(view, GraphView::Flat(_)),
            "delta past the threshold is rebuilt"
        );
        // Threshold 1.0 keeps the overlay.
        let (_, _) = cat
            .apply(gref.id, &EdgeBatch::new().insert(1, 3), 1.0)
            .unwrap();
        let (view, _) = cat.view(gref.id).unwrap();
        assert!(matches!(view, GraphView::Delta(_)));
    }

    #[test]
    fn install_refuses_stale_versions() {
        let cat = GraphCatalog::new();
        let gref = cat.register(Arc::new(gen::chain(3)));
        let (view, r) = cat.view(gref.id).unwrap();
        // A concurrent publish moves the version under us.
        cat.publish(gref.id, Arc::new(gen::chain(3))).unwrap();
        assert_eq!(
            cat.install(gref.id, r.version, view, None),
            Err(ApplyError::Conflict {
                expected: 1,
                found: 2
            })
        );
    }

    #[test]
    fn resolve_pinned_distinguishes_stale_from_unknown() {
        let cat = GraphCatalog::new();
        let gref = cat.register(Arc::new(gen::chain(3)));
        assert!(matches!(cat.resolve_pinned(gref), Some(Ok(_))));
        let v2 = cat.publish(gref.id, Arc::new(gen::chain(5))).unwrap();
        assert!(
            matches!(cat.resolve_pinned(gref), Some(Err(2))),
            "stale pin"
        );
        assert!(matches!(cat.resolve_pinned(v2), Some(Ok(_))));
        cat.remove(gref.id);
        assert!(cat.resolve_pinned(v2).is_none(), "unknown graph");
    }

    #[test]
    fn resolve_latest_memoizes_delta_materialization() {
        let cat = GraphCatalog::new();
        let gref = cat.register(Arc::new(gen::torus2d(4, 4)));
        cat.apply(gref.id, &EdgeBatch::new().delete(0, 1), 1.0)
            .unwrap();
        let (a, r1) = cat.resolve_latest(gref.id).unwrap();
        let (b, r2) = cat.resolve_latest(gref.id).unwrap();
        assert_eq!(r1, r2);
        assert!(Arc::ptr_eq(&a, &b), "second resolve reuses the memo");
        assert!(!a.neighbors(0).contains(&1));
    }

    #[test]
    fn reads_of_one_delta_version_share_one_flatten() {
        let cat = GraphCatalog::new();
        let gref = cat.register(Arc::new(gen::torus2d(8, 8)));
        let (v2, _) = cat
            .apply(gref.id, &EdgeBatch::new().delete(0, 1), 1.0)
            .unwrap();
        let (view, at) = cat.view(gref.id).unwrap();
        assert_eq!(at, v2);
        assert!(
            matches!(view, GraphView::Delta(_)),
            "resolving flattens nothing"
        );
        // Two jobs that resolved before either ran both hold the delta.
        let team = Executor::new(2);
        let a = cat.flatten(v2, &view, &team);
        let b = cat.flatten(v2, &view, &team);
        assert!(
            Arc::ptr_eq(&a, &b),
            "the second read shares the first's flatten"
        );
        assert!(!a.neighbors(0).contains(&1));
        // The flat CSR is now the live version's view.
        let (GraphView::Flat(live), at) = cat.view(gref.id).unwrap() else {
            panic!("a flattened live version is viewed flat");
        };
        assert_eq!(at, v2);
        assert!(Arc::ptr_eq(&live, &a));
        assert!(Arc::ptr_eq(&cat.resolve_latest(gref.id).unwrap().0, &a));
    }

    #[test]
    fn flattening_a_superseded_version_leaves_the_live_view() {
        let cat = GraphCatalog::new();
        let gref = cat.register(Arc::new(gen::torus2d(8, 8)));
        let (v2, _) = cat
            .apply(gref.id, &EdgeBatch::new().delete(0, 1), 1.0)
            .unwrap();
        let (old_view, _) = cat.view(gref.id).unwrap();
        let (v3, _) = cat
            .apply(gref.id, &EdgeBatch::new().delete(2, 3), 1.0)
            .unwrap();
        let (GraphView::Delta(live), _) = cat.view(gref.id).unwrap() else {
            panic!("nothing flattened v3");
        };
        // The job holding v2 still gets its version, flat...
        let old = cat.flatten(v2, &old_view, &Executor::new(2));
        assert!(!old.neighbors(0).contains(&1));
        assert!(
            old.neighbors(2).contains(&3),
            "v2 predates the second delete"
        );
        // ...and the live entry keeps its own view.
        let (GraphView::Delta(after), at) = cat.view(gref.id).unwrap() else {
            panic!("a superseded flatten replaced the live view");
        };
        assert_eq!(at, v3);
        assert!(Arc::ptr_eq(&live, &after));
    }

    #[test]
    fn writes_between_reads_stack_on_the_flat_csr() {
        let cat = GraphCatalog::new();
        let n = 1 << 10;
        let gref = cat.register(Arc::new(gen::random_gnm(n, 3 * n / 2, 3)));
        let team = Executor::new(1);
        for round in 0..20u32 {
            // Eight fresh chords (16 edits' worth of rows), then a read.
            let mut batch = EdgeBatch::new();
            for i in 0..8u32 {
                let u = (round * 37 + i * 101) % n as u32;
                batch = batch
                    .delete(u, (u + 1) % n as u32)
                    .insert(u, (u + 512) % n as u32);
            }
            assert_eq!(batch.len(), 16);
            let (at, _) = cat.apply(gref.id, &batch, 1.0).unwrap();
            let (view, _) = cat.view(gref.id).unwrap();
            let GraphView::Delta(delta) = &view else {
                panic!("the write left an overlay");
            };
            assert!(
                delta.patched_vertices() <= 2 * batch.len(),
                "round {round}: {} patched rows for a {}-edit batch",
                delta.patched_vertices(),
                batch.len()
            );
            cat.flatten(at, &view, &team);
            assert!(matches!(cat.view(gref.id).unwrap().0, GraphView::Flat(_)));
        }
    }

    #[test]
    fn install_with_a_flat_csr_makes_it_the_view() {
        let cat = GraphCatalog::new();
        let gref = cat.register(Arc::new(gen::chain(4)));
        let (view, r) = cat.view(gref.id).unwrap();
        let (next, _) = view.apply(&EdgeBatch::new().insert(0, 3)).unwrap();
        let g = next.materialize();
        let v2 = cat
            .install(gref.id, r.version, next, Some(Arc::clone(&g)))
            .unwrap();
        let (GraphView::Flat(live), at) = cat.view(gref.id).unwrap() else {
            panic!("the installed CSR is the view");
        };
        assert_eq!(at, v2);
        assert!(Arc::ptr_eq(&live, &g));
    }

    #[test]
    fn cache_hits_and_misses() {
        let g = gen::torus2d(4, 4);
        let gref = GraphRef {
            id: GraphId(0),
            version: 1,
        };
        let cache = ResultCache::new(4);
        assert!(cache.get(&key(gref, 1)).is_none());
        cache.insert(key(gref, 1), forest_of(&g));
        let hit = cache.get(&key(gref, 1)).expect("hit");
        assert_eq!(hit.num_trees(), 1);
        // A different seed, width, algorithm, or version misses.
        assert!(cache.get(&key(gref, 2)).is_none());
        let mut wide = key(gref, 1);
        wide.processors = 4;
        assert!(cache.get(&wide).is_none());
        let v2 = GraphRef {
            id: GraphId(0),
            version: 2,
        };
        assert!(cache.get(&key(v2, 1)).is_none());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let g = gen::chain(4);
        let gref = GraphRef {
            id: GraphId(7),
            version: 1,
        };
        let cache = ResultCache::new(2);
        cache.insert(key(gref, 1), forest_of(&g));
        cache.insert(key(gref, 2), forest_of(&g));
        // Touch seed 1 so seed 2 is the LRU victim.
        assert!(cache.get(&key(gref, 1)).is_some());
        cache.insert(key(gref, 3), forest_of(&g));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(gref, 1)).is_some(), "recently used survives");
        assert!(cache.get(&key(gref, 2)).is_none(), "LRU evicted");
        assert!(cache.get(&key(gref, 3)).is_some());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let g = gen::chain(3);
        let gref = GraphRef {
            id: GraphId(1),
            version: 1,
        };
        let cache = ResultCache::new(2);
        cache.insert(key(gref, 1), forest_of(&g));
        cache.insert(key(gref, 2), forest_of(&g));
        cache.insert(key(gref, 1), forest_of(&g));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(gref, 2)).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let g = gen::chain(3);
        let gref = GraphRef {
            id: GraphId(2),
            version: 1,
        };
        let cache = ResultCache::new(0);
        cache.insert(key(gref, 1), forest_of(&g));
        assert!(cache.get(&key(gref, 1)).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn byte_bound_evicts_lru_until_both_bounds_hold() {
        let g = gen::chain(100); // 100 parents + 1 root = 404 bytes
        let gref = GraphRef {
            id: GraphId(3),
            version: 1,
        };
        let one = forest_bytes(&forest_of(&g));
        assert_eq!(one, 404);
        // Room for eight entries but only two forests' worth of bytes.
        let cache = ResultCache::with_byte_bound(8, 2 * one + one / 2);
        cache.insert(key(gref, 1), forest_of(&g));
        cache.insert(key(gref, 2), forest_of(&g));
        assert!(cache.get(&key(gref, 1)).is_some()); // seed 2 is now LRU
        cache.insert(key(gref, 3), forest_of(&g));
        assert_eq!(cache.len(), 2, "the byte bound evicted an entry");
        assert!(cache.get(&key(gref, 2)).is_none(), "LRU evicted");
        assert!(cache.get(&key(gref, 1)).is_some());
        assert!(cache.get(&key(gref, 3)).is_some());
        // A larger forest evicts as many entries as it needs.
        let big = forest_of(&gen::chain(200));
        cache.insert(key(gref, 4), big);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(gref, 4)).is_some());
        assert_eq!(cache.inner.lock().unwrap().bytes, 804);
    }

    #[test]
    fn a_forest_over_the_byte_bound_is_not_cached() {
        let gref = GraphRef {
            id: GraphId(4),
            version: 1,
        };
        let cache = ResultCache::with_byte_bound(8, 1_000);
        cache.insert(key(gref, 1), forest_of(&gen::chain(10)));
        cache.insert(key(gref, 2), forest_of(&gen::chain(1_000)));
        assert!(cache.get(&key(gref, 2)).is_none(), "too big to cache");
        assert!(cache.get(&key(gref, 1)).is_some(), "and it evicted nothing");
        assert_eq!(ResultCache::new(8).max_bytes, RESULT_CACHE_MAX_BYTES);
    }

    #[test]
    fn purge_drops_every_version_of_one_graph() {
        let g = gen::chain(3);
        let a1 = GraphRef {
            id: GraphId(1),
            version: 1,
        };
        let a2 = GraphRef {
            id: GraphId(1),
            version: 2,
        };
        let b = GraphRef {
            id: GraphId(2),
            version: 1,
        };
        let cache = ResultCache::new(8);
        cache.insert(key(a1, 1), forest_of(&g));
        cache.insert(key(a2, 1), forest_of(&g));
        cache.insert(key(b, 1), forest_of(&g));
        cache.purge_graph(GraphId(1));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(b, 1)).is_some());
        assert_eq!(
            cache.inner.lock().unwrap().bytes,
            forest_bytes(&forest_of(&g)),
            "purged entries leave the byte count"
        );
    }
}
