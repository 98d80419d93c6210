//! Batch-dynamic graphs: the service's versioned mutation path.
//!
//! [`Service::apply`](crate::Service::apply) takes an [`EdgeBatch`] for
//! a catalog graph, produces a new graph *version* (a copy-on-write
//! overlay, flattened past a rebuild threshold), and keeps that graph's
//! spanning forest current — incrementally when the batch touches a
//! small part of the graph, by full recompute when it does not.
//!
//! The maintainer state lives here: one [`GraphUpdater`] per mutated
//! graph, holding a [`DynForest`] synced to a specific catalog version
//! plus a private [`Workspace`] arena. Updates to one graph serialize
//! on the updater's mutex; updates to different graphs proceed
//! concurrently. The catalog install itself is optimistic
//! ([`GraphCatalog::install`] CASes on the version), so a racing direct
//! [`GraphCatalog::apply`] or [`GraphCatalog::publish`] never loses an
//! update — the service path just reseeds its forest and retries.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use st_core::engine::SpanningAlgorithm;
use st_core::{BaderCong, DynForest, SpanningForest, UpdateStats, Workspace};
use st_graph::{BatchError, BatchOutcome, CsrGraph, EdgeBatch, GraphView, Neighbors};
use st_smp::{CancelToken, ExecutorPool};

use crate::catalog::{ApplyError, GraphCatalog, GraphId, GraphRef};
use crate::sizing::preferred_width;

/// Default overlay patched-fraction above which a new version is
/// flattened to a contiguous CSR instead of stacking another delta
/// (overridden by `ST_DELTA_REBUILD_FRACTION` / the builder).
pub const DEFAULT_DELTA_REBUILD_FRACTION: f64 = 0.25;

/// Default touched-component fraction at or above which the maintainer
/// abandons incremental repair and recomputes the forest from scratch
/// (overridden by `ST_DYN_RECOMPUTE_FRACTION` / the builder). `0`
/// forces recompute on every batch; anything above `1` never recomputes.
pub const DEFAULT_DYN_RECOMPUTE_FRACTION: f64 = 0.2;

/// Resolved dynamic-update knobs (builder → env → defaults).
#[derive(Clone, Copy, Debug)]
pub(crate) struct DynConfig {
    /// Flatten a delta view whose patched fraction exceeds this.
    pub rebuild_fraction: f64,
    /// Recompute instead of repairing when the batch's touched-component
    /// estimate reaches this fraction of the vertex set.
    pub recompute_fraction: f64,
}

impl Default for DynConfig {
    fn default() -> Self {
        Self {
            rebuild_fraction: DEFAULT_DELTA_REBUILD_FRACTION,
            recompute_fraction: DEFAULT_DYN_RECOMPUTE_FRACTION,
        }
    }
}

/// Per-graph incremental maintainer: a forest synced to one catalog
/// version, plus the scratch arena its repairs run in.
pub(crate) struct GraphUpdater {
    /// `None` until the first `apply` seeds it (or after a lost install
    /// race invalidates it).
    forest: Option<DynForest>,
    /// The catalog version `forest` describes.
    version: u32,
    /// Private arena for repairs and reseeds; amortizes across batches.
    ws: Workspace,
}

impl GraphUpdater {
    fn new() -> Self {
        Self {
            forest: None,
            version: 0,
            ws: Workspace::new(),
        }
    }
}

/// What one applied batch did.
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// The new version the batch produced.
    pub graph: GraphRef,
    /// Edges actually added/removed (duplicates and misses excluded).
    pub outcome: BatchOutcome,
    /// True when the forest was repaired incrementally; false when the
    /// maintainer fell back to a full recompute.
    pub incremental: bool,
    /// Components in the maintained forest after the batch.
    pub components: usize,
    /// Repair counters (all zero on the recompute path).
    pub stats: UpdateStats,
}

/// Why an update could not be applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// The graph id is not (or no longer) in the catalog.
    UnknownGraph(GraphId),
    /// The batch references vertices outside the graph.
    Batch(BatchError),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownGraph(id) => write!(f, "unknown graph {id:?}"),
            Self::Batch(e) => write!(f, "invalid batch: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<BatchError> for UpdateError {
    fn from(e: BatchError) -> Self {
        Self::Batch(e)
    }
}

/// Seeds (or reseeds) a maintainer by running the static algorithm over
/// a flat snapshot on a best-fit leased team.
fn run_static(g: &Arc<CsrGraph>, pool: &ExecutorPool, ws: &mut Workspace) -> SpanningForest {
    let p = preferred_width(g.num_vertices(), g.num_edges(), &pool.team_sizes());
    let lease = pool.lease(p);
    let algo = BaderCong::with_defaults();
    algo.prepare(ws, g);
    algo.run_with_cancel(g, &lease, ws, &CancelToken::new())
        .expect("a fresh token is never cancelled")
}

/// The whole update: resolve the live view, decide incremental vs
/// recompute from the *pre-batch* forest, compute the successor view
/// outside the catalog lock, repair or recompute the forest against it,
/// and install both atomically-by-version. Retries on install conflicts.
pub(crate) fn apply_update(
    catalog: &GraphCatalog,
    pool: &ExecutorPool,
    updaters: &Mutex<HashMap<GraphId, Arc<Mutex<GraphUpdater>>>>,
    cfg: DynConfig,
    id: GraphId,
    batch: &EdgeBatch,
) -> Result<UpdateReport, UpdateError> {
    let slot = {
        let mut map = updaters.lock().unwrap();
        Arc::clone(
            map.entry(id)
                .or_insert_with(|| Arc::new(Mutex::new(GraphUpdater::new()))),
        )
    };
    // Service-path updates to one graph serialize here; conflicts below
    // can only come from direct catalog writers (apply/publish).
    let mut up = slot.lock().unwrap_or_else(|poisoned| {
        // An earlier apply panicked mid-repair. The catalog was not
        // touched (install is the last step), but the maintainer's
        // forest and scratch may be half-written: drop both so this
        // apply reseeds from the live version.
        slot.clear_poison();
        let mut up = poisoned.into_inner();
        up.forest = None;
        up.ws = Workspace::new();
        up
    });
    loop {
        let (view, gref) = catalog.view(id).ok_or(UpdateError::UnknownGraph(id))?;
        let n = view.num_vertices();
        batch.validate(n)?;

        // Sync the maintainer to the live version. First touch and any
        // out-of-band version bump (publish, direct apply, lost race)
        // land here: a full static run over the current snapshot.
        if up.forest.is_none() || up.version != gref.version {
            let flat = view.materialize();
            let seeded = run_static(&flat, pool, &mut up.ws);
            up.forest = Some(DynForest::from_forest(&seeded));
            up.version = gref.version;
        }

        // Decide the maintenance path *before* mutating: the estimate
        // sums the sizes of components the batch can touch, against the
        // pre-batch forest. Strict `<` gives the knob its documented
        // edge semantics (0 always recomputes, >1 never does).
        let touched = up
            .forest
            .as_ref()
            .expect("seeded above")
            .touched_estimate(batch);
        let incremental = (touched as f64) < cfg.recompute_fraction * n.max(1) as f64;

        // Successor view, computed outside the catalog lock.
        let (next, outcome) = view.apply(batch)?;
        let (next_view, flat) = if next.patched_fraction() > cfg.rebuild_fraction {
            let f = next.materialize();
            (GraphView::Flat(Arc::clone(&f)), Some(f))
        } else {
            (next, None)
        };

        let up = &mut *up;
        let forest = up.forest.as_mut().expect("seeded above");
        let stats = if incremental {
            let p = preferred_width(n, next_view.num_edges(), &pool.team_sizes());
            let lease = pool.lease(p);
            forest.apply_batch(&next_view, batch, &lease, &mut up.ws)
        } else {
            let snapshot = match &flat {
                Some(f) => Arc::clone(f),
                None => next_view.materialize(),
            };
            let recomputed = run_static(&snapshot, pool, &mut up.ws);
            *forest = DynForest::from_forest(&recomputed);
            UpdateStats::default()
        };
        let components = forest.num_components();

        match catalog.install(id, gref.version, next_view, flat) {
            Ok(new_ref) => {
                up.version = new_ref.version;
                return Ok(UpdateReport {
                    graph: new_ref,
                    outcome,
                    incremental,
                    components,
                    stats,
                });
            }
            Err(ApplyError::Conflict { .. }) => {
                // A direct catalog writer moved the version while we
                // computed. The forest now describes a successor that
                // never existed — drop it and redo against the winner.
                up.forest = None;
                continue;
            }
            Err(ApplyError::UnknownGraph(_)) => return Err(UpdateError::UnknownGraph(id)),
            Err(ApplyError::Batch(e)) => return Err(UpdateError::Batch(e)),
        }
    }
}

/// Drops the maintainer for a removed graph (no-op when never mutated).
pub(crate) fn drop_updater(
    updaters: &Mutex<HashMap<GraphId, Arc<Mutex<GraphUpdater>>>>,
    id: GraphId,
) {
    updaters.lock().unwrap().remove(&id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::gen;
    use st_graph::validate::count_components;

    #[test]
    fn a_panic_inside_the_updater_does_not_wedge_the_graph() {
        let catalog = GraphCatalog::new();
        let pool = ExecutorPool::new([2]);
        let updaters = Mutex::new(HashMap::new());
        let cfg = DynConfig::default();
        let id = catalog.register(Arc::new(gen::torus2d(8, 8))).id;
        let first = EdgeBatch::new().insert(0, 27);
        let seeded =
            apply_update(&catalog, &pool, &updaters, cfg, id, &first).expect("seeding apply");

        let slot = Arc::clone(&updaters.lock().unwrap()[&id]);
        let poisoner = std::thread::spawn(move || {
            let _guard = slot.lock().unwrap();
            panic!("simulated panic while holding the updater");
        });
        assert!(poisoner.join().is_err());
        assert!(updaters.lock().unwrap()[&id].is_poisoned());

        // Cut the torus into two halves: every edge between rows 3
        // and 4, plus the wrap-around edges between rows 7 and 0.
        let mut cut = EdgeBatch::new();
        for col in 0..8u32 {
            cut = cut
                .delete(3 * 8 + col, 4 * 8 + col)
                .delete(col, 7 * 8 + col);
        }
        let report = apply_update(&catalog, &pool, &updaters, cfg, id, &cut)
            .expect("a poisoned updater must recover, not panic");
        let (live, _) = catalog.resolve_latest(id).expect("graph is registered");
        assert_eq!(report.graph.version, seeded.graph.version + 1);
        assert_eq!(report.components, count_components(&live));
        assert_eq!(report.components, 2, "the cut splits the torus in two");
        assert!(!updaters.lock().unwrap()[&id].is_poisoned());
    }
}
