//! Batch-dynamic graphs: the service's versioned mutation path.
//!
//! [`Service::apply`](crate::Service::apply) takes an [`EdgeBatch`] for
//! a catalog graph, produces a new graph *version* (a copy-on-write
//! overlay, flattened past a rebuild threshold), and keeps that graph's
//! spanning forest current — incrementally when the repair fits a
//! work budget, by full recompute when it does not.
//!
//! The maintainer state lives here: one `GraphUpdater` per mutated
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

/// Overlay patched-fraction above which a new version is flattened to
/// a contiguous CSR instead of stacking another delta.
pub const DEFAULT_DELTA_REBUILD_FRACTION: f64 = 0.25;

/// Default repair-work budget, as a fraction of n + m: a batch whose
/// incremental repair would do more work than this is abandoned and
/// the forest recomputed from scratch (overridden by
/// [`ServiceBuilder::dyn_recompute_fraction`](crate::ServiceBuilder::dyn_recompute_fraction)).
/// `0` recomputes every batch without trying a repair; anything above
/// `1` never recomputes.
/// At 1 a repair may do about one pass over the graph's worth of work;
/// a unit of repair work costs far less than a unit of a recompute.
pub const DEFAULT_DYN_RECOMPUTE_FRACTION: f64 = 1.0;

/// Resolved dynamic-update knobs (builder → defaults).
#[derive(Clone, Copy, Debug)]
pub(crate) struct DynConfig {
    /// Repair-work budget as a fraction of n + m; past it, recompute.
    pub recompute_fraction: f64,
}

impl DynConfig {
    /// The work budget for one repair on a graph of `n` vertices and
    /// `m` edges: `None` recomputes without trying (fraction 0),
    /// `usize::MAX` never gives up (fraction above 1).
    fn repair_budget(&self, n: usize, m: usize) -> Option<usize> {
        let f = self.recompute_fraction;
        if f == 0.0 {
            None
        } else if f > 1.0 {
            Some(usize::MAX)
        } else {
            Some((f * (n + m) as f64) as usize)
        }
    }
}

impl Default for DynConfig {
    fn default() -> Self {
        Self {
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

/// The whole update: resolve the live view, compute the successor view
/// outside the catalog lock, repair the forest against it within the
/// work budget (recomputing it when the repair runs over), and install
/// both atomically-by-version. Retries on install conflicts.
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

        // Successor view, computed outside the catalog lock.
        let (next, outcome) = view.apply(batch)?;
        let (next_view, mut flat) = if next.patched_fraction() > DEFAULT_DELTA_REBUILD_FRACTION {
            let f = next.materialize();
            (GraphView::Flat(Arc::clone(&f)), Some(f))
        } else {
            (next, None)
        };

        // Repair first, metered: a repair that runs over its budget
        // leaves a half-repaired forest, which the recompute below
        // replaces before anything installs.
        let up = &mut *up;
        let forest = up.forest.as_mut().expect("seeded above");
        let m = next_view.num_edges();
        let repaired = cfg.repair_budget(n, m).and_then(|budget| {
            let lease = pool.lease(preferred_width(n, m, &pool.team_sizes()));
            forest
                .apply_batch_within(&next_view, batch, &lease, &mut up.ws, budget)
                .ok()
        });
        let incremental = repaired.is_some();
        let stats = repaired.unwrap_or_else(|| {
            // The snapshot also fills the catalog's flat memo for the
            // new version, so the next read does not materialize again.
            let snapshot = flat.get_or_insert_with(|| next_view.materialize());
            let recomputed = run_static(snapshot, pool, &mut up.ws);
            *forest = DynForest::from_forest(&recomputed);
            UpdateStats::default()
        });
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
    fn a_repair_over_budget_recomputes_to_the_oracle_count() {
        let catalog = GraphCatalog::new();
        let pool = ExecutorPool::new([2]);
        let updaters = Mutex::new(HashMap::new());
        // A budget of ~20 units, far below the ~1000 dequeues a cut
        // through the middle of a 1000-vertex path needs.
        let cfg = DynConfig {
            recompute_fraction: 0.01,
        };
        let id = catalog.register(Arc::new(gen::chain(1000))).id;
        let apply = |batch: &EdgeBatch| apply_update(&catalog, &pool, &updaters, cfg, id, batch);
        assert!(apply(&EdgeBatch::new()).unwrap().incremental, "seeding");

        let cut = apply(&EdgeBatch::new().delete(499, 500)).unwrap();
        assert!(!cut.incremental, "the cut must run over and recompute");
        let (live, gref) = catalog.resolve_latest(id).unwrap();
        assert_eq!(gref, cut.graph);
        assert_eq!(cut.components, count_components(&live));
        assert_eq!(cut.components, 2);

        // The recomputed forest is a sound base for the next repair:
        // cutting off a leaf fits the budget.
        let leaf = apply(&EdgeBatch::new().delete(998, 999)).unwrap();
        assert!(leaf.incremental);
        let (live, _) = catalog.resolve_latest(id).unwrap();
        assert_eq!(leaf.components, count_components(&live));
        assert_eq!(leaf.components, 3);
    }

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
