//! Batch-dynamic graphs: the service's versioned mutation path.
//!
//! [`Service::apply`] takes an [`EdgeBatch`] for a catalog graph,
//! produces a new graph *version* (a copy-on-write overlay, flattened
//! past a rebuild threshold), and keeps that graph's spanning forest
//! current — incrementally when the repair fits a work budget, by full
//! recompute when it does not.
//!
//! The maintainer state lives here: one `GraphUpdater` per mutated
//! graph, holding a [`DynForest`] synced to a specific catalog version.
//! Repairs run on the calling thread. Its seeding and recompute runs
//! are dispatcher jobs: the seed is the version's default read, cached
//! like any other, and a recompute is a job over the successor's CSR.
//! Updates to one graph serialize on the updater's mutex; updates to
//! different graphs proceed concurrently. The catalog install itself is
//! optimistic ([`install`](crate::GraphCatalog::install) CASes on the
//! version), so a racing direct [`apply`](crate::GraphCatalog::apply)
//! or [`publish`](crate::GraphCatalog::publish) on the catalog never
//! loses an update — the service path just reseeds its forest and
//! retries.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use st_core::{DynForest, UpdateStats};
use st_graph::{BatchError, BatchOutcome, EdgeBatch, GraphView, Neighbors};

use crate::catalog::{self, ApplyError, GraphId, GraphRef};
use crate::job::{JobError, JobHandle};
use crate::service::Service;
use crate::spec::JobSpec;

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

/// The work budget for one repair on a graph of `n` vertices and `m`
/// edges at `fraction` of n + m: `None` recomputes without trying
/// (fraction 0), `usize::MAX` never gives up (fraction above 1).
fn repair_budget(fraction: f64, n: usize, m: usize) -> Option<usize> {
    if fraction == 0.0 {
        None
    } else if fraction > 1.0 {
        Some(usize::MAX)
    } else {
        Some((fraction * (n + m) as f64) as usize)
    }
}

/// Per-graph incremental maintainer: a forest synced to one catalog
/// version. Repairs keep their scratch in the forest.
#[derive(Default)]
pub(crate) struct GraphUpdater {
    /// `None` until the first `apply` seeds it (or after a lost install
    /// race or a failed recompute invalidates it).
    forest: Option<DynForest>,
    /// The catalog version `forest` describes.
    version: u32,
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

/// Why an update could not be applied. Nothing is installed on any of
/// these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// The graph id is not (or no longer) in the catalog.
    UnknownGraph(GraphId),
    /// The batch references vertices outside the graph.
    Batch(BatchError),
    /// The seed or recompute job the update needed was refused at
    /// admission (a full quota, shutdown) or did not finish.
    Job(JobError),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownGraph(id) => write!(f, "unknown graph {id:?}"),
            Self::Batch(e) => write!(f, "invalid batch: {e}"),
            Self::Job(e) => write!(f, "forest job failed: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<BatchError> for UpdateError {
    fn from(e: BatchError) -> Self {
        Self::Batch(e)
    }
}

impl From<JobError> for UpdateError {
    fn from(e: JobError) -> Self {
        Self::Job(e)
    }
}

/// The whole update: resolve the live view, compute the successor view
/// outside the catalog lock, repair the forest against it within the
/// work budget (recomputing it when the repair runs over), and install
/// the successor atomically-by-version. Retries on install conflicts.
pub(crate) fn apply_update(
    svc: &Service,
    updaters: &Mutex<HashMap<GraphId, Arc<Mutex<GraphUpdater>>>>,
    recompute_fraction: f64,
    id: GraphId,
    batch: &EdgeBatch,
) -> Result<UpdateReport, UpdateError> {
    let catalog = svc.catalog();
    let slot = Arc::clone(updaters.lock().unwrap().entry(id).or_default());
    // Service-path updates to one graph serialize here; conflicts below
    // can only come from direct catalog writers (apply/publish).
    let mut up = slot.lock().unwrap_or_else(|poisoned| {
        // An earlier apply panicked mid-repair. The catalog was not
        // touched (install is the last step), but the maintainer's
        // forest may be half-written: drop it so this apply reseeds
        // from the live version.
        slot.clear_poison();
        let mut up = poisoned.into_inner();
        up.forest = None;
        up
    });
    let up = &mut *up;
    loop {
        let (view, gref) = catalog.view(id).ok_or(UpdateError::UnknownGraph(id))?;
        let n = view.num_vertices();
        batch.validate(n)?;

        // Sync the maintainer to the live version. First touch and any
        // out-of-band version bump (publish, direct apply, lost race)
        // land here: the version's default read, from the result cache
        // when it already ran, else a job that flattens the version on
        // its team and leaves that CSR as the view the batch stacks on
        // once the loop reads it again.
        if up.forest.is_none() || up.version != gref.version {
            let seed = svc
                .submit_spec(JobSpec::new(gref))
                .and_then(|submitted| submitted.handle.wait());
            match seed {
                Ok(forest) => {
                    up.forest = Some(DynForest::from_forest(&forest));
                    up.version = gref.version;
                }
                // Superseded before the job was admitted: sync to the
                // winner.
                Err(JobError::StaleVersion(_)) => {}
                Err(JobError::UnknownGraph) => return Err(UpdateError::UnknownGraph(id)),
                Err(e) => return Err(e.into()),
            }
            continue;
        }
        let forest = up.forest.as_mut().expect("synced above");

        // Successor view, computed outside the catalog lock.
        let (mut next, outcome) = catalog::successor(&view, batch, DEFAULT_DELTA_REBUILD_FRACTION)?;

        // Repair first, metered: a repair that runs over its budget
        // leaves a half-repaired forest, which the recompute below
        // replaces before anything installs.
        let repaired = repair_budget(recompute_fraction, n, next.num_edges())
            .and_then(|budget| forest.apply_batch_within(&next, batch, budget).ok());
        let incremental = repaired.is_some();
        let stats = match repaired {
            Some(stats) => stats,
            None => {
                // The flat successor also installs as the new version's
                // view, so the next read does not flatten again.
                let flat = next.materialize();
                next = GraphView::Flat(Arc::clone(&flat));
                match svc.job(&flat).submit().and_then(JobHandle::wait) {
                    Ok(recomputed) => *forest = DynForest::from_forest(&recomputed),
                    Err(e) => {
                        up.forest = None;
                        return Err(e.into());
                    }
                }
                UpdateStats::default()
            }
        };
        let components = forest.num_components();

        match catalog.install(id, gref.version, next, None) {
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
            }
            // `install` fails only on a conflict or an unknown graph.
            Err(_) => return Err(UpdateError::UnknownGraph(id)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::gen;
    use st_graph::validate::count_components;

    #[test]
    fn a_repair_over_budget_recomputes_to_the_oracle_count() {
        let svc = Service::builder().cores(2).build();
        let catalog = svc.catalog();
        let updaters = Mutex::new(HashMap::new());
        // A budget of ~20 units, far below the ~1000 dequeues a cut
        // through the middle of a 1000-vertex path needs.
        let fraction = 0.01;
        let id = catalog.register(Arc::new(gen::chain(1000))).id;
        let apply = |batch: &EdgeBatch| apply_update(&svc, &updaters, fraction, id, batch);
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
        let svc = Service::builder().cores(2).build();
        let catalog = svc.catalog();
        let updaters = Mutex::new(HashMap::new());
        let fraction = DEFAULT_DYN_RECOMPUTE_FRACTION;
        let id = catalog.register(Arc::new(gen::torus2d(8, 8))).id;
        let first = EdgeBatch::new().insert(0, 27);
        let seeded = apply_update(&svc, &updaters, fraction, id, &first).expect("seeding apply");

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
        let report = apply_update(&svc, &updaters, fraction, id, &cut)
            .expect("a poisoned updater must recover, not panic");
        let (live, _) = catalog.resolve_latest(id).expect("graph is registered");
        assert_eq!(report.graph.version, seeded.graph.version + 1);
        assert_eq!(report.components, count_components(&live));
        assert_eq!(report.components, 2, "the cut splits the torus in two");
        assert!(!updaters.lock().unwrap()[&id].is_poisoned());
    }
}
