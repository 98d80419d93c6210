#![warn(missing_docs)]

//! # bader-cong-spanning — parallel spanning trees for SMPs
//!
//! A from-scratch Rust reproduction of **Bader & Cong, "A Fast, Parallel
//! Spanning Tree Algorithm for Symmetric Multiprocessors (SMPs)",
//! IPDPS 2004**: the randomized stub-tree + work-stealing traversal
//! algorithm, its Shiloach–Vishkin and Hirschberg–Chandra–Sarwate
//! baselines, the paper's eight experiment input families, the
//! Helman–JáJá SMP cost model the paper analyzes with, and a benchmark
//! harness that regenerates every result figure.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`graph`] — CSR graphs, generators, labeling, degree-2
//!   preprocessing, validation oracles, I/O.
//! * [`smp`] — the POSIX-threads-and-software-barriers runtime layer:
//!   teams, barriers, spin locks, work-stealing queues, the starvation
//!   detector.
//! * [`core`] — the algorithms.
//! * [`model`] — the cost model and deterministic instrumented
//!   executors.
//! * [`obs`] — the observability layer: always-on per-rank counters,
//!   per-job [`JobMetrics`](st_obs::JobMetrics) reports, and (behind
//!   the `obs-trace` feature) phase spans exportable as Chrome traces.
//! * [`service`] — the multi-tenant job service: one core budget over
//!   persistent teams with admission control, priorities, deadlines,
//!   and cooperative cancellation — plus the graph catalog, result
//!   cache, and TCP front-end that make it an operable server (see
//!   [`st_service::net`]).
//!
//! ## Quickstart
//!
//! ```
//! use bader_cong_spanning::prelude::*;
//!
//! // One engine: a persistent 4-processor team plus a reusable
//! // workspace. Threads spawn once; scratch arrays are recycled
//! // across runs (the paper's repeated-measurement methodology).
//! let mut engine = Engine::new(4);
//! let algo = BaderCong::with_defaults();
//!
//! // The paper's Fig. 3 input: a random graph with m = 1.5 n.
//! let g = gen::random_gnm(10_000, 15_000, 42);
//! let forest = engine.run(&algo, &g);
//! assert!(is_spanning_forest(&g, &forest.parents));
//! println!(
//!     "{} trees, {} tree edges, {} race collisions",
//!     forest.num_trees(),
//!     forest.num_tree_edges(),
//!     forest.stats.metrics.get(Counter::MultiColored)
//! );
//!
//! // The same engine runs any algorithm behind the trait.
//! let sv_forest = engine.run(&sv::Sv::new(SvConfig::default()), &g);
//! assert_eq!(sv_forest.num_trees(), forest.num_trees());
//!
//! // A cancellable run calls the trait on the engine's team and
//! // workspace with a `CancelToken`; a fired token ends the run early
//! // with `Err(Cancelled)` and leaves both reusable.
//! let token = CancelToken::new();
//! token.cancel();
//! let (exec, ws) = engine.parts_mut();
//! assert_eq!(algo.run(&g, exec, ws, &token).err(), Some(Cancelled));
//! let again = algo.run(&g, exec, ws, &CancelToken::none()).expect("inert token");
//! assert_eq!(again.num_trees(), forest.num_trees());
//! ```
//!
//! For multi-tenant workloads — many clients submitting jobs against a
//! shared machine — see the [`service`] crate re-export: one core
//! budget over persistent teams with admission control, deadlines, priorities,
//! and cooperative cancellation.

pub use st_core as core;
pub use st_graph as graph;
pub use st_model as model;
pub use st_obs as obs;
pub use st_service as service;
pub use st_smp as smp;

/// Everything a typical user needs in scope.
pub mod prelude {
    pub use st_core::bader_cong::{BaderCong, Config};
    pub use st_core::biconnected::{
        biconnected_components, biconnected_from_forest, Biconnectivity,
    };
    pub use st_core::config::{ConfigError, RuntimeConfig};
    pub use st_core::connected::{components_from_forest, connected_components};
    pub use st_core::engine::{Cancelled, Engine, SpanningAlgorithm, Workspace};
    pub use st_core::mst::{self, MstResult};
    pub use st_core::result::{AlgoStats, SpanningForest};
    pub use st_core::seq;
    pub use st_core::sv::{self, GraftVariant, SvConfig};
    pub use st_core::traversal::TraversalConfig;
    pub use st_core::{DynForest, OverBudget, UpdateStats};
    pub use st_graph::gen;
    pub use st_graph::label::{random_permutation, relabel};
    pub use st_graph::validate::{is_spanning_forest, is_spanning_tree};
    pub use st_graph::{CsrGraph, EdgeList, GraphBuilder, VertexId, NO_VERTEX};
    pub use st_graph::{EdgeBatch, GraphView};
    pub use st_obs::{
        lint_exposition, write_chrome_trace, Counter, JobMetrics, Phase, PhaseTotal, TraceId,
    };
    pub use st_service::net::{Client, Server, ServerConfig, SubmitRequest};
    pub use st_service::{
        AlgorithmId, GraphCatalog, GraphId, GraphRef, GraphSel, JobError, JobHandle, JobSpec,
        Priority, Service, UpdateReport,
    };
    pub use st_smp::{CancelToken, StealPolicy};
}
