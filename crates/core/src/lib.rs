#![warn(missing_docs)]

//! # st-core — parallel spanning-tree algorithms for SMPs
//!
//! This crate implements the algorithms of Bader & Cong, *A Fast,
//! Parallel Spanning Tree Algorithm for Symmetric Multiprocessors
//! (SMPs)*, IPDPS 2004:
//!
//! * [`seq`] — the "best sequential implementation": breadth-first (and
//!   depth-first) spanning-tree/forest construction, the baseline every
//!   speedup in the paper is measured against.
//! * [`bader_cong`] — **the paper's contribution**: the randomized SMP
//!   algorithm with a stub spanning tree (phase 1) and a work-stealing
//!   graph traversal (phase 2), plus the condition-variable starvation
//!   detector that falls back to Shiloach–Vishkin on pathological
//!   inputs.
//! * [`sv`] — the Shiloach–Vishkin graft-and-shortcut algorithm adapted
//!   for SMPs, in the election variant (the paper's main parallel
//!   baseline) and the lock variant (which the paper reports — and we
//!   confirm — is slow).
//! * [`hcs`] — the Hirschberg–Chandra–Sarwate adaptation, which the paper
//!   implemented and then dropped from discussion because it behaves
//!   like SV; included for completeness.
//! * [`connected`] — connected components derived from the same
//!   machinery (SV is natively a connectivity algorithm).
//! * [`engine`] — the execution engine: every algorithm implements the
//!   [`SpanningAlgorithm`] trait, whose one cancellable
//!   [`run`](SpanningAlgorithm::run) is the algorithm's only entry
//!   point, and runs on a persistent [`Executor`](st_smp::Executor) team
//!   with a reusable [`Workspace`] arena, so a sequence of runs pays no
//!   per-call thread spawns or allocations (the paper's
//!   repeated-measurement methodology). The routines built on the
//!   algorithms (orientation, connectivity, biconnectivity, ear
//!   decomposition, Borůvka) likewise take a team; only
//!   [`Engine::new`] spawns one.
//!
//! All parallel algorithms produce spanning *forests* (one rooted tree
//! per connected component, encoded as a parent array with
//! [`NO_VERTEX`](st_graph::NO_VERTEX) marking roots) and are verified
//! against the oracles in [`st_graph::validate`].
//!
//! ## Quick example
//!
//! ```
//! use st_core::{BaderCong, Engine};
//! use st_graph::gen;
//! use st_graph::validate::is_spanning_forest;
//!
//! // One engine, many runs: threads spawn once, scratch is reused.
//! let mut engine = Engine::new(4);
//! let algo = BaderCong::with_defaults();
//! for seed in 0..3 {
//!     let g = gen::random_gnm(1_000, 2_000, seed);
//!     let forest = engine.run(&algo, &g);
//!     assert!(is_spanning_forest(&g, &forest.parents));
//! }
//! ```

pub mod bader_cong;
pub mod biconnected;
pub mod config;
pub mod connected;
pub mod dyn_forest;
pub mod ears;
pub mod engine;
pub mod hcs;
pub mod mst;
pub mod orient;
pub mod result;
pub mod seq;
pub mod stub;
pub mod sv;
pub mod traversal;
pub mod tree;

pub use bader_cong::{BaderCong, Config};
pub use config::{ConfigError, RuntimeConfig};
pub use dyn_forest::{DynForest, OverBudget, UpdateStats};
pub use engine::{Cancelled, Engine, SpanningAlgorithm, Workspace};
pub use result::{AlgoStats, SpanningForest};
pub use traversal::{Direction, TraversalConfig};
