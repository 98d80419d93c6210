//! Graph representations.
//!
//! The spanning-tree algorithms all operate on an immutable, shared
//! [`CsrGraph`] (compressed sparse row), mirroring the adjacency-list
//! representation the paper assumes. Construction goes through either a
//! raw [`EdgeList`] or the deduplicating [`GraphBuilder`].

mod builder;
mod csr;
mod edge_list;
mod storage;

pub use builder::GraphBuilder;
pub(crate) use csr::check_rows;
pub use csr::{CsrGraph, DegreeStats};
pub use edge_list::EdgeList;
pub use storage::{MapRegion, SharedSlice};

/// Vertex identifier.
///
/// The study never exceeds a few million vertices (the paper's largest
/// inputs have n = 1M), so a 32-bit id halves the memory traffic of the
/// adjacency arrays relative to `usize` — exactly the kind of
/// cache-friendliness the SMP model rewards.
pub type VertexId = u32;

/// Sentinel "no vertex" value used in parent arrays for roots and
/// unreached vertices.
pub const NO_VERTEX: VertexId = VertexId::MAX;
