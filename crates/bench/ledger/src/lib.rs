//! The performance ledger: one command that drives the spanning-forest
//! service exactly as shipped and reports what its users see (end to
//! end) and where the time goes (per layer).
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/ledger/Cargo.toml --bin ledger -- --seed 42
//! ```
//!
//! The metrics are declared once, in the repository's `BENCHMARK.json`
//! ([`registry`]). `LEDGER.md` beside this crate explains the workloads,
//! the layer-to-metric map, and how to trace and compare runs.

pub mod check;
pub mod host;
pub mod load;
pub mod reference;
pub mod registry;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod yardstick;
