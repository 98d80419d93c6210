//! Multi-tenant spanning-forest job service.
//!
//! [`st_core::Engine`] gives one caller a persistent team; this crate
//! gives *many* callers a shared machine. A [`Service`] owns one budget
//! of cores over a ladder of persistent [`Executor`](st_smp::Executor)
//! teams (widths `[2, 1, 1]` on a 2-core box, see [`st_smp::ladder`])
//! behind a bounded, priority-laned admission queue:
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use st_graph::gen;
//! use st_service::{Priority, Service};
//!
//! let svc = Service::builder().cores(2).queue_capacity(32).build();
//! let g = Arc::new(gen::torus2d(32, 32));
//!
//! let handle = svc
//!     .job(&g)
//!     .deadline(Duration::from_secs(5))
//!     .priority(Priority::High)
//!     .submit()
//!     .expect("service is open");
//!
//! let forest = handle.wait().expect("well within the deadline");
//! assert_eq!(forest.num_trees(), 1);
//! ```
//!
//! What the service adds over calling an engine directly:
//!
//! - **Admission control.** The queue is bounded: [`JobBuilder::submit`]
//!   blocks when it is full, [`JobBuilder::try_submit`] returns
//!   [`JobError::Backpressure`] so the caller can shed load instead of
//!   piling it up. Per-tenant quotas cap how much of the queue any one
//!   tenant may hold ([`JobError::QuotaExceeded`]), and deadline-aware
//!   admission rejects a job whose deadline the lane's observed queue
//!   delay already cannot meet ([`JobError::DeadlineUnmeetable`]).
//! - **Weighted-fair dispatch.** Priority lanes drain under deficit
//!   round-robin ([`service::DEFAULT_LANE_WEIGHTS`]), so a saturated
//!   high-priority tenant gets proportionally more throughput — never
//!   all of it — and bulk jobs keep a bounded dispatch share.
//! - **One core budget.** Each job leases as many of the
//!   [`ServiceBuilder::cores`] as its graph can use
//!   ([`sizing::preferred_width`]: one rank per [`sizing::GRAIN`]
//!   = 64 Ki vertices + edges, a grain measured on real cores) — from
//!   G(2^16, 1.5n) up a graph gets both cores of a 2-core host, the
//!   small-mixed shapes a single core. A lease waits only while no core
//!   is free, so a small job can wait behind a large one that holds
//!   every core; no more ranks than cores ever run. Only the
//!   dispatcher leases: an update's seed and recompute forests are
//!   ordinary jobs, and its repair runs on the calling thread.
//! - **Versioned reads.** Catalog graphs change by [`EdgeBatch`]
//!   ([`Service::apply`]), each batch a new copy-on-write version. A
//!   job reading a version the catalog has not flattened yet carries
//!   its overlay and flattens it on its own leased team before it runs
//!   ([`GraphCatalog::flatten`]), once per version; submitting never
//!   flattens anything.
//! - **Deadlines and cancellation.** [`JobBuilder::deadline`] arms a
//!   [`CancelToken`](st_smp::CancelToken) the traversal and
//!   graft-and-shortcut kernels poll at their barrier and publication
//!   boundaries; [`JobHandle::cancel`] fires the same token. Either way
//!   the team survives and goes back in the pool.
//! - **Panic isolation.** A job that panics resolves its own handle to
//!   [`JobError::Panicked`] and never takes a team — or another
//!   tenant's job — down with it.
//! - **Observability.** [`Service::snapshot`] exposes the
//!   [`PoolSnapshot`](st_obs::PoolSnapshot) gauges: submissions,
//!   rejections, per-outcome counts, and queue/execution time totals.
//!   The [`telemetry`] plane adds per-lane/per-algorithm latency
//!   histograms, a per-job trace-id event journal, an in-flight table,
//!   and a slow-job log — served over HTTP (`/metrics`, `/healthz`,
//!   `/debug/jobs`, `/debug/journal`) by the same listener as the TCP
//!   job protocol.

#![warn(missing_docs)]

pub mod catalog;
pub mod dynamic;
pub mod job;
pub mod net;
pub mod service;
pub mod sizing;
pub mod spec;
pub mod telemetry;

pub use catalog::{ApplyError, CacheKey, GraphCatalog, GraphId, GraphRef, ResultCache};
pub use dynamic::{UpdateError, UpdateReport};
pub use job::{JobError, JobHandle, Priority};
pub use service::{JobBuilder, Service, ServiceBuilder, Submitted};
pub use spec::{AlgorithmId, GraphSel, JobSpec};
pub use telemetry::{InflightJob, SlowJob, Telemetry};

// Batch-update building blocks, re-exported so tenants can build an
// [`EdgeBatch`] without depending on `st_graph` directly.
pub use st_graph::{BatchError, BatchOutcome, EdgeBatch};
