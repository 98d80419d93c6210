#![warn(missing_docs)]

//! # st-obs — observability for the spanning-tree engine
//!
//! The paper's performance claims are arguments about *where time
//! goes*: steal traffic versus local work, barrier waits, detector
//! sleeps, stub-walk length. This crate turns every engine job into a
//! structured report of exactly those quantities:
//!
//! * [`counters`] — always-on, cache-padded per-rank [`CounterSlot`]s
//!   (Relaxed increments on rank-private lines), merged into a
//!   [`CounterSnapshot`] at job completion.
//! * [`trace`] — per-rank phase timing: always-on coarse per-phase
//!   totals (count + wall ns, in every build), plus feature-gated
//!   (`obs-trace`) span ring buffers recording individual phase
//!   intervals against a process-monotonic clock.
//! * [`metrics`] — [`JobMetrics`], the per-job report every
//!   `Engine`/`Executor` job returns: wall time, merged and per-rank
//!   counters, and recorded spans.
//! * [`chrome`] — a Chrome trace-event (Perfetto-loadable) JSON writer
//!   for those spans.
//! * [`pool`] — the multi-tenant job service's metrics, declared once
//!   in one table (admission/outcome counters, per-lane queue depth,
//!   team busyness, result-cache hit rates, latency histograms) from
//!   which the storage, the snapshot, and the page are derived.
//! * [`hist`] — lock-free log-linear latency [`Histogram`]s with
//!   cache-padded sharding, exact-bucket quantiles, and cumulative
//!   ladders for Prometheus `_bucket` rendering.
//! * [`journal`] — per-job [`TraceId`]s and the bounded structured
//!   [`EventJournal`] of lifecycle events (JSONL ring buffer).
//! * [`prometheus`] — text-exposition rendering of that table for
//!   scrape endpoints, and [`lint_exposition`], an offline grammar
//!   checker for the rendered page.
//!
//! The layer is algorithm-agnostic: `st-core` owns *when* to count
//! (claim races, publications, grafts); this crate owns the storage,
//! merging, and export.

pub mod chrome;
pub mod counters;
pub mod hist;
pub mod journal;
pub mod metrics;
pub mod pool;
pub mod prometheus;
pub mod trace;

pub use chrome::write_chrome_trace;
pub use counters::{Counter, CounterSet, CounterSlot, CounterSnapshot, NUM_COUNTERS};
pub use hist::{Histogram, HistogramSnapshot, ShardedHistogram};
pub use journal::{EventJournal, JobEvent, JobEventKind, TraceId};
pub use metrics::{JobMetrics, PhaseTotal};
pub use pool::{Hist, JobOutcomeKind, PoolGauges, PoolSnapshot, RejectReason, QUEUE_LANES};
pub use prometheus::{lint_exposition, render_service_prometheus, PROMETHEUS_CONTENT_TYPE};
pub use trace::{now_ns, Phase, SpanEvent, SpanRing, TraceSet, DEFAULT_SPAN_CAPACITY, NUM_PHASES};
