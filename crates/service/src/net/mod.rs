//! TCP front-end: the service as an operable network server.
//!
//! Everything the in-process API offers — admission control,
//! priorities, deadlines, cancellation, panic isolation, the graph
//! catalog and its result cache — exposed over a deliberately small
//! wire protocol so remote tenants get the *same* semantics:
//!
//! * a remote `SUBMIT` goes through
//!   [`Service::try_submit_spec`](crate::Service::try_submit_spec), so
//!   a full admission queue surfaces as [`Status::Backpressure`] on the
//!   client rather than unbounded buffering in the server — and the
//!   admission-path rejections keep their diagnosis on the wire: a
//!   tenant over its queued-job quota sees [`Status::QuotaExceeded`],
//!   a deadline the lane's queue-delay estimate cannot meet sees
//!   [`Status::DeadlineUnmeetable`];
//! * deadlines and `CANCEL` drive the job's
//!   [`CancelToken`](st_smp::CancelToken) exactly as local handles do;
//! * `METRICS` renders the full observability page — the same one HTTP
//!   `/metrics` serves ([`Service::render_metrics`](crate::Service::render_metrics)):
//!   every counter, gauge, and latency histogram, in Prometheus text
//!   format.
//!
//! # Wire format
//!
//! Both directions speak length-prefixed binary frames: a `u32`
//! little-endian payload length, then the payload. Requests start with
//! a one-byte opcode ([`ops`]); responses start with a one-byte status
//! ([`Status`]), then a status-specific payload. All integers are
//! little-endian. One connection is one session: requests are processed
//! strictly in order by a dedicated server thread, and tickets returned
//! by `SUBMIT` are scoped to their connection.
//!
//! | op | request payload | OK response payload |
//! |---|---|---|
//! | `PING` | anything | the same bytes echoed |
//! | `REGISTER` | an [`st_graph::io`] binary graph | graph id `u64`, version `u32` |
//! | `SUBMIT` | id `u64`, algo `u8`, prio `u8`, seed `u64`, deadline-ms `u64` (0 = none), width `u32` (0 = auto), tenant `u64` (optional, 0 = anonymous), pin `u8` (optional, 0 = latest) + pinned version `u32` (only when pin = 1) | ticket `u32`, cached `u8`, trace `u64` |
//! | `WAIT` | ticket `u32` | n `u64`, parents `n×u32`, r `u64`, roots `r×u32` |
//! | `CANCEL` | ticket `u32` | empty |
//! | `METRICS` | empty | UTF-8 Prometheus text page |
//! | `UPDATE` | id `u64`, n-inserts `u32`, n-deletes `u32`, insert pairs `2×u32` each, delete pairs `2×u32` each | new version `u32`, incremental `u8`, components `u64`, edges added `u64`, edges removed `u64` |
//!
//! A `SUBMIT` pinned to a superseded version that no cached result can
//! serve answers [`Status::StaleVersion`] with the live version as a
//! `u32` payload. `UPDATE` applies the batch to the catalog graph,
//! bumps its version, and keeps its spanning forest current on the
//! server — incrementally when the batch touches little of the graph,
//! by full recompute otherwise (the `incremental` reply byte says which
//! ran).
//!
//! `WAIT` blocks the connection's thread until the job resolves — with
//! one request in flight per connection there is nothing else the
//! session could do meanwhile. `CANCEL` before `WAIT` is the supported
//! way to stop a job remotely; a deadline attached at `SUBMIT` needs no
//! further round trips at all.
//!
//! The `trace` returned by `SUBMIT` is the server-minted trace id: it
//! stamps every journal event and metrics report the job produces, and
//! keys the HTTP plane's `/debug/journal?trace=<hex>` filter.
//!
//! # HTTP observability plane
//!
//! The same listener also answers plain HTTP/1.1 `GET`s (the first
//! bytes of a connection distinguish the protocols — see
//! [`http`](self) module docs): `/metrics`, `/healthz`, `/debug/jobs`,
//! and `/debug/journal`, so `curl` and a Prometheus scraper need no
//! extra port.

pub mod client;
mod http;
pub mod proto;
pub mod server;

pub use client::{
    Client, RemoteForest, RemoteGraph, RemoteUpdate, SubmitReply, SubmitRequest, WireError,
};
pub use proto::{ops, Status, DEFAULT_MAX_FRAME_BYTES};
pub use server::{Server, ServerConfig};
