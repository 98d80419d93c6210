//! Exhaustive (preemption-bounded) model checking of the st-smp
//! concurrency protocols, via the vendored loom stand-in.
//!
//! Run with:
//!
//! ```sh
//! cargo test -p st-smp --features loom --test loom_models
//! ```
//!
//! Every test wraps a small protocol instance in `sync::model`, which
//! replays it under *every* sequentially-consistent schedule with at
//! most `LOOM_MAX_PREEMPTIONS` (default 2) preemptions — including
//! condvar timeouts firing at any legal moment. Assertion failures,
//! deadlocks, and livelocks in *any* schedule fail the test with the
//! reproducing decision prefix.
//!
//! The protocol families of the harness (cross-referenced from the
//! DESIGN.md memory-ordering audit):
//!
//! * [`locks`] — SpinLock/TicketLock mutual exclusion + guard-drop
//!   publication,
//! * [`queue`] — WorkQueue owner/thief no-lost-items and `approx_len`
//!   mirror exactness at quiescence,
//! * [`barriers`] — SenseBarrier sense reversal across episodes
//!   (including a `with_sense` mid-stream join) and the dissemination
//!   barrier's phase separation,
//! * [`detector`] — the termination detector's false-quiescence window,
//!   timeout/notify races, starvation threshold, and sleeps==wakes
//!   pairing,
//! * [`executor`] — the persistent team's job-epoch publish/consume
//!   handshake, panic lifecycle, and detector reuse between jobs,
//! * [`pool`] — the executor pool's core budget (concurrent leases
//!   never exceed it; cores and executors are conserved; a waiting
//!   lease is woken by a return),
//! * [`bottom_up`] — the traversal's visited-bitmap claims (two ranks'
//!   top-down test-then-`fetch_or` on one word; the bottom-up sweep
//!   protocol) and the abort-byte rendezvous of the hybrid switch,
//! * [`dyn_forest`] — the batch-dynamic maintainer's CAS-hook union
//!   (claim-then-store exclusivity) and the replacement scan's
//!   write-once edge election.

#![cfg(feature = "loom")]

mod barriers;
mod bottom_up;
mod detector;
mod dyn_forest;
mod executor;
mod locks;
mod pool;
mod queue;
