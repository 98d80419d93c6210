#![warn(missing_docs)]

//! # st-smp — SMP runtime substrate
//!
//! The paper implements its algorithms "using POSIX threads and
//! software-based barriers" (Bader–JáJá SIMPLE methodology). This crate is
//! the Rust equivalent of that runtime layer:
//!
//! * [`team`] — a processor team: spawn p workers, give each a rank, and
//!   let them synchronize through a shared barrier, like a SIMPLE
//!   "pardo" region.
//! * [`executor`] — the persistent version of a team: p workers spawned
//!   once and parked between jobs, with the barrier and termination
//!   detector owned by the team and reused across jobs.
//! * [`pool`] — one budget of cores over a ladder of persistent teams
//!   with RAII lease/return, the substrate the multi-tenant job service
//!   sizes each job over.
//! * [`cancel`] — cooperative cancellation tokens (explicit cancel +
//!   deadlines) that algorithms poll at synchronization boundaries.
//! * [`barrier`] — a centralized sense-reversing software barrier.
//! * [`lock`] — test-and-test-and-set spin lock (with a safe guard API)
//!   and a FIFO ticket lock; used by the lock-based Shiloach–Vishkin
//!   grafting variant the paper reports as slow.
//! * [`steal`] — the per-processor work-stealing BFS queue of the new
//!   spanning-tree algorithm (owner operates FIFO at the front, thieves
//!   take a chunk from the back).
//! * [`detect`] — the condition-variable starvation/termination detector
//!   of §2: sleeping processors are counted; all-asleep means the
//!   traversal is done, and crossing a configurable threshold triggers
//!   the fallback algorithm.
//! * [`mem`] — memory-placement hints: transparent-hugepage advice for
//!   the big shared arrays and the software-prefetch primitive.
//! * [`pad`] — cache-line padding to keep per-processor counters off
//!   shared lines.
//! * [`atomics`] — a shared atomic `u32` array used for parent slots and
//!   labels, and a one-bit-per-vertex atomic bitmap used as the
//!   traversal's visited set.
//! * [`sync`] — the synchronization abstraction layer every module above
//!   imports its atomics/mutexes/condvars/spins through; with the `loom`
//!   feature it swaps in the vendored loom model checker so
//!   `tests/loom_models` can exhaustively verify the protocols.
//!
//! Everything here is algorithm-agnostic; the spanning-tree logic lives
//! in `st-core`.

pub mod atomics;
pub mod barrier;
pub mod cancel;
pub mod detect;
pub mod dissemination;
pub mod executor;
pub mod lock;
pub mod mem;
pub mod pad;
pub mod pool;
pub mod steal;
pub mod sync;
pub mod team;

pub use atomics::{AtomicBitmap, AtomicU32Array};
pub use barrier::{BarrierToken, SenseBarrier};
pub use cancel::CancelToken;
pub use detect::{DetectorStats, IdleOutcome, TerminationDetector};
pub use dissemination::{DisseminationBarrier, DisseminationToken};
pub use executor::Executor;
pub use lock::{SpinLock, TicketLock};
pub use pad::{CacheAligned, CachePadded};
pub use pool::{ladder, ExecutorLease, ExecutorPool};
pub use steal::{StealPolicy, WorkQueue};
pub use team::{run_team, TeamCtx};
