//! Job-side types: submission priorities, terminal errors, and the
//! [`JobHandle`] a tenant polls, waits on, or cancels.

use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};

use st_core::SpanningForest;
use st_obs::{JobOutcomeKind, RejectReason, TraceId};
use st_smp::CancelToken;

/// Admission-queue priority class. Within a class, jobs run in
/// submission order; across classes, every queued `High` job is
/// dispatched before any `Normal`, and `Normal` before `Low`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Dispatched first.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Dispatched only when no higher class is waiting.
    Low,
}

impl Priority {
    /// Lane index (0 = highest) into the admission queue.
    pub(crate) fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Number of priority lanes.
    pub(crate) const LANES: usize = 3;
}

/// Why a job did not produce a forest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// `try_submit` found the admission queue full.
    Backpressure,
    /// The job's [`CancelToken`] fired (explicitly) before or during
    /// execution.
    Cancelled,
    /// The job's deadline passed before it finished.
    DeadlineExceeded,
    /// The algorithm panicked; the payload's message is preserved. The
    /// pool isolated the panic — other tenants were unaffected.
    Panicked(String),
    /// The service was shut down before the job ran.
    ShuttingDown,
    /// A catalog-addressed submission named a
    /// [`GraphId`](crate::GraphId) that is not (or no longer)
    /// registered.
    UnknownGraph,
    /// The submitting tenant already holds its full quota of queued
    /// jobs; this submission was rejected at admission.
    QuotaExceeded,
    /// The job's deadline was shorter than the expected queue delay of
    /// its priority lane, so it was rejected at admission rather than
    /// queued to miss.
    DeadlineUnmeetable,
    /// The submission pinned an exact graph version
    /// ([`GraphSel::Pinned`](crate::GraphSel)) that is no longer the
    /// live one and whose result is no longer cached; the payload is
    /// the version the catalog holds now.
    StaleVersion(u32),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Backpressure => f.write_str("admission queue full"),
            JobError::Cancelled => f.write_str("job cancelled"),
            JobError::DeadlineExceeded => f.write_str("job deadline exceeded"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::ShuttingDown => f.write_str("service shutting down"),
            JobError::UnknownGraph => f.write_str("graph not in catalog"),
            JobError::QuotaExceeded => f.write_str("tenant queued-job quota exceeded"),
            JobError::DeadlineUnmeetable => {
                f.write_str("deadline shorter than the expected queue delay")
            }
            JobError::StaleVersion(current) => {
                write!(
                    f,
                    "pinned graph version is stale (catalog is at v{current})"
                )
            }
        }
    }
}

impl std::error::Error for JobError {}

impl JobError {
    /// The `outcome` this terminal error is counted under.
    /// `Backpressure` never reaches a gauge through this path
    /// (rejections are counted at admission) and `ShuttingDown` is
    /// folded into the cancelled outcome.
    pub(crate) fn outcome_kind(&self) -> JobOutcomeKind {
        match self {
            JobError::Cancelled
            | JobError::ShuttingDown
            | JobError::Backpressure
            | JobError::UnknownGraph
            | JobError::QuotaExceeded
            | JobError::DeadlineUnmeetable
            | JobError::StaleVersion(_) => JobOutcomeKind::Cancelled,
            JobError::DeadlineExceeded => JobOutcomeKind::DeadlineExceeded,
            JobError::Panicked(_) => JobOutcomeKind::Panicked,
        }
    }

    /// The `reason` an admission rejection with this error is counted
    /// under; every refusal that is neither a quota nor an unmeetable
    /// deadline counts as backpressure.
    pub(crate) fn reject_reason(&self) -> RejectReason {
        match self {
            JobError::QuotaExceeded => RejectReason::Quota,
            JobError::DeadlineUnmeetable => RejectReason::DeadlineUnmeetable,
            _ => RejectReason::Backpressure,
        }
    }

    /// The stable lowercase name the journal's `finished` event carries
    /// for a job that ended with this error. Errors that are job
    /// outcomes use their `outcome` label value.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            JobError::Cancelled | JobError::DeadlineExceeded | JobError::Panicked(_) => {
                self.outcome_kind().name()
            }
            JobError::Backpressure => "backpressure",
            JobError::ShuttingDown => "shutting_down",
            JobError::UnknownGraph => "unknown_graph",
            JobError::QuotaExceeded => "quota_exceeded",
            JobError::DeadlineUnmeetable => "deadline_unmeetable",
            JobError::StaleVersion(_) => "stale_version",
        }
    }

    /// Classifies a fired token: an expired deadline wins over an
    /// explicit cancel (the tenant that set both cares about the
    /// deadline diagnosis).
    pub(crate) fn from_token(token: &CancelToken) -> Self {
        if token.deadline_expired() {
            JobError::DeadlineExceeded
        } else {
            JobError::Cancelled
        }
    }
}

/// Service-side hook a [`JobHandle::cancel`] fires so the admission
/// queue can release the job's bounded lane slot *eagerly* instead of
/// letting the dead job occupy it until a dispatcher happens to drain
/// it (which let a submit-then-cancel tenant starve honest tenants
/// into `Backpressure`).
pub(crate) trait CancelObserver: Send + Sync {
    /// A handle cancelled the job with this trace id; if it is still
    /// queued, sweep it out and resolve it now.
    fn on_handle_cancel(&self, trace: TraceId);
}

/// A job as every accounting hook sees it: its shared state (token,
/// trace id, result slot), its admission lane, and its algorithm's
/// histogram index.
pub(crate) struct JobTag {
    pub(crate) state: Arc<JobState>,
    pub(crate) lane: usize,
    pub(crate) algo: usize,
}

/// The result slot a job resolves into, guarded by [`JobState::slot`].
enum Slot {
    /// Not finished yet.
    Pending,
    /// Finished; result not yet claimed. Boxed to keep the idle variants
    /// (and every handle's mutex) small.
    Done(Box<Result<SpanningForest, JobError>>),
    /// Result moved out through `wait`/`try_wait`.
    Taken,
}

/// Shared state between a [`JobHandle`] and the dispatcher running (or
/// about to run) the job.
pub(crate) struct JobState {
    slot: Mutex<Slot>,
    done: Condvar,
    /// The job's cancellation token: fired by [`JobHandle::cancel`] or
    /// its deadline, polled by the algorithm at barrier/publication
    /// boundaries and by the dispatcher before leasing a team.
    pub(crate) token: CancelToken,
    /// The job's trace id, minted at submission; joins the handle to
    /// the event journal and the Prometheus plane.
    pub(crate) trace: TraceId,
    /// Set once the job is queued: lets [`JobHandle::cancel`] tell the
    /// service to release the lane slot eagerly. Weak so a handle that
    /// outlives the service does not keep the whole pool alive.
    observer: OnceLock<Weak<dyn CancelObserver>>,
}

impl JobState {
    pub(crate) fn new(token: CancelToken, trace: TraceId) -> Arc<Self> {
        Arc::new(Self {
            slot: Mutex::new(Slot::Pending),
            done: Condvar::new(),
            token,
            trace,
            observer: OnceLock::new(),
        })
    }

    /// Registers the service hook cancel should notify. Called at
    /// enqueue (jobs that resolve at the door never need it).
    pub(crate) fn set_cancel_observer(&self, observer: Weak<dyn CancelObserver>) {
        let _ = self.observer.set(observer);
    }

    /// Resolves the job and wakes every waiter. Called exactly once.
    pub(crate) fn finish(&self, result: Result<SpanningForest, JobError>) {
        let mut slot = self.slot.lock().unwrap();
        debug_assert!(
            matches!(*slot, Slot::Pending),
            "a job resolves exactly once"
        );
        *slot = Slot::Done(Box::new(result));
        drop(slot);
        self.done.notify_all();
    }
}

/// A tenant's handle to one submitted job.
///
/// The handle is the only way to observe the job: [`wait`](Self::wait)
/// blocks for the result, [`try_wait`](Self::try_wait) polls for it,
/// and [`cancel`](Self::cancel) asks the service to stop it — queued
/// jobs are dropped without running, running jobs observe the token at
/// their next barrier/publication boundary.
pub struct JobHandle {
    state: Arc<JobState>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl JobHandle {
    pub(crate) fn new(state: Arc<JobState>) -> Self {
        Self { state }
    }

    /// Requests cancellation. Idempotent; safe at any point in the job's
    /// life. The job resolves to [`JobError::Cancelled`] unless it
    /// completed (or its deadline fired) first.
    ///
    /// A job still waiting in the admission queue is swept out
    /// immediately — its bounded lane slot is released to other
    /// tenants right away rather than when a dispatcher eventually
    /// drains the dead entry.
    pub fn cancel(&self) {
        // Trip the token first so a job mid-execution observes the
        // cancel even if the queue sweep finds nothing to do.
        self.state.token.cancel();
        if let Some(obs) = self.state.observer.get().and_then(Weak::upgrade) {
            obs.on_handle_cancel(self.state.trace);
        }
    }

    /// A clone of the job's cancellation token (e.g. to hand a watchdog
    /// that outlives the handle).
    pub fn cancel_token(&self) -> CancelToken {
        self.state.token.clone()
    }

    /// The job's trace id — the key under which the service's event
    /// journal (`/debug/journal`) and slow-job log record this job.
    pub fn trace_id(&self) -> u64 {
        self.state.trace.as_u64()
    }

    /// True once the job resolved (result, error, or cancellation).
    pub fn is_finished(&self) -> bool {
        !matches!(*self.state.slot.lock().unwrap(), Slot::Pending)
    }

    /// Blocks until the job resolves and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if the result was already claimed by
    /// [`try_wait`](Self::try_wait).
    pub fn wait(self) -> Result<SpanningForest, JobError> {
        let mut slot = self.state.slot.lock().unwrap();
        loop {
            match std::mem::replace(&mut *slot, Slot::Taken) {
                Slot::Done(result) => return *result,
                Slot::Taken => panic!("job result already claimed via try_wait"),
                Slot::Pending => {
                    *slot = Slot::Pending;
                    slot = self.state.done.wait(slot).unwrap();
                }
            }
        }
    }

    /// Claims the result if the job already resolved; `None` while it is
    /// still queued or running. After `Some`, the result is consumed —
    /// a later [`wait`](Self::wait) panics.
    pub fn try_wait(&mut self) -> Option<Result<SpanningForest, JobError>> {
        let mut slot = self.state.slot.lock().unwrap();
        match std::mem::replace(&mut *slot, Slot::Taken) {
            Slot::Done(result) => Some(*result),
            Slot::Taken => panic!("job result already claimed via try_wait"),
            Slot::Pending => {
                *slot = Slot::Pending;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_lanes_are_ordered() {
        assert!(Priority::High.lane() < Priority::Normal.lane());
        assert!(Priority::Normal.lane() < Priority::Low.lane());
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn token_classification() {
        let t = CancelToken::new();
        t.cancel();
        assert_eq!(JobError::from_token(&t), JobError::Cancelled);
        let d = CancelToken::with_deadline(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        );
        assert_eq!(JobError::from_token(&d), JobError::DeadlineExceeded);
    }

    #[test]
    fn handle_lifecycle() {
        let state = JobState::new(CancelToken::new(), TraceId::mint());
        let mut handle = JobHandle::new(Arc::clone(&state));
        assert_eq!(handle.trace_id(), state.trace.as_u64());
        assert_ne!(handle.trace_id(), 0, "minted ids start at 1");
        assert!(!handle.is_finished());
        assert!(handle.try_wait().is_none());
        state.finish(Err(JobError::Cancelled));
        assert!(handle.is_finished());
        assert!(matches!(handle.try_wait(), Some(Err(JobError::Cancelled))));
    }

    #[test]
    #[should_panic(expected = "already claimed")]
    fn double_claim_panics() {
        let state = JobState::new(CancelToken::new(), TraceId::mint());
        let mut handle = JobHandle::new(Arc::clone(&state));
        state.finish(Err(JobError::Cancelled));
        let _ = handle.try_wait();
        let _ = handle.try_wait();
    }

    #[test]
    fn wait_blocks_until_finish() {
        let state = JobState::new(CancelToken::new(), TraceId::mint());
        let handle = JobHandle::new(Arc::clone(&state));
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                state.finish(Err(JobError::ShuttingDown));
            });
            assert!(matches!(handle.wait(), Err(JobError::ShuttingDown)));
        });
    }
}
