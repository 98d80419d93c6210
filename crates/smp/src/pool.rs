//! One budget of `C` cores over a fixed ladder of persistent
//! [`Executor`]s, with lease/return semantics.
//!
//! The multi-tenant job service gives each job as many cores as its
//! graph can use, up to the whole machine. [`ExecutorPool`] owns a
//! *ladder* of persistent executors ([`ladder`]): for every width `w` in
//! `{1, 2, 4, …} ∪ {C}` up to `C`, `⌊C / w⌋` executors of that width
//! (`[2, 1, 1]` on 2 cores). [`ExecutorPool::lease`] takes `w` cores
//! from the budget, where `w` is the widest ladder width that is at most
//! both the request and the free cores, and checks out an idle executor
//! of that width as an RAII [`ExecutorLease`]. Dropping the lease
//! returns the executor and its cores — including when the leasing job
//! panics, which is what keeps one poisoned job from shrinking the pool
//! forever.
//!
//! A lease waits only while no core is free. It never waits for an
//! executor: if `w` cores are free, the leased executors of width `w`
//! hold at most `C − w` cores, so at most `⌊C / w⌋ − 1` of them are out
//! and one is idle. And since every leased executor holds one core per
//! rank, no more than `C` ranks ever run at once.

use std::ops::Deref;

use crate::executor::Executor;
use crate::sync::{Condvar, Mutex};

/// The executor widths of a `cores`-core budget, widest first:
/// `⌊cores / w⌋` executors of each width `w` in `{1, 2, 4, …} ∪ {cores}`
/// up to `cores`.
///
/// ```
/// assert_eq!(st_smp::ladder(2), vec![2, 1, 1]);
/// assert_eq!(st_smp::ladder(3), vec![3, 2, 1, 1, 1]);
/// ```
///
/// # Panics
///
/// Panics if `cores` is zero.
pub fn ladder(cores: usize) -> Vec<usize> {
    assert!(cores > 0, "a core budget needs at least one core");
    let mut widths: Vec<usize> = std::iter::successors(Some(1usize), |&w| w.checked_mul(2))
        .take_while(|&w| w <= cores)
        .chain((!cores.is_power_of_two()).then_some(cores))
        .collect();
    widths.reverse();
    widths
        .into_iter()
        .flat_map(|w| std::iter::repeat_n(w, cores / w))
        .collect()
}

struct PoolState {
    /// Cores not held by a lease.
    free: usize,
    /// Executors not currently leased, tagged with their stable id (the
    /// index into [`ExecutorPool::widths`] each was created from —
    /// observability needs a name that survives the executor's travels
    /// through leases).
    idle: Vec<(usize, Executor)>,
}

/// A budget of cores over a fixed ladder of persistent executors,
/// checked out one lease at a time.
///
/// ```
/// use st_smp::{ladder, ExecutorPool};
///
/// let pool = ExecutorPool::new(ladder(2)); // [2, 1, 1]
/// let lease = pool.lease(2);                // every core
/// assert_eq!(lease.size(), 2);
/// assert_eq!(lease.run(|ctx| ctx.rank()), vec![0, 1]);
/// assert!(pool.try_lease(1).is_none());     // no core is free
/// drop(lease);                              // the cores come back
/// assert_eq!(pool.free_cores(), 2);
/// ```
pub struct ExecutorPool {
    state: Mutex<PoolState>,
    /// Signals lease waiters that cores were returned.
    returned: Condvar,
    /// The ladder, widest first, indexed by executor id.
    widths: Vec<usize>,
}

impl std::fmt::Debug for ExecutorPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorPool")
            .field("widths", &self.widths)
            .field("free_cores", &self.free_cores())
            .finish()
    }
}

impl ExecutorPool {
    /// Builds a pool over the ladder `widths` (any order; see
    /// [`ladder`]), spawning every executor's worker threads up front.
    /// The widest width is the core budget.
    ///
    /// # Panics
    ///
    /// Panics if `widths` is empty, contains a zero, or is not the
    /// ladder of its widest width.
    pub fn new(widths: impl IntoIterator<Item = usize>) -> Self {
        let mut widths: Vec<usize> = widths.into_iter().collect();
        widths.sort_unstable_by(|a, b| b.cmp(a));
        let cores = widths.first().copied().unwrap_or(0);
        assert!(
            cores > 0 && widths.iter().all(|&w| w > 0),
            "pool needs at least one core, got {widths:?}"
        );
        let expected = ladder(cores);
        assert!(
            widths == expected,
            "executor widths {widths:?} are not the ladder of a {cores}-core budget {expected:?}"
        );
        let idle = widths
            .iter()
            .enumerate()
            .map(|(id, &w)| (id, Executor::new(w)))
            .collect();
        Self {
            state: Mutex::new(PoolState { free: cores, idle }),
            returned: Condvar::new(),
            widths,
        }
    }

    /// The ladder's executor widths, widest first, indexed by executor
    /// id; the first is the core budget. Fixed for the pool's lifetime.
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// Cores not held by a lease (snapshot; immediately stale under
    /// concurrency — use for gauges, not decisions).
    pub fn free_cores(&self) -> usize {
        self.state.lock().free
    }

    /// Executors not currently leased (snapshot, like
    /// [`free_cores`](Self::free_cores)).
    pub fn idle_executors(&self) -> usize {
        self.state.lock().idle.len()
    }

    /// Leases the widest executor no wider than `preferred_p` or the
    /// free cores, blocking only while no core is free. A request of 0
    /// counts as 1.
    pub fn lease(&self, preferred_p: usize) -> ExecutorLease<'_> {
        let mut s = self.state.lock();
        loop {
            if let Some(lease) = self.claim(&mut s, preferred_p) {
                return lease;
            }
            self.returned.wait(&mut s);
        }
    }

    /// Non-blocking [`lease`](Self::lease): `None` when no core is free.
    pub fn try_lease(&self, preferred_p: usize) -> Option<ExecutorLease<'_>> {
        self.claim(&mut self.state.lock(), preferred_p)
    }

    fn claim(&self, s: &mut PoolState, preferred_p: usize) -> Option<ExecutorLease<'_>> {
        let limit = preferred_p.max(1).min(s.free);
        // The ladder ends in width 1, so a width fits whenever a core is
        // free.
        let w = self.widths.iter().copied().find(|&w| w <= limit)?;
        let i = s
            .idle
            .iter()
            .position(|(_, e)| e.size() == w)
            .expect("w free cores leave an idle executor of width w");
        let (team_id, exec) = s.idle.swap_remove(i);
        s.free -= w;
        Some(ExecutorLease {
            pool: self,
            team_id,
            exec: Some(exec),
        })
    }

    fn give_back(&self, team_id: usize, exec: Executor) {
        let mut s = self.state.lock();
        s.free += exec.size();
        s.idle.push((team_id, exec));
        drop(s);
        self.returned.notify_all();
    }
}

/// A checked-out executor and the cores it holds; dereferences to the
/// [`Executor`] and returns both to the pool on drop (panic-safe: an
/// unwinding job still runs the drop, so nothing is ever lost).
pub struct ExecutorLease<'a> {
    pool: &'a ExecutorPool,
    team_id: usize,
    exec: Option<Executor>,
}

impl ExecutorLease<'_> {
    /// The leased executor's stable id: its index into
    /// [`ExecutorPool::widths`] (0 = the widest). Ids survive
    /// lease/return cycles, so telemetry can attribute jobs to teams.
    pub fn team_id(&self) -> usize {
        self.team_id
    }
}

impl Deref for ExecutorLease<'_> {
    type Target = Executor;

    fn deref(&self) -> &Executor {
        self.exec.as_ref().expect("lease holds a team until drop")
    }
}

impl std::fmt::Debug for ExecutorLease<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorLease")
            .field("team", &self.team_id)
            .field("p", &self.size())
            .finish()
    }
}

impl Drop for ExecutorLease<'_> {
    fn drop(&mut self) {
        if let Some(exec) = self.exec.take() {
            self.pool.give_back(self.team_id, exec);
        }
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn ladders_by_core_count() {
        assert_eq!(ladder(1), vec![1]);
        assert_eq!(ladder(2), vec![2, 1, 1]);
        assert_eq!(ladder(4), vec![4, 2, 2, 1, 1, 1, 1]);
        assert_eq!(ladder(6), vec![6, 4, 2, 2, 2, 1, 1, 1, 1, 1, 1]);
        // On 2 cores the ladder spawns exactly one worker thread.
        let pool = ExecutorPool::new(ladder(2));
        let l = pool.lease(2);
        assert_eq!(l.worker_threads(), 1);
    }

    #[test]
    #[should_panic(expected = "not the ladder")]
    fn a_list_that_is_not_a_ladder_is_rejected() {
        ExecutorPool::new([4, 2, 1]);
    }

    #[test]
    fn exact_fit_preferred() {
        let pool = ExecutorPool::new(ladder(4));
        let l = pool.lease(2);
        assert_eq!(l.size(), 2);
        let l2 = pool.lease(3); // widest width ≤ min(3, 2 free cores)
        assert_eq!(l2.size(), 2);
        assert_eq!(pool.free_cores(), 0);
        drop(l);
        let l3 = pool.lease(4); // only two cores are free
        assert_eq!(l3.size(), 2);
        drop((l2, l3));
        assert_eq!(pool.lease(0).size(), 1, "a request of 0 counts as 1");
        assert_eq!(pool.lease(usize::MAX).size(), 4);
    }

    #[test]
    fn lease_blocks_until_return() {
        let pool = ExecutorPool::new(ladder(2));
        let lease = pool.lease(2);
        assert!(pool.try_lease(1).is_none());
        let done = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                let l = pool.lease(1); // blocks until the main thread drops
                done.store(1, Ordering::Release);
                drop(l);
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(done.load(Ordering::Acquire), 0, "lease returned early");
            drop(lease);
        });
        assert_eq!(done.load(Ordering::Acquire), 1);
        assert_eq!(pool.free_cores(), 2);
        assert_eq!(pool.idle_executors(), 3);
    }

    #[test]
    fn panicking_job_returns_the_team() {
        let pool = ExecutorPool::new(ladder(2));
        let r = catch_unwind(AssertUnwindSafe(|| {
            let lease = pool.lease(2);
            lease.run(|ctx| {
                if ctx.rank() == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err());
        // The lease's drop ran during unwinding; the executor and its
        // cores are back and still usable (Executor survives panicked
        // jobs).
        assert_eq!((pool.free_cores(), pool.idle_executors()), (2, 3));
        let l = pool.lease(2);
        assert_eq!(l.run(|ctx| ctx.rank()), vec![0, 1]);
    }

    #[test]
    fn concurrent_lessees_share_the_pool() {
        let pool = ExecutorPool::new(ladder(2));
        let total = AtomicUsize::new(0);
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        let lease = pool.lease(2);
                        let p = lease.size();
                        lease.run(|_| {
                            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            total.fetch_add(1, Ordering::Relaxed);
                            running.fetch_sub(1, Ordering::SeqCst);
                        });
                        assert!(p == 1 || p == 2);
                    }
                });
            }
        });
        assert_eq!((pool.free_cores(), pool.idle_executors()), (2, 3));
        assert!(total.load(Ordering::Relaxed) >= 40);
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "more ranks ran than cores"
        );
    }

    #[test]
    fn team_ids_are_stable_across_lease_cycles() {
        let pool = ExecutorPool::new(ladder(4));
        // Ids index widths: 0 = 4-wide, 1..=2 = 2-wide, 3..=6 = 1-wide.
        let a = pool.lease(4);
        assert_eq!((a.team_id(), a.size()), (0, 4));
        drop(a);
        let b = pool.lease(2);
        assert_eq!(pool.widths()[b.team_id()], 2);
        let c = pool.lease(1);
        assert_eq!(pool.widths()[c.team_id()], 1);
        let (b_id, c_id) = (b.team_id(), c.team_id());
        drop(b);
        drop(c);
        // Re-leasing after returns keeps the id/width pairing.
        let d = pool.lease(4);
        assert_eq!((d.team_id(), d.size()), (0, 4));
        drop(d);
        for id in [b_id, c_id] {
            let l = pool.lease(pool.widths()[id]);
            assert_eq!(pool.widths()[l.team_id()], l.size());
        }
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_pool_rejected() {
        ExecutorPool::new([]);
    }
}
