//! Per-processor work-stealing queues.
//!
//! Phase 2 of the new algorithm gives each processor a BFS queue; "
//! whenever any processor finishes with its own work …, it randomly
//! checks other processors' queues. If it finds a non-empty queue, the
//! processor steals part of the queue" (§2). The owner consumes FIFO from
//! the front (preserving breadth-first order); thieves detach a chunk
//! from the back, where the most recently discovered — and therefore
//! most expansion-rich — vertices sit.
//!
//! The queue is a short-critical-section locked deque rather than a
//! lock-free Chase–Lev deque: the protocol steals *batches*, the lock is
//! held for O(batch) pointer moves, and the paper's own protocol is a
//! "lightweight work stealing protocol" rather than a lock-free one.

use std::collections::VecDeque;

use crate::lock::SpinLock;
use crate::sync::atomic::{AtomicUsize, Ordering};

/// How much a thief takes from a victim queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StealPolicy {
    /// Take ⌈len/2⌉ elements (the default; matches "steals part of the
    /// queue" with the standard steal-half heuristic).
    Half,
    /// Take a single element (ablation baseline).
    One,
    /// Take at most this many elements.
    Chunk(usize),
}

impl StealPolicy {
    fn amount(self, available: usize) -> usize {
        match self {
            StealPolicy::Half => available.div_ceil(2),
            StealPolicy::One => 1.min(available),
            StealPolicy::Chunk(c) => c.min(available),
        }
    }
}

/// A work queue owned by one processor and stealable by the rest.
///
/// ```
/// use st_smp::{StealPolicy, WorkQueue};
/// use std::collections::VecDeque;
///
/// let q = WorkQueue::new();
/// q.push_all(1..=4);
/// assert_eq!(q.pop(), Some(1));            // owner: FIFO front
/// let mut stolen = VecDeque::new();
/// q.steal_into(&mut stolen, StealPolicy::Half); // thief: back half
/// assert_eq!(stolen, VecDeque::from(vec![3, 4]));
/// ```
#[derive(Debug)]
pub struct WorkQueue<T> {
    deque: SpinLock<VecDeque<T>>,
    /// Approximate length, maintained outside the lock so idle processors
    /// can scan for victims without bouncing lock lines.
    approx_len: AtomicUsize,
}

impl<T> Default for WorkQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> WorkQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            deque: SpinLock::new(VecDeque::new()),
            approx_len: AtomicUsize::new(0),
        }
    }

    /// An empty queue with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            deque: SpinLock::new(VecDeque::with_capacity(cap)),
            approx_len: AtomicUsize::new(0),
        }
    }

    /// Enqueues at the back (owner side).
    pub fn push(&self, item: T) {
        let mut q = self.deque.lock();
        q.push_back(item);
        self.approx_len.store(q.len(), Ordering::Release);
    }

    /// Enqueues many items at the back.
    pub fn push_all<I: IntoIterator<Item = T>>(&self, items: I) {
        let mut q = self.deque.lock();
        q.extend(items);
        self.approx_len.store(q.len(), Ordering::Release);
    }

    /// Dequeues from the front (owner side, FIFO — preserves BFS order).
    pub fn pop(&self) -> Option<T> {
        let mut q = self.deque.lock();
        let item = q.pop_front();
        self.approx_len.store(q.len(), Ordering::Release);
        item
    }

    /// Dequeues up to `k` items from the front into `out` under a single
    /// lock acquisition; returns how many moved. Batching amortizes the
    /// queue lock when the owner's per-vertex work is tiny (the
    /// traversal's refill from its own published surplus); items moved
    /// out are no longer stealable, exactly like a single dequeued
    /// vertex.
    pub fn pop_chunk(&self, out: &mut VecDeque<T>, k: usize) -> usize {
        if k == 0 {
            return 0;
        }
        let mut q = self.deque.lock();
        let take = k.min(q.len());
        if take == 0 {
            return 0;
        }
        // Drain in place: the ring buffer's head advances, so the cost
        // is O(take) regardless of queue length. (A `split_off(take)`
        // here allocates a fresh buffer and copies the *remainder* —
        // O(len) per call, quadratic over a drain, and a page-fault
        // storm once the queue holds millions of entries.)
        out.extend(q.drain(..take));
        self.approx_len.store(q.len(), Ordering::Release);
        take
    }

    /// Steals according to `policy` from the back of this queue into
    /// `out` (preserving their relative order); returns how many items
    /// moved.
    pub fn steal_into(&self, out: &mut VecDeque<T>, policy: StealPolicy) -> usize {
        let mut q = self.deque.lock();
        let take = policy.amount(q.len());
        if take == 0 {
            return 0;
        }
        // Drain the tail in place rather than `split_off`: same O(take)
        // element moves while the lock is held, without allocating a
        // transfer buffer per steal.
        let split_at = q.len() - take;
        out.extend(q.drain(split_at..));
        self.approx_len.store(q.len(), Ordering::Release);
        take
    }

    /// Approximate number of queued items (no locking; may lag).
    pub fn approx_len(&self) -> usize {
        self.approx_len.load(Ordering::Acquire)
    }

    /// True when the queue *appears* empty (no locking; may lag).
    pub fn appears_empty(&self) -> bool {
        self.approx_len() == 0
    }

    /// Exact length (takes the lock).
    pub fn len(&self) -> usize {
        self.deque.lock().len()
    }

    /// True when the queue is empty.
    ///
    /// Lock-free: reads the `approx_len` mirror, which every mutating
    /// operation updates *before* releasing the queue lock, so the answer
    /// is exact whenever no operation is concurrently in flight. Under
    /// concurrency it may lag by one in-flight operation — callers that
    /// need an exact answer mid-flight must use [`len`](Self::len). The
    /// traversal engine only consults this at quiescent points (between
    /// round barriers) and in idle sweeps that tolerate staleness by
    /// retrying.
    pub fn is_empty(&self) -> bool {
        self.appears_empty()
    }

    /// Forces the `approx_len` mirror out of sync with the real deque,
    /// simulating the in-flight window where another processor has
    /// mutated the deque but not yet published the mirror. Test-only
    /// hook for the stale-emptiness regression tests; never called by
    /// the engine.
    #[doc(hidden)]
    pub fn desync_mirror_for_test(&self, fake_len: usize) {
        self.approx_len.store(fake_len, Ordering::Release);
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_for_owner() {
        let q = WorkQueue::new();
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn steal_half_takes_back_half() {
        let q = WorkQueue::new();
        q.push_all(1..=5);
        let mut out = VecDeque::new();
        let got = q.steal_into(&mut out, StealPolicy::Half);
        assert_eq!(got, 3); // ceil(5/2)
        assert_eq!(out, VecDeque::from(vec![3, 4, 5]));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn steal_one_and_chunk() {
        let q = WorkQueue::new();
        q.push_all(1..=4);
        let mut out = VecDeque::new();
        assert_eq!(q.steal_into(&mut out, StealPolicy::One), 1);
        assert_eq!(out.back(), Some(&4));
        assert_eq!(q.steal_into(&mut out, StealPolicy::Chunk(2)), 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn steal_from_empty_is_zero() {
        let q: WorkQueue<u32> = WorkQueue::new();
        let mut out = VecDeque::new();
        assert_eq!(q.steal_into(&mut out, StealPolicy::Half), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn approx_len_tracks_operations() {
        let q = WorkQueue::with_capacity(8);
        assert!(q.appears_empty());
        q.push(1);
        q.push(2);
        assert_eq!(q.approx_len(), 2);
        q.pop();
        assert_eq!(q.approx_len(), 1);
    }

    #[test]
    fn concurrent_producers_and_thieves_lose_nothing() {
        use std::sync::atomic::AtomicUsize;
        const ITEMS: usize = 20_000;
        const THIEVES: usize = 3;
        let q = WorkQueue::new();
        let consumed = AtomicUsize::new(0);
        let sum = AtomicUsize::new(0);
        crossbeam::thread::scope(|s| {
            // Owner: produce everything, then drain its own queue.
            s.spawn(|_| {
                for i in 1..=ITEMS {
                    q.push(i);
                }
                while let Some(v) = q.pop() {
                    sum.fetch_add(v, Ordering::Relaxed);
                    consumed.fetch_add(1, Ordering::Relaxed);
                }
            });
            for _ in 0..THIEVES {
                s.spawn(|_| {
                    let mut out = VecDeque::new();
                    // Keep stealing until the owner has visibly finished
                    // producing and the queue stays empty a few rounds.
                    let mut dry = 0;
                    while dry < 100 {
                        if q.steal_into(&mut out, StealPolicy::Half) == 0 {
                            dry += 1;
                            std::thread::yield_now();
                        } else {
                            dry = 0;
                        }
                        while let Some(v) = out.pop_front() {
                            sum.fetch_add(v, Ordering::Relaxed);
                            consumed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        })
        .unwrap();
        // Everything produced was consumed exactly once.
        assert_eq!(consumed.load(Ordering::Relaxed), ITEMS);
        assert_eq!(sum.load(Ordering::Relaxed), ITEMS * (ITEMS + 1) / 2);
    }

    #[test]
    fn pop_chunk_takes_from_the_front() {
        let q = WorkQueue::new();
        q.push_all(1..=6);
        let mut out = VecDeque::new();
        assert_eq!(q.pop_chunk(&mut out, 4), 4);
        assert_eq!(out, VecDeque::from(vec![1, 2, 3, 4]));
        assert_eq!(q.len(), 2);
        assert_eq!(q.approx_len(), 2);
        // Draining the remainder.
        assert_eq!(q.pop_chunk(&mut out, 10), 2);
        assert_eq!(out.len(), 6);
        assert_eq!(q.pop_chunk(&mut out, 3), 0);
        assert_eq!(q.pop_chunk(&mut out, 0), 0);
    }

    #[test]
    fn pop_chunk_and_steal_split_the_queue() {
        let q = WorkQueue::new();
        q.push_all(0..10);
        let mut owner = VecDeque::new();
        let mut thief = VecDeque::new();
        q.pop_chunk(&mut owner, 3); // front: 0,1,2
        q.steal_into(&mut thief, StealPolicy::Half); // back half of the rest
        assert_eq!(owner, VecDeque::from(vec![0, 1, 2]));
        assert_eq!(thief, VecDeque::from(vec![6, 7, 8, 9]));
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn steal_preserves_relative_order() {
        let q = WorkQueue::new();
        q.push_all(0..10);
        let mut out = VecDeque::new();
        q.steal_into(&mut out, StealPolicy::Chunk(4));
        assert_eq!(out, VecDeque::from(vec![6, 7, 8, 9]));
    }
}
