//! Always-on per-rank event counters.
//!
//! Each worker rank owns one cache-line-padded [`CounterSlot`]: a fixed
//! array of `AtomicU64`, indexed by [`Counter`]. Increments are Relaxed
//! stores to a line no other rank writes, so the always-on cost is a
//! single uncontended RMW — the same discipline the traversal already
//! used for its ad-hoc steal counters, generalized to every quantity
//! the Helman–JáJá accounting argues about (steal traffic, publication
//! balance, barrier waits, detector activity, SV grafting, stub walks).
//!
//! At job completion the slots are merged into an immutable
//! [`CounterSnapshot`] and handed back inside a `JobMetrics`.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use serde::{Serialize, Value};
use st_smp::pad::CachePadded;

/// Everything the engine counts, one variant per slot lane.
///
/// The discriminant is the lane index; [`Counter::ALL`] lists every
/// variant in lane order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Vertices popped from the private frontier and scanned.
    Processed,
    /// Vertices this rank colored first (won the claim race).
    Discovered,
    /// Claim races lost: the neighbor was colored under us.
    MultiColored,
    /// Steal sweeps that brought back at least one item.
    Steals,
    /// Steal sweeps attempted (successful or not).
    StealAttempts,
    /// Steal sweeps that probed every queue and found nothing.
    FailedSweeps,
    /// Items obtained by stealing from other ranks' queues.
    StolenItems,
    /// Items made visible to thieves (seeded or pushed to the shared
    /// queue).
    ItemsPublished,
    /// Items processed straight from the private buffer without ever
    /// being published.
    ItemsKeptLocal,
    /// Barrier episodes this rank participated in.
    Barriers,
    /// Cumulative nanoseconds this rank spent waiting at barriers.
    BarrierWaitNs,
    /// Times this rank registered as sleeping in the termination
    /// detector.
    DetectorSleeps,
    /// Times this rank was woken (or timed out) inside the detector.
    DetectorWakes,
    /// Times this rank observed the starvation threshold trip.
    StarvationTrips,
    /// Successful grafts (SV/HCS hook edges won).
    Grafts,
    /// Graft-and-shortcut iterations executed, including the final
    /// no-graft iteration that detects convergence (recorded by rank 0
    /// once per iteration; the labeling-sensitivity experiment
    /// CLAIM-SVLABEL counts these).
    GraftIterations,
    /// Pointer-jumping shortcut rounds executed (rank 0, once per
    /// round).
    ShortcutRounds,
    /// Vertices appended to a stub spanning tree walk.
    StubVertices,
    /// Stub walks performed.
    StubWalks,
    /// Top-down traversal segments executed (recorded by rank 0 once
    /// per segment, so the value is segments, not segments × p).
    RoundsTopDown,
    /// Bottom-up sweeps executed (rank 0, once per sweep).
    RoundsBottomUp,
    /// Largest estimated live frontier observed by the direction
    /// heuristic, summed across rounds (hybrid traversals only; a
    /// single-component job reports its true peak).
    FrontierPeak,
}

/// Number of counter lanes.
pub const NUM_COUNTERS: usize = 22;

impl Counter {
    /// Every counter, in lane order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::Processed,
        Counter::Discovered,
        Counter::MultiColored,
        Counter::Steals,
        Counter::StealAttempts,
        Counter::FailedSweeps,
        Counter::StolenItems,
        Counter::ItemsPublished,
        Counter::ItemsKeptLocal,
        Counter::Barriers,
        Counter::BarrierWaitNs,
        Counter::DetectorSleeps,
        Counter::DetectorWakes,
        Counter::StarvationTrips,
        Counter::Grafts,
        Counter::GraftIterations,
        Counter::ShortcutRounds,
        Counter::StubVertices,
        Counter::StubWalks,
        Counter::RoundsTopDown,
        Counter::RoundsBottomUp,
        Counter::FrontierPeak,
    ];

    /// Stable snake_case name used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Processed => "processed",
            Counter::Discovered => "discovered",
            Counter::MultiColored => "multi_colored",
            Counter::Steals => "steals",
            Counter::StealAttempts => "steal_attempts",
            Counter::FailedSweeps => "failed_sweeps",
            Counter::StolenItems => "stolen_items",
            Counter::ItemsPublished => "items_published",
            Counter::ItemsKeptLocal => "items_kept_local",
            Counter::Barriers => "barriers",
            Counter::BarrierWaitNs => "barrier_wait_ns",
            Counter::DetectorSleeps => "detector_sleeps",
            Counter::DetectorWakes => "detector_wakes",
            Counter::StarvationTrips => "starvation_trips",
            Counter::Grafts => "grafts",
            Counter::GraftIterations => "graft_iterations",
            Counter::ShortcutRounds => "shortcut_rounds",
            Counter::StubVertices => "stub_vertices",
            Counter::StubWalks => "stub_walks",
            Counter::RoundsTopDown => "rounds_top_down",
            Counter::RoundsBottomUp => "rounds_bottom_up",
            Counter::FrontierPeak => "frontier_peak",
        }
    }
}

/// One rank's counter lanes. Lives behind a [`CachePadded`] wrapper in
/// [`CounterSet`] so neighboring ranks never share a line.
#[derive(Debug)]
pub struct CounterSlot {
    vals: [AtomicU64; NUM_COUNTERS],
}

impl CounterSlot {
    /// A slot with every lane zero.
    pub fn new() -> Self {
        Self {
            vals: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Adds one to `c`.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Adds `n` to `c` (Relaxed; the slot is logically rank-private).
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.vals[c as usize].fetch_add(n, Relaxed);
    }

    /// Current value of `c`.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize].load(Relaxed)
    }

    /// Zeroes every lane.
    pub fn reset(&self) {
        for v in &self.vals {
            v.store(0, Relaxed);
        }
    }

    /// Immutable copy of every lane.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            vals: std::array::from_fn(|i| self.vals[i].load(Relaxed)),
        }
    }
}

impl Default for CounterSlot {
    fn default() -> Self {
        Self::new()
    }
}

/// One padded [`CounterSlot`] per rank, sized lazily to the team.
#[derive(Debug, Default)]
pub struct CounterSet {
    slots: Vec<CachePadded<CounterSlot>>,
}

impl CounterSet {
    /// A set with `p` zeroed slots.
    pub fn new(p: usize) -> Self {
        let mut s = Self::default();
        s.ensure(p);
        s
    }

    /// Grows (never shrinks) to at least `p` slots.
    pub fn ensure(&mut self, p: usize) {
        while self.slots.len() < p {
            self.slots.push(CachePadded::new(CounterSlot::new()));
        }
    }

    /// Number of slots currently allocated.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no slots are allocated yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Rank `r`'s slot.
    #[inline]
    pub fn rank(&self, r: usize) -> &CounterSlot {
        &self.slots[r]
    }

    /// Zeroes every slot.
    pub fn reset(&self) {
        for s in &self.slots {
            s.reset();
        }
    }

    /// Element-wise sum over all slots.
    pub fn merged(&self) -> CounterSnapshot {
        let mut out = CounterSnapshot::default();
        for s in &self.slots {
            out.merge(&s.snapshot());
        }
        out
    }

    /// Per-rank snapshots for the first `p` slots.
    pub fn snapshots(&self, p: usize) -> Vec<CounterSnapshot> {
        self.slots.iter().take(p).map(|s| s.snapshot()).collect()
    }
}

/// Immutable copy of a slot's lanes (or a merged total).
///
/// Serializes as a JSON object keyed by [`Counter::name`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    vals: [u64; NUM_COUNTERS],
}

impl Default for CounterSnapshot {
    fn default() -> Self {
        Self {
            vals: [0; NUM_COUNTERS],
        }
    }
}

impl CounterSnapshot {
    /// Value of `c`.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize]
    }

    /// Adds `other` lane-wise into `self`.
    pub fn merge(&mut self, other: &CounterSnapshot) {
        for (a, b) in self.vals.iter_mut().zip(other.vals.iter()) {
            *a += *b;
        }
    }

    /// `(counter, value)` pairs in lane order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    /// Whether every lane is zero.
    pub fn is_zero(&self) -> bool {
        self.vals.iter().all(|&v| v == 0)
    }
}

impl Serialize for CounterSnapshot {
    fn to_value(&self) -> Value {
        let mut m = std::collections::BTreeMap::new();
        for (c, v) in self.iter() {
            m.insert(c.name().to_string(), v.to_value());
        }
        Value::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_order_matches_discriminants() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?}");
        }
    }

    #[test]
    fn slot_add_get_reset() {
        let s = CounterSlot::new();
        s.incr(Counter::Steals);
        s.add(Counter::StolenItems, 7);
        assert_eq!(s.get(Counter::Steals), 1);
        assert_eq!(s.get(Counter::StolenItems), 7);
        s.reset();
        assert!(s.snapshot().is_zero());
    }

    #[test]
    fn set_merges_across_ranks() {
        let set = CounterSet::new(3);
        set.rank(0).add(Counter::Processed, 10);
        set.rank(1).add(Counter::Processed, 5);
        set.rank(2).incr(Counter::Barriers);
        let m = set.merged();
        assert_eq!(m.get(Counter::Processed), 15);
        assert_eq!(m.get(Counter::Barriers), 1);
        let per = set.snapshots(2);
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].get(Counter::Processed), 10);
        assert_eq!(per[1].get(Counter::Processed), 5);
    }

    #[test]
    fn ensure_grows_but_never_shrinks() {
        let mut set = CounterSet::new(2);
        set.rank(1).incr(Counter::Grafts);
        set.ensure(4);
        assert_eq!(set.len(), 4);
        // Growth preserved the existing slot's contents.
        assert_eq!(set.rank(1).get(Counter::Grafts), 1);
        set.ensure(1);
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn snapshot_serializes_named_lanes() {
        let s = CounterSlot::new();
        s.add(Counter::BarrierWaitNs, 123);
        let v = s.snapshot().to_value();
        match v {
            Value::Object(m) => {
                assert_eq!(m.len(), NUM_COUNTERS);
                assert_eq!(m.get("barrier_wait_ns"), Some(&Value::Number(123.0)));
                assert_eq!(m.get("steals"), Some(&Value::Number(0.0)));
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn slots_are_cache_padded() {
        let set = CounterSet::new(2);
        let a = set.rank(0) as *const _ as usize;
        let b = set.rank(1) as *const _ as usize;
        assert_eq!((b - a) % 128, 0);
    }
}
