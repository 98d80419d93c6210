//! Shared atomic vertex arrays.

use crate::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// A fixed-size array of atomic `u32` cells shared by all processors.
///
/// This backs the `parent` array of the traversal algorithms, the
/// dynamic forest's hook array, and the `parent`/`component` arrays of
/// Shiloach–Vishkin: every cell
/// can be read, written, and CASed concurrently. The paper's key
/// correctness argument (§2, Fig. 1) is precisely that racy writes to
/// `parent[w]` by multiple processors are benign — each candidate value
/// yields a valid tree — so the implementation only needs atomicity per
/// cell, never a global lock.
#[derive(Debug)]
pub struct AtomicU32Array {
    cells: Box<[AtomicU32]>,
}

impl Default for AtomicU32Array {
    /// An empty array; grow it with [`AtomicU32Array::ensure_len`].
    fn default() -> Self {
        Self::new(0, 0)
    }
}

impl AtomicU32Array {
    /// An array of `len` cells, each initialized to `init`.
    pub fn new(len: usize, init: u32) -> Self {
        let mut v = Vec::with_capacity(len);
        v.resize_with(len, || AtomicU32::new(init));
        Self {
            cells: v.into_boxed_slice(),
        }
    }

    /// An array of `len` zero cells from a zeroed allocation, so no
    /// cell is written here: pages the allocator takes fresh from the
    /// kernel are faulted in by whichever processor first touches them,
    /// not by the caller. With `huge` set, the allocation is advised
    /// with [`crate::mem::advise_hugepages`] before any such touch.
    pub fn zeroed(len: usize, huge: bool) -> Self {
        let mut zeros = std::mem::ManuallyDrop::new(vec![0u32; len]);
        if huge {
            crate::mem::advise_hugepages(zeros.as_ptr().cast(), len * std::mem::size_of::<u32>());
        }
        #[cfg(not(feature = "loom"))]
        {
            // SAFETY: `AtomicU32` has the size, alignment and bit
            // validity of `u32`, and the vector's buffer is handed over
            // whole (pointer, length and capacity), never freed twice.
            let cells = unsafe {
                Vec::from_raw_parts(
                    zeros.as_mut_ptr().cast::<AtomicU32>(),
                    zeros.len(),
                    zeros.capacity(),
                )
            };
            Self {
                cells: cells.into_boxed_slice(),
            }
        }
        #[cfg(feature = "loom")]
        {
            // The model checker's atomics are not `u32`-shaped.
            drop(std::mem::ManuallyDrop::into_inner(zeros));
            Self::new(len, 0)
        }
    }

    /// Builds from an existing vector of plain values.
    pub fn from_vec(values: Vec<u32>) -> Self {
        Self {
            cells: values.into_iter().map(AtomicU32::new).collect(),
        }
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the array has no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Atomic load of cell `i`.
    #[inline]
    pub fn load(&self, i: usize, order: Ordering) -> u32 {
        self.cells[i].load(order)
    }

    /// Atomic store to cell `i`.
    #[inline]
    pub fn store(&self, i: usize, value: u32, order: Ordering) {
        self.cells[i].store(value, order)
    }

    /// Atomic compare-exchange on cell `i`; returns `Ok(previous)` on
    /// success and `Err(actual)` on failure.
    #[inline]
    pub fn compare_exchange(
        &self,
        i: usize,
        current: u32,
        new: u32,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u32, u32> {
        self.cells[i].compare_exchange(current, new, success, failure)
    }

    /// Convenience claim: CAS cell `i` from `empty` to `value` with
    /// Acquire/Release ordering; returns true when this caller won.
    #[inline]
    pub fn try_claim(&self, i: usize, empty: u32, value: u32) -> bool {
        self.cells[i]
            .compare_exchange(empty, value, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Direct access to a cell (for fetch-ops not wrapped here).
    #[inline]
    pub fn cell(&self, i: usize) -> &AtomicU32 {
        &self.cells[i]
    }

    /// Snapshots the array into a plain vector (not atomic as a whole;
    /// callers synchronize externally, e.g. after a team join).
    pub fn snapshot(&self) -> Vec<u32> {
        self.cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Snapshots the first `n` cells (workspace arrays are grown, not
    /// shrunk, so the live prefix is usually shorter than `len`).
    pub fn snapshot_prefix(&self, n: usize) -> Vec<u32> {
        self.cells[..n]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Stores `value` into the first `n` cells (sequential; for
    /// re-initializing a reused array between runs).
    pub fn fill_prefix(&self, n: usize, value: u32) {
        for c in &self.cells[..n] {
            c.store(value, Ordering::Relaxed);
        }
    }

    /// Grows the array to at least `n` cells (geometric, so repeated
    /// engine runs over growing graphs reallocate O(log n) times); new
    /// and existing cell contents are unspecified — callers re-init the
    /// prefix they use. No-op when capacity suffices.
    pub fn ensure_len(&mut self, n: usize) {
        self.ensure_len_with(n, false);
    }

    /// [`ensure_len`](Self::ensure_len) with an optional
    /// transparent-hugepage hint: when `huge` is set, a fresh allocation
    /// is advised with [`crate::mem::advise_hugepages`] *before* the
    /// cells are initialized, so the initializing writes — the first
    /// touch — fault huge pages directly. The hint only applies when
    /// this call actually reallocates.
    pub fn ensure_len_with(&mut self, n: usize, huge: bool) {
        if self.cells.len() >= n {
            return;
        }
        let target = n.max(self.cells.len() * 2);
        let mut v: Vec<AtomicU32> = Vec::with_capacity(target);
        if huge {
            crate::mem::advise_hugepages(
                v.as_ptr() as *const u8,
                target * std::mem::size_of::<AtomicU32>(),
            );
        }
        v.resize_with(target, || AtomicU32::new(0));
        self.cells = v.into_boxed_slice();
    }
}

impl From<AtomicU32Array> for Vec<u32> {
    /// Hands the cells over as plain values without copying them.
    fn from(arr: AtomicU32Array) -> Self {
        #[cfg(not(feature = "loom"))]
        {
            let mut cells = std::mem::ManuallyDrop::new(arr.cells.into_vec());
            // SAFETY: as in `AtomicU32Array::zeroed`, the layouts match,
            // and owning the array means no other reference to a cell
            // is alive.
            unsafe {
                Vec::from_raw_parts(
                    cells.as_mut_ptr().cast::<u32>(),
                    cells.len(),
                    cells.capacity(),
                )
            }
        }
        #[cfg(feature = "loom")]
        {
            arr.cells
                .into_vec()
                .into_iter()
                .map(|c| c.into_inner())
                .collect()
        }
    }
}

/// A shared set of vertices, one bit each, packed into atomic `u64`
/// words.
///
/// This is the traversal's visited set: 128 KiB at n = 2^20, small
/// enough to stay in L2 where a `u32` per vertex (4 MiB) does not.
/// Sixty-four vertices share a word, so setting a bit must be an atomic
/// read-modify-write ([`set`](Self::set), a `fetch_or`): a plain load
/// and store of the word would let two processors claiming neighbouring
/// vertices overwrite each other's bit.
#[derive(Debug, Default)]
pub struct AtomicBitmap {
    words: Box<[AtomicU64]>,
}

impl AtomicBitmap {
    /// Bits per word.
    pub const WORD_BITS: usize = 64;

    /// A bitmap of at least `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        let mut b = Self::default();
        b.ensure_len(len);
        b
    }

    /// Number of bits held (a multiple of 64, at least what was asked
    /// for).
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len() * Self::WORD_BITS
    }

    /// True when the bitmap holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize, order: Ordering) -> bool {
        self.words[i / Self::WORD_BITS].load(order) & (1 << (i % Self::WORD_BITS)) != 0
    }

    /// Sets bit `i` with one `fetch_or`; returns `true` when this call
    /// set it and `false` when it was already set — the loser of a
    /// claim race.
    #[inline]
    pub fn set(&self, i: usize, order: Ordering) -> bool {
        let mask = 1 << (i % Self::WORD_BITS);
        self.words[i / Self::WORD_BITS].fetch_or(mask, order) & mask == 0
    }

    /// Sets the bits of `mask` in word `w` (bit `b` of `mask` is bit
    /// `64·w + b` of the set) with one `fetch_or`, for a processor that
    /// claims several vertices of one word at once.
    #[inline]
    pub fn set_word(&self, w: usize, mask: u64, order: Ordering) {
        self.words[w].fetch_or(mask, order);
    }

    /// Clears bit `i` with one `fetch_and`; returns `true` when it was
    /// set. Neighbouring bits of the word are left as they are, even if
    /// another processor sets them concurrently.
    #[inline]
    pub fn clear(&self, i: usize, order: Ordering) -> bool {
        let mask = 1 << (i % Self::WORD_BITS);
        self.words[i / Self::WORD_BITS].fetch_and(!mask, order) & mask != 0
    }

    /// The word holding bits `64·w .. 64·w + 64`, bit `b` of the result
    /// being bit `64·w + b` of the set.
    #[inline]
    pub fn word(&self, w: usize, order: Ordering) -> u64 {
        self.words[w].load(order)
    }

    /// The smallest clear bit in `from..n`, or [`None`] when all of
    /// them are set. Reads a word at a time.
    pub fn next_clear(&self, from: usize, n: usize) -> Option<usize> {
        let mut i = from;
        while i < n {
            let w = i / Self::WORD_BITS;
            // Bit 0 of `free` is bit `i`; the shift fills the top with
            // zeros, which read as "set".
            let free = !self.word(w, Ordering::Acquire) >> (i % Self::WORD_BITS);
            if free != 0 {
                let hit = i + free.trailing_zeros() as usize;
                return (hit < n).then_some(hit);
            }
            i = (w + 1) * Self::WORD_BITS;
        }
        None
    }

    /// Clears bits `0..n`, a whole word at a time (so bits up to the
    /// next multiple of 64 are cleared too). Sequential; for resetting
    /// a reused bitmap between runs.
    pub fn clear_prefix(&self, n: usize) {
        for w in &self.words[..n.div_ceil(Self::WORD_BITS)] {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Grows the bitmap to at least `n` bits (geometric, like
    /// [`AtomicU32Array::ensure_len`]); new bits are clear, existing
    /// ones keep their values. No-op when it is already large enough.
    pub fn ensure_len(&mut self, n: usize) {
        let need = n.div_ceil(Self::WORD_BITS);
        if self.words.len() >= need {
            return;
        }
        let target = need.max(self.words.len() * 2);
        let mut v: Vec<AtomicU64> = std::mem::take(&mut self.words).into_vec();
        v.resize_with(target, || AtomicU64::new(0));
        self.words = v.into_boxed_slice();
    }

    /// Hints the CPU to pull the word holding bit `i` toward L1 (no-op
    /// out of range).
    #[inline]
    pub fn prefetch(&self, i: usize) {
        if let Some(w) = self.words.get(i / Self::WORD_BITS) {
            crate::mem::prefetch_read(w as *const AtomicU64);
        }
    }

    /// Copies bits `0..n` out as booleans (not atomic as a whole;
    /// callers synchronize externally, e.g. after a team join).
    pub fn to_bools(&self, n: usize) -> Vec<bool> {
        (0..n).map(|i| self.get(i, Ordering::Relaxed)).collect()
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    #[test]
    fn new_initializes_all_cells() {
        let a = AtomicU32Array::new(5, 7);
        assert_eq!(a.len(), 5);
        assert!(!a.is_empty());
        assert_eq!(a.snapshot(), vec![7; 5]);
    }

    #[test]
    fn store_and_load() {
        let a = AtomicU32Array::new(3, 0);
        a.store(1, 42, Ordering::Relaxed);
        assert_eq!(a.load(1, Ordering::Relaxed), 42);
        assert_eq!(a.load(0, Ordering::Relaxed), 0);
    }

    #[test]
    fn claim_is_exclusive() {
        let a = AtomicU32Array::new(1, u32::MAX);
        assert!(a.try_claim(0, u32::MAX, 5));
        assert!(!a.try_claim(0, u32::MAX, 6));
        assert_eq!(a.load(0, Ordering::Relaxed), 5);
    }

    #[test]
    fn concurrent_claims_have_one_winner_per_cell() {
        const P: usize = 8;
        const N: usize = if cfg!(miri) { 64 } else { 1000 };
        let a = AtomicU32Array::new(N, u32::MAX);
        let wins: Vec<std::sync::atomic::AtomicUsize> = (0..P)
            .map(|_| std::sync::atomic::AtomicUsize::new(0))
            .collect();
        crossbeam::thread::scope(|s| {
            for rank in 0..P {
                let a = &a;
                let wins = &wins;
                s.spawn(move |_| {
                    for i in 0..N {
                        if a.try_claim(i, u32::MAX, rank as u32) {
                            wins[rank].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        })
        .unwrap();
        let total: usize = wins.iter().map(|w| w.load(Ordering::Relaxed)).sum();
        assert_eq!(total, N, "every cell claimed exactly once");
        // And every cell holds a valid claimant id.
        for i in 0..N {
            assert!((a.load(i, Ordering::Relaxed) as usize) < P);
        }
    }

    #[test]
    fn ensure_len_with_hugepages_grows_and_zeroes() {
        let mut a = AtomicU32Array::new(0, 0);
        a.ensure_len_with(1000, true);
        assert!(a.len() >= 1000);
        assert!(a.snapshot_prefix(1000).iter().all(|&v| v == 0));
        // Growing again without the hint keeps contents usable.
        a.store(5, 42, Ordering::Relaxed);
        a.ensure_len_with(100, false);
        assert_eq!(a.load(5, Ordering::Relaxed), 42);
    }

    #[test]
    fn prefetch_tolerates_out_of_range() {
        let b = AtomicBitmap::new(4);
        b.prefetch(0);
        b.prefetch(63);
        b.prefetch(4_000_000);
    }

    #[test]
    fn from_vec_and_into_vec_roundtrip() {
        let a = AtomicU32Array::from_vec(vec![1, 2, 3]);
        let v: Vec<u32> = a.into();
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn zeroed_array_reads_zero_and_hands_its_stores_over() {
        // Past 2 MiB the hint reaches `madvise`, which Miri cannot run.
        let large = if cfg!(miri) { 64 } else { 3 << 20 };
        for (len, huge) in [(0usize, false), (5, false), (large, true)] {
            let a = AtomicU32Array::zeroed(len, huge);
            assert_eq!(a.len(), len);
            assert!(a.snapshot().iter().all(|&v| v == 0));
            if len > 0 {
                a.store(len - 1, 9, Ordering::Relaxed);
            }
            let v: Vec<u32> = a.into();
            assert_eq!(v.len(), len);
            assert_eq!(v.last().copied(), (len > 0).then_some(9));
        }
    }

    #[test]
    fn bitmap_concurrent_claims_of_adjacent_bits_have_one_winner_each() {
        // P threads race over the same bits, each starting at a
        // different offset, so neighbouring bits of one word are set
        // concurrently by different threads.
        const P: usize = 4;
        const N: usize = if cfg!(miri) { 130 } else { 4_100 };
        let b = AtomicBitmap::new(N);
        let wins: Vec<Vec<usize>> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..P)
                .map(|rank| {
                    let b = &b;
                    s.spawn(move |_| {
                        (0..N)
                            .map(|k| (k + rank * 17) % N)
                            .filter(|&i| b.set(i, Ordering::AcqRel))
                            .collect::<Vec<usize>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        let mut winners = vec![0usize; N];
        for i in wins.into_iter().flatten() {
            winners[i] += 1;
        }
        assert!(winners.iter().all(|&w| w == 1), "a bit had 0 or 2+ winners");
        assert!(
            (0..N).all(|i| b.get(i, Ordering::Relaxed)),
            "a bit was lost"
        );
        assert_eq!(b.next_clear(0, N), None);
    }

    #[test]
    fn bitmap_reuse_across_shrinking_and_growing_n_starts_clear() {
        // The workspace pattern: grow to n, clear the live prefix, use
        // it (setting every live bit), move on to the next graph. Sizes
        // end mid-word, so a later, larger n takes in bits a smaller
        // one left set beyond its prefix.
        let mut b = AtomicBitmap::default();
        for n in [1_000usize, 70, 130, 5_000, 65, 200] {
            b.ensure_len(n);
            assert!(b.len() >= n);
            b.clear_prefix(n);
            assert_eq!(b.next_clear(0, n), (n > 0).then_some(0));
            for i in 0..n {
                assert!(!b.get(i, Ordering::Relaxed), "n = {n}: bit {i} stale");
                assert!(b.set(i, Ordering::Relaxed));
                assert!(!b.set(i, Ordering::Relaxed), "second set must lose");
            }
            assert_eq!(b.next_clear(0, n), None);
        }
        // Growing keeps what was set.
        b.ensure_len(100_000);
        assert!(b.get(199, Ordering::Relaxed));
        assert!(!b.get(99_999, Ordering::Relaxed));
    }

    #[test]
    fn bitmap_clear_releases_one_bit_and_keeps_its_neighbours() {
        let b = AtomicBitmap::new(130);
        for i in [0, 1, 63, 64, 65, 129] {
            b.set(i, Ordering::Relaxed);
        }
        assert!(b.clear(64, Ordering::Relaxed), "bit 64 was set");
        assert!(
            !b.clear(64, Ordering::Relaxed),
            "second clear finds it clear"
        );
        assert!(!b.clear(100, Ordering::Relaxed), "never set");
        let set: Vec<usize> = (0..130).filter(|&i| b.get(i, Ordering::Relaxed)).collect();
        assert_eq!(set, vec![0, 1, 63, 65, 129]);
        assert_eq!(b.next_clear(63, 130), Some(64));
        // A cleared bit can be claimed again, by exactly one winner.
        assert!(b.set(64, Ordering::Relaxed));
        assert!(!b.set(64, Ordering::Relaxed));
    }

    #[test]
    fn bitmap_next_clear_and_to_bools() {
        let b = AtomicBitmap::new(200);
        for i in (0..150).chain([151, 152]) {
            b.set(i, Ordering::Relaxed);
        }
        assert_eq!(b.next_clear(0, 200), Some(150));
        assert_eq!(b.next_clear(151, 200), Some(153));
        assert_eq!(b.next_clear(10, 150), None);
        assert_eq!(b.next_clear(150, 150), None);
        let bools = b.to_bools(154);
        assert_eq!(bools.iter().filter(|&&x| !x).count(), 2);
        assert!(!bools[150] && !bools[153]);
    }
}
