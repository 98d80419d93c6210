//! `DynForest` keeps its per-batch scratch: once a batch stream has
//! grown it, applying a batch makes no heap allocation. A counting
//! global allocator (installed in this test binary only) tallies the
//! allocations made on the calling thread; a one-rank team keeps every
//! phase on that thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use st_core::engine::Workspace;
use st_core::{seq, DynForest};
use st_graph::{gen, EdgeBatch, GraphView, Neighbors, VertexId};
use st_smp::Executor;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> usize {
    ALLOCS.with(Cell::get)
}

#[test]
fn a_warm_batch_stream_allocates_nothing() {
    let n = 4096u64;
    let g = gen::random_gnm(n as usize, 6144, 3);
    // 400 random 16-edit batches, half deleting an edge of the current
    // graph and half inserting a random pair, with every post-batch
    // graph built up front.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut view = GraphView::Flat(Arc::new(g.clone()));
    let mut stream = Vec::new();
    for _ in 0..400 {
        let mut batch = EdgeBatch::new();
        for _ in 0..16 {
            let u = (next() % n) as VertexId;
            let row = view.neighbors(u);
            batch = if next() % 2 == 0 || row.is_empty() {
                match (next() % n) as VertexId {
                    v if v == u => batch,
                    v => batch.insert(u, v),
                }
            } else {
                batch.delete(u, row[next() as usize % row.len()])
            };
        }
        let (after, _) = view.apply(&batch).unwrap();
        view = GraphView::Flat(after.materialize());
        stream.push((batch, view.clone()));
    }

    let exec = Executor::new(1);
    let mut ws = Workspace::new();
    let mut forest = DynForest::from_forest(&seq::bfs_forest(&g));
    let (warm, measured) = stream.split_at(200);
    for (batch, after) in warm {
        forest.apply_batch(after, batch, &exec, &mut ws);
    }
    let before = allocations();
    for (batch, after) in measured {
        forest.apply_batch(after, batch, &exec, &mut ws);
    }
    let made = allocations() - before;
    forest.check_invariants().unwrap();
    assert_eq!(made, 0, "200 warm batches made {made} heap allocations");
}
