//! Phase 1: the stub spanning tree.
//!
//! "One processor generates a stub spanning tree, that is, a small
//! portion of the spanning tree by randomly walking the graph for O(p)
//! steps. The vertices of the stub spanning tree are evenly distributed
//! into each processor's queue, and each processor traverses from the
//! first element in its queue." (§2)
//!
//! The walk only moves to unvisited neighbors (each step extends the
//! tree); when it reaches a vertex with no unvisited neighbor it
//! backtracks along the walk, so on high-diameter graphs the stub still
//! collects up to the requested number of vertices. A stub shorter than
//! requested has covered its whole component; the round driver
//! ([`crate::bader_cong`]) then marks that component instead of running
//! a round for it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_graph::{CsrGraph, VertexId, NO_VERTEX};
use st_smp::AtomicBitmap;
use std::sync::atomic::Ordering;

/// A stub spanning tree: vertices in walk order with their tree parents.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StubTree {
    /// Vertices in the order the walk visited them; `vertices[0]` is the
    /// root.
    pub vertices: Vec<VertexId>,
    /// `parents[i]` is the tree parent of `vertices[i]`
    /// ([`NO_VERTEX`] for the root).
    pub parents: Vec<VertexId>,
}

impl StubTree {
    /// Number of stub vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when the stub is empty (never produced by
    /// [`grow_stub`]; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

/// Reusable scratch for repeated stub walks (the round driver grows one
/// stub per component, so a single workspace-owned scratch saves an
/// allocation storm on many-component inputs).
#[derive(Debug, Default)]
pub struct StubScratch {
    tree: StubTree,
    /// Walk-with-backtracking position chain.
    path: Vec<VertexId>,
    /// Unvisited-neighbor candidates of the current position.
    candidates: Vec<VertexId>,
}

/// Grows a stub spanning tree of up to `target` vertices from `root` by
/// a random walk over unvisited vertices, with backtracking.
///
/// `already_visited(v)` reports vertices claimed by earlier rounds (other
/// components' traversals); the walk never enters them. The root itself
/// must be unvisited. This form asks `already_visited` about every
/// vertex to fill an n-bit set; the round driver walks with
/// [`grow_stub_into`] on the traversal's visited bitmap instead.
pub fn grow_stub(
    g: &CsrGraph,
    root: VertexId,
    target: usize,
    seed: u64,
    already_visited: impl Fn(VertexId) -> bool,
) -> StubTree {
    let visited = AtomicBitmap::new(g.num_vertices());
    for v in g.vertices().filter(|&v| already_visited(v)) {
        visited.set(v as usize, Ordering::Relaxed);
    }
    let mut scratch = StubScratch::default();
    grow_stub_into(g, root, target, seed, &visited, &mut scratch);
    scratch.tree
}

/// The walk of [`grow_stub`], claiming in a shared visited bitmap: a
/// vertex is a candidate while its bit in `visited` is clear, and the
/// walk sets the bit of every vertex it takes, the root included. The
/// first `k` vertices of a walk do not depend on `target`, so a walk
/// with a larger budget starts with the stub a smaller one would grow.
///
/// On return every vertex of the borrowed tree is claimed in `visited`;
/// the caller clears ([`AtomicBitmap::clear`]) those it does not keep.
/// The bitmap is read and written with `Relaxed` order: the walk runs
/// while no other processor touches it, and the barrier that ends that
/// phase publishes it.
pub fn grow_stub_into<'s>(
    g: &CsrGraph,
    root: VertexId,
    target: usize,
    seed: u64,
    visited: &AtomicBitmap,
    scratch: &'s mut StubScratch,
) -> &'s StubTree {
    debug_assert!(
        !visited.get(root as usize, Ordering::Relaxed),
        "stub root must be unvisited"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let StubScratch {
        tree,
        path,
        candidates,
    } = scratch;
    tree.vertices.clear();
    tree.parents.clear();
    path.clear();

    visited.set(root as usize, Ordering::Relaxed);
    tree.vertices.push(root);
    tree.parents.push(NO_VERTEX);
    path.push(root);
    while tree.vertices.len() < target {
        let Some(&cur) = path.last() else { break };
        candidates.clear();
        candidates.extend(
            g.neighbors(cur)
                .iter()
                .copied()
                .filter(|&w| !visited.get(w as usize, Ordering::Relaxed)),
        );
        if candidates.is_empty() {
            path.pop();
            continue;
        }
        let next = candidates[rng.gen_range(0..candidates.len())];
        visited.set(next as usize, Ordering::Relaxed);
        tree.vertices.push(next);
        tree.parents.push(cur);
        path.push(next);
    }
    tree
}

/// How a [`claim_walk`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Claim {
    /// The walk covered its whole component before the budget ran out;
    /// the tree is re-rooted at the component's smallest vertex, given
    /// here.
    Covered(VertexId),
    /// The component has at least the budget's number of vertices: the
    /// tree reached the budget, or the walk met a vertex marked in `big`.
    Big,
    /// The walk met a vertex another walk holds.
    Blocked,
}

/// A breadth-first claim of `start`'s component, safe to run on every
/// processor at once: it stops as soon as it cannot tell that it alone
/// covers the component. Unlike [`grow_stub_into`] it takes no random
/// steps and reads each row once; it only finishes small components
/// and finds big ones, whose stub the round driver walks afterwards.
///
/// Each vertex is claimed with one `fetch_or` ([`AtomicBitmap::set`]),
/// the start included, so a vertex belongs to at most one walk at a
/// time. A set bit that is not in this walk's tree belongs to another
/// walk, since a finished component shares no edge with this one: the
/// walk ends [`Claim::Blocked`] when it sees such a bit or its
/// `fetch_or` loses a race. It ends [`Claim::Big`] when its tree
/// reaches `budget` vertices or it sees a vertex whose bit is set in
/// `big`, the caller's mark for vertices of components known to be
/// that large. It ends [`Claim::Covered`] when it has read the row of
/// every tree vertex and found only its own claims: the tree is then
/// the component, which it re-roots at the smallest vertex by reversing
/// the tree path from there.
///
/// On return the tree's vertices are still claimed; the caller keeps a
/// covered tree and clears ([`AtomicBitmap::clear`]) any other. Relaxed
/// order suffices: exclusivity comes from each bit's read-modify-writes
/// alone, and the barrier that ends the phase publishes the rest.
pub(crate) fn claim_walk<'s>(
    g: &CsrGraph,
    start: VertexId,
    budget: usize,
    visited: &AtomicBitmap,
    big: &AtomicBitmap,
    scratch: &'s mut StubScratch,
) -> (Claim, &'s StubTree) {
    let tree = &mut scratch.tree;
    tree.vertices.clear();
    tree.parents.clear();
    if !visited.set(start as usize, Ordering::Relaxed) {
        return (Claim::Blocked, tree);
    }
    tree.vertices.push(start);
    tree.parents.push(NO_VERTEX);
    let mut next = 0;
    while let Some(&cur) = tree.vertices.get(next) {
        next += 1;
        for &w in g.neighbors(cur) {
            if visited.get(w as usize, Ordering::Relaxed) {
                if !tree.vertices.contains(&w) {
                    return (Claim::Blocked, tree);
                }
                continue;
            }
            if big.get(w as usize, Ordering::Relaxed) {
                return (Claim::Big, tree);
            }
            if !visited.set(w as usize, Ordering::Relaxed) {
                return (Claim::Blocked, tree);
            }
            tree.vertices.push(w);
            tree.parents.push(cur);
            if tree.vertices.len() == budget {
                return (Claim::Big, tree);
            }
        }
    }
    (Claim::Covered(reroot_at_smallest(tree)), tree)
}

/// Re-roots `tree` at its smallest vertex by reversing the tree path
/// from there to the old root; returns the new root.
fn reroot_at_smallest(tree: &mut StubTree) -> VertexId {
    let (mut i, root) = tree
        .vertices
        .iter()
        .copied()
        .enumerate()
        .min_by_key(|&(_, v)| v)
        .expect("a walk holds its start");
    let mut child = NO_VERTEX;
    loop {
        let parent = std::mem::replace(&mut tree.parents[i], child);
        if parent == NO_VERTEX {
            return root;
        }
        child = tree.vertices[i];
        i = tree
            .vertices
            .iter()
            .position(|&v| v == parent)
            .expect("a tree parent is a tree vertex");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::gen::{chain, complete, star, torus2d};
    use st_graph::validate::is_spanning_forest;

    fn never_visited(_: VertexId) -> bool {
        false
    }

    /// Checks the stub is a valid tree over its own vertex set: parents
    /// are earlier stub vertices connected by graph edges.
    fn assert_stub_is_tree(g: &CsrGraph, stub: &StubTree) {
        assert_eq!(stub.vertices.len(), stub.parents.len());
        assert_eq!(stub.parents[0], NO_VERTEX);
        let mut seen = std::collections::HashSet::new();
        seen.insert(stub.vertices[0]);
        for i in 1..stub.len() {
            let v = stub.vertices[i];
            let p = stub.parents[i];
            assert!(seen.contains(&p), "parent {p} not an earlier stub vertex");
            assert!(
                g.neighbors(v).contains(&p),
                "stub edge ({v}, {p}) not in graph"
            );
            assert!(seen.insert(v), "vertex {v} appears twice in the stub");
        }
    }

    #[test]
    fn stub_on_torus_reaches_target() {
        let g = torus2d(20, 20);
        let stub = grow_stub(&g, 0, 16, 7, never_visited);
        assert_eq!(stub.len(), 16);
        assert_stub_is_tree(&g, &stub);
    }

    #[test]
    fn stub_on_chain_backtracks_to_target() {
        // Starting mid-chain, the walk hits an end and must backtrack.
        let g = chain(100);
        let stub = grow_stub(&g, 95, 10, 3, never_visited);
        assert_eq!(stub.len(), 10);
        assert_stub_is_tree(&g, &stub);
    }

    #[test]
    fn stub_capped_by_component_size() {
        let g = chain(5);
        let stub = grow_stub(&g, 2, 50, 0, never_visited);
        assert_eq!(stub.len(), 5, "stub covers the whole tiny component");
        assert_stub_is_tree(&g, &stub);
        // A full-component stub is itself a spanning forest of the chain.
        let mut parents = vec![NO_VERTEX; 5];
        for (i, &v) in stub.vertices.iter().enumerate() {
            parents[v as usize] = stub.parents[i];
        }
        assert!(is_spanning_forest(&g, &parents));
    }

    #[test]
    fn stub_respects_already_visited() {
        let g = chain(10);
        // Vertices >= 5 belong to an earlier traversal.
        let stub = grow_stub(&g, 2, 50, 1, |v| v >= 5);
        assert!(stub.vertices.iter().all(|&v| v < 5));
        assert_eq!(stub.len(), 5);
    }

    #[test]
    fn stub_target_one_is_just_the_root() {
        let g = complete(10);
        let stub = grow_stub(&g, 3, 1, 0, never_visited);
        assert_eq!(stub.vertices, vec![3]);
        assert_eq!(stub.parents, vec![NO_VERTEX]);
    }

    #[test]
    fn stub_on_star_walks_through_hub() {
        let g = star(50);
        let stub = grow_stub(&g, 5, 8, 2, never_visited);
        assert_eq!(stub.len(), 8);
        assert_stub_is_tree(&g, &stub);
    }

    #[test]
    fn stub_is_deterministic_in_seed() {
        let g = torus2d(10, 10);
        assert_eq!(
            grow_stub(&g, 0, 12, 9, never_visited),
            grow_stub(&g, 0, 12, 9, never_visited)
        );
        assert_ne!(
            grow_stub(&g, 0, 12, 9, never_visited),
            grow_stub(&g, 0, 12, 10, never_visited)
        );
    }

    #[test]
    fn reused_scratch_matches_fresh_walks() {
        let g = torus2d(15, 15);
        let mut scratch = StubScratch::default();
        for (root, seed) in [(0u32, 1u64), (37, 2), (100, 3), (5, 1)] {
            let visited = AtomicBitmap::new(g.num_vertices());
            let reused = grow_stub_into(&g, root, 20, seed, &visited, &mut scratch).clone();
            let fresh = grow_stub(&g, root, 20, seed, never_visited);
            assert_eq!(reused, fresh, "root {root} seed {seed}");
            assert_stub_is_tree(&g, &reused);
        }
    }

    #[test]
    fn walk_claims_exactly_its_vertices_and_skips_claimed_ones() {
        let g = chain(10);
        let visited = AtomicBitmap::new(10);
        // Vertices >= 5 belong to an earlier traversal.
        for v in 5..10 {
            visited.set(v, Ordering::Relaxed);
        }
        let mut scratch = StubScratch::default();
        let stub = grow_stub_into(&g, 2, 50, 1, &visited, &mut scratch).clone();
        assert_eq!(stub, grow_stub(&g, 2, 50, 1, |v| v >= 5));
        assert_eq!(visited.next_clear(0, 10), None, "0..5 claimed by the walk");
        for &v in &stub.vertices {
            assert!(visited.clear(v as usize, Ordering::Relaxed));
        }
        assert_eq!(visited.next_clear(0, 10), Some(0));
    }

    #[test]
    fn budgeted_walk_starts_with_the_stub() {
        // The round driver walks up to a budget and seeds the first
        // `target` vertices: they must be the stub a `target` walk grows.
        let mut scratch = StubScratch::default();
        for g in [torus2d(20, 20), chain(300), star(300), complete(40)] {
            let n = g.num_vertices();
            for (root, seed) in [(0u32, 7u64), (17, 3), (39, 11)] {
                for target in [1usize, 2, 4, 8, 16] {
                    let visited = AtomicBitmap::new(n);
                    let long = grow_stub_into(&g, root, 64, seed, &visited, &mut scratch);
                    let short = grow_stub(&g, root, target, seed, never_visited);
                    let k = short.len();
                    assert_eq!(k, target.min(n));
                    assert_eq!(
                        long.vertices[..k],
                        short.vertices[..],
                        "root {root} seed {seed}"
                    );
                    assert_eq!(
                        long.parents[..k],
                        short.parents[..],
                        "root {root} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn isolated_root_yields_singleton() {
        let g = CsrGraph::empty(3);
        let stub = grow_stub(&g, 1, 8, 0, never_visited);
        assert_eq!(stub.vertices, vec![1]);
    }

    #[test]
    fn claim_walk_covers_reroots_and_stops() {
        let g = chain(5);
        let big = AtomicBitmap::new(5);
        let mut scratch = StubScratch::default();
        // From the middle: the whole chain, re-rooted at vertex 0.
        let visited = AtomicBitmap::new(5);
        let (end, tree) = claim_walk(&g, 3, 32, &visited, &big, &mut scratch);
        assert_eq!(end, Claim::Covered(0));
        let mut parents = vec![NO_VERTEX; 5];
        for (&v, &p) in tree.vertices.iter().zip(&tree.parents) {
            parents[v as usize] = p;
        }
        assert!(is_spanning_forest(&g, &parents));
        assert_eq!(parents[0], NO_VERTEX);
        // The budget is reached.
        let visited = AtomicBitmap::new(5);
        let (end, tree) = claim_walk(&g, 3, 3, &visited, &big, &mut scratch);
        assert_eq!((end, tree.len()), (Claim::Big, 3));
        // A vertex another walk holds blocks it.
        let visited = AtomicBitmap::new(5);
        visited.set(0, Ordering::Relaxed);
        let (end, _) = claim_walk(&g, 3, 32, &visited, &big, &mut scratch);
        assert_eq!(end, Claim::Blocked);
        // A neighbour known to be in a big component stops it.
        let visited = AtomicBitmap::new(5);
        big.set(1, Ordering::Relaxed);
        let (end, _) = claim_walk(&g, 3, 32, &visited, &big, &mut scratch);
        assert_eq!(end, Claim::Big);
    }
}
