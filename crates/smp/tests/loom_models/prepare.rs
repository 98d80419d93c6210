//! Models: the forest driver's team prepare (st-core `bader_cong`,
//! `prepare_range`, and `stub::claim_walk`).
//!
//! Every rank scans its own id range and walks each uncolored vertex's
//! component, claiming vertices with one `fetch_or` each on the shared
//! visited bitmap. A walk that meets a vertex another walk holds, or
//! loses a claim race, yields: it clears every bit it set and moves on.
//! A walk that backtracks out of its start has seen only its own claims
//! around it, so it holds the whole component; it keeps the claims,
//! writes the parents and re-roots the tree at the component's smallest
//! vertex. After the phase a serial step walks whatever stayed
//! uncolored, in id order.
//!
//! The model runs that protocol on two components that straddle the
//! rank split, so the ranks can meet in both, and checks every
//! schedule: no claim is left behind after the phase (a set bit always
//! belongs to a finished tree), every vertex ends up in exactly one
//! tree, rooted at its component's smallest vertex, and both ranks
//! finish. A copy of the walk that yields without releasing its claims
//! is kept as a seeded bug: a vertex it leaves claimed is lost, since
//! no later walk can take it.

use st_smp::sync::atomic::Ordering;
use st_smp::sync::{model, thread, Arc};
use st_smp::{AtomicBitmap, AtomicU32Array};

/// Vertices in the model graph.
const N: usize = 4;
/// Walk budget; larger than either component.
const BUDGET: usize = 3;
/// A tree root's parent (`NO_VERTEX`).
const ROOT: u32 = u32::MAX;
/// A parent nobody wrote.
const UNSET: u32 = u32::MAX - 1;

/// Components {0, 3} and {1, 2}: rank 0 scans 0..2 and rank 1 scans
/// 2..4, so each component has a start vertex in each rank's range.
fn neighbors(v: u32) -> &'static [u32] {
    match v {
        0 => &[3],
        1 => &[2],
        2 => &[1],
        3 => &[0],
        _ => &[],
    }
}

/// How a walk ended.
enum End {
    /// The tree is the component; the smallest vertex is given.
    Covered(u32),
    /// The walk met another walk's claim, or lost a claim race.
    Blocked,
}

/// `claim_walk`: a breadth-first claim of the start's component. The
/// tree holds (vertex, parent) pairs in claim order.
fn claim_walk(start: u32, visited: &AtomicBitmap, tree: &mut Vec<(u32, u32)>) -> End {
    tree.clear();
    if !visited.set(start as usize, Ordering::Relaxed) {
        return End::Blocked;
    }
    tree.push((start, ROOT));
    let mut next = 0;
    while let Some(&(cur, _)) = tree.get(next) {
        next += 1;
        for &w in neighbors(cur) {
            if visited.get(w as usize, Ordering::Relaxed) {
                if !tree.iter().any(|&(v, _)| v == w) {
                    return End::Blocked;
                }
                continue;
            }
            if !visited.set(w as usize, Ordering::Relaxed) {
                return End::Blocked;
            }
            tree.push((w, cur));
            assert!(
                tree.len() < BUDGET,
                "both components are smaller than the budget"
            );
        }
    }
    End::Covered(reroot_at_smallest(tree))
}

/// Reverses the tree path from the smallest vertex to the old root.
fn reroot_at_smallest(tree: &mut [(u32, u32)]) -> u32 {
    let root = tree.iter().map(|&(v, _)| v).min().expect("nonempty tree");
    let mut i = tree.iter().position(|&(v, _)| v == root).unwrap();
    let mut child = ROOT;
    loop {
        let parent = std::mem::replace(&mut tree[i].1, child);
        if parent == ROOT {
            return root;
        }
        child = tree[i].0;
        i = tree.iter().position(|&(v, _)| v == parent).unwrap();
    }
}

/// One rank's scan of `lo..hi`: walk each vertex still uncolored; keep
/// a covered tree, and clear a blocked walk's claims when `release` is
/// set (the real protocol) or leave them set (the seeded bug).
fn prepare_range(
    lo: u32,
    hi: u32,
    visited: &AtomicBitmap,
    parent: &AtomicU32Array,
    release: bool,
) -> bool {
    let mut left = false;
    let mut tree = Vec::new();
    for v in lo..hi {
        if visited.get(v as usize, Ordering::Relaxed) {
            continue;
        }
        match claim_walk(v, visited, &mut tree) {
            End::Covered(_) => {
                for &(x, px) in &tree {
                    parent.store(x as usize, px, Ordering::Relaxed);
                }
            }
            End::Blocked => {
                if release {
                    for &(x, _) in &tree {
                        visited.clear(x as usize, Ordering::Relaxed);
                    }
                }
                left = true;
            }
        }
    }
    left
}

/// Two ranks run the team prepare, then the serial step finishes what
/// they left; checks the invariants listed in the module docs.
fn team_prepare(release: bool) {
    model(move || {
        let visited = Arc::new(AtomicBitmap::new(N));
        let parent = Arc::new(AtomicU32Array::new(N, UNSET));
        let ranks: Vec<_> = [(0u32, 2u32), (2, 4)]
            .into_iter()
            .map(|(lo, hi)| {
                let visited = Arc::clone(&visited);
                let parent = Arc::clone(&parent);
                thread::spawn(move || prepare_range(lo, hi, &visited, &parent, release))
            })
            .collect();
        // Joining both ranks is the phase's closing barrier; a rank that
        // never finished would fail the model here.
        let left = ranks
            .into_iter()
            .fold(false, |acc, r| r.join().unwrap() | acc);
        for v in 0..N {
            let claimed = visited.get(v, Ordering::Relaxed);
            let in_tree = parent.load(v, Ordering::Relaxed) != UNSET;
            assert!(
                claimed == in_tree,
                "vertex {v}: claim left behind (claimed {claimed}, in a tree {in_tree}), \
                 so the vertex is lost"
            );
            assert!(
                left || in_tree,
                "vertex {v} uncolored but no rank left work"
            );
        }
        // The serial step: the smallest uncolored vertex roots its
        // component, and nothing else walks meanwhile.
        let mut tree = Vec::new();
        for v in 0..N as u32 {
            if visited.get(v as usize, Ordering::Relaxed) {
                continue;
            }
            match claim_walk(v, &visited, &mut tree) {
                End::Covered(root) => assert_eq!(root, v, "serial walk rerooted"),
                End::Blocked => panic!("a lone walk was blocked"),
            }
            for &(x, px) in &tree {
                parent.store(x as usize, px, Ordering::Relaxed);
            }
        }
        // Exactly one tree per component, rooted at its smallest vertex.
        let parents: Vec<u32> = (0..N).map(|v| parent.load(v, Ordering::Relaxed)).collect();
        assert_eq!(parents, vec![ROOT, ROOT, 1, 0], "forest {parents:?}");
    });
}

#[test]
fn team_prepare_loses_no_vertex_and_roots_at_the_smallest_id() {
    team_prepare(true);
}

/// The checker must catch a walk that yields without releasing: the
/// two ranks block each other in {0, 3}, both keep their claims, and
/// the component is lost.
#[test]
#[should_panic(expected = "claim left behind")]
fn yield_without_release_is_caught() {
    team_prepare(false);
}
