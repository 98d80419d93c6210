//! The correctness check applied to every forest the ledger receives.

use st_graph::{CsrGraph, VertexId, NO_VERTEX};

/// Checks that `parents` and `roots` encode a spanning forest of `g`
/// with exactly `components` trees: every parent pointer is an edge of
/// `g`, parent chains are acyclic, and `roots` lists exactly the
/// parentless vertices. With acyclic chains along graph edges, one root
/// per component forces every tree to span its component.
///
/// This is `st_graph::validate::check_spanning_forest` with the
/// component count passed in: the library oracle recounts components
/// with a BFS per call, which at 2^20 vertices costs more than the job
/// being checked. Callers count once per graph version.
pub fn forest(
    g: &CsrGraph,
    parents: &[VertexId],
    roots: &[VertexId],
    components: usize,
) -> Result<(), String> {
    let n = g.num_vertices();
    if parents.len() != n {
        return Err(format!("{} parents for {n} vertices", parents.len()));
    }
    let mut parentless = 0usize;
    for (v, &p) in parents.iter().enumerate() {
        if p == NO_VERTEX {
            parentless += 1;
        } else if p as usize >= n || !g.neighbors(v as VertexId).contains(&p) {
            return Err(format!("parent edge ({v}, {p}) is not in the graph"));
        }
    }
    if parentless != components || roots.len() != components {
        return Err(format!(
            "{parentless} parentless vertices and {} roots for {components} components",
            roots.len()
        ));
    }
    if let Some(r) = roots
        .iter()
        .find(|&&r| parents.get(r as usize) != Some(&NO_VERTEX))
    {
        return Err(format!("listed root {r} has a parent"));
    }
    // 0 = unvisited, 1 = on the chain being walked, 2 = reaches a root.
    let mut state = vec![0u8; n];
    let mut chain = Vec::new();
    for start in 0..n {
        let mut v = start;
        while state[v] == 0 {
            state[v] = 1;
            chain.push(v);
            match parents[v] {
                NO_VERTEX => break,
                p => v = p as usize,
            }
        }
        if state[v] == 1 && parents[v] != NO_VERTEX {
            return Err(format!("parent chain cycles through {v}"));
        }
        for u in chain.drain(..) {
            state[u] = 2;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::gen;

    #[test]
    fn accepts_bfs_forests_and_rejects_corruptions() {
        let g = gen::random_gnm(300, 320, 5);
        let components = st_graph::validate::count_components(&g);
        let f = st_core::seq::bfs_forest(&g);
        assert_eq!(forest(&g, &f.parents, &f.roots, components), Ok(()));

        let mut extra_root = f.parents.clone();
        let v = extra_root.iter().position(|&p| p != NO_VERTEX).unwrap();
        extra_root[v] = NO_VERTEX;
        assert!(forest(&g, &extra_root, &f.roots, components).is_err());

        let mut non_edge = f.parents.clone();
        let (a, b) = (0..300u32)
            .flat_map(|a| (0..300u32).map(move |b| (a, b)))
            .find(|&(a, b)| {
                a != b && f.parents[a as usize] != NO_VERTEX && !g.neighbors(a).contains(&b)
            })
            .unwrap();
        non_edge[a as usize] = b;
        assert!(forest(&g, &non_edge, &f.roots, components).is_err());

        // Rows 1-2 of a 3x3 torus hang off root 3; row 0 is a parent
        // cycle 0 -> 1 -> 2 -> 0 that never reaches it. Only the chain
        // walk catches this: the root count is right.
        let torus = gen::torus2d(3, 3);
        let parents = [1, 2, 0, NO_VERTEX, 3, 4, 3, 6, 7];
        assert!(forest(&torus, &parents, &[3], 1).is_err_and(|e| e.contains("cycles")));
        assert!(forest(&g, &f.parents[1..], &f.roots, components).is_err());
    }
}
