//! Instrumented simulation of Shiloach–Vishkin (election variant) on p
//! virtual processors.
//!
//! SV is bulk-synchronous: barriers separate the winner-reset, election,
//! graft, and each pointer-jumping round, so each phase contributes its
//! maximum per-processor cost to the makespan (edges and vertices are
//! block-partitioned across processors exactly as in the real
//! implementation).
//!
//! Accounting follows §3: "In each pass, there are two non-contiguous
//! memory accesses per edge", and pointer jumping costs two
//! non-contiguous accesses per vertex per round. Contiguous sweeps
//! (winner reset, loop indices) are charged as local operations only.

use st_graph::{CsrGraph, VertexId};
use st_smp::team::block_range;

use crate::machine::MachineProfile;

use super::report::{CostReport, PhaseCost};

/// Output of the simulated SV run.
#[derive(Clone, Debug)]
pub struct SvSimOutput {
    /// Cost report.
    pub report: CostReport,
    /// Final hook array (component root labels).
    pub labels: Vec<VertexId>,
    /// Spanning-forest edges collected from grafts.
    pub tree_edges: Vec<(VertexId, VertexId)>,
    /// Graft-and-shortcut iterations (including the final empty one).
    pub iterations: usize,
    /// Total pointer-jumping rounds.
    pub shortcut_rounds: usize,
}

const NO_WINNER: u64 = u64::MAX;

/// Simulates SV with `p` virtual processors under `machine`.
///
/// The election is resolved deterministically (last writer in edge-index
/// order), a legal outcome of the arbitrary-CRCW store the real
/// implementation uses.
pub fn simulate_sv(g: &CsrGraph, p: usize, machine: &MachineProfile) -> SvSimOutput {
    assert!(p > 0, "need at least one virtual processor");
    let n = g.num_vertices();
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let m = edges.len();
    let mut report = CostReport::new(p, machine);
    let mut d: Vec<VertexId> = (0..n as VertexId).collect();
    let mut winner: Vec<u64> = vec![NO_WINNER; n];
    let mut tree_edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut iterations = 0usize;
    let mut shortcut_rounds = 0usize;
    let mut makespan_ns = 0.0f64;

    // Adds a barrier-terminated phase where processor `r` pays
    // `mem_per_item`/`ops_per_item` over its block of `total` items.
    let charge_phase = |report: &mut CostReport,
                        makespan_ns: &mut f64,
                        total: usize,
                        mem_per_item: u64,
                        ops_per_item: u64| {
        let mut max = PhaseCost::default();
        for rank in 0..p {
            let items = block_range(rank, p, total).len() as u64;
            let cost = PhaseCost {
                mem: mem_per_item * items,
                ops: ops_per_item * items,
            };
            report.per_proc_mem[rank] += cost.mem;
            report.per_proc_ops[rank] += cost.ops;
            max.mem = max.mem.max(cost.mem);
            max.ops = max.ops.max(cost.ops);
        }
        *makespan_ns += max.ns(machine, p);
        report.barriers += 1;
    };

    loop {
        iterations += 1;

        // --- Winner reset (contiguous sweep: ops only).
        for w in winner.iter_mut() {
            *w = NO_WINNER;
        }
        charge_phase(&mut report, &mut makespan_ns, n, 0, 1);

        // --- Election: two non-contiguous reads per edge (+1 write for
        // candidates; charged uniformly at 3 to stay conservative).
        for (e, &(u, v)) in edges.iter().enumerate() {
            let du = d[u as usize];
            let dv = d[v as usize];
            if du == dv {
                continue;
            }
            if dv < du {
                winner[du as usize] = (e as u64) * 2;
            } else {
                winner[dv as usize] = (e as u64) * 2 + 1;
            }
        }
        charge_phase(&mut report, &mut makespan_ns, m, 3, 4);

        // --- Graft: the unique winner of each root grafts it.
        let mut grafted = false;
        for (e, &(u, v)) in edges.iter().enumerate() {
            let ru = d[u as usize];
            if winner[ru as usize] == (e as u64) * 2 {
                d[ru as usize] = d[v as usize];
                tree_edges.push((u, v));
                grafted = true;
            }
            let rv = d[v as usize];
            if winner[rv as usize] == (e as u64) * 2 + 1 {
                d[rv as usize] = d[u as usize];
                tree_edges.push((u, v));
                grafted = true;
            }
        }
        charge_phase(&mut report, &mut makespan_ns, m, 3, 4);

        if !grafted {
            break;
        }

        // --- Shortcut: pointer jumping to rooted stars.
        loop {
            let mut changed = false;
            for v in 0..n {
                let dv = d[v];
                let ddv = d[dv as usize];
                if dv != ddv {
                    d[v] = ddv;
                    changed = true;
                }
            }
            shortcut_rounds += 1;
            charge_phase(&mut report, &mut makespan_ns, n, 2, 2);
            if !changed {
                break;
            }
        }
    }

    report.makespan_ns = makespan_ns;
    SvSimOutput {
        report,
        labels: d,
        tree_edges,
        iterations,
        shortcut_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineProfile;
    use crate::sim::{simulate_bader_cong, simulate_sequential_bfs, TraversalSimConfig};
    use st_graph::gen::{chain, random_gnm, torus2d};
    use st_graph::label::{random_permutation, relabel};
    use st_graph::validate::{component_labels, count_components, is_spanning_forest};
    use st_graph::CsrGraph;

    fn e4500() -> MachineProfile {
        MachineProfile::e4500()
    }

    #[test]
    fn labels_match_reference_components() {
        for seed in 0..3 {
            let g = random_gnm(400, 300, seed);
            let out = simulate_sv(&g, 4, &e4500());
            let reference = component_labels(&g);
            // Same-partition check.
            let mut map = std::collections::HashMap::new();
            for (&l, &r) in out.labels.iter().zip(reference.iter()) {
                assert_eq!(*map.entry(l).or_insert(r), r);
            }
        }
    }

    #[test]
    fn tree_edges_form_spanning_forest() {
        let g = random_gnm(500, 700, 2);
        let out = simulate_sv(&g, 2, &e4500());
        assert_eq!(out.tree_edges.len(), 500 - count_components(&g));
        // Orient them via the core utility and validate.
        let mut engine = st_core::Engine::new(2);
        let (exec, ws) = engine.parts_mut();
        let parents = st_core::orient::orient_forest(500, &out.tree_edges, exec, ws);
        assert!(is_spanning_forest(&g, &parents));
    }

    #[test]
    fn deterministic() {
        let g = torus2d(20, 20);
        assert_eq!(
            simulate_sv(&g, 4, &e4500()).report,
            simulate_sv(&g, 4, &e4500()).report
        );
    }

    #[test]
    fn labeling_sensitivity_claim() {
        // CLAIM-SVLABEL: the same torus needs more iterations under a
        // random labeling than under row-major labels.
        let g = torus2d(32, 32);
        let row = simulate_sv(&g, 4, &e4500());
        let h = relabel(&g, &random_permutation(g.num_vertices(), 9));
        let rand_lab = simulate_sv(&h, 4, &e4500());
        assert!(
            rand_lab.iterations > row.iterations,
            "random {} vs row-major {}",
            rand_lab.iterations,
            row.iterations
        );
        assert!(
            rand_lab.report.predicted_seconds() > row.report.predicted_seconds(),
            "random labeling should also cost more time"
        );
    }

    #[test]
    fn sv_slower_than_new_algorithm_on_random_graphs() {
        // The headline comparison of Fig. 4's random panel.
        let n = 1 << 13;
        let g = random_gnm(n, 2 * n, 3);
        let machine = e4500();
        for p in [2usize, 4, 8] {
            let sv_t = simulate_sv(&g, p, &machine).report.predicted_seconds();
            let bc_t = simulate_bader_cong(&g, p, TraversalSimConfig::default(), &machine)
                .report
                .predicted_seconds();
            assert!(
                sv_t > bc_t,
                "SV ({sv_t:.6}s) should be slower than the new algorithm ({bc_t:.6}s) at p = {p}"
            );
        }
    }

    #[test]
    fn sv_often_loses_to_sequential() {
        // "In many cases, the SV parallel approach is slower than the
        // best sequential algorithm" — check at small p on a random
        // graph.
        let n = 1 << 13;
        let g = random_gnm(n, 2 * n, 4);
        let machine = e4500();
        let seq_t = simulate_sequential_bfs(&g, &machine).0.predicted_seconds();
        let sv2_t = simulate_sv(&g, 2, &machine).report.predicted_seconds();
        assert!(sv2_t > seq_t, "SV at p=2 should lose to sequential BFS");
    }

    #[test]
    fn sv_scales_with_p() {
        let n = 1 << 13;
        let g = random_gnm(n, 2 * n, 5);
        let machine = e4500();
        let t2 = simulate_sv(&g, 2, &machine).report.predicted_seconds();
        let t8 = simulate_sv(&g, 8, &machine).report.predicted_seconds();
        assert!(t8 < t2, "SV should still speed up with more processors");
    }

    #[test]
    fn chain_sequential_labels_one_iteration() {
        let out = simulate_sv(&chain(2_000), 2, &e4500());
        // Grafts cascade to vertex 0 immediately; iteration 2 detects
        // convergence.
        assert!(out.iterations <= 2, "iterations = {}", out.iterations);
    }

    #[test]
    fn empty_graph() {
        let out = simulate_sv(&CsrGraph::empty(3), 2, &e4500());
        assert!(out.tree_edges.is_empty());
        assert_eq!(out.labels, vec![0, 1, 2]);
    }
}
