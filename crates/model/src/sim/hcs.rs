//! Instrumented simulation of the HCS (min-hooking) algorithm.
//!
//! The paper implemented HCS and dropped it because it behaves like SV
//! on an SMP; the simulator lets the model executor verify that claim
//! quantitatively: same bulk-synchronous structure, same per-phase
//! accounting, with the arbitrary-write election replaced by the
//! min-reduction (one extra non-contiguous access per eligible edge for
//! the `fetch_min`).

use st_graph::{CsrGraph, VertexId};
use st_smp::team::block_range;

use crate::machine::MachineProfile;

use super::report::{CostReport, PhaseCost};
use super::sv::SvSimOutput;

const EMPTY: u64 = u64::MAX;

/// Simulates HCS with `p` virtual processors under `machine`. Output
/// shape matches [`simulate_sv`](super::simulate_sv).
pub fn simulate_hcs(g: &CsrGraph, p: usize, machine: &MachineProfile) -> SvSimOutput {
    assert!(p > 0, "need at least one virtual processor");
    let n = g.num_vertices();
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let m = edges.len();
    let mut report = CostReport::new(p, machine);
    let mut d: Vec<VertexId> = (0..n as VertexId).collect();
    let mut cand: Vec<u64> = vec![EMPTY; n];
    let mut tree_edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut iterations = 0usize;
    let mut shortcut_rounds = 0usize;
    let mut makespan_ns = 0.0f64;

    let charge_phase =
        |report: &mut CostReport, makespan_ns: &mut f64, total: usize, mem: u64, ops: u64| {
            let mut max = PhaseCost::default();
            for rank in 0..p {
                let items = block_range(rank, p, total).len() as u64;
                let cost = PhaseCost {
                    mem: mem * items,
                    ops: ops * items,
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

        // Reset candidates (contiguous sweep).
        for c in cand.iter_mut() {
            *c = EMPTY;
        }
        charge_phase(&mut report, &mut makespan_ns, n, 0, 1);

        // Min-reduction: 2 root reads + 1 fetch_min per eligible edge.
        for (e, &(u, v)) in edges.iter().enumerate() {
            let du = d[u as usize];
            let dv = d[v as usize];
            if du == dv {
                continue;
            }
            let (hi, lo) = if du > dv { (du, dv) } else { (dv, du) };
            let key = ((lo as u64) << 32) | e as u64;
            if key < cand[hi as usize] {
                cand[hi as usize] = key;
            }
        }
        charge_phase(&mut report, &mut makespan_ns, m, 3, 4);

        // Hook phase over vertices.
        let mut hooked = false;
        for v in 0..n {
            if d[v] != v as VertexId || cand[v] == EMPTY {
                continue;
            }
            let target = (cand[v] >> 32) as VertexId;
            let e = (cand[v] & 0xFFFF_FFFF) as usize;
            d[v] = target;
            tree_edges.push(edges[e]);
            hooked = true;
        }
        charge_phase(&mut report, &mut makespan_ns, n, 2, 2);

        if !hooked {
            break;
        }

        // Shortcut.
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
    use crate::sim::simulate_sv;
    use st_graph::gen::{random_gnm, torus2d};
    use st_graph::validate::{count_components, is_spanning_forest};

    #[test]
    fn forests_are_valid() {
        let mut engine = st_core::Engine::new(2);
        for seed in 0..3 {
            let g = random_gnm(400, 600, seed);
            let out = simulate_hcs(&g, 4, &MachineProfile::e4500());
            assert_eq!(out.tree_edges.len(), 400 - count_components(&g));
            let (exec, ws) = engine.parts_mut();
            let parents = st_core::orient::orient_forest(400, &out.tree_edges, exec, ws);
            assert!(is_spanning_forest(&g, &parents));
        }
    }

    #[test]
    fn behaves_like_sv_the_paper_claim() {
        // "similar complexities and running time as that of SV": within
        // 3x either way across inputs and p.
        let machine = MachineProfile::e4500();
        for g in [random_gnm(1 << 12, 1 << 13, 2), torus2d(64, 64)] {
            for p in [2usize, 8] {
                let hcs_t = simulate_hcs(&g, p, &machine).report.predicted_seconds();
                let sv_t = simulate_sv(&g, p, &machine).report.predicted_seconds();
                let ratio = hcs_t / sv_t;
                assert!(
                    (0.33..3.0).contains(&ratio),
                    "HCS/SV ratio {ratio:.2} at p={p}"
                );
            }
        }
    }

    #[test]
    fn deterministic() {
        let g = random_gnm(300, 450, 7);
        let machine = MachineProfile::e4500();
        assert_eq!(
            simulate_hcs(&g, 3, &machine).report,
            simulate_hcs(&g, 3, &machine).report
        );
    }

    #[test]
    fn matches_real_hcs_tree_edges() {
        // The real implementation is deterministic; the simulator
        // mirrors its semantics exactly.
        let g = random_gnm(500, 800, 9);
        let mut sim_edges = simulate_hcs(&g, 2, &MachineProfile::e4500()).tree_edges;
        let mut engine = st_core::Engine::new(2);
        let (exec, ws) = engine.parts_mut();
        let mut real_edges = st_core::hcs::hcs_core(&g, exec, ws, &st_smp::CancelToken::none())
            .expect("inert token cannot cancel")
            .tree_edges;
        sim_edges.sort_unstable();
        real_edges.sort_unstable();
        assert_eq!(sim_edges, real_edges);
    }
}
