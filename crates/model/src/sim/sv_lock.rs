//! Instrumented simulation of the lock-based SV grafting variant.
//!
//! "One straightforward solution uses locks to ensure that a tree gets
//! grafted only once. The locking approach intuitively is slow and not
//! scalable, and our test results agree." (§2)
//!
//! Why it is slow: every edge whose endpoint roots differ *attempts* the
//! graft, which means acquiring the root's lock — an atomic
//! read-modify-write that bounces the lock's cache line — and the
//! attempts on any one root serialize. The election variant pays one
//! plain write per candidate instead and lets exactly one edge act.
//!
//! The simulator charges, on top of the same per-edge scanning costs as
//! the election variant:
//!
//! * `LOCK_MEM` non-contiguous accesses per lock acquire/release pair
//!   (the RMW plus the line bounce), for every *attempted* graft; and
//! * a serialization term: attempts on the same root queue behind one
//!   lock, so each root adds `(attempts − 1) · CS_MEM` accesses to the
//!   critical path, spread over the processors that issued them. On a
//!   star-like grafting pattern (many trees hooking into one hub tree)
//!   this term dominates and scaling collapses — exactly the paper's
//!   "not scalable".

use st_graph::{CsrGraph, VertexId};
use st_smp::team::block_range;

use crate::machine::MachineProfile;

use super::report::{CostReport, PhaseCost};
use super::sv::SvSimOutput;

/// Non-contiguous accesses charged per lock acquire/release pair. The
/// paper's POSIX-threads implementation pays a mutex acquire + release
/// per attempt: two fenced read-modify-writes, the lock line transfer,
/// and the waiter bookkeeping — several cache-miss equivalents, far more
/// than the single plain store an election candidate costs.
const LOCK_MEM: u64 = 8;
/// Critical-section accesses serialized per queued waiter.
const CS_MEM: u64 = 4;

/// Simulates the lock-grafting SV variant with `p` virtual processors
/// under `machine`. Output shape matches [`simulate_sv`]
/// (same labels/tree-edge semantics: first eligible edge in index order
/// grafts each root, which is one legal serialization of the lock
/// protocol).
///
/// [`simulate_sv`]: super::simulate_sv
pub fn simulate_sv_lock(g: &CsrGraph, p: usize, machine: &MachineProfile) -> SvSimOutput {
    assert!(p > 0, "need at least one virtual processor");
    let n = g.num_vertices();
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let m = edges.len();
    let mut report = CostReport::new(p, machine);
    let mut d: Vec<VertexId> = (0..n as VertexId).collect();
    let mut tree_edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut iterations = 0usize;
    let mut shortcut_rounds = 0usize;
    let mut makespan_ns = 0.0f64;
    // Scratch: lock attempts per root this iteration.
    let mut attempts: Vec<u32> = vec![0; n];

    let charge_phase =
        |report: &mut CostReport, makespan_ns: &mut f64, per_rank: &dyn Fn(usize) -> PhaseCost| {
            let mut max = PhaseCost::default();
            for rank in 0..p {
                let cost = per_rank(rank);
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

        // --- Grafting pass with locks. Attempts are counted against the
        // pass-entry snapshot of D: in a real parallel pass every
        // processor whose pre-graft read finds the root unmodified
        // queues on the lock, even though only the first one's graft
        // sticks. The first eligible edge in index order wins (one legal
        // serialization of the lock protocol).
        for a in attempts.iter_mut() {
            *a = 0;
        }
        let d0 = d.clone();
        let mut grafted = false;
        for &(u, v) in edges.iter() {
            for (a, b) in [(u, v), (v, u)] {
                let ra = d0[a as usize];
                let rb = d0[b as usize];
                if rb < ra && d0[ra as usize] == ra {
                    attempts[ra as usize] += 1;
                    // Under the lock: re-check against live state.
                    if d[ra as usize] == ra {
                        d[ra as usize] = rb;
                        tree_edges.push((a, b));
                        grafted = true;
                    }
                }
            }
        }

        // Scan cost per rank (same as the election's single pass) plus
        // lock attempts charged to the issuing rank's edge block.
        let lock_cost_of_block = |rank: usize| -> u64 {
            // Attempts are not tracked per rank exactly (they depend on
            // d-state order); spread them proportionally to block size,
            // which is how a block edge partition distributes them in
            // expectation.
            let total_attempts: u64 = attempts.iter().map(|&a| a as u64).sum();
            let share = block_range(rank, p, m).len() as u64;
            if m == 0 {
                0
            } else {
                total_attempts * share / m as u64
            }
        };
        // Serialization: each root's queued attempts extend the critical
        // path (they cannot overlap), bounded below by the hottest lock.
        let serialization: u64 = attempts
            .iter()
            .map(|&a| (a as u64).saturating_sub(1) * CS_MEM)
            .sum::<u64>()
            / p.max(1) as u64; // queueing spreads across ranks...
        let hottest: u64 = attempts
            .iter()
            .map(|&a| (a as u64).saturating_sub(1) * CS_MEM)
            .max()
            .unwrap_or(0); // ...but the hottest lock cannot be split.
        let serial_term = serialization.max(hottest);
        charge_phase(&mut report, &mut makespan_ns, &|rank| {
            let scan = block_range(rank, p, m).len() as u64;
            PhaseCost {
                mem: 3 * scan + LOCK_MEM * lock_cost_of_block(rank) + serial_term,
                ops: 4 * scan,
            }
        });

        if !grafted {
            break;
        }

        // --- Shortcut (identical to the election variant).
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
            charge_phase(&mut report, &mut makespan_ns, &|rank| {
                let items = block_range(rank, p, n).len() as u64;
                PhaseCost {
                    mem: 2 * items,
                    ops: 2 * items,
                }
            });
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
    use st_graph::gen::{random_gnm, star, torus2d};
    use st_graph::validate::{count_components, is_spanning_forest};

    fn e4500() -> MachineProfile {
        MachineProfile::e4500()
    }

    #[test]
    fn produces_valid_forests() {
        let mut engine = st_core::Engine::new(2);
        for seed in 0..3 {
            let g = random_gnm(400, 500, seed);
            let out = simulate_sv_lock(&g, 4, &e4500());
            assert_eq!(out.tree_edges.len(), 400 - count_components(&g));
            let (exec, ws) = engine.parts_mut();
            let parents = st_core::orient::orient_forest(400, &out.tree_edges, exec, ws);
            assert!(is_spanning_forest(&g, &parents));
        }
    }

    #[test]
    fn lock_variant_scales_worse_than_election() {
        // CLAIM-LOCK is about *scalability*: sequentially the lock pass
        // is actually cheaper (one pass vs the election's two — our
        // wall-clock p = 1 runs confirm it), but its speedup collapses
        // under contention while the election's does not.
        let g = random_gnm(1 << 12, 1 << 13, 7);
        let machine = e4500();
        let lock_scaling = simulate_sv_lock(&g, 1, &machine).report.predicted_seconds()
            / simulate_sv_lock(&g, 8, &machine).report.predicted_seconds();
        let elec_scaling = simulate_sv(&g, 1, &machine).report.predicted_seconds()
            / simulate_sv(&g, 8, &machine).report.predicted_seconds();
        assert!(
            lock_scaling < elec_scaling,
            "lock scaled {lock_scaling:.2}x vs election {elec_scaling:.2}x"
        );
    }

    #[test]
    fn lock_variant_does_not_scale_on_hub_patterns() {
        // A star whose hub has the LARGEST id: every edge tries to graft
        // the hub's root onto its leaf — one lock serializes all of it.
        // (A hub at id 0 would be the opposite: grafts point *toward*
        // small labels, so each leaf locks only its own root.)
        let hub = star(4_000);
        let n = hub.num_vertices() as u32;
        let perm: Vec<u32> = (0..n).map(|v| (v + n - 1) % n).collect(); // 0 -> n-1
        let g = st_graph::label::relabel(&hub, &perm);
        let machine = e4500();
        let t1 = simulate_sv_lock(&g, 1, &machine).report.predicted_seconds();
        let t8 = simulate_sv_lock(&g, 8, &machine).report.predicted_seconds();
        let scaling = t1 / t8;
        assert!(
            scaling < 3.0,
            "lock variant scaled {scaling:.2}x on the hub-heavy star; serialization should cap it"
        );
        // The election variant on the same graph scales fine.
        let e1 = simulate_sv(&g, 1, &machine).report.predicted_seconds();
        let e8 = simulate_sv(&g, 8, &machine).report.predicted_seconds();
        assert!(e1 / e8 > scaling, "election should out-scale locks here");
    }

    #[test]
    fn election_and_lock_agree_on_components() {
        let g = torus2d(20, 20);
        let machine = e4500();
        let a = simulate_sv(&g, 2, &machine);
        let b = simulate_sv_lock(&g, 2, &machine);
        assert_eq!(a.tree_edges.len(), b.tree_edges.len());
    }

    #[test]
    fn deterministic() {
        let g = random_gnm(300, 400, 1);
        let machine = e4500();
        assert_eq!(
            simulate_sv_lock(&g, 4, &machine).report,
            simulate_sv_lock(&g, 4, &machine).report
        );
    }
}
