//! Event-driven simulation of the Bader–Cong algorithm on p virtual
//! processors.
//!
//! Each virtual processor carries its own clock; the simulator always
//! advances the earliest-clock processor (a discrete-event simulation of
//! the *asynchronous* phase-2 traversal — the paper's point is exactly
//! that there is no per-vertex synchronization, so a lock-step model
//! would overcharge it). Processing a vertex advances the owner's clock
//! by the Helman–JáJá cost of its visit; an idle processor attempts a
//! deterministic steal (from the victim with the longest queue) and, if
//! nothing is stealable, sleeps for the modeled wake-up latency —
//! exactly the shape of the real implementation's idle path.
//!
//! Phase 1 (stub walks) is sequential and charged to the base time every
//! processor starts from. It follows the real driver's rules: an
//! isolated root costs no walk step, and a component smaller than
//! [`WALK_BUDGET`] (or the stub target, if larger) is absorbed by the
//! walk without a parallel round; a failed walk's steps are charged too.
//! The makespan is the maximum clock at quiescence; barrier episodes (2
//! per parallel round, §3) are charged separately.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_core::bader_cong::WALK_BUDGET;
use st_graph::{CsrGraph, VertexId, NO_VERTEX};

use crate::machine::MachineProfile;

use super::report::{CostReport, PhaseCost};
use super::seq::{MEM_PER_EDGE, MEM_PER_VERTEX, OPS_PER_EDGE, OPS_PER_VERTEX};

/// Simulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct TraversalSimConfig {
    /// Stub length target as a multiple of p.
    pub stub_factor: usize,
    /// Steal half the victim's queue (`true`, the default) or one item.
    pub steal_half: bool,
    /// Seed for the stub walk.
    pub seed: u64,
    /// Modeled latency between work appearing and a sleeping processor
    /// stealing it (condition-variable wake-up), ns.
    pub wake_latency_ns: f64,
}

impl Default for TraversalSimConfig {
    fn default() -> Self {
        Self {
            stub_factor: 2,
            steal_half: true,
            seed: 0x5eed,
            wake_latency_ns: 5_000.0,
        }
    }
}

/// Output of the simulated run.
#[derive(Clone, Debug)]
pub struct TraversalSimOutput {
    /// Cost report (T_M / T_C / B and makespan).
    pub report: CostReport,
    /// The spanning forest the simulated execution produced.
    pub parents: Vec<VertexId>,
    /// Components discovered.
    pub components: usize,
    /// Parallel rounds executed (components the budgeted walk could not
    /// absorb).
    pub parallel_rounds: usize,
    /// Successful steals.
    pub steals: u64,
}

/// Simulates the full algorithm (stub + work-stealing traversal, one
/// parallel round per component of at least [`WALK_BUDGET`] vertices)
/// with `p` virtual processors under `machine`.
pub fn simulate_bader_cong(
    g: &CsrGraph,
    p: usize,
    cfg: TraversalSimConfig,
    machine: &MachineProfile,
) -> TraversalSimOutput {
    assert!(p > 0, "need at least one virtual processor");
    let n = g.num_vertices();
    let mut report = CostReport::new(p, machine);
    let mut parents = vec![NO_VERTEX; n];
    let mut colored = vec![false; n];
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut components = 0usize;
    let mut parallel_rounds = 0usize;
    let mut steals = 0u64;
    let mut cursor: usize = 0;
    // Every processor's clock starts each round at `base_ns` (the
    // sequential prefix so far).
    let mut base_ns = 0.0f64;

    let vertex_cost = |g: &CsrGraph, v: VertexId| -> PhaseCost {
        PhaseCost {
            mem: MEM_PER_VERTEX + MEM_PER_EDGE * g.degree(v) as u64,
            ops: OPS_PER_VERTEX + OPS_PER_EDGE * g.degree(v) as u64,
        }
    };

    loop {
        // --- Find the next component root.
        while cursor < n && colored[cursor] {
            cursor += 1;
        }
        if cursor >= n {
            break;
        }
        let root = cursor as VertexId;
        components += 1;

        // --- Phase 1 on processor 0, as the round driver runs it: a
        // walk (DFS with backtracking) of up to `budget` vertices either
        // finishes the component or seeds its first `target` vertices.
        // An isolated root's walk ends at once, with no step charged: the
        // driver marks it without walking.
        let target = (cfg.stub_factor * p).max(1);
        let budget = WALK_BUDGET.max(target);
        let mut stub: Vec<VertexId> = vec![root];
        colored[root as usize] = true;
        let mut path = vec![root];
        let mut stub_cost = vertex_cost(g, root);
        let mut candidates: Vec<VertexId> = Vec::new();
        while stub.len() < budget {
            let Some(&cur) = path.last() else { break };
            candidates.clear();
            candidates.extend(
                g.neighbors(cur)
                    .iter()
                    .copied()
                    .filter(|&w| !colored[w as usize]),
            );
            if candidates.is_empty() {
                path.pop();
                continue;
            }
            let next = candidates[rng.gen_range(0..candidates.len())];
            colored[next as usize] = true;
            parents[next as usize] = cur;
            stub.push(next);
            path.push(next);
            stub_cost.add(vertex_cost(g, next));
        }
        report.per_proc_mem[0] += stub_cost.mem;
        report.per_proc_ops[0] += stub_cost.ops;
        base_ns += stub_cost.ns(machine, p);

        if stub.len() < budget {
            // Component fully absorbed by the walk: no parallel round.
            continue;
        }
        // Release the walk's tail to the traversal.
        for &v in &stub[target..] {
            colored[v as usize] = false;
            parents[v as usize] = NO_VERTEX;
        }
        stub.truncate(target);
        parallel_rounds += 1;
        report.barriers += 2;

        // --- Phase 2: event-driven work-stealing traversal.
        let mut queues: Vec<VecDeque<VertexId>> = vec![VecDeque::new(); p];
        for (i, &v) in stub.iter().enumerate() {
            queues[i % p].push_back(v);
        }
        let mut clocks = vec![base_ns; p];
        loop {
            if queues.iter().all(|q| q.is_empty()) {
                break;
            }
            // Advance the earliest processor.
            let rank = (0..p)
                .min_by(|&a, &b| clocks[a].total_cmp(&clocks[b]))
                .unwrap();
            if let Some(v) = queues[rank].pop_front() {
                let mut cost = PhaseCost {
                    mem: MEM_PER_VERTEX,
                    ops: OPS_PER_VERTEX,
                };
                for &w in g.neighbors(v) {
                    cost.mem += MEM_PER_EDGE;
                    cost.ops += OPS_PER_EDGE;
                    if !colored[w as usize] {
                        colored[w as usize] = true;
                        parents[w as usize] = v;
                        queues[rank].push_back(w);
                    }
                }
                report.per_proc_mem[rank] += cost.mem;
                report.per_proc_ops[rank] += cost.ops;
                clocks[rank] += cost.ns(machine, p);
            } else {
                // Idle: one deterministic steal sweep (longest victim).
                // Only queues holding at least two items are victims:
                // the head item always stays with its owner, which both
                // avoids counterproductive single-item ping-pong and
                // guarantees simulation progress (every non-empty
                // queue's owner eventually pops its head).
                let victim = (0..p)
                    .filter(|&r| r != rank && queues[r].len() >= 2)
                    .max_by_key(|&r| (queues[r].len(), std::cmp::Reverse(r)));
                let sweep = PhaseCost {
                    mem: 1,
                    ops: p as u64,
                };
                report.per_proc_mem[rank] += sweep.mem;
                report.per_proc_ops[rank] += sweep.ops;
                clocks[rank] += sweep.ns(machine, p);
                match victim {
                    Some(victim) => {
                        let available = queues[victim].len();
                        let take = if cfg.steal_half {
                            (available.div_ceil(2)).min(available - 1)
                        } else {
                            1
                        };
                        let split = available - take;
                        let tail = queues[victim].split_off(split);
                        queues[rank].extend(tail);
                        // Batch move: lock + pointer moves.
                        let move_cost = PhaseCost {
                            mem: 2 + take as u64 / 8,
                            ops: 4 + take as u64,
                        };
                        report.per_proc_mem[rank] += move_cost.mem;
                        report.per_proc_ops[rank] += move_cost.ops;
                        clocks[rank] += move_cost.ns(machine, p);
                        steals += 1;
                        // Stealing from a busy victim cannot happen
                        // before the victim has produced the work: clamp
                        // to the victim's clock.
                        clocks[rank] = clocks[rank].max(clocks[victim]);
                    }
                    None => {
                        // Nothing stealable: sleep until (modeled) wake.
                        clocks[rank] += cfg.wake_latency_ns;
                    }
                }
            }
        }
        base_ns = clocks.iter().copied().fold(base_ns, f64::max);
    }

    report.makespan_ns = base_ns;
    TraversalSimOutput {
        report,
        parents,
        components,
        parallel_rounds,
        steals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineProfile;
    use crate::sim::simulate_sequential_bfs;
    use st_graph::gen::{chain, random_gnm, torus2d};
    use st_graph::validate::is_spanning_forest;

    fn sim(g: &CsrGraph, p: usize) -> TraversalSimOutput {
        let out = simulate_bader_cong(
            g,
            p,
            TraversalSimConfig::default(),
            &MachineProfile::e4500(),
        );
        assert!(
            is_spanning_forest(g, &out.parents),
            "simulated forest invalid at p = {p}"
        );
        out
    }

    #[test]
    fn forests_valid_across_p() {
        let g = random_gnm(2_000, 3_000, 1);
        for p in [1, 2, 4, 8] {
            sim(&g, p);
        }
    }

    #[test]
    fn deterministic() {
        let g = torus2d(30, 30);
        let m = MachineProfile::e4500();
        let a = simulate_bader_cong(&g, 4, TraversalSimConfig::default(), &m);
        let b = simulate_bader_cong(&g, 4, TraversalSimConfig::default(), &m);
        assert_eq!(a.report, b.report);
        assert_eq!(a.parents, b.parents);
    }

    #[test]
    fn random_graph_makespan_scales_down_with_p() {
        let g = random_gnm(4_000, 6_000, 7);
        let t1 = sim(&g, 1).report.predicted_seconds();
        let t8 = sim(&g, 8).report.predicted_seconds();
        assert!(
            t8 < t1 / 3.0,
            "makespan did not parallelize: {t1:.6} -> {t8:.6}"
        );
    }

    #[test]
    fn chain_does_not_parallelize() {
        // The pathological case: only the frontier processor makes
        // progress (stolen or not), so the makespan stays serial.
        let g = chain(5_000);
        let t1 = sim(&g, 1).report.predicted_seconds();
        let t8 = sim(&g, 8).report.predicted_seconds();
        assert!(
            t8 > 0.6 * t1,
            "chain should stay near-serial: {t1:.6} -> {t8:.6}"
        );
    }

    #[test]
    fn predicted_speedup_on_random_graph_in_paper_band() {
        // Fig. 3's setting at reduced scale: m = 1.5 n, p = 8; the paper
        // reports speedups between 4.5 and 5.5.
        let n = 1 << 14;
        let g = random_gnm(n, 3 * n / 2, 5);
        let machine = MachineProfile::e4500();
        let seq_t = simulate_sequential_bfs(&g, &machine).0.predicted_seconds();
        let par_t = sim(&g, 8).report.predicted_seconds();
        let speedup = seq_t / par_t;
        assert!(
            (3.5..7.0).contains(&speedup),
            "simulated speedup {speedup:.2} outside the expected band"
        );
    }

    #[test]
    fn small_components_absorbed_without_rounds() {
        // 50 tiny components: all fit in the stub walk, so no parallel
        // rounds and no barriers.
        let mut el = st_graph::EdgeList::new(100);
        for i in 0..50u32 {
            el.push(2 * i, 2 * i + 1);
        }
        let g = CsrGraph::from_edge_list(&el);
        let out = sim(&g, 4);
        assert_eq!(out.components, 50);
        assert_eq!(out.parallel_rounds, 0);
        assert_eq!(out.report.barriers, 0);
    }

    #[test]
    fn components_under_the_walk_budget_need_no_round() {
        // Chains of B − 1, B and B + 1 vertices plus isolated vertices:
        // only the two chains that fill the budget get a round, and each
        // round costs two barriers.
        let b = WALK_BUDGET;
        let mut el = st_graph::EdgeList::new(3 * b + 10);
        let mut start = 0u32;
        for len in [b - 1, b, b + 1] {
            for i in 1..len as u32 {
                el.push(start + i - 1, start + i);
            }
            start += len as u32;
        }
        let g = CsrGraph::from_edge_list(&el);
        for p in [1, 2, 4] {
            let out = sim(&g, p);
            assert_eq!(out.components, 3 + 10, "p = {p}");
            assert_eq!(out.parallel_rounds, 2, "p = {p}");
            assert_eq!(out.report.barriers, 4, "p = {p}");
        }
    }

    #[test]
    fn torus_is_one_parallel_round() {
        let g = torus2d(24, 24);
        let out = sim(&g, 4);
        assert_eq!(out.components, 1);
        assert_eq!(out.parallel_rounds, 1);
        assert_eq!(out.report.barriers, 2);
    }

    #[test]
    fn steals_happen_on_imbalanced_graphs() {
        let g = st_graph::gen::star(2_000);
        let out = sim(&g, 4);
        assert!(out.steals > 0);
    }

    #[test]
    fn empty_graph() {
        let out = simulate_bader_cong(
            &CsrGraph::empty(0),
            4,
            TraversalSimConfig::default(),
            &MachineProfile::e4500(),
        );
        assert_eq!(out.components, 0);
        assert_eq!(out.report.makespan_ns, 0.0);
    }
}
