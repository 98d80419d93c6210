//! The graft-and-shortcut loop that SV (both graft variants), HCS and
//! Borůvka share: its barrier accounting, its tree-edge count, SV's
//! iteration count on the row-major torus, and the edge sets of the two
//! deterministic kernels.

use bader_cong_spanning::core::hcs::hcs_core;
use bader_cong_spanning::graph::validate::count_components;
use bader_cong_spanning::graph::WeightedGraph;
use bader_cong_spanning::prelude::*;

/// The kernels, by the names their jobs report.
const KERNELS: [&str; 4] = ["sv-election", "sv-lock", "hcs", "boruvka"];

/// A row-major torus (SV's one-graft-iteration case), a sparse random
/// graph with many components, and a chain.
fn graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("torus", gen::torus2d(32, 32)),
        ("gnm", gen::random_gnm(2_000, 3_000, 7)),
        ("chain", gen::chain(1_000)),
    ]
}

/// Borůvka's weighted view of `g`.
fn weighted(g: &CsrGraph) -> WeightedGraph {
    WeightedGraph::with_random_weights(g, 100, 5)
}

/// Runs `kernel` on `g` in one job window on `engine`'s team: its tree
/// edges and the window's metrics.
fn run(kernel: &str, g: &CsrGraph, engine: &mut Engine) -> (Vec<(VertexId, VertexId)>, JobMetrics) {
    let (exec, ws) = engine.parts_mut();
    if kernel == "boruvka" {
        let b = mst::boruvka(&weighted(g), exec, ws);
        return (b.tree_edges, b.metrics);
    }
    let none = CancelToken::none();
    ws.begin_job(exec);
    let out = match kernel {
        "hcs" => hcs_core(g, exec, ws, &none),
        "sv-lock" => {
            let cfg = SvConfig {
                variant: GraftVariant::Lock,
            };
            sv::sv_core(g, exec, ws, None, cfg, &none)
        }
        _ => sv::sv_core(g, exec, ws, None, SvConfig::default(), &none),
    }
    .expect("inert token cannot cancel");
    (out.tree_edges, ws.finish_job(exec))
}

#[test]
fn barriers_are_three_per_graft_iteration_plus_one_per_shortcut_round() {
    for (name, g) in graphs() {
        let forest_edges = g.num_vertices() - count_components(&g);
        for p in [1usize, 2, 4] {
            let mut engine = Engine::new(p);
            for kernel in KERNELS {
                let (edges, m) = run(kernel, &g, &mut engine);
                let at = format!("{kernel} on {name}, p = {p}");
                let iterations = m.get(Counter::GraftIterations);
                assert!(iterations >= 1, "{at}");
                if (kernel, name) == ("sv-election", "torus") {
                    // CLAIM-SVLABEL: every vertex but 0 has a smaller
                    // neighbor, so the first iteration grafts everything
                    // and the second only finds no graft.
                    assert_eq!(iterations, 2, "{at}");
                }
                let expected = 3 * iterations + m.get(Counter::ShortcutRounds);
                assert_eq!(m.per_rank.len(), p, "{at}");
                for (rank, counts) in m.per_rank.iter().enumerate() {
                    assert_eq!(
                        counts.get(Counter::Barriers),
                        expected,
                        "{at}: rank {rank}'s barriers"
                    );
                }
                assert_eq!(edges.len(), forest_edges, "{at}: tree edges");
                assert_eq!(m.get(Counter::Grafts), edges.len() as u64, "{at}: grafts");
            }
        }
    }
}

/// FNV-1a over the sorted edge list.
fn digest(mut edges: Vec<(VertexId, VertexId)>) -> u64 {
    edges.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (u, v) in edges {
        for b in u.to_le_bytes().into_iter().chain(v.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn hcs_and_boruvka_edges_match_the_recorded_sets() {
    // Both kernels hook by `fetch_min` on packed keys, so their edge
    // sets depend on neither p nor the schedule. The digests were
    // recorded from the kernels before they shared one loop.
    let golden = [
        ("torus", 0xbf2a_a772_228c_80f0u64, 0xa0c8_4e9d_0fb4_59dbu64),
        ("gnm", 0xe143_de87_4968_076d, 0x3dc3_cbd8_37a1_db03),
        ("chain", 0x8d18_eb62_3713_0433, 0x8d18_eb62_3713_0433),
    ];
    for ((name, g), (golden_name, hcs, boruvka)) in graphs().into_iter().zip(golden) {
        assert_eq!(name, golden_name);
        for p in [1usize, 2, 4] {
            let mut engine = Engine::new(p);
            let (edges, _) = run("hcs", &g, &mut engine);
            assert_eq!(digest(edges), hcs, "hcs on {name}, p = {p}");
            let (edges, _) = run("boruvka", &g, &mut engine);
            assert_eq!(digest(edges), boruvka, "boruvka on {name}, p = {p}");
        }
    }
}
