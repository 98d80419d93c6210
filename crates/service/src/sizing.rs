//! Job sizing from a measured grain.
//!
//! The service's pool is one budget of cores over a ladder of executor
//! widths. For each job the dispatcher asks: *how many cores should
//! this graph get?* The request is an upper bound: the lease
//! downgrades to the cores that are free at dispatch, so under load a
//! wide request runs narrower, and on an idle pool the added core would
//! otherwise sit unused. A doubling is requested once it is faster on
//! every measured run and, on the paper's G(n, 1.5n) inputs, pays at
//! least 1.5× (half of linear speedup on the added core, the point
//! where the core time it adds is no more than the wall time it saves).
//!
//! Where that knee falls was measured on a 2-vCPU Xeon (2 MiB L2 per
//! core): warm `Engine::run` of Bader–Cong at p = 2 against p = 1,
//! seed 7, median of 9 runs per graph (p = 1 and p = 2 alternating).
//! Each row gives the range over three such runs.
//!
//! | graph | n + m | p2 / p1 |
//! |---|---|---|
//! | G(2^10, 1.5n) | 2.5 Ki | 0.46–0.58 |
//! | G(2^12, 1.5n) | 10 Ki | 0.73–0.86 |
//! | torus 64² | 12 Ki | 0.81–1.15 |
//! | G(2^14, 1.5n) | 40 Ki | 1.20–1.28 |
//! | G(2^15, 1.5n) | 80 Ki | 1.33–1.51 |
//! | G(2^16, 1.5n) | 160 Ki | 1.52–1.73 |
//! | G(2^17, 1.5n) | 320 Ki | 1.59–1.67 |
//! | connected(2^16, +4n) | 384 Ki | 1.20–1.33 |
//! | G(2^18, 1.5n) | 640 Ki | 1.67–1.77 |
//! | G(2^20, 1.5n) | 2.5 Mi | 1.78–1.86 |
//! | connected(2^20, +4n) | 6 Mi | 1.55–1.78 |
//!
//! A job takes width `w` only if its n + m is at least `w · GRAIN`.
//! [`GRAIN`] = 64 Ki puts the two-core knee at 128 Ki, between
//! G(2^15, 1.5n) and G(2^16, 1.5n): every row from 128 Ki up ran faster
//! at p = 2 in every run (connected(2^16, +4n) by 1.20× at worst) and
//! every G(n, 1.5n) there paid 1.5× or more, while below it
//! G(2^15, 1.5n) and G(2^14, 1.5n) fall short of 1.5× in some run and
//! the small-mixed shapes (n + m ≤ 12 Ki) mostly lose (torus 64² gained
//! 1.15× once). A grain by n + m alone cannot tell a dense single
//! component from a sparse many-component graph of the same size, so
//! connected(2^16, +4n) gets width 2 for a smaller gain. Widths above 2
//! follow the same grain unmeasured: the measuring host has two cores.

/// Vertices plus edges each rank of a team must have before the team
/// is worth its width.
pub const GRAIN: usize = 64 << 10;

/// Picks the width an (n, m) job should lease: the widest of `widths`
/// whose every rank gets at least [`GRAIN`] of the graph's n + m, and
/// never less than the narrowest.
///
/// `widths` are the pool's executor widths (duplicates fine, any
/// order); an empty list yields 1.
pub fn preferred_width(n: usize, m: usize, widths: &[usize]) -> usize {
    let size = n.saturating_add(m);
    let narrowest = widths.iter().copied().min().unwrap_or(1);
    widths
        .iter()
        .copied()
        .filter(|&w| w.saturating_mul(GRAIN) <= size)
        .max()
        .map_or(narrowest, |w| w.max(narrowest))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 2-core ladder.
    const TWO_CORES: [usize; 3] = [2, 1, 1];

    /// G(n, 1.5n) as (n, m).
    fn gnm(scale: u32) -> (usize, usize) {
        let n = 1usize << scale;
        (n, 3 * n / 2)
    }

    #[test]
    fn tiny_graphs_prefer_narrow_teams() {
        // The small-mixed shapes: n + m ≤ 12 Ki runs slower at p = 2.
        for (n, m) in [gnm(10), gnm(12), (64 * 64, 2 * 64 * 64), (32, 48)] {
            assert_eq!(preferred_width(n, m, &TWO_CORES), 1, "n = {n}");
        }
    }

    #[test]
    fn measured_table_picks_on_two_cores() {
        let connected = |scale: u32| (1usize << scale, (1usize << scale) - 1 + (4 << scale));
        for (name, (n, m), want) in [
            ("G(2^14)", gnm(14), 1),
            ("G(2^15)", gnm(15), 1),
            ("G(2^16), update-read", gnm(16), 2),
            ("connected(2^16, +4n)", connected(16), 2),
            ("G(2^17)", gnm(17), 2),
            ("G(2^18)", gnm(18), 2),
            ("G(2^20), fig3-sparse", gnm(20), 2),
            ("connected(2^20, +4n), random-dense", connected(20), 2),
        ] {
            assert_eq!(preferred_width(n, m, &TWO_CORES), want, "{name}");
        }
    }

    #[test]
    fn large_graphs_prefer_wide_teams() {
        assert_eq!(preferred_width(1 << 22, 3 << 21, &[4, 2, 2, 1, 1, 1, 1]), 4);
    }

    #[test]
    fn degenerate_width_lists() {
        assert_eq!(preferred_width(1 << 22, 1 << 22, &[2, 2, 2]), 2);
        assert_eq!(preferred_width(0, 0, &[3]), 3);
        assert_eq!(preferred_width(1 << 22, 1 << 22, &[]), 1);
        assert_eq!(preferred_width(usize::MAX, usize::MAX, &[8, 1]), 8);
    }

    #[test]
    fn monotone_in_problem_size() {
        // The preferred width never shrinks as the graph grows.
        let widths = st_smp::ladder(8);
        let mut last = 1;
        for scale in 6..24 {
            let (n, m) = gnm(scale);
            let w = preferred_width(n, m, &widths);
            assert!(w >= last, "width shrank at scale {scale}: {w} < {last}");
            last = w;
        }
        assert_eq!(last, 8, "largest problem should want the widest team");
    }
}
