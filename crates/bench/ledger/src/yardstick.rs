//! The yardstick the end-to-end ratios of `random-dense`, `fig3-sparse`
//! and `update-read` divide by: a sequential BFS spanning forest of the
//! same graph reached over one bare loopback round trip, the least a
//! remote sequential BFS could cost. Both parts are timed beside the
//! operations they are compared with, so a ratio cancels most of the
//! host's drift: the BFS part moves with the speed of one core (what
//! large jobs depend on), the round trip with the cost of waking threads
//! and crossing the kernel. On a 2^20-vertex graph the round trip is
//! below 0.1% of it. `small-mixed`, whose jobs are mostly wake-ups,
//! compares with the reference service (`reference.rs`) instead, which
//! serves the same BFS.
//!
//! The BFS is the algorithm of `st_core::seq::bfs_forest`, kept here so
//! that a change to the program under test cannot move its own
//! yardstick; the echo peer is a thread of the benchmark's own. The
//! traced run times the program's BFS as `seq.bfs_ms`.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use st_graph::{CsrGraph, VertexId, NO_VERTEX};

/// The typical time of one part of the yardstick from its samples:
/// their 10%-trimmed mean. A shared host switches between a fast and a
/// slow state within seconds, so the samples are bimodal; a median
/// jumps between the modes as their shares shift from run to run, where
/// a mean follows the shares smoothly. Trimming drops samples a
/// preemption inflated. Closed-loop throughputs time their operations
/// the same way, so that a ratio to the yardstick drops the same kind
/// of samples from both sides.
pub fn time_of(samples: &[f64]) -> Option<f64> {
    crate::stats::trimmed_mean(samples, 0.1)
}

/// Yardstick samples of one graph.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    bfs_ms: Vec<f64>,
    rtt_ms: Vec<f64>,
}

impl Samples {
    /// Times one round trip to `echo`, then one BFS of `g`. Returns the
    /// number of components of `g`.
    pub fn take(&mut self, echo: &mut Echo, g: &CsrGraph) -> std::io::Result<usize> {
        self.rtt_ms.push(echo.round_trip()?.as_secs_f64() * 1e3);
        let (took, components) = bfs(g);
        self.bfs_ms.push(took.as_secs_f64() * 1e3);
        Ok(components)
    }

    /// The yardstick time in milliseconds: the typical BFS plus the
    /// typical round trip.
    pub fn time_ms(&self) -> Option<f64> {
        Some(time_of(&self.bfs_ms)? + time_of(&self.rtt_ms)?)
    }
}

/// Builds a BFS spanning forest of `g`, rooting each component at its
/// lowest vertex. Returns how long that took and how many components
/// there are.
fn bfs(g: &CsrGraph) -> (Duration, usize) {
    let start = Instant::now();
    let (parents, roots) = bfs_forest(g);
    std::hint::black_box(&parents);
    (start.elapsed(), roots.len())
}

/// A BFS spanning forest of `g`: each vertex's parent (`NO_VERTEX` for
/// roots) and the roots, each component rooted at its lowest vertex.
pub fn bfs_forest(g: &CsrGraph) -> (Vec<VertexId>, Vec<VertexId>) {
    let n = g.num_vertices();
    let mut parents = vec![NO_VERTEX; n];
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    let mut roots = Vec::new();
    for root in 0..n {
        if visited[root] {
            continue;
        }
        visited[root] = true;
        roots.push(root as VertexId);
        queue.push_back(root as VertexId);
        while let Some(v) = queue.pop_front() {
            for &w in g.neighbors(v) {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    parents[w as usize] = v;
                    queue.push_back(w);
                }
            }
        }
    }
    (parents, roots)
}

/// A bare loopback round trip: one byte to a thread of the benchmark's
/// own, which sends it straight back.
pub struct Echo {
    stream: TcpStream,
    peer: Option<JoinHandle<()>>,
}

impl Echo {
    /// Starts the peer thread and connects to it.
    pub fn start() -> std::io::Result<Self> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        stream.set_nodelay(true)?;
        let (mut theirs, _) = listener.accept()?;
        theirs.set_nodelay(true)?;
        let peer = std::thread::Builder::new()
            .name("ledger-echo".into())
            .spawn(move || {
                let mut byte = [0u8; 1];
                while theirs.read_exact(&mut byte).is_ok() && theirs.write_all(&byte).is_ok() {}
            })?;
        Ok(Self {
            stream,
            peer: Some(peer),
        })
    }

    /// Times one round trip.
    pub fn round_trip(&mut self) -> std::io::Result<Duration> {
        let start = Instant::now();
        self.stream.write_all(&[1])?;
        let mut byte = [0u8; 1];
        self.stream.read_exact(&mut byte)?;
        Ok(start.elapsed())
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        // Closing this end ends the peer's read loop.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(peer) = self.peer.take() {
            let _ = peer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::gen;

    #[test]
    fn counts_the_components_the_library_counts() {
        for g in [
            gen::random_gnm(500, 400, 3),
            gen::torus2d(8, 8),
            gen::random_connected(300, 300, 4),
        ] {
            let (_, components) = bfs(&g);
            assert_eq!(components, st_graph::validate::count_components(&g));
        }
    }

    #[test]
    fn echo_round_trips_until_dropped() {
        let mut echo = Echo::start().expect("loopback is available");
        for _ in 0..3 {
            assert!(echo.round_trip().expect("the peer answers") > Duration::ZERO);
        }
        drop(echo); // joins the peer: must not hang
    }
}
