//! Catalog-addressed job descriptions.
//!
//! The in-process [`JobBuilder`](crate::JobBuilder) carries a live
//! `Arc<CsrGraph>` and a boxed algorithm — neither of which can cross a
//! wire or key a cache. A [`JobSpec`] is the serializable alternative:
//! it names its graph by [`GraphId`], its algorithm by [`AlgorithmId`],
//! and pins the traversal seed, so the whole description is a handful
//! of integers. The service resolves the id against its
//! [`GraphCatalog`](crate::GraphCatalog) at submission, checks the
//! result cache, and only then instantiates the algorithm.

use std::time::Duration;

use st_core::engine::SpanningAlgorithm;
use st_core::hcs::Hcs;
use st_core::sv::{Sv, SvConfig};
use st_core::{BaderCong, Config, TraversalConfig};

use crate::catalog::{GraphId, GraphRef};
use crate::job::Priority;

/// Default traversal seed, matching
/// [`TraversalConfig::default`](st_core::TraversalConfig)'s `0x5eed`.
pub const DEFAULT_SEED: u64 = 0x5eed;

/// The algorithms a catalog-addressed job can name.
///
/// Each variant has a stable wire code ([`code`](Self::code)) used by
/// the TCP protocol and a lowercase name used in logs and listings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AlgorithmId {
    /// The paper's work-stealing graph traversal (the default).
    #[default]
    BaderCong,
    /// Shiloach–Vishkin graft-and-shortcut.
    Sv,
    /// Hybrid connected-components + spanning structure.
    Hcs,
}

impl AlgorithmId {
    /// Every algorithm, in wire-code order.
    pub const ALL: [AlgorithmId; 3] = [AlgorithmId::BaderCong, AlgorithmId::Sv, AlgorithmId::Hcs];

    /// Stable one-byte wire code.
    ///
    /// Code 1 is retired (it named the multi-root traversal driver) and
    /// must never be reused: a client that still sends it gets a typed
    /// `Malformed` reply, not another algorithm.
    pub fn code(self) -> u8 {
        match self {
            AlgorithmId::BaderCong => 0,
            AlgorithmId::Sv => 2,
            AlgorithmId::Hcs => 3,
        }
    }

    /// Inverse of [`code`](Self::code).
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|a| a.code() == code)
    }

    /// Lowercase display name.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmId::BaderCong => "bader-cong",
            AlgorithmId::Sv => "sv",
            AlgorithmId::Hcs => "hcs",
        }
    }

    /// Builds the boxed engine algorithm this id names, with the
    /// traversal RNG seeded at `seed` (ignored by the traversal-free
    /// SV and HCS kernels).
    pub(crate) fn instantiate(self, seed: u64) -> Box<dyn SpanningAlgorithm + Send + Sync> {
        let traversal = TraversalConfig {
            seed,
            ..TraversalConfig::default()
        };
        match self {
            AlgorithmId::BaderCong => Box::new(BaderCong::new(Config {
                traversal,
                ..Config::default()
            })),
            AlgorithmId::Sv => Box::new(Sv::new(SvConfig::default())),
            AlgorithmId::Hcs => Box::new(Hcs),
        }
    }
}

impl std::fmt::Display for AlgorithmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a job names its graph: by id at whatever version is live when
/// the service admits it, or pinned to one exact published version.
///
/// `From` impls make both spellings ergonomic at the call site —
/// `JobSpec::new(gref)` pins, `JobSpec::new(gref.id)` floats:
///
/// ```
/// use st_service::{GraphId, GraphRef, GraphSel};
/// let gref = GraphRef { id: GraphId(3), version: 2 };
/// assert_eq!(GraphSel::from(gref.id), GraphSel::Latest(GraphId(3)));
/// assert_eq!(GraphSel::from(gref), GraphSel::Pinned(gref));
/// ```
///
/// A pinned submission whose version is no longer live (and whose
/// result is no longer cached) fails with
/// [`JobError::StaleVersion`](crate::JobError::StaleVersion) instead of
/// silently running against different bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphSel {
    /// Resolve to the live version at admission (the pre-batch-update
    /// behavior of raw-id submissions).
    Latest(GraphId),
    /// Require this exact `(id, version)`.
    Pinned(GraphRef),
}

impl GraphSel {
    /// The catalog id, regardless of pinning.
    pub fn id(self) -> GraphId {
        match self {
            GraphSel::Latest(id) => id,
            GraphSel::Pinned(r) => r.id,
        }
    }

    /// The pinned version, when there is one.
    pub fn pinned_version(self) -> Option<u32> {
        match self {
            GraphSel::Latest(_) => None,
            GraphSel::Pinned(r) => Some(r.version),
        }
    }
}

impl From<GraphId> for GraphSel {
    fn from(id: GraphId) -> Self {
        GraphSel::Latest(id)
    }
}

impl From<GraphRef> for GraphSel {
    fn from(r: GraphRef) -> Self {
        GraphSel::Pinned(r)
    }
}

impl std::fmt::Display for GraphSel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphSel::Latest(id) => write!(f, "{id}@latest"),
            GraphSel::Pinned(r) => write!(f, "{}@v{}", r.id, r.version),
        }
    }
}

/// A complete, serializable description of one job.
///
/// This is the unit both the TCP front-end and the result cache speak:
/// everything that determines the output (graph, algorithm, seed,
/// requested width) plus the scheduling envelope (priority, deadline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Which catalog graph to span: latest-at-admission or pinned to
    /// an exact version.
    pub graph: GraphSel,
    /// Which algorithm to run.
    pub algorithm: AlgorithmId,
    /// Traversal RNG seed ([`DEFAULT_SEED`] by default).
    pub seed: u64,
    /// Admission priority class.
    pub priority: Priority,
    /// Deadline measured from submission (queue wait + execution).
    pub deadline: Option<Duration>,
    /// Explicit team-width request; `None` lets the sizing oracle pick.
    pub processors: Option<usize>,
    /// Pre-minted trace id, set by front-ends (the TCP server mints one
    /// at `SUBMIT` parse so the wire reply and the journal agree);
    /// `None` lets the service mint one at submission. Not part of the
    /// job's identity — the result cache ignores it.
    pub trace: Option<u64>,
    /// Tenant id the per-tenant queued-job quota is charged against
    /// (0, the default, is the shared anonymous tenant). Not part of
    /// the job's identity — the result cache ignores it.
    pub tenant: u64,
}

impl JobSpec {
    /// A default-algorithm, default-seed, normal-priority spec for
    /// `graph` — a [`GraphId`] (run against the latest version) or a
    /// [`GraphRef`] (pin to that exact version).
    pub fn new(graph: impl Into<GraphSel>) -> Self {
        Self {
            graph: graph.into(),
            algorithm: AlgorithmId::default(),
            seed: DEFAULT_SEED,
            priority: Priority::Normal,
            deadline: None,
            processors: None,
            trace: None,
            tenant: 0,
        }
    }

    /// Selects the algorithm.
    pub fn algorithm(mut self, algo: AlgorithmId) -> Self {
        self.algorithm = algo;
        self
    }

    /// Sets the traversal seed (distinct seeds cache separately).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the admission priority.
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Attaches a deadline covering queue wait plus execution.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Requests an explicit team width.
    pub fn processors(mut self, p: usize) -> Self {
        self.processors = Some(p);
        self
    }

    /// Attaches a pre-minted trace id (front-ends that must report the
    /// id before the service sees the spec).
    pub fn trace(mut self, trace: u64) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Names the tenant whose queued-job quota this submission is
    /// charged against (0 = the shared anonymous tenant).
    pub fn tenant(mut self, tenant: u64) -> Self {
        self.tenant = tenant;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_codes_roundtrip() {
        for algo in AlgorithmId::ALL {
            assert_eq!(AlgorithmId::from_code(algo.code()), Some(algo));
        }
        assert_eq!(AlgorithmId::from_code(1), None, "code 1 is retired");
        assert_eq!(AlgorithmId::from_code(200), None);
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> =
            AlgorithmId::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), AlgorithmId::ALL.len());
    }

    #[test]
    fn spec_builder_chains() {
        let spec = JobSpec::new(GraphId(3))
            .algorithm(AlgorithmId::Sv)
            .seed(42)
            .priority(Priority::High)
            .deadline(Duration::from_secs(1))
            .processors(4)
            .tenant(17);
        assert_eq!(spec.graph, GraphSel::Latest(GraphId(3)));
        assert_eq!(spec.algorithm, AlgorithmId::Sv);
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.priority, Priority::High);
        assert_eq!(spec.deadline, Some(Duration::from_secs(1)));
        assert_eq!(spec.processors, Some(4));
        assert_eq!(spec.tenant, 17);
    }

    #[test]
    fn graph_selectors_pin_or_float() {
        let gref = GraphRef {
            id: GraphId(5),
            version: 3,
        };
        let floating = JobSpec::new(gref.id);
        assert_eq!(floating.graph, GraphSel::Latest(GraphId(5)));
        assert_eq!(floating.graph.id(), GraphId(5));
        assert_eq!(floating.graph.pinned_version(), None);
        let pinned = JobSpec::new(gref);
        assert_eq!(pinned.graph, GraphSel::Pinned(gref));
        assert_eq!(pinned.graph.id(), GraphId(5));
        assert_eq!(pinned.graph.pinned_version(), Some(3));
        assert_eq!(floating.graph.to_string(), "g5@latest");
        assert_eq!(pinned.graph.to_string(), "g5@v3");
    }

    #[test]
    fn defaults_match_the_in_process_path() {
        let spec = JobSpec::new(GraphId(0));
        assert_eq!(spec.algorithm, AlgorithmId::BaderCong);
        assert_eq!(spec.seed, DEFAULT_SEED);
        assert_eq!(spec.priority, Priority::Normal);
        assert_eq!(spec.deadline, None);
        assert_eq!(spec.processors, None);
        assert_eq!(spec.trace, None);
        assert_eq!(spec.tenant, 0, "anonymous tenant by default");
        assert_eq!(spec.trace(9).trace, Some(9));
    }

    #[test]
    fn every_algorithm_instantiates_and_runs() {
        use st_core::engine::Workspace;
        let g = st_graph::gen::torus2d(8, 8);
        let pool = st_smp::ExecutorPool::new(st_smp::ladder(2));
        let mut ws = Workspace::new();
        for algo in AlgorithmId::ALL {
            let boxed = algo.instantiate(7);
            let lease = pool.lease(2);
            let forest = boxed
                .run(&g, &lease, &mut ws, &st_smp::CancelToken::new())
                .unwrap_or_else(|_| panic!("{algo} cancelled unexpectedly"));
            assert_eq!(forest.num_trees(), 1, "{algo}");
            assert!(forest.is_valid_for(&g), "{algo}");
        }
    }
}
