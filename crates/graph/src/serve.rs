//! Typed graph queries for the serving layer.
//!
//! [`GraphQuery`] is the wire-level request a multi-tenant
//! [`cosparse::GraphService`] answers: a BFS or SSSP from
//! a source vertex, or a PageRank snapshot. Each query runs the full
//! iterative engine loop ([`crate::run_algorithm`]) on whichever worker
//! session picks it up, and returns a [`QueryAnswer`] holding the final
//! per-vertex state — bit-identical to a dedicated [`Engine`] run on
//! the same graph, under every backend.
//!
//! ```
//! use cosparse::{ExecBackend, ServeConfig};
//! use graph::serve::{start_service, GraphQuery};
//! use graph::Engine;
//! use transmuter::{Geometry, MicroArch};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let adj = sparse::generate::rmat(9, 4_000, Default::default(), 42)?;
//! let graph = Engine::shared_graph(&adj, Geometry::new(2, 4), MicroArch::paper());
//! let service = start_service(graph, ServeConfig::default());
//!
//! let bfs = service.submit(GraphQuery::Bfs { source: 0 }.into_job());
//! // `damping` carries the teleport probability: 0.15 is the paper's
//! // damping factor of 0.85.
//! let pr = service.submit(GraphQuery::PageRank { damping: 0.15, iterations: 10 }.into_job());
//! let parents = bfs.wait()?;
//! let ranks = pr.wait()?;
//! println!("{:?} then {:?}", parents, ranks);
//! service.shutdown();
//! # Ok(())
//! # }
//! ```

use crate::bfs::Bfs;
use crate::engine::run_algorithm;
use crate::pagerank::PageRank;
use crate::sssp::Sssp;
use cosparse::{CoSparse, GraphService, ServeConfig, SharedGraph};
use sparse::Idx;
use std::sync::Arc;
use transmuter::SimError;

#[allow(unused_imports)] // rustdoc link target
use crate::engine::Engine;

/// One serving-layer request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphQuery {
    /// Breadth-first search from `source`; answers parent pointers.
    Bfs {
        /// Root vertex.
        source: Idx,
    },
    /// Single-source shortest paths from `source`; answers distances.
    Sssp {
        /// Source vertex.
        source: Idx,
    },
    /// A PageRank snapshot; answers the rank vector.
    PageRank {
        /// Despite its name, the *teleport probability* `alpha` in
        /// `(0, 1)`, passed to [`PageRank::new`]: the damping factor is
        /// `1 - damping`. The paper's damping factor of 0.85 is
        /// `damping: 0.15`.
        damping: f32,
        /// Power iterations to run.
        iterations: usize,
    },
}

/// A query's result: the algorithm's final per-vertex state.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryAnswer {
    /// BFS parent of every vertex (`u32::MAX` = unreached).
    Bfs(Vec<u32>),
    /// SSSP distance of every vertex (`∞` = unreached).
    Sssp(Vec<f32>),
    /// PageRank of every vertex.
    PageRank(Vec<f32>),
}

/// What a ticket resolves to.
pub type Answer = Result<QueryAnswer, SimError>;

impl GraphQuery {
    /// Runs the query's full engine loop on `session` (a worker's, or
    /// any session over the graph the query targets).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from the underlying steps.
    pub fn run(self, session: &mut CoSparse) -> Answer {
        // The session's matrix is the transposed adjacency, so its
        // column count is the vertex count.
        let n = session.matrix().cols();
        match self {
            GraphQuery::Bfs { source } => {
                run_algorithm(session, n, &Bfs::new(source)).map(|run| QueryAnswer::Bfs(run.state))
            }
            GraphQuery::Sssp { source } => run_algorithm(session, n, &Sssp::new(source))
                .map(|run| QueryAnswer::Sssp(run.state)),
            GraphQuery::PageRank {
                damping,
                iterations,
            } => run_algorithm(session, n, &PageRank::new(damping, iterations))
                .map(|run| QueryAnswer::PageRank(run.state)),
        }
    }

    /// The query as a submittable job closure (the form
    /// [`GraphService::submit`] takes).
    pub fn into_job(self) -> impl FnOnce(&mut CoSparse) -> Answer + Send + 'static {
        move |session| self.run(session)
    }

    /// A key identifying this query's answer over one graph content
    /// epoch, for [`GraphService::submit_cached`]: the variant tag and
    /// every query input bit-packed into a `u64`. Two queries share a
    /// key iff they are the same request, so a cached answer is always
    /// bit-identical to a fresh run (the engines are deterministic).
    pub fn cache_key(self) -> u64 {
        match self {
            GraphQuery::Bfs { source } => (1 << 60) | u64::from(source),
            GraphQuery::Sssp { source } => (2 << 60) | u64::from(source),
            GraphQuery::PageRank {
                damping,
                iterations,
            } => {
                // 4 bits tag | 32 bits damping | 28 bits iterations.
                (3 << 60) | (u64::from(damping.to_bits()) << 28) | (iterations as u64 & 0xFFF_FFFF)
            }
        }
    }

    /// Submits this query through the service's same-source memo:
    /// identical queries on an unchanged graph are answered from cache
    /// (see [`GraphService::submit_cached`] for the counting contract).
    pub fn submit_cached(self, service: &GraphService<Answer>) -> cosparse::Ticket<Answer> {
        service.submit_cached(self.cache_key(), self.into_job())
    }
}

/// Starts a [`GraphService`] answering [`GraphQuery`]s over `graph`
/// (built with [`Engine::shared_graph`] — the service expects the
/// transposed-adjacency convention).
pub fn start_service(graph: Arc<SharedGraph>, config: ServeConfig) -> GraphService<Answer> {
    GraphService::start(graph, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use cosparse::ExecBackend;
    use transmuter::{Geometry, Machine, MicroArch};

    #[test]
    fn query_matches_dedicated_engine() {
        let adj = sparse::generate::rmat(8, 2000, Default::default(), 3).unwrap();
        let geometry = Geometry::new(2, 4);
        let machine = || Machine::new(geometry, MicroArch::paper());

        let mut engine = Engine::new(&adj, machine());
        let want = engine.run(&Bfs::new(1)).unwrap().state;

        let graph = Engine::shared_graph(&adj, geometry, MicroArch::paper());
        let mut session = graph.session();
        session.set_backend(ExecBackend::Simulate);
        let got = GraphQuery::Bfs { source: 1 }.run(&mut session).unwrap();
        assert_eq!(got, QueryAnswer::Bfs(want));
    }
}
