//! The iterative graph-analytics engine.
//!
//! Runs an [`Algorithm`] as repeated CoSPARSE SpMV steps: each
//! iteration the runtime re-decides the software/hardware configuration
//! from the frontier density (`f_next = SpMV(G.T, f)`, paper §III),
//! and the engine records per-iteration densities, chosen
//! configurations and simulated costs — the raw material of the
//! paper's Figure 9 case study.

use cosparse::{CoSparse, ExecBackend, GraphOp, SharedGraph, Update};
use sparse::{CooMatrix, Idx};
use std::sync::Arc;
use transmuter::{Geometry, HwConfig, Machine, MicroArch, SimError, SimReport};

/// Value type of an algorithm.
pub type Value<A> = <<A as Algorithm>::Op as GraphOp>::Value;

/// An iterative graph algorithm expressed over the SpMV abstraction.
pub trait Algorithm {
    /// The Table I op driving each SpMV.
    type Op: GraphOp;

    /// Lower-case display name ("bfs", "pr", ...).
    fn name(&self) -> &'static str;

    /// Builds the op instance for a graph with `vertices` vertices
    /// (PageRank's teleport term needs `N`).
    fn op(&self, vertices: usize) -> Self::Op;

    /// Initial per-vertex state.
    fn initial_state(&self, vertices: usize) -> Vec<Value<Self>>;

    /// Initial frontier `(vertex, frontier value)` pairs, sorted.
    fn initial_frontier(&self, vertices: usize) -> Vec<(Idx, Value<Self>)>;

    /// Frontier value carried by a vertex updated to `new_value`.
    fn frontier_value(&self, vertex: Idx, new_value: Value<Self>) -> Value<Self>;

    /// True for algorithms whose frontier is always every vertex
    /// (PageRank, CF). The engine then rebuilds the full frontier from
    /// state each iteration instead of from the update set.
    fn dense_frontier(&self) -> bool {
        false
    }

    /// Value taken by vertices that received *no* contribution this
    /// iteration (PageRank's teleport term); `None` keeps the old value.
    fn background_update(&self, vertices: usize, old: Value<Self>) -> Option<Value<Self>> {
        let _ = (vertices, old);
        None
    }

    /// Iteration cap.
    fn max_iterations(&self, vertices: usize) -> usize;
}

/// One engine iteration's bookkeeping. Under [`ExecBackend::Host`] no
/// decision runs: the record names the kernel that ran (see
/// [`ExecBackend::Host`]).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Iteration number (0-based).
    pub iteration: usize,
    /// Frontier density entering the iteration.
    pub frontier_density: f64,
    /// Dataflow the runtime chose.
    pub software: cosparse::SwConfig,
    /// Memory configuration the runtime chose.
    pub hardware: HwConfig,
    /// Locality reordering the runtime chose (simulated address stream
    /// only; `state` is always in the original vertex space).
    pub reorder: cosparse::ReorderKind,
    /// Simulated cost of the iteration.
    pub report: SimReport,
    /// Number of state updates produced.
    pub updates: usize,
}

/// Result of a full algorithm run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult<V> {
    /// Final per-vertex state.
    pub state: Vec<V>,
    /// Per-iteration records.
    pub iterations: Vec<IterationRecord>,
}

impl<V> RunResult<V> {
    /// Total simulated cycles across iterations.
    pub fn total_cycles(&self) -> u64 {
        self.iterations.iter().map(|r| r.report.cycles).sum()
    }

    /// Peak frontier density over the run (0.0 if no iterations ran).
    pub fn peak_density(&self) -> f64 {
        self.iterations
            .iter()
            .map(|r| r.frontier_density)
            .fold(0.0, f64::max)
    }

    /// Number of software (dataflow) switches between consecutive
    /// iterations — BFS/SSSP on social graphs show the paper's
    /// sparse→dense→sparse double switch.
    pub fn software_switches(&self) -> usize {
        self.iterations
            .windows(2)
            .filter(|w| w[0].software != w[1].software)
            .count()
    }

    /// How many iterations ran under each (software, hardware)
    /// configuration, in first-seen order.
    pub fn config_histogram(&self) -> Vec<((cosparse::SwConfig, HwConfig), usize)> {
        let mut hist: Vec<((cosparse::SwConfig, HwConfig), usize)> = Vec::new();
        for it in &self.iterations {
            let key = (it.software, it.hardware);
            match hist.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n += 1,
                None => hist.push((key, 1)),
            }
        }
        hist
    }

    /// Total simulated energy in joules.
    pub fn total_joules(&self) -> f64 {
        self.iterations.iter().map(|r| r.report.joules()).sum()
    }

    /// Total simulated seconds.
    pub fn total_seconds(&self) -> f64 {
        self.iterations.iter().map(|r| r.report.seconds).sum()
    }
}

/// The iterative driver binding an adjacency matrix to a CoSPARSE
/// runtime.
#[derive(Debug)]
pub struct Engine {
    runtime: CoSparse,
    vertices: usize,
}

impl Engine {
    /// Builds an engine for `adjacency` (edge `u → v` stored as entry
    /// `(u, v)`) on `machine`. The runtime operates on the transposed
    /// matrix so destinations reduce over in-edges.
    ///
    /// The shared graph state is built privately for this engine; when
    /// several engines (or a [`cosparse::GraphService`]) run over one
    /// graph, build it once with [`Engine::shared_graph`] and open each
    /// engine with [`Engine::with_shared`] so layout/CSC/programs are
    /// derived a single time.
    pub fn new(adjacency: &CooMatrix, machine: Machine) -> Self {
        let shared = Engine::shared_graph(adjacency, machine.geometry(), machine.uarch().clone());
        Engine::with_shared(&shared, machine)
    }

    /// Builds the shared, `Arc`-handed graph state engines run over:
    /// the *transposed* adjacency (so destinations reduce over
    /// in-edges) with all matrix-derived artifacts shared between every
    /// session opened on it.
    pub fn shared_graph(
        adjacency: &CooMatrix,
        geometry: Geometry,
        uarch: MicroArch,
    ) -> Arc<SharedGraph> {
        SharedGraph::new(&adjacency.transpose(), geometry, uarch)
    }

    /// Opens an engine over an already-built shared graph (from
    /// [`Engine::shared_graph`]) with a fresh session machine. N
    /// engines opened this way share one layout/CSC/program cache
    /// (observable via [`SharedGraph::cache_stats`]).
    pub fn with_shared(shared: &Arc<SharedGraph>, machine: Machine) -> Self {
        // The stored matrix is the transposed adjacency: vertices =
        // its column count (= original row count).
        let vertices = shared.matrix().cols();
        Engine {
            runtime: CoSparse::with_shared(Arc::clone(shared), machine),
            vertices,
        }
    }

    /// Number of vertices.
    pub fn vertices(&self) -> usize {
        self.vertices
    }

    /// The underlying runtime (to set policy, thresholds or balancing).
    pub fn runtime_mut(&mut self) -> &mut CoSparse {
        &mut self.runtime
    }

    /// Selects the execution backend ([`ExecBackend::Simulate`] is the
    /// default) — a convenience over [`Engine::runtime_mut`].
    pub fn set_backend(&mut self, backend: ExecBackend) {
        self.runtime.set_backend(backend);
    }

    /// The underlying runtime, immutably.
    pub fn runtime(&self) -> &CoSparse {
        &self.runtime
    }

    /// Runs `algorithm` to convergence (empty frontier / no updates) or
    /// its iteration cap.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run<A: Algorithm>(&mut self, algorithm: &A) -> Result<RunResult<Value<A>>, SimError> {
        run_algorithm(&mut self.runtime, self.vertices, algorithm)
    }
}

/// Runs `algorithm` over `vertices` vertices on a bare session until
/// convergence (empty frontier / no updates) or its iteration cap —
/// the engine loop, usable without an [`Engine`] wrapper (serve-layer
/// queries drive the worker's session directly).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_algorithm<A: Algorithm>(
    runtime: &mut CoSparse,
    vertices: usize,
    algorithm: &A,
) -> Result<RunResult<Value<A>>, SimError> {
    let n = vertices;
    let op = algorithm.op(n);
    let mut state = algorithm.initial_state(n);
    assert_eq!(state.len(), n, "initial state must cover every vertex");
    let mut frontier = algorithm.initial_frontier(n);
    // Double-buffered frontier: the next iteration's pairs are
    // staged here and swapped in, so the steady state allocates
    // nothing per iteration.
    let mut staged: Vec<(Idx, Value<A>)> = Vec::new();
    let mut iterations = Vec::new();

    for iteration in 0..algorithm.max_iterations(n) {
        if frontier.is_empty() {
            break;
        }
        let density = frontier.len() as f64 / n.max(1) as f64;
        let out = runtime.step(&op, &frontier, &state)?;
        let update_count = out.updates.len();

        apply_updates(algorithm, &mut state, &out.updates);
        iterations.push(IterationRecord {
            iteration,
            frontier_density: density,
            software: out.software,
            hardware: out.hardware,
            reorder: out.reorder,
            report: out.report,
            updates: update_count,
        });

        staged.clear();
        if algorithm.dense_frontier() {
            staged.extend((0..n).map(|v| (v as Idx, algorithm.frontier_value(v as Idx, state[v]))));
            if update_count == 0 {
                break;
            }
        } else {
            staged.extend(
                out.updates
                    .iter()
                    .map(|&(dst, v)| (dst, algorithm.frontier_value(dst, v))),
            );
        }
        std::mem::swap(&mut frontier, &mut staged);
    }
    Ok(RunResult { state, iterations })
}

fn apply_updates<A: Algorithm>(
    algorithm: &A,
    state: &mut [Value<A>],
    updates: &[Update<Value<A>>],
) {
    if state.is_empty() {
        return;
    }
    let n = state.len();
    // Algorithms either always provide a background value (PageRank's
    // teleport term) or never do; probe once.
    let has_background = algorithm.background_update(n, state[0]).is_some();
    if has_background {
        // Walk both sorted sequences: updated vertices take their new
        // value, the rest take the background.
        let mut it = updates.iter().peekable();
        for (v, slot) in state.iter_mut().enumerate() {
            match it.peek() {
                Some(&&(dst, val)) if dst as usize == v => {
                    *slot = val;
                    it.next();
                }
                _ => {
                    if let Some(bg) = algorithm.background_update(n, *slot) {
                        *slot = bg;
                    }
                }
            }
        }
    } else {
        for &(dst, val) in updates {
            state[dst as usize] = val;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::Bfs;
    use transmuter::{Geometry, MicroArch, SimReport};

    fn dummy_record(
        iteration: usize,
        density: f64,
        software: cosparse::SwConfig,
    ) -> IterationRecord {
        let geometry = Geometry::new(1, 1);
        let mut machine = Machine::new(geometry, MicroArch::paper());
        let report: SimReport = machine
            .run(&transmuter::ProgramSet::new(geometry))
            .expect("empty run");
        IterationRecord {
            iteration,
            frontier_density: density,
            software,
            hardware: HwConfig::Sc,
            reorder: cosparse::ReorderKind::None,
            report,
            updates: 0,
        }
    }

    #[test]
    fn run_result_helpers() {
        use cosparse::SwConfig::{InnerProduct as Ip, OuterProduct as Op};
        let run = RunResult {
            state: vec![0u32],
            iterations: vec![
                dummy_record(0, 0.001, Op),
                dummy_record(1, 0.3, Ip),
                dummy_record(2, 0.5, Ip),
                dummy_record(3, 0.002, Op),
            ],
        };
        assert_eq!(run.peak_density(), 0.5);
        assert_eq!(run.software_switches(), 2);
        let hist = run.config_histogram();
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[0], ((Op, HwConfig::Sc), 2));
        assert_eq!(hist[1], ((Ip, HwConfig::Sc), 2));
    }

    #[test]
    fn empty_run_helpers() {
        let run: RunResult<u32> = RunResult {
            state: vec![],
            iterations: vec![],
        };
        assert_eq!(run.peak_density(), 0.0);
        assert_eq!(run.software_switches(), 0);
        assert!(run.config_histogram().is_empty());
        assert_eq!(run.total_cycles(), 0);
    }

    #[test]
    fn engine_counts_vertices() {
        let adj = sparse::CooMatrix::from_triplets(8, 8, vec![(0, 1, 1.0)]).unwrap();
        let mut e = Engine::new(&adj, Machine::new(Geometry::new(1, 2), MicroArch::paper()));
        assert_eq!(e.vertices(), 8);
        let r = e.run(&Bfs::new(0)).unwrap();
        assert_eq!(r.state.len(), 8);
    }
}
