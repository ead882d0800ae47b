//! Single-source Betweenness Centrality (Brandes) on CoSPARSE — an
//! extension beyond the paper's four algorithms, and Ligra's flagship
//! two-phase app.
//!
//! BC needs a forward level/path-count sweep over in-edges and a
//! backward dependency sweep over out-edges, processing one BFS level
//! per SpMV. Both phases are frontier-driven with the same
//! sparse→dense→sparse density trajectory as BFS, so CoSPARSE
//! re-decides the configuration for **every level of both phases**;
//! unweighted path counts and dependencies are evaluated functionally
//! on the host (the standard split — see DESIGN.md §2).

use cosparse::{CoSparse, ExecBackend, OpProfile, SwConfig};
use sparse::{CooMatrix, CsrMatrix, Idx};
use transmuter::{Geometry, HwConfig, Machine, MicroArch, SimError, SimReport};

/// One simulated level of a BC phase.
#[derive(Debug, Clone, PartialEq)]
pub struct BcLevelRecord {
    /// Phase: forward (path counting) or backward (dependencies).
    pub phase: Phase,
    /// BFS depth of the level.
    pub depth: usize,
    /// Frontier density entering the level.
    pub frontier_density: f64,
    /// Configuration the runtime chose.
    pub software: SwConfig,
    /// Hardware configuration.
    pub hardware: HwConfig,
    /// Simulated cost.
    pub report: SimReport,
}

/// BC phase marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Forward breadth-first path counting.
    Forward,
    /// Backward dependency accumulation.
    Backward,
}

/// Result of one single-source BC run.
#[derive(Debug, Clone, PartialEq)]
pub struct BcResult {
    /// Per-vertex dependency scores (the source's contribution to each
    /// vertex's betweenness).
    pub centrality: Vec<f32>,
    /// Per-level simulation records, forward then backward.
    pub levels: Vec<BcLevelRecord>,
}

impl BcResult {
    /// Total simulated cycles over both phases.
    pub fn total_cycles(&self) -> u64 {
        self.levels.iter().map(|l| l.report.cycles).sum()
    }

    /// Total simulated energy in joules.
    pub fn total_joules(&self) -> f64 {
        self.levels.iter().map(|l| l.report.joules()).sum()
    }
}

/// Runs single-source BC from `source` on `adjacency`, simulating on
/// two machines of the given geometry (forward phase operates on
/// in-edges, backward on out-edges; the real system would hold both
/// matrix copies like §III-D.2's COO+CSC pair).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn betweenness(
    adjacency: &CooMatrix,
    source: Idx,
    geometry: Geometry,
) -> Result<BcResult, SimError> {
    betweenness_on(adjacency, source, geometry, ExecBackend::Simulate)
}

/// [`betweenness`] on an explicit execution backend. Under
/// [`ExecBackend::Host`] the per-level `execute` calls skip the
/// simulator (reports carry zero cycles); the path-count and dependency
/// math is host-evaluated either way, so the centrality scores are
/// identical across backends.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn betweenness_on(
    adjacency: &CooMatrix,
    source: Idx,
    geometry: Geometry,
    backend: ExecBackend,
) -> Result<BcResult, SimError> {
    let n = adjacency.rows();
    let out_edges = CsrMatrix::from(adjacency);
    let profile = OpProfile {
        value_words: 1,
        extra_compute_per_edge: 2,
        vector_op_compute: 2,
    };

    let transposed = adjacency.transpose();
    let mut forward_rt = CoSparse::new(&transposed, Machine::new(geometry, MicroArch::paper()));
    let mut backward_rt = CoSparse::new(adjacency, Machine::new(geometry, MicroArch::paper()));
    forward_rt.set_backend(backend);
    backward_rt.set_backend(backend);

    // --- forward: levels + path counts (host math, simulated timing) ---
    let mut level = vec![u32::MAX; n];
    let mut sigma = vec![0.0f64; n];
    let mut levels: Vec<Vec<Idx>> = Vec::new();
    let mut records = Vec::new();
    if (source as usize) < n {
        level[source as usize] = 0;
        sigma[source as usize] = 1.0;
        levels.push(vec![source]);
    }
    let mut depth = 0usize;
    while depth < levels.len() {
        let frontier = levels[depth].clone();
        if frontier.is_empty() {
            break;
        }
        let density = frontier.len() as f64 / n.max(1) as f64;
        let decision = forward_rt.decide_exact(frontier.len(), &profile);
        let report = forward_rt.execute(decision, &frontier, &profile)?;
        records.push(BcLevelRecord {
            phase: Phase::Forward,
            depth,
            frontier_density: density,
            software: decision.software,
            hardware: decision.hardware,
            report,
        });
        // Host math: extend levels and accumulate path counts.
        let mut next: Vec<Idx> = Vec::new();
        for &u in &frontier {
            let (dsts, _) = out_edges.row(u as usize);
            for &v in dsts {
                if level[v as usize] == u32::MAX {
                    level[v as usize] = depth as u32 + 1;
                    next.push(v);
                }
                if level[v as usize] == depth as u32 + 1 {
                    sigma[v as usize] += sigma[u as usize];
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        if !next.is_empty() {
            levels.push(next);
        }
        depth += 1;
    }

    // --- backward: dependency accumulation, deepest level first -------
    let mut delta = vec![0.0f64; n];
    for depth in (1..levels.len()).rev() {
        let frontier = levels[depth].clone();
        let density = frontier.len() as f64 / n.max(1) as f64;
        let decision = backward_rt.decide_exact(frontier.len(), &profile);
        let report = backward_rt.execute(decision, &frontier, &profile)?;
        records.push(BcLevelRecord {
            phase: Phase::Backward,
            depth,
            frontier_density: density,
            software: decision.software,
            hardware: decision.hardware,
            report,
        });
        // Host math: predecessors of the frontier accumulate dependency.
        for &u in &levels[depth - 1] {
            let (dsts, _) = out_edges.row(u as usize);
            let mut acc = 0.0f64;
            for &v in dsts {
                if level[v as usize] == depth as u32 && sigma[v as usize] > 0.0 {
                    acc += sigma[u as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
                }
            }
            delta[u as usize] += acc;
        }
    }
    let mut centrality: Vec<f32> = delta.iter().map(|&d| d as f32).collect();
    if (source as usize) < n {
        centrality[source as usize] = 0.0;
    }
    Ok(BcResult {
        centrality,
        levels: records,
    })
}

/// Host reference: textbook Brandes, single source.
pub fn reference(adjacency: &CsrMatrix, source: Idx) -> Vec<f32> {
    let n = adjacency.rows();
    let mut centrality = vec![0.0f64; n];
    if (source as usize) >= n {
        return centrality.iter().map(|&x| x as f32).collect();
    }
    let mut level = vec![i64::MAX; n];
    let mut sigma = vec![0.0f64; n];
    let mut order: Vec<Idx> = Vec::new();
    level[source as usize] = 0;
    sigma[source as usize] = 1.0;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        let (dsts, _) = adjacency.row(u as usize);
        for &v in dsts {
            if level[v as usize] == i64::MAX {
                level[v as usize] = level[u as usize] + 1;
                queue.push_back(v);
            }
            if level[v as usize] == level[u as usize] + 1 {
                sigma[v as usize] += sigma[u as usize];
            }
        }
    }
    let mut delta = vec![0.0f64; n];
    for &u in order.iter().rev() {
        let (dsts, _) = adjacency.row(u as usize);
        for &v in dsts {
            if level[v as usize] == level[u as usize] + 1 && sigma[v as usize] > 0.0 {
                delta[u as usize] +=
                    sigma[u as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
            }
        }
        if u != source {
            centrality[u as usize] = delta[u as usize];
        }
    }
    centrality.iter().map(|&x| x as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_brandes_on_random_graph() {
        let adj = sparse::generate::rmat(9, 4_000, Default::default(), 12).unwrap();
        let csr = CsrMatrix::from(&adj);
        let want = reference(&csr, 0);
        let got = betweenness(&adj, 0, Geometry::new(2, 4)).unwrap();
        for (v, (&a, &b)) in got.centrality.iter().zip(&want).enumerate() {
            assert!(
                (a - b).abs() < 1e-3 * b.abs().max(1.0),
                "vertex {v}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn path_graph_center_dominates() {
        // 0 → 1 → 2 → 3 → 4: middle vertices carry the paths.
        let adj =
            CooMatrix::from_triplets(5, 5, (0..4u32).map(|v| (v, v + 1, 1.0)).collect()).unwrap();
        let r = betweenness(&adj, 0, Geometry::new(1, 2)).unwrap();
        // Dependencies from source 0: δ(1)=3, δ(2)=2, δ(3)=1.
        assert_eq!(r.centrality, vec![0.0, 3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn both_phases_recorded_and_cost_cycles() {
        let adj = sparse::generate::rmat(9, 4_000, Default::default(), 3).unwrap();
        let r = betweenness(&adj, 0, Geometry::new(2, 4)).unwrap();
        assert!(r.levels.iter().any(|l| l.phase == Phase::Forward));
        assert!(r.levels.iter().any(|l| l.phase == Phase::Backward));
        assert!(r.total_cycles() > 0);
        assert!(r.total_joules() > 0.0);
        // Backward levels run deepest-first.
        let back: Vec<usize> = r
            .levels
            .iter()
            .filter(|l| l.phase == Phase::Backward)
            .map(|l| l.depth)
            .collect();
        assert!(back.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn diamond_splits_paths() {
        // 0→{1,2}→3: two shortest paths to 3; each middle vertex gets
        // δ = σ-weighted half credit.
        let adj = CooMatrix::from_triplets(
            4,
            4,
            vec![(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
        )
        .unwrap();
        let r = betweenness(&adj, 0, Geometry::new(1, 2)).unwrap();
        assert!((r.centrality[1] - 0.5).abs() < 1e-6);
        assert!((r.centrality[2] - 0.5).abs() < 1e-6);
        assert_eq!(r.centrality[3], 0.0);
    }

    #[test]
    fn unreachable_source_is_empty() {
        let adj = CooMatrix::from_triplets(3, 3, vec![(0, 1, 1.0)]).unwrap();
        let r = betweenness(&adj, 2, Geometry::new(1, 1)).unwrap();
        assert!(r.centrality.iter().all(|&c| c == 0.0));
    }
}
