//! Independent answer checks.
//!
//! Every answer the program returns is compared with a computation the
//! benchmark makes itself from the generated adjacency: a queue BFS for
//! levels, a binary-heap Dijkstra for distances and an `f64` power
//! iteration for ranks. Nothing here reads the program's own reference
//! implementations or a stored copy of an earlier answer.

use sparse::CooMatrix;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Level or parent of a vertex no traversal reached.
pub const UNREACHED: u32 = u32::MAX;

/// Relative tolerance of the PageRank check: every rank must be within
/// this share of the `f64` reference (the program sums in `f32`).
pub const PAGERANK_REL_TOL: f64 = 1e-4;

/// The benchmark's own out-adjacency of a graph (edge `u -> v` stored at
/// `(u, v)` of the generated matrix), in compressed rows.
#[derive(Debug)]
pub struct Adjacency {
    ptr: Vec<usize>,
    dst: Vec<u32>,
    /// Edge weights, kept only where a check needs them (SSSP).
    weight: Vec<f32>,
}

impl Adjacency {
    /// Builds the out-adjacency of `adj`; `weights` keeps edge weights.
    pub fn new(adj: &CooMatrix, weights: bool) -> Self {
        let n = adj.rows();
        let mut ptr = vec![0usize; n + 1];
        for t in adj.entries() {
            ptr[t.row as usize + 1] += 1;
        }
        for i in 0..n {
            ptr[i + 1] += ptr[i];
        }
        // COO entries are sorted by (row, col), so each row's
        // destinations come out ascending.
        let dst = adj.entries().iter().map(|t| t.col).collect();
        let weight = if weights {
            adj.entries().iter().map(|t| t.val).collect()
        } else {
            Vec::new()
        };
        Adjacency { ptr, dst, weight }
    }

    /// Number of vertices.
    pub fn vertices(&self) -> usize {
        self.ptr.len() - 1
    }

    /// Number of edges.
    pub fn edges(&self) -> usize {
        self.dst.len()
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: usize) -> usize {
        self.ptr[v + 1] - self.ptr[v]
    }

    fn out(&self, v: usize) -> &[u32] {
        &self.dst[self.ptr[v]..self.ptr[v + 1]]
    }

    fn out_weighted(&self, v: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let r = self.ptr[v]..self.ptr[v + 1];
        self.dst[r.clone()]
            .iter()
            .copied()
            .zip(self.weight[r].iter().copied())
    }

    fn has_edge(&self, u: usize, v: u32) -> bool {
        self.out(u).binary_search(&v).is_ok()
    }
}

/// Queue BFS from `root`: the level of every vertex ([`UNREACHED`] when
/// unreachable).
pub fn bfs_levels(adj: &Adjacency, root: u32) -> Vec<u32> {
    let mut level = vec![UNREACHED; adj.vertices()];
    let mut queue = VecDeque::new();
    level[root as usize] = 0;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        let next = level[u as usize] + 1;
        for &v in adj.out(u as usize) {
            if level[v as usize] == UNREACHED {
                level[v as usize] = next;
                queue.push_back(v);
            }
        }
    }
    level
}

/// Edges leaving the vertices a traversal reached: what one BFS or SSSP
/// query traverses (the Graph500 TEPS edge count).
pub fn traversed_edges(adj: &Adjacency, levels: &[u32]) -> u64 {
    levels
        .iter()
        .enumerate()
        .filter(|(_, &l)| l != UNREACHED)
        .map(|(v, _)| adj.out_degree(v) as u64)
        .sum()
}

/// Checks BFS parents against reference levels: unreached vertices have
/// no parent, the root is its own parent, and every other parent is an
/// in-neighbour exactly one level up.
pub fn check_bfs(
    adj: &Adjacency,
    root: u32,
    levels: &[u32],
    parents: &[u32],
) -> Result<(), String> {
    if parents.len() != levels.len() {
        return Err(format!(
            "bfs: {} parents for {} vertices",
            parents.len(),
            levels.len()
        ));
    }
    for (v, (&p, &l)) in parents.iter().zip(levels).enumerate() {
        if l == UNREACHED {
            if p != UNREACHED {
                return Err(format!("bfs: unreachable vertex {v} has parent {p}"));
            }
        } else if v == root as usize {
            if p != root {
                return Err(format!("bfs: root {root} has parent {p}"));
            }
        } else if p == UNREACHED || p as usize >= levels.len() {
            return Err(format!(
                "bfs: reachable vertex {v} (level {l}) has parent {p}"
            ));
        } else if levels[p as usize] != l - 1 || !adj.has_edge(p as usize, v as u32) {
            return Err(format!(
                "bfs: parent {p} of vertex {v} (level {l}) is not an in-neighbour one level up"
            ));
        }
    }
    Ok(())
}

/// Dijkstra from `source` over non-negative `f32` weights, adding along
/// each path in the same order the relaxation does.
pub fn dijkstra(adj: &Adjacency, source: u32) -> Vec<f32> {
    let mut dist = vec![f32::INFINITY; adj.vertices()];
    dist[source as usize] = 0.0;
    // Non-negative f32 order equals the order of their bit patterns.
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0u32, source)));
    while let Some(Reverse((bits, u))) = heap.pop() {
        let d = f32::from_bits(bits);
        if d > dist[u as usize] {
            continue;
        }
        for (v, w) in adj.out_weighted(u as usize) {
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd.to_bits(), v)));
            }
        }
    }
    dist
}

/// Checks SSSP distances: bit-equal to the reference, or, should `f32`
/// rounding ever make them differ, the same reachable set with every
/// edge relaxed (`d[v] <= d[u] + w`) and every reached vertex but the
/// source sitting on a tight in-edge (`d[v] == d[u] + w`).
pub fn check_sssp(
    adj: &Adjacency,
    source: u32,
    reference: &[f32],
    got: &[f32],
) -> Result<(), String> {
    if got.len() != reference.len() {
        return Err(format!(
            "sssp: {} distances for {} vertices",
            got.len(),
            reference.len()
        ));
    }
    if got
        .iter()
        .zip(reference)
        .all(|(a, b)| a.to_bits() == b.to_bits())
    {
        return Ok(());
    }
    if got[source as usize] != 0.0 {
        return Err(format!(
            "sssp: source {source} at distance {}",
            got[source as usize]
        ));
    }
    let mut tight = vec![false; got.len()];
    tight[source as usize] = true;
    for u in 0..got.len() {
        if got[u].is_finite() != reference[u].is_finite() || got[u].is_nan() {
            return Err(format!(
                "sssp: vertex {u} at {} but reference {}",
                got[u], reference[u]
            ));
        }
        if !got[u].is_finite() {
            continue;
        }
        for (v, w) in adj.out_weighted(u) {
            let via = got[u] + w;
            if got[v as usize] > via {
                return Err(format!(
                    "sssp: edge {u}->{v} not relaxed ({} > {via})",
                    got[v as usize]
                ));
            }
            if got[v as usize] == via {
                tight[v as usize] = true;
            }
        }
    }
    match (0..got.len()).find(|&v| got[v].is_finite() && !tight[v]) {
        Some(v) => Err(format!(
            "sssp: vertex {v} at {} has no tight in-edge",
            got[v]
        )),
        None => Ok(()),
    }
}

/// Power iteration in `f64` with the program's PageRank formula:
/// `r'[v] = alpha/n + (1 - alpha) * sum_{u -> v} r[u] / outdeg(u)`,
/// starting from `1/n`; dangling vertices contribute nothing.
pub fn pagerank(adj: &Adjacency, alpha: f64, iterations: usize) -> Vec<f64> {
    let n = adj.vertices();
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        next.iter_mut().for_each(|x| *x = 0.0);
        for (u, &r) in rank.iter().enumerate() {
            let deg = adj.out_degree(u);
            if deg > 0 {
                let share = r / deg as f64;
                for &v in adj.out(u) {
                    next[v as usize] += share;
                }
            }
        }
        for x in &mut next {
            *x = alpha / n as f64 + (1.0 - alpha) * *x;
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// Checks ranks against the `f64` reference within
/// [`PAGERANK_REL_TOL`] per vertex.
pub fn check_pagerank(reference: &[f64], got: &[f32]) -> Result<(), String> {
    if got.len() != reference.len() {
        return Err(format!(
            "pagerank: {} ranks for {} vertices",
            got.len(),
            reference.len()
        ));
    }
    for (v, (&g, &r)) in got.iter().zip(reference).enumerate() {
        let err = (g as f64 - r).abs();
        if err.is_nan() || err > PAGERANK_REL_TOL * r.abs() {
            return Err(format!("pagerank: vertex {v} has rank {g}, reference {r}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::bfs::Bfs;
    use graph::pagerank::PageRank;
    use graph::sssp::Sssp;
    use graph::Engine;
    use transmuter::{Geometry, Machine, MicroArch};

    fn fixture() -> (CooMatrix, Adjacency, Engine) {
        let adj = sparse::generate::rmat(9, 4_000, Default::default(), 7).unwrap();
        let refs = Adjacency::new(&adj, true);
        let mut engine = Engine::new(&adj, Machine::new(Geometry::new(2, 4), MicroArch::paper()));
        engine.set_backend(cosparse::ExecBackend::Host);
        (adj, refs, engine)
    }

    fn hub(adj: &Adjacency) -> u32 {
        (0..adj.vertices())
            .max_by_key(|&v| adj.out_degree(v))
            .unwrap() as u32
    }

    #[test]
    fn bfs_check_accepts_the_program_and_rejects_corruption() {
        let (_, refs, mut engine) = fixture();
        let root = hub(&refs);
        let levels = bfs_levels(&refs, root);
        let parents = engine.run(&Bfs::new(root)).unwrap().state;
        check_bfs(&refs, root, &levels, &parents).unwrap();

        let deep = (0..parents.len()).find(|&v| levels[v] >= 2).unwrap();
        let mut wrong_level = parents.clone();
        wrong_level[deep] = root; // the root sits two or more levels up
        assert!(check_bfs(&refs, root, &levels, &wrong_level).is_err());
        let mut dropped = parents.clone();
        dropped[deep] = UNREACHED;
        assert!(check_bfs(&refs, root, &levels, &dropped).is_err());
        let unreached = (0..parents.len())
            .find(|&v| levels[v] == UNREACHED)
            .unwrap();
        let mut invented = parents.clone();
        invented[unreached] = root;
        assert!(check_bfs(&refs, root, &levels, &invented).is_err());
        assert!(check_bfs(&refs, root, &levels, &parents[1..]).is_err());
    }

    #[test]
    fn sssp_check_accepts_the_program_and_rejects_corruption() {
        let (_, refs, mut engine) = fixture();
        let source = hub(&refs);
        let want = dijkstra(&refs, source);
        let got = engine.run(&Sssp::new(source)).unwrap().state;
        check_sssp(&refs, source, &want, &got).unwrap();

        let far = (0..got.len())
            .filter(|&v| got[v].is_finite() && v != source as usize)
            .max_by(|&a, &b| got[a].total_cmp(&got[b]))
            .unwrap();
        let mut longer = got.clone();
        longer[far] *= 1.5;
        assert!(check_sssp(&refs, source, &want, &longer).is_err());
        let mut shorter = got.clone();
        shorter[far] *= 0.5;
        assert!(check_sssp(&refs, source, &want, &shorter).is_err());
        let mut lost = got.clone();
        lost[far] = f32::INFINITY;
        assert!(check_sssp(&refs, source, &want, &lost).is_err());
    }

    #[test]
    fn sssp_fallback_accepts_equal_length_paths_that_round_differently() {
        // The properties, not bit equality, decide when rounding differs:
        // a tight, relaxed answer passes even against a perturbed reference.
        let (_, refs, mut engine) = fixture();
        let source = hub(&refs);
        let got = engine.run(&Sssp::new(source)).unwrap().state;
        let mut reference = got.clone();
        let v = (0..got.len())
            .find(|&v| got[v].is_finite() && v != source as usize)
            .unwrap();
        reference[v] = f32::from_bits(got[v].to_bits() + 1);
        check_sssp(&refs, source, &reference, &got).unwrap();
    }

    #[test]
    fn pagerank_check_accepts_the_program_and_rejects_corruption() {
        let (_, refs, mut engine) = fixture();
        let want = pagerank(&refs, 0.15, 10);
        let got = engine.run(&PageRank::new(0.15, 10)).unwrap().state;
        check_pagerank(&want, &got).unwrap();

        let mut off = got.clone();
        off[3] *= 1.001;
        assert!(check_pagerank(&want, &off).is_err());
        let mut nan = got.clone();
        nan[0] = f32::NAN;
        assert!(check_pagerank(&want, &nan).is_err());
        let fewer = engine.run(&PageRank::new(0.15, 9)).unwrap().state;
        assert!(check_pagerank(&want, &fewer).is_err());
    }

    #[test]
    fn traversed_edges_counts_out_edges_of_reached_vertices() {
        let adj = CooMatrix::from_triplets(
            4,
            4,
            vec![(0, 1, 1.0), (1, 2, 1.0), (1, 0, 1.0), (3, 0, 1.0)],
        )
        .unwrap();
        let refs = Adjacency::new(&adj, false);
        let levels = bfs_levels(&refs, 0);
        assert_eq!(levels, vec![0, 1, 2, UNREACHED]);
        assert_eq!(traversed_edges(&refs, &levels), 3);
    }
}
