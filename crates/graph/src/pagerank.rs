//! PageRank on the SpMV abstraction.
//!
//! Table I: `Matrix_Op = Σ (V_src / deg(src))`,
//! `Vector_Op = α + (1-α) * V_updated`. The frontier is always dense,
//! so CoSPARSE stays on the inner-product dataflow throughout (paper
//! §III-D.2: "PR and CF always use dense vectors").
//!
//! We use the normalized teleport term `α / N` so ranks stay a
//! probability distribution; the paper's unnormalized `α` differs only
//! by a global scale.

use crate::engine::Algorithm;
use cosparse::{GraphOp, OpProfile};
use sparse::Idx;

/// The PageRank op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankOp {
    /// Teleport term added to every vertex (already divided by N).
    pub teleport: f32,
    /// Damping factor `1 - α` multiplying the pulled rank mass.
    pub damping: f32,
}

impl GraphOp for PageRankOp {
    type Value = f32;

    fn matrix_op(&self, _w: f32, src_value: f32, _dst: f32, src_degree: u32) -> f32 {
        src_value / src_degree.max(1) as f32
    }

    /// A source's rank share is the same for every out-edge: the pull
    /// divides once per source (GAP's `score / out_degree`).
    fn source_term(&self, src_value: f32, src_degree: u32) -> Option<f32> {
        Some(src_value / src_degree.max(1) as f32)
    }

    fn reduce(&self, a: f32, b: f32) -> f32 {
        a + b
    }

    fn vector_op(&self, updated: f32, _old: f32) -> f32 {
        self.teleport + self.damping * updated
    }

    fn is_update(&self, _new: f32, _old: f32) -> bool {
        true
    }

    fn profile(&self) -> OpProfile {
        OpProfile {
            value_words: 1,
            extra_compute_per_edge: 1,
            vector_op_compute: 2,
        }
    }
}

/// PageRank: damped power iteration for a fixed number of rounds
/// (Ligra's PageRank runs a fixed iteration count as well).
#[derive(Debug, Clone, Copy)]
pub struct PageRank {
    alpha: f32,
    iterations: usize,
}

impl PageRank {
    /// PageRank with teleport probability `alpha` (typically 0.15) for
    /// `iterations` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1)` or `iterations == 0`.
    pub fn new(alpha: f32, iterations: usize) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        assert!(iterations > 0, "need at least one iteration");
        PageRank { alpha, iterations }
    }

    /// The teleport probability.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }
}

impl Default for PageRank {
    /// `alpha = 0.15`, 20 iterations.
    fn default() -> Self {
        PageRank::new(0.15, 20)
    }
}

impl Algorithm for PageRank {
    type Op = PageRankOp;

    fn name(&self) -> &'static str {
        "pr"
    }

    fn op(&self, vertices: usize) -> PageRankOp {
        PageRankOp {
            teleport: self.alpha / vertices.max(1) as f32,
            damping: 1.0 - self.alpha,
        }
    }

    fn initial_state(&self, vertices: usize) -> Vec<f32> {
        vec![1.0 / vertices.max(1) as f32; vertices]
    }

    fn initial_frontier(&self, vertices: usize) -> Vec<(Idx, f32)> {
        let r = 1.0 / vertices.max(1) as f32;
        (0..vertices).map(|v| (v as Idx, r)).collect()
    }

    fn frontier_value(&self, _vertex: Idx, new_value: f32) -> f32 {
        new_value
    }

    fn dense_frontier(&self) -> bool {
        true
    }

    fn background_update(&self, vertices: usize, _old: f32) -> Option<f32> {
        // Vertices with no in-edges hold exactly the teleport mass.
        Some(self.alpha / vertices.max(1) as f32)
    }

    fn max_iterations(&self, _vertices: usize) -> usize {
        self.iterations
    }
}

/// Host reference: dense power iteration with the same formula.
pub fn reference(adjacency: &sparse::CsrMatrix, alpha: f32, iterations: usize) -> Vec<f32> {
    let n = adjacency.rows();
    let degrees = adjacency.out_degrees();
    let mut rank = vec![1.0f32 / n.max(1) as f32; n];
    for _ in 0..iterations {
        let mut next = vec![alpha / n.max(1) as f32; n];
        for u in 0..n {
            if degrees[u] == 0 {
                continue;
            }
            let share = (1.0 - alpha) * rank[u] / degrees[u] as f32;
            let (dsts, _) = adjacency.row(u);
            for &v in dsts {
                next[v as usize] += share;
            }
        }
        rank = next;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use sparse::CsrMatrix;
    use transmuter::{Geometry, Machine, MicroArch};

    #[test]
    fn matches_reference_power_iteration() {
        let adj = sparse::generate::uniform(256, 256, 2500, 8).unwrap();
        let csr = CsrMatrix::from(&adj);
        let want = reference(&csr, 0.15, 8);
        let mut e = Engine::new(&adj, Machine::new(Geometry::new(2, 4), MicroArch::paper()));
        let r = e.run(&PageRank::new(0.15, 8)).unwrap();
        for (v, (&a, &b)) in r.state.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-5, "vertex {v}: {a} vs {b}");
        }
    }

    #[test]
    fn stays_on_inner_product() {
        let adj = sparse::generate::rmat(10, 10_000, Default::default(), 2).unwrap();
        let mut e = Engine::new(&adj, Machine::new(Geometry::new(2, 4), MicroArch::paper()));
        let r = e.run(&PageRank::new(0.15, 4)).unwrap();
        assert_eq!(r.iterations.len(), 4);
        assert!(r
            .iterations
            .iter()
            .all(|i| i.software == cosparse::SwConfig::InnerProduct));
        assert!(r.iterations.iter().all(|i| i.frontier_density == 1.0));
    }

    #[test]
    fn ranks_sum_stays_bounded() {
        let adj = sparse::generate::uniform(200, 200, 2000, 3).unwrap();
        let mut e = Engine::new(&adj, Machine::new(Geometry::new(2, 4), MicroArch::paper()));
        let r = e.run(&PageRank::new(0.15, 10)).unwrap();
        let total: f32 = r.state.iter().sum();
        assert!(total > 0.15 && total <= 1.001, "total {total}");
    }

    #[test]
    fn high_in_degree_vertices_rank_higher() {
        // Star: everyone points at vertex 0.
        let adj = sparse::CooMatrix::from_triplets(
            10,
            10,
            (1..10u32).map(|u| (u, 0u32, 1.0f32)).collect(),
        )
        .unwrap();
        let mut e = Engine::new(&adj, Machine::new(Geometry::new(1, 2), MicroArch::paper()));
        let r = e.run(&PageRank::new(0.15, 10)).unwrap();
        for v in 1..10 {
            assert!(r.state[0] > r.state[v]);
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        let _ = PageRank::new(1.5, 10);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The pull's per-source term is `matrix_op` bit for bit, for
        /// any weight, state and value bits (NaNs, infinities and
        /// subnormals included) and any degree, 0 among them.
        #[test]
        fn source_term_is_matrix_op(
            bits in (0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX),
            degree in 0u32..=u32::MAX,
        ) {
            let op = PageRankOp { teleport: 0.01, damping: 0.85 };
            let (w, v, s) = (f32::from_bits(bits.0), f32::from_bits(bits.1), f32::from_bits(bits.2));
            for d in [degree, degree % 3] {
                let term = op.source_term(v, d).expect("PageRank has a source term");
                proptest::prop_assert_eq!(term.to_bits(), op.matrix_op(w, v, s, d).to_bits());
            }
        }
    }
}
