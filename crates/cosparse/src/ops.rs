//! The `Matrix_Op` / `Vector_Op` abstraction (paper Table I).
//!
//! A graph algorithm is defined by how an edge combines the source's
//! frontier value with the destination's state (`matrix_op`), how
//! contributions reduce (`reduce`), and an optional element-wise
//! post-step (`vector_op`). CoSPARSE schedules the same access pattern
//! regardless of the op; only the host-side functional evaluation and
//! the per-edge compute cost differ.
//!
//! This module holds the op trait and the push kernel ([`apply_with`]):
//! a partial frontier pushes the active sources' CSC columns into a
//! reusable [`Accumulator`] that records each first touch, so a step
//! costs O(touched edges), not O(vertices). A full frontier is pulled
//! by row instead ([`crate::host::pull`]); [`crate::host`] picks
//! between the two for both backends.

use sparse::{CscMatrix, Idx};

/// A graph-algorithm definition in CoSPARSE's SpMV abstraction.
///
/// `Value` is the per-vertex state (a level for BFS, a distance for
/// SSSP, a rank for PR, a latent-feature vector for CF).
///
/// Ops and their values must be shareable across threads (`Sync` /
/// `Send + Sync`): the full-frontier pull ([`crate::host::pull`])
/// evaluates row chunks on parallel host threads with the op inlined
/// in the inner loop. Values are also `'static`, so a session
/// can keep one [`Accumulator`] per value type it has run. Every op is a
/// plain value-semantics struct over scalar state, so the bounds are
/// satisfied automatically.
pub trait GraphOp: Sync {
    /// Per-vertex value type.
    type Value: Copy + PartialEq + Send + Sync + std::fmt::Debug + 'static;

    /// `Matrix_Op(Sp, V)`: the contribution of edge `src → dst` with
    /// weight `weight`, given the source's frontier value and the
    /// destination's current state. `src_degree` is the source's
    /// out-degree in the original graph (PageRank divides by it).
    fn matrix_op(
        &self,
        weight: f32,
        src_value: Self::Value,
        dst_state: Self::Value,
        src_degree: u32,
    ) -> Self::Value;

    /// The contribution source `src` makes to *every* destination, for
    /// an op whose [`GraphOp::matrix_op`] reads neither the weight nor
    /// the destination's state; `None` (the default) otherwise.
    ///
    /// The full-frontier pull ([`crate::host::pull`]) then evaluates
    /// one term per source per step and reads it per edge, instead of
    /// calling `matrix_op` per edge: PageRank divides once per source,
    /// not once per edge. An op that returns `Some` must return it for
    /// every source, and the value must equal
    /// `matrix_op(w, src_value, s, src_degree)` bit for bit for every
    /// weight `w` and state `s`, so the answer is the same whichever
    /// way it was computed.
    fn source_term(&self, src_value: Self::Value, src_degree: u32) -> Option<Self::Value> {
        let _ = (src_value, src_degree);
        None
    }

    /// Reduction over contributions to the same destination (sum for
    /// SpMV/PR/CF, min for BFS/SSSP). Must be associative and
    /// commutative.
    fn reduce(&self, a: Self::Value, b: Self::Value) -> Self::Value;

    /// `Vector_Op(V)`: element-wise post-step on the reduced value
    /// (identity for SpMV/BFS/SSSP; damping for PR; the gradient step
    /// for CF).
    fn vector_op(&self, updated: Self::Value, old_state: Self::Value) -> Self::Value {
        let _ = old_state;
        updated
    }

    /// Whether the new value constitutes an update that should activate
    /// `dst` in the next frontier (strict improvement for BFS/SSSP;
    /// always true for PR/CF which run dense).
    fn is_update(&self, new_value: Self::Value, old_state: Self::Value) -> bool {
        new_value != old_state
    }

    /// Structural cost profile for the timing model.
    fn profile(&self) -> OpProfile {
        OpProfile::scalar()
    }
}

/// Structural properties of an op that the timing kernels need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpProfile {
    /// Words per vector element (1 for scalars, K for CF's features).
    pub value_words: usize,
    /// Extra compute cycles per processed matrix element beyond the
    /// baseline multiply-accumulate.
    pub extra_compute_per_edge: u32,
    /// Compute cycles for `Vector_Op` per updated element (0 when not
    /// applicable).
    pub vector_op_compute: u32,
}

impl OpProfile {
    /// Scalar op: one word per value, plain MAC, no vector op.
    pub fn scalar() -> Self {
        OpProfile {
            value_words: 1,
            extra_compute_per_edge: 0,
            vector_op_compute: 0,
        }
    }
}

/// One state update produced by an SpMV step: `dst` takes `value`.
pub type Update<V> = (Idx, V);

/// The reusable scratch of both functional kernels. The partial-frontier
/// push keeps a per-destination partial reduction, one mark bit per
/// destination, and the destinations the current step touched. Between
/// steps every mark is clear and the touched list is empty — a step
/// clears only what it touched, and a value counts only while its mark
/// is set — so one accumulator serves any number of steps (of any
/// vertex count) without reallocating once it has grown. The
/// full-frontier pull keeps its per-source terms
/// ([`GraphOp::source_term`]) here, refilled each step. A
/// [`crate::CoSparse`] session keeps one per value type it has run.
#[derive(Debug)]
pub struct Accumulator<V> {
    /// Partial reductions by destination, meaningful where marked.
    values: Vec<V>,
    /// Bit `d % 64` of word `d / 64` is set while the current step has
    /// touched destination `d`.
    marks: Vec<u64>,
    /// Destinations touched by the current step (first-touch order
    /// while pushing, then ascending).
    touched: Vec<Idx>,
    /// The pull's per-source terms, one per source while the op has
    /// them, else empty.
    pub(crate) terms: Vec<V>,
}

impl<V> Default for Accumulator<V> {
    fn default() -> Self {
        Accumulator {
            values: Vec::new(),
            marks: Vec::new(),
            touched: Vec::new(),
            terms: Vec::new(),
        }
    }
}

impl<V> Accumulator<V> {
    /// Retained capacity as `(values, marks, touched)` — what a session
    /// keeps between steps.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> (usize, usize, usize) {
        (
            self.values.capacity(),
            self.marks.capacity(),
            self.touched.capacity(),
        )
    }
}

/// Functionally evaluates one SpMV step over the *transposed* adjacency
/// matrix in CSC form (`csc_t.col(src)` lists the destinations of
/// `src`'s out-edges) by the push kernel, allocating a fresh
/// [`Accumulator`] — the entry point for tests and benches; see
/// [`apply_with`] for the kernel.
///
/// `active` holds `(src, frontier value)` pairs; `state` is the full
/// per-vertex state vector; `degrees[src]` is the out-degree. Returns
/// the updates that passed [`GraphOp::is_update`], sorted by
/// destination.
///
/// # Panics
///
/// Panics if an active index or a matrix row index is out of bounds of
/// `state`/`degrees`.
pub fn apply<O: GraphOp>(
    op: &O,
    csc_t: &CscMatrix,
    active: &[(Idx, O::Value)],
    state: &[O::Value],
    degrees: &[u32],
) -> Vec<Update<O::Value>> {
    apply_with(
        op,
        csc_t,
        active,
        state,
        degrees,
        &mut Accumulator::default(),
    )
}

/// Once more than 1/`SCAN_RATIO` of the vertices were touched, the push
/// kernel collects them by scanning its marks instead of sorting its
/// touched list.
const SCAN_RATIO: usize = 16;

/// [`apply`] with a caller-owned accumulator: the push kernel. Walks
/// the CSC columns of the `active` sources in the order given, reducing
/// each contribution into `acc` and marking each destination's first
/// touch; then sorts the touched list (or, when it covers more than
/// 1/16 of the vertices, rebuilds it by one ascending scan of the
/// marks), applies [`GraphOp::vector_op`] / [`GraphOp::is_update`] and
/// emits the updates into an exactly sized `Vec`, clearing only touched
/// marks. O(touched edges + touched · log
/// touched) with no allocation but the output once `acc` has grown.
///
/// Each destination's contributions reduce in the order of `active`,
/// then each source's column order, and the updates come out sorted by
/// destination, so no structure iterates in a run-dependent order. Any
/// frontier is valid input; sessions send only partial ones here and
/// pull full ones by row ([`crate::host::pull`]), which reduces in the
/// same per-destination order.
///
/// # Panics
///
/// As [`apply`].
pub fn apply_with<O: GraphOp>(
    op: &O,
    csc_t: &CscMatrix,
    active: &[(Idx, O::Value)],
    state: &[O::Value],
    degrees: &[u32],
    acc: &mut Accumulator<O::Value>,
) -> Vec<Update<O::Value>> {
    let Accumulator {
        values,
        marks,
        touched,
        ..
    } = acc;
    // Empty unless a step unwound mid-push (an out-of-bounds index),
    // leaving marks set.
    if !touched.is_empty() {
        touched.clear();
        marks.fill(0);
    }
    let n = state.len();
    if values.len() < n {
        // Any value fills the new slots: none is read before it is
        // marked and written.
        values.resize(n, state[0]);
        marks.resize(n.div_ceil(64), 0);
    }
    for &(src, fval) in active {
        let deg = degrees[src as usize];
        let (dsts, weights) = csc_t.col(src as usize);
        for (&dst, &w) in dsts.iter().zip(weights) {
            let d = dst as usize;
            let contrib = op.matrix_op(w, fval, state[d], deg);
            let (word, bit) = (&mut marks[d / 64], 1u64 << (d % 64));
            if *word & bit == 0 {
                *word |= bit;
                touched.push(dst);
                values[d] = contrib;
            } else {
                values[d] = op.reduce(values[d], contrib);
            }
        }
    }
    // Fold the post-step into `values`; only real updates stay in the
    // (ascending) touched list, so the output below is sized exactly.
    let mut fold = |d: Idx| {
        let d = d as usize;
        let old = state[d];
        let new = op.vector_op(values[d], old);
        values[d] = new;
        op.is_update(new, old)
    };
    if touched.len() * SCAN_RATIO < n {
        touched.sort_unstable();
        touched.retain(|&d| {
            marks[d as usize / 64] &= !(1u64 << (d % 64));
            fold(d)
        });
    } else {
        // Long lists: one ascending scan of the marks replaces the sort.
        touched.clear();
        for (w, word) in marks[..n.div_ceil(64)].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let d = (w * 64) as Idx + bits.trailing_zeros();
                bits &= bits - 1;
                if fold(d) {
                    touched.push(d);
                }
            }
        }
    }
    let updates = touched.iter().map(|&d| (d, values[d as usize])).collect();
    touched.clear();
    updates
}

/// Plain SpMV (Table I, first row): `y = Σ Sp[src,dst] * V[src]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpmvOp;

impl GraphOp for SpmvOp {
    type Value = f32;

    fn matrix_op(&self, weight: f32, src_value: f32, _dst: f32, _deg: u32) -> f32 {
        weight * src_value
    }

    fn reduce(&self, a: f32, b: f32) -> f32 {
        a + b
    }

    fn is_update(&self, new_value: f32, _old: f32) -> bool {
        new_value != 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::{CooMatrix, DenseVector};

    fn csc_t_of(adj: &CooMatrix) -> CscMatrix {
        CscMatrix::from(&adj.transpose())
    }

    #[test]
    fn spmv_op_matches_reference() {
        let adj = sparse::generate::uniform(64, 64, 400, 3).unwrap();
        let t = adj.transpose();
        let csc_t = CscMatrix::from(&t);
        let x = sparse::generate::random_dense_vector(64, 7);
        let want = t.spmv_dense(&x).unwrap();

        let active: Vec<(Idx, f32)> = (0..64)
            .map(|i| (i as Idx, x[i]))
            .filter(|&(_, v)| v != 0.0)
            .collect();
        let state = vec![0.0f32; 64];
        let degrees = vec![0u32; 64];
        let updates = apply(&SpmvOp, &csc_t, &active, &state, &degrees);

        let mut got = DenseVector::filled(64, 0.0f32);
        for (dst, v) in updates {
            got[dst as usize] = v;
        }
        for i in 0..64 {
            assert!(
                (got[i] - want[i]).abs() < 1e-3 * want[i].abs().max(1.0),
                "row {i}: {} vs {}",
                got[i],
                want[i]
            );
        }
    }

    #[test]
    fn apply_skips_inactive_columns() {
        let adj =
            CooMatrix::from_triplets(3, 3, vec![(0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)]).unwrap();
        let csc_t = csc_t_of(&adj);
        // Only vertex 0 active: its lone out-edge 0→1 contributes.
        let updates = apply(&SpmvOp, &csc_t, &[(0, 1.0)], &[0.0; 3], &[1, 1, 1]);
        assert_eq!(updates, vec![(1, 2.0)]);
    }

    #[test]
    fn reductions_combine_parallel_edges() {
        // Two sources converge on dst 2.
        let adj = CooMatrix::from_triplets(3, 3, vec![(0, 2, 1.0), (1, 2, 10.0)]).unwrap();
        let csc_t = csc_t_of(&adj);
        let updates = apply(
            &SpmvOp,
            &csc_t,
            &[(0, 2.0), (1, 3.0)],
            &[0.0; 3],
            &[1, 1, 1],
        );
        assert_eq!(updates, vec![(2, 32.0)]);
    }

    #[test]
    fn zero_results_filtered_for_spmv() {
        let adj = CooMatrix::from_triplets(2, 2, vec![(0, 1, 0.0)]).unwrap();
        let csc_t = csc_t_of(&adj);
        let updates = apply(&SpmvOp, &csc_t, &[(0, 5.0)], &[0.0; 2], &[1, 1]);
        assert!(updates.is_empty());
    }

    #[test]
    fn sparse_and_dense_accumulators_agree() {
        // A partial frontier takes the push kernel; it must match the
        // naive dense reduction.
        let adj = sparse::generate::uniform(200, 200, 2000, 11).unwrap();
        let csc_t = csc_t_of(&adj);
        let active: Vec<(Idx, f32)> = (0..10).map(|i| (i * 17 as Idx, 1.5 + i as f32)).collect();
        let state = vec![0.0f32; 200];
        let degrees = vec![1u32; 200];
        assert!(active.len() < csc_t.cols(), "must hit the push kernel");
        let got = apply(&SpmvOp, &csc_t, &active, &state, &degrees);

        let mut want = vec![0.0f32; 200];
        for &(src, fval) in &active {
            let (dsts, weights) = csc_t.col(src as usize);
            for (dst, w) in dsts.iter().zip(weights) {
                want[*dst as usize] += w * fval;
            }
        }
        let want: Vec<Update<f32>> = want
            .iter()
            .enumerate()
            .filter(|&(_, v)| *v != 0.0)
            .map(|(dst, v)| (dst as Idx, *v))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn sparse_path_float_reductions_are_bit_deterministic() {
        // PR-style float sums over a skewed matrix through the push
        // (partial-frontier) kernel: two applications of the same input
        // must produce bit-identical f32 results. This pins the
        // determinism contract — no accumulation structure with a
        // run-dependent iteration order is allowed in a functional kernel.
        let adj = sparse::generate::power_law(400, 400, 6000, 1.1, 8).unwrap();
        let csc_t = csc_t_of(&adj);
        let active: Vec<(Idx, f32)> = (0..40)
            .map(|i| ((i * 9) as Idx, 0.1 + 0.37 * i as f32))
            .collect();
        assert!(active.len() < 400, "must exercise the push kernel");
        let state = vec![0.0f32; 400];
        let degrees: Vec<u32> = adj.col_counts().into_iter().map(|c| c as u32).collect();
        let a = apply(&SpmvOp, &csc_t, &active, &state, &degrees);
        let b = apply(&SpmvOp, &csc_t, &active, &state, &degrees);
        assert_eq!(a.len(), b.len());
        for ((da, va), (db, vb)) in a.iter().zip(&b) {
            assert_eq!(da, db);
            assert_eq!(va.to_bits(), vb.to_bits(), "bitwise equal at dst {da}");
        }
    }

    #[test]
    fn accumulator_recovers_from_an_unwound_step() {
        let adj = sparse::generate::uniform(64, 64, 600, 5).unwrap();
        let csc_t = csc_t_of(&adj);
        let degrees = vec![1u32; 64];
        let active: Vec<(Idx, f32)> = (0..64).step_by(3).map(|i| (i as Idx, 2.0)).collect();
        let mut acc = Accumulator::default();
        // A state shorter than the matrix panics mid-push, after some
        // slots were set.
        let short = vec![0.0f32; 40];
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            apply_with(&SpmvOp, &csc_t, &active, &short, &degrees, &mut acc)
        }));
        assert!(unwound.is_err());
        let state = vec![0.0f32; 64];
        let want = apply(&SpmvOp, &csc_t, &active, &state, &degrees);
        assert_eq!(
            apply_with(&SpmvOp, &csc_t, &active, &state, &degrees, &mut acc),
            want
        );
    }

    #[test]
    fn scalar_profile_defaults() {
        let p = SpmvOp.profile();
        assert_eq!(p.value_words, 1);
        assert_eq!(p.extra_compute_per_edge, 0);
    }
}
