//! Native host execution backend.
//!
//! Evaluates SpMV steps *directly against host memory*, with
//! [`GraphOp::matrix_op`] / [`GraphOp::reduce`] / [`GraphOp::vector_op`]
//! / [`GraphOp::is_update`] inlined in the inner loop. No
//! [`transmuter::Machine`] is anywhere in the path — this is how the
//! framework serves *real* SpMV answers at memory bandwidth while the
//! trace-driven simulator stays the cycle model.
//!
//! The kernel follows the frontier, not the simulated dataflow:
//!
//! - a **partial** frontier (`active.len() < cols`) runs the golden
//!   model's own push kernel (the one behind [`crate::ops::apply_with`])
//!   over the active CSC columns into the session's reusable
//!   accumulator — O(touched edges), no frontier scatter, no thread
//!   spawn — whatever dataflow and format were decided;
//! - a **full** frontier pulls over the rows of the decided-format
//!   operand ([`HostOperand`]: CSR, bitmap or BCSR), fanned out over the
//!   shared graph's arrival-order, nnz-balanced row partitions.
//!
//! Both reduce each destination's contributions in ascending source
//! order — exactly the order the golden model ([`crate::ops::apply`])
//! uses — so host results are **bit-identical** to the functional
//! results the simulate path returns, float reductions included. On
//! full frontiers [`ExecBackend::Differential`] checks the row pull
//! against the golden model's push on every invocation; on partial
//! frontiers both sides run the same kernel.

use crate::ops::{self, Accumulator, GraphOp, Update};
use sparse::partition::RowPartition;
use sparse::{BcsrMatrix, BitmapCsr, CscMatrix, CsrMatrix, Idx};

/// Which execution backend a [`crate::CoSparse`] runtime answers with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// The trace-driven cycle simulator (the default): results are
    /// computed by the golden model, timing by the simulated machine.
    #[default]
    Simulate,
    /// Native host execution: the same dataflow evaluated directly
    /// against host memory, orders of magnitude faster, no simulated
    /// timing (reports carry wall-clock seconds and zero cycles).
    Host,
    /// Runs **both** backends and asserts their results are bit-equal,
    /// making the simulate path the oracle for the host path. Returns
    /// the simulate outcome (cycles intact). Only full-frontier steps
    /// compare two different kernels (the host's row pull over the
    /// decided format against the golden model's push); partial
    /// frontiers run one shared push kernel on both sides.
    ///
    /// # Panics
    ///
    /// Any invocation panics if the two backends disagree.
    Differential,
}

/// The matrix structure the inner-product host path walks — the host
/// side of the storage-format reconfiguration axis. All three walk each
/// destination row's entries in ascending source order, so they are
/// interchangeable bit-for-bit; they differ only in how the row is
/// materialized in host memory.
#[derive(Debug, Clone, Copy)]
pub enum HostOperand<'a> {
    /// Compressed sparse row (the default row loop).
    Csr(&'a CsrMatrix),
    /// Hierarchical-bitmap CSR: rows decoded segment by segment.
    Bitmap(&'a BitmapCsr),
    /// Blocked CSR: rows gathered from `r x c` blocks, mask-gated so
    /// fill never contributes.
    Bcsr(&'a BcsrMatrix),
}

impl HostOperand<'_> {
    /// Number of columns of the operand matrix.
    fn cols(&self) -> usize {
        match self {
            HostOperand::Csr(m) => m.cols(),
            HostOperand::Bitmap(m) => m.cols(),
            HostOperand::Bcsr(m) => m.cols(),
        }
    }
}

/// Per-step operands of one host SpMV: the sorted active `(source,
/// frontier value)` pairs, the full per-vertex state, and the original
/// graph's out-degrees — the same triple [`crate::ops::apply`] takes.
#[derive(Debug, Clone, Copy)]
pub struct StepInputs<'a, V> {
    /// Sorted active `(source, frontier value)` pairs.
    pub active: &'a [(Idx, V)],
    /// Per-vertex state vector.
    pub state: &'a [V],
    /// Out-degree of each source in the original graph.
    pub degrees: &'a [u32],
}

/// One host SpMV step under the generalized [`GraphOp`] semiring: a
/// partial frontier pushes the active CSC columns of `csc` into a fresh
/// accumulator, a full one pulls over the rows of `operand`
/// ([`HostOperand`]). Returns the updates that passed
/// [`GraphOp::is_update`], sorted by destination — bit-identical to
/// [`crate::ops::apply`] on the same inputs.
///
/// `partition` is the per-worker row partitioning of the full-frontier
/// pull; each partition's rows are evaluated independently (on parallel
/// host threads when the host has more than one CPU).
///
/// # Panics
///
/// Panics if an active index or a matrix index is out of bounds of
/// `state`/`degrees`.
pub fn execute<O: GraphOp>(
    op: &O,
    operand: HostOperand<'_>,
    csc: &CscMatrix,
    inputs: StepInputs<'_, O::Value>,
    partition: &RowPartition,
) -> Vec<Update<O::Value>> {
    execute_with(
        op,
        || operand,
        csc,
        inputs,
        partition,
        transmuter::host_cpus(),
        &mut Accumulator::default(),
    )
}

/// [`execute`] with the operand resolved only when the frontier is full
/// (so a partial step never materializes a format image it does not
/// read), an explicit host worker-thread count instead of the host's
/// available parallelism, and a caller-owned accumulator for partial
/// frontiers (a session passes its own, so steady-state steps reuse
/// it). `workers` applies to the full-frontier pull only: `1`
/// forces the sequential partition walk, `≥2` forces the scoped-thread
/// fan-out even on a single-CPU host. Results are bit-identical for any
/// count: each partition fills its own output slot regardless of which
/// thread runs it.
///
/// # Panics
///
/// As [`execute`].
pub fn execute_with<'a, O: GraphOp>(
    op: &O,
    operand: impl FnOnce() -> HostOperand<'a>,
    csc: &CscMatrix,
    inputs: StepInputs<'_, O::Value>,
    partition: &RowPartition,
    workers: usize,
    acc: &mut Accumulator<O::Value>,
) -> Vec<Update<O::Value>> {
    let StepInputs {
        active,
        state,
        degrees,
    } = inputs;
    if active.len() < csc.cols() {
        return ops::push(op, csc, active, state, degrees, acc);
    }
    full_rows(op, operand(), inputs, partition, workers)
}

/// Runs `work(part_index, out)` for every partition on `workers`
/// threads, filling one output vector per partition, and concatenates
/// them in partition order. Partitions are contiguous ascending row
/// ranges, so the concatenation is sorted by destination by
/// construction.
fn fan_out<V, F>(parts: usize, workers: usize, work: F) -> Vec<Update<V>>
where
    V: Send,
    F: Fn(usize, &mut Vec<Update<V>>) + Sync,
{
    let mut outs: Vec<Vec<Update<V>>> = (0..parts).map(|_| Vec::new()).collect();
    let workers = workers.min(parts).max(1);
    if workers <= 1 {
        for (p, out) in outs.iter_mut().enumerate() {
            work(p, out);
        }
    } else {
        // Contiguous chunks of partitions per worker; each thread owns a
        // disjoint slice of the output table, so no synchronization is
        // needed beyond the scope join.
        let chunk = parts.div_ceil(workers);
        std::thread::scope(|s| {
            for (t, outs_chunk) in outs.chunks_mut(chunk).enumerate() {
                let work = &work;
                s.spawn(move || {
                    for (i, out) in outs_chunk.iter_mut().enumerate() {
                        work(t * chunk + i, out);
                    }
                });
            }
        });
    }
    let total = outs.iter().map(Vec::len).sum();
    let mut updates = Vec::with_capacity(total);
    for mut o in outs {
        updates.append(&mut o);
    }
    updates
}

/// Full-frontier path: per-partition row loops over the operand matrix
/// in whichever storage format was decided. Every source is active, so
/// `active` is the full sorted list and a source's frontier value is
/// read straight from `active[src]` — no scatter, no mask. Every row
/// reduces its entries in ascending column (= source) order — the same
/// per-destination reduce order as the golden model's source-major walk,
/// whichever format materializes the row.
fn full_rows<O: GraphOp>(
    op: &O,
    operand: HostOperand<'_>,
    inputs: StepInputs<'_, O::Value>,
    partition: &RowPartition,
    workers: usize,
) -> Vec<Update<O::Value>> {
    let StepInputs {
        active,
        state,
        degrees,
    } = inputs;
    debug_assert_eq!(active.len(), operand.cols(), "full frontier");
    debug_assert!(
        active
            .iter()
            .enumerate()
            .all(|(i, &(src, _))| src as usize == i),
        "a full frontier lists every source in order"
    );
    fan_out(partition.len(), workers, |p, out| {
        for dst in partition.range(p) {
            let mut acc: Option<O::Value> = None;
            {
                // One reduce step per stored entry, shared by the three
                // row walks below — the walks differ only in where the
                // (column, weight) pairs come from.
                let mut visit = |si: usize, w: f32| {
                    let contrib = op.matrix_op(w, active[si].1, state[dst], degrees[si]);
                    acc = Some(match acc.take() {
                        Some(a) => op.reduce(a, contrib),
                        None => contrib,
                    });
                };
                match operand {
                    HostOperand::Csr(csr) => {
                        let (srcs, weights) = csr.row(dst);
                        for (s, w) in srcs.iter().zip(weights) {
                            visit(*s as usize, *w);
                        }
                    }
                    HostOperand::Bitmap(m) => {
                        for (col, w) in m.iter_row(dst) {
                            visit(col as usize, w);
                        }
                    }
                    HostOperand::Bcsr(m) => {
                        let (br, bc) = m.block_shape();
                        let brow = dst / br;
                        let i = dst % br;
                        // Blocks are ascending by block column, so the
                        // stored cells of local row `i` come out in
                        // ascending source order.
                        for b in m.block_row_ptr()[brow]..m.block_row_ptr()[brow + 1] {
                            let base_col = m.block_col()[b] as usize * bc;
                            let bmask = m.mask()[b];
                            for j in 0..bc {
                                if bmask >> (i * bc + j) & 1 == 1 {
                                    visit(base_col + j, m.values()[b * br * bc + i * bc + j]);
                                }
                            }
                        }
                    }
                }
            }
            if let Some(reduced) = acc {
                let old = state[dst];
                let new = op.vector_op(reduced, old);
                if op.is_update(new, old) {
                    out.push((dst as Idx, new));
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{apply, SpmvOp};

    fn setup(n: usize, nnz: usize, seed: u64) -> (CsrMatrix, CscMatrix, Vec<u32>) {
        let m = sparse::generate::uniform(n, n, nnz, seed).unwrap();
        let degrees = m.col_counts().into_iter().map(|c| c as u32).collect();
        (CsrMatrix::from(&m), CscMatrix::from(&m), degrees)
    }

    #[test]
    fn both_paths_match_golden_model() {
        let n = 300;
        let (csr, csc, degrees) = setup(n, 4000, 17);
        let parts = RowPartition::nnz_balanced_csr(&csr, 8);
        let state = vec![0.0f32; n];
        for active_n in [1usize, 7, 75, 300] {
            let active: Vec<(Idx, f32)> = (0..active_n)
                .map(|i| ((i * n / active_n) as Idx, 1.0 + i as f32))
                .collect();
            let want = apply(&SpmvOp, &csc, &active, &state, &degrees);
            let inputs = StepInputs {
                active: &active,
                state: &state,
                degrees: &degrees,
            };
            let got = execute(&SpmvOp, HostOperand::Csr(&csr), &csc, inputs, &parts);
            assert_eq!(got.len(), want.len(), "{active_n} actives");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.0, w.0);
                assert_eq!(g.1.to_bits(), w.1.to_bits(), "bit-exact at dst {}", g.0);
            }
        }
    }

    #[test]
    fn empty_frontier_yields_nothing() {
        let (csr, csc, degrees) = setup(64, 500, 3);
        let parts = RowPartition::nnz_balanced_csr(&csr, 4);
        let state = vec![0.0f32; 64];
        let inputs = StepInputs {
            active: &[],
            state: &state,
            degrees: &degrees,
        };
        assert!(execute(&SpmvOp, HostOperand::Csr(&csr), &csc, inputs, &parts).is_empty());
    }

    #[test]
    fn min_reduce_op_matches_golden_model() {
        #[derive(Debug)]
        struct MinPlus;
        impl GraphOp for MinPlus {
            type Value = f32;
            fn matrix_op(&self, w: f32, src: f32, _dst: f32, _deg: u32) -> f32 {
                src + w
            }
            fn reduce(&self, a: f32, b: f32) -> f32 {
                a.min(b)
            }
            fn is_update(&self, new: f32, old: f32) -> bool {
                new < old
            }
        }
        let (csr, csc, degrees) = setup(200, 2500, 29);
        let parts = RowPartition::nnz_balanced_csr(&csr, 8);
        let state = vec![f32::INFINITY; 200];
        let active: Vec<(Idx, f32)> = vec![(0, 0.0), (13, 2.5), (101, 1.0)];
        let want = apply(&MinPlus, &csc, &active, &state, &degrees);
        let inputs = StepInputs {
            active: &active,
            state: &state,
            degrees: &degrees,
        };
        let got = execute(&MinPlus, HostOperand::Csr(&csr), &csc, inputs, &parts);
        assert_eq!(got, want);
    }

    /// Every inner-product operand format walks rows in ascending
    /// source order, so all three must be bit-identical to the golden
    /// model — including a clustered matrix where bitmap segments and
    /// BCSR blocks are non-trivial, and partitions that split blocks.
    #[test]
    fn format_operands_are_bit_identical_to_golden() {
        use sparse::CooMatrix;
        // A banded matrix (dense 2x2-blockable runs) plus scattered
        // uniform entries merged in, so both structured and degenerate
        // blocks occur.
        let n = 257; // odd: the last BCSR block row is ragged
        let mut ts = Vec::new();
        for r in 0..n as u32 {
            let base = (r / 2) * 2 % (n as u32 - 8);
            for k in 0..8 {
                ts.push((r, base + k, 0.5 + (r + k) as f32 * 0.25));
            }
        }
        let coo = CooMatrix::from_triplets(n, n, ts).unwrap();
        let csc = CscMatrix::from(&coo);
        let csr = CsrMatrix::from(&coo);
        let bitmap = BitmapCsr::from(&coo);
        let bcsr = BcsrMatrix::from(&coo);
        assert!(bcsr.block_shape().0 * bcsr.block_shape().1 > 1, "blocked");
        let degrees: Vec<u32> = coo.col_counts().into_iter().map(|c| c as u32).collect();
        let parts = RowPartition::nnz_balanced_csr(&csr, 8);
        let state = vec![0.0f32; n];
        for active_n in [1usize, 19, n] {
            let active: Vec<(Idx, f32)> = (0..active_n)
                .map(|i| ((i * n / active_n) as Idx, 1.0 + i as f32 * 0.125))
                .collect();
            let want = apply(&SpmvOp, &csc, &active, &state, &degrees);
            let inputs = StepInputs {
                active: &active,
                state: &state,
                degrees: &degrees,
            };
            for (name, operand) in [
                ("csr", HostOperand::Csr(&csr)),
                ("bitmap", HostOperand::Bitmap(&bitmap)),
                ("bcsr", HostOperand::Bcsr(&bcsr)),
            ] {
                for workers in [1usize, 4] {
                    let got = execute_with(
                        &SpmvOp,
                        || operand,
                        &csc,
                        inputs,
                        &parts,
                        workers,
                        &mut Accumulator::default(),
                    );
                    assert_eq!(got.len(), want.len(), "{name} x {active_n} actives");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.0, w.0, "{name}");
                        assert_eq!(g.1.to_bits(), w.1.to_bits(), "{name} bit-exact at {}", g.0);
                    }
                }
            }
        }
    }

    /// Force the scoped-thread fan-out of the full-frontier row pull
    /// over a genuine multi-partition split and assert it is
    /// bit-identical to the sequential walk and to the golden model —
    /// an f32 min-reduce included, at several worker counts. Partial
    /// frontiers take the push kernel, which never fans out; they ride
    /// along to pin that `workers` cannot change their answers either.
    #[test]
    fn forced_fan_out_is_bit_identical_to_sequential() {
        #[derive(Debug)]
        struct MinPlus;
        impl GraphOp for MinPlus {
            type Value = f32;
            fn matrix_op(&self, w: f32, src: f32, _dst: f32, _deg: u32) -> f32 {
                src + w
            }
            fn reduce(&self, a: f32, b: f32) -> f32 {
                a.min(b)
            }
            fn is_update(&self, new: f32, old: f32) -> bool {
                new < old
            }
        }
        let n = 600;
        let (csr, csc, degrees) = setup(n, 9000, 41);
        let parts = RowPartition::nnz_balanced_csr(&csr, 8);
        assert!(parts.len() >= 4, "split must be multi-partition");
        let zero_state = vec![0.0f32; n];
        let inf_state = vec![f32::INFINITY; n];
        let mut acc = Accumulator::default();
        for active_n in [3usize, 80, 600] {
            let active: Vec<(Idx, f32)> = (0..active_n)
                .map(|i| ((i * n / active_n) as Idx, 0.5 + i as f32))
                .collect();
            let spmv_inputs = StepInputs {
                active: &active,
                state: &zero_state,
                degrees: &degrees,
            };
            let minplus_inputs = StepInputs {
                active: &active,
                state: &inf_state,
                degrees: &degrees,
            };
            let operand = HostOperand::Csr(&csr);
            let seq = execute_with(&SpmvOp, || operand, &csc, spmv_inputs, &parts, 1, &mut acc);
            let seq_min = execute_with(
                &MinPlus,
                || operand,
                &csc,
                minplus_inputs,
                &parts,
                1,
                &mut acc,
            );
            let golden = apply(&SpmvOp, &csc, &active, &zero_state, &degrees);
            for workers in [2usize, 4, 8] {
                let par = execute_with(
                    &SpmvOp,
                    || operand,
                    &csc,
                    spmv_inputs,
                    &parts,
                    workers,
                    &mut acc,
                );
                assert_eq!(par.len(), seq.len(), "w={workers}");
                for ((pd, pv), (sd, sv)) in par.iter().zip(&seq) {
                    assert_eq!(pd, sd);
                    assert_eq!(pv.to_bits(), sv.to_bits(), "dst {pd}, w={workers}");
                }
                assert_eq!(par, golden, "w={workers} vs golden model");
                let par_min = execute_with(
                    &MinPlus,
                    || operand,
                    &csc,
                    minplus_inputs,
                    &parts,
                    workers,
                    &mut acc,
                );
                assert_eq!(par_min, seq_min, "min-reduce w={workers}");
            }
        }
    }
}
