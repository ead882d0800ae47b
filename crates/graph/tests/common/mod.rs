//! The test-local reference every backend's answers are checked
//! against: the golden model's old full-frontier kernel — every active
//! source's CSC column pushed into a fresh dense `Vec<Option<_>>` —
//! driven by a copy of the engine loop. It shares no code with the
//! kernels a session runs (the partial-frontier push and the
//! full-frontier row pull), so agreeing with it is agreeing across
//! kernels.

use cosparse::{GraphOp, Update};
use graph::{Algorithm, Value};
use sparse::{CooMatrix, CscMatrix, Idx};

/// One SpMV step over `csc_t` (`csc_t.col(src)` lists `src`'s
/// destinations): contributions reduce per destination in the order of
/// `active`, then column order, into a dense accumulator; the updates
/// that pass [`GraphOp::is_update`] come out sorted by destination.
pub fn reference_apply<O: GraphOp>(
    op: &O,
    csc_t: &CscMatrix,
    active: &[(Idx, O::Value)],
    state: &[O::Value],
    degrees: &[u32],
) -> Vec<Update<O::Value>> {
    let mut acc: Vec<Option<O::Value>> = vec![None; state.len()];
    for &(src, fval) in active {
        let deg = degrees[src as usize];
        let (dsts, weights) = csc_t.col(src as usize);
        for (&dst, &w) in dsts.iter().zip(weights) {
            let contrib = op.matrix_op(w, fval, state[dst as usize], deg);
            let slot = &mut acc[dst as usize];
            *slot = Some(slot.map_or(contrib, |a| op.reduce(a, contrib)));
        }
    }
    acc.into_iter()
        .enumerate()
        .filter_map(|(dst, reduced)| {
            let old = state[dst];
            let new = op.vector_op(reduced?, old);
            op.is_update(new, old).then_some((dst as Idx, new))
        })
        .collect()
}

/// `algorithm` on `adjacency` (edge `u → v` stored as `(u, v)`) through
/// the engine loop with [`reference_apply`] as its step: the final
/// state and each iteration's update count.
pub fn reference_run<A: Algorithm>(
    adjacency: &CooMatrix,
    algorithm: &A,
) -> (Vec<Value<A>>, Vec<usize>) {
    let operand = adjacency.transpose();
    let csc_t = CscMatrix::from(&operand);
    let degrees: Vec<u32> = operand.col_counts().into_iter().map(|c| c as u32).collect();
    let n = operand.cols();
    let op = algorithm.op(n);
    let mut state = algorithm.initial_state(n);
    let mut frontier = algorithm.initial_frontier(n);
    let mut counts = Vec::new();
    for _ in 0..algorithm.max_iterations(n) {
        if frontier.is_empty() {
            break;
        }
        let updates = reference_apply(&op, &csc_t, &frontier, &state, &degrees);
        counts.push(updates.len());
        let mut next = updates.iter().peekable();
        for (v, slot) in state.iter_mut().enumerate() {
            match next.peek() {
                Some(&&(dst, val)) if dst as usize == v => {
                    *slot = val;
                    next.next();
                }
                _ => {
                    if let Some(bg) = algorithm.background_update(n, *slot) {
                        *slot = bg;
                    }
                }
            }
        }
        frontier = if algorithm.dense_frontier() {
            if updates.is_empty() {
                break;
            }
            (0..n)
                .map(|v| (v as Idx, algorithm.frontier_value(v as Idx, state[v])))
                .collect()
        } else {
            updates
                .iter()
                .map(|&(dst, v)| (dst, algorithm.frontier_value(dst, v)))
                .collect()
        };
    }
    (state, counts)
}
