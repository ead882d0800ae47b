//! The functional SpMV step both backends answer through, and the host
//! CPU count that sizes its helper pool.
//!
//! Every step's answer comes from one of two exact kernels, picked by
//! the frontier and by nothing else — not the backend, and not the
//! decided dataflow, hardware configuration, storage format or
//! reordering, which shape only the simulated access stream:
//!
//! - a **partial** frontier (`active.len() < cols`) runs the push kernel
//!   ([`crate::ops::apply_with`]) over the active CSC columns into the
//!   session's reusable accumulator — O(touched edges), no thread;
//! - a **full** frontier runs [`pull`] over the row-major COO the shared
//!   graph already stores: each destination row reduces its entries in
//!   a register, in [`PULL_CHUNK_ROWS`]-row chunks that the calling
//!   thread and up to `workers − 1` helper threads claim from a shared
//!   queue.
//!
//! Both reduce each destination's contributions in ascending source
//! order, so an answer is bit-identical whichever kernel, backend and
//! worker count produced it, float reductions included.

use crate::heuristics::SwConfig;
use crate::ops::{self, Accumulator, GraphOp, Update};
use crate::shared::SharedGraph;
use sparse::{CooMatrix, Idx};
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// Which execution backend a [`crate::CoSparse`] runtime answers with.
/// Both compute answers through the same kernels (see the module docs);
/// they differ in what they time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// The trace-driven cycle simulator (the default): the decided
    /// kernel program runs on the simulated machine for cycles and
    /// energy, next to the functional step.
    #[default]
    Simulate,
    /// Native host execution: the functional step alone, orders of
    /// magnitude faster, no simulated timing (reports carry wall-clock
    /// seconds and zero cycles). A step runs no decision tree, policy
    /// or override: it reports the kernel that ran — the pull as IP
    /// over COO, the push as OP over CSC — with no reordering and the
    /// machine's unchanged hardware configuration.
    Host,
}

/// The host's available parallelism (1 when it cannot be determined),
/// resolved once per process: the query is a system call, and the
/// full-frontier pull's helper pool and the serving layer's worker pool
/// are sized from it.
pub fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Per-step operands of one SpMV: the sorted active `(source, frontier
/// value)` pairs, the full per-vertex state, and the original graph's
/// out-degrees — the same triple [`crate::ops::apply`] takes.
#[derive(Debug, Clone, Copy)]
pub struct StepInputs<'a, V> {
    /// Sorted active `(source, frontier value)` pairs.
    pub active: &'a [(Idx, V)],
    /// Per-vertex state vector.
    pub state: &'a [V],
    /// Out-degree of each source in the original graph.
    pub degrees: &'a [u32],
}

/// Rows per chunk of the full-frontier pull: the unit a worker claims
/// from the shared queue. On the Pokec analogue at divisor 64 (25k
/// rows, 478k entries) two workers took the same time, within the
/// host's noise, at 256 to 2048 rows per chunk; 512 leaves ~50 chunks
/// there, so a helper that starts late still finds work, and costs one
/// queue lock per ~9k entries.
pub const PULL_CHUNK_ROWS: usize = 512;

/// One functional step over `graph`'s arrival-order operands: a partial
/// frontier pushes into `acc`, a full one pulls on `workers` threads
/// (see the module docs). Returns the dataflow of the kernel that ran —
/// [`SwConfig::OuterProduct`] for the push over CSC columns,
/// [`SwConfig::InnerProduct`] for the pull over COO rows — and the
/// updates that passed [`GraphOp::is_update`], sorted by destination.
///
/// # Panics
///
/// Panics if an active index or a matrix index is out of bounds of
/// `state`/`degrees`.
pub(crate) fn execute<O: GraphOp>(
    op: &O,
    graph: &SharedGraph,
    active: &[(Idx, O::Value)],
    state: &[O::Value],
    workers: usize,
    acc: &mut Accumulator<O::Value>,
) -> (SwConfig, Vec<Update<O::Value>>) {
    let csc = graph.matrix_csc();
    let degrees = graph.degrees();
    if active.len() < csc.cols() {
        let updates = ops::apply_with(op, csc, active, state, degrees, acc);
        return (SwConfig::OuterProduct, updates);
    }
    let inputs = StepInputs {
        active,
        state,
        degrees,
    };
    let updates = pull(op, graph.matrix(), graph.row_counts(), inputs, workers);
    (SwConfig::InnerProduct, updates)
}

/// The full-frontier kernel: every row `dst` of the row-major `coo`
/// (its `row_counts[dst]` entries, ascending by source) reduces
/// `matrix_op` over its entries in a register, starting from its first
/// contribution, then applies [`GraphOp::vector_op`] and
/// [`GraphOp::is_update`]. A source's frontier value is read straight
/// from `active[src]`: a full frontier lists every source in order.
/// Row offsets are running sums of `row_counts` from each chunk's first
/// entry, found by binary search on the row index, so the kernel keeps
/// no offset array.
///
/// Rows split into [`PULL_CHUNK_ROWS`]-row chunks. With one worker, or
/// one chunk, the calling thread walks them all into an output of
/// `rows` capacity. Otherwise it spawns up to `workers − 1` helpers,
/// and every thread claims the next chunk from one shared queue and
/// writes that chunk's updates at the chunk's own offset of one
/// `rows`-long output, which a final pass compacts in chunk order. A
/// helper that starts late or never gets a CPU only leaves more chunks
/// to the caller. A step allocates the output, plus one count per chunk
/// when helpers run, and the result is the same for any worker count.
///
/// # Panics
///
/// Panics if `active` is not the full frontier of `coo`, or if
/// `row_counts` is not `coo`'s entries per row, `state` not `rows` long
/// or `degrees` not `cols` long.
pub fn pull<O: GraphOp>(
    op: &O,
    coo: &CooMatrix,
    row_counts: &[usize],
    inputs: StepInputs<'_, O::Value>,
    workers: usize,
) -> Vec<Update<O::Value>> {
    let StepInputs {
        active,
        state,
        degrees,
    } = inputs;
    assert_eq!(active.len(), coo.cols(), "a full frontier");
    assert_eq!(row_counts.len(), coo.rows(), "one count per row");
    debug_assert!(
        active
            .iter()
            .enumerate()
            .all(|(i, &(src, _))| src as usize == i),
        "a full frontier lists every source in order"
    );
    let rows = coo.rows();
    let entries = coo.entries();
    let pull_rows = |range: Range<usize>, emit: &mut dyn FnMut(Update<O::Value>)| {
        let mut end = entries.partition_point(|t| (t.row as usize) < range.start);
        for dst in range {
            let start = end;
            end += row_counts[dst];
            let row = &entries[start..end];
            let Some((first, rest)) = row.split_first() else {
                continue;
            };
            let old = state[dst];
            let contrib = |t: &sparse::Triplet| {
                let src = t.col as usize;
                op.matrix_op(t.val, active[src].1, old, degrees[src])
            };
            let mut acc = contrib(first);
            for t in rest {
                acc = op.reduce(acc, contrib(t));
            }
            let new = op.vector_op(acc, old);
            if op.is_update(new, old) {
                emit((dst as Idx, new));
            }
        }
    };
    let chunks = rows.div_ceil(PULL_CHUNK_ROWS);
    let helpers = workers.min(chunks).saturating_sub(1);
    if helpers == 0 {
        let mut out = Vec::with_capacity(rows);
        pull_rows(0..rows, &mut |u| out.push(u));
        return out;
    }
    // Compaction reads back only the slots the pull wrote; the state is
    // only a well-typed filler.
    let mut out: Vec<Update<O::Value>> = state
        .iter()
        .enumerate()
        .map(|(dst, &v)| (dst as Idx, v))
        .collect();
    let mut counts = vec![0usize; chunks];
    {
        let queue = Mutex::new(
            out.chunks_mut(PULL_CHUNK_ROWS)
                .zip(counts.iter_mut())
                .enumerate(),
        );
        let work = || loop {
            let claimed = queue.lock().expect("pull queue poisoned").next();
            let Some((c, (slots, count))) = claimed else {
                break;
            };
            let start = c * PULL_CHUNK_ROWS;
            let mut k = 0;
            pull_rows(start..start + slots.len(), &mut |u| {
                slots[k] = u;
                k += 1;
            });
            *count = k;
        };
        std::thread::scope(|s| {
            for _ in 0..helpers {
                s.spawn(work);
            }
            work();
        });
    }
    let mut len = 0;
    for (c, &k) in counts.iter().enumerate() {
        let start = c * PULL_CHUNK_ROWS;
        out.copy_within(start..start + k, len);
        len += k;
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::SpmvOp;

    #[test]
    fn empty_matrix_pulls_nothing() {
        let m = CooMatrix::new(5, 5);
        let active: Vec<(Idx, f32)> = (0..5).map(|i| (i, 1.0)).collect();
        let inputs = StepInputs {
            active: &active,
            state: &[0.0; 5],
            degrees: &[0; 5],
        };
        assert!(pull(&SpmvOp, &m, &[0; 5], inputs, 4).is_empty());
    }
}
