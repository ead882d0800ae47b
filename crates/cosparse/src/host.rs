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
//!   a register, four length-matched rows in lockstep (the
//!   [`RowSchedule`]), reading one precomputed term per source when the
//!   op has one ([`GraphOp::source_term`]), in [`PULL_CHUNK_ROWS`]-row
//!   chunks that the calling thread and up to `workers − 1` helper
//!   threads claim from a shared queue.
//!
//! Both reduce each destination's contributions in ascending source
//! order, each row from its first contribution, so an answer is
//! bit-identical whichever kernel, backend, row order and worker count
//! produced it, float reductions included.

use crate::heuristics::SwConfig;
use crate::ops::{self, Accumulator, GraphOp, Update};
use crate::shared::SharedGraph;
use sparse::{CooMatrix, Idx, Triplet};
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

// A chunk-local row index, and a count of a chunk's rows, fit a `u16`.
const _: () = assert!(PULL_CHUNK_ROWS <= u16::MAX as usize);

/// Rows the pull reduces in lockstep: four independent add chains keep
/// the core busy where one waits on each add, and eight measured slower.
const LANES: usize = 4;

/// A row length's class, monotone in the length: a length below 16 is
/// its own class, and each octave from 16 up splits into eight classes
/// by the three bits below its top one, so rows of one class differ by
/// less than 1/8 of their length.
const fn length_class(len: usize) -> usize {
    if len < 16 {
        return len;
    }
    let octave = len.ilog2() as usize;
    16 + (octave - 4) * 8 + ((len >> (octave - 3)) & 7)
}

/// Length classes of a `usize` row length.
const LENGTH_CLASSES: usize = length_class(usize::MAX) + 1;

/// The full-frontier pull's row index over one row-major COO: the
/// entries per row, and each [`PULL_CHUNK_ROWS`]-row chunk's rows in
/// the order the pull walks them — longest length class first, ties
/// in row order, so the chunk's empty rows come last. The order is one
/// chunk-local `u16` per row, built in O(rows) by a counting sort per
/// chunk; [`crate::SharedGraph`] builds it once per graph.
#[derive(Debug, Clone)]
pub struct RowSchedule {
    row_counts: Vec<usize>,
    order: Vec<u16>,
}

impl RowSchedule {
    /// The schedule of a matrix with `row_counts[r]` entries in row `r`.
    pub fn new(row_counts: Vec<usize>) -> Self {
        let mut order = vec![0u16; row_counts.len()];
        for (counts, order) in row_counts
            .chunks(PULL_CHUNK_ROWS)
            .zip(order.chunks_mut(PULL_CHUNK_ROWS))
        {
            // Bucket `LENGTH_CLASSES - 1 - class` holds a class, so the
            // buckets run longest first.
            let bucket = |len: usize| LENGTH_CLASSES - 1 - length_class(len);
            let mut next = [0u16; LENGTH_CLASSES];
            for &len in counts {
                next[bucket(len)] += 1;
            }
            let mut sum = 0;
            for slot in &mut next {
                (*slot, sum) = (sum, sum + *slot);
            }
            for (k, &len) in counts.iter().enumerate() {
                let slot = &mut next[bucket(len)];
                order[usize::from(*slot)] = k as u16;
                *slot += 1;
            }
        }
        RowSchedule { row_counts, order }
    }

    /// Entries per row.
    pub(crate) fn row_counts(&self) -> &[usize] {
        &self.row_counts
    }
}

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
    let updates = pull(
        op,
        graph.matrix(),
        graph.row_schedule(),
        inputs,
        workers,
        acc,
    );
    (SwConfig::InnerProduct, updates)
}

/// The full-frontier kernel: every row `dst` of the row-major `coo`
/// (its `row_counts[dst]` entries, ascending by source) reduces its
/// contributions in a register, starting from its first, then applies
/// [`GraphOp::vector_op`] and [`GraphOp::is_update`]. When the op has
/// [`GraphOp::source_term`]s, the step first fills one per source into
/// `acc` and a contribution is `terms[src]`; otherwise it is
/// `matrix_op`, with the source's frontier value read straight from
/// `active[src]` (a full frontier lists every source in order).
///
/// Rows split into [`PULL_CHUNK_ROWS`]-row chunks. A chunk finds its
/// first entry by binary search on the row index and its row offsets by
/// running sums of `row_counts`, so the kernel keeps no offset array.
/// It walks its rows in `schedule`'s order, four rows in lockstep
/// over their common length, then each row's own tail: every row still
/// reduces its entries in ascending source order from its first, so
/// its chain of `reduce` calls is the one a lone walk makes, bit for
/// bit. Each row's result lands in a chunk-local slot, and the chunk
/// emits its updates in row order.
///
/// With one worker, or one chunk, the calling thread walks every chunk
/// into an output of `rows` capacity. Otherwise it spawns up to
/// `workers − 1` helpers, and every thread claims the next chunk from
/// one shared queue and writes that chunk's updates at the chunk's own
/// offset of one `rows`-long output, which a final pass compacts in
/// chunk order. A helper that starts late or never gets a CPU only
/// leaves more chunks to the caller. A step allocates the output, plus
/// one count per chunk when helpers run, and the result is the same for
/// any worker count.
///
/// # Panics
///
/// Panics if `active` is not the full frontier of `coo`, or if
/// `schedule` is not `coo`'s, `state` not `rows` long or `degrees` not
/// `cols` long.
pub fn pull<O: GraphOp>(
    op: &O,
    coo: &CooMatrix,
    schedule: &RowSchedule,
    inputs: StepInputs<'_, O::Value>,
    workers: usize,
    acc: &mut Accumulator<O::Value>,
) -> Vec<Update<O::Value>> {
    let StepInputs {
        active,
        state,
        degrees,
    } = inputs;
    assert_eq!(active.len(), coo.cols(), "a full frontier");
    assert_eq!(schedule.row_counts.len(), coo.rows(), "one count per row");
    debug_assert!(
        active
            .iter()
            .enumerate()
            .all(|(i, &(src, _))| src as usize == i),
        "a full frontier lists every source in order"
    );
    let rows = coo.rows();
    let entries = coo.entries();
    let terms = source_terms(op, active, degrees, &mut acc.terms);
    let pull_chunk = |c: usize, emit: &mut dyn FnMut(Update<O::Value>)| {
        let chunk = Chunk {
            entries,
            schedule,
            state,
            rows: c * PULL_CHUNK_ROWS..rows.min((c + 1) * PULL_CHUNK_ROWS),
        };
        match terms {
            Some(terms) => chunk.walk(op, |t, _| terms[t.col as usize], emit),
            None => chunk.walk(
                op,
                |t, old| {
                    let src = t.col as usize;
                    op.matrix_op(t.val, active[src].1, old, degrees[src])
                },
                emit,
            ),
        }
    };
    let chunks = rows.div_ceil(PULL_CHUNK_ROWS);
    let helpers = workers.min(chunks).saturating_sub(1);
    if helpers == 0 {
        let mut out = Vec::with_capacity(rows);
        for c in 0..chunks {
            pull_chunk(c, &mut |u| out.push(u));
        }
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
            let mut k = 0;
            pull_chunk(c, &mut |u| {
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

/// Refills `terms` with `op`'s [`GraphOp::source_term`] of every source
/// of the full frontier `active`, reusing its capacity; empties it and
/// returns `None` when the op has none.
fn source_terms<'t, O: GraphOp>(
    op: &O,
    active: &[(Idx, O::Value)],
    degrees: &[u32],
    terms: &'t mut Vec<O::Value>,
) -> Option<&'t [O::Value]> {
    terms.clear();
    terms.reserve_exact(active.len());
    for (&(_, value), &degree) in active.iter().zip(degrees) {
        let Some(term) = op.source_term(value, degree) else {
            terms.clear();
            return None;
        };
        terms.push(term);
    }
    Some(terms)
}

/// One [`PULL_CHUNK_ROWS`]-row chunk of a pull's operands.
struct Chunk<'a, V> {
    entries: &'a [Triplet],
    schedule: &'a RowSchedule,
    state: &'a [V],
    rows: Range<usize>,
}

impl<V: Copy> Chunk<'_, V> {
    /// Reduces the chunk's rows by `contrib(entry, dst state)` in the
    /// schedule's order, [`LANES`] at a time (see [`pull`]), and emits
    /// the updates in row order.
    fn walk<O: GraphOp<Value = V>>(
        &self,
        op: &O,
        contrib: impl Fn(&Triplet, V) -> V,
        emit: &mut dyn FnMut(Update<V>),
    ) {
        let first = self.rows.start;
        let counts = &self.schedule.row_counts[self.rows.clone()];
        let order = &self.schedule.order[self.rows.clone()];
        let state = &self.state[self.rows.clone()];
        let mut starts = [0usize; PULL_CHUNK_ROWS];
        let mut next = self.entries.partition_point(|t| (t.row as usize) < first);
        for (start, &n) in starts.iter_mut().zip(counts) {
            *start = next;
            next += n;
        }
        let row = |k: usize| &self.entries[starts[k]..starts[k] + counts[k]];
        let mut reduced = [state[0]; PULL_CHUNK_ROWS];
        // Empty rows close the order.
        let live = order.partition_point(|&k| counts[usize::from(k)] > 0);
        let mut groups = order[..live].chunks_exact(LANES);
        for group in groups.by_ref() {
            let k: [usize; LANES] = std::array::from_fn(|i| usize::from(group[i]));
            let rows = k.map(row);
            let old = k.map(|k| state[k]);
            let common = rows.iter().map(|r| r.len()).min().unwrap_or(0);
            let mut acc: [V; LANES] = std::array::from_fn(|i| contrib(&rows[i][0], old[i]));
            let [r0, r1, r2, r3] = rows.map(|r| &r[1..common]);
            for (((t0, t1), t2), t3) in r0.iter().zip(r1).zip(r2).zip(r3) {
                acc[0] = op.reduce(acc[0], contrib(t0, old[0]));
                acc[1] = op.reduce(acc[1], contrib(t1, old[1]));
                acc[2] = op.reduce(acc[2], contrib(t2, old[2]));
                acc[3] = op.reduce(acc[3], contrib(t3, old[3]));
            }
            for i in 0..LANES {
                for t in &rows[i][common..] {
                    acc[i] = op.reduce(acc[i], contrib(t, old[i]));
                }
                reduced[k[i]] = acc[i];
            }
        }
        for &k in groups.remainder() {
            let k = usize::from(k);
            let (head, rest) = row(k).split_first().expect("a live row has an entry");
            let mut acc = contrib(head, state[k]);
            for t in rest {
                acc = op.reduce(acc, contrib(t, state[k]));
            }
            reduced[k] = acc;
        }
        for (k, (&n, &old)) in counts.iter().zip(state).enumerate() {
            if n == 0 {
                continue;
            }
            let new = op.vector_op(reduced[k], old);
            if op.is_update(new, old) {
                emit(((first + k) as Idx, new));
            }
        }
    }
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
        let schedule = RowSchedule::new(vec![0; 5]);
        let mut acc = Accumulator::default();
        assert!(pull(&SpmvOp, &m, &schedule, inputs, 4, &mut acc).is_empty());
    }

    #[test]
    fn length_classes_are_monotone_and_tight() {
        let mut last = 0;
        for len in 0..5000usize {
            let class = length_class(len);
            assert!(class == last || class == last + 1, "len {len}");
            last = class;
        }
        assert_eq!(length_class(usize::MAX), LENGTH_CLASSES - 1);
        // A class spans less than 1/8 of its lengths.
        for len in 16..5000usize {
            let top = (len..)
                .find(|&l| length_class(l) != length_class(len))
                .unwrap();
            assert!((top - len) * 8 <= len, "len {len}: class ends at {top}");
        }
    }

    #[test]
    fn schedule_orders_each_chunk_longest_class_first() {
        let b = PULL_CHUNK_ROWS;
        let counts: Vec<usize> = (0..2 * b + 7).map(|r| (r * 37) % 41 + r / 300).collect();
        let schedule = RowSchedule::new(counts.clone());
        for (c, order) in schedule.order.chunks(b).enumerate() {
            let mut seen: Vec<usize> = order.iter().map(|&k| usize::from(k)).collect();
            let class = |k: usize| length_class(counts[c * b + k]);
            for pair in seen.windows(2) {
                let (a, z) = (pair[0], pair[1]);
                assert!(class(a) > class(z) || (class(a) == class(z) && a < z));
            }
            seen.sort_unstable();
            assert!(seen.iter().copied().eq(0..order.len()), "a permutation");
        }
    }
}
