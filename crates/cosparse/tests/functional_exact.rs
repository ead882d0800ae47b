//! Exactness of the two functional kernels both backends share: the
//! partial-frontier push and the full-frontier row pull.
//!
//! Both backends answer through the same kernels, so comparing them
//! with each other proves nothing about either. This suite is their
//! oracle instead: test-local copies of the kernels they replaced — the
//! golden model's ordered-map/dense `apply`, the host's masked row walk
//! over CSR, bitmap and BCSR, and the host's per-partition column merge
//! — must agree with `apply`, with a reused `Accumulator`, with
//! `host::pull` at several worker counts, and with `Simulate` and
//! `Host` sessions, bit for bit.
//!
//! Every push case alternates value types (`f32` sum, `f32` min-plus,
//! `u32` min) and frontier sizes on one session, and one accumulator per
//! type persists across cases of different vertex counts, so a slot a
//! call fails to reset corrupts a later answer and fails the suite. The
//! pull cases span several row chunks, with a chunk boundary inside a
//! run of empty rows and another next to a hub row, and a run of rows
//! whose lengths mix empty rows and rows one entry apart, so the pull's
//! four-row groups end in tails of every length.

use cosparse::host::{self, RowSchedule, StepInputs, PULL_CHUNK_ROWS};
use cosparse::ops::{apply_with, Accumulator};
use cosparse::{
    apply, CoSparse, ExecBackend, FormatKind, GraphOp, HwConfig, Policy, SpmvOp, SwConfig, Update,
};
use proptest::prelude::*;
use sparse::partition::RowPartition;
use sparse::{BcsrMatrix, BitmapCsr, CooMatrix, CscMatrix, CsrMatrix, Idx};
use std::collections::BTreeMap;
use std::fmt::Debug;
use transmuter::{Geometry, Machine, MicroArch};

/// SSSP-style relaxation: `dist[src] + w`, min-reduced.
#[derive(Debug)]
struct MinPlus;

impl GraphOp for MinPlus {
    type Value = f32;
    fn matrix_op(&self, w: f32, src: f32, _dst: f32, _deg: u32) -> f32 {
        src + w.abs()
    }
    fn reduce(&self, a: f32, b: f32) -> f32 {
        a.min(b)
    }
    fn is_update(&self, new: f32, old: f32) -> bool {
        new < old
    }
}

/// BFS-style levels: `level[src] + 1`, min-reduced, the degree's parity
/// folded in so the degree table is read too.
#[derive(Debug)]
struct MinLevel;

impl GraphOp for MinLevel {
    type Value = u32;
    fn matrix_op(&self, _w: f32, src: u32, _dst: u32, deg: u32) -> u32 {
        src.saturating_add(1 + deg % 2)
    }
    fn reduce(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }
    fn is_update(&self, new: u32, old: u32) -> bool {
        new < old
    }
}

/// PageRank's op: rank mass split over the source's out-degree, summed,
/// then damped toward a teleport term. The split is its source term, so
/// the pull reads it per source.
#[derive(Debug)]
struct PageRankOp;

impl GraphOp for PageRankOp {
    type Value = f32;
    fn matrix_op(&self, _w: f32, src: f32, _dst: f32, deg: u32) -> f32 {
        src / deg.max(1) as f32
    }
    fn source_term(&self, src: f32, deg: u32) -> Option<f32> {
        Some(src / deg.max(1) as f32)
    }
    fn reduce(&self, a: f32, b: f32) -> f32 {
        a + b
    }
    fn vector_op(&self, updated: f32, _old: f32) -> f32 {
        0.15 / 1024.0 + 0.85 * updated
    }
    fn is_update(&self, _new: f32, _old: f32) -> bool {
        true
    }
}

/// The golden model before the push kernel: an ordered map below 1/4
/// density, a fresh dense accumulator otherwise.
fn reference_apply<O: GraphOp>(
    op: &O,
    csc_t: &CscMatrix,
    active: &[(Idx, O::Value)],
    state: &[O::Value],
    degrees: &[u32],
) -> Vec<Update<O::Value>> {
    if active.len() * 4 >= state.len() && !state.is_empty() {
        let mut acc: Vec<Option<O::Value>> = vec![None; state.len()];
        for &(src, fval) in active {
            let deg = degrees[src as usize];
            let (dsts, weights) = csc_t.col(src as usize);
            for (dst, w) in dsts.iter().zip(weights) {
                let contrib = op.matrix_op(*w, fval, state[*dst as usize], deg);
                let slot = &mut acc[*dst as usize];
                *slot = Some(match *slot {
                    Some(a) => op.reduce(a, contrib),
                    None => contrib,
                });
            }
        }
        return acc
            .into_iter()
            .enumerate()
            .filter_map(|(dst, reduced)| {
                let old = state[dst];
                let new = op.vector_op(reduced?, old);
                op.is_update(new, old).then_some((dst as Idx, new))
            })
            .collect();
    }
    let mut acc: BTreeMap<Idx, O::Value> = BTreeMap::new();
    for &(src, fval) in active {
        let deg = degrees[src as usize];
        let (dsts, weights) = csc_t.col(src as usize);
        for (dst, w) in dsts.iter().zip(weights) {
            let contrib = op.matrix_op(*w, fval, state[*dst as usize], deg);
            acc.entry(*dst)
                .and_modify(|a| *a = op.reduce(*a, contrib))
                .or_insert(contrib);
        }
    }
    acc.into_iter()
        .filter_map(|(dst, reduced)| {
            let old = state[dst as usize];
            let new = op.vector_op(reduced, old);
            op.is_update(new, old).then_some((dst, new))
        })
        .collect()
}

/// The row structures the host's inner-product walk read, one per
/// decided format.
enum Rows<'a> {
    Csr(&'a CsrMatrix),
    Bitmap(&'a BitmapCsr),
    Bcsr(&'a BcsrMatrix),
}

/// The host's inner-product kernel before the push kernel: the frontier
/// scattered into a value/mask pair, then every row reduced over its
/// masked entries in ascending source order.
fn reference_masked_rows<O: GraphOp>(
    op: &O,
    rows: Rows<'_>,
    cols: usize,
    active: &[(Idx, O::Value)],
    state: &[O::Value],
    degrees: &[u32],
) -> Vec<Update<O::Value>> {
    let Some(&(_, fill)) = active.first() else {
        return Vec::new();
    };
    let mut fvals = vec![fill; cols];
    let mut mask = vec![false; cols];
    for &(src, v) in active {
        fvals[src as usize] = v;
        mask[src as usize] = true;
    }
    let mut out = Vec::new();
    for (dst, &old) in state.iter().enumerate() {
        let mut acc: Option<O::Value> = None;
        let mut visit = |si: usize, w: f32| {
            if mask[si] {
                let contrib = op.matrix_op(w, fvals[si], old, degrees[si]);
                acc = Some(match acc.take() {
                    Some(a) => op.reduce(a, contrib),
                    None => contrib,
                });
            }
        };
        match rows {
            Rows::Csr(m) => {
                let (srcs, weights) = m.row(dst);
                for (s, w) in srcs.iter().zip(weights) {
                    visit(*s as usize, *w);
                }
            }
            Rows::Bitmap(m) => {
                for (col, w) in m.iter_row(dst) {
                    visit(col as usize, w);
                }
            }
            Rows::Bcsr(m) => {
                let (br, bc) = m.block_shape();
                let (brow, i) = (dst / br, dst % br);
                for b in m.block_row_ptr()[brow]..m.block_row_ptr()[brow + 1] {
                    let base_col = m.block_col()[b] as usize * bc;
                    for j in 0..bc {
                        if m.mask()[b] >> (i * bc + j) & 1 == 1 {
                            visit(base_col + j, m.values()[b * br * bc + i * bc + j]);
                        }
                    }
                }
            }
        }
        if let Some(reduced) = acc {
            let new = op.vector_op(reduced, old);
            if op.is_update(new, old) {
                out.push((dst as Idx, new));
            }
        }
    }
    out
}

/// The host's outer-product kernel before the push kernel: per row
/// partition, every active column narrowed to the partition's rows by
/// binary search and merged into a partition-local accumulator; the
/// per-partition outputs concatenated in partition order.
fn reference_sparse_columns<O: GraphOp>(
    op: &O,
    csc: &CscMatrix,
    partition: &RowPartition,
    active: &[(Idx, O::Value)],
    state: &[O::Value],
    degrees: &[u32],
) -> Vec<Update<O::Value>> {
    let mut out = Vec::new();
    for p in 0..partition.len() {
        let range = partition.range(p);
        let base = range.start;
        let mut acc: Vec<Option<O::Value>> = vec![None; range.len()];
        let mut touched: Vec<Idx> = Vec::new();
        for &(src, fval) in active {
            let deg = degrees[src as usize];
            let (dsts, weights) = csc.col(src as usize);
            let lo = dsts.partition_point(|&d| (d as usize) < range.start);
            let hi = lo + dsts[lo..].partition_point(|&d| (d as usize) < range.end);
            for (d, w) in dsts[lo..hi].iter().zip(&weights[lo..hi]) {
                let di = *d as usize - base;
                let contrib = op.matrix_op(*w, fval, state[*d as usize], deg);
                acc[di] = Some(match acc[di] {
                    Some(a) => op.reduce(a, contrib),
                    None => {
                        touched.push(*d);
                        contrib
                    }
                });
            }
        }
        touched.sort_unstable();
        for d in touched {
            let reduced = acc[d as usize - base].expect("touched slots hold a value");
            let old = state[d as usize];
            let new = op.vector_op(reduced, old);
            if op.is_update(new, old) {
                out.push((d, new));
            }
        }
    }
    out
}

/// Values compared by their bit patterns, so `-0.0 != 0.0` and NaNs
/// compare by payload.
trait Bits: Copy {
    fn bits(self) -> u64;
}

impl Bits for f32 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl Bits for u32 {
    fn bits(self) -> u64 {
        u64::from(self)
    }
}

fn assert_bits_eq<V: Bits + Debug>(got: &[Update<V>], want: &[Update<V>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: update count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.0, w.0, "{what}: destination");
        assert_eq!(
            g.1.bits(),
            w.1.bits(),
            "{what}: dst {} {:?} vs {:?}",
            g.0,
            g.1,
            w.1
        );
    }
}

/// One random graph: the operand matrix (destinations by row, sources
/// by column) with a band of empty columns and self-loops on every
/// third vertex, its CSC and row images, and per-vertex values.
struct Case {
    n: usize,
    coo: CooMatrix,
    csc: CscMatrix,
    degrees: Vec<u32>,
    /// Frontier values and states, drawn per vertex.
    seeds: Vec<(f32, f32)>,
}

type RawCase = (usize, Vec<(u32, u32, f32)>, Vec<(f32, f32)>, usize);

fn arb_case() -> impl Strategy<Value = RawCase> {
    (9usize..200).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0u32..n as u32, 0u32..n as u32, -4.0f32..4.0), 0..n * 6),
            proptest::collection::vec((0.25f32..4.0, 0.0f32..12.0), n),
            0usize..1000,
        )
    })
}

impl Case {
    fn new((n, mut triplets, seeds, _): RawCase) -> Case {
        // Columns [n/3, n/3 + n/8) stay empty: sources with no out-edges.
        let empty = n / 3..n / 3 + n / 8;
        triplets.retain(|&(_, c, _)| !empty.contains(&(c as usize)));
        triplets.extend(
            (0..n as u32)
                .step_by(3)
                .filter(|&v| !empty.contains(&(v as usize)))
                .map(|v| (v, v, 0.5 + v as f32)),
        );
        let coo = CooMatrix::from_triplets(n, n, triplets).expect("in bounds");
        let csc = CscMatrix::from(&coo);
        let degrees = coo.col_counts().into_iter().map(|c| c as u32).collect();
        Case {
            n,
            coo,
            csc,
            degrees,
            seeds,
        }
    }

    /// Frontier sizes: empty, 1, below 1/64, 1/8, just under 1/4, 1/4
    /// (the old map/dense cut-over on either side), 1/2, n−1 and n.
    fn sizes(&self) -> [usize; 9] {
        let n = self.n;
        [
            0,
            1,
            (n - 1) / 64,
            n / 8,
            (n - 1) / 4,
            n.div_ceil(4),
            n / 2,
            n - 1,
            n,
        ]
    }

    /// `size` distinct sources in ascending order, drawn by a
    /// `salt`-dependent shuffle.
    fn frontier<V>(&self, size: usize, salt: usize, value: impl Fn(usize) -> V) -> Vec<(Idx, V)> {
        let mut picked: Vec<usize> = (0..self.n).collect();
        picked.sort_by_key(|&i| (i as u64 ^ salt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        picked.truncate(size);
        picked.sort_unstable();
        picked.into_iter().map(|i| (i as Idx, value(i))).collect()
    }
}

/// Both golden-model entry points against the reference model.
fn check_apply<O: GraphOp>(
    op: &O,
    case: &Case,
    active: &[(Idx, O::Value)],
    state: &[O::Value],
    acc: &mut Accumulator<O::Value>,
    what: &str,
) -> Vec<Update<O::Value>>
where
    O::Value: Bits,
{
    let want = reference_apply(op, &case.csc, active, state, &case.degrees);
    let fresh = apply(op, &case.csc, active, state, &case.degrees);
    assert_bits_eq(&fresh, &want, &format!("{what}: apply"));
    let reused = apply_with(op, &case.csc, active, state, &case.degrees, acc);
    assert_bits_eq(&reused, &want, &format!("{what}: apply_with"));
    want
}

fn session(case: &Case, backend: ExecBackend) -> CoSparse {
    let mut s = CoSparse::new(
        &case.coo,
        Machine::new(Geometry::new(2, 4), MicroArch::paper()),
    );
    s.set_backend(backend);
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `apply`, a reused accumulator and `Simulate`/`Host` sessions
    /// reproduce the reference golden model at every frontier size,
    /// while value types alternate on one session.
    #[test]
    fn push_kernel_is_bit_exact_across_sizes_and_types(raw in arb_case()) {
        thread_local! {
            static ACCS: std::cell::RefCell<(Accumulator<f32>, Accumulator<u32>)> =
                std::cell::RefCell::new(Default::default());
        }
        let salt = raw.3;
        let case = Case::new(raw);
        let n = case.n;
        let zeros = vec![0.0f32; n];
        let dist: Vec<f32> = (0..n)
            .map(|i| if i % 5 == 0 { f32::INFINITY } else { case.seeds[i].1 })
            .collect();
        let levels: Vec<u32> = (0..n)
            .map(|i| if i % 4 == 0 { u32::MAX } else { case.seeds[i].1 as u32 })
            .collect();
        let mut sim = session(&case, ExecBackend::Simulate);
        let mut host = session(&case, ExecBackend::Host);
        ACCS.with(|accs| {
            let (acc_f, acc_u) = &mut *accs.borrow_mut();
            // Two rounds: the second runs every size again on sessions
            // and accumulators the first has dirtied, if it did.
            for round in 0..2 {
                for (k, size) in case.sizes().into_iter().enumerate() {
                    let salt = salt + k + round;
                    let what = format!("n={n} size={size} round={round}");
                    let sum_front = case.frontier(size, salt, |i| case.seeds[i].0);
                    let want = check_apply(&SpmvOp, &case, &sum_front, &zeros, acc_f, &format!("{what} sum"));
                    for s in [&mut sim, &mut host] {
                        let got = s.step(&SpmvOp, &sum_front, &zeros).expect("sum step");
                        assert_bits_eq(&got.updates, &want, &format!("{what} sum {:?}", s.backend()));
                    }
                    let level_front = case.frontier(size, salt + 1, |i| i as u32 % 7);
                    let want = check_apply(&MinLevel, &case, &level_front, &levels, acc_u, &format!("{what} level"));
                    for s in [&mut sim, &mut host] {
                        let got = s.step(&MinLevel, &level_front, &levels).expect("level step");
                        assert_bits_eq(&got.updates, &want, &format!("{what} level {:?}", s.backend()));
                    }
                    let dist_front = case.frontier(size, salt + 2, |i| case.seeds[i].0);
                    let want = check_apply(&MinPlus, &case, &dist_front, &dist, acc_f, &format!("{what} min-plus"));
                    for s in [&mut sim, &mut host] {
                        let got = s.step(&MinPlus, &dist_front, &dist).expect("min-plus step");
                        assert_bits_eq(&got.updates, &want, &format!("{what} min-plus {:?}", s.backend()));
                    }
                }
            }
        });
    }

    /// On partial frontiers the `Host` backend reproduces, for every
    /// decided dataflow and format, the host kernel that decision used
    /// to run: the masked row walk over CSR, bitmap or BCSR for the
    /// inner product, the per-partition column merge for the outer.
    #[test]
    fn host_partial_steps_match_the_replaced_kernels(raw in arb_case()) {
        let salt = raw.3;
        let case = Case::new(raw);
        let n = case.n;
        let csr = CsrMatrix::from(&case.coo);
        let bitmap = BitmapCsr::from(&case.coo);
        let bcsr = BcsrMatrix::from(&case.coo);
        let partition = RowPartition::nnz_balanced_csr(&csr, 8);
        let dist: Vec<f32> = (0..n)
            .map(|i| if i % 5 == 0 { f32::INFINITY } else { case.seeds[i].1 })
            .collect();
        let zeros = vec![0.0f32; n];
        let mut host = session(&case, ExecBackend::Host);
        for (k, size) in case.sizes().into_iter().enumerate().filter(|&(_, s)| s < n) {
            let front = case.frontier(size, salt + k, |i| case.seeds[i].0);
            for (name, state, min) in [("sum", &zeros, false), ("min-plus", &dist, true)] {
                let run = |host: &mut CoSparse| {
                    if min {
                        host.step(&MinPlus, &front, state).expect("host step").updates
                    } else {
                        host.step(&SpmvOp, &front, state).expect("host step").updates
                    }
                };
                let reference = |rows: Option<Rows<'_>>| match (rows, min) {
                    (Some(rows), false) => reference_masked_rows(&SpmvOp, rows, n, &front, state, &case.degrees),
                    (Some(rows), true) => reference_masked_rows(&MinPlus, rows, n, &front, state, &case.degrees),
                    (None, false) => reference_sparse_columns(&SpmvOp, &case.csc, &partition, &front, state, &case.degrees),
                    (None, true) => reference_sparse_columns(&MinPlus, &case.csc, &partition, &front, state, &case.degrees),
                };
                host.set_policy(Policy::Fixed(SwConfig::InnerProduct, HwConfig::Sc));
                for (format, rows) in [
                    (FormatKind::Coo, Rows::Csr(&csr)),
                    (FormatKind::Bitmap, Rows::Bitmap(&bitmap)),
                    (FormatKind::Bcsr, Rows::Bcsr(&bcsr)),
                ] {
                    host.set_format_override(Some(format));
                    let what = format!("n={n} size={size} {name} IP/{format}");
                    assert_bits_eq(&run(&mut host), &reference(Some(rows)), &what);
                }
                host.set_format_override(None);
                host.set_policy(Policy::Fixed(SwConfig::OuterProduct, HwConfig::Pc));
                let what = format!("n={n} size={size} {name} OP");
                assert_bits_eq(&run(&mut host), &reference(None), &what);
            }
        }
    }
}

/// One multi-chunk graph for the pull: rows `[B − a, B + b)` (`B` =
/// [`PULL_CHUNK_ROWS`]) are empty, so the first chunk boundary falls
/// inside a run of empty rows; the rows of [`LADDER`] hold exactly
/// `ladder_len(r)` entries, 0 to 22, so empty rows and rows one entry
/// apart share four-row groups; every other row has an entry; and a hub
/// row with an entry in every other column sits just before or at the
/// second boundary.
struct PullCase {
    coo: CooMatrix,
    csc: CscMatrix,
    schedule: RowSchedule,
    degrees: Vec<u32>,
    seeds: Vec<(f32, f32)>,
}

type RawPullCase = (
    usize,
    Vec<(u32, u32, f32)>,
    Vec<(f32, f32)>,
    (usize, usize, u8),
);

fn arb_pull_case() -> impl Strategy<Value = RawPullCase> {
    let b = PULL_CHUNK_ROWS;
    (2 * b + 1..4 * b).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0u32..n as u32, 0u32..n as u32, -4.0f32..4.0), n..n * 4),
            proptest::collection::vec((0.25f32..4.0, 0.0f32..12.0), n),
            (1usize..40, 1usize..40, 0u8..2),
        )
    })
}

/// Rows of the pull case whose lengths are set by [`ladder_len`].
const LADDER: std::ops::Range<u32> = 8..104;

/// A [`LADDER`] row's length: every length from 0 to 22 recurs.
fn ladder_len(r: u32) -> u32 {
    r * 5 % 23
}

impl PullCase {
    fn new((n, mut triplets, seeds, (before, after, hub_first)): RawPullCase) -> PullCase {
        let b = PULL_CHUNK_ROWS;
        let empty = b - before..b + after;
        triplets.retain(|&(r, _, _)| !empty.contains(&(r as usize)) && !LADDER.contains(&r));
        // Every row outside the empty run and the ladder gets an entry,
        // so the chunks past it update in every row.
        triplets.extend(
            (0..n as u32)
                .filter(|&r| !empty.contains(&(r as usize)) && !LADDER.contains(&r))
                .map(|r| (r, (r * 7 + 3) % n as u32, 0.5)),
        );
        triplets.extend(LADDER.flat_map(|r| {
            (0..ladder_len(r)).map(move |j| (r, (r * 13 + j * 31) % n as u32, 0.5 + j as f32 / 8.0))
        }));
        let hub = (2 * b - usize::from(hub_first == 0)) as u32;
        triplets.extend((0..n as u32).step_by(2).map(|c| (hub, c, 0.25 + c as f32)));
        let coo = CooMatrix::from_triplets(n, n, triplets).expect("in bounds");
        PullCase {
            schedule: RowSchedule::new(coo.row_counts()),
            csc: CscMatrix::from(&coo),
            degrees: coo.col_counts().into_iter().map(|c| c as u32).collect(),
            coo,
            seeds,
        }
    }

    /// `op` over the full frontier `value(i)` from `state`: the
    /// reference, then the pull at every worker count and a `Host`
    /// session at each, bit for bit.
    fn check<O: GraphOp>(
        &self,
        op: &O,
        value: impl Fn(usize) -> O::Value,
        state: &[O::Value],
        host: &mut CoSparse,
        what: &str,
    ) where
        O::Value: Bits,
    {
        let n = self.coo.cols();
        let active: Vec<(Idx, O::Value)> = (0..n).map(|i| (i as Idx, value(i))).collect();
        let want = reference_apply(op, &self.csc, &active, state, &self.degrees);
        let inputs = StepInputs {
            active: &active,
            state,
            degrees: &self.degrees,
        };
        let chunks = n.div_ceil(PULL_CHUNK_ROWS);
        for workers in [1, 2, 3, 4, chunks + 1] {
            let mut acc = Accumulator::default();
            let got = host::pull(op, &self.coo, &self.schedule, inputs, workers, &mut acc);
            assert_bits_eq(&got, &want, &format!("{what} pull w={workers}"));
            host.set_host_threads(workers);
            let got = host.step(op, &active, state).expect("host step").updates;
            assert_bits_eq(&got, &want, &format!("{what} Host w={workers}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full-frontier pull reproduces the reference for the
    /// PageRank (per-source term), sum, min-level and min-plus ops at
    /// 1–4 workers and at more workers than chunks, directly and
    /// through `Host` sessions; one `Simulate` session pulls on two
    /// workers. The sum runs after PageRank on the same session, so
    /// terms PageRank left in the `f32` accumulator must not leak.
    #[test]
    fn full_frontier_pull_is_bit_exact_at_any_worker_count(raw in arb_pull_case()) {
        let case = PullCase::new(raw);
        let n = case.coo.cols();
        let what = format!("n={n}");
        let mut host = CoSparse::new(
            &case.coo,
            Machine::new(Geometry::new(2, 4), MicroArch::paper()),
        );
        host.set_backend(ExecBackend::Host);
        let zeros = vec![0.0f32; n];
        let dist: Vec<f32> = (0..n)
            .map(|i| if i % 5 == 0 { f32::INFINITY } else { case.seeds[i].1 })
            .collect();
        let levels: Vec<u32> = (0..n)
            .map(|i| if i % 4 == 0 { u32::MAX } else { case.seeds[i].1 as u32 })
            .collect();
        let ranks: Vec<f32> = case.seeds.iter().map(|s| s.0 / n as f32).collect();
        case.check(&PageRankOp, |i| ranks[i], &ranks, &mut host, &format!("{what} pagerank"));
        case.check(&SpmvOp, |i| case.seeds[i].0, &zeros, &mut host, &format!("{what} sum"));
        case.check(&MinLevel, |i| i as u32 % 7, &levels, &mut host, &format!("{what} level"));
        case.check(&MinPlus, |i| case.seeds[i].0, &dist, &mut host, &format!("{what} min-plus"));

        let mut sim = CoSparse::new(
            &case.coo,
            Machine::new(Geometry::new(2, 4), MicroArch::paper()),
        );
        sim.set_host_threads(2);
        let active: Vec<(Idx, f32)> = ranks.iter().enumerate().map(|(i, &r)| (i as Idx, r)).collect();
        let want = reference_apply(&PageRankOp, &case.csc, &active, &ranks, &case.degrees);
        let got = sim.step(&PageRankOp, &active, &ranks).expect("simulate step");
        assert_bits_eq(&got.updates, &want, &format!("{what} pagerank Simulate"));
    }
}

/// One chunk whose rows cancel: row `r` holds `[H, s, …, s, −H, s]`
/// with `H = 2^30` and `s = r + 1`. In source order every `s` before
/// `−H` is absorbed into `H`, so the row sums to its last entry, `s`;
/// a reversed tail, a dropped last entry or another row's entries give
/// other bits. Its seven live rows make one four-row group, whose tails
/// run zero to four entries past their common length (two of them end
/// in `−H, s`), and three rows outside any group; two rows are empty.
#[test]
fn pull_reduces_every_row_in_source_order() {
    let lengths = [5u32, 9, 6, 7, 10, 5, 6, 0, 0];
    let n = 16;
    let big = (1u32 << 30) as f32;
    let triplets = lengths
        .iter()
        .zip(0u32..)
        .flat_map(|(&len, r)| {
            (0..len).map(move |j| {
                let w = match j {
                    0 => big,
                    j if j == len - 2 => -big,
                    _ => (r + 1) as f32,
                };
                (r, j, w)
            })
        })
        .collect();
    let coo = CooMatrix::from_triplets(lengths.len(), n, triplets).expect("in bounds");
    let csc = CscMatrix::from(&coo);
    let degrees: Vec<u32> = coo.col_counts().into_iter().map(|c| c as u32).collect();
    let active: Vec<(Idx, f32)> = (0..n as Idx).map(|i| (i, 1.0)).collect();
    let state = vec![0.0f32; lengths.len()];
    let want = reference_apply(&SpmvOp, &csc, &active, &state, &degrees);
    let sums: Vec<f32> = want.iter().map(|u| u.1).collect();
    assert_eq!(sums, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    let schedule = RowSchedule::new(coo.row_counts());
    let inputs = StepInputs {
        active: &active,
        state: &state,
        degrees: &degrees,
    };
    for workers in [1, 2] {
        let mut acc = Accumulator::default();
        let got = host::pull(&SpmvOp, &coo, &schedule, inputs, workers, &mut acc);
        assert_bits_eq(&got, &want, &format!("cancelling rows w={workers}"));
    }
}
