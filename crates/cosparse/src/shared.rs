//! Shared, immutable per-graph state behind every [`CoSparse`] session.
//!
//! Everything derivable from the operand matrix alone — the COO/CSC
//! copies, the address-space [`Layout`] and its
//! [`RegionMap`], the workload-balanced partitions and vblock tilings,
//! and the compiled dense-IP [`Program`]s per hardware configuration —
//! lives in one [`SharedGraph`],
//! built once and shared via [`Arc`] by any number of concurrent
//! sessions. A [`CoSparse`] session keeps only what is genuinely
//! per-query: its simulated [`Machine`], frontier scratch and policy
//! knobs. Creating a session is cheap; creating a
//! graph is where the setup cost lives.
//!
//! Read paths are lock-free in the steady state: a session caches an
//! `Arc` to its current `SharedPlan` (re-looked-up only when the op
//! profile or balancing scheme changes), and the plan's dense-IP
//! programs and OP sub-run tables sit behind [`OnceLock`]s — writes
//! happen only on the cold miss that first derives the artifact. The
//! single [`Mutex`] in the structure guards the small plan registry and
//! is touched only when a session (re)binds a plan.
//!
//! Shared programs keep their compiled program ids, so every session's
//! machine sees the *same* recurring id for a given dense kernel and
//! the per-machine steady-state memo engages exactly as it does for a
//! single-session runtime (the memo-eligibility property introduced
//! with the single-pass builder pipeline, DESIGN.md §10).

use crate::balance::{self, Balancing};
use crate::host::RowSchedule;
use crate::layout::Layout;
use crate::ops::OpProfile;
use crate::runtime::CoSparse;
use sparse::partition::{RowPartition, VBlocks};
use sparse::{
    BcsrMatrix, BitmapCsr, CooMatrix, CscMatrix, FormatKind, FormatProbe, Permutation, ReorderKind,
    ReorderProbe,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use transmuter::verify::RegionMap;
use transmuter::{Geometry, HwConfig, Machine, MicroArch, Program};

/// Snapshot of the graph-level cache counters: how often the expensive
/// per-matrix artifacts were (re)built versus served to a session from
/// the shared state. Counter pairs are exact: every plan acquisition
/// increments exactly one of `plan_builds`/`plan_hits`, and every
/// dense-IP invocation served through the shared cache increments
/// exactly one of `dense_program_builds`/`dense_program_hits` — under
/// any number of contending sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharedCacheStats {
    /// Plans built (one per distinct (op profile, balancing) pair).
    pub plan_builds: u64,
    /// Plan acquisitions served from the registry without building.
    pub plan_hits: u64,
    /// Dense-IP programs built (at most one per plan × hardware slot).
    pub dense_program_builds: u64,
    /// Dense-IP invocations that reused a shared compiled program.
    pub dense_program_hits: u64,
    /// Frontier-dependent (masked-IP / OP) builder emissions, summed
    /// over all sessions.
    pub scratch_program_builds: u64,
    /// Frontier-dependent invocations served by a session builder's
    /// current program without re-emission, summed over all sessions.
    pub scratch_program_hits: u64,
    /// Conversion-kernel builder emissions (dataflow switches), summed
    /// over all sessions.
    pub conversion_builds: u64,
    /// Alternate-format matrix images (bitmap CSR / BCSR) materialized,
    /// at most one per format per (graph, reordering) — later sessions
    /// reuse them.
    pub format_builds: u64,
    /// Reordered matrix operand sets (permutation + permuted COO/CSC)
    /// materialized, at most one per [`ReorderKind`] per graph.
    pub reorder_builds: u64,
    /// Locality probes ([`ReorderProbe`]) computed: at most one per
    /// graph, and none while only host sessions step on it (a Host step
    /// runs no decision).
    pub reorder_probes: u64,
}

/// Graph-level cache counters, updated with relaxed atomics from every
/// session sharing the graph.
#[derive(Debug, Default)]
pub(crate) struct SharedCounters {
    plan_builds: AtomicU64,
    plan_hits: AtomicU64,
    dense_program_builds: AtomicU64,
    dense_program_hits: AtomicU64,
    pub(crate) scratch_program_builds: AtomicU64,
    pub(crate) scratch_program_hits: AtomicU64,
    pub(crate) conversion_builds: AtomicU64,
    pub(crate) format_builds: AtomicU64,
    pub(crate) reorder_builds: AtomicU64,
    reorder_probes: AtomicU64,
}

impl SharedCounters {
    fn snapshot(&self) -> SharedCacheStats {
        SharedCacheStats {
            plan_builds: self.plan_builds.load(Ordering::Relaxed),
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            dense_program_builds: self.dense_program_builds.load(Ordering::Relaxed),
            dense_program_hits: self.dense_program_hits.load(Ordering::Relaxed),
            scratch_program_builds: self.scratch_program_builds.load(Ordering::Relaxed),
            scratch_program_hits: self.scratch_program_hits.load(Ordering::Relaxed),
            conversion_builds: self.conversion_builds.load(Ordering::Relaxed),
            format_builds: self.format_builds.load(Ordering::Relaxed),
            reorder_builds: self.reorder_builds.load(Ordering::Relaxed),
            reorder_probes: self.reorder_probes.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A permuted view of the shared matrix under one [`ReorderKind`]: the
/// exact [`Permutation`] plus the permuted COO/CSC operand images (and
/// lazily their bitmap/BCSR encodings). Built at most once per kind per
/// graph and shared by every plan keyed on that reordering.
///
/// These images drive the *simulated address stream only*: the
/// functional results of every backend are computed in the original
/// index space (see the vector-permute contract in the runtime), so a
/// reordered plan is bit-identical to an arrival-order plan by
/// construction.
#[derive(Debug)]
pub(crate) struct ReorderedGraph {
    pub(crate) perm: Permutation,
    pub(crate) coo: CooMatrix,
    pub(crate) csc: CscMatrix,
    pub(crate) row_counts: Vec<usize>,
    bitmap: OnceLock<BitmapCsr>,
    bcsr: OnceLock<BcsrMatrix>,
}

impl ReorderedGraph {
    fn build(kind: ReorderKind, base: &CooMatrix) -> Self {
        let perm = sparse::reorder::compute(kind, base);
        let coo = perm.apply_coo(base);
        let csc = CscMatrix::from(&coo);
        let row_counts = coo.row_counts();
        ReorderedGraph {
            perm,
            coo,
            csc,
            row_counts,
            bitmap: OnceLock::new(),
            bcsr: OnceLock::new(),
        }
    }

    /// Bitmap image of the permuted matrix, built on first use and
    /// counted in [`SharedCacheStats::format_builds`].
    pub(crate) fn bitmap(&self, counters: &SharedCounters) -> &BitmapCsr {
        self.bitmap.get_or_init(|| {
            SharedCounters::bump(&counters.format_builds);
            BitmapCsr::from(&self.coo)
        })
    }

    /// BCSR image of the permuted matrix, counted like
    /// [`ReorderedGraph::bitmap`].
    pub(crate) fn bcsr(&self, counters: &SharedCounters) -> &BcsrMatrix {
        self.bcsr.get_or_init(|| {
            SharedCounters::bump(&counters.format_builds);
            BcsrMatrix::from(&self.coo)
        })
    }
}

/// One immutable tuning plan over the shared matrix, keyed by
/// `(op profile, balancing scheme, storage format, reordering)` — the
/// OSKI-style memo that used to live inside each runtime, now built
/// once per graph and shared.
///
/// The geometry-derived members (layout, partitions, vblocks) are plain
/// immutable data; the dense-IP programs and OP sub-run bounds are
/// derived lazily behind [`OnceLock`]s by whichever session first needs
/// them, then read lock-free by everyone.
#[derive(Debug)]
pub(crate) struct SharedPlan {
    pub(crate) profile: OpProfile,
    pub(crate) balancing: Balancing,
    pub(crate) format: FormatKind,
    pub(crate) reorder: ReorderKind,
    /// The reordered operand set this plan streams; `None` keeps the
    /// graph's arrival-order operands.
    operands: Option<Arc<ReorderedGraph>>,
    pub(crate) layout: Layout,
    pub(crate) regions: RegionMap,
    pub(crate) ip_partition: RowPartition,
    pub(crate) op_tile_parts: RowPartition,
    pub(crate) vblocks_sc: VBlocks,
    pub(crate) vblocks_scs: VBlocks,
    /// Dense-IP [`Program`]s, one slot per hardware configuration,
    /// built by the first session that runs the pairing and shared
    /// (same program id) by every later one.
    ip_programs: [OnceLock<Program>; 4],
    /// Matrix-invariant OP column sub-run bounds (see
    /// [`crate::kernels::op::subruns`]).
    op_subruns: OnceLock<Vec<(u32, u32)>>,
}

impl SharedPlan {
    fn build(
        graph: &SharedGraph,
        profile: &OpProfile,
        balancing: Balancing,
        format: FormatKind,
        reorder: ReorderKind,
    ) -> Self {
        let geometry = graph.geometry;
        let operands = match reorder {
            ReorderKind::None => None,
            kind => Some(graph.reordered(kind)),
        };
        // Partitions balance over the row distribution the plan
        // actually streams — the permuted one when reordered.
        let row_counts = match &operands {
            Some(ops) => &ops.row_counts,
            None => graph.row_counts(),
        };
        // Alternate formats get a packed image region sized from the
        // materialized structure (forcing it now, under the registry
        // lock, so the plan's layout is stable). The image — and hence
        // its byte size — is per-(reorder, format): permuting changes
        // the segment/block population.
        let fmt_bytes = match (format, &operands) {
            (FormatKind::Bitmap, None) => {
                crate::kernels::formats::bitmap_image_bytes(graph.bitmap())
            }
            (FormatKind::Bcsr, None) => crate::kernels::formats::bcsr_image_bytes(graph.bcsr()),
            (FormatKind::Bitmap, Some(ops)) => {
                crate::kernels::formats::bitmap_image_bytes(ops.bitmap(&graph.counters))
            }
            (FormatKind::Bcsr, Some(ops)) => {
                crate::kernels::formats::bcsr_image_bytes(ops.bcsr(&graph.counters))
            }
            _ => 0,
        };
        let layout = Layout::with_format_bytes(
            graph.coo.rows(),
            graph.coo.cols(),
            graph.coo.nnz(),
            geometry,
            profile.value_words,
            fmt_bytes,
        );
        let regions = layout.regions();
        let ip_partition = balance::ip_partitions(row_counts, geometry, balancing);
        let op_tile_parts = balance::op_tile_partitions(row_counts, geometry, balancing);
        let vblocks_sc = ip_vblocks(graph, false, profile);
        // SCS needs ≥2 PEs per tile (there are no SPM banks otherwise)
        // and the runtime never executes it on smaller tiles, so reuse
        // the SC tiling rather than computing an impossible split.
        let vblocks_scs = if geometry.pes_per_tile() >= 2 {
            ip_vblocks(graph, true, profile)
        } else {
            vblocks_sc.clone()
        };
        SharedPlan {
            profile: *profile,
            balancing,
            format,
            reorder,
            operands,
            layout,
            regions,
            ip_partition,
            op_tile_parts,
            vblocks_sc,
            vblocks_scs,
            ip_programs: std::array::from_fn(|_| OnceLock::new()),
            op_subruns: OnceLock::new(),
        }
    }

    /// The dense-IP program for hardware slot `hw_idx`, building it via
    /// `build` exactly once per slot across all sessions. Counts one
    /// build or one hit per call on `counters` (the losing side of an
    /// init race counts as neither a build — the closure never ran —
    /// nor a stale read, so it is counted as a hit once the winner's
    /// program is visible).
    pub(crate) fn dense_program<F: FnOnce() -> Program>(
        &self,
        hw_idx: usize,
        counters: &SharedCounters,
        build: F,
    ) -> &Program {
        let mut built = false;
        let prog = self.ip_programs[hw_idx].get_or_init(|| {
            built = true;
            build()
        });
        if built {
            SharedCounters::bump(&counters.dense_program_builds);
        } else {
            SharedCounters::bump(&counters.dense_program_hits);
        }
        prog
    }

    /// The OP column sub-run bounds, derived from `csc` on first use.
    pub(crate) fn subruns(&self, csc: &CscMatrix) -> &[(u32, u32)] {
        self.op_subruns
            .get_or_init(|| crate::kernels::op::subruns(csc, &self.op_tile_parts))
    }

    /// The permutation this plan streams under, when reordered.
    pub(crate) fn perm(&self) -> Option<&Permutation> {
        self.operands.as_ref().map(|ops| &ops.perm)
    }

    /// The COO image the plan's kernels stream: the permuted copy when
    /// reordered, the graph's arrival-order copy otherwise.
    pub(crate) fn coo<'a>(&'a self, graph: &'a SharedGraph) -> &'a CooMatrix {
        match &self.operands {
            Some(ops) => &ops.coo,
            None => graph.matrix(),
        }
    }

    /// The CSC image the plan's OP kernel merges (see
    /// [`SharedPlan::coo`]).
    pub(crate) fn csc<'a>(&'a self, graph: &'a SharedGraph) -> &'a CscMatrix {
        match &self.operands {
            Some(ops) => &ops.csc,
            None => graph.matrix_csc(),
        }
    }

    /// The bitmap image for this plan's (reorder, format) pairing.
    pub(crate) fn bitmap<'a>(&'a self, graph: &'a SharedGraph) -> &'a BitmapCsr {
        match &self.operands {
            Some(ops) => ops.bitmap(&graph.counters),
            None => graph.bitmap(),
        }
    }

    /// The BCSR image for this plan's (reorder, format) pairing.
    pub(crate) fn bcsr<'a>(&'a self, graph: &'a SharedGraph) -> &'a BcsrMatrix {
        match &self.operands {
            Some(ops) => ops.bcsr(&graph.counters),
            None => graph.bcsr(),
        }
    }
}

/// Picks the vblock width for an IP pass: the SPM capacity per tile in
/// SCS mode, or the L1 cache capacity in SC mode (vertical partitioning
/// "is not required for the SC mode but can still be beneficial",
/// §III-B).
fn ip_vblocks(graph: &SharedGraph, use_spm: bool, profile: &OpProfile) -> VBlocks {
    let ua = &graph.uarch;
    let b = graph.geometry.pes_per_tile();
    let bytes = if use_spm {
        ua.spm_bytes_per_tile(b, HwConfig::Scs.l1())
    } else {
        // SC: all B banks are cache.
        b * ua.bank_bytes
    };
    let elems = (bytes / 4 / profile.value_words).max(1);
    if elems >= graph.coo.cols() {
        VBlocks::whole(graph.coo.cols())
    } else {
        VBlocks::new(graph.coo.cols(), elems)
    }
}

/// The immutable, `Arc`-shared per-matrix state: dual-format matrix
/// copies, geometry, and the plan/program caches every [`CoSparse`]
/// session over this graph reads through. See the module docs for the
/// sharing contract.
#[derive(Debug)]
pub struct SharedGraph {
    coo: CooMatrix,
    csc: CscMatrix,
    /// Hierarchical-bitmap CSR image, built by the first session whose
    /// decision picks [`FormatKind::Bitmap`].
    bitmap: OnceLock<BitmapCsr>,
    /// Blocked-CSR image, built by the first session whose decision
    /// picks [`FormatKind::Bcsr`].
    bcsr: OnceLock<BcsrMatrix>,
    /// Structural format probe feeding the decision tree, computed once
    /// per graph on first summary.
    probe: OnceLock<FormatProbe>,
    /// Locality probe feeding the reorder axis, computed once per graph
    /// on first summary (candidate permutations evaluated transiently).
    reorder_probe: OnceLock<ReorderProbe>,
    /// Reordered operand sets, one slot per [`ReorderKind::CANDIDATES`]
    /// entry, built by the first plan keyed on that reordering.
    reordered: [OnceLock<Arc<ReorderedGraph>>; 3],
    /// Monotone graph-content epoch. Static graphs stay at 0; mutation
    /// paths (future dynamic-graph support) bump it, invalidating
    /// epoch-keyed derived state such as the serve-layer result cache.
    epoch: AtomicU64,
    /// Out-degree of each frontier index in the original graph
    /// (= column counts of the operand matrix).
    degrees: Vec<u32>,
    /// Entries per row of the COO — the arrival-order plans' row
    /// distribution — and the full-frontier pull's row order.
    row_schedule: RowSchedule,
    /// All-zero per-row state for the plain-SpMV functional step,
    /// allocated once per graph (it is only ever read).
    zeros: Vec<f32>,
    geometry: Geometry,
    uarch: MicroArch,
    /// Registry of built plans, keyed by (profile, balancing). Locked
    /// only when a session (re)binds its plan; a handful of entries in
    /// practice, so it is a scanned Vec rather than a map.
    plans: Mutex<Vec<Arc<SharedPlan>>>,
    counters: SharedCounters,
}

impl SharedGraph {
    /// Builds the shared state for `matrix` on a machine shape given by
    /// `geometry`/`uarch`: stores the COO and CSC copies (§III-D.2) and
    /// precomputes the degree/row-count metadata that partitioning and
    /// the full-frontier pull key on.
    ///
    /// Sessions over this graph must run machines of the same geometry
    /// and microarchitecture (asserted by [`SharedGraph::session_on`]),
    /// since the shared layout, partitions and compiled programs are
    /// all derived from that shape.
    pub fn new(matrix: &CooMatrix, geometry: Geometry, uarch: MicroArch) -> Arc<Self> {
        let csc = CscMatrix::from(matrix);
        let degrees = matrix.col_counts().into_iter().map(|c| c as u32).collect();
        let row_schedule = RowSchedule::new(matrix.row_counts());
        Arc::new(SharedGraph {
            zeros: vec![0.0f32; matrix.rows()],
            coo: matrix.clone(),
            csc,
            bitmap: OnceLock::new(),
            bcsr: OnceLock::new(),
            probe: OnceLock::new(),
            reorder_probe: OnceLock::new(),
            reordered: std::array::from_fn(|_| OnceLock::new()),
            epoch: AtomicU64::new(0),
            degrees,
            row_schedule,
            geometry,
            uarch,
            plans: Mutex::new(Vec::new()),
            counters: SharedCounters::default(),
        })
    }

    /// Opens a new session over this graph with a fresh machine of the
    /// graph's geometry/microarchitecture. Sessions are cheap: they
    /// hold frontier scratch and per-query state, while everything
    /// matrix-derived is read through this shared handle.
    pub fn session(self: &Arc<Self>) -> CoSparse {
        let machine = Machine::new(self.geometry, self.uarch.clone());
        CoSparse::with_shared(Arc::clone(self), machine)
    }

    /// Opens a new session running on a caller-supplied `machine`
    /// (e.g. one already reconfigured or warmed by earlier runs).
    ///
    /// # Panics
    ///
    /// Panics if the machine's geometry or microarchitecture differ
    /// from the graph's — the shared plans would be invalid for it.
    pub fn session_on(self: &Arc<Self>, machine: Machine) -> CoSparse {
        CoSparse::with_shared(Arc::clone(self), machine)
    }

    /// The operand matrix (COO copy).
    pub fn matrix(&self) -> &CooMatrix {
        &self.coo
    }

    /// The operand matrix (CSC copy).
    pub fn matrix_csc(&self) -> &CscMatrix {
        &self.csc
    }

    /// The machine geometry the shared plans are derived for.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The microarchitecture the shared plans are derived for.
    pub fn uarch(&self) -> &MicroArch {
        &self.uarch
    }

    /// Graph-level cache counters, summed over every session that ever
    /// shared this graph (see [`SharedCacheStats`] for the counting
    /// contract).
    pub fn cache_stats(&self) -> SharedCacheStats {
        self.counters.snapshot()
    }

    /// The hierarchical-bitmap CSR image, built on first use; the build
    /// (at most one per graph) is counted in
    /// [`SharedCacheStats::format_builds`].
    pub(crate) fn bitmap(&self) -> &BitmapCsr {
        self.bitmap.get_or_init(|| {
            SharedCounters::bump(&self.counters.format_builds);
            BitmapCsr::from(&self.coo)
        })
    }

    /// The blocked-CSR image, built on first use (shape from the fill
    /// probe); counted like [`SharedGraph::bitmap`].
    pub(crate) fn bcsr(&self) -> &BcsrMatrix {
        self.bcsr.get_or_init(|| {
            SharedCounters::bump(&self.counters.format_builds);
            BcsrMatrix::from(&self.coo)
        })
    }

    /// Whether the matrix image for `(format, reorder)` is already
    /// materialized (without forcing it). COO and CSC are resident and
    /// count as always present; under a reordering, even those are cold
    /// until the permuted operand set exists.
    pub(crate) fn format_is_materialized(&self, format: FormatKind, reorder: ReorderKind) -> bool {
        let Some(slot) = reorder.candidate_index() else {
            return match format {
                FormatKind::Bitmap => self.bitmap.get().is_some(),
                FormatKind::Bcsr => self.bcsr.get().is_some(),
                _ => true,
            };
        };
        match self.reordered[slot].get() {
            None => false,
            Some(ops) => match format {
                FormatKind::Bitmap => ops.bitmap.get().is_some(),
                FormatKind::Bcsr => ops.bcsr.get().is_some(),
                _ => true,
            },
        }
    }

    /// The structural format probe, computed once per graph in `O(nnz)`.
    pub(crate) fn format_probe(&self) -> &FormatProbe {
        self.probe.get_or_init(|| FormatProbe::of(&self.coo))
    }

    /// The locality probe, computed once per graph (the first
    /// simulating session's summary pays the candidate-permutation
    /// sampling; everyone else reads the cached statistics lock-free)
    /// and counted in [`SharedCacheStats::reorder_probes`].
    pub(crate) fn reorder_probe(&self) -> &ReorderProbe {
        self.reorder_probe.get_or_init(|| {
            SharedCounters::bump(&self.counters.reorder_probes);
            ReorderProbe::of(&self.coo)
        })
    }

    /// The reordered operand set for `kind`, materialized at most once
    /// per graph and counted in [`SharedCacheStats::reorder_builds`].
    ///
    /// # Panics
    ///
    /// `kind` must not be [`ReorderKind::None`] — arrival order has no
    /// reordered operand set.
    pub(crate) fn reordered(&self, kind: ReorderKind) -> Arc<ReorderedGraph> {
        let slot = kind
            .candidate_index()
            .expect("ReorderKind::None has no reordered operands");
        Arc::clone(self.reordered[slot].get_or_init(|| {
            SharedCounters::bump(&self.counters.reorder_builds);
            Arc::new(ReorderedGraph::build(kind, &self.coo))
        }))
    }

    /// The graph-content epoch: 0 for a freshly built (static) graph,
    /// bumped by mutation paths. Epoch-keyed derived state (e.g. the
    /// serve-layer query cache) is invalidated by a bump.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Advances the graph-content epoch, returning the new value.
    /// Callers mutating graph-adjacent state (or tests simulating a
    /// dynamic update) use this to invalidate epoch-keyed caches.
    pub fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Out-degrees of the original graph's vertices.
    pub(crate) fn degrees(&self) -> &[u32] {
        &self.degrees
    }

    /// Entries per row of the COO.
    pub(crate) fn row_counts(&self) -> &[usize] {
        self.row_schedule.row_counts()
    }

    /// The full-frontier pull's row index over the COO.
    pub(crate) fn row_schedule(&self) -> &RowSchedule {
        &self.row_schedule
    }

    /// The read-only all-zero state vector (rows long).
    pub(crate) fn zeros(&self) -> &[f32] {
        &self.zeros
    }

    pub(crate) fn counters(&self) -> &SharedCounters {
        &self.counters
    }

    /// The shared plan for `(profile, balancing, format, reorder)`,
    /// building it under the registry lock on the first request.
    /// Sessions cache the returned `Arc` and only come back here when
    /// their key changes, so the steady state never touches the lock.
    pub(crate) fn plan_for(
        &self,
        profile: &OpProfile,
        balancing: Balancing,
        format: FormatKind,
        reorder: ReorderKind,
    ) -> Arc<SharedPlan> {
        let mut plans = self.plans.lock().expect("plan registry poisoned");
        if let Some(plan) = plans.iter().find(|p| {
            p.profile == *profile
                && p.balancing == balancing
                && p.format == format
                && p.reorder == reorder
        }) {
            SharedCounters::bump(&self.counters.plan_hits);
            return Arc::clone(plan);
        }
        // Built under the lock: plan construction is the expensive
        // per-matrix setup, and holding the lock guarantees concurrent
        // cold sessions build it exactly once.
        let plan = Arc::new(SharedPlan::build(self, profile, balancing, format, reorder));
        SharedCounters::bump(&self.counters.plan_builds);
        plans.push(Arc::clone(&plan));
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, nnz: usize) -> Arc<SharedGraph> {
        let m = sparse::generate::uniform(n, n, nnz, 3).unwrap();
        SharedGraph::new(&m, Geometry::new(2, 4), MicroArch::paper())
    }

    #[test]
    fn plan_registry_builds_once_per_key() {
        let g = graph(256, 2000);
        let scalar = OpProfile::scalar();
        let none = ReorderKind::None;
        let a = g.plan_for(&scalar, Balancing::NnzBalanced, FormatKind::Coo, none);
        let b = g.plan_for(&scalar, Balancing::NnzBalanced, FormatKind::Coo, none);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one plan");
        let c = g.plan_for(&scalar, Balancing::EqualRows, FormatKind::Coo, none);
        assert!(!Arc::ptr_eq(&a, &c), "different balancing, new plan");
        let d = g.plan_for(&scalar, Balancing::NnzBalanced, FormatKind::Bitmap, none);
        assert!(!Arc::ptr_eq(&a, &d), "different format, new plan");
        let cs = g.cache_stats();
        assert_eq!(cs.plan_builds, 3);
        assert_eq!(cs.plan_hits, 1);
        // The bitmap-format plan forced the image exactly once and
        // sized a packed region for it.
        assert_eq!(cs.format_builds, 1);
        assert_eq!(
            d.layout.fmt_bytes as usize,
            crate::kernels::formats::bitmap_image_bytes(g.bitmap())
        );
        assert_eq!(a.layout.fmt_bytes, 0);
    }

    #[test]
    fn format_images_build_once_and_report_materialization() {
        let g = graph(128, 900);
        let none = ReorderKind::None;
        assert!(!g.format_is_materialized(FormatKind::Bcsr, none));
        assert!(g.format_is_materialized(FormatKind::Coo, none));
        let a = g.bcsr() as *const BcsrMatrix;
        let b = g.bcsr() as *const BcsrMatrix;
        assert_eq!(a, b, "BCSR derived once per graph");
        assert!(g.format_is_materialized(FormatKind::Bcsr, none));
        assert_eq!(g.cache_stats().format_builds, 1);
        // The probe is cached too, and consistent with the image.
        let p = *g.format_probe();
        assert_eq!(p, *g.format_probe());
    }

    #[test]
    fn dense_program_slot_counts_builds_and_hits_exactly() {
        let g = graph(128, 800);
        let plan = g.plan_for(
            &OpProfile::scalar(),
            Balancing::NnzBalanced,
            FormatKind::Coo,
            ReorderKind::None,
        );
        let build = || {
            let mut b = transmuter::ProgramBuilder::new();
            b.begin(g.geometry(), HwConfig::Sc, g.uarch());
            b.finish().clone()
        };
        let first = plan.dense_program(0, g.counters(), build) as *const Program;
        let again = plan.dense_program(0, g.counters(), build) as *const Program;
        assert_eq!(first, again, "slot must hold one shared program");
        let cs = g.cache_stats();
        assert_eq!(cs.dense_program_builds, 1);
        assert_eq!(cs.dense_program_hits, 1);
    }

    #[test]
    fn sessions_share_zero_state() {
        let g = graph(64, 400);
        assert_eq!(g.zeros().len(), 64);
    }

    #[test]
    fn reordered_operands_build_once_and_key_plans() {
        let g = graph(256, 2000);
        let scalar = OpProfile::scalar();
        let plain = g.plan_for(
            &scalar,
            Balancing::NnzBalanced,
            FormatKind::Coo,
            ReorderKind::None,
        );
        let rcm = g.plan_for(
            &scalar,
            Balancing::NnzBalanced,
            FormatKind::Coo,
            ReorderKind::Rcm,
        );
        assert!(!Arc::ptr_eq(&plain, &rcm), "reorder widens the plan key");
        assert_eq!(rcm.reorder, ReorderKind::Rcm);
        assert!(rcm.perm().is_some() && plain.perm().is_none());
        // A second plan on the same reordering shares the operand set.
        let rcm_bitmap = g.plan_for(
            &scalar,
            Balancing::NnzBalanced,
            FormatKind::Bitmap,
            ReorderKind::Rcm,
        );
        let cs = g.cache_stats();
        assert_eq!(cs.plan_builds, 3);
        assert_eq!(cs.reorder_builds, 1, "one operand set per ReorderKind");
        // The reordered bitmap image is distinct from the base one and
        // sized into the plan's layout.
        assert_eq!(
            rcm_bitmap.layout.fmt_bytes as usize,
            crate::kernels::formats::bitmap_image_bytes(rcm_bitmap.bitmap(&g))
        );
        // Reordered operands are a pure re-indexing: same shape and nnz.
        let coo = rcm.coo(&g);
        assert_eq!(coo.rows(), g.matrix().rows());
        assert_eq!(coo.nnz(), g.matrix().nnz());
        assert_ne!(coo.entries(), g.matrix().entries(), "rcm must permute");
    }

    #[test]
    fn materialization_is_tracked_per_reordering() {
        let g = graph(128, 900);
        assert!(!g.format_is_materialized(FormatKind::Coo, ReorderKind::DegreeSort));
        let ops = g.reordered(ReorderKind::DegreeSort);
        assert!(g.format_is_materialized(FormatKind::Coo, ReorderKind::DegreeSort));
        assert!(!g.format_is_materialized(FormatKind::Bcsr, ReorderKind::DegreeSort));
        ops.bcsr(g.counters());
        assert!(g.format_is_materialized(FormatKind::Bcsr, ReorderKind::DegreeSort));
        // The base graph's BCSR is still cold: images are per-pairing.
        assert!(!g.format_is_materialized(FormatKind::Bcsr, ReorderKind::None));
        let again = g.reordered(ReorderKind::DegreeSort);
        assert!(Arc::ptr_eq(&ops, &again));
        assert_eq!(g.cache_stats().reorder_builds, 1);
    }

    #[test]
    fn epoch_starts_at_zero_and_bumps_monotonically() {
        let g = graph(64, 400);
        assert_eq!(g.epoch(), 0);
        assert_eq!(g.bump_epoch(), 1);
        assert_eq!(g.bump_epoch(), 2);
        assert_eq!(g.epoch(), 2);
    }
}
