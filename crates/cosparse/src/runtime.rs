//! The CoSPARSE runtime session: drives the decision tree, triggers
//! hardware reconfiguration, generates kernel streams, and pairs the
//! simulated timing with the functional result — over matrix state
//! owned by an `Arc`-shared [`SharedGraph`].
//!
//! A [`CoSparse`] is one *session*: it owns a [`Machine`], frontier
//! scratch buffers, the partial-frontier push accumulators,
//! policy/adaptive state and a builder for frontier-dependent programs,
//! while everything derivable from the matrix alone (formats, layout,
//! partitions, compiled dense-IP programs) lives in
//! the shared graph and is read lock-free (see [`crate::shared`]). `CoSparse::new` builds a private
//! graph for the common single-session case;
//! [`SharedGraph::session`] opens additional cheap sessions over an
//! existing one.

use crate::adaptive::AdaptiveState;
use crate::balance::Balancing;
use crate::heuristics::{
    decide, decide_exact, default_format, Decision, MatrixSummary, SwConfig, Thresholds,
};
use crate::host::{self, ExecBackend, HostOperand};
use crate::kernels::convert::{self, Direction};
use crate::kernels::{formats, ip, op};
use crate::ops::{apply_with, Accumulator, GraphOp, OpProfile, SpmvOp, Update};
use crate::shared::{SharedCounters, SharedGraph, SharedPlan};
use crate::verify::VerifyReport;
use sparse::{
    CooMatrix, CscMatrix, DenseVector, FormatKind, Idx, Permutation, ReorderKind, SparseVector,
};
use std::any::Any;
use std::sync::Arc;
use transmuter::verify::{Diagnostic, LintKind, RegionMap, Severity};
use transmuter::{
    EpochStats, Geometry, HwConfig, Machine, MemoStats, MicroArch, Program, ProgramBuilder,
    SimError, SimReport,
};

/// A frontier (input vector) in one of the two representations the
/// runtime converts between.
#[derive(Debug, Clone, PartialEq)]
pub enum Frontier {
    /// Dense representation (inner-product dataflow).
    Dense(DenseVector<f32>),
    /// Sparse representation (outer-product dataflow).
    Sparse(SparseVector<f32>),
}

impl Frontier {
    /// Dimension of the vector.
    pub fn dim(&self) -> usize {
        match self {
            Frontier::Dense(v) => v.len(),
            Frontier::Sparse(v) => v.dim(),
        }
    }

    /// Number of nonzero (active) elements.
    ///
    /// O(1) for the sparse representation; for the dense one the count
    /// is cached inside the vector after the first scan (see
    /// [`DenseVector::nnz`]), so repeated density queries on an
    /// unchanged frontier cost nothing.
    pub fn nnz(&self) -> usize {
        match self {
            Frontier::Dense(v) => v.nnz(),
            Frontier::Sparse(v) => v.nnz(),
        }
    }

    /// Active fraction — the quantity the decision tree keys on.
    pub fn density(&self) -> f64 {
        let d = self.dim();
        if d == 0 {
            0.0
        } else {
            self.nnz() as f64 / d as f64
        }
    }

    /// Appends the sorted active `(index, value)` pairs to `out` — a
    /// reusable-buffer interface, used by the runtime to avoid an
    /// O(frontier) allocation per iteration.
    pub fn collect_active(&self, out: &mut Vec<(Idx, f32)>) {
        match self {
            Frontier::Dense(v) => out.extend(
                v.iter()
                    .enumerate()
                    .filter(|(_, x)| **x != 0.0)
                    .map(|(i, x)| (i as Idx, *x)),
            ),
            Frontier::Sparse(v) => out.extend(v.iter()),
        }
    }

    /// True for the sparse representation.
    pub fn is_sparse(&self) -> bool {
        matches!(self, Frontier::Sparse(_))
    }
}

/// How the runtime chooses configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// The paper's automatic decision tree (the default).
    Auto,
    /// A fixed software/hardware pair — used for baselines and for the
    /// per-configuration columns of Figure 9.
    Fixed(SwConfig, HwConfig),
    /// The decision tree refined online from observed iteration costs
    /// (see [`crate::adaptive::AdaptiveState`]; extension beyond the
    /// paper).
    Adaptive,
}

/// Outcome of one plain SpMV invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmvOutcome {
    /// Chosen dataflow.
    pub software: SwConfig,
    /// Chosen memory configuration.
    pub hardware: HwConfig,
    /// Chosen storage format (the third reconfiguration axis).
    pub format: FormatKind,
    /// Chosen locality reordering (the fourth reconfiguration axis).
    /// Purely a simulated-access-pattern choice: the functional
    /// `result` is always in the original index space.
    pub reorder: ReorderKind,
    /// Simulated timing/energy (reconfiguration, any frontier
    /// conversion and any one-time format materialization included).
    pub report: SimReport,
    /// The product vector, in the representation the dataflow produces
    /// (dense for IP, sparse for OP).
    pub result: Frontier,
}

/// Outcome of one generic graph-op step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome<V> {
    /// Chosen dataflow.
    pub software: SwConfig,
    /// Chosen memory configuration.
    pub hardware: HwConfig,
    /// Chosen storage format (the third reconfiguration axis).
    pub format: FormatKind,
    /// Chosen locality reordering (the fourth reconfiguration axis);
    /// `updates` are always in the original index space.
    pub reorder: ReorderKind,
    /// Simulated timing/energy.
    pub report: SimReport,
    /// State updates that passed [`GraphOp::is_update`], sorted by
    /// destination.
    pub updates: Vec<Update<V>>,
}

/// The session's frontier-dependent program scratch: the builder every
/// one-shot program (masked IP, OP, conversion, format pack) is emitted
/// into, plus what it currently holds.
///
/// It belongs to the session, not to the bound plan, so a plan rebind
/// (an IP↔OP format switch, an SSSP↔BFS profile switch) keeps every
/// grown buffer and the steady state allocates nothing; a rebind only
/// forgets `key`, since the held program was lowered against the old
/// plan's layout.
#[derive(Debug, Default)]
struct Scratch {
    /// The single-pass lowering pipeline: kernels emit micro-ops
    /// straight into this builder (`begin` → `kernels::*::build` →
    /// `finish`), so no intermediate op buffers are materialized.
    builder: ProgramBuilder,
    /// What the builder's finished program currently is: the
    /// `(software, hardware)` slot indices of a frontier-dependent
    /// program built for `frontier` under the bound plan. An invocation
    /// matching both skips emission entirely and re-runs the program
    /// as-is — the steady state of fixed-frontier callers and converged
    /// iterative algorithms. `None` when the builder was last used for
    /// something else (a conversion or pack), the plan was rebound, or
    /// verification was toggled (so a held program is checked exactly
    /// when verification is on).
    key: Option<(usize, usize)>,
    /// The frontier `key`'s program was built for, in the original
    /// index space (the bound plan's permutation is fixed, so equal
    /// original sets are equal permuted sets).
    frontier: Vec<Idx>,
    /// Vblock-bucketing buffers of multi-vblock IP builds.
    ip: ip::IpScratch,
    /// The sorted permuted frontier an outer-product build streams.
    perm: Vec<Idx>,
}

/// What a session build targets: the machine shape and — for a
/// checked build under verification — the plan's address map.
#[derive(Debug, Clone, Copy)]
struct Target<'a> {
    geometry: Geometry,
    hw: HwConfig,
    uarch: &'a MicroArch,
    regions: Option<&'a RegionMap>,
}

impl Scratch {
    /// Makes the builder hold the `key` program for `frontier`, emitting
    /// it through `emit` unless it already does; counts one scratch build
    /// or hit on `counters`.
    fn ensure(
        &mut self,
        key: (usize, usize),
        frontier: &[Idx],
        target: Target<'_>,
        counters: &SharedCounters,
        emit: impl FnOnce(&mut ProgramBuilder, &mut ip::IpScratch, &mut Vec<Idx>),
    ) {
        if self.key == Some(key) && self.frontier == frontier {
            SharedCounters::bump(&counters.scratch_program_hits);
            return;
        }
        self.begin(target);
        emit(&mut self.builder, &mut self.ip, &mut self.perm);
        self.builder.finish();
        self.key = Some(key);
        self.frontier.clear();
        self.frontier.extend_from_slice(frontier);
        SharedCounters::bump(&counters.scratch_program_builds);
    }

    /// Starts a build for `target`, forgetting whatever program the
    /// builder held.
    fn begin(&mut self, target: Target<'_>) {
        self.key = None;
        self.builder.begin(target.geometry, target.hw, target.uarch);
        if let Some(regions) = target.regions {
            self.builder.bind_regions(regions);
        }
    }
}

/// The session's partial-frontier push accumulators, one per value type
/// the session has run (see [`Accumulator`]). Engines alternate value
/// types on one session — a served BFS (`u32`) then an SSSP (`f32`) —
/// so a single typed slot would be rebuilt on every switch; the list is
/// as short as the number of distinct types, so a linear `TypeId` scan
/// finds the slot.
#[derive(Default)]
struct Accumulators(Vec<Box<dyn Any + Send + Sync>>);

impl Accumulators {
    /// The accumulator for value type `V`, created on first use.
    fn get<V: Send + Sync + 'static>(&mut self) -> &mut Accumulator<V> {
        let i = match self.0.iter().position(|slot| slot.is::<Accumulator<V>>()) {
            Some(i) => i,
            None => {
                self.0.push(Box::new(Accumulator::<V>::default()));
                self.0.len() - 1
            }
        };
        self.0[i]
            .downcast_mut()
            .expect("slots are keyed by their type")
    }
}

impl std::fmt::Debug for Accumulators {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Accumulators({} value types)", self.0.len())
    }
}

/// Runs `prog` on `machine`; under verification (`report` given) the
/// program is a checked build, and its warnings, races and analyzer
/// lints are folded into `report` once it ran.
fn run(
    machine: &mut Machine,
    prog: &Program,
    report: Option<&mut VerifyReport>,
) -> Result<SimReport, SimError> {
    let sim = machine.run_program(prog)?;
    if let Some(report) = report {
        report.record(prog);
    }
    Ok(sim)
}

/// The frontier list an outer-product kernel streams: `active` itself
/// under arrival order, else its sorted image under `perm`, staged in
/// `buf`.
fn op_frontier<'a>(
    perm: Option<&Permutation>,
    active: &'a [Idx],
    buf: &'a mut Vec<Idx>,
) -> &'a [Idx] {
    match perm {
        Some(p) => {
            p.permute_active(active, buf);
            buf
        }
        None => active,
    }
}

/// Marks (`on`) or clears the inner-product activity mask for the
/// original-space `active` columns, in the bound plan's column space.
fn stage_mask(mask: &mut [bool], active: &[Idx], perm: Option<&Permutation>, on: bool) {
    match perm {
        Some(p) => p.mark_active(active, mask, on),
        None => {
            for &i in active {
                mask[i as usize] = on;
            }
        }
    }
}

/// Dense slot index of a hardware configuration in per-config tables.
fn hw_index(hw: HwConfig) -> usize {
    match hw {
        HwConfig::Sc => 0,
        HwConfig::Scs => 1,
        HwConfig::Pc => 2,
        HwConfig::Ps => 3,
    }
}

/// Dense slot index of a dataflow in per-config tables.
fn sw_index(sw: SwConfig) -> usize {
    match sw {
        SwConfig::InnerProduct => 0,
        SwConfig::OuterProduct => 1,
    }
}

/// Cache-effectiveness counters as seen from one [`CoSparse`] session:
/// how often the kernel→program pipeline actually ran versus being
/// served from a cached artifact. The build/hit counter pairs live on
/// the session's [`SharedGraph`] and are summed over *every* session
/// sharing it (for a privately-built runtime they are simply its own);
/// `steady_memo` is this session's machine's memo.
///
/// `plan_builds`/`plan_hits` count plan registry builds versus reuses;
/// `dense_program_builds`/`dense_program_hits` count dense-IP programs
/// compiled versus invocations served from a shared compiled program;
/// `scratch_program_builds`/`scratch_program_hits` count
/// frontier-dependent emissions versus same-(config, frontier) reuses
/// (see [`MemoStats`] for the memo pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Full plan builds (one per distinct (profile, balancing) key).
    pub plan_builds: u64,
    /// Plan rebinds served from the graph's registry without building.
    pub plan_hits: u64,
    /// Dense-IP programs built and cached per hardware slot.
    pub dense_program_builds: u64,
    /// Dense-IP invocations that reused a shared compiled program.
    pub dense_program_hits: u64,
    /// Frontier-dependent (masked-IP / OP) builder emissions.
    pub scratch_program_builds: u64,
    /// Frontier-dependent invocations served by the builder's current
    /// program without re-emission.
    pub scratch_program_hits: u64,
    /// Conversion-kernel builder emissions (dataflow switches).
    pub conversion_builds: u64,
    /// The machine's steady-state memo counters.
    pub steady_memo: MemoStats,
    /// Retired: always zero, since the machine executes every program
    /// sequentially (see [`EpochStats`]).
    pub epochs: EpochStats,
}

/// One CoSPARSE session over a shared operand matrix.
///
/// Computes `y = M * x` under the generalized semiring of a
/// [`GraphOp`]. Graph engines pass the *transposed* adjacency matrix so
/// that `y[dst]` reduces over in-edges (`f_next = SpMV(G.T, f)`,
/// §III).
#[derive(Debug)]
pub struct CoSparse {
    /// The shared per-matrix state this session reads through (see
    /// [`crate::shared`]).
    shared: Arc<SharedGraph>,
    /// Which backend answers invocations (default: the simulator).
    backend: ExecBackend,
    machine: Machine,
    thresholds: Thresholds,
    balancing: Balancing,
    policy: Policy,
    /// When set, every decision's storage format is pinned to this
    /// value (bench sweeps; see [`CoSparse::set_format_override`]).
    format_override: Option<FormatKind>,
    /// When set, every decision's locality reordering is pinned to this
    /// value (see [`CoSparse::set_reorder_override`]).
    reorder_override: Option<ReorderKind>,
    prev_sw: Option<SwConfig>,
    adaptive: AdaptiveState,
    /// The findings of the checked runs; `Some` exactly while
    /// verification is on (see [`CoSparse::set_verify`]).
    verify_report: Option<VerifyReport>,
    /// The bound shared plan. The `Arc` doubles as the session's plan
    /// cache key: as long as the op profile, balancing, format and
    /// reordering match, invocations never touch the graph's plan
    /// registry (or its lock) at all.
    plan: Option<Arc<SharedPlan>>,
    /// Frontier-dependent program scratch; survives plan rebinds.
    scratch: Scratch,
    /// Partial-frontier push accumulators, shared by the golden model
    /// and the host backend.
    accumulators: Accumulators,
    /// Host worker threads per host step (see
    /// [`CoSparse::set_host_threads`]).
    host_threads: usize,
    /// IP activity-mask scratch, `cols` long, kept all-false between
    /// invocations: each call sets and clears only the active bits, so
    /// steady-state masking is O(frontier), not O(cols).
    mask_buf: Vec<bool>,
    /// Reusable staging for the active index list.
    indices_buf: Vec<Idx>,
    /// Reusable staging for the active `(index, value)` entries.
    entries_buf: Vec<(Idx, f32)>,
}

impl CoSparse {
    /// Creates a single-session runtime for `matrix` on `machine`: the
    /// shared graph state (COO and CSC copies, §III-D.2, plus
    /// partitioning metadata) is built privately for this session. To
    /// share that state across sessions, build it once with
    /// [`SharedGraph::new`] and open sessions via
    /// [`SharedGraph::session`] / [`SharedGraph::session_on`].
    pub fn new(matrix: &CooMatrix, machine: Machine) -> Self {
        let shared = SharedGraph::new(matrix, machine.geometry(), machine.uarch().clone());
        CoSparse::with_shared(shared, machine)
    }

    /// Opens a session over an existing shared graph, running on
    /// `machine`.
    ///
    /// # Panics
    ///
    /// Panics if the machine's geometry or microarchitecture differ
    /// from the graph's — every shared plan and program is derived
    /// from that shape.
    pub fn with_shared(shared: Arc<SharedGraph>, machine: Machine) -> Self {
        assert_eq!(
            machine.geometry(),
            shared.geometry(),
            "session machine geometry must match the shared graph's"
        );
        assert_eq!(
            machine.uarch(),
            shared.uarch(),
            "session machine microarchitecture must match the shared graph's"
        );
        CoSparse {
            mask_buf: vec![false; shared.matrix().cols()],
            shared,
            backend: ExecBackend::Simulate,
            machine,
            thresholds: Thresholds::paper(),
            balancing: Balancing::NnzBalanced,
            policy: Policy::Auto,
            format_override: None,
            reorder_override: None,
            prev_sw: None,
            adaptive: AdaptiveState::new(),
            verify_report: None,
            plan: None,
            scratch: Scratch::default(),
            accumulators: Accumulators::default(),
            host_threads: transmuter::host_cpus(),
            indices_buf: Vec::new(),
            entries_buf: Vec::new(),
        }
    }

    /// The shared graph state this session reads through.
    pub fn shared(&self) -> &Arc<SharedGraph> {
        &self.shared
    }

    /// Pipeline cache counters: the shared graph's build/hit pairs
    /// (summed over every session on the graph — a privately-built
    /// runtime's own history) merged with this session machine's
    /// steady-state memo counters.
    pub fn cache_stats(&self) -> CacheStats {
        let shared = self.shared.cache_stats();
        CacheStats {
            plan_builds: shared.plan_builds,
            plan_hits: shared.plan_hits,
            dense_program_builds: shared.dense_program_builds,
            dense_program_hits: shared.dense_program_hits,
            scratch_program_builds: shared.scratch_program_builds,
            scratch_program_hits: shared.scratch_program_hits,
            conversion_builds: shared.conversion_builds,
            steady_memo: self.machine.memo_stats(),
            epochs: EpochStats::default(),
        }
    }

    /// Enables (or disables) kernel verification: every program the
    /// session runs from then on — kernel, conversion and format pack,
    /// on every frontier — is a checked build
    /// ([`ProgramBuilder::bind_regions`]) against the plan's address
    /// map. An error finding rejects the invocation with
    /// [`SimError::Rejected`]; warnings, the program's data races and
    /// its analyzer lints accumulate in [`CoSparse::verification`].
    /// There is no per-plan memo and no trace cap: every run is checked,
    /// and dense frontiers build their own checked program instead of
    /// running the plan's shared one. Checked programs time exactly like
    /// unchecked ones.
    ///
    /// Off by default — a checked build records every access it emits.
    /// Toggling resets the report and forgets the session's scratch
    /// program, so an unchecked program is never reused as a checked one.
    pub fn set_verify(&mut self, on: bool) {
        self.verify_report = on.then(VerifyReport::default);
        self.scratch.key = None;
    }

    /// Findings accumulated since verification was enabled (an empty
    /// report while it is off).
    pub fn verification(&self) -> &VerifyReport {
        static OFF: VerifyReport = VerifyReport {
            warnings: Vec::new(),
            races: Vec::new(),
            analyzer: Vec::new(),
            runs: 0,
        };
        self.verify_report.as_ref().unwrap_or(&OFF)
    }

    /// Overrides the decision thresholds.
    pub fn set_thresholds(&mut self, thresholds: Thresholds) {
        self.thresholds = thresholds;
    }

    /// Selects the workload-balancing scheme (default: nnz-balanced).
    pub fn set_balancing(&mut self, balancing: Balancing) {
        self.balancing = balancing;
    }

    /// Selects the execution backend (default:
    /// [`ExecBackend::Simulate`]).
    ///
    /// Under [`ExecBackend::Host`] the runtime still walks the decision
    /// tree (the dataflow choice picks the host path: IP → row loops,
    /// OP → active-column loops) but no simulated machine is in the
    /// path: results are computed natively against host memory and
    /// reports carry wall-clock `seconds` with zero `cycles`.
    /// [`ExecBackend::Differential`] runs both and asserts bit-equal
    /// results. Verification ([`CoSparse::set_verify`]) and adaptive
    /// cycle recording apply only to the simulate path.
    pub fn set_backend(&mut self, backend: ExecBackend) {
        self.backend = backend;
    }

    /// The current execution backend.
    pub fn backend(&self) -> ExecBackend {
        self.backend
    }

    /// Sets how many host threads one host-backend step fans its row
    /// partitions out to (default: the host's available parallelism;
    /// values below 1 mean 1). Results are bit-identical for any count.
    /// [`crate::GraphService`] workers run theirs inline with `1`: the
    /// pool already keeps one worker busy per CPU, so a nested fan-out
    /// only adds thread spawns and contention.
    pub fn set_host_threads(&mut self, threads: usize) {
        self.host_threads = threads.max(1);
    }

    /// Selects the configuration policy (default: [`Policy::Auto`]).
    /// Switching policy clears any adaptive observations.
    pub fn set_policy(&mut self, policy: Policy) {
        self.policy = policy;
        self.prev_sw = None;
        self.adaptive = AdaptiveState::new();
    }

    /// Pins (or unpins, with `None`) the storage format of every
    /// subsequent decision, overriding the tree/policy choice on that
    /// axis — the format analogue of [`Policy::Fixed`], used by the
    /// bench sweeps to measure one format in isolation. The inner
    /// dataflow honors `Coo`, `Bitmap` and `Bcsr`; the outer dataflow
    /// always streams CSC regardless of the pin.
    pub fn set_format_override(&mut self, format: Option<FormatKind>) {
        self.format_override = format;
    }

    /// Pins (or unpins, with `None`) the locality reordering of every
    /// subsequent decision — the fourth-axis analogue of
    /// [`CoSparse::set_format_override`], used by the bench sweeps and
    /// the reorder differential tests. The pinned permutation shapes
    /// the *simulated* address stream only: functional results are
    /// computed in the original index space and are bit-identical to an
    /// unpinned run.
    pub fn set_reorder_override(&mut self, reorder: Option<ReorderKind>) {
        self.reorder_override = reorder;
    }

    /// Observations collected so far under [`Policy::Adaptive`].
    pub fn adaptive_observations(&self) -> usize {
        self.adaptive.observations()
    }

    /// Mean kernel-only cycles recorded for `(sw, hw, format, reorder)`
    /// in `density`'s adaptive bucket, if observed (see
    /// [`AdaptiveState::mean_cycles`]).
    pub fn adaptive_mean_cycles(
        &self,
        density: f64,
        sw: SwConfig,
        hw: HwConfig,
        format: FormatKind,
        reorder: ReorderKind,
    ) -> Option<f64> {
        self.adaptive.mean_cycles(density, sw, hw, format, reorder)
    }

    /// The operand matrix (COO copy).
    pub fn matrix(&self) -> &CooMatrix {
        self.shared.matrix()
    }

    /// The operand matrix (CSC copy).
    pub fn matrix_csc(&self) -> &CscMatrix {
        self.shared.matrix_csc()
    }

    /// The simulated machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Structural summary used by the decision tree, with the cached
    /// probes (each computed once per graph) that the session's backend
    /// reads: the format probe always, since every backend walks the
    /// decided format; the locality probe only under
    /// [`ExecBackend::Simulate`] and [`ExecBackend::Differential`],
    /// whose simulated address stream a reordering shapes. A
    /// [`ExecBackend::Host`] session walks the arrival-order images
    /// whatever the reordering, so it computes no locality probe and
    /// decides [`ReorderKind::None`] (a pinned
    /// [`CoSparse::set_reorder_override`] still applies).
    pub fn summary(&self) -> MatrixSummary {
        let coo = self.shared.matrix();
        let summary = MatrixSummary::with_probe(
            coo.rows(),
            coo.cols(),
            coo.nnz(),
            *self.shared.format_probe(),
        );
        if self.backend == ExecBackend::Host {
            summary
        } else {
            summary.with_reorder_probe(*self.shared.reorder_probe())
        }
    }

    /// Runs the decision tree for a frontier of the given density
    /// (respecting a fixed policy when one is set).
    pub fn decide(&self, vector_density: f64, profile: &OpProfile) -> Decision {
        let tree = || {
            decide(
                self.summary(),
                vector_density,
                self.machine.geometry(),
                self.machine.uarch(),
                &self.thresholds,
                profile,
            )
        };
        let mut d = match self.policy {
            Policy::Auto => tree(),
            Policy::Fixed(sw, hw) => Decision {
                software: sw,
                hardware: hw,
                format: default_format(sw),
                reorder: ReorderKind::None,
                cvd: f64::NAN,
            },
            Policy::Adaptive => self.adaptive.choose(vector_density, tree()),
        };
        if let Some(f) = self.format_override {
            d.format = f;
        }
        if let Some(r) = self.reorder_override {
            d.reorder = r;
        }
        d
    }

    /// [`CoSparse::decide`] with the frontier's exact active count.
    ///
    /// The density form reconstructs the count as `density * cols`,
    /// which is lossy at the PS/PC list-fit boundary; the runtime knows
    /// the true count and threads it through here (density is still
    /// derived for the CVD comparison and adaptive bucketing).
    pub fn decide_exact(&self, frontier_nnz: usize, profile: &OpProfile) -> Decision {
        let tree = || {
            decide_exact(
                self.summary(),
                frontier_nnz,
                self.machine.geometry(),
                self.machine.uarch(),
                &self.thresholds,
                profile,
            )
        };
        let mut d = match self.policy {
            Policy::Auto => tree(),
            Policy::Fixed(sw, hw) => Decision {
                software: sw,
                hardware: hw,
                format: default_format(sw),
                reorder: ReorderKind::None,
                cvd: f64::NAN,
            },
            Policy::Adaptive => {
                let density = if self.shared.matrix().cols() == 0 {
                    0.0
                } else {
                    frontier_nnz as f64 / self.shared.matrix().cols() as f64
                };
                self.adaptive.choose(density, tree())
            }
        };
        if let Some(f) = self.format_override {
            d.format = f;
        }
        if let Some(r) = self.reorder_override {
            d.reorder = r;
        }
        d
    }

    /// (Re)binds the session's shared plan when none is bound or its key
    /// — op profile + balancing scheme + storage format + reordering —
    /// no longer matches. The plan itself comes from the shared graph's
    /// registry (built there on the first request for the key, from any
    /// session). The session's builder scratch outlives the rebind; only
    /// the record of which program it holds is dropped.
    fn ensure_plan(&mut self, profile: &OpProfile, format: FormatKind, reorder: ReorderKind) {
        let stale = self.plan.as_ref().is_none_or(|p| {
            p.profile != *profile
                || p.balancing != self.balancing
                || p.format != format
                || p.reorder != reorder
        });
        if !stale {
            return;
        }
        self.plan = Some(
            self.shared
                .plan_for(profile, self.balancing, format, reorder),
        );
        self.scratch.key = None;
    }

    /// Simulates one SpMV's access pattern for the given active indices
    /// under `decision`, including reconfiguration and (when the
    /// dataflow changed representation) frontier conversion cost.
    ///
    /// Under [`ExecBackend::Host`] there is no access pattern to time:
    /// the call returns a zero-cost host report without touching the
    /// machine (callers that drive their own functional math — the BC
    /// engine — stay fast in host mode). The differential backend
    /// simulates normally: a timing-only call has no functional result
    /// to cross-check.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors ([`SimError`]).
    pub fn execute(
        &mut self,
        decision: Decision,
        active: &[Idx],
        profile: &OpProfile,
    ) -> Result<SimReport, SimError> {
        if self.backend == ExecBackend::Host {
            return Ok(self.host_report(0.0));
        }
        self.execute_timed(decision, active, profile)
            .map(|(report, _)| report)
    }

    /// [`CoSparse::execute`], additionally returning the kernel-only
    /// cycle count: the report's total minus the one-off reconfiguration
    /// and conversion charges. Adaptive learning keys on this — a
    /// configuration must not look expensive in its density bucket just
    /// because switching *into* it cost cycles once.
    fn execute_timed(
        &mut self,
        decision: Decision,
        active: &[Idx],
        profile: &OpProfile,
    ) -> Result<(SimReport, u64), SimError> {
        let geometry = self.machine.geometry();
        // SCS splits each tile's banks between cache and SPM, which
        // needs at least two PEs per tile; the machine cannot even
        // reconfigure into it on a 1-PE geometry. Reject statically
        // (the finding the linter reports) instead of letting the
        // reconfigure panic.
        if decision.hardware == HwConfig::Scs && geometry.pes_per_tile() < 2 {
            return Err(SimError::Rejected {
                diagnostics: vec![Diagnostic {
                    worker: 0,
                    position: None,
                    severity: Severity::Error,
                    kind: LintKind::UnsupportedConfig {
                        config: decision.hardware,
                    },
                }],
            });
        }
        // Snapshot format coldness before the plan bind: building an
        // alternate-format plan forces the image (to size its region),
        // and the one-time pack charge below keys on whether it was
        // already materialized when this invocation arrived.
        let cold_format = !self
            .shared
            .format_is_materialized(decision.format, decision.reorder);
        self.ensure_plan(profile, decision.format, decision.reorder);
        let plan = Arc::clone(self.plan.as_ref().expect("plan ensured above"));
        // The session machine's microarchitecture (asserted equal at
        // construction), borrowed from the graph so the machine stays
        // free for `&mut` runs.
        let uarch = self.shared.uarch();
        // Under verification every build is a checked build against the
        // plan's address map.
        let mut report = self.verify_report.as_mut();
        let regions = report.is_some().then_some(&plan.regions);
        let target = Target {
            geometry,
            hw: decision.hardware,
            uarch,
            regions,
        };
        // The vector-permute contract (fourth axis): when the bound plan
        // streams reordered operands, the kernels must see the
        // frontier's indices mapped into the permuted space too —
        // otherwise mask and frontier would address the wrong columns
        // of the permuted image. The frontier is permuted only where a
        // kernel reads it: a dense frontier is the same set in either
        // space, the masked inner product marks `mask[col_new[i]]`
        // directly, and only an outer-product build sorts a permuted
        // list. Callers hand in original-space indices, and every
        // functional result is computed in the original space, so
        // reordering is invisible outside the simulated address stream.
        let perm = plan.perm();
        let dense = active.len() >= self.shared.matrix().cols();
        let reconfig_cost = self.machine.reconfigure(decision.hardware);

        // One-shot programs — a frontier conversion, a format pack — are
        // emitted into the session's builder and run once, so any cached
        // frontier-dependent program is gone afterwards.
        let mut one_shot = |emit: &dyn Fn(&mut ProgramBuilder)| {
            self.scratch.begin(target);
            emit(&mut self.scratch.builder);
            SharedCounters::bump(&self.shared.counters().conversion_builds);
            run(
                &mut self.machine,
                self.scratch.builder.finish(),
                report.as_deref_mut(),
            )
        };

        // Frontier representation conversion (§III-D.2) when the
        // dataflow changed since the previous invocation.
        let conversion = match (self.prev_sw, decision.software) {
            (Some(SwConfig::InnerProduct), SwConfig::OuterProduct) => {
                Some(Direction::DenseToSparse)
            }
            (Some(SwConfig::OuterProduct), SwConfig::InnerProduct) => {
                Some(Direction::SparseToDense)
            }
            _ => None,
        };
        let cols = self.shared.matrix().cols();
        let conversion_report = match conversion {
            Some(direction) => Some(one_shot(&|builder| {
                let nnz = active.len();
                convert::build(
                    &plan.layout,
                    geometry,
                    cols,
                    nnz,
                    direction,
                    *profile,
                    builder,
                )
            })?),
            None => None,
        };

        // One-time storage-format materialization (§III-D.2 analogue on
        // the format axis): the first invocation to land on a cold
        // alternate format streams the COO triplets through the PEs and
        // writes the packed image; every later invocation — from any
        // session on the graph — finds it warm.
        let pack_report =
            if cold_format && matches!(decision.format, FormatKind::Bitmap | FormatKind::Bcsr) {
                let nnz = self.shared.matrix().nnz();
                let image_words = (plan.layout.fmt_bytes / 4) as usize;
                Some(one_shot(&|builder| {
                    formats::build_pack(&plan.layout, geometry, nnz, image_words, builder)
                })?)
            } else {
                None
            };

        let key = (sw_index(decision.software), hw_index(decision.hardware));
        let counters = self.shared.counters();
        // §IV-C.1: a masked inner product inspects every vector element
        // but skips the MAC and output accesses for inactive ones. Stage
        // the mask in the all-false scratch; it is un-staged below before
        // any error propagates.
        let masked_ip = decision.software == SwConfig::InnerProduct && !dense;
        if masked_ip {
            stage_mask(&mut self.mask_buf, active, perm, true);
        }
        let mask: Option<&[bool]> = masked_ip.then_some(&self.mask_buf[..]);
        // The kernel this decision runs — the one lowering every cache
        // policy below emits through. The format-streaming IP kernels
        // (the third axis) keep the COO path's dataflow contract over a
        // different matrix stream.
        let emit = |builder: &mut ProgramBuilder,
                    ip_scratch: &mut ip::IpScratch,
                    perm_buf: &mut Vec<Idx>| {
            let ip_params = |use_spm: bool| ip::IpParams {
                layout: &plan.layout,
                partition: &plan.ip_partition,
                vblocks: if use_spm {
                    &plan.vblocks_scs
                } else {
                    &plan.vblocks_sc
                },
                use_spm,
                active: mask,
                profile: *profile,
            };
            let fmt_params = formats::FmtParams {
                layout: &plan.layout,
                partition: &plan.ip_partition,
                active: mask,
                profile: *profile,
            };
            match (decision.software, decision.format) {
                (SwConfig::InnerProduct, FormatKind::Bitmap) => {
                    formats::build_bitmap(plan.bitmap(&self.shared), geometry, fmt_params, builder)
                }
                (SwConfig::InnerProduct, FormatKind::Bcsr) => {
                    formats::build_bcsr(plan.bcsr(&self.shared), geometry, fmt_params, builder)
                }
                (SwConfig::InnerProduct, _) => ip::build_with(
                    plan.coo(&self.shared),
                    geometry,
                    ip_params(decision.hardware == HwConfig::Scs),
                    ip_scratch,
                    builder,
                ),
                (SwConfig::OuterProduct, _) => {
                    let csc = plan.csc(&self.shared);
                    let params = op::OpParams {
                        layout: &plan.layout,
                        tile_parts: &plan.op_tile_parts,
                        frontier: op_frontier(perm, active, perm_buf),
                        heap_in_spm: decision.hardware == HwConfig::Ps,
                        spm_node_cap: uarch.bank_bytes / 8,
                        profile: *profile,
                    };
                    op::build(csc, geometry, params, plan.subruns(csc), builder)
                }
            }
        };
        // Which program runs, by cache policy. A fully dense IP frontier
        // runs the plan's shared program, built once per hardware slot
        // through a fresh builder — the cost amortizes over every
        // session and iteration, and the program keeps one id, so each
        // machine's steady-state memo sees the same recurring program
        // (the steady state of PR/CF). Everything
        // else — and every checked build — is emitted into the session's
        // builder, with no work at all when it already holds this exact
        // (config, frontier).
        let prog = if dense && decision.software == SwConfig::InnerProduct && regions.is_none() {
            plan.dense_program(key.1, counters, || {
                let mut builder = ProgramBuilder::new();
                builder.begin(geometry, decision.hardware, uarch);
                emit(&mut builder, &mut ip::IpScratch::default(), &mut Vec::new());
                builder.finish().clone()
            })
        } else {
            self.scratch.ensure(key, active, target, counters, emit);
            self.scratch.builder.program()
        };
        let run = run(&mut self.machine, prog, report);
        if masked_ip {
            stage_mask(&mut self.mask_buf, active, perm, false);
        }
        let mut report = run?;
        // Only remember the dataflow once its kernel actually ran: a
        // rejected or failed invocation must not convince the next call
        // that the frontier representation already switched.
        self.prev_sw = Some(decision.software);

        // Kernel-only cycles: when a conversion or format pack ran, it
        // absorbed the reconfiguration carry and the kernel report is
        // already clean; otherwise the carry landed on the kernel run.
        let kernel_cycles = if conversion_report.is_some() || pack_report.is_some() {
            report.cycles
        } else {
            report.cycles.saturating_sub(reconfig_cost)
        };
        if let Some(conv) = conversion_report {
            report.accumulate(&conv);
        }
        if let Some(pack) = pack_report {
            report.accumulate(&pack);
        }
        Ok((report, kernel_cycles))
    }

    /// A report for a host-backend invocation that took `seconds` of
    /// wall-clock time: zero cycles, zero simulated stats — the host
    /// path has no machine to account.
    fn host_report(&self, seconds: f64) -> SimReport {
        SimReport {
            geometry: self.machine.geometry(),
            config: self.machine.config(),
            cycles: 0,
            seconds,
            stats: Default::default(),
            energy: Default::default(),
        }
    }

    /// One host-backend step: a partial frontier runs the push kernel
    /// into the session's accumulator; a full one pulls over the decided
    /// format's host structure and the graph's arrival-order row
    /// partitioning on [`CoSparse::set_host_threads`] threads. Binds no
    /// plan: the host reads no reordered operand or layout, and under
    /// [`ExecBackend::Differential`] the simulate side's plan stays
    /// bound. Returns the updates and a wall-clock report.
    fn host_step<O: GraphOp>(
        &mut self,
        op: &O,
        decision: Decision,
        active: &[(Idx, O::Value)],
        state: &[O::Value],
    ) -> (Vec<Update<O::Value>>, SimReport) {
        // A full frontier walks the decided format natively against the
        // *original-order* images (the reordering axis shapes the
        // simulated address stream only); an outer-product decision,
        // which only a pinned policy makes on a full frontier, pulls
        // over CSR. A partial frontier builds none of them.
        let graph = &self.shared;
        let operand = || match (decision.software, decision.format) {
            (SwConfig::InnerProduct, FormatKind::Bitmap) => HostOperand::Bitmap(graph.bitmap()),
            (SwConfig::InnerProduct, FormatKind::Bcsr) => HostOperand::Bcsr(graph.bcsr()),
            _ => HostOperand::Csr(graph.csr()),
        };
        let t0 = std::time::Instant::now();
        let updates = host::execute_with(
            op,
            operand,
            graph.matrix_csc(),
            host::StepInputs {
                active,
                state,
                degrees: graph.degrees(),
            },
            graph.host_partition(self.balancing),
            self.host_threads,
            self.accumulators.get(),
        );
        let report = self.host_report(t0.elapsed().as_secs_f64());
        (updates, report)
    }

    /// One reconfigured SpMV: decides configurations from the frontier's
    /// density, simulates the access pattern, and computes `y = M * x`
    /// functionally.
    ///
    /// Under [`ExecBackend::Host`] the same decision drives the native
    /// host path instead (no machine, wall-clock report); under
    /// [`ExecBackend::Differential`] both run and the results are
    /// asserted bit-equal.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    ///
    /// # Panics
    ///
    /// Panics if the frontier dimension does not match the matrix
    /// column count, or (differential backend) if the host and
    /// simulate results disagree.
    pub fn spmv(&mut self, frontier: &Frontier) -> Result<SpmvOutcome, SimError> {
        assert_eq!(
            frontier.dim(),
            self.shared.matrix().cols(),
            "frontier dimension mismatch"
        );
        let rows = self.shared.matrix().rows();
        let profile = OpProfile::scalar();
        let frontier_nnz = frontier.nnz();
        let density = frontier.density();
        let decision = self.decide_exact(frontier_nnz, &profile);
        // Stage the frontier in the reusable scratch buffers; steady-state
        // iterations allocate nothing here.
        let mut entries = std::mem::take(&mut self.entries_buf);
        entries.clear();
        frontier.collect_active(&mut entries);
        // The all-zero state is read out of the shared graph; the local
        // handle clone keeps it borrowable across `&mut self` calls.
        let graph = Arc::clone(&self.shared);
        if self.backend == ExecBackend::Host {
            // Native path: no machine anywhere.
            let (updates, report) = self.host_step(&SpmvOp, decision, &entries, graph.zeros());
            self.entries_buf = entries;
            let result = wrap_updates(rows, decision.software, updates);
            return Ok(SpmvOutcome {
                software: decision.software,
                hardware: decision.hardware,
                format: decision.format,
                reorder: decision.reorder,
                report,
                result,
            });
        }
        let mut active = std::mem::take(&mut self.indices_buf);
        active.clear();
        active.extend(entries.iter().map(|&(i, _)| i));
        let executed = self.execute_timed(decision, &active, &profile);
        self.indices_buf = active;
        let (report, kernel_cycles) = match executed {
            Ok(ok) => ok,
            Err(e) => {
                self.entries_buf = entries;
                return Err(e);
            }
        };
        if self.policy == Policy::Adaptive {
            self.adaptive.record(
                density,
                decision.software,
                decision.hardware,
                decision.format,
                decision.reorder,
                kernel_cycles,
            );
        }

        // Functional product (golden model).
        let updates = apply_with(
            &SpmvOp,
            graph.matrix_csc(),
            &entries,
            graph.zeros(),
            graph.degrees(),
            self.accumulators.get(),
        );
        if self.backend == ExecBackend::Differential {
            let (host_updates, _) = self.host_step(&SpmvOp, decision, &entries, graph.zeros());
            assert_backends_agree("spmv", &updates, &host_updates);
        }
        self.entries_buf = entries;
        let result = wrap_updates(rows, decision.software, updates);
        Ok(SpmvOutcome {
            software: decision.software,
            hardware: decision.hardware,
            format: decision.format,
            reorder: decision.reorder,
            report,
            result,
        })
    }

    /// One reconfigured step of a graph algorithm: `active` holds the
    /// frontier's `(index, value)` pairs, sorted by index without
    /// repeats, `state` the per-vertex state. Returns the updates and
    /// the simulated timing.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn step<O: GraphOp>(
        &mut self,
        op: &O,
        active: &[(Idx, O::Value)],
        state: &[O::Value],
    ) -> Result<StepOutcome<O::Value>, SimError> {
        let profile = op.profile();
        let density = if self.shared.matrix().cols() == 0 {
            0.0
        } else {
            active.len() as f64 / self.shared.matrix().cols() as f64
        };
        let decision = self.decide_exact(active.len(), &profile);
        if self.backend == ExecBackend::Host {
            let (updates, report) = self.host_step(op, decision, active, state);
            return Ok(StepOutcome {
                software: decision.software,
                hardware: decision.hardware,
                format: decision.format,
                reorder: decision.reorder,
                report,
                updates,
            });
        }
        let mut indices = std::mem::take(&mut self.indices_buf);
        indices.clear();
        indices.extend(active.iter().map(|&(i, _)| i));
        let executed = self.execute_timed(decision, &indices, &profile);
        self.indices_buf = indices;
        let (report, kernel_cycles) = executed?;
        if self.policy == Policy::Adaptive {
            self.adaptive.record(
                density,
                decision.software,
                decision.hardware,
                decision.format,
                decision.reorder,
                kernel_cycles,
            );
        }
        let graph = Arc::clone(&self.shared);
        let updates = apply_with(
            op,
            graph.matrix_csc(),
            active,
            state,
            graph.degrees(),
            self.accumulators.get(),
        );
        if self.backend == ExecBackend::Differential {
            let (host_updates, _) = self.host_step(op, decision, active, state);
            assert_backends_agree("step", &updates, &host_updates);
        }
        Ok(StepOutcome {
            software: decision.software,
            hardware: decision.hardware,
            format: decision.format,
            reorder: decision.reorder,
            report,
            updates,
        })
    }
}

/// Wraps a sorted update list in the representation the decided
/// dataflow produces (dense for IP, sparse for OP).
fn wrap_updates(rows: usize, software: SwConfig, updates: Vec<Update<f32>>) -> Frontier {
    match software {
        SwConfig::InnerProduct => {
            let mut y = DenseVector::filled(rows, 0.0f32);
            for (dst, v) in updates {
                y[dst as usize] = v;
            }
            Frontier::Dense(y)
        }
        SwConfig::OuterProduct => Frontier::Sparse(
            SparseVector::from_sorted(rows, updates)
                .expect("updates are sorted unique destinations"),
        ),
    }
}

/// Differential-backend oracle check: the simulate path's functional
/// result and the host backend's result must agree element-for-element
/// (for float values this is bit-equality in practice — both reduce in
/// the same order). Panics with the first divergence.
fn assert_backends_agree<V: PartialEq + std::fmt::Debug>(
    what: &str,
    simulate: &[Update<V>],
    host_side: &[Update<V>],
) {
    assert_eq!(
        simulate.len(),
        host_side.len(),
        "differential {what}: simulate produced {} updates, host {}",
        simulate.len(),
        host_side.len(),
    );
    for (i, (s, h)) in simulate.iter().zip(host_side).enumerate() {
        assert!(
            s == h,
            "differential {what}: update {i} diverges (simulate {s:?}, host {h:?})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmuter::{Geometry, MicroArch};

    fn runtime(n: usize, nnz: usize) -> CoSparse {
        let m = sparse::generate::uniform(n, n, nnz, 21).unwrap();
        let machine = Machine::new(Geometry::new(2, 4), MicroArch::paper());
        CoSparse::new(&m, machine)
    }

    #[test]
    fn dense_frontier_runs_ip() {
        let mut rt = runtime(512, 8000);
        let x = Frontier::Dense(sparse::generate::random_dense_vector(512, 3));
        let out = rt.spmv(&x).unwrap();
        assert_eq!(out.software, SwConfig::InnerProduct);
        assert!(matches!(out.result, Frontier::Dense(_)));
        assert!(out.report.cycles > 0);
    }

    #[test]
    fn sparse_frontier_runs_op() {
        let mut rt = runtime(4096, 40_000);
        let x = Frontier::Sparse(sparse::generate::random_sparse_vector(4096, 0.002, 5).unwrap());
        let out = rt.spmv(&x).unwrap();
        assert_eq!(out.software, SwConfig::OuterProduct);
        assert!(matches!(out.result, Frontier::Sparse(_)));
    }

    /// Only checked builds run the analyzer: an unverified session's
    /// plan-cached dense program and its scratch program carry no
    /// analysis, a verified session's checked build does.
    #[test]
    fn only_checked_builds_carry_an_analysis() {
        let mut rt = runtime(512, 8000);
        rt.set_policy(Policy::Fixed(SwConfig::InnerProduct, HwConfig::Sc));
        let dense = Frontier::Dense(sparse::generate::random_dense_vector(512, 3));
        rt.spmv(&dense).unwrap();
        let plan = Arc::clone(rt.plan.as_ref().expect("plan bound"));
        let cached = plan.dense_program(hw_index(HwConfig::Sc), rt.shared.counters(), || {
            unreachable!("the spmv above built it")
        });
        assert!(cached.analysis().is_none());

        rt.set_policy(Policy::Fixed(SwConfig::OuterProduct, HwConfig::Pc));
        let sparse_f =
            Frontier::Sparse(sparse::generate::random_sparse_vector(512, 0.02, 5).unwrap());
        rt.spmv(&sparse_f).unwrap();
        assert!(rt.scratch.builder.program().analysis().is_none());

        rt.set_verify(true);
        rt.spmv(&sparse_f).unwrap();
        assert!(rt.scratch.builder.program().analysis().is_some());
    }

    #[test]
    fn result_matches_reference() {
        let m = sparse::generate::uniform(256, 256, 4000, 9).unwrap();
        let machine = Machine::new(Geometry::new(2, 4), MicroArch::paper());
        let mut rt = CoSparse::new(&m, machine);
        let xd = sparse::generate::random_dense_vector(256, 1);
        let want = m.spmv_dense(&xd).unwrap();
        let out = rt.spmv(&Frontier::Dense(xd)).unwrap();
        match out.result {
            Frontier::Dense(y) => {
                for i in 0..256 {
                    assert!((y[i] - want[i]).abs() < 1e-3 * want[i].abs().max(1.0));
                }
            }
            other => panic!("expected dense result, got {other:?}"),
        }
    }

    #[test]
    fn fixed_policy_is_respected() {
        let mut rt = runtime(512, 8000);
        rt.set_policy(Policy::Fixed(SwConfig::OuterProduct, HwConfig::Ps));
        let x = Frontier::Dense(sparse::generate::random_dense_vector(512, 3));
        let out = rt.spmv(&x).unwrap();
        assert_eq!(out.software, SwConfig::OuterProduct);
        assert_eq!(out.hardware, HwConfig::Ps);
    }

    #[test]
    fn dataflow_switch_charges_conversion() {
        let mut rt = runtime(4096, 40_000);
        rt.set_policy(Policy::Fixed(SwConfig::InnerProduct, HwConfig::Sc));
        let dense = Frontier::Dense(sparse::generate::random_dense_vector(4096, 3));
        let first = rt.spmv(&dense).unwrap();
        // Switch to OP: the frontier must be converted dense→sparse.
        rt.policy = Policy::Fixed(SwConfig::OuterProduct, HwConfig::Pc);
        let sparse_f =
            Frontier::Sparse(sparse::generate::random_sparse_vector(4096, 0.01, 2).unwrap());
        let second = rt.spmv(&sparse_f).unwrap();
        // Conversion adds ≥ dim loads on top of OP's own work.
        assert!(
            second.report.stats.loads >= 4096,
            "conversion loads missing: {}",
            second.report.stats.loads
        );
        assert!(first.report.stats.reconfigurations <= 1);
        assert_eq!(second.report.stats.reconfigurations, 1);
    }

    #[test]
    fn op_cheaper_than_ip_for_very_sparse_frontier() {
        let mut rt = runtime(8192, 80_000);
        let sparse_f = sparse::generate::random_sparse_vector(8192, 0.001, 7).unwrap();
        rt.set_policy(Policy::Fixed(SwConfig::OuterProduct, HwConfig::Pc));
        let op_time = rt
            .spmv(&Frontier::Sparse(sparse_f.clone()))
            .unwrap()
            .report
            .cycles;
        let mut rt2 = runtime(8192, 80_000);
        rt2.set_policy(Policy::Fixed(SwConfig::InnerProduct, HwConfig::Sc));
        let ip_time = rt2
            .spmv(&Frontier::Dense(sparse_f.to_dense(0.0)))
            .unwrap()
            .report
            .cycles;
        assert!(
            op_time * 3 < ip_time,
            "OP ({op_time}) should dominate IP ({ip_time}) at 0.1% density"
        );
    }

    #[test]
    fn step_with_custom_op() {
        // Min-plus (SSSP-like) op over a tiny graph.
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
        let mut rt = runtime(256, 2000);
        let state = vec![f32::INFINITY; 256];
        let out = rt.step(&MinPlus, &[(0, 0.0)], &state).unwrap();
        // Source 0's neighbours get finite distances.
        let expected: usize = rt.matrix_csc().col_nnz(0);
        assert_eq!(out.updates.len(), expected);
        assert!(out.report.cycles > 0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dimension_panics() {
        let mut rt = runtime(128, 500);
        let x = Frontier::Dense(DenseVector::filled(64, 1.0f32));
        let _ = rt.spmv(&x);
    }

    #[test]
    #[should_panic(expected = "geometry must match")]
    fn mismatched_session_machine_panics() {
        let m = sparse::generate::uniform(64, 64, 300, 2).unwrap();
        let g = SharedGraph::new(&m, Geometry::new(2, 4), MicroArch::paper());
        let wrong = Machine::new(Geometry::new(1, 2), MicroArch::paper());
        let _ = g.session_on(wrong);
    }
}

#[cfg(test)]
mod frontier_tests {
    use super::*;

    fn runtime(n: usize, nnz: usize) -> CoSparse {
        let m = sparse::generate::uniform(n, n, nnz, 21).unwrap();
        let machine = Machine::new(
            transmuter::Geometry::new(2, 4),
            transmuter::MicroArch::paper(),
        );
        CoSparse::new(&m, machine)
    }

    #[test]
    fn frontier_accessors() {
        let d = Frontier::Dense(DenseVector::from(vec![0.0f32, 2.0, 0.0, 3.0]));
        assert_eq!(d.dim(), 4);
        assert_eq!(d.nnz(), 2);
        assert_eq!(d.density(), 0.5);
        assert!(!d.is_sparse());
        let mut dense_active = Vec::new();
        d.collect_active(&mut dense_active);
        assert_eq!(dense_active, vec![(1, 2.0), (3, 3.0)]);

        let s =
            Frontier::Sparse(SparseVector::from_entries(4, vec![(1, 2.0f32), (3, 3.0)]).unwrap());
        assert!(s.is_sparse());
        let mut sparse_active = Vec::new();
        s.collect_active(&mut sparse_active);
        assert_eq!(sparse_active, dense_active);
        assert_eq!(s.density(), 0.5);
    }

    #[test]
    fn zero_dim_frontier() {
        let d = Frontier::Dense(DenseVector::from(Vec::<f32>::new()));
        assert_eq!(d.density(), 0.0);
        assert_eq!(d.nnz(), 0);
    }

    #[test]
    fn empty_sparse_frontier_runs() {
        let m = sparse::generate::uniform(128, 128, 500, 3).unwrap();
        let machine = Machine::new(
            transmuter::Geometry::new(1, 2),
            transmuter::MicroArch::paper(),
        );
        let mut rt = CoSparse::new(&m, machine);
        let out = rt.spmv(&Frontier::Sparse(SparseVector::new(128))).unwrap();
        assert_eq!(out.software, SwConfig::OuterProduct);
        match out.result {
            Frontier::Sparse(v) => assert_eq!(v.nnz(), 0),
            other => panic!("expected sparse, got {other:?}"),
        }
    }

    #[test]
    fn adaptive_policy_records_via_spmv() {
        let m = sparse::generate::uniform(1024, 1024, 8000, 5).unwrap();
        let machine = Machine::new(
            transmuter::Geometry::new(2, 4),
            transmuter::MicroArch::paper(),
        );
        let mut rt = CoSparse::new(&m, machine);
        rt.set_policy(Policy::Adaptive);
        assert_eq!(rt.adaptive_observations(), 0);
        for i in 0..3 {
            let sv = sparse::generate::random_sparse_vector(1024, 0.02, i).unwrap();
            let _ = rt.spmv(&Frontier::Sparse(sv)).unwrap();
        }
        assert!(rt.adaptive_observations() >= 2, "adaptive should explore");
        // Switching policy resets the observations.
        rt.set_policy(Policy::Auto);
        assert_eq!(rt.adaptive_observations(), 0);
    }

    #[test]
    fn repeated_spmv_reuses_warm_machine() {
        let m = sparse::generate::uniform(2048, 2048, 30_000, 4).unwrap();
        let machine = Machine::new(
            transmuter::Geometry::new(2, 4),
            transmuter::MicroArch::paper(),
        );
        let mut rt = CoSparse::new(&m, machine);
        rt.set_policy(Policy::Fixed(SwConfig::InnerProduct, HwConfig::Sc));
        let x = Frontier::Dense(sparse::generate::random_dense_vector(2048, 1));
        let first = rt.spmv(&x).unwrap().report;
        let second = rt.spmv(&x).unwrap().report;
        assert!(
            second.cycles < first.cycles,
            "warm caches should help: {} vs {}",
            second.cycles,
            first.cycles
        );
        // No reconfiguration between same-config runs.
        assert_eq!(second.stats.reconfigurations, 0);
    }

    #[test]
    fn rejected_execute_preserves_prev_sw() {
        // On a 1-PE-per-tile geometry a verified SCS request is rejected
        // statically. The rejection must leave the runtime's remembered
        // dataflow untouched: the next IP run still owes the
        // sparse→dense frontier conversion. A control runtime that never
        // saw the rejected call must produce the identical report.
        let profile = OpProfile::scalar();
        let geometry = transmuter::Geometry::new(1, 1);
        let decision = |sw, hw| Decision {
            software: sw,
            hardware: hw,
            format: default_format(sw),
            reorder: ReorderKind::None,
            cvd: f64::NAN,
        };
        let m = sparse::generate::uniform(256, 256, 2000, 13).unwrap();
        let active: Vec<Idx> = (0..32).collect();

        let mut control = CoSparse::new(&m, Machine::new(geometry, transmuter::MicroArch::paper()));
        control.set_verify(true);
        control
            .execute(
                decision(SwConfig::OuterProduct, HwConfig::Pc),
                &active,
                &profile,
            )
            .unwrap();
        let want = control
            .execute(
                decision(SwConfig::InnerProduct, HwConfig::Sc),
                &active,
                &profile,
            )
            .unwrap();

        let mut rt = CoSparse::new(&m, Machine::new(geometry, transmuter::MicroArch::paper()));
        rt.set_verify(true);
        rt.execute(
            decision(SwConfig::OuterProduct, HwConfig::Pc),
            &active,
            &profile,
        )
        .unwrap();
        let rejected = rt.execute(
            decision(SwConfig::InnerProduct, HwConfig::Scs),
            &active,
            &profile,
        );
        assert!(matches!(rejected, Err(SimError::Rejected { .. })));
        let got = rt
            .execute(
                decision(SwConfig::InnerProduct, HwConfig::Sc),
                &active,
                &profile,
            )
            .unwrap();
        assert_eq!(got.cycles, want.cycles);
        assert_eq!(got.stats.loads, want.stats.loads);
        // The conversion actually ran (its loads cover the frontier dim).
        assert!(got.stats.loads >= 256 + active.len() as u64);
    }

    #[test]
    fn adaptive_records_kernel_only_cycles() {
        let mut rt = runtime(512, 8000);
        rt.set_policy(Policy::Adaptive);
        let x = Frontier::Dense(sparse::generate::random_dense_vector(512, 3));
        let density = x.density();
        let first = rt.spmv(&x).unwrap();
        let second = rt.spmv(&x).unwrap();
        assert_eq!(first.software, second.software);
        assert_ne!(
            first.hardware, second.hardware,
            "second call explores the hardware sibling"
        );
        // The sibling run paid a reconfiguration on top of its kernel,
        // but the recorded cost must be kernel-only — strictly below the
        // switch-inclusive report.
        let mean = rt
            .adaptive_mean_cycles(
                density,
                second.software,
                second.hardware,
                second.format,
                second.reorder,
            )
            .unwrap();
        assert!(
            mean < second.report.cycles as f64,
            "recorded {mean} should exclude the reconfiguration from {}",
            second.report.cycles
        );
        // With both configs observed at kernel-only cost, the third call
        // picks the bucket's argmin.
        let first_mean = rt
            .adaptive_mean_cycles(
                density,
                first.software,
                first.hardware,
                first.format,
                first.reorder,
            )
            .unwrap();
        let third = rt.spmv(&x).unwrap();
        let want_hw = if first_mean <= mean {
            first.hardware
        } else {
            second.hardware
        };
        assert_eq!(third.hardware, want_hw);
    }

    #[test]
    fn reorder_override_is_bit_identical_and_rekeys_the_plan() {
        let m = sparse::generate::uniform(512, 512, 8000, 21).unwrap();
        let machine = || {
            Machine::new(
                transmuter::Geometry::new(2, 4),
                transmuter::MicroArch::paper(),
            )
        };
        let x = Frontier::Dense(sparse::generate::random_dense_vector(512, 3));
        let mut plain = CoSparse::new(&m, machine());
        let want = plain.spmv(&x).unwrap();
        assert_eq!(want.reorder, ReorderKind::None);

        let mut rt = CoSparse::new(&m, machine());
        // Differential backend: the host result cross-checks the golden
        // model on every call, reordering pinned or not.
        rt.set_backend(ExecBackend::Differential);
        rt.set_reorder_override(Some(ReorderKind::Rcm));
        let out = rt.spmv(&x).unwrap();
        assert_eq!(out.reorder, ReorderKind::Rcm);
        // Functional results never see the permutation.
        assert_eq!(out.result, want.result);
        // Pinning back to arrival order rekeys the plan.
        rt.set_reorder_override(None);
        let back = rt.spmv(&x).unwrap();
        assert_eq!(back.reorder, ReorderKind::None);
        assert_eq!(back.result, want.result);
        let cs = rt.cache_stats();
        assert_eq!(cs.plan_builds, 2);
        assert_eq!(rt.shared().cache_stats().reorder_builds, 1);

        // The sparse-frontier (OP) path agrees too.
        let sv = sparse::generate::random_sparse_vector(512, 0.01, 7).unwrap();
        let mut op_plain = CoSparse::new(&m, machine());
        let op_want = op_plain.spmv(&Frontier::Sparse(sv.clone())).unwrap();
        let mut op_rt = CoSparse::new(&m, machine());
        op_rt.set_backend(ExecBackend::Differential);
        op_rt.set_reorder_override(Some(ReorderKind::WindowCluster));
        let op_out = op_rt.spmv(&Frontier::Sparse(sv)).unwrap();
        assert_eq!(op_out.reorder, ReorderKind::WindowCluster);
        assert_eq!(op_out.result, op_want.result);
    }

    /// A masked-IP step followed by a rebind to a plan whose program is
    /// smaller: the rebound session keeps the grown builder buffer, and
    /// the held program is forgotten rather than re-run.
    fn assert_capacity_survives_rebind(
        rt: &mut CoSparse,
        first: impl FnOnce(&mut CoSparse),
        second: impl FnOnce(&mut CoSparse),
    ) {
        first(rt);
        let grown = rt.scratch.builder.op_capacity();
        let plan = Arc::clone(rt.plan.as_ref().unwrap());
        let builds = rt.cache_stats().scratch_program_builds;
        second(rt);
        assert!(!Arc::ptr_eq(&plan, rt.plan.as_ref().unwrap()), "no rebind");
        assert_eq!(rt.cache_stats().scratch_program_builds, builds + 1);
        // The second program alone would not have grown the buffer this
        // far, so a builder rebuilt on rebind would show less.
        assert!(rt.scratch.builder.program().len() < grown);
        assert_eq!(rt.scratch.builder.op_capacity(), grown);
    }

    #[test]
    fn verify_toggle_never_reuses_a_scratch_program() {
        // A repeated OP frontier re-runs the session's scratch program; a
        // verification toggle in between must rebuild it, checked
        // exactly when verification is on.
        let m = sparse::generate::uniform(512, 512, 4000, 3).unwrap();
        let machine = Machine::new(
            transmuter::Geometry::new(2, 4),
            transmuter::MicroArch::paper(),
        );
        let mut rt = CoSparse::new(&m, machine);
        rt.set_policy(Policy::Fixed(SwConfig::OuterProduct, HwConfig::Pc));
        let x = Frontier::Sparse(sparse::generate::random_sparse_vector(512, 0.05, 9).unwrap());
        let builds = |rt: &CoSparse| rt.cache_stats().scratch_program_builds;
        rt.spmv(&x).unwrap();
        rt.spmv(&x).unwrap();
        assert_eq!(rt.cache_stats().scratch_program_hits, 1);
        let unchecked = builds(&rt);

        rt.set_verify(true);
        rt.spmv(&x).unwrap();
        assert_eq!(builds(&rt), unchecked + 1, "unchecked program reused");
        assert!(rt.scratch.builder.program().races().is_some());
        // A checked program is reused while verification stays on, and
        // every run of it counts.
        rt.spmv(&x).unwrap();
        assert_eq!(builds(&rt), unchecked + 1);
        assert_eq!(rt.verification().runs, 2);

        rt.set_verify(false);
        rt.spmv(&x).unwrap();
        assert_eq!(builds(&rt), unchecked + 2, "checked program reused");
        assert!(rt.scratch.builder.program().races().is_none());
    }

    #[test]
    fn verified_dense_frontier_skips_the_shared_program() {
        let m = sparse::generate::uniform(512, 512, 4000, 3).unwrap();
        let x = Frontier::Dense(sparse::generate::random_dense_vector(512, 4));
        let run = |verify: bool| {
            let machine = Machine::new(
                transmuter::Geometry::new(2, 4),
                transmuter::MicroArch::paper(),
            );
            let mut rt = CoSparse::new(&m, machine);
            rt.set_policy(Policy::Fixed(SwConfig::InnerProduct, HwConfig::Scs));
            rt.set_verify(verify);
            let cycles = rt.spmv(&x).unwrap().report.cycles;
            (cycles, rt.cache_stats(), rt.verification().runs)
        };
        let (want, stats, _) = run(false);
        assert_eq!(stats.dense_program_builds, 1);
        let (got, stats, runs) = run(true);
        assert_eq!(
            stats.dense_program_builds, 0,
            "checked run used the shared slot"
        );
        assert_eq!(stats.scratch_program_builds, 1);
        assert_eq!(runs, 1);
        assert_eq!(
            got, want,
            "a checked build must time like the shared program"
        );
    }

    #[test]
    fn builder_capacity_survives_dataflow_switch() {
        let m = sparse::generate::uniform(2048, 2048, 30_000, 4).unwrap();
        let machine = Machine::new(
            transmuter::Geometry::new(2, 4),
            transmuter::MicroArch::paper(),
        );
        let mut rt = CoSparse::new(&m, machine);
        let x = sparse::generate::random_sparse_vector(2048, 0.3, 1).unwrap();
        let y = sparse::generate::random_sparse_vector(2048, 0.002, 2).unwrap();
        assert_capacity_survives_rebind(
            &mut rt,
            |rt| {
                rt.set_policy(Policy::Fixed(SwConfig::InnerProduct, HwConfig::Sc));
                rt.spmv(&Frontier::Sparse(x)).unwrap();
            },
            |rt| {
                rt.set_policy(Policy::Fixed(SwConfig::OuterProduct, HwConfig::Pc));
                rt.spmv(&Frontier::Sparse(y)).unwrap();
            },
        );
    }

    #[test]
    fn builder_capacity_survives_profile_switch() {
        /// Min-plus relaxation with one extra compute per edge, as SSSP.
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
            fn profile(&self) -> OpProfile {
                OpProfile {
                    extra_compute_per_edge: 1,
                    ..OpProfile::scalar()
                }
            }
        }
        // Outer product on both sides: its program size follows the
        // frontier, so a fresh builder would not reach the first side's
        // capacity on the second.
        let mut rt = runtime(2048, 30_000);
        rt.set_policy(Policy::Fixed(SwConfig::OuterProduct, HwConfig::Pc));
        let state = vec![f32::INFINITY; 2048];
        let wide: Vec<(Idx, f32)> = (0..2048).step_by(2).map(|i| (i, 0.0)).collect();
        assert_capacity_survives_rebind(
            &mut rt,
            |rt| {
                rt.step(&MinPlus, &wide, &state).unwrap();
            },
            |rt| {
                // BFS-like: the scalar profile keys a different plan, and
                // a one-vertex frontier makes a smaller program.
                let x = SparseVector::from_entries(2048, vec![(7, 1.0f32)]).unwrap();
                rt.spmv(&Frontier::Sparse(x)).unwrap();
            },
        );
    }

    #[test]
    fn balancing_change_invalidates_plan() {
        let mut rt = runtime(512, 8000);
        let x = Frontier::Dense(sparse::generate::random_dense_vector(512, 3));
        let _warm = rt.spmv(&x).unwrap();
        rt.set_balancing(Balancing::EqualRows);
        let after = rt.spmv(&x).unwrap();

        // A fresh runtime on EqualRows from the start must agree on the
        // decision, the op counts (which depend on the partition the
        // plan caches) and the functional result. Cycles may differ —
        // the warm runtime's caches are primed.
        let mut fresh = runtime(512, 8000);
        fresh.set_balancing(Balancing::EqualRows);
        let want = fresh.spmv(&x).unwrap();
        assert_eq!(after.software, want.software);
        assert_eq!(after.hardware, want.hardware);
        assert_eq!(after.report.stats.loads, want.report.stats.loads);
        assert_eq!(after.report.stats.stores, want.report.stats.stores);
        assert_eq!(after.result, want.result);
    }

    #[test]
    fn profile_change_rebuilds_plan() {
        // A wide-value op (CF-like) needs a different layout than scalar
        // SpMV; alternating between them must rebind the plan each time
        // and keep both functionally correct.
        #[derive(Debug)]
        struct Wide;
        impl GraphOp for Wide {
            type Value = f32;
            fn matrix_op(&self, w: f32, src: f32, _dst: f32, _deg: u32) -> f32 {
                w * src
            }
            fn reduce(&self, a: f32, b: f32) -> f32 {
                a + b
            }
            fn profile(&self) -> OpProfile {
                OpProfile {
                    value_words: 4,
                    extra_compute_per_edge: 3,
                    vector_op_compute: 1,
                }
            }
        }
        let m = sparse::generate::uniform(256, 256, 4000, 9).unwrap();
        let machine = Machine::new(
            transmuter::Geometry::new(2, 4),
            transmuter::MicroArch::paper(),
        );
        let mut rt = CoSparse::new(&m, machine);
        let xd = sparse::generate::random_dense_vector(256, 1);
        let want = m.spmv_dense(&xd).unwrap();
        let check = |out: &SpmvOutcome| match &out.result {
            Frontier::Dense(y) => {
                for i in 0..256 {
                    assert!((y[i] - want[i]).abs() < 1e-3 * want[i].abs().max(1.0));
                }
            }
            other => panic!("expected dense result, got {other:?}"),
        };
        let before = rt.spmv(&Frontier::Dense(xd.clone())).unwrap();
        check(&before);
        let active: Vec<(Idx, f32)> = (0..256).map(|i| (i as Idx, 1.0)).collect();
        let state = vec![0.0f32; 256];
        let wide = rt.step(&Wide, &active, &state).unwrap();
        assert!(wide.report.cycles > 0);
        let after = rt.spmv(&Frontier::Dense(xd)).unwrap();
        check(&after);
        assert_eq!(before.report.stats.loads, after.report.stats.loads);
        // Returning to the scalar profile rebinds the already-built
        // plan: two distinct keys were ever built, the third bind hit.
        let cs = rt.cache_stats();
        assert_eq!(cs.plan_builds, 2);
        assert_eq!(cs.plan_hits, 1);
        // The scalar dense-IP program survived the profile round-trip.
        assert_eq!(cs.dense_program_builds, 2);
        assert!(cs.dense_program_hits >= 1);
    }

    /// Alternating BFS-like (`u32`) and SSSP-like (`f32`) runs on one
    /// session, on both backends: after a wide warm-up step per type,
    /// each type keeps one accumulator whose capacity never changes —
    /// an accumulator rebuilt per query or per value-type switch would
    /// regrow only to the last small step's touched count.
    #[test]
    fn accumulators_survive_value_type_switches() {
        #[derive(Debug)]
        struct Level;
        impl GraphOp for Level {
            type Value = u32;
            fn matrix_op(&self, _w: f32, src: u32, _dst: u32, _deg: u32) -> u32 {
                src + 1
            }
            fn reduce(&self, a: u32, b: u32) -> u32 {
                a.min(b)
            }
            fn is_update(&self, new: u32, old: u32) -> bool {
                new < old
            }
        }
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
        let n = 1024;
        let levels = vec![u32::MAX; n];
        let dists = vec![f32::INFINITY; n];
        let wide_u: Vec<(Idx, u32)> = (0..n as Idx).step_by(2).map(|i| (i, 0)).collect();
        let wide_f: Vec<(Idx, f32)> = (0..n as Idx).step_by(2).map(|i| (i, 0.0)).collect();
        for backend in [ExecBackend::Simulate, ExecBackend::Host] {
            let mut rt = runtime(n, 12_000);
            rt.set_backend(backend);
            rt.step(&Level, &wide_u, &levels).unwrap();
            rt.step(&MinPlus, &wide_f, &dists).unwrap();
            let warm_u = rt.accumulators.get::<u32>().capacity();
            let warm_f = rt.accumulators.get::<f32>().capacity();
            assert!(
                warm_u.2 > n / 4 && warm_f.2 > n / 4,
                "{backend:?}: warm-up touched little"
            );
            for src in 0..6 {
                rt.step(&Level, &[(src, 0)], &levels).unwrap();
                rt.step(&MinPlus, &[(src, 0.0)], &dists).unwrap();
                assert_eq!(rt.accumulators.0.len(), 2, "{backend:?}: one slot per type");
                assert_eq!(
                    rt.accumulators.get::<u32>().capacity(),
                    warm_u,
                    "{backend:?}"
                );
                assert_eq!(
                    rt.accumulators.get::<f32>().capacity(),
                    warm_f,
                    "{backend:?}"
                );
            }
        }
    }
}
