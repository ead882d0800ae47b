//! Compiled program IR: the single artifact that crosses the
//! kernel → verifier → machine boundary.
//!
//! Kernels lower their per-worker [`Op`] streams into a [`Program`]
//! once; the machine then executes the pre-decoded micro-ops directly
//! ([`crate::Machine::run_program`]), without per-step enum matching or
//! boxed-iterator dispatch, and the verifier's verdict can be attached
//! to the artifact so a cached program is linted exactly once
//! ([`Program::attach_lint`]).
//!
//! Lowering resolves everything that is invariant for a given
//! `(Geometry, HwConfig, MicroArch)` at build time: line numbers, L1
//! bank routing, SPM bank selection, compute-cost clamping (each burst
//! folded into the micro-op before it, see `MicroOp`), and the
//! *poisoning* of ops that the event loop would reject at run time
//! (SPM ops without SPM, LCP tile barriers) — executing a poisoned op
//! reproduces [`crate::Machine::run`]'s exact error or panic at the
//! exact same point in the schedule.
//!
//! Lowering also segments the program by its global barriers and
//! decides whether the *epoch-parallel* execution core may run it:
//! under a private L2 ([`L2Mode::PrivateCache`]) tiles share no bank
//! and no arbitrated port, so between two global barriers each tile
//! can execute on its own host thread against a shadow HBM, with the
//! real HBM replayed and validated afterwards (DESIGN.md §9).

use crate::analyze::{self, Analysis};
use crate::cache::CacheBank;
use crate::config::{Geometry, HwConfig, L1Mode, L2Mode, MicroArch};
use crate::hbm::{Hbm, HbmSink};
use crate::machine::{release, BarrierState, Sched, SimError};
use crate::memsys::{
    priv_direct_access, priv_l1_access, FastDiv, MemorySystem, PrivParams, PrivTile,
};
use crate::op::{Addr, Op};
use crate::stats::SimStats;
use crate::verify::{self, Diagnostic, LintKind, Race, RaceAccess, RegionMap, Severity};
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of [`Program::id`] values; 0 is reserved (never issued).
static NEXT_PROGRAM_ID: AtomicU64 = AtomicU64::new(1);

/// Pre-decoded operation kind. The hardware-dependent routing decision
/// (shared vs private, PE vs LCP) is taken at compile time, so the
/// interpreter dispatches on a flat enum with no per-op mode checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MicroKind {
    /// Busy the core for `a` cycles (already clamped to ≥ 1).
    Compute,
    /// Shared-L1 load/store (SC/SCS PE): `bank` = L1 bank,
    /// `a` = bank-local line, `b` = global line.
    SharedLoad,
    SharedStore,
    /// Direct shared-L2 load/store (LCP under a shared L2): `b` = line.
    SharedDirLoad,
    SharedDirStore,
    /// Private-L1 load/store (PC PE): `bank` = PE, `b` = line.
    PrivLoad,
    PrivStore,
    /// Direct private-L2 load/store (PS PE): `bank` = PE, `b` = line.
    DirPeLoad,
    DirPeStore,
    /// Direct private-L2 load/store (LCP under a private L2): `b` = line.
    DirLcpLoad,
    DirLcpStore,
    /// Shared-SPM access (SCS): `bank` = SPM bank. Loads and stores
    /// time identically, so one kind covers both.
    SpmShared,
    /// Private-SPM access (PS): fixed bank latency.
    SpmPrivate,
    /// PE tile barrier.
    TileBarrier,
    /// Global barrier (epoch boundary).
    GlobalBarrier,
    /// SPM op compiled against a configuration without SPM: executing
    /// it yields [`SimError::SpmUnavailable`].
    PoisonSpm,
    /// SPM op issued by an LCP (configuration has SPM): executing it
    /// panics, as the memory system's own assertion would.
    PoisonLcpSpm,
    /// Tile barrier issued by an LCP: executing it yields
    /// [`SimError::LcpBarrier`].
    PoisonLcpBar,
}

impl MicroKind {
    /// True if a micro-op of this kind may carry folded compute bursts:
    /// every kind that completes through the interpreter's common
    /// `done` path. Barriers park the lane instead, and poisoned ops
    /// fail before completing, so neither carries a fold.
    #[inline]
    fn carries_fold(self) -> bool {
        !matches!(
            self,
            MicroKind::TileBarrier
                | MicroKind::GlobalBarrier
                | MicroKind::PoisonSpm
                | MicroKind::PoisonLcpSpm
                | MicroKind::PoisonLcpBar
        )
    }
}

/// One pre-decoded micro-op (24 bytes; the interpreter walks dense
/// arrays of these).
///
/// A micro-op may carry the compute bursts that follow it in its
/// stream (see [`push_compute`]): `post` is their summed, clamped
/// cycles and `folded` their count, so one interpreter step executes
/// the op and then the bursts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MicroOp {
    /// Compute cycles, or the bank-local line for shared-L1 accesses.
    pub(crate) a: u64,
    /// Global line number for memory accesses.
    pub(crate) b: u64,
    /// Cycles of the compute bursts folded into this op.
    pub(crate) post: u32,
    /// Resolved bank / PE index, where the kind needs one.
    pub(crate) bank: u16,
    pub(crate) kind: MicroKind,
    /// Number of compute bursts folded into this op.
    pub(crate) folded: u8,
}

const _: () = assert!(std::mem::size_of::<MicroOp>() == 24);

impl MicroOp {
    #[inline]
    fn plain(kind: MicroKind) -> Self {
        MicroOp::new(kind, 0, 0, 0)
    }

    #[inline]
    fn new(kind: MicroKind, a: u64, b: u64, bank: u16) -> Self {
        MicroOp {
            a,
            b,
            post: 0,
            bank,
            kind,
            folded: 0,
        }
    }

    /// Source ops this micro-op stands for: itself plus its folds.
    #[inline]
    pub(crate) fn source_len(&self) -> u32 {
        1 + self.folded as u32
    }
}

/// Appends a compute burst of `cycles` (already clamped to ≥ 1) to the
/// stream whose micro-ops start at `lo`. The burst folds into the
/// stream's last micro-op when that op can carry it and neither its
/// fold count nor its `post` sum would overflow; otherwise — at the
/// head of a stream, after a barrier or a poisoned op, or on overflow —
/// it becomes a `Compute` micro-op, which later bursts can fold into.
/// Returns true when the burst folded.
///
/// Folding is exact: a burst touches no shared state and moves only
/// its own lane's clock, so finishing it in the same interpreter step
/// as the op before it leaves every other lane's events, and the
/// `(cycle, worker)` order they are popped in, unchanged.
#[inline]
fn push_compute(ops: &mut Vec<MicroOp>, lo: usize, cycles: u32) -> bool {
    if let Some(last) = ops[lo..].last_mut() {
        if last.kind.carries_fold() && last.folded < u8::MAX {
            if let Some(post) = last.post.checked_add(cycles) {
                last.post = post;
                last.folded += 1;
                return true;
            }
        }
    }
    ops.push(MicroOp::new(MicroKind::Compute, cycles as u64, 0, 0));
    false
}

/// Verifier verdict attached to a compiled program.
#[derive(Debug, Clone)]
struct LintStatus {
    clean: bool,
    diagnostics: Vec<Diagnostic>,
}

/// A compiled, immutable execution artifact: every worker's op stream
/// lowered to pre-decoded micro-ops for one specific
/// `(Geometry, HwConfig, MicroArch)`.
///
/// A `Program` is the unit of **caching** (kernels compile once and
/// re-run many times), **linting** ([`Program::attach_lint`] pins the
/// verifier's verdict to the artifact) and **execution**
/// ([`crate::Machine::run_program`]).
#[derive(Debug, Clone)]
pub struct Program {
    /// Process-unique identity of this compiled artifact, refreshed on
    /// every [`Program::recompile`]: two runs observing the same id are
    /// guaranteed to have executed the same micro-op streams, which is
    /// what keys the machine's steady-state memo. Clones share the id
    /// (a clone is the same immutable artifact).
    id: u64,
    geom: Geometry,
    hw: HwConfig,
    ua: MicroArch,
    /// All workers' micro-ops, concatenated.
    ops: Vec<MicroOp>,
    /// Per-worker `(start, end)` range into `ops`; `None` = no stream.
    ranges: Vec<Option<(u32, u32)>>,
    /// True when the program is *epoch-congruent*: no poisoned ops,
    /// every stream-bearing worker has the same global-barrier count,
    /// and within each tile every PE stream has the same tile-barrier
    /// count per global-barrier segment. Congruent programs under a
    /// private L2 are eligible for epoch-parallel execution.
    parallel_ok: bool,
    lint: Option<LintStatus>,
    /// The static epoch-dependence verdict (see [`crate::analyze`]),
    /// attached next to the lint verdict: by [`ProgramBuilder::finish`]
    /// from its incrementally maintained sets, and by
    /// [`Program::recompile`] via the post-hoc oracle.
    analysis: Option<Analysis>,
    /// The data races of a checked build; `None` for every other
    /// program (see [`ProgramBuilder::bind_regions`]).
    races: Option<Vec<Race>>,
}

impl Program {
    /// Compiles per-worker op streams (pairs of global worker id and op
    /// slice) into a program for the given machine configuration.
    ///
    /// # Panics
    ///
    /// Panics if a worker id is out of range for `geom`, or a worker is
    /// given two streams.
    pub fn compile<'a, I>(geom: Geometry, hw: HwConfig, ua: &MicroArch, streams: I) -> Self
    where
        I: IntoIterator<Item = (usize, &'a [Op])>,
    {
        let mut p = Program {
            id: 0,
            geom,
            hw,
            ua: ua.clone(),
            ops: Vec::new(),
            ranges: Vec::new(),
            parallel_ok: false,
            lint: None,
            races: None,
            analysis: None,
        };
        p.recompile(geom, hw, ua, streams);
        p
    }

    /// Re-lowers new streams into this program's buffers, avoiding
    /// reallocation when a kernel compiles fresh ops every invocation
    /// (masked / frontier-dependent streams). Any attached lint verdict
    /// is discarded.
    ///
    /// # Panics
    ///
    /// Panics if a worker id is out of range for `geom`, or a worker is
    /// given two streams.
    pub fn recompile<'a, I>(&mut self, geom: Geometry, hw: HwConfig, ua: &MicroArch, streams: I)
    where
        I: IntoIterator<Item = (usize, &'a [Op])>,
    {
        self.id = NEXT_PROGRAM_ID.fetch_add(1, Ordering::Relaxed);
        self.geom = geom;
        self.hw = hw;
        if self.ua != *ua {
            self.ua = ua.clone();
        }
        self.ops.clear();
        self.ranges.clear();
        self.ranges.resize(geom.total_workers(), None);
        self.lint = None;
        self.races = None;
        self.analysis = None;

        let ctx = LowerCtx::new(geom, hw, ua);

        let mut poisoned = false;
        // Per stream-bearing worker: tile-barrier count in each
        // global-barrier segment (last entry = tail segment), used for
        // the congruence check below. The global-barrier count is the
        // vector length minus one.
        let mut segments: Vec<(usize, Vec<u32>)> = Vec::new();

        for (worker, ops) in streams {
            assert!(worker < geom.total_workers(), "worker id out of range");
            assert!(self.ranges[worker].is_none(), "worker given two streams");
            let (_, pe) = geom.locate(worker);
            let lo = self.ops.len() as u32;
            let mut segs: Vec<u32> = vec![0];
            for &op in ops {
                let m = match op {
                    Op::Compute(n) => {
                        push_compute(&mut self.ops, lo as usize, n.max(1));
                        continue;
                    }
                    Op::Load(addr) => ctx.mem_access(addr, false, pe),
                    Op::Store(addr) => ctx.mem_access(addr, true, pe),
                    Op::SpmLoad(off) => ctx.spm_access(off, false, pe, &mut poisoned),
                    Op::SpmStore(off) => ctx.spm_access(off, true, pe, &mut poisoned),
                    Op::TileBarrier => {
                        if pe.is_none() {
                            poisoned = true;
                            MicroOp::plain(MicroKind::PoisonLcpBar)
                        } else {
                            *segs.last_mut().expect("segment vector non-empty") += 1;
                            MicroOp::plain(MicroKind::TileBarrier)
                        }
                    }
                    Op::GlobalBarrier => {
                        segs.push(0);
                        MicroOp::plain(MicroKind::GlobalBarrier)
                    }
                };
                self.ops.push(m);
            }
            let hi = self.ops.len() as u32;
            self.ranges[worker] = Some((lo, hi));
            segments.push((worker, segs));
        }

        self.parallel_ok =
            !poisoned && congruent(geom, segments.iter().map(|(w, s)| (*w, s.as_slice())));
        self.analysis = Some(crate::analyze::analyze(self));
    }

    /// Attaches a verifier verdict ([`verify::lint`] diagnostics) to the
    /// program. A program carrying error-severity diagnostics is
    /// rejected by [`crate::Machine::run_program`] with
    /// [`SimError::Rejected`] — the same contract as
    /// [`crate::Machine::run_verified`], but the verdict travels with
    /// the cached artifact instead of being recomputed per run.
    pub fn attach_lint(&mut self, diagnostics: Vec<Diagnostic>) {
        let clean = verify::is_clean(&diagnostics);
        self.lint = Some(LintStatus { clean, diagnostics });
    }

    /// The lint verdict, if one was attached: `Some(true)` = clean.
    pub fn lint_clean(&self) -> Option<bool> {
        self.lint.as_ref().map(|l| l.clean)
    }

    /// The attached lint diagnostics (warnings included), if a verdict
    /// was attached. Used by the differential suites to prove the
    /// streaming builder and the batch `lint` pass agree finding for
    /// finding.
    pub fn lint_diagnostics(&self) -> Option<&[Diagnostic]> {
        self.lint.as_ref().map(|l| l.diagnostics.as_slice())
    }

    /// The static epoch-dependence verdict attached to this program,
    /// if one was computed (see [`crate::analyze`]). [`Program::compile`],
    /// [`Program::recompile`] and [`ProgramBuilder::finish`] all attach
    /// one; a `None` is treated as all-[`crate::analyze::ParCommit::Check`]
    /// by the machine.
    pub fn analysis(&self) -> Option<&Analysis> {
        self.analysis.as_ref()
    }

    /// The data races of a checked build ([`ProgramBuilder::bind_regions`]),
    /// sorted by (epoch, site): equal to [`verify::detect_races`] over
    /// the trace of the same streams, whatever the schedule. `None` for
    /// unchecked builds and for compiled programs.
    pub fn races(&self) -> Option<&[Race]> {
        self.races.as_deref()
    }

    /// Diagnostics that reject this program, if the attached lint found
    /// error-severity findings.
    pub(crate) fn rejecting_diagnostics(&self) -> Option<&[Diagnostic]> {
        match &self.lint {
            Some(l) if !l.clean => Some(&l.diagnostics),
            _ => None,
        }
    }

    /// Process-unique identity of the compiled streams (see the field
    /// docs); refreshed by every [`Program::recompile`].
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Geometry the program was compiled for.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// Hardware configuration the program was compiled for.
    pub fn hw(&self) -> HwConfig {
        self.hw
    }

    /// Microarchitecture the program was compiled for.
    pub(crate) fn uarch(&self) -> &MicroArch {
        &self.ua
    }

    /// True if the program is epoch-congruent (see the type docs); a
    /// prerequisite for epoch-parallel execution.
    pub fn parallel_ok(&self) -> bool {
        self.parallel_ok
    }

    /// Total micro-ops across all workers. This counts micro-ops after
    /// compute folding, not source ops: most compute bursts ride on the
    /// micro-op before them, so a program is usually shorter than the
    /// op streams it was built from.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no worker has any ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    pub(crate) fn micro_ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Per-worker `(start, end)` ranges into the micro-op array
    /// (`None` = worker has no stream), for [`crate::analyze`]'s
    /// post-hoc reconstruction.
    pub(crate) fn worker_ranges(&self) -> &[Option<(u32, u32)>] {
        &self.ranges
    }

    /// Builds the interpreter lane per stream-bearing worker, in
    /// ascending worker order (the order is load-bearing: the lane
    /// index is the scheduler tie-break key, and ascending worker order
    /// makes it match [`crate::Machine::run`]'s worker-id tie-break).
    pub(crate) fn lanes(&self, start: u64) -> Vec<Lane> {
        self.ranges
            .iter()
            .enumerate()
            .filter_map(|(w, r)| {
                r.map(|(lo, hi)| {
                    let (tile, pe) = self.geom.locate(w);
                    Lane {
                        worker: w as u32,
                        tile: tile as u32,
                        lcp: pe.is_none(),
                        pos: lo,
                        end: hi,
                        cycle: start,
                        state: LaneState::Running,
                    }
                })
            })
            .collect()
    }
}

/// Checks epoch congruence: equal global-barrier counts across all
/// stream-bearing workers, and per tile, identical per-segment
/// tile-barrier counts across its PE streams. Takes the segment vectors
/// as a re-iterable view so both [`Program::recompile`] (owned vectors)
/// and [`ProgramBuilder`] (flat arena) can share it.
pub(crate) fn congruent<'a, I>(geom: Geometry, segments: I) -> bool
where
    I: Iterator<Item = (usize, &'a [u32])> + Clone,
{
    let mut gb: Option<usize> = None;
    for (_, segs) in segments.clone() {
        let count = segs.len() - 1;
        if *gb.get_or_insert(count) != count {
            return false;
        }
    }
    for tile in 0..geom.tiles() {
        let mut proto: Option<&[u32]> = None;
        for (w, segs) in segments.clone() {
            let (t, pe) = geom.locate(w);
            if t != tile || pe.is_none() {
                continue;
            }
            match proto {
                None => proto = Some(segs),
                Some(p) if p == segs => {}
                Some(_) => return false,
            }
        }
    }
    true
}

/// Compile-time lowering context for one `(Geometry, HwConfig,
/// MicroArch)` target: everything the per-op Op→[`MicroOp`] translation
/// depends on, hoisted out of the loop. [`Program::recompile`] (batch)
/// and [`ProgramBuilder`] (streaming) share it, so the two lowering
/// paths cannot drift.
#[derive(Debug, Clone)]
struct LowerCtx {
    line_div: FastDiv,
    word_div: FastDiv,
    l1_div: FastDiv,
    spm_div: FastDiv,
    l1: L1Mode,
    has_spm: bool,
    shared_l2: bool,
}

impl LowerCtx {
    fn new(geom: Geometry, hw: HwConfig, ua: &MicroArch) -> Self {
        let b = geom.pes_per_tile();
        // SCS needs at least one cache bank *and* one SPM bank per tile;
        // on a <2-PE tile there is no legal split. Fall back to an
        // all-cache split so construction still succeeds — the lint
        // rejects such a program as UnsupportedConfig before it can run.
        let l1_banks = if hw == HwConfig::Scs && b < 2 {
            b
        } else {
            ua.l1_cache_banks(b, hw.l1())
        };
        LowerCtx {
            line_div: FastDiv::new(ua.line_bytes as u64),
            word_div: FastDiv::new(ua.word_bytes as u64),
            l1_div: FastDiv::new(l1_banks as u64),
            spm_div: FastDiv::new((b - l1_banks) as u64),
            l1: hw.l1(),
            has_spm: matches!(hw.l1(), L1Mode::SharedCacheSpm | L1Mode::PrivateSpm),
            shared_l2: hw.l2() == L2Mode::SharedCache,
        }
    }

    /// Lowers a `Load`/`Store` of `addr` issued by `pe` (`None` = LCP).
    ///
    /// Kinds whose execution path does not consume `a` (every private
    /// and direct route; see the `ExecCtx` dispatch) carry the *word*
    /// index there instead, so [`crate::analyze`] can reason at word
    /// granularity without a second lowering pass. The shared-L1 kinds
    /// keep the bank-local line in `a` (execution needs it); shared-L2
    /// analysis is line-granular anyway.
    #[inline]
    fn mem_access(&self, addr: Addr, is_store: bool, pe: Option<usize>) -> MicroOp {
        let line = self.line_div.div(addr);
        let word = self.word_div.div(addr);
        match (pe, self.l1) {
            (None, _) => MicroOp::new(
                match (self.shared_l2, is_store) {
                    (true, false) => MicroKind::SharedDirLoad,
                    (true, true) => MicroKind::SharedDirStore,
                    (false, false) => MicroKind::DirLcpLoad,
                    (false, true) => MicroKind::DirLcpStore,
                },
                word,
                line,
                0,
            ),
            (Some(_), L1Mode::SharedCache | L1Mode::SharedCacheSpm) => MicroOp::new(
                if is_store {
                    MicroKind::SharedStore
                } else {
                    MicroKind::SharedLoad
                },
                self.l1_div.div(line),
                line,
                self.l1_div.rem(line) as u16,
            ),
            (Some(pe), L1Mode::PrivateCache) => MicroOp::new(
                if is_store {
                    MicroKind::PrivStore
                } else {
                    MicroKind::PrivLoad
                },
                word,
                line,
                pe as u16,
            ),
            (Some(pe), L1Mode::PrivateSpm) => MicroOp::new(
                if is_store {
                    MicroKind::DirPeStore
                } else {
                    MicroKind::DirPeLoad
                },
                word,
                line,
                pe as u16,
            ),
        }
    }

    /// Lowers an `SpmLoad`/`SpmStore` of `off` issued by `pe`
    /// (`None` = LCP); loads and stores time identically, so one kind
    /// covers both, with the direction recorded in `a` and the word
    /// index in `b` for [`crate::analyze`] (execution reads neither).
    /// Sets `poisoned` when the op can never execute.
    #[inline]
    fn spm_access(
        &self,
        off: u32,
        is_store: bool,
        pe: Option<usize>,
        poisoned: &mut bool,
    ) -> MicroOp {
        if !self.has_spm {
            *poisoned = true;
            MicroOp::plain(MicroKind::PoisonSpm)
        } else if pe.is_none() {
            *poisoned = true;
            MicroOp::plain(MicroKind::PoisonLcpSpm)
        } else if self.l1 == L1Mode::SharedCacheSpm {
            let word = self.word_div.div(off as u64);
            MicroOp::new(
                MicroKind::SpmShared,
                is_store as u64,
                word,
                self.spm_div.rem(word) as u16,
            )
        } else {
            MicroOp::new(
                MicroKind::SpmPrivate,
                is_store as u64,
                self.word_div.div(off as u64),
                0,
            )
        }
    }
}

/// First index at which the barrier projections of two segment vectors
/// diverge — the `barrier_index` [`verify::lint`] reports for a
/// [`LintKind::BarrierMismatch`]. A segment vector `[s0, s1, ..]`
/// projects to `T^s0 G T^s1 G ...` (no trailing `G`); `lint` zips the
/// two projections and takes the first differing position, falling back
/// to the shorter projection's length.
fn barrier_divergence(r: &[u32], s: &[u32]) -> usize {
    let mut idx = 0usize;
    for i in 0..r.len().min(s.len()) {
        let (a, b) = (r[i], s[i]);
        idx += a.min(b) as usize;
        if a != b {
            return idx;
        }
        if i + 1 < r.len() && i + 1 < s.len() {
            idx += 1; // both projections continue with a G separator
        } else {
            return idx; // one projection ends here; zip is exhausted
        }
    }
    idx
}

/// Streaming, verifying program builder: the single-pass fusion of the
/// kernel → `Op` buffer → [`Program::compile`] → [`verify::lint`]
/// pipeline. Kernels open one worker stream at a time
/// ([`ProgramBuilder::begin_pe`] / [`ProgramBuilder::begin_lcp`]) and
/// append ops through the emission verbs; each op is lowered to a
/// pre-decoded micro-op on append — cache lines, bank routing, SPM
/// offsets and compute-cost clamping resolved exactly as
/// [`Program::recompile`] would — while barrier-epoch congruence and
/// the [`verify::lint`] checks run online. [`ProgramBuilder::finish`] therefore yields a
/// [`Program`] with the lint verdict already attached, without ever
/// materializing an [`Op`] stream.
///
/// The builder owns its [`Program`] and is reused across invocations:
/// [`ProgramBuilder::begin`] is a `recompile`-style in-place reset, so
/// steady-state emission allocates nothing beyond buffer growth.
///
/// Equivalence with the two-pass path is pinned by unit tests below and
/// by the differential suites in `transmuter/tests` and the `cosparse`
/// crate: an unchecked build's verdict equals [`verify::lint`] called
/// with `regions: None`.
///
/// # Checked builds
///
/// [`ProgramBuilder::bind_regions`] makes the current build a *checked
/// build*, which adds the two checks that need more than one op at a
/// time:
///
/// * every `load`/`store` outside the bound [`RegionMap`] draws a
///   [`LintKind::UnmappedAddress`] error, so the verdict equals
///   [`verify::lint`] called with `Some(regions)`;
/// * every access is recorded with its worker and barrier counts, and
///   [`ProgramBuilder::finish`] attaches the data races among them
///   ([`Program::races`]). Whether two accesses race depends only on
///   program-order facts (same word, same global epoch, not ordered by a
///   tile barrier), so this static result equals
///   [`verify::detect_races`] over the trace of any run of the program.
///
/// Unchecked builds pay one predictable branch per access for all of
/// this, shared with the analysis gate.
#[derive(Debug)]
pub struct ProgramBuilder {
    prog: Program,
    lower: LowerCtx,
    /// Word size in bytes, for the SPM-capacity lint.
    word: u64,
    /// SPM bytes one PE's `spm_load`/`spm_store` offsets may address.
    spm_capacity: usize,
    /// SCS on a <2-PE tile: the config is unrealisable, per-op lints
    /// are meaningless, and [`ProgramBuilder::finish`] attaches only
    /// [`LintKind::UnsupportedConfig`] — exactly as [`verify::lint`]
    /// short-circuits.
    unsupported: bool,
    poisoned: bool,
    /// Tile-barrier counts per global-barrier segment, all workers
    /// concatenated in one arena; the open worker's segments are the
    /// live tail.
    seg_data: Vec<u32>,
    /// Per sealed worker: `(worker, start, end)` into `seg_data`, in
    /// emission order.
    seg_index: Vec<(usize, u32, u32)>,
    /// Per-op lint findings in emission order; sorted into
    /// worker-ascending report order at [`ProgramBuilder::finish`].
    diags: Vec<Diagnostic>,
    /// Access records for [`crate::analyze`], maintained on append (the
    /// incremental half of the analysis; [`ProgramBuilder::finish`]
    /// runs the shared derivation over it).
    arena: Vec<analyze::Acc>,
    /// When false, the arena is not maintained and [`finish`] attaches
    /// no [`Analysis`] — the opt-out for hot one-shot builds
    /// ([`ProgramBuilder::set_analysis`]).
    ///
    /// [`finish`]: ProgramBuilder::finish
    /// [`Analysis`]: crate::Analysis
    analysis_enabled: bool,
    /// True for a checked build ([`ProgramBuilder::bind_regions`]);
    /// cleared by [`ProgramBuilder::begin`].
    checked: bool,
    /// `analysis_enabled || checked`: the one per-access gate.
    tracking: bool,
    /// The address map a checked build lints accesses against.
    regions: RegionMap,
    /// A checked build's race records, in emission order.
    race_accs: Vec<RaceAccess>,
    cur_worker: usize,
    cur_pe: Option<usize>,
    cur_tile: u16,
    /// Global barriers emitted so far on the open worker's stream = the
    /// epoch index its next op belongs to.
    cur_epoch: u32,
    /// Tile barriers emitted so far on the open worker's stream.
    cur_tile_bars: u32,
    cur_lo: u32,
    /// Compute bursts folded so far on the open worker's stream: the
    /// next op's source position is its micro-op offset plus this.
    cur_folded: u32,
    cur_seg_lo: u32,
    open: bool,
    finished: bool,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        ProgramBuilder::new()
    }
}

impl ProgramBuilder {
    /// Creates an idle builder; call [`ProgramBuilder::begin`] before
    /// emitting.
    pub fn new() -> Self {
        let geom = Geometry::new(1, 1);
        let hw = HwConfig::Sc;
        let ua = MicroArch::paper();
        let lower = LowerCtx::new(geom, hw, &ua);
        let word = ua.word_bytes as u64;
        ProgramBuilder {
            prog: Program {
                id: 0,
                geom,
                hw,
                ua,
                ops: Vec::new(),
                ranges: Vec::new(),
                parallel_ok: false,
                lint: None,
                races: None,
                analysis: None,
            },
            lower,
            word,
            spm_capacity: 0,
            unsupported: false,
            poisoned: false,
            seg_data: Vec::new(),
            seg_index: Vec::new(),
            diags: Vec::new(),
            arena: Vec::new(),
            analysis_enabled: true,
            checked: false,
            tracking: true,
            regions: RegionMap::new(),
            race_accs: Vec::new(),
            cur_worker: 0,
            cur_pe: None,
            cur_tile: 0,
            cur_epoch: 0,
            cur_tile_bars: 0,
            cur_lo: 0,
            cur_folded: 0,
            cur_seg_lo: 0,
            open: false,
            // A fresh builder holds no emission; require begin() first.
            finished: true,
        }
    }

    /// Resets the builder in place for a new build against
    /// `(geom, hw, ua)`, reusing every internal buffer (the streaming
    /// twin of [`Program::recompile`]). The owned program gets a fresh
    /// identity; any attached lint verdict is discarded, and the build
    /// is unchecked until [`ProgramBuilder::bind_regions`].
    pub fn begin(&mut self, geom: Geometry, hw: HwConfig, ua: &MicroArch) {
        self.prog.id = NEXT_PROGRAM_ID.fetch_add(1, Ordering::Relaxed);
        self.prog.geom = geom;
        self.prog.hw = hw;
        if self.prog.ua != *ua {
            self.prog.ua = ua.clone();
        }
        self.prog.ops.clear();
        self.prog.ranges.clear();
        self.prog.ranges.resize(geom.total_workers(), None);
        self.prog.parallel_ok = false;
        self.prog.lint = None;
        self.prog.races = None;
        self.checked = false;
        self.tracking = self.analysis_enabled;
        self.race_accs.clear();
        self.unsupported = hw == HwConfig::Scs && geom.pes_per_tile() < 2;
        self.lower = LowerCtx::new(geom, hw, ua);
        self.word = ua.word_bytes as u64;
        self.spm_capacity = if self.unsupported {
            0
        } else {
            match hw.l1() {
                L1Mode::SharedCacheSpm => ua.spm_bytes_per_tile(geom.pes_per_tile(), hw.l1()),
                L1Mode::PrivateSpm => ua.spm_bytes_per_pe(hw.l1()),
                _ => 0,
            }
        };
        self.poisoned = false;
        self.seg_data.clear();
        self.seg_index.clear();
        self.diags.clear();
        self.arena.clear();
        self.open = false;
        self.finished = false;
    }

    /// Enables or disables the epoch-dependence analysis
    /// ([`crate::analyze`]) for subsequent builds. On by default.
    ///
    /// Disabled builds skip the incremental access arena and
    /// [`ProgramBuilder::finish`] attaches no verdict: the machine then
    /// keeps the conservative dynamic path (shadow-HBM replay, no
    /// shared-L2 epoch parallelism) for that program. The analysis
    /// sorts every memory access the program makes, which is a real
    /// host-time cost for large programs — callers building one-shot
    /// programs executed exactly once (e.g. per-iteration scratch
    /// builds) gain nothing from the verdict and should opt out. The
    /// setting is sticky across [`ProgramBuilder::begin`].
    pub fn set_analysis(&mut self, enabled: bool) {
        self.analysis_enabled = enabled;
        self.tracking = enabled || self.checked;
    }

    /// Makes the current build a checked build against `regions` (see
    /// the type docs): accesses outside the map are lint errors, and
    /// [`ProgramBuilder::finish`] attaches the build's data races. The
    /// binding lasts for this build only; [`ProgramBuilder::begin`]
    /// clears it.
    ///
    /// # Panics
    ///
    /// Panics unless called between [`ProgramBuilder::begin`] and the
    /// first `begin_pe`/`begin_lcp`.
    pub fn bind_regions(&mut self, regions: &RegionMap) {
        assert!(
            !self.finished && self.seg_index.is_empty() && !self.open,
            "bind_regions() must follow begin() before any stream opens"
        );
        self.regions.clone_from(regions);
        self.checked = true;
        self.tracking = true;
    }

    /// Opens PE `(tile, pe)`'s stream; emission verbs apply to it until
    /// the next `begin_*` or [`ProgramBuilder::finish`]. A worker with a
    /// stream — even an empty one — takes part in barriers and
    /// congruence, exactly like an empty `Op` buffer.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range, the worker already has a
    /// stream, or the builder is finished (call
    /// [`ProgramBuilder::begin`] first).
    pub fn begin_pe(&mut self, tile: usize, pe: usize) {
        let worker = self.prog.geom.pe_id(tile, pe);
        self.open_worker(worker, Some(pe));
    }

    /// Opens tile `tile`'s LCP stream (see [`ProgramBuilder::begin_pe`]).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ProgramBuilder::begin_pe`].
    pub fn begin_lcp(&mut self, tile: usize) {
        let worker = self.prog.geom.lcp_id(tile);
        self.open_worker(worker, None);
    }

    fn open_worker(&mut self, worker: usize, pe: Option<usize>) {
        assert!(
            !self.finished,
            "builder already finished; call begin() to start a new build"
        );
        self.seal();
        assert!(
            worker < self.prog.geom.total_workers(),
            "worker id out of range"
        );
        assert!(
            self.prog.ranges[worker].is_none(),
            "worker given two streams"
        );
        self.cur_worker = worker;
        self.cur_pe = pe;
        self.cur_tile = self.prog.geom.locate(worker).0 as u16;
        self.cur_epoch = 0;
        self.cur_tile_bars = 0;
        self.cur_lo = self.prog.ops.len() as u32;
        self.cur_folded = 0;
        self.cur_seg_lo = self.seg_data.len() as u32;
        self.seg_data.push(0);
        self.open = true;
    }

    /// Seals the open worker: records its op range and segment vector.
    fn seal(&mut self) {
        if self.open {
            let hi = self.prog.ops.len() as u32;
            self.prog.ranges[self.cur_worker] = Some((self.cur_lo, hi));
            self.seg_index
                .push((self.cur_worker, self.cur_seg_lo, self.seg_data.len() as u32));
            self.open = false;
        }
    }

    /// Micro-ops the builder holds room for without reallocating. The
    /// buffer survives [`ProgramBuilder::begin`], so a reused builder's
    /// capacity only grows.
    pub fn op_capacity(&self) -> usize {
        self.prog.ops.capacity()
    }

    /// Capacity hint: reserves room for `additional` more micro-ops.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.prog.ops.reserve(additional);
    }

    /// Emits a compute burst of `cycles` (clamped to ≥ 1 like the
    /// machine; a zero burst draws the `ZeroCycleCompute` lint warning).
    /// The burst usually folds into the micro-op before it (see
    /// [`Program::len`]).
    #[inline]
    pub fn compute(&mut self, cycles: u32) {
        debug_assert!(self.open, "no worker stream open");
        if cycles == 0 && !self.unsupported {
            self.diag_at_cursor(Severity::Warning, LintKind::ZeroCycleCompute);
        }
        if push_compute(&mut self.prog.ops, self.cur_lo as usize, cycles.max(1)) {
            self.cur_folded += 1;
        }
    }

    /// Source-op position of the next op on the open worker's stream.
    #[inline]
    fn cursor(&self) -> u32 {
        self.prog.ops.len() as u32 - self.cur_lo + self.cur_folded
    }

    /// Emits a global-memory load of `addr`.
    #[inline]
    pub fn load(&mut self, addr: Addr) {
        debug_assert!(self.open, "no worker stream open");
        let m = self.lower.mem_access(addr, false, self.cur_pe);
        if self.tracking {
            self.track_mem(&m, addr, false);
        }
        self.prog.ops.push(m);
    }

    /// Emits a global-memory store to `addr`.
    #[inline]
    pub fn store(&mut self, addr: Addr) {
        debug_assert!(self.open, "no worker stream open");
        let m = self.lower.mem_access(addr, true, self.cur_pe);
        if self.tracking {
            self.track_mem(&m, addr, true);
        }
        self.prog.ops.push(m);
    }

    /// Records a global access about to be appended: the analysis arena
    /// entry and, in a checked build, the region check and race record.
    #[inline]
    fn track_mem(&mut self, m: &MicroOp, addr: Addr, store: bool) {
        self.record(m);
        if self.checked {
            if !self.regions.contains(addr, self.word) {
                self.diag_at_cursor(Severity::Error, LintKind::UnmappedAddress { addr });
            }
            self.record_race(RaceAccess::global(addr, self.word), store);
        }
    }

    /// Maintains the dependence-analysis arena on append (the
    /// incremental half of [`crate::analyze`]): records the access the
    /// freshly lowered micro-op performs, tagged with the open worker's
    /// identity, current epoch and op position.
    #[inline]
    fn record(&mut self, m: &MicroOp) {
        if !self.analysis_enabled {
            return;
        }
        let pc = self.cursor();
        if let Some(acc) =
            analyze::acc_of(m, self.cur_worker as u32, self.cur_tile, self.cur_epoch, pc)
        {
            self.arena.push(acc);
        }
    }

    /// Appends a checked build's race record for an access of the open
    /// worker to `site`.
    fn record_race(&mut self, site: verify::RaceSite, store: bool) {
        self.race_accs.push(RaceAccess {
            site,
            epoch: self.cur_epoch,
            worker: self.cur_worker as u32,
            tile_bars: self.cur_tile_bars,
            store,
            tile: self.cur_tile as u32,
            pe: self.cur_pe.is_some(),
        });
    }

    /// Emits a scratchpad load of byte offset `offset`.
    #[inline]
    pub fn spm_load(&mut self, offset: u32) {
        self.spm_access(offset, false);
    }

    /// Emits a scratchpad store to byte offset `offset`.
    #[inline]
    pub fn spm_store(&mut self, offset: u32) {
        self.spm_access(offset, true);
    }

    /// SPM loads and stores lower and lint identically (one micro-kind
    /// covers both), hence a single internal verb.
    #[inline]
    fn spm_access(&mut self, offset: u32, is_store: bool) {
        debug_assert!(self.open, "no worker stream open");
        if !self.unsupported {
            if !self.lower.has_spm {
                self.diag_at_cursor(
                    Severity::Error,
                    LintKind::SpmUnavailable {
                        config: self.prog.hw,
                    },
                );
            } else if self.cur_pe.is_none() {
                self.diag_at_cursor(Severity::Error, LintKind::LcpSpmAccess);
            } else if offset as u64 + self.word > self.spm_capacity as u64 {
                self.diag_at_cursor(
                    Severity::Error,
                    LintKind::SpmOffsetOutOfRange {
                        offset,
                        capacity: self.spm_capacity,
                    },
                );
            }
        }
        let m = self
            .lower
            .spm_access(offset, is_store, self.cur_pe, &mut self.poisoned);
        if self.tracking {
            self.record(&m);
            // Only a shared SPM can race; LCPs have no SPM port.
            if self.checked && self.lower.l1 == L1Mode::SharedCacheSpm && self.cur_pe.is_some() {
                let site = RaceAccess::shared_spm(self.cur_tile as usize, offset, self.word);
                self.record_race(site, is_store);
            }
        }
        self.prog.ops.push(m);
    }

    /// Emits a tile barrier (poisoned, and an error lint, on an LCP).
    pub fn tile_barrier(&mut self) {
        debug_assert!(self.open, "no worker stream open");
        if self.cur_pe.is_none() {
            if !self.unsupported {
                self.diag_at_cursor(Severity::Error, LintKind::LcpTileBarrier);
            }
            self.poisoned = true;
            self.prog.ops.push(MicroOp::plain(MicroKind::PoisonLcpBar));
        } else {
            *self.seg_data.last_mut().expect("open worker has a segment") += 1;
            self.cur_tile_bars += 1;
            self.prog.ops.push(MicroOp::plain(MicroKind::TileBarrier));
        }
    }

    /// Emits a global barrier (epoch boundary).
    pub fn global_barrier(&mut self) {
        debug_assert!(self.open, "no worker stream open");
        self.seg_data.push(0);
        self.cur_epoch += 1;
        self.prog.ops.push(MicroOp::plain(MicroKind::GlobalBarrier));
    }

    #[cold]
    fn diag_at_cursor(&mut self, severity: Severity, kind: LintKind) {
        self.diags.push(Diagnostic {
            worker: self.cur_worker,
            position: Some(self.cursor() as usize),
            severity,
            kind,
        });
    }

    /// Seals the build: resolves epoch congruence, assembles the lint
    /// verdict in [`verify::lint`]'s report order, attaches it (and, for
    /// a checked build, the races), and returns the finished program
    /// (also reachable afterwards via [`ProgramBuilder::program`]).
    ///
    /// # Panics
    ///
    /// Panics if called twice without an intervening
    /// [`ProgramBuilder::begin`].
    pub fn finish(&mut self) -> &Program {
        assert!(
            !self.finished,
            "finish() called twice; call begin() to start a new build"
        );
        self.seal();
        self.finished = true;
        let seg_data = &self.seg_data;
        let congr = congruent(
            self.prog.geom,
            self.seg_index
                .iter()
                .map(|&(w, lo, hi)| (w, &seg_data[lo as usize..hi as usize])),
        );
        self.prog.parallel_ok = !self.poisoned && congr;

        // Derive the dependence verdict from the incrementally
        // maintained arena — same kernel as the post-hoc oracle
        // `analyze::analyze`, so the two paths agree by construction.
        self.prog.analysis = if self.analysis_enabled {
            let n_epochs = self
                .seg_index
                .first()
                .map(|&(_, lo, hi)| hi - lo)
                .unwrap_or(0);
            let first_worker = self
                .seg_index
                .iter()
                .map(|&(w, _, _)| w as u32)
                .min()
                .unwrap_or(0);
            let actx = analyze::Ctx {
                geom: self.prog.geom,
                hw: self.prog.hw,
                nch: self.prog.ua.hbm_channels as u64,
                word_bytes: self.prog.ua.word_bytes as u64,
                line_bytes: self.prog.ua.line_bytes as u64,
                applicable: !self.poisoned && congr && !self.unsupported,
                n_epochs,
                first_worker,
            };
            Some(analyze::derive(&actx, &mut self.arena))
        } else {
            None
        };

        let mut diags = std::mem::take(&mut self.diags);
        if self.unsupported {
            diags.clear();
            diags.push(Diagnostic {
                worker: 0,
                position: None,
                severity: Severity::Error,
                kind: LintKind::UnsupportedConfig {
                    config: self.prog.hw,
                },
            });
        } else {
            // Per-op findings were pushed in emission order; the batch
            // lint reports workers in ascending id order (positions
            // ascending within a worker, which emission order already
            // guarantees) — a stable sort restores exactly that.
            diags.sort_by_key(|d| d.worker);
            self.push_congruence_diags(&mut diags);
        }
        self.prog.attach_lint(diags);
        if self.checked {
            self.prog.races = Some(verify::find_races(&mut self.race_accs));
        }
        &self.prog
    }

    /// Appends the barrier-congruence findings in [`verify::lint`]'s
    /// order: per-tile mismatches (tiles ascending, PEs ascending, the
    /// first stream-bearing PE as reference), then global-barrier
    /// mismatches over every stream-bearing worker in ascending id
    /// order. Segment vectors are compared instead of materialized
    /// barrier projections — the mapping is bijective, so equality and
    /// first-divergence agree with the batch pass.
    fn push_congruence_diags(&self, diags: &mut Vec<Diagnostic>) {
        let geom = self.prog.geom;
        let mut by_worker: Vec<Option<&[u32]>> = vec![None; geom.total_workers()];
        for &(w, lo, hi) in &self.seg_index {
            by_worker[w] = Some(&self.seg_data[lo as usize..hi as usize]);
        }
        for tile in 0..geom.tiles() {
            let mut reference: Option<(usize, &[u32])> = None;
            for pe in 0..geom.pes_per_tile() {
                let w = geom.pe_id(tile, pe);
                let Some(segs) = by_worker[w] else { continue };
                match reference {
                    None => reference = Some((w, segs)),
                    Some((rw, rsegs)) => {
                        if segs != rsegs {
                            diags.push(Diagnostic {
                                worker: w,
                                position: None,
                                severity: Severity::Error,
                                kind: LintKind::BarrierMismatch {
                                    tile,
                                    reference: rw,
                                    barrier_index: barrier_divergence(rsegs, segs),
                                },
                            });
                        }
                    }
                }
            }
        }
        let mut reference: Option<(usize, usize)> = None;
        for (w, segs) in by_worker.iter().enumerate() {
            let Some(segs) = segs else { continue };
            let globals = segs.len() - 1;
            match reference {
                None => reference = Some((w, globals)),
                Some((rw, expected)) => {
                    if globals != expected {
                        diags.push(Diagnostic {
                            worker: w,
                            position: None,
                            severity: Severity::Error,
                            kind: LintKind::GlobalBarrierMismatch {
                                reference: rw,
                                expected,
                                found: globals,
                            },
                        });
                    }
                }
            }
        }
    }

    /// The finished program, borrowed from the builder (clone it to
    /// cache beyond the next [`ProgramBuilder::begin`]).
    ///
    /// # Panics
    ///
    /// Panics if the current build was never finished.
    pub fn program(&self) -> &Program {
        assert!(self.finished, "program() before finish()");
        &self.prog
    }

    /// Opt-in barrier elision: removes every global barrier the
    /// attached [`Analysis`] proved redundant, group-safely — eliding
    /// barriers `g..h` merges epochs into one unordered group, so a
    /// barrier only goes when **no** epoch already merged behind it
    /// depends on the epoch it releases. The elided program is a
    /// distinct artifact (fresh identity, so the machine's steady-state
    /// memo cannot replay the un-elided timing) with its analysis
    /// re-derived and lint positions re-anchored. Returns the number of
    /// barriers removed. Off by default: nothing calls this unless a
    /// kernel explicitly opts in after [`ProgramBuilder::finish`].
    ///
    /// # Panics
    ///
    /// Panics if the current build was never finished.
    pub fn elide_proven_barriers(&mut self) -> usize {
        assert!(self.finished, "elide_proven_barriers() before finish()");
        let Some(analysis) = self.prog.analysis.as_ref() else {
            return 0;
        };
        if !analysis.congruent() || analysis.elision_candidates().is_empty() {
            return 0;
        }
        let n_barriers = analysis.epochs().len().saturating_sub(1);
        let edges: Vec<(u32, u32)> = analysis.conflict_edges().to_vec();
        let has_edge = |e: u32, f: u32| edges.binary_search(&(e, f)).is_ok();
        let mut elide = vec![false; n_barriers];
        let mut merged_start = 0u32;
        for g in 0..n_barriers as u32 {
            if (merged_start..=g).all(|e| !has_edge(e, g + 1)) {
                elide[g as usize] = true;
            } else {
                merged_start = g + 1;
            }
        }
        let count = elide.iter().filter(|&&e| e).count();
        if count == 0 {
            return 0;
        }

        // Rebuild the op array, dropping each worker's copy of every
        // elided barrier ordinal while preserving the emission layout.
        let old_ops = std::mem::take(&mut self.prog.ops);
        let mut order: Vec<(usize, u32, u32)> = self
            .prog
            .ranges
            .iter()
            .enumerate()
            .filter_map(|(w, r)| r.map(|(lo, hi)| (w, lo, hi)))
            .collect();
        order.sort_unstable_by_key(|&(_, lo, _)| lo);
        let mut new_ops: Vec<MicroOp> = Vec::with_capacity(old_ops.len());
        let mut removed: Vec<(usize, Vec<u32>)> = Vec::with_capacity(order.len());
        for &(w, lo, hi) in &order {
            let new_lo = new_ops.len() as u32;
            let mut ordinal = 0usize;
            // Source-op positions of the removed barriers.
            let mut cut: Vec<u32> = Vec::new();
            let mut pc = 0u32;
            for op in &old_ops[lo as usize..hi as usize] {
                let at = pc;
                pc += op.source_len();
                if op.kind == MicroKind::GlobalBarrier {
                    let g = ordinal;
                    ordinal += 1;
                    if g < elide.len() && elide[g] {
                        cut.push(at);
                        continue;
                    }
                }
                new_ops.push(*op);
            }
            self.prog.ranges[w] = Some((new_lo, new_ops.len() as u32));
            removed.push((w, cut));
        }
        self.prog.ops = new_ops;

        // Re-anchor attached lint positions past the removed ops.
        // Uniform removal keeps the program congruent, so parallel_ok
        // is unaffected.
        if let Some(lint) = self.prog.lint.as_mut() {
            for d in lint.diagnostics.iter_mut() {
                if let Some(pos) = d.position.as_mut() {
                    if let Some((_, cut)) = removed.iter().find(|(w, _)| *w == d.worker) {
                        *pos -= cut.iter().filter(|&&c| (c as usize) < *pos).count();
                    }
                }
            }
        }

        self.prog.id = NEXT_PROGRAM_ID.fetch_add(1, Ordering::Relaxed);
        self.prog.analysis = Some(analyze::analyze(&self.prog));
        count
    }
}

/// Interpreter state for one stream-bearing worker.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lane {
    pub(crate) worker: u32,
    pub(crate) tile: u32,
    pub(crate) lcp: bool,
    pub(crate) pos: u32,
    pub(crate) end: u32,
    pub(crate) cycle: u64,
    pub(crate) state: LaneState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneState {
    Running,
    /// Paused at a global barrier it arrived at on the recorded cycle
    /// (epoch-parallel execution stops here; the driver releases).
    AtGlobal(u64),
    /// Stream exhausted at the recorded cycle.
    Finished(u64),
}

/// Memory-access context the micro-op interpreter runs against: the
/// full [`MemorySystem`] for sequential execution, or a single tile's
/// private banks plus a shadow HBM for epoch-parallel execution.
pub(crate) trait ExecCtx {
    fn stats(&mut self) -> &mut SimStats;
    /// Called before each memory micro-op with its issue point; the
    /// shadow-HBM context uses it to key its call log.
    #[inline]
    fn set_op_ctx(&mut self, _cycle: u64, _worker: u32) {}
    /// Resolves one memory micro-op to its completion cycle.
    fn access(&mut self, op: &MicroOp, tile: usize, cycle: u64) -> u64;
}

impl ExecCtx for MemorySystem {
    #[inline]
    fn stats(&mut self) -> &mut SimStats {
        &mut self.stats
    }

    #[inline]
    fn access(&mut self, op: &MicroOp, tile: usize, cycle: u64) -> u64 {
        match op.kind {
            MicroKind::SharedLoad | MicroKind::SharedStore => {
                let is_store = op.kind == MicroKind::SharedStore;
                self.shared_l1_access(tile, op.bank as usize, op.a, op.b, is_store, cycle)
            }
            MicroKind::SharedDirLoad | MicroKind::SharedDirStore => {
                let is_store = op.kind == MicroKind::SharedDirStore;
                self.shared_direct_access(tile, op.b, is_store, cycle)
            }
            MicroKind::PrivLoad | MicroKind::PrivStore => {
                let is_store = op.kind == MicroKind::PrivStore;
                self.priv_l1(tile, op.bank as usize, op.b, is_store, cycle)
            }
            MicroKind::DirPeLoad | MicroKind::DirPeStore => {
                let is_store = op.kind == MicroKind::DirPeStore;
                self.priv_direct(tile, Some(op.bank as usize), op.b, is_store, cycle)
            }
            MicroKind::DirLcpLoad | MicroKind::DirLcpStore => {
                let is_store = op.kind == MicroKind::DirLcpStore;
                self.priv_direct(tile, None, op.b, is_store, cycle)
            }
            MicroKind::SpmShared => self.spm_shared_access(tile, op.bank as usize, cycle),
            MicroKind::SpmPrivate => cycle + self.uarch().l1_latency,
            _ => unreachable!("non-memory micro-op reached access()"),
        }
    }
}

/// HBM call record for epoch replay (see [`ShadowHbm`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HbmCall {
    /// Issue cycle of the micro-op that triggered the call.
    pub(crate) cycle: u64,
    /// Global worker id of the issuer.
    pub(crate) worker: u32,
    /// Call index within the micro-op (one op can fill, write back and
    /// prefetch).
    pub(crate) seq: u32,
    pub(crate) kind: HbmCallKind,
    pub(crate) line: u64,
    pub(crate) at: u64,
    /// Completion the shadow returned (validated for reads on replay).
    pub(crate) done: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HbmCallKind {
    Read,
    Write,
    Prefetch,
}

/// An [`Hbm`] clone that logs every call. Each tile of an epoch runs
/// against its own shadow (seeded from the epoch-start HBM state);
/// afterwards the logs are merged into the order sequential execution
/// would have issued them — `(op issue cycle, worker, seq)`, which is
/// exactly the event loop's processing order — and replayed against the
/// real stack. If every *read* completion matches, per-tile timing was
/// unaffected by cross-tile channel contention and the epoch commits
/// (write/prefetch completions are discarded by every caller, so their
/// divergence cannot alter timing; the replay still applies them, which
/// also reproduces the sequential read/write counters exactly).
#[derive(Debug)]
pub(crate) struct ShadowHbm {
    inner: Hbm,
    log: Vec<HbmCall>,
    cycle: u64,
    worker: u32,
    seq: u32,
}

impl ShadowHbm {
    pub(crate) fn new(inner: Hbm) -> Self {
        ShadowHbm {
            inner,
            log: Vec::new(),
            cycle: 0,
            worker: 0,
            seq: 0,
        }
    }

    #[inline]
    fn set_op(&mut self, cycle: u64, worker: u32) {
        self.cycle = cycle;
        self.worker = worker;
        self.seq = 0;
    }

    #[inline]
    fn record(&mut self, kind: HbmCallKind, line: u64, at: u64, done: u64) {
        self.log.push(HbmCall {
            cycle: self.cycle,
            worker: self.worker,
            seq: self.seq,
            kind,
            line,
            at,
            done,
        });
        self.seq += 1;
    }

    /// Consumes the shadow into its final HBM state and call log.
    pub(crate) fn into_state_and_log(self) -> (Hbm, Vec<HbmCall>) {
        (self.inner, self.log)
    }
}

impl HbmSink for ShadowHbm {
    #[inline]
    fn read(&mut self, line: u64, cycle: u64) -> u64 {
        let done = self.inner.read(line, cycle);
        self.record(HbmCallKind::Read, line, cycle, done);
        done
    }

    #[inline]
    fn write(&mut self, line: u64, cycle: u64) -> u64 {
        let done = self.inner.write(line, cycle);
        self.record(HbmCallKind::Write, line, cycle, done);
        done
    }

    #[inline]
    fn prefetch(&mut self, line: u64, cycle: u64) -> u64 {
        let done = self.inner.prefetch(line, cycle);
        self.record(HbmCallKind::Prefetch, line, cycle, done);
        done
    }
}

/// One tile's execution context for the epoch-parallel core: the tile's
/// private bank slices, a shadow HBM and a local stats block.
#[derive(Debug)]
pub(crate) struct TileExec<'a> {
    l1: &'a mut [CacheBank],
    l2: &'a mut [CacheBank],
    shadow: ShadowHbm,
    stats: SimStats,
    params: PrivParams,
    spm_latency: u64,
}

impl<'a> TileExec<'a> {
    pub(crate) fn new(
        l1: &'a mut [CacheBank],
        l2: &'a mut [CacheBank],
        hbm: Hbm,
        params: PrivParams,
        spm_latency: u64,
    ) -> Self {
        TileExec {
            l1,
            l2,
            shadow: ShadowHbm::new(hbm),
            stats: SimStats::default(),
            params,
            spm_latency,
        }
    }

    /// Consumes the context into its local stats, HBM call log and the
    /// shadow's final HBM state (merged directly into the real HBM on a
    /// proven replay-free commit).
    pub(crate) fn into_parts(self) -> (SimStats, Vec<HbmCall>, Hbm) {
        let (hbm, log) = self.shadow.into_state_and_log();
        (self.stats, log, hbm)
    }
}

impl ExecCtx for TileExec<'_> {
    #[inline]
    fn stats(&mut self) -> &mut SimStats {
        &mut self.stats
    }

    #[inline]
    fn set_op_ctx(&mut self, cycle: u64, worker: u32) {
        self.shadow.set_op(cycle, worker);
    }

    #[inline]
    fn access(&mut self, op: &MicroOp, _tile: usize, cycle: u64) -> u64 {
        let mut t = PrivTile {
            l1: &mut *self.l1,
            l2: &mut *self.l2,
            hbm: &mut self.shadow,
            stats: &mut self.stats,
        };
        match op.kind {
            MicroKind::PrivLoad | MicroKind::PrivStore => {
                let is_store = op.kind == MicroKind::PrivStore;
                priv_l1_access(
                    &mut t,
                    &self.params,
                    op.bank as usize,
                    op.b,
                    is_store,
                    cycle,
                )
            }
            MicroKind::DirPeLoad | MicroKind::DirPeStore => {
                let is_store = op.kind == MicroKind::DirPeStore;
                priv_direct_access(
                    &mut t,
                    &self.params,
                    Some(op.bank as usize),
                    op.b,
                    is_store,
                    cycle,
                )
            }
            MicroKind::DirLcpLoad | MicroKind::DirLcpStore => {
                let is_store = op.kind == MicroKind::DirLcpStore;
                priv_direct_access(&mut t, &self.params, None, op.b, is_store, cycle)
            }
            MicroKind::SpmPrivate => cycle + self.spm_latency,
            _ => unreachable!("shared-path micro-op in a private-tile context"),
        }
    }
}

/// Executes `lanes` over `prog`'s micro-ops until every lane finishes
/// or (with `stop_at_global`) pauses at a global barrier.
///
/// This is the micro-op twin of [`crate::Machine::run`]'s event loop:
/// same scheduler, same tie-breaks, same inline-continue rule, same
/// stat-update order — cycle counts are bit-for-bit identical.
///
/// `tile_base` is the tile index of `lanes[*].tile`'s smallest value
/// when executing a single tile (`tiles == 1`); sequential execution
/// passes `0` and the full tile count. Lanes must be in ascending
/// global-worker order: the scheduler breaks cycle ties by lane index,
/// which then matches the worker-id tie-break of [`crate::Machine::run`].
pub(crate) fn exec_span<C: ExecCtx>(
    ctx: &mut C,
    prog: &Program,
    lanes: &mut [Lane],
    tile_base: usize,
    tiles: usize,
    stop_at_global: bool,
) -> Result<(), SimError> {
    let ops = prog.micro_ops();
    let mut tile_barriers: Vec<BarrierState> = (0..tiles)
        .map(|t| BarrierState {
            expected: lanes
                .iter()
                .filter(|l| l.tile as usize == tile_base + t && !l.lcp)
                .count(),
            waiting: Vec::new(),
        })
        .collect();
    let mut global_barrier = BarrierState {
        expected: lanes.len(),
        waiting: Vec::new(),
    };

    let start_max = lanes.iter().map(|l| l.cycle).max().unwrap_or(0);
    let mut sched = Sched::new(lanes.len(), start_max);
    for (i, lane) in lanes.iter().enumerate() {
        if lane.state == LaneState::Running {
            sched.push(lane.cycle, i as u32);
        }
    }

    let mut cur = sched.pop();
    'outer: while let Some((mut cycle, li)) = cur {
        let lane = &mut lanes[li as usize];
        let tile = lane.tile as usize;
        loop {
            if lane.pos == lane.end {
                lane.cycle = cycle;
                lane.state = LaneState::Finished(cycle);
                cur = sched.pop();
                continue 'outer;
            }
            let op = &ops[lane.pos as usize];
            lane.pos += 1;
            ctx.stats().ops += op.source_len() as u64;
            let done = match op.kind {
                MicroKind::Compute => {
                    ctx.stats().compute_cycles += op.a;
                    cycle + op.a
                }
                MicroKind::SharedLoad
                | MicroKind::SharedDirLoad
                | MicroKind::PrivLoad
                | MicroKind::DirPeLoad
                | MicroKind::DirLcpLoad => {
                    ctx.stats().loads += 1;
                    ctx.set_op_ctx(cycle, lane.worker);
                    let done = ctx.access(op, tile, cycle).max(cycle + 1);
                    ctx.stats().mem_stall_cycles += (done - cycle).saturating_sub(1);
                    done
                }
                MicroKind::SharedStore
                | MicroKind::SharedDirStore
                | MicroKind::PrivStore
                | MicroKind::DirPeStore
                | MicroKind::DirLcpStore => {
                    ctx.stats().stores += 1;
                    ctx.set_op_ctx(cycle, lane.worker);
                    let done = ctx.access(op, tile, cycle).max(cycle + 1);
                    ctx.stats().mem_stall_cycles += (done - cycle).saturating_sub(1);
                    done
                }
                MicroKind::SpmShared | MicroKind::SpmPrivate => {
                    ctx.stats().spm_accesses += 1;
                    ctx.set_op_ctx(cycle, lane.worker);
                    let done = ctx.access(op, tile, cycle);
                    ctx.stats().mem_stall_cycles += (done - cycle).saturating_sub(1);
                    done
                }
                MicroKind::TileBarrier => {
                    let b = &mut tile_barriers[tile - tile_base];
                    b.waiting.push((li, cycle));
                    if b.waiting.len() == b.expected {
                        release(b, cycle, &mut sched, ctx.stats());
                    }
                    cur = sched.pop();
                    continue 'outer;
                }
                MicroKind::GlobalBarrier => {
                    if stop_at_global {
                        lane.cycle = cycle;
                        lane.state = LaneState::AtGlobal(cycle);
                    } else {
                        let b = &mut global_barrier;
                        b.waiting.push((li, cycle));
                        if b.waiting.len() == b.expected {
                            release(b, cycle, &mut sched, ctx.stats());
                        }
                    }
                    cur = sched.pop();
                    continue 'outer;
                }
                MicroKind::PoisonSpm => {
                    return Err(SimError::SpmUnavailable {
                        config: prog.hw,
                        worker: lane.worker as usize,
                    });
                }
                MicroKind::PoisonLcpSpm => {
                    // Reproduce the memory system's own assertion: the
                    // access is counted, then the access path panics.
                    ctx.stats().spm_accesses += 1;
                    panic!("LCPs have no scratchpad");
                }
                MicroKind::PoisonLcpBar => {
                    return Err(SimError::LcpBarrier { tile });
                }
            };
            // The folded bursts run after the op's stall is counted.
            ctx.stats().compute_cycles += op.post as u64;
            let done = done + op.post as u64;
            match sched.step(done, li) {
                Some(next) => {
                    cur = Some(next);
                    continue 'outer;
                }
                None => cycle = done,
            }
        }
    }

    let mut blocked: Vec<usize> = tile_barriers
        .iter()
        .flat_map(|b| {
            b.waiting
                .iter()
                .map(|&(l, _)| lanes[l as usize].worker as usize)
        })
        .collect();
    blocked.extend(
        global_barrier
            .waiting
            .iter()
            .map(|&(l, _)| lanes[l as usize].worker as usize),
    );
    if !blocked.is_empty() {
        if stop_at_global {
            // Lanes paused at the global barrier are blocked too: the
            // barrier can never complete once a peer is deadlocked.
            blocked.extend(lanes.iter().filter_map(|l| {
                matches!(l.state, LaneState::AtGlobal(_)).then_some(l.worker as usize)
            }));
        }
        blocked.sort_unstable();
        return Err(SimError::BarrierDeadlock { blocked });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::StreamBuilder;

    fn geom() -> Geometry {
        Geometry::new(2, 4)
    }

    fn ua() -> MicroArch {
        MicroArch::paper()
    }

    fn ops_of(builders: Vec<(usize, StreamBuilder)>) -> Vec<(usize, Vec<Op>)> {
        builders
            .into_iter()
            .map(|(w, b)| (w, b.into_stream().collect()))
            .collect()
    }

    fn compile(hw: HwConfig, streams: &[(usize, Vec<Op>)]) -> Program {
        Program::compile(
            geom(),
            hw,
            &ua(),
            streams.iter().map(|(w, v)| (*w, v.as_slice())),
        )
    }

    #[test]
    fn lowers_shared_routing_at_compile_time() {
        let mut b = StreamBuilder::new();
        b.load(0x1000).store(0x1040).compute(0);
        let streams = ops_of(vec![(0, b)]);
        let p = compile(HwConfig::Sc, &streams);
        let ops = p.micro_ops();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].kind, MicroKind::SharedLoad);
        // line = 0x1000 / 64 = 64; 4 L1 banks in SC: bank 0, local 16.
        assert_eq!(ops[0].b, 64);
        assert_eq!(ops[0].bank, 0);
        assert_eq!(ops[0].a, 16);
        assert_eq!(ops[1].kind, MicroKind::SharedStore);
        assert_eq!(ops[1].bank, 1);
        // Compute(0) clamps to 1 at compile time and folds into the
        // store before it.
        assert_eq!((ops[1].post, ops[1].folded), (1, 1));
    }

    #[test]
    fn compute_folds_only_where_the_interpreter_completes_an_op() {
        let mut b = StreamBuilder::new();
        b.compute(3).compute(4).load(0).compute(5).compute(6);
        b.tile_barrier().compute(7).global_barrier().compute(8);
        let streams = ops_of(vec![(0, b)]);
        let p = compile(HwConfig::Sc, &streams);
        let got: Vec<(MicroKind, u64, u32, u8)> = p
            .micro_ops()
            .iter()
            .map(|m| (m.kind, m.a, m.post, m.folded))
            .collect();
        assert_eq!(
            got,
            vec![
                // A stream-leading burst stays a Compute op and carries
                // the next one.
                (MicroKind::Compute, 3, 4, 1),
                (MicroKind::SharedLoad, 0, 11, 2),
                // Barriers never carry a fold.
                (MicroKind::TileBarrier, 0, 0, 0),
                (MicroKind::Compute, 7, 0, 0),
                (MicroKind::GlobalBarrier, 0, 0, 0),
                (MicroKind::Compute, 8, 0, 0),
            ]
        );

        // A full fold count or a `post` sum past u32::MAX starts a new
        // carrier.
        let mut ops = vec![Op::Load(0)];
        ops.extend(std::iter::repeat_n(Op::Compute(1), 256));
        ops.extend([Op::Compute(u32::MAX), Op::Compute(1)]);
        let p = compile(HwConfig::Sc, &[(0, ops)]);
        let got: Vec<(MicroKind, u64, u32, u8)> = p
            .micro_ops()
            .iter()
            .map(|m| (m.kind, m.a, m.post, m.folded))
            .collect();
        assert_eq!(
            got,
            vec![
                (MicroKind::SharedLoad, 0, 255, 255),
                (MicroKind::Compute, 1, u32::MAX, 1),
                (MicroKind::Compute, 1, 0, 0),
            ]
        );
    }

    #[test]
    fn lowers_private_and_lcp_kinds() {
        let mut pe = StreamBuilder::new();
        pe.load(0);
        let mut lcp = StreamBuilder::new();
        lcp.store(0);
        let g = geom();
        let streams = ops_of(vec![(g.pe_id(1, 2), pe), (g.lcp_id(0), lcp)]);
        let p = compile(HwConfig::Pc, &streams);
        let pe_ops = {
            let (lo, hi) = p.ranges[g.pe_id(1, 2)].unwrap();
            &p.micro_ops()[lo as usize..hi as usize]
        };
        assert_eq!(pe_ops[0].kind, MicroKind::PrivLoad);
        assert_eq!(pe_ops[0].bank, 2);
        let lcp_ops = {
            let (lo, hi) = p.ranges[g.lcp_id(0)].unwrap();
            &p.micro_ops()[lo as usize..hi as usize]
        };
        assert_eq!(lcp_ops[0].kind, MicroKind::DirLcpStore);

        let p = compile(HwConfig::Sc, &streams);
        let (lo, _) = p.ranges[g.lcp_id(0)].unwrap();
        assert_eq!(p.micro_ops()[lo as usize].kind, MicroKind::SharedDirStore);
    }

    #[test]
    fn poisons_invalid_ops_instead_of_failing_compile() {
        let mut spm = StreamBuilder::new();
        spm.spm_load(0);
        let mut lcp_bar = StreamBuilder::new();
        lcp_bar.tile_barrier();
        let g = geom();
        let streams = ops_of(vec![(g.pe_id(0, 0), spm), (g.lcp_id(1), lcp_bar)]);
        let p = compile(HwConfig::Pc, &streams);
        assert_eq!(p.micro_ops()[0].kind, MicroKind::PoisonSpm);
        assert_eq!(p.micro_ops()[1].kind, MicroKind::PoisonLcpBar);
        assert!(!p.parallel_ok(), "poisoned programs are not parallel-safe");
    }

    #[test]
    fn congruence_requires_matching_barriers() {
        let g = geom();
        // Congruent: both PEs of tile 0 barrier identically.
        let mk = |tb: u32| {
            let mut b = StreamBuilder::new();
            for _ in 0..tb {
                b.tile_barrier();
            }
            b.global_barrier().compute(1);
            b
        };
        let streams = ops_of(vec![(g.pe_id(0, 0), mk(2)), (g.pe_id(0, 1), mk(2))]);
        assert!(compile(HwConfig::Pc, &streams).parallel_ok());

        // Tile-barrier counts differ within the segment: not congruent.
        let streams = ops_of(vec![(g.pe_id(0, 0), mk(2)), (g.pe_id(0, 1), mk(1))]);
        assert!(!compile(HwConfig::Pc, &streams).parallel_ok());

        // Global-barrier counts differ: not congruent.
        let mut no_gb = StreamBuilder::new();
        no_gb.compute(1);
        let streams = ops_of(vec![(g.pe_id(0, 0), mk(0)), (g.pe_id(0, 1), no_gb)]);
        assert!(!compile(HwConfig::Pc, &streams).parallel_ok());
    }

    #[test]
    fn recompile_reuses_buffers_and_clears_lint() {
        let mut b = StreamBuilder::new();
        b.compute(5);
        let streams = ops_of(vec![(0, b)]);
        let mut p = compile(HwConfig::Sc, &streams);
        p.attach_lint(Vec::new());
        assert_eq!(p.lint_clean(), Some(true));
        let mut b2 = StreamBuilder::new();
        b2.compute(1).compute(2);
        let streams2 = ops_of(vec![(1, b2)]);
        p.recompile(
            geom(),
            HwConfig::Ps,
            &ua(),
            streams2.iter().map(|(w, v)| (*w, v.as_slice())),
        );
        // The second burst folds into the first.
        assert_eq!(p.len(), 1);
        assert_eq!(p.hw(), HwConfig::Ps);
        assert!(p.ranges[0].is_none());
        assert_eq!(p.ranges[1], Some((0, 1)));
        assert_eq!(p.lint_clean(), None);
    }

    /// Replays `(worker, ops)` streams through the streaming builder,
    /// exactly as `Program::compile` consumes them.
    fn build(hw: HwConfig, streams: &[(usize, Vec<Op>)]) -> Program {
        let g = geom();
        let mut b = ProgramBuilder::new();
        b.begin(g, hw, &ua());
        for (w, ops) in streams {
            match g.locate(*w) {
                (tile, Some(pe)) => b.begin_pe(tile, pe),
                (tile, None) => b.begin_lcp(tile),
            }
            for &op in ops {
                match op {
                    Op::Compute(n) => b.compute(n),
                    Op::Load(a) => b.load(a),
                    Op::Store(a) => b.store(a),
                    Op::SpmLoad(o) => b.spm_load(o),
                    Op::SpmStore(o) => b.spm_store(o),
                    Op::TileBarrier => b.tile_barrier(),
                    Op::GlobalBarrier => b.global_barrier(),
                }
            }
        }
        b.finish().clone()
    }

    /// The same streams as a `ProgramSet`, for the batch lint oracle.
    fn materialize(streams: &[(usize, Vec<Op>)]) -> verify::ProgramSet {
        let g = geom();
        let mut set = verify::ProgramSet::new(g);
        for (w, ops) in streams {
            match g.locate(*w) {
                (tile, Some(pe)) => set.set_pe(tile, pe, ops.iter().copied()),
                (tile, None) => set.set_lcp(tile, ops.iter().copied()),
            }
        }
        set
    }

    /// Exercises every op kind, both worker kinds and a non-ascending
    /// emission order (LCP between the PE streams, as the OP kernel
    /// emits) on every hardware config.
    fn mixed_streams() -> Vec<(usize, Vec<Op>)> {
        let g = geom();
        let mk_pe = |seed: u64| {
            let mut b = StreamBuilder::new();
            b.load(0x1000 + seed * 64)
                .compute(2)
                .spm_load(8)
                .spm_store(16)
                .store(0x2000 + seed * 4)
                .tile_barrier()
                .global_barrier()
                .compute(0);
            b
        };
        let mut lcp = StreamBuilder::new();
        lcp.load(0x3000).compute(1).global_barrier().store(0x3040);
        ops_of(vec![
            (g.pe_id(0, 0), mk_pe(0)),
            (g.pe_id(0, 1), mk_pe(1)),
            (g.lcp_id(0), lcp),
            (g.pe_id(1, 0), mk_pe(2)),
            (g.pe_id(1, 1), mk_pe(3)),
        ])
    }

    #[test]
    fn builder_matches_compile_on_every_config() {
        let streams = mixed_streams();
        for hw in [HwConfig::Sc, HwConfig::Scs, HwConfig::Pc, HwConfig::Ps] {
            let p = compile(hw, &streams);
            let b = build(hw, &streams);
            assert_eq!(b.micro_ops(), p.micro_ops(), "{hw}: micro-ops diverge");
            assert_eq!(b.ranges, p.ranges, "{hw}: ranges diverge");
            assert_eq!(b.parallel_ok(), p.parallel_ok(), "{hw}: parallel_ok");
            assert_eq!(b.geometry(), p.geometry());
            assert_eq!(b.hw(), p.hw());
            assert_ne!(b.id(), p.id(), "each build is a fresh artifact");
        }
    }

    #[test]
    fn builder_lint_matches_batch_lint() {
        // mixed_streams carries Compute(0) warnings plus, depending on
        // config, SPM-unavailability errors; add barrier-congruence
        // violations (tile and global) and LCP misuse on top.
        let g = geom();
        let mut streams = mixed_streams();
        let mut skewed = StreamBuilder::new();
        skewed.tile_barrier().global_barrier().global_barrier();
        streams.push((g.pe_id(1, 2), skewed.into_stream().collect()));
        let mut lcp_bad = StreamBuilder::new();
        lcp_bad.tile_barrier().spm_load(0);
        streams.push((g.lcp_id(1), lcp_bad.into_stream().collect()));

        for hw in [HwConfig::Sc, HwConfig::Scs, HwConfig::Pc, HwConfig::Ps] {
            let b = build(hw, &streams);
            let want = verify::lint(&materialize(&streams), hw, &ua(), None);
            assert_eq!(
                b.lint_diagnostics().expect("finish attaches a verdict"),
                want.as_slice(),
                "{hw}: lint reports diverge"
            );
            assert_eq!(b.lint_clean(), Some(verify::is_clean(&want)));
        }
    }

    #[test]
    fn elision_reanchors_positions_past_folded_bursts() {
        let g = geom();
        // (`StreamBuilder` clamps bursts, so the zero burst is literal.)
        let mk = |base: u64| {
            use Op::*;
            vec![
                Store(base),
                Compute(1),
                Compute(1),
                GlobalBarrier,
                Compute(0),
                Store(base + 0x2000),
                Compute(2),
                Store(base + 0x2000),
            ]
        };
        let streams = vec![(g.pe_id(0, 0), mk(0)), (g.pe_id(1, 0), mk(0x40))];
        let mut b = ProgramBuilder::new();
        b.begin(g, HwConfig::Pc, &ua());
        for (w, ops) in &streams {
            let (tile, pe) = g.locate(*w);
            b.begin_pe(tile, pe.expect("PE streams"));
            for &op in ops {
                match op {
                    Op::Compute(n) => b.compute(n),
                    Op::Store(a) => b.store(a),
                    Op::GlobalBarrier => b.global_barrier(),
                    other => unreachable!("{other:?}"),
                }
            }
        }
        b.finish();
        assert_eq!(b.elide_proven_barriers(), 1);

        // The elided program reports what the barrier-free streams do.
        let elided: Vec<(usize, Vec<Op>)> = streams
            .iter()
            .map(|(w, ops)| {
                let kept = ops.iter().copied().filter(|&op| op != Op::GlobalBarrier);
                (*w, kept.collect())
            })
            .collect();
        let want = verify::lint(&materialize(&elided), HwConfig::Pc, &ua(), None);
        assert!(matches!(
            want[..],
            [
                Diagnostic {
                    position: Some(3),
                    ..
                },
                ..
            ]
        ));
        let p = b.program();
        assert_eq!(p.lint_diagnostics(), Some(&want[..]));
        let got = p.analysis().expect("re-derived").diagnostics();
        let oracle = compile(HwConfig::Pc, &elided);
        assert_eq!(got, oracle.analysis().expect("analyzed").diagnostics());
        assert!(
            got.iter().any(|d| d.position == Some(4)),
            "the dead store sits behind three folded bursts: {got:?}"
        );
    }

    #[test]
    fn builder_reuse_resets_everything() {
        let mut b = ProgramBuilder::new();
        // Build 1: poisoned (SPM under PC) and congruence-broken.
        b.begin(geom(), HwConfig::Pc, &ua());
        b.begin_pe(0, 0);
        b.spm_load(0);
        b.global_barrier();
        b.begin_pe(0, 1);
        b.compute(3);
        let first_id = {
            let p = b.finish();
            assert_eq!(p.lint_clean(), Some(false));
            assert!(!p.parallel_ok());
            p.id()
        };
        // Build 2: clean; nothing from build 1 may leak through.
        b.begin(geom(), HwConfig::Ps, &ua());
        b.begin_pe(0, 0);
        b.compute(2);
        b.global_barrier();
        b.begin_pe(0, 1);
        b.compute(5);
        b.global_barrier();
        let p = b.finish();
        assert_ne!(p.id(), first_id);
        assert_eq!(p.len(), 4);
        assert_eq!(p.hw(), HwConfig::Ps);
        assert_eq!(p.lint_clean(), Some(true));
        assert!(p.lint_diagnostics().expect("verdict attached").is_empty());
        assert!(p.parallel_ok());
    }

    #[test]
    #[should_panic(expected = "worker given two streams")]
    fn builder_rejects_duplicate_worker() {
        let mut b = ProgramBuilder::new();
        b.begin(geom(), HwConfig::Sc, &ua());
        b.begin_pe(0, 0);
        b.compute(1);
        b.begin_pe(0, 0);
    }

    #[test]
    fn builder_unsupported_config_is_rejected_like_lint() {
        let g = Geometry::new(1, 1);
        let mut b = ProgramBuilder::new();
        b.begin(g, HwConfig::Scs, &ua());
        b.begin_pe(0, 0);
        b.spm_load(0); // would be a per-op error; suppressed when unsupported
        let p = b.finish();
        assert_eq!(p.lint_clean(), Some(false));
        let diags = p.lint_diagnostics().unwrap();
        assert_eq!(diags.len(), 1);
        assert!(matches!(
            diags[0].kind,
            LintKind::UnsupportedConfig {
                config: HwConfig::Scs
            }
        ));
    }

    #[test]
    fn barrier_divergence_matches_projection_zip() {
        // Oracle: materialize the projections and zip, as lint does.
        let project = |segs: &[u32]| {
            let mut ops = Vec::new();
            for (i, &t) in segs.iter().enumerate() {
                ops.resize(ops.len() + t as usize, Op::TileBarrier);
                if i + 1 < segs.len() {
                    ops.push(Op::GlobalBarrier);
                }
            }
            ops
        };
        let cases: &[(&[u32], &[u32])] = &[
            (&[2], &[1]),
            (&[2], &[2, 0]),
            (&[1], &[1, 0]),
            (&[0, 3], &[0, 1]),
            (&[1, 0, 2], &[1, 0]),
            (&[0], &[5, 1]),
            (&[3, 1], &[3, 2, 1]),
        ];
        for &(r, s) in cases {
            let (rp, sp) = (project(r), project(s));
            let want = rp
                .iter()
                .zip(sp.iter())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| rp.len().min(sp.len()));
            assert_eq!(barrier_divergence(r, s), want, "segs {r:?} vs {s:?}");
        }
    }
}
