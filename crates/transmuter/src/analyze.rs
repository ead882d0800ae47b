//! Static epoch-dependence analysis over compiled [`Program`]s.
//!
//! The Program IR resolves every access's cache line, bank route and
//! SPM offset at build time, which is exactly what a dependence
//! analysis needs: this module abstract-interprets the per-worker
//! [`MicroOp`](crate::program) arrays and computes exact read/write
//! sets at three granularities — HBM cache lines (and the HBM *channel*
//! closure each access can reach through prefetch and writeback),
//! L1/L2 bank routes, and SPM words — then derives:
//!
//! 1. a **commit verdict per epoch** ([`ParCommit`]): epochs whose
//!    tiles are provably disjoint on all shared state are marked
//!    [`ParCommit::Proven`], which lets
//!    [`Machine::run_program`](crate::Machine::run_program) commit them
//!    without the shadow-HBM replay (and extends epoch-parallel
//!    eligibility to shared-L2 configs whose epochs never share a
//!    line); everything else stays [`ParCommit::Check`] and keeps the
//!    bit-exact dynamic replay;
//! 2. **lints** on the same sets: dead stores (overwritten before any
//!    read), dead SPM writes (never read back), cross-epoch
//!    write-write hazards with full provenance (worker, epoch, pc),
//!    and global barriers separating provably independent epochs
//!    (elision candidates, consumed by
//!    [`ProgramBuilder::elide_proven_barriers`](crate::ProgramBuilder::elide_proven_barriers)).
//!
//! The analysis runs *incrementally* inside
//! [`ProgramBuilder`](crate::ProgramBuilder) — the access arena is
//! maintained on append, like the online lints — and [`analyze`] is
//! the post-hoc differential oracle: both paths feed the same
//! [`derive`] kernel, so their verdicts are equal by construction
//! (pinned by the `analyze_props` proptest suite).
//!
//! See DESIGN.md §11 for the set domains and the proof obligations
//! behind each [`ProvenKind`].

use crate::config::{Geometry, HwConfig, L2Mode, MicroArch};
use crate::program::{congruent, MicroKind, MicroOp, Program};
use crate::verify::{Diagnostic, LintKind, Severity};
use std::fmt;

/// Upper bound on retained analyzer diagnostics; the overflow is
/// counted in [`Analysis::suppressed`].
const MAX_DIAGS: usize = 32;

/// How [`Machine::run_program`](crate::Machine::run_program) may commit
/// one epoch of an epoch-parallel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParCommit {
    /// The epoch is statically proven interference-free: it commits
    /// without the shadow-HBM replay.
    Proven(ProvenKind),
    /// Interference could not be excluded: the epoch keeps the dynamic
    /// shadow-HBM replay (with sequential rollback on mismatch).
    Check,
}

/// The proof obligation a [`ParCommit::Proven`] epoch discharged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProvenKind {
    /// At most one tile issues HBM-reaching accesses in this epoch, so
    /// there is no cross-tile HBM interleaving to validate.
    SingleTile,
    /// Private-L2 config: the whole-program HBM *channel closures* of
    /// the tiles (demand lines plus every prefetch and writeback line
    /// those demands can reach) are pairwise disjoint, so each channel
    /// is owned by one tile and the per-tile shadow HBM states merge
    /// exactly.
    DisjointChannels,
    /// Shared-L2 config: the HBM line sets the tiles touch in this
    /// epoch are pairwise disjoint.
    DisjointLines,
}

impl fmt::Display for ParCommit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParCommit::Proven(ProvenKind::SingleTile) => {
                write!(f, "proven (single mem-active tile)")
            }
            ParCommit::Proven(ProvenKind::DisjointChannels) => {
                write!(f, "proven (disjoint HBM channels)")
            }
            ParCommit::Proven(ProvenKind::DisjointLines) => {
                write!(f, "proven (disjoint HBM lines)")
            }
            ParCommit::Check => write!(f, "check (dynamic replay)"),
        }
    }
}

/// The first interference witness that blocks a [`ParCommit::Proven`]
/// verdict — which epoch pair of tiles interferes, and on what address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict {
    /// Epoch index the interference occurs in.
    pub epoch: u32,
    /// Lower-numbered interfering tile.
    pub tile_a: u32,
    /// Higher-numbered interfering tile.
    pub tile_b: u32,
    /// Witness HBM line.
    pub line: u64,
    /// HBM channel that line maps to.
    pub channel: u32,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch {}: tiles {} and {} interfere on HBM line {:#x} (channel {})",
            self.epoch, self.tile_a, self.tile_b, self.line, self.channel
        )
    }
}

/// The analyzer's verdict over one [`Program`], attached next to the
/// lint verdict and consumed by
/// [`Machine::run_program`](crate::Machine::run_program).
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    congruent: bool,
    epochs: Vec<ParCommit>,
    conflict: Option<Conflict>,
    diagnostics: Vec<Diagnostic>,
    suppressed: usize,
    elision_candidates: Vec<u32>,
    conflict_edges: Vec<(u32, u32)>,
    tile_channel_masks: Vec<u64>,
}

impl Analysis {
    /// An empty verdict for a program the analysis does not apply to
    /// (incongruent, poisoned, unsupported config, or no streams).
    fn inapplicable(congruent: bool) -> Self {
        Analysis {
            congruent,
            epochs: Vec::new(),
            conflict: None,
            diagnostics: Vec::new(),
            suppressed: 0,
            elision_candidates: Vec::new(),
            conflict_edges: Vec::new(),
            tile_channel_masks: Vec::new(),
        }
    }

    /// True when the program was epoch-congruent (and unpoisoned) so
    /// the per-epoch verdicts below are meaningful.
    pub fn congruent(&self) -> bool {
        self.congruent
    }

    /// Commit verdict per epoch, in epoch order; empty when the
    /// analysis is inapplicable (see [`Analysis::congruent`]).
    pub fn epochs(&self) -> &[ParCommit] {
        &self.epochs
    }

    /// True when every epoch is [`ParCommit::Proven`] — the condition
    /// under which shared-L2 configs become epoch-parallel eligible.
    pub fn all_proven(&self) -> bool {
        self.congruent
            && !self.epochs.is_empty()
            && self
                .epochs
                .iter()
                .all(|e| matches!(e, ParCommit::Proven(_)))
    }

    /// The first interference witness that forced a [`ParCommit::Check`]
    /// epoch, if any epoch has one.
    pub fn conflict(&self) -> Option<&Conflict> {
        self.conflict.as_ref()
    }

    /// Analyzer lints (dead stores, dead SPM writes, cross-epoch
    /// hazards, redundant barriers), all [`Severity::Warning`], sorted
    /// like [`crate::verify::lint`] reports (worker ascending, then
    /// position). Capped at 32; see [`Analysis::suppressed`].
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Diagnostics dropped by the 32-entry cap.
    pub fn suppressed(&self) -> usize {
        self.suppressed
    }

    /// Global-barrier ordinals (0-based) that separate provably
    /// independent epochs — safe elision candidates for
    /// [`ProgramBuilder::elide_proven_barriers`](crate::ProgramBuilder::elide_proven_barriers).
    pub fn elision_candidates(&self) -> &[u32] {
        &self.elision_candidates
    }

    /// Epoch pairs `(e, f)` with a proven cross-worker dependence (a
    /// store in one and an access to the same location in the other,
    /// by different workers); the complement of these edges is what
    /// justifies barrier elision.
    pub fn conflict_edges(&self) -> &[(u32, u32)] {
        &self.conflict_edges
    }

    /// Per-tile HBM channel-closure masks (bit `c` = channel `c`
    /// reachable), used by the machine to validate a
    /// [`ProvenKind::DisjointChannels`] commit dynamically against
    /// stale pre-program writebacks. Empty under shared L2 or when the
    /// channel count exceeds 64.
    pub(crate) fn tile_channel_masks(&self) -> &[u64] {
        &self.tile_channel_masks
    }
}

/// SPM-shared key tag (see [`Acc::key`]).
const TAG_SPM_SHARED: u64 = 1 << 62;
/// SPM-private key tag (see [`Acc::key`]).
const TAG_SPM_PRIV: u64 = 2 << 62;

/// Route class of one access, as far as the dependence analysis cares:
/// which HBM channel closure it generates and whether its key is a
/// line, a word or an SPM slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccClass {
    /// Private L1 cache in front of a private L2 (`Pc` PE route): the
    /// L1 prefetcher requests non-adjacent lines, widening the closure.
    HbmPc,
    /// Direct PE route into a single-bank private L2 (`Ps` PE route).
    HbmPe1,
    /// LCP route into the `B`-bank private L2.
    HbmLcp,
    /// Any shared-L2 route (PE or LCP); analysis is line-granular.
    HbmShared,
    /// Scratchpad access; never reaches HBM.
    Spm,
}

/// One recorded access: the dependence key plus everything `derive`
/// needs to reason about it. Pushed on append by [`ProgramBuilder`]
/// and reconstructed from micro-ops by [`analyze`]; both must agree,
/// which [`acc_of`] guarantees by being the single constructor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Acc {
    /// Dependence key: HBM word index under a private L2, HBM line
    /// under a shared L2, or a tagged SPM slot (`TAG_SPM_*`).
    key: u64,
    /// HBM line (meaningless for SPM accesses).
    line: u64,
    worker: u32,
    epoch: u32,
    pc: u32,
    /// Issuing PE within its tile (from the micro-op's bank route).
    pe: u16,
    tile: u16,
    class: AccClass,
    is_store: bool,
}

/// Builds the [`Acc`] record for one lowered micro-op, or `None` for
/// kinds that touch no analyzable state (compute, barriers, poison).
pub(crate) fn acc_of(op: &MicroOp, worker: u32, tile: u16, epoch: u32, pc: u32) -> Option<Acc> {
    use MicroKind::*;
    let (class, is_store, key) = match op.kind {
        SharedLoad | SharedDirLoad => (AccClass::HbmShared, false, op.b),
        SharedStore | SharedDirStore => (AccClass::HbmShared, true, op.b),
        PrivLoad => (AccClass::HbmPc, false, op.a),
        PrivStore => (AccClass::HbmPc, true, op.a),
        DirPeLoad => (AccClass::HbmPe1, false, op.a),
        DirPeStore => (AccClass::HbmPe1, true, op.a),
        DirLcpLoad => (AccClass::HbmLcp, false, op.a),
        DirLcpStore => (AccClass::HbmLcp, true, op.a),
        SpmShared => (
            AccClass::Spm,
            op.a != 0,
            TAG_SPM_SHARED | ((tile as u64) << 32) | op.b,
        ),
        SpmPrivate => (
            AccClass::Spm,
            op.a != 0,
            TAG_SPM_PRIV | ((worker as u64) << 32) | op.b,
        ),
        Compute | TileBarrier | GlobalBarrier | PoisonSpm | PoisonLcpSpm | PoisonLcpBar => {
            return None
        }
    };
    Some(Acc {
        key,
        line: op.b,
        worker,
        epoch,
        pc,
        pe: op.bank,
        tile,
        class,
        is_store,
    })
}

/// The HBM channel-closure mask of one private-L2 access: every channel
/// the memory system can touch serving it — the demand line, the L2
/// prefetch line (`line + nbanks` for that route), and for the `Pc` L1
/// route the non-adjacent L1-prefetch fill `(line+1)·B + pe` with its
/// own L2 prefetch, plus the L1 victim-writeback image `line·B + pe`.
/// Writeback victims of in-program lines stay inside the closure by
/// induction (every line that can enter a tile's banks is in it).
fn channel_mask(acc: &Acc, nch: u64, b: u64) -> u64 {
    let ch = |line: u64| 1u64 << (line % nch);
    let l = acc.line;
    match acc.class {
        AccClass::HbmPc => {
            let pe = acc.pe as u64;
            ch(l)
                | ch(l.wrapping_add(1))
                | ch(l.wrapping_mul(b).wrapping_add(pe))
                | ch(l.wrapping_add(1).wrapping_mul(b).wrapping_add(pe))
                | ch(l.wrapping_add(1).wrapping_mul(b).wrapping_add(pe + 1))
        }
        AccClass::HbmPe1 => ch(l) | ch(l.wrapping_add(1)),
        AccClass::HbmLcp => ch(l) | ch(l.wrapping_add(b)),
        AccClass::HbmShared | AccClass::Spm => 0,
    }
}

/// Everything `derive` needs besides the arena.
pub(crate) struct Ctx {
    pub geom: Geometry,
    pub hw: HwConfig,
    pub nch: u64,
    pub word_bytes: u64,
    pub line_bytes: u64,
    /// Congruent, unpoisoned and on a realisable config; when false the
    /// analysis is inapplicable.
    pub applicable: bool,
    /// Global-barrier count + 1 over the stream-bearing workers; 0 when
    /// no worker has a stream.
    pub n_epochs: u32,
    /// Lowest stream-bearing worker id (barrier lints anchor there).
    pub first_worker: u32,
}

/// Per-(key, epoch) access summary, accumulated while walking one key
/// group of the sorted arena.
#[derive(Clone, Copy)]
struct EpochSum {
    epoch: u32,
    w_min: u32,
    w_max: u32,
    t_min: u16,
    t_max: u16,
    has_load: bool,
    /// Store-issuing worker range; `s_min == u32::MAX` means no store.
    s_min: u32,
    s_max: u32,
    /// First store in (worker, pc) order.
    rep: (u32, u32),
    /// First store by a worker other than `rep.0` (`u32::MAX` = none).
    rep_other: (u32, u32),
}

impl EpochSum {
    fn new(epoch: u32) -> Self {
        EpochSum {
            epoch,
            w_min: u32::MAX,
            w_max: 0,
            t_min: u16::MAX,
            t_max: 0,
            has_load: false,
            s_min: u32::MAX,
            s_max: 0,
            rep: (u32::MAX, 0),
            rep_other: (u32::MAX, 0),
        }
    }

    fn add(&mut self, a: &Acc) {
        self.w_min = self.w_min.min(a.worker);
        self.w_max = self.w_max.max(a.worker);
        self.t_min = self.t_min.min(a.tile);
        self.t_max = self.t_max.max(a.tile);
        if a.is_store {
            self.s_min = self.s_min.min(a.worker);
            self.s_max = self.s_max.max(a.worker);
            if self.rep.0 == u32::MAX {
                self.rep = (a.worker, a.pc);
            } else if a.worker != self.rep.0 && self.rep_other.0 == u32::MAX {
                self.rep_other = (a.worker, a.pc);
            }
        } else {
            self.has_load = true;
        }
    }

    fn has_store(&self) -> bool {
        self.s_min != u32::MAX
    }
}

/// True when a store set with worker range `[s_min, s_max]` and an
/// access set with worker range `[w_min, w_max]` (both non-empty) form
/// a *cross-worker* dependence — i.e. they are not all issued by one
/// and the same worker.
fn cross_worker(s_min: u32, s_max: u32, w_min: u32, w_max: u32) -> bool {
    !(s_min == s_max && w_min == w_max && s_min == w_min)
}

/// The shared analysis kernel: sorts the access arena and derives the
/// per-epoch commit verdicts, the interference witness, the lints and
/// the barrier-elision set. Both the incremental builder path and the
/// post-hoc [`analyze`] oracle end here, so they agree by construction.
pub(crate) fn derive(ctx: &Ctx, arena: &mut [Acc]) -> Analysis {
    if !ctx.applicable || ctx.n_epochs == 0 {
        return Analysis::inapplicable(ctx.applicable && ctx.n_epochs > 0);
    }
    let n_epochs = ctx.n_epochs as usize;
    let tiles = ctx.geom.tiles();
    let private_l2 = ctx.hw.l2() == L2Mode::PrivateCache;
    let b = ctx.geom.pes_per_tile() as u64;
    let masks_representable = ctx.nch <= 64 && tiles <= 64;

    // Canonical order: (key, worker, pc) groups every location's
    // accesses together with each worker's program order contiguous.
    arena.sort_unstable_by_key(|a| (a.key, a.worker, a.pc));

    // Pass 1 (order-independent): per-epoch HBM-active tile bits and,
    // under a private L2, the whole-program per-tile channel closures.
    let mut active = vec![0u64; n_epochs];
    let mut masks = vec![
        0u64;
        if private_l2 && masks_representable {
            tiles
        } else {
            0
        }
    ];
    for a in arena.iter() {
        if a.class == AccClass::Spm {
            continue;
        }
        active[a.epoch as usize] |= 1u64 << (a.tile as u64 % 64);
        if !masks.is_empty() {
            masks[a.tile as usize] |= channel_mask(a, ctx.nch, b);
        }
    }
    let masks_disjoint = !masks.is_empty() && {
        let mut seen = 0u64;
        masks.iter().all(|&m| {
            let ok = seen & m == 0;
            seen |= m;
            ok
        })
    };

    // Pass 2: walk key groups. Derives the per-epoch shared-line
    // disjointness (shared L2), the dead-store / dead-SPM-write and
    // cross-epoch hazard lints, and the epoch-pair dependence edges.
    let mut lines_ok = vec![true; n_epochs];
    let mut line_witness: Vec<Option<Conflict>> = vec![None; n_epochs];
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut edges: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
    let mut sums: Vec<EpochSum> = Vec::new();
    // (worker, pc, first epoch, last epoch, trailing) dead candidates.
    let mut dead: Vec<(u32, u32, u32, u32, bool)> = Vec::new();

    let mut i = 0;
    while i < arena.len() {
        let j = i + arena[i..]
            .iter()
            .position(|a| a.key != arena[i].key)
            .unwrap_or(arena.len() - i);
        let group = &arena[i..j];
        let key = group[0].key;
        let is_spm = key & (TAG_SPM_SHARED | TAG_SPM_PRIV) != 0;
        let multi_worker = group[0].worker != group[j - i - 1].worker;

        // Per-epoch summaries.
        sums.clear();
        for a in group {
            match sums.iter_mut().find(|s| s.epoch == a.epoch) {
                Some(s) => s.add(a),
                None => {
                    let mut s = EpochSum::new(a.epoch);
                    s.add(a);
                    sums.push(s);
                }
            }
        }
        sums.sort_unstable_by_key(|s| s.epoch);

        // Shared-L2 line disjointness: distinct tiles on one line in
        // one epoch deny `DisjointLines` for that epoch.
        if !private_l2 && !is_spm {
            for s in &sums {
                if s.t_min != s.t_max {
                    let e = s.epoch as usize;
                    lines_ok[e] = false;
                    if line_witness[e].is_none() {
                        line_witness[e] = Some(Conflict {
                            epoch: s.epoch,
                            tile_a: s.t_min as u32,
                            tile_b: s.t_max as u32,
                            line: key,
                            channel: (key % ctx.nch) as u32,
                        });
                    }
                }
            }
        }

        // Dead stores: per worker, a store whose next same-worker
        // access is another store is dead unless some *other* worker
        // touches the key in the covered epoch window. HBM stores
        // reaching the end of the program are live (outputs); SPM
        // slots are scratch, so trailing SPM stores are dead too.
        // Under a shared L2 HBM keys are whole lines, where overwrite
        // at line granularity proves nothing — skip HBM dead stores.
        if is_spm || private_l2 {
            dead.clear();
            let mut k = 0;
            while k < group.len() {
                let cur = &group[k];
                let next_same = group.get(k + 1).filter(|n| n.worker == cur.worker);
                if cur.is_store {
                    match next_same {
                        Some(n) if n.is_store => {
                            dead.push((cur.worker, cur.pc, cur.epoch, n.epoch, false));
                        }
                        None if is_spm => {
                            dead.push((cur.worker, cur.pc, cur.epoch, cur.epoch, true));
                        }
                        _ => {}
                    }
                }
                k += 1;
            }
            for &(w, pc, e1, e2, trailing) in &dead {
                let alive = multi_worker
                    && sums.iter().any(|s| {
                        let in_window = if trailing {
                            s.epoch >= e1
                        } else {
                            s.epoch >= e1 && s.epoch <= e2
                        };
                        in_window && (s.w_min < w || s.w_max > w)
                    });
                if !alive {
                    let kind = if is_spm {
                        LintKind::DeadSpmWrite {
                            offset: ((key & 0xFFFF_FFFF) * ctx.word_bytes) as u32,
                        }
                    } else {
                        LintKind::DeadStore {
                            addr: key * ctx.word_bytes,
                        }
                    };
                    diags.push(Diagnostic {
                        worker: w as usize,
                        position: Some(pc as usize),
                        severity: Severity::Warning,
                        kind,
                    });
                }
            }
        }

        if multi_worker {
            // Cross-epoch write-write hazards: a store overwritten in a
            // later epoch by a different worker, with no read of the
            // location in or between the two epochs. First hazard per
            // key only.
            let mut last_store: Option<(u32, u32, u32)> = None;
            let mut reported = false;
            for s in &sums {
                if let Some((e, w, pc)) = last_store {
                    if !reported
                        && !s.has_load
                        && s.has_store()
                        && (s.s_min != s.s_max || s.s_min != w)
                    {
                        let second = if s.rep.0 != w { s.rep } else { s.rep_other };
                        let addr = if is_spm {
                            (key & 0xFFFF_FFFF) * ctx.word_bytes
                        } else if private_l2 {
                            key * ctx.word_bytes
                        } else {
                            key * ctx.line_bytes
                        };
                        diags.push(Diagnostic {
                            worker: w as usize,
                            position: Some(pc as usize),
                            severity: Severity::Warning,
                            kind: LintKind::CrossEpochWriteHazard {
                                addr,
                                first: (w as usize, e as usize, pc as usize),
                                second: (second.0 as usize, s.epoch as usize, second.1 as usize),
                            },
                        });
                        reported = true;
                    }
                }
                if s.has_store() {
                    last_store = Some((s.epoch, s.rep.0, s.rep.1));
                } else if s.has_load {
                    last_store = None;
                }
            }

            // Epoch-pair dependence edges: barrier (e, f) separation is
            // load-bearing iff a store on one side and an access on the
            // other are issued by different workers.
            for x in 0..sums.len() {
                for y in x + 1..sums.len() {
                    let (a, c) = (&sums[x], &sums[y]);
                    let unsafe_pair = (a.has_store()
                        && cross_worker(a.s_min, a.s_max, c.w_min, c.w_max))
                        || (c.has_store() && cross_worker(c.s_min, c.s_max, a.w_min, a.w_max));
                    if unsafe_pair {
                        edges.insert((a.epoch, c.epoch));
                    }
                }
            }
        }

        i = j;
    }

    // Per-epoch commit verdicts and the first blocking witness.
    let mut epochs = Vec::with_capacity(n_epochs);
    let mut conflict: Option<Conflict> = None;
    let mut chan_witness: Option<Conflict> = None;
    for e in 0..n_epochs {
        let verdict = if active[e].count_ones() <= 1 {
            ParCommit::Proven(ProvenKind::SingleTile)
        } else if private_l2 && masks_disjoint {
            ParCommit::Proven(ProvenKind::DisjointChannels)
        } else if !private_l2 && lines_ok[e] {
            ParCommit::Proven(ProvenKind::DisjointLines)
        } else {
            ParCommit::Check
        };
        if verdict == ParCommit::Check && conflict.is_none() {
            conflict = if private_l2 {
                if chan_witness.is_none() {
                    chan_witness = channel_conflict(&masks, arena, ctx.nch, b);
                }
                chan_witness.map(|mut c| {
                    c.epoch = e as u32;
                    c
                })
            } else {
                line_witness[e]
            };
        }
        epochs.push(verdict);
    }

    // Barrier ordinal g orders epoch g before g+1; with no dependence
    // edge between exactly that pair, the barrier is redundant.
    let mut elision_candidates = Vec::new();
    for g in 0..n_epochs.saturating_sub(1) as u32 {
        if !edges.contains(&(g, g + 1)) {
            elision_candidates.push(g);
            diags.push(Diagnostic {
                worker: ctx.first_worker as usize,
                position: None,
                severity: Severity::Warning,
                kind: LintKind::RedundantBarrier {
                    barrier_index: g as usize,
                },
            });
        }
    }

    diags.sort_by_key(|d| (d.worker, d.position.unwrap_or(usize::MAX)));
    let suppressed = diags.len().saturating_sub(MAX_DIAGS);
    diags.truncate(MAX_DIAGS);

    Analysis {
        congruent: true,
        epochs,
        conflict,
        diagnostics: diags,
        suppressed,
        elision_candidates,
        conflict_edges: edges.into_iter().collect(),
        tile_channel_masks: masks,
    }
}

/// Deterministic witness for overlapping private-L2 channel closures:
/// the lowest shared channel, its two lowest tiles, and the first
/// arena access (in canonical order) of the higher tile whose closure
/// reaches that channel.
fn channel_conflict(masks: &[u64], arena: &[Acc], nch: u64, b: u64) -> Option<Conflict> {
    let mut seen = 0u64;
    let mut overlap = 0u64;
    for m in masks {
        overlap |= seen & m;
        seen |= m;
    }
    let c = overlap.trailing_zeros();
    if c == 64 {
        return None;
    }
    let bit = 1u64 << c;
    let mut it = masks.iter().enumerate().filter(|(_, m)| *m & bit != 0);
    let tile_a = it.next()?.0 as u32;
    let tile_b = it.next()?.0 as u32;
    let witness = arena
        .iter()
        .find(|a| a.tile as u32 == tile_b && channel_mask(a, nch, b) & bit != 0)?;
    Some(Conflict {
        epoch: 0,
        tile_a,
        tile_b,
        line: witness.line,
        channel: c,
    })
}

/// Post-hoc entry point: reconstructs the access arena from a compiled
/// program's micro-ops and derives the same [`Analysis`] the
/// incremental [`ProgramBuilder`](crate::ProgramBuilder) path attaches.
/// This is the differential oracle the `analyze_props` suite compares
/// against.
pub fn analyze(prog: &Program) -> Analysis {
    let geom = prog.geometry();
    let hw = prog.hw();
    let ua: &MicroArch = prog.uarch();
    let unsupported = hw == HwConfig::Scs && geom.pes_per_tile() < 2;

    let mut poisoned = false;
    let mut arena: Vec<Acc> = Vec::new();
    let mut segments: Vec<(usize, Vec<u32>)> = Vec::new();
    let mut first_worker = u32::MAX;
    let ops = prog.micro_ops();
    for (w, range) in prog.worker_ranges().iter().enumerate() {
        let Some((lo, hi)) = range else { continue };
        first_worker = first_worker.min(w as u32);
        let (tile, _) = geom.locate(w);
        let mut segs: Vec<u32> = vec![0];
        let mut epoch = 0u32;
        // Source-op position: folded compute bursts count too.
        let mut pc = 0u32;
        for op in &ops[*lo as usize..*hi as usize] {
            let at = pc;
            pc += op.source_len();
            match op.kind {
                MicroKind::TileBarrier => *segs.last_mut().expect("segment vector non-empty") += 1,
                MicroKind::GlobalBarrier => {
                    segs.push(0);
                    epoch += 1;
                }
                MicroKind::PoisonSpm | MicroKind::PoisonLcpSpm | MicroKind::PoisonLcpBar => {
                    poisoned = true
                }
                _ => {
                    if let Some(acc) = acc_of(op, w as u32, tile as u16, epoch, at) {
                        arena.push(acc);
                    }
                }
            }
        }
        segments.push((w, segs));
    }
    let congr = congruent(geom, segments.iter().map(|(w, s)| (*w, s.as_slice())));
    let n_epochs = segments.first().map(|(_, s)| s.len() as u32).unwrap_or(0);
    let ctx = Ctx {
        geom,
        hw,
        nch: ua.hbm_channels as u64,
        word_bytes: ua.word_bytes as u64,
        line_bytes: ua.line_bytes as u64,
        applicable: congr && !poisoned && !unsupported,
        n_epochs,
        first_worker: if first_worker == u32::MAX {
            0
        } else {
            first_worker
        },
    };
    derive(&ctx, &mut arena)
}
