//! Static analyzer lints over compiled [`Program`]s.
//!
//! The Program IR resolves every access's cache line, bank route and
//! SPM offset at build time, which is exactly what a dependence
//! analysis needs: this module abstract-interprets the per-worker
//! [`MicroOp`](crate::program) arrays, groups every access by the
//! location it touches (an HBM word under a private L2, an HBM line
//! under a shared L2, or an SPM word) and reports, all as
//! [`Severity::Warning`]:
//!
//! * dead stores (overwritten before any read) and dead SPM writes
//!   (never read back);
//! * cross-epoch write-write hazards with full provenance (worker,
//!   epoch, pc);
//! * global barriers separating epochs with no cross-worker dependence
//!   between them.
//!
//! The analysis runs *incrementally* inside a checked
//! [`ProgramBuilder`](crate::ProgramBuilder) build — the access arena
//! is maintained on append, like the online lints — and [`analyze`] is
//! the post-hoc differential oracle for any program: both paths feed
//! the same [`derive`] kernel, so their lints are equal by construction
//! (pinned by the `analyze_props` proptest suite).
//!
//! See DESIGN.md §11 for the set domains behind each lint.

use crate::config::{HwConfig, L2Mode, MicroArch};
use crate::program::{congruent, MicroKind, MicroOp, Program};
use crate::verify::{Diagnostic, LintKind, Severity};

/// Upper bound on retained analyzer diagnostics; the overflow is
/// counted in [`Analysis::suppressed`].
const MAX_DIAGS: usize = 32;

/// The analyzer's lints over one [`Program`]: attached to a checked
/// build by [`ProgramBuilder::finish`](crate::ProgramBuilder::finish),
/// or computed post hoc by [`analyze`].
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    congruent: bool,
    diagnostics: Vec<Diagnostic>,
    suppressed: usize,
}

impl Analysis {
    /// True when the program was epoch-congruent (and unpoisoned, on a
    /// realisable configuration, with at least one stream), so the
    /// lints below were derived; false means the analysis did not
    /// apply and reports nothing.
    pub fn congruent(&self) -> bool {
        self.congruent
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
}

/// SPM-shared key tag (see [`Acc::key`]).
const TAG_SPM_SHARED: u64 = 1 << 62;
/// SPM-private key tag (see [`Acc::key`]).
const TAG_SPM_PRIV: u64 = 2 << 62;

/// One recorded access: the dependence key plus everything `derive`
/// needs to reason about it. Pushed on append by [`ProgramBuilder`]
/// and reconstructed from micro-ops by [`analyze`]; both must agree,
/// which [`acc_of`] guarantees by being the single constructor.
///
/// [`ProgramBuilder`]: crate::ProgramBuilder
#[derive(Debug, Clone, Copy)]
pub(crate) struct Acc {
    /// Dependence key: HBM word index under a private L2, HBM line
    /// under a shared L2, or a tagged SPM slot (`TAG_SPM_*`).
    key: u64,
    worker: u32,
    epoch: u32,
    pc: u32,
    is_store: bool,
}

/// Builds the [`Acc`] record for one lowered micro-op, or `None` for
/// kinds that touch no analyzable state (compute, barriers, poison).
pub(crate) fn acc_of(op: &MicroOp, worker: u32, tile: u16, epoch: u32, pc: u32) -> Option<Acc> {
    use MicroKind::*;
    let (is_store, key) = match op.kind {
        SharedLoad | SharedDirLoad => (false, op.b),
        SharedStore | SharedDirStore => (true, op.b),
        PrivLoad | DirPeLoad | DirLcpLoad => (false, op.a),
        PrivStore | DirPeStore | DirLcpStore => (true, op.a),
        SpmShared => (op.a != 0, TAG_SPM_SHARED | ((tile as u64) << 32) | op.b),
        SpmPrivate => (op.a != 0, TAG_SPM_PRIV | ((worker as u64) << 32) | op.b),
        Compute | TileBarrier | GlobalBarrier | PoisonSpm | PoisonLcpSpm | PoisonLcpBar => {
            return None
        }
    };
    Some(Acc {
        key,
        worker,
        epoch,
        pc,
        is_store,
    })
}

/// Everything `derive` needs besides the arena.
pub(crate) struct Ctx {
    pub hw: HwConfig,
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
/// lints. Both the incremental builder path and the post-hoc
/// [`analyze`] oracle end here, so they agree by construction.
pub(crate) fn derive(ctx: &Ctx, arena: &mut [Acc]) -> Analysis {
    if !ctx.applicable || ctx.n_epochs == 0 {
        return Analysis {
            congruent: false,
            diagnostics: Vec::new(),
            suppressed: 0,
        };
    }
    let n_epochs = ctx.n_epochs as usize;
    let private_l2 = ctx.hw.l2() == L2Mode::PrivateCache;

    // Canonical order: (key, worker, pc) groups every location's
    // accesses together with each worker's program order contiguous.
    arena.sort_unstable_by_key(|a| (a.key, a.worker, a.pc));

    // Walk key groups: the dead-store / dead-SPM-write and cross-epoch
    // hazard lints, and which adjacent epoch pairs a barrier really
    // orders.
    let mut diags: Vec<Diagnostic> = Vec::new();
    // `ordered[g]`: barrier `g` separates a store on one side from an
    // access to the same location by another worker on the other.
    let mut ordered = vec![false; n_epochs - 1];
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

            // Barrier `g` is load-bearing iff a store on one side of
            // it and an access on the other are issued by different
            // workers.
            for pair in sums.windows(2) {
                let (a, c) = (&pair[0], &pair[1]);
                if c.epoch == a.epoch + 1
                    && ((a.has_store() && cross_worker(a.s_min, a.s_max, c.w_min, c.w_max))
                        || (c.has_store() && cross_worker(c.s_min, c.s_max, a.w_min, a.w_max)))
                {
                    ordered[a.epoch as usize] = true;
                }
            }
        }

        i = j;
    }

    for (g, _) in ordered.iter().enumerate().filter(|(_, &o)| !o) {
        diags.push(Diagnostic {
            worker: ctx.first_worker as usize,
            position: None,
            severity: Severity::Warning,
            kind: LintKind::RedundantBarrier { barrier_index: g },
        });
    }

    diags.sort_by_key(|d| (d.worker, d.position.unwrap_or(usize::MAX)));
    let suppressed = diags.len().saturating_sub(MAX_DIAGS);
    diags.truncate(MAX_DIAGS);

    Analysis {
        congruent: true,
        diagnostics: diags,
        suppressed,
    }
}

/// Post-hoc entry point: reconstructs the access arena from a compiled
/// program's micro-ops and derives the same [`Analysis`] a checked
/// [`ProgramBuilder`](crate::ProgramBuilder) build attaches. This is
/// the differential oracle the `analyze_props` suite compares against,
/// and the way to lint a program that was not a checked build.
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
        hw,
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
