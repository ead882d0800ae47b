//! Static stream verification and race detection.
//!
//! Two independent analyses of kernel correctness, both exact with
//! respect to the simulator's semantics:
//!
//! * [`lint`] checks a [`ProgramSet`] against a hardware
//!   configuration, microarchitecture and optional address map
//!   *without running it*. Its error-severity diagnostics are precisely
//!   the conditions under which [`crate::Machine::run`] would fail (or
//!   silently accept an out-of-contract stream): incongruent barrier
//!   sequences that deadlock, SPM ops without a scratchpad, SPM offsets
//!   past the configured capacity, LCP tile barriers, LCP SPM ops, and
//!   global accesses outside the mapped regions.
//!
//! * [`detect_races`] builds a barrier-epoch happens-before relation
//!   over the same [`ProgramSet`], walking each worker's ops in program
//!   order, and flags pairs of same-word accesses by different workers
//!   that are unordered and not both loads. Because the simulator
//!   replays address streams (no data), a race here means the *kernel
//!   generator* emitted an access pattern whose result would depend on
//!   timing on the real machine.
//!
//! A checked [`crate::ProgramBuilder`] build runs both on the program
//! that executes: the same per-op checks online (unmapped addresses
//! included), and the same race relation over its emitted accesses.
//! The relation depends only on program order, so both race detectors
//! share one finder and return equal reports.
//!
//! The contract between the two layers: a program set that lints clean
//! under a legal configuration runs to completion, and a shipped kernel
//! must additionally be race-free.

use crate::config::{Geometry, HwConfig, L1Mode, MicroArch};
use crate::op::{Addr, Op};
use std::fmt;

/// How serious a lint finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but runnable (e.g. a zero-cycle compute burst, which
    /// the machine silently clamps to one cycle).
    Warning,
    /// The run would fail or access memory out of contract.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// What a lint diagnostic is about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintKind {
    /// Two PEs of the same tile disagree on their barrier sequences —
    /// the run would end in [`crate::SimError::BarrierDeadlock`].
    BarrierMismatch {
        /// Tile whose PEs disagree.
        tile: usize,
        /// Reference worker the sequence is compared against.
        reference: usize,
        /// Barrier index (position in the stream's barrier projection)
        /// where the sequences first diverge.
        barrier_index: usize,
    },
    /// Workers disagree on their global-barrier counts — the run would
    /// end in [`crate::SimError::BarrierDeadlock`].
    GlobalBarrierMismatch {
        /// Reference worker the count is compared against.
        reference: usize,
        /// The reference worker's global-barrier count.
        expected: usize,
        /// This worker's global-barrier count.
        found: usize,
    },
    /// An LCP stream contains a tile barrier (tile barriers synchronize
    /// PEs only) — the run would fail with [`crate::SimError::LcpBarrier`].
    LcpTileBarrier,
    /// An SPM op under a cache-only configuration — the run would fail
    /// with [`crate::SimError::SpmUnavailable`].
    SpmUnavailable {
        /// The active configuration.
        config: HwConfig,
    },
    /// An LCP stream contains an SPM op; LCPs have no scratchpad port,
    /// so the run would fail with [`crate::SimError::SpmUnavailable`].
    LcpSpmAccess,
    /// An SPM offset at or past the configured scratchpad capacity. The
    /// simulator wraps such offsets modulo the bank size, silently
    /// aliasing unrelated kernel state.
    SpmOffsetOutOfRange {
        /// The offending byte offset.
        offset: u32,
        /// Configured capacity in bytes (per tile for SCS, per PE for PS).
        capacity: usize,
    },
    /// A global load/store outside every mapped [`RegionMap`] region.
    UnmappedAddress {
        /// The offending byte address.
        addr: Addr,
    },
    /// `Compute(0)`: the machine clamps it to one cycle, so the kernel's
    /// cost model and the simulated timing disagree.
    ZeroCycleCompute,
    /// The configuration itself is unrealisable on this geometry (SCS
    /// needs at least two L1 banks per tile to split cache from SPM).
    UnsupportedConfig {
        /// The active configuration.
        config: HwConfig,
    },
    /// A global-memory store provably overwritten before any worker
    /// reads it ([`crate::analyze`]; private-L2 configs only, where the
    /// analysis is word-granular).
    DeadStore {
        /// Byte address of the dead store.
        addr: Addr,
    },
    /// A scratchpad write whose slot is never read back before the next
    /// overwrite or the end of the program ([`crate::analyze`]).
    DeadSpmWrite {
        /// Byte offset of the dead SPM write.
        offset: u32,
    },
    /// Two workers store to the same location in different epochs with
    /// no intervening read: the first value is lost unseen
    /// ([`crate::analyze`]).
    CrossEpochWriteHazard {
        /// Byte address of the hazard (line-granular under a shared L2).
        addr: Addr,
        /// First store's provenance: `(worker, epoch, pc)`.
        first: (usize, usize, usize),
        /// Overwriting store's provenance: `(worker, epoch, pc)`.
        second: (usize, usize, usize),
    },
    /// A global barrier separating epochs with no cross-worker
    /// dependence between them: removing it would not reorder any
    /// access to a shared location ([`crate::analyze`]).
    RedundantBarrier {
        /// 0-based ordinal of the redundant global barrier.
        barrier_index: usize,
    },
}

/// One lint finding, attached to a worker and (where meaningful) an op
/// position within that worker's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Global worker id the finding is about.
    pub worker: usize,
    /// Position of the offending op in the worker's stream, if the
    /// finding is about a specific op.
    pub position: Option<usize>,
    /// Finding severity.
    pub severity: Severity,
    /// What was found.
    pub kind: LintKind,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: worker {}", self.severity, self.worker)?;
        if let Some(p) = self.position {
            write!(f, ", op {p}")?;
        }
        write!(f, ": ")?;
        match &self.kind {
            LintKind::BarrierMismatch {
                tile,
                reference,
                barrier_index,
            } => write!(
                f,
                "barrier sequence diverges from tile {tile}'s reference PE (worker \
                 {reference}) at barrier {barrier_index}; the run would deadlock"
            ),
            LintKind::GlobalBarrierMismatch {
                reference,
                expected,
                found,
            } => write!(
                f,
                "{found} global barrier(s), but worker {reference} has {expected}; \
                 the run would deadlock"
            ),
            LintKind::LcpTileBarrier => {
                write!(
                    f,
                    "LCP issues a tile barrier (tile barriers synchronize PEs only)"
                )
            }
            LintKind::SpmUnavailable { config } => {
                write!(f, "SPM op under {config}, which exposes no scratchpad")
            }
            LintKind::LcpSpmAccess => write!(f, "LCP issues an SPM op (LCPs have no SPM port)"),
            LintKind::SpmOffsetOutOfRange { offset, capacity } => write!(
                f,
                "SPM offset {offset} outside the configured {capacity}-byte scratchpad"
            ),
            LintKind::UnmappedAddress { addr } => {
                write!(f, "global access to {addr:#x} outside every mapped region")
            }
            LintKind::ZeroCycleCompute => {
                write!(f, "Compute(0) burst; the machine clamps it to 1 cycle")
            }
            LintKind::UnsupportedConfig { config } => {
                write!(f, "{config} is unrealisable on this geometry")
            }
            LintKind::DeadStore { addr } => {
                write!(f, "store to {addr:#x} is dead: overwritten before any read")
            }
            LintKind::DeadSpmWrite { offset } => {
                write!(f, "spm store at offset {offset} is dead: never read back")
            }
            LintKind::CrossEpochWriteHazard {
                addr,
                first,
                second,
            } => write!(
                f,
                "cross-epoch write-write hazard on {addr:#x}: worker {} (epoch {}, op {}) \
                 overwritten by worker {} (epoch {}, op {}) with no intervening read",
                first.0, first.1, first.2, second.0, second.1, second.2
            ),
            LintKind::RedundantBarrier { barrier_index } => write!(
                f,
                "global barrier {barrier_index} separates provably independent epochs; \
                 elision candidate"
            ),
        }
    }
}

/// A named, half-open `[start, start + bytes)` slice of the simulated
/// global address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Human-readable name, used in diagnostics and reports.
    pub name: &'static str,
    /// First byte address.
    pub start: Addr,
    /// Length in bytes.
    pub bytes: u64,
}

/// The set of address regions a kernel is allowed to touch.
///
/// The linter checks every `Load`/`Store` against this map; the race
/// detector uses it only to *name* racy addresses in reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionMap {
    regions: Vec<Region>,
}

impl RegionMap {
    /// An empty map (every access is unmapped).
    pub fn new() -> Self {
        RegionMap::default()
    }

    /// Adds a region. Zero-length regions are kept but match nothing.
    pub fn add(&mut self, name: &'static str, start: Addr, bytes: u64) -> &mut Self {
        self.regions.push(Region { name, start, bytes });
        self
    }

    /// The mapped regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The region containing the word at `addr` (the access must fit:
    /// `addr + word_bytes` must not run past the region's end).
    pub fn locate(&self, addr: Addr, word_bytes: u64) -> Option<&Region> {
        self.regions
            .iter()
            .find(|r| addr >= r.start && addr + word_bytes <= r.start + r.bytes)
    }

    /// True if the word at `addr` lies inside some region.
    pub fn contains(&self, addr: Addr, word_bytes: u64) -> bool {
        self.locate(addr, word_bytes).is_some()
    }
}

/// Every worker's ops in a buffer: the op-stream reference's one
/// container. [`lint`] and [`detect_races`] inspect it, and
/// [`crate::Machine::run`] walks it (as often as asked; the buffers are
/// borrowed).
///
/// Workers without a stream stay idle and take no part in barriers.
#[derive(Debug, Clone)]
pub struct ProgramSet {
    geom: Geometry,
    programs: Vec<Option<Vec<Op>>>,
    /// The worker [`ProgramSet::push`] appends to: the last one assigned.
    open: Option<usize>,
}

impl ProgramSet {
    /// Creates an empty set for `geom` (no worker has a stream).
    pub fn new(geom: Geometry) -> Self {
        ProgramSet {
            geom,
            programs: vec![None; geom.total_workers()],
            open: None,
        }
    }

    /// Assigns PE `(tile, pe)`'s ops, replacing any it had; later
    /// [`ProgramSet::push`] calls append to them.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set_pe(&mut self, tile: usize, pe: usize, ops: impl IntoIterator<Item = Op>) {
        self.set(self.geom.pe_id(tile, pe), ops);
    }

    /// Assigns tile `tile`'s LCP ops, replacing any it had; later
    /// [`ProgramSet::push`] calls append to them.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range.
    pub fn set_lcp(&mut self, tile: usize, ops: impl IntoIterator<Item = Op>) {
        self.set(self.geom.lcp_id(tile), ops);
    }

    fn set(&mut self, w: usize, ops: impl IntoIterator<Item = Op>) {
        self.programs[w] = Some(ops.into_iter().collect());
        self.open = Some(w);
    }

    /// Appends `op` to the stream assigned last.
    ///
    /// # Panics
    ///
    /// Panics if no stream was assigned yet.
    #[inline]
    pub fn push(&mut self, op: Op) {
        let w = self.open.expect("no worker stream assigned");
        self.programs[w].get_or_insert_with(Vec::new).push(op);
    }

    /// Geometry this set was built for.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// Worker `w`'s ops, if it has a stream.
    pub fn worker(&self, w: usize) -> Option<&[Op]> {
        self.programs.get(w).and_then(|p| p.as_deref())
    }
}

/// Statically checks `programs` against the configuration the machine
/// would run them under. Returns every finding; the set is safe to run
/// iff no finding has [`Severity::Error`].
///
/// `regions` enables the unmapped-address check; pass `None` when the
/// kernel's address map is unknown (e.g. hand-written test streams).
pub fn lint(
    programs: &ProgramSet,
    hw: HwConfig,
    ua: &MicroArch,
    regions: Option<&RegionMap>,
) -> Vec<Diagnostic> {
    let geom = programs.geometry();
    let mut diags = Vec::new();

    if hw == HwConfig::Scs && geom.pes_per_tile() < 2 {
        diags.push(Diagnostic {
            worker: 0,
            position: None,
            severity: Severity::Error,
            kind: LintKind::UnsupportedConfig { config: hw },
        });
        // The capacity math below is meaningless on this geometry.
        return diags;
    }

    let has_spm = !matches!(hw.l1(), L1Mode::SharedCache | L1Mode::PrivateCache);
    let spm_capacity = match hw.l1() {
        L1Mode::SharedCacheSpm => ua.spm_bytes_per_tile(geom.pes_per_tile(), hw.l1()),
        L1Mode::PrivateSpm => ua.spm_bytes_per_pe(hw.l1()),
        _ => 0,
    };
    let word = ua.word_bytes as u64;

    // Per-op checks, and per-worker barrier projections for the
    // congruence checks below.
    let mut barrier_seqs: Vec<Option<Vec<Op>>> = vec![None; geom.total_workers()];
    for (w, seq_slot) in barrier_seqs.iter_mut().enumerate() {
        let Some(ops) = programs.worker(w) else {
            continue;
        };
        let (_, pe) = geom.locate(w);
        let is_lcp = pe.is_none();
        let mut barriers = Vec::new();
        for (pos, &op) in ops.iter().enumerate() {
            match op {
                Op::Compute(0) => diags.push(Diagnostic {
                    worker: w,
                    position: Some(pos),
                    severity: Severity::Warning,
                    kind: LintKind::ZeroCycleCompute,
                }),
                Op::Compute(_) => {}
                Op::Load(addr) | Op::Store(addr) => {
                    if let Some(map) = regions {
                        if !map.contains(addr, word) {
                            diags.push(Diagnostic {
                                worker: w,
                                position: Some(pos),
                                severity: Severity::Error,
                                kind: LintKind::UnmappedAddress { addr },
                            });
                        }
                    }
                }
                Op::SpmLoad(off) | Op::SpmStore(off) => {
                    if !has_spm {
                        diags.push(Diagnostic {
                            worker: w,
                            position: Some(pos),
                            severity: Severity::Error,
                            kind: LintKind::SpmUnavailable { config: hw },
                        });
                    } else if is_lcp {
                        diags.push(Diagnostic {
                            worker: w,
                            position: Some(pos),
                            severity: Severity::Error,
                            kind: LintKind::LcpSpmAccess,
                        });
                    } else if off as u64 + word > spm_capacity as u64 {
                        diags.push(Diagnostic {
                            worker: w,
                            position: Some(pos),
                            severity: Severity::Error,
                            kind: LintKind::SpmOffsetOutOfRange {
                                offset: off,
                                capacity: spm_capacity,
                            },
                        });
                    }
                }
                Op::TileBarrier => {
                    if is_lcp {
                        diags.push(Diagnostic {
                            worker: w,
                            position: Some(pos),
                            severity: Severity::Error,
                            kind: LintKind::LcpTileBarrier,
                        });
                    } else {
                        barriers.push(op);
                    }
                }
                Op::GlobalBarrier => barriers.push(op),
            }
        }
        *seq_slot = Some(barriers);
    }

    // Tile congruence: within a tile, every stream-bearing PE must have
    // an identical barrier projection — this is exactly the condition
    // under which the machine's per-tile barrier counting terminates
    // (see `verify_props` for the property test of this equivalence).
    for tile in 0..geom.tiles() {
        let mut reference: Option<(usize, &[Op])> = None;
        for pe in 0..geom.pes_per_tile() {
            let w = geom.pe_id(tile, pe);
            let Some(seq) = barrier_seqs[w].as_deref() else {
                continue;
            };
            match reference {
                None => reference = Some((w, seq)),
                Some((rw, rseq)) => {
                    if seq != rseq {
                        let barrier_index = rseq
                            .iter()
                            .zip(seq.iter())
                            .position(|(a, b)| a != b)
                            .unwrap_or_else(|| rseq.len().min(seq.len()));
                        diags.push(Diagnostic {
                            worker: w,
                            position: None,
                            severity: Severity::Error,
                            kind: LintKind::BarrierMismatch {
                                tile,
                                reference: rw,
                                barrier_index,
                            },
                        });
                    }
                }
            }
        }
    }

    // Global congruence: every stream-bearing worker must pass the same
    // number of global barriers.
    let mut reference: Option<(usize, usize)> = None;
    for (w, seq) in barrier_seqs.iter().enumerate() {
        let Some(seq) = seq.as_deref() else { continue };
        let globals = seq.iter().filter(|&&op| op == Op::GlobalBarrier).count();
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

    diags
}

/// True if `diags` contains no [`Severity::Error`] finding.
pub fn is_clean(diags: &[Diagnostic]) -> bool {
    diags.iter().all(|d| d.severity < Severity::Error)
}

/// The flavour of a detected race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// Two stores to the same word.
    StoreStore,
    /// A load and a store of the same word.
    LoadStore,
}

/// Where a racy word lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RaceSite {
    /// A word in the global address space (byte address of the word).
    Global(Addr),
    /// A word in a tile's shared scratchpad (SCS mode).
    SharedSpm {
        /// The tile whose SPM is involved.
        tile: usize,
        /// Byte offset of the word.
        offset: u32,
    },
}

impl fmt::Display for RaceSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaceSite::Global(a) => write!(f, "global {a:#x}"),
            RaceSite::SharedSpm { tile, offset } => {
                write!(f, "tile {tile} shared SPM offset {offset}")
            }
        }
    }
}

/// One conflict: two accesses to the same word, by different workers,
/// with no barrier between them, at least one a store.
///
/// Every field is a program-order fact, so the stream detector
/// ([`detect_races`]) and a checked [`crate::ProgramBuilder`] build
/// report equal races for the same streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// [`RaceKind::StoreStore`] if any unordered store/store pair exists
    /// on the word in this epoch, else [`RaceKind::LoadStore`].
    pub kind: RaceKind,
    /// The contested word.
    pub site: RaceSite,
    /// The smallest `(lower, higher)` worker pair with a conflict of
    /// `kind`.
    pub workers: (u32, u32),
    /// The global-barrier epoch both accesses fall in.
    pub epoch: usize,
}

impl fmt::Display for Race {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            RaceKind::StoreStore => "store/store",
            RaceKind::LoadStore => "load/store",
        };
        write!(
            f,
            "{kind} race on {} between workers {} and {} in global epoch {}",
            self.site, self.workers.0, self.workers.1, self.epoch
        )
    }
}

/// One memory access as race detection sees it. The fields are
/// program-order facts — which word, which worker, how many global and
/// tile barriers that worker had passed — so recording them needs no
/// schedule: the stream detector reads them off a [`ProgramSet`], a
/// checked [`crate::ProgramBuilder`] build off its emission.
///
/// The derived order (site, epoch, worker, ...) groups one word's
/// accesses in one global epoch together, workers ascending.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct RaceAccess {
    pub(crate) site: RaceSite,
    /// Global barriers the worker had passed.
    pub(crate) epoch: u32,
    pub(crate) worker: u32,
    /// Tile barriers the worker had passed.
    pub(crate) tile_bars: u32,
    pub(crate) store: bool,
    pub(crate) tile: u32,
    /// False for an LCP.
    pub(crate) pe: bool,
}

impl RaceAccess {
    /// The race site of a global access to `addr`, word-granular.
    pub(crate) fn global(addr: Addr, word: u64) -> RaceSite {
        RaceSite::Global(addr / word * word)
    }

    /// The race site of a shared-SPM access to `offset` on `tile`.
    pub(crate) fn shared_spm(tile: usize, offset: u32, word: u64) -> RaceSite {
        RaceSite::SharedSpm {
            tile,
            offset: offset / word as u32 * word as u32,
        }
    }

    /// True if a barrier orders `self` and `other`, two accesses of one
    /// global epoch: PEs of the same tile are ordered by tile barriers,
    /// everyone else only by global barriers.
    fn ordered(&self, other: &RaceAccess) -> bool {
        self.pe && other.pe && self.tile == other.tile && self.tile_bars != other.tile_bars
    }
}

/// The race finder both detectors share: buckets `accesses` by (word,
/// global epoch) and reports at most one [`Race`] per bucket that holds
/// an unordered conflicting pair. The witness is schedule-independent
/// (see [`Race`]) and the report is sorted by (epoch, site). Sorts and
/// dedups `accesses` in place.
pub(crate) fn find_races(accesses: &mut Vec<RaceAccess>) -> Vec<Race> {
    accesses.sort_unstable();
    accesses.dedup();
    let mut races = Vec::new();
    for bucket in accesses.chunk_by(|a, b| a.site == b.site && a.epoch == b.epoch) {
        // Sorted by worker: one worker alone cannot race.
        if bucket[0].worker == bucket[bucket.len() - 1].worker || !bucket.iter().any(|a| a.store) {
            continue;
        }
        // Smallest (kind, workers) key, store/store first.
        let mut best: Option<(bool, (u32, u32))> = None;
        for (i, a) in bucket.iter().enumerate() {
            for b in &bucket[i + 1..] {
                if a.worker == b.worker || !(a.store || b.store) || a.ordered(b) {
                    continue;
                }
                let key = (!(a.store && b.store), (a.worker, b.worker));
                if best.is_none_or(|k| key < k) {
                    best = Some(key);
                }
            }
        }
        if let Some((load_store, workers)) = best {
            races.push(Race {
                kind: if load_store {
                    RaceKind::LoadStore
                } else {
                    RaceKind::StoreStore
                },
                site: bucket[0].site,
                workers,
                epoch: bucket[0].epoch as usize,
            });
        }
    }
    races.sort_by_key(|r| (r.epoch, r.site));
    races
}

/// Detects data races in `programs`, as they would run under `hw`.
///
/// Happens-before is barrier-epoch based: each worker carries a
/// global-barrier counter and a tile-barrier counter, advanced by its
/// barrier ops in program order. Two accesses to the same word conflict
/// when they come from different workers, at least one is a store,
/// they share the global epoch, and — if both workers are PEs of the
/// same tile — they also share the tile epoch. Private scratchpads (PS)
/// cannot race by construction and are skipped, as are the SPM ops
/// [`lint`] rejects: any under a cache-only configuration, and any from
/// an LCP.
///
/// Nothing runs, so the result holds for every schedule: it equals the
/// races a checked [`crate::ProgramBuilder`] build of the same streams
/// attaches ([`crate::Program::races`]). At most one race is reported
/// per (word, global epoch).
pub fn detect_races(programs: &ProgramSet, hw: HwConfig, ua: &MicroArch) -> Vec<Race> {
    let geom = programs.geometry();
    let word = ua.word_bytes as u64;
    let shared_spm = hw.l1() == L1Mode::SharedCacheSpm;
    let mut accesses = Vec::new();

    for w in 0..geom.total_workers() {
        let Some(ops) = programs.worker(w) else {
            continue;
        };
        let (tile, pe) = geom.locate(w);
        let (mut epoch, mut tile_bars) = (0u32, 0u32);
        for &op in ops {
            let site = match op {
                Op::GlobalBarrier => {
                    epoch += 1;
                    continue;
                }
                Op::TileBarrier => {
                    tile_bars += 1;
                    continue;
                }
                Op::Compute(_) => continue,
                Op::Load(addr) | Op::Store(addr) => RaceAccess::global(addr, word),
                Op::SpmLoad(off) | Op::SpmStore(off) => {
                    if !shared_spm || pe.is_none() {
                        continue;
                    }
                    RaceAccess::shared_spm(tile, off, word)
                }
            };
            accesses.push(RaceAccess {
                site,
                epoch,
                worker: w as u32,
                tile_bars,
                store: matches!(op, Op::Store(_) | Op::SpmStore(_)),
                tile: tile as u32,
                pe: pe.is_some(),
            });
        }
    }
    find_races(&mut accesses)
}
