//! The simulated machine: workers (PEs + LCPs) executing op streams
//! against the reconfigurable memory system.
//!
//! The event loop is batched event-driven: a min-heap orders workers by
//! their next issue cycle, and all workers issuing in the same cycle are
//! processed together so same-cycle bank conflicts serialize exactly as
//! the arbitrated crossbar would.

use crate::cache::CacheBank;
use crate::config::{Geometry, HwConfig, MicroArch};
use crate::energy::EnergyModel;
use crate::memsys::{MemSnapshot, MemorySystem};
use crate::op::Op;
use crate::program::{exec_span, Program};
use crate::stats::{MemoStats, SimReport, SimStats};
use crate::trace::TraceEvent;
use crate::verify::{self, Diagnostic, ProgramSet, RegionMap};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Errors surfaced by a simulation run.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum SimError {
    /// A worker issued an SPM op while the configuration exposes no SPM
    /// to it: a cache-only configuration, or an LCP (LCPs have no SPM
    /// port).
    SpmUnavailable {
        /// The active configuration.
        config: HwConfig,
        /// The offending worker id.
        worker: usize,
    },
    /// An LCP issued a tile barrier (tile barriers synchronize PEs only).
    LcpBarrier {
        /// The offending tile.
        tile: usize,
    },
    /// The run ended with workers still blocked at a barrier (mismatched
    /// barrier counts across a tile's streams — a kernel bug).
    BarrierDeadlock {
        /// Workers left blocked.
        blocked: Vec<usize>,
    },
    /// The program set or program was built for a different geometry.
    GeometryMismatch {
        /// Geometry of the machine.
        machine: Geometry,
        /// Geometry the streams were built for.
        streams: Geometry,
    },
    /// The streams were rejected before running: the lint verdict
    /// ([`Machine::run_verified`]'s, or the one every [`Program`]
    /// carries) has error-severity diagnostics.
    Rejected {
        /// Every finding (warnings included); at least one has
        /// [`verify::Severity::Error`].
        diagnostics: Vec<Diagnostic>,
    },
    /// [`Machine::run_program`] was given a program built for a
    /// different hardware configuration or microarchitecture than the
    /// machine's current one.
    ProgramMismatch {
        /// The machine's active configuration.
        machine: HwConfig,
        /// The configuration the program was built for.
        program: HwConfig,
    },
    /// A frontier's dimension does not match the operand matrix's
    /// column count.
    DimensionMismatch {
        /// The matrix's column count.
        expected: usize,
        /// The frontier's dimension.
        found: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::SpmUnavailable { config, worker } => {
                write!(
                    f,
                    "worker {worker} issued an spm op but has no scratchpad under {config}"
                )
            }
            SimError::LcpBarrier { tile } => {
                write!(f, "lcp of tile {tile} issued a tile barrier")
            }
            SimError::BarrierDeadlock { blocked } => {
                write!(f, "run ended with workers {blocked:?} blocked at a barrier")
            }
            SimError::GeometryMismatch { machine, streams } => {
                write!(f, "streams built for {streams} but machine is {machine}")
            }
            SimError::Rejected { diagnostics } => {
                let errors = diagnostics
                    .iter()
                    .filter(|d| d.severity == verify::Severity::Error)
                    .count();
                write!(f, "streams rejected by the verifier ({errors} error(s))")?;
                if let Some(first) = diagnostics
                    .iter()
                    .find(|d| d.severity == verify::Severity::Error)
                {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            SimError::ProgramMismatch { machine, program } => {
                write!(
                    f,
                    "program built for {program} but machine is configured as {machine} \
                     (or for a different microarchitecture)"
                )
            }
            SimError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "frontier has dimension {found} but the matrix has {expected} columns"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Default)]
pub(crate) struct BarrierState {
    pub(crate) expected: usize,
    pub(crate) waiting: Vec<(u32, u64)>, // (worker, arrival cycle)
}

/// Sentinel for "worker not scheduled" in the scan scheduler.
const IDLE: u64 = u64::MAX;

/// Bits reserved for the worker id inside a packed scan key.
const KEY_W_BITS: u32 = 6;

/// Pending-event scheduler. Pops the worker with the earliest next
/// issue cycle, breaking ties toward the lowest worker id (the order a
/// `BinaryHeap<Reverse<(u64, u32)>>` yields) — the tie order is
/// load-bearing: same-cycle bank-conflict serialization depends on it.
///
/// Each worker has at most one scheduled event. For the small worker
/// counts typical here, events live in a dense slot array of packed
/// `cycle << 6 | worker` keys (idle slots hold `u64::MAX`), so "find
/// next event" is a branch-free minimum over a few u64 lanes — far
/// cheaper than heap sifting, and the packed key makes the min directly
/// encode the heap's `(cycle, worker)` lexicographic order. Large
/// geometries (or astronomically large cycle counts, which would
/// overflow the packing) fall back to the heap.
#[derive(Debug)]
pub(crate) enum Sched {
    /// Dense slot array plus a cached copy of its minimum key, so the
    /// hot "current worker is still earliest" test is a single compare
    /// instead of a scan. Invariant: `min` equals the smallest slot key
    /// (`IDLE` when all slots are idle).
    Scan {
        next: Vec<u64>,
        min: u64,
    },
    Heap(BinaryHeap<Reverse<(u64, u32)>>),
}

impl Sched {
    pub(crate) fn new(workers: usize, start: u64) -> Self {
        if workers <= 1 << KEY_W_BITS && start < IDLE >> (KEY_W_BITS + 1) {
            Sched::Scan {
                // Padded to a whole number of 8-lane chunks (pad slots
                // stay IDLE forever) so `min_key` unrolls into eight
                // independent minima.
                next: vec![IDLE; workers.max(1).div_ceil(8) * 8],
                min: IDLE,
            }
        } else {
            Sched::Heap(BinaryHeap::with_capacity(workers))
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, cycle: u64, w: u32) {
        match self {
            Sched::Scan { next, min } => {
                let key = (cycle << KEY_W_BITS) | w as u64;
                next[w as usize] = key;
                *min = (*min).min(key);
            }
            Sched::Heap(h) => h.push(Reverse((cycle, w))),
        }
    }

    /// Smallest packed key, or `IDLE` when nothing is scheduled. The
    /// slot array is padded to 8-lane chunks and the reduction keeps
    /// eight independent running minima, so it is branch-free and its
    /// compare chains run side by side. Baseline x86-64 has no packed
    /// unsigned 64-bit min (that needs AVX-512), so it compiles to
    /// scalar compare/`cmov` pairs, not SIMD min ops. This scan runs on
    /// nearly every context switch, inlined into the interpreter loop
    /// with [`Sched::step`].
    #[inline(always)]
    fn min_key(next: &[u64]) -> u64 {
        let mut lanes = [IDLE; 8];
        for chunk in next.chunks_exact(8) {
            for (lane, &k) in lanes.iter_mut().zip(chunk) {
                *lane = (*lane).min(k);
            }
        }
        let mut best = IDLE;
        for &l in &lanes {
            best = best.min(l);
        }
        best
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(u64, u32)> {
        match self {
            Sched::Scan { next, min } => {
                let key = *min;
                if key == IDLE {
                    return None;
                }
                let w = (key & ((1 << KEY_W_BITS) - 1)) as u32;
                next[w as usize] = IDLE;
                *min = Self::min_key(next);
                Some((key >> KEY_W_BITS, w))
            }
            Sched::Heap(h) => h.pop().map(|Reverse(e)| e),
        }
    }

    /// One combined step at the end of an op: worker `w` finished at
    /// `done`. If `w` is still the earliest runnable event, returns
    /// `None` (caller continues the same worker inline); otherwise
    /// schedules `w`, pops the actual minimum and returns it. Exactly
    /// equivalent to `push(done, w)` followed by `pop()`. The running
    /// worker has no slot, so the continue-inline fast path leaves the
    /// cached minimum untouched — no scan at all.
    #[inline(always)]
    pub(crate) fn step(&mut self, done: u64, w: u32) -> Option<(u64, u32)> {
        match self {
            Sched::Scan { next, min } => {
                let key = (done << KEY_W_BITS) | w as u64;
                debug_assert!(key != IDLE, "cycle count overflows packed key");
                let top = *min;
                if top < key {
                    next[w as usize] = key;
                    let tw = (top & ((1 << KEY_W_BITS) - 1)) as u32;
                    next[tw as usize] = IDLE;
                    *min = Self::min_key(next);
                    Some((top >> KEY_W_BITS, tw))
                } else {
                    None
                }
            }
            Sched::Heap(h) => {
                if let Some(&Reverse(top)) = h.peek() {
                    if top < (done, w) {
                        h.push(Reverse((done, w)));
                        return h.pop().map(|Reverse(e)| e);
                    }
                }
                None
            }
        }
    }
}

/// One recorded steady-state [`Machine::run_program`] execution.
///
/// A run is a pure function of `(program, pre-run bank state)` once the
/// reconfiguration carry is empty: [`MemorySystem::begin_run`] resets
/// every other piece of mutable state (run stats, HBM channels, claim
/// epoch, cycle clock). So when the same program is re-run from
/// behaviorally identical banks, the machine can reinstate the recorded
/// post-run state and report instead of re-simulating. Cycle counts are
/// bit-for-bit what a real run would produce, because the recorded run
/// *was* a real run from an equivalent state.
///
/// The machine keeps a short ring of these rather than one entry:
/// iterated identical runs usually converge not to a fixed point but to
/// a short *limit cycle* of bank states (set thrashing plus prefetch
/// aging make period 2-3 common), and a hit against any point on the
/// cycle keeps the machine on the cycle forever.
#[derive(Debug)]
struct SteadyState {
    /// [`Program::id`] of the recorded run.
    program_id: u64,
    /// Bank state the recorded run started from.
    pre: (Vec<CacheBank>, Vec<CacheBank>),
    /// Bank + HBM state the recorded run ended in.
    post: MemSnapshot,
    /// Run stats as left in the memory system (for inspection parity).
    post_stats: SimStats,
    /// The recorded run's report.
    report: SimReport,
}

/// Steady-state memo capacity: enough to span the limit cycles iterated
/// kernels actually settle into (the shared-cache IP kernel's bank
/// state recurs with period ≤ 12) with room for an interleaved second
/// program, while bounding retained bank snapshots.
const STEADY_ENTRIES: usize = 16;

/// How many distinct recent program ids the machine remembers to tell
/// long-lived artifacts apart from per-call scratch builds.
const RECENT_IDS: usize = 32;

/// The simulated Transmuter-like machine.
#[derive(Debug)]
pub struct Machine {
    mem: MemorySystem,
    carry: SimStats,
    carry_cycles: u64,
    /// Ring of recorded steady-state runs, most recent last.
    steady: Vec<SteadyState>,
    steady_hits: u64,
    steady_misses: u64,
    /// Program ids of recent [`Machine::run_program`] calls, most recent
    /// last. An id that recurs marks a long-lived cached artifact
    /// (iterated kernels re-run the same cached `Program`); scratch
    /// programs are rebuilt per call with a fresh id and never recur,
    /// so they skip the memo's snapshot cost entirely.
    recent_ids: Vec<u64>,
}

impl Machine {
    /// Creates a machine in the [`HwConfig::Sc`] baseline configuration.
    pub fn new(geom: Geometry, ua: MicroArch) -> Self {
        Machine {
            mem: MemorySystem::new(geom, ua, HwConfig::Sc),
            carry: SimStats::default(),
            carry_cycles: 0,
            steady: Vec::new(),
            steady_hits: 0,
            steady_misses: 0,
            recent_ids: Vec::new(),
        }
    }

    /// Steady-state memo hit/miss counters (a miss is a memo-eligible
    /// run that matched no recorded snapshot and was re-simulated).
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            hits: self.steady_hits,
            misses: self.steady_misses,
        }
    }

    /// Geometry of the machine.
    pub fn geometry(&self) -> Geometry {
        self.mem.geometry()
    }

    /// Current hardware configuration.
    pub fn config(&self) -> HwConfig {
        self.mem.config()
    }

    /// Microarchitecture parameters.
    pub fn uarch(&self) -> &MicroArch {
        self.mem.uarch()
    }

    /// SPM bytes one tile's PEs can use under the current configuration.
    pub fn spm_bytes_per_tile(&self) -> usize {
        self.mem.spm_bytes_per_tile()
    }

    /// L1 cache bytes per tile under the current configuration.
    pub fn l1_cache_bytes_per_tile(&self) -> usize {
        self.mem.l1_cache_bytes_per_tile()
    }

    /// Runtime-reconfigures the memory system (LCP-triggered in the real
    /// machine, ≤10-cycle switch plus dirty-line drain). The cost is
    /// carried into the report of whichever run comes next
    /// ([`Machine::run_program`], [`Machine::run`] or
    /// [`Machine::run_verified`]). Returns the cycle cost (0 when the
    /// configuration is unchanged).
    pub fn reconfigure(&mut self, hw: HwConfig) -> u64 {
        let before = self.mem.stats;
        let cost = self.mem.reconfigure(hw);
        // Isolate the reconfiguration's stat delta into the carry.
        let mut delta = self.mem.stats;
        delta = diff(&delta, &before);
        self.carry = self.carry.merge(&delta);
        self.carry_cycles += cost;
        cost
    }

    /// The op-stream reference: executes every worker's ops in
    /// `programs` to completion, one event-loop step per op, and reports
    /// cycles, stats and energy (including any pending reconfiguration
    /// cost). Unlike [`Machine::run_program`] it lints nothing first.
    /// Tests compare the program path against it;
    /// [`Machine::run_traced`] is the same run with its trace.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for geometry mismatches, SPM ops without SPM
    /// (under a cache-only configuration, or from an LCP), LCP tile
    /// barriers, or barrier deadlocks.
    pub fn run(&mut self, programs: &ProgramSet) -> Result<SimReport, SimError> {
        self.run_reference(programs, None)
    }

    /// [`Machine::run`], also returning one [`TraceEvent`] per op issued,
    /// in issue order (barriers at arrival, so each worker's events are
    /// its program order). The report equals what [`Machine::run`]
    /// returns from the same machine state.
    ///
    /// # Errors
    ///
    /// As [`Machine::run`].
    pub fn run_traced(
        &mut self,
        programs: &ProgramSet,
    ) -> Result<(SimReport, Vec<TraceEvent>), SimError> {
        let mut trace = Vec::new();
        let report = self.run_reference(programs, Some(&mut trace))?;
        Ok((report, trace))
    }

    /// The reference loop behind [`Machine::run`] and
    /// [`Machine::run_traced`]; records into `trace` when given one.
    fn run_reference(
        &mut self,
        programs: &ProgramSet,
        mut trace: Option<&mut Vec<TraceEvent>>,
    ) -> Result<SimReport, SimError> {
        let geom = self.geometry();
        if programs.geometry() != geom {
            return Err(SimError::GeometryMismatch {
                machine: geom,
                streams: programs.geometry(),
            });
        }
        self.mem.begin_run();

        let start = self.carry_cycles;
        let mut streams: Vec<Option<std::slice::Iter<'_, Op>>> = (0..geom.total_workers())
            .map(|w| programs.worker(w).map(<[Op]>::iter))
            .collect();
        let mut sched = Sched::new(geom.total_workers(), start);
        let mut tile_barriers: Vec<BarrierState> = Vec::with_capacity(geom.tiles());
        let mut global_barrier = BarrierState::default();
        for tile in 0..geom.tiles() {
            let expected = (0..geom.pes_per_tile())
                .filter(|&pe| streams[geom.pe_id(tile, pe)].is_some())
                .count();
            tile_barriers.push(BarrierState {
                expected,
                waiting: Vec::new(),
            });
        }
        for (w, s) in streams.iter().enumerate() {
            if s.is_some() {
                global_barrier.expected += 1;
                sched.push(start, w as u32);
            }
        }

        let mut last_done = start;
        let mut cur = sched.pop();
        'outer: while let Some((mut cycle, w)) = cur {
            let stream = streams[w as usize]
                .as_mut()
                .expect("scheduled worker has stream");
            // Inner loop: keep issuing this worker's ops while it
            // remains the earliest runnable event, avoiding a
            // scheduler round trip and stream re-borrow per op.
            loop {
                let Some(&op) = stream.next() else {
                    last_done = last_done.max(cycle);
                    cur = sched.pop();
                    continue 'outer;
                };
                self.mem.stats.ops += 1;
                let done = match op {
                    Op::Compute(n) => {
                        let n = n.max(1) as u64;
                        self.mem.stats.compute_cycles += n;
                        cycle + n
                    }
                    Op::Load(addr) => {
                        let done = self.mem.global_access(w as usize, addr, false, cycle);
                        self.mem.stats.mem_stall_cycles += (done - cycle).saturating_sub(1);
                        done
                    }
                    Op::Store(addr) => {
                        let done = self.mem.global_access(w as usize, addr, true, cycle);
                        self.mem.stats.mem_stall_cycles += (done - cycle).saturating_sub(1);
                        done
                    }
                    Op::SpmLoad(off) | Op::SpmStore(off) => {
                        if !self.mem.has_spm() || geom.locate(w as usize).1.is_none() {
                            return Err(SimError::SpmUnavailable {
                                config: self.config(),
                                worker: w as usize,
                            });
                        }
                        let is_store = matches!(op, Op::SpmStore(_));
                        let done = self.mem.spm_access(w as usize, off, is_store, cycle);
                        self.mem.stats.mem_stall_cycles += (done - cycle).saturating_sub(1);
                        done
                    }
                    Op::TileBarrier => {
                        let (tile, pe) = geom.locate(w as usize);
                        if pe.is_none() {
                            return Err(SimError::LcpBarrier { tile });
                        }
                        record(&mut trace, cycle, cycle, w, op);
                        let b = &mut tile_barriers[tile];
                        b.waiting.push((w, cycle));
                        if b.waiting.len() == b.expected {
                            release(b, cycle, &mut sched, &mut self.mem.stats);
                        }
                        cur = sched.pop();
                        continue 'outer;
                    }
                    Op::GlobalBarrier => {
                        record(&mut trace, cycle, cycle, w, op);
                        let b = &mut global_barrier;
                        b.waiting.push((w, cycle));
                        if b.waiting.len() == b.expected {
                            release(b, cycle, &mut sched, &mut self.mem.stats);
                        }
                        cur = sched.pop();
                        continue 'outer;
                    }
                };
                record(&mut trace, cycle, done, w, op);
                // Continue inline only if this worker would be popped
                // next anyway ((done, w) is the strict lexicographic
                // minimum) — otherwise yield to the scheduler. This
                // preserves the heap's exact issue order.
                match sched.step(done, w) {
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
            .flat_map(|b| b.waiting.iter().map(|&(w, _)| w as usize))
            .collect();
        blocked.extend(global_barrier.waiting.iter().map(|&(w, _)| w as usize));
        if !blocked.is_empty() {
            blocked.sort_unstable();
            return Err(SimError::BarrierDeadlock { blocked });
        }

        Ok(self.finish(last_done))
    }

    /// Shared run epilogue: syncs HBM counters, folds in the pending
    /// reconfiguration carry, and prices energy from the final stats
    /// (energy is a pure function of the stats, so it is identical no
    /// matter how the stats were produced).
    fn finish(&mut self, last_done: u64) -> SimReport {
        // HBM channel counters are synced once per run, not per access.
        self.mem.sync_hbm_stats();
        let stats = self.mem.stats.merge(&self.carry);
        self.carry = SimStats::default();
        self.carry_cycles = 0;
        let cycles = last_done;
        let geom = self.geometry();
        let ua = self.uarch();
        let energy = EnergyModel::paper_40nm().breakdown(&stats, cycles, ua.freq_hz, geom);
        SimReport {
            geometry: geom,
            config: self.config(),
            cycles,
            seconds: cycles as f64 / ua.freq_hz,
            stats,
            energy,
        }
    }

    /// Runs a [`Program`] built by a [`crate::ProgramBuilder`]: the
    /// pre-decoded twin of [`Machine::run`], with identical event-loop
    /// semantics and bit-for-bit identical cycle counts and statistics,
    /// on one host thread. A recurring program whose run would start
    /// from bank state the machine recorded before is served from the
    /// steady-state memo instead (see [`Machine::memo_stats`]).
    ///
    /// Every program carries the builder's lint verdict; one with
    /// error-severity findings is rejected before anything executes,
    /// exactly as [`Machine::run_verified`] rejects its op streams.
    ///
    /// This path records no trace: build once, replay many. For a
    /// trace, collect the same op streams in a [`ProgramSet`] and run
    /// them on [`Machine::run_traced`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::GeometryMismatch`] /
    /// [`SimError::ProgramMismatch`] when the program was built for a
    /// different machine and [`SimError::Rejected`] when its lint
    /// verdict carries errors. A clean verdict means the run completes;
    /// the deadlock check after the event loop
    /// ([`SimError::BarrierDeadlock`]) stays as a defence.
    pub fn run_program(&mut self, prog: &Program) -> Result<SimReport, SimError> {
        let geom = self.geometry();
        if prog.geometry() != geom {
            return Err(SimError::GeometryMismatch {
                machine: geom,
                streams: prog.geometry(),
            });
        }
        if prog.hw() != self.config() || prog.uarch() != self.uarch() {
            return Err(SimError::ProgramMismatch {
                machine: self.config(),
                program: prog.hw(),
            });
        }
        if !prog.lint_clean() {
            return Err(SimError::Rejected {
                diagnostics: prog.lint_diagnostics().to_vec(),
            });
        }
        // Steady-state memo: with no pending reconfiguration carry the
        // run is a pure function of (program, bank state) — begin_run
        // resets every other mutable structure. A repeat of the
        // recorded run reinstates its outcome; any other run from a
        // clean carry is recorded for the next repeat. Only programs
        // whose id has been seen before participate: a first-time id is
        // either a long-lived artifact on its cold run (nothing to hit
        // yet) or a per-call scratch build (can never hit), and
        // neither is worth a bank snapshot.
        let recurring = self.recent_ids.contains(&prog.id());
        if !recurring {
            if self.recent_ids.len() == RECENT_IDS {
                self.recent_ids.remove(0);
            }
            self.recent_ids.push(prog.id());
        }
        let memo_eligible =
            recurring && self.carry_cycles == 0 && self.carry == SimStats::default();
        if memo_eligible {
            let hit = self
                .steady
                .iter()
                .position(|s| s.program_id == prog.id() && self.mem.cache_state_matches(&s.pre));
            if let Some(i) = hit {
                let s = &self.steady[i];
                self.mem.begin_run();
                self.mem.restore(&s.post);
                self.mem.stats = s.post_stats;
                self.steady_hits += 1;
                return Ok(s.report.clone());
            }
            self.steady_misses += 1;
        }
        let pre = memo_eligible.then(|| self.mem.cache_state());
        self.mem.begin_run();
        let last_done = exec_span(&mut self.mem, prog, self.carry_cycles)?;
        let report = self.finish(last_done);
        if let Some(pre) = pre {
            if self.steady.len() == STEADY_ENTRIES {
                self.steady.remove(0);
            }
            self.steady.push(SteadyState {
                program_id: prog.id(),
                pre,
                post: self.mem.snapshot(),
                post_stats: self.mem.stats,
                report: report.clone(),
            });
        }
        Ok(report)
    }

    /// Lints `programs` against the machine's current configuration and,
    /// only if no error-severity diagnostic is found, runs them.
    ///
    /// `regions`, when given, enables the unmapped-address check (see
    /// [`verify::lint`]). The program set is borrowed, so callers can
    /// inspect or re-run it afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Rejected`] with every diagnostic when the
    /// linter finds errors, or any [`SimError`] the run itself produces.
    pub fn run_verified(
        &mut self,
        programs: &ProgramSet,
        regions: Option<&RegionMap>,
    ) -> Result<SimReport, SimError> {
        let geom = self.geometry();
        if programs.geometry() != geom {
            return Err(SimError::GeometryMismatch {
                machine: geom,
                streams: programs.geometry(),
            });
        }
        let diagnostics = verify::lint(programs, self.config(), self.uarch(), regions);
        if !verify::is_clean(&diagnostics) {
            return Err(SimError::Rejected { diagnostics });
        }
        self.run(programs)
    }
}

/// Appends one event to the reference loop's trace, if it keeps one.
#[inline]
fn record(trace: &mut Option<&mut Vec<TraceEvent>>, cycle: u64, done: u64, worker: u32, op: Op) {
    if let Some(t) = trace {
        t.push(TraceEvent {
            cycle,
            done,
            worker,
            op,
        });
    }
}

pub(crate) fn release(b: &mut BarrierState, cycle: u64, sched: &mut Sched, stats: &mut SimStats) {
    for &(worker, arrived) in &b.waiting {
        stats.barrier_stall_cycles += cycle - arrived;
        sched.push(cycle + 1, worker);
    }
    b.waiting.clear();
}

fn diff(after: &SimStats, before: &SimStats) -> SimStats {
    SimStats {
        ops: after.ops - before.ops,
        loads: after.loads - before.loads,
        stores: after.stores - before.stores,
        spm_accesses: after.spm_accesses - before.spm_accesses,
        compute_cycles: after.compute_cycles - before.compute_cycles,
        mem_stall_cycles: after.mem_stall_cycles - before.mem_stall_cycles,
        barrier_stall_cycles: after.barrier_stall_cycles - before.barrier_stall_cycles,
        l1_hits: after.l1_hits - before.l1_hits,
        l1_misses: after.l1_misses - before.l1_misses,
        l2_hits: after.l2_hits - before.l2_hits,
        l2_misses: after.l2_misses - before.l2_misses,
        l2_writeback_installs: after.l2_writeback_installs - before.l2_writeback_installs,
        xbar_traversals: after.xbar_traversals - before.xbar_traversals,
        conflict_cycles: after.conflict_cycles - before.conflict_cycles,
        hbm_line_reads: after.hbm_line_reads - before.hbm_line_reads,
        hbm_line_writes: after.hbm_line_writes - before.hbm_line_writes,
        hbm_queue_cycles: after.hbm_queue_cycles - before.hbm_queue_cycles,
        prefetches: after.prefetches - before.prefetches,
        reconfigurations: after.reconfigurations - before.reconfigurations,
        reconfig_cycles: after.reconfig_cycles - before.reconfig_cycles,
        flush_writebacks: after.flush_writebacks - before.flush_writebacks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::StreamBuilder;

    fn machine(tiles: usize, pes: usize) -> Machine {
        Machine::new(Geometry::new(tiles, pes), MicroArch::paper())
    }

    #[test]
    fn empty_run_is_zero_cycles() {
        let mut m = machine(2, 4);
        let r = m.run(&ProgramSet::new(m.geometry())).unwrap();
        assert_eq!(r.cycles, 0);
        assert_eq!(r.stats.ops, 0);
    }

    #[test]
    fn compute_only_stream_times_exactly() {
        let mut m = machine(1, 1);
        let mut s = ProgramSet::new(m.geometry());
        let mut p = StreamBuilder::new();
        p.compute(10).compute(5);
        s.set_pe(0, 0, p);
        let r = m.run(&s).unwrap();
        assert_eq!(r.cycles, 15);
        assert_eq!(r.stats.compute_cycles, 15);
        assert_eq!(r.stats.ops, 2);
    }

    #[test]
    fn parallel_workers_overlap() {
        let mut m = machine(2, 4);
        let mut s = ProgramSet::new(m.geometry());
        for t in 0..2 {
            for pe in 0..4 {
                let mut p = StreamBuilder::new();
                p.compute(100);
                s.set_pe(t, pe, p);
            }
        }
        let r = m.run(&s).unwrap();
        assert_eq!(r.cycles, 100, "independent compute must overlap fully");
        assert_eq!(r.stats.compute_cycles, 800);
    }

    #[test]
    fn memory_stalls_counted() {
        let mut m = machine(1, 1);
        let mut s = ProgramSet::new(m.geometry());
        let mut p = StreamBuilder::new();
        p.load(0x1000);
        s.set_pe(0, 0, p);
        let r = m.run(&s).unwrap();
        assert!(r.cycles > 50, "cold load must reach HBM");
        assert!(r.stats.mem_stall_cycles > 0);
        assert_eq!(r.stats.loads, 1);
    }

    #[test]
    fn tile_barrier_synchronizes() {
        let mut m = machine(1, 2);
        let mut s = ProgramSet::new(m.geometry());
        let mut fast = StreamBuilder::new();
        fast.compute(1).tile_barrier().compute(1);
        let mut slow = StreamBuilder::new();
        slow.compute(100).tile_barrier().compute(1);
        s.set_pe(0, 0, fast);
        s.set_pe(0, 1, slow);
        let r = m.run(&s).unwrap();
        assert!(r.cycles >= 102, "fast PE must wait: {}", r.cycles);
        assert!(r.stats.barrier_stall_cycles >= 99);
    }

    #[test]
    fn tile_barriers_are_per_tile() {
        let mut m = machine(2, 1);
        let mut s = ProgramSet::new(m.geometry());
        // Tile 0 barriers alone; tile 1 never barriers. Must not deadlock.
        let mut a = StreamBuilder::new();
        a.tile_barrier().compute(1);
        let mut b = StreamBuilder::new();
        b.compute(5);
        s.set_pe(0, 0, a);
        s.set_pe(1, 0, b);
        let r = m.run(&s).unwrap();
        assert!(r.cycles >= 5);
    }

    #[test]
    fn global_barrier_includes_lcp() {
        let mut m = machine(2, 1);
        let mut s = ProgramSet::new(m.geometry());
        for t in 0..2 {
            let mut p = StreamBuilder::new();
            p.compute(10).global_barrier().compute(1);
            s.set_pe(t, 0, p);
        }
        let mut lcp = StreamBuilder::new();
        lcp.compute(50).global_barrier();
        s.set_lcp(0, lcp);
        let r = m.run(&s).unwrap();
        assert!(r.cycles >= 51, "PEs must wait for LCP: {}", r.cycles);
    }

    #[test]
    fn barrier_deadlock_detected() {
        let mut m = machine(1, 2);
        let mut s = ProgramSet::new(m.geometry());
        let mut a = StreamBuilder::new();
        a.tile_barrier();
        let mut b = StreamBuilder::new();
        b.compute(1); // never barriers
        s.set_pe(0, 0, a);
        s.set_pe(0, 1, b);
        match m.run(&s) {
            Err(SimError::BarrierDeadlock { blocked }) => assert_eq!(blocked, vec![0]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn lcp_tile_barrier_rejected() {
        let mut m = machine(1, 1);
        let mut s = ProgramSet::new(m.geometry());
        let mut lcp = StreamBuilder::new();
        lcp.tile_barrier();
        s.set_lcp(0, lcp);
        assert!(matches!(m.run(&s), Err(SimError::LcpBarrier { tile: 0 })));
    }

    #[test]
    fn spm_without_spm_config_errors() {
        let mut m = machine(1, 1);
        assert_eq!(m.config(), HwConfig::Sc);
        let mut s = ProgramSet::new(m.geometry());
        let mut p = StreamBuilder::new();
        p.spm_load(0);
        s.set_pe(0, 0, p);
        assert!(matches!(m.run(&s), Err(SimError::SpmUnavailable { .. })));
    }

    /// LCPs have no SPM port: the reference loop returns an error for an
    /// LCP SPM op under an SPM-bearing configuration, and the lint
    /// rejects it before `run_verified` runs anything.
    #[test]
    fn lcp_spm_op_errors() {
        let mut m = machine(1, 2);
        m.reconfigure(HwConfig::Ps);
        let mut s = ProgramSet::new(m.geometry());
        s.set_lcp(0, [Op::SpmLoad(0)]);
        let lcp = m.geometry().lcp_id(0);
        assert!(matches!(
            m.run(&s),
            Err(SimError::SpmUnavailable { config: HwConfig::Ps, worker }) if worker == lcp
        ));
        assert!(matches!(
            m.run_traced(&s),
            Err(SimError::SpmUnavailable { worker, .. }) if worker == lcp
        ));
        assert!(matches!(
            m.run_verified(&s, None),
            Err(SimError::Rejected { .. })
        ));
    }

    /// SCS has no legal cache/SPM split on a 1-PE tile: reconfiguring
    /// into it keeps every bank a cache instead of panicking, and the
    /// tile's SPM ops are refused — by the reference loop at the first
    /// one, by the lint before a verified run starts.
    #[test]
    fn scs_on_one_pe_tiles_refuses_spm_ops() {
        let mut m = machine(2, 1);
        m.reconfigure(HwConfig::Scs);
        assert_eq!(m.config(), HwConfig::Scs);
        assert_eq!(
            m.l1_cache_bytes_per_tile(),
            MicroArch::paper().bank_bytes,
            "the one bank stays a cache"
        );
        let mut s = ProgramSet::new(m.geometry());
        s.set_pe(0, 0, [Op::Load(0), Op::SpmLoad(0)]);
        assert!(matches!(
            m.run(&s),
            Err(SimError::SpmUnavailable {
                config: HwConfig::Scs,
                worker: 0
            })
        ));
        assert!(matches!(
            m.run_verified(&s, None),
            Err(SimError::Rejected { .. })
        ));
    }

    #[test]
    fn geometry_mismatch_rejected() {
        let mut m = machine(1, 1);
        let s = ProgramSet::new(Geometry::new(2, 2));
        assert!(matches!(m.run(&s), Err(SimError::GeometryMismatch { .. })));
    }

    #[test]
    fn reconfigure_cost_carried_into_next_run() {
        let mut m = machine(1, 2);
        // Dirty some lines so the flush has work.
        let mut s = ProgramSet::new(m.geometry());
        let mut p = StreamBuilder::new();
        for i in 0..64 {
            p.store(0x1000 + i * 64);
        }
        s.set_pe(0, 0, p);
        let _ = m.run(&s).unwrap();
        let cost = m.reconfigure(HwConfig::Ps);
        assert!(cost >= 10);
        let mut s = ProgramSet::new(m.geometry());
        let mut p = StreamBuilder::new();
        p.compute(5);
        s.set_pe(0, 0, p);
        let r = m.run(&s).unwrap();
        assert_eq!(r.cycles, cost + 5);
        assert_eq!(r.stats.reconfigurations, 1);
        assert!(r.stats.flush_writebacks > 0);
        // Carry cleared after use.
        let mut s = ProgramSet::new(m.geometry());
        let mut p = StreamBuilder::new();
        p.compute(5);
        s.set_pe(0, 0, p);
        assert_eq!(m.run(&s).unwrap().cycles, 5);
    }

    #[test]
    fn energy_reported_positive() {
        let mut m = machine(1, 1);
        let mut s = ProgramSet::new(m.geometry());
        let mut p = StreamBuilder::new();
        p.compute(100).load(0).load(4);
        s.set_pe(0, 0, p);
        let r = m.run(&s).unwrap();
        assert!(r.joules() > 0.0);
        assert!(r.watts() > 0.0);
        assert!(r.seconds > 0.0);
    }

    #[test]
    fn spm_run_in_scs() {
        let mut m = machine(1, 4);
        m.reconfigure(HwConfig::Scs);
        let mut s = ProgramSet::new(m.geometry());
        let mut p = StreamBuilder::new();
        p.spm_store(0).spm_load(0).spm_load(4);
        s.set_pe(0, 0, p);
        let r = m.run(&s).unwrap();
        assert_eq!(r.stats.spm_accesses, 3);
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;
    use crate::op::{Op, StreamBuilder};

    #[test]
    fn lcp_only_stream_runs() {
        let mut m = Machine::new(Geometry::new(2, 2), MicroArch::paper());
        let mut s = ProgramSet::new(m.geometry());
        let mut p = StreamBuilder::new();
        p.compute(7).load(0x100).store(0x104);
        s.set_lcp(1, p);
        let r = m.run(&s).unwrap();
        assert!(r.cycles >= 7);
        assert_eq!(r.stats.loads, 1);
        assert_eq!(r.stats.stores, 1);
    }

    #[test]
    fn hbm_saturation_shows_in_queue_cycles() {
        // 32 PEs all streaming distinct regions: demand exceeds the 16
        // channels' service rate, so queue cycles must accumulate.
        let g = Geometry::new(4, 8);
        let mut m = Machine::new(g, MicroArch::paper());
        let mut s = ProgramSet::new(g);
        for t in 0..4 {
            for pe in 0..8 {
                let base = (t * 8 + pe) as u64 * 0x100_0000;
                s.set_pe(t, pe, (0..2_000u64).map(move |i| Op::Load(base + i * 64)));
            }
        }
        let r = m.run(&s).unwrap();
        assert!(
            r.stats.hbm_queue_cycles > 0,
            "no bandwidth pressure recorded"
        );
        assert!(r.stats.hbm_line_reads >= 32 * 2_000 / 2);
    }

    #[test]
    fn back_to_back_runs_keep_caches_warm() {
        let g = Geometry::new(1, 1);
        let mut m = Machine::new(g, MicroArch::paper());
        let make = || {
            // Pseudo-random lines (prefetch-immune) inside a 16 kB set
            // that fits in L1+L2.
            let mut p = StreamBuilder::new();
            let mut z = 0x1234_5678u64;
            for _ in 0..64u64 {
                z ^= z << 13;
                z ^= z >> 7;
                z ^= z << 17;
                p.load(0x4000 + (z % 256) * 64);
            }
            p.into_stream()
        };
        let mut s = ProgramSet::new(g);
        s.set_pe(0, 0, make());
        let cold = m.run(&s).unwrap();
        let mut s = ProgramSet::new(g);
        s.set_pe(0, 0, make());
        let warm = m.run(&s).unwrap();
        assert!(
            warm.cycles * 2 < cold.cycles,
            "second pass should hit: {} vs {}",
            warm.cycles,
            cold.cycles
        );
        // ... and reconfiguration flushes that warmth.
        m.reconfigure(HwConfig::Pc);
        m.reconfigure(HwConfig::Sc);
        let mut s = ProgramSet::new(g);
        s.set_pe(0, 0, make());
        let reflushed = m.run(&s).unwrap();
        assert!(reflushed.stats.l1_misses > warm.stats.l1_misses);
    }

    #[test]
    fn mixed_done_times_track_last_worker() {
        let g = Geometry::new(1, 4);
        let mut m = Machine::new(g, MicroArch::paper());
        let mut s = ProgramSet::new(g);
        for pe in 0..4 {
            let mut p = StreamBuilder::new();
            p.compute(10 * (pe as u32 + 1));
            s.set_pe(0, pe, p);
        }
        let r = m.run(&s).unwrap();
        assert_eq!(r.cycles, 40);
    }

    #[test]
    fn report_seconds_match_frequency() {
        let g = Geometry::new(1, 1);
        let mut m = Machine::new(g, MicroArch::paper());
        let mut s = ProgramSet::new(g);
        let mut p = StreamBuilder::new();
        p.compute(1_000);
        s.set_pe(0, 0, p);
        let r = m.run(&s).unwrap();
        assert!(
            (r.seconds - 1e-6).abs() < 1e-12,
            "1000 cycles @ 1 GHz = 1 µs"
        );
    }
}

#[cfg(test)]
mod program_tests {
    use super::*;
    use crate::op::StreamBuilder;
    use crate::program::build_ops;

    /// A barrier-heavy workload mixing compute, strided and pseudo-random
    /// global traffic, SPM ops (when `spm`), tile and global barriers —
    /// the op mix CoSPARSE kernels produce.
    fn workload(geom: Geometry, spm: bool) -> Vec<(usize, Vec<Op>)> {
        let mut streams = Vec::new();
        for tile in 0..geom.tiles() {
            for pe in 0..geom.pes_per_tile() {
                let w = geom.pe_id(tile, pe);
                let mut b = StreamBuilder::new();
                let mut z = (w as u64 + 1) * 0x9e37_79b9;
                for phase in 0..3u64 {
                    for i in 0..40u64 {
                        z ^= z << 13;
                        z ^= z >> 7;
                        z ^= z << 17;
                        b.compute((z % 4) as u32 + 1);
                        let base = phase * 0x10_0000 + w as u64 * 0x2000;
                        b.load(base + i * 64);
                        if z.is_multiple_of(3) {
                            b.store(0x80_0000 + (z % 512) * 64);
                        } else {
                            b.load(0x40_0000 + (z % 2048) * 64);
                        }
                        if spm && z.is_multiple_of(5) {
                            b.spm_store((z % 256) as u32 * 4);
                            b.spm_load((z % 256) as u32 * 4);
                        }
                    }
                    b.tile_barrier();
                    if phase < 2 {
                        b.global_barrier();
                    }
                }
                streams.push((w, ops(b)));
            }
            let mut lcp = StreamBuilder::new();
            lcp.compute(5);
            for phase in 0..3u64 {
                lcp.load(0xC0_0000 + tile as u64 * 0x1000 + phase * 64);
                lcp.store(0xC8_0000 + tile as u64 * 0x1000 + phase * 64);
                if phase < 2 {
                    lcp.global_barrier();
                }
            }
            streams.push((geom.lcp_id(tile), ops(lcp)));
        }
        streams
    }

    /// The same streams as a [`ProgramSet`], for [`Machine::run`].
    fn program_set(geom: Geometry, streams: &[(usize, Vec<Op>)]) -> ProgramSet {
        let mut s = ProgramSet::new(geom);
        for (w, ops) in streams {
            match geom.locate(*w) {
                (tile, Some(pe)) => s.set_pe(tile, pe, ops.iter().copied()),
                (tile, None) => s.set_lcp(tile, ops.iter().copied()),
            }
        }
        s
    }

    /// The same streams built into a program for `hw`.
    fn build(geom: Geometry, hw: HwConfig, streams: &[(usize, Vec<Op>)]) -> Program {
        build_ops(geom, hw, streams.iter().map(|(w, v)| (*w, v.as_slice())))
    }

    fn ops(b: StreamBuilder) -> Vec<Op> {
        b.into_stream().collect()
    }

    fn run_all_modes(hw: HwConfig) {
        let geom = Geometry::new(2, 4);
        let spm = matches!(hw, HwConfig::Scs | HwConfig::Ps);
        let streams = workload(geom, spm);
        let set = program_set(geom, &streams);
        let prog = build(geom, hw, &streams);
        let mut legacy = Machine::new(geom, MicroArch::paper());
        legacy.reconfigure(hw);
        let mut m = Machine::new(geom, MicroArch::paper());
        m.reconfigure(hw);
        // Four runs: cold, warm, then steady state — where a run may be
        // served from the steady-state memo. Every one must match the
        // legacy event loop bit for bit.
        for run in 0..4 {
            let want = legacy.run(&set).unwrap();
            let got = m.run_program(&prog).unwrap();
            assert_eq!(got.cycles, want.cycles, "{hw:?} run {run} cycle drift");
            assert_eq!(got.stats, want.stats, "{hw:?} run {run} stats drift");
        }
    }

    #[test]
    fn program_matches_run_sc() {
        run_all_modes(HwConfig::Sc);
    }

    #[test]
    fn program_matches_run_scs() {
        run_all_modes(HwConfig::Scs);
    }

    #[test]
    fn program_matches_run_pc() {
        run_all_modes(HwConfig::Pc);
    }

    #[test]
    fn program_matches_run_ps() {
        run_all_modes(HwConfig::Ps);
    }

    /// A working set small enough to be fully resident: the bank state
    /// reaches its behavioral fixed point after the first warm run, so
    /// every later identical run must be served from the memo — and the
    /// memoized reports must still match the legacy event loop exactly.
    #[test]
    fn steady_state_memo_hits_and_matches_legacy() {
        let geom = Geometry::new(2, 4);
        let mut streams: Vec<(usize, Vec<Op>)> = Vec::new();
        for tile in 0..geom.tiles() {
            for pe in 0..geom.pes_per_tile() {
                let w = geom.pe_id(tile, pe);
                let mut b = StreamBuilder::new();
                for i in 0..16u64 {
                    b.compute(2);
                    b.load(w as u64 * 0x1000 + i * 64);
                    if i % 4 == 0 {
                        b.store(0x20_0000 + w as u64 * 0x1000 + i * 64);
                    }
                }
                b.tile_barrier();
                streams.push((w, ops(b)));
            }
        }
        let set = program_set(geom, &streams);
        let prog = build(geom, HwConfig::Pc, &streams);
        let mut legacy = Machine::new(geom, MicroArch::paper());
        legacy.reconfigure(HwConfig::Pc);
        let mut m = Machine::new(geom, MicroArch::paper());
        m.reconfigure(HwConfig::Pc);
        for run in 0..5 {
            let want = legacy.run(&set).unwrap();
            let got = m.run_program(&prog).unwrap();
            assert_eq!(got, want, "run {run} diverged from the legacy loop");
        }
        // Run 0 carries the reconfiguration cost (no memo); the bank
        // state then needs one warm run to fix (cold-run prefetches age
        // out of the LRU order), so runs 3-4 replay the memo.
        let hits = m.memo_stats().hits;
        assert!(hits >= 2, "steady-state memo never engaged");

        // A rebuilt program gets a fresh identity from the builder's
        // begin(): the stale memo must not serve it, and the
        // re-simulated run must still agree.
        let prog2 = build(geom, HwConfig::Pc, &streams);
        assert_ne!(prog2.id(), prog.id());
        let want = legacy.run(&set).unwrap();
        let got = m.run_program(&prog2).unwrap();
        assert_eq!(got, want, "rebuilt program diverged");
        assert_eq!(
            m.memo_stats().hits,
            hits,
            "stale memo served a rebuilt program"
        );
    }

    /// Diagnostic for the ROADMAP note that memo periods above the ring
    /// capacity "wander chaotically" under SC: the memo ring is a FIFO
    /// of [`STEADY_ENTRIES`] snapshots, so a program whose recurrence
    /// period exceeds the capacity has its snapshot evicted before it
    /// comes around again and can *never* hit — every eligible run is a
    /// miss, which reads as chaotic wandering from the outside. The same
    /// workloads interleaved with a period inside the capacity hit fine.
    /// (The dense-IP flavor of this: one program whose *bank-state*
    /// trajectory has a long limit cycle — same capacity math, one id.)
    #[test]
    fn steady_memo_wanders_past_ring_capacity() {
        let geom = Geometry::new(2, 4);
        let program = |k: u64| {
            let mut streams: Vec<(usize, Vec<Op>)> = Vec::new();
            for tile in 0..geom.tiles() {
                for pe in 0..geom.pes_per_tile() {
                    let w = geom.pe_id(tile, pe);
                    let mut b = StreamBuilder::new();
                    for i in 0..8u64 {
                        b.compute(1);
                        // Distinct per-program working sets.
                        b.load(k * 0x10_0000 + w as u64 * 0x1000 + i * 64);
                    }
                    streams.push((w, ops(b)));
                }
            }
            build(geom, HwConfig::Sc, &streams)
        };
        let run_cycle = |count: usize| {
            let progs: Vec<Program> = (0..count as u64).map(program).collect();
            let mut m = Machine::new(geom, MicroArch::paper());
            m.reconfigure(HwConfig::Sc);
            for _ in 0..6 {
                for p in &progs {
                    m.run_program(p).unwrap();
                }
            }
            m.memo_stats()
        };

        // Recurrence period within the ring: the memo engages once each
        // program's bank state fixes.
        let inside = run_cycle(STEADY_ENTRIES / 2);
        assert!(
            inside.hits > 0,
            "period {} should fit the {}-entry ring: {:?}",
            STEADY_ENTRIES / 2,
            STEADY_ENTRIES,
            inside
        );

        // Recurrence period past the ring: every snapshot is evicted
        // before its program recurs — misses only, forever.
        let outside = run_cycle(STEADY_ENTRIES + 4);
        assert_eq!(
            outside.hits,
            0,
            "period {} cannot fit the {}-entry FIFO ring: {:?}",
            STEADY_ENTRIES + 4,
            STEADY_ENTRIES,
            outside
        );
        assert!(
            outside.misses > inside.misses,
            "the over-capacity cycle should miss on every eligible run"
        );
    }

    #[test]
    fn program_mismatch_rejected() {
        let geom = Geometry::new(1, 2);
        let mut b = StreamBuilder::new();
        b.compute(1);
        let streams = vec![(0usize, ops(b))];
        let prog = build(geom, HwConfig::Pc, &streams);
        let mut m = Machine::new(geom, MicroArch::paper());
        assert!(matches!(
            m.run_program(&prog),
            Err(SimError::ProgramMismatch { .. })
        ));
        let other = build(Geometry::new(2, 2), HwConfig::Sc, &streams);
        assert!(matches!(
            m.run_program(&other),
            Err(SimError::GeometryMismatch { .. })
        ));
    }

    /// Runs `streams` both ways on fresh SC machines: `run_verified`
    /// must reject the op streams, and `run_program` the built program
    /// with the same diagnostics, before executing anything.
    fn assert_rejected_like_run_verified(geom: Geometry, streams: &[(usize, Vec<Op>)]) {
        let mut m = Machine::new(geom, MicroArch::paper());
        let want = match m.run_verified(&program_set(geom, streams), None) {
            Err(SimError::Rejected { diagnostics }) => diagnostics,
            other => panic!("run_verified: expected a rejection, got {other:?}"),
        };
        let mut m = Machine::new(geom, MicroArch::paper());
        match m.run_program(&build(geom, HwConfig::Sc, streams)) {
            Err(SimError::Rejected { diagnostics }) => assert_eq!(diagnostics, want),
            other => panic!("run_program: expected a rejection, got {other:?}"),
        }
        assert_eq!(m.mem.stats.ops, 0, "a rejected program executes nothing");
    }

    /// Streams [`Machine::run`] fails on — an SPM op without SPM, an LCP
    /// tile barrier, mismatched tile-barrier counts — build into
    /// programs whose lint verdict rejects them.
    #[test]
    fn poisoned_program_is_rejected_like_run_verified() {
        let geom = Geometry::new(1, 2);
        let mut spm = StreamBuilder::new();
        spm.compute(2).spm_load(0);
        assert_rejected_like_run_verified(geom, &[(0, ops(spm))]);

        let mut bar = StreamBuilder::new();
        bar.tile_barrier();
        assert_rejected_like_run_verified(geom, &[(geom.lcp_id(0), ops(bar))]);

        let mut a = StreamBuilder::new();
        a.tile_barrier();
        let mut b = StreamBuilder::new();
        b.compute(1);
        assert_rejected_like_run_verified(geom, &[(0, ops(a)), (1, ops(b))]);
    }

    /// A global barrier whose peer stream has already finished can never
    /// complete: run() reports the waiting workers blocked, and the
    /// built program is rejected before it runs.
    #[test]
    fn global_barrier_after_peer_finished_deadlocks() {
        let geom = Geometry::new(2, 1);
        let mut a = StreamBuilder::new();
        a.compute(3).global_barrier().compute(1);
        let a_ops = ops(a);
        let mut b = StreamBuilder::new();
        b.compute(1);
        let streams = [
            (geom.pe_id(0, 0), a_ops.clone()),
            (geom.lcp_id(0), a_ops),
            (geom.pe_id(1, 0), ops(b)),
        ];
        let set = program_set(geom, &streams);
        for hw in [HwConfig::Sc, HwConfig::Pc] {
            let mut m = Machine::new(geom, MicroArch::paper());
            m.reconfigure(hw);
            let mut want = vec![geom.pe_id(0, 0), geom.lcp_id(0)];
            want.sort_unstable();
            match m.run(&set) {
                Err(SimError::BarrierDeadlock { blocked }) => assert_eq!(blocked, want),
                other => panic!("{hw}: run(): expected deadlock, got {other:?}"),
            }
        }
        assert_rejected_like_run_verified(geom, &streams);
    }

    #[test]
    fn reconfigure_carry_included_in_program_run() {
        let geom = Geometry::new(1, 2);
        let mut m = Machine::new(geom, MicroArch::paper());
        let mut s = ProgramSet::new(geom);
        let mut p = StreamBuilder::new();
        for i in 0..64 {
            p.store(0x1000 + i * 64);
        }
        s.set_pe(0, 0, p);
        let _ = m.run(&s).unwrap();
        let cost = m.reconfigure(HwConfig::Ps);
        assert!(cost >= 10);
        let mut b = StreamBuilder::new();
        b.compute(5);
        let prog = build(geom, HwConfig::Ps, &[(0, ops(b))]);
        let r = m.run_program(&prog).unwrap();
        assert_eq!(r.cycles, cost + 5);
        assert_eq!(r.stats.reconfigurations, 1);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::op::{Op, StreamBuilder};

    #[test]
    fn trace_captures_op_sequence() {
        let mut s = ProgramSet::new(Geometry::new(1, 2));
        let mut p = StreamBuilder::new();
        p.compute(3).load(0x40).store(0x44);
        s.set_pe(0, 0, p);
        let mut q = StreamBuilder::new();
        q.compute(1);
        s.set_pe(0, 1, q);
        let mut m = Machine::new(Geometry::new(1, 2), MicroArch::paper());
        let (report, trace) = m.run_traced(&s).unwrap();
        let mut plain = Machine::new(Geometry::new(1, 2), MicroArch::paper());
        assert_eq!(report, plain.run(&s).unwrap());
        assert_eq!(trace.len(), 4);
        let pe0: Vec<Op> = trace
            .iter()
            .filter(|e| e.worker == 0)
            .map(|e| e.op)
            .collect();
        assert_eq!(pe0, vec![Op::Compute(3), Op::Load(0x40), Op::Store(0x44)]);
        // Events are causally ordered per worker.
        let mut last = 0;
        for e in trace.iter().filter(|e| e.worker == 0) {
            assert!(e.cycle >= last);
            assert!(e.done >= e.cycle);
            last = e.done;
        }
    }
}
