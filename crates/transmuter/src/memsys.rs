//! The reconfigurable two-level memory system.
//!
//! Resolves each worker access to a completion cycle while updating
//! cache/SPM/HBM state and statistics. Latency composition follows
//! Table II: crossbar response (1 cycle), shared-crossbar arbitration
//! (1 cycle + 0..Nsrc−1 serialization on same-cycle same-bank
//! conflicts), bank access latency, and the HBM channel model.
//!
//! Bank interleaving is line-granular; because banks see only every
//! `nbanks`-th line, they index their sets with the *local* line
//! (`line / nbanks`) so the full capacity is usable.

use crate::cache::{CacheBank, ProbeResult};
use crate::config::{Geometry, HwConfig, L1Mode, L2Mode, MicroArch};
use crate::hbm::Hbm;
use crate::op::Addr;
use crate::stats::SimStats;

/// Claim-port kinds for same-cycle bank-conflict tracking (flattened to
/// an index together with the tile and bank, see
/// [`MemorySystem::port_index`]).
const PORT_L1: usize = 0;
const PORT_L2: usize = 1;
const PORT_SPM: usize = 2;
const PORT_KINDS: usize = 3;

/// Divide/modulo by a fixed divisor, reduced to shift/mask when the
/// divisor is a power of two (line sizes and bank counts almost always
/// are; the fallback keeps odd geometries correct).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FastDiv {
    n: u64,
    shift: Option<u32>,
}

impl FastDiv {
    pub(crate) fn new(n: u64) -> Self {
        let n = n.max(1);
        FastDiv {
            n,
            shift: n.is_power_of_two().then(|| n.trailing_zeros()),
        }
    }

    #[inline]
    pub(crate) fn div(self, x: u64) -> u64 {
        match self.shift {
            Some(s) => x >> s,
            None => x / self.n,
        }
    }

    #[inline]
    pub(crate) fn rem(self, x: u64) -> u64 {
        match self.shift {
            Some(_) => x & (self.n - 1),
            None => x % self.n,
        }
    }
}

/// The memory system: per-tile L1 banks, L2 banks, and the HBM stack.
#[derive(Debug)]
pub struct MemorySystem {
    geom: Geometry,
    ua: MicroArch,
    hw: HwConfig,
    /// L1 cache banks, flattened `tile * l1_banks + bank` (one
    /// indirection on the access fast path instead of two).
    l1: Vec<CacheBank>,
    /// L1 cache banks per tile in the current mode.
    l1_banks: usize,
    /// L2 banks, flattened `tile * l2_banks + bank` (always caches).
    l2: Vec<CacheBank>,
    /// L2 banks per tile (`pes_per_tile`).
    l2_banks: usize,
    hbm: Hbm,
    cur_cycle: u64,
    /// Epoch stamp bumped whenever `cur_cycle` changes; a claim slot is
    /// live only when its epoch matches (cheap O(1) "clear all").
    epoch: u64,
    /// Per-port claim slots, packed `epoch << 16 | count` so the
    /// conflict check is a single load/store.
    claims: Vec<u64>,
    /// Precomputed `worker → (tile, pe or -1)` map (avoids per-access
    /// division in [`Geometry::locate`]).
    locs: Vec<(u32, i32)>,
    line_div: FastDiv,
    /// Divisor for the current L1 cache-bank count (mode-dependent).
    l1_div: FastDiv,
    /// Divisor for the shared-L2 global bank count (`total_pes`).
    l2_total_div: FastDiv,
    /// Divisor for PEs per tile.
    b_div: FastDiv,
    /// Divisor for the SPM bank count in the current mode (1 when the
    /// mode has no shared SPM).
    spm_div: FastDiv,
    /// Divisor for the word size (SPM offsets → word index).
    word_div: FastDiv,
    /// Event counters for the current run.
    pub stats: SimStats,
}

impl MemorySystem {
    /// Creates the memory system in configuration `hw`.
    pub fn new(geom: Geometry, ua: MicroArch, hw: HwConfig) -> Self {
        let locs = (0..geom.total_workers())
            .map(|w| {
                let (tile, pe) = geom.locate(w);
                (tile as u32, pe.map_or(-1, |p| p as i32))
            })
            .collect();
        let claim_slots = PORT_KINDS * geom.tiles() * geom.pes_per_tile();
        let mut sys = MemorySystem {
            geom,
            hbm: Hbm::new(
                ua.hbm_channels,
                ua.line_bytes,
                ua.hbm_bytes_per_cycle,
                ua.hbm_latency_min,
                ua.hbm_latency_max,
            ),
            line_div: FastDiv::new(ua.line_bytes as u64),
            l1_div: FastDiv::new(1),
            l2_total_div: FastDiv::new(geom.total_pes() as u64),
            b_div: FastDiv::new(geom.pes_per_tile() as u64),
            spm_div: FastDiv::new(1),
            word_div: FastDiv::new(ua.word_bytes as u64),
            ua,
            hw,
            l1: Vec::new(),
            l1_banks: 0,
            l2: Vec::new(),
            l2_banks: geom.pes_per_tile(),
            cur_cycle: 0,
            epoch: 1,
            claims: vec![0; claim_slots],
            locs,
            stats: SimStats::default(),
        };
        sys.build_banks();
        sys
    }

    fn build_banks(&mut self) {
        let sets = self.ua.sets_per_bank();
        let b = self.geom.pes_per_tile();
        let l1_banks = self.ua.l1_cache_banks(b, self.hw.l1());
        self.l1_div = FastDiv::new(l1_banks as u64);
        self.spm_div = FastDiv::new((b - l1_banks) as u64);
        self.l1_banks = l1_banks;
        self.l1 = (0..self.geom.tiles() * l1_banks)
            .map(|_| CacheBank::new(sets, self.ua.ways))
            .collect();
        self.l2_banks = b;
        self.l2 = (0..self.geom.tiles() * b)
            .map(|_| CacheBank::new(sets, self.ua.ways))
            .collect();
    }

    #[inline]
    fn port_index(&self, kind: usize, tile: usize, bank: usize) -> usize {
        (kind * self.geom.tiles() + tile) * self.geom.pes_per_tile() + bank
    }

    /// Current hardware configuration.
    pub fn config(&self) -> HwConfig {
        self.hw
    }

    /// Geometry.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// Microarchitecture parameters.
    pub fn uarch(&self) -> &MicroArch {
        &self.ua
    }

    /// True if the current configuration exposes scratchpad to PEs.
    pub fn has_spm(&self) -> bool {
        matches!(self.hw.l1(), L1Mode::SharedCacheSpm | L1Mode::PrivateSpm)
    }

    /// Resets per-run statistics and HBM channel occupancy. Cache
    /// contents are retained (warm across SpMV invocations, as on the
    /// real machine).
    pub fn begin_run(&mut self) {
        self.stats = SimStats::default();
        self.hbm.reset();
        self.cur_cycle = 0;
        self.epoch += 1;
    }

    /// Copies the HBM channel counters into the run stats. Deferred to
    /// the end of a run (the counters are absolute since [`Self::begin_run`],
    /// so syncing once is equivalent to syncing after every access).
    pub(crate) fn sync_hbm_stats(&mut self) {
        self.stats.hbm_line_reads = self.hbm.reads();
        self.stats.hbm_line_writes = self.hbm.writes();
        self.stats.hbm_queue_cycles = self.hbm.queue_cycles();
    }

    #[inline]
    fn claim(&mut self, cycle: u64, kind: usize, tile: usize, bank: usize) -> u64 {
        if cycle != self.cur_cycle {
            self.cur_cycle = cycle;
            // Invalidate every outstanding claim in O(1): slots stamped
            // with an older epoch read as zero.
            self.epoch += 1;
        }
        let idx = self.port_index(kind, tile, bank);
        // Slot layout: `epoch << 16 | count`. Same-cycle same-port
        // claims are bounded by the worker count, far below 2^16.
        let slot = self.claims[idx];
        let prior = if slot >> 16 == self.epoch {
            slot & 0xffff
        } else {
            0
        };
        self.claims[idx] = (self.epoch << 16) | (prior + 1);
        self.stats.conflict_cycles += prior;
        prior
    }

    /// Resolves a global (cached address space) access.
    ///
    /// Returns the cycle at which the worker may issue its next op.
    /// Stores are acknowledged early (single-entry store buffer, as on
    /// the M4F): state updates and bandwidth are fully charged, but the
    /// returned cycle only covers the L1-level round trip.
    pub fn global_access(&mut self, worker: usize, addr: Addr, is_store: bool, cycle: u64) -> u64 {
        if is_store {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
        let line = self.line_div.div(addr);
        let (tile32, pe32) = self.locs[worker];
        let tile = tile32 as usize;
        let pe = (pe32 >= 0).then_some(pe32 as usize);
        let completion = match (pe, self.hw.l1()) {
            // LCPs have no L1; they access the L2 level directly, as do
            // PEs in PS mode (their level-1 banks are scratchpad).
            (None, _) | (Some(_), L1Mode::PrivateSpm) => match self.hw.l2() {
                L2Mode::SharedCache => self.shared_direct_access(tile, line, is_store, cycle),
                L2Mode::PrivateCache => {
                    let (mut t, p) = self.priv_tile(tile);
                    priv_direct_access(&mut t, &p, pe, line, is_store, cycle)
                }
            },
            (Some(_), L1Mode::SharedCache | L1Mode::SharedCacheSpm) => {
                // `l1_div` tracks the bank count for the *current* L1
                // mode (rebuilt alongside the banks on reconfigure).
                let bank = self.l1_div.rem(line) as usize;
                let local = self.l1_div.div(line);
                self.shared_l1_access(tile, bank, local, line, is_store, cycle)
            }
            (Some(pe), L1Mode::PrivateCache) => {
                let (mut t, p) = self.priv_tile(tile);
                priv_l1_access(&mut t, &p, pe, line, is_store, cycle)
            }
        };
        completion.max(cycle + 1)
    }

    /// Direct L2 access under a *shared* L2 (LCPs in SC/SCS). The bank
    /// route ignores the requester, so no PE identity is needed.
    pub(crate) fn shared_direct_access(
        &mut self,
        tile: usize,
        line: u64,
        is_store: bool,
        cycle: u64,
    ) -> u64 {
        let at = cycle + self.ua.xbar_latency;
        let done = self.l2_fill(tile, None, line, is_store, at);
        if is_store {
            cycle + self.ua.xbar_latency + 1
        } else {
            done
        }
    }

    /// Shared (arbitrated) L1 access for a PE in SC/SCS with the bank
    /// route already resolved (`bank = line % nbanks`,
    /// `local = line / nbanks`). Shared L1 implies shared L2, whose
    /// route ignores the requesting PE, so none is passed.
    pub(crate) fn shared_l1_access(
        &mut self,
        tile: usize,
        bank: usize,
        local: u64,
        line: u64,
        is_store: bool,
        cycle: u64,
    ) -> u64 {
        let conflicts = self.claim(cycle, PORT_L1, tile, bank);
        self.stats.xbar_traversals += 1;
        let base_lat =
            self.ua.xbar_latency + self.ua.arbitration_latency + conflicts + self.ua.l1_latency;
        let nbanks = self.l1_div.n;
        let bidx = tile * self.l1_banks + bank;
        let prefetch = self.ua.prefetch;
        let bank_ref = &mut self.l1[bidx];
        let probe = bank_ref.access(local, is_store);
        // Per-bank tagged stride prefetcher (Table II lists one on
        // every RCache bank): any sequential access — hit or miss —
        // pulls the bank's next line into L1. This is what makes
        // COO/CSC streaming fast, and what pollutes the bank for
        // resident structures (merge heaps, vector segments), the
        // §III-C.3 effect.
        let stride = prefetch && bank_ref.stride_detected(local);
        let pf_wanted = stride && !bank_ref.contains(local + 1);
        let completion = match probe {
            ProbeResult::Hit => {
                self.stats.l1_hits += 1;
                cycle + base_lat
            }
            ProbeResult::Miss {
                victim_dirty,
                victim_line,
            } => self.shared_l1_miss(
                tile,
                bank,
                line,
                nbanks,
                victim_dirty,
                victim_line,
                is_store,
                cycle + base_lat,
            ),
        };
        if pf_wanted {
            let pf_local = local + 1;
            let pf_global = pf_local * nbanks + bank as u64;
            // Asynchronous: charge the L2-side traffic, don't
            // extend the demand access.
            let _ = self.l2_fill(tile, None, pf_global, false, cycle + base_lat);
            self.stats.prefetches += 1;
            if let Some(dirty_local) = self.l1[bidx].install(pf_local) {
                self.l2_writeback(
                    tile,
                    None,
                    dirty_local * nbanks + bank as u64,
                    cycle + base_lat,
                );
            }
        }
        completion
    }

    /// Shared-L1 miss slow path, outlined so the hit loop stays compact.
    #[cold]
    #[allow(clippy::too_many_arguments)]
    fn shared_l1_miss(
        &mut self,
        tile: usize,
        bank: usize,
        line: u64,
        nbanks: u64,
        victim_dirty: bool,
        victim_line: Option<u64>,
        is_store: bool,
        at: u64,
    ) -> u64 {
        self.stats.l1_misses += 1;
        if victim_dirty {
            let victim_global = victim_line.expect("dirty implies valid") * nbanks + bank as u64;
            self.l2_writeback(tile, None, victim_global, at);
        }
        let fill_done = self.l2_fill(tile, None, line, false, at);
        if is_store {
            at + 1
        } else {
            fill_done
        }
    }

    /// L2 bank selection: returns `(tile, route, shared)` for a
    /// requester.
    fn l2_route(&self, tile: usize, pe: Option<usize>, line: u64) -> (usize, BankRoute, bool) {
        match self.hw.l2() {
            L2Mode::SharedCache => {
                let g = self.l2_total_div.rem(line);
                let route = BankRoute {
                    bank: self.b_div.rem(g) as usize,
                    local: self.l2_total_div.div(line),
                    nbanks: self.l2_total_div.n,
                    home: g,
                };
                (self.b_div.div(g) as usize, route, true)
            }
            // Private L2: bank i is PE i's own 4 kB cache, transparent
            // crossbar, full line space in one bank; the LCP round-robins
            // over its tile's banks (contention with the owning PE is
            // second-order, LCP traffic is small, and ignored).
            L2Mode::PrivateCache => (tile, priv_route(self.b_div, pe, line), false),
        }
    }

    /// Fills `line` at the L2 level (demand read or store-allocate),
    /// returning the data-ready cycle.
    fn l2_fill(
        &mut self,
        tile: usize,
        pe: Option<usize>,
        line: u64,
        is_store: bool,
        at: u64,
    ) -> u64 {
        let (t2, route, shared) = self.l2_route(tile, pe, line);
        let (bank, local) = (route.bank, route.local);
        let mut lat = self.ua.xbar_latency + self.ua.l2_latency;
        if shared {
            let conflicts = self.claim(at, PORT_L2, t2, bank);
            self.stats.xbar_traversals += 1;
            lat += self.ua.arbitration_latency + conflicts;
        }
        let bidx = t2 * self.l2_banks + bank;
        let prefetch = self.ua.prefetch;
        let bank_ref = &mut self.l2[bidx];
        let probe = bank_ref.access(local, is_store);
        // Tagged stride prefetcher on the L2 banks as well: sequential
        // access streams (hit or miss) keep pulling the next line from
        // main memory.
        let stride = prefetch && bank_ref.stride_detected(local);
        let pf_wanted = stride && !bank_ref.contains(local + 1);
        let completion = match probe {
            ProbeResult::Hit => {
                self.stats.l2_hits += 1;
                at + lat
            }
            ProbeResult::Miss {
                victim_dirty,
                victim_line,
            } => {
                self.stats.l2_misses += 1;
                if victim_dirty {
                    let victim_global = route.global(victim_line.expect("dirty implies valid"));
                    // Writebacks consume HBM bandwidth off the critical path.
                    self.hbm.write(victim_global, at + lat);
                }
                let done = self.hbm.read(line, at + lat);
                done + self.ua.xbar_latency
            }
        };
        if pf_wanted {
            let pf_local = local + 1;
            self.hbm.prefetch(route.global(pf_local), at + lat);
            self.stats.prefetches += 1;
            if let Some(dirty_local) = self.l2[bidx].install(pf_local) {
                self.hbm.write(route.global(dirty_local), at + lat);
            }
        }
        completion
    }

    /// Installs an L1 dirty victim into L2 (write-back path, off the
    /// critical path; charged for energy/bandwidth only).
    fn l2_writeback(&mut self, tile: usize, pe: Option<usize>, line: u64, at: u64) {
        let (t2, route, shared) = self.l2_route(tile, pe, line);
        let (bank, local) = (route.bank, route.local);
        if shared {
            self.stats.xbar_traversals += 1;
        }
        self.stats.l2_writeback_installs += 1;
        let bidx = t2 * self.l2_banks + bank;
        // A full-line writeback needs no fetch: install directly, dirty.
        if let Some(dirty_local) = self.l2[bidx].install(local) {
            self.hbm.write(route.global(dirty_local), at);
        }
        // Mark dirty via a store probe (guaranteed hit after install;
        // only bank-internal counters are touched, not run stats).
        let _ = self.l2[bidx].access(local, true);
    }

    /// Resolves a scratchpad access.
    ///
    /// # Panics
    ///
    /// Panics if the current configuration has no SPM visible to the
    /// worker (kernel/config mismatch — callers must check
    /// [`Self::has_spm`]) or if an LCP issues an SPM op.
    pub fn spm_access(&mut self, worker: usize, offset: u32, _is_store: bool, cycle: u64) -> u64 {
        self.stats.spm_accesses += 1;
        let (tile32, pe32) = self.locs[worker];
        let tile = tile32 as usize;
        assert!(pe32 >= 0, "LCPs have no scratchpad");
        match self.hw.l1() {
            L1Mode::SharedCacheSpm => {
                let word = self.word_div.div(offset as u64);
                let bank = self.spm_div.rem(word) as usize;
                self.spm_shared_access(tile, bank, cycle)
            }
            // Own bank, transparent crossbar.
            L1Mode::PrivateSpm => cycle + self.ua.l1_latency,
            L1Mode::SharedCache | L1Mode::PrivateCache => {
                panic!("spm access in a cache-only configuration ({:?})", self.hw)
            }
        }
    }

    /// Shared-SPM access (SCS) with the bank already resolved
    /// (`bank = (offset / word_bytes) % spm_banks`).
    pub(crate) fn spm_shared_access(&mut self, tile: usize, bank: usize, cycle: u64) -> u64 {
        let conflicts = self.claim(cycle, PORT_SPM, tile, bank);
        self.stats.xbar_traversals += 1;
        cycle + self.ua.xbar_latency + self.ua.arbitration_latency + conflicts + self.ua.l1_latency
    }

    /// Parameter block for the private-hierarchy access paths (PC/PS):
    /// everything those paths read from the memory system besides the
    /// tile's own banks.
    pub(crate) fn priv_params(&self) -> PrivParams {
        PrivParams {
            xbar: self.ua.xbar_latency,
            l1_latency: self.ua.l1_latency,
            l2_latency: self.ua.l2_latency,
            prefetch: self.ua.prefetch,
            l1_nbanks: self.l1_div.n,
            b_div: self.b_div,
        }
    }

    /// Mutable view of one tile's private banks plus the HBM and stats.
    pub(crate) fn priv_tile(&mut self, tile: usize) -> (PrivTile<'_>, PrivParams) {
        let p = self.priv_params();
        let l1_lo = tile * self.l1_banks;
        let l2_lo = tile * self.l2_banks;
        (
            PrivTile {
                l1: &mut self.l1[l1_lo..l1_lo + self.l1_banks],
                l2: &mut self.l2[l2_lo..l2_lo + self.l2_banks],
                hbm: &mut self.hbm,
                stats: &mut self.stats,
            },
            p,
        )
    }

    /// Private-L1 access (PC) routed through [`priv_l1_access`].
    pub(crate) fn priv_l1(
        &mut self,
        tile: usize,
        pe: usize,
        line: u64,
        is_store: bool,
        cycle: u64,
    ) -> u64 {
        let (mut t, p) = self.priv_tile(tile);
        priv_l1_access(&mut t, &p, pe, line, is_store, cycle)
    }

    /// Direct private-L2 access (PS PEs, or LCPs under PC/PS).
    pub(crate) fn priv_direct(
        &mut self,
        tile: usize,
        pe: Option<usize>,
        line: u64,
        is_store: bool,
        cycle: u64,
    ) -> u64 {
        let (mut t, p) = self.priv_tile(tile);
        priv_direct_access(&mut t, &p, pe, line, is_store, cycle)
    }

    /// Snapshot of the bank contents and the HBM, the post-run state a
    /// steady-state memo entry reinstates. Claim ports and the run
    /// stats are reset or restored separately, so neither is saved.
    pub(crate) fn snapshot(&self) -> MemSnapshot {
        MemSnapshot {
            l1: self.l1.clone(),
            l2: self.l2.clone(),
            hbm: self.hbm.clone(),
        }
    }

    /// Restores a snapshot taken by [`MemorySystem::snapshot`].
    pub(crate) fn restore(&mut self, snap: &MemSnapshot) {
        self.l1.clone_from(&snap.l1);
        self.l2.clone_from(&snap.l2);
        self.hbm = snap.hbm.clone();
    }

    /// Clones the bank state (L1 + L2) for the steady-state memo. The
    /// HBM is deliberately excluded: [`MemorySystem::begin_run`] resets
    /// it, so pre-run HBM state never influences a run.
    pub(crate) fn cache_state(&self) -> (Vec<CacheBank>, Vec<CacheBank>) {
        (self.l1.clone(), self.l2.clone())
    }

    /// True when the live banks would behave identically to `state`
    /// (see [`CacheBank::same_behavior`]).
    pub(crate) fn cache_state_matches(&self, state: &(Vec<CacheBank>, Vec<CacheBank>)) -> bool {
        self.l1.len() == state.0.len()
            && self.l2.len() == state.1.len()
            && self
                .l1
                .iter()
                .zip(&state.0)
                .all(|(a, b)| a.same_behavior(b))
            && self
                .l2
                .iter()
                .zip(&state.1)
                .all(|(a, b)| a.same_behavior(b))
    }

    /// Runtime reconfiguration to `new_hw`: flushes dirty lines, rebuilds
    /// banks, charges the ≤10-cycle switch plus a bandwidth-bound drain.
    ///
    /// Returns the total cycle cost. A no-op reconfiguration (same
    /// config) costs nothing.
    pub fn reconfigure(&mut self, new_hw: HwConfig) -> u64 {
        if new_hw == self.hw {
            return 0;
        }
        let mut dirty = 0usize;
        for bank in self.l1.iter_mut().chain(self.l2.iter_mut()) {
            dirty += bank.flush();
        }
        // Drain writebacks at full HBM bandwidth across all channels.
        let line_cycles = (self.ua.line_bytes as u64).div_ceil(self.ua.hbm_bytes_per_cycle);
        let drain = (dirty as u64 * line_cycles).div_ceil(self.ua.hbm_channels as u64);
        let cost = self.ua.reconfig_cycles + drain;
        self.stats.reconfigurations += 1;
        self.stats.reconfig_cycles += cost;
        self.stats.flush_writebacks += dirty as u64;
        self.stats.hbm_line_writes += dirty as u64;
        self.hw = new_hw;
        self.build_banks();
        cost
    }

    /// Total L1 cache capacity visible to one tile's PEs, in bytes.
    pub fn l1_cache_bytes_per_tile(&self) -> usize {
        self.ua
            .l1_cache_banks(self.geom.pes_per_tile(), self.hw.l1())
            * self.ua.bank_bytes
    }

    /// SPM bytes shared by one tile's PEs (SCS) or per PE summed (PS).
    pub fn spm_bytes_per_tile(&self) -> usize {
        self.ua
            .spm_bytes_per_tile(self.geom.pes_per_tile(), self.hw.l1())
    }
}

/// Copy of the microarchitectural parameters the private access paths
/// need, detached from `&MemorySystem` so a [`PrivTile`] can borrow the
/// tile's banks mutably next to it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrivParams {
    pub(crate) xbar: u64,
    pub(crate) l1_latency: u64,
    pub(crate) l2_latency: u64,
    pub(crate) prefetch: bool,
    /// L1 bank count in the current mode (`l1_div.n`; `B` under PC).
    pub(crate) l1_nbanks: u64,
    /// Divisor for PEs per tile (LCP round-robin over private L2 banks).
    pub(crate) b_div: FastDiv,
}

/// One tile's mutable memory state for the private-hierarchy paths:
/// its L1 banks (empty under PS), its L2 banks, the HBM and the run
/// stats.
#[derive(Debug)]
pub(crate) struct PrivTile<'a> {
    pub(crate) l1: &'a mut [CacheBank],
    pub(crate) l2: &'a mut [CacheBank],
    pub(crate) hbm: &'a mut Hbm,
    pub(crate) stats: &'a mut SimStats,
}

/// Bank/HBM state recorded after a steady-state run (see
/// [`MemorySystem::snapshot`]).
#[derive(Debug)]
pub(crate) struct MemSnapshot {
    l1: Vec<CacheBank>,
    l2: Vec<CacheBank>,
    hbm: Hbm,
}

/// Where a line lives in an interleaved L2: bank `bank` holds it as
/// local line `local`, and that bank's local line `x` is global line
/// `x * nbanks + home` (`home = line % nbanks`).
#[derive(Debug, Clone, Copy)]
struct BankRoute {
    bank: usize,
    local: u64,
    nbanks: u64,
    home: u64,
}

impl BankRoute {
    /// Global line of this bank's local line `local`.
    #[inline]
    fn global(self, local: u64) -> u64 {
        local * self.nbanks + self.home
    }
}

/// Private-L2 bank selection within a tile (`b_div` divides by PEs per
/// tile). A PE owns bank `pe` outright (full line space, transparent
/// crossbar); the LCP round-robins over the tile's banks.
#[inline]
fn priv_route(b_div: FastDiv, pe: Option<usize>, line: u64) -> BankRoute {
    match pe {
        Some(pe) => BankRoute {
            bank: pe,
            local: line,
            nbanks: 1,
            home: 0,
        },
        None => {
            let home = b_div.rem(line);
            BankRoute {
                bank: home as usize,
                local: b_div.div(line),
                nbanks: b_div.n,
                home,
            }
        }
    }
}

/// Direct private-L2 access: PS PEs (no L1 cache level) and LCPs under
/// PC/PS. Mirrors the store-ack convention of
/// [`MemorySystem::shared_direct_access`].
pub(crate) fn priv_direct_access(
    t: &mut PrivTile<'_>,
    p: &PrivParams,
    pe: Option<usize>,
    line: u64,
    is_store: bool,
    cycle: u64,
) -> u64 {
    let at = cycle + p.xbar;
    let done = priv_l2_fill(t, p, pe, line, is_store, at);
    if is_store {
        cycle + p.xbar + 1
    } else {
        done
    }
}

/// Fills `line` in the tile's private L2 (no arbitration, no claims —
/// the transparent crossbar has no shared port to conflict on).
pub(crate) fn priv_l2_fill(
    t: &mut PrivTile<'_>,
    p: &PrivParams,
    pe: Option<usize>,
    line: u64,
    is_store: bool,
    at: u64,
) -> u64 {
    let route = priv_route(p.b_div, pe, line);
    let (bank, local) = (route.bank, route.local);
    let lat = p.xbar + p.l2_latency;
    let bank_ref = &mut t.l2[bank];
    let probe = bank_ref.access(local, is_store);
    // Tagged stride prefetcher on the L2 banks as well: sequential
    // access streams (hit or miss) keep pulling the next line from
    // main memory.
    let stride = p.prefetch && bank_ref.stride_detected(local);
    let pf_wanted = stride && !bank_ref.contains(local + 1);
    let completion = match probe {
        ProbeResult::Hit => {
            t.stats.l2_hits += 1;
            at + lat
        }
        ProbeResult::Miss {
            victim_dirty,
            victim_line,
        } => {
            t.stats.l2_misses += 1;
            if victim_dirty {
                let victim_global = route.global(victim_line.expect("dirty implies valid"));
                // Writebacks consume HBM bandwidth off the critical path.
                let _ = t.hbm.write(victim_global, at + lat);
            }
            let done = t.hbm.read(line, at + lat);
            done + p.xbar
        }
    };
    if pf_wanted {
        let pf_local = local + 1;
        let _ = t.hbm.prefetch(route.global(pf_local), at + lat);
        t.stats.prefetches += 1;
        if let Some(dirty_local) = t.l2[bank].install(pf_local) {
            let _ = t.hbm.write(route.global(dirty_local), at + lat);
        }
    }
    completion
}

/// Installs an L1 dirty victim into the tile's private L2.
pub(crate) fn priv_l2_writeback(
    t: &mut PrivTile<'_>,
    p: &PrivParams,
    pe: Option<usize>,
    line: u64,
    at: u64,
) {
    let route = priv_route(p.b_div, pe, line);
    let (bank, local) = (route.bank, route.local);
    t.stats.l2_writeback_installs += 1;
    // A full-line writeback needs no fetch: install directly, dirty.
    if let Some(dirty_local) = t.l2[bank].install(local) {
        let _ = t.hbm.write(route.global(dirty_local), at);
    }
    // Mark dirty via a store probe (guaranteed hit after install;
    // only bank-internal counters are touched, not run stats).
    let _ = t.l2[bank].access(local, true);
}

/// Private-L1 access for PE `pe` (PC mode): bank `pe`, full line space
/// locally, single-cycle base latency, no arbitration.
pub(crate) fn priv_l1_access(
    t: &mut PrivTile<'_>,
    p: &PrivParams,
    pe: usize,
    line: u64,
    is_store: bool,
    cycle: u64,
) -> u64 {
    let nbanks = p.l1_nbanks;
    let local = line;
    let base_lat = p.l1_latency;
    let bank_ref = &mut t.l1[pe];
    let probe = bank_ref.access(local, is_store);
    let stride = p.prefetch && bank_ref.stride_detected(local);
    let pf_wanted = stride && !bank_ref.contains(local + 1);
    let completion = match probe {
        ProbeResult::Hit => {
            t.stats.l1_hits += 1;
            cycle + base_lat
        }
        ProbeResult::Miss {
            victim_dirty,
            victim_line,
        } => priv_l1_miss(
            t,
            p,
            pe,
            line,
            nbanks,
            victim_dirty,
            victim_line,
            is_store,
            cycle + base_lat,
        ),
    };
    if pf_wanted {
        let pf_local = local + 1;
        let pf_global = pf_local * nbanks + pe as u64;
        // Asynchronous: charge the L2-side traffic, don't extend the
        // demand access.
        let _ = priv_l2_fill(t, p, Some(pe), pf_global, false, cycle + base_lat);
        t.stats.prefetches += 1;
        if let Some(dirty_local) = t.l1[pe].install(pf_local) {
            priv_l2_writeback(
                t,
                p,
                Some(pe),
                dirty_local * nbanks + pe as u64,
                cycle + base_lat,
            );
        }
    }
    completion
}

/// Private-L1 miss slow path, outlined so the hit loop stays compact.
#[cold]
#[allow(clippy::too_many_arguments)]
fn priv_l1_miss(
    t: &mut PrivTile<'_>,
    p: &PrivParams,
    pe: usize,
    line: u64,
    nbanks: u64,
    victim_dirty: bool,
    victim_line: Option<u64>,
    is_store: bool,
    at: u64,
) -> u64 {
    t.stats.l1_misses += 1;
    if victim_dirty {
        let victim_global = victim_line.expect("dirty implies valid") * nbanks + pe as u64;
        priv_l2_writeback(t, p, Some(pe), victim_global, at);
    }
    let fill_done = priv_l2_fill(t, p, Some(pe), line, false, at);
    if is_store {
        at + 1
    } else {
        fill_done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(hw: HwConfig) -> MemorySystem {
        MemorySystem::new(Geometry::new(2, 4), MicroArch::paper(), hw)
    }

    #[test]
    fn l1_hit_is_fast() {
        let mut m = sys(HwConfig::Sc);
        let miss_done = m.global_access(0, 0x1000, false, 0);
        assert!(
            miss_done > 50,
            "cold miss should reach HBM, got {miss_done}"
        );
        let hit_done = m.global_access(0, 0x1000, false, miss_done + 1);
        assert!(
            hit_done - (miss_done + 1) <= 4,
            "hit latency {} too high",
            hit_done - (miss_done + 1)
        );
        assert_eq!(m.stats.l1_hits, 1);
        assert_eq!(m.stats.l1_misses, 1);
    }

    #[test]
    fn private_hit_faster_than_shared_hit() {
        let mut shared = sys(HwConfig::Sc);
        let mut private = sys(HwConfig::Pc);
        let a = shared.global_access(0, 0x40, false, 0);
        let b = private.global_access(0, 0x40, false, 0);
        let a2 = shared.global_access(0, 0x40, false, a + 1) - (a + 1);
        let b2 = private.global_access(0, 0x40, false, b + 1) - (b + 1);
        assert!(b2 < a2, "private hit {b2} should beat shared hit {a2}");
    }

    #[test]
    fn same_cycle_same_bank_conflicts_serialize() {
        let mut m = sys(HwConfig::Sc);
        // Warm the line so both accesses hit.
        let done = m.global_access(0, 0x0, false, 0);
        let t = done + 1;
        let first = m.global_access(0, 0x0, false, t);
        let second = m.global_access(1, 0x0, false, t);
        assert!(second > first, "second same-bank access must serialize");
        assert!(m.stats.conflict_cycles >= 1);
    }

    #[test]
    fn different_banks_no_conflict() {
        let mut m = sys(HwConfig::Sc);
        let d1 = m.global_access(0, 0x0, false, 0);
        let _ = m.global_access(1, 0x40, false, 0); // next line → next bank
        let t = d1 + 200;
        let a = m.global_access(0, 0x0, false, t);
        let b = m.global_access(1, 0x40, false, t);
        assert_eq!(a - t, b - t, "different banks should have equal latency");
    }

    #[test]
    fn private_caches_do_not_share_contents() {
        let mut m = sys(HwConfig::Pc);
        let _ = m.global_access(0, 0x2000, false, 0);
        // Same line from another PE in the same tile: own cache → miss.
        let _ = m.global_access(1, 0x2000, false, 500);
        assert_eq!(m.stats.l1_misses, 2);
    }

    #[test]
    fn shared_cache_shares_contents() {
        let mut m = sys(HwConfig::Sc);
        let d = m.global_access(0, 0x2000, false, 0);
        let _ = m.global_access(1, 0x2000, false, d + 1);
        assert_eq!(m.stats.l1_misses, 1);
        assert_eq!(m.stats.l1_hits, 1);
    }

    #[test]
    fn stores_ack_early_but_charge_state() {
        let mut m = sys(HwConfig::Sc);
        let done = m.global_access(0, 0x3000, true, 0);
        assert!(done < 20, "store ack {done} should not wait on HBM fill");
        assert_eq!(m.stats.stores, 1);
        assert_eq!(m.stats.l1_misses, 1);
    }

    #[test]
    fn ps_mode_bypasses_l1() {
        let mut m = sys(HwConfig::Ps);
        let _ = m.global_access(0, 0x100, false, 0);
        assert_eq!(m.stats.l1_misses, 0);
        assert_eq!(m.stats.l2_misses, 1);
        let d = m.global_access(0, 0x100, false, 300);
        assert_eq!(m.stats.l2_hits, 1);
        assert!(d - 300 < 10);
    }

    #[test]
    fn spm_access_latencies() {
        let mut scs = sys(HwConfig::Scs);
        let d = scs.spm_access(0, 16, false, 0);
        assert!(d <= 4, "shared spm access {d}");
        let mut ps = sys(HwConfig::Ps);
        let d = ps.spm_access(0, 16, false, 0);
        assert_eq!(d, 1, "private spm is single-cycle");
    }

    #[test]
    #[should_panic(expected = "cache-only")]
    fn spm_in_cache_mode_panics() {
        let mut m = sys(HwConfig::Sc);
        let _ = m.spm_access(0, 0, false, 0);
    }

    #[test]
    fn sequential_stream_benefits_from_prefetch() {
        let mut with = sys(HwConfig::Sc);
        let mut without = {
            let mut ua = MicroArch::paper();
            ua.prefetch = false;
            MemorySystem::new(Geometry::new(2, 4), ua, HwConfig::Sc)
        };
        let mut t_with = 0;
        let mut t_without = 0;
        for i in 0..512u64 {
            t_with = with.global_access(0, i * 4, false, t_with + 1);
            t_without = without.global_access(0, i * 4, false, t_without + 1);
        }
        assert!(
            t_with < t_without,
            "prefetch should speed sequential streams: {t_with} vs {t_without}"
        );
        assert!(with.stats.prefetches > 0);
    }

    #[test]
    fn reconfigure_flushes_and_charges() {
        let mut m = sys(HwConfig::Sc);
        for i in 0..32u64 {
            let _ = m.global_access(0, 0x8000 + i * 64, true, i * 300);
        }
        let cost = m.reconfigure(HwConfig::Ps);
        assert!(cost >= MicroArch::paper().reconfig_cycles);
        assert_eq!(m.config(), HwConfig::Ps);
        assert!(m.stats.flush_writebacks > 0);
        // Same-config reconfiguration is free.
        assert_eq!(m.reconfigure(HwConfig::Ps), 0);
    }

    #[test]
    fn capacity_helpers() {
        let m = sys(HwConfig::Scs);
        assert_eq!(m.l1_cache_bytes_per_tile(), 2 * 4096);
        assert_eq!(m.spm_bytes_per_tile(), 2 * 4096);
        let m = sys(HwConfig::Sc);
        assert_eq!(m.l1_cache_bytes_per_tile(), 4 * 4096);
        assert_eq!(m.spm_bytes_per_tile(), 0);
    }

    #[test]
    fn lcp_access_skips_l1() {
        let mut m = sys(HwConfig::Sc);
        let lcp = Geometry::new(2, 4).lcp_id(0);
        let _ = m.global_access(lcp, 0x500, false, 0);
        assert_eq!(m.stats.l1_misses, 0);
        assert_eq!(m.stats.l2_misses, 1);
    }

    #[test]
    fn capacity_exceeding_working_set_thrashes() {
        // Working set far beyond L1+L2 → the second pass must refetch
        // essentially everything from HBM (demand or prefetch); nothing
        // is retained on chip.
        let mut m = sys(HwConfig::Sc);
        let lines = 4096u64; // 256 kB ≫ 16 kB L1 + 32 kB L2
        let mut t = 0;
        for i in 0..lines {
            t = m.global_access(0, i * 64, false, t + 1);
        }
        m.sync_hbm_stats();
        let reads_first = m.stats.hbm_line_reads;
        for i in 0..lines {
            t = m.global_access(0, i * 64, false, t + 1);
        }
        m.sync_hbm_stats();
        let reads_second = m.stats.hbm_line_reads - reads_first;
        assert!(
            reads_second as f64 > 0.8 * lines as f64,
            "second pass should refetch from HBM: {reads_second}/{lines}"
        );
    }
}
