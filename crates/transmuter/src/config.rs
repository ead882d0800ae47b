//! System geometry, hardware configurations and microarchitectural
//! parameters (paper Table II).

use std::fmt;

/// System geometry: an `A x B` system has `A` tiles with `B` PEs each,
/// plus one LCP (local control processor) per tile.
///
/// The paper sweeps 4x8 .. 8x32 for threshold calibration and evaluates
/// applications on 16x16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    tiles: usize,
    pes_per_tile: usize,
}

impl Geometry {
    /// Creates an `tiles x pes_per_tile` geometry.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(tiles: usize, pes_per_tile: usize) -> Self {
        assert!(
            tiles > 0 && pes_per_tile > 0,
            "geometry dimensions must be positive"
        );
        Geometry {
            tiles,
            pes_per_tile,
        }
    }

    /// Number of tiles (`A`).
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// PEs per tile (`B`).
    pub fn pes_per_tile(&self) -> usize {
        self.pes_per_tile
    }

    /// Total PE count (`A * B`), excluding LCPs.
    pub fn total_pes(&self) -> usize {
        self.tiles * self.pes_per_tile
    }

    /// Total worker count: PEs plus one LCP per tile.
    pub fn total_workers(&self) -> usize {
        self.total_pes() + self.tiles
    }

    /// Global worker id of PE `(tile, pe)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn pe_id(&self, tile: usize, pe: usize) -> usize {
        assert!(tile < self.tiles && pe < self.pes_per_tile);
        tile * self.pes_per_tile + pe
    }

    /// Global worker id of tile `tile`'s LCP.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range.
    pub fn lcp_id(&self, tile: usize) -> usize {
        assert!(tile < self.tiles);
        self.total_pes() + tile
    }

    /// Maps a global worker id back to `(tile, Some(pe))` for PEs or
    /// `(tile, None)` for LCPs.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn locate(&self, worker: usize) -> (usize, Option<usize>) {
        assert!(
            worker < self.total_workers(),
            "worker {worker} out of range"
        );
        if worker < self.total_pes() {
            (worker / self.pes_per_tile, Some(worker % self.pes_per_tile))
        } else {
            (worker - self.total_pes(), None)
        }
    }

    /// Builds a [`crate::Machine`] with this geometry, the paper's
    /// microarchitecture and the [`HwConfig::Sc`] baseline configuration.
    pub fn machine(&self) -> crate::Machine {
        crate::Machine::new(*self, MicroArch::paper())
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.tiles, self.pes_per_tile)
    }
}

/// The four on-chip memory configurations CoSPARSE uses (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HwConfig {
    /// L1 shared cache, L2 shared cache — inner product, large data.
    Sc,
    /// L1 shared cache + shared SPM (vector in SPM), L2 shared cache —
    /// inner product with high vector reuse.
    Scs,
    /// L1 private cache, L2 private cache — outer product, short lists.
    Pc,
    /// L1 private SPM (merge heap in SPM), L2 private cache — outer
    /// product, long lists.
    Ps,
}

impl HwConfig {
    /// All four configurations in paper order.
    pub const ALL: [HwConfig; 4] = [HwConfig::Sc, HwConfig::Scs, HwConfig::Pc, HwConfig::Ps];

    /// L1 organisation under this configuration.
    pub fn l1(self) -> L1Mode {
        match self {
            HwConfig::Sc => L1Mode::SharedCache,
            HwConfig::Scs => L1Mode::SharedCacheSpm,
            HwConfig::Pc => L1Mode::PrivateCache,
            HwConfig::Ps => L1Mode::PrivateSpm,
        }
    }

    /// L2 organisation under this configuration.
    pub fn l2(self) -> L2Mode {
        match self {
            HwConfig::Sc | HwConfig::Scs => L2Mode::SharedCache,
            HwConfig::Pc | HwConfig::Ps => L2Mode::PrivateCache,
        }
    }

    /// Short name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            HwConfig::Sc => "SC",
            HwConfig::Scs => "SCS",
            HwConfig::Pc => "PC",
            HwConfig::Ps => "PS",
        }
    }
}

impl fmt::Display for HwConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// L1 bank organisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum L1Mode {
    /// All B banks form one line-interleaved cache shared by the tile's
    /// PEs (arbitrated crossbar).
    SharedCache,
    /// Half the banks form a shared cache, half a shared SPM.
    SharedCacheSpm,
    /// Bank `i` is PE `i`'s private cache (transparent crossbar).
    PrivateCache,
    /// Bank `i` is PE `i`'s private SPM; global accesses bypass to L2.
    PrivateSpm,
}

/// L2 bank organisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum L2Mode {
    /// All tiles' L2 banks form one globally line-interleaved cache.
    SharedCache,
    /// Each tile's L2 banks form a cache private to that tile.
    PrivateCache,
}

/// Microarchitectural parameters (paper Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct MicroArch {
    /// Core clock in Hz (PEs and LCPs; 1 GHz in the paper).
    pub freq_hz: f64,
    /// Bytes per RCache/SPM bank (4 kB).
    pub bank_bytes: usize,
    /// Cache line size in bytes (64 B).
    pub line_bytes: usize,
    /// Cache associativity (4-way).
    pub ways: usize,
    /// Word granularity in bytes (4 B; banks are word-granular).
    pub word_bytes: usize,
    /// L1 bank access latency in cycles.
    pub l1_latency: u64,
    /// L2 bank access latency in cycles.
    pub l2_latency: u64,
    /// Crossbar response latency (1 cycle).
    pub xbar_latency: u64,
    /// Additional arbitration latency on shared (arbitrated) crossbars.
    pub arbitration_latency: u64,
    /// Number of HBM pseudo-channels (16).
    pub hbm_channels: usize,
    /// Minimum HBM access latency in cycles (80 ns @ 1 GHz).
    pub hbm_latency_min: u64,
    /// Maximum HBM access latency in cycles (150 ns @ 1 GHz).
    pub hbm_latency_max: u64,
    /// Sustained bytes per cycle per pseudo-channel (8000 MB/s @ 1 GHz).
    pub hbm_bytes_per_cycle: u64,
    /// Runtime reconfiguration switch cost in cycles (≤10 per §II-C).
    pub reconfig_cycles: u64,
    /// Whether RCache banks run a stride (next-line) prefetcher.
    pub prefetch: bool,
    /// Fraction of L1 banks devoted to SPM in [`L1Mode::SharedCacheSpm`].
    pub scs_spm_fraction: f64,
}

impl MicroArch {
    /// The paper's Table II parameters.
    pub fn paper() -> Self {
        MicroArch {
            freq_hz: 1.0e9,
            bank_bytes: 4096,
            line_bytes: 64,
            ways: 4,
            word_bytes: 4,
            l1_latency: 1,
            l2_latency: 2,
            xbar_latency: 1,
            arbitration_latency: 1,
            hbm_channels: 16,
            hbm_latency_min: 80,
            hbm_latency_max: 150,
            hbm_bytes_per_cycle: 8,
            reconfig_cycles: 10,
            prefetch: true,
            scs_spm_fraction: 0.5,
        }
    }

    /// Number of L1 banks operating as cache for a tile with
    /// `pes_per_tile` banks under `mode`. At least one bank remains a
    /// cache in SCS mode. A tile with fewer than two banks has no legal
    /// SCS split: every bank stays a cache and the tile exposes no SPM,
    /// so its SPM ops are refused ([`crate::SimError::SpmUnavailable`]
    /// from [`crate::Machine::run`], [`crate::verify::LintKind::UnsupportedConfig`]
    /// from a program's lint).
    pub fn l1_cache_banks(&self, pes_per_tile: usize, mode: L1Mode) -> usize {
        match mode {
            L1Mode::SharedCache | L1Mode::PrivateCache => pes_per_tile,
            L1Mode::SharedCacheSpm if pes_per_tile < 2 => pes_per_tile,
            L1Mode::SharedCacheSpm => {
                let spm = ((pes_per_tile as f64 * self.scs_spm_fraction) as usize)
                    .clamp(1, pes_per_tile - 1);
                pes_per_tile - spm
            }
            L1Mode::PrivateSpm => 0,
        }
    }

    /// Bytes of SPM usable per tile under `mode` (shared SPM for SCS;
    /// per-PE SPM summed for PS).
    pub fn spm_bytes_per_tile(&self, pes_per_tile: usize, mode: L1Mode) -> usize {
        match mode {
            L1Mode::SharedCache | L1Mode::PrivateCache => 0,
            L1Mode::SharedCacheSpm => {
                (pes_per_tile - self.l1_cache_banks(pes_per_tile, mode)) * self.bank_bytes
            }
            L1Mode::PrivateSpm => pes_per_tile * self.bank_bytes,
        }
    }

    /// Bytes of SPM private to one PE (PS mode), 0 otherwise.
    pub fn spm_bytes_per_pe(&self, mode: L1Mode) -> usize {
        match mode {
            L1Mode::PrivateSpm => self.bank_bytes,
            _ => 0,
        }
    }

    /// Number of cache sets per bank.
    pub fn sets_per_bank(&self) -> usize {
        self.bank_bytes / (self.line_bytes * self.ways)
    }
}

impl Default for MicroArch {
    fn default() -> Self {
        MicroArch::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_ids_roundtrip() {
        let g = Geometry::new(4, 8);
        assert_eq!(g.total_pes(), 32);
        assert_eq!(g.total_workers(), 36);
        assert_eq!(g.pe_id(2, 3), 19);
        assert_eq!(g.locate(19), (2, Some(3)));
        assert_eq!(g.lcp_id(1), 33);
        assert_eq!(g.locate(33), (1, None));
        assert_eq!(g.to_string(), "4x8");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_geometry_rejected() {
        let _ = Geometry::new(0, 8);
    }

    #[test]
    fn hwconfig_modes_match_figure_2() {
        assert_eq!(HwConfig::Sc.l1(), L1Mode::SharedCache);
        assert_eq!(HwConfig::Sc.l2(), L2Mode::SharedCache);
        assert_eq!(HwConfig::Scs.l1(), L1Mode::SharedCacheSpm);
        assert_eq!(HwConfig::Scs.l2(), L2Mode::SharedCache);
        assert_eq!(HwConfig::Pc.l1(), L1Mode::PrivateCache);
        assert_eq!(HwConfig::Pc.l2(), L2Mode::PrivateCache);
        assert_eq!(HwConfig::Ps.l1(), L1Mode::PrivateSpm);
        assert_eq!(HwConfig::Ps.l2(), L2Mode::PrivateCache);
    }

    #[test]
    fn scs_splits_banks() {
        let ua = MicroArch::paper();
        assert_eq!(ua.l1_cache_banks(8, L1Mode::SharedCacheSpm), 4);
        assert_eq!(ua.spm_bytes_per_tile(8, L1Mode::SharedCacheSpm), 4 * 4096);
        assert_eq!(ua.l1_cache_banks(8, L1Mode::SharedCache), 8);
        assert_eq!(ua.spm_bytes_per_tile(8, L1Mode::PrivateSpm), 8 * 4096);
        assert_eq!(ua.spm_bytes_per_pe(L1Mode::PrivateSpm), 4096);
        assert_eq!(ua.spm_bytes_per_pe(L1Mode::SharedCache), 0);
    }

    #[test]
    fn paper_uarch_matches_table_ii() {
        let ua = MicroArch::paper();
        assert_eq!(ua.bank_bytes, 4096);
        assert_eq!(ua.ways, 4);
        assert_eq!(ua.line_bytes, 64);
        assert_eq!(ua.hbm_channels, 16);
        assert_eq!(ua.sets_per_bank(), 16);
        assert!(ua.reconfig_cycles <= 10);
    }
}
