//! The reconfiguration decision tree (paper Figure 2 and §III-C).
//!
//! Before every SpMV invocation CoSPARSE picks, from the input-vector
//! density and the matrix/vector footprints versus on-chip capacity:
//!
//! 1. **Software**: inner product (dense dataflow) vs outer product
//!    (sparse dataflow), using the *crossover vector density* (CVD).
//!    §III-C.1: the CVD falls from ~2% to ~0.5% as PEs per tile grow
//!    from 8 to 32, and rises slightly for sparser matrices.
//! 2. **Hardware for IP**: SCS when the matrix + vector working set
//!    exceeds on-chip cache (pinning the vector in SPM saves the
//!    evict/reload churn), SC when everything fits.
//! 3. **Hardware for OP**: PS when the per-PE sorted list outgrows the
//!    private L1 bank, PC when it fits (§III-C.3).
//! 4. **Storage format** (an extension beyond the paper): OP always
//!    merges CSC columns, but the IP stream can trade the paper's COO
//!    triplets for a hierarchical-bitmap CSR (clustered rows: ~2 words
//!    per entry instead of 4) or a blocked BCSR (block-structured rows:
//!    index and mask loads amortized over whole register blocks),
//!    driven by the [`FormatProbe`] carried in [`MatrixSummary`].
//! 5. **Reordering** (the fourth axis): a [`ReorderProbe`] samples the
//!    matrix bandwidth and segment occupancy under each candidate
//!    permutation; when one improves either statistic by more than
//!    [`Thresholds::reorder_min_gain`], the plan streams the permuted
//!    matrix image instead of the arrival order.

use crate::ops::OpProfile;
use sparse::{FormatKind, FormatProbe, ReorderKind, ReorderProbe};
use transmuter::{Geometry, HwConfig, MicroArch};

/// The software-level dataflow choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwConfig {
    /// Inner product: dense frontier, COO streaming.
    InnerProduct,
    /// Outer product: sparse frontier, CSC column merge.
    OuterProduct,
}

impl SwConfig {
    /// Short name as used in the paper ("IP"/"OP").
    pub fn name(self) -> &'static str {
        match self {
            SwConfig::InnerProduct => "IP",
            SwConfig::OuterProduct => "OP",
        }
    }
}

impl std::fmt::Display for SwConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A software + hardware configuration decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Chosen dataflow.
    pub software: SwConfig,
    /// Chosen memory configuration.
    pub hardware: HwConfig,
    /// Chosen matrix storage format (the third reconfiguration axis).
    pub format: FormatKind,
    /// Chosen matrix reordering (the fourth reconfiguration axis).
    pub reorder: ReorderKind,
    /// The crossover vector density the software choice used.
    pub cvd: f64,
}

/// The storage format a dataflow uses when no probe argues otherwise:
/// the paper's dual-resident pair — row-major COO for IP streaming, CSC
/// for OP column merge (§III-D.2).
pub fn default_format(software: SwConfig) -> FormatKind {
    match software {
        SwConfig::InnerProduct => FormatKind::Coo,
        SwConfig::OuterProduct => FormatKind::Csc,
    }
}

/// Structural summary of the operand matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixSummary {
    /// Rows of the multiplied matrix.
    pub rows: usize,
    /// Columns (frontier dimension).
    pub cols: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// Structural format probe, when the caller has one. `None` keeps
    /// the decision tree on the paper's COO/CSC pair.
    pub probe: Option<FormatProbe>,
    /// Locality probe, when the caller has one. `None` keeps the
    /// decision tree on the arrival ordering.
    pub reorder_probe: Option<ReorderProbe>,
}

impl MatrixSummary {
    /// Summary without a format probe (the tree then never strays from
    /// the paper's COO/CSC formats).
    pub fn new(rows: usize, cols: usize, nnz: usize) -> Self {
        MatrixSummary {
            rows,
            cols,
            nnz,
            probe: None,
            reorder_probe: None,
        }
    }

    /// [`MatrixSummary::new`] carrying a [`FormatProbe`].
    pub fn with_probe(rows: usize, cols: usize, nnz: usize, probe: FormatProbe) -> Self {
        MatrixSummary {
            rows,
            cols,
            nnz,
            probe: Some(probe),
            reorder_probe: None,
        }
    }

    /// `self` additionally carrying a [`ReorderProbe`], unlocking the
    /// fourth axis of the decision tree.
    pub fn with_reorder_probe(mut self, probe: ReorderProbe) -> Self {
        self.reorder_probe = Some(probe);
        self
    }

    /// Matrix density `nnz / (rows*cols)`.
    ///
    /// The element count is formed exactly in `u128` before the single
    /// rounding to `f64` — `rows as f64 * cols as f64` would round
    /// twice, and for `rows * cols > 2^53` the double rounding can
    /// differ from the true quotient in the last bit.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz as f64 / (self.rows as u128 * self.cols as u128) as f64
        }
    }

    /// Bytes of the streamed COO copy.
    pub fn coo_bytes(&self) -> usize {
        self.nnz * 12
    }
}

/// Calibrated thresholds for the decision tree.
///
/// The defaults reproduce the paper's published takeaways; the
/// `fig4`–`fig6` benchmark binaries re-derive them empirically on this
/// simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Thresholds {
    /// CVD on a tile with 8 PEs (paper: ~2%).
    pub cvd_at_8_pes: f64,
    /// Matrix density at which `cvd_at_8_pes` was calibrated.
    pub cvd_reference_density: f64,
    /// Exponent of the mild sparse-matrix CVD correction.
    pub cvd_density_exponent: f64,
    /// Lower/upper clamps on the CVD.
    pub cvd_clamp: (f64, f64),
    /// Fraction of the chip's cache capacity the IP working set may
    /// occupy before SCS is preferred over SC.
    pub ip_cache_fit_fraction: f64,
    /// Minimum per-tile SPM reuse (`nnz / cols / tiles`, the §III-C.2
    /// `N·r/A` factor) for SCS to beat SC: below this, the cooperative
    /// preload reads words that are used less than ~once per tile and
    /// SC's line-granular caching wins. Halved when the dense vector
    /// overflows the chip's L2 (SC's misses then go all the way to HBM,
    /// so SPM pinning pays off sooner — the Fig 5 N=131k regime).
    pub scs_min_tile_reuse: f64,
    /// Largest PEs-per-tile for which SCS pays off on this simulator:
    /// beyond it the shared-SPM arbitration (B PEs on B/2 banks) and the
    /// halved L1 cache-bank count for the matrix stream outweigh the
    /// pinning benefit (Fig 5: every B=16 row loses).
    pub scs_max_pes_per_tile: usize,
    /// Fraction of the private L1 bank the per-PE sorted list may occupy
    /// before PS is preferred over PC.
    pub op_list_fit_fraction: f64,
    /// Minimum blocked fill ratio ([`FormatProbe::block_fill`]) for the
    /// IP stream to switch from COO to BCSR: below it the zero-filled
    /// block slots cost more value traffic than the amortized index and
    /// mask loads save.
    pub bcsr_min_fill: f64,
    /// Minimum entries per occupied 32-column segment
    /// ([`FormatProbe::seg_occupancy`]) for the IP stream to switch from
    /// COO to the hierarchical-bitmap CSR: each occupied segment pays a
    /// descriptor walk and an l0 word on top of its packed values, so
    /// near-uniform matrices (occupancy ~1-2) are cheaper as flat COO
    /// triplets; the bitmap's 4-byte value stride only wins once
    /// segments carry several entries each.
    pub bitmap_min_seg_occupancy: f64,
    /// Minimum [`ReorderProbe::gain`] — bandwidth shrinkage or segment
    /// occupancy growth, whichever is larger — for the plan to stream a
    /// permuted matrix image instead of the arrival order. Reordering
    /// pays a one-time permuted-image build and makes the plan key
    /// wider, so the bar is deliberately high: near-uniform matrices
    /// (gain ≈ 1) must stay on the arrival ordering.
    pub reorder_min_gain: f64,
}

impl Thresholds {
    /// Paper-derived defaults.
    pub fn paper() -> Self {
        Thresholds {
            cvd_at_8_pes: 0.02,
            cvd_reference_density: 2.3e-4,
            cvd_density_exponent: 0.05,
            cvd_clamp: (0.001, 0.06),
            ip_cache_fit_fraction: 1.0,
            scs_min_tile_reuse: 2.0,
            scs_max_pes_per_tile: 8,
            op_list_fit_fraction: 1.0,
            bcsr_min_fill: 0.5,
            bitmap_min_seg_occupancy: 4.0,
            reorder_min_gain: 1.5,
        }
    }

    /// The crossover vector density for a geometry and matrix density.
    ///
    /// Inversely proportional to PEs per tile (2% at 8 PEs → 0.5% at 32,
    /// §III-C.1 takeaway) with a mild boost for sparser matrices.
    pub fn cvd(&self, geometry: Geometry, matrix_density: f64) -> f64 {
        let base = self.cvd_at_8_pes * 8.0 / geometry.pes_per_tile() as f64;
        let correction = if matrix_density > 0.0 {
            (self.cvd_reference_density / matrix_density)
                .powf(self.cvd_density_exponent)
                .clamp(0.5, 2.0)
        } else {
            1.0
        };
        (base * correction).clamp(self.cvd_clamp.0, self.cvd_clamp.1)
    }
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds::paper()
    }
}

/// Runs the full decision tree of Figure 2 for a frontier of
/// `frontier_nnz` active entries.
///
/// The tree takes the exact active count, not a density: the count
/// decides the OP list-fit boundary, and the density (`frontier_nnz /
/// cols`) is derived here only for the CVD comparison.
///
/// ```
/// use cosparse::{decide_exact, MatrixSummary, OpProfile, SwConfig, Thresholds};
/// use transmuter::{Geometry, MicroArch};
///
/// let m = MatrixSummary::new(1 << 17, 1 << 17, 4_000_000);
/// let d = decide_exact(
///     m,
///     131, // a very sparse frontier: 0.1% of the columns
///     Geometry::new(4, 8),
///     &MicroArch::paper(),
///     &Thresholds::paper(),
///     &OpProfile::scalar(),
/// );
/// assert_eq!(d.software, SwConfig::OuterProduct);
/// ```
pub fn decide_exact(
    matrix: MatrixSummary,
    frontier_nnz: usize,
    geometry: Geometry,
    ua: &MicroArch,
    thresholds: &Thresholds,
    profile: &OpProfile,
) -> Decision {
    let vector_density = if matrix.cols == 0 {
        0.0
    } else {
        frontier_nnz as f64 / matrix.cols as f64
    };
    let cvd = thresholds.cvd(geometry, matrix.density());
    let software = if vector_density < cvd {
        SwConfig::OuterProduct
    } else {
        SwConfig::InnerProduct
    };
    let hardware = match software {
        SwConfig::InnerProduct => {
            // Working set: streamed COO + dense vector (+ output).
            let vec_bytes =
                matrix.cols * 4 * profile.value_words + matrix.rows * 4 * profile.value_words;
            let working_set = matrix.coo_bytes() + vec_bytes;
            // Chip cache capacity in SC mode: all L1 + all L2 banks.
            let cache_bytes = geometry.total_pes() * ua.bank_bytes * 2;
            // §III-C.2: SCS pays a full-segment preload per tile, so it
            // only wins when each preloaded word is reused enough
            // (`N·r/A` uses per tile). When the vector overflows L2, SC's
            // vector misses reach HBM and the bar halves.
            let tile_reuse = if matrix.cols == 0 {
                0.0
            } else {
                matrix.nnz as f64 / matrix.cols as f64 / geometry.tiles() as f64
            };
            let l2_bytes = geometry.total_pes() * ua.bank_bytes;
            let x_bytes = matrix.cols * 4 * profile.value_words;
            let reuse_bar = if x_bytes > l2_bytes {
                thresholds.scs_min_tile_reuse / 2.0
            } else {
                thresholds.scs_min_tile_reuse
            };
            if (working_set as f64) > thresholds.ip_cache_fit_fraction * cache_bytes as f64
                && tile_reuse >= reuse_bar
                && geometry.pes_per_tile() <= thresholds.scs_max_pes_per_tile
            {
                HwConfig::Scs
            } else {
                HwConfig::Sc
            }
        }
        SwConfig::OuterProduct => {
            // Per-PE sorted list: the tile sees the whole frontier, each
            // PE takes 1/B of it, 8 bytes per node.
            let list_bytes = frontier_nnz.div_ceil(geometry.pes_per_tile()) * 8;
            if (list_bytes as f64) > thresholds.op_list_fit_fraction * ua.bank_bytes as f64 {
                HwConfig::Ps
            } else {
                HwConfig::Pc
            }
        }
    };
    // Format: OP always merges CSC columns. For IP the probe can
    // promote the stream from COO to a denser-per-entry format — BCSR
    // when the matrix blocks well, else the hierarchical bitmap when
    // entries cluster within 32-column segments.
    let format = match software {
        SwConfig::OuterProduct => FormatKind::Csc,
        SwConfig::InnerProduct => match matrix.probe {
            Some(p) if p.block_fill >= thresholds.bcsr_min_fill => FormatKind::Bcsr,
            Some(p) if p.seg_occupancy >= thresholds.bitmap_min_seg_occupancy => FormatKind::Bitmap,
            _ => FormatKind::Coo,
        },
    };
    // Reordering: only when the locality probe shows a candidate
    // permutation substantially tightening the bandwidth or packing the
    // segments — otherwise the arrival order keeps the plan key narrow.
    let reorder = match matrix.reorder_probe {
        Some(p) => {
            let (kind, gain) = p.best();
            if gain >= thresholds.reorder_min_gain {
                kind
            } else {
                ReorderKind::None
            }
        }
        None => ReorderKind::None,
    };
    Decision {
        software,
        hardware,
        format,
        reorder,
        cvd,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(n: usize, nnz: usize) -> MatrixSummary {
        MatrixSummary::new(n, n, nnz)
    }

    /// The tree with the paper's parameters, for `active` frontier
    /// entries.
    fn decide_default(m: MatrixSummary, active: usize, g: Geometry) -> Decision {
        decide_exact(
            m,
            active,
            g,
            &MicroArch::paper(),
            &Thresholds::paper(),
            &OpProfile::scalar(),
        )
    }

    #[test]
    fn dense_vector_selects_ip() {
        let d = decide_default(summary(1 << 17, 4_000_000), 1 << 17, Geometry::new(4, 8));
        assert_eq!(d.software, SwConfig::InnerProduct);
    }

    #[test]
    fn sparse_vector_selects_op() {
        let d = decide_default(summary(1 << 17, 4_000_000), 131, Geometry::new(4, 8));
        assert_eq!(d.software, SwConfig::OuterProduct);
    }

    #[test]
    fn cvd_shrinks_with_more_pes_per_tile() {
        let t = Thresholds::paper();
        let cvd8 = t.cvd(Geometry::new(4, 8), 1e-4);
        let cvd32 = t.cvd(Geometry::new(4, 32), 1e-4);
        assert!(cvd8 > cvd32 * 3.0, "{cvd8} vs {cvd32}");
        // Paper: ~2% at 8 PEs, ~0.5% at 32 PEs.
        assert!((0.01..=0.05).contains(&cvd8));
        assert!((0.002..=0.01).contains(&cvd32));
    }

    #[test]
    fn cvd_rises_for_sparser_matrices() {
        let t = Thresholds::paper();
        let g = Geometry::new(4, 8);
        assert!(t.cvd(g, 3.6e-6) > t.cvd(g, 2.3e-4));
    }

    #[test]
    fn large_working_set_selects_scs() {
        // 4M nnz ≫ the 4x8 chip's 256 kB of cache, and the per-tile SPM
        // reuse (4M/131k/4 ≈ 7.6) clears the threshold.
        let d = decide_default(summary(1 << 17, 4_000_000), 1 << 16, Geometry::new(4, 8));
        assert_eq!(d.software, SwConfig::InnerProduct);
        assert_eq!(d.hardware, HwConfig::Scs);
    }

    #[test]
    fn l2_overflow_halves_the_reuse_bar() {
        // Fig 5's N=131k regime (scale 4): reuse 1.9 < 2, but the 512 kB
        // vector overflows the 4x8 chip's 128 kB L2 → SCS wins there
        // empirically (+68-89%), and the tree should pick it.
        let d = decide_default(summary(131_072, 1_000_000), 65_536, Geometry::new(4, 8));
        assert_eq!(d.hardware, HwConfig::Scs);
    }

    #[test]
    fn many_pes_per_tile_disable_scs() {
        // Same workload on 4x16: every Fig 5 B=16 row loses ~10%, so the
        // guard keeps SC regardless of reuse.
        let d = decide_default(summary(131_072, 1_000_000), 65_536, Geometry::new(4, 16));
        assert_eq!(d.hardware, HwConfig::Sc);
        let d = decide_default(summary(1 << 17, 4_000_000), 1 << 16, Geometry::new(4, 16));
        assert_eq!(d.hardware, HwConfig::Sc);
    }

    #[test]
    fn low_reuse_keeps_sc_even_when_cache_overflows() {
        // Reuse 4M/4M(cols)/4 ≈ 0.25: even with the vector overflowing
        // L2 the halved bar (1.0) is not met → SC.
        let d = decide_default(summary(1 << 22, 4_000_000), 1 << 21, Geometry::new(4, 8));
        assert_eq!(d.software, SwConfig::InnerProduct);
        assert_eq!(d.hardware, HwConfig::Sc);
    }

    #[test]
    fn tiny_working_set_selects_sc() {
        let d = decide_default(summary(256, 1000), 128, Geometry::new(4, 8));
        assert_eq!(d.hardware, HwConfig::Sc);
    }

    #[test]
    fn long_sorted_list_selects_ps() {
        // 1% of 1M columns → ~10.5k frontier / 8 PEs → ~10 kB per-PE
        // list ≫ the 4 kB private bank.
        let g = Geometry::new(4, 8);
        let d = decide_default(summary(1 << 20, 4_000_000), 10_486, g);
        assert_eq!(d.software, SwConfig::OuterProduct);
        assert_eq!(d.hardware, HwConfig::Ps);
    }

    #[test]
    fn short_sorted_list_selects_pc() {
        let d = decide_default(summary(1 << 17, 4_000_000), 13, Geometry::new(4, 8));
        assert_eq!(d.software, SwConfig::OuterProduct);
        assert_eq!(d.hardware, HwConfig::Pc);
    }

    #[test]
    fn fig9_pokec_like_iterations() {
        // SSSP on pokec (Fig 9): density <1% → OP at 16x16; 47% → IP.
        // Calibration note: the paper's tree picks SCS at the density
        // peak, but on this simulator pokec's per-tile reuse at 16 tiles
        // (~1.2 uses/word) makes the SCS preload a net loss, and the
        // empirical per-iteration best (fig9 binary) confirms SC — so
        // the reuse guard keeps SC here.
        let g = Geometry::new(16, 16);
        let m = summary(1_632_803, 30_622_564);
        let sparse_iter = decide_default(m, 3_266, g);
        assert_eq!(sparse_iter.software, SwConfig::OuterProduct);
        let dense_iter = decide_default(m, 767_417, g);
        assert_eq!(dense_iter.software, SwConfig::InnerProduct);
        assert_eq!(dense_iter.hardware, HwConfig::Sc);
    }

    #[test]
    fn list_fit_boundary_is_exact() {
        // 8 PEs/tile, 4 kB private banks, 8 bytes/node: 4096 frontier
        // entries → exactly 512 nodes (4096 B) per PE → PC; one more
        // entry spills the list → PS.
        let g = Geometry::new(4, 8);
        let m = summary(1 << 20, 4_000_000);
        let fits = decide_default(m, 4096, g);
        assert_eq!(fits.software, SwConfig::OuterProduct);
        assert_eq!(fits.hardware, HwConfig::Pc);
        let spills = decide_default(m, 4097, g);
        assert_eq!(spills.hardware, HwConfig::Ps);
        // One PE per tile: the 513th node is the one that spills. Its
        // density 513/65643 times the column count lands a hair below
        // 513, so only the exact count keeps it.
        let g = Geometry::new(4, 1);
        let m = MatrixSummary::new(65_643, 65_643, 500_000);
        assert_eq!(decide_default(m, 512, g).hardware, HwConfig::Pc);
        assert_eq!(decide_default(m, 513, g).hardware, HwConfig::Ps);
    }

    #[test]
    fn empty_matrix_degenerates_gracefully() {
        // No columns: the frontier's density is 0, below any CVD → OP,
        // and the empty list fits the private bank → PC. No panics on
        // zero shapes.
        let d = decide_default(summary(0, 0), 0, Geometry::new(2, 4));
        assert_eq!(d.software, SwConfig::OuterProduct);
        assert_eq!(d.hardware, HwConfig::Pc);
        assert_eq!(d.format, FormatKind::Csc);
    }

    #[test]
    fn density_is_single_rounded_for_huge_shapes() {
        // rows * cols overflows 2^53: the u128 product rounds once; the
        // old `rows as f64 * cols as f64` product rounded twice. Both
        // must stay finite, positive and within one ulp of the true
        // quotient.
        let m = MatrixSummary::new(94_906_267, 94_906_267, 4_000_000_000);
        let elems = 94_906_267u128 * 94_906_267u128;
        let want = 4_000_000_000f64 / elems as f64;
        assert!(m.density() > 0.0 && m.density().is_finite());
        assert_eq!(m.density(), want);
    }

    #[test]
    fn op_always_uses_csc_regardless_of_probe() {
        let probe = FormatProbe {
            seg_occupancy: 30.0,
            block_fill: 1.0,
            block_shape: (4, 4),
        };
        let m = MatrixSummary::with_probe(1 << 17, 1 << 17, 4_000_000, probe);
        let d = decide_default(m, 131, Geometry::new(4, 8));
        assert_eq!(d.software, SwConfig::OuterProduct);
        assert_eq!(d.format, FormatKind::Csc);
    }

    #[test]
    fn probe_steers_the_ip_format() {
        let g = Geometry::new(4, 8);
        let base = summary(1 << 17, 4_000_000);
        // No probe: the paper's COO stream.
        assert_eq!(decide_default(base, 1 << 16, g).format, FormatKind::Coo);
        // Blocky matrix: BCSR wins even though segments are also full.
        let blocky = MatrixSummary {
            probe: Some(FormatProbe {
                seg_occupancy: 8.0,
                block_fill: 0.8,
                block_shape: (4, 4),
            }),
            ..base
        };
        assert_eq!(decide_default(blocky, 1 << 16, g).format, FormatKind::Bcsr);
        // Clustered but unblockable: bitmap.
        let clustered = MatrixSummary {
            probe: Some(FormatProbe {
                seg_occupancy: 6.0,
                block_fill: 0.2,
                block_shape: (1, 1),
            }),
            ..base
        };
        assert_eq!(
            decide_default(clustered, 1 << 16, g).format,
            FormatKind::Bitmap
        );
        // Scattered: stay on COO.
        let scattered = MatrixSummary {
            probe: Some(FormatProbe {
                seg_occupancy: 1.05,
                block_fill: 0.1,
                block_shape: (1, 1),
            }),
            ..base
        };
        assert_eq!(
            decide_default(scattered, 1 << 16, g).format,
            FormatKind::Coo
        );
    }

    #[test]
    fn default_formats_are_the_papers_resident_pair() {
        assert_eq!(default_format(SwConfig::InnerProduct), FormatKind::Coo);
        assert_eq!(default_format(SwConfig::OuterProduct), FormatKind::Csc);
    }

    #[test]
    fn no_reorder_probe_keeps_arrival_order() {
        let d = decide_default(summary(1 << 17, 4_000_000), 1 << 16, Geometry::new(4, 8));
        assert_eq!(d.reorder, ReorderKind::None);
    }

    #[test]
    fn reorder_probe_gain_gates_the_fourth_axis() {
        let g = Geometry::new(4, 8);
        let base = summary(1 << 17, 4_000_000);
        // RCM slashing the bandwidth by 3x clears the 1.5x gate.
        let good = ReorderProbe {
            arrival_bandwidth: 30_000.0,
            arrival_occupancy: 1.2,
            bandwidth: [25_000.0, 10_000.0, 24_000.0],
            occupancy: [1.3, 1.4, 1.5],
        };
        let d = decide_default(base.with_reorder_probe(good), 1 << 16, g);
        assert_eq!(d.reorder, ReorderKind::Rcm);
        // Marginal improvements everywhere: stay on arrival order.
        let marginal = ReorderProbe {
            arrival_bandwidth: 30_000.0,
            arrival_occupancy: 1.2,
            bandwidth: [28_000.0, 26_000.0, 29_000.0],
            occupancy: [1.25, 1.3, 1.2],
        };
        let d = decide_default(base.with_reorder_probe(marginal), 1 << 16, g);
        assert_eq!(d.reorder, ReorderKind::None);
        // Occupancy growth alone can also clear the gate (the window
        // heuristic's signature win).
        let packed = ReorderProbe {
            arrival_bandwidth: 30_000.0,
            arrival_occupancy: 1.2,
            bandwidth: [30_000.0, 30_000.0, 30_000.0],
            occupancy: [1.3, 1.3, 2.4],
        };
        let d = decide_default(base.with_reorder_probe(packed), 1 << 16, g);
        assert_eq!(d.reorder, ReorderKind::WindowCluster);
    }

    #[test]
    fn reorder_gate_applies_to_both_dataflows() {
        let good = ReorderProbe {
            arrival_bandwidth: 30_000.0,
            arrival_occupancy: 1.2,
            bandwidth: [25_000.0, 10_000.0, 24_000.0],
            occupancy: [1.3, 1.4, 1.5],
        };
        let m = summary(1 << 17, 4_000_000).with_reorder_probe(good);
        let op = decide_default(m, 131, Geometry::new(4, 8));
        assert_eq!(op.software, SwConfig::OuterProduct);
        assert_eq!(op.reorder, ReorderKind::Rcm, "OP streams permuted CSC too");
    }
}
