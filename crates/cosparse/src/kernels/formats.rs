//! Inner-product SpMV kernels over the alternate storage formats (the
//! third reconfiguration axis): hierarchical-bitmap CSR and blocked
//! BCSR streaming.
//!
//! Both kernels keep the IP contract of [`crate::kernels::ip`] — dense
//! frontier, per-PE nnz-balanced row ranges, every vector element
//! inspected, MAC and output traffic only for active elements — but
//! stream a packed format image (the layout's `fmt` region) instead of
//! COO triplets:
//!
//! * **bitmap** — per row: one descriptor word, the row's level-1 words,
//!   one level-0 word per occupied 32-column segment, then one densely
//!   packed value word per entry. ~2 streamed words per entry against
//!   COO's 12-byte triplets, so the matrix stream touches ~3x fewer
//!   cache lines when segments are well occupied.
//! * **bcsr** — per block: one header word (column + mask), one vector
//!   load per block *column* (shared across the block's rows — the
//!   register-blocking amortization), and the `r x c` value slab as
//!   sequential words. Wins when the fill ratio keeps the slab traffic
//!   below the saved index/vector loads.
//!
//! The kernels are hardware-agnostic streams (no SPM verbs): they run
//! under any [`transmuter::HwConfig`], relying on caches for vector
//! reuse. SPM pinning remains a COO-path (SCS) specialization.

use crate::kernels::KernelSink;
use crate::layout::Layout;
use crate::ops::OpProfile;
use sparse::partition::RowPartition;
use sparse::{BcsrMatrix, BitmapCsr};
use transmuter::Geometry;

/// Configuration of one format-stream invocation (the masked/dense IP
/// knobs that apply to format streaming).
#[derive(Debug, Clone, Copy)]
pub struct FmtParams<'a> {
    /// Structure layout in the simulated address space (must carry a
    /// `fmt` region sized by [`bitmap_image_bytes`]/[`bcsr_image_bytes`]).
    pub layout: &'a Layout,
    /// Per-PE row partitions (exactly `geometry.total_pes()` parts).
    pub partition: &'a RowPartition,
    /// Per-column activity mask (`None` = fully dense); same §IV-C.1
    /// semantics as the COO IP kernel.
    pub active: Option<&'a [bool]>,
    /// Per-edge cost profile of the graph op.
    pub profile: OpProfile,
}

/// Bytes of the packed bitmap image the kernel streams: level-1 words
/// (2 words each), level-0 words, packed values, and one descriptor
/// word per row.
pub fn bitmap_image_bytes(m: &BitmapCsr) -> usize {
    (m.l1().len() * 2 + m.l0().len() + m.nnz() + m.rows() + 1) * 4
}

/// Bytes of the packed BCSR image the kernel streams: block-row
/// pointers, a 2-word header per block, and the full `r x c` value slab
/// per block.
pub fn bcsr_image_bytes(m: &BcsrMatrix) -> usize {
    let (r, c) = m.block_shape();
    (m.block_row_ptr().len() + m.block_count() * (2 + r * c)) * 4
}

/// Emits the one-time format materialization pass into `sink`: every
/// COO triplet is read and the packed image written to the layout's
/// `fmt` region, split evenly across PEs (PE `p` reads its slice of the
/// triplet stream and writes its slice of the image words). The runtime
/// charges this once per graph, when a decision first lands on a cold
/// alternate format (mirroring the host side, where derived structures
/// are cached for the graph's lifetime).
pub fn build_pack(
    layout: &Layout,
    geometry: Geometry,
    nnz: usize,
    image_words: usize,
    sink: &mut impl KernelSink,
) {
    let pes = geometry.total_pes();
    // Exact: each compute burst folds into its load.
    sink.reserve(nnz + image_words);
    for tile in 0..geometry.tiles() {
        for pe in 0..geometry.pes_per_tile() {
            let p = geometry.pe_id(tile, pe);
            let e_lo = nnz * p / pes;
            let e_hi = nnz * (p + 1) / pes;
            let w_lo = image_words * p / pes;
            let w_hi = image_words * (p + 1) / pes;
            sink.begin_pe(tile, pe);
            for k in e_lo..e_hi {
                sink.load(layout.coo_entry(k));
                sink.compute(1);
            }
            for w in w_lo..w_hi {
                sink.store(layout.fmt_word(w));
            }
        }
    }
}

/// Emits the bitmap-CSR IP kernel into `sink`, one stream per PE. For a
/// [`transmuter::ProgramBuilder`] the caller `begin`s and `finish`es it.
///
/// # Panics
///
/// Panics if `partition.len() != geometry.total_pes()`.
pub fn build_bitmap(
    m: &BitmapCsr,
    geometry: Geometry,
    params: FmtParams<'_>,
    sink: &mut impl KernelSink,
) {
    assert_eq!(
        params.partition.len(),
        geometry.total_pes(),
        "bitmap ip needs one row partition per PE"
    );
    let vw = params.profile.value_words;
    let mac_cost = 2 + params.profile.extra_compute_per_edge;
    let spr = m.segs_per_row();
    let l1_words = m.l1().len();
    let l0_base = l1_words * 2;
    let val_base = l0_base + m.l0().len();
    let desc_base = val_base + m.nnz();
    // Micro-op bound (compute bursts fold into the load before them):
    // per row a descriptor load, the level-1 words its segment bits span
    // and `vw` output stores; per occupied segment a level-0 load; per
    // entry a value load and at most `vw` vector loads.
    let bound: usize = params
        .partition
        .iter()
        .map(|range| {
            let nnz_here = m.row_ptr()[range.end] - m.row_ptr()[range.start];
            let segs_here = m.row_seg_ptr()[range.end] - m.row_seg_ptr()[range.start];
            range.len() * (2 + spr.div_ceil(64) + vw) + segs_here + nnz_here * (1 + vw)
        })
        .sum();
    sink.reserve(bound);
    for tile in 0..geometry.tiles() {
        for pe in 0..geometry.pes_per_tile() {
            let part = geometry.pe_id(tile, pe);
            let range = params.partition.range(part);
            sink.begin_pe(tile, pe);
            for r in range {
                // Row descriptor (segment/value prefix sums).
                sink.load(params.layout.fmt_word(desc_base + r));
                // The level-1 words covering this row's segment bits.
                let bit_lo = r * spr;
                let bit_hi = (r + 1) * spr;
                for w in bit_lo / 64..bit_hi.div_ceil(64) {
                    sink.load(params.layout.fmt_word(w * 2));
                }
                // One level-0 word per occupied segment.
                let seg_base = m.row_seg_ptr()[r];
                for k in 0..m.row_segments(r).count() {
                    sink.load(params.layout.fmt_word(l0_base + seg_base + k));
                    sink.compute(1);
                }
                // Packed values, sequential; vector access per entry.
                let mut any_active = false;
                for (val_idx, (col, _)) in (m.row_ptr()[r]..).zip(m.iter_row(r)) {
                    sink.load(params.layout.fmt_word(val_base + val_idx));
                    let is_active = params.active.is_none_or(|mask| mask[col as usize]);
                    let words = if is_active { vw } else { 1 };
                    for w in 0..words {
                        sink.load(params.layout.x_elem(col as usize, w));
                    }
                    if is_active {
                        sink.compute(mac_cost);
                        any_active = true;
                    }
                }
                if any_active {
                    for w in 0..vw {
                        sink.store(params.layout.y_elem(r, w));
                    }
                }
            }
        }
    }
}

/// Emits the blocked-CSR IP kernel into `sink`, one stream per PE. A
/// block row is processed by the partition owning its first matrix row,
/// so every block is streamed exactly once regardless of how the
/// nnz-balanced split lands relative to block boundaries.
///
/// # Panics
///
/// Panics if `partition.len() != geometry.total_pes()`.
pub fn build_bcsr(
    m: &BcsrMatrix,
    geometry: Geometry,
    params: FmtParams<'_>,
    sink: &mut impl KernelSink,
) {
    assert_eq!(
        params.partition.len(),
        geometry.total_pes(),
        "bcsr ip needs one row partition per PE"
    );
    let vw = params.profile.value_words;
    let mac_cost = 2 + params.profile.extra_compute_per_edge;
    let (br, bc) = m.block_shape();
    let block_rows = m.rows().div_ceil(br);
    let hdr_base = block_rows + 1;
    let val_base = hdr_base + m.block_count() * 2;
    // Block rows whose first matrix row falls in a partition.
    let block_rows_of = |range: std::ops::Range<usize>| {
        range.start.div_ceil(br)..range.end.div_ceil(br).min(block_rows)
    };
    // Micro-op bound (compute bursts fold into the load before them):
    // per block row its pointer load and at most `br * vw` output
    // stores; per block its header, at most `vw` vector loads per block
    // column and the value slab.
    let bound: usize = params
        .partition
        .iter()
        .map(|range| {
            let brows = block_rows_of(range);
            let blocks = if brows.is_empty() {
                0
            } else {
                m.block_row_ptr()[brows.end] - m.block_row_ptr()[brows.start]
            };
            brows.len() * (1 + br * vw) + blocks * (1 + bc * vw + br * bc)
        })
        .sum();
    sink.reserve(bound);
    for tile in 0..geometry.tiles() {
        for pe in 0..geometry.pes_per_tile() {
            let part = geometry.pe_id(tile, pe);
            sink.begin_pe(tile, pe);
            for brow in block_rows_of(params.partition.range(part)) {
                sink.load(params.layout.fmt_word(brow)); // block-row pointer
                let mut row_active = [false; 16];
                for b in m.block_row_ptr()[brow]..m.block_row_ptr()[brow + 1] {
                    sink.load(params.layout.fmt_word(hdr_base + b * 2));
                    sink.compute(1);
                    let bcol = m.block_col()[b] as usize;
                    let mask = m.mask()[b];
                    // One inspection load per block column, shared by
                    // the block's rows — the amortization BCSR buys.
                    for j in 0..bc {
                        let col = bcol * bc + j;
                        if col >= m.cols() {
                            break;
                        }
                        let col_active = params.active.is_none_or(|mk| mk[col]);
                        let col_used = (0..br).any(|i| mask >> (i * bc + j) & 1 == 1);
                        let words = if col_active && col_used { vw } else { 1 };
                        for w in 0..words {
                            sink.load(params.layout.x_elem(col, w));
                        }
                    }
                    // The value slab streams sequentially, fill included.
                    for w in 0..br * bc {
                        sink.load(params.layout.fmt_word(val_base + b * br * bc + w));
                    }
                    for (i, active) in row_active.iter_mut().take(br).enumerate() {
                        for j in 0..bc {
                            let col = bcol * bc + j;
                            if col >= m.cols() || mask >> (i * bc + j) & 1 == 0 {
                                continue;
                            }
                            if params.active.is_none_or(|mk| mk[col]) {
                                sink.compute(mac_cost);
                                *active = true;
                            }
                        }
                    }
                }
                for (i, active) in row_active.iter().take(br).enumerate() {
                    let r = brow * br + i;
                    if *active && r < m.rows() {
                        for w in 0..vw {
                            sink.store(params.layout.y_elem(r, w));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{ip_partitions, Balancing};
    use crate::kernels::OpBufSink;
    use crate::layout::Layout;
    use sparse::CooMatrix;
    use transmuter::{HwConfig, Machine, MicroArch};

    /// A tall banded matrix: every row holds one dense 24-column run,
    /// so bitmap segments are nearly full and 4x4 blocks are dense.
    fn banded(n: usize) -> CooMatrix {
        let mut ts = Vec::new();
        for r in 0..n as u32 {
            let base = (r / 4) * 4 % (n as u32 - 24);
            for k in 0..24 {
                ts.push((r, base + k, 1.0 + k as f32));
            }
        }
        CooMatrix::from_triplets(n, n, ts).unwrap()
    }

    fn sim(coo: &CooMatrix, which: sparse::FormatKind) -> transmuter::SimReport {
        let g = Geometry::new(2, 4);
        let part = ip_partitions(&coo.row_counts(), g, Balancing::NnzBalanced);
        let mut machine = Machine::new(g, MicroArch::paper());
        machine.reconfigure(HwConfig::Sc);
        match which {
            sparse::FormatKind::Bitmap => {
                let m = BitmapCsr::from(coo);
                let l = Layout::with_format_bytes(
                    coo.rows(),
                    coo.cols(),
                    coo.nnz(),
                    g,
                    1,
                    bitmap_image_bytes(&m),
                );
                let params = FmtParams {
                    layout: &l,
                    partition: &part,
                    active: None,
                    profile: OpProfile::scalar(),
                };
                let mut sink = OpBufSink::new(g);
                build_bitmap(&m, g, params, &mut sink);
                machine.run(sink.into_stream_set()).unwrap()
            }
            sparse::FormatKind::Bcsr => {
                let m = BcsrMatrix::from(coo);
                let l = Layout::with_format_bytes(
                    coo.rows(),
                    coo.cols(),
                    coo.nnz(),
                    g,
                    1,
                    bcsr_image_bytes(&m),
                );
                let params = FmtParams {
                    layout: &l,
                    partition: &part,
                    active: None,
                    profile: OpProfile::scalar(),
                };
                let mut sink = OpBufSink::new(g);
                build_bcsr(&m, g, params, &mut sink);
                machine.run(sink.into_stream_set()).unwrap()
            }
            _ => unreachable!("test only drives the format kernels"),
        }
    }

    fn sim_coo(coo: &CooMatrix) -> transmuter::SimReport {
        use crate::kernels::ip;
        use sparse::partition::VBlocks;
        let g = Geometry::new(2, 4);
        let part = ip_partitions(&coo.row_counts(), g, Balancing::NnzBalanced);
        let l = Layout::new(coo.rows(), coo.cols(), coo.nnz(), g, 1);
        let mut machine = Machine::new(g, MicroArch::paper());
        machine.reconfigure(HwConfig::Sc);
        let vb = VBlocks::whole(coo.cols());
        let params = ip::IpParams {
            layout: &l,
            partition: &part,
            vblocks: &vb,
            use_spm: false,
            active: None,
            profile: OpProfile::scalar(),
        };
        let mut sink = OpBufSink::new(g);
        ip::build(coo, g, params, &mut sink);
        machine.run(sink.into_stream_set()).unwrap()
    }

    #[test]
    fn bitmap_touches_every_entry_and_runs() {
        let coo = banded(512);
        let r = sim(&coo, sparse::FormatKind::Bitmap);
        // ≥ one value load + one vector load per entry.
        assert!(r.stats.loads as usize >= 2 * coo.nnz());
        assert!(r.cycles > 0);
    }

    #[test]
    fn bcsr_amortizes_vector_loads_over_blocks() {
        let coo = banded(512);
        let m = BcsrMatrix::from(&coo);
        assert!(m.block_shape().0 * m.block_shape().1 > 1, "must block");
        let r = sim(&coo, sparse::FormatKind::Bcsr);
        let coo_r = sim_coo(&coo);
        // Dense 4x4 blocks: one x load serves 4 rows, so total loads
        // drop below the COO kernel's 2-per-entry floor.
        assert!(
            r.stats.loads < coo_r.stats.loads,
            "bcsr {} vs coo {}",
            r.stats.loads,
            coo_r.stats.loads
        );
    }

    #[test]
    fn banded_matrix_streams_cheaper_than_coo() {
        // The acceptance family: high segment occupancy makes the
        // bitmap matrix stream touch ~3x fewer lines than COO triplets.
        let coo = banded(1024);
        let bit = sim(&coo, sparse::FormatKind::Bitmap);
        let coo_r = sim_coo(&coo);
        assert!(
            bit.cycles < coo_r.cycles,
            "bitmap {} vs coo {}",
            bit.cycles,
            coo_r.cycles
        );
    }

    #[test]
    fn mask_reduces_format_kernel_work() {
        let coo = banded(256);
        let g = Geometry::new(2, 4);
        let part = ip_partitions(&coo.row_counts(), g, Balancing::NnzBalanced);
        let m = BitmapCsr::from(&coo);
        let l = Layout::with_format_bytes(256, 256, coo.nnz(), g, 1, bitmap_image_bytes(&m));
        let run = |active: Option<&[bool]>| {
            let mut machine = Machine::new(g, MicroArch::paper());
            machine.reconfigure(HwConfig::Sc);
            let params = FmtParams {
                layout: &l,
                partition: &part,
                active,
                profile: OpProfile::scalar(),
            };
            let mut sink = OpBufSink::new(g);
            build_bitmap(&m, g, params, &mut sink);
            machine.run(sink.into_stream_set()).unwrap()
        };
        let dense = run(None);
        let none = vec![false; 256];
        let empty = run(Some(&none));
        assert_eq!(dense.stats.loads, empty.stats.loads, "inspection loads");
        assert!(empty.stats.stores < dense.stats.stores.max(1));
        assert!(empty.stats.compute_cycles < dense.stats.compute_cycles);
    }

    #[test]
    fn empty_matrix_emits_and_runs() {
        let coo = CooMatrix::from_triplets(16, 16, vec![]).unwrap();
        for kind in [sparse::FormatKind::Bitmap, sparse::FormatKind::Bcsr] {
            let r = sim(&coo, kind);
            assert_eq!(r.stats.stores, 0);
        }
    }
}
