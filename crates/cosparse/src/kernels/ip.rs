//! Inner-product (IP) SpMV kernel: dense frontier, row-major COO
//! streaming (Figure 3, top).
//!
//! Each PE owns one nnz-balanced row partition and streams its triplets
//! sequentially. The input vector is accessed randomly — from the shared
//! L1 SPM after a cooperative per-vblock preload (SCS) or straight from
//! the shared caches (SC). Output accumulation happens in a register and
//! is written back once per (row, vblock) run.

use crate::kernels::KernelSink;
use crate::layout::Layout;
use crate::ops::OpProfile;
use sparse::partition::{RowPartition, VBlocks};
use sparse::CooMatrix;
use transmuter::Geometry;

/// Configuration of one IP invocation.
#[derive(Debug, Clone, Copy)]
pub struct IpParams<'a> {
    /// Structure layout in the simulated address space.
    pub layout: &'a Layout,
    /// Per-PE row partitions (exactly `geometry.total_pes()` parts).
    pub partition: &'a RowPartition,
    /// Vertical (column) tiling; use [`VBlocks::whole`] to disable.
    pub vblocks: &'a VBlocks,
    /// True for SCS (vector in shared SPM); false for SC (cached).
    pub use_spm: bool,
    /// Per-column activity mask (`None` = fully dense). IP must load
    /// every vector element to inspect it, but "skips computation and
    /// accesses to the output vector if the vector element is zero"
    /// (§IV-C.1) — so inactive columns cost a load and nothing else.
    pub active: Option<&'a [bool]>,
    /// Per-edge cost profile of the graph op.
    pub profile: OpProfile,
}

/// Emits the IP kernel into `sink`, one stream per PE. For a
/// [`transmuter::ProgramBuilder`] the caller `begin`s and `finish`es it.
///
/// Every PE iterates the same vblock sequence (with tile barriers
/// around SPM preloads in SCS mode), so barrier counts always match.
///
/// # Panics
///
/// Panics if `partition.len() != geometry.total_pes()`.
pub fn build(
    coo_t: &CooMatrix,
    geometry: Geometry,
    params: IpParams<'_>,
    sink: &mut impl KernelSink,
) {
    build_with(coo_t, geometry, params, &mut IpScratch::default(), sink);
}

/// Reusable buffers for the per-PE vblock bucketing of multi-vblock IP
/// builds: each PE's triplets are grouped by vblock with a stable
/// counting sort, in O(nnz + vblocks).
#[derive(Debug, Default)]
pub struct IpScratch {
    /// Bucket start offsets into `entries`, one per vblock plus the end.
    starts: Vec<usize>,
    /// One PE's `(row, col)` pairs, grouped by vblock.
    entries: Vec<(u32, u32)>,
}

impl IpScratch {
    /// Groups one PE's triplets by vblock with a stable counting sort:
    /// bucket `vb` is `entries[starts[vb]..starts[vb + 1]]`, holding that
    /// vblock's triplets in storage (row-major) order — the reordered
    /// storage layout of §III-B, in O(nnz + vblocks).
    fn bucket(&mut self, entries: &[sparse::Triplet], vblocks: &VBlocks) {
        let n_vb = vblocks.len();
        self.starts.clear();
        self.starts.resize(n_vb + 1, 0);
        for t in entries {
            self.starts[vblocks.block_of(t.col as usize) + 1] += 1;
        }
        for vb in 0..n_vb {
            self.starts[vb + 1] += self.starts[vb];
        }
        self.entries.clear();
        self.entries.resize(entries.len(), (0, 0));
        // Scatter through a moving cursor per bucket: `starts[vb]` walks
        // to the next bucket's start, so shift the table back afterwards.
        for t in entries {
            let vb = vblocks.block_of(t.col as usize);
            self.entries[self.starts[vb]] = (t.row, t.col);
            self.starts[vb] += 1;
        }
        for vb in (1..=n_vb).rev() {
            self.starts[vb] = self.starts[vb - 1];
        }
        self.starts[0] = 0;
    }
}

/// [`build`] with caller-owned bucketing buffers: the steady-state form
/// for sessions that emit a masked IP program per frontier, so repeated
/// multi-vblock builds allocate nothing once the buffers have grown.
///
/// # Panics
///
/// Panics if `partition.len() != geometry.total_pes()`.
pub fn build_with(
    coo_t: &CooMatrix,
    geometry: Geometry,
    params: IpParams<'_>,
    scratch: &mut IpScratch,
    sink: &mut impl KernelSink,
) {
    assert_eq!(
        params.partition.len(),
        geometry.total_pes(),
        "ip needs one row partition per PE"
    );
    let vw = params.profile.value_words;
    let mac_cost = 2 + params.profile.extra_compute_per_edge;
    let b = geometry.pes_per_tile();
    sink.reserve(micro_op_bound(coo_t, geometry, params));

    for tile in 0..geometry.tiles() {
        for pe in 0..b {
            let part = geometry.pe_id(tile, pe);
            let trange = params.partition.triplet_range(coo_t, part);
            let part_start = trange.start;
            let entries = &coo_t.entries()[trange];

            sink.begin_pe(tile, pe);

            // Single-vblock SC fast path: no bucketing, no preload — the
            // triplets are already in storage order and the whole vector
            // is one "block". This is the common steady-state shape
            // (VBlocks::whole), so skipping the sort matters.
            if params.vblocks.len() <= 1 && !params.use_spm {
                let mut prev_row: Option<u32> = None;
                for (seq, t) in entries.iter().enumerate() {
                    let (row, col) = (t.row, t.col);
                    sink.load(params.layout.coo_entry(part_start + seq));
                    sink.compute(1);
                    let is_active = params.active.is_none_or(|mask| mask[col as usize]);
                    let words = if is_active { vw } else { 1 };
                    for w in 0..words {
                        sink.load(params.layout.x_elem(col as usize, w));
                    }
                    if is_active {
                        sink.compute(mac_cost);
                        if let Some(p) = prev_row {
                            if p != row {
                                for w in 0..vw {
                                    sink.store(params.layout.y_elem(p as usize, w));
                                }
                            }
                        }
                        prev_row = Some(row);
                    }
                }
                if let Some(p) = prev_row {
                    for w in 0..vw {
                        sink.store(params.layout.y_elem(p as usize, w));
                    }
                }
                continue;
            }

            // Bucket this PE's triplets by vblock, preserving row-major
            // order inside each bucket (this is the reordered storage
            // layout of §III-B).
            scratch.bucket(entries, params.vblocks);

            let mut seq = 0usize; // storage order within the partition
            for vb in 0..params.vblocks.len() {
                let vb_range = params.vblocks.range(vb);
                if params.use_spm {
                    // Cooperative preload: the tile's PEs stripe the
                    // vector segment into the shared SPM.
                    let words = vb_range.len() * vw;
                    let lo = words * pe / b;
                    let hi = words * (pe + 1) / b;
                    for w in lo..hi {
                        let elem = vb_range.start + w / vw;
                        sink.load(params.layout.x_elem(elem, w % vw));
                        sink.spm_store((w * 4) as u32);
                    }
                    sink.tile_barrier();
                }
                // Process this PE's entries of the vblock.
                let mut prev_row: Option<u32> = None;
                let bucket = scratch.starts[vb]..scratch.starts[vb + 1];
                for &(row, col) in &scratch.entries[bucket] {
                    sink.load(params.layout.coo_entry(part_start + seq));
                    sink.compute(1);
                    let is_active = params.active.is_none_or(|mask| mask[col as usize]);
                    // The first vector word must always be inspected; the
                    // remaining words and the MAC only happen for active
                    // elements.
                    let words = if is_active { vw } else { 1 };
                    for w in 0..words {
                        if params.use_spm {
                            let local = (col as usize - vb_range.start) * vw + w;
                            sink.spm_load((local * 4) as u32);
                        } else {
                            sink.load(params.layout.x_elem(col as usize, w));
                        }
                    }
                    if is_active {
                        sink.compute(mac_cost);
                        if let Some(p) = prev_row {
                            if p != row {
                                for w in 0..vw {
                                    sink.store(params.layout.y_elem(p as usize, w));
                                }
                            }
                        }
                        prev_row = Some(row);
                    }
                    seq += 1;
                }
                if let Some(p) = prev_row {
                    for w in 0..vw {
                        sink.store(params.layout.y_elem(p as usize, w));
                    }
                }
                if params.use_spm {
                    // Drain barrier: nobody overwrites the SPM while a
                    // sibling PE is still reading this vblock's segment.
                    sink.tile_barrier();
                }
            }
        }
    }
}

/// Upper bound on the micro-ops [`build_with`] emits. Compute bursts
/// always follow a load here, so they fold and take no slot. Each
/// triplet costs its COO load and at most `vw` vector loads; output
/// stores come once per row run, and a vblock's triplets stay
/// row-major, so a PE has at most one run per partition row and
/// vblock; an SCS preload adds the tile's vector segment as loads and
/// SPM stores plus two tile barriers per PE and vblock.
fn micro_op_bound(coo_t: &CooMatrix, geometry: Geometry, params: IpParams<'_>) -> usize {
    let vw = params.profile.value_words;
    let n_vb = params.vblocks.len().max(1);
    let mut bound = 0;
    for part in 0..params.partition.len() {
        let entries = params.partition.triplet_range(coo_t, part).len();
        let rows = params.partition.range(part).len();
        bound += entries * (1 + vw) + vw * entries.min(n_vb * rows);
    }
    if params.use_spm {
        let b = geometry.pes_per_tile();
        let cols: usize = params.vblocks.iter().map(|r| r.len()).sum();
        bound += geometry.tiles() * (2 * cols * vw + 2 * b * n_vb);
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{ip_partitions, Balancing};
    use transmuter::{HwConfig, Machine, MicroArch, ProgramSet};

    /// The kernel as op streams for the machine's event loop.
    fn streams(m: &CooMatrix, g: Geometry, params: IpParams<'_>) -> ProgramSet {
        let mut sink = ProgramSet::new(g);
        build(m, g, params, &mut sink);
        sink
    }

    fn setup(n: usize, nnz: usize) -> (CooMatrix, Layout, Geometry) {
        let g = Geometry::new(2, 4);
        let m = sparse::generate::uniform(n, n, nnz, 42).unwrap();
        let l = Layout::new(n, n, nnz, g, 1);
        (m, l, g)
    }

    fn run(
        m: &CooMatrix,
        l: &Layout,
        g: Geometry,
        hw: HwConfig,
        use_spm: bool,
        vblocks: VBlocks,
    ) -> transmuter::SimReport {
        let part = ip_partitions(&m.row_counts(), g, Balancing::NnzBalanced);
        let mut machine = Machine::new(g, MicroArch::paper());
        machine.reconfigure(hw);
        let params = IpParams {
            layout: l,
            partition: &part,
            vblocks: &vblocks,
            use_spm,
            active: None,
            profile: OpProfile::scalar(),
        };
        machine.run(&streams(m, g, params)).unwrap()
    }

    #[test]
    fn sc_runs_and_touches_all_nnz() {
        let (m, l, g) = setup(512, 4000);
        let r = run(&m, &l, g, HwConfig::Sc, false, VBlocks::whole(512));
        // One matrix load per entry at least.
        assert!(r.stats.loads as usize >= m.nnz());
        assert!(r.cycles > 0);
        assert_eq!(r.stats.spm_accesses, 0);
    }

    #[test]
    fn scs_uses_spm_for_vector() {
        let (m, l, g) = setup(512, 4000);
        let spm_words = 2 * 4096 / 4; // SCS on 2x4: 2 SPM banks per tile
        let r = run(&m, &l, g, HwConfig::Scs, true, VBlocks::new(512, spm_words));
        assert!(
            r.stats.spm_accesses as usize > m.nnz(),
            "vector reads + preload stores"
        );
        assert!(r.stats.barrier_stall_cycles < r.cycles * 8);
    }

    #[test]
    fn empty_partitions_still_synchronize() {
        // A matrix whose nonzeros all live in one row: most PEs get
        // empty partitions but must still match barriers in SCS mode.
        let g = Geometry::new(2, 4);
        let m = CooMatrix::from_triplets(64, 64, (0..64u32).map(|c| (0u32, c, 1.0f32)).collect())
            .unwrap();
        let l = Layout::new(64, 64, 64, g, 1);
        let r = run(&m, &l, g, HwConfig::Scs, true, VBlocks::new(64, 32));
        assert!(r.cycles > 0);
    }

    #[test]
    fn vblocking_changes_access_order_not_count() {
        let (m, l, g) = setup(256, 3000);
        let whole = run(&m, &l, g, HwConfig::Sc, false, VBlocks::whole(256));
        let tiled = run(&m, &l, g, HwConfig::Sc, false, VBlocks::new(256, 64));
        assert_eq!(whole.stats.loads, tiled.stats.loads);
    }

    #[test]
    fn larger_matrices_take_longer() {
        let g = Geometry::new(2, 4);
        let small = {
            let m = sparse::generate::uniform(256, 256, 2000, 1).unwrap();
            let l = Layout::new(256, 256, 2000, g, 1);
            run(&m, &l, g, HwConfig::Sc, false, VBlocks::whole(256)).cycles
        };
        let large = {
            let m = sparse::generate::uniform(256, 256, 20_000, 1).unwrap();
            let l = Layout::new(256, 256, 20_000, g, 1);
            run(&m, &l, g, HwConfig::Sc, false, VBlocks::whole(256)).cycles
        };
        assert!(large > small * 5, "large {large} vs small {small}");
    }

    #[test]
    fn value_words_multiply_vector_traffic() {
        let (m, l, g) = setup(256, 2000);
        let part = ip_partitions(&m.row_counts(), g, Balancing::NnzBalanced);
        let vb = VBlocks::whole(256);
        let mut machine = Machine::new(g, MicroArch::paper());
        let wide_layout = Layout::new(256, 256, 2000, g, 4);
        let scalar = machine
            .run(&streams(
                &m,
                g,
                IpParams {
                    layout: &l,
                    partition: &part,
                    vblocks: &vb,
                    use_spm: false,
                    active: None,
                    profile: OpProfile::scalar(),
                },
            ))
            .unwrap();
        let wide_profile = OpProfile {
            value_words: 4,
            extra_compute_per_edge: 4,
            vector_op_compute: 0,
        };
        let wide = machine
            .run(&streams(
                &m,
                g,
                IpParams {
                    layout: &wide_layout,
                    partition: &part,
                    vblocks: &vb,
                    use_spm: false,
                    active: None,
                    profile: wide_profile,
                },
            ))
            .unwrap();
        assert!(wide.stats.loads > scalar.stats.loads * 2);
    }
}

#[cfg(test)]
mod bucket_tests {
    use super::*;
    use crate::balance::{ip_partitions, Balancing};
    use transmuter::{Op, ProgramSet};

    /// One sink's PE buffers, indexed by global PE id.
    fn pe_ops(set: ProgramSet, g: Geometry) -> Vec<Vec<Op>> {
        (0..g.total_pes())
            .map(|w| set.worker(w).expect("every PE is begun").to_vec())
            .collect()
    }

    /// Reference SCS emission bucketing with a stable comparison sort:
    /// collect `(vblock, row, col)` per PE, `sort_by_key` on the vblock,
    /// then walk the buckets.
    fn reference(coo: &CooMatrix, g: Geometry, params: IpParams<'_>) -> Vec<Vec<Op>> {
        let vw = params.profile.value_words;
        let mac_cost = 2 + params.profile.extra_compute_per_edge;
        let b = g.pes_per_tile();
        let mut out = vec![Vec::new(); g.total_pes()];
        for tile in 0..g.tiles() {
            for pe in 0..b {
                let part = g.pe_id(tile, pe);
                let trange = params.partition.triplet_range(coo, part);
                let part_start = trange.start;
                let mut bucketed: Vec<(usize, u32, u32)> = coo.entries()[trange]
                    .iter()
                    .map(|t| (params.vblocks.block_of(t.col as usize), t.row, t.col))
                    .collect();
                bucketed.sort_by_key(|&(vb, _, _)| vb);
                let ops = &mut out[part];
                let mut cursor = 0;
                for vb in 0..params.vblocks.len() {
                    let vb_range = params.vblocks.range(vb);
                    let words = vb_range.len() * vw;
                    for w in words * pe / b..words * (pe + 1) / b {
                        let elem = vb_range.start + w / vw;
                        ops.push(Op::Load(params.layout.x_elem(elem, w % vw)));
                        ops.push(Op::SpmStore((w * 4) as u32));
                    }
                    ops.push(Op::TileBarrier);
                    let mut prev_row = None;
                    while cursor < bucketed.len() && bucketed[cursor].0 == vb {
                        let (_, row, col) = bucketed[cursor];
                        ops.push(Op::Load(params.layout.coo_entry(part_start + cursor)));
                        ops.push(Op::Compute(1));
                        let active = params.active.is_none_or(|m| m[col as usize]);
                        for w in 0..if active { vw } else { 1 } {
                            let local = (col as usize - vb_range.start) * vw + w;
                            ops.push(Op::SpmLoad((local * 4) as u32));
                        }
                        if active {
                            ops.push(Op::Compute(mac_cost));
                            if let Some(p) = prev_row.filter(|&p| p != row) {
                                for w in 0..vw {
                                    ops.push(Op::Store(params.layout.y_elem(p as usize, w)));
                                }
                            }
                            prev_row = Some(row);
                        }
                        cursor += 1;
                    }
                    if let Some(p) = prev_row {
                        for w in 0..vw {
                            ops.push(Op::Store(params.layout.y_elem(p as usize, w)));
                        }
                    }
                    ops.push(Op::TileBarrier);
                }
            }
        }
        out
    }

    /// The stable counting sort emits exactly the ops of the stable-sort
    /// reference on a multi-vblock SCS partition, masked and dense, and
    /// a scratch left dirty by a different build changes nothing.
    #[test]
    fn counting_sort_bucketing_matches_stable_sort_reference() {
        let g = Geometry::new(2, 4);
        let n = 1000;
        let m = sparse::generate::uniform(n, n, 9000, 17).unwrap();
        let l = Layout::new(n, n, m.nnz(), g, 2);
        let part = ip_partitions(&m.row_counts(), g, Balancing::NnzBalanced);
        let vblocks = VBlocks::new(n, 96);
        assert!(vblocks.len() > 8, "the case must span many vblocks");
        let mask: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        let profile = OpProfile {
            value_words: 2,
            extra_compute_per_edge: 1,
            vector_op_compute: 0,
        };
        let mut scratch = IpScratch::default();
        // Dirty the scratch with a differently shaped build first.
        let other = sparse::generate::uniform(300, 300, 2500, 4).unwrap();
        let other_part = ip_partitions(&other.row_counts(), g, Balancing::NnzBalanced);
        let other_vb = VBlocks::new(300, 40);
        build_with(
            &other,
            g,
            IpParams {
                layout: &Layout::new(300, 300, other.nnz(), g, 1),
                partition: &other_part,
                vblocks: &other_vb,
                use_spm: true,
                active: None,
                profile: OpProfile::scalar(),
            },
            &mut scratch,
            &mut ProgramSet::new(g),
        );
        for active in [None, Some(&mask[..])] {
            let params = IpParams {
                layout: &l,
                partition: &part,
                vblocks: &vblocks,
                use_spm: true,
                active,
                profile,
            };
            let mut got = ProgramSet::new(g);
            build_with(&m, g, params, &mut scratch, &mut got);
            let got = pe_ops(got, g);
            assert_eq!(got, reference(&m, g, params), "mask {}", active.is_some());
            let mut fresh = ProgramSet::new(g);
            build(&m, g, params, &mut fresh);
            assert_eq!(got, pe_ops(fresh, g), "fresh scratch disagrees");
        }
    }
}

#[cfg(test)]
mod mask_tests {
    use super::*;
    use crate::balance::{ip_partitions, Balancing};
    use sparse::partition::VBlocks;
    use transmuter::{HwConfig, Machine, MicroArch, ProgramSet};

    /// §IV-C.1: zero vector elements skip the MAC and output accesses,
    /// so a sparser active mask must strictly reduce IP's work.
    #[test]
    fn sparse_mask_reduces_ip_cost() {
        let g = Geometry::new(2, 4);
        let n = 2048;
        let m = sparse::generate::uniform(n, n, 30_000, 9).unwrap();
        let l = Layout::new(n, n, 30_000, g, 1);
        let part = ip_partitions(&m.row_counts(), g, Balancing::NnzBalanced);
        let vb = VBlocks::whole(n);
        let run = |active: Option<&[bool]>| {
            let mut machine = Machine::new(g, MicroArch::paper());
            machine.reconfigure(HwConfig::Sc);
            let params = IpParams {
                layout: &l,
                partition: &part,
                vblocks: &vb,
                use_spm: false,
                active,
                profile: OpProfile::scalar(),
            };
            let mut sink = ProgramSet::new(g);
            build(&m, g, params, &mut sink);
            machine.run(&sink).unwrap()
        };
        let dense = run(None);
        let mask = vec![false; n]; // nothing active
        let empty = run(Some(&mask));
        let mut half_mask = vec![false; n];
        for (i, slot) in half_mask.iter_mut().enumerate() {
            *slot = i % 2 == 0;
        }
        let half = run(Some(&half_mask));
        // Every element is still inspected (scalar values: one matrix
        // load + one vector load per entry regardless of the mask)...
        assert_eq!(dense.stats.loads, empty.stats.loads);
        // ...but stores and MACs shrink with the active set.
        assert!(empty.stats.stores < half.stats.stores);
        assert!(half.stats.stores < dense.stats.stores);
        assert!(empty.stats.compute_cycles < half.stats.compute_cycles);
        assert!(half.stats.compute_cycles < dense.stats.compute_cycles);
        assert!(empty.cycles < dense.cycles);
    }
}
