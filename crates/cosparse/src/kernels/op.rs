//! Outer-product (OP) SpMV kernel: sparse frontier, CSC column merge
//! (Figure 3, bottom).
//!
//! Each tile owns an nnz-balanced row partition; the tile's LCP
//! distributes contiguous chunks of the frontier's nonzeros to its PEs.
//! Each PE maintains a sorted list (binary heap, stored breadth-first)
//! of the head elements of its non-empty column sub-runs — in private
//! SPM under PS (spilling deep levels), in ordinary cached memory under
//! PC/SC — pops the minimum row, merges equal rows, and forwards output
//! elements to the LCP, which merges the per-PE streams and writes the
//! final sparse output to main memory.

use crate::balance::distribute_frontier;
use crate::kernels::{heap_sift, KernelSink};
use crate::layout::Layout;
use crate::ops::OpProfile;
use sparse::partition::RowPartition;
use sparse::{CscMatrix, Idx};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use transmuter::Geometry;

/// Configuration of one OP invocation.
#[derive(Debug, Clone, Copy)]
pub struct OpParams<'a> {
    /// Structure layout in the simulated address space.
    pub layout: &'a Layout,
    /// Per-tile row partitions (exactly `geometry.tiles()` parts).
    pub tile_parts: &'a RowPartition,
    /// Sorted active column indices (the frontier's nonzeros).
    pub frontier: &'a [Idx],
    /// True for PS (heap in private SPM, deep levels spilling); false
    /// for PC/SC (heap in cacheable memory).
    pub heap_in_spm: bool,
    /// Heap nodes that fit in one PE's SPM (PS mode).
    pub spm_node_cap: usize,
    /// Per-edge cost profile of the graph op.
    pub profile: OpProfile,
}

/// Precomputes the matrix-invariant column sub-run bounds: entry
/// `tile * cols + c` holds the global CSC entry range of column `c`
/// restricted to `tile`'s row partition.
///
/// The bounds depend only on the matrix and the tile partition — never
/// on the frontier — so the runtime caches them in its plan and every
/// subsequent OP compilation skips the per-column binary searches.
pub fn subruns(csc_t: &CscMatrix, tile_parts: &RowPartition) -> Vec<(u32, u32)> {
    let cols = csc_t.cols();
    let mut out = Vec::with_capacity(tile_parts.len() * cols);
    for tile in 0..tile_parts.len() {
        let rows = tile_parts.range(tile);
        for c in 0..cols {
            let (col_rows, _) = csc_t.col(c);
            let col_lo = csc_t.col_ptr()[c];
            let lo = col_lo + col_rows.partition_point(|&r| (r as usize) < rows.start);
            let hi = col_lo + col_rows.partition_point(|&r| (r as usize) < rows.end);
            out.push((lo as u32, hi as u32));
        }
    }
    out
}

/// Emits the OP kernel into `sink`: one stream per PE, then one per
/// tile LCP. For a [`transmuter::ProgramBuilder`] the caller `begin`s
/// and `finish`es it.
///
/// The generator replays the actual merge on row indices so the streams
/// carry the exact column/heap/output access sequence the hardware
/// would perform. `sub` must come from [`subruns`] for the same matrix
/// and tile partition.
///
/// # Panics
///
/// Panics if `tile_parts.len() != geometry.tiles()` or the frontier is
/// not strictly increasing.
pub fn build<K: KernelSink>(
    csc_t: &CscMatrix,
    geometry: Geometry,
    params: OpParams<'_>,
    sub: &[(u32, u32)],
    sink: &mut K,
) {
    assert_eq!(
        params.tile_parts.len(),
        geometry.tiles(),
        "op needs one partition per tile"
    );
    debug_assert!(
        params.frontier.windows(2).all(|w| w[0] < w[1]),
        "frontier must be sorted"
    );
    let b = geometry.pes_per_tile();
    let cols = csc_t.cols();
    let vw = params.profile.value_words;
    let merge_cost = 1 + params.profile.extra_compute_per_edge;
    sink.reserve(micro_op_bound(geometry, params, sub, cols));

    for tile in 0..geometry.tiles() {
        let chunks = distribute_frontier(params.frontier.len(), b);
        let mut tile_outputs: Vec<u32> = Vec::new();
        let mut lcp_elements = 0usize;

        for (pe, chunk) in chunks.into_iter().enumerate() {
            let worker = geometry.pe_id(tile, pe);
            sink.begin_pe(tile, pe);
            let heap_node = |node: usize, sink: &mut K, store: bool| {
                if params.heap_in_spm && node < params.spm_node_cap {
                    let off = (node * 8) as u32;
                    if store {
                        sink.spm_store(off);
                    } else {
                        sink.spm_load(off);
                    }
                } else {
                    let addr = params.layout.heap_node(worker, node);
                    if store {
                        sink.store(addr);
                    } else {
                        sink.load(addr);
                    }
                }
            };

            // Build phase: create the sorted list of column heads.
            // (row, cursor, end): cursor/end are global CSC entry indices.
            let mut heap: BinaryHeap<Reverse<(u32, usize, usize)>> = BinaryHeap::new();
            for k in chunk {
                let src = params.frontier[k] as usize;
                // Frontier entry (index, value) — one line-adjacent load.
                sink.load(params.layout.sv_entry(k));
                sink.compute(1);
                // Column bounds from the column-pointer array.
                sink.load(params.layout.csc_ptr(src));
                sink.compute(1);
                // Cached sub-run of the column inside this tile's row
                // partition (see [`subruns`]).
                let (lo, hi) = sub[tile * cols + src];
                let (lo, hi) = (lo as usize, hi as usize);
                if lo < hi {
                    // Load the head element and insert it: sift up.
                    sink.load(params.layout.csc_entry(lo));
                    sink.compute(1);
                    let head_row = csc_t.row_idx()[lo];
                    heap.push(Reverse((head_row, lo, hi)));
                    heap_sift(heap.len(), sink, |n, s| {
                        heap_node(n, s, false);
                        heap_node(n, s, true);
                    });
                }
            }

            // Merge phase: pop min, merge equal rows, advance columns.
            let mut out_k = 0usize;
            let mut prev_row: Option<u32> = None;
            while let Some(Reverse((row, cursor, end))) = heap.pop() {
                // Pop-and-replace root, sift down.
                heap_sift(heap.len() + 1, sink, |n, s| {
                    heap_node(n, s, false);
                    heap_node(n, s, true);
                });
                sink.compute(merge_cost);
                match prev_row {
                    Some(p) if p == row => {} // merged into the accumulator
                    _ => {
                        if prev_row.is_some() {
                            // Enqueue the completed element to the LCP
                            // (hardware mailbox: fixed-latency push, one
                            // beat per value word).
                            sink.compute(1 + vw as u32);
                            out_k += 1;
                        }
                        prev_row = Some(row);
                        // A PE pops rows in nondecreasing order, so this
                        // records each of its distinct output rows once;
                        // cross-PE duplicates are deduped below.
                        tile_outputs.push(row);
                    }
                }
                // Advance this column.
                if cursor + 1 < end {
                    sink.load(params.layout.csc_entry(cursor + 1));
                    sink.compute(1);
                    let next_row = csc_t.row_idx()[cursor + 1];
                    heap.push(Reverse((next_row, cursor + 1, end)));
                }
            }
            if prev_row.is_some() {
                sink.compute(1 + vw as u32);
                out_k += 1;
            }
            lcp_elements += out_k;
        }

        // LCP: B-way merge of the per-PE output streams, final write-back.
        tile_outputs.sort_unstable();
        tile_outputs.dedup();
        let distinct = tile_outputs.len();
        sink.begin_lcp(tile);
        let way_cost = usize::BITS - b.leading_zeros(); // log2(B) compare steps
        let mut element = 0usize;
        let mut written = 0usize;
        for _ in 0..lcp_elements {
            // Dequeue from the per-PE mailbox (fixed latency) and run one
            // B-way merge step.
            sink.compute(1 + vw as u32);
            sink.compute(way_cost.max(1));
            element += 1;
            // Interleave final writes at the distinct-output rate.
            if written < distinct && element * distinct >= (written + 1) * lcp_elements.max(1) {
                let row = tile_outputs[written];
                for w in 0..vw {
                    sink.store(params.layout.y_elem(row as usize, w));
                }
                written += 1;
            }
        }
        while written < distinct {
            let row = tile_outputs[written];
            for w in 0..vw {
                sink.store(params.layout.y_elem(row as usize, w));
            }
            written += 1;
        }
    }
}

/// Upper bound on the micro-ops [`build`] emits. In a PE stream every
/// compute burst folds into the load or store before it: per frontier
/// entry two loads; per non-empty column sub-run a sift; per merged
/// element a sift and one load (its column's head or the advance). A
/// sift costs two accesses per heap level, and the heap never holds
/// more than one head per non-empty sub-run. A PE forwards one output
/// per distinct row it pops; the LCP stores each distinct row once and
/// its bursts need a `Compute` carrier at the stream head and after
/// every micro-op whose 255 fold slots fill up.
fn micro_op_bound(
    geometry: Geometry,
    params: OpParams<'_>,
    sub: &[(u32, u32)],
    cols: usize,
) -> usize {
    let vw = params.profile.value_words;
    let mut bound = 0;
    for tile in 0..geometry.tiles() {
        let rows = params.tile_parts.range(tile).len();
        let mut outputs = 0;
        for chunk in distribute_frontier(params.frontier.len(), geometry.pes_per_tile()) {
            let (runs, elements) = chunk.clone().fold((0, 0), |(runs, elements), k| {
                let (lo, hi) = sub[tile * cols + params.frontier[k] as usize];
                let len = (hi - lo) as usize;
                (runs + (len > 0) as usize, elements + len)
            });
            let levels = (usize::BITS - runs.max(1).leading_zeros()) as usize;
            bound += 2 * chunk.len() + 2 * levels * runs + (1 + 2 * levels) * elements;
            outputs += elements.min(rows);
        }
        bound += vw * outputs.min(rows) + 1 + 2 * outputs / 255;
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{op_tile_partitions, Balancing};
    use transmuter::{HwConfig, Machine, MicroArch, ProgramSet};

    /// The kernel as op streams for the machine's event loop.
    fn streams(csc: &CscMatrix, g: Geometry, params: OpParams<'_>) -> ProgramSet {
        let mut sink = ProgramSet::new(g);
        build(csc, g, params, &subruns(csc, params.tile_parts), &mut sink);
        sink
    }

    fn setup(n: usize, nnz: usize) -> (CscMatrix, Layout, Geometry) {
        let g = Geometry::new(2, 4);
        let coo = sparse::generate::uniform(n, n, nnz, 11).unwrap();
        let csc = CscMatrix::from(&coo);
        let l = Layout::new(n, n, nnz, g, 1);
        (csc, l, g)
    }

    fn frontier(n: usize, density: f64) -> Vec<Idx> {
        sparse::generate::random_sparse_vector(n, density, 5)
            .unwrap()
            .iter()
            .map(|(i, _)| i)
            .collect()
    }

    fn run(
        csc: &CscMatrix,
        l: &Layout,
        g: Geometry,
        hw: HwConfig,
        heap_in_spm: bool,
        active: &[Idx],
    ) -> transmuter::SimReport {
        let counts = {
            // row counts of the transposed-view matrix: count row_idx.
            let mut c = vec![0usize; csc.rows()];
            for &r in csc.row_idx() {
                c[r as usize] += 1;
            }
            c
        };
        let parts = op_tile_partitions(&counts, g, Balancing::NnzBalanced);
        let mut machine = Machine::new(g, MicroArch::paper());
        machine.reconfigure(hw);
        let params = OpParams {
            layout: l,
            tile_parts: &parts,
            frontier: active,
            heap_in_spm,
            spm_node_cap: 512,
            profile: OpProfile::scalar(),
        };
        machine.run(&streams(csc, g, params)).unwrap()
    }

    #[test]
    fn pc_runs_and_scales_with_density() {
        let (csc, l, g) = setup(1024, 16_000);
        let sparse_r = run(&csc, &l, g, HwConfig::Pc, false, &frontier(1024, 0.01));
        let dense_r = run(&csc, &l, g, HwConfig::Pc, false, &frontier(1024, 0.2));
        assert!(
            dense_r.cycles > sparse_r.cycles * 3,
            "denser frontier must cost more: {} vs {}",
            dense_r.cycles,
            sparse_r.cycles
        );
    }

    #[test]
    fn ps_uses_spm() {
        let (csc, l, g) = setup(1024, 16_000);
        let r = run(&csc, &l, g, HwConfig::Ps, true, &frontier(1024, 0.05));
        assert!(r.stats.spm_accesses > 0);
    }

    #[test]
    fn empty_frontier_is_near_free() {
        let (csc, l, g) = setup(1024, 16_000);
        let r = run(&csc, &l, g, HwConfig::Pc, false, &[]);
        assert!(r.cycles < 1000, "empty frontier cost {}", r.cycles);
    }

    #[test]
    fn lcp_writes_outputs() {
        let (csc, l, g) = setup(256, 4000);
        let r = run(&csc, &l, g, HwConfig::Pc, false, &frontier(256, 0.3));
        // LCP stores the final sparse output.
        assert!(r.stats.stores > 0);
    }

    #[test]
    fn op_work_skips_untouched_columns() {
        let (csc, l, g) = setup(1024, 16_000);
        let one = run(&csc, &l, g, HwConfig::Pc, false, &[3]);
        let full: Vec<Idx> = (0..1024).collect();
        let all = run(&csc, &l, g, HwConfig::Pc, false, &full);
        assert!(all.stats.loads > one.stats.loads * 50);
    }

    #[test]
    fn spilled_heap_generates_global_traffic() {
        // Tiny SPM cap forces most heap levels to spill in PS mode.
        let (csc, l, g) = setup(2048, 40_000);
        let active = frontier(2048, 0.5);
        let counts = {
            let mut c = vec![0usize; csc.rows()];
            for &r in csc.row_idx() {
                c[r as usize] += 1;
            }
            c
        };
        let parts = op_tile_partitions(&counts, g, Balancing::NnzBalanced);
        let mut machine = Machine::new(g, MicroArch::paper());
        machine.reconfigure(HwConfig::Ps);
        let tiny = OpParams {
            layout: &l,
            tile_parts: &parts,
            frontier: &active,
            heap_in_spm: true,
            spm_node_cap: 2,
            profile: OpProfile::scalar(),
        };
        let r_tiny = machine.run(&streams(&csc, g, tiny)).unwrap();
        let roomy = OpParams {
            spm_node_cap: 4096,
            ..tiny
        };
        let r_roomy = machine.run(&streams(&csc, g, roomy)).unwrap();
        assert!(r_tiny.stats.loads > r_roomy.stats.loads);
        assert!(r_tiny.stats.spm_accesses < r_roomy.stats.spm_accesses);
    }
}
