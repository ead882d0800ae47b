//! Op-stream generators: compile an SpMV workload into per-worker
//! emission for the simulator.
//!
//! Two dataflows, matching §III-A of the paper:
//!
//! * [`ip`] — inner product: dense frontier, row-major COO streaming,
//!   vector pinned in shared SPM (SCS) or cached (SC), vblock tiling.
//! * [`op`] — outer product: sparse frontier, CSC column merge through a
//!   per-PE heap held in private SPM (PS) or cache (PC/SC), results
//!   forwarded to the tile's LCP.
//!
//! Each kernel has **one** lowering: a public `build*` function generic
//! over a [`KernelSink`]. The runtime only ever plugs in a
//! [`transmuter::ProgramBuilder`], which lowers and lints each op on
//! append and — in a checked build — also checks addresses against the
//! layout and derives the build's data races, so the
//! [`transmuter::Program`] that runs is the one that is verified. Tests
//! and diagnostics plug in a [`ProgramSet`] instead and get per-worker
//! [`transmuter::Op`] buffers for the op-stream reference
//! ([`transmuter::Machine::run`]) and its tracer. Both come out of the
//! same emitter body, so they cannot drift.

pub mod convert;
pub mod formats;
pub mod ip;
pub mod op;

use transmuter::{Addr, Op, ProgramBuilder, ProgramSet};

/// Emission target of the kernel compilers.
///
/// A kernel opens one worker stream at a time (`begin_pe` /
/// `begin_lcp`) and appends that worker's ops through the verbs; a
/// worker whose stream is opened but receives no ops still participates
/// in barriers and congruence, exactly like an empty op buffer.
pub trait KernelSink {
    /// Starts (or restarts) PE `(tile, pe)`'s stream; subsequent verbs
    /// apply to it until the next `begin_*`.
    fn begin_pe(&mut self, tile: usize, pe: usize);
    /// Starts (or restarts) tile `tile`'s LCP stream.
    fn begin_lcp(&mut self, tile: usize);
    /// Capacity hint: an upper bound on the micro-ops the whole program
    /// will hold once built (compute bursts that fold into the op before
    /// them take no slot), given once before the first stream opens.
    fn reserve(&mut self, additional: usize);
    /// Busies the current worker for `cycles`.
    fn compute(&mut self, cycles: u32);
    /// Global-memory load of `addr`.
    fn load(&mut self, addr: Addr);
    /// Global-memory store to `addr`.
    fn store(&mut self, addr: Addr);
    /// Scratchpad load of byte offset `offset`.
    fn spm_load(&mut self, offset: u32);
    /// Scratchpad store to byte offset `offset`.
    fn spm_store(&mut self, offset: u32);
    /// Tile barrier (PEs of one tile).
    fn tile_barrier(&mut self);
    /// Global barrier (epoch boundary).
    fn global_barrier(&mut self);
}

/// The hot path: ops lower to micro-ops on append, and the lint verdict
/// comes out of `finish()` — no intermediate [`Op`] stream exists.
impl KernelSink for ProgramBuilder {
    #[inline]
    fn begin_pe(&mut self, tile: usize, pe: usize) {
        ProgramBuilder::begin_pe(self, tile, pe);
    }
    #[inline]
    fn begin_lcp(&mut self, tile: usize) {
        ProgramBuilder::begin_lcp(self, tile);
    }
    #[inline]
    fn reserve(&mut self, additional: usize) {
        ProgramBuilder::reserve(self, additional);
    }
    #[inline]
    fn compute(&mut self, cycles: u32) {
        ProgramBuilder::compute(self, cycles);
    }
    #[inline]
    fn load(&mut self, addr: Addr) {
        ProgramBuilder::load(self, addr);
    }
    #[inline]
    fn store(&mut self, addr: Addr) {
        ProgramBuilder::store(self, addr);
    }
    #[inline]
    fn spm_load(&mut self, offset: u32) {
        ProgramBuilder::spm_load(self, offset);
    }
    #[inline]
    fn spm_store(&mut self, offset: u32) {
        ProgramBuilder::spm_store(self, offset);
    }
    #[inline]
    fn tile_barrier(&mut self) {
        ProgramBuilder::tile_barrier(self);
    }
    #[inline]
    fn global_barrier(&mut self) {
        ProgramBuilder::global_barrier(self);
    }
}

/// Test and diagnostic sink: per-worker [`Op`] buffers, the input of
/// the op-stream reference ([`transmuter::Machine::run`]) and its
/// tracer, which the differential suites and the Figure 3 walkthrough
/// compare the program path against.
///
/// Only workers a kernel begins get a stream: an absent worker takes no
/// part in barriers, while an empty LCP stream would change the
/// barrier counts.
impl KernelSink for ProgramSet {
    fn begin_pe(&mut self, tile: usize, pe: usize) {
        self.set_pe(tile, pe, []);
    }
    fn begin_lcp(&mut self, tile: usize) {
        self.set_lcp(tile, []);
    }
    /// The hint counts micro-ops for the whole program, which says
    /// nothing about one worker's op buffer: ignored.
    fn reserve(&mut self, _additional: usize) {}
    #[inline]
    fn compute(&mut self, cycles: u32) {
        self.push(Op::Compute(cycles));
    }
    #[inline]
    fn load(&mut self, addr: Addr) {
        self.push(Op::Load(addr));
    }
    #[inline]
    fn store(&mut self, addr: Addr) {
        self.push(Op::Store(addr));
    }
    #[inline]
    fn spm_load(&mut self, offset: u32) {
        self.push(Op::SpmLoad(offset));
    }
    #[inline]
    fn spm_store(&mut self, offset: u32) {
        self.push(Op::SpmStore(offset));
    }
    #[inline]
    fn tile_barrier(&mut self) {
        self.push(Op::TileBarrier);
    }
    #[inline]
    fn global_barrier(&mut self) {
        self.push(Op::GlobalBarrier);
    }
}

/// Emits the access pattern of one sift (up or down) through a binary
/// heap of current size `len`: one node visit per level, each a
/// read-modify-write of the node storage.
///
/// `node_ops(level_node_index, sink)` maps the touched node index to
/// ops; levels touch nodes `0, 1, 3, 7, ...` (the canonical
/// root-to-leaf path), so with the heap stored breadth-first the
/// shallow levels stay in fast storage and deep levels spill — exactly
/// the paper's "the tree nature of heap ensures that the majority of
/// comparisons and swaps still happen in the SPM" (§III-A).
pub(crate) fn heap_sift<K: KernelSink>(
    len: usize,
    sink: &mut K,
    mut node_ops: impl FnMut(usize, &mut K),
) {
    let levels = (usize::BITS - len.max(1).leading_zeros()) as usize;
    for l in 0..levels.max(1) {
        let node = (1usize << l) - 1;
        node_ops(node, sink);
        sink.compute(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmuter::Geometry;

    fn sift_into(len: usize, mut node_ops: impl FnMut(usize, &mut ProgramSet)) -> Vec<Op> {
        let mut sink = ProgramSet::new(Geometry::new(1, 1));
        sink.begin_pe(0, 0);
        heap_sift(len, &mut sink, &mut node_ops);
        sink.worker(0).expect("PE 0 was begun").to_vec()
    }

    #[test]
    fn sift_depth_grows_logarithmically() {
        let count = |len: usize| sift_into(len, |_, s| s.compute(1)).len();
        assert_eq!(count(1), 2); // one level: node op + compare
        assert!(count(8) > count(2));
        assert!(count(1024) >= 10 * 2);
        assert!(count(0) >= 2, "empty heap still charges one step");
    }

    #[test]
    fn sift_touches_root_to_leaf_path() {
        let mut nodes = Vec::new();
        let _ = sift_into(7, |n, _| nodes.push(n));
        assert_eq!(nodes, vec![0, 1, 3]);
    }

    /// A [`ProgramBuilder`] that adds up the capacity hints it receives.
    struct Hinted(ProgramBuilder, usize);

    impl KernelSink for Hinted {
        fn begin_pe(&mut self, tile: usize, pe: usize) {
            self.0.begin_pe(tile, pe);
        }
        fn begin_lcp(&mut self, tile: usize) {
            self.0.begin_lcp(tile);
        }
        fn reserve(&mut self, additional: usize) {
            self.1 += additional;
        }
        fn compute(&mut self, cycles: u32) {
            self.0.compute(cycles);
        }
        fn load(&mut self, addr: Addr) {
            self.0.load(addr);
        }
        fn store(&mut self, addr: Addr) {
            self.0.store(addr);
        }
        fn spm_load(&mut self, offset: u32) {
            self.0.spm_load(offset);
        }
        fn spm_store(&mut self, offset: u32) {
            self.0.spm_store(offset);
        }
        fn tile_barrier(&mut self) {
            self.0.tile_barrier();
        }
        fn global_barrier(&mut self) {
            self.0.global_barrier();
        }
    }

    /// Every kernel's capacity hint bounds the micro-ops it builds (an
    /// undershoot would make the builder reallocate); the conversion and
    /// pack hints are exact. With one-word values the bounds are also
    /// tight; a masked kernel with wider values charges every inactive
    /// entry its full vector load, which it skips.
    #[test]
    fn capacity_hints_bound_the_built_program() {
        use crate::balance::{ip_partitions, op_tile_partitions, Balancing};
        use crate::{Layout, OpProfile};
        use sparse::partition::VBlocks;
        use sparse::{BcsrMatrix, BitmapCsr, CscMatrix, Idx};
        use transmuter::{HwConfig, MicroArch};

        let g = Geometry::new(2, 4);
        let n = 512;
        let coo = sparse::generate::uniform(n, n, 6000, 3).unwrap();
        let csc = CscMatrix::from(&coo);
        let bitmap = BitmapCsr::from(&coo);
        let bcsr = BcsrMatrix::from(&coo);
        let wide = OpProfile {
            value_words: 3,
            ..OpProfile::scalar()
        };
        let part = ip_partitions(&coo.row_counts(), g, Balancing::NnzBalanced);
        let tiles = op_tile_partitions(&coo.row_counts(), g, Balancing::NnzBalanced);
        let sub = op::subruns(&csc, &tiles);
        let mask: Vec<bool> = (0..n).map(|i| i % 7 == 0).collect();
        let frontier: Vec<Idx> = (0..n as Idx).step_by(9).collect();
        let ua = MicroArch::paper();
        let check = |hw: HwConfig, exact: bool, tight: bool, emit: &dyn Fn(&mut Hinted)| {
            let mut sink = Hinted(ProgramBuilder::new(), 0);
            sink.0.begin(g, hw, &ua);
            emit(&mut sink);
            let len = sink.0.finish().len();
            assert!(
                len <= sink.1,
                "{hw}: {len} micro-ops over a {} hint",
                sink.1
            );
            assert!(
                !exact || len == sink.1,
                "{hw}: {len} micro-ops, hint {}",
                sink.1
            );
            assert!(
                !tight || 2 * sink.1 <= 3 * len,
                "{hw}: hint {} for {len}",
                sink.1
            );
        };
        for profile in [OpProfile::scalar(), wide] {
            let vw = profile.value_words;
            let tight = vw == 1;
            let layout = Layout::with_format_bytes(n, n, coo.nnz(), g, vw, 1 << 16);
            for (hw, vblocks) in [
                (HwConfig::Sc, VBlocks::whole(n)),
                (HwConfig::Sc, VBlocks::new(n, 96)),
                (HwConfig::Scs, VBlocks::new(n, 96)),
            ] {
                for active in [None, Some(&mask[..])] {
                    let params = ip::IpParams {
                        layout: &layout,
                        partition: &part,
                        vblocks: &vblocks,
                        use_spm: hw == HwConfig::Scs,
                        active,
                        profile,
                    };
                    check(hw, false, tight, &|s| ip::build(&coo, g, params, s));
                    let fmt = formats::FmtParams {
                        layout: &layout,
                        partition: &part,
                        active,
                        profile,
                    };
                    check(hw, false, tight, &|s| {
                        formats::build_bitmap(&bitmap, g, fmt, s)
                    });
                    check(hw, false, tight, &|s| formats::build_bcsr(&bcsr, g, fmt, s));
                }
            }
            for (hw, heap_in_spm) in [(HwConfig::Pc, false), (HwConfig::Ps, true)] {
                let params = op::OpParams {
                    layout: &layout,
                    tile_parts: &tiles,
                    frontier: &frontier,
                    heap_in_spm,
                    spm_node_cap: 16,
                    profile,
                };
                check(hw, false, tight, &|s| op::build(&csc, g, params, &sub, s));
            }
            for dir in [
                convert::Direction::DenseToSparse,
                convert::Direction::SparseToDense,
            ] {
                check(HwConfig::Sc, true, true, &|s| {
                    convert::build(&layout, g, n, 40, dir, profile, s)
                });
            }
            check(HwConfig::Sc, true, true, &|s| {
                formats::build_pack(&layout, g, coo.nnz(), 3000, s)
            });
        }
    }
}
