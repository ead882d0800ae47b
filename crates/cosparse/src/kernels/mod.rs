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
//! and diagnostics plug in [`OpBufSink`] instead and get per-worker
//! [`transmuter::Op`] buffers for the machine's event loop and its
//! tracer. Both come out of the same emitter body, so they cannot
//! drift.

pub mod convert;
pub mod formats;
pub mod ip;
pub mod op;

use transmuter::{Addr, Geometry, Op, ProgramBuilder, StreamSet};

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
    /// Capacity hint for ops about to be emitted.
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

/// Test and diagnostic sink: collects per-worker [`Op`] buffers, the
/// input of the machine's event loop ([`transmuter::Machine::run`]) and
/// its tracer, which the differential suites and the Figure 3
/// walkthrough compare the program core against.
///
/// Only workers a kernel begins get a stream: an absent worker takes no
/// part in barriers, while an empty LCP stream would change the
/// barrier counts.
#[derive(Debug)]
pub struct OpBufSink {
    geom: Geometry,
    bufs: Vec<Option<Vec<Op>>>,
    cur: usize,
}

impl OpBufSink {
    /// An empty sink for `geom`.
    pub fn new(geom: Geometry) -> Self {
        OpBufSink {
            geom,
            bufs: vec![None; geom.total_workers()],
            cur: usize::MAX,
        }
    }

    /// Starts (or restarts) worker `w`'s buffer.
    fn begin(&mut self, w: usize) {
        self.cur = w;
        self.bufs[w].get_or_insert_with(Vec::new).clear();
    }

    /// The open worker's buffer.
    #[inline]
    fn buf(&mut self) -> &mut Vec<Op> {
        self.bufs[self.cur].as_mut().expect("no worker stream open")
    }

    /// Packs the buffers into an owned, runnable [`StreamSet`]; workers
    /// never begun stay absent.
    pub fn into_stream_set(self) -> StreamSet<'static> {
        let geom = self.geom;
        let mut set = StreamSet::new(geom);
        for (w, ops) in self.bufs.into_iter().enumerate() {
            let Some(ops) = ops else { continue };
            match geom.locate(w) {
                (tile, Some(pe)) => set.set_pe(tile, pe, ops.into_iter()),
                (tile, None) => set.set_lcp(tile, ops.into_iter()),
            }
        }
        set
    }
}

impl KernelSink for OpBufSink {
    fn begin_pe(&mut self, tile: usize, pe: usize) {
        self.begin(self.geom.pe_id(tile, pe));
    }
    fn begin_lcp(&mut self, tile: usize) {
        self.begin(self.geom.lcp_id(tile));
    }
    #[inline]
    fn reserve(&mut self, additional: usize) {
        self.buf().reserve(additional);
    }
    #[inline]
    fn compute(&mut self, cycles: u32) {
        self.buf().push(Op::Compute(cycles));
    }
    #[inline]
    fn load(&mut self, addr: Addr) {
        self.buf().push(Op::Load(addr));
    }
    #[inline]
    fn store(&mut self, addr: Addr) {
        self.buf().push(Op::Store(addr));
    }
    #[inline]
    fn spm_load(&mut self, offset: u32) {
        self.buf().push(Op::SpmLoad(offset));
    }
    #[inline]
    fn spm_store(&mut self, offset: u32) {
        self.buf().push(Op::SpmStore(offset));
    }
    #[inline]
    fn tile_barrier(&mut self) {
        self.buf().push(Op::TileBarrier);
    }
    #[inline]
    fn global_barrier(&mut self) {
        self.buf().push(Op::GlobalBarrier);
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

    fn sift_into(len: usize, mut node_ops: impl FnMut(usize, &mut OpBufSink)) -> Vec<Op> {
        let mut sink = OpBufSink::new(Geometry::new(1, 1));
        sink.begin_pe(0, 0);
        heap_sift(len, &mut sink, &mut node_ops);
        let set = transmuter::verify::ProgramSet::materialize(sink.into_stream_set());
        set.worker(0).expect("PE 0 was begun").to_vec()
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
}
