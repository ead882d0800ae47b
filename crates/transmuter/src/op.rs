//! The abstract operation stream executed by each PE / LCP.
//!
//! Kernels (in the `cosparse` crate) emit one stream of these ops per
//! worker; the simulator walks the streams cycle by cycle. Timing is
//! *structure-driven*: ops carry addresses and cycle counts, never data
//! values — numerical results are computed functionally on the host
//! (see DESIGN.md §2).

/// A byte address in the simulated global address space.
pub type Addr = u64;

/// One abstract operation issued by a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Busy the core for `n >= 1` cycles (ALU work, branches, address
    /// arithmetic already folded in by the kernel's cost model).
    Compute(u32),
    /// Load a word from the global address space through the memory
    /// hierarchy (blocking, as on an in-order M4F).
    Load(Addr),
    /// Store a word to the global address space (write-back,
    /// write-allocate).
    Store(Addr),
    /// Load a word from scratchpad at byte `offset` (shared SPM in SCS,
    /// the PE's private SPM in PS).
    SpmLoad(u32),
    /// Store a word to scratchpad at byte `offset`.
    SpmStore(u32),
    /// Block until every PE in the same tile reaches this barrier.
    /// Streams within a tile must contain matching barrier sequences.
    TileBarrier,
    /// Block until every worker in the machine reaches this barrier.
    GlobalBarrier,
}

/// A convenience builder that records ops into a buffer; useful in tests
/// and for short LCP programs where laziness does not matter.
#[derive(Debug, Clone, Default)]
pub struct StreamBuilder {
    ops: Vec<Op>,
}

impl StreamBuilder {
    /// Creates an empty program.
    pub fn new() -> Self {
        StreamBuilder::default()
    }

    /// Appends a compute burst (clamped to at least one cycle).
    pub fn compute(&mut self, cycles: u32) -> &mut Self {
        self.ops.push(Op::Compute(cycles.max(1)));
        self
    }

    /// Appends a global load.
    pub fn load(&mut self, addr: Addr) -> &mut Self {
        self.ops.push(Op::Load(addr));
        self
    }

    /// Appends a global store.
    pub fn store(&mut self, addr: Addr) -> &mut Self {
        self.ops.push(Op::Store(addr));
        self
    }

    /// Appends an SPM load.
    pub fn spm_load(&mut self, offset: u32) -> &mut Self {
        self.ops.push(Op::SpmLoad(offset));
        self
    }

    /// Appends an SPM store.
    pub fn spm_store(&mut self, offset: u32) -> &mut Self {
        self.ops.push(Op::SpmStore(offset));
        self
    }

    /// Appends a tile barrier.
    pub fn tile_barrier(&mut self) -> &mut Self {
        self.ops.push(Op::TileBarrier);
        self
    }

    /// Appends a global barrier.
    pub fn global_barrier(&mut self) -> &mut Self {
        self.ops.push(Op::GlobalBarrier);
        self
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no ops were recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Consumes the program into an op iterator.
    pub fn into_stream(self) -> std::vec::IntoIter<Op> {
        self.ops.into_iter()
    }
}

impl IntoIterator for StreamBuilder {
    type Item = Op;
    type IntoIter = std::vec::IntoIter<Op>;
    fn into_iter(self) -> Self::IntoIter {
        self.into_stream()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_builder_records_in_order() {
        let mut p = StreamBuilder::new();
        p.compute(3)
            .load(0x100)
            .store(0x104)
            .spm_load(8)
            .tile_barrier();
        let ops: Vec<Op> = p.into_stream().collect();
        assert_eq!(
            ops,
            vec![
                Op::Compute(3),
                Op::Load(0x100),
                Op::Store(0x104),
                Op::SpmLoad(8),
                Op::TileBarrier
            ]
        );
    }

    #[test]
    fn compute_clamps_to_one() {
        let mut p = StreamBuilder::new();
        p.compute(0);
        assert_eq!(p.into_stream().next(), Some(Op::Compute(1)));
    }
}
