//! Frontier format-conversion kernels (§III-D.2).
//!
//! When the decision tree switches dataflow (IP ↔ OP), the frontier must
//! change representation: dense→sparse before an OP iteration,
//! sparse→dense before an IP one. The conversion is parallelised across
//! all PEs and its cost is charged like any other kernel. In the
//! paper's algorithms this happens only once or twice per run (BFS and
//! SSSP frontiers go sparse→dense→sparse; PR and CF never convert).

use crate::kernels::KernelSink;
use crate::layout::Layout;
use crate::ops::OpProfile;
use transmuter::Geometry;

/// Direction of a frontier conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Scan the dense vector, emit `(index, value)` pairs.
    DenseToSparse,
    /// Clear the dense vector, scatter the pairs.
    SparseToDense,
}

/// Emits the conversion of a `dim`-element frontier with `active_nnz`
/// nonzeros into `sink`, one stream per PE. For a
/// [`transmuter::ProgramBuilder`] the caller `begin`s and `finish`es it.
///
/// Dense→sparse reads all `dim` elements and writes `active_nnz` pairs;
/// sparse→dense writes the `dim`-element background (line-granular
/// memset) and scatters `active_nnz` pairs.
pub fn build(
    layout: &Layout,
    geometry: Geometry,
    dim: usize,
    active_nnz: usize,
    direction: Direction,
    profile: OpProfile,
    sink: &mut impl KernelSink,
) {
    let pes = geometry.total_pes();
    let vw = profile.value_words;
    // Exact micro-op count: every compute burst folds into the load or
    // store before it.
    sink.reserve(match direction {
        Direction::DenseToSparse => dim + active_nnz,
        Direction::SparseToDense => {
            let memset: usize = (0..pes)
                .map(|p| ((dim * (p + 1) / pes - dim * p / pes) * vw).div_ceil(16))
                .sum();
            memset + 2 * active_nnz
        }
    });
    for tile in 0..geometry.tiles() {
        for pe in 0..geometry.pes_per_tile() {
            let p = geometry.pe_id(tile, pe);
            let elems = (dim * (p + 1) / pes) - (dim * p / pes);
            let start = dim * p / pes;
            let outs = (active_nnz * (p + 1) / pes) - (active_nnz * p / pes);
            let out_start = active_nnz * p / pes;
            sink.begin_pe(tile, pe);
            match direction {
                Direction::DenseToSparse => {
                    for e in 0..elems {
                        sink.load(layout.x_elem(start + e, 0));
                        sink.compute(1);
                    }
                    for o in 0..outs {
                        sink.store(layout.sv_entry(out_start + o));
                    }
                }
                Direction::SparseToDense => {
                    // Line-granular memset of the background value.
                    let words = elems * vw;
                    for w in (0..words).step_by(16) {
                        sink.store(layout.x_elem(start + w / vw, w % vw));
                        sink.compute(1);
                    }
                    for o in 0..outs {
                        sink.load(layout.sv_entry(out_start + o));
                        sink.compute(1);
                        sink.store(layout.x_elem(start + o % elems.max(1), 0));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmuter::{Machine, MicroArch, ProgramSet};

    fn run(dim: usize, nnz: usize, dir: Direction) -> transmuter::SimReport {
        let g = Geometry::new(2, 4);
        let l = Layout::new(dim, dim, dim, g, 1);
        let mut sink = ProgramSet::new(g);
        build(&l, g, dim, nnz, dir, OpProfile::scalar(), &mut sink);
        let mut m = Machine::new(g, MicroArch::paper());
        m.run(&sink).unwrap()
    }

    #[test]
    fn dense_to_sparse_scans_everything() {
        let r = run(4096, 40, Direction::DenseToSparse);
        assert!(r.stats.loads >= 4096);
        assert_eq!(r.stats.stores, 40);
    }

    #[test]
    fn sparse_to_dense_memsets_by_line() {
        let r = run(4096, 40, Direction::SparseToDense);
        // 4096 words / 16 per line = 256 memset stores + 40 scatters.
        assert!(r.stats.stores >= 256 + 40);
        assert_eq!(r.stats.loads, 40);
    }

    #[test]
    fn conversion_is_cheap_relative_to_spmv() {
        // "Lightweight": linear in N with line-granular traffic.
        let r = run(65_536, 600, Direction::DenseToSparse);
        assert!(r.cycles < 200_000, "conversion cost {} too high", r.cycles);
    }

    #[test]
    fn empty_frontier_conversion() {
        let r = run(1024, 0, Direction::DenseToSparse);
        assert_eq!(r.stats.stores, 0);
        assert!(r.stats.loads >= 1024);
    }
}
