use crate::{BcsrMatrix, BitmapCsr, CooMatrix, CscMatrix, CsrMatrix, DenseVector, Result};
use std::fmt;

/// The storage formats the runtime can reconfigure between — the third
/// reconfiguration axis next to software dataflow and hardware config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FormatKind {
    /// Row-major coordinate triplets (the paper's IP streaming format).
    Coo,
    /// Compressed sparse column (the paper's OP merge format).
    Csc,
    /// Compressed sparse row (host row loops, baselines).
    Csr,
    /// SMASH-style hierarchical-bitmap CSR ([`BitmapCsr`]).
    Bitmap,
    /// OSKI-style blocked CSR ([`BcsrMatrix`]).
    Bcsr,
}

impl FormatKind {
    /// Every supported format, in declaration order.
    pub const ALL: [FormatKind; 5] = [
        FormatKind::Coo,
        FormatKind::Csc,
        FormatKind::Csr,
        FormatKind::Bitmap,
        FormatKind::Bcsr,
    ];

    /// Short lowercase name (stable; used in bench workload labels).
    pub fn name(self) -> &'static str {
        match self {
            FormatKind::Coo => "coo",
            FormatKind::Csc => "csc",
            FormatKind::Csr => "csr",
            FormatKind::Bitmap => "bitmap",
            FormatKind::Bcsr => "bcsr",
        }
    }
}

impl fmt::Display for FormatKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A sparse matrix stored in one concrete [`FormatKind`], behind one
/// API: shape/nnz accessors, lossless COO round-trip, and a reference
/// SpMV that is `to_bits`-identical to the COO golden model in every
/// format (all five reduce each destination row in ascending source
/// order).
#[derive(Debug, Clone, PartialEq)]
pub enum StoredMatrix {
    /// Coordinate triplets.
    Coo(CooMatrix),
    /// Compressed sparse column.
    Csc(CscMatrix),
    /// Compressed sparse row.
    Csr(CsrMatrix),
    /// Hierarchical-bitmap CSR.
    Bitmap(BitmapCsr),
    /// Blocked CSR.
    Bcsr(BcsrMatrix),
}

impl StoredMatrix {
    /// Converts `coo` into the requested storage format.
    pub fn from_coo(coo: &CooMatrix, kind: FormatKind) -> Self {
        match kind {
            FormatKind::Coo => StoredMatrix::Coo(coo.clone()),
            FormatKind::Csc => StoredMatrix::Csc(CscMatrix::from(coo)),
            FormatKind::Csr => StoredMatrix::Csr(CsrMatrix::from(coo)),
            FormatKind::Bitmap => StoredMatrix::Bitmap(BitmapCsr::from(coo)),
            FormatKind::Bcsr => StoredMatrix::Bcsr(BcsrMatrix::from(coo)),
        }
    }

    /// Which format this matrix is stored in.
    pub fn kind(&self) -> FormatKind {
        match self {
            StoredMatrix::Coo(_) => FormatKind::Coo,
            StoredMatrix::Csc(_) => FormatKind::Csc,
            StoredMatrix::Csr(_) => FormatKind::Csr,
            StoredMatrix::Bitmap(_) => FormatKind::Bitmap,
            StoredMatrix::Bcsr(_) => FormatKind::Bcsr,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            StoredMatrix::Coo(m) => m.rows(),
            StoredMatrix::Csc(m) => m.rows(),
            StoredMatrix::Csr(m) => m.rows(),
            StoredMatrix::Bitmap(m) => m.rows(),
            StoredMatrix::Bcsr(m) => m.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            StoredMatrix::Coo(m) => m.cols(),
            StoredMatrix::Csc(m) => m.cols(),
            StoredMatrix::Csr(m) => m.cols(),
            StoredMatrix::Bitmap(m) => m.cols(),
            StoredMatrix::Bcsr(m) => m.cols(),
        }
    }

    /// Number of stored nonzeros (fill never counts).
    pub fn nnz(&self) -> usize {
        match self {
            StoredMatrix::Coo(m) => m.nnz(),
            StoredMatrix::Csc(m) => m.nnz(),
            StoredMatrix::Csr(m) => m.nnz(),
            StoredMatrix::Bitmap(m) => m.nnz(),
            StoredMatrix::Bcsr(m) => m.nnz(),
        }
    }

    /// Converts back to canonical row-major COO (lossless for every
    /// format).
    pub fn to_coo(&self) -> CooMatrix {
        match self {
            StoredMatrix::Coo(m) => m.clone(),
            StoredMatrix::Csc(m) => CooMatrix::from(m),
            StoredMatrix::Csr(m) => CooMatrix::from(m),
            StoredMatrix::Bitmap(m) => CooMatrix::from(m),
            StoredMatrix::Bcsr(m) => CooMatrix::from(m),
        }
    }

    /// Reference dense SpMV `y = A * x` in whichever format is stored;
    /// bit-identical across formats.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SparseError::ShapeMismatch`] on a wrong-length
    /// `x`.
    pub fn spmv_dense(&self, x: &DenseVector<f32>) -> Result<DenseVector<f32>> {
        match self {
            StoredMatrix::Coo(m) => m.spmv_dense(x),
            StoredMatrix::Csc(m) => m.spmv_dense(x),
            StoredMatrix::Csr(m) => m.spmv_dense(x),
            StoredMatrix::Bitmap(m) => m.spmv_dense(x),
            StoredMatrix::Bcsr(m) => m.spmv_dense(x),
        }
    }

    /// Bytes of simulated storage this format occupies (4-byte words:
    /// indices, pointers, bitmap words, values; COO triplets are the
    /// paper's packed 12 bytes).
    pub fn stored_bytes(&self) -> usize {
        match self {
            StoredMatrix::Coo(m) => m.nnz() * 12,
            StoredMatrix::Csc(m) => (m.cols() + 1) * 4 + m.nnz() * 8,
            StoredMatrix::Csr(m) => (m.rows() + 1) * 4 + m.nnz() * 8,
            StoredMatrix::Bitmap(m) => m.stored_bytes(),
            StoredMatrix::Bcsr(m) => m.stored_bytes(),
        }
    }
}

/// Cheap structural probe feeding the format decision tree: how well
/// the matrix suits each candidate format, computed once per graph in
/// two `O(nnz)` passes (segments, then every block shape at once).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FormatProbe {
    /// Average stored entries per occupied 32-column segment
    /// ([`BitmapCsr::segment_occupancy`] without building the format).
    pub seg_occupancy: f64,
    /// Best blocked fill ratio found by [`BcsrMatrix::probe_shape`].
    pub block_fill: f64,
    /// The block shape achieving `block_fill`.
    pub block_shape: (usize, usize),
}

impl FormatProbe {
    /// Probes `coo` for segment clustering and blockability.
    pub fn of(coo: &CooMatrix) -> Self {
        let mut segs = 0usize;
        let mut last = None;
        for t in coo.entries() {
            let key = (t.row, t.col / crate::bitmap::SEG_COLS as crate::Idx);
            if last != Some(key) {
                segs += 1;
                last = Some(key);
            }
        }
        let seg_occupancy = if segs == 0 {
            0.0
        } else {
            coo.nnz() as f64 / segs as f64
        };
        // Each candidate's fill is computed once, in one shared pass.
        let fills = BcsrMatrix::probe_fills(coo);
        let (block_shape, block_fill) = match BcsrMatrix::picked_shape(&fills) {
            Some(k) => (crate::bcsr::PROBE_SHAPES[k], fills[k]),
            // (1, 1) means no candidate reached the threshold; report
            // the best real blocking so the decision tree sees a value
            // below the crossover rather than a vacuous 1.0.
            None => ((1, 1), fills.iter().copied().fold(0.0, f64::max)),
        };
        FormatProbe {
            seg_occupancy,
            block_fill,
            block_shape,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix {
        crate::generate::uniform(40, 50, 300, 17).unwrap()
    }

    #[test]
    fn every_format_round_trips() {
        let coo = sample();
        for kind in FormatKind::ALL {
            let m = StoredMatrix::from_coo(&coo, kind);
            assert_eq!(m.kind(), kind);
            assert_eq!((m.rows(), m.cols(), m.nnz()), (40, 50, 300));
            assert_eq!(m.to_coo(), coo, "round trip through {kind}");
        }
    }

    #[test]
    fn spmv_bits_identical_across_formats() {
        let coo = sample();
        let x = DenseVector::from((0..50).map(|i| 1.0 + (i as f32) * 0.25).collect::<Vec<_>>());
        let want = coo.spmv_dense(&x).unwrap();
        for kind in FormatKind::ALL {
            let got = StoredMatrix::from_coo(&coo, kind).spmv_dense(&x).unwrap();
            for (w, g) in want.iter().zip(got.iter()) {
                assert_eq!(w.to_bits(), g.to_bits(), "format {kind}");
            }
        }
    }

    #[test]
    fn probe_reflects_structure() {
        // Scattered uniform: no blocking, near-singleton segments.
        let p = FormatProbe::of(&crate::generate::uniform(64, 4096, 300, 3).unwrap());
        assert!(p.seg_occupancy < 1.5, "occupancy {}", p.seg_occupancy);
        assert_eq!(p.block_shape, (1, 1));

        // Dense band: every segment packed, rows blocked tightly.
        let mut ts = Vec::new();
        for r in 0..32u32 {
            for c in 0..32u32 {
                ts.push((r, c, 1.0));
            }
        }
        let dense = CooMatrix::from_triplets(32, 32, ts).unwrap();
        let p = FormatProbe::of(&dense);
        assert_eq!(p.seg_occupancy, 32.0);
        assert_eq!(p.block_fill, 1.0);
        assert!(p.block_shape.0 * p.block_shape.1 > 1);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(FormatKind::Bitmap.name(), "bitmap");
        assert_eq!(FormatKind::Bcsr.to_string(), "bcsr");
    }
}
