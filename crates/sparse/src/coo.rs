use crate::{DenseVector, Idx, Result, SparseError};

/// One nonzero element: `(row, col, value)`.
///
/// The inner-product kernel streams these sequentially, which is why the
/// paper stores the matrix "in row-major COO format to facilitate spatial
/// locality" (§III-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triplet {
    /// Row index.
    pub row: Idx,
    /// Column index.
    pub col: Idx,
    /// Value (edge weight).
    pub val: f32,
}

/// A sparse matrix in coordinate (COO) format, canonically sorted
/// row-major (by row, then column) with duplicate entries combined.
///
/// This is the storage format CoSPARSE's inner-product (IP) dataflow uses:
/// each PE walks a contiguous slice of triplets, so matrix accesses are
/// perfectly sequential and only the frontier-vector accesses are random.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<Triplet>,
}

impl CooMatrix {
    /// Creates an empty matrix of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Builds a canonical COO matrix from `(row, col, value)` triplets.
    ///
    /// Triplets may arrive in any order; duplicates are summed. Entries
    /// whose value is exactly `0.0` are kept (graph adjacency matrices
    /// use the *pattern*, and the paper's BFS edges are unweighted).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if any triplet lies
    /// outside `rows x cols`.
    pub fn from_triplets(rows: usize, cols: usize, triplets: Vec<(Idx, Idx, f32)>) -> Result<Self> {
        let mut entries: Vec<Triplet> = Vec::with_capacity(triplets.len());
        for (row, col, val) in triplets {
            if row as usize >= rows || col as usize >= cols {
                return Err(SparseError::IndexOutOfBounds {
                    row: row as usize,
                    col: col as usize,
                    rows,
                    cols,
                });
            }
            entries.push(Triplet { row, col, val });
        }
        entries.sort_unstable_by_key(|a| (a.row, a.col));
        // Combine duplicates by summation.
        let mut combined: Vec<Triplet> = Vec::with_capacity(entries.len());
        for t in entries {
            match combined.last_mut() {
                Some(last) if last.row == t.row && last.col == t.col => last.val += t.val,
                _ => combined.push(t),
            }
        }
        Ok(CooMatrix {
            rows,
            cols,
            entries: combined,
        })
    }

    /// Builds a canonical COO matrix from pre-sorted, duplicate-free
    /// triplets without re-sorting.
    ///
    /// # Errors
    ///
    /// Returns an error if the triplets are not strictly increasing in
    /// `(row, col)` order or lie outside the shape.
    pub fn from_sorted_triplets(rows: usize, cols: usize, entries: Vec<Triplet>) -> Result<Self> {
        for (i, t) in entries.iter().enumerate() {
            if t.row as usize >= rows || t.col as usize >= cols {
                return Err(SparseError::IndexOutOfBounds {
                    row: t.row as usize,
                    col: t.col as usize,
                    rows,
                    cols,
                });
            }
            if i > 0 {
                let p = &entries[i - 1];
                if (p.row, p.col) >= (t.row, t.col) {
                    return Err(SparseError::UnsortedEntries { position: i });
                }
            }
        }
        Ok(CooMatrix {
            rows,
            cols,
            entries,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzero entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Fraction of cells that are stored: `nnz / (rows * cols)`.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// The canonical row-major entry slice.
    pub fn entries(&self) -> &[Triplet] {
        &self.entries
    }

    /// Iterates over entries as `(row, col, value)` tuples.
    pub fn iter(&self) -> impl Iterator<Item = (Idx, Idx, f32)> + '_ {
        self.entries.iter().map(|t| (t.row, t.col, t.val))
    }

    /// Returns the transpose (entries in the transposed row-major
    /// order).
    ///
    /// A stable counting sort by column, `O(nnz + cols)`: the entries
    /// arrive row-major, so each column receives its rows ascending and
    /// the output is already sorted by `(col, row)`.
    pub fn transpose(&self) -> CooMatrix {
        let mut start = vec![0usize; self.cols + 1];
        for t in &self.entries {
            start[t.col as usize + 1] += 1;
        }
        for c in 0..self.cols {
            start[c + 1] += start[c];
        }
        let mut entries = vec![
            Triplet {
                row: 0,
                col: 0,
                val: 0.0,
            };
            self.entries.len()
        ];
        for t in &self.entries {
            let slot = &mut start[t.col as usize];
            entries[*slot] = Triplet {
                row: t.col,
                col: t.row,
                val: t.val,
            };
            *slot += 1;
        }
        CooMatrix {
            rows: self.cols,
            cols: self.rows,
            entries,
        }
    }

    /// Reference dense SpMV: `y = A * x`.
    ///
    /// This is the functional golden model used to validate the kernel
    /// implementations; it is not on any simulated timing path.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `x.len() != self.cols()`.
    pub fn spmv_dense(&self, x: &DenseVector<f32>) -> Result<DenseVector<f32>> {
        if x.len() != self.cols {
            return Err(SparseError::ShapeMismatch {
                expected: self.cols,
                actual: x.len(),
                context: "coo spmv",
            });
        }
        let mut y = vec![0.0f32; self.rows];
        for t in &self.entries {
            y[t.row as usize] += t.val * x[t.col as usize];
        }
        Ok(DenseVector::from(y))
    }

    /// Per-row nonzero counts.
    pub fn row_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.rows];
        for t in &self.entries {
            counts[t.row as usize] += 1;
        }
        counts
    }

    /// Per-column nonzero counts (out of place; `O(nnz)`).
    pub fn col_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.cols];
        for t in &self.entries {
            counts[t.col as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CooMatrix {
        CooMatrix::from_triplets(
            3,
            4,
            vec![(2, 1, 1.0), (0, 0, 2.0), (0, 3, 3.0), (1, 2, 4.0)],
        )
        .unwrap()
    }

    #[test]
    fn from_triplets_sorts_row_major() {
        let m = small();
        let order: Vec<(Idx, Idx)> = m.iter().map(|(r, c, _)| (r, c)).collect();
        assert_eq!(order, vec![(0, 0), (0, 3), (1, 2), (2, 1)]);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, 2.5)]).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.entries()[0].val, 3.5);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let err = CooMatrix::from_triplets(2, 2, vec![(2, 0, 1.0)]).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { row: 2, .. }));
    }

    #[test]
    fn from_sorted_rejects_unsorted() {
        let ts = vec![
            Triplet {
                row: 1,
                col: 0,
                val: 1.0,
            },
            Triplet {
                row: 0,
                col: 0,
                val: 1.0,
            },
        ];
        let err = CooMatrix::from_sorted_triplets(2, 2, ts).unwrap_err();
        assert!(matches!(err, SparseError::UnsortedEntries { position: 1 }));
    }

    #[test]
    fn transpose_involution() {
        let m = small();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_swaps_shape() {
        let t = small().transpose();
        assert_eq!((t.rows(), t.cols()), (4, 3));
        assert_eq!(t.nnz(), 4);
    }

    #[test]
    fn spmv_matches_hand_computation() {
        let m = small();
        let x = DenseVector::from(vec![1.0f32, 2.0, 3.0, 4.0]);
        let y = m.spmv_dense(&x).unwrap();
        assert_eq!(y.as_slice(), &[2.0 + 12.0, 12.0, 2.0]);
    }

    #[test]
    fn spmv_shape_mismatch() {
        let m = small();
        let x = DenseVector::from(vec![1.0f32; 3]);
        assert!(m.spmv_dense(&x).is_err());
    }

    #[test]
    fn density_and_counts() {
        let m = small();
        assert!((m.density() - 4.0 / 12.0).abs() < 1e-12);
        assert_eq!(m.row_counts(), vec![2, 1, 1]);
        assert_eq!(m.col_counts(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn empty_matrix_density_is_zero() {
        assert_eq!(CooMatrix::new(0, 0).density(), 0.0);
        assert_eq!(CooMatrix::new(3, 3).density(), 0.0);
    }
}
