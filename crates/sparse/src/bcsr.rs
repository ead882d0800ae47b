use crate::{CooMatrix, DenseVector, Idx, Result, SparseError, Triplet};
use std::collections::BTreeMap;

/// Block shapes the fill-ratio probe considers, largest area first.
/// `(1, 1)` is the always-valid fallback (degenerate CSR-of-blocks).
pub const PROBE_SHAPES: [(usize, usize); 5] = [(4, 4), (4, 2), (2, 4), (2, 2), (1, 1)];

/// Number of blocked candidates: every [`PROBE_SHAPES`] entry but the
/// trailing `(1, 1)` fallback.
const BLOCKED_SHAPES: usize = PROBE_SHAPES.len() - 1;

/// Minimum fill ratio (`nnz / stored cells`) a probed block shape must
/// reach before it beats the `(1, 1)` fallback.
pub const PROBE_MIN_FILL: f64 = 0.5;

/// An OSKI-style blocked CSR (BCSR) matrix: `r x c` register blocks,
/// blocks stored CSR-fashion by block row with ascending block-column
/// indices.
///
/// One block-column index and one occupancy mask cover up to `r * c`
/// entries, amortizing index traffic the way OSKI's register blocking
/// amortizes index loads — the win grows with the fill ratio, which is
/// why construction probes candidate shapes and falls back to `(1, 1)`
/// when no shape fills at least [`PROBE_MIN_FILL`].
///
/// The per-block occupancy mask keeps the format lossless: explicit
/// zero fill is never confused with stored entries, so COO round-trips
/// preserve the exact nonzero pattern and SpMV skips fill entirely
/// (bit-identical to the unblocked golden model).
#[derive(Debug, Clone, PartialEq)]
pub struct BcsrMatrix {
    rows: usize,
    cols: usize,
    br: usize,
    bc: usize,
    /// Offset of each block row's first block; length `block_rows + 1`.
    block_row_ptr: Vec<usize>,
    /// Block-column index of each block, ascending within a block row.
    block_col: Vec<Idx>,
    /// Occupancy bit `i * bc + j` per block (`r * c <= 16`).
    mask: Vec<u16>,
    /// `block_count * br * bc` values, row-major within each block;
    /// unoccupied cells hold `0.0`.
    values: Vec<f32>,
    nnz: usize,
}

impl BcsrMatrix {
    /// Builds with an explicit `r x c` block shape.
    ///
    /// # Panics
    ///
    /// Panics if `r * c` is 0 or exceeds 16 (the occupancy mask width).
    pub fn with_shape(coo: &CooMatrix, br: usize, bc: usize) -> Self {
        assert!(
            (1..=16).contains(&(br * bc)),
            "block shape {br}x{bc} outside the 16-bit mask"
        );
        let rows = coo.rows();
        let cols = coo.cols();
        let block_rows = rows.div_ceil(br);
        let mut block_row_ptr = vec![0usize; block_rows + 1];
        let mut block_col: Vec<Idx> = Vec::new();
        let mut mask: Vec<u16> = Vec::new();
        let mut values: Vec<f32> = Vec::new();
        // Group entries by block row (entries are row-major, so block
        // rows arrive in order), then lay out each block row's blocks in
        // ascending block-column order.
        let mut at = 0usize;
        let entries = coo.entries();
        for brow in 0..block_rows {
            let row_end = ((brow + 1) * br) as Idx;
            let start = at;
            while at < entries.len() && entries[at].row < row_end {
                at += 1;
            }
            let mut blocks: BTreeMap<Idx, (u16, Vec<f32>)> = BTreeMap::new();
            for t in &entries[start..at] {
                let bcol = t.col / bc as Idx;
                let (m, vals) = blocks
                    .entry(bcol)
                    .or_insert_with(|| (0, vec![0.0f32; br * bc]));
                let i = t.row as usize - brow * br;
                let j = t.col as usize - bcol as usize * bc;
                *m |= 1u16 << (i * bc + j);
                vals[i * bc + j] = t.val;
            }
            for (bcol, (m, vals)) in blocks {
                block_col.push(bcol);
                mask.push(m);
                values.extend_from_slice(&vals);
            }
            block_row_ptr[brow + 1] = block_col.len();
        }
        BcsrMatrix {
            rows,
            cols,
            br,
            bc,
            block_row_ptr,
            block_col,
            mask,
            values,
            nnz: coo.nnz(),
        }
    }

    /// Exact fill ratio `coo` would have when blocked `br x bc`:
    /// `nnz / (block_count * br * bc)`. Returns `0.0` for an empty
    /// matrix. One `O(nnz)` pass, no sort.
    pub fn fill_probe(coo: &CooMatrix, br: usize, bc: usize) -> f64 {
        let [blocks] = count_blocks(coo, [(br, bc)]);
        fill_ratio(coo.nnz(), blocks, br, bc)
    }

    /// Fill ratio of every blocked candidate in [`PROBE_SHAPES`] (all
    /// but the trailing `(1, 1)` fallback), in that order, from one
    /// shared pass over the entries.
    pub(crate) fn probe_fills(coo: &CooMatrix) -> [f64; BLOCKED_SHAPES] {
        let shapes: [(usize, usize); BLOCKED_SHAPES] = std::array::from_fn(|k| PROBE_SHAPES[k]);
        let blocks = count_blocks(coo, shapes);
        std::array::from_fn(|k| fill_ratio(coo.nnz(), blocks[k], shapes[k].0, shapes[k].1))
    }

    /// Index into [`PROBE_SHAPES`] of the first blocked candidate whose
    /// [`BcsrMatrix::probe_fills`] entry reaches [`PROBE_MIN_FILL`];
    /// `None` means the `(1, 1)` fallback.
    pub(crate) fn picked_shape(fills: &[f64; BLOCKED_SHAPES]) -> Option<usize> {
        fills.iter().position(|&f| f >= PROBE_MIN_FILL)
    }

    /// Picks the block shape for `coo`: the largest-area candidate in
    /// [`PROBE_SHAPES`] whose fill ratio reaches [`PROBE_MIN_FILL`],
    /// falling back to `(1, 1)`.
    pub fn probe_shape(coo: &CooMatrix) -> (usize, usize) {
        Self::picked_shape(&Self::probe_fills(coo)).map_or((1, 1), |k| PROBE_SHAPES[k])
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros (fill excluded).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The block shape `(r, c)`.
    pub fn block_shape(&self) -> (usize, usize) {
        (self.br, self.bc)
    }

    /// Number of stored blocks.
    pub fn block_count(&self) -> usize {
        self.block_col.len()
    }

    /// Achieved fill ratio `nnz / (block_count * r * c)`; `0.0` when
    /// empty.
    pub fn fill_ratio(&self) -> f64 {
        if self.block_col.is_empty() {
            0.0
        } else {
            self.nnz as f64 / (self.block_count() * self.br * self.bc) as f64
        }
    }

    /// Per-block-row offsets into [`Self::block_col`]; length
    /// `rows.div_ceil(r) + 1`.
    pub fn block_row_ptr(&self) -> &[usize] {
        &self.block_row_ptr
    }

    /// Block-column indices, ascending within each block row.
    pub fn block_col(&self) -> &[Idx] {
        &self.block_col
    }

    /// Per-block occupancy masks (bit `i * c + j`).
    pub fn mask(&self) -> &[u16] {
        &self.mask
    }

    /// Block value storage (`block_count * r * c`, fill as `0.0`).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Bytes this image occupies in simulated storage: block-row
    /// pointers plus, per block, a column index, a 16-bit mask and the
    /// full `r x c` value slab.
    pub fn stored_bytes(&self) -> usize {
        self.block_row_ptr.len() * 4 + self.block_count() * (4 + 2 + self.br * self.bc * 4)
    }

    /// Stored nonzeros in block row `brow` (mask population).
    pub fn block_row_nnz(&self, brow: usize) -> usize {
        self.mask[self.block_row_ptr[brow]..self.block_row_ptr[brow + 1]]
            .iter()
            .map(|m| m.count_ones() as usize)
            .sum()
    }

    /// Reference dense SpMV `y = A * x`, reducing each destination row
    /// in ascending column order and skipping fill (bit-identical to
    /// [`CooMatrix::spmv_dense`]).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `x.len() != self.cols()`.
    pub fn spmv_dense(&self, x: &DenseVector<f32>) -> Result<DenseVector<f32>> {
        if x.len() != self.cols {
            return Err(SparseError::ShapeMismatch {
                expected: self.cols,
                actual: x.len(),
                context: "bcsr spmv",
            });
        }
        let mut y = vec![0.0f32; self.rows];
        let block_rows = self.rows.div_ceil(self.br);
        let mut acc = vec![0.0f32; self.br];
        for brow in 0..block_rows {
            acc.fill(0.0);
            for b in self.block_row_ptr[brow]..self.block_row_ptr[brow + 1] {
                let base_col = self.block_col[b] as usize * self.bc;
                let m = self.mask[b];
                let vals = &self.values[b * self.br * self.bc..];
                for i in 0..self.br {
                    for j in 0..self.bc {
                        if m & (1u16 << (i * self.bc + j)) != 0 {
                            acc[i] += vals[i * self.bc + j] * x[base_col + j];
                        }
                    }
                }
            }
            for (i, a) in acc.iter().enumerate() {
                let r = brow * self.br + i;
                if r < self.rows {
                    y[r] = *a;
                }
            }
        }
        Ok(DenseVector::from(y))
    }
}

/// `nnz / (blocks * br * bc)`, or `0.0` when nothing is stored.
fn fill_ratio(nnz: usize, blocks: usize, br: usize, bc: usize) -> f64 {
    if nnz == 0 {
        0.0
    } else {
        nnz as f64 / (blocks * br * bc) as f64
    }
}

/// Distinct blocks `coo` occupies under each `br x bc` shape, from one
/// pass over the entries.
///
/// Entries are row-major, so block rows arrive in nondecreasing order:
/// a stamp per block column holding the last block row that touched it
/// (plus one; zero means never) sees each block first exactly once.
/// `O(nnz)` time and `O(cols / bc)` stamps per shape.
fn count_blocks<const N: usize>(coo: &CooMatrix, shapes: [(usize, usize); N]) -> [usize; N] {
    let mut stamps: [Vec<usize>; N] = shapes.map(|(_, bc)| vec![0; coo.cols().div_ceil(bc)]);
    let mut blocks = [0usize; N];
    for t in coo.entries() {
        let (row, col) = (t.row as usize, t.col as usize);
        for (k, &(br, bc)) in shapes.iter().enumerate() {
            let tag = row / br + 1;
            let stamp = &mut stamps[k][col / bc];
            if *stamp != tag {
                *stamp = tag;
                blocks[k] += 1;
            }
        }
    }
    blocks
}

impl From<&CooMatrix> for BcsrMatrix {
    /// Builds with the shape chosen by [`BcsrMatrix::probe_shape`].
    fn from(coo: &CooMatrix) -> Self {
        let (r, c) = Self::probe_shape(coo);
        Self::with_shape(coo, r, c)
    }
}

impl From<&BcsrMatrix> for CooMatrix {
    fn from(m: &BcsrMatrix) -> Self {
        let mut entries = Vec::with_capacity(m.nnz);
        let block_rows = m.rows.div_ceil(m.br);
        for brow in 0..block_rows {
            // Emit row-major: sweep local rows across the block row's
            // (ascending) blocks so triplets come out sorted.
            for i in 0..m.br {
                for b in m.block_row_ptr[brow]..m.block_row_ptr[brow + 1] {
                    let base_col = m.block_col[b] as usize * m.bc;
                    for j in 0..m.bc {
                        if m.mask[b] & (1u16 << (i * m.bc + j)) != 0 {
                            entries.push(Triplet {
                                row: (brow * m.br + i) as Idx,
                                col: (base_col + j) as Idx,
                                val: m.values[b * m.br * m.bc + i * m.bc + j],
                            });
                        }
                    }
                }
            }
        }
        CooMatrix::from_sorted_triplets(m.rows, m.cols, entries)
            .expect("block walk is sorted and in bounds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense 2x2 blocks along the diagonal of an 8x8 matrix.
    fn block_diagonal() -> CooMatrix {
        let mut ts = Vec::new();
        for b in 0..4u32 {
            for i in 0..2u32 {
                for j in 0..2u32 {
                    ts.push((b * 2 + i, b * 2 + j, (b * 4 + i * 2 + j + 1) as f32));
                }
            }
        }
        CooMatrix::from_triplets(8, 8, ts).unwrap()
    }

    #[test]
    fn round_trip_is_lossless() {
        let coo = block_diagonal();
        for &(r, c) in &PROBE_SHAPES {
            let b = BcsrMatrix::with_shape(&coo, r, c);
            assert_eq!(CooMatrix::from(&b), coo, "shape {r}x{c}");
        }
    }

    #[test]
    fn probe_picks_dense_blocks() {
        let coo = block_diagonal();
        // 2x2 blocking is a perfect fill; 4x4 blocking of a 2x2 block
        // diagonal stores 2 blocks of 16 cells for 8 entries each (fill
        // 0.5, exactly at threshold and earlier in probe order).
        assert_eq!(BcsrMatrix::fill_probe(&coo, 2, 2), 1.0);
        let b = BcsrMatrix::from(&coo);
        assert!(b.fill_ratio() >= PROBE_MIN_FILL);
        assert_eq!(b.nnz(), 16);
    }

    #[test]
    fn probe_falls_back_on_scattered_matrices() {
        let coo = crate::generate::uniform(64, 64, 80, 9).unwrap();
        assert_eq!(BcsrMatrix::probe_shape(&coo), (1, 1));
    }

    #[test]
    fn spmv_bits_match_coo_golden() {
        let x = DenseVector::from((0..64).map(|i| (i as f32).cos()).collect::<Vec<_>>());
        for seed in 0..3 {
            let coo = crate::generate::uniform(64, 64, 600, seed).unwrap();
            let want = coo.spmv_dense(&x).unwrap();
            for &(r, c) in &PROBE_SHAPES {
                let b = BcsrMatrix::with_shape(&coo, r, c);
                let got = b.spmv_dense(&x).unwrap();
                for (w, g) in want.iter().zip(got.iter()) {
                    assert_eq!(w.to_bits(), g.to_bits(), "shape {r}x{c}");
                }
            }
        }
    }

    #[test]
    fn ragged_edge_rows_are_preserved() {
        // 5 rows blocked 2x2: the last block row covers only row 4.
        let coo = CooMatrix::from_triplets(5, 5, vec![(4, 0, 1.0), (4, 4, 2.0)]).unwrap();
        let b = BcsrMatrix::with_shape(&coo, 2, 2);
        assert_eq!(CooMatrix::from(&b), coo);
        let x = DenseVector::from(vec![1.0f32; 5]);
        assert_eq!(b.spmv_dense(&x).unwrap().as_slice()[4], 3.0);
    }

    #[test]
    fn empty_matrix_degenerates() {
        let coo = CooMatrix::new(0, 0);
        let b = BcsrMatrix::from(&coo);
        assert_eq!(b.block_count(), 0);
        assert_eq!(b.fill_ratio(), 0.0);
        assert_eq!(CooMatrix::from(&b), coo);
    }
}
