//! Format-conversion properties: every storage format behind
//! [`StoredMatrix`] must be a lossless re-encoding of the canonical COO
//! matrix, and its dense SpMV must be bit-identical to the COO golden
//! reduction — format choice is a performance decision, never a
//! numerical one. The structural probes steering that decision, and the
//! transpose every graph is built from, must equal their sort-based
//! reference implementations exactly.

use proptest::prelude::*;
use sparse::bcsr::{BcsrMatrix, PROBE_SHAPES};
use sparse::format::FormatProbe;
use sparse::generate::SuiteGraph;
use sparse::{CooMatrix, DenseVector, FormatKind, Idx, StoredMatrix, Triplet};
use std::collections::HashSet;

/// Values that exercise the representational corners: exact zero
/// (pattern entries must survive), negatives, subnormal-adjacent
/// magnitudes, and values whose sums are order-sensitive in f32.
const VALUES: [f32; 8] = [
    0.0,
    1.0,
    -1.5,
    0.25,
    3.7e-3,
    -2.5e4,
    f32::MIN_POSITIVE,
    1.000_000_1,
];

/// An arbitrary small matrix: shape plus raw triplets (duplicates are
/// summed by the COO constructor, making it canonical), and a seed for
/// the input vector.
fn arb_case() -> impl Strategy<Value = (CooMatrix, u64)> {
    (1usize..40, 1usize..40, 0u64..1000).prop_flat_map(|(rows, cols, seed)| {
        proptest::collection::vec((0..rows, 0..cols, 0usize..VALUES.len()), 0..120).prop_map(
            move |raw| {
                let triplets = raw
                    .into_iter()
                    .map(|(r, c, v)| (r as Idx, c as Idx, VALUES[v]))
                    .collect();
                let coo = CooMatrix::from_triplets(rows, cols, triplets).expect("in-bounds");
                (coo, seed)
            },
        )
    })
}

fn assert_roundtrip(coo: &CooMatrix, kind: FormatKind) -> Result<(), TestCaseError> {
    let stored = StoredMatrix::from_coo(coo, kind);
    prop_assert_eq!(stored.kind(), kind);
    prop_assert_eq!(stored.rows(), coo.rows());
    prop_assert_eq!(stored.cols(), coo.cols());
    prop_assert_eq!(stored.nnz(), coo.nnz());
    let back = stored.to_coo();
    prop_assert_eq!(back.rows(), coo.rows());
    prop_assert_eq!(back.cols(), coo.cols());
    let got: Vec<(Idx, Idx, u32)> = back.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
    let want: Vec<(Idx, Idx, u32)> = coo.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
    prop_assert_eq!(got, want, "{} -> COO lost or perturbed entries", kind);
    Ok(())
}

fn assert_spmv_matches_golden(
    coo: &CooMatrix,
    kind: FormatKind,
    x: &DenseVector<f32>,
) -> Result<(), TestCaseError> {
    let stored = StoredMatrix::from_coo(coo, kind);
    let want = coo.spmv_dense(x).expect("golden spmv");
    let got = stored.spmv_dense(x).expect("format spmv");
    prop_assert_eq!(got.len(), want.len());
    for r in 0..want.len() {
        prop_assert_eq!(
            got[r].to_bits(),
            want[r].to_bits(),
            "{} row {}: {} vs {}",
            kind,
            r,
            got[r],
            want[r]
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// COO -> {CSC, CSR, bitmap, BCSR} -> COO is the identity on the
    /// canonical triplet list, bit-exact values included.
    #[test]
    fn every_format_roundtrips_losslessly(case in arb_case()) {
        let (coo, _) = case;
        for kind in FormatKind::ALL {
            assert_roundtrip(&coo, kind)?;
        }
    }

    /// Dense SpMV through every format reduces each destination row in
    /// ascending source order, so the result is `to_bits`-identical to
    /// the COO golden model.
    #[test]
    fn every_format_spmv_is_bit_identical_to_coo(case in arb_case()) {
        let (coo, seed) = case;
        let x = sparse::generate::random_dense_vector(coo.cols(), seed);
        for kind in FormatKind::ALL {
            assert_spmv_matches_golden(&coo, kind, &x)?;
        }
    }
}

/// The degenerate shapes proptest reaches only by luck, pinned: fully
/// empty, single entry in the far corner (everything before it is an
/// empty row/column), a lone explicit zero, and a matrix whose only
/// occupied column leaves every other column empty.
#[test]
fn degenerate_shapes_roundtrip_and_multiply() {
    let cases: Vec<CooMatrix> = vec![
        CooMatrix::new(5, 7),
        CooMatrix::from_triplets(9, 9, vec![(8, 8, 2.5)]).unwrap(),
        CooMatrix::from_triplets(4, 4, vec![(2, 1, 0.0)]).unwrap(),
        CooMatrix::from_triplets(6, 33, vec![(0, 32, 1.0), (3, 32, -2.0), (5, 32, 0.5)]).unwrap(),
        CooMatrix::from_triplets(1, 1, vec![(0, 0, -0.0)]).unwrap(),
    ];
    for coo in &cases {
        let x = sparse::generate::random_dense_vector(coo.cols(), 17);
        let want = coo.spmv_dense(&x).unwrap();
        for kind in FormatKind::ALL {
            let stored = StoredMatrix::from_coo(coo, kind);
            let back = stored.to_coo();
            let got: Vec<_> = back.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
            let exp: Vec<_> = coo.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
            assert_eq!(
                got,
                exp,
                "{kind} round-trip on {}x{}",
                coo.rows(),
                coo.cols()
            );
            let y = stored.spmv_dense(&x).unwrap();
            for r in 0..want.len() {
                assert_eq!(y[r].to_bits(), want[r].to_bits(), "{kind} spmv row {r}");
            }
        }
    }
}

/// Sort-based reference implementations of the one-pass probes and the
/// counting-sort transpose: a sorted, deduplicated scan of block
/// columns per block row and per shape, the shape search re-running
/// the fills it needs, and a comparison sort of the swapped entries.
mod reference {
    use sparse::bcsr::{PROBE_MIN_FILL, PROBE_SHAPES};
    use sparse::format::FormatProbe;
    use sparse::{CooMatrix, Idx, Triplet};

    pub fn fill_probe(coo: &CooMatrix, br: usize, bc: usize) -> f64 {
        if coo.nnz() == 0 {
            return 0.0;
        }
        let mut bcols: Vec<Idx> = Vec::new();
        let mut blocks = 0usize;
        let mut cur_brow = Idx::MAX;
        for t in coo.entries() {
            let brow = t.row / br as Idx;
            if brow != cur_brow {
                bcols.sort_unstable();
                bcols.dedup();
                blocks += bcols.len();
                bcols.clear();
                cur_brow = brow;
            }
            bcols.push(t.col / bc as Idx);
        }
        bcols.sort_unstable();
        bcols.dedup();
        blocks += bcols.len();
        coo.nnz() as f64 / (blocks * br * bc) as f64
    }

    pub fn probe_shape(coo: &CooMatrix) -> (usize, usize) {
        for &(r, c) in &PROBE_SHAPES {
            if r * c == 1 || fill_probe(coo, r, c) >= PROBE_MIN_FILL {
                return (r, c);
            }
        }
        (1, 1)
    }

    pub fn format_probe(coo: &CooMatrix) -> FormatProbe {
        let mut segs = 0usize;
        let mut last = None;
        for t in coo.entries() {
            let key = (t.row, t.col / sparse::bitmap::SEG_COLS as Idx);
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
        let block_shape = probe_shape(coo);
        let block_fill = if block_shape == (1, 1) {
            PROBE_SHAPES
                .iter()
                .filter(|&&(r, c)| r * c > 1)
                .map(|&(r, c)| fill_probe(coo, r, c))
                .fold(0.0, f64::max)
        } else {
            fill_probe(coo, block_shape.0, block_shape.1)
        };
        FormatProbe {
            seg_occupancy,
            block_fill,
            block_shape,
        }
    }

    pub fn transpose(coo: &CooMatrix) -> Vec<Triplet> {
        let mut entries: Vec<Triplet> = coo
            .entries()
            .iter()
            .map(|t| Triplet {
                row: t.col,
                col: t.row,
                val: t.val,
            })
            .collect();
        entries.sort_unstable_by_key(|a| (a.row, a.col));
        entries
    }
}

/// Block shapes beyond the probe's candidates: tall, wide and
/// non-power-of-two blocks leave ragged last block rows and columns on
/// most shapes.
const EXTRA_SHAPES: [(usize, usize); 4] = [(3, 5), (1, 16), (16, 1), (7, 2)];

/// Fill ratio from the definition: distinct `(block row, block col)`
/// pairs, collected in a set.
fn fill_by_set(coo: &CooMatrix, br: usize, bc: usize) -> f64 {
    let blocks: HashSet<(usize, usize)> = coo
        .iter()
        .map(|(r, c, _)| (r as usize / br, c as usize / bc))
        .collect();
    if blocks.is_empty() {
        0.0
    } else {
        coo.nnz() as f64 / (blocks.len() * br * bc) as f64
    }
}

fn triplet_bits(ts: &[Triplet]) -> Vec<(Idx, Idx, u32)> {
    ts.iter().map(|t| (t.row, t.col, t.val.to_bits())).collect()
}

/// Checks the one-pass probes and the counting-sort transpose of `coo`
/// against the references, bit for bit.
fn assert_probes_exact(coo: &CooMatrix) -> Result<(), TestCaseError> {
    for &(br, bc) in PROBE_SHAPES.iter().chain(&EXTRA_SHAPES) {
        prop_assert_eq!(
            BcsrMatrix::fill_probe(coo, br, bc).to_bits(),
            fill_by_set(coo, br, bc).to_bits(),
            "fill {}x{} on {}x{}",
            br,
            bc,
            coo.rows(),
            coo.cols()
        );
    }
    let got = FormatProbe::of(coo);
    let want = reference::format_probe(coo);
    prop_assert_eq!(got.block_shape, want.block_shape);
    prop_assert_eq!(got.block_fill.to_bits(), want.block_fill.to_bits());
    prop_assert_eq!(got.seg_occupancy.to_bits(), want.seg_occupancy.to_bits());
    prop_assert_eq!(BcsrMatrix::probe_shape(coo), reference::probe_shape(coo));

    let t = coo.transpose();
    prop_assert_eq!((t.rows(), t.cols()), (coo.cols(), coo.rows()));
    prop_assert_eq!(
        triplet_bits(t.entries()),
        triplet_bits(&reference::transpose(coo))
    );
    Ok(())
}

/// Small shapes with up to 400 raw entries: dense enough on the
/// smallest shapes for every block shape to pass the fill threshold,
/// scattered on the largest, empty now and then.
fn arb_probe_case() -> impl Strategy<Value = CooMatrix> {
    (1usize..40, 1usize..40).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec((0..rows, 0..cols, 0usize..VALUES.len()), 0..400).prop_map(
            move |raw| {
                let triplets = raw
                    .into_iter()
                    .map(|(r, c, v)| (r as Idx, c as Idx, VALUES[v]))
                    .collect();
                CooMatrix::from_triplets(rows, cols, triplets).expect("in-bounds")
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `fill_probe`'s stamp pass counts exactly the distinct blocks;
    /// `FormatProbe::of` and `probe_shape` equal the sort-based probe
    /// `to_bits`; `transpose` equals the comparison-sorted reference.
    #[test]
    fn probes_and_transpose_equal_their_references(coo in arb_probe_case()) {
        assert_probes_exact(&coo)?;
    }
}

/// The shapes the random cases reach only by luck, plus generated
/// graphs with the skew of the real workloads: empty, a lone entry in
/// the far corner, a full dense square (every shape fills), a ragged
/// band whose last block row and column are partial, one row, one
/// column, and the R-MAT, power-law and five suite graphs.
#[test]
fn probes_and_transpose_are_exact_on_pinned_and_generated_graphs() {
    let mut cases: Vec<CooMatrix> = vec![
        CooMatrix::new(0, 0),
        CooMatrix::new(5, 7),
        CooMatrix::from_triplets(9, 13, vec![(8, 12, 2.5)]).unwrap(),
        CooMatrix::from_triplets(
            8,
            8,
            (0..64).map(|i| (i / 8, i % 8, 1.0 + i as f32)).collect(),
        )
        .unwrap(),
        CooMatrix::from_triplets(
            11,
            13,
            (0..11u32)
                .flat_map(|r| (r..(r + 3).min(13)).map(move |c| (r, c, 0.5)))
                .collect(),
        )
        .unwrap(),
        CooMatrix::from_triplets(1, 70, (0..70).step_by(3).map(|c| (0, c, -1.0)).collect())
            .unwrap(),
        CooMatrix::from_triplets(70, 1, (0..70).step_by(3).map(|r| (r, 0, -1.0)).collect())
            .unwrap(),
        sparse::generate::rmat(10, 8_000, Default::default(), 3).unwrap(),
        sparse::generate::power_law(700, 500, 6_000, 2.2, 5).unwrap(),
    ];
    // Each suite graph scaled to ~40k edges.
    for g in SuiteGraph::ALL {
        let spec = g.spec();
        cases.push(spec.scaled(spec.edges / 40_000).generate(7).unwrap());
    }
    for coo in &cases {
        assert_probes_exact(coo).unwrap();
    }
}
