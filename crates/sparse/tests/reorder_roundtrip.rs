//! Reordering properties: a [`Permutation`] is a pure re-indexing.
//! Applying any reordering, encoding through any storage format, and
//! inverting must reproduce the canonical COO matrix bit-for-bit — and
//! an SpMV streamed over the reordered image, fed a permuted input and
//! un-permuted on the way out, must match the arrival-order product on
//! every bit. Reordering is a locality decision, never a numerical one.

use proptest::prelude::*;
use sparse::generate::SuiteGraph;
use sparse::reorder::{compute, rcm, Permutation, ReorderKind};
use sparse::{CooMatrix, DenseVector, FormatKind, Idx, StoredMatrix};

/// Dyadic-grid values: every entry is a multiple of 1/8 with magnitude
/// at most 4, so any product of an entry and an input value is a
/// multiple of 1/64 bounded well inside f32's 24-bit mantissa. Row sums
/// of up to 120 such products are exact, hence order-independent —
/// which is what lets the reordered-summation tests demand `to_bits`
/// equality instead of a tolerance.
const VALUES: [f32; 8] = [0.0, 0.125, -0.375, 1.0, -2.0, 0.5, 4.0, -0.125];

/// A dyadic input vector derived from the case seed.
fn dyadic_vector(len: usize, seed: u64) -> DenseVector<f32> {
    (0..len)
        .map(|i| VALUES[((i as u64).wrapping_mul(7).wrapping_add(seed) % 8) as usize])
        .collect()
}

/// An arbitrary small matrix on the dyadic grid (duplicates summed by
/// the COO constructor stay on the grid) plus an input-vector seed.
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

fn bits_of(coo: &CooMatrix) -> Vec<(Idx, Idx, u32)> {
    coo.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `invert` is a true inverse: applying a reordering and then its
    /// inverse is the identity on the canonical triplet list — even
    /// when the round trip passes through each storage format's
    /// encoder, so no format bakes in an arrival-order assumption.
    #[test]
    fn reorder_then_inverse_is_identity_through_every_format(case in arb_case()) {
        let (coo, _) = case;
        let want = bits_of(&coo);
        for kind in ReorderKind::ALL {
            let p = compute(kind, &coo);
            let permuted = p.apply_coo(&coo);
            prop_assert_eq!(permuted.nnz(), coo.nnz(), "{} dropped entries", kind);
            prop_assert_eq!(
                bits_of(&p.invert().apply_coo(&permuted)),
                want.clone(),
                "{} direct round trip",
                kind
            );
            for fmt in FormatKind::ALL {
                let stored = StoredMatrix::from_coo(&permuted, fmt);
                let back = p.invert().apply_coo(&stored.to_coo());
                prop_assert_eq!(
                    bits_of(&back),
                    want.clone(),
                    "{} through {} round trip",
                    kind,
                    fmt
                );
            }
        }
    }

    /// Streaming the reordered image of the matrix against a permuted
    /// input, through every storage format, and un-permuting the result
    /// reproduces the arrival-order product `to_bits`-exactly (dyadic
    /// values make every row sum exact, hence order-independent).
    #[test]
    fn reordered_spmv_unpermutes_to_identical_bits(case in arb_case()) {
        let (coo, seed) = case;
        let x = dyadic_vector(coo.cols(), seed);
        let want = coo.spmv_dense(&x).expect("golden spmv");
        for kind in ReorderKind::ALL {
            let p = compute(kind, &coo);
            let permuted = p.apply_coo(&coo);
            let xp: DenseVector<f32> = p.permute_dense(x.as_slice()).into();
            for fmt in FormatKind::ALL {
                let yp = StoredMatrix::from_coo(&permuted, fmt)
                    .spmv_dense(&xp)
                    .expect("reordered spmv");
                let y = p.unpermute_result(yp.as_slice());
                prop_assert_eq!(y.len(), want.len());
                for (r, (a, b)) in y.iter().zip(want.iter()).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(), b.to_bits(),
                        "{}/{} row {}: {} vs {}", kind, fmt, r, a, b
                    );
                }
            }
        }
    }

    /// The active-list permutation used by the runtime's vector-permute
    /// contract agrees with the naive map-and-sort, stays strictly
    /// sorted, and maps back to the original set under the inverse.
    #[test]
    fn permute_active_is_a_sorted_bijection_on_the_list(case in arb_case()) {
        let (coo, seed) = case;
        // A deduplicated, sorted active list sampled from the columns.
        let mut active: Vec<Idx> = (0..coo.cols())
            .filter(|i| (*i as u64).wrapping_mul(31).wrapping_add(seed) % 3 == 0)
            .map(|i| i as Idx)
            .collect();
        active.sort_unstable();
        for kind in ReorderKind::ALL {
            let p = compute(kind, &coo);
            let mut out = Vec::new();
            p.permute_active(&active, &mut out);
            let mut naive: Vec<Idx> =
                active.iter().map(|&c| p.col_new()[c as usize]).collect();
            naive.sort_unstable();
            prop_assert_eq!(&out, &naive, "{} disagrees with map+sort", kind);
            prop_assert!(out.windows(2).all(|w| w[0] < w[1]), "{} not strictly sorted", kind);
            let mut back = Vec::new();
            p.invert().permute_active(&out, &mut back);
            prop_assert_eq!(back, active.clone(), "{} inverse lost indices", kind);
        }
    }

    /// The lazy permute the runtime uses for masked inner products —
    /// `mark_active` scattering straight into a column mask, no sort —
    /// marks exactly `sort(map(col_new))` and unmarks back to all-false,
    /// on random subsets and on the empty and full sets.
    #[test]
    fn mark_active_marks_exactly_the_sorted_permuted_set(case in arb_case()) {
        let (coo, seed) = case;
        let cols = coo.cols();
        let random: Vec<Idx> = (0..cols)
            .filter(|i| (*i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed) % 5 < 2)
            .map(|i| i as Idx)
            .collect();
        let full: Vec<Idx> = (0..cols as Idx).collect();
        for active in [Vec::new(), random, full] {
            for kind in ReorderKind::ALL {
                let p = compute(kind, &coo);
                let mut naive: Vec<Idx> =
                    active.iter().map(|&c| p.col_new()[c as usize]).collect();
                naive.sort_unstable();
                let mut mask = vec![false; cols];
                p.mark_active(&active, &mut mask, true);
                let marked: Vec<Idx> = (0..cols as Idx).filter(|&i| mask[i as usize]).collect();
                prop_assert_eq!(&marked, &naive, "{} marks disagree with map+sort", kind);
                let mut sorted = Vec::new();
                p.permute_active(&active, &mut sorted);
                prop_assert_eq!(&sorted, &naive, "{} list disagrees with map+sort", kind);
                p.mark_active(&active, &mut mask, false);
                prop_assert!(mask.iter().all(|&m| !m), "{} left bits set", kind);
            }
        }
    }
}

/// Degenerate shapes pinned: empty matrix, 1×N row, N×1 column, pure
/// diagonal, far-corner single entry, and a lone explicit zero. Every
/// reordering must round-trip them and leave their products bit-exact
/// (the square-only heuristics must degrade to the identity on the
/// rectangles rather than panic).
#[test]
fn degenerate_shapes_survive_every_reordering() {
    let cases: Vec<CooMatrix> = vec![
        CooMatrix::new(5, 5),
        CooMatrix::from_triplets(1, 33, vec![(0, 31, 0.5), (0, 2, -1.0)]).unwrap(),
        CooMatrix::from_triplets(33, 1, vec![(31, 0, 0.5), (2, 0, -1.0)]).unwrap(),
        CooMatrix::from_triplets(7, 7, (0..7).map(|i| (i, i, 0.25 * i as f32)).collect()).unwrap(),
        CooMatrix::from_triplets(9, 9, vec![(8, 8, 2.5)]).unwrap(),
        CooMatrix::from_triplets(4, 4, vec![(2, 1, 0.0)]).unwrap(),
    ];
    for coo in &cases {
        let x = dyadic_vector(coo.cols(), 17);
        let want = coo.spmv_dense(&x).unwrap();
        for kind in ReorderKind::ALL {
            let p = compute(kind, coo);
            assert_eq!(p.rows(), coo.rows());
            assert_eq!(p.cols(), coo.cols());
            if coo.rows() != coo.cols() && kind != ReorderKind::DegreeSort {
                assert!(
                    kind == ReorderKind::None || p.is_identity(),
                    "{kind} must be identity on rectangles"
                );
            }
            let permuted = p.apply_coo(coo);
            assert_eq!(
                bits_of(&p.invert().apply_coo(&permuted)),
                bits_of(coo),
                "{kind} round trip on {}x{}",
                coo.rows(),
                coo.cols()
            );
            let xp: DenseVector<f32> = p.permute_dense(x.as_slice()).into();
            let yp = permuted.spmv_dense(&xp).unwrap();
            let y = p.unpermute_result(yp.as_slice());
            for r in 0..want.len() {
                assert_eq!(y[r].to_bits(), want[r].to_bits(), "{kind} spmv row {r}");
            }
        }
    }
}

/// A permutation is its own double inverse, and composing `apply_coo`
/// twice with a hand-built asymmetric permutation lands where the
/// composed maps say it should.
#[test]
fn inverse_of_inverse_is_the_original() {
    let p = Permutation::new(vec![2, 0, 1], vec![1, 0, 3, 2]).unwrap();
    assert_eq!(p.invert().invert(), p);
    let m = CooMatrix::from_triplets(3, 4, vec![(0, 0, 1.0), (2, 3, -0.5)]).unwrap();
    let moved = p.apply_coo(&m);
    let got = bits_of(&moved);
    assert!(got.contains(&(2, 1, 1.0f32.to_bits())));
    assert!(got.contains(&(1, 2, (-0.5f32).to_bits())));
}

/// Reverse Cuthill–McKee over per-vertex adjacency lists: the
/// `Vec<Vec<Idx>>` implementation the flat-array one replaced, kept as
/// the reference its permutation must equal exactly.
fn rcm_reference(coo: &CooMatrix) -> Permutation {
    if coo.rows() != coo.cols() {
        return Permutation::identity(coo.rows(), coo.cols());
    }
    let n = coo.rows();
    let mut adj: Vec<Vec<Idx>> = vec![Vec::new(); n];
    for (r, c, _) in coo.iter() {
        if r != c {
            adj[r as usize].push(c);
            adj[c as usize].push(r);
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    let degrees: Vec<usize> = adj.iter().map(Vec::len).collect();
    for list in &mut adj {
        list.sort_by_key(|&v| (degrees[v as usize], v));
    }
    let mut starts: Vec<Idx> = (0..n as Idx).collect();
    starts.sort_by_key(|&v| (adj[v as usize].len(), v));
    let mut visited = vec![false; n];
    let mut order: Vec<Idx> = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    for &start in &starts {
        if visited[start as usize] {
            continue;
        }
        visited[start as usize] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &u in &adj[v as usize] {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    order.reverse();
    let mut new_of = vec![0 as Idx; n];
    for (new, &old) in order.iter().enumerate() {
        new_of[old as usize] = new as Idx;
    }
    Permutation::symmetric(new_of).expect("BFS visits each vertex once")
}

/// A square matrix with at most ~2 raw entries per vertex: sparse
/// enough that most cases split into several components and leave
/// isolated vertices, with self-loops and both edge directions drawn
/// independently.
fn arb_square() -> impl Strategy<Value = CooMatrix> {
    (1usize..60).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..2 * n).prop_map(move |raw| {
            let triplets = raw
                .into_iter()
                .map(|(r, c)| (r as Idx, c as Idx, 1.0))
                .collect();
            CooMatrix::from_triplets(n, n, triplets).expect("in-bounds")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flat-adjacency RCM yields exactly the adjacency-list RCM's
    /// permutation.
    #[test]
    fn rcm_equals_the_adjacency_list_reference(coo in arb_square()) {
        prop_assert_eq!(rcm(&coo), rcm_reference(&coo));
    }

    /// The same on the general random cases, rectangles included (both
    /// are the identity there).
    #[test]
    fn rcm_equals_the_reference_on_any_shape(case in arb_case()) {
        let (coo, _) = case;
        prop_assert_eq!(rcm(&coo), rcm_reference(&coo));
    }
}

/// Pinned structure for RCM: empty and one-vertex graphs, self-loops
/// only, isolated vertices beside several components of different
/// sizes and degree ties, and the skewed generated graphs the runtime
/// probes (R-MAT, power law, the five suite graphs).
#[test]
fn rcm_equals_the_reference_on_pinned_and_generated_graphs() {
    let components = vec![
        // A triangle, a 4-path given one direction only, a star, and a
        // self-loop on an otherwise isolated vertex; 14 and 15 isolated.
        (0, 1, 1.0),
        (1, 2, 1.0),
        (2, 0, 1.0),
        (3, 4, 1.0),
        (4, 5, 1.0),
        (5, 6, 1.0),
        (7, 8, 1.0),
        (7, 9, 1.0),
        (10, 7, 1.0),
        (11, 7, 1.0),
        (12, 12, 1.0),
        (13, 3, 1.0),
    ];
    let mut cases: Vec<CooMatrix> = vec![
        CooMatrix::new(0, 0),
        CooMatrix::new(1, 1),
        CooMatrix::new(6, 6),
        CooMatrix::from_triplets(5, 5, (0..5).map(|i| (i, i, 1.0)).collect()).unwrap(),
        CooMatrix::from_triplets(16, 16, components).unwrap(),
        sparse::generate::rmat(10, 8_000, Default::default(), 3).unwrap(),
        sparse::generate::power_law(600, 600, 5_000, 2.2, 5).unwrap(),
    ];
    // Each suite graph scaled to ~40k edges.
    for g in SuiteGraph::ALL {
        let spec = g.spec();
        cases.push(spec.scaled(spec.edges / 40_000).generate(7).unwrap());
    }
    for coo in &cases {
        assert_eq!(
            rcm(coo),
            rcm_reference(coo),
            "rcm on {}x{} with {} entries",
            coo.rows(),
            coo.cols(),
            coo.nnz()
        );
    }
}
