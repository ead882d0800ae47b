//! The format axis is invisible in the answers: every storage format,
//! on every engine that accepts it, under both backends, must produce
//! results bit-identical to a test-local dense reference — the golden
//! model's old full-frontier kernel, every active source's CSC column
//! pushed into a fresh `Vec<Option<f32>>`. The decided format shapes
//! only the simulated stream; answers come from one functional step.

use cosparse::{
    CoSparse, ExecBackend, FormatKind, Frontier, GraphOp, HwConfig, Policy, SharedGraph, SpmvOp,
    SwConfig,
};
use sparse::{CooMatrix, CscMatrix, DenseVector, Idx};
use std::sync::Arc;
use transmuter::{Geometry, Machine, MicroArch};

const N: usize = 384;

/// A banded matrix — 24-entry dense runs per row — whose clustered
/// columns make the probe pick the hierarchical bitmap, and whose
/// aligned 4x4 neighborhoods give BCSR real blocks to find.
fn banded(n: usize) -> CooMatrix {
    let mut triplets = Vec::new();
    for r in 0..n {
        let base = (r / 4) * 4 % (n - 24);
        for k in 0..24 {
            let c = base + k;
            triplets.push((
                r as Idx,
                c as Idx,
                ((r * 31 + c * 7) % 13) as f32 * 0.25 + 0.5,
            ));
        }
    }
    CooMatrix::from_triplets(n, n, triplets).expect("banded in bounds")
}

const BACKENDS: [ExecBackend; 2] = [ExecBackend::Simulate, ExecBackend::Host];

fn session(graph: &Arc<SharedGraph>, backend: ExecBackend) -> CoSparse {
    let machine = Machine::new(Geometry::new(2, 4), MicroArch::paper());
    let mut s = CoSparse::with_shared(Arc::clone(graph), machine);
    s.set_backend(backend);
    s
}

/// The reference product `M x` as result bits: a dense accumulator
/// filled source by source in ascending order, entries that reduced to
/// zero dropped as [`SpmvOp::is_update`] drops them.
fn reference_bits(m: &CooMatrix, x: &Frontier) -> Vec<u32> {
    let csc = CscMatrix::from(m);
    let mut active = Vec::new();
    x.collect_active(&mut active);
    let mut acc: Vec<Option<f32>> = vec![None; m.rows()];
    for &(src, v) in &active {
        let (dsts, weights) = csc.col(src as usize);
        for (&dst, &w) in dsts.iter().zip(weights) {
            let contrib = SpmvOp.matrix_op(w, v, 0.0, 0);
            let slot = &mut acc[dst as usize];
            *slot = Some(slot.map_or(contrib, |a| SpmvOp.reduce(a, contrib)));
        }
    }
    acc.into_iter()
        .map(|r| {
            r.filter(|&y| SpmvOp.is_update(y, 0.0))
                .unwrap_or(0.0)
                .to_bits()
        })
        .collect()
}

/// Result bits in a representation-independent form: sparse results
/// (the OP engine's native output) scatter onto +0.0 before comparison.
fn dense_bits(frontier: &Frontier) -> Vec<u32> {
    match frontier {
        Frontier::Dense(y) => y.iter().map(|v| v.to_bits()).collect(),
        Frontier::Sparse(y) => {
            let mut full = vec![0.0f32; y.dim()];
            for (i, v) in y.iter() {
                full[i as usize] = v;
            }
            full.iter().map(|v| v.to_bits()).collect()
        }
    }
}

/// Every IP format on both IP hardware slots and both backends, then
/// the OP/CSC merge and IP/bitmap on a sparse frontier, each
/// bit-for-bit against the reference.
#[test]
fn all_formats_and_engines_agree_bit_exactly() {
    let m = banded(N);
    let graph = SharedGraph::new(&m, Geometry::new(2, 4), MicroArch::paper());
    let x = Frontier::Dense(sparse::generate::random_dense_vector(N, 41));
    let want = reference_bits(&m, &x);

    for backend in BACKENDS {
        for hw in [HwConfig::Sc, HwConfig::Scs] {
            for format in [FormatKind::Coo, FormatKind::Bitmap, FormatKind::Bcsr] {
                let mut s = session(&graph, backend);
                s.set_policy(Policy::Fixed(SwConfig::InnerProduct, hw));
                s.set_format_override(Some(format));
                let out = s.spmv(&x).expect("ip spmv");
                // A simulated step streams the pinned format; a Host
                // step decides nothing and reports the COO its pull
                // read.
                let ran = match backend {
                    ExecBackend::Simulate => format,
                    ExecBackend::Host => FormatKind::Coo,
                };
                assert_eq!(out.format, ran, "{backend:?} reports the format it read");
                assert_eq!(
                    dense_bits(&out.result),
                    want,
                    "{backend:?} IP/{hw}/{format} diverged from the reference"
                );
            }
        }
    }
    // The OP engine always streams CSC; a sparse frontier covering a
    // slice of the columns keeps its merge path honest.
    let active: Vec<(Idx, f32)> = (0..N as Idx).step_by(3).map(|i| (i, 1.0)).collect();
    let sparse_x = {
        let mut v = DenseVector::filled(N, 0.0f32);
        for &(i, w) in &active {
            v[i as usize] = w;
        }
        Frontier::Dense(v)
    };
    let want = reference_bits(&m, &sparse_x);
    for backend in BACKENDS {
        let mut op = session(&graph, backend);
        op.set_policy(Policy::Fixed(SwConfig::OuterProduct, HwConfig::Pc));
        let op_out = op.spmv(&sparse_x).expect("op spmv");
        assert_eq!(op_out.format, FormatKind::Csc);
        assert_eq!(dense_bits(&op_out.result), want, "{backend:?} OP/CSC");
        let mut ip = session(&graph, backend);
        ip.set_policy(Policy::Fixed(SwConfig::InnerProduct, HwConfig::Sc));
        ip.set_format_override(Some(FormatKind::Bitmap));
        let ip_out = ip.spmv(&sparse_x).expect("ip spmv");
        assert_eq!(dense_bits(&ip_out.result), want, "{backend:?} IP/bitmap");
    }
}

/// Auto policy end to end on the clustered matrix: the probe steers the
/// simulated dense-frontier decision to a non-COO format, a Host step
/// reports the COO its pull read, and both outcomes are bit-identical
/// to the reference.
#[test]
fn auto_policy_picks_probed_format_and_stays_bit_exact() {
    let m = banded(N);
    let graph = SharedGraph::new(&m, Geometry::new(2, 4), MicroArch::paper());
    let x = Frontier::Dense(sparse::generate::random_dense_vector(N, 43));
    let want = reference_bits(&m, &x);

    for backend in BACKENDS {
        let mut auto = session(&graph, backend);
        let out = auto.spmv(&x).expect("auto spmv");
        assert_eq!(out.software, SwConfig::InnerProduct);
        match backend {
            ExecBackend::Simulate => assert_ne!(
                out.format,
                FormatKind::Coo,
                "the banded matrix's probe must steer IP off the COO stream"
            ),
            // No probe steers a Host step: its pull reads the COO.
            ExecBackend::Host => assert_eq!(out.format, FormatKind::Coo),
        }
        assert_eq!(dense_bits(&out.result), want, "{backend:?} auto");
    }
}
