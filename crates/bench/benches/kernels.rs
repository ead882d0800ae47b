//! Criterion microbenchmarks of the host-side kernel machinery: stream
//! generation, functional evaluation (the golden model and one host
//! step across frontier densities), format conversion, partitioning
//! and the cold-start structural probes. These measure the *reproduction's* own performance
//! (how fast the harness can generate and evaluate workloads), not the
//! simulated machine — simulated-cycle results come from the `fig*`
//! binaries.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cosparse::balance::{ip_partitions, op_tile_partitions, Balancing};
use cosparse::host::{self, HostOperand, StepInputs};
use cosparse::kernels::{ip, op};
use cosparse::ops::{apply_with, Accumulator};
use cosparse::{apply, Layout, OpProfile, SpmvOp};
use sparse::generate::{RmatParams, SuiteGraph};
use sparse::partition::{RowPartition, VBlocks};
use sparse::{CooMatrix, CscMatrix, CsrMatrix, FormatProbe, Idx, ReorderProbe};
use transmuter::Geometry;

const N: usize = 1 << 13;
const NNZ: usize = 80_000;

fn matrix() -> CooMatrix {
    sparse::generate::uniform(N, N, NNZ, 7).unwrap()
}

fn bench_generation(c: &mut Criterion) {
    let m = matrix();
    let csc = CscMatrix::from(&m);
    let g = Geometry::new(2, 4);
    let layout = Layout::new(N, N, NNZ, g, 1);
    let part = ip_partitions(&m.row_counts(), g, Balancing::NnzBalanced);
    let tiles = op_tile_partitions(&m.row_counts(), g, Balancing::NnzBalanced);
    let vblocks = VBlocks::new(N, 2048);
    let frontier: Vec<Idx> = sparse::generate::random_sparse_vector(N, 0.02, 3)
        .unwrap()
        .iter()
        .map(|(i, _)| i)
        .collect();

    let mut group = c.benchmark_group("stream-generation");
    group.sample_size(20);
    group.bench_function("ip_streams_80k_nnz", |b| {
        b.iter(|| {
            let params = ip::IpParams {
                layout: &layout,
                partition: &part,
                vblocks: &vblocks,
                use_spm: false,
                active: None,
                profile: OpProfile::scalar(),
            };
            black_box(ip::streams(&m, g, params));
        })
    });
    group.bench_function("op_streams_2pct_frontier", |b| {
        b.iter(|| {
            let params = op::OpParams {
                layout: &layout,
                tile_parts: &tiles,
                frontier: &frontier,
                heap_in_spm: true,
                spm_node_cap: 512,
                profile: OpProfile::scalar(),
            };
            black_box(op::streams(&csc, g, params));
        })
    });
    group.finish();
}

fn bench_functional(c: &mut Criterion) {
    let m = matrix();
    let csc = CscMatrix::from(&m);
    let degrees: Vec<u32> = m.col_counts().into_iter().map(|x| x as u32).collect();
    let state = vec![0.0f32; N];
    let active: Vec<(Idx, f32)> = sparse::generate::random_sparse_vector(N, 0.05, 9)
        .unwrap()
        .iter()
        .collect();

    let mut group = c.benchmark_group("functional");
    group.sample_size(30);
    group.bench_function("apply_spmv_5pct", |b| {
        b.iter(|| black_box(apply(&SpmvOp, &csc, &active, &state, &degrees)))
    });
    group.bench_function("reference_spmv_dense", |b| {
        let x = sparse::generate::random_dense_vector(N, 4);
        b.iter(|| black_box(m.spmv_dense(&x).unwrap()))
    });
    group.finish();
}

/// One SpMV step per frontier density on the Pokec analogue at divisor
/// 64 (~25k vertices) and on R-MAT scale 14 (edge factor 8, ~131k
/// edges): the golden model with a reused accumulator (`apply/*`: the
/// push kernel below full density, the fresh dense accumulator at full)
/// and one single-threaded host step (`host/*`: the same push, or the
/// CSR row pull at full density).
fn bench_push(c: &mut Criterion) {
    let graphs = [
        (
            "pokec64",
            SuiteGraph::Pokec.spec().scaled(64).generate(7).unwrap(),
        ),
        (
            "rmat14",
            sparse::generate::rmat(14, 8 << 14, RmatParams::GRAPH500, 7).unwrap(),
        ),
    ];
    let mut group = c.benchmark_group("push");
    group.sample_size(20);
    for (name, adj) in &graphs {
        let operand = adj.transpose();
        let csc = CscMatrix::from(&operand);
        let csr = CsrMatrix::from(&operand);
        let parts = RowPartition::nnz_balanced_csr(&csr, 8);
        let n = operand.cols();
        let degrees: Vec<u32> = operand.col_counts().into_iter().map(|x| x as u32).collect();
        let state = vec![0.0f32; operand.rows()];
        for (label, divisor) in [
            ("full", 1),
            ("half", 2),
            ("fifth", 5),
            ("20th", 20),
            ("200th", 200),
        ] {
            let active: Vec<(Idx, f32)> = (0..n)
                .step_by(divisor)
                .map(|i| (i as Idx, 1.0 + (i % 7) as f32))
                .collect();
            let mut acc = Accumulator::default();
            group.bench_function(&format!("apply/{name}/{label}"), |b| {
                b.iter(|| {
                    black_box(apply_with(
                        &SpmvOp, &csc, &active, &state, &degrees, &mut acc,
                    ))
                })
            });
            let inputs = StepInputs {
                active: &active,
                state: &state,
                degrees: &degrees,
            };
            group.bench_function(&format!("host/{name}/{label}"), |b| {
                b.iter(|| {
                    black_box(host::execute_with(
                        &SpmvOp,
                        || HostOperand::Csr(&csr),
                        &csc,
                        inputs,
                        &parts,
                        1,
                        &mut acc,
                    ))
                })
            });
        }
    }
    group.finish();
}

fn bench_formats(c: &mut Criterion) {
    let m = matrix();
    let mut group = c.benchmark_group("formats");
    group.sample_size(20);
    group.bench_function("coo_to_csc", |b| b.iter(|| black_box(CscMatrix::from(&m))));
    group.bench_function("transpose", |b| b.iter(|| black_box(m.transpose())));
    group.bench_function("nnz_balanced_partition_256", |b| {
        let counts = m.row_counts();
        b.iter(|| black_box(RowPartition::nnz_balanced(&counts, 256)))
    });
    group.bench_function("generate_uniform_80k", |b| {
        b.iter(|| black_box(sparse::generate::uniform(N, N, NNZ, 5).unwrap()))
    });
    group.bench_function("generate_rmat_80k", |b| {
        b.iter(|| black_box(sparse::generate::rmat(13, NNZ, Default::default(), 5).unwrap()))
    });
    group.finish();
}

/// What a graph's cold start pays before its first step, on the Pokec
/// analogue at divisor 64 (~25k vertices, ~478k edges): the transpose
/// that builds the operand, then the format and locality probes the
/// decision tree reads from it.
fn bench_probes(c: &mut Criterion) {
    let adj = SuiteGraph::Pokec.spec().scaled(64).generate(7).unwrap();
    let operand = adj.transpose();
    let mut group = c.benchmark_group("probes");
    group.sample_size(10);
    group.bench_function("transpose_pokec64", |b| {
        b.iter(|| black_box(adj.transpose()))
    });
    group.bench_function("format_probe_pokec64", |b| {
        b.iter(|| black_box(FormatProbe::of(&operand)))
    });
    group.bench_function("reorder_probe_pokec64", |b| {
        b.iter(|| black_box(ReorderProbe::of(&operand)))
    });
    group.finish();
}

fn bench_vector_conversion(c: &mut Criterion) {
    let dense = sparse::generate::random_sparse_vector(1 << 16, 0.02, 2)
        .unwrap()
        .to_dense(0.0);
    let mut group = c.benchmark_group("frontier-conversion");
    group.sample_size(30);
    group.bench_function("dense_to_sparse_64k", |b| {
        b.iter_batched(
            || dense.clone(),
            |d| black_box(d.to_sparse(|v| *v != 0.0)),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_generation,
    bench_functional,
    bench_push,
    bench_formats,
    bench_probes,
    bench_vector_conversion
);
criterion_main!(benches);
