//! Criterion microbenchmarks of the host-side kernel machinery: kernel
//! program builds, functional evaluation (the push kernel across
//! partial-frontier densities, the full-frontier row pull against the
//! dense push it replaced), format conversion, partitioning
//! and the cold-start structural probes. These measure the *reproduction's* own performance
//! (how fast the harness can generate and evaluate workloads), not the
//! simulated machine — simulated-cycle results come from the `fig*`
//! binaries.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use cosparse::balance::{ip_partitions, op_tile_partitions, Balancing};
use cosparse::host::{self, StepInputs};
use cosparse::kernels::{ip, op};
use cosparse::ops::{apply_with, Accumulator};
use cosparse::{apply, GraphOp, Layout, OpProfile, SpmvOp, Update};
use graph::pagerank::PageRankOp;
use sparse::generate::{RmatParams, SuiteGraph};
use sparse::partition::{RowPartition, VBlocks};
use sparse::{CooMatrix, CscMatrix, FormatProbe, Idx, ReorderProbe};
use transmuter::{Geometry, HwConfig, MicroArch, ProgramBuilder};

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

    let sub = op::subruns(&csc, &tiles);
    let ua = MicroArch::paper();
    // One reused builder, as a runtime session's scratch.
    let mut builder = ProgramBuilder::new();

    let mut group = c.benchmark_group("program-build");
    group.sample_size(20);
    group.bench_function("ip_build_80k_nnz", |b| {
        b.iter(|| {
            let params = ip::IpParams {
                layout: &layout,
                partition: &part,
                vblocks: &vblocks,
                use_spm: false,
                active: None,
                profile: OpProfile::scalar(),
            };
            builder.begin(g, HwConfig::Sc, &ua);
            ip::build(&m, g, params, &mut builder);
            black_box(builder.finish());
        })
    });
    group.bench_function("op_build_2pct_frontier", |b| {
        b.iter(|| {
            let params = op::OpParams {
                layout: &layout,
                tile_parts: &tiles,
                frontier: &frontier,
                heap_in_spm: true,
                spm_node_cap: 512,
                profile: OpProfile::scalar(),
            };
            builder.begin(g, HwConfig::Ps, &ua);
            op::build(&csc, g, params, &sub, &mut builder);
            black_box(builder.finish());
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

/// One partial-frontier push step per density on the Pokec analogue
/// at divisor 64 (~25k vertices) and on R-MAT scale 14 (edge factor 8,
/// ~131k edges), with a reused accumulator (`push/apply/*`, from half
/// to 1/200 density).
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
        let n = operand.cols();
        let degrees: Vec<u32> = operand.col_counts().into_iter().map(|x| x as u32).collect();
        let state = vec![0.0f32; operand.rows()];
        for (label, divisor) in [("half", 2), ("fifth", 5), ("20th", 20), ("200th", 200)] {
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
        }
    }
    group.finish();
}

/// The golden model's full-frontier kernel before the row pull
/// replaced it: every source's CSC column pushed into a fresh dense
/// `Vec<Option<_>>`, consumed in place by the output scan. Kept here as
/// the pull's yardstick.
fn dense_push<O: GraphOp>(
    op: &O,
    csc_t: &CscMatrix,
    active: &[(Idx, O::Value)],
    state: &[O::Value],
    degrees: &[u32],
) -> Vec<Update<O::Value>> {
    let mut dense: Vec<Option<O::Value>> = vec![None; state.len()];
    for &(src, fval) in active {
        let deg = degrees[src as usize];
        let (dsts, weights) = csc_t.col(src as usize);
        for (dst, w) in dsts.iter().zip(weights) {
            let contrib = op.matrix_op(*w, fval, state[*dst as usize], deg);
            let slot = &mut dense[*dst as usize];
            *slot = Some(match *slot {
                Some(a) => op.reduce(a, contrib),
                None => contrib,
            });
        }
    }
    dense
        .into_iter()
        .enumerate()
        .filter_map(|(dst, reduced)| {
            let old = state[dst];
            let new = op.vector_op(reduced?, old);
            op.is_update(new, old).then_some((dst as Idx, new))
        })
        .collect()
}

/// One full-frontier PageRank step on the Pokec analogue at divisor 64
/// (~478k edges), in ns per edge: the row pull over the row-major COO
/// on one and two workers (`pull/w1`, `pull/w2`) next to the dense push
/// it replaced (`dense_push`).
fn bench_pull(c: &mut Criterion) {
    let adj = SuiteGraph::Pokec.spec().scaled(64).generate(7).unwrap();
    let operand = adj.transpose();
    let csc = CscMatrix::from(&operand);
    let n = operand.cols();
    let degrees: Vec<u32> = operand.col_counts().into_iter().map(|x| x as u32).collect();
    let row_counts = operand.row_counts();
    let op = PageRankOp {
        teleport: 0.15 / n as f32,
        damping: 0.85,
    };
    let state: Vec<f32> = (0..n).map(|i| (1 + i % 13) as f32 / n as f32).collect();
    let active: Vec<(Idx, f32)> = state
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as Idx, v))
        .collect();
    let inputs = StepInputs {
        active: &active,
        state: &state,
        degrees: &degrees,
    };
    let mut group = c.benchmark_group("full");
    group.sample_size(50);
    group.throughput(Throughput::Elements(operand.nnz() as u64));
    group.bench_function("pokec64/dense_push", |b| {
        b.iter(|| black_box(dense_push(&op, &csc, &active, &state, &degrees)))
    });
    for workers in [1, 2] {
        group.bench_function(&format!("pokec64/pull/w{workers}"), |b| {
            b.iter(|| black_box(host::pull(&op, &operand, &row_counts, inputs, workers)))
        });
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
    bench_pull,
    bench_formats,
    bench_probes,
    bench_vector_conversion
);
criterion_main!(benches);
