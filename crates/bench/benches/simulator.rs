//! Criterion microbenchmarks of the transmuter simulator itself:
//! event-loop throughput, memory-system resolution cost, end-to-end
//! small SpMV invocations under both dataflows, and the build and run
//! of traversal-sized kernel programs. Useful for tracking regressions
//! in the simulator's host performance (simulated cycles per host
//! second).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use bench::run_spmv_fixed;
use cosparse::balance::{ip_partitions, op_tile_partitions, Balancing};
use cosparse::kernels::{ip, op};
use cosparse::{Layout, OpProfile, SwConfig};
use sparse::generate::SuiteGraph;
use sparse::partition::VBlocks;
use sparse::{CscMatrix, Idx};
use transmuter::{Geometry, HwConfig, Machine, MicroArch, Op, ProgramBuilder, StreamSet};

fn bench_event_loop(c: &mut Criterion) {
    let g = Geometry::new(4, 8);
    let mut group = c.benchmark_group("event-loop");
    group.sample_size(20);

    // Op streams run on `Machine::run`, one event-loop step per op. A
    // compiled program folds such bursts 256 to a micro-op (about 1.3k
    // interpreter steps for all 320k); the `pokec64-programs` group
    // below times that path on real kernels.
    group.bench_function("compute_only_320k_ops", |b| {
        b.iter(|| {
            let mut m = Machine::new(g, MicroArch::paper());
            let mut s = StreamSet::new(g);
            for t in 0..4 {
                for pe in 0..8 {
                    s.set_pe(t, pe, (0..10_000).map(|_| Op::Compute(1)));
                }
            }
            black_box(m.run(s).unwrap())
        })
    });

    group.bench_function("sequential_loads_160k", |b| {
        b.iter(|| {
            let mut m = Machine::new(g, MicroArch::paper());
            let mut s = StreamSet::new(g);
            for t in 0..4 {
                for pe in 0..8 {
                    let base = (t * 8 + pe) as u64 * 0x10_0000;
                    s.set_pe(t, pe, (0..5_000u64).map(move |i| Op::Load(base + i * 4)));
                }
            }
            black_box(m.run(s).unwrap())
        })
    });

    group.bench_function("random_loads_160k", |b| {
        b.iter(|| {
            let mut m = Machine::new(g, MicroArch::paper());
            let mut s = StreamSet::new(g);
            for t in 0..4 {
                for pe in 0..8 {
                    let mut z = (t * 8 + pe) as u64 + 1;
                    s.set_pe(
                        t,
                        pe,
                        (0..5_000u64).map(move |_| {
                            z ^= z << 13;
                            z ^= z >> 7;
                            z ^= z << 17;
                            Op::Load((z % 0x100_0000) & !3)
                        }),
                    );
                }
            }
            black_box(m.run(s).unwrap())
        })
    });
    group.finish();
}

fn bench_reconfiguration(c: &mut Criterion) {
    let g = Geometry::new(4, 8);
    let mut group = c.benchmark_group("reconfiguration");
    group.sample_size(30);
    group.bench_function("flush_and_switch", |b| {
        b.iter(|| {
            let mut m = Machine::new(g, MicroArch::paper());
            for hw in [HwConfig::Scs, HwConfig::Pc, HwConfig::Ps, HwConfig::Sc] {
                black_box(m.reconfigure(hw));
            }
        })
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let n = 1 << 12;
    let m = sparse::generate::uniform(n, n, 40_000, 11).unwrap();
    let g = Geometry::new(2, 4);
    let mut group = c.benchmark_group("end-to-end-spmv");
    group.sample_size(10);
    group.bench_function("ip_sc_40k_nnz", |b| {
        b.iter(|| {
            black_box(run_spmv_fixed(
                &m,
                g,
                SwConfig::InnerProduct,
                HwConfig::Sc,
                1.0,
                3,
            ))
        })
    });
    group.bench_function("op_ps_1pct_40k_nnz", |b| {
        b.iter(|| {
            black_box(run_spmv_fixed(
                &m,
                g,
                SwConfig::OuterProduct,
                HwConfig::Ps,
                0.01,
                3,
            ))
        })
    });
    group.finish();
}

/// The two program shapes the simulated traversal builds once per
/// iteration, on its graph (the Pokec analogue at divisor 64, ~25k
/// vertices, ~478k edges) and geometry (2 tiles × 4 PEs): a masked
/// IP/SCS program over a 10% frontier and an OP/PS program over a 1%
/// frontier. Builds go through one reused builder, as a session's
/// scratch builds do; runs start from a fresh machine. Both report
/// time per *source* op — the ops the kernel emits, before compute
/// bursts fold into the micro-op they follow.
fn bench_pokec_programs(c: &mut Criterion) {
    let adj = SuiteGraph::Pokec.spec().scaled(64).generate(7).unwrap();
    let coo = adj.transpose();
    let csc = CscMatrix::from(&coo);
    let g = Geometry::new(2, 4);
    let ua = MicroArch::paper();
    let n = coo.cols();
    let layout = Layout::new(coo.rows(), n, coo.nnz(), g, 1);
    let part = ip_partitions(&coo.row_counts(), g, Balancing::NnzBalanced);
    let tiles = op_tile_partitions(&coo.row_counts(), g, Balancing::NnzBalanced);
    let spm_elems = ua.spm_bytes_per_tile(g.pes_per_tile(), HwConfig::Scs.l1()) / 4;
    let vblocks = VBlocks::new(n, spm_elems.min(n));
    let mask: Vec<bool> = (0..n).map(|i| i % 10 == 0).collect();
    let frontier: Vec<Idx> = (0..n as Idx).step_by(100).collect();
    let sub = op::subruns(&csc, &tiles);
    let mut scratch = ip::IpScratch::default();
    let mut builder = ProgramBuilder::new();
    let mut build = |builder: &mut ProgramBuilder, hw: HwConfig| {
        builder.begin(g, hw, &ua);
        if hw == HwConfig::Scs {
            let params = ip::IpParams {
                layout: &layout,
                partition: &part,
                vblocks: &vblocks,
                use_spm: true,
                active: Some(&mask),
                profile: OpProfile::scalar(),
            };
            ip::build_with(&coo, g, params, &mut scratch, builder);
        } else {
            let params = op::OpParams {
                layout: &layout,
                tile_parts: &tiles,
                frontier: &frontier,
                heap_in_spm: true,
                spm_node_cap: ua.bank_bytes / 8,
                profile: OpProfile::scalar(),
            };
            op::build(&csc, g, params, &sub, builder);
        }
        builder.finish().len()
    };
    let machine = |hw: HwConfig| {
        let mut m = Machine::new(g, ua.clone());
        m.reconfigure(hw);
        m
    };

    let mut group = c.benchmark_group("pokec64-programs");
    group.sample_size(10);
    for (name, hw) in [
        ("ip_scs_masked_10pct", HwConfig::Scs),
        ("op_ps_1pct", HwConfig::Ps),
    ] {
        build(&mut builder, hw);
        let prog = builder.program().clone();
        let source_ops = machine(hw).run_program(&prog).unwrap().stats.ops;
        println!(
            "pokec64-programs/{name}: {source_ops} source ops, {} micro-ops",
            prog.len()
        );
        group.throughput(Throughput::Elements(source_ops));
        group.bench_function(&format!("{name}/build"), |b| {
            b.iter(|| black_box(build(&mut builder, hw)))
        });
        group.bench_function(&format!("{name}/run"), |b| {
            b.iter_batched(
                || machine(hw),
                |mut m| black_box(m.run_program(&prog).unwrap().cycles),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_event_loop,
    bench_reconfiguration,
    bench_end_to_end,
    bench_pokec_programs
);
criterion_main!(benches);
