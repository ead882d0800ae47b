//! `cosparse-perf` — reproducible host-performance harness.
//!
//! Unlike the `fig*` binaries (which report *simulated* cycles), this
//! harness times **wall-clock host throughput** of the runtime itself:
//! SpMV invocations per second and iterative-engine iterations per
//! second on synthetic and pokec-like matrices. It is the instrument
//! behind the ROADMAP's perf trajectory: every run emits
//! `BENCH_host.json`, and CI runs `--smoke` so regressions show up in
//! the artifact history.
//!
//! Methodology: each workload's **first pass is timed separately** as
//! its cold/build cost (plan construction, program lowering, steady-memo
//! population) and reported as `cold_per_sec`; the workload then runs
//! `WARMUP` more untimed passes before `REPEATS` timed passes, and the
//! **median** throughput is reported alongside min/max. The warmup is
//! sized so the steady-state memo (which needs ~32 misses on the
//! longest-limit-cycle workload before it engages) is populated before
//! sampling starts — cold-start outliers belong in `cold_per_sec`, not
//! in the sample min. Matrices and frontiers are seeded, so two runs on
//! the same host and build measure the same work.
//!
//! Usage:
//!   cosparse-perf [--smoke]
//!                 [--sim-only|--host-only|--serve-only|--formats-only|--reorder-only]
//!                 [--out PATH] [--baseline PATH] [--check PATH]
//!
//! Workloads come in four sections: the simulate-backend ones
//! (prefixed plainly), the `host_`-prefixed native-host-backend ones
//! ([`cosparse::ExecBackend::Host`] — real answers, no simulated
//! machine), the `serve_`/`independent_` multi-tenant QPS pair —
//! eight closed-loop client threads submitting a BFS/SSSP/PageRank mix
//! either through one [`GraphService`](cosparse::GraphService) over a
//! shared graph, or each query on a freshly built engine (the
//! no-sharing baseline the service must beat) — and the `fmt_`-prefixed
//! format sweep: a simulated-cycle crossover table over
//! (matrix family × frontier density × storage format × dataflow) plus
//! throughput workloads pinning each storage format's kernel path on
//! the matrix family its probe picks it for (simulated: the host
//! backend answers through one row pull whatever the format).
//! The `reorder_`-prefixed section is the locality sweep: a
//! reorder × format crossover table of simulated cycles, L1 misses and
//! bank-conflict cycles per [`cosparse::ReorderKind`] on RMAT and
//! power-law families, plus throughput workloads with a pinned
//! reordering gating the vector-permute entry cost in both backends.
//! `--sim-only` / `--host-only` / `--serve-only` / `--formats-only` /
//! `--reorder-only` select a section, letting CI gate
//! them separately. `--smoke` shrinks repeats for CI artifacts;
//! `--baseline` embeds a previous report's `workloads` as `"baseline"`
//! in the output (used to commit before/after numbers in the same
//! file); `--check` compares each workload's median against a committed
//! report and exits non-zero when any regresses by more than 20%, and
//! for the `serve_*` workloads additionally when p50 latency grows by
//! more than 50% (p50 under closed-loop queueing is noisier than
//! aggregate QPS, so its gate is wider) — the CI perf gate (workloads
//! with no baseline entry
//! are skipped, so the sections gate independently). `--check` requires
//! full mode: smoke passes run too few calls to reach the
//! plan-cache/memo steady state the committed medians measure.
//!
//! Every workload reports `p50_ms`/`p99_ms` per unit of work: for the
//! spmv/iter workloads these derive from the per-pass rates (each pass
//! is one latency sample per unit), while the serve workloads sample
//! every individual query's submit→answer wall time across the timed
//! passes, so the tail a tenant actually observes is what lands in the
//! report (schema `cosparse-perf/3`).

use cosparse::balance::Balancing;
use cosparse::{
    CoSparse, ExecBackend, FormatKind, Frontier, Policy, ReorderKind, ServeConfig, SwConfig,
};
use graph::serve::{start_service, GraphQuery};
use graph::{pagerank::PageRank, sssp::Sssp, Engine};
use sparse::CooMatrix;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use transmuter::{Geometry, HwConfig, Machine, MicroArch};

struct Workload {
    name: &'static str,
    unit: &'static str,
    /// Units of work per timed pass (spmv calls or engine iterations).
    work: f64,
    /// Median/min/max throughput over the timed passes, units per second.
    median: f64,
    min: f64,
    max: f64,
    /// Throughput of the very first (cold) pass — the one that pays
    /// plan construction and program lowering. Excluded from the
    /// min/median/max samples; recorded so build cost stays visible.
    cold: f64,
    /// Latency percentiles per unit of work, milliseconds. For batch
    /// workloads each timed pass contributes one per-unit sample; the
    /// serve workloads sample every individual query instead.
    p50_ms: f64,
    p99_ms: f64,
}

fn median_of(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite throughput"));
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Nearest-rank percentile of `xs` (sorted in place); `p` in `(0, 1]`.
fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let rank = (p * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Times `pass` (returning its units of work) `repeats` times, after
/// one separately-timed cold pass (reported, not sampled) and `warmup`
/// further untimed passes. Latency percentiles come from the per-pass
/// per-unit times.
fn measure<F: FnMut() -> f64>(
    name: &'static str,
    unit: &'static str,
    warmup: usize,
    repeats: usize,
    pass: F,
) -> Workload {
    measure_with(name, unit, warmup, repeats, None, pass)
}

/// [`measure`] with an optional external latency-sample sink: when
/// `latencies` is given, the pass records one wall-clock sample (ms)
/// per unit of work into it, the sink is cleared after cold + warmup,
/// and the p50/p99 come from those per-unit samples instead of the
/// per-pass averages — the serve workloads use this to report the
/// latency an individual query observes, tail included.
fn measure_with<F: FnMut() -> f64>(
    name: &'static str,
    unit: &'static str,
    warmup: usize,
    repeats: usize,
    latencies: Option<&Mutex<Vec<f64>>>,
    mut pass: F,
) -> Workload {
    // The cold pass pays the one-time build cost (plan, programs, memo
    // population). Timing it separately keeps that cost visible without
    // letting it masquerade as a steady-state sample minimum.
    let t0 = Instant::now();
    let cold_work = pass();
    let cold = cold_work / t0.elapsed().as_secs_f64().max(1e-12);
    for _ in 0..warmup {
        let _ = pass();
    }
    if let Some(sink) = latencies {
        sink.lock().expect("latency sink").clear();
    }
    let mut work = 0.0;
    let mut rates = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t0 = Instant::now();
        work = pass();
        let dt = t0.elapsed().as_secs_f64();
        rates.push(work / dt.max(1e-12));
    }
    let median = median_of(rates.clone());
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for r in &rates {
        lo = lo.min(*r);
        hi = hi.max(*r);
    }
    let mut samples: Vec<f64> = match latencies {
        Some(sink) => sink.lock().expect("latency sink").clone(),
        None => rates.iter().map(|r| 1e3 / r.max(1e-12)).collect(),
    };
    let p50_ms = percentile(&mut samples, 0.50);
    let p99_ms = percentile(&mut samples, 0.99);
    println!(
        "{name:<28} {median:>12.1} {unit}/s  (min {lo:.1}, max {hi:.1}, cold {cold:.1}, \
         p50 {p50_ms:.3} ms, p99 {p99_ms:.3} ms, work {work})"
    );
    Workload {
        name,
        unit,
        work,
        median,
        min: lo,
        max: hi,
        cold,
        p50_ms,
        p99_ms,
    }
}

fn synthetic(n: usize, nnz: usize, seed: u64) -> CooMatrix {
    sparse::generate::uniform(n, n, nnz, seed).expect("valid synthetic matrix")
}

/// Pokec-like skew: power-law degree distribution, directed.
fn pokec_like(n: usize, nnz: usize) -> CooMatrix {
    sparse::generate::power_law(n, n, nnz, 1.1, 42).expect("valid power-law matrix")
}

/// A banded matrix — every row one 24-entry dense run, 4-row-aligned —
/// the clustered-column family whose probe steers the IP stream onto
/// the hierarchical bitmap.
fn banded(n: usize) -> CooMatrix {
    let mut triplets = Vec::new();
    for r in 0..n {
        let base = (r / 4) * 4 % (n - 24);
        for k in 0..24 {
            triplets.push((
                r as sparse::Idx,
                (base + k) as sparse::Idx,
                1.0 + ((r + k) % 7) as f32 * 0.125,
            ));
        }
    }
    CooMatrix::from_triplets(n, n, triplets).expect("valid banded matrix")
}

/// A block-structured matrix — two full 4x4 blocks per block row — the
/// family whose probe steers the IP stream onto BCSR.
fn blocked(n: usize) -> CooMatrix {
    let bn = n / 4;
    let mut triplets = Vec::new();
    for brow in 0..bn {
        for bcol in [brow, (brow * 7 + 3) % bn] {
            for i in 0..4 {
                for j in 0..4 {
                    triplets.push((
                        (brow * 4 + i) as sparse::Idx,
                        (bcol * 4 + j) as sparse::Idx,
                        0.5 + (i * 4 + j) as f32 * 0.0625,
                    ));
                }
            }
        }
    }
    CooMatrix::from_triplets(n, n, triplets).expect("valid blocked matrix")
}

/// An `n`-square matrix whose nonzeros all land in the top half of the
/// rows: under `EqualRows` balancing the bottom-half workers own only
/// empty rows and issue no memory traffic.
fn synthetic_top_half(n: usize, nnz: usize, seed: u64) -> CooMatrix {
    let m = sparse::generate::uniform(n / 2, n, nnz, seed).expect("valid synthetic matrix");
    CooMatrix::from_triplets(n, n, m.iter().collect()).expect("re-embedded matrix")
}

fn machine() -> Machine {
    Machine::new(Geometry::new(2, 4), MicroArch::paper())
}

/// Steady-state SpMV throughput: one runtime, one matrix, repeated
/// invocations (the iterative-algorithm hot path).
fn spmv_pass(rt: &mut CoSparse, frontier: &Frontier, calls: usize) -> f64 {
    for _ in 0..calls {
        let out = rt.spmv(frontier).expect("simulation succeeds");
        std::hint::black_box(out.report.cycles);
    }
    calls as f64
}

/// Prints the runtime's pipeline-cache counters for the workload that
/// just ran: plan/program build counts and the scratch + steady-memo
/// hit rates. CI's perf-smoke job surfaces these lines so cache
/// regressions are visible alongside the throughput numbers.
fn print_cache_stats(rt: &CoSparse) {
    let cs = rt.cache_stats();
    let memo = cs.steady_memo;
    println!(
        "    caches: plans {} built / {} hit | programs dense {} built / {} hit, conv {}, \
         scratch {} built / {} hit | steady-memo {} hit / {} miss ({:.1}% hit)",
        cs.plan_builds,
        cs.plan_hits,
        cs.dense_program_builds,
        cs.dense_program_hits,
        cs.conversion_builds,
        cs.scratch_program_builds,
        cs.scratch_program_hits,
        memo.hits,
        memo.misses,
        memo.hit_rate() * 100.0,
    );
}

/// The simulate-backend workload section. `warmup` in full mode is
/// sized so cold pass + warmup ≥ 43 calls precede sampling: the
/// imbalanced workload's steady memo needs ~32 misses before it
/// engages, and samples must not straddle that transition.
fn run_sim_workloads(smoke: bool, out: &mut Vec<Workload>) {
    let (warmup, repeats) = if smoke { (1, 3) } else { (4, 7) };
    let calls = if smoke { 3 } else { 10 };

    // 1. Dense-frontier SpMV (IP/SC) on the 2048-vertex synthetic.
    {
        let m = synthetic(2048, 30_000, 4);
        let mut rt = CoSparse::new(&m, machine());
        rt.set_policy(Policy::Fixed(SwConfig::InnerProduct, HwConfig::Sc));
        let x = Frontier::Dense(sparse::generate::random_dense_vector(2048, 1));
        let w = measure("spmv_dense_2048", "spmv", warmup, repeats, || {
            spmv_pass(&mut rt, &x, calls)
        });
        out.push(w);
        print_cache_stats(&rt);
    }

    // 2. Sparse-frontier SpMV (OP/PC) on the 2048-vertex synthetic.
    {
        let m = synthetic(2048, 30_000, 4);
        let mut rt = CoSparse::new(&m, machine());
        rt.set_policy(Policy::Fixed(SwConfig::OuterProduct, HwConfig::Pc));
        let sv = sparse::generate::random_sparse_vector(2048, 0.02, 9).expect("valid density");
        let x = Frontier::Sparse(sv);
        let w = measure("spmv_sparse_2048", "spmv", warmup, repeats, || {
            spmv_pass(&mut rt, &x, calls)
        });
        out.push(w);
        print_cache_stats(&rt);
    }

    // 3. Engine iterations/sec: PageRank on the 2048-vertex synthetic —
    //    the acceptance workload. Dense frontier every iteration, same
    //    matrix throughout: pure steady state.
    {
        let m = synthetic(2048, 30_000, 4);
        let iters = if smoke { 6 } else { 20 };
        let pr = PageRank::new(0.85, iters);
        let mut engine = Engine::new(&m, machine());
        let w = measure("engine_pagerank_2048", "iter", warmup, repeats, || {
            let r = engine.run(&pr).expect("pagerank converges");
            r.iterations.len() as f64
        });
        out.push(w);
        print_cache_stats(engine.runtime());
    }

    // 4. Engine iterations/sec: SSSP on a pokec-like power-law graph —
    //    sparse→dense→sparse frontier ramp, both dataflows exercised.
    {
        let (n, nnz) = if smoke {
            (2048, 16_000)
        } else {
            (8192, 120_000)
        };
        let m = pokec_like(n, nnz);
        let sssp = Sssp::new(0);
        let mut engine = Engine::new(&m, machine());
        let w = measure("engine_sssp_pokec_like", "iter", warmup, repeats, || {
            let r = engine.run(&sssp).expect("sssp converges");
            r.iterations.len().max(1) as f64
        });
        out.push(w);
        print_cache_stats(engine.runtime());
    }

    // 5. One-shot OP SpMV: every call presents a *distinct* sparse
    //    frontier, so the scratch program can never be reused and the
    //    steady memo never engages — the pure per-call lowering path
    //    the single-pass kernel→Program pipeline keeps cheap.
    {
        let m = synthetic(2048, 30_000, 4);
        let mut rt = CoSparse::new(&m, machine());
        rt.set_policy(Policy::Fixed(SwConfig::OuterProduct, HwConfig::Pc));
        let frontiers: Vec<Frontier> = (0..calls.max(2) as u64)
            .map(|i| {
                Frontier::Sparse(
                    sparse::generate::random_sparse_vector(2048, 0.02, 100 + i)
                        .expect("valid density"),
                )
            })
            .collect();
        let w = measure("spmv_op_oneshot_2048", "spmv", warmup, repeats, || {
            for f in &frontiers {
                let out = rt.spmv(f).expect("simulation succeeds");
                std::hint::black_box(out.report.cycles);
            }
            frontiers.len() as f64
        });
        out.push(w);
        print_cache_stats(&rt);
    }

    // 6. Row-imbalanced IP SpMV (IP/SC, EqualRows): every nonzero lives
    //    in the top row half, so the bottom tile's workers are memory-
    //    silent while the top tile's carry the whole matrix — the
    //    load-imbalanced shape of the dense inner-product kernel.
    {
        let half = synthetic_top_half(2048, 24_000, 4);
        let mut rt = CoSparse::new(&half, machine());
        rt.set_policy(Policy::Fixed(SwConfig::InnerProduct, HwConfig::Sc));
        rt.set_balancing(Balancing::EqualRows);
        let x = Frontier::Dense(sparse::generate::random_dense_vector(2048, 1));
        let w = measure("spmv_ip_imbalanced_2048", "spmv", warmup, repeats, || {
            spmv_pass(&mut rt, &x, calls)
        });
        out.push(w);
        print_cache_stats(&rt);
    }
}

/// The native-host-backend workload section ([`ExecBackend::Host`]): the
/// same matrices and dataflows as the simulate section, answered
/// directly against host memory. Host passes are orders of magnitude
/// faster, so each pass batches more calls for timing resolution.
fn run_host_workloads(smoke: bool, out: &mut Vec<Workload>) {
    let (warmup, repeats) = if smoke { (1, 3) } else { (2, 7) };
    let calls = if smoke { 10 } else { 200 };

    // 1. Dense-frontier SpMV, host backend: the full frontier runs the
    //    row pull (IP).
    {
        let m = synthetic(2048, 30_000, 4);
        let mut rt = CoSparse::new(&m, machine());
        rt.set_backend(ExecBackend::Host);
        let x = Frontier::Dense(sparse::generate::random_dense_vector(2048, 1));
        let w = measure("host_spmv_dense_2048", "spmv", warmup, repeats, || {
            spmv_pass(&mut rt, &x, calls)
        });
        out.push(w);
        print_cache_stats(&rt);
    }

    // 2. Sparse-frontier SpMV, host backend: the partial frontier runs
    //    the push (OP).
    {
        let m = synthetic(2048, 30_000, 4);
        let mut rt = CoSparse::new(&m, machine());
        rt.set_backend(ExecBackend::Host);
        let sv = sparse::generate::random_sparse_vector(2048, 0.02, 9).expect("valid density");
        let x = Frontier::Sparse(sv);
        let w = measure("host_spmv_sparse_2048", "spmv", warmup, repeats, || {
            spmv_pass(&mut rt, &x, calls)
        });
        out.push(w);
        print_cache_stats(&rt);
    }

    // 3. PageRank on the host backend.
    {
        let m = synthetic(2048, 30_000, 4);
        let iters = if smoke { 6 } else { 20 };
        let pr = PageRank::new(0.85, iters);
        let mut engine = Engine::new(&m, machine());
        engine.set_backend(ExecBackend::Host);
        let w = measure("host_engine_pagerank_2048", "iter", warmup, repeats, || {
            let r = engine.run(&pr).expect("pagerank converges");
            r.iterations.len() as f64
        });
        out.push(w);
        print_cache_stats(engine.runtime());
    }

    // 4. SSSP on the pokec-like power-law graph, host backend — the
    //    acceptance workload: real per-iteration answers at host speed
    //    against the simulate section's `engine_sssp_pokec_like`.
    {
        let (n, nnz) = if smoke {
            (2048, 16_000)
        } else {
            (8192, 120_000)
        };
        let m = pokec_like(n, nnz);
        let sssp = Sssp::new(0);
        let mut engine = Engine::new(&m, machine());
        engine.set_backend(ExecBackend::Host);
        let w = measure(
            "host_engine_sssp_pokec_like",
            "iter",
            warmup,
            repeats,
            || {
                let r = engine.run(&sssp).expect("sssp converges");
                r.iterations.len().max(1) as f64
            },
        );
        out.push(w);
        print_cache_stats(engine.runtime());
    }
}

/// The query mix every serve client submits closed-loop: a BFS, an
/// SSSP and a PageRank snapshot — the three serving-layer query types,
/// mixing sparse-ramp and always-dense engine loops on each worker.
/// `GraphQuery::PageRank` carries the teleport probability, so 0.15 is
/// the paper's damping factor of 0.85.
fn query_mix() -> [GraphQuery; 3] {
    [
        GraphQuery::Bfs { source: 0 },
        GraphQuery::Sssp { source: 0 },
        GraphQuery::PageRank {
            damping: 0.15,
            iterations: 10,
        },
    ]
}

/// The multi-tenant QPS section: `CLIENTS` closed-loop client threads
/// submit [`query_mix`] repeatedly, once through a single
/// [`GraphService`](cosparse::GraphService) over one shared graph
/// (`serve_mixed_qps_8c`) and once with every query building its own
/// engine from the raw matrix (`independent_mixed_qps_8c` — the
/// no-sharing baseline). Both run the host backend; the shared-graph
/// amortization (layout, CSC, plans, dense programs built once) is what
/// the serve workload's QPS lead and cache-stats line make visible.
fn run_serve_workloads(smoke: bool, out: &mut Vec<Workload>) {
    const CLIENTS: usize = 8;
    let (warmup, repeats) = if smoke { (1, 3) } else { (2, 7) };
    let rounds = if smoke { 1 } else { 4 };
    let (n, nnz) = if smoke { (1024, 8_000) } else { (2048, 16_000) };
    let adj = pokec_like(n, nnz);
    let geometry = Geometry::new(2, 4);
    let queries_per_pass = (CLIENTS * rounds * query_mix().len()) as f64;

    // 1. One GraphService over one shared graph; every query's
    //    submit→answer wall time is a latency sample.
    let serve_median = {
        let graph = Engine::shared_graph(&adj, geometry, MicroArch::paper());
        let service = start_service(
            Arc::clone(&graph),
            ServeConfig {
                workers: 4,
                batch: 4,
                queue_cap: 256,
                backend: ExecBackend::Host,
            },
        );
        let lat = Mutex::new(Vec::new());
        let w = measure_with(
            "serve_mixed_qps_8c",
            "query",
            warmup,
            repeats,
            Some(&lat),
            || {
                std::thread::scope(|s| {
                    for _ in 0..CLIENTS {
                        let service = &service;
                        let lat = &lat;
                        s.spawn(move || {
                            for _ in 0..rounds {
                                for q in query_mix() {
                                    let t0 = Instant::now();
                                    service.submit(q.into_job()).wait().expect("query");
                                    lat.lock()
                                        .expect("latency sink")
                                        .push(t0.elapsed().as_secs_f64() * 1e3);
                                }
                            }
                        });
                    }
                });
                queries_per_pass
            },
        );
        let median = w.median;
        out.push(w);
        // The amortization signal: one plan/program build total across
        // all workers and passes, everything after the cold pass a hit.
        let cs = graph.cache_stats();
        println!(
            "    shared-graph caches: plans {} built / {} hit | dense {} built / {} hit | \
             scratch {} built / {} hit | conv {}",
            cs.plan_builds,
            cs.plan_hits,
            cs.dense_program_builds,
            cs.dense_program_hits,
            cs.scratch_program_builds,
            cs.scratch_program_hits,
            cs.conversion_builds,
        );
        service.shutdown();
        median
    };

    // 2. The same client load with zero sharing: each query pays graph
    //    ingestion, layout/CSC and plan construction from scratch.
    {
        let lat = Mutex::new(Vec::new());
        let w = measure_with(
            "independent_mixed_qps_8c",
            "query",
            warmup,
            repeats,
            Some(&lat),
            || {
                std::thread::scope(|s| {
                    for _ in 0..CLIENTS {
                        let adj = &adj;
                        let lat = &lat;
                        s.spawn(move || {
                            for _ in 0..rounds {
                                for q in query_mix() {
                                    let t0 = Instant::now();
                                    let graph =
                                        Engine::shared_graph(adj, geometry, MicroArch::paper());
                                    let mut session = graph.session();
                                    session.set_backend(ExecBackend::Host);
                                    q.run(&mut session).expect("query");
                                    lat.lock()
                                        .expect("latency sink")
                                        .push(t0.elapsed().as_secs_f64() * 1e3);
                                }
                            }
                        });
                    }
                });
                queries_per_pass
            },
        );
        if w.median > 0.0 {
            println!(
                "    serve vs independent: {:.2}x QPS from the shared graph",
                serve_median / w.median
            );
        }
        out.push(w);
    }
}

/// Simulated cycles of one warm SpMV under a pinned
/// (dataflow, hardware, format) triple — the plan bind, format pack and
/// reconfiguration are paid on a discarded cold call, so the number is
/// the steady-state kernel cost the decision tree weighs.
fn warm_cycles(
    m: &CooMatrix,
    x: &Frontier,
    sw: SwConfig,
    hw: HwConfig,
    format: Option<FormatKind>,
) -> u64 {
    warm_report(m, x, sw, hw, format, None).cycles
}

/// Full [`transmuter::SimReport`] of one warm SpMV under a pinned
/// (dataflow, hardware, format, reorder) quadruple — the reorder sweep
/// reads `stats.l1_misses` and `stats.conflict_cycles` off this, not
/// just the cycle count.
fn warm_report(
    m: &CooMatrix,
    x: &Frontier,
    sw: SwConfig,
    hw: HwConfig,
    format: Option<FormatKind>,
    reorder: Option<ReorderKind>,
) -> transmuter::SimReport {
    let mut rt = CoSparse::new(m, machine());
    rt.set_policy(Policy::Fixed(sw, hw));
    rt.set_format_override(format);
    rt.set_reorder_override(reorder);
    let _cold = rt.spmv(x).expect("sweep spmv");
    rt.spmv(x).expect("sweep spmv").report
}

/// The crossover table: simulated cycles per SpMV for every storage
/// format × dataflow over three matrix families and a frontier-density
/// ramp. This is where the format axis earns its place in the decision
/// tree — the banded family's bitmap column and the blocked family's
/// BCSR column undercut both the COO stream and the OP/CSC merge on
/// dense frontiers, while the uniform family stays cheapest on the
/// paper's resident COO/CSC pair.
fn format_crossover_table(smoke: bool) {
    let n = if smoke { 512 } else { 2048 };
    let families: [(&str, CooMatrix); 3] = [
        ("uniform", synthetic(n, n * 8, 4)),
        ("banded", banded(n)),
        ("blocked", blocked(n)),
    ];
    println!(
        "\nformat_sweep: simulated cycles per warm SpMV (family x density x format x dataflow)"
    );
    println!(
        "  {:<8} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "family", "density", "IP/coo", "IP/bitmap", "IP/bcsr", "OP/csc"
    );
    let mut banded_dense = (0u64, 0u64); // (bitmap, csc) for the summary line
    for (name, m) in &families {
        for density in [0.01, 0.1, 1.0] {
            let x = if density >= 1.0 {
                Frontier::Dense(sparse::generate::random_dense_vector(n, 1))
            } else {
                Frontier::Sparse(
                    sparse::generate::random_sparse_vector(n, density, 9).expect("valid density"),
                )
            };
            let coo = warm_cycles(
                m,
                &x,
                SwConfig::InnerProduct,
                HwConfig::Sc,
                Some(FormatKind::Coo),
            );
            let bitmap = warm_cycles(
                m,
                &x,
                SwConfig::InnerProduct,
                HwConfig::Sc,
                Some(FormatKind::Bitmap),
            );
            let bcsr = warm_cycles(
                m,
                &x,
                SwConfig::InnerProduct,
                HwConfig::Sc,
                Some(FormatKind::Bcsr),
            );
            let csc = warm_cycles(m, &x, SwConfig::OuterProduct, HwConfig::Pc, None);
            println!("  {name:<8} {density:>8.2} {coo:>12} {bitmap:>12} {bcsr:>12} {csc:>12}");
            if *name == "banded" && density >= 1.0 {
                banded_dense = (bitmap, csc);
            }
        }
    }
    let (bitmap, csc) = banded_dense;
    if bitmap > 0 {
        println!(
            "  crossover: banded/dense bitmap at {:.2}x the OP/CSC cycles \
             ({} vs {} — the non-resident format wins the family)",
            bitmap as f64 / csc.max(1) as f64,
            bitmap,
            csc,
        );
    }
}

/// The format-sweep workload section: the crossover table above, then
/// throughput workloads pinning each format's kernel path on the matrix
/// family its probe picks it for — `fmt_csc_banded_2048` is the CSC
/// regression gate (`--check` fails it like any other workload), the
/// bitmap/BCSR rows time the simulate backend (the host answers through
/// the same row pull whatever the format).
fn run_format_workloads(smoke: bool, out: &mut Vec<Workload>) {
    format_crossover_table(smoke);
    let (warmup, repeats) = if smoke { (1, 3) } else { (4, 7) };
    let calls = if smoke { 3 } else { 10 };
    println!();

    // 1. The OP/CSC merge on the banded family — the resident sparse
    //    path the new formats have to beat, gated against regression.
    {
        let m = banded(2048);
        let mut rt = CoSparse::new(&m, machine());
        rt.set_policy(Policy::Fixed(SwConfig::OuterProduct, HwConfig::Pc));
        let sv = sparse::generate::random_sparse_vector(2048, 0.02, 9).expect("valid density");
        let x = Frontier::Sparse(sv);
        let w = measure("fmt_csc_banded_2048", "spmv", warmup, repeats, || {
            spmv_pass(&mut rt, &x, calls)
        });
        out.push(w);
        print_cache_stats(&rt);
    }

    // 2/3. The bitmap kernel on the banded family and the BCSR kernel
    //      on the blocked one, simulated. The host backend answers
    //      through the same row pull whatever format was decided, so the
    //      format axis has no host rows.
    for (name, m, format) in [
        ("fmt_bitmap_banded_2048", banded(2048), FormatKind::Bitmap),
        ("fmt_bcsr_blocked_2048", blocked(2048), FormatKind::Bcsr),
    ] {
        let mut rt = CoSparse::new(&m, machine());
        rt.set_policy(Policy::Fixed(SwConfig::InnerProduct, HwConfig::Sc));
        rt.set_format_override(Some(format));
        let x = Frontier::Dense(sparse::generate::random_dense_vector(2048, 1));
        let w = measure(name, "spmv", warmup, repeats, || {
            spmv_pass(&mut rt, &x, calls)
        });
        out.push(w);
        print_cache_stats(&rt);
    }
}

/// The reorder × format crossover table: simulated cycles, L1 misses
/// and bank-conflict cycles of a warm SpMV under every [`ReorderKind`],
/// for the IP/COO stream (dense frontier) and the OP/CSC merge (sparse
/// frontier), on an RMAT and a power-law family. This is the
/// evaluation harness for the fourth reconfiguration axis: the summary
/// line reports the best locality win each family shows over arrival
/// order, which is what the acceptance criterion gates on.
fn reorder_crossover_table(smoke: bool) {
    let families: [(&str, CooMatrix); 2] = if smoke {
        [
            (
                "rmat",
                sparse::generate::rmat(11, 30_000, Default::default(), 0xC0).unwrap(),
            ),
            ("power_law", pokec_like(2048, 16_000)),
        ]
    } else {
        [
            (
                "rmat",
                sparse::generate::rmat(14, 240_000, Default::default(), 0xC0).unwrap(),
            ),
            (
                "power_law",
                sparse::generate::power_law(16384, 16384, 240_000, 1.1, 42).unwrap(),
            ),
        ]
    };
    println!("\nreorder_sweep: simulated warm SpMV (family x format x reorder)");
    println!(
        "  {:<10} {:<8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "family", "reorder", "IP/coo cyc", "IP l1_miss", "OP/csc cyc", "OP l1_miss", "OP conflict"
    );
    for (name, m) in &families {
        let n = m.cols();
        let dense = Frontier::Dense(sparse::generate::random_dense_vector(n, 1));
        let sv = sparse::generate::random_sparse_vector(n, 0.02, 9).expect("valid density");
        let sparse_x = Frontier::Sparse(sv);
        // (l1_misses under IP, conflict_cycles under OP) per kind, for
        // the summary reduction below.
        let mut ip_miss = [0u64; 4];
        let mut op_conflict = [0u64; 4];
        let mut op_miss = [0u64; 4];
        for (slot, kind) in ReorderKind::ALL.into_iter().enumerate() {
            let ip = warm_report(
                m,
                &dense,
                SwConfig::InnerProduct,
                HwConfig::Sc,
                Some(FormatKind::Coo),
                Some(kind),
            );
            let op = warm_report(
                m,
                &sparse_x,
                SwConfig::OuterProduct,
                HwConfig::Pc,
                None,
                Some(kind),
            );
            ip_miss[slot] = ip.stats.l1_misses;
            op_miss[slot] = op.stats.l1_misses;
            op_conflict[slot] = op.stats.conflict_cycles;
            println!(
                "  {name:<10} {:<8} {:>12} {:>12} {:>12} {:>12} {:>12}",
                kind.name(),
                ip.cycles,
                ip.stats.l1_misses,
                op.cycles,
                op.stats.l1_misses,
                op.stats.conflict_cycles,
            );
        }
        // The acceptance line: best candidate's miss/conflict reduction
        // against arrival order.
        let best = |xs: &[u64; 4]| {
            ReorderKind::ALL[1..]
                .iter()
                .zip(&xs[1..])
                .min_by_key(|&(_, v)| *v)
                .map(|(k, &v)| (k.name(), v))
                .expect("three candidates")
        };
        let (ip_kind, ip_best) = best(&ip_miss);
        let (op_kind, op_best) = best(&op_conflict);
        let pct = |arrival: u64, v: u64| {
            if arrival == 0 {
                0.0
            } else {
                100.0 * (arrival as f64 - v as f64) / arrival as f64
            }
        };
        println!(
            "  locality: {name} IP l1-miss {:+.1}% ({ip_kind} vs arrival), \
             OP conflict-cycles {:+.1}% ({op_kind} vs arrival)",
            pct(ip_miss[0], ip_best),
            pct(op_conflict[0], op_best),
        );
    }
}

/// The reorder workload section: the crossover table above, then
/// throughput workloads with a pinned reordering so the vector-permute
/// entry cost and the reordered-operand cache stay under the `--check`
/// regression gate in both backends.
fn run_reorder_workloads(smoke: bool, out: &mut Vec<Workload>) {
    reorder_crossover_table(smoke);
    let (warmup, repeats) = if smoke { (1, 3) } else { (4, 7) };
    let calls = if smoke { 3 } else { 10 };
    let host_calls = if smoke { 10 } else { 200 };
    println!();

    // 1. RCM-pinned IP/COO stream on the power-law family, simulate:
    //    gates the reordered image build + permuted dense stream.
    {
        let m = pokec_like(2048, 16_000);
        let mut rt = CoSparse::new(&m, machine());
        rt.set_policy(Policy::Fixed(SwConfig::InnerProduct, HwConfig::Sc));
        rt.set_reorder_override(Some(ReorderKind::Rcm));
        let x = Frontier::Dense(sparse::generate::random_dense_vector(2048, 1));
        let w = measure("reorder_rcm_ip_pokec_2048", "spmv", warmup, repeats, || {
            spmv_pass(&mut rt, &x, calls)
        });
        out.push(w);
        print_cache_stats(&rt);
    }

    // 2. Window-cluster-pinned OP/CSC merge with a sparse frontier,
    //    simulate: gates the active-list permutation on the hot path
    //    (every call maps and re-sorts the frontier's indices).
    {
        let m = pokec_like(2048, 16_000);
        let mut rt = CoSparse::new(&m, machine());
        rt.set_policy(Policy::Fixed(SwConfig::OuterProduct, HwConfig::Pc));
        rt.set_reorder_override(Some(ReorderKind::WindowCluster));
        let sv = sparse::generate::random_sparse_vector(2048, 0.02, 9).expect("valid density");
        let x = Frontier::Sparse(sv);
        let w = measure(
            "reorder_window_op_pokec_2048",
            "spmv",
            warmup,
            repeats,
            || spmv_pass(&mut rt, &x, calls),
        );
        out.push(w);
        print_cache_stats(&rt);
    }

    // 3. RCM-pinned host-backend SpMV: a Host step runs no decision,
    //    so neither the pinned policy nor the pinned reordering reaches
    //    it; this workload gates that a pin costs real answers nothing.
    {
        let m = pokec_like(2048, 16_000);
        let mut rt = CoSparse::new(&m, machine());
        rt.set_backend(ExecBackend::Host);
        rt.set_policy(Policy::Fixed(SwConfig::InnerProduct, HwConfig::Sc));
        rt.set_reorder_override(Some(ReorderKind::Rcm));
        let x = Frontier::Dense(sparse::generate::random_dense_vector(2048, 1));
        let w = measure(
            "host_reorder_rcm_pokec_2048",
            "spmv",
            warmup,
            repeats,
            || spmv_pass(&mut rt, &x, host_calls),
        );
        out.push(w);
        print_cache_stats(&rt);
    }
}

#[allow(clippy::fn_params_excessive_bools)]
fn run_workloads(
    smoke: bool,
    sim: bool,
    host: bool,
    serve: bool,
    formats: bool,
    reorder: bool,
) -> Vec<Workload> {
    let mut out = Vec::new();
    if sim {
        run_sim_workloads(smoke, &mut out);
    }
    if host {
        run_host_workloads(smoke, &mut out);
    }
    if serve {
        run_serve_workloads(smoke, &mut out);
    }
    if formats {
        run_format_workloads(smoke, &mut out);
    }
    if reorder {
        run_reorder_workloads(smoke, &mut out);
    }
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn workloads_json(workloads: &[Workload], indent: &str) -> String {
    let mut s = String::from("[\n");
    for (i, w) in workloads.iter().enumerate() {
        let comma = if i + 1 < workloads.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "{indent}  {{\"name\": \"{}\", \"unit\": \"{}\", \"work_per_pass\": {}, \
             \"median_per_sec\": {:.3}, \"min_per_sec\": {:.3}, \"max_per_sec\": {:.3}, \
             \"cold_per_sec\": {:.3}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}}}{comma}",
            json_escape(w.name),
            json_escape(w.unit),
            w.work,
            w.median,
            w.min,
            w.max,
            w.cold,
            w.p50_ms,
            w.p99_ms,
        );
    }
    let _ = write!(s, "{indent}]");
    s
}

/// Pulls the `"workloads"` array out of a previously written report so
/// it can be embedded verbatim as the new report's baseline.
fn extract_workloads(report: &str) -> Option<String> {
    let key = "\"workloads\":";
    let start = report.find(key)? + key.len();
    let rest = &report[start..];
    let open = rest.find('[')?;
    let mut depth = 0usize;
    for (i, c) in rest[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(rest[open..open + i + 1].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// One baseline entry: `(name, median_per_sec, p50_ms)`. `p50_ms` is 0
/// for reports written before schema 2.
fn parse_medians(report: &str) -> Vec<(String, f64, f64)> {
    let Some(arr) = extract_workloads(report) else {
        return Vec::new();
    };
    let num_field = |obj: &str, key: &str| {
        obj.split(key)
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|s| s.trim().parse::<f64>().ok())
    };
    let mut out = Vec::new();
    for obj in arr.split('{').skip(1) {
        let name = obj
            .split("\"name\": \"")
            .nth(1)
            .and_then(|s| s.split('"').next());
        let median = num_field(obj, "\"median_per_sec\": ");
        let p50 = num_field(obj, "\"p50_ms\": ").unwrap_or(0.0);
        if let (Some(n), Some(m)) = (name, median) {
            out.push((n.to_string(), m, p50));
        }
    }
    out
}

/// Compares measured medians against a committed report; returns false
/// when any shared workload's throughput regressed by more than 20%,
/// or when a `serve_*` workload's p50 latency grew by more than 50%
/// (tenants feel latency, not just aggregate QPS; the wider margin
/// absorbs queue-wait noise under closed-loop load).
fn check_against(workloads: &[Workload], path: &str) -> bool {
    let base = std::fs::read_to_string(path).expect("read check baseline");
    let medians = parse_medians(&base);
    assert!(!medians.is_empty(), "no workloads found in {path}");
    println!("\nchecking against {path} (fail below 0.8x baseline median; serve_* also above 1.5x baseline p50):");
    let mut ok = true;
    for w in workloads {
        match medians.iter().find(|(n, _, _)| n == w.name) {
            Some((_, base_median, base_p50)) if *base_median > 0.0 => {
                let ratio = w.median / base_median;
                let mut pass = ratio >= 0.8;
                let mut detail = String::new();
                if w.name.starts_with("serve_") && *base_p50 > 0.0 && w.p50_ms > 0.0 {
                    let lat_ratio = w.p50_ms / base_p50;
                    let _ = write!(detail, ", p50 {lat_ratio:.3}x");
                    pass &= lat_ratio <= 1.5;
                }
                println!(
                    "  {:<28} {ratio:>7.3}x baseline{detail}  {}",
                    w.name,
                    if pass { "ok" } else { "REGRESSION" }
                );
                ok &= pass;
            }
            _ => println!("  {:<28} (no baseline entry, skipped)", w.name),
        }
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let host_only = args.iter().any(|a| a == "--host-only");
    let sim_only = args.iter().any(|a| a == "--sim-only");
    let serve_only = args.iter().any(|a| a == "--serve-only");
    let formats_only = args.iter().any(|a| a == "--formats-only");
    let reorder_only = args.iter().any(|a| a == "--reorder-only");
    assert!(
        [host_only, sim_only, serve_only, formats_only, reorder_only]
            .iter()
            .filter(|b| **b)
            .count()
            <= 1,
        "--host-only, --sim-only, --serve-only, --formats-only and --reorder-only \
         are mutually exclusive"
    );
    let arg_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_host.json".to_string());
    let baseline = arg_value("--baseline")
        .and_then(|p| std::fs::read_to_string(p).ok())
        .and_then(|s| extract_workloads(&s));

    println!(
        "cosparse-perf ({}): wall-clock host throughput, median of repeated passes",
        if smoke { "smoke" } else { "full" }
    );
    let workloads = run_workloads(
        smoke,
        !host_only && !serve_only && !formats_only && !reorder_only,
        !sim_only && !serve_only && !formats_only && !reorder_only,
        !sim_only && !host_only && !formats_only && !reorder_only,
        !sim_only && !host_only && !serve_only && !reorder_only,
        !sim_only && !host_only && !serve_only && !formats_only,
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"cosparse-perf/3\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    if let Some(base) = baseline {
        let _ = writeln!(json, "  \"baseline\": {base},");
    }
    let _ = writeln!(
        json,
        "  \"workloads\": {}",
        workloads_json(&workloads, "  ")
    );
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write report");
    println!("\nwrote {out_path}");

    if let Some(path) = arg_value("--check") {
        if smoke {
            eprintln!(
                "--check needs full mode: smoke passes too few calls to reach the \
                 steady state the committed full-mode baseline measures"
            );
            std::process::exit(2);
        }
        if !check_against(&workloads, &path) {
            eprintln!("perf check failed: median regression >20% against {path}");
            std::process::exit(1);
        }
    }
}
