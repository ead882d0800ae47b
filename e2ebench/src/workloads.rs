//! The four workloads, each a closed loop over whole passes of a fixed,
//! seeded query set.
//!
//! Every workload sets up the program several times (shared graph
//! build, engine or service start, and the first cold run of each query
//! kind), then repeats passes until the answered queries have taken
//! `--seconds` of wall time. Each answer is checked outside the timed
//! region. Counters are read over the first pass, whose queries are the
//! same in every run of a seed, so they compare exactly across runs.

use crate::check::{self, Adjacency, UNREACHED};
use crate::measure::{median, quantile, CpuClock, Tracer};
use cosparse::{
    CacheStats, CoSparse, ExecBackend, GraphOp, GraphService, OpProfile, ServeConfig, ServeStats,
    SharedCacheStats, SharedGraph, SwConfig,
};
use graph::bfs::Bfs;
use graph::pagerank::PageRank;
use graph::serve::GraphQuery;
use graph::sssp::Sssp;
use graph::{run_algorithm, Algorithm, Engine, IterationRecord};
use sparse::{CooMatrix, FormatProbe, ReorderKind, ReorderProbe};
use std::collections::HashMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use transmuter::{Geometry, Machine, MicroArch, SimStats};

/// Set-ups per run of `serve_closed_rmat`; `setup_s` is their median.
const SERVE_SETUP_REPS: usize = 3;
/// PageRank teleport probability (damping 0.85).
pub const PR_ALPHA: f32 = 0.15;
/// PageRank power iterations per query.
pub const PR_ITERATIONS: usize = 10;

/// The modelled machine: the paper's 2x4 Transmuter.
pub fn geometry() -> Geometry {
    Geometry::new(2, 4)
}

fn machine() -> Machine {
    Machine::new(geometry(), MicroArch::paper())
}

/// What a run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed: graph generation and query picks.
    pub seed: u64,
    /// Wall time the answered queries of a run must reach.
    pub seconds: f64,
    /// Traced run: record spans and replay the decision heuristic.
    pub trace: bool,
    /// Closed-loop clients of `serve_closed_rmat`.
    pub clients: usize,
}

/// One named figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's outcome.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted: the cold queries of set-up and the queries
    /// of the timed phase.
    pub attempted: u64,
    /// Operations that returned a wrong answer, an error or a panic.
    pub failed: u64,
    /// False when an accounting invariant of the program broke.
    pub correct: bool,
    /// Every figure the run produced.
    pub metrics: Vec<Metric>,
    /// Human-readable diagnostics.
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub tracer: Tracer,
}

impl Report {
    fn new(trace: bool) -> Self {
        Report {
            attempted: 0,
            failed: 0,
            correct: true,
            metrics: Vec::new(),
            notes: Vec::new(),
            tracer: Tracer::new(trace),
        }
    }

    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn note(&mut self, s: String) {
        self.notes.push(s);
    }
}

/// A small seeded generator (SplitMix64) for query picks.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One query of a pass.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Q {
    Bfs(u32),
    Sssp(u32),
    Pr,
}

impl Q {
    fn graph_query(self) -> GraphQuery {
        match self {
            Q::Bfs(source) => GraphQuery::Bfs { source },
            Q::Sssp(source) => GraphQuery::Sssp { source },
            Q::Pr => GraphQuery::PageRank {
                damping: PR_ALPHA,
                iterations: PR_ITERATIONS,
            },
        }
    }

    fn source(self) -> Option<u32> {
        match self {
            Q::Bfs(s) | Q::Sssp(s) => Some(s),
            Q::Pr => None,
        }
    }

    fn profile(self) -> OpProfile {
        match self {
            Q::Bfs(s) => Bfs::new(s).op(0).profile(),
            Q::Sssp(s) => Sssp::new(s).op(0).profile(),
            Q::Pr => PageRank::new(PR_ALPHA, PR_ITERATIONS).op(1).profile(),
        }
    }
}

/// A query's final state.
#[derive(Debug, Clone)]
enum Answer {
    Parents(Vec<u32>),
    Dist(Vec<f32>),
    Ranks(Vec<f32>),
}

/// How a query runs on a session: [`run_query`], or a faulty stand-in
/// in the tests.
type Run = fn(&mut CoSparse, usize, Q) -> Result<(Answer, Vec<IterationRecord>), String>;

/// Runs `q` on a session through the engine loop, as a served query does.
fn run_query(
    session: &mut CoSparse,
    n: usize,
    q: Q,
) -> Result<(Answer, Vec<IterationRecord>), String> {
    let r = match q {
        Q::Bfs(s) => run_algorithm(session, n, &Bfs::new(s))
            .map(|r| (Answer::Parents(r.state), r.iterations)),
        Q::Sssp(s) => {
            run_algorithm(session, n, &Sssp::new(s)).map(|r| (Answer::Dist(r.state), r.iterations))
        }
        Q::Pr => run_algorithm(session, n, &PageRank::new(PR_ALPHA, PR_ITERATIONS))
            .map(|r| (Answer::Ranks(r.state), r.iterations)),
    };
    r.map_err(|e| format!("{e:?}"))
}

/// Runs `q` on an engine's session (what `Engine::run` does), turning a
/// panic into an error.
fn run_engine(engine: &mut Engine, q: Q) -> Result<(Answer, Vec<IterationRecord>), String> {
    let n = engine.vertices();
    catch_unwind(AssertUnwindSafe(|| run_query(engine.runtime_mut(), n, q)))
        .unwrap_or_else(|p| Err(panic_text(&p)))
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    let msg = p
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    format!("panic: {msg}")
}

/// The benchmark's own references for one graph, computed on demand
/// outside every timed region.
struct Refs {
    adj: Adjacency,
    levels: HashMap<u32, Vec<u32>>,
    dist: HashMap<u32, Vec<f32>>,
    ranks: Option<Vec<f64>>,
}

impl Refs {
    fn new(adj: Adjacency) -> Self {
        Refs {
            adj,
            levels: HashMap::new(),
            dist: HashMap::new(),
            ranks: None,
        }
    }

    fn levels(&mut self, s: u32) -> &[u32] {
        let adj = &self.adj;
        self.levels
            .entry(s)
            .or_insert_with(|| check::bfs_levels(adj, s))
    }

    /// Edges the query traverses: out-edges of every reached vertex for a
    /// traversal, every edge once per iteration for PageRank.
    fn edges(&mut self, q: Q) -> u64 {
        match q {
            Q::Bfs(s) | Q::Sssp(s) => {
                self.levels(s);
                check::traversed_edges(&self.adj, &self.levels[&s])
            }
            Q::Pr => (self.adj.edges() * PR_ITERATIONS) as u64,
        }
    }

    fn check(&mut self, q: Q, answer: &Answer) -> Result<(), String> {
        match (q, answer) {
            (Q::Bfs(s), Answer::Parents(p)) => {
                self.levels(s);
                check::check_bfs(&self.adj, s, &self.levels[&s], p)
            }
            (Q::Sssp(s), Answer::Dist(d)) => {
                let adj = &self.adj;
                let want = self
                    .dist
                    .entry(s)
                    .or_insert_with(|| check::dijkstra(adj, s));
                check::check_sssp(adj, s, want, d)
            }
            (Q::Pr, Answer::Ranks(r)) => {
                let adj = &self.adj;
                let want = self
                    .ranks
                    .get_or_insert_with(|| check::pagerank(adj, PR_ALPHA as f64, PR_ITERATIONS));
                check::check_pagerank(want, r)
            }
            _ => Err(format!("{q:?} answered with the wrong kind of state")),
        }
    }
}

/// The highest out-degree vertex (the hub), then seeded picks among
/// vertices whose reach covers most of the graph: at least 90% of what
/// the hub reaches, found by the benchmark's own BFS. Returns the sources
/// and the hub's reach share. The hub warms up: with one fixed warm-up
/// source per graph, the memory set-up leaves varies far less between
/// seeds than with a random one.
fn pick_sources(refs: &mut Refs, seed: u64, count: usize) -> Result<(Vec<u32>, f64), String> {
    let n = refs.adj.vertices();
    let hub = (0..n)
        .max_by_key(|&v| refs.adj.out_degree(v))
        .ok_or("empty graph")? as u32;
    let reached = |l: &[u32]| l.iter().filter(|&&x| x != UNREACHED).count();
    let hub_reach = reached(refs.levels(hub));
    let need = hub_reach - hub_reach / 10;
    let mut rng = Rng(seed ^ 0x5eed_0f50_41c3_5eed);
    let mut picks = vec![hub];
    let mut tries = 0;
    while picks.len() < count {
        tries += 1;
        if tries > 200 * count {
            return Err(format!(
                "found only {} of {count} well-connected sources",
                picks.len()
            ));
        }
        let v = rng.below(n) as u32;
        if refs.adj.out_degree(v as usize) == 0 || picks.contains(&v) {
            continue;
        }
        if reached(refs.levels(v)) >= need {
            picks.push(v);
        } else {
            refs.levels.remove(&v);
        }
    }
    Ok((picks, hub_reach as f64 / n as f64))
}

/// Per-layer tallies over iteration records.
#[derive(Debug, Default, Clone)]
struct Acc {
    iterations: u64,
    iters_ip: u64,
    iters_op: u64,
    sw_switches: u64,
    iters_reordered: u64,
    cycles: u64,
    joules: f64,
    stats: SimStats,
    host_step_ms: Vec<f64>,
    host_bytes: f64,
    host_step_s: f64,
    engine_self_ms: Vec<f64>,
}

impl Acc {
    /// Adds one query that ran `its` in `wall_s` seconds. Host-backend
    /// reports carry step wall time; simulate reports carry cycles.
    fn add(&mut self, its: &[IterationRecord], wall_s: f64, host: bool, n: usize, nnz: usize) {
        let mut host_s = 0.0;
        for it in its {
            self.iterations += 1;
            match it.software {
                SwConfig::InnerProduct => self.iters_ip += 1,
                SwConfig::OuterProduct => self.iters_op += 1,
            }
            if it.reorder != ReorderKind::None {
                self.iters_reordered += 1;
            }
            if host {
                host_s += it.report.seconds;
                self.host_step_ms.push(it.report.seconds * 1e3);
                self.host_bytes += step_bytes(it, n, nnz);
            } else {
                self.cycles += it.report.cycles;
                self.joules += it.report.joules();
                self.stats = self.stats.merge(&it.report.stats);
            }
        }
        self.host_step_s += host_s;
        self.sw_switches += its
            .windows(2)
            .filter(|w| w[0].software != w[1].software)
            .count() as u64;
        self.engine_self_ms.push((wall_s - host_s) * 1e3);
    }
}

/// Bytes one host step moves, computed from operand sizes (not
/// measured): CSR row pointers, column indices and values, plus the
/// dense frontier read and result write for the inner product, or the
/// active share of the matrix plus the updates for the outer product.
fn step_bytes(it: &IterationRecord, n: usize, nnz: usize) -> f64 {
    let matrix = 8.0 * (n as f64 + 1.0) + 8.0 * nnz as f64;
    match it.software {
        SwConfig::InnerProduct => matrix + 4.0 * nnz as f64 + 8.0 * n as f64,
        SwConfig::OuterProduct => it.frontier_density * matrix + 8.0 * it.updates as f64,
    }
}

/// Calls of the decision heuristic timed together: one call takes about
/// a tenth of a microsecond, near the clock's resolution.
const DECIDE_BATCH: u32 = 32;

/// Times the decision heuristic on each iteration's frontier size, as the
/// runtime calls it, on `session` (traced runs only). Records
/// microseconds per call.
fn replay_decide(
    tr: &mut Tracer,
    session: &CoSparse,
    its: &[IterationRecord],
    q: Q,
    parent: Option<usize>,
    query: u64,
    out: &mut Vec<f64>,
) {
    let n = session.matrix().cols();
    let profile = q.profile();
    for it in its {
        let nnz = (it.frontier_density * n as f64).round() as usize;
        let (_, s, _) = tr.time(
            "cosparse.CoSparse::decide_exact",
            parent,
            Some(query),
            || {
                for _ in 0..DECIDE_BATCH {
                    black_box(session.decide_exact(black_box(nnz), &profile));
                }
            },
        );
        out.push(s * 1e6 / f64::from(DECIDE_BATCH));
    }
}

/// One timed query.
#[derive(Debug, Clone, Copy)]
struct Logged {
    q: Q,
    pass: u64,
    wall_s: f64,
    edges: u64,
    /// A repeat the same-source cache answered.
    repeat: bool,
}

/// Median over passes of (sum of `amount` / sum of wall time) over the
/// queries `pick` selects. A pass median shrugs off host slow-downs
/// shorter than half the run, which a whole-run mean would absorb.
fn per_pass_rate(
    log: &[Logged],
    pick: impl Fn(&Logged) -> bool,
    amount: impl Fn(&Logged) -> f64,
) -> f64 {
    let rates: Vec<f64> = log
        .chunk_by(|a, b| a.pass == b.pass)
        .filter_map(|pass| {
            let picked = pass.iter().filter(|l| pick(l));
            let (a, t) = picked.fold((0.0, 0.0), |(a, t), l| (a + amount(l), t + l.wall_s));
            (t > 0.0).then_some(a / t)
        })
        .collect();
    median(&rates)
}

/// Counters read before and after the first pass.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    cache: CacheStats,
    serve: ServeStats,
}

/// Everything the per-layer metrics are computed from.
#[derive(Debug, Default)]
struct Layers {
    build_s: Vec<f64>,
    cold_s: Vec<f64>,
    first_pass: Acc,
    all: Acc,
    pass_start: Counters,
    pass_end: Counters,
    shared: SharedCacheStats,
    decide_us: Vec<f64>,
    probes_ms: [f64; 3],
}

/// Times the `sparse` layer's probes and transpose on the operand (the
/// transposed adjacency), as the shared graph calls them lazily.
fn probe_sparse(tr: &mut Tracer, adj: &CooMatrix, layers: &mut Layers) {
    let (operand, t_s, _) = tr.time("sparse.CooMatrix::transpose", None, None, || {
        adj.transpose()
    });
    let (_, f_s, _) = tr.time("sparse.FormatProbe::of", None, None, || {
        black_box(FormatProbe::of(&operand))
    });
    let (_, r_s, _) = tr.time("sparse.ReorderProbe::of", None, None, || {
        black_box(ReorderProbe::of(&operand))
    });
    layers.probes_ms = [f_s * 1e3, r_s * 1e3, t_s * 1e3];
}

fn sub(a: u64, b: u64) -> f64 {
    a.saturating_sub(b) as f64
}

/// Writes the per-layer metrics into `r`.
fn put_layers(r: &mut Report, l: &Layers) {
    let (s, e) = (l.pass_start.cache, l.pass_end.cache);
    let f = &l.first_pass;
    r.put("sparse.format_probe_ms", l.probes_ms[0], "ms");
    r.put("sparse.reorder_probe_ms", l.probes_ms[1], "ms");
    r.put("sparse.transpose_ms", l.probes_ms[2], "ms");
    r.put("shared.build_s", median(&l.build_s), "s");
    r.put("shared.plan_builds", l.shared.plan_builds as f64, "count");
    r.put("shared.plan_hits", l.shared.plan_hits as f64, "count");
    r.put(
        "shared.format_builds",
        l.shared.format_builds as f64,
        "count",
    );
    r.put(
        "shared.reorder_builds",
        l.shared.reorder_builds as f64,
        "count",
    );
    r.put("heuristics.decide_us", median(&l.decide_us), "us");
    r.put("heuristics.iters_ip", f.iters_ip as f64, "count");
    r.put("heuristics.iters_op", f.iters_op as f64, "count");
    r.put("heuristics.sw_switches", f.sw_switches as f64, "count");
    r.put(
        "heuristics.iters_reordered",
        f.iters_reordered as f64,
        "count",
    );
    r.put("runtime.cold_query_s", median(&l.cold_s), "s");
    r.put(
        "runtime.scratch_program_builds",
        sub(e.scratch_program_builds, s.scratch_program_builds),
        "count",
    );
    r.put(
        "runtime.dense_program_builds",
        sub(e.dense_program_builds, s.dense_program_builds),
        "count",
    );
    r.put(
        "runtime.dense_program_hits",
        sub(e.dense_program_hits, s.dense_program_hits),
        "count",
    );
    r.put(
        "runtime.conversion_builds",
        sub(e.conversion_builds, s.conversion_builds),
        "count",
    );
    let st = &f.stats;
    r.put(
        "transmuter.compute_cycles",
        st.compute_cycles as f64,
        "cycle",
    );
    r.put(
        "transmuter.mem_stall_cycles",
        st.mem_stall_cycles as f64,
        "cycle",
    );
    r.put(
        "transmuter.barrier_stall_cycles",
        st.barrier_stall_cycles as f64,
        "cycle",
    );
    r.put(
        "transmuter.conflict_cycles",
        st.conflict_cycles as f64,
        "cycle",
    );
    r.put(
        "transmuter.reconfig_cycles",
        st.reconfig_cycles as f64,
        "cycle",
    );
    r.put("transmuter.l1_misses", st.l1_misses as f64, "count");
    r.put("transmuter.l2_misses", st.l2_misses as f64, "count");
    r.put(
        "transmuter.hbm_line_reads",
        st.hbm_line_reads as f64,
        "count",
    );
    r.put(
        "transmuter.memo_hits",
        sub(e.steady_memo.hits, s.steady_memo.hits),
        "count",
    );
    r.put(
        "transmuter.memo_misses",
        sub(e.steady_memo.misses, s.steady_memo.misses),
        "count",
    );
    r.put(
        "transmuter.epochs_proven",
        sub(e.epochs.proven, s.epochs.proven),
        "count",
    );
    r.put(
        "transmuter.epochs_replayed",
        sub(e.epochs.replayed, s.epochs.replayed),
        "count",
    );
    r.put(
        "transmuter.epochs_rolled_back",
        sub(e.epochs.rolled_back, s.epochs.rolled_back),
        "count",
    );
    let bytes_per_s = if l.all.host_step_s > 0.0 {
        l.all.host_bytes / l.all.host_step_s
    } else {
        0.0
    };
    r.put("host.bytes_per_s", bytes_per_s, "B/s");
    r.put("graph.iterations", f.iterations as f64, "count");
    r.put("graph.engine_self_ms", median(&l.all.engine_self_ms), "ms");
    let (ss, se) = (l.pass_start.serve, l.pass_end.serve);
    r.put("serve.batches", sub(se.batches, ss.batches), "count");
    r.put(
        "serve.cache_hits",
        sub(se.cache_hits, ss.cache_hits),
        "count",
    );
    r.put("sim_mcycles", f.cycles as f64 / 1e6, "Mcycle");
    r.put("sim_energy_mj", f.joules * 1e3, "mJ");
    // Layer figures that exist only where their layer runs; printed, and
    // kept out of the per-workload result.
    if !l.all.host_step_ms.is_empty() {
        r.note(format!(
            "host.step_ms_p50 = {:.6} ms",
            median(&l.all.host_step_ms)
        ));
    }
}

/// Memory and set-up figures: set-up time; the peak resident set through
/// set-up (`peak_mb`), which holds the graph's shared state after the cold
/// queries; and the median over the first pass's queries of the heap each
/// took above what was live when it started (`heap_mb`). The first pass
/// runs the same queries in every run of a seed. A few sources make a
/// simulated query take several times the usual memory, so the peak of the
/// first pass or of the whole run turns on which sources a seed picks; it
/// is printed as a diagnostic.
fn put_memory(r: &mut Report, setup_s: &[f64], peak_mb: f64, heap_mb: &[f64]) {
    r.put("setup_s", median(setup_s), "s");
    r.put("peak_rss_mb", peak_mb, "MB");
    r.put("query_heap_mb", median(heap_mb), "MB");
    r.note(format!("setup_s samples: {setup_s:?}"));
    r.note(format!("query_heap_mb samples: {heap_mb:?}"));
}

/// `qps` over the queries `rated` picks, `edges_per_s` over those
/// `streamed` picks (both as pass medians), and the median latency.
fn put_rates(
    r: &mut Report,
    log: &[Logged],
    rated: impl Fn(&Logged) -> bool,
    streamed: impl Fn(&Logged) -> bool,
    latency_ms: &[f64],
) {
    r.put("qps", per_pass_rate(log, rated, |_| 1.0), "query/s");
    r.put("query_p50_ms", median(latency_ms), "ms");
    let edges_per_s = per_pass_rate(log, streamed, |l| l.edges as f64);
    r.put("edges_per_s", edges_per_s, "edge/s");
    if latency_ms.len() >= 100 {
        r.note(format!(
            "query_p90_ms = {:.6} ms ({} samples)",
            quantile(latency_ms, 0.9),
            latency_ms.len()
        ));
    }
}

/// The engine workloads' shape.
struct EngineWorkload {
    backend: ExecBackend,
    /// Whether the checks need edge weights (SSSP).
    weights: bool,
    /// Set-ups per run; `setup_s` is their median.
    setup_reps: usize,
    /// Sources: the hub warms up, the picks after it feed the passes.
    sources: usize,
    cold: fn(&[u32]) -> Vec<Q>,
    /// The queries of pass `p` over the picks.
    pass: fn(&[u32], usize) -> Vec<Q>,
}

/// The `k` timed sources (all picks but the warm-up one) that pass `p`
/// starts from, cycling through them pass by pass.
fn window(picks: &[u32], p: usize, k: usize) -> impl Iterator<Item = u32> + '_ {
    let timed = &picks[1..];
    (0..k).map(move |i| timed[(p * k + i) % timed.len()])
}

/// `sim_traversal_pokec`: SSSP then BFS from each of four sources per
/// pass, drawn in turn from twelve, simulated.
pub fn sim_traversal(ctx: &Ctx, adj: &CooMatrix) -> Result<Report, String> {
    let w = EngineWorkload {
        backend: ExecBackend::Simulate,
        weights: true,
        setup_reps: 3,
        sources: 13,
        cold: |s| vec![Q::Sssp(s[0]), Q::Bfs(s[0])],
        pass: |s, p| {
            window(s, p, 4)
                .flat_map(|v| [Q::Sssp(v), Q::Bfs(v)])
                .collect()
        },
    };
    run_engine_workload(ctx, adj, &w, |r, log| {
        // A query here is one source's SSSP + BFS pair, the traversal the
        // case study runs; every query traverses.
        let pairs: Vec<f64> = log
            .chunk_by(|a, b| a.q.source() == b.q.source() && a.pass == b.pass)
            .map(|c| c.iter().map(|l| l.wall_s * 1e3).sum())
            .collect();
        put_rates(r, log, |_| true, |_| true, &pairs);
    })
}

/// `sim_pagerank_pokec`: repeated PageRank, simulated.
pub fn sim_pagerank(ctx: &Ctx, adj: &CooMatrix) -> Result<Report, String> {
    let w = EngineWorkload {
        backend: ExecBackend::Simulate,
        weights: false,
        setup_reps: 3,
        sources: 0,
        cold: |_| vec![Q::Pr],
        pass: |_, _| vec![Q::Pr; 8],
    };
    run_engine_workload(ctx, adj, &w, |r, log| {
        let latency: Vec<f64> = log.iter().map(|l| l.wall_s * 1e3).collect();
        put_rates(r, log, |_| true, |_| true, &latency);
    })
}

/// `host_pagerank_dram`: PageRank then BFS from four sources per pass,
/// drawn in turn from eight, on the host backend over a graph larger than
/// the last-level cache. Two set-ups per run: each takes seconds.
pub fn host_dram(ctx: &Ctx, adj: &CooMatrix) -> Result<Report, String> {
    let w = EngineWorkload {
        backend: ExecBackend::Host,
        weights: false,
        setup_reps: 2,
        sources: 9,
        cold: |s| vec![Q::Pr, Q::Bfs(s[0])],
        pass: |s, p| {
            std::iter::once(Q::Pr)
                .chain(window(s, p, 4).map(Q::Bfs))
                .collect()
        },
    };
    run_engine_workload(ctx, adj, &w, |r, log| {
        // Rates and latency over the BFS queries; edges per second over
        // the PageRank queries, which stream the whole matrix.
        let latency: Vec<f64> = log
            .iter()
            .filter(|l| l.q != Q::Pr)
            .map(|l| l.wall_s * 1e3)
            .collect();
        put_rates(r, log, |l| l.q != Q::Pr, |l| l.q == Q::Pr, &latency);
    })
}

fn run_engine_workload(
    ctx: &Ctx,
    adj: &CooMatrix,
    w: &EngineWorkload,
    rates: impl FnOnce(&mut Report, &[Logged]),
) -> Result<Report, String> {
    let mut r = Report::new(ctx.trace);
    let n = adj.rows();
    let nnz = adj.nnz();
    let host = w.backend == ExecBackend::Host;
    let mut refs = Refs::new(Adjacency::new(adj, w.weights));
    let (sources, reach) = if w.sources > 0 {
        pick_sources(&mut refs, ctx.seed, w.sources)?
    } else {
        (Vec::new(), 1.0)
    };
    r.note(format!(
        "sources: {sources:?} (hub reaches {:.1}% of vertices)",
        reach * 100.0
    ));
    let cold = (w.cold)(&sources);
    let mut layers = Layers::default();

    // Set-up, several times; the last engine serves the timed phase.
    let mut setup_s = Vec::new();
    let mut current: Option<(Arc<SharedGraph>, Engine)> = None;
    for _ in 0..w.setup_reps {
        drop(current.take());
        let t0 = Instant::now();
        let (graph, build_s, _) = r.tracer.time("graph.Engine::shared_graph", None, None, || {
            Engine::shared_graph(adj, geometry(), MicroArch::paper())
        });
        let mut engine = Engine::with_shared(&graph, machine());
        engine.set_backend(w.backend);
        let mut cold_s = 0.0;
        for &q in &cold {
            let (out, s, _) = r.tracer.time("graph.run_algorithm(cold)", None, None, || {
                run_engine(&mut engine, q)
            });
            cold_s += s;
            r.attempted += 1;
            if let Err(e) = out.and_then(|(a, _)| refs.check(q, &a)) {
                r.failed += 1;
                r.note(format!("cold {q:?} failed: {e}"));
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        layers.build_s.push(build_s);
        layers.cold_s.push(cold_s);
        current = Some((graph, engine));
    }
    let (graph, mut engine) = current.ok_or("no set-up ran")?;
    let setup_peak_mb = crate::measure::peak_rss_mb();

    // Timed phase: whole passes until the answered queries reach the
    // requested wall time.
    let mut log = Vec::new();
    let mut timed = 0.0;
    let mut passes = 0u64;
    let mut query_id = 0u64;
    let mut heap_mb = Vec::new();
    let clock = CpuClock::now();
    layers.pass_start.cache = engine.runtime().cache_stats();
    while passes == 0 || timed < ctx.seconds {
        for q in (w.pass)(&sources, passes as usize) {
            query_id += 1;
            r.attempted += 1;
            let mark = crate::measure::heap_mark();
            let (out, wall_s, span) =
                r.tracer
                    .time("graph.run_algorithm", None, Some(query_id), || {
                        run_engine(&mut engine, q)
                    });
            if passes == 0 {
                heap_mb.push(crate::measure::heap_grown_mb(mark));
            }
            timed += wall_s;
            match out.and_then(|(a, its)| refs.check(q, &a).map(|()| its)) {
                Ok(its) => {
                    if passes == 0 {
                        layers.first_pass.add(&its, wall_s, host, n, nnz);
                    }
                    layers.all.add(&its, wall_s, host, n, nnz);
                    if ctx.trace {
                        replay_decide(
                            &mut r.tracer,
                            engine.runtime(),
                            &its,
                            q,
                            span,
                            query_id,
                            &mut layers.decide_us,
                        );
                    }
                    log.push(Logged {
                        pass: passes,
                        q,
                        wall_s,
                        edges: refs.edges(q),
                        repeat: false,
                    });
                }
                Err(e) => {
                    r.failed += 1;
                    r.note(format!("query {query_id} {q:?} failed: {e}"));
                }
            }
        }
        passes += 1;
        if passes == 1 {
            layers.pass_end.cache = engine.runtime().cache_stats();
        }
    }
    let (steal, cpu) = CpuClock::now().since(clock);
    r.note(format!(
        "timed phase: {passes} passes, {} queries, {timed:.3} s answering, steal {steal:.2} s, process cpu {cpu:.2} s",
        r.attempted
    ));
    layers.shared = graph.cache_stats();

    put_memory(&mut r, &setup_s, setup_peak_mb, &heap_mb);
    rates(&mut r, &log);
    if ctx.trace {
        probe_sparse(&mut r.tracer, adj, &mut layers);
    }
    put_layers(&mut r, &layers);
    Ok(r)
}

/// What a served query returns: its answer, the engine's iteration
/// records and when the worker started and finished it.
#[derive(Debug, Clone)]
struct Served {
    answer: Result<(Answer, Vec<IterationRecord>), String>,
    start: Instant,
    end: Instant,
}

/// The job a served query submits. A panic in `run` becomes the answer's
/// error, so the worker thread lives on and the client counts a failure.
fn served_job(run: Run, q: Q, n: usize) -> impl FnOnce(&mut CoSparse) -> Served + Send + 'static {
    move |session| {
        let start = Instant::now();
        let answer = catch_unwind(AssertUnwindSafe(|| run(session, n, q)))
            .unwrap_or_else(|p| Err(panic_text(&p)));
        Served {
            answer,
            start,
            end: Instant::now(),
        }
    }
}

/// One pass of `serve_closed_rmat`: fresh BFS and SSSP from two sources
/// and a PageRank, then three repeats the same-source cache answers.
/// The flag marks the repeats.
fn serve_pass(a: u32, b: u32) -> [(Q, bool); 8] {
    [
        (Q::Bfs(a), false),
        (Q::Sssp(a), false),
        (Q::Pr, false),
        (Q::Bfs(b), false),
        (Q::Sssp(b), false),
        (Q::Bfs(a), true),
        (Q::Sssp(b), true),
        (Q::Pr, true),
    ]
}

/// One closed-loop client's tallies.
#[derive(Debug, Default)]
struct ClientLog {
    attempted: u64,
    failed: u64,
    passes: u64,
    answered: Vec<Logged>,
    timed_s: f64,
    queue_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    reply_ms: Vec<f64>,
    /// Heap each fresh query of the first pass took (MB). Concurrent
    /// clients' queries overlap, so only one client's figures are exact.
    heap_mb: Vec<f64>,
    notes: Vec<String>,
}

/// `serve_closed_rmat`: `ctx.clients` closed-loop clients of a
/// `GraphService` with the default configuration.
pub fn serve_closed(ctx: &Ctx, adj: &CooMatrix) -> Result<Report, String> {
    let mut r = Report::new(ctx.trace);
    let n = adj.rows();
    let nnz = adj.nnz();
    let mut refs = Refs::new(Adjacency::new(adj, true));
    let (pool, reach) = pick_sources(&mut refs, ctx.seed, 17)?;
    r.note(format!(
        "source pool: {pool:?} (hub reaches {:.1}% of vertices)",
        reach * 100.0
    ));
    let config = ServeConfig::default();
    r.note(format!("serve config: {config:?}, clients {}", ctx.clients));
    let mut layers = Layers::default();

    let mut setup_s = Vec::new();
    let mut current: Option<(Arc<SharedGraph>, GraphService<Served>)> = None;
    for _ in 0..SERVE_SETUP_REPS {
        if let Some((_, old)) = current.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        let (graph, build_s, _) = r.tracer.time("graph.Engine::shared_graph", None, None, || {
            Engine::shared_graph(adj, geometry(), MicroArch::paper())
        });
        let service = GraphService::start(Arc::clone(&graph), config);
        let mut cold_s = 0.0;
        for q in [Q::Bfs(pool[0]), Q::Sssp(pool[0]), Q::Pr] {
            let (served, s, _) =
                r.tracer
                    .time("cosparse.GraphService::submit(cold)", None, None, || {
                        catch_unwind(AssertUnwindSafe(|| {
                            service.submit(served_job(run_query, q, n)).wait()
                        }))
                    });
            cold_s += s;
            r.attempted += 1;
            let out = served.map_err(|p| panic_text(&p)).and_then(|sv| sv.answer);
            if let Err(e) = out.and_then(|(a, _)| refs.check(q, &a)) {
                r.failed += 1;
                r.note(format!("cold {q:?} failed: {e}"));
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        layers.build_s.push(build_s);
        layers.cold_s.push(cold_s);
        current = Some((graph, service));
    }
    let (graph, service) = current.ok_or("no set-up ran")?;
    let setup_peak_mb = crate::measure::peak_rss_mb();

    // The benchmark's own session replays the decision heuristic.
    let probe_session = graph.session();
    let clock = CpuClock::now();
    let start_stats = service.stats();
    layers.pass_start = Counters {
        cache: probe_session.cache_stats(),
        serve: start_stats,
    };
    let mut logs: Vec<ClientLog> = Vec::new();
    if ctx.clients <= 1 {
        let mut log = ClientLog::default();
        serve_client(
            ctx,
            &service,
            &graph,
            &pool,
            0,
            n,
            nnz,
            run_query,
            &mut refs,
            &mut r.tracer,
            &mut layers,
            Some(&probe_session),
            &mut log,
        );
        logs.push(log);
    } else {
        if ctx.trace {
            return Err("--trace 1 takes a single client".into());
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..ctx.clients)
                .map(|c| {
                    let (service, graph, pool) = (&service, &graph, &pool);
                    let mut refs = Refs::new(Adjacency::new(adj, true));
                    s.spawn(move || {
                        let mut log = ClientLog::default();
                        let mut tracer = Tracer::new(false);
                        let mut layers = Layers::default();
                        serve_client(
                            ctx,
                            service,
                            graph,
                            pool,
                            c,
                            n,
                            nnz,
                            run_query,
                            &mut refs,
                            &mut tracer,
                            &mut layers,
                            None,
                            &mut log,
                        );
                        log
                    })
                })
                .collect();
            for h in handles {
                logs.push(h.join().unwrap_or_else(|p| ClientLog {
                    notes: vec![format!("client thread {}", panic_text(&p))],
                    ..ClientLog::default()
                }));
            }
        });
    }
    let (steal, cpu) = CpuClock::now().since(clock);
    let end_stats = service.stats();
    layers.shared = graph.cache_stats();

    let mut latency = Vec::new();
    let mut heap_mb = Vec::new();
    let (mut qps, mut edges_per_s) = (0.0, 0.0);
    let mut passes = 0;
    for log in &mut logs {
        r.attempted += log.attempted;
        r.failed += log.failed;
        heap_mb.append(&mut log.heap_mb);
        passes += log.passes;
        // Rates and latency over the fresh queries: a repeat the cache
        // answers takes microseconds, so the share of repeats, which no
        // measured traffic sets, would otherwise set the figures. Clients
        // run side by side, so their rates add up.
        let fresh = |l: &Logged| !l.repeat;
        qps += per_pass_rate(&log.answered, fresh, |_| 1.0);
        edges_per_s += per_pass_rate(&log.answered, fresh, |l| l.edges as f64);
        latency.extend(
            log.answered
                .iter()
                .filter(|l| fresh(l))
                .map(|l| l.wall_s * 1e3),
        );
        r.notes.append(&mut log.notes);
    }
    r.note(format!(
        "timed phase: {passes} passes, {} queries, steal {steal:.2} s, process cpu {cpu:.2} s",
        r.attempted
    ));
    // The service's own accounting must add up: every submission either
    // ran on a worker or was answered from the cache.
    let submitted = end_stats.submitted - start_stats.submitted;
    let completed = end_stats.completed - start_stats.completed;
    let hits = end_stats.cache_hits - start_stats.cache_hits;
    if submitted != completed + hits || end_stats.rejected != start_stats.rejected {
        r.correct = false;
        r.note(format!(
            "serve accounting broke: {start_stats:?} -> {end_stats:?}"
        ));
    }
    if ctx.clients <= 1 && hits != 3 * passes {
        r.correct = false;
        r.note(format!(
            "expected {} cache hits, the service counted {hits}",
            3 * passes
        ));
    }
    service.shutdown();

    put_memory(&mut r, &setup_s, setup_peak_mb, &heap_mb);
    r.put("qps", qps, "query/s");
    r.put("query_p50_ms", median(&latency), "ms");
    r.put("edges_per_s", edges_per_s, "edge/s");
    if latency.len() >= 100 {
        r.note(format!(
            "query_p90_ms = {:.6} ms ({} samples)",
            quantile(&latency, 0.9),
            latency.len()
        ));
    }
    if let [log] = logs.as_slice() {
        r.note(format!(
            "serve.queue_wait_ms_p50 = {:.6} ms, serve.exec_ms_p50 = {:.6} ms, serve.reply_ms_p50 = {:.6} ms",
            median(&log.queue_ms),
            median(&log.exec_ms),
            median(&log.reply_ms)
        ));
    }
    if ctx.trace {
        probe_sparse(&mut r.tracer, adj, &mut layers);
    }
    put_layers(&mut r, &layers);
    Ok(r)
}

/// One closed-loop client: whole passes until its answered queries have
/// taken `ctx.seconds`. Client `c` starts at its own offset in the pool.
#[allow(clippy::too_many_arguments)]
fn serve_client(
    ctx: &Ctx,
    service: &GraphService<Served>,
    graph: &Arc<SharedGraph>,
    pool: &[u32],
    c: usize,
    n: usize,
    nnz: usize,
    run: Run,
    refs: &mut Refs,
    tr: &mut Tracer,
    layers: &mut Layers,
    probe: Option<&CoSparse>,
    log: &mut ClientLog,
) {
    let timed_pool = &pool[1..];
    let mut query_id = (c as u64) << 48;
    while log.passes == 0 || log.timed_s < ctx.seconds {
        let k = (2 * (log.passes as usize + 4 * c)) % timed_pool.len();
        let (a, b) = (timed_pool[k], timed_pool[(k + 1) % timed_pool.len()]);
        // A new graph epoch per pass empties the same-source cache, so
        // every pass sends the same misses and repeats.
        graph.bump_epoch();
        for (q, repeat) in serve_pass(a, b) {
            query_id += 1;
            log.attempted += 1;
            let key = q.graph_query().cache_key();
            let mark = crate::measure::heap_mark();
            let sent = Instant::now();
            let ticket = service.submit_cached(key, served_job(run, q, n));
            let submitted = Instant::now();
            let waited = catch_unwind(AssertUnwindSafe(|| ticket.wait()));
            let back = Instant::now();
            if log.passes == 0 && !repeat {
                log.heap_mb.push(crate::measure::heap_grown_mb(mark));
            }
            let wall_s = (back - sent).as_secs_f64();
            log.timed_s += wall_s;
            let root = tr.span("query", sent, back, None, Some(query_id));
            tr.span(
                "cosparse.GraphService::submit_cached",
                sent,
                submitted,
                root,
                Some(query_id),
            );
            tr.span(
                "cosparse.Ticket::wait",
                submitted,
                back,
                root,
                Some(query_id),
            );
            let served = match waited {
                Ok(s) => s,
                Err(p) => {
                    log.failed += 1;
                    log.notes
                        .push(format!("query {query_id} {q:?} failed: {}", panic_text(&p)));
                    continue;
                }
            };
            // A repeat answered from the cache carries the original run's
            // timestamps; only fresh runs describe this submission.
            if !repeat {
                tr.span("serve.queue_wait", sent, served.start, root, Some(query_id));
                let exec = tr.span("serve.job", served.start, served.end, root, Some(query_id));
                tr.span("serve.reply", served.end, back, root, Some(query_id));
                log.queue_ms.push((served.start - sent).as_secs_f64() * 1e3);
                log.exec_ms
                    .push((served.end - served.start).as_secs_f64() * 1e3);
                log.reply_ms.push((back - served.end).as_secs_f64() * 1e3);
                if let (Some(session), Ok((_, its))) = (probe, &served.answer) {
                    if tr.on() {
                        replay_decide(tr, session, its, q, exec, query_id, &mut layers.decide_us);
                    }
                }
            }
            match served
                .answer
                .and_then(|(a, its)| refs.check(q, &a).map(|()| its))
            {
                Ok(its) => {
                    // A repeat answered from the cache traverses nothing.
                    let mut edges = 0;
                    if !repeat {
                        let exec_s = (served.end - served.start).as_secs_f64();
                        if log.passes == 0 {
                            layers.first_pass.add(&its, exec_s, true, n, nnz);
                        }
                        layers.all.add(&its, exec_s, true, n, nnz);
                        edges = refs.edges(q);
                    }
                    log.answered.push(Logged {
                        q,
                        pass: log.passes,
                        wall_s,
                        edges,
                        repeat,
                    });
                }
                Err(e) => {
                    log.failed += 1;
                    log.notes
                        .push(format!("query {query_id} {q:?} failed: {e}"));
                }
            }
        }
        log.passes += 1;
        if log.passes == 1 {
            if let Some(session) = probe {
                layers.pass_end = Counters {
                    cache: session.cache_stats(),
                    serve: service.stats(),
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The program's query, except that PageRank panics.
    fn panics_on_pagerank(
        session: &mut CoSparse,
        n: usize,
        q: Q,
    ) -> Result<(Answer, Vec<IterationRecord>), String> {
        assert!(q != Q::Pr, "injected fault");
        run_query(session, n, q)
    }

    #[test]
    fn a_panicking_served_query_counts_as_failed_and_the_service_lives_on() {
        let adj = sparse::generate::rmat(9, 4_000, Default::default(), 7).unwrap();
        let n = adj.rows();
        let graph = Engine::shared_graph(&adj, geometry(), MicroArch::paper());
        let service = GraphService::start(Arc::clone(&graph), ServeConfig::default());
        let mut refs = Refs::new(Adjacency::new(&adj, true));
        let (pool, _) = pick_sources(&mut refs, 7, 3).unwrap();
        let ctx = Ctx {
            seed: 7,
            seconds: 0.0,
            trace: false,
            clients: 1,
        };
        let mut log = ClientLog::default();
        serve_client(
            &ctx,
            &service,
            &graph,
            &pool,
            0,
            n,
            adj.nnz(),
            panics_on_pagerank,
            &mut refs,
            &mut Tracer::new(false),
            &mut Layers::default(),
            None,
            &mut log,
        );
        // One pass: the fresh PageRank panics and its repeat gets the
        // cached failure; the six traversals are answered and checked.
        assert_eq!((log.passes, log.attempted, log.failed), (1, 8, 2));
        assert_eq!(log.answered.len(), 6);
        // Every worker still answers.
        for _ in 0..2 * service.workers() {
            let q = Q::Bfs(pool[1]);
            let served = service.submit(served_job(run_query, q, n)).wait();
            let (answer, _) = served.answer.unwrap();
            refs.check(q, &answer).unwrap();
        }
        let stats = service.shutdown();
        assert_eq!(stats.submitted, stats.completed + stats.cache_hits);
    }
}
