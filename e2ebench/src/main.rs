//! End-to-end and per-layer benchmark of the CoSPARSE reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--clients <k>]
//! ```
//!
//! Prints a host record, per-workload diagnostics and every figure by
//! name and unit, then as its last line one JSON object: the end-to-end
//! metrics of `BENCHMARK.json` (`--trace 0`) or its per-layer metrics
//! (`--trace 1`). A traced run also writes its spans and per-layer
//! metrics to `.bench_out/trace-<workload>-<seed>.jsonl`. See README.md.

mod check;
mod inputs;
mod measure;
mod workloads;

use inputs::InputSpec;
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::{Ctx, Report};

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// End-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: &[&str] = &[
    "setup_s",
    "peak_rss_mb",
    "query_heap_mb",
    "qps",
    "query_p50_ms",
    "edges_per_s",
];

/// Per-layer metrics, in `BENCHMARK.json` order.
const PER_LAYER: &[&str] = &[
    "sparse.format_probe_ms",
    "sparse.reorder_probe_ms",
    "sparse.transpose_ms",
    "shared.build_s",
    "shared.plan_builds",
    "shared.plan_hits",
    "shared.format_builds",
    "shared.reorder_builds",
    "heuristics.decide_us",
    "heuristics.iters_ip",
    "heuristics.iters_op",
    "heuristics.sw_switches",
    "heuristics.iters_reordered",
    "runtime.cold_query_s",
    "runtime.scratch_program_builds",
    "runtime.dense_program_builds",
    "runtime.dense_program_hits",
    "runtime.conversion_builds",
    "transmuter.compute_cycles",
    "transmuter.mem_stall_cycles",
    "transmuter.barrier_stall_cycles",
    "transmuter.conflict_cycles",
    "transmuter.reconfig_cycles",
    "transmuter.l1_misses",
    "transmuter.l2_misses",
    "transmuter.hbm_line_reads",
    "transmuter.memo_hits",
    "transmuter.memo_misses",
    "transmuter.epochs_proven",
    "transmuter.epochs_replayed",
    "transmuter.epochs_rolled_back",
    "host.bytes_per_s",
    "graph.iterations",
    "graph.engine_self_ms",
    "serve.batches",
    "serve.cache_hits",
    "sim_mcycles",
    "sim_energy_mj",
];

/// A workload: its input and the function that runs it.
struct Workload {
    name: &'static str,
    input: InputSpec,
    run: fn(&Ctx, &sparse::CooMatrix) -> Result<Report, String>,
    /// Listed in `BENCHMARK.json`. `host_pagerank_dram` runs on request
    /// only: its figures follow the host's memory bandwidth, which on a
    /// shared host moves more between runs than a bound can allow.
    gated: bool,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sim_traversal_pokec",
        input: InputSpec::Pokec { divisor: 64 },
        run: workloads::sim_traversal,
        gated: true,
    },
    Workload {
        name: "sim_pagerank_pokec",
        input: InputSpec::Pokec { divisor: 64 },
        run: workloads::sim_pagerank,
        gated: true,
    },
    Workload {
        name: "host_pagerank_dram",
        input: InputSpec::Rmat {
            scale: 20,
            edge_factor: 16,
        },
        run: workloads::host_dram,
        gated: false,
    },
    Workload {
        name: "serve_closed_rmat",
        input: InputSpec::Rmat {
            scale: 14,
            edge_factor: 8,
        },
        run: workloads::serve_closed,
        gated: true,
    },
];

const USAGE: &str = "usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
[--clients <k>] [--pokec-divisor <d>]
       e2ebench --copy-bandwidth
workloads: sim_traversal_pokec sim_pagerank_pokec host_pagerank_dram serve_closed_rmat";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("bad value {v:?} for {name}\n{USAGE}"))
        })
        .transpose()
}

fn run(args: &[String]) -> Result<(), String> {
    let seed = parsed::<u64>(args, "--seed")?;
    if let Some(spec) = flag(args, "--generate") {
        let spec = InputSpec::parse(spec).ok_or_else(|| format!("bad input spec {spec:?}"))?;
        let out = flag(args, "--out").ok_or("--generate needs --out")?;
        return inputs::generate_to(spec, seed.ok_or("--generate needs --seed")?, out.as_ref());
    }
    if args.iter().any(|a| a == "--copy-bandwidth") {
        copy_bandwidth();
        return Ok(());
    }
    let name = flag(args, "--workload").ok_or(USAGE)?;
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let ctx = Ctx {
        seed: seed.ok_or(USAGE)?,
        seconds: parsed::<f64>(args, "--seconds")?.ok_or(USAGE)?,
        trace: match flag(args, "--trace") {
            Some("1") => true,
            Some("0") | None => false,
            Some(v) => return Err(format!("bad value {v:?} for --trace\n{USAGE}")),
        },
        clients: parsed(args, "--clients")?.unwrap_or(1),
    };
    let mut input = w.input;
    if let Some(d) = parsed::<usize>(args, "--pokec-divisor")? {
        match &mut input {
            InputSpec::Pokec { divisor } => *divisor = d,
            InputSpec::Rmat { .. } => {
                return Err(format!("{name} does not run on the Pokec analogue"))
            }
        }
    }

    println!("{}", measure::host_record());
    let loaded = inputs::load(input, ctx.seed)?;
    let adj = &loaded.matrix;
    println!(
        "workload {name} seed {} seconds {} trace {}: input {} ({} vertices, {} edges), {} in {:.2} s (outside every metric)",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        input.key(ctx.seed),
        adj.rows(),
        adj.nnz(),
        if loaded.cached { "read from cache" } else { "generated" },
        loaded.seconds
    );
    if !w.gated {
        println!("  {name} is not listed in BENCHMARK.json (see README.md)");
    }
    let report = (w.run)(&ctx, adj)?;
    println!(
        "  peak RSS of the whole run: {:.1} MB",
        measure::peak_rss_mb()
    );
    for n in &report.notes {
        println!("  {n}");
    }
    for m in &report.metrics {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "operations: attempted {} failed {} (workload {name}, seed {})",
        report.attempted, report.failed, ctx.seed
    );
    let chosen = if ctx.trace { PER_LAYER } else { END_TO_END };
    let json = result_json(&report, chosen)?;
    if ctx.trace {
        let path = format!(".bench_out/trace-{name}-{}.jsonl", ctx.seed);
        report
            .tracer
            .write(path.as_ref(), &json)
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("trace: {} spans written to {path}", report.tracer.len());
    }
    println!("{json}");
    Ok(())
}

/// The result line: `correct`, `attempted`, `failed` and the `chosen`
/// metrics, each of which the workload must have produced.
fn result_json(r: &Report, chosen: &[&str]) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, name) in chosen.iter().enumerate() {
        let m = r
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("workload produced no {name}"))?;
        if !m.value.is_finite() {
            return Err(format!("{name} is {}", m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        r.correct, r.attempted, r.failed
    ))
}

/// Measured host copy bandwidth: the ceiling `edges_per_s` on
/// `host_pagerank_dram` is judged against.
fn copy_bandwidth() {
    const BYTES: usize = 256 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let mut rates = Vec::new();
    for _ in 0..10 {
        let t = std::time::Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        // A copy reads and writes every byte.
        rates.push(2.0 * BYTES as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    println!("{}", measure::host_record());
    println!(
        "copy bandwidth: median {:.2} GB/s, best {:.2} GB/s (read + write, {} MiB buffers, 10 copies)",
        measure::median(&rates),
        rates.iter().copied().fold(0.0, f64::max),
        BYTES >> 20
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload names the result line uses are the ones
    /// `BENCHMARK.json` declares, in its order.
    #[test]
    fn names_match_benchmark_json() {
        let json = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let declared: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        let ours: Vec<&str> = WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| w.name)
            .chain(END_TO_END.iter().copied())
            .chain(PER_LAYER.iter().copied())
            .collect();
        assert_eq!(declared, ours);
    }
}
