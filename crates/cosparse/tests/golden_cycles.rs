//! Golden cycle-count snapshots for all 8 SW x HW combinations.
//!
//! These numbers were captured from the pre-`Program`-IR `Machine::run`
//! event loop on fixed seeded inputs. They pin the simulator's timing
//! model bit-for-bit: any execution-core change (including the compiled
//! `Program` path and its sequential executor) must reproduce them
//! exactly. If a PR *intends* to change the timing model, the new
//! numbers must be re-captured deliberately and the change called out.

use cosparse::{CoSparse, Frontier, HwConfig, Policy, SwConfig};
use transmuter::{Geometry, Machine, MicroArch};

const N: usize = 1024;
const NNZ: usize = 15_000;
const SEED: u64 = 21;

fn runtime() -> CoSparse {
    let m = sparse::generate::uniform(N, N, NNZ, SEED).unwrap();
    CoSparse::new(&m, Machine::new(Geometry::new(2, 4), MicroArch::paper()))
}

fn frontier(sw: SwConfig) -> Frontier {
    match sw {
        SwConfig::InnerProduct => Frontier::Dense(sparse::generate::random_dense_vector(N, 3)),
        SwConfig::OuterProduct => {
            Frontier::Sparse(sparse::generate::random_sparse_vector(N, 0.05, 3).unwrap())
        }
    }
}

/// (sw, hw, expected cycles, expected op count) for every combination.
/// Each entry uses a fresh runtime so no conversion stream is charged.
const GOLDEN: &[(SwConfig, HwConfig, u64, u64)] = &[
    (SwConfig::InnerProduct, HwConfig::Sc, 60856, 61024),
    (SwConfig::InnerProduct, HwConfig::Scs, 63025, 65136),
    (SwConfig::InnerProduct, HwConfig::Pc, 96282, 61024),
    (SwConfig::InnerProduct, HwConfig::Ps, 126694, 61024),
    (SwConfig::OuterProduct, HwConfig::Sc, 7579, 14985),
    (SwConfig::OuterProduct, HwConfig::Scs, 7649, 14985),
    (SwConfig::OuterProduct, HwConfig::Pc, 6598, 14985),
    (SwConfig::OuterProduct, HwConfig::Ps, 6739, 14985),
];

#[test]
fn golden_cycle_counts_all_eight_combos() {
    let mut failures = Vec::new();
    for &(sw, hw, want_cycles, want_ops) in GOLDEN {
        let mut rt = runtime();
        rt.set_policy(Policy::Fixed(sw, hw));
        let f = frontier(sw);
        let out = rt.spmv(&f).unwrap_or_else(|e| panic!("{sw:?}/{hw}: {e}"));
        let (cycles, ops) = (out.report.cycles, out.report.stats.ops);
        println!("    ({sw:?}, {hw:?}, {cycles}, {ops}),");
        if (cycles, ops) != (want_cycles, want_ops) {
            failures.push(format!(
                "{sw:?}/{hw}: cycles {cycles} ops {ops}, golden {want_cycles}/{want_ops}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Golden cycles for the *second* invocation on the same runtime: the
/// warm path (plan cache hit, caches primed, no reconfiguration) — the
/// steady-state iterative hot path the compiled-`Program` core serves.
const GOLDEN_WARM: &[(SwConfig, HwConfig, u64)] = &[
    (SwConfig::InnerProduct, HwConfig::Sc, 60372),
    (SwConfig::InnerProduct, HwConfig::Scs, 62898),
    (SwConfig::InnerProduct, HwConfig::Pc, 92261),
    (SwConfig::InnerProduct, HwConfig::Ps, 123789),
    (SwConfig::OuterProduct, HwConfig::Sc, 4032),
    (SwConfig::OuterProduct, HwConfig::Scs, 4197),
    (SwConfig::OuterProduct, HwConfig::Pc, 2497),
    (SwConfig::OuterProduct, HwConfig::Ps, 3231),
];

#[test]
fn golden_warm_cycle_counts_all_eight_combos() {
    let mut failures = Vec::new();
    for &(sw, hw, want) in GOLDEN_WARM {
        let mut rt = runtime();
        rt.set_policy(Policy::Fixed(sw, hw));
        let f = frontier(sw);
        rt.spmv(&f).unwrap();
        let warm = rt.spmv(&f).unwrap().report.cycles;
        println!("    ({sw:?}, {hw:?}, {warm}),");
        if warm != want {
            failures.push(format!("{sw:?}/{hw}: warm cycles {warm}, golden {want}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The single-pass pipeline's caches behave as designed: a repeated
/// dense-IP invocation builds its program exactly once, a repeated
/// sparse-OP invocation hits the scratch-program cache, and the warm
/// path reaches the machine's steady-state memo.
#[test]
fn pipeline_caches_hit_on_repeat_invocations() {
    // Dense IP: program cached per hardware slot after the first build.
    let mut rt = runtime();
    rt.set_policy(Policy::Fixed(SwConfig::InnerProduct, HwConfig::Sc));
    let f = frontier(SwConfig::InnerProduct);
    rt.spmv(&f).unwrap();
    rt.spmv(&f).unwrap();
    let cs = rt.cache_stats();
    assert_eq!(cs.plan_builds, 1, "one plan for one matrix");
    assert_eq!(cs.dense_program_builds, 1, "dense program built once");
    assert_eq!(cs.scratch_program_builds, 0);
    assert_eq!(cs.conversion_builds, 0, "no dataflow switch occurred");

    // Sparse OP: identical frontier reuses the scratch program in place.
    let mut rt = runtime();
    rt.set_policy(Policy::Fixed(SwConfig::OuterProduct, HwConfig::Pc));
    let f = frontier(SwConfig::OuterProduct);
    rt.spmv(&f).unwrap();
    rt.spmv(&f).unwrap();
    let cs = rt.cache_stats();
    assert_eq!(cs.scratch_program_builds, 1, "scratch built on first call");
    assert_eq!(cs.scratch_program_hits, 1, "second call reuses it");
    assert_eq!(cs.dense_program_builds, 0);

    // Steady-state memo: keep re-running the identical program until the
    // machine recognizes the recurring steady state. OP/PC reaches its
    // cache-state fixpoint after a handful of calls (measured: 7); the
    // dense-IP working set never converges within the memo's 16-entry
    // ring — see `steady_memo_wanders_past_ring_capacity` in the
    // transmuter machine tests for the characterization.
    let mut rt = runtime();
    rt.set_policy(Policy::Fixed(SwConfig::OuterProduct, HwConfig::Pc));
    let f = frontier(SwConfig::OuterProduct);
    for _ in 0..8 {
        rt.spmv(&f).unwrap();
    }
    let cs = rt.cache_stats();
    assert!(
        cs.steady_memo.hits >= 1,
        "repeated identical program should reach the steady memo: {:?}",
        cs.steady_memo
    );
    assert!(cs.steady_memo.hit_rate() > 0.0);
}

/// Two identical fresh runtimes must agree exactly: the simulator is
/// deterministic end to end (matrix generation, planning, execution).
#[test]
fn fresh_runtimes_are_bit_identical() {
    for &(sw, hw, ..) in GOLDEN {
        let f = frontier(sw);
        let run = |_: ()| {
            let mut rt = runtime();
            rt.set_policy(Policy::Fixed(sw, hw));
            rt.spmv(&f).unwrap().report
        };
        let (a, b) = (run(()), run(()));
        assert_eq!(a.cycles, b.cycles, "{sw:?}/{hw}: cycles diverged");
        assert_eq!(a.stats, b.stats, "{sw:?}/{hw}: stats diverged");
    }
}
