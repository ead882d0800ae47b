//! Both backends against the test-local reference (`common`).
//!
//! Every engine runs on several matrices under [`ExecBackend::Simulate`]
//! and [`ExecBackend::Host`]:
//!
//! * each run must reproduce the reference run's final state and every
//!   iteration's update count (same fixed point through the engine
//!   loop, step by step);
//! * for float-valued algorithms the state comparison is `to_bits`
//!   exact — the contract is bit-identity, not tolerance.
//!
//! A property test closes the loop on plain SpMV: random COO matrices
//! and random frontiers, both backends bit-equal to the reference.

mod common;

use common::{reference_apply, reference_run};
use cosparse::{CoSparse, ExecBackend, Frontier, SpmvOp, SwConfig};
use graph::bc;
use graph::bfs::Bfs;
use graph::cc::ConnectedComponents;
use graph::kbfs::KBfs;
use graph::pagerank::PageRank;
use graph::sssp::Sssp;
use graph::{Algorithm, Engine, RunResult, Value};
use proptest::prelude::*;
use sparse::{CooMatrix, CscMatrix, Idx, SparseVector};
use transmuter::{Geometry, Machine, MicroArch};

fn machine() -> Machine {
    Machine::new(Geometry::new(2, 4), MicroArch::paper())
}

/// The matrices every engine is checked on: a skewed RMAT graph, a
/// uniform random one, and a power-law one — small enough to simulate,
/// shaped differently enough to exercise both dataflows and several
/// partition layouts.
fn matrices() -> Vec<(&'static str, CooMatrix)> {
    vec![
        (
            "rmat_9",
            sparse::generate::rmat(9, 4_000, Default::default(), 42).unwrap(),
        ),
        (
            "uniform_400",
            sparse::generate::uniform(400, 400, 5_000, 7).unwrap(),
        ),
        (
            "power_law_512",
            sparse::generate::power_law(512, 512, 6_000, 2.2, 11).unwrap(),
        ),
    ]
}

fn run_on<A: Algorithm>(adj: &CooMatrix, alg: &A, backend: ExecBackend) -> RunResult<Value<A>> {
    let mut engine = Engine::new(adj, machine());
    engine.set_backend(backend);
    engine.run(alg).unwrap()
}

/// Simulate and Host against the reference run on every suite matrix:
/// the per-iteration update counts pin each step, the final state the
/// engine-level fixed point.
fn check_all_backends<A: Algorithm>(alg: &A) {
    for (name, adj) in matrices() {
        let (want_state, want_counts) = reference_run(&adj, alg);
        for backend in [ExecBackend::Simulate, ExecBackend::Host] {
            let got = run_on(&adj, alg, backend);
            let counts: Vec<usize> = got.iterations.iter().map(|it| it.updates).collect();
            assert_eq!(
                counts,
                want_counts,
                "{}/{name}: {backend:?} updates per iteration diverged",
                alg.name()
            );
            assert_eq!(
                got.state,
                want_state,
                "{}/{name}: {backend:?} final state diverged",
                alg.name()
            );
        }
    }
}

#[test]
fn bfs_host_matches_simulate() {
    check_all_backends(&Bfs::new(0));
}

#[test]
fn sssp_host_matches_simulate() {
    check_all_backends(&Sssp::new(0));
}

#[test]
fn pagerank_host_matches_simulate() {
    check_all_backends(&PageRank::new(0.85, 15));
}

#[test]
fn cc_host_matches_simulate() {
    check_all_backends(&ConnectedComponents::new());
}

#[test]
fn kbfs_host_matches_simulate() {
    check_all_backends(&KBfs::new(vec![0, 3, 11, 42]));
}

/// Float states compared bit-for-bit, not by `==`: SSSP and PageRank
/// are the two f32-valued engines, so their runs pin the bit-identity
/// contract end-to-end on both backends.
#[test]
fn float_engines_are_bit_exact_across_backends() {
    for (name, adj) in matrices() {
        let (sssp, _) = reference_run(&adj, &Sssp::new(0));
        let (pr, _) = reference_run(&adj, &PageRank::new(0.85, 15));
        for backend in [ExecBackend::Simulate, ExecBackend::Host] {
            let got = run_on(&adj, &Sssp::new(0), backend);
            for (v, (a, b)) in got.state.iter().zip(&sssp).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "sssp/{name} {backend:?} vertex {v}: {a} vs {b}"
                );
            }
            let got = run_on(&adj, &PageRank::new(0.85, 15), backend);
            for (v, (a, b)) in got.state.iter().zip(&pr).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "pr/{name} {backend:?} vertex {v}: {a} vs {b}"
                );
            }
        }
    }
}

/// Two host-mode PageRank runs produce bit-identical scores: the
/// full-frontier pull writes each chunk at its own offset and compacts
/// in chunk order, and every reduce happens in ascending source order,
/// so nothing about thread scheduling can leak into the result.
#[test]
fn pagerank_host_runs_are_bit_identical() {
    let adj = sparse::generate::power_law(512, 512, 6_000, 2.2, 11).unwrap();
    let pr = PageRank::new(0.85, 20);
    let a = run_on(&adj, &pr, ExecBackend::Host);
    let b = run_on(&adj, &pr, ExecBackend::Host);
    for (v, (x, y)) in a.state.iter().zip(&b.state).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "vertex {v}: {x} vs {y}");
    }
}

/// Betweenness centrality across backends: the per-level SpMV costs
/// differ (host reports carry zero cycles) but the centrality math is
/// host-evaluated either way, so scores are bit-identical.
#[test]
fn bc_host_matches_simulate() {
    for (name, adj) in matrices() {
        let geometry = Geometry::new(2, 4);
        let sim = bc::betweenness(&adj, 0, geometry).unwrap();
        let host = bc::betweenness_on(&adj, 0, geometry, ExecBackend::Host).unwrap();
        assert_eq!(
            sim.levels.len(),
            host.levels.len(),
            "bc/{name}: level count"
        );
        for (v, (a, b)) in sim.centrality.iter().zip(&host.centrality).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "bc/{name} vertex {v}: {a} vs {b}");
        }
        // Host mode really skipped the simulator.
        assert!(host.total_cycles() == 0, "bc/{name}: host run cost cycles");
        assert!(sim.total_cycles() > 0, "bc/{name}: simulate run was free");
    }
}

/// One encoded random SpMV case: a square dimension, raw COO triplets
/// (duplicates summed by the constructor) and raw frontier actives
/// (deduplicated below).
type SpmvCase = (usize, Vec<(u32, u32, f32)>, Vec<(u32, f32)>);

fn arb_spmv_case() -> impl Strategy<Value = SpmvCase> {
    (2usize..40).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0u32..n as u32, 0u32..n as u32, -4.0f32..4.0), 1..120),
            proptest::collection::vec((0u32..n as u32, 0.25f32..4.0), 0..n.min(24)),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Plain SpMV on random COO matrices, full frontiers included: both
    /// backends' products are bit-equal to the reference, and the Host
    /// outcome names the kernel that ran.
    #[test]
    fn spmv_backends_match_the_reference_on_random_coo(case in arb_spmv_case()) {
        let (n, triplets, raw_active) = case;
        let coo = CooMatrix::from_triplets(n, n, triplets).unwrap();
        let mut active: Vec<(Idx, f32)> = raw_active;
        active.sort_unstable_by_key(|&(i, _)| i);
        active.dedup_by_key(|&mut (i, _)| i);
        // Every fourth case runs a full frontier, the row pull's input.
        if n % 4 == 0 {
            active = (0..n as Idx).map(|i| (i, 0.5 + i as f32)).collect();
        }
        let degrees: Vec<u32> = coo.col_counts().into_iter().map(|c| c as u32).collect();
        let want = reference_apply(&SpmvOp, &CscMatrix::from(&coo), &active, &vec![0.0; n], &degrees);
        let frontier = Frontier::Sparse(
            SparseVector::from_sorted(n, active).expect("sorted dedup'd actives"),
        );

        let mut sim = CoSparse::new(&coo, machine());
        let mut host = CoSparse::new(&coo, machine());
        host.set_backend(ExecBackend::Host);
        let sim_out = sim.spmv(&frontier).unwrap();
        let host_out = host.spmv(&frontier).unwrap();
        // The Host record names the kernel that ran: the row pull on
        // a full frontier, the push on any other.
        let full = frontier.nnz() == n;
        let ran = if full { SwConfig::InnerProduct } else { SwConfig::OuterProduct };
        prop_assert_eq!(host_out.software, ran);
        for out in [sim_out, host_out] {
            let mut got = Vec::new();
            out.result.collect_active(&mut got);
            prop_assert_eq!(got.len(), want.len());
            for ((wi, wv), (gi, gv)) in want.iter().zip(&got) {
                prop_assert_eq!(wi, gi);
                prop_assert_eq!(wv.to_bits(), gv.to_bits());
            }
        }
    }
}
