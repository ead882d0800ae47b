//! Reordering transparency at the algorithm level: pinning any
//! [`ReorderKind`] on the runtime must be invisible in every engine's
//! answer. Reordering only changes the simulated address stream — the
//! functional result stays in the original index space — so BFS
//! parents, SSSP distances and PageRank scores must be bit-identical
//! to the test-local reference run (`common`) under every execution
//! backend, while the reordered image is streaming.

mod common;

use common::reference_run;
use cosparse::{ExecBackend, ReorderKind, ServeConfig};
use graph::bfs::Bfs;
use graph::pagerank::PageRank;
use graph::serve::{start_service, GraphQuery};
use graph::sssp::Sssp;
use graph::{Algorithm, Engine, RunResult, Value};
use sparse::CooMatrix;
use std::sync::Arc;
use transmuter::{Geometry, Machine, MicroArch};

fn machine() -> Machine {
    Machine::new(Geometry::new(2, 4), MicroArch::paper())
}

/// A skewed RMAT graph and a power-law one: both have enough hub
/// structure that every reordering heuristic produces a non-identity
/// permutation, so the pinned runs genuinely stream a permuted image.
fn matrices() -> Vec<(&'static str, CooMatrix)> {
    vec![
        (
            "rmat_9",
            sparse::generate::rmat(9, 4_000, Default::default(), 42).unwrap(),
        ),
        (
            "power_law_512",
            sparse::generate::power_law(512, 512, 6_000, 2.2, 11).unwrap(),
        ),
    ]
}

fn run_pinned<A: Algorithm>(
    adj: &CooMatrix,
    alg: &A,
    backend: ExecBackend,
    reorder: ReorderKind,
) -> RunResult<Value<A>> {
    let mut engine = Engine::new(adj, machine());
    engine.set_backend(backend);
    engine.runtime_mut().set_reorder_override(Some(reorder));
    engine.run(alg).unwrap()
}

/// Every (reorder, backend) pairing reproduces the reference run: same
/// iteration count, same final state. `PartialEq` on `u32` states is
/// exact; float engines get a separate `to_bits` check below.
fn check_transparent<A: Algorithm>(alg: &A) {
    for (name, adj) in matrices() {
        let (want_state, want_counts) = reference_run(&adj, alg);
        for kind in ReorderKind::ALL {
            for backend in [ExecBackend::Simulate, ExecBackend::Host] {
                let got = run_pinned(&adj, alg, backend, kind);
                assert_eq!(
                    want_counts.len(),
                    got.iterations.len(),
                    "{}/{name}: {kind}/{backend:?} changed the iteration count",
                    alg.name()
                );
                assert_eq!(
                    want_state,
                    got.state,
                    "{}/{name}: {kind}/{backend:?} perturbed the final state",
                    alg.name()
                );
            }
        }
    }
}

#[test]
fn bfs_is_reorder_transparent() {
    check_transparent(&Bfs::new(0));
}

#[test]
fn sssp_is_reorder_transparent() {
    check_transparent(&Sssp::new(0));
}

#[test]
fn pagerank_is_reorder_transparent() {
    check_transparent(&PageRank::new(0.85, 10));
}

/// The float engines' transparency pinned `to_bits`-exact: a reordered
/// run on either backend must not move a single ULP relative to the
/// reference run.
#[test]
fn float_states_are_bit_exact_under_every_reordering() {
    for (name, adj) in matrices() {
        let (want, _) = reference_run(&adj, &Sssp::new(0));
        for kind in ReorderKind::CANDIDATES {
            for backend in [ExecBackend::Host, ExecBackend::Simulate] {
                let got = run_pinned(&adj, &Sssp::new(0), backend, kind);
                for (v, (a, b)) in want.iter().zip(&got.state).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "sssp/{name} {kind}/{backend:?} vertex {v}: {a} vs {b}"
                    );
                }
            }
        }
        let (want, _) = reference_run(&adj, &PageRank::new(0.85, 10));
        for kind in ReorderKind::CANDIDATES {
            let got = run_pinned(&adj, &PageRank::new(0.85, 10), ExecBackend::Simulate, kind);
            for (v, (a, b)) in want.iter().zip(&got.state).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "pr/{name} {kind} vertex {v}: {a} vs {b}"
                );
            }
        }
    }
}

/// The pinned runs really do re-key the plan per reordering: a shared
/// graph serving one engine per kind builds one reordered operand set
/// per non-trivial kind, and reports the kind in every outcome.
#[test]
fn pinned_reorderings_rekey_plans_and_report_the_kind() {
    let (_, adj) = matrices().remove(1);
    let graph = Engine::shared_graph(&adj, Geometry::new(2, 4), MicroArch::paper());
    let want = {
        let mut engine = Engine::with_shared(&graph, machine());
        engine.run(&Bfs::new(0)).unwrap().state
    };
    for kind in ReorderKind::CANDIDATES {
        let mut engine = Engine::with_shared(&graph, machine());
        engine.runtime_mut().set_reorder_override(Some(kind));
        let run = engine.run(&Bfs::new(0)).unwrap();
        assert_eq!(run.state, want, "{kind}: state diverged on shared graph");
        assert!(
            run.iterations.iter().all(|it| it.reorder == kind),
            "{kind}: outcome did not report the pinned kind"
        );
    }
    let cs = graph.cache_stats();
    assert_eq!(
        cs.reorder_builds,
        ReorderKind::CANDIDATES.len() as u64,
        "one reordered operand build per non-trivial kind"
    );
}

/// When the probe picks a reordering for simulated runs, a Host engine
/// still walks the arrival-order images: it computes no locality probe,
/// reports [`ReorderKind::None`] on every iteration, builds no plan and
/// no reordered operand set, and answers exactly as the simulated run
/// that streams the permuted image.
#[test]
fn host_steps_build_no_reordered_operands() {
    let adj = sparse::generate::rmat(12, 40_000, Default::default(), 42).unwrap();
    for alg in [Bfs::new(0), Bfs::new(5)] {
        let mut sim = Engine::new(&adj, machine());
        let want = sim.run(&alg).unwrap();
        assert!(
            want.iterations
                .iter()
                .any(|it| it.reorder != ReorderKind::None),
            "the probe must pick a reordering on this graph"
        );
        assert!(sim.runtime().shared().cache_stats().reorder_builds > 0);

        let mut host = Engine::new(&adj, machine());
        host.set_backend(ExecBackend::Host);
        let got = host.run(&alg).unwrap();
        assert_eq!(got.state, want.state);
        assert!(
            got.iterations
                .iter()
                .all(|it| it.reorder == ReorderKind::None),
            "host iterations must report the arrival order they ran"
        );
        assert_eq!(host.runtime().cache_stats().plan_builds, 0);
        assert_eq!(host.runtime().shared().cache_stats().reorder_builds, 0);
    }
}

/// Only sessions that simulate compute the locality probe: a Host
/// engine and a default-config service (whose workers run Host) decide
/// every step with none, while one Simulate engine computes it once for
/// the graph.
#[test]
fn only_simulating_sessions_probe_the_reorder_axis() {
    let adj = sparse::generate::rmat(12, 40_000, Default::default(), 42).unwrap();
    let shared = || Engine::shared_graph(&adj, Geometry::new(2, 4), MicroArch::paper());

    let graph = shared();
    let mut host = Engine::with_shared(&graph, machine());
    host.set_backend(ExecBackend::Host);
    host.run(&Bfs::new(0)).unwrap();
    host.run(&PageRank::new(0.15, 10)).unwrap();
    assert_eq!(graph.cache_stats().reorder_probes, 0, "host engine");

    let graph = shared();
    let config = ServeConfig::default();
    assert_eq!(config.backend, ExecBackend::Host);
    let service = start_service(Arc::clone(&graph), config);
    let tickets: Vec<_> = [
        GraphQuery::Bfs { source: 0 },
        GraphQuery::Sssp { source: 5 },
        GraphQuery::PageRank {
            damping: 0.15,
            iterations: 10,
        },
    ]
    .into_iter()
    .map(|q| service.submit(q.into_job()))
    .collect();
    for t in tickets {
        t.wait().expect("served query");
    }
    service.shutdown();
    assert_eq!(graph.cache_stats().reorder_probes, 0, "default service");

    let graph = shared();
    let mut sim = Engine::with_shared(&graph, machine());
    sim.run(&Bfs::new(0)).unwrap();
    sim.run(&Bfs::new(5)).unwrap();
    assert_eq!(graph.cache_stats().reorder_probes, 1, "simulate engine");
}
