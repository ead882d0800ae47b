//! Differential suite for the serving layer.
//!
//! The multi-tenant contract: an answer produced by a [`GraphService`]
//! worker session is **bit-identical** to the test-local reference run
//! (`common`) on the same graph — under every execution backend, and
//! regardless of how many clients are submitting concurrently. On top
//! of that, the
//! shared-graph split must actually amortize: N engines over one
//! [`SharedGraph`] handle build each plan exactly once, observable
//! through `cache_stats()`.
//!
//! [`GraphService`]: cosparse::GraphService
//! [`SharedGraph`]: cosparse::SharedGraph

mod common;

use common::reference_run;
use cosparse::{ExecBackend, ServeConfig};
use graph::bfs::Bfs;
use graph::pagerank::PageRank;
use graph::serve::{start_service, GraphQuery, QueryAnswer};
use graph::sssp::Sssp;
use graph::Engine;
use sparse::CooMatrix;
use std::sync::Arc;
use transmuter::{Geometry, Machine, MicroArch};

fn geometry() -> Geometry {
    Geometry::new(2, 4)
}

fn machine() -> Machine {
    Machine::new(geometry(), MicroArch::paper())
}

fn adjacency() -> CooMatrix {
    sparse::generate::power_law(512, 512, 6_000, 2.2, 11).unwrap()
}

/// The query mix every test serves: two BFS roots, two SSSP sources,
/// one PageRank snapshot — sparse→dense→sparse transitions and an
/// always-dense workload, so every dataflow the decision tree picks
/// gets exercised through the serve path.
fn queries() -> Vec<GraphQuery> {
    vec![
        GraphQuery::Bfs { source: 0 },
        GraphQuery::Bfs { source: 7 },
        GraphQuery::Sssp { source: 0 },
        GraphQuery::Sssp { source: 13 },
        GraphQuery::PageRank {
            damping: 0.85,
            iterations: 15,
        },
    ]
}

/// Ground truth: each query through the reference run.
fn ground_truth(adj: &CooMatrix) -> Vec<QueryAnswer> {
    queries()
        .into_iter()
        .map(|q| match q {
            GraphQuery::Bfs { source } => QueryAnswer::Bfs(reference_run(adj, &Bfs::new(source)).0),
            GraphQuery::Sssp { source } => {
                QueryAnswer::Sssp(reference_run(adj, &Sssp::new(source)).0)
            }
            GraphQuery::PageRank {
                damping,
                iterations,
            } => QueryAnswer::PageRank(reference_run(adj, &PageRank::new(damping, iterations)).0),
        })
        .collect()
}

/// The full query mix answered through a service running `backend`.
fn service_answers(adj: &CooMatrix, backend: ExecBackend) -> Vec<QueryAnswer> {
    let graph = Engine::shared_graph(adj, geometry(), MicroArch::paper());
    let service = start_service(
        Arc::clone(&graph),
        ServeConfig {
            workers: 2,
            batch: 4,
            queue_cap: 256,
            backend,
        },
    );
    let tickets: Vec<_> = queries()
        .into_iter()
        .map(|q| service.submit(q.into_job()))
        .collect();
    let answers = tickets
        .into_iter()
        .map(|t| t.wait().expect("query failed"))
        .collect();
    service.shutdown();
    answers
}

/// Float answers compared `to_bits`-exact: the serve path must not
/// perturb a single ULP relative to the reference.
fn assert_bits_eq(got: &QueryAnswer, want: &QueryAnswer, ctx: &str) {
    match (got, want) {
        (QueryAnswer::Bfs(g), QueryAnswer::Bfs(w)) => {
            assert_eq!(g, w, "{ctx}: bfs parents diverged");
        }
        (QueryAnswer::Sssp(g), QueryAnswer::Sssp(w))
        | (QueryAnswer::PageRank(g), QueryAnswer::PageRank(w)) => {
            assert_eq!(g.len(), w.len(), "{ctx}: state length");
            for (v, (a, b)) in g.iter().zip(w).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{ctx} vertex {v}: {a} vs {b}");
            }
        }
        _ => panic!("{ctx}: answer variants differ"),
    }
}

/// Simulate and Host services both answer the query mix
/// bit-identically to the reference.
#[test]
fn served_answers_match_the_reference_on_every_backend() {
    let adj = adjacency();
    let want = ground_truth(&adj);
    for backend in [ExecBackend::Simulate, ExecBackend::Host] {
        let got = service_answers(&adj, backend);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_bits_eq(g, w, &format!("{backend:?} query {i}"));
        }
    }
}

/// Eight client threads submitting the full mix concurrently get the
/// same bit-exact answers a lone client would: per-query state lives in
/// the session, so interleaving queries from many tenants cannot bleed
/// frontier state between them.
#[test]
fn concurrent_clients_get_bit_identical_answers() {
    const CLIENTS: usize = 8;
    let adj = adjacency();
    let want = ground_truth(&adj);
    let graph = Engine::shared_graph(&adj, geometry(), MicroArch::paper());
    let service = start_service(
        Arc::clone(&graph),
        ServeConfig {
            workers: 4,
            batch: 4,
            queue_cap: 256,
            backend: ExecBackend::Host,
        },
    );

    let per_client: Vec<Vec<QueryAnswer>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let service = &service;
                s.spawn(move || {
                    // Stagger submission order per client so workers see
                    // genuinely interleaved query types.
                    let mut qs = queries();
                    let shift = c % qs.len();
                    qs.rotate_left(shift);
                    let tickets: Vec<_> = qs.iter().map(|q| service.submit(q.into_job())).collect();
                    let mut answers: Vec<_> = tickets
                        .into_iter()
                        .map(|t| t.wait().expect("query failed"))
                        .collect();
                    answers.rotate_right(shift);
                    answers
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    let stats = service.shutdown();
    assert_eq!(stats.submitted, (CLIENTS * want.len()) as u64);
    assert_eq!(stats.completed, stats.submitted);

    for (c, answers) in per_client.iter().enumerate() {
        for (i, (g, w)) in answers.iter().zip(&want).enumerate() {
            assert_bits_eq(g, w, &format!("client {c} query {i}"));
        }
    }
}

/// The same-source memo must be invisible in the answers: every cached
/// query resolves bit-identically to a fresh `submit` of the same
/// query, and bumping the graph's content epoch invalidates the memo so
/// the next submission recomputes (observable through `cache_hits`).
#[test]
fn cached_answers_are_bit_identical_and_epoch_scoped() {
    let adj = adjacency();
    let graph = Engine::shared_graph(&adj, geometry(), MicroArch::paper());
    let service = start_service(
        Arc::clone(&graph),
        ServeConfig {
            workers: 2,
            batch: 4,
            queue_cap: 256,
            backend: ExecBackend::Simulate,
        },
    );

    // Fresh answers through the plain path.
    let fresh: Vec<QueryAnswer> = queries()
        .into_iter()
        .map(|q| service.submit(q.into_job()).wait().expect("query failed"))
        .collect();

    // First cached round warms the memo, second round must hit it.
    for round in 0..2 {
        let got: Vec<QueryAnswer> = queries()
            .into_iter()
            .map(|q| q.submit_cached(&service).wait().expect("query failed"))
            .collect();
        for (i, (g, w)) in got.iter().zip(&fresh).enumerate() {
            assert_bits_eq(g, w, &format!("cached round {round} query {i}"));
        }
    }
    let warm = queries().len() as u64;
    assert_eq!(service.stats().cache_hits, warm, "second round all hits");

    // An epoch bump (graph content changed) empties the memo: the next
    // cached submission recomputes instead of hitting.
    graph.bump_epoch();
    let q = GraphQuery::Bfs { source: 0 };
    let recomputed = q.submit_cached(&service).wait().expect("query failed");
    assert_bits_eq(&recomputed, &fresh[0], "post-epoch recompute");
    let stats = service.shutdown();
    assert_eq!(stats.cache_hits, warm, "epoch bump forced a recompute");
    assert_eq!(stats.completed, stats.submitted - warm);
}

/// Satellite check for the shared-handle constructor: N engines over
/// one `SharedGraph` build layout, CSC and every plan exactly once —
/// `cache_stats()` shows zero additional plan builds after the first
/// engine's run — while producing states identical to N fully
/// independent engines.
#[test]
fn engines_on_one_shared_graph_build_plans_once() {
    const ENGINES: usize = 4;
    let adj = adjacency();
    let want: Vec<Vec<u32>> = (0..ENGINES)
        .map(|_| {
            Engine::new(&adj, machine())
                .run(&Bfs::new(0))
                .unwrap()
                .state
        })
        .collect();

    let graph = Engine::shared_graph(&adj, geometry(), MicroArch::paper());
    let mut builds_after_first = 0;
    for (i, want_state) in want.iter().enumerate() {
        let mut engine = Engine::with_shared(&graph, machine());
        let state = engine.run(&Bfs::new(0)).unwrap().state;
        assert_eq!(&state, want_state, "engine {i} state diverged");
        let cs = graph.cache_stats();
        if i == 0 {
            builds_after_first = cs.plan_builds;
            assert!(builds_after_first >= 1, "first run must build plans");
        } else {
            assert_eq!(
                cs.plan_builds, builds_after_first,
                "engine {i} rebuilt a plan the first engine already built"
            );
        }
    }
    let cs = graph.cache_stats();
    // Later engines re-bound existing plans instead of building:
    // at least one registry hit per additional engine.
    assert!(
        cs.plan_hits >= (ENGINES - 1) as u64,
        "expected registry hits from engines 2..N, got {}",
        cs.plan_hits
    );
}
