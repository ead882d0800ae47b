//! Cross-crate integration tests: the full pipeline from matrix
//! generation through the CoSPARSE runtime and graph engine to the
//! baselines, checked against host references.

use baselines::ligra::Ligra;
use baselines::xeon::XeonModel;
use cosparse::{CoSparse, Frontier, HwConfig, Policy, SwConfig};
use graph::{bfs::Bfs, cf::Cf, pagerank::PageRank, sssp::Sssp, Engine};
use sparse::{CooMatrix, CsrMatrix, DenseVector};
use transmuter::{Geometry, Machine, MicroArch};

fn machine(t: usize, p: usize) -> Machine {
    Machine::new(Geometry::new(t, p), MicroArch::paper())
}

/// Every software/hardware combination must produce the same functional
/// SpMV result (timing differs, math must not).
#[test]
fn all_configurations_agree_functionally() {
    let n = 2048;
    let matrix = sparse::generate::uniform(n, n, 30_000, 5).unwrap();
    let x = sparse::generate::random_sparse_vector(n, 0.02, 9).unwrap();
    let want = matrix.spmv_dense(&x.to_dense(0.0)).unwrap();

    let combos = [
        (SwConfig::InnerProduct, HwConfig::Sc),
        (SwConfig::InnerProduct, HwConfig::Scs),
        (SwConfig::OuterProduct, HwConfig::Sc),
        (SwConfig::OuterProduct, HwConfig::Pc),
        (SwConfig::OuterProduct, HwConfig::Ps),
    ];
    for (sw, hw) in combos {
        let mut rt = CoSparse::new(&matrix, machine(2, 4));
        rt.set_policy(Policy::Fixed(sw, hw));
        let frontier = match sw {
            SwConfig::OuterProduct => Frontier::Sparse(x.clone()),
            SwConfig::InnerProduct => Frontier::Dense(x.to_dense(0.0)),
        };
        let out = rt.spmv(&frontier).unwrap();
        let got: DenseVector<f32> = match out.result {
            Frontier::Dense(v) => v,
            Frontier::Sparse(v) => v.to_dense(0.0),
        };
        for i in 0..n {
            assert!(
                (got[i] - want[i]).abs() < 1e-3 * want[i].abs().max(1.0),
                "{sw}/{hw} row {i}: {} vs {}",
                got[i],
                want[i]
            );
        }
    }
}

/// The auto policy must never be catastrophically worse than the best
/// fixed configuration (it may pay small conversion/reconfig costs).
#[test]
fn auto_policy_tracks_the_best_configuration() {
    // Densities chosen on the unambiguous sides of the crossover; in
    // the ambiguous middle the paper-calibrated thresholds can misfire
    // at reduced scale (see EXPERIMENTS.md, Fig 4 discussion).
    let n = 1 << 13;
    let matrix = sparse::generate::uniform(n, n, 120_000, 6).unwrap();
    for density in [0.002, 0.7] {
        let x = sparse::generate::random_sparse_vector(n, density, 4).unwrap();

        let mut auto = CoSparse::new(&matrix, machine(2, 8));
        let out = auto.spmv(&Frontier::Sparse(x.clone())).unwrap();

        let mut best = u64::MAX;
        for (sw, hw) in [
            (SwConfig::InnerProduct, HwConfig::Sc),
            (SwConfig::InnerProduct, HwConfig::Scs),
            (SwConfig::OuterProduct, HwConfig::Pc),
            (SwConfig::OuterProduct, HwConfig::Ps),
        ] {
            let mut rt = CoSparse::new(&matrix, machine(2, 8));
            rt.set_policy(Policy::Fixed(sw, hw));
            let frontier = match sw {
                SwConfig::OuterProduct => Frontier::Sparse(x.clone()),
                SwConfig::InnerProduct => Frontier::Dense(x.to_dense(0.0)),
            };
            best = best.min(rt.spmv(&frontier).unwrap().report.cycles);
        }
        assert!(
            out.report.cycles <= best.saturating_mul(3),
            "density {density}: auto {} vs best fixed {best}",
            out.report.cycles
        );
    }
}

/// BFS, SSSP, PR and CF all match their references on one shared graph,
/// through the full simulate-and-evaluate path.
#[test]
fn all_four_algorithms_match_references() {
    let adjacency = sparse::generate::rmat(10, 8_000, Default::default(), 33).unwrap();
    let csr = CsrMatrix::from(&adjacency);
    let root = 0u32;

    let mut engine = Engine::new(&adjacency, machine(2, 4));
    let bfs = engine.run(&Bfs::new(root)).unwrap();
    let (want_parents, _) = graph::bfs::reference(&csr, root);
    assert_eq!(bfs.state, want_parents, "bfs parents");

    let mut engine = Engine::new(&adjacency, machine(2, 4));
    let sssp = engine.run(&Sssp::new(root)).unwrap();
    let want_dist = graph::sssp::reference(&csr, root);
    for (v, (&a, &b)) in sssp.state.iter().zip(&want_dist).enumerate() {
        assert_eq!(a.is_infinite(), b.is_infinite(), "sssp vertex {v}");
        if a.is_finite() {
            assert!((a - b).abs() < 1e-4, "sssp vertex {v}: {a} vs {b}");
        }
    }

    let mut engine = Engine::new(&adjacency, machine(2, 4));
    let pr = engine.run(&PageRank::new(0.15, 6)).unwrap();
    let want_pr = graph::pagerank::reference(&csr, 0.15, 6);
    for (v, (&a, &b)) in pr.state.iter().zip(&want_pr).enumerate() {
        assert!((a - b).abs() < 1e-5, "pr vertex {v}");
    }

    let mut engine = Engine::new(&adjacency, machine(2, 4));
    let cf = engine.run(&Cf::new(0.01, 0.02, 3)).unwrap();
    let want_cf = graph::cf::reference(&adjacency, 0.01, 0.02, 3);
    for (v, (got, want)) in cf.state.iter().zip(&want_cf).enumerate() {
        for (k, (&a, &b)) in got.iter().zip(want).enumerate() {
            assert!((a - b).abs() < 1e-4, "cf vertex {v} feature {k}");
        }
    }
}

/// CoSPARSE and Ligra compute the same BFS levels and SSSP distances on
/// a suite-analogue graph.
#[test]
fn cosparse_and_ligra_agree() {
    let adjacency = sparse::generate::rmat(11, 20_000, Default::default(), 9).unwrap();
    let csr = CsrMatrix::from(&adjacency);
    let root = 3u32;

    let ligra = Ligra::new(&adjacency, XeonModel::e7_4860());
    let ligra_bfs = ligra.bfs(root);
    let (_, want_levels) = graph::bfs::reference(&csr, root);
    assert_eq!(ligra_bfs.state, want_levels);

    let mut engine = Engine::new(&adjacency, machine(2, 4));
    let ours = engine.run(&Bfs::new(root)).unwrap();
    // Same reachability set.
    for v in 0..csr.rows() {
        assert_eq!(
            ours.state[v] == graph::bfs::UNVISITED,
            ligra_bfs.state[v] == u32::MAX,
            "vertex {v} reachability"
        );
    }

    let ligra_sssp = ligra.sssp(root);
    let mut engine = Engine::new(&adjacency, machine(2, 4));
    let ours = engine.run(&Sssp::new(root)).unwrap();
    for v in 0..csr.rows() {
        let (a, b) = (ours.state[v], ligra_sssp.state[v]);
        assert_eq!(a.is_infinite(), b.is_infinite(), "sssp vertex {v}");
        if a.is_finite() {
            assert!((a - b).abs() < 1e-4, "sssp vertex {v}: {a} vs {b}");
        }
    }
}

/// An iterative run exercises real runtime reconfiguration: SSSP on a
/// social graph must switch dataflow at least twice (sparse → dense →
/// sparse; SSSP's relaxation tail keeps the frontier sparse long
/// enough to switch back) and the costs must appear in the reports.
#[test]
fn sssp_reconfigures_and_charges_for_it() {
    let adjacency = sparse::generate::rmat(13, 100_000, Default::default(), 5).unwrap();
    let mut engine = Engine::new(&adjacency, machine(2, 8));
    let run = engine.run(&Sssp::new(0)).unwrap();

    let mut switches = 0;
    for w in run.iterations.windows(2) {
        if w[0].software != w[1].software {
            switches += 1;
        }
    }
    assert!(
        switches >= 2,
        "expected sparse→dense→sparse, saw {switches} switches"
    );
    let total_reconfigs: u64 = run
        .iterations
        .iter()
        .map(|i| i.report.stats.reconfigurations)
        .sum();
    assert!(total_reconfigs >= 2, "reconfiguration not charged");
    let conversions: u64 = run
        .iterations
        .iter()
        .map(|i| i.report.stats.loads + i.report.stats.stores)
        .sum();
    assert!(conversions > 0);
}

/// Suite analogues generate and run end to end (smallest two graphs).
#[test]
fn suite_graphs_run_bfs() {
    use sparse::generate::SuiteGraph;
    for g in [SuiteGraph::Vsp, SuiteGraph::Twitter] {
        let spec = g.spec().scaled(8);
        let adjacency = spec.generate(2).unwrap();
        let mut engine = Engine::new(&adjacency, machine(4, 4));
        let run = engine.run(&Bfs::new(0)).unwrap();
        let reached = run
            .state
            .iter()
            .filter(|p| **p != graph::bfs::UNVISITED)
            .count();
        assert!(
            reached > adjacency.rows() / 10,
            "{}: only reached {reached}",
            g.name()
        );
    }
}

/// The energy model orders configurations sensibly: an OP pass over a
/// tiny frontier must cost far less energy than a full IP pass.
#[test]
fn energy_scales_with_work() {
    let n = 1 << 13;
    let matrix = sparse::generate::uniform(n, n, 100_000, 8).unwrap();
    let sparse_x = sparse::generate::random_sparse_vector(n, 0.001, 2).unwrap();

    let mut rt = CoSparse::new(&matrix, machine(2, 4));
    rt.set_policy(Policy::Fixed(SwConfig::OuterProduct, HwConfig::Pc));
    let op = rt.spmv(&Frontier::Sparse(sparse_x.clone())).unwrap();

    let mut rt = CoSparse::new(&matrix, machine(2, 4));
    rt.set_policy(Policy::Fixed(SwConfig::InnerProduct, HwConfig::Sc));
    let ip = rt.spmv(&Frontier::Dense(sparse_x.to_dense(0.0))).unwrap();

    assert!(
        op.report.joules() * 5.0 < ip.report.joules(),
        "OP {} J should be ≪ IP {} J at 0.1% density",
        op.report.joules(),
        ip.report.joules()
    );
}

/// Matrix Market round trip feeds the runtime.
#[test]
fn matrix_market_to_spmv() {
    let matrix = sparse::generate::uniform(512, 512, 4000, 12).unwrap();
    let mut buf = Vec::new();
    sparse::io::write_matrix_market(&matrix, &mut buf).unwrap();
    let back = sparse::io::read_matrix_market(buf.as_slice()).unwrap();

    let x = sparse::generate::random_dense_vector(512, 3);
    let mut rt = CoSparse::new(&back, machine(1, 4));
    let out = rt.spmv(&Frontier::Dense(x.clone())).unwrap();
    let want = matrix.spmv_dense(&x).unwrap();
    match out.result {
        Frontier::Dense(y) => {
            for i in 0..512 {
                assert!((y[i] - want[i]).abs() < 1e-3 * want[i].abs().max(1.0));
            }
        }
        other => panic!("expected dense, got {other:?}"),
    }
}

/// CF on a bipartite-style rating graph reduces training error through
/// the full engine.
#[test]
fn cf_learns_on_ratings() {
    let base = sparse::generate::uniform(200, 200, 2000, 13).unwrap();
    let mut triplets = Vec::new();
    for (u, v, w) in base.iter() {
        triplets.push((u, v, w));
        if u != v {
            triplets.push((v, u, w));
        }
    }
    let ratings = CooMatrix::from_triplets(200, 200, triplets).unwrap();
    let alg = Cf::new(0.01, 0.05, 8);
    let before = graph::cf::training_error(
        &ratings,
        &(0..200)
            .map(|v| graph::cf::initial_features(v as u32))
            .collect::<Vec<_>>(),
    );
    let mut engine = Engine::new(&ratings, machine(2, 4));
    let run = engine.run(&alg).unwrap();
    let after = graph::cf::training_error(&ratings, &run.state);
    assert!(after < before * 0.9, "training error {before} → {after}");
}
