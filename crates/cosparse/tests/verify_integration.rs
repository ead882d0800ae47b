//! End-to-end verification of the shipped kernels: under every legal
//! software x hardware pairing, the checked builds a verified session
//! runs must lint clean against the layout's address map and be
//! race-free.

use cosparse::{CoSparse, Frontier, HwConfig, Policy, SwConfig};
use transmuter::{Geometry, Machine, MicroArch};

fn runtime(n: usize, nnz: usize, geom: Geometry) -> CoSparse {
    let m = sparse::generate::uniform(n, n, nnz, 17).unwrap();
    let mut rt = CoSparse::new(&m, Machine::new(geom, MicroArch::paper()));
    rt.set_verify(true);
    rt
}

fn check(sw: SwConfig, hw: HwConfig, density: f64) {
    let geom = Geometry::new(2, 4);
    let n = 256;
    let mut rt = runtime(n, 2000, geom);
    rt.set_policy(Policy::Fixed(sw, hw));
    let frontier = match sw {
        SwConfig::InnerProduct => Frontier::Dense(sparse::generate::random_dense_vector(n, 5)),
        SwConfig::OuterProduct => {
            Frontier::Sparse(sparse::generate::random_sparse_vector(n, density, 5).unwrap())
        }
    };
    let out = rt
        .spmv(&frontier)
        .unwrap_or_else(|e| panic!("{sw:?}/{hw}: {e}"));
    assert!(out.report.cycles > 0);
    let report = rt.verification();
    assert!(report.runs >= 1, "{sw:?}/{hw}: nothing was verified");
    assert!(
        report.races.is_empty(),
        "{sw:?}/{hw}: shipped kernel races: {:?}",
        report.races
    );
}

#[test]
fn ip_sc_verifies_clean() {
    check(SwConfig::InnerProduct, HwConfig::Sc, 1.0);
}

#[test]
fn ip_scs_verifies_clean() {
    check(SwConfig::InnerProduct, HwConfig::Scs, 1.0);
}

#[test]
fn op_pc_verifies_clean() {
    check(SwConfig::OuterProduct, HwConfig::Pc, 0.05);
}

#[test]
fn op_ps_verifies_clean() {
    check(SwConfig::OuterProduct, HwConfig::Ps, 0.05);
}

#[test]
fn dataflow_switch_verifies_both_kernels() {
    let geom = Geometry::new(2, 4);
    let n = 256;
    let mut rt = runtime(n, 2000, geom);
    rt.set_policy(Policy::Fixed(SwConfig::InnerProduct, HwConfig::Sc));
    let dense = Frontier::Dense(sparse::generate::random_dense_vector(n, 5));
    rt.spmv(&dense).unwrap();
    rt.set_policy(Policy::Fixed(SwConfig::OuterProduct, HwConfig::Pc));
    let sparse_f = Frontier::Sparse(sparse::generate::random_sparse_vector(n, 0.05, 6).unwrap());
    rt.spmv(&sparse_f).unwrap();
    let report = rt.verification();
    assert!(report.runs >= 2, "two spmvs, got {}", report.runs);
    assert!(report.races.is_empty(), "{:?}", report.races);
}

#[test]
fn conversion_kernels_verify_clean() {
    use cosparse::kernels::convert::{self, Direction};
    use cosparse::{Layout, OpProfile};
    use transmuter::ProgramBuilder;

    let geom = Geometry::new(2, 4);
    let n = 256;
    let layout = Layout::new(n, n, 2000, geom, 1);
    let mut builder = ProgramBuilder::new();
    for dir in [Direction::DenseToSparse, Direction::SparseToDense] {
        let mut machine = Machine::new(geom, MicroArch::paper());
        builder.begin(geom, machine.config(), machine.uarch());
        builder.bind_regions(&layout.regions());
        convert::build(&layout, geom, n, 40, dir, OpProfile::scalar(), &mut builder);
        let prog = builder.finish();
        machine
            .run_program(prog)
            .unwrap_or_else(|e| panic!("{dir:?}: {e}"));
        let races = prog.races().expect("a checked build attaches its races");
        assert!(races.is_empty(), "{dir:?}: {races:?}");
    }
}

/// A verified session's report carries the analyzer lints of the
/// programs it checked: IP x SCS leaves SPM stores that are never read
/// back, which the analyzer reports as dead SPM writes. An unverified
/// session reports none.
#[test]
fn verified_session_reports_analyzer_lints() {
    use transmuter::{LintKind, Severity};

    let geom = Geometry::new(2, 4);
    let n = 256;
    let x = Frontier::Dense(sparse::generate::random_dense_vector(n, 5));
    let mut rt = runtime(n, 2000, geom);
    rt.set_policy(Policy::Fixed(SwConfig::InnerProduct, HwConfig::Scs));
    rt.spmv(&x).unwrap();
    let lints = &rt.verification().analyzer;
    assert!(!lints.is_empty(), "no analyzer lints reported");
    for d in lints {
        assert_eq!(d.severity, Severity::Warning, "{d}");
        assert!(matches!(d.kind, LintKind::DeadSpmWrite { .. }), "{d}");
    }

    rt.set_verify(false);
    rt.spmv(&x).unwrap();
    assert!(rt.verification().analyzer.is_empty());
}

#[test]
fn auto_policy_verifies_across_iterations() {
    // A BFS-like frontier sweep under the decision tree: every chosen
    // configuration must verify.
    let geom = Geometry::new(2, 2);
    let n = 512;
    let mut rt = runtime(n, 4000, geom);
    let mut frontier =
        Frontier::Sparse(sparse::generate::random_sparse_vector(n, 0.01, 7).unwrap());
    for _ in 0..3 {
        let out = rt.spmv(&frontier).unwrap();
        frontier = out.result;
        if frontier.nnz() == 0 {
            break;
        }
    }
    let report = rt.verification();
    assert!(report.runs >= 3);
    assert!(report.races.is_empty(), "{:?}", report.races);
}

#[test]
fn scs_on_single_pe_geometry_rejected_not_panicking() {
    // The machine cannot even reconfigure into SCS on a 1-PE-per-tile
    // geometry; a verified runtime must reject statically instead.
    let geom = Geometry::new(2, 1);
    let mut rt = runtime(64, 300, geom);
    rt.set_policy(Policy::Fixed(SwConfig::InnerProduct, HwConfig::Scs));
    let x = Frontier::Dense(sparse::generate::random_dense_vector(64, 2));
    let err = rt.spmv(&x).unwrap_err();
    assert!(
        matches!(err, transmuter::SimError::Rejected { .. }),
        "{err}"
    );
}

#[test]
fn scs_on_single_pe_geometry_rejected_without_verification() {
    // The static rejection does not depend on verification: an
    // unverified session must not panic in the reconfigure either.
    let geom = Geometry::new(2, 1);
    let m = sparse::generate::uniform(64, 64, 300, 17).unwrap();
    let mut rt = CoSparse::new(&m, Machine::new(geom, MicroArch::paper()));
    rt.set_policy(Policy::Fixed(SwConfig::InnerProduct, HwConfig::Scs));
    let x = Frontier::Dense(sparse::generate::random_dense_vector(64, 2));
    let err = rt.spmv(&x).unwrap_err();
    assert!(
        matches!(err, transmuter::SimError::Rejected { .. }),
        "{err}"
    );
}

#[test]
fn verification_report_resets_on_toggle() {
    let geom = Geometry::new(1, 2);
    let mut rt = runtime(64, 300, geom);
    rt.set_policy(Policy::Fixed(SwConfig::InnerProduct, HwConfig::Sc));
    let x = Frontier::Dense(sparse::generate::random_dense_vector(64, 2));
    rt.spmv(&x).unwrap();
    assert!(rt.verification().runs >= 1);
    rt.set_verify(true);
    assert_eq!(rt.verification().runs, 0);
}

#[test]
fn verification_off_records_nothing() {
    let geom = Geometry::new(1, 2);
    let m = sparse::generate::uniform(64, 64, 300, 17).unwrap();
    let mut rt = CoSparse::new(&m, Machine::new(geom, MicroArch::paper()));
    let x = Frontier::Dense(sparse::generate::random_dense_vector(64, 2));
    rt.spmv(&x).unwrap();
    assert_eq!(rt.verification().runs, 0);
}
