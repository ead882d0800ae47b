//! Shared harness for the figure/table regenerator binaries.
//!
//! Each binary under `src/bin/` reproduces one table or figure of the
//! paper (see DESIGN.md §4 for the index). Everything here is plumbing:
//! environment-controlled scaling, fixed-configuration SpMV runs, and
//! aligned table printing.
//!
//! Scaling: the paper's calibration matrices are ~4M nonzeros on
//! dimensions 131k–1M, and its application graphs reach 69M edges —
//! hours of single-core simulation. By default every binary shrinks
//! dimensions and nonzero counts by [`scale`] (default 4); set
//! `COSPARSE_SCALE=1` (or `COSPARSE_FULL_SCALE=1`) to reproduce at
//! paper scale. Crossovers and who-wins shapes are stable across
//! scales; absolute cycle counts are not.

use cosparse::{CoSparse, Frontier, Policy, SwConfig, Thresholds};
use sparse::CooMatrix;
use transmuter::{Geometry, HwConfig, Machine, MicroArch, SimReport};

/// Matrix-dimension divisor taken from the environment
/// (`COSPARSE_SCALE`, default 4; `COSPARSE_FULL_SCALE=1` forces 1).
pub fn scale() -> usize {
    if std::env::var("COSPARSE_FULL_SCALE")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        return 1;
    }
    std::env::var("COSPARSE_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(4)
}

/// The paper's calibration matrix dimensions (Figures 4–6), scaled.
pub fn fig_matrix_dims() -> Vec<usize> {
    let s = scale();
    [131_072usize, 262_144, 524_288, 1_048_576]
        .iter()
        .map(|n| n / s)
        .collect()
}

/// The paper's fixed nonzero budget (~4M across Figures 4–6), scaled.
pub fn fig_nnz() -> usize {
    4_000_000 / scale()
}

/// The vector-density sweep of Figures 4–6.
pub const DENSITIES: [f64; 5] = [0.0025, 0.005, 0.01, 0.02, 0.04];

/// Geometries swept in Figure 4.
pub fn fig4_geometries() -> Vec<Geometry> {
    vec![
        Geometry::new(4, 8),
        Geometry::new(4, 16),
        Geometry::new(4, 32),
        Geometry::new(8, 8),
        Geometry::new(8, 16),
        Geometry::new(8, 32),
    ]
}

/// Geometries swept in Figures 5 and 6.
pub fn fig56_geometries() -> Vec<Geometry> {
    vec![
        Geometry::new(4, 8),
        Geometry::new(4, 16),
        Geometry::new(8, 8),
        Geometry::new(8, 16),
    ]
}

/// Runs one SpMV with a fixed software/hardware configuration on a
/// fresh machine (cold caches — identical starting conditions for every
/// configuration under comparison).
///
/// The frontier representation is matched to the dataflow so no
/// conversion cost is charged.
///
/// # Panics
///
/// Panics on simulator errors (these binaries are harnesses).
pub fn run_spmv_fixed(
    matrix: &CooMatrix,
    geometry: Geometry,
    sw: SwConfig,
    hw: HwConfig,
    vector_density: f64,
    seed: u64,
) -> SimReport {
    let machine = Machine::new(geometry, MicroArch::paper());
    let mut rt = CoSparse::new(matrix, machine);
    rt.set_policy(Policy::Fixed(sw, hw));
    let sv = sparse::generate::random_sparse_vector(matrix.cols(), vector_density, seed)
        .expect("valid density");
    let frontier = match sw {
        SwConfig::OuterProduct => Frontier::Sparse(sv),
        SwConfig::InnerProduct => Frontier::Dense(sv.to_dense(0.0)),
    };
    rt.spmv(&frontier).expect("simulation succeeds").report
}

/// Runs one SpMV under the automatic decision tree, returning the
/// chosen configuration alongside the report.
///
/// # Panics
///
/// Panics on simulator errors.
pub fn run_spmv_auto(
    matrix: &CooMatrix,
    geometry: Geometry,
    vector_density: f64,
    seed: u64,
) -> cosparse::SpmvOutcome {
    let machine = Machine::new(geometry, MicroArch::paper());
    let mut rt = CoSparse::new(matrix, machine);
    rt.set_thresholds(Thresholds::paper());
    let sv = sparse::generate::random_sparse_vector(matrix.cols(), vector_density, seed)
        .expect("valid density");
    let decision = rt.decide_exact(sv.nnz(), &cosparse::OpProfile::scalar());
    let frontier = match decision.software {
        SwConfig::OuterProduct => Frontier::Sparse(sv),
        SwConfig::InnerProduct => Frontier::Dense(sv.to_dense(0.0)),
    };
    rt.spmv(&frontier).expect("simulation succeeds")
}

/// Linear interpolation of the density at which a speedup series
/// crosses 1.0 (the paper's *crossover vector density*). Returns `None`
/// if the series never crosses.
pub fn crossover_density(densities: &[f64], speedups: &[f64]) -> Option<f64> {
    for w in 0..densities.len().saturating_sub(1) {
        let (d0, d1) = (densities[w], densities[w + 1]);
        let (s0, s1) = (speedups[w], speedups[w + 1]);
        if (s0 - 1.0) * (s1 - 1.0) <= 0.0 && s0 != s1 {
            let t = (1.0 - s0) / (s1 - s0);
            return Some(d0 + t * (d1 - d0));
        }
    }
    None
}

/// Prints an aligned table with a title line.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Geometric mean of positive values; 0.0 for empty input.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-300).ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_interpolates() {
        let d = [0.0025, 0.005, 0.01, 0.02, 0.04];
        let s = [4.0, 2.0, 1.5, 0.5, 0.2];
        let c = crossover_density(&d, &s).unwrap();
        assert!(c > 0.01 && c < 0.02, "crossover {c}");
    }

    #[test]
    fn crossover_none_when_always_above() {
        let d = [0.0025, 0.005];
        let s = [4.0, 2.0];
        assert_eq!(crossover_density(&d, &s), None);
    }

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn fixed_run_is_deterministic() {
        let m = sparse::generate::uniform(1024, 1024, 8000, 3).unwrap();
        let g = Geometry::new(2, 4);
        let a = run_spmv_fixed(&m, g, SwConfig::OuterProduct, HwConfig::Pc, 0.01, 7);
        let b = run_spmv_fixed(&m, g, SwConfig::OuterProduct, HwConfig::Pc, 0.01, 7);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn auto_run_picks_op_for_sparse_vectors() {
        let m = sparse::generate::uniform(1 << 14, 1 << 14, 200_000, 3).unwrap();
        let out = run_spmv_auto(&m, Geometry::new(2, 4), 0.001, 5);
        assert_eq!(out.software, SwConfig::OuterProduct);
    }
}
