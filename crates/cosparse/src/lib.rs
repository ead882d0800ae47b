//! The CoSPARSE runtime — the DAC 2021 paper's contribution: a software
//! and hardware reconfigurable SpMV framework for graph analytics.
//!
//! Before every SpMV invocation the runtime walks a decision tree
//! (paper Figure 2) keyed on the frontier density and the operand
//! footprints:
//!
//! * **software** — inner-product ([`SwConfig::InnerProduct`], dense
//!   dataflow over row-major COO) vs outer-product
//!   ([`SwConfig::OuterProduct`], sparse dataflow over CSC with per-PE
//!   heap merge);
//! * **hardware** — one of four memory configurations of the
//!   Transmuter-like substrate ([`HwConfig`]): SC/SCS for IP, PC/PS for
//!   OP.
//!
//! It then reconfigures the simulated machine (≤10-cycle switch + flush
//! drain), converts the frontier representation when the dataflow
//! changed, generates workload-balanced kernel streams, and returns the
//! simulated timing together with the functionally-computed result.
//!
//! Graph algorithms plug in through the [`GraphOp`] trait (paper
//! Table I): BFS, SSSP, PR and CF live in the `graph` crate.
//!
//! # Example
//!
//! ```
//! use cosparse::{CoSparse, Frontier};
//! use transmuter::{Geometry, Machine, MicroArch};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let matrix = sparse::generate::uniform(1 << 12, 1 << 12, 40_000, 42)?;
//! let machine = Machine::new(Geometry::new(2, 4), MicroArch::paper());
//! let mut runtime = CoSparse::new(&matrix, machine);
//!
//! let frontier = Frontier::Sparse(sparse::generate::random_sparse_vector(
//!     1 << 12,
//!     0.005,
//!     7,
//! )?);
//! let out = runtime.spmv(&frontier)?;
//! println!(
//!     "{}/{} in {} cycles",
//!     out.software, out.hardware, out.report.cycles
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod balance;
pub mod heuristics;
pub mod host;
pub mod kernels;
pub mod layout;
pub mod ops;
mod runtime;
pub mod serve;
pub mod shared;
pub mod verify;

pub use heuristics::{
    decide, decide_exact, default_format, Decision, MatrixSummary, SwConfig, Thresholds,
};
pub use host::{ExecBackend, HostOperand};
pub use layout::Layout;
pub use ops::{apply, GraphOp, OpProfile, SpmvOp, Update};
pub use runtime::{CacheStats, CoSparse, Frontier, Policy, SpmvOutcome, StepOutcome};
pub use serve::{GraphService, ServeConfig, ServeError, ServeStats, Ticket};
pub use shared::{SharedCacheStats, SharedGraph};
pub use verify::VerifyReport;
// Re-export so downstream crates name the hardware configs, storage
// formats and locality reorderings from here.
pub use sparse::{FormatKind, ReorderKind};
pub use transmuter::HwConfig;
