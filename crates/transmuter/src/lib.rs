//! A cycle-approximate simulator of a Transmuter-like reconfigurable
//! manycore — the hardware substrate CoSPARSE reconfigures (paper §II-C,
//! Table II).
//!
//! The machine is `A x B`: `A` tiles of `B` lightweight in-order PEs
//! plus one LCP per tile, behind a two-level reconfigurable memory
//! hierarchy. Each level's banks can operate as caches or scratchpads,
//! shared (arbitrated crossbar) or private (transparent crossbar); the
//! four combinations CoSPARSE uses are [`HwConfig::Sc`],
//! [`HwConfig::Scs`], [`HwConfig::Pc`] and [`HwConfig::Ps`]. Runtime
//! reconfiguration costs ≤10 cycles plus a dirty-line drain.
//!
//! Simulation is trace-driven: kernels emit per-worker [`Op`] streams
//! (addresses and cycle counts, never data — see DESIGN.md §2) into a
//! [`ProgramBuilder`], which lowers and lints them into a [`Program`];
//! [`Machine::run_program`] walks that program through the memory
//! system, reporting cycles, event statistics and energy.
//!
//! # Example
//!
//! ```
//! use transmuter::{Geometry, HwConfig, Machine, MicroArch, ProgramBuilder};
//!
//! # fn main() -> Result<(), transmuter::SimError> {
//! let mut machine = Machine::new(Geometry::new(2, 4), MicroArch::paper());
//! machine.reconfigure(HwConfig::Scs);
//!
//! let mut builder = ProgramBuilder::new();
//! builder.begin(machine.geometry(), machine.config(), machine.uarch());
//! for tile in 0..2 {
//!     for pe in 0..4 {
//!         builder.begin_pe(tile, pe);
//!         builder.load(0x1000 + pe as u64 * 64);
//!         builder.compute(3);
//!         builder.spm_load(0);
//!     }
//! }
//! let program = builder.finish();
//! assert!(program.lint_clean());
//! let report = machine.run_program(program)?;
//! assert!(report.cycles > 0);
//! println!("{} cycles, {:.3e} J", report.cycles, report.joules());
//! # Ok(())
//! # }
//! ```
//!
//! The op-stream reference is [`Machine::run`] over a [`ProgramSet`]:
//! every worker's ops in a plain buffer, one event-loop step per op,
//! with no lint on the way. It is the oracle the program path is tested
//! against; [`Machine::run_traced`] is the same run returning its
//! trace. [`detect_races`] reads the same [`ProgramSet`] without running
//! it: races are a program-order fact.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analyze;
mod cache;
mod config;
mod energy;
mod hbm;
mod machine;
mod memsys;
mod op;
mod program;
mod stats;
mod trace;
pub mod verify;

pub use analyze::{analyze, Analysis};
pub use config::{Geometry, HwConfig, L1Mode, L2Mode, MicroArch};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use machine::{Machine, SimError};
pub use op::{Addr, Op, StreamBuilder};
pub use program::{Program, ProgramBuilder};
pub use stats::{EpochStats, MemoStats, SimReport, SimStats};
pub use trace::TraceEvent;
pub use verify::{
    detect_races, lint, Diagnostic, LintKind, ProgramSet, Race, RaceKind, RaceSite, Region,
    RegionMap, Severity,
};
