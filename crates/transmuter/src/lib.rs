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
//! Simulation is trace-driven: kernels compile workloads into per-worker
//! [`Op`] streams (addresses and cycle counts, never data — see
//! DESIGN.md §2), and [`Machine::run`] walks them through the memory
//! system, reporting cycles, event statistics and energy.
//!
//! # Example
//!
//! ```
//! use transmuter::{Geometry, HwConfig, Machine, MicroArch, StreamBuilder, StreamSet};
//!
//! # fn main() -> Result<(), transmuter::SimError> {
//! let mut machine = Machine::new(Geometry::new(2, 4), MicroArch::paper());
//! machine.reconfigure(HwConfig::Scs);
//!
//! let mut streams = StreamSet::new(machine.geometry());
//! for tile in 0..2 {
//!     for pe in 0..4 {
//!         let mut p = StreamBuilder::new();
//!         p.load(0x1000 + pe as u64 * 64).compute(3).spm_load(0);
//!         streams.set_pe(tile, pe, p.into_stream());
//!     }
//! }
//! let report = machine.run(streams)?;
//! assert!(report.cycles > 0);
//! println!("{} cycles, {:.3e} J", report.cycles, report.joules());
//! # Ok(())
//! # }
//! ```

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
pub use cache::{CacheBank, ProbeResult};
pub use config::{Geometry, HwConfig, L1Mode, L2Mode, MicroArch};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use hbm::Hbm;
pub use machine::{host_cpus, Machine, SimError, StreamSet};
pub use memsys::MemorySystem;
pub use op::{Addr, Op, OpStream, StreamBuilder};
pub use program::{Program, ProgramBuilder};
pub use stats::{EpochStats, MemoStats, SimReport, SimStats};
pub use trace::{TraceCapture, TraceConfig, TraceEvent};
pub use verify::{
    detect_races, lint, Diagnostic, LintKind, ProgramSet, Race, RaceKind, RaceSite, Region,
    RegionMap, Severity,
};
