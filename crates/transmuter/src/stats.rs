//! Simulation statistics and reports.

use crate::config::{Geometry, HwConfig};
use crate::energy::EnergyBreakdown;

/// Steady-state memo counters for [`crate::Machine::run_program`]:
/// how often a memo-eligible run (recurring program id, no pending
/// reconfiguration carry) was served from a recorded bank snapshot
/// versus re-simulated and recorded for the next repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Runs replayed from the memo instead of being re-simulated.
    pub hits: u64,
    /// Memo-eligible runs that matched no recorded snapshot.
    pub misses: u64,
}

impl MemoStats {
    /// `hits / (hits + misses)`, or 0 when no run was memo-eligible.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Retired epoch-commit counters, always zero:
/// [`crate::Machine::run_program`] executes every program on one
/// sequential interpreter, so no epoch is ever committed in parallel.
/// The type stays only because benchmark reports still read its fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochStats {
    /// Epochs committed on a static proof (always 0).
    pub proven: u64,
    /// Epochs committed through a dynamic replay check (always 0).
    pub replayed: u64,
    /// Replayed epochs rolled back to sequential (always 0).
    pub rolled_back: u64,
}

/// Raw event counters accumulated during simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Ops issued (all workers).
    pub ops: u64,
    /// Global loads issued.
    pub loads: u64,
    /// Global stores issued.
    pub stores: u64,
    /// SPM reads + writes.
    pub spm_accesses: u64,
    /// Cycles spent in `Compute` ops.
    pub compute_cycles: u64,
    /// Cycles workers were blocked on memory.
    pub mem_stall_cycles: u64,
    /// Cycles workers were blocked at barriers.
    pub barrier_stall_cycles: u64,
    /// L1 cache demand hits.
    pub l1_hits: u64,
    /// L1 cache demand misses.
    pub l1_misses: u64,
    /// L2 cache demand hits.
    pub l2_hits: u64,
    /// L2 cache demand misses.
    pub l2_misses: u64,
    /// Lines installed in L2 by L1 dirty writebacks (not demand accesses,
    /// so excluded from hit-rate metrics but charged as bank energy).
    pub l2_writeback_installs: u64,
    /// Crossbar traversals through shared (arbitrated) crossbars.
    pub xbar_traversals: u64,
    /// Serialization cycles lost to same-cycle same-bank conflicts.
    pub conflict_cycles: u64,
    /// HBM demand + prefetch line reads.
    pub hbm_line_reads: u64,
    /// HBM line writebacks.
    pub hbm_line_writes: u64,
    /// Cycles requests waited on busy HBM channels.
    pub hbm_queue_cycles: u64,
    /// Prefetch lines issued.
    pub prefetches: u64,
    /// Runtime reconfigurations performed.
    pub reconfigurations: u64,
    /// Cycles charged to reconfiguration (switch + flush drain).
    pub reconfig_cycles: u64,
    /// Dirty lines written back by reconfiguration flushes.
    pub flush_writebacks: u64,
}

impl SimStats {
    /// Field-wise sum.
    pub fn merge(&self, other: &SimStats) -> SimStats {
        SimStats {
            ops: self.ops + other.ops,
            loads: self.loads + other.loads,
            stores: self.stores + other.stores,
            spm_accesses: self.spm_accesses + other.spm_accesses,
            compute_cycles: self.compute_cycles + other.compute_cycles,
            mem_stall_cycles: self.mem_stall_cycles + other.mem_stall_cycles,
            barrier_stall_cycles: self.barrier_stall_cycles + other.barrier_stall_cycles,
            l1_hits: self.l1_hits + other.l1_hits,
            l1_misses: self.l1_misses + other.l1_misses,
            l2_hits: self.l2_hits + other.l2_hits,
            l2_misses: self.l2_misses + other.l2_misses,
            l2_writeback_installs: self.l2_writeback_installs + other.l2_writeback_installs,
            xbar_traversals: self.xbar_traversals + other.xbar_traversals,
            conflict_cycles: self.conflict_cycles + other.conflict_cycles,
            hbm_line_reads: self.hbm_line_reads + other.hbm_line_reads,
            hbm_line_writes: self.hbm_line_writes + other.hbm_line_writes,
            hbm_queue_cycles: self.hbm_queue_cycles + other.hbm_queue_cycles,
            prefetches: self.prefetches + other.prefetches,
            reconfigurations: self.reconfigurations + other.reconfigurations,
            reconfig_cycles: self.reconfig_cycles + other.reconfig_cycles,
            flush_writebacks: self.flush_writebacks + other.flush_writebacks,
        }
    }

    /// L1 demand hit rate in `[0, 1]`; 1.0 when no accesses occurred.
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            1.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }

    /// L2 demand hit rate in `[0, 1]`; 1.0 when no accesses occurred.
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            1.0
        } else {
            self.l2_hits as f64 / total as f64
        }
    }
}

/// The outcome of one simulated kernel invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Geometry the run used.
    pub geometry: Geometry,
    /// Hardware configuration the run used.
    pub config: HwConfig,
    /// Total cycles from first issue to last completion.
    pub cycles: u64,
    /// Wall-clock seconds at the configured frequency.
    pub seconds: f64,
    /// Event counters for this run.
    pub stats: SimStats,
    /// Energy breakdown for this run.
    pub energy: EnergyBreakdown,
}

impl SimReport {
    /// Total energy in joules.
    pub fn joules(&self) -> f64 {
        self.energy.total()
    }

    /// Average power in watts over the run.
    pub fn watts(&self) -> f64 {
        if self.seconds > 0.0 {
            self.joules() / self.seconds
        } else {
            0.0
        }
    }

    /// Merges another report of the *same* geometry/config family into a
    /// running total (cycles and seconds add; config is kept from
    /// `self`). Used by iterative algorithms to total their iterations.
    pub fn accumulate(&mut self, other: &SimReport) {
        self.cycles += other.cycles;
        self.seconds += other.seconds;
        self.stats = self.stats.merge(&other.stats);
        self.energy = self.energy.merge(&other.energy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let a = SimStats {
            ops: 3,
            l1_hits: 5,
            ..Default::default()
        };
        let b = SimStats {
            ops: 2,
            l1_misses: 1,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.ops, 5);
        assert_eq!(m.l1_hits, 5);
        assert_eq!(m.l1_misses, 1);
    }

    #[test]
    fn hit_rates() {
        let s = SimStats {
            l1_hits: 3,
            l1_misses: 1,
            ..Default::default()
        };
        assert!((s.l1_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(SimStats::default().l1_hit_rate(), 1.0);
        assert_eq!(SimStats::default().l2_hit_rate(), 1.0);
    }
}
