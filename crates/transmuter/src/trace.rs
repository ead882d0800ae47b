//! Execution traces: what one reference run issued, worker by worker.
//!
//! [`crate::Machine::run_traced`] returns one [`TraceEvent`] per op it
//! issues, in global issue order. Barrier ops are recorded at *arrival*
//! (`done == cycle`), so a worker's subsequence of the trace is exactly
//! its program order.

use crate::op::Op;

/// One recorded event: worker `worker` issued `op` at `cycle` and became
/// ready again at `done`.
///
/// For barrier ops `done` equals `cycle` (the arrival cycle); the
/// release cycle is not known at record time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Issue cycle.
    pub cycle: u64,
    /// Completion cycle (next issue opportunity).
    pub done: u64,
    /// Global worker id.
    pub worker: u32,
    /// The operation issued.
    pub op: Op,
}
