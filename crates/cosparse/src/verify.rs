//! Runtime integration of the [`transmuter::verify`] layer.
//!
//! Under [`crate::CoSparse::set_verify`] every program a session runs is
//! a *checked build* ([`transmuter::ProgramBuilder::bind_regions`]): the
//! builder lints each op against the active hardware configuration and
//! the [`crate::Layout`]'s address map as it is emitted, and derives the
//! program's data races from its barrier structure and its analyzer
//! lints ([`transmuter::analyze()`]) from the same access records. An
//! error finding rejects the run ([`transmuter::SimError::Rejected`]);
//! warnings, races and analyzer lints accumulate in a [`VerifyReport`].
//!
//! Verification is opt-in because a checked build records every access
//! it emits — fine for tests and kernel development, extra host work
//! for large sweeps. It never changes what runs: a checked program
//! times exactly like the unchecked one.

use transmuter::verify::{Diagnostic, Race, Severity};
use transmuter::Program;

/// Accumulated findings across the checked runs of one runtime.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Warning-severity lint findings (error findings abort the run via
    /// [`transmuter::SimError::Rejected`] instead of landing here).
    pub warnings: Vec<Diagnostic>,
    /// Data races of the checked programs.
    pub races: Vec<Race>,
    /// Analyzer lints of the checked programs (dead stores, dead SPM
    /// writes, cross-epoch hazards, redundant barriers; at most 32 per
    /// program, see [`transmuter::Analysis::diagnostics`]).
    pub analyzer: Vec<Diagnostic>,
    /// Number of checked program runs.
    pub runs: usize,
}

impl VerifyReport {
    /// True if no race was detected.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty()
    }

    /// Folds in one run of the checked program `prog`.
    pub(crate) fn record(&mut self, prog: &Program) {
        self.warnings.extend(
            prog.lint_diagnostics()
                .iter()
                .filter(|d| d.severity == Severity::Warning)
                .cloned(),
        );
        self.races
            .extend_from_slice(prog.races().unwrap_or_default());
        if let Some(analysis) = prog.analysis() {
            self.analyzer.extend_from_slice(analysis.diagnostics());
        }
        self.runs += 1;
    }
}
