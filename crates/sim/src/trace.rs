//! Per-quantum trace records.

use abg_sched::QuantumStats;

/// Everything the two-level scheduler saw and did in one quantum of one
/// job: the standing request, the grant, the availability under the
/// policy, and the measured statistics.
///
/// Traces are the raw material for the paper's trajectory figures
/// (Figures 1 and 4) and for the quantum classification of the trim
/// analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantumRecord {
    /// Quantum index `q`, 1-based as in the paper.
    pub index: u32,
    /// Absolute step at which the quantum started.
    pub start_step: u64,
    /// The request `d(q)` standing when the quantum was allocated.
    pub request: f64,
    /// The allotment `a(q)` granted by the allocator.
    pub allotment: u32,
    /// The availability `p(q)` under the allocator's policy, if the
    /// engine recorded it (`a(q) = min(ceil d(q), p(q))`).
    pub availability: Option<u32>,
    /// The statistics measured by the task scheduler.
    pub stats: QuantumStats,
}
