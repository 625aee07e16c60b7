//! Intrinsic job statistics shared by all job representations.
//!
//! The paper characterises a job by its work `T1`, critical-path length
//! `T∞`, and transition factor `C_L` (Section 5.2). [`JobStructure`]
//! abstracts the first two over both job representations, and
//! [`transition_factor`] measures `C_L` from a parallelism profile.

use crate::profile::ParallelismProfile;
use crate::{ExplicitDag, LeveledJob};

/// Common intrinsic structure of a job, independent of how it is stored.
pub trait JobStructure {
    /// Work `T1`: total number of unit tasks.
    fn work(&self) -> u64;

    /// Critical-path length `T∞`: tasks on the longest dependency chain.
    fn span(&self) -> u64;

    /// The job's per-level parallelism profile.
    fn profile(&self) -> ParallelismProfile;

    /// Average parallelism `T1 / T∞`.
    fn average_parallelism(&self) -> f64 {
        self.work() as f64 / self.span() as f64
    }

    /// Empirical transition factor for quantum length `quantum_levels`
    /// (in levels); see [`transition_factor`].
    fn transition_factor(&self, quantum_levels: u64) -> f64 {
        transition_factor(&self.profile(), quantum_levels)
    }
}

impl JobStructure for LeveledJob {
    fn work(&self) -> u64 {
        LeveledJob::work(self)
    }
    fn span(&self) -> u64 {
        LeveledJob::span(self)
    }
    fn profile(&self) -> ParallelismProfile {
        ParallelismProfile::from(self)
    }
}

impl JobStructure for ExplicitDag {
    fn work(&self) -> u64 {
        ExplicitDag::work(self)
    }
    fn span(&self) -> u64 {
        ExplicitDag::span(self)
    }
    fn profile(&self) -> ParallelismProfile {
        ParallelismProfile::from(self)
    }
}

/// Measures the transition factor `C_L` of a job from its parallelism
/// profile under the reference (ample-processor) schedule.
///
/// Following Section 5.2 of the paper, `C_L ≥ 1` is the maximal ratio of
/// the average parallelism of any two adjacent full quanta:
///
/// ```text
/// 1 / C_L  ≤  A(q) / A(q - 1)  ≤  C_L      for q ≥ 1,   A(0) = 1.
/// ```
///
/// Under the reference schedule each level takes one step, so a quantum
/// spans `quantum_levels` consecutive levels and `A(q)` is the mean width
/// across them. Only full quanta participate (a trailing partial quantum
/// is excluded), but the defined `A(0) = 1` boundary is always included,
/// so a job that opens at high parallelism has a correspondingly high
/// `C_L`.
///
/// The paper treats `C_L` as an intrinsic characteristic derived from a
/// worst-case schedule; the reference schedule is the natural witness and
/// is what the paper's workload generator controls ("varying the level of
/// parallelism in the parallel phases").
pub fn transition_factor(profile: &ParallelismProfile, quantum_levels: u64) -> f64 {
    let averages = profile.quantum_averages(quantum_levels);
    // Full quanta only: the trailing partial one counts only when the
    // job is shorter than a single quantum.
    let full = (profile.span() / quantum_levels).max(1);
    let mut prev = 1.0f64; // A(0) = 1 by definition
    let mut c = 1.0f64;
    for a in averages.take(full as usize) {
        let ratio = if a > prev { a / prev } else { prev / a };
        c = c.max(ratio);
        prev = a;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_job_starting_serial_has_factor_of_its_width_step() {
        // serial prologue keeps A(1) near 1; the jump to width 8 dominates.
        let p = ParallelismProfile::new(vec![1, 1, 1, 1, 8, 8, 8, 8]);
        let c = transition_factor(&p, 4);
        assert!((c - 8.0).abs() < 1e-12, "c = {c}");
    }

    #[test]
    fn serial_job_has_unit_factor() {
        let p = ParallelismProfile::new(vec![1; 16]);
        assert_eq!(transition_factor(&p, 4), 1.0);
    }

    #[test]
    fn opening_parallel_phase_counts_against_a0() {
        // A(0) = 1 and A(1) = 6, so C_L = 6 even with no later variation.
        let p = ParallelismProfile::new(vec![6; 8]);
        assert_eq!(transition_factor(&p, 4), 6.0);
    }

    #[test]
    fn downward_transitions_count_symmetrically() {
        let p = ParallelismProfile::new(vec![1, 1, 10, 10, 1, 1]);
        let c = transition_factor(&p, 2);
        assert_eq!(c, 10.0);
    }

    #[test]
    fn partial_tail_quantum_is_trimmed() {
        // Last quantum covers a single level of width 100; it is not a
        // full quantum and must not inflate the factor.
        let p = ParallelismProfile::new(vec![1, 1, 2, 2, 100]);
        let c = transition_factor(&p, 2);
        assert_eq!(c, 2.0);
    }

    #[test]
    fn trait_wiring_leveled_vs_explicit() {
        let j = crate::LeveledJob::from_widths(vec![1, 1, 4, 4]);
        let e = j.to_explicit();
        assert_eq!(JobStructure::work(&j), JobStructure::work(&e));
        assert_eq!(JobStructure::span(&j), JobStructure::span(&e));
        assert_eq!(j.transition_factor(2), e.transition_factor(2));
        assert!((j.average_parallelism() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn factor_at_least_one() {
        let p = ParallelismProfile::new(vec![3, 3, 3]);
        assert!(transition_factor(&p, 3) >= 1.0);
    }
}
