//! Phase-structured fork-join jobs with *pipelined* parallel phases.
//!
//! A [`PhasedJob`] is a sequence of [`Phase`]s. Phase `i` of width `w`
//! and length `k` consists of `w` independent chains of `k` unit tasks;
//! consecutive phases are separated by a join: every chain of phase
//! `i + 1` depends on all chains of phase `i` finishing.
//!
//! The difference from the barrier-per-level [`LeveledJob`](crate::LeveledJob) model is
//! *inside* a phase: chains pipeline freely, so a job in a width-`w`
//! phase always has exactly `w` ready tasks (one per live chain) and any
//! allotment `a ≤ w` achieves full utilization. Under a barrier-per-level
//! model, an allotment that does not divide the width loses up to
//! `1 − w/(a·⌈w/a⌉)` of its cycles at every level boundary, which
//! distorts utilization-feedback schedulers like A-Greedy in a way the
//! paper's workloads do not show. The pipelined model is therefore the
//! default workload shape; the barrier model is kept for ablation.

use crate::explicit::{DagBuilder, ExplicitDag};
use crate::leveled::Phase;
use crate::profile::ParallelismProfile;
use crate::stats::JobStructure;
use crate::TaskId;

/// A fork-join job given by its phase list, with pipelined chains inside
/// each phase and a join between consecutive phases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhasedJob {
    phases: Vec<Phase>,
    work: u64,
    span: u64,
}

impl PhasedJob {
    /// Builds a job from its phase list.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase has zero width or
    /// length.
    pub fn new(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "a job must have at least one phase");
        assert!(
            phases.iter().all(|p| p.width > 0 && p.levels > 0),
            "every phase must have positive width and length"
        );
        let work = phases.iter().map(Phase::work).sum();
        let span = phases.iter().map(|p| p.levels).sum();
        Self { phases, work, span }
    }

    /// A constant-parallelism job: one phase of `width` chains, `levels`
    /// long (the synthetic job of the paper's Figures 1 and 4).
    pub fn constant(width: u64, levels: u64) -> Self {
        Self::new(vec![Phase::new(width, levels)])
    }

    /// The phase list.
    #[inline]
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Work `T1`.
    #[inline]
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Critical-path length `T∞` (one task per level of each phase).
    #[inline]
    pub fn span(&self) -> u64 {
        self.span
    }

    /// Average parallelism `T1 / T∞`.
    pub fn average_parallelism(&self) -> f64 {
        self.work as f64 / self.span as f64
    }

    /// Maximum phase width.
    pub fn max_width(&self) -> u64 {
        self.phases.iter().map(|p| p.width).max().unwrap_or(0)
    }

    /// Lowers the job to an [`ExplicitDag`]: chains inside each phase,
    /// full bipartite join edges between the last level of one phase and
    /// the first level of the next.
    ///
    /// Quadratic in phase width at the joins; intended for cross-checking
    /// the fast executor on small jobs.
    pub fn to_explicit(&self) -> ExplicitDag {
        let mut b = DagBuilder::with_capacity(self.work as usize);
        // Tails of the previous phase's chains (its last level).
        let mut prev_tails: Vec<TaskId> = Vec::new();
        for phase in &self.phases {
            let mut tails = Vec::with_capacity(phase.width as usize);
            for _ in 0..phase.width {
                let head = b.add_task();
                for &t in &prev_tails {
                    b.add_edge(t, head).expect("generated edges are valid");
                }
                let mut prev = head;
                for _ in 1..phase.levels {
                    let next = b.add_task();
                    b.add_edge(prev, next).expect("generated edges are valid");
                    prev = next;
                }
                tails.push(prev);
            }
            prev_tails = tails;
        }
        b.build().expect("generated job is acyclic")
    }
}

impl JobStructure for PhasedJob {
    fn work(&self) -> u64 {
        PhasedJob::work(self)
    }
    fn span(&self) -> u64 {
        PhasedJob::span(self)
    }
    fn profile(&self) -> ParallelismProfile {
        ParallelismProfile::from_runs(self.phases.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let j = PhasedJob::new(vec![Phase::new(1, 3), Phase::new(8, 5), Phase::new(1, 2)]);
        assert_eq!(j.work(), 3 + 40 + 2);
        assert_eq!(j.span(), 10);
        assert_eq!(j.max_width(), 8);
        assert!((j.average_parallelism() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn constant_is_single_phase() {
        let j = PhasedJob::constant(10, 20);
        assert_eq!(j.phases().len(), 1);
        assert_eq!(j.work(), 200);
        assert_eq!(j.span(), 20);
    }

    #[test]
    fn lowering_preserves_structure() {
        let j = PhasedJob::new(vec![Phase::new(1, 2), Phase::new(3, 2), Phase::new(2, 1)]);
        let d = j.to_explicit();
        assert_eq!(d.work(), j.work());
        assert_eq!(d.span(), j.span());
        assert_eq!(d.level_sizes(), &[1, 1, 3, 3, 2]);
        // Join: each head of the 2-wide phase depends on all 3 tails.
        let heads: Vec<_> = d.tasks().filter(|&t| d.level(t) == 4).collect();
        assert_eq!(heads.len(), 2);
        for h in heads {
            assert_eq!(d.in_degree(h), 3);
        }
        // Inside the 3-wide phase, second-level tasks have one parent.
        let inner: Vec<_> = d.tasks().filter(|&t| d.level(t) == 3).collect();
        for t in inner {
            assert_eq!(d.in_degree(t), 1, "chains pipeline inside a phase");
        }
    }

    #[test]
    fn profile_expands_phases() {
        let j = PhasedJob::new(vec![Phase::new(2, 2), Phase::new(5, 1)]);
        assert_eq!(
            JobStructure::profile(&j),
            ParallelismProfile::new(vec![2, 2, 5])
        );
        assert!(j.transition_factor(1) >= 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_job_rejected() {
        let _ = PhasedJob::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive width")]
    fn zero_width_phase_rejected() {
        let _ = PhasedJob::new(vec![Phase::new(0, 3)]);
    }
}
