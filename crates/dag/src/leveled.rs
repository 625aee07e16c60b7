//! Leveled (barrier-synchronous) jobs described by a width profile.
//!
//! A [`LeveledJob`] is a sequence of levels; level `l` contains
//! `widths[l]` unit tasks, and every task of level `l + 1` depends on all
//! tasks of level `l` (a barrier). Data-parallel fork-join jobs — the
//! workload class of the paper's evaluation (Section 7.1) — have exactly
//! this shape: serial phases are runs of width-1 levels and parallel
//! phases are runs of width-`w` levels.
//!
//! The barrier structure means a scheduler's progress through the job is
//! fully described by `(current level, tasks completed in that level)`,
//! which is what enables the `O(levels)` fast-forward executor in
//! `abg-sched`.

use crate::explicit::{DagBuilder, ExplicitDag};

/// One phase of a fork-join job: `levels` consecutive levels of `width`
/// tasks each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// Tasks per level in this phase (the degree of parallelism).
    pub width: u64,
    /// Number of consecutive levels of this width.
    pub levels: u64,
}

impl Phase {
    /// A phase of `levels` levels, `width` tasks each.
    pub fn new(width: u64, levels: u64) -> Self {
        Self { width, levels }
    }

    /// Total tasks in the phase.
    pub fn work(&self) -> u64 {
        self.width * self.levels
    }
}

/// A job given by its per-level width profile with barrier semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeveledJob {
    widths: Vec<u64>,
    work: u64,
}

impl LeveledJob {
    /// Builds a job from an explicit per-level width profile.
    ///
    /// # Panics
    ///
    /// Panics if `widths` is empty or contains a zero width — a level with
    /// no tasks is meaningless.
    pub fn from_widths(widths: Vec<u64>) -> Self {
        assert!(!widths.is_empty(), "a job must have at least one level");
        assert!(
            widths.iter().all(|&w| w > 0),
            "every level must contain at least one task"
        );
        let work = widths.iter().sum();
        Self { widths, work }
    }

    /// A purely serial job: `levels` levels of width 1.
    pub fn serial(levels: u64) -> Self {
        Self::from_widths(vec![1; levels as usize])
    }

    /// A constant-parallelism job: `levels` levels of width `width`.
    ///
    /// This is the shape used by the paper's Figures 1 and 4 (a job whose
    /// parallelism "stays constant").
    pub fn constant(width: u64, levels: u64) -> Self {
        Self::from_widths(vec![width; levels as usize])
    }

    /// Concatenates phases into a fork-join job.
    pub fn from_phases(phases: &[Phase]) -> Self {
        let total: u64 = phases.iter().map(|p| p.levels).sum();
        let mut widths = Vec::with_capacity(total as usize);
        for p in phases {
            assert!(p.width > 0 && p.levels > 0, "phases must be non-empty");
            widths.extend(std::iter::repeat_n(p.width, p.levels as usize));
        }
        Self::from_widths(widths)
    }

    /// The per-level width profile.
    #[inline]
    pub fn widths(&self) -> &[u64] {
        &self.widths
    }

    /// Work `T1`: total number of unit tasks.
    #[inline]
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Critical-path length `T∞`: the number of levels (each level
    /// contributes exactly one task to the longest chain).
    #[inline]
    pub fn span(&self) -> u64 {
        self.widths.len() as u64
    }

    /// Average parallelism `T1 / T∞`.
    pub fn average_parallelism(&self) -> f64 {
        self.work as f64 / self.span() as f64
    }

    /// Maximum width over all levels.
    pub fn max_width(&self) -> u64 {
        self.widths.iter().copied().max().unwrap_or(0)
    }

    /// Lowers the job to an [`ExplicitDag`] with one task per unit of work
    /// and a full bipartite edge set between consecutive levels (the
    /// barrier).
    ///
    /// The lowering is quadratic in level width and is intended for
    /// cross-checking the fast-forward executor against the per-task
    /// executor on small jobs, not for production workloads.
    pub fn to_explicit(&self) -> ExplicitDag {
        let mut b = DagBuilder::with_capacity(self.work as usize);
        let mut prev: Vec<crate::TaskId> = Vec::new();
        for &w in &self.widths {
            let mut cur = Vec::with_capacity(w as usize);
            for _ in 0..w {
                cur.push(b.add_task());
            }
            for &p in &prev {
                for &c in &cur {
                    b.add_edge(p, c).expect("generated edges are valid");
                }
            }
            prev = cur;
        }
        b.build().expect("generated job is acyclic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_job() {
        let j = LeveledJob::serial(4);
        assert_eq!(j.work(), 4);
        assert_eq!(j.span(), 4);
        assert_eq!(j.average_parallelism(), 1.0);
        assert_eq!(j.max_width(), 1);
    }

    #[test]
    fn constant_job() {
        let j = LeveledJob::constant(10, 8);
        assert_eq!(j.work(), 80);
        assert_eq!(j.span(), 8);
        assert_eq!(j.average_parallelism(), 10.0);
    }

    #[test]
    fn phases_concatenate() {
        let j = LeveledJob::from_phases(&[Phase::new(1, 2), Phase::new(5, 3), Phase::new(1, 1)]);
        assert_eq!(j.widths(), &[1, 1, 5, 5, 5, 1]);
        assert_eq!(j.work(), 2 + 15 + 1);
        assert_eq!(j.span(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_profile_panics() {
        let _ = LeveledJob::from_widths(vec![]);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn zero_width_panics() {
        let _ = LeveledJob::from_widths(vec![1, 0, 1]);
    }

    #[test]
    fn to_explicit_preserves_structure() {
        let j = LeveledJob::from_widths(vec![1, 3, 2]);
        let d = j.to_explicit();
        assert_eq!(d.work(), j.work());
        assert_eq!(d.span(), j.span());
        assert_eq!(d.level_sizes(), &[1, 3, 2]);
        // Barrier: each level-2 task has 3 predecessors.
        let n2: Vec<_> = d.tasks().filter(|&t| d.level(t) == 2).collect();
        assert_eq!(n2.len(), 2);
        for t in n2 {
            assert_eq!(d.in_degree(t), 3);
        }
    }

    #[test]
    fn phase_work() {
        assert_eq!(Phase::new(7, 3).work(), 21);
    }
}
