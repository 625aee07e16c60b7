//! Parallelism profiles: the job's parallelism as a function of
//! critical-path progress.
//!
//! Under the *reference schedule* (B-Greedy with an unbounded number of
//! processors) each level of a job completes in exactly one time step, so
//! the per-level width profile **is** the job's parallelism over time.
//! The profile is the object from which the paper's transition factor
//! `C_L` is derived (Section 5.2) and is also useful for plotting and for
//! characterising generated workloads.

use crate::leveled::Phase;

/// The parallelism profile of a job, stored as maximal runs of equal
/// width.
///
/// Each run is a [`Phase`]: `levels` consecutive levels of `width`
/// tasks. Adjacent runs always differ in width, so two profiles are
/// equal exactly when their per-level widths are, and every statistic
/// costs `O(runs)` (plus `O(quanta)` for the quantum walk) instead of
/// `O(span)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelismProfile {
    runs: Vec<Phase>,
}

impl ParallelismProfile {
    /// Builds a profile from per-level widths.
    ///
    /// # Panics
    ///
    /// Panics if `widths` is empty or contains zeros.
    pub fn new(widths: Vec<u64>) -> Self {
        Self::from_widths(&widths)
    }

    fn from_widths(widths: &[u64]) -> Self {
        assert!(!widths.is_empty(), "profile must cover at least one level");
        assert!(
            widths.iter().all(|&w| w > 0),
            "profile widths must be positive"
        );
        Self::from_runs(widths.iter().map(|&w| Phase::new(w, 1)))
    }

    /// Builds a profile from runs of positive width and length, merging
    /// adjacent runs of equal width.
    pub(crate) fn from_runs(runs: impl IntoIterator<Item = Phase>) -> Self {
        let mut merged: Vec<Phase> = Vec::new();
        for run in runs {
            match merged.last_mut() {
                Some(last) if last.width == run.width => last.levels += run.levels,
                _ => merged.push(run),
            }
        }
        Self { runs: merged }
    }

    /// The maximal runs of equal width, in level order.
    #[inline]
    pub fn runs(&self) -> &[Phase] {
        &self.runs
    }

    /// Number of levels (`T∞`).
    pub fn span(&self) -> u64 {
        self.runs.iter().map(|r| r.levels).sum()
    }

    /// Total work (`T1`).
    pub fn work(&self) -> u64 {
        self.runs.iter().map(Phase::work).sum()
    }

    /// Average parallelism `T1 / T∞`.
    pub fn average(&self) -> f64 {
        self.work() as f64 / self.span() as f64
    }

    /// Maximum instantaneous parallelism.
    pub fn peak(&self) -> u64 {
        self.runs.iter().map(|r| r.width).max().unwrap_or(0)
    }

    /// Average parallelism of each scheduling quantum of `quantum_levels`
    /// levels under the reference (ample-processor) schedule, where one
    /// level completes per step.
    ///
    /// The trailing partial quantum, if any, is included as the last
    /// element; callers interested only in full quanta can drop it when
    /// `span() % quantum_levels != 0`. Each quantum's width sum is exact
    /// in `u64` and divided once by the levels it covers.
    ///
    /// # Panics
    ///
    /// Panics if `quantum_levels == 0`.
    pub fn quantum_averages(&self, quantum_levels: u64) -> impl Iterator<Item = f64> + '_ {
        assert!(quantum_levels > 0, "quantum must span at least one level");
        let mut runs = self.runs.iter();
        let (mut width, mut left) = (0u64, 0u64);
        std::iter::from_fn(move || {
            let (mut sum, mut taken) = (0u64, 0u64);
            while taken < quantum_levels {
                if left == 0 {
                    let Some(run) = runs.next() else { break };
                    (width, left) = (run.width, run.levels);
                }
                let take = left.min(quantum_levels - taken);
                sum += width * take;
                taken += take;
                left -= take;
            }
            (taken > 0).then(|| sum as f64 / taken as f64)
        })
    }

    /// Coefficient of variation of the per-level parallelism — an
    /// alternative variability characteristic suggested by the paper's
    /// future-work section (Section 9).
    ///
    /// The squared deviations are summed level by level, so the result
    /// does not depend on how the levels are grouped into runs.
    pub fn coefficient_of_variation(&self) -> f64 {
        let n = self.span() as f64;
        let mean = self.average();
        if mean == 0.0 {
            return 0.0;
        }
        let mut sq = 0.0f64;
        for run in &self.runs {
            let d = run.width as f64 - mean;
            for _ in 0..run.levels {
                sq += d * d;
            }
        }
        (sq / n).sqrt() / mean
    }

    /// Number of adjacent-level parallelism changes — the "frequency of
    /// the change of parallelism" characteristic from Section 9.
    pub fn change_count(&self) -> usize {
        self.runs.len() - 1
    }
}

impl From<&crate::LeveledJob> for ParallelismProfile {
    fn from(job: &crate::LeveledJob) -> Self {
        Self::from_widths(job.widths())
    }
}

impl From<&crate::ExplicitDag> for ParallelismProfile {
    fn from(dag: &crate::ExplicitDag) -> Self {
        Self::from_widths(dag.level_sizes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LeveledJob;

    #[test]
    fn basic_stats() {
        let p = ParallelismProfile::new(vec![1, 1, 4, 4, 4, 1]);
        assert_eq!(p.span(), 6);
        assert_eq!(p.work(), 15);
        assert_eq!(p.peak(), 4);
        assert!((p.average() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantum_averages_chunks() {
        let p = ParallelismProfile::new(vec![1, 1, 4, 4, 4, 1]);
        let q: Vec<f64> = p.quantum_averages(2).collect();
        assert_eq!(q, vec![1.0, 4.0, 2.5]);
    }

    #[test]
    fn quantum_averages_partial_tail() {
        let p = ParallelismProfile::new(vec![2, 2, 2, 6]);
        let q: Vec<f64> = p.quantum_averages(3).collect();
        assert_eq!(q, vec![2.0, 6.0]);
    }

    #[test]
    fn adjacent_equal_widths_merge_into_one_run() {
        let p = ParallelismProfile::new(vec![1, 1, 4, 4, 4, 1]);
        assert_eq!(
            p.runs(),
            &[Phase::new(1, 2), Phase::new(4, 3), Phase::new(1, 1)]
        );
        let split = ParallelismProfile::from_runs([Phase::new(1, 1), Phase::new(1, 1)]);
        assert_eq!(split, ParallelismProfile::new(vec![1, 1]));
    }

    #[test]
    #[should_panic(expected = "quantum must span at least one level")]
    fn zero_quantum_rejected() {
        let _ = ParallelismProfile::new(vec![1]).quantum_averages(0);
    }

    #[test]
    fn change_count_counts_transitions() {
        let p = ParallelismProfile::new(vec![1, 1, 4, 4, 1, 1]);
        assert_eq!(p.change_count(), 2);
    }

    #[test]
    fn constant_profile_cv_zero() {
        let p = ParallelismProfile::new(vec![5, 5, 5]);
        assert_eq!(p.coefficient_of_variation(), 0.0);
        assert_eq!(p.change_count(), 0);
    }

    #[test]
    fn from_leveled_and_explicit_agree() {
        let j = LeveledJob::from_widths(vec![1, 3, 2]);
        let from_leveled = ParallelismProfile::from(&j);
        let from_explicit = ParallelismProfile::from(&j.to_explicit());
        assert_eq!(from_leveled, from_explicit);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_profile_rejected() {
        let _ = ParallelismProfile::new(vec![]);
    }
}
