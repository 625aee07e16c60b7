//! Job sets with a target system load (the Figure-6 workload).

use crate::mixed_factor_job;
use crate::release::ReleaseSchedule;
use abg_dag::PhasedJob;
use rand::Rng;

/// Specification of a multiprogrammed job set.
///
/// The paper defines **load** as "the average parallelism of the entire
/// job set normalized by the total number of processors"; the generator
/// keeps adding mixed-factor jobs until the accumulated average
/// parallelism `Σ_j T1_j/T∞_j` reaches `load · P` (always at least one
/// job, and never more than `max_jobs` — Theorem 5 needs `|J| ≤ P`).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSetSpec {
    /// Machine size `P`.
    pub processors: u32,
    /// Quantum length `L` (steps = levels under the reference schedule).
    pub quantum_len: u64,
    /// Target load (average parallelism of the set / `P`).
    pub load: f64,
    /// Largest parallel-phase width sampled for member jobs.
    pub max_factor: u64,
    /// Phase pairs per member job.
    pub pairs: u64,
    /// Hard cap on the number of jobs (defaults should keep `|J| ≤ P`).
    pub max_jobs: usize,
    /// Arrival process.
    pub release: ReleaseSchedule,
}

impl JobSetSpec {
    /// A paper-style spec: `P = 128`, `L = 1000`, factors up to 100,
    /// batched arrivals, `|J| ≤ P`.
    pub fn paper_default(load: f64) -> Self {
        Self {
            processors: 128,
            quantum_len: 1000,
            load,
            max_factor: 100,
            pairs: 3,
            max_jobs: 128,
            release: ReleaseSchedule::Batched,
        }
    }

    /// Generates a job set meeting the spec.
    ///
    /// # Panics
    ///
    /// Panics if `load <= 0`, `processors == 0`, or `max_jobs == 0`.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> JobSet {
        assert!(self.load > 0.0, "load must be positive");
        assert!(self.processors > 0, "machine must have processors");
        assert!(self.max_jobs > 0, "need room for at least one job");
        let target = self.load * self.processors as f64;
        let mut jobs = Vec::new();
        let mut accumulated = 0.0;
        while accumulated < target && jobs.len() < self.max_jobs {
            let job = mixed_factor_job(self.max_factor, self.quantum_len, self.pairs, rng);
            accumulated += job.average_parallelism();
            jobs.push(job);
        }
        let releases = self.release.sample(jobs.len(), rng);
        JobSet {
            jobs,
            releases,
            processors: self.processors,
            quantum_len: self.quantum_len,
        }
    }
}

/// A generated job set: the member jobs, their release steps, and the
/// machine they were sized for.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSet {
    /// Member jobs.
    pub jobs: Vec<PhasedJob>,
    /// Release step of each job (same indexing as `jobs`).
    pub releases: Vec<u64>,
    /// Machine size the set was sized against.
    pub processors: u32,
    /// Quantum length the set was sized against.
    pub quantum_len: u64,
}

impl JobSet {
    /// The achieved load: `Σ_j (T1_j/T∞_j) / P`.
    pub fn load(&self) -> f64 {
        self.jobs
            .iter()
            .map(PhasedJob::average_parallelism)
            .sum::<f64>()
            / self.processors as f64
    }

    /// Total work of the set.
    pub fn total_work(&self) -> u64 {
        self.jobs.iter().map(PhasedJob::work).sum()
    }

    /// Number of member jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_spec(load: f64) -> JobSetSpec {
        JobSetSpec {
            processors: 32,
            quantum_len: 8,
            load,
            max_factor: 10,
            pairs: 2,
            max_jobs: 32,
            release: ReleaseSchedule::Batched,
        }
    }

    #[test]
    fn load_reaches_target_approximately() {
        let mut rng = StdRng::seed_from_u64(21);
        for load in [0.5, 1.0, 2.0] {
            let set = small_spec(load).generate(&mut rng);
            assert!(!set.is_empty());
            // Load overshoots by at most one job's parallelism.
            assert!(set.load() >= load || set.len() == set.jobs.capacity().max(32));
            assert!(
                set.load() <= load + 10.0 / 32.0 + 1.0,
                "load {}",
                set.load()
            );
        }
    }

    #[test]
    fn max_jobs_caps_the_set() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut spec = small_spec(100.0);
        spec.max_jobs = 5;
        let set = spec.generate(&mut rng);
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn releases_match_job_count() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut spec = small_spec(1.0);
        spec.release = ReleaseSchedule::Uniform { horizon: 50 };
        let set = spec.generate(&mut rng);
        assert_eq!(set.jobs.len(), set.releases.len());
    }

    #[test]
    fn paper_default_respects_job_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut spec = JobSetSpec::paper_default(6.0);
        // Shrink member jobs so the test is cheap; the cap logic is what
        // is under test.
        spec.quantum_len = 8;
        spec.pairs = 1;
        let set = spec.generate(&mut rng);
        assert!(set.len() <= 128, "Theorem 5 requires |J| ≤ P");
    }

    #[test]
    #[should_panic(expected = "load must be positive")]
    fn zero_load_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = small_spec(0.0).generate(&mut rng);
    }
}
