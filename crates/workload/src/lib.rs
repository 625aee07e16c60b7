//! Paper-style workload generation (Section 7.1).
//!
//! The paper evaluates the schedulers on "data-parallel jobs that have
//! fork-join structures, which alternate between serial and parallel
//! phases", generating
//!
//! * jobs with **different transition factors** by varying the level of
//!   parallelism in the parallel phases, and
//! * jobs with **variable work and critical-path length** at a fixed
//!   factor by varying the phase lengths;
//!
//! and, for the multiprogrammed experiments, **job sets with different
//! loads**, where load is "the average parallelism of the entire job set
//! normalized by the total number of processors".
//!
//! This crate packages those generators: [`paper_job`] for the
//! single-job sweep (Figure 5), [`JobSetSpec`] for the load sweep
//! (Figure 6), and [`release`] for arrival processes.
//!
//! ```
//! use abg_workload::{paper_job, JobSetSpec};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! // One Figure-5 probe job pinned to transition factor 12 (L = 50).
//! let job = paper_job(12, 50, 3, &mut rng);
//! assert_eq!(job.max_width(), 12);
//!
//! // A Figure-6 job set targeting load 1.0 on 32 processors.
//! let mut spec = JobSetSpec::paper_default(1.0);
//! spec.processors = 32;
//! spec.quantum_len = 50;
//! spec.max_factor = 16;
//! let set = spec.generate(&mut rng);
//! assert!(set.load() >= 1.0);
//! assert!(set.len() <= 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dagfile;
pub mod jobset;
pub mod profiles;
pub mod release;
pub mod workflow;

pub use dagfile::{load_dag, parse_dag, save_dag, write_dag, DagFileError, MAX_DAG_TASKS};
pub use jobset::{JobSet, JobSetSpec};
pub use release::{
    expected_work, expected_work_of, mean_gap_for_utilization, splitmix_seed, ArrivalProcess,
    ArrivalStream, ArrivalSubstream, ReleaseSchedule,
};
pub use workflow::WorkflowKind;

use abg_dag::{ForkJoinSpec, PhasedJob};
use rand::{Rng, RngExt as _};

/// Generates one paper-style fork-join job targeting transition factor
/// `factor` on a machine with quantum length `quantum_len` (steps, which
/// equal levels under the reference schedule).
///
/// The job alternates `pairs` serial/parallel phase pairs whose lengths
/// are uniform in `[quantum_len, 3·quantum_len]` levels, with parallel
/// width exactly `factor` — the paper's recipe for pinning the factor
/// while varying `T1` and `T∞`.
///
/// # Panics
///
/// Panics if `factor == 0`, `quantum_len == 0` or `pairs == 0`.
pub fn paper_job<R: Rng + ?Sized>(
    factor: u64,
    quantum_len: u64,
    pairs: u64,
    rng: &mut R,
) -> PhasedJob {
    ForkJoinSpec::with_transition_factor(factor, quantum_len, pairs).generate_phased(rng)
}

/// A smaller variant of [`paper_job`] whose phase lengths are uniform in
/// `[quantum_len / scale_down, quantum_len]` levels — used by tests and
/// benches that cannot afford paper-scale jobs. The measured transition
/// factor is less tightly pinned (phases shorter than a quantum blend in
/// the quantum averages).
///
/// # Panics
///
/// Panics if any argument is zero.
pub fn scaled_job<R: Rng + ?Sized>(
    factor: u64,
    quantum_len: u64,
    pairs: u64,
    scale_down: u64,
    rng: &mut R,
) -> PhasedJob {
    assert!(factor > 0 && quantum_len > 0 && pairs > 0 && scale_down > 0);
    let lo = (quantum_len / scale_down).max(1);
    let spec = ForkJoinSpec {
        serial_levels: lo..=quantum_len.max(lo),
        parallel_levels: lo..=quantum_len.max(lo),
        width: factor..=factor,
        pairs,
    };
    spec.generate_phased(rng)
}

/// Samples a job whose parallel width is drawn uniformly from
/// `[2, max_factor]` — the mixed-factor population used to build job
/// sets.
///
/// # Panics
///
/// Panics if `max_factor < 2`, or other arguments are zero.
pub fn mixed_factor_job<R: Rng + ?Sized>(
    max_factor: u64,
    quantum_len: u64,
    pairs: u64,
    rng: &mut R,
) -> PhasedJob {
    assert!(max_factor >= 2, "need at least factor 2");
    let factor = rng.random_range(2..=max_factor);
    paper_job(factor, quantum_len, pairs, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abg_dag::JobStructure;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_job_pins_transition_factor() {
        let mut rng = StdRng::seed_from_u64(11);
        for c in [2u64, 10, 50] {
            let job = paper_job(c, 16, 3, &mut rng);
            let measured = job.transition_factor(16);
            assert!(
                measured >= c as f64 * 0.5 && measured <= c as f64 + 1e-9,
                "c={c} measured={measured}"
            );
            assert_eq!(job.max_width(), c);
        }
    }

    #[test]
    fn paper_job_varies_work_at_fixed_factor() {
        let mut rng = StdRng::seed_from_u64(5);
        let works: Vec<u64> = (0..8)
            .map(|_| paper_job(10, 16, 3, &mut rng).work())
            .collect();
        let all_same = works.windows(2).all(|w| w[0] == w[1]);
        assert!(!all_same, "work should vary across samples: {works:?}");
    }

    #[test]
    fn scaled_job_is_smaller() {
        let mut rng = StdRng::seed_from_u64(3);
        let big = paper_job(10, 64, 3, &mut rng).work();
        let small = scaled_job(10, 64, 3, 8, &mut rng).work();
        assert!(small < big, "scaled {small} !< paper {big}");
    }

    #[test]
    fn mixed_factor_jobs_span_the_range() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut widths = std::collections::HashSet::new();
        for _ in 0..64 {
            widths.insert(mixed_factor_job(10, 8, 2, &mut rng).max_width());
        }
        assert!(
            widths.len() > 3,
            "expected a spread of factors, got {widths:?}"
        );
        assert!(widths.iter().all(|&w| (2..=10).contains(&w)));
    }
}
