//! Multi-job simulation: a job set space-sharing the machine.

use crate::probe::TraceProbe;
use crate::quantum_core::{CompletedJob, QuantumCore};
use crate::trace::QuantumRecord;
use abg_alloc::Allocator;
use abg_control::Controller;
use abg_sched::JobExecutor;

/// Final per-job measurements of a multiprogrammed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobOutcome {
    /// Release step of the job (as submitted; participation starts at
    /// the first quantum boundary at or after it).
    pub release: u64,
    /// Absolute completion step.
    pub completion: u64,
    /// Work `T1` of the job.
    pub work: u64,
    /// Critical-path length `T∞` of the job.
    pub span: u64,
    /// Processor cycles wasted on this job.
    pub waste: u64,
    /// Quanta in which the job was live.
    pub quanta: u64,
}

impl JobOutcome {
    /// Response time: completion minus release.
    pub fn response_time(&self) -> u64 {
        self.completion - self.release
    }
}

/// Global measurements of a multiprogrammed run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiJobOutcome {
    /// Per-job outcomes in submission order.
    pub jobs: Vec<JobOutcome>,
    /// Makespan: the step at which the last job completed.
    pub makespan: u64,
    /// Total processor cycles wasted across the set.
    pub total_waste: u64,
    /// Total quanta simulated.
    pub quanta: u64,
    /// Per-job quantum traces (same indexing as `jobs`); empty unless
    /// the simulator was built with [`MultiJobSim::with_traces`].
    pub traces: Vec<Vec<QuantumRecord>>,
}

impl MultiJobOutcome {
    /// Mean response time `R` over the job set.
    ///
    /// An empty job set has no responses to average; the mean is defined
    /// as `0.0` (never `NaN`), so downstream ratios and fingerprints stay
    /// finite.
    pub fn mean_response_time(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs
            .iter()
            .map(|j| j.response_time() as f64)
            .sum::<f64>()
            / self.jobs.len() as f64
    }

    /// Total work of the job set.
    pub fn total_work(&self) -> u64 {
        self.jobs.iter().map(|j| j.work).sum()
    }
}

/// A two-level multiprogrammed simulation: jobs (each with its own task
/// scheduler and request calculator) space-share a machine through one
/// OS allocator.
///
/// Time is quantum-synchronous: all jobs share quantum boundaries, a job
/// released mid-quantum joins at the next boundary, and a job finishing
/// mid-quantum holds its allotment until the boundary (counted as
/// waste), which matches the paper's accounting.
///
/// This is the *closed-system* configuration of [`QuantumCore`] over
/// boxed executors and controllers: every job is admitted as it is
/// added and the machine runs until it drains. The open-system
/// (sustained-arrival) driver in `abg-queue` runs the same core.
///
/// ```
/// use abg_alloc::DynamicEquiPartition;
/// use abg_control::AControl;
/// use abg_dag::PhasedJob;
/// use abg_sched::PipelinedExecutor;
/// use abg_sim::MultiJobSim;
///
/// let mut sim = MultiJobSim::new(DynamicEquiPartition::new(16), 10);
/// for _ in 0..4 {
///     sim.add_job(
///         Box::new(PipelinedExecutor::new(PhasedJob::constant(4, 50))),
///         Box::new(AControl::new(0.2)),
///         0,
///     );
/// }
/// let out = sim.run();
/// assert_eq!(out.jobs.len(), 4);
/// assert!(out.makespan >= 50);
/// ```
pub struct MultiJobSim<A: Allocator> {
    core: QuantumCore<Box<dyn JobExecutor + Send>, Box<dyn Controller + Send>, A, TraceProbe>,
    /// Abort threshold (quanta); guards misconfigured livelocks.
    max_quanta: u64,
}

impl<A: Allocator> MultiJobSim<A> {
    /// Creates a simulator over the given allocator and quantum length.
    ///
    /// # Panics
    ///
    /// Panics if `quantum_len == 0`.
    pub fn new(allocator: A, quantum_len: u64) -> Self {
        Self {
            core: QuantumCore::new(allocator, quantum_len, TraceProbe::disabled()),
            max_quanta: u64::MAX,
        }
    }

    /// Records a [`QuantumRecord`] per job per quantum; the traces come
    /// back in [`MultiJobOutcome::traces`]. Costs memory proportional
    /// to jobs × quanta.
    pub fn with_traces(mut self) -> Self {
        *self.core.probe_mut() = TraceProbe::new();
        self
    }

    /// Sets the livelock guard: `run` panics if the set is unfinished
    /// after this many quanta.
    pub fn with_max_quanta(mut self, max_quanta: u64) -> Self {
        self.max_quanta = max_quanta;
        self
    }

    /// Adds a job released at `release_step`.
    pub fn add_job(
        &mut self,
        executor: Box<dyn JobExecutor + Send>,
        calculator: Box<dyn Controller + Send>,
        release_step: u64,
    ) {
        self.core.admit(executor, calculator, release_step);
    }

    /// Number of jobs added.
    pub fn num_jobs(&self) -> usize {
        self.core.jobs_in_system()
    }

    /// Runs the set to completion and returns the outcome.
    ///
    /// # Panics
    ///
    /// Panics if no jobs were added, or the `max_quanta` guard trips.
    pub fn run(self) -> MultiJobOutcome {
        let mut core = self.core;
        assert!(core.jobs_in_system() > 0, "no jobs to simulate");
        let mut done: Vec<CompletedJob> = Vec::new();
        while core.jobs_in_system() > 0 {
            assert!(
                core.quanta() < self.max_quanta,
                "job set did not finish within {} quanta (livelock?)",
                self.max_quanta
            );
            if !core.any_live() {
                // Machine idle: jump to the first quantum boundary at or
                // after the earliest pending release.
                let next_release = core
                    .next_release()
                    .expect("loop guard ensures an in-system job exists");
                core.skip_idle_until(next_release);
                continue;
            }
            core.step_quantum(&mut done);
        }
        let quanta = core.quanta();

        // The core drains jobs in completion order; the outcome
        // promises submission order.
        done.sort_by_key(|c| c.id);
        let jobs: Vec<JobOutcome> = done
            .iter()
            .map(|c| JobOutcome {
                release: c.release,
                completion: c.completion,
                work: c.work,
                span: c.span,
                waste: c.waste,
                quanta: c.quanta,
            })
            .collect();
        let makespan = jobs.iter().map(|j| j.completion).max().unwrap_or(0);
        let total_waste = jobs.iter().map(|j| j.waste).sum();
        let traces = done.into_iter().map(|c| c.trace).collect();
        MultiJobOutcome {
            jobs,
            makespan,
            total_waste,
            quanta,
            traces,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abg_alloc::DynamicEquiPartition;
    use abg_control::{AControl, AGreedy, ConstantRequest};
    use abg_dag::LeveledJob;
    use abg_sched::LeveledExecutor;

    fn boxed_job(width: u64, levels: u64) -> Box<dyn JobExecutor + Send> {
        Box::new(LeveledExecutor::new(LeveledJob::constant(width, levels)))
    }

    #[test]
    fn batched_set_completes_with_sane_metrics() {
        let mut sim = MultiJobSim::new(DynamicEquiPartition::new(16), 10);
        for _ in 0..4 {
            sim.add_job(boxed_job(4, 100), Box::new(AControl::new(0.2)), 0);
        }
        let out = sim.run();
        assert_eq!(out.jobs.len(), 4);
        assert_eq!(out.total_work(), 4 * 400);
        // 4 jobs × width 4 = 16 = machine size: after convergence every
        // quantum is fully productive.
        let lower = 100u64; // T∞ per job
        assert!(out.makespan >= lower);
        assert!(
            out.makespan < 4 * lower,
            "makespan {} too large",
            out.makespan
        );
        for j in &out.jobs {
            assert_eq!(j.response_time(), j.completion);
            assert_eq!(j.work, 400);
        }
    }

    #[test]
    fn staggered_releases_round_to_boundaries() {
        let mut sim = MultiJobSim::new(DynamicEquiPartition::new(8), 10);
        sim.add_job(boxed_job(2, 40), Box::new(ConstantRequest::new(2.0)), 0);
        // Released mid-quantum: joins at step 20.
        sim.add_job(boxed_job(2, 40), Box::new(ConstantRequest::new(2.0)), 15);
        let out = sim.run();
        // Job 1 runs alone from 20: completes at 20 + 40 = 60.
        assert_eq!(out.jobs[1].completion, 60);
        assert_eq!(out.jobs[1].response_time(), 45);
        assert_eq!(out.jobs[0].completion, 40);
        assert_eq!(out.makespan, 60);
    }

    #[test]
    fn idle_gap_before_late_release_is_skipped() {
        let mut sim = MultiJobSim::new(DynamicEquiPartition::new(8), 10);
        sim.add_job(boxed_job(1, 10), Box::new(ConstantRequest::new(1.0)), 100);
        let out = sim.run();
        assert_eq!(out.jobs[0].completion, 110);
    }

    #[test]
    fn oversubscribed_machine_still_progresses() {
        // More jobs than processors: DEQ hands out rotating single
        // processors; everything must still finish.
        let mut sim = MultiJobSim::new(DynamicEquiPartition::new(2), 5);
        for _ in 0..5 {
            sim.add_job(boxed_job(1, 10), Box::new(ConstantRequest::new(1.0)), 0);
        }
        let out = sim.with_max_quanta(10_000).run();
        assert_eq!(out.jobs.len(), 5);
        assert!(out.makespan >= 25, "2 processors, 50 work: ≥ 25 steps");
    }

    #[test]
    fn heterogeneous_calculators_coexist() {
        let mut sim = MultiJobSim::new(DynamicEquiPartition::new(32), 10);
        sim.add_job(boxed_job(8, 200), Box::new(AControl::new(0.2)), 0);
        sim.add_job(boxed_job(8, 200), Box::new(AGreedy::paper_default()), 0);
        let out = sim.run();
        assert_eq!(out.jobs.len(), 2);
        // Both finish; ABG should not waste more than A-Greedy here.
        assert!(out.jobs[0].completion > 0 && out.jobs[1].completion > 0);
    }

    #[test]
    fn mean_response_time_averages() {
        let out = MultiJobOutcome {
            jobs: vec![
                JobOutcome {
                    release: 0,
                    completion: 10,
                    work: 1,
                    span: 1,
                    waste: 0,
                    quanta: 1,
                },
                JobOutcome {
                    release: 5,
                    completion: 25,
                    work: 1,
                    span: 1,
                    waste: 0,
                    quanta: 1,
                },
            ],
            makespan: 25,
            total_waste: 0,
            quanta: 3,
            traces: Vec::new(),
        };
        assert_eq!(out.mean_response_time(), 15.0);
    }

    #[test]
    fn empty_job_set_mean_response_is_zero_not_nan() {
        let out = MultiJobOutcome {
            jobs: Vec::new(),
            makespan: 0,
            total_waste: 0,
            quanta: 0,
            traces: Vec::new(),
        };
        let mean = out.mean_response_time();
        assert_eq!(mean, 0.0, "empty set must not average to NaN");
        assert!(!mean.is_nan());
    }

    #[test]
    fn traces_record_every_live_quantum() {
        let mut sim = MultiJobSim::new(DynamicEquiPartition::new(8), 10).with_traces();
        sim.add_job(boxed_job(2, 40), Box::new(AControl::new(0.2)), 0);
        sim.add_job(boxed_job(2, 40), Box::new(AControl::new(0.2)), 25);
        let out = sim.run();
        assert_eq!(out.traces.len(), 2);
        for (j, trace) in out.jobs.iter().zip(&out.traces) {
            assert_eq!(trace.len() as u64, j.quanta);
            let work: u64 = trace.iter().map(|r| r.stats.work).sum();
            assert_eq!(work, j.work);
            // First record starts at the job's first boundary ≥ release.
            assert!(trace[0].start_step >= j.release);
            assert_eq!(trace[0].request, 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "no jobs")]
    fn empty_set_rejected() {
        let sim = MultiJobSim::new(DynamicEquiPartition::new(2), 5);
        let _ = sim.run();
    }
}
