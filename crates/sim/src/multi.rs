//! The closed-system driver: a job set, or one job alone, on the machine.

use crate::probe::{NullProbe, Probe, TraceProbe};
use crate::quantum_core::{CompletedJob, QuantumCore};
use abg_alloc::Allocator;
use abg_control::Controller;
use abg_sched::JobExecutor;

/// Global measurements of a multiprogrammed run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiJobOutcome {
    /// The finished jobs in submission order, each with its own trace
    /// (empty unless the simulator was built with
    /// [`MultiJobSim::with_traces`]).
    pub jobs: Vec<CompletedJob>,
    /// Makespan: the step at which the last job completed.
    pub makespan: u64,
    /// Total processor cycles wasted across the set.
    pub total_waste: u64,
    /// Total quanta simulated.
    pub quanta: u64,
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

/// Livelock guard of every closed run unless
/// [`with_max_quanta`](MultiJobSim::with_max_quanta) says otherwise:
/// far beyond any real experiment, yet it stops a set that an allocator
/// never grants a processor.
const DEFAULT_MAX_QUANTA: u64 = 100_000_000;

/// The closed-system driver: a job set — or one job alone — space-sharing
/// a machine through one OS allocator, each job with its own task
/// scheduler and request calculator.
///
/// Time is quantum-synchronous: all jobs share quantum boundaries, a job
/// released mid-quantum joins at the next boundary, and a job finishing
/// mid-quantum holds its allotment until the boundary (counted as
/// waste), which matches the paper's accounting.
///
/// This is the *closed-system* configuration of [`QuantumCore`]: every
/// job is admitted before the first quantum and the machine runs until
/// it drains. The open-system (sustained-arrival) driver in `abg-queue`
/// runs the same core. The executor type `E`, controller type `C` and
/// probe `P` are type parameters, so a set whose jobs share one
/// executor and one controller type runs monomorphized
/// ([`homogeneous`](MultiJobSim::homogeneous)); [`new`](MultiJobSim::new)
/// takes boxed trait objects for heterogeneous sets. Untraced runs use
/// [`NullProbe`]; [`with_traces`](MultiJobSim::with_traces) switches the
/// type to a [`TraceProbe`].
///
/// A lone job (the paper's Figures 1, 4 and 5 and the trim analysis) is
/// a one-job set: [`run_job`](MultiJobSim::run_job) releases it at step
/// 0, so its [`response_time`](CompletedJob::response_time) is the
/// paper's running time `T`. Executors, controllers and allocators may
/// be lent by `&mut`, so a caller can rewind one executor between runs.
///
/// ```
/// use abg_alloc::DynamicEquiPartition;
/// use abg_control::AControl;
/// use abg_dag::PhasedJob;
/// use abg_sched::PipelinedExecutor;
/// use abg_sim::MultiJobSim;
///
/// let mut sim = MultiJobSim::homogeneous(DynamicEquiPartition::new(16), 10);
/// for _ in 0..4 {
///     sim.add_job(
///         PipelinedExecutor::new(PhasedJob::constant(4, 50)),
///         AControl::new(0.2),
///         0,
///     );
/// }
/// let out = sim.run();
/// assert_eq!(out.jobs.len(), 4);
/// assert!(out.makespan >= 50);
/// ```
pub struct MultiJobSim<
    A,
    E = Box<dyn JobExecutor + Send>,
    C = Box<dyn Controller + Send>,
    P = NullProbe,
> {
    allocator: A,
    quantum_len: u64,
    reallocation_overhead: u64,
    probe: P,
    /// Jobs in submission order: `(executor, controller, release)`.
    jobs: Vec<(E, C, u64)>,
    /// Abort threshold (quanta); guards misconfigured livelocks.
    max_quanta: u64,
}

impl<A: Allocator> MultiJobSim<A> {
    /// Creates a simulator over boxed executors and controllers, so
    /// every job may bring its own types.
    ///
    /// # Panics
    ///
    /// Panics if `quantum_len == 0`.
    pub fn new(allocator: A, quantum_len: u64) -> Self {
        Self::homogeneous(allocator, quantum_len)
    }
}

impl<A: Allocator, E: JobExecutor, C: Controller> MultiJobSim<A, E, C> {
    /// Creates a simulator whose jobs all run executor type `E` under
    /// controller type `C`, so the quantum loop monomorphizes over them.
    ///
    /// # Panics
    ///
    /// Panics if `quantum_len == 0`.
    pub fn homogeneous(allocator: A, quantum_len: u64) -> Self {
        assert!(quantum_len > 0, "quantum length must be positive");
        Self {
            allocator,
            quantum_len,
            reallocation_overhead: 0,
            probe: NullProbe,
            jobs: Vec::new(),
            max_quanta: DEFAULT_MAX_QUANTA,
        }
    }

    /// Records a [`QuantumRecord`](crate::QuantumRecord) per job per
    /// quantum, availability `p(q)` included (trajectory figures and
    /// trim analysis need it); each job's records come back in its
    /// [`CompletedJob::trace`]. Costs memory proportional to jobs ×
    /// quanta, and the allocator answers the availability by re-running
    /// its policy.
    pub fn with_traces(self) -> MultiJobSim<A, E, C, TraceProbe> {
        MultiJobSim {
            allocator: self.allocator,
            quantum_len: self.quantum_len,
            reallocation_overhead: self.reallocation_overhead,
            probe: TraceProbe::new().with_availability(),
            jobs: self.jobs,
            max_quanta: self.max_quanta,
        }
    }
}

impl<A: Allocator, E: JobExecutor, C: Controller, P: Probe> MultiJobSim<A, E, C, P> {
    /// Sets the livelock guard: `run` panics if the set is unfinished
    /// after this many quanta (default 100 million; `u64::MAX` disables
    /// it).
    pub fn with_max_quanta(mut self, max_quanta: u64) -> Self {
        self.max_quanta = max_quanta;
        self
    }

    /// Sets the steps lost at the start of every quantum whose allotment
    /// differs from the job's previous one (see
    /// [`QuantumCore::with_reallocation_overhead`]).
    pub fn with_reallocation_overhead(mut self, steps: u64) -> Self {
        self.reallocation_overhead = steps;
        self
    }

    /// Adds a job released at `release_step`.
    ///
    /// # Panics
    ///
    /// Panics if the executor has already completed its job (an executor
    /// that was not rewound).
    pub fn add_job(&mut self, executor: E, calculator: C, release_step: u64) {
        assert!(
            !executor.is_complete(),
            "executor already complete (rewind it before reuse)"
        );
        self.jobs.push((executor, calculator, release_step));
    }

    /// Number of jobs added.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Adds a job released at step 0, runs the set and returns that
    /// job's record: on an otherwise empty simulator, the paper's lone
    /// job, whose response time is its running time `T`.
    ///
    /// # Panics
    ///
    /// As [`add_job`](MultiJobSim::add_job) and [`run`](MultiJobSim::run).
    pub fn run_job(mut self, executor: E, calculator: C) -> CompletedJob {
        self.add_job(executor, calculator, 0);
        self.run().jobs.pop().expect("the set holds the added job")
    }

    /// Runs the set to completion and returns the outcome.
    ///
    /// # Panics
    ///
    /// Panics if no jobs were added, if the `max_quanta` guard trips, or
    /// if a release lies past the last quantum boundary of the `u64`
    /// clock.
    pub fn run(self) -> MultiJobOutcome {
        assert!(!self.jobs.is_empty(), "no jobs to simulate");
        let mut core = QuantumCore::new(self.allocator, self.quantum_len, self.probe)
            .with_reallocation_overhead(self.reallocation_overhead);
        for (executor, calculator, release) in self.jobs {
            core.admit(executor, calculator, release);
        }
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
                assert!(
                    core.skip_idle_until(next_release),
                    "release {next_release} lies past the last quantum boundary of the u64 clock"
                );
                continue;
            }
            core.step_quantum(&mut done);
        }
        let quanta = core.quanta();

        // The core drains jobs in completion order; the outcome
        // promises submission order.
        done.sort_by_key(|c| c.id);
        let makespan = done.iter().map(|j| j.completion).max().unwrap_or(0);
        let total_waste = done.iter().map(|j| j.waste).sum();
        MultiJobOutcome {
            jobs: done,
            makespan,
            total_waste,
            quanta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abg_alloc::{DynamicEquiPartition, Scripted};
    use abg_control::{AControl, AGreedy, ConstantRequest};
    use abg_dag::{Phase, PhasedJob};
    use abg_sched::PipelinedExecutor;

    /// A barrier job: `levels` levels of `width` tasks, a join between
    /// each pair.
    fn constant_job(width: u64, levels: u64) -> PipelinedExecutor {
        PipelinedExecutor::new(PhasedJob::barrier(&[Phase::new(width, levels)]))
    }

    /// [`constant_job`], boxed for heterogeneous sets.
    fn boxed_job(width: u64, levels: u64) -> Box<dyn JobExecutor + Send> {
        Box::new(constant_job(width, levels))
    }

    #[test]
    fn abg_converges_and_wastes_little_on_constant_job() {
        let run = MultiJobSim::homogeneous(Scripted::ample(128), 20)
            .run_job(constant_job(10, 400), AControl::new(0.2));
        assert_eq!(run.work, 4000);
        assert_eq!(run.span, 400);
        // Requests converge to 10 quickly; waste is a small fraction of work.
        assert!(
            run.waste_over_work() < 0.2,
            "waste/work = {}",
            run.waste_over_work()
        );
        // Once converged, one quantum advances ~20 levels: near-optimal time.
        assert!(
            run.time_over_span() < 1.5,
            "T/T∞ = {}",
            run.time_over_span()
        );
    }

    #[test]
    fn trace_captures_request_trajectory() {
        let run = MultiJobSim::homogeneous(Scripted::ample(128), 10)
            .with_traces()
            .run_job(constant_job(10, 100), AControl::new(0.2));
        assert_eq!(run.trace.len() as u64, run.quanta);
        assert_eq!(run.trace[0].request, 1.0);
        // Monotone non-decreasing approach to 10 with no overshoot.
        for w in run.trace.windows(2) {
            assert!(w[1].request >= w[0].request - 1e-9);
            assert!(w[1].request <= 10.0 + 1e-9);
        }
        assert_eq!(run.trace[0].availability, Some(128));
    }

    #[test]
    fn agreedy_oscillates_in_trace() {
        let run = MultiJobSim::homogeneous(Scripted::ample(128), 10)
            .with_traces()
            .run_job(constant_job(10, 2000), AGreedy::paper_default());
        let requests: Vec<f64> = run.trace.iter().map(|r| r.request).collect();
        let tail = &requests[requests.len() / 2..];
        let min = tail.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = tail.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > min, "A-Greedy should not settle: {min}..{max}");
    }

    #[test]
    fn constrained_availability_slows_the_job() {
        // Only 2 processors ever available.
        let run = MultiJobSim::homogeneous(Scripted::new(128, vec![2]), 16)
            .run_job(constant_job(8, 64), ConstantRequest::new(8.0));
        // 8 wide on 2 processors: 4 steps per level → T = 4·64 = 256.
        assert_eq!(run.response_time(), 256);
        assert_eq!(run.waste, 0);
    }

    #[test]
    fn oracle_on_exact_width_has_zero_waste() {
        let run = MultiJobSim::homogeneous(Scripted::ample(64), 10)
            .run_job(constant_job(6, 60), ConstantRequest::new(6.0));
        assert_eq!(run.waste, 0);
        assert_eq!(run.response_time(), 60);
        assert_eq!(run.quanta, 6);
    }

    #[test]
    fn final_quantum_counts_partial_time_but_full_hold() {
        // 25 levels, width 1, request 1, L = 10: 2 full quanta + 5 steps.
        let run = MultiJobSim::homogeneous(Scripted::ample(4), 10)
            .run_job(constant_job(1, 25), ConstantRequest::new(1.0));
        assert_eq!(run.response_time(), 25);
        assert_eq!(run.quanta, 3);
        // Final quantum holds 1 processor for 10 steps but works 5.
        assert_eq!(run.waste, 5);
    }

    #[test]
    #[should_panic(expected = "livelock")]
    fn livelock_guard_trips() {
        let _ = MultiJobSim::homogeneous(Scripted::new(8, vec![0]), 10)
            .with_max_quanta(100)
            .run_job(constant_job(1, 10), ConstantRequest::new(1.0));
    }

    #[test]
    fn closed_runs_default_to_a_finite_guard() {
        let sim = MultiJobSim::new(Scripted::ample(1), 10);
        assert_eq!(sim.max_quanta, 100_000_000);
    }

    #[test]
    #[ignore = "steps 10^8 quanta: about 3 s in release, 45 s in a debug build"]
    #[should_panic(expected = "livelock")]
    fn default_guard_stops_a_set_never_granted_a_processor() {
        let mut sim = MultiJobSim::homogeneous(Scripted::new(8, vec![0]), 10);
        sim.add_job(constant_job(1, 10), ConstantRequest::new(1.0), 0);
        let _ = sim.run();
    }

    #[test]
    #[should_panic(expected = "already complete")]
    fn completed_executor_rejected() {
        let mut ex = constant_job(1, 10);
        let _ = MultiJobSim::homogeneous(Scripted::ample(4), 10)
            .run_job(&mut ex, ConstantRequest::new(1.0));
        let _ = MultiJobSim::homogeneous(Scripted::ample(4), 10)
            .run_job(&mut ex, ConstantRequest::new(1.0));
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

    /// A one-quantum unit job, released at `release`, finished at
    /// `completion`.
    fn finished(id: u64, release: u64, completion: u64) -> CompletedJob {
        CompletedJob {
            id,
            release,
            completion,
            work: 1,
            span: 1,
            waste: 0,
            quanta: 1,
            reallocations: 0,
            trace: Vec::new(),
        }
    }

    #[test]
    fn mean_response_time_averages() {
        let out = MultiJobOutcome {
            jobs: vec![finished(0, 0, 10), finished(1, 5, 25)],
            makespan: 25,
            total_waste: 0,
            quanta: 3,
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
        assert_eq!(out.jobs.len(), 2);
        for j in &out.jobs {
            assert_eq!(j.trace.len() as u64, j.quanta);
            let work: u64 = j.trace.iter().map(|r| r.stats.work).sum();
            assert_eq!(work, j.work);
            // First record starts at the job's first boundary ≥ release.
            assert!(j.trace[0].start_step >= j.release);
            assert_eq!(j.trace[0].request, 1.0);
            // Every record carries the availability bounding its grant.
            for r in &j.trace {
                let a = r.availability.expect("traced runs record p(q)");
                assert!(r.allotment <= a, "a(q) = {} > p(q) = {a}", r.allotment);
            }
        }
    }

    #[test]
    #[should_panic(expected = "no jobs")]
    fn empty_set_rejected() {
        let sim = MultiJobSim::new(DynamicEquiPartition::new(2), 5);
        let _ = sim.run();
    }
}
