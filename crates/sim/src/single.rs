//! Single-job simulation: one job alone under a (possibly adversarial)
//! allocator.

use crate::probe::TraceProbe;
use crate::quantum_core::QuantumCore;
use crate::trace::QuantumRecord;
use abg_alloc::Allocator;
use abg_control::Controller;
use abg_sched::JobExecutor;

/// Configuration of a single-job run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleJobConfig {
    /// Quantum length `L` in steps.
    pub quantum_len: u64,
    /// Record a [`QuantumRecord`] per quantum (needed for trajectory
    /// figures and trim analysis; costs memory on long runs).
    pub record_trace: bool,
    /// Also query the allocator for the availability `p(q)` each quantum
    /// (requires trace recording; some allocators compute this by
    /// re-running their policy).
    pub record_availability: bool,
    /// Steps lost at the start of every quantum whose allotment differs
    /// from the previous quantum's (processor migration, cache warm-up
    /// — the overhead the paper's simulations ignore but its motivation
    /// cites against unstable schedulers). The lost cycles count as
    /// waste; an overhead of `quantum_len` or more makes a reallocation
    /// quantum entirely unproductive.
    pub reallocation_overhead: u64,
    /// Safety valve: abort if the job has not finished after this many
    /// quanta (guards against a zero-availability livelock in
    /// misconfigured experiments, e.g. a scripted allocator stuck at
    /// zero). Defaults to 100 million quanta — far beyond any real
    /// experiment; `u64::MAX` disables the check.
    pub max_quanta: u64,
}

impl SingleJobConfig {
    /// A configuration with the given quantum length, tracing disabled.
    pub fn new(quantum_len: u64) -> Self {
        assert!(quantum_len > 0, "quantum length must be positive");
        Self {
            quantum_len,
            record_trace: false,
            record_availability: false,
            reallocation_overhead: 0,
            max_quanta: 100_000_000,
        }
    }

    /// Enables per-quantum tracing (with availability recording).
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self.record_availability = true;
        self
    }

    /// Sets the per-reallocation overhead in steps.
    pub fn with_reallocation_overhead(mut self, steps: u64) -> Self {
        self.reallocation_overhead = steps;
        self
    }
}

/// The outcome of a single-job run.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleJobRun {
    /// Running time `T` in steps: completion happens `steps_worked` into
    /// the final quantum; earlier quanta each contribute `L` steps of
    /// wall-clock even if the allotment was zero.
    pub running_time: u64,
    /// Total processor cycles wasted, `Σ_q (a(q)·L − T1(q))`: the job
    /// holds its allotment until each quantum boundary (so the final
    /// quantum can waste up to `a·L`, matching the paper's `P·L` term).
    pub waste: u64,
    /// Number of quanta used (the last one counted even if cut short).
    pub quanta: u64,
    /// Quanta whose allotment differed from the previous quantum's —
    /// each one costs [`SingleJobConfig::reallocation_overhead`] steps.
    pub reallocations: u64,
    /// Work `T1` of the job (sanity echo from the executor).
    pub work: u64,
    /// Critical-path length `T∞` of the job.
    pub span: u64,
    /// Per-quantum trace, if requested.
    pub trace: Vec<QuantumRecord>,
}

impl SingleJobRun {
    /// Speedup `T1 / T` achieved by the run.
    pub fn speedup(&self) -> f64 {
        self.work as f64 / self.running_time as f64
    }

    /// Running time normalized by the optimal `T∞` (the paper's Figure
    /// 5(a) y-axis: in an unconstrained environment the critical path is
    /// the optimal running time).
    pub fn time_over_span(&self) -> f64 {
        self.running_time as f64 / self.span as f64
    }

    /// Waste normalized by total work (the paper's Figure 5(c) y-axis).
    pub fn waste_over_work(&self) -> f64 {
        self.waste as f64 / self.work as f64
    }
}

/// Lends a `Clone` allocator to the quantum core while teaching it the
/// clone-probing [`Allocator::availabilities`] — so single-job traces
/// carry `p(q)` for *any* cloneable allocator, not just the policies
/// that override [`Allocator::try_availabilities`] themselves.
struct CloneProbing<'a, A: Allocator + Clone>(&'a mut A);

impl<A: Allocator + Clone> Allocator for CloneProbing<'_, A> {
    fn allocate_into(&mut self, requests: &[f64], out: &mut Vec<u32>) {
        self.0.allocate_into(requests, out)
    }
    fn try_availabilities(&mut self, requests: &[f64], out: &mut Vec<u32>) -> bool {
        out.clear();
        out.append(&mut self.0.availabilities(requests));
        true
    }
    fn total_processors(&self) -> u32 {
        self.0.total_processors()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Runs one job to completion under the given controller and allocator.
///
/// Implements the paper's loop: `d(1)` comes from the controller's
/// initial request; each quantum the allocator grants
/// `a(q) = min(ceil d(q), p(q))`, the executor runs `L` steps (or to
/// completion), and the controller observes the statistics to produce
/// `d(q+1)`. A paced controller (see
/// [`Paced`](crate::Paced)) may also vary the quantum length between
/// `observe` calls; plain request calculators run on the configured `L`.
///
/// This is a monomorphized single-slot configuration of
/// [`QuantumCore`]: no boxing, with a [`TraceProbe`] collecting the
/// per-quantum records when the config asks for them.
///
/// # Panics
///
/// Panics if the configured `max_quanta` safety valve trips.
pub fn run_single_job<E, C, A>(
    executor: &mut E,
    calculator: &mut C,
    allocator: &mut A,
    config: SingleJobConfig,
) -> SingleJobRun
where
    E: JobExecutor,
    C: Controller,
    A: Allocator + Clone,
{
    if executor.is_complete() {
        // Zero-work job: the loop below would panic on an empty live
        // set; the pre-core driver simply never entered its loop.
        return SingleJobRun {
            running_time: 0,
            waste: 0,
            quanta: 0,
            reallocations: 0,
            work: executor.total_work(),
            span: executor.total_span(),
            trace: Vec::new(),
        };
    }
    let probe = if config.record_trace {
        let p = TraceProbe::new();
        if config.record_availability {
            p.with_availability()
        } else {
            p
        }
    } else {
        TraceProbe::disabled()
    };
    let mut core = QuantumCore::new(CloneProbing(allocator), config.quantum_len, probe)
        .with_reallocation_overhead(config.reallocation_overhead);
    core.admit(executor, calculator, 0);
    let mut done = Vec::with_capacity(1);
    while core.jobs_in_system() > 0 {
        assert!(
            core.quanta() < config.max_quanta,
            "job did not finish within {} quanta (livelock?)",
            config.max_quanta
        );
        core.step_quantum(&mut done);
    }
    let job = done.pop().expect("the admitted job drains on completion");
    SingleJobRun {
        // Release step 0: completion and running time coincide.
        running_time: job.completion,
        waste: job.waste,
        quanta: job.quanta,
        reallocations: job.reallocations,
        work: job.work,
        span: job.span,
        trace: job.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abg_alloc::Scripted;
    use abg_control::{AControl, AGreedy, ConstantRequest};
    use abg_dag::LeveledJob;
    use abg_sched::LeveledExecutor;

    fn constant_job(width: u64, levels: u64) -> LeveledExecutor {
        LeveledExecutor::new(LeveledJob::constant(width, levels))
    }

    #[test]
    fn abg_converges_and_wastes_little_on_constant_job() {
        let mut ex = constant_job(10, 400);
        let mut ctl = AControl::new(0.2);
        let mut alloc = Scripted::ample(128);
        let run = run_single_job(&mut ex, &mut ctl, &mut alloc, SingleJobConfig::new(20));
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
        let mut ex = constant_job(10, 100);
        let mut ctl = AControl::new(0.2);
        let mut alloc = Scripted::ample(128);
        let run = run_single_job(
            &mut ex,
            &mut ctl,
            &mut alloc,
            SingleJobConfig::new(10).with_trace(),
        );
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
        let mut ex = constant_job(10, 2000);
        let mut ctl = AGreedy::paper_default();
        let mut alloc = Scripted::ample(128);
        let run = run_single_job(
            &mut ex,
            &mut ctl,
            &mut alloc,
            SingleJobConfig::new(10).with_trace(),
        );
        let requests: Vec<f64> = run.trace.iter().map(|r| r.request).collect();
        let tail = &requests[requests.len() / 2..];
        let min = tail.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = tail.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > min, "A-Greedy should not settle: {min}..{max}");
    }

    #[test]
    fn constrained_availability_slows_the_job() {
        let mut ex = constant_job(8, 64);
        let mut ctl = ConstantRequest::new(8.0);
        // Only 2 processors ever available.
        let mut alloc = Scripted::new(128, vec![2]);
        let run = run_single_job(&mut ex, &mut ctl, &mut alloc, SingleJobConfig::new(16));
        // 8 wide on 2 processors: 4 steps per level → T = 4·64 = 256.
        assert_eq!(run.running_time, 256);
        assert_eq!(run.waste, 0);
    }

    #[test]
    fn oracle_on_exact_width_has_zero_waste() {
        let mut ex = constant_job(6, 60);
        let mut ctl = ConstantRequest::new(6.0);
        let mut alloc = Scripted::ample(64);
        let run = run_single_job(&mut ex, &mut ctl, &mut alloc, SingleJobConfig::new(10));
        assert_eq!(run.waste, 0);
        assert_eq!(run.running_time, 60);
        assert_eq!(run.quanta, 6);
    }

    #[test]
    fn final_quantum_counts_partial_time_but_full_hold() {
        // 25 levels, width 1, request 1, L = 10: 2 full quanta + 5 steps.
        let mut ex = constant_job(1, 25);
        let mut ctl = ConstantRequest::new(1.0);
        let mut alloc = Scripted::ample(4);
        let run = run_single_job(&mut ex, &mut ctl, &mut alloc, SingleJobConfig::new(10));
        assert_eq!(run.running_time, 25);
        assert_eq!(run.quanta, 3);
        // Final quantum holds 1 processor for 10 steps but works 5.
        assert_eq!(run.waste, 5);
    }

    #[test]
    #[should_panic(expected = "livelock")]
    fn livelock_guard_trips() {
        let mut ex = constant_job(1, 10);
        let mut ctl = ConstantRequest::new(1.0);
        let mut alloc = Scripted::new(8, vec![0]);
        let mut cfg = SingleJobConfig::new(10);
        cfg.max_quanta = 100;
        let _ = run_single_job(&mut ex, &mut ctl, &mut alloc, cfg);
    }
}
