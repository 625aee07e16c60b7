//! Fast-forward executor for phase-structured pipelined jobs.
//!
//! Inside a width-`w` phase of a [`PhasedJob`] every live chain
//! contributes exactly one ready task, so a greedy scheduler executes
//! `min(a, w, remaining)` tasks per step; the breadth-first rule keeps
//! the chains level-balanced, which makes the execution equivalent to
//! consuming the phase's tasks in level-major order at that rate. That
//! closed form lets a whole quantum be fast-forwarded in
//! `O(phases touched)` while remaining step-exact — the test-suite
//! checks it against the per-task [`BGreedyExecutor`] on the lowered
//! dag: work, worked steps and completion exactly, the fractional span
//! within `1e-9` (summed per phase here, per task there).
//!
//! [`BGreedyExecutor`]: crate::executor::BGreedyExecutor

use crate::quantum::QuantumStats;
use crate::JobExecutor;
use abg_dag::PhasedJob;
use std::borrow::Borrow;

/// Executor state over a [`PhasedJob`]: the current phase and the
/// level-major position within it.
///
/// The job structure is immutable during execution, so the executor is
/// generic over *how* it holds the job: owned (`PhasedJob`, the
/// default), borrowed (`&PhasedJob`), or shared (`Arc<PhasedJob>`). The
/// harness exploits this to run the ABG/A-Greedy pair — and every
/// repetition of a bench kernel — against one job allocation instead of
/// cloning the phase list per run.
///
/// ```
/// use abg_dag::PhasedJob;
/// use abg_sched::{JobExecutor, PipelinedExecutor};
///
/// // A constant-parallelism job: 10 chains, 100 levels.
/// let job = PhasedJob::constant(10, 100);
/// // Two executors over the same job, no clone.
/// let mut ex = PipelinedExecutor::new(&job);
/// let mut other = PipelinedExecutor::new(&job);
/// // 20 steps at 7 processors: pipelining keeps all 7 busy, and the
/// // fractional span measurement still reads the job's parallelism.
/// let q = ex.run_quantum(7, 20);
/// assert_eq!(q.work, 140);
/// assert_eq!(q.average_parallelism(), Some(10.0));
/// assert_eq!(other.run_quantum(7, 20).work, q.work);
/// ```
#[derive(Debug, Clone)]
pub struct PipelinedExecutor<J: Borrow<PhasedJob> = PhasedJob> {
    job: J,
    phase: usize,
    /// Tasks of the current phase already completed (level-major count).
    pos: u64,
    completed: u64,
    elapsed: u64,
}

impl<J: Borrow<PhasedJob>> PipelinedExecutor<J> {
    /// Creates an executor at the start of the job.
    pub fn new(job: J) -> Self {
        Self {
            job,
            phase: 0,
            pos: 0,
            completed: 0,
            elapsed: 0,
        }
    }

    /// The job being executed.
    pub fn job(&self) -> &PhasedJob {
        self.job.borrow()
    }

    /// Rewinds to the start of the job (the state is four counters, so
    /// this is trivially allocation-free).
    pub fn reset(&mut self) {
        self.phase = 0;
        self.pos = 0;
        self.completed = 0;
        self.elapsed = 0;
    }
}

impl<J: Borrow<PhasedJob>> JobExecutor for PipelinedExecutor<J> {
    fn run_quantum(&mut self, allotment: u32, steps: u64) -> QuantumStats {
        let mut work = 0u64;
        let mut span = 0.0f64;
        let mut steps_left = if allotment == 0 { 0 } else { steps };
        let mut steps_worked = 0u64;
        let a = allotment as u64;
        let phases = self.job.borrow().phases();
        while steps_left > 0 && self.phase < phases.len() {
            let p = phases[self.phase];
            let total = p.work();
            let remaining = total - self.pos;
            let rate = a.min(p.width);
            let need = remaining.div_ceil(rate);
            if need <= steps_left {
                work += remaining;
                span += remaining as f64 / p.width as f64;
                steps_left -= need;
                steps_worked += need;
                self.phase += 1;
                self.pos = 0;
            } else {
                let executed = steps_left * rate; // < remaining
                work += executed;
                span += executed as f64 / p.width as f64;
                self.pos += executed;
                steps_worked += steps_left;
                steps_left = 0;
            }
        }
        self.completed += work;
        self.elapsed += steps_worked;
        QuantumStats {
            allotment,
            quantum_len: steps,
            steps_worked,
            work,
            span,
            completed: self.is_complete(),
        }
    }

    fn is_complete(&self) -> bool {
        self.phase >= self.job.borrow().phases().len()
    }

    fn total_work(&self) -> u64 {
        self.job.borrow().work()
    }

    fn total_span(&self) -> u64 {
        self.job.borrow().span()
    }

    fn completed_work(&self) -> u64 {
        self.completed
    }

    fn elapsed_steps(&self) -> u64 {
        self.elapsed
    }

    fn try_reset(&mut self) -> bool {
        self.reset();
        true
    }

    fn steady_quanta(&self, allotment: u32, steps: u64, stats: &QuantumStats) -> u64 {
        if self.is_complete() || stats.completed || steps == 0 {
            return 0;
        }
        if allotment == 0 {
            // Zero allotment executes nothing: every further quantum is
            // the same all-zero record until the allotment changes.
            return u64::MAX;
        }
        // Inside one phase a quantum at (allotment, steps) consumes
        // `steps · rate` tasks in level-major order, so it reproduces
        // `stats` exactly while the phase has strictly more than that
        // many tasks left (the strict inequality keeps `completed` and
        // the partial-progress branch identical).
        let p = self.job.borrow().phases()[self.phase];
        let rate = (allotment as u64).min(p.width);
        let per_quantum = steps * rate;
        let predicted_span = per_quantum as f64 / p.width as f64;
        if stats.steps_worked != steps
            || stats.work != per_quantum
            || stats.span.to_bits() != predicted_span.to_bits()
        {
            return 0;
        }
        let remaining = p.work() - self.pos;
        (remaining.saturating_sub(1)) / per_quantum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::BGreedyExecutor;
    use abg_dag::{Phase, PhasedJob};

    /// Runs the same quantum schedule through the fast path and the
    /// per-task B-Greedy executor on the lowered dag; the quantum
    /// statistics must agree exactly.
    fn assert_equivalent(job: PhasedJob, allotments: &[u32], quantum_len: u64) {
        let explicit = job.to_explicit();
        let mut fast = PipelinedExecutor::new(job);
        let mut slow = BGreedyExecutor::new(&explicit);
        for (i, &a) in allotments.iter().enumerate() {
            let f = fast.run_quantum(a, quantum_len);
            let s = slow.run_quantum(a, quantum_len);
            assert_eq!(f.work, s.work, "quantum {i}: work (a={a})");
            assert!(
                (f.span - s.span).abs() < 1e-9,
                "quantum {i}: span {} vs {} (a={a})",
                f.span,
                s.span
            );
            assert_eq!(f.steps_worked, s.steps_worked, "quantum {i}: steps (a={a})");
            assert_eq!(f.completed, s.completed, "quantum {i}: completed (a={a})");
            if fast.is_complete() {
                break;
            }
        }
        assert_eq!(fast.is_complete(), slow.is_complete());
    }

    fn forkjoin() -> PhasedJob {
        PhasedJob::new(vec![
            Phase::new(1, 3),
            Phase::new(6, 7),
            Phase::new(1, 2),
            Phase::new(4, 5),
            Phase::new(1, 1),
        ])
    }

    #[test]
    fn matches_per_task_executor_across_allotments() {
        for a in [1u32, 2, 3, 5, 7, 64] {
            assert_equivalent(forkjoin(), &[a; 30], 4);
        }
    }

    #[test]
    fn matches_with_varying_allotments() {
        assert_equivalent(forkjoin(), &[1, 5, 2, 9, 3, 1, 8, 2, 4, 6, 7, 1, 2], 3);
    }

    #[test]
    fn matches_on_constant_job() {
        assert_equivalent(PhasedJob::constant(8, 11), &[3; 40], 5);
        assert_equivalent(PhasedJob::constant(8, 11), &[13; 10], 5);
    }

    fn barrier(widths: &[u64]) -> PhasedJob {
        let phases: Vec<Phase> = widths.iter().map(|&w| Phase::new(w, 1)).collect();
        PhasedJob::barrier(&phases)
    }

    #[test]
    fn barrier_jobs_match_per_task_executor() {
        assert_equivalent(PhasedJob::barrier(&[Phase::new(7, 12)]), &[3; 20], 5);
        let forkjoin = barrier(&[1, 1, 6, 6, 6, 1, 4, 4, 1, 1]);
        for a in [1u32, 2, 3, 5, 8, 100] {
            assert_equivalent(forkjoin.clone(), &[a; 40], 4);
        }
        assert_equivalent(
            barrier(&[2, 5, 3, 8, 1, 9]),
            &[1, 4, 2, 7, 3, 1, 6, 2, 9, 5],
            3,
        );
        // Ample processors, a level finishing mid-quantum, a partial
        // level, zero allotments and a long constant job.
        assert_equivalent(barrier(&[4, 9, 2]), &[100], 10);
        assert_equivalent(barrier(&[3, 5]), &[2; 8], 2);
        assert_equivalent(barrier(&[10]), &[2; 5], 3);
        assert_equivalent(PhasedJob::barrier(&[Phase::new(3, 3)]), &[0, 2, 0, 3], 100);
        assert_equivalent(PhasedJob::barrier(&[Phase::new(4, 6)]), &[2; 12], 3);
        assert_equivalent(PhasedJob::barrier(&[Phase::new(10, 100)]), &[2; 60], 20);
    }

    #[test]
    fn barrier_levels_do_not_pipeline() {
        // Ample processors: one level per step.
        let s = PipelinedExecutor::new(barrier(&[4, 9, 2])).run_quantum(100, 10);
        assert_eq!((s.steps_worked, s.work, s.span), (3, 15, 3.0));
        assert!(s.completed);
        // Width 3 then 5 at allotment 2: the second step runs the last
        // task of level 0 alone, not one from level 1.
        let mut ex = PipelinedExecutor::new(barrier(&[3, 5]));
        assert_eq!(ex.run_quantum(2, 2).work, 3);
        assert_eq!(ex.phase, 1);
        // A partial level counts fractionally.
        let s = PipelinedExecutor::new(barrier(&[10])).run_quantum(2, 3);
        assert_eq!(s.work, 6);
        assert!((s.span - 0.6).abs() < 1e-12);
        // Below the width, A(q) still reads the job's parallelism.
        let s =
            PipelinedExecutor::new(PhasedJob::barrier(&[Phase::new(10, 100)])).run_quantum(2, 20);
        assert_eq!(s.average_parallelism(), Some(10.0));
        // Two steps per level, six levels.
        let mut ex = PipelinedExecutor::new(PhasedJob::barrier(&[Phase::new(4, 6)]));
        while !ex.is_complete() {
            ex.run_quantum(2, 3);
        }
        assert_eq!((ex.completed_work(), ex.elapsed_steps()), (24, 12));
    }

    #[test]
    fn full_utilization_below_width() {
        // Width 10, allotment 7: pipelining keeps all 7 busy — 70 tasks
        // in 10 steps, no ceil losses.
        let job = PhasedJob::constant(10, 100);
        let mut ex = PipelinedExecutor::new(job);
        let s = ex.run_quantum(7, 10);
        assert_eq!(s.work, 70);
        assert!((s.span - 7.0).abs() < 1e-12);
        assert_eq!(s.average_parallelism(), Some(10.0));
    }

    #[test]
    fn allotment_above_width_capped_by_parallelism() {
        let job = PhasedJob::constant(10, 50);
        let mut ex = PipelinedExecutor::new(job);
        let s = ex.run_quantum(64, 20);
        // One level per step: 10 tasks/step.
        assert_eq!(s.work, 200);
        assert_eq!(s.span, 20.0);
    }

    #[test]
    fn phase_tail_does_not_spill_into_next_phase() {
        // Phase of 3 tasks then a join: the join's successor starts the
        // step after the phase completes.
        let job = PhasedJob::new(vec![Phase::new(3, 1), Phase::new(1, 1)]);
        let mut ex = PipelinedExecutor::new(job);
        let s = ex.run_quantum(8, 10);
        assert_eq!(s.steps_worked, 2);
        assert!(s.completed);
    }

    #[test]
    fn zero_allotment_is_noop() {
        let mut ex = PipelinedExecutor::new(PhasedJob::constant(4, 4));
        let s = ex.run_quantum(0, 100);
        assert_eq!(s.work, 0);
        assert!(!ex.is_complete());
    }

    #[test]
    fn steady_quanta_predicts_bitwise_repeats_and_bulk_equivalence() {
        // Drive a long constant phase one quantum at a time; after each
        // quantum the steady_quanta prediction must hold bit-for-bit for
        // every predicted repeat, and a single bulk call must land the
        // executor in the same state as the repeats it replaces.
        for (a, steps) in [(3u32, 7u64), (16, 5), (10, 4)] {
            let job = PhasedJob::constant(10, 100); // 1000 tasks
            let mut ex = PipelinedExecutor::new(&job);
            let stats = ex.run_quantum(a, steps);
            let m = ex.steady_quanta(a, steps, &stats);
            assert!(m > 0, "long phase must freeze (a={a}, steps={steps})");
            let mut serial = ex.clone();
            for j in 0..m {
                let repeat = serial.run_quantum(a, steps);
                assert_eq!(repeat.work, stats.work, "repeat {j} (a={a})");
                assert_eq!(repeat.steps_worked, stats.steps_worked);
                assert_eq!(repeat.span.to_bits(), stats.span.to_bits());
                assert!(!repeat.completed);
            }
            // One past the prediction must differ (phase tail or completion).
            let past = serial.run_quantum(a, steps);
            assert!(
                past.work != stats.work || past.completed,
                "prediction m={m} was not tight (a={a}, steps={steps})"
            );
            let mut bulk = ex.clone();
            bulk.run_quantum(a, m * steps);
            assert_eq!(bulk.completed_work(), {
                let mut want = ex.clone();
                for _ in 0..m {
                    want.run_quantum(a, steps);
                }
                assert_eq!(want.elapsed_steps(), bulk.elapsed_steps());
                assert_eq!(want.phase, bulk.phase);
                want.completed_work()
            });
        }
    }

    #[test]
    fn steady_quanta_edge_cases() {
        let job = PhasedJob::constant(4, 10);
        let mut ex = PipelinedExecutor::new(&job);
        let zero = ex.run_quantum(0, 8);
        assert_eq!(
            ex.steady_quanta(0, 8, &zero),
            u64::MAX,
            "zero allotment repeats forever"
        );
        // Drain the job: a complete executor never freezes.
        let last = ex.run_quantum(64, 1000);
        assert!(last.completed);
        assert_eq!(ex.steady_quanta(64, 1000, &last), 0);
    }

    #[test]
    fn spans_accumulate_to_total() {
        let mut ex = PipelinedExecutor::new(forkjoin());
        let mut span = 0.0;
        while !ex.is_complete() {
            span += ex.run_quantum(3, 4).span;
        }
        assert!((span - ex.total_span() as f64).abs() < 1e-9);
        assert_eq!(ex.completed_work(), ex.total_work());
    }
}
