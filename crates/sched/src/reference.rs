//! The naive per-step reference kernel.
//!
//! [`ReferenceExecutor`] preserves the original, pre-optimisation
//! execution kernel: one task at a time through the ready queue, the dag
//! handle re-borrowed at every access, and the quantum span recovered by
//! cloning the per-level completion counters at the quantum boundary and
//! rescanning all `T∞` levels — `O(T∞)` per quantum regardless of how
//! little work the quantum did.
//!
//! It exists for two reasons:
//!
//! 1. **Equivalence testing.** The optimised
//!    [`DagExecutor`](crate::DagExecutor) must produce bit-identical
//!    [`QuantumStats`] on every quantum; the `executor_equivalence`
//!    proptest suite drives both kernels in lockstep over random dags.
//!    To make the span comparison exact rather than approximate, the
//!    reference accumulates span per completed task in pop order as
//!    `1.0 / level_size` — IEEE division yields exactly the value the
//!    optimised kernel reads from the precomputed reciprocal table, and
//!    the addition order matches, so the sums are bit-equal. The legacy
//!    rescan formula (`Δcompleted / size` summed per level) is still
//!    computed every quantum and cross-checked against the per-task sum
//!    to within `1e-9`, guarding against semantic drift in either.
//! 2. **Benchmarking the before/after.** The CLI `bench` subcommand
//!    runs the same serial-chain microkernel through this executor
//!    (`chain_reference`) and the optimised one (`chain_macro`), so the
//!    speedup claimed by the kernel overhaul stays measurable in every
//!    future checkout.

use crate::quantum::QuantumStats;
use crate::queue::{BreadthFirstQueue, ReadyQueue};
use crate::JobExecutor;
use abg_dag::{ExplicitDag, TaskId};
use std::borrow::Borrow;

/// The pre-overhaul per-task executor: per-step loop, per-access dag
/// borrow, and an `O(T∞)` clone-and-rescan of the per-level completion
/// counters at every quantum boundary.
///
/// Semantically identical to [`DagExecutor`](crate::DagExecutor) with the
/// same queue discipline; see the module docs for why it is kept.
#[derive(Debug)]
pub struct ReferenceExecutor<D: Borrow<ExplicitDag>, Q: ReadyQueue> {
    dag: D,
    remaining_preds: Vec<u32>,
    ready: Q,
    completed_per_level: Vec<u64>,
    /// Weighted dags only: completed cost units per level, for the
    /// weighted span rescan cross-check.
    completed_cost_per_level: Vec<u64>,
    completed: u64,
    /// Processor-step units executed (weighted dags count partial
    /// progress; equals `completed` on unit dags).
    worked: u64,
    elapsed: u64,
    batch: Vec<TaskId>,
    /// Weighted dags only: started-but-unfinished tasks with residual
    /// cost, in start order (mirrors the optimised kernel's slot list).
    in_progress: Vec<(TaskId, u64)>,
}

/// Reference B-Greedy (breadth-first) executor over a borrowed dag.
pub type ReferenceBGreedyExecutor<'a> = ReferenceExecutor<&'a ExplicitDag, BreadthFirstQueue>;

impl<D: Borrow<ExplicitDag>, Q: ReadyQueue> ReferenceExecutor<D, Q> {
    /// Creates an executor at the start of the job: all sources ready.
    pub fn new(dag_handle: D) -> Self {
        let dag = dag_handle.borrow();
        let mut ready = Q::default();
        for t in dag.sources() {
            ready.push(t, dag.level(t));
        }
        let remaining_preds = (0..dag.num_tasks() as u32)
            .map(|i| dag.in_degree(TaskId(i)))
            .collect();
        let completed_per_level = vec![0; dag.span() as usize];
        let completed_cost_per_level = vec![0; dag.span() as usize];
        Self {
            dag: dag_handle,
            remaining_preds,
            ready,
            completed_per_level,
            completed_cost_per_level,
            completed: 0,
            worked: 0,
            elapsed: 0,
            batch: Vec::new(),
            in_progress: Vec::new(),
        }
    }

    /// Rewinds to the start of the job in place (the reference mirror of
    /// [`DagExecutor::reset`](crate::DagExecutor::reset), so reset-reuse
    /// can itself be equivalence-tested against this kernel).
    pub fn reset(&mut self) {
        let dag = self.dag.borrow();
        self.remaining_preds.copy_from_slice(dag.in_degrees());
        self.completed_per_level.fill(0);
        self.completed_cost_per_level.fill(0);
        self.completed = 0;
        self.worked = 0;
        self.elapsed = 0;
        self.batch.clear();
        self.in_progress.clear();
        self.ready.clear();
        for t in dag.sources() {
            self.ready.push(t, dag.level(t));
        }
    }

    /// Started-but-unfinished tasks with their residual cost, in start
    /// order (weighted dags only; always empty on unit dags) — the
    /// mirror of [`DagExecutor::in_progress`](crate::DagExecutor::in_progress).
    pub fn in_progress(&self) -> &[(TaskId, u64)] {
        &self.in_progress
    }

    /// One time step; returns tasks completed and adds each task's
    /// fractional span contribution to `span` in pop order.
    fn step(&mut self, allotment: u32, span: &mut f64) -> u64 {
        let k = (allotment as usize).min(self.ready.len());
        self.batch.clear();
        for _ in 0..k {
            let t = self.ready.pop().expect("queue length checked");
            self.batch.push(t);
        }
        for i in 0..self.batch.len() {
            let t = self.batch[i];
            let l = self.dag.borrow().level(t) as usize;
            self.completed_per_level[l] += 1;
            *span += 1.0 / self.dag.borrow().level_sizes()[l] as f64;
            for &s in self.dag.borrow().successors(t) {
                let r = &mut self.remaining_preds[s.index()];
                *r -= 1;
                if *r == 0 {
                    self.ready.push(s, self.dag.borrow().level(s));
                }
            }
        }
        let done = self.batch.len() as u64;
        self.completed += done;
        done
    }

    /// One weighted time step, kept deliberately naive: the dag handle
    /// is re-borrowed at every access and the span factors are
    /// recomputed inline (`1.0 / level_cost as f64` is the same IEEE
    /// division that produced the optimised kernel's precomputed
    /// reciprocal, so the sums stay bit-equal). Returns processor-step
    /// units executed.
    fn step_weighted(&mut self, allotment: u32, span: &mut f64) -> u64 {
        let a = allotment as usize;
        while self.in_progress.len() < a {
            match self.ready.pop() {
                Some(t) => {
                    let c = self
                        .dag
                        .borrow()
                        .weight_profile()
                        .expect("weighted step requires a weight table")
                        .cost(t);
                    self.in_progress.push((t, c));
                }
                None => break,
            }
        }
        let run = self.in_progress.len().min(a);
        for slot in self.in_progress[..run].iter_mut() {
            slot.1 -= 1;
        }
        self.worked += run as u64;
        let mut kept = 0usize;
        for i in 0..self.in_progress.len() {
            let (t, rem) = self.in_progress[i];
            if rem == 0 {
                let l = self.dag.borrow().level(t) as usize;
                let c = self.dag.borrow().weight_profile().unwrap().cost(t);
                let level_cost = self.dag.borrow().weight_profile().unwrap().level_cost(l);
                let level_max = self
                    .dag
                    .borrow()
                    .weight_profile()
                    .unwrap()
                    .level_max_cost(l);
                self.completed_per_level[l] += 1;
                self.completed_cost_per_level[l] += c;
                *span += c as f64 * (1.0 / level_cost as f64) * level_max as f64;
                self.completed += 1;
                for &s in self.dag.borrow().successors(t) {
                    let r = &mut self.remaining_preds[s.index()];
                    *r -= 1;
                    if *r == 0 {
                        self.ready.push(s, self.dag.borrow().level(s));
                    }
                }
            } else {
                self.in_progress[kept] = (t, rem);
                kept += 1;
            }
        }
        self.in_progress.truncate(kept);
        run as u64
    }

    /// The weighted quantum loop, with the weighted analogue of the
    /// legacy rescan: per level, the completed cost units this quantum
    /// times `level_max_cost / level_cost` must agree with the per-task
    /// accumulation to within `1e-9`.
    fn run_quantum_weighted(&mut self, allotment: u32, steps: u64) -> QuantumStats {
        let before = self.completed_cost_per_level.clone();
        let mut work = 0u64;
        let mut steps_worked = 0u64;
        let mut span = 0.0f64;
        for _ in 0..steps {
            if self.is_complete() {
                break;
            }
            let units = self.step_weighted(allotment, &mut span);
            debug_assert!(units > 0, "a live job always has a ready or running task");
            work += units;
            steps_worked += 1;
            self.elapsed += 1;
        }
        let dag = self.dag.borrow();
        let wp = dag.weight_profile().expect("weighted quantum");
        let rescan: f64 = self
            .completed_cost_per_level
            .iter()
            .zip(&before)
            .enumerate()
            .map(|(l, (now, was))| {
                (now - was) as f64 / wp.level_cost(l) as f64 * wp.level_max_cost(l) as f64
            })
            .sum();
        assert!(
            (rescan - span).abs() < 1e-9,
            "weighted per-task span {span} diverged from per-level rescan {rescan}"
        );
        QuantumStats {
            allotment,
            quantum_len: steps,
            steps_worked,
            work,
            span,
            completed: self.is_complete(),
        }
    }
}

impl<D: Borrow<ExplicitDag>, Q: ReadyQueue> JobExecutor for ReferenceExecutor<D, Q> {
    fn run_quantum(&mut self, allotment: u32, steps: u64) -> QuantumStats {
        if allotment > 0 && !self.dag.borrow().is_unit_weight() {
            return self.run_quantum_weighted(allotment, steps);
        }
        let before = self.completed_per_level.clone();
        let mut work = 0u64;
        let mut steps_worked = 0u64;
        let mut span = 0.0f64;
        if allotment > 0 {
            for _ in 0..steps {
                if self.is_complete() {
                    break;
                }
                let done = self.step(allotment, &mut span);
                debug_assert!(done > 0, "a live job always has a ready task");
                work += done;
                steps_worked += 1;
                self.elapsed += 1;
            }
        }
        // The legacy O(T∞) rescan; kept live (a plain assert, present in
        // release builds too) so the reference both pays the original
        // per-quantum cost in benchmarks and cross-checks the per-task
        // accumulation for semantic drift.
        let rescan: f64 = self
            .completed_per_level
            .iter()
            .zip(&before)
            .zip(self.dag.borrow().level_sizes())
            .map(|((now, was), &size)| (now - was) as f64 / size as f64)
            .sum();
        assert!(
            (rescan - span).abs() < 1e-9,
            "per-task span {span} diverged from per-level rescan {rescan}"
        );
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
        self.completed == self.dag.borrow().num_tasks() as u64
    }

    fn total_work(&self) -> u64 {
        self.dag.borrow().work()
    }

    fn total_span(&self) -> u64 {
        self.dag.borrow().weighted_span()
    }

    fn completed_work(&self) -> u64 {
        if self.dag.borrow().is_unit_weight() {
            self.completed
        } else {
            self.worked
        }
    }

    fn elapsed_steps(&self) -> u64 {
        self.elapsed
    }

    fn try_reset(&mut self) -> bool {
        self.reset();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abg_dag::generate::figure2_job;

    #[test]
    fn reference_reproduces_figure2() {
        let d = figure2_job();
        let mut ex = ReferenceBGreedyExecutor::new(&d);
        let warmup = ex.run_quantum(1, 2);
        assert_eq!(warmup.work, 2);
        let q = ex.run_quantum(4, 3);
        assert_eq!(q.work, 12);
        assert!((q.span - 2.4).abs() < 1e-12, "span = {}", q.span);
    }
}
