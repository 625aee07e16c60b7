//! Distributed work-stealing task scheduling — the decentralized
//! counterpart of B-Greedy.
//!
//! The paper's related work (Section 8) compares against two
//! work-stealing schedulers:
//!
//! * **ABP** (Arora, Blumofe, Plaxton): randomized work stealing with
//!   *no* parallelism feedback — the job simply runs work-stealing on
//!   whatever processors it holds;
//! * **A-Steal** (Agrawal, He, Leiserson): ABP-style execution plus the
//!   same multiplicative-increase/multiplicative-decrease desire rule as
//!   A-Greedy, driven by the quantum's *non-steal usage*.
//!
//! This crate implements the execution substrate both need:
//! [`StealExecutor`], a synchronous-step simulation of per-processor
//! deques with owner-side LIFO and randomized stealing. It implements
//! the same [`JobExecutor`] interface as the centralized executors, so
//! it plugs into the identical two-level simulation:
//!
//! * **A-Steal** = `StealExecutor` + [`ASteal`] (the A-Greedy desire
//!   rule: its "efficient" test on `T1(q) ≥ δ·a·L` is exactly the
//!   non-steal-usage test, since only executed tasks count as work);
//! * **ABP**    = `StealExecutor` + [`abp_request`] (a constant request
//!   for the whole machine).
//!
//! The executor also measures the fractional quantum span the same way
//! B-Greedy does, so the A-Control controller can drive a work-stealing
//! execution too — a combination the paper suggests but never built.
//!
//! ## Model
//!
//! Time advances in unit steps, synchronously across the `a(q)`
//! processors of the quantum. In a step each processor either
//!
//! 1. pops the bottom task of its own deque and executes it (children
//!    are pushed back to the same deque's bottom), or
//! 2. if its deque is empty, picks a uniformly random victim and tries
//!    to steal the *top* task of the victim's deque; a successful steal
//!    deposits the task for execution on a later step, and either way
//!    the step is spent (a *steal cycle*, counted as waste).
//!
//! When the allotment shrinks between quanta, the orphaned deques are
//! redistributed to the surviving processors (a simplification of
//! A-Steal's "mugging"; the paper's accounting charges mug cycles like
//! steal cycles, and redistribution only makes the baseline stronger).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use abg_control::AGreedy;
use abg_control::ConstantRequest;
use abg_dag::{ExplicitDag, TaskId};
use abg_sched::{JobExecutor, QuantumStats};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::borrow::Borrow;
use std::collections::VecDeque;

/// The A-Steal desire calculator.
///
/// A-Steal re-uses A-Greedy's multiplicative update verbatim; the only
/// difference is the execution substrate (work stealing instead of
/// centralized greedy), which is captured by pairing this calculator
/// with a [`StealExecutor`]. The quantum's *non-steal usage* is its
/// `T1(q)` — steal cycles do not execute tasks — so
/// [`AGreedy::is_efficient`] already tests the right quantity.
pub type ASteal = AGreedy;

/// The ABP request policy: no feedback, always ask for the whole
/// machine (work stealing will idle whatever it cannot use).
pub fn abp_request(processors: u32) -> ConstantRequest {
    ConstantRequest::new(f64::from(processors.max(1)))
}

/// A randomized work-stealing executor over an explicit dag.
///
/// Generic over the dag handle like
/// [`DagExecutor`](abg_sched::DagExecutor): pass `&ExplicitDag` for
/// borrowed use or an owned/`Arc` handle where `'static` is needed.
#[derive(Debug)]
pub struct StealExecutor<D: Borrow<ExplicitDag>> {
    dag: D,
    remaining_preds: Vec<u32>,
    /// One deque per currently-allotted processor.
    deques: Vec<VecDeque<TaskId>>,
    /// A stolen task "in hand": executed on the thief's next step and
    /// not stealable in the meantime. Without this, two mutual thieves
    /// can pass one task back and forth forever (work-stealing's
    /// classic livelock); holding the loot for a step breaks the cycle
    /// and matches ABP, where a steal costs the whole step.
    pending: Vec<Option<TaskId>>,
    completed: u64,
    /// Processor-step units executed (weighted dags count partial
    /// progress; equals `completed` on unit dags).
    worked: u64,
    elapsed: u64,
    steal_cycles: u64,
    rng: StdRng,
    /// Construction seed, kept so [`reset`](Self::reset) can replay the
    /// identical steal stream.
    seed: u64,
    /// Scratch: tasks executed this step (children enabled after).
    batch: Vec<(usize, TaskId)>,
    /// Weighted dags only (a unit task completes in the step that takes
    /// it): the task each processor is currently executing, with
    /// residual cost. A running task is pinned to its processor
    /// (non-preemptive) and not stealable.
    running: Vec<Option<(TaskId, u64)>>,
    /// Weighted dags only: partially-executed tasks orphaned by an
    /// allotment shrink; their residual work resumes on whichever
    /// processor next runs dry.
    paused: Vec<(TaskId, u64)>,
}

impl<D: Borrow<ExplicitDag>> StealExecutor<D> {
    /// Creates an executor with the given RNG seed; the sources are
    /// dealt round-robin to an initial single deque (the first quantum
    /// starts with whatever allotment `run_quantum` receives).
    pub fn new(dag_handle: D, seed: u64) -> Self {
        let dag = dag_handle.borrow();
        let mut first = VecDeque::new();
        for t in dag.sources() {
            first.push_back(t);
        }
        let remaining_preds = (0..dag.num_tasks() as u32)
            .map(|i| dag.in_degree(TaskId(i)))
            .collect();
        Self {
            dag: dag_handle,
            remaining_preds,
            deques: vec![first],
            pending: vec![None],
            completed: 0,
            worked: 0,
            elapsed: 0,
            steal_cycles: 0,
            rng: StdRng::seed_from_u64(seed),
            seed,
            batch: Vec::new(),
            running: vec![None],
            paused: Vec::new(),
        }
    }

    /// Rewinds to the start of the job in place, re-seeding the RNG so a
    /// reset run replays the exact steal stream of a fresh executor. The
    /// in-degree table is memcpy'd from the dag's cache and the deque set
    /// shrinks back to the single initial deque without reallocating it.
    pub fn reset(&mut self) {
        let dag = self.dag.borrow();
        self.remaining_preds.copy_from_slice(dag.in_degrees());
        self.deques.truncate(1);
        self.deques[0].clear();
        for t in dag.sources() {
            self.deques[0].push_back(t);
        }
        self.pending.clear();
        self.pending.push(None);
        self.running.clear();
        self.running.push(None);
        self.paused.clear();
        self.completed = 0;
        self.worked = 0;
        self.elapsed = 0;
        self.steal_cycles = 0;
        self.rng = StdRng::seed_from_u64(self.seed);
        self.batch.clear();
    }

    /// Total steal cycles spent so far (the distributed scheduler's
    /// intrinsic overhead; these cycles are part of the waste).
    pub fn steal_cycles(&self) -> u64 {
        self.steal_cycles
    }

    /// Resizes the deque set to the new allotment, redistributing
    /// orphaned tasks round-robin onto the survivors on a shrink.
    fn resize(&mut self, allotment: usize) {
        if allotment == 0 {
            return; // keep state; the quantum will be a no-op
        }
        if allotment > self.deques.len() {
            self.deques.resize_with(allotment, VecDeque::new);
            self.pending.resize(allotment, None);
            self.running.resize(allotment, None);
        } else if allotment < self.deques.len() {
            // Residual work of orphaned processors is paused, not lost:
            // it resumes (with its remaining cost intact) on whichever
            // surviving processor next runs dry.
            self.paused
                .extend(self.running.drain(allotment..).flatten());
            let orphans: Vec<TaskId> = self
                .deques
                .drain(allotment..)
                .flat_map(Vec::from)
                .chain(self.pending.drain(allotment..).flatten())
                .collect();
            for (i, t) in orphans.into_iter().enumerate() {
                self.deques[i % allotment].push_back(t);
            }
        }
    }

    /// One synchronous step over `a` processors: each one advances its
    /// running task by one unit, acquiring a new task when idle (paused
    /// residual first, then loot from last step's steal, then its own
    /// deque bottom, then one steal attempt). Completions are processed
    /// after the whole round and add their fractional span to `span`.
    /// Returns processor-step units executed. On a unit dag every task
    /// completes in the step that acquires it, so nothing runs on or is
    /// paused and a unit is a task.
    fn step(&mut self, a: usize, span: &mut f64) -> u64 {
        let dag = self.dag.borrow();
        let wp = dag.weight_profile().filter(|_| !dag.is_unit_weight());
        let cost = |t| wp.map_or(1, |wp| wp.cost(t));
        self.batch.clear();
        let mut units = 0u64;
        for p in 0..a {
            let acquired = if let Some(slot) = self.running[p].take() {
                Some(slot)
            } else if let Some(slot) = self.paused.pop() {
                Some(slot)
            } else if let Some(t) = self.pending[p].take() {
                Some((t, cost(t)))
            } else if let Some(t) = self.deques[p].pop_back() {
                Some((t, cost(t)))
            } else {
                // Stolen work is held in hand and executed next step
                // (the steal consumed this one); in-hand tasks cannot
                // be re-stolen, which rules out steal ping-pong.
                if a > 1 {
                    let victim = self.rng.random_range(0..a - 1);
                    let victim = if victim >= p { victim + 1 } else { victim };
                    self.pending[p] = self.deques[victim].pop_front();
                }
                self.steal_cycles += 1;
                None
            };
            if let Some((t, rem)) = acquired {
                units += 1;
                if rem == 1 {
                    self.batch.push((p, t));
                } else {
                    self.running[p] = Some((t, rem - 1));
                }
            }
        }
        self.worked += units;
        // Enabled children go to the executor's own deque bottom
        // (depth-first, the classic work-stealing order). A unit task's
        // span is its level's precomputed reciprocal size.
        let recips = dag.level_recips();
        for i in 0..self.batch.len() {
            let (p, t) = self.batch[i];
            let l = dag.level(t) as usize;
            *span += match wp {
                Some(wp) => wp.span_contribution(wp.cost(t), l),
                None => recips[l],
            };
            for &s in dag.successors(t) {
                let r = &mut self.remaining_preds[s.index()];
                *r -= 1;
                if *r == 0 {
                    self.deques[p].push_back(s);
                }
            }
        }
        self.completed += self.batch.len() as u64;
        units
    }
}

impl<D: Borrow<ExplicitDag>> JobExecutor for StealExecutor<D> {
    fn run_quantum(&mut self, allotment: u32, steps: u64) -> QuantumStats {
        let mut work = 0u64;
        let mut steps_worked = 0u64;
        let mut span = 0.0f64;
        if allotment > 0 {
            self.resize(allotment as usize);
            for _ in 0..steps {
                if self.is_complete() {
                    break;
                }
                let units = self.step(allotment as usize, &mut span);
                work += units;
                // `steps_worked` honours the JobExecutor contract (steps
                // in which at least one unit ran); a step lost entirely
                // to failed steals consumes wall-clock but no work, so
                // quanta containing one are correctly not "full".
                if units > 0 {
                    steps_worked += 1;
                }
                self.elapsed += 1;
            }
        }
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
        self.worked
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
    use abg_dag::generate::{chain, chain_bundle, fork_join_diamond};

    fn drive<D: Borrow<ExplicitDag>>(mut ex: StealExecutor<D>, a: u32, l: u64) -> u64 {
        while !ex.is_complete() {
            let s = ex.run_quantum(a, l);
            assert!(s.work > 0, "a live job must make progress each quantum");
        }
        ex.elapsed_steps()
    }

    #[test]
    fn completes_a_chain() {
        let d = chain(20);
        let steps = drive(StealExecutor::new(&d, 1), 4, 8);
        assert_eq!(steps, 20, "a chain admits no parallelism");
    }

    #[test]
    fn completes_a_diamond_with_speedup() {
        let d = fork_join_diamond(32);
        let mut ex = StealExecutor::new(&d, 7);
        while !ex.is_complete() {
            ex.run_quantum(8, 16);
        }
        // 34 tasks on 8 processors: well below the serial 34 steps even
        // with steal overhead. The bound is deliberately loose — the
        // exact step count depends on the RNG stream (21 with the
        // vendored SplitMix64 StdRng, 19 with upstream ChaCha), and the
        // property under test is speedup, not a particular stream.
        assert!(ex.elapsed_steps() < 26, "steps = {}", ex.elapsed_steps());
        assert_eq!(ex.completed_work(), 34);
    }

    #[test]
    fn work_stealing_bound_holds() {
        // T ≤ T1/a + O(T∞) whp; use a generous constant for the test.
        for seed in 0..5u64 {
            let d = chain_bundle(8, 50);
            let mut ex = StealExecutor::new(&d, seed);
            while !ex.is_complete() {
                ex.run_quantum(8, 25);
            }
            let bound = d.work() / 8 + 16 * d.span();
            assert!(
                ex.elapsed_steps() <= bound,
                "seed {seed}: {} > {bound}",
                ex.elapsed_steps()
            );
        }
    }

    #[test]
    fn steal_cycles_accumulate_on_imbalance() {
        // One long chain on 8 processors: 7 of them steal (and fail)
        // every step.
        let d = chain(64);
        let mut ex = StealExecutor::new(&d, 1);
        while !ex.is_complete() {
            ex.run_quantum(8, 16);
        }
        assert!(
            ex.steal_cycles() >= 7 * 60,
            "expected ≥ {} steal cycles, saw {}",
            7 * 60,
            ex.steal_cycles()
        );
    }

    #[test]
    fn quantum_span_accumulates_to_total() {
        let d = chain_bundle(6, 30);
        let mut ex = StealExecutor::new(&d, 9);
        let mut span = 0.0;
        while !ex.is_complete() {
            span += ex.run_quantum(4, 10).span;
        }
        assert!((span - d.span() as f64).abs() < 1e-9);
    }

    #[test]
    fn allotment_shrink_redistributes_orphans() {
        let d = chain_bundle(16, 20);
        let mut ex = StealExecutor::new(&d, 3);
        ex.run_quantum(16, 4); // spread work over 16 deques
        let before = ex.completed_work();
        let s = ex.run_quantum(2, 10); // shrink to 2 processors
        assert!(s.work > 0, "orphaned tasks must remain reachable");
        assert!(ex.completed_work() > before);
        // Run to completion on the small allotment.
        while !ex.is_complete() {
            ex.run_quantum(2, 10);
        }
        assert_eq!(ex.completed_work(), d.work());
    }

    #[test]
    fn zero_allotment_is_noop() {
        let d = chain(5);
        let mut ex = StealExecutor::new(&d, 1);
        let s = ex.run_quantum(0, 100);
        assert_eq!(s.work, 0);
        assert!(!ex.is_complete());
    }

    #[test]
    fn deterministic_for_seed() {
        let d = chain_bundle(8, 40);
        let run = |seed| {
            let mut ex = StealExecutor::new(&d, seed);
            let mut trace = Vec::new();
            while !ex.is_complete() {
                trace.push(ex.run_quantum(5, 8).work);
            }
            (trace, ex.steal_cycles())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1, "different seeds steal differently");
    }

    #[test]
    fn reset_replays_the_identical_run() {
        let d = chain_bundle(8, 40);
        let trace = |ex: &mut StealExecutor<&ExplicitDag>| {
            let mut t = Vec::new();
            while !ex.is_complete() {
                t.push(ex.run_quantum(5, 8).work);
            }
            (t, ex.steal_cycles())
        };
        let mut ex = StealExecutor::new(&d, 42);
        let first = trace(&mut ex);
        assert!(ex.try_reset());
        let second = trace(&mut ex);
        assert_eq!(first, second, "reset must replay the exact steal stream");
    }

    fn weighted_bundle(chains: u32, len: u32, cost: f64) -> ExplicitDag {
        chain_bundle(chains, len)
            .with_uniform_weight(cost)
            .expect("valid weight")
    }

    #[test]
    fn weighted_chain_serialises_costs() {
        use abg_dag::DagBuilder;
        // t0(2) -> t1(3) -> t2(1): 6 units, no parallelism to exploit.
        let mut b = DagBuilder::new();
        let t0 = b.add_weighted_task(2.0).unwrap();
        let t1 = b.add_weighted_task(3.0).unwrap();
        let t2 = b.add_task();
        b.add_edge(t0, t1).unwrap();
        b.add_edge(t1, t2).unwrap();
        let d = b.build().unwrap();
        let mut ex = StealExecutor::new(&d, 1);
        while !ex.is_complete() {
            ex.run_quantum(4, 8);
        }
        assert_eq!(ex.completed_work(), 6, "units, not tasks");
        assert_eq!(ex.total_work(), 6);
        assert_eq!(ex.total_span(), 6);
        assert_eq!(ex.elapsed_steps(), 6, "a chain admits no parallelism");
    }

    #[test]
    fn weighted_quantum_span_accumulates_to_weighted_span() {
        let d = weighted_bundle(6, 10, 3.0);
        let mut ex = StealExecutor::new(&d, 9);
        let mut span = 0.0;
        while !ex.is_complete() {
            span += ex.run_quantum(4, 10).span;
        }
        assert_eq!(ex.total_span(), 30);
        assert!((span - 30.0).abs() < 1e-9, "span = {span}");
        assert_eq!(ex.completed_work(), d.work());
    }

    #[test]
    fn weighted_shrink_pauses_residual_work() {
        let d = weighted_bundle(8, 6, 5.0);
        let mut ex = StealExecutor::new(&d, 3);
        ex.run_quantum(8, 2); // 8 tasks mid-flight, each with residual
        let before = ex.completed_work();
        while !ex.is_complete() {
            ex.run_quantum(2, 10); // shrink: 6 residuals go to `paused`
        }
        assert!(ex.completed_work() > before);
        assert_eq!(ex.completed_work(), d.work(), "no residual unit lost");
    }

    #[test]
    fn weighted_reset_replays_the_identical_run() {
        let d = weighted_bundle(8, 10, 2.0);
        let trace = |ex: &mut StealExecutor<&ExplicitDag>| {
            let mut t = Vec::new();
            while !ex.is_complete() {
                let s = ex.run_quantum(5, 8);
                t.push((s.work, s.span.to_bits()));
            }
            (t, ex.steal_cycles())
        };
        let mut ex = StealExecutor::new(&d, 42);
        let first = trace(&mut ex);
        assert!(ex.try_reset());
        assert_eq!(first, trace(&mut ex), "reset must replay the run");
    }

    #[test]
    fn unit_weight_table_routes_the_unit_path() {
        let d = chain_bundle(8, 40);
        let tabled = chain_bundle(8, 40)
            .with_uniform_weight(1.0)
            .expect("unit weight is valid");
        assert!(tabled.is_unit_weight());
        let run = |dag: &ExplicitDag| {
            let mut ex = StealExecutor::new(dag, 42);
            let mut t = Vec::new();
            while !ex.is_complete() {
                let s = ex.run_quantum(5, 8);
                t.push((s.work, s.span.to_bits()));
            }
            (t, ex.steal_cycles())
        };
        assert_eq!(run(&d), run(&tabled), "all-unit table must be a no-op");
    }

    #[test]
    fn abp_requests_whole_machine() {
        use abg_control::Controller;
        let r = abp_request(64);
        assert_eq!(r.initial_request(), 64.0);
    }

    #[test]
    fn asteal_is_the_agreedy_rule() {
        use abg_control::Controller;
        let mut a = ASteal::paper_default();
        let q = QuantumStats {
            allotment: 1,
            quantum_len: 10,
            steps_worked: 10,
            work: 10,
            span: 10.0,
            completed: false,
        };
        assert_eq!(
            a.observe(&q),
            2.0,
            "efficient satisfied quantum doubles desire"
        );
    }
}
