//! Per-task executor for explicit dags, generic over the greedy variant.

use crate::quantum::QuantumStats;
use crate::queue::{BreadthFirstQueue, FifoQueue, LifoQueue, ReadyQueue};
use crate::JobExecutor;
use abg_dag::{ExplicitDag, TaskId};
use std::borrow::Borrow;

/// Executes an [`ExplicitDag`] under a greedy rule: each step runs up to
/// `a(q)` tasks, chosen from a [`ReadyQueue`] `Q` that encodes the
/// scheduling priority.
///
/// On unit dags a task popped in step `t` completes at the end of step
/// `t`, and its successors become ready no earlier than step `t+1`
/// (newly enabled tasks are inserted after the step's batch is chosen).
/// The kernel advances serial chains and saturated frontier levels many
/// steps at a time (see [`JobExecutor::run_quantum`] below).
///
/// On *weighted* dags ([`ExplicitDag::is_unit_weight`] false) a task
/// occupies one processor for `task_cost` consecutive steps. Execution
/// is non-preemptive within a quantum — a started task keeps its slot
/// until it completes — but partially executed tasks carry their
/// residual work across quantum boundaries, and when the allotment
/// shrinks the excess in-progress tasks pause in place (their residual
/// is preserved, FIFO order kept) until a slot frees up. The weighted
/// kernel is event-driven: it jumps from one task completion to the
/// next rather than stepping, so a quantum costs
/// `O(completion events × slots + tasks + edges)` whatever its length.
///
/// The dag handle `D` can be a borrow (`&ExplicitDag`) for zero-copy use,
/// or an owning handle (`ExplicitDag`, `Arc<ExplicitDag>`) when the
/// executor must be `'static`, e.g. inside the multi-job simulator's
/// boxed job table.
#[derive(Debug, Clone)]
pub struct DagExecutor<D: Borrow<ExplicitDag>, Q: ReadyQueue> {
    dag: D,
    remaining_preds: Vec<u32>,
    ready: Q,
    /// Tasks fully completed since job start.
    completed: u64,
    /// Processor-step units executed since job start (== `completed` on
    /// unit dags; counts partial progress on weighted ones).
    worked: u64,
    elapsed: u64,
    /// Scratch buffer of tasks selected in the current step (unit dags)
    /// or finished in the current completion sweep (weighted dags).
    batch: Vec<TaskId>,
    /// Weighted dags only: started-but-unfinished tasks with their
    /// residual cost, in start order (the front `min(a, len)` entries
    /// hold processors each step; the tail is paused). While a weighted
    /// quantum runs, the running entries hold quantum-local finish times
    /// instead; they are residuals again at every quantum boundary.
    in_progress: Vec<(TaskId, u64)>,
}

/// B-Greedy: greedy with breadth-first (lowest level first) priority.
pub type BGreedyExecutor<'a> = DagExecutor<&'a ExplicitDag, BreadthFirstQueue>;

/// Plain greedy: any ready tasks, FIFO order.
pub type GreedyExecutor<'a> = DagExecutor<&'a ExplicitDag, FifoQueue>;

/// Depth-first greedy: most recently enabled tasks first.
pub type DepthFirstExecutor<'a> = DagExecutor<&'a ExplicitDag, LifoQueue>;

/// Owning B-Greedy executor, usable where `'static` is required.
pub type OwnedBGreedyExecutor = DagExecutor<ExplicitDag, BreadthFirstQueue>;

impl<D: Borrow<ExplicitDag>, Q: ReadyQueue> DagExecutor<D, Q> {
    /// Creates an executor at the start of the job: all sources ready.
    pub fn new(dag_handle: D) -> Self {
        let dag = dag_handle.borrow();
        let mut ready = Q::for_dag(dag);
        ready.push_sources(dag.source_tasks());
        let remaining_preds = dag.in_degrees().to_vec();
        Self {
            dag: dag_handle,
            remaining_preds,
            ready,
            completed: 0,
            worked: 0,
            elapsed: 0,
            batch: Vec::new(),
            in_progress: Vec::new(),
        }
    }

    /// Rewinds the executor to the start of the job in place: one memcpy
    /// of the dag's cached in-degree table into `remaining_preds`, and a
    /// refill of the (cleared, storage-retaining) ready queue from the
    /// cached source list.
    /// Repeated runs of the same dag through a reset executor therefore
    /// allocate nothing, and behave bit-identically to runs through a
    /// freshly constructed executor (enforced by the equivalence suite).
    ///
    /// A reset marks the dag as replayed: on a weighted dag it builds the
    /// per-task span-share table ([`ExplicitDag::build_span_shares`]) the
    /// first time any executor over that dag is reset, and the weighted
    /// kernel then reads each completed task's share from it.
    pub fn reset(&mut self) {
        let dag = self.dag.borrow();
        dag.build_span_shares();
        self.remaining_preds.copy_from_slice(dag.in_degrees());
        self.completed = 0;
        self.worked = 0;
        self.elapsed = 0;
        self.batch.clear();
        self.in_progress.clear();
        self.ready.clear();
        self.ready.push_sources(dag.source_tasks());
    }

    /// The dag being executed.
    pub fn dag(&self) -> &ExplicitDag {
        self.dag.borrow()
    }

    /// Started-but-unfinished tasks with their residual cost (weighted
    /// dags only; always empty on unit dags).
    pub fn in_progress(&self) -> &[(TaskId, u64)] {
        &self.in_progress
    }

    /// The event-driven quantum kernel for weighted dags.
    ///
    /// A step keeps every processor already bound to an in-progress task
    /// (the front `min(a, len)` entries of `in_progress`) and fills free
    /// slots from the ready queue; a started task completes after
    /// `task_cost` steps on its slot. Since nothing changes between two
    /// completions, the quantum jumps from one completion time to the
    /// next instead of stepping: while it runs, the running prefix holds
    /// quantum-local *finish times* (the paused tail keeps residuals),
    /// the earliest finish time is kept as a running minimum by the
    /// completion sweep and the fill, and each jump of `δ` steps charges
    /// `running × δ` work at once. At the quantum's end the running
    /// slots are turned back into residuals, so quantum boundaries and
    /// [`in_progress`](Self::in_progress) look exactly like a per-step
    /// run. A quantum costs `O(completion events × slots + tasks + edges)`
    /// rather than `O(steps × a + tasks + edges)`.
    ///
    /// Completions are swept in slot order; a completed task at level `l`
    /// with cost `c` charges `c · (1/level_cost(l)) · level_max_cost(l)`
    /// fractional span (so a fully completed level contributes its max
    /// cost, the level's weighted critical-path share), and releases its
    /// successors after the sweep position — never runnable in the same
    /// step. On a replayed dag the share is one load from the dag's
    /// span-share table
    /// ([`span_shares`](abg_dag::WeightProfile::span_shares), built by
    /// [`reset`](Self::reset)); otherwise it is computed through
    /// [`span_contribution`](abg_dag::WeightProfile::span_contribution),
    /// which the table holds bit for bit. The caller makes that choice
    /// once per quantum through `TABLE` (true when the table is built),
    /// so each of the two compiled kernels has a branch-free completion
    /// loop. Paused slots slide into the running prefix as earlier slots
    /// complete, ahead of any fresh ready task. The arithmetic (operand
    /// order included) is bit-identical to the per-step weighted
    /// [`ReferenceExecutor`](crate::reference::ReferenceExecutor) path,
    /// which the `executor_equivalence` proptest suite enforces.
    fn run_quantum_weighted<const TABLE: bool>(
        &mut self,
        allotment: u32,
        steps: u64,
    ) -> QuantumStats {
        let Self {
            dag,
            remaining_preds,
            ready,
            completed,
            worked,
            elapsed,
            batch,
            in_progress,
        } = self;
        let dag: &ExplicitDag = (*dag).borrow();
        let wp = dag
            .weight_profile()
            .expect("weighted quantum requires a weight table");
        let shares = wp.span_shares().unwrap_or_default();
        let total = dag.num_tasks() as u64;
        let a = allotment as usize;
        let mut work = 0u64;
        let mut span = 0.0f64;
        // Quantum-local time: at `now = 0` a running slot's residual is
        // already its finish time.
        let mut now = 0u64;
        let mut next = in_progress[..in_progress.len().min(a)]
            .iter()
            .map(|&(_, f)| f)
            .min()
            .unwrap_or(u64::MAX);
        while now < steps && *completed < total {
            // Fill free slots with newly started tasks.
            while in_progress.len() < a {
                let Some(t) = ready.pop() else { break };
                let f = now + wp.cost(t);
                next = next.min(f);
                in_progress.push((t, f));
            }
            let run = in_progress.len().min(a);
            debug_assert!(run > 0, "a live job always has a ready or running task");
            // Jump to the next completion, or to the quantum's end.
            let until = next.min(steps);
            work += run as u64 * (until - now);
            now = until;
            if now < next {
                break;
            }
            // Sweep the running prefix in slot order without a
            // data-dependent branch: every slot is written back at the
            // survivor cursor and at the finished cursor, and only the
            // cursor its outcome selects moves on. The survivors keep
            // their relative order (the pause/resume fairness order).
            if batch.len() < run {
                batch.resize(run, TaskId(0));
            }
            next = u64::MAX;
            let mut kept = 0usize;
            let mut done = 0usize;
            for i in 0..run {
                let (t, f) = in_progress[i];
                let finished = f == now;
                in_progress[kept] = (t, f);
                batch[done] = t;
                kept += usize::from(!finished);
                done += usize::from(finished);
                // A finished slot contributes `u64::MAX` to the minimum.
                next = next.min(f | u64::from(finished).wrapping_neg());
            }
            // Release the finished tasks in slot order, the reference
            // kernel's order of span additions and pushes, so results
            // stay bit-identical.
            for &t in &batch[..done] {
                span += if TABLE {
                    shares[t.index()]
                } else {
                    wp.span_contribution(wp.cost(t), dag.level(t) as usize)
                };
                for &s in dag.successors(t) {
                    let r = &mut remaining_preds[s.index()];
                    *r -= 1;
                    if *r == 0 {
                        ready.push(s, dag.level(s));
                    }
                }
            }
            *completed += done as u64;
            let len = in_progress.len();
            if run < len {
                // Close the gap over the paused tail; the paused slots
                // that slide into the running prefix resume now.
                in_progress.copy_within(run..len, kept);
                let resumed = (kept + len - run).min(a);
                for slot in &mut in_progress[kept..resumed] {
                    slot.1 += now;
                    next = next.min(slot.1);
                }
            }
            in_progress.truncate(len - (run - kept));
        }
        // Back to residuals for the quantum boundary.
        let run = in_progress.len().min(a);
        for slot in &mut in_progress[..run] {
            slot.1 -= now;
        }
        *worked += work;
        *elapsed += now;
        QuantumStats {
            allotment,
            quantum_len: steps,
            steps_worked: now,
            work,
            span,
            completed: *completed == total,
        }
    }
}

impl<D: Borrow<ExplicitDag>, Q: ReadyQueue> JobExecutor for DagExecutor<D, Q> {
    /// The hot-path kernel.
    ///
    /// Per-quantum cost is `O(tasks completed + edges relaxed)` this
    /// quantum: the fractional span `T∞(q)` is accumulated per completed
    /// task from the dag's precomputed reciprocal level sizes instead of
    /// cloning and rescanning the per-level completion counters (which
    /// cost `O(T∞)` per quantum and made chain-heavy workloads
    /// quadratic). The dag handle is borrowed once per quantum, and two
    /// regimes bypass the per-task queue round-trip entirely:
    ///
    /// * **Serial** — exactly one ready task whose completion enables at
    ///   most one successor is fast-forwarded in a tight chain walk.
    /// * **Wide frontier** (breadth-first queues only) — while the lowest
    ///   ready level holds at least `allotment` pending tasks, the
    ///   frontier is frozen: every push during its drain targets a
    ///   strictly higher level, so `s = min(pending / a, remaining)`
    ///   whole steps are advanced at once — one pass over the level's
    ///   queue segment in place, and successor decrements walked straight
    ///   over the CSR successor slices. A partial level (fewer pending tasks than the allotment)
    ///   falls back to a single straddling step whose batch is gathered
    ///   across consecutive level slices before any successor is
    ///   released, exactly like the per-task step. FIFO/LIFO queues have
    ///   no level structure and always take the per-task path.
    ///
    /// Span is accumulated in task pop order — the saturated bulk loop
    /// performs the same IEEE addition sequence, never an `n × recip`
    /// shortcut — so the result is bit-identical to the per-step
    /// reference kernel
    /// ([`ReferenceExecutor`](crate::reference::ReferenceExecutor)); the
    /// equivalence is enforced by the `executor_equivalence` proptest
    /// suite.
    fn run_quantum(&mut self, allotment: u32, steps: u64) -> QuantumStats {
        let dag = self.dag.borrow();
        if allotment > 0 && !dag.is_unit_weight() && !self.is_complete() {
            // Weighted dags route to the event-driven kernel; the gate
            // keeps every unit-dag run on the bit-pinned fast paths
            // below (an all-1.0 weight table is flagged unit and stays
            // here too). A replayed dag reads its span-share table.
            let replayed = dag
                .weight_profile()
                .is_some_and(|wp| wp.span_shares().is_some());
            return if replayed {
                self.run_quantum_weighted::<true>(allotment, steps)
            } else {
                self.run_quantum_weighted::<false>(allotment, steps)
            };
        }
        let mut work = 0u64;
        let mut steps_worked = 0u64;
        let mut span = 0.0f64;
        if allotment > 0 && !self.is_complete() {
            // Field-disjoint borrows: bind the dag once for the whole
            // quantum while the queue and counters stay mutable.
            let Self {
                dag,
                remaining_preds,
                ready,
                completed,
                elapsed,
                batch,
                ..
            } = self;
            let dag: &ExplicitDag = (*dag).borrow();
            let recips = dag.level_recips();
            let total = dag.work();
            let mut remaining = steps;
            while remaining > 0 && *completed < total {
                if ready.len() == 1 {
                    // Serial regime: the single ready task is popped by
                    // any positive allotment, so each step executes
                    // exactly one task. Walk the chain until it branches,
                    // dies out into a wider frontier, or the quantum
                    // ends; the queue round-trip is skipped because
                    // popping the sole queued task after pushing it is a
                    // no-op on every queue discipline.
                    let mut t = ready.pop().expect("length checked");
                    loop {
                        span += recips[dag.level(t) as usize];
                        *completed += 1;
                        work += 1;
                        steps_worked += 1;
                        *elapsed += 1;
                        remaining -= 1;
                        batch.clear();
                        for &s in dag.successors(t) {
                            let r = &mut remaining_preds[s.index()];
                            *r -= 1;
                            if *r == 0 {
                                batch.push(s);
                            }
                        }
                        if batch.len() == 1 && remaining > 0 {
                            t = batch[0];
                            continue;
                        }
                        for &s in batch.iter() {
                            ready.push(s, dag.level(s));
                        }
                        break;
                    }
                    continue;
                }
                if let Some(bf) = ready.as_level_buckets() {
                    let a = allotment as usize;
                    let (l, avail) = bf
                        .current_level()
                        .expect("a live job always has a ready task");
                    if avail >= a {
                        // Saturated macro-step: the next `s` steps each
                        // pop exactly `a` tasks from level `l` (lower
                        // levels are empty and enabled successors land
                        // strictly above `l`), so they collapse into one
                        // bulk pass straight over the level's segment —
                        // no copy, and successor insertions go through a
                        // split-borrow pusher that skips the queue's
                        // per-push bookkeeping.
                        let s = ((avail / a) as u64).min(remaining);
                        let n = s as usize * a;
                        let r = recips[l];
                        let (slice, mut pusher) = bf.bulk_level(l, n);
                        if dag.is_forest() && dag.has_unit_edges() {
                            // Structural fast path: with at most one
                            // predecessor per task, a completed task
                            // enables all its successors outright (no
                            // remaining-predecessor decrement can be
                            // pending), and with unit edges they all land
                            // on level l + 1 — so the relaxation collapses
                            // to appending each CSR successor row into the
                            // next level's segment. Skipped decrements leave stale
                            // remaining-predecessor entries, but in a
                            // forest each entry is only ever touched by
                            // its task's sole predecessor, which has now
                            // completed: the entry is never read again.
                            let up = l as u32 + 1;
                            // Span accumulation doubles as the id-run
                            // scan: the additions are the same serial
                            // IEEE sequence as per-task popping (`n × r`
                            // would round differently), and the integer
                            // compares ride in the shadow of that FP
                            // dependency chain.
                            let mut consecutive = true;
                            let mut prev = slice[0].0;
                            span += r;
                            for &t in &slice[1..] {
                                consecutive &= t.0 == prev.wrapping_add(1);
                                prev = t.0;
                                span += r;
                            }
                            if consecutive {
                                // One ascending id run: its CSR rows are
                                // one flat range, appended in exactly the
                                // order the per-task walk would push.
                                pusher.extend(up, dag.successors_block(slice[0], slice[n - 1]));
                            } else {
                                for &t in slice {
                                    pusher.extend(up, dag.successors(t));
                                }
                            }
                        } else {
                            for &t in slice {
                                // Same addition sequence as per-task
                                // popping: `n × r` would round
                                // differently.
                                span += r;
                                for &sc in dag.successors(t) {
                                    let rp = &mut remaining_preds[sc.index()];
                                    *rp -= 1;
                                    if *rp == 0 {
                                        pusher.push(sc, dag.level(sc));
                                    }
                                }
                            }
                        }
                        let pushed = pusher.pushed();
                        bf.finish_bulk(l, n, pushed);
                        *completed += n as u64;
                        work += n as u64;
                        steps_worked += s;
                        *elapsed += s;
                        remaining -= s;
                    } else {
                        // Straddling step: the level is narrower than the
                        // allotment, so one step's batch spans several
                        // levels. Gather the whole batch from consecutive
                        // level slices first — successors released by it
                        // must not be runnable in the same step.
                        let k = a.min(bf.len());
                        batch.clear();
                        while batch.len() < k {
                            let (lv, av) = bf.current_level().expect("length checked");
                            let take = av.min(k - batch.len());
                            batch.extend_from_slice(&bf.pending(lv)[..take]);
                            bf.consume(lv, take);
                        }
                        for &t in batch.iter() {
                            span += recips[dag.level(t) as usize];
                            for &s in dag.successors(t) {
                                let rp = &mut remaining_preds[s.index()];
                                *rp -= 1;
                                if *rp == 0 {
                                    bf.push(s, dag.level(s));
                                }
                            }
                        }
                        *completed += k as u64;
                        work += k as u64;
                        steps_worked += 1;
                        *elapsed += 1;
                        remaining -= 1;
                    }
                    continue;
                }
                // General step: pop up to `a(q)` ready tasks, complete
                // them, then release their successors (never runnable in
                // the same step because the batch is chosen first).
                let k = (allotment as usize).min(ready.len());
                batch.clear();
                for _ in 0..k {
                    // `len() >= k` guarantees the pops succeed.
                    let t = ready.pop().expect("queue length checked");
                    batch.push(t);
                }
                for &t in batch.iter() {
                    span += recips[dag.level(t) as usize];
                    for &s in dag.successors(t) {
                        let r = &mut remaining_preds[s.index()];
                        *r -= 1;
                        if *r == 0 {
                            ready.push(s, dag.level(s));
                        }
                    }
                }
                let done = batch.len() as u64;
                debug_assert!(done > 0, "a live job always has a ready task");
                *completed += done;
                work += done;
                steps_worked += 1;
                *elapsed += 1;
                remaining -= 1;
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
    use crate::reference::ReferenceExecutor;
    use abg_dag::generate::{chain, figure2_job, fork_join_diamond};
    use abg_dag::DagBuilder;

    #[test]
    fn chain_executes_serially_regardless_of_allotment() {
        let d = chain(6);
        let mut ex = BGreedyExecutor::new(&d);
        let s = ex.run_quantum(8, 100);
        assert_eq!(s.work, 6);
        assert_eq!(s.steps_worked, 6);
        assert!(s.completed);
        assert!(!s.is_full());
        assert_eq!(s.span, 6.0);
        assert_eq!(s.average_parallelism(), Some(1.0));
    }

    #[test]
    fn diamond_with_ample_processors_takes_span_steps() {
        let d = fork_join_diamond(10);
        let mut ex = BGreedyExecutor::new(&d);
        let s = ex.run_quantum(64, 100);
        assert_eq!(s.steps_worked, 3);
        assert_eq!(s.work, 12);
        // Span is accumulated per task as 1/level_size, so a fully
        // completed level of width w contributes w × (1/w) — within an
        // ulp of 1 rather than exactly 1.
        assert!((s.span - 3.0).abs() < 1e-12, "span = {}", s.span);
    }

    #[test]
    fn diamond_with_one_processor_takes_work_steps() {
        let d = fork_join_diamond(10);
        let mut ex = GreedyExecutor::new(&d);
        let s = ex.run_quantum(1, 1000);
        assert_eq!(s.steps_worked, 12);
        assert_eq!(s.work, 12);
    }

    #[test]
    fn figure2_quantum_statistics() {
        // Reproduces the paper's Figure 2 numbers: after a warm-up that
        // completes the source and one chain head, a 3-step quantum with
        // allotment 4 yields T1(q) = 12, T∞(q) = 2.4, A(q) = 5.
        let d = figure2_job();
        let mut ex = BGreedyExecutor::new(&d);
        let warmup = ex.run_quantum(1, 2);
        assert_eq!(warmup.work, 2);
        let q = ex.run_quantum(4, 3);
        assert_eq!(q.work, 12);
        assert!((q.span - 2.4).abs() < 1e-12, "span = {}", q.span);
        assert_eq!(q.average_parallelism(), Some(5.0));
        assert!(q.is_full());
    }

    #[test]
    fn zero_allotment_quantum_is_a_noop() {
        let d = chain(3);
        let mut ex = BGreedyExecutor::new(&d);
        let s = ex.run_quantum(0, 10);
        assert_eq!(s.work, 0);
        assert_eq!(s.steps_worked, 0);
        assert_eq!(s.average_parallelism(), None);
        assert!(!ex.is_complete());
        assert_eq!(ex.elapsed_steps(), 0);
    }

    #[test]
    fn quantum_spans_accumulate_to_total_span() {
        let d = figure2_job();
        let mut ex = BGreedyExecutor::new(&d);
        let mut span = 0.0;
        while !ex.is_complete() {
            span += ex.run_quantum(2, 3).span;
        }
        assert!((span - d.span() as f64).abs() < 1e-9);
        assert_eq!(ex.completed_work(), d.work());
    }

    #[test]
    fn greedy_bound_holds() {
        // Graham/Brent: T ≤ T1/a + T∞ for greedy on a fixed allotment.
        for width in [1u32, 3, 7] {
            for a in [1u32, 2, 5, 16] {
                let d = fork_join_diamond(width);
                let mut ex = BGreedyExecutor::new(&d);
                let s = ex.run_quantum(a, u64::MAX);
                let bound = (d.work() as f64 / a as f64) + d.span() as f64;
                assert!(
                    (s.steps_worked as f64) <= bound + 1e-9,
                    "width {width} a {a}: T = {} > {bound}",
                    s.steps_worked
                );
            }
        }
    }

    #[test]
    fn depth_first_still_completes_everything() {
        let d = figure2_job();
        let mut ex = DepthFirstExecutor::new(&d);
        let s = ex.run_quantum(2, u64::MAX);
        assert_eq!(s.work, d.work());
        assert!(s.completed);
    }

    #[test]
    fn reset_replays_bit_identically() {
        let d = figure2_job();
        let mut ex = BGreedyExecutor::new(&d);
        let run = |ex: &mut BGreedyExecutor| {
            let mut out = Vec::new();
            while !ex.is_complete() {
                let s = ex.run_quantum(3, 4);
                out.push((s.work, s.steps_worked, s.span.to_bits()));
            }
            out
        };
        let first = run(&mut ex);
        ex.reset();
        assert_eq!(ex.completed_work(), 0);
        assert_eq!(ex.elapsed_steps(), 0);
        assert_eq!(ex.ready.len(), 1);
        assert!(!ex.is_complete());
        assert_eq!(first, run(&mut ex), "reset run diverged");
        assert!(ex.try_reset());
    }

    #[test]
    fn scrambled_forest_takes_per_row_fallback_exactly() {
        // A unit-edge forest whose level-1 segment fills in non-ascending
        // id order (0 -> 3, 1 -> 2): the saturated bulk step must detect
        // the broken id run and fall back to per-row appends — and the
        // level-2 segment it produces ([4, 5]) is ascending again, so the
        // next drain re-enters the single-range copy. Both paths must
        // stay bit-identical to the per-step reference.
        let mut b = DagBuilder::new();
        b.add_tasks(6);
        for (from, to) in [(0, 3), (1, 2), (3, 4), (2, 5)] {
            b.add_edge(TaskId(from), TaskId(to)).unwrap();
        }
        let d = b.build().unwrap();
        assert!(d.is_forest() && d.has_unit_edges());
        let mut fast = BGreedyExecutor::new(&d);
        let mut slow: ReferenceExecutor<&ExplicitDag, BreadthFirstQueue> =
            ReferenceExecutor::new(&d);
        while !fast.is_complete() {
            let f = fast.run_quantum(2, 1);
            let s = slow.run_quantum(2, 1);
            assert_eq!(f.work, s.work);
            assert_eq!(f.steps_worked, s.steps_worked);
            assert_eq!(f.span.to_bits(), s.span.to_bits());
        }
        assert!(slow.is_complete());
    }

    fn weighted_chain() -> abg_dag::ExplicitDag {
        // t0(2) -> t1(3) -> t2(1): work 6, weighted span 6.
        let mut b = DagBuilder::new();
        let t0 = b.add_weighted_task(2.0).unwrap();
        let t1 = b.add_weighted_task(3.0).unwrap();
        let t2 = b.add_task();
        b.add_edge(t0, t1).unwrap();
        b.add_edge(t1, t2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn weighted_tasks_consume_cost_steps() {
        let d = weighted_chain();
        let mut ex = DagExecutor::<_, BreadthFirstQueue>::new(&d);
        let s = ex.run_quantum(4, 100);
        assert_eq!(s.steps_worked, 6, "costs serialise on a chain");
        assert_eq!(s.work, 6, "work counts processor-step units");
        assert!(s.completed);
        assert_eq!(ex.total_work(), 6);
        assert_eq!(ex.total_span(), 6);
        assert!((s.span - 6.0).abs() < 1e-12, "span = {}", s.span);
    }

    #[test]
    fn weighted_residual_carries_across_quanta() {
        let d = weighted_chain();
        let mut ex = DagExecutor::<_, BreadthFirstQueue>::new(&d);
        // One step into t0 (cost 2): partial progress, nothing completed.
        let s = ex.run_quantum(1, 1);
        assert_eq!(s.work, 1);
        assert_eq!(ex.completed_work(), 1, "units, not tasks");
        assert_eq!(ex.in_progress(), &[(TaskId(0), 1)]);
        // The residual unit finishes the task in the next quantum.
        let s = ex.run_quantum(1, 1);
        assert_eq!(s.work, 1);
        assert_eq!(ex.in_progress(), &[], "t0 completed");
        assert_eq!(ex.ready.len(), 1, "t1 released");
        while !ex.is_complete() {
            ex.run_quantum(1, 1);
        }
        assert_eq!(ex.elapsed_steps(), 6);
        assert_eq!(ex.completed_work(), 6);
    }

    #[test]
    fn weighted_allotment_shrink_pauses_in_progress_tasks() {
        // Two independent cost-4 tasks; start both, then shrink to 1.
        let mut b = DagBuilder::new();
        b.add_weighted_task(4.0).unwrap();
        b.add_weighted_task(4.0).unwrap();
        let d = b.build().unwrap();
        let mut ex = DagExecutor::<_, BreadthFirstQueue>::new(&d);
        ex.run_quantum(2, 1);
        assert_eq!(ex.in_progress(), &[(TaskId(0), 3), (TaskId(1), 3)]);
        // One processor: the front slot runs, the second pauses intact.
        let s = ex.run_quantum(1, 3);
        assert_eq!(s.work, 3);
        assert_eq!(ex.in_progress(), &[(TaskId(1), 3)], "t1 residual preserved");
        let s = ex.run_quantum(1, 3);
        assert!(s.completed);
        assert_eq!(ex.elapsed_steps(), 7);
    }

    #[test]
    fn weighted_spans_accumulate_to_weighted_span() {
        // a(1) -> {x(2), y(5)} -> z(3): weighted span 1 + 5 + 3 = 9.
        let mut b = DagBuilder::new();
        let a = b.add_task();
        let x = b.add_weighted_task(2.0).unwrap();
        let y = b.add_weighted_task(5.0).unwrap();
        let z = b.add_weighted_task(3.0).unwrap();
        b.add_edge(a, x).unwrap();
        b.add_edge(a, y).unwrap();
        b.add_edge(x, z).unwrap();
        b.add_edge(y, z).unwrap();
        let d = b.build().unwrap();
        let mut ex = DagExecutor::<_, BreadthFirstQueue>::new(&d);
        let mut span = 0.0;
        while !ex.is_complete() {
            span += ex.run_quantum(2, 3).span;
        }
        assert_eq!(ex.total_span(), 9);
        assert!((span - 9.0).abs() < 1e-9, "span = {span}");
        assert_eq!(ex.completed_work(), d.work());
    }

    #[test]
    fn weighted_reset_replays_bit_identically() {
        let d = weighted_chain();
        let mut ex = DagExecutor::<_, BreadthFirstQueue>::new(&d);
        let run = |ex: &mut DagExecutor<&abg_dag::ExplicitDag, BreadthFirstQueue>| {
            let mut out = Vec::new();
            while !ex.is_complete() {
                let s = ex.run_quantum(2, 3);
                out.push((s.work, s.steps_worked, s.span.to_bits()));
            }
            out
        };
        let first = run(&mut ex);
        assert!(ex.try_reset());
        assert_eq!(first, run(&mut ex), "weighted reset run diverged");
    }

    #[test]
    fn only_a_reset_builds_the_span_share_table() {
        // A fresh executor run to completion, as for a dag generated per
        // arrival, leaves the table unbuilt.
        let d = std::sync::Arc::new(weighted_chain());
        let shares = || d.weight_profile().unwrap().span_shares();
        let mut fresh = DagExecutor::<_, BreadthFirstQueue>::new(std::sync::Arc::clone(&d));
        while !fresh.is_complete() {
            fresh.run_quantum(2, 3);
        }
        assert!(shares().is_none(), "a run without a reset built the table");
        // The first reset builds it, once, for every executor of the dag.
        assert!(fresh.try_reset());
        let built = shares().expect("a reset builds the table").as_ptr();
        let mut other = DagExecutor::<_, BreadthFirstQueue>::new(std::sync::Arc::clone(&d));
        other.reset();
        assert_eq!(shares().unwrap().as_ptr(), built, "one table per dag");
    }

    #[test]
    fn successors_not_runnable_same_step() {
        // Chain of 2 with allotment 2: the child must wait a step.
        let d = chain(2);
        let mut ex = BGreedyExecutor::new(&d);
        let s = ex.run_quantum(2, 10);
        assert_eq!(
            s.steps_worked, 2,
            "unit tasks cannot pipeline within a step"
        );
    }
}
