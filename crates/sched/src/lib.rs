//! Task schedulers for the ABG reproduction.
//!
//! In the paper's two-level framework, a *task scheduler* executes the
//! ready tasks of a single job on whatever allotment the OS allocator
//! granted for the quantum, and measures the statistics that drive the
//! feedback loop (Section 2):
//!
//! * the **quantum work** `T1(q)` — tasks completed in quantum `q`,
//! * the **quantum critical-path length** `T∞(q)` — the number of levels
//!   the job advanced, where a partially completed level counts
//!   fractionally (completed tasks / level size), and
//! * the **quantum average parallelism** `A(q) = T1(q) / T∞(q)`.
//!
//! [`BGreedyExecutor`] implements the paper's B-Greedy: a greedy scheduler
//! that gives priority to the ready task with the lowest level
//! (breadth-first). [`GreedyExecutor`] (FIFO tie-breaking, no level
//! priority) and [`DepthFirstExecutor`] (LIFO) are the baselines used to
//! show why the breadth-first rule matters for measuring `A(q)`.
//!
//! [`PipelinedExecutor`] is the fast-forward executor for compact
//! [`abg_dag::PhasedJob`]s: one `O(1)` update per phase touched instead
//! of one per task, equivalent to running [`BGreedyExecutor`] on the
//! lowered explicit dag — the test-suite checks work, worked steps and
//! completion exactly and the fractional span within `1e-9` (it is
//! summed per phase here, per task there, so the last bits can
//! differ). A barrier job ([`abg_dag::PhasedJob::barrier`])
//! is a `PhasedJob` of one-level phases and runs through the same
//! executor.
//!
//! All executors share the [`JobExecutor`] interface consumed by the
//! simulation engine in `abg-sim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod pipelined_exec;
pub mod quantum;
pub mod queue;
pub mod reference;

pub use executor::{
    BGreedyExecutor, DagExecutor, DepthFirstExecutor, GreedyExecutor, OwnedBGreedyExecutor,
};
pub use pipelined_exec::PipelinedExecutor;
pub use quantum::QuantumStats;
pub use queue::{BreadthFirstQueue, FifoQueue, LifoQueue, ReadyQueue};
pub use reference::ReferenceExecutor;

/// A task scheduler bound to one job, executing it quantum by quantum.
///
/// `run_quantum(allotment, steps)` advances the job by up to `steps` time
/// steps with `allotment` processors and returns the quantum statistics.
/// If the job completes before the quantum ends, execution stops early and
/// the returned [`QuantumStats::steps_worked`] reflects the shorter span;
/// processor-hold accounting for the remainder of the quantum is the
/// simulator's concern, not the executor's.
pub trait JobExecutor {
    /// Executes up to `steps` steps with `allotment` processors.
    fn run_quantum(&mut self, allotment: u32, steps: u64) -> QuantumStats;

    /// Whether every task of the job has completed.
    fn is_complete(&self) -> bool;

    /// Total work `T1` of the job.
    fn total_work(&self) -> u64;

    /// Total critical-path length `T∞` of the job.
    fn total_span(&self) -> u64;

    /// Tasks completed so far across all quanta.
    fn completed_work(&self) -> u64;

    /// Time steps executed so far across all quanta (steps in which at
    /// least one task ran).
    fn elapsed_steps(&self) -> u64;

    /// Rewinds the executor to the start of its job **in place**, keeping
    /// every allocated buffer, and returns `true`; executors that cannot
    /// rewind return `false` and callers construct a fresh one instead.
    /// A successful reset must be observationally equivalent to a fresh
    /// executor over the same job — harnesses use it to recycle executor
    /// state across repeated runs without changing any simulated result.
    fn try_reset(&mut self) -> bool {
        false
    }

    /// How many *further* quanta of `steps` steps at `allotment`
    /// processors would each reproduce `stats` bit-for-bit, given that
    /// the executor just returned `stats` for exactly such a quantum.
    ///
    /// The contract backing frozen-quantum macro-stepping: if this
    /// returns `m`, then for any `k ≤ m` a single
    /// `run_quantum(allotment, k·steps)` call must leave the executor in
    /// the same state as `k` individual `run_quantum(allotment, steps)`
    /// calls, each of which would have returned `stats`. The default of
    /// `0` (no lookahead) is always correct and keeps the engine on the
    /// quantum-by-quantum path for executors without an analysis.
    fn steady_quanta(&self, allotment: u32, steps: u64, stats: &QuantumStats) -> u64 {
        let _ = (allotment, steps, stats);
        0
    }
}

/// Mutable references are executors too, so a driver that owns its
/// executor can lend it to a generic engine for the duration of a run.
/// Every method forwards — `try_reset` explicitly, because falling back
/// to the provided default would silently disable recycling.
impl<T: JobExecutor + ?Sized> JobExecutor for &mut T {
    fn run_quantum(&mut self, allotment: u32, steps: u64) -> QuantumStats {
        (**self).run_quantum(allotment, steps)
    }
    fn is_complete(&self) -> bool {
        (**self).is_complete()
    }
    fn total_work(&self) -> u64 {
        (**self).total_work()
    }
    fn total_span(&self) -> u64 {
        (**self).total_span()
    }
    fn completed_work(&self) -> u64 {
        (**self).completed_work()
    }
    fn elapsed_steps(&self) -> u64 {
        (**self).elapsed_steps()
    }
    fn try_reset(&mut self) -> bool {
        (**self).try_reset()
    }
    fn steady_quanta(&self, allotment: u32, steps: u64, stats: &QuantumStats) -> u64 {
        (**self).steady_quanta(allotment, steps, stats)
    }
}

/// Boxed executors are executors too, so engines generic over the
/// executor type can hold heterogeneous `Box<dyn JobExecutor + Send>`
/// job sets.
impl<T: JobExecutor + ?Sized> JobExecutor for Box<T> {
    fn run_quantum(&mut self, allotment: u32, steps: u64) -> QuantumStats {
        (**self).run_quantum(allotment, steps)
    }
    fn is_complete(&self) -> bool {
        (**self).is_complete()
    }
    fn total_work(&self) -> u64 {
        (**self).total_work()
    }
    fn total_span(&self) -> u64 {
        (**self).total_span()
    }
    fn completed_work(&self) -> u64 {
        (**self).completed_work()
    }
    fn elapsed_steps(&self) -> u64 {
        (**self).elapsed_steps()
    }
    fn try_reset(&mut self) -> bool {
        (**self).try_reset()
    }
    fn steady_quanta(&self, allotment: u32, steps: u64, stats: &QuantumStats) -> u64 {
        (**self).steady_quanta(allotment, steps, stats)
    }
}
