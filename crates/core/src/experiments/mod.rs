//! Experiment harness: one function per figure/analysis of the paper's
//! evaluation, shared by the CLI, the kernel suite and the integration tests.
//!
//! Every experiment is deterministic in its seed and returns plain data
//! rows. The sweeps take a `*Config` whose presets are the sizes
//! something runs: Figs. 5 and 6 have only the paper's (`paper()`), the
//! open system has `paper()` and `smoke()`, and the hierarchical skew
//! sweep only the `smoke()` its tests pin. The kernel suite has one
//! size, the one its baseline records. Each closed extension
//! experiment — the ablations, work stealing, the adaptive quantum,
//! robustness, allocator policies and reallocation overhead — is one
//! preset: its sizes and axes are private constants of its module, and
//! it takes only `seed: Option<u64>` (`None` is the recorded seed), so
//! the CLI and the goldens run the same function.
//! Figs. 1 and 4 ([`transient_comparison`]) take only the number of
//! quanta to report.

pub mod ablation;
pub mod adaptive_quantum;
pub mod allocator_policies;
pub mod fingerprint;
pub mod hierarchical;
pub mod kernels;
pub mod multiprogrammed;
pub mod open_system;
pub mod overhead;
pub mod robustness;
pub mod single_job;
pub mod stealing;
pub mod theory;
pub mod transient;

use crate::bounds::JobSize;
use abg_alloc::Allocator;
use abg_control::Controller;
use abg_dag::PhasedJob;
use abg_sched::{JobExecutor, PipelinedExecutor};
use abg_sim::{CompletedJob, MultiJobOutcome, MultiJobSim};
use abg_workload::{paper_job, splitmix_seed, JobSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::sync::{Arc, OnceLock};

pub use ablation::{
    agreedy_ablation, governed_rate_quality, quantum_ablation, rate_ablation, scheduler_ablation,
    semantics_ablation,
};
pub use adaptive_quantum::{adaptive_quantum_comparison, AdaptiveQuantumRow};
pub use allocator_policies::{allocator_policy_comparison, AllocatorPolicyRow};
pub use fingerprint::{load_fingerprint, open_fingerprint, sweep_fingerprint, Fingerprint};
pub use hierarchical::{hierarchical_skew_sweep, HierarchicalConfig, HierarchicalRow, PolicyPoint};
pub use kernels::{kernel_names, run_kernel_suite, KernelBenchConfig, KernelResult};
pub use multiprogrammed::{multiprogrammed_sweep, LoadPoint, MultiprogrammedConfig};
pub use open_system::{
    open_system_sweep, population_expected_work, try_open_system_sweep, OpenSystemConfig,
    OpenSystemRow, OpenWorkload, SchedulerOpenPoint,
};
pub use overhead::{overhead_sweep, OverheadRow};
pub use robustness::{robustness_comparison, RobustnessRow};
pub use single_job::{single_job_sweep, SingleJobSweepConfig, SweepPoint};
pub use stealing::{stealing_comparison, StealRow};
pub use theory::{
    lemma2_check, theorem1_grid, theorem3_check, theorem4_check, theorem5_check, BoundCheck,
    Theorem1Row,
};
pub use transient::{transient_comparison, TransientResult};

/// Runs `f(key, index)` for every `index < per_key` of every key, spread
/// over [`parallel_map`] at [`workers`], and returns one cell per key:
/// that key's results in index order. This is the whole sweep plumbing
/// of the closed experiments; each folds its cells with [`mean`] (or
/// [`QualityPoint::of`]) in index order, so every sum is taken in the
/// same order on every run and for every thread count.
pub(crate) fn per_cell<K, U, F>(keys: &[K], per_key: u32, f: F) -> Cells<U>
where
    K: Copy + Sync,
    U: Send,
    F: Fn(K, u64) -> U + Sync,
{
    let units: Vec<(K, u64)> = keys
        .iter()
        .flat_map(|&key| (0..per_key as u64).map(move |index| (key, index)))
        .collect();
    Cells {
        results: parallel_map(units, |&(key, index)| f(key, index), workers()),
        keys: keys.len(),
    }
}

/// The results of [`per_cell`], key-major and in index order within a
/// key, kept in the one buffer the worker pool filled.
pub(crate) struct Cells<U> {
    results: Vec<U>,
    keys: usize,
}

impl<U> Cells<U> {
    /// One cell per key, in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[U]> {
        let per_key = self.results.len() / self.keys.max(1);
        (0..self.keys).map(move |k| &self.results[k * per_key..(k + 1) * per_key])
    }

    /// Every result, key-major: the cells laid end to end.
    pub(crate) fn flat(&self) -> &[U] {
        &self.results
    }
}

/// The probe job of sweep unit `(factor, index)`: a
/// [`paper_job`](abg_workload::paper_job) drawn from
/// `splitmix_seed(seed, factor, index)`. Every single-job experiment
/// draws its jobs here, so two experiments with the same seed and
/// geometry face the same jobs.
pub(crate) fn probe_job(
    seed: u64,
    factor: u64,
    index: u64,
    quantum_len: u64,
    pairs: u64,
) -> PhasedJob {
    let mut rng = StdRng::seed_from_u64(splitmix_seed(seed, factor, index));
    paper_job(factor, quantum_len, pairs, &mut rng)
}

/// A generated job set whose job structures are shared: every run over
/// it (one per scheduler or allocator) and the lower bounds borrow the
/// same phase lists, no deep clones.
pub(crate) struct SharedSet {
    pub(crate) jobs: Vec<Arc<PhasedJob>>,
    pub(crate) releases: Vec<u64>,
}

impl SharedSet {
    pub(crate) fn new(set: JobSet) -> Self {
        Self {
            jobs: set.jobs.into_iter().map(Arc::new).collect(),
            releases: set.releases,
        }
    }

    /// Work, span and release of every job: the lower bounds' input.
    pub(crate) fn sizes(&self) -> Vec<JobSize> {
        self.jobs
            .iter()
            .zip(&self.releases)
            .map(|(j, &release)| JobSize {
                work: j.work(),
                span: j.span(),
                release,
            })
            .collect()
    }

    /// Runs the set to completion on `allocator`: each job on the
    /// executor `executor` builds over it, under a fresh `controller()`,
    /// released as generated. Every closed job-set experiment runs here,
    /// monomorphized over the three components; [`pipelined`] is the
    /// executor they pass.
    pub(crate) fn run<A, E, C>(
        &self,
        allocator: A,
        quantum_len: u64,
        executor: impl Fn(&Arc<PhasedJob>) -> E,
        controller: impl Fn() -> C,
    ) -> MultiJobOutcome
    where
        A: Allocator,
        E: JobExecutor,
        C: Controller,
    {
        let mut sim = MultiJobSim::homogeneous(allocator, quantum_len);
        for (job, &release) in self.jobs.iter().zip(&self.releases) {
            sim.add_job(executor(job), controller(), release);
        }
        sim.run()
    }
}

/// A pipelined executor over a shared job structure.
pub(crate) fn pipelined(job: &Arc<PhasedJob>) -> PipelinedExecutor<Arc<PhasedJob>> {
    PipelinedExecutor::new(Arc::clone(job))
}

/// Mean of `f` over a cell, summed in cell order.
pub(crate) fn mean<T>(cell: &[T], f: impl Fn(&T) -> f64) -> f64 {
    cell.iter().map(f).sum::<f64>() / cell.len() as f64
}

/// Mean time/waste of a run population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityPoint {
    /// Mean `T / T∞`.
    pub time_norm: f64,
    /// Mean `W / T1`.
    pub waste_norm: f64,
}

impl QualityPoint {
    /// The means of a run population.
    pub fn of(runs: &[CompletedJob]) -> Self {
        Self {
            time_norm: mean(runs, CompletedJob::time_over_span),
            waste_norm: mean(runs, CompletedJob::waste_over_work),
        }
    }
}

/// Hardware threads this process may use (one if the OS cannot say).
fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// `n` workers, at least one and at most four per each of `available`
/// hardware threads, so that no count can start thousands of OS threads.
fn capped(n: usize, available: usize) -> usize {
    n.clamp(1, 4 * available)
}

/// The worker count an `ABG_THREADS` value asks for on a machine with
/// `available` hardware threads: a positive integer, [`capped`];
/// anything else (unset, zero, not a number) falls back to `available`.
fn threads_from(var: Option<&str>, available: usize) -> usize {
    match var.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => capped(n, available),
        _ => available,
    }
}

thread_local! {
    /// The count [`with_workers`] set for the sweeps this thread runs.
    static SCOPED_WORKERS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The worker count of the sweep harness's [`parallel_map`], the
/// crate's one worker pool: the innermost [`with_workers`] count on
/// this thread, else the process default, `ABG_THREADS` as read once
/// (see [`threads_from`]). Results never depend on it; only wall-clock
/// does.
fn workers() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    SCOPED_WORKERS.with(Cell::get).unwrap_or_else(|| {
        *DEFAULT.get_or_init(|| {
            threads_from(
                std::env::var("ABG_THREADS").ok().as_deref(),
                hardware_threads(),
            )
        })
    })
}

/// Runs `f` with every sweep it starts on this thread spread over
/// `workers` workers, at least one and at most four per hardware
/// thread; the previous count is back when `f` returns or unwinds.
/// Every sweep is a set of independently seeded units, so the count
/// moves wall-clock time only, never a result.
pub fn with_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED_WORKERS.with(|c| c.set(self.0));
        }
    }
    let n = capped(workers, hardware_threads());
    let _restore = Restore(SCOPED_WORKERS.with(|c| c.replace(Some(n))));
    f()
}

/// Order-preserving parallel map of `f` over `items` on `threads`
/// scoped worker threads (fewer when there are fewer items).
///
/// Each item is independent; results come back in input order. Used by
/// the sweep experiments to spread (factor, job) work units across
/// cores.
///
/// Work distribution is contention-free sharding: workers claim
/// contiguous index ranges by bumping a single atomic cursor and collect
/// each range's results into their own pre-sized chunk buffer, which is
/// handed back through the join handle. No mutex is taken anywhere — the
/// old design serialized every item on a shared work-queue lock and
/// every result on a shared output lock, which flattened scaling once
/// per-item work got small.
fn parallel_map<T, U, F>(items: Vec<T>, f: F, threads: usize) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return items.iter().map(&f).collect();
    }
    // A handful of chunks per worker: big enough that cursor bumps are
    // rare, small enough that a slow chunk cannot strand the tail on one
    // worker. Any chunking yields identical results — output order is
    // index order by construction.
    let chunk = (n / (threads * 8)).max(1);
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let items = &items[..];
    let f = &f;
    let mut chunks: Vec<(usize, Vec<U>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine: Vec<(usize, Vec<U>)> = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, std::sync::atomic::Ordering::Relaxed);
                        if start >= n {
                            return mine;
                        }
                        let end = (start + chunk).min(n);
                        let mut out = Vec::with_capacity(end - start);
                        out.extend(items[start..end].iter().map(f));
                        mine.push((start, out));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel_map worker panicked"))
            .collect()
    });
    chunks.sort_unstable_by_key(|(start, _)| *start);
    let mut out = Vec::with_capacity(n);
    for (_, c) in chunks {
        out.extend(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..1000).collect::<Vec<i64>>(), |x| x * 2, 3);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<i64>>());
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |&x| x, 3);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_deterministic_across_thread_counts() {
        let items: Vec<u64> = (0..317).collect();
        let expect: Vec<u64> = items.iter().map(|x| splitmix_seed(7, *x, x * 3)).collect();
        for threads in 1..=8 {
            let got = parallel_map(items.clone(), |&x| splitmix_seed(7, x, x * 3), threads);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn per_cell_returns_each_keys_results_in_index_order() {
        let cells = per_cell(&[10u64, 20, 30], 4, |key, index| key + index);
        let got: Vec<&[u64]> = cells.iter().collect();
        assert_eq!(
            got,
            [&[10, 11, 12, 13][..], &[20, 21, 22, 23], &[30, 31, 32, 33]]
        );
        assert_eq!(cells.flat().len(), 12);
        let empty = per_cell(&[1u64, 2], 0, |k, i| k + i);
        assert_eq!(empty.iter().count(), 2);
        assert!(empty.iter().all(<[u64]>::is_empty));
    }

    #[test]
    fn parallel_map_handles_items_fewer_than_threads() {
        let got = parallel_map(vec![1u32, 2, 3], |&x| x + 1, 64);
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn abg_threads_values_parse_and_cap_at_four_per_hardware_thread() {
        assert_eq!(threads_from(None, 2), 2);
        assert_eq!(threads_from(Some("0"), 2), 2);
        assert_eq!(threads_from(Some("junk"), 2), 2);
        assert_eq!(threads_from(Some("3"), 2), 3);
        assert_eq!(threads_from(Some(" 3 "), 2), 3);
        assert_eq!(threads_from(Some("100000"), 2), 8);
    }

    #[test]
    fn abg_threads_env_overrides_worker_count() {
        // Outside any scope the count is the process default: the
        // variable as this process saw it, resolved as above.
        let var = std::env::var("ABG_THREADS").ok();
        assert_eq!(workers(), threads_from(var.as_deref(), hardware_threads()));
    }

    #[test]
    fn with_workers_scopes_and_caps_the_count_without_starting_a_pool() {
        let outside = workers();
        assert_eq!(with_workers(100_000, workers), 4 * hardware_threads());
        assert_eq!(with_workers(0, workers), 1);
        let scoped = outside % 2 + 1; // differs from `outside`
        with_workers(scoped, || {
            assert_eq!(with_workers(3, workers), 3);
            assert_eq!(workers(), scoped, "restored on return");
            let elsewhere = std::thread::spawn(workers).join().unwrap();
            assert_eq!(elsewhere, outside, "seen on another thread");
        });
        let unwound = std::panic::catch_unwind(|| with_workers(3, || panic!("inside the scope")));
        assert!(unwound.is_err());
        assert_eq!(workers(), outside, "restored on unwind");
    }
}
