//! Experiment harness: one function per figure/analysis of the paper's
//! evaluation, shared by the CLI, the kernel suite and the integration tests.
//!
//! Every experiment takes an explicit config with a deterministic seed
//! and returns plain data rows, so the same code regenerates the paper's
//! figures at paper scale (`*Config::paper()`) or at a scaled-down size
//! suitable for tests and smoke runs (`*Config::scaled()`).

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

pub use ablation::{
    agreedy_ablation, governed_rate_quality, quantum_ablation, rate_ablation, scheduler_ablation,
    semantics_ablation, AblationConfig, QualityPoint,
};
pub use adaptive_quantum::{
    adaptive_quantum_comparison, AdaptiveQuantumConfig, AdaptiveQuantumRow,
};
pub use allocator_policies::{
    allocator_policy_comparison, AllocatorPolicyConfig, AllocatorPolicyRow,
};
pub use fingerprint::{load_fingerprint, open_fingerprint, sweep_fingerprint, Fingerprint};
pub use hierarchical::{hierarchical_skew_sweep, HierarchicalConfig, HierarchicalRow, PolicyPoint};
pub use kernels::{kernel_speedup, run_kernel_suite, KernelBenchConfig, KernelResult};
pub use multiprogrammed::{multiprogrammed_sweep, LoadPoint, MultiprogrammedConfig};
pub use open_system::{
    open_system_sweep, population_expected_work, OpenSystemConfig, OpenSystemRow, OpenWorkload,
    SchedulerOpenPoint,
};
pub use overhead::{overhead_sweep, OverheadConfig, OverheadRow};
pub use robustness::{robustness_comparison, RobustnessConfig, RobustnessRow};
pub use single_job::{
    single_job_sweep, single_job_sweep_with_steps, SingleJobSweepConfig, SweepPoint,
};
pub use stealing::{stealing_comparison, StealRow, StealingConfig};
pub use theory::{
    lemma2_check, theorem1_grid, theorem3_check, theorem4_check, theorem5_check, BoundCheck,
    Theorem1Row,
};
pub use transient::{transient_comparison, TrajectoryPoint, TransientConfig, TransientResult};

/// Derives a per-task RNG seed from an experiment seed and task indices,
/// so runs are reproducible and independent of the parallel schedule.
pub(crate) fn task_seed(seed: u64, a: u64, b: u64) -> u64 {
    // SplitMix64-style mixing of (seed, a, b).
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Worker count used by the sweep harness's `parallel_map`: the `ABG_THREADS` environment
/// variable when set to a positive integer, the machine's available
/// parallelism otherwise. Results never depend on this — only wall-clock
/// does — so pinning it (CI does, and `abg-cli --threads N` does per
/// invocation) is purely about reproducible timing.
pub fn configured_threads() -> usize {
    if let Ok(s) = std::env::var("ABG_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Order-preserving parallel map over work items using scoped threads.
///
/// Each item is independent; results come back in input order. Used by
/// the sweep experiments to spread (factor, job) work units across
/// cores. Honors the `ABG_THREADS` override (see [`configured_threads`]).
///
/// Work distribution is contention-free sharding: workers claim
/// contiguous index ranges by bumping a single atomic cursor and collect
/// each range's results into their own pre-sized chunk buffer, which is
/// handed back through the join handle. No mutex is taken anywhere — the
/// old design serialized every item on a shared work-queue lock and
/// every result on a shared output lock, which flattened scaling once
/// per-item work got small.
pub(crate) fn parallel_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_with_threads(items, f, configured_threads())
}

/// [`parallel_map`] with an explicit worker count (tests drive this
/// directly to check determinism across thread counts without racing on
/// the process environment).
pub(crate) fn parallel_map_with_threads<T, U, F>(items: Vec<T>, f: F, threads: usize) -> Vec<U>
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
        let out = parallel_map((0..1000).collect::<Vec<i64>>(), |x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<i64>>());
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_deterministic_across_thread_counts() {
        let items: Vec<u64> = (0..317).collect();
        let expect: Vec<u64> = items.iter().map(|x| task_seed(7, *x, x * 3)).collect();
        for threads in 1..=8 {
            let got =
                parallel_map_with_threads(items.clone(), |&x| task_seed(7, x, x * 3), threads);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_handles_items_fewer_than_threads() {
        let got = parallel_map_with_threads(vec![1u32, 2, 3], |&x| x + 1, 64);
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn abg_threads_env_overrides_worker_count() {
        // Other tests may run parallel_map concurrently; that is safe
        // because results are thread-count independent by construction.
        std::env::set_var("ABG_THREADS", "3");
        assert_eq!(configured_threads(), 3);
        let out = parallel_map((0..100).collect::<Vec<i64>>(), |&x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<i64>>());
        std::env::set_var("ABG_THREADS", "not-a-number");
        assert!(configured_threads() >= 1);
        std::env::remove_var("ABG_THREADS");
    }

    #[test]
    fn task_seed_is_deterministic_and_spread() {
        assert_eq!(task_seed(1, 2, 3), task_seed(1, 2, 3));
        assert_ne!(task_seed(1, 2, 3), task_seed(1, 3, 2));
        assert_ne!(task_seed(1, 2, 3), task_seed(2, 2, 3));
    }
}
