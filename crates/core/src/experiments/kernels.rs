//! The kernel benchmark trajectory suite: wall-clock throughput of the
//! hot simulation loops at one fixed size, the size the committed
//! baseline records (`abg-cli bench`).
//!
//! Each kernel drives one hot path end to end and reports *operations*
//! (tasks executed, or jobs simulated for the composite kernels) and
//! *simulated steps* per second. The suite is the regression gate:
//! `abg-cli bench --check` compares every kernel it runs — the names in
//! [`kernel_names`] — against a recorded baseline.

use abg_alloc::DynamicEquiPartition;
use abg_control::{AControl, ConstantRequest, Controller};
use abg_dag::{generate, ExplicitDag, PhasedJob};
use abg_queue::{HierOpenConfig, OpenConfig, OpenOutcome, SteadyStats};
use abg_sched::{BGreedyExecutor, JobExecutor, OwnedBGreedyExecutor, PipelinedExecutor};
use abg_sim::{live_job_footprint, CompletedJob, NullProbe, QuantumCore};
use abg_workload::{mean_gap_for_utilization, ArrivalProcess, WorkflowKind};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Quantum length of the serial-chain kernel — deliberately short, so
/// the chain crosses a quantum boundary every 64 tasks.
const CHAIN_QUANTUM: u64 = 64;
/// Width of the chain bundles of the `forkjoin_bundle` and
/// `weighted_frontier` kernels, and their allotment.
const BUNDLE_WIDTH: u32 = 8;
/// Processor groups of the `open_sharded` and `open_hier` kernels. Each
/// group is a decimated open system committing its own horizon, so the
/// kernels' aggregate simulated steps scale with the group count while
/// the per-event cost scales with the per-group population.
const OPEN_GROUPS: u32 = 4;

/// Tasks in the serial-chain kernel (long `T∞`, width 1).
const CHAIN_LEN: u32 = 100_000;
/// Levels per chain in the chain-bundle kernel.
const BUNDLE_LEVELS: u32 = 25_000;
/// Depth of the binary fork-tree kernel (`2^depth − 1` tasks).
const TREE_DEPTH: u32 = 16;
/// Levels per chain of the `weighted_frontier` kernel's bundle
/// (heterogeneous half-integer task weights): the residual-work
/// executor kernel priced on a sustained wide frontier.
const WEIGHTED_LEVELS: u32 = 25_000;
/// Fan-out of the `workflow_open` kernel's Montage-like arrivals.
const WORKFLOW_SCALE: u32 = 32;
/// Measured completions per repetition of the `workflow_open` kernel.
const WORKFLOW_JOBS: u64 = 1_000;
/// Machine size for the composite kernels.
const PROCESSORS: u32 = 128;
/// Measured completions per repetition of the open-system kernel.
const OPEN_JOBS: u64 = 400;
/// Offered utilization of the open-system kernel (must be stable).
const OPEN_RHO: f64 = 0.6;
/// Levels per job in the open kernels (width-8 phases, so `T1 =
/// 8 · OPEN_LEVELS`). Long jobs put the drivers in the event-sparse
/// regime the frozen-quantum machinery targets: thousands of quanta
/// between arrivals and completions, nearly all of them frozen.
const OPEN_LEVELS: u64 = 100_000;
/// Offered utilization of the `open_event`, `open_sharded` and
/// `open_hier` kernels — high enough that a double-digit population is
/// live in every window, while staying in DEQ's satisfied regime where
/// windows can freeze.
const OPEN_EVENT_RHO: f64 = 0.85;
/// Jobs pushed through the `open_churn` kernel — short jobs on a dense
/// deterministic arrival grid, every one admitted up front with a
/// future release step. Completions land in nearly every quantum, so
/// the kernel prices the core's storage layer: slot scan/reclamation
/// under churn, with the live set a small fraction of the in-system
/// population.
const CHURN_JOBS: u64 = 10_000;

/// Configuration of the kernel suite. The kernel sizes are fixed — the
/// size the committed baseline records — so only the measurement window
/// and the seed vary.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelBenchConfig {
    /// Minimum wall-clock per kernel in milliseconds: each kernel body
    /// repeats until at least this much time has elapsed (0 runs every
    /// body once).
    pub min_wall_ms: u64,
    /// Suite seed (job generation only; timings are machine-dependent).
    pub seed: u64,
}

impl Default for KernelBenchConfig {
    /// The recorded-baseline window (200 ms per kernel) and seed.
    fn default() -> Self {
        Self {
            min_wall_ms: 200,
            seed: 0xB16C_2008,
        }
    }
}

/// One kernel's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelResult {
    /// Kernel name (stable identifier for trajectory tracking).
    pub kernel: String,
    /// Repetitions of the kernel body within the measurement window.
    pub iters: u64,
    /// Operations processed across all repetitions (tasks executed, or
    /// jobs for the composite kernels).
    pub ops: u64,
    /// Simulated time steps advanced across all repetitions.
    pub steps: u64,
    /// Wall-clock time of the measurement window in milliseconds.
    pub wall_ms: f64,
    /// Operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Simulated steps per wall-clock second.
    pub steps_per_sec: f64,
    /// Peak in-system job population of the kernel's simulation — the
    /// memory high-water mark of the open kernels (0 where the notion
    /// does not apply).
    pub peak_jobs_in_system: u64,
    /// Estimated core-side bytes per in-system job (slot plus scratch
    /// share, see [`abg_sim::live_job_footprint`]; 0 where the notion
    /// does not apply).
    pub bytes_per_live_job: u64,
}

/// One kernel: builds its inputs untimed, then [`measure`]s its body.
type Kernel = fn(&KernelBenchConfig) -> KernelResult;

/// The suite, in run order.
const KERNELS: [(&str, Kernel); 11] = [
    ("chain_macro", chain_macro),
    ("forkjoin_bundle", forkjoin_bundle),
    ("forkjoin_tree", forkjoin_tree),
    ("weighted_frontier", weighted_frontier),
    ("open_system", open_system),
    ("open_event", open_event),
    ("open_sharded", open_sharded),
    ("open_hier", open_hier),
    ("workflow_open", workflow_open),
    ("open_churn", open_churn),
    ("unified_engine", unified_engine),
];

/// The names of the suite's kernels, in run order.
pub fn kernel_names() -> impl Iterator<Item = &'static str> {
    KERNELS.iter().map(|&(name, _)| name)
}

/// Runs every kernel once and returns the measurements in suite order.
pub fn run_kernel_suite(cfg: &KernelBenchConfig) -> Vec<KernelResult> {
    KERNELS
        .iter()
        .map(|&(name, kernel)| KernelResult {
            kernel: name.to_string(),
            ..kernel(cfg)
        })
        .collect()
}

/// Repeats `body` until `min_wall_ms` has elapsed (at least once) and
/// folds the accumulated counters into an unnamed [`KernelResult`].
fn measure<F>(min_wall_ms: u64, mut body: F) -> KernelResult
where
    F: FnMut() -> (u64, u64),
{
    let mut iters = 0u64;
    let mut ops = 0u64;
    let mut steps = 0u64;
    let start = Instant::now();
    loop {
        let (o, s) = body();
        iters += 1;
        ops += o;
        steps += s;
        if start.elapsed().as_millis() as u64 >= min_wall_ms {
            break;
        }
    }
    let wall = start.elapsed();
    let secs = wall.as_secs_f64().max(1e-9);
    KernelResult {
        kernel: String::new(),
        iters,
        ops,
        steps,
        wall_ms: wall.as_secs_f64() * 1e3,
        ops_per_sec: ops as f64 / secs,
        steps_per_sec: steps as f64 / secs,
        peak_jobs_in_system: 0,
        bytes_per_live_job: 0,
    }
}

/// One B-Greedy executor over `dag`, built once and rewound per
/// repetition, run to completion at a fixed allotment and quantum
/// length — the measurement is the stepping loop itself, not per-run
/// construction. Ops are processor-step units executed (tasks on a unit
/// dag), steps the job's running time.
fn dag_kernel(
    cfg: &KernelBenchConfig,
    dag: &ExplicitDag,
    allotment: u32,
    quantum: u64,
) -> KernelResult {
    let mut ex = BGreedyExecutor::new(dag);
    measure(cfg.min_wall_ms, || {
        ex.reset();
        while !ex.is_complete() {
            ex.run_quantum(allotment, quantum);
        }
        (ex.completed_work(), ex.elapsed_steps())
    })
}

/// Serial chain, short quanta: the macro-stepping fast path.
fn chain_macro(cfg: &KernelBenchConfig) -> KernelResult {
    dag_kernel(cfg, &generate::chain(CHAIN_LEN), 1, CHAIN_QUANTUM)
}

/// Pipelined fork-join bundle: wide, constant parallelism.
fn forkjoin_bundle(cfg: &KernelBenchConfig) -> KernelResult {
    let bundle = generate::chain_bundle(BUNDLE_WIDTH, BUNDLE_LEVELS);
    dag_kernel(cfg, &bundle, BUNDLE_WIDTH, 100)
}

/// Binary fork tree: parallelism doubling every level, successor
/// relaxation dominated — the wide-frontier bulk path's home turf.
fn forkjoin_tree(cfg: &KernelBenchConfig) -> KernelResult {
    dag_kernel(cfg, &generate::binary_fork_tree(TREE_DEPTH), 32, 100)
}

/// Weighted wide frontier: the `forkjoin_bundle` shape with every task
/// carrying a heterogeneous half-integer weight, so each step advances
/// residual costs and the completion sweep compacts in place — the
/// weighted executor kernel's sustained regime. Ops count
/// processor-step units (Σ ceil(wᵢ)), not tasks. The executor is reset
/// before every repetition, so the dag counts as replayed and the kernel
/// prices the span-share table path; `workflow_open` prices the path
/// that computes each share.
fn weighted_frontier(cfg: &KernelBenchConfig) -> KernelResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let base = generate::chain_bundle(BUNDLE_WIDTH, WEIGHTED_LEVELS);
    let weights: Vec<f64> = (0..base.num_tasks())
        .map(|_| rng.random_range(1..=7u64) as f64 * 0.5)
        .collect();
    let weighted = base
        .with_weights(weights)
        .expect("half-integer weights are finite and positive");
    dag_kernel(cfg, &weighted, BUNDLE_WIDTH, 100)
}

/// The open driver at offered utilization `rho` for jobs of expected
/// work `t1`, measuring [`OPEN_JOBS`] completions after a quarter as many
/// warm-up ones.
fn open_config(cfg: &KernelBenchConfig, rho: f64, t1: f64) -> OpenConfig {
    OpenConfig {
        processors: PROCESSORS,
        quantum_len: 100,
        arrivals: ArrivalProcess::Poisson {
            mean_gap: mean_gap_for_utilization(rho, PROCESSORS, t1),
        },
        warmup_jobs: OPEN_JOBS / 4,
        measured_jobs: OPEN_JOBS,
        batches: 8,
        // Unbounded in practice: the largest budget whose step horizon
        // fits in u64.
        max_quanta: u64::MAX / 100,
        saturation: abg_queue::SaturationConfig::default(),
        seed: cfg.seed,
    }
}

/// The executor factory of a homogeneous population: every arrival runs
/// `job`, so a recycled executor is rewound and reused — the
/// steady-state loop allocates nothing per arrival.
fn recycle_or_build(
    job: PhasedJob,
) -> impl Fn(&mut StdRng, Option<Box<dyn JobExecutor + Send>>) -> Box<dyn JobExecutor + Send> + Sync
{
    let job = Arc::new(job);
    move |_rng, recycled| {
        if let Some(mut ex) = recycled {
            if ex.try_reset() {
                return ex;
            }
        }
        Box::new(PipelinedExecutor::new(Arc::clone(&job)))
    }
}

/// Every open kernel's controller: ABG at convergence rate 0.2.
fn abg() -> Box<dyn Controller + Send> {
    Box::new(AControl::new(0.2))
}

/// Times an open-driver kernel. `run` drives one repetition; ops are its
/// arrivals and `steps` reads the simulated steps off its steady report.
/// The fixed seed makes every repetition identical, so the peak
/// population is the final repetition's. Every open driver stores the
/// same boxed slot types, so one footprint figure covers them all.
fn open_kernel(
    cfg: &KernelBenchConfig,
    steps: fn(&SteadyStats) -> u64,
    mut run: impl FnMut() -> OpenOutcome,
) -> KernelResult {
    let mut peak = 0;
    let res = measure(cfg.min_wall_ms, || {
        let out = run();
        let stats = out.steady().expect("kernel rho must be stable");
        peak = stats.peak_jobs_in_system;
        (stats.arrivals, steps(stats))
    });
    KernelResult {
        peak_jobs_in_system: peak,
        bytes_per_live_job: live_job_footprint::<
            Box<dyn JobExecutor + Send>,
            Box<dyn Controller + Send>,
        >() as u64,
        ..res
    }
}

/// The one-group open driver at offered utilization `rho`, every
/// arrival running a width-8 job of [`OPEN_LEVELS`] levels. Steps are the
/// simulated horizon.
fn one_group_kernel(cfg: &KernelBenchConfig, rho: f64) -> KernelResult {
    let job = PhasedJob::constant(8, OPEN_LEVELS);
    let open = open_config(cfg, rho, job.work() as f64);
    let make = recycle_or_build(job);
    open_kernel(
        cfg,
        |s| s.horizon,
        || abg_queue::run_open_system(&open, DynamicEquiPartition::new(PROCESSORS), &make, abg),
    )
}

/// The open-system driver under sustained Poisson arrivals — admission,
/// event-driven stepping with frozen-quantum windows between arrivals
/// and completions, and steady-state collection. The long jobs put the
/// run in the event-sparse regime: thousands of quanta separate
/// consecutive events and nearly all of them are macro-stepped.
fn open_system(cfg: &KernelBenchConfig) -> KernelResult {
    one_group_kernel(cfg, OPEN_RHO)
}

/// The same driver at high offered load — the macro-stepping stress
/// case. A double-digit population is live in every frozen window, so
/// the window bookkeeping (stability checks, per-job lookahead, bulk
/// catch-up) is priced per job rather than hidden behind idle skipping.
fn open_event(cfg: &KernelBenchConfig) -> KernelResult {
    one_group_kernel(cfg, OPEN_EVENT_RHO)
}

/// The `open_event` load split into [`OPEN_GROUPS`] processor groups,
/// reallocated every `realloc_epoch` quanta by a fresh `top()`; the
/// groups run one after another on the calling thread. Steps are
/// aggregate committed quanta × quantum length.
/// The jobs are width-2 (the `open_event` `T1` through 4× the levels):
/// a 1/[`OPEN_GROUPS`] slice of the machine still offers many effective
/// servers, keeping every group in the satisfied regime where windows
/// freeze.
fn group_kernel<G: abg_control::GroupAllocator>(
    cfg: &KernelBenchConfig,
    realloc_epoch: u64,
    top: fn() -> G,
) -> KernelResult {
    let job = PhasedJob::constant(2, 4 * OPEN_LEVELS);
    let hier = HierOpenConfig {
        open: open_config(cfg, OPEN_EVENT_RHO, job.work() as f64),
        groups: OPEN_GROUPS,
        routing: abg_queue::ShardRouting::RoundRobin,
        realloc_epoch,
        group_floor: 1,
    };
    let make = recycle_or_build(job);
    open_kernel(
        cfg,
        |s| s.quanta * 100,
        || abg_queue::run_open_hierarchical(&hier, DynamicEquiPartition::new, &make, abg, top()),
    )
}

/// A fixed partition under the static top level with one unbounded
/// epoch. Every decimated group commits its own horizon, so steps scale
/// with the group count while each group's event loop prices a
/// population [`OPEN_GROUPS`]× smaller — the algorithmic win this
/// kernel gates.
fn open_sharded(cfg: &KernelBenchConfig) -> KernelResult {
    group_kernel(cfg, u64::MAX, || abg_control::StaticEqui)
}

/// The hierarchical two-level driver over the same decomposition as
/// `open_sharded`, with the desire-proportional top level reallocating
/// group capacities every 64 quanta. This prices what the top level
/// adds to the fixed partition: the epoch barriers slicing every
/// group's frozen windows, the per-epoch desire folds, and the
/// allocator-rebuild path on resized groups (under round-robin routing
/// the partition quickly settles, so rebuilds price the steady case,
/// not a thrash loop).
fn open_hier(cfg: &KernelBenchConfig) -> KernelResult {
    group_kernel(cfg, 64, abg_control::DesireProportional::new)
}

/// The open-system driver under weighted workflow arrivals — every
/// arrival builds a fresh Montage-like dag (stage structure and
/// half-integer weights from the run's RNG) and executes it through the
/// weighted per-task kernel. Against `open_system` this prices what
/// realistic heterogeneous jobs add: per-arrival dag construction and
/// the residual-work stepping that the homogeneous phased population
/// never touches. Recycling is declined, so every arrival pays its own
/// build — deliberately part of the price — and no dag is replayed, so
/// each completed task's span share is computed, never read from a
/// table.
fn workflow_open(cfg: &KernelBenchConfig) -> KernelResult {
    let kind = WorkflowKind::Montage;
    let scale = WORKFLOW_SCALE;
    let t1 = abg_workload::expected_work_of(256, &mut StdRng::seed_from_u64(cfg.seed), |rng| {
        kind.generate(scale, rng).work() as f64
    });
    let open = OpenConfig {
        warmup_jobs: WORKFLOW_JOBS / 4,
        measured_jobs: WORKFLOW_JOBS,
        ..open_config(cfg, OPEN_RHO, t1)
    };
    open_kernel(
        cfg,
        |s| s.horizon,
        || {
            abg_queue::run_open_system(
                &open,
                DynamicEquiPartition::new(PROCESSORS),
                |rng, _recycled| Box::new(OwnedBGreedyExecutor::new(kind.generate(scale, rng))),
                abg,
            )
        },
    )
}

/// One repetition of the churn kernel: `n_jobs` short constant jobs
/// (width 4, 200 levels, `T1 = 800`) on a deterministic arrival grid at
/// effective-server utilization 0.85 — each job asks for 2 processors,
/// so level boundaries align with quantum boundaries and nearly every
/// quantum both admits releases and reclaims completions.
/// The *entire* calendar is admitted up front with future release
/// steps: the storage layer holds every not-yet-completed job while
/// only the O(live) set is scheduled, which is exactly the regime where
/// per-quantum full-population scans (and compaction on completion)
/// dominate. Executors are pooled across repetitions, so the
/// measurement prices the core, not job construction.
fn churn_body<'j>(
    processors: u32,
    n_jobs: u64,
    job: &'j PhasedJob,
    pool: &mut Vec<PipelinedExecutor<&'j PhasedJob>>,
    done: &mut Vec<CompletedJob>,
) -> (u64, u64) {
    // Mean gap T1 / (0.85 · P) as an exact integer grid: arrival `i`
    // releases at ⌊i · 100·T1 / (85·P)⌋.
    let gap_num = 100 * 800;
    let gap_den = 85 * processors as u64;
    let mut core = QuantumCore::new(DynamicEquiPartition::new(processors), 100, NullProbe);
    for i in 0..n_jobs {
        let ex = match pool.pop() {
            Some(mut e) => {
                e.reset();
                e
            }
            None => PipelinedExecutor::new(job),
        };
        core.admit(ex, ConstantRequest::new(2.0), i * gap_num / gap_den);
    }
    let mut completed = 0u64;
    while core.jobs_in_system() > 0 {
        if !core.any_live() {
            let next = core.next_release().expect("jobs pending");
            assert!(core.skip_idle_until(next), "release within the clock");
            continue;
        }
        done.clear();
        core.step_quantum_reclaiming(done, pool);
        completed += done.len() as u64;
    }
    (completed, core.now())
}

/// The storage-layer kernel: the completion-heavy churn regime of
/// [`churn_body`], whose in-system population is every job of the
/// calendar while only the small live set does work each quantum — the
/// live-set bookkeeping itself.
fn open_churn(cfg: &KernelBenchConfig) -> KernelResult {
    let job = PhasedJob::constant(4, 200); // T1 = 800: four exact quanta at allotment 2
    let mut pool = Vec::new();
    let mut done = Vec::new();
    let res = measure(cfg.min_wall_ms, || {
        churn_body(PROCESSORS, CHURN_JOBS, &job, &mut pool, &mut done)
    });
    KernelResult {
        peak_jobs_in_system: CHURN_JOBS,
        bytes_per_live_job: live_job_footprint::<PipelinedExecutor<&PhasedJob>, ConstantRequest>()
            as u64,
        ..res
    }
}

/// The unified quantum core driven directly, fully monomorphized (no
/// boxed executors or controllers, `NullProbe` instrumentation compiled
/// away): a closed batch released together followed by a staggered open
/// tail that exercises admission ordering and the idle fast-forward.
/// Ops are jobs completed, steps the simulated horizon. The core is
/// rebuilt every repetition — admission and teardown are part of what
/// this kernel prices.
fn unified_engine(cfg: &KernelBenchConfig) -> KernelResult {
    let job = Arc::new(PhasedJob::constant(8, 200)); // T1 = 1600
    let batch = (PROCESSORS as u64 / 8).max(2);
    let gap = 400; // four quanta between staggered releases
    measure(cfg.min_wall_ms, || {
        let mut core = QuantumCore::new(DynamicEquiPartition::new(PROCESSORS), 100, NullProbe);
        for _ in 0..batch {
            core.admit(
                PipelinedExecutor::new(Arc::clone(&job)),
                AControl::new(0.2),
                0,
            );
        }
        for i in 0..batch {
            core.admit(
                PipelinedExecutor::new(Arc::clone(&job)),
                AControl::new(0.2),
                (i + 1) * gap,
            );
        }
        let mut done = Vec::new();
        while core.jobs_in_system() > 0 {
            if !core.any_live() {
                let next = core.next_release().expect("jobs pending");
                assert!(core.skip_idle_until(next), "release within the clock");
                continue;
            }
            core.step_quantum(&mut done);
        }
        (done.len() as u64, core.now())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{MultiprogrammedConfig, SharedSet};
    use abg_alloc::{AllocationStability, Allocator};
    use abg_sched::QuantumStats;

    #[test]
    fn smoke_suite_runs_every_kernel() {
        let results = run_kernel_suite(&KernelBenchConfig {
            min_wall_ms: 0,
            ..KernelBenchConfig::default()
        });
        let names: Vec<&str> = results.iter().map(|r| r.kernel.as_str()).collect();
        assert_eq!(
            names,
            [
                "chain_macro",
                "forkjoin_bundle",
                "forkjoin_tree",
                "weighted_frontier",
                "open_system",
                "open_event",
                "open_sharded",
                "open_hier",
                "workflow_open",
                "open_churn",
                "unified_engine",
            ]
        );
        assert!(names.iter().copied().eq(kernel_names()));
        for r in &results {
            assert!(r.iters > 0, "{}: no iterations", r.kernel);
            assert!(r.ops > 0, "{}: no work", r.kernel);
            assert!(r.wall_ms > 0.0, "{}: no time", r.kernel);
            assert!(r.ops_per_sec > 0.0, "{}: no throughput", r.kernel);
            // Per-iteration counters are deterministic.
            assert_eq!(r.ops % r.iters, 0, "{}: ops not iter-constant", r.kernel);
            assert_eq!(
                r.steps % r.iters,
                0,
                "{}: steps not iter-constant",
                r.kernel
            );
        }
    }

    /// Churn measurement on its own, without the rest of the suite, at
    /// the gated size and at a 1.5×10⁵-job population — the
    /// before/after probe of the live-set storage layer:
    /// `cargo test --release -p abg churn_probe -- --ignored --nocapture`.
    #[test]
    #[ignore = "measurement probe, not a correctness test"]
    fn churn_probe() {
        const LARGE_JOBS: u64 = 150_000;
        let job = PhasedJob::constant(4, 200);
        let mut pool = Vec::new();
        let mut done = Vec::new();
        for jobs in [CHURN_JOBS, LARGE_JOBS] {
            let r = measure(2_000, || {
                churn_body(PROCESSORS, jobs, &job, &mut pool, &mut done)
            });
            println!(
                "churn {jobs} jobs: iters={} steps/s={:.0} ops/s={:.0}",
                r.iters, r.steps_per_sec, r.ops_per_sec
            );
        }
    }

    /// Long-horizon saturation history: a stable population that
    /// changes every 4 quanta, recorded and checked at every quantum
    /// for 10⁴, 10⁵ and 10⁶ quanta — the before/after probe of the
    /// run-length detector history:
    /// `cargo test --release -p abg saturation_probe -- --ignored --nocapture`.
    #[test]
    #[ignore = "measurement probe, not a correctness test"]
    fn saturation_probe() {
        use abg_queue::{SaturationConfig, SaturationDetector};
        for quanta in [10_000u64, 100_000, 1_000_000] {
            let start = Instant::now();
            let mut d = SaturationDetector::new(SaturationConfig::default());
            for q in 0..quanta {
                d.record(10 + (q / 4 % 2) as usize);
                assert!(d.check().is_none(), "stable population tripped at {q}");
            }
            println!(
                "saturation {quanta} quanta: {:.3} ms (mean {:.2})",
                start.elapsed().as_secs_f64() * 1e3,
                d.mean_jobs_in_system()
            );
        }
    }

    thread_local! {
        /// `(busy ns, calls)` of executor `run_quantum`, controller
        /// `observe` and allocator `allocate_into`, in that order, summed
        /// by [`Timed`] on the calling thread.
        static LAYERS: std::cell::Cell<[(u64, u64); 3]> =
            const { std::cell::Cell::new([(0, 0); 3]) };
    }

    /// [`Timed`] clocks one call in this many and scales it up: two clock
    /// reads per call would cost more than the calls they time.
    const SAMPLE_EVERY: u64 = 31;

    /// A clocked call at least this long (ns) was preempted.
    const PREEMPTED_NS: u64 = 20_000;

    fn timed<T>(layer: usize, f: impl FnOnce() -> T) -> T {
        let add = |nanos: u64, calls: u64| {
            LAYERS.with(|l| {
                let mut v = l.get();
                v[layer].0 += nanos;
                v[layer].1 += calls;
                l.set(v);
                v[layer].1
            })
        };
        if add(0, 1) % SAMPLE_EVERY != 0 {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let nanos = t0.elapsed().as_nanos() as u64;
        // A sample that long was preempted; scaled up it would swamp the
        // layer, so it counts as nothing (the wall time still holds it).
        if nanos < PREEMPTED_NS {
            add(nanos.saturating_sub(clock_floor()) * SAMPLE_EVERY, 0);
        }
        out
    }

    /// Mean reading of an empty clocked interval, preempted readings left
    /// out: the clock's own cost, taken off every sample.
    fn clock_floor() -> u64 {
        static FLOOR: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
        *FLOOR.get_or_init(|| {
            let readings: Vec<u64> = (0..1_000_000)
                .map(|_| Instant::now().elapsed().as_nanos() as u64)
                .filter(|&ns| ns < PREEMPTED_NS)
                .collect();
            readings.iter().sum::<u64>() / readings.len() as u64
        })
    }

    /// Times the hot method of the executor, controller or allocator it
    /// wraps and forwards every other method, defaulted ones included,
    /// so the wrapped run is the same program.
    struct Timed<T>(T);

    impl<T: JobExecutor> JobExecutor for Timed<T> {
        fn run_quantum(&mut self, allotment: u32, steps: u64) -> QuantumStats {
            timed(0, || self.0.run_quantum(allotment, steps))
        }
        fn is_complete(&self) -> bool {
            self.0.is_complete()
        }
        fn total_work(&self) -> u64 {
            self.0.total_work()
        }
        fn total_span(&self) -> u64 {
            self.0.total_span()
        }
        fn completed_work(&self) -> u64 {
            self.0.completed_work()
        }
        fn elapsed_steps(&self) -> u64 {
            self.0.elapsed_steps()
        }
        fn try_reset(&mut self) -> bool {
            self.0.try_reset()
        }
        fn steady_quanta(&self, allotment: u32, steps: u64, stats: &QuantumStats) -> u64 {
            self.0.steady_quanta(allotment, steps, stats)
        }
    }

    impl<T: Controller> Controller for Timed<T> {
        fn initial_request(&self) -> f64 {
            self.0.initial_request()
        }
        fn observe(&mut self, stats: &QuantumStats) -> f64 {
            timed(1, || self.0.observe(stats))
        }
        fn current_request(&self) -> f64 {
            self.0.current_request()
        }
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn initial_quantum_len(&self, default_len: u64) -> u64 {
            self.0.initial_quantum_len(default_len)
        }
        fn next_quantum_len(&mut self, default_len: u64) -> u64 {
            self.0.next_quantum_len(default_len)
        }
        fn supports_frozen_stepping(&self) -> bool {
            self.0.supports_frozen_stepping()
        }
        fn is_steady(&self, stats: &QuantumStats) -> bool {
            self.0.is_steady(stats)
        }
    }

    impl<T: Allocator> Allocator for Timed<T> {
        fn allocate_into(&mut self, requests: &[f64], out: &mut Vec<u32>) {
            timed(2, || self.0.allocate_into(requests, out))
        }
        fn try_availabilities(&mut self, requests: &[f64], out: &mut Vec<u32>) -> bool {
            self.0.try_availabilities(requests, out)
        }
        fn total_processors(&self) -> u32 {
            self.0.total_processors()
        }
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn allocation_stability(&self) -> AllocationStability {
            self.0.allocation_stability()
        }
    }

    /// Runs every set once on DEQ under the given executor and
    /// controller factories and prints the pass's wall time, each
    /// layer's busy time and calls, and the core's self time (wall time
    /// minus the three layers).
    fn closed_pass<E: JobExecutor, C: Controller>(
        label: &str,
        sets: &[SharedSet],
        cfg: &MultiprogrammedConfig,
        executor: impl Fn(&Arc<PhasedJob>) -> E,
        controller: impl Fn() -> C,
    ) {
        LAYERS.with(|l| l.set([(0, 0); 3]));
        let start = Instant::now();
        let quanta: u64 = sets
            .iter()
            .map(|set| {
                let deq = Timed(DynamicEquiPartition::new(PROCESSORS));
                set.run(deq, cfg.quantum_len, &executor, &controller).quanta
            })
            .sum();
        let wall = start.elapsed().as_secs_f64();
        let layers = LAYERS.with(|l| l.get());
        let busy: Vec<f64> = layers.iter().map(|&(ns, _)| ns as f64 * 1e-9).collect();
        println!(
            "{label}: {quanta} quanta, wall {wall:.3} s | run_quantum {:.3} s / {} calls | \
             observe {:.3} s / {} calls | allocate {:.3} s / {} calls | core self {:.3} s",
            busy[0],
            layers[0].1,
            busy[1],
            layers[1].1,
            busy[2],
            layers[2].1,
            wall - busy.iter().sum::<f64>(),
        );
    }

    /// Per-layer split of the Fig. 6 preset's closed loop: every paper
    /// set under ABG and A-Greedy, once through the monomorphized
    /// executor and controller and once boxed, each component behind a
    /// sampling timing wrapper:
    /// `cargo test --release -p abg closed_layer_probe -- --ignored --nocapture`.
    #[test]
    #[ignore = "measurement probe, not a correctness test"]
    fn closed_layer_probe() {
        use crate::experiments::multiprogrammed::generate_set;
        use crate::experiments::pipelined;
        use abg_control::AGreedy;
        type BoxedExecutor = Box<dyn JobExecutor + Send>;
        type BoxedController = Box<dyn Controller + Send>;

        println!("clock floor {} ns", clock_floor());
        let cfg = MultiprogrammedConfig::paper();
        let sets: Vec<SharedSet> = cfg
            .loads
            .iter()
            .flat_map(|&load| (0..cfg.sets_per_load as u64).map(move |i| (load, i)))
            .map(|(load, i)| SharedSet::new(generate_set(&cfg, load, i)))
            .collect();
        let mono = |job: &Arc<PhasedJob>| Timed(pipelined(job));
        let boxed = |job: &Arc<PhasedJob>| -> BoxedExecutor { Box::new(Timed(pipelined(job))) };
        closed_pass("monomorphic abg", &sets, &cfg, mono, || {
            Timed(AControl::paper_default())
        });
        closed_pass("monomorphic a-greedy", &sets, &cfg, mono, || {
            Timed(AGreedy::paper_default())
        });
        closed_pass("boxed abg", &sets, &cfg, boxed, || -> BoxedController {
            Box::new(Timed(AControl::paper_default()))
        });
        closed_pass(
            "boxed a-greedy",
            &sets,
            &cfg,
            boxed,
            || -> BoxedController { Box::new(Timed(AGreedy::paper_default())) },
        );
    }
}
