//! The kernel benchmark trajectory suite: wall-clock throughput of the
//! hot simulation loops, measured the same way from the CLI (`abg-cli
//! bench`), the Criterion benches, and CI smoke runs.
//!
//! Each kernel drives one hot path end to end and reports *operations*
//! (tasks executed, or jobs simulated for the composite kernels) and
//! *simulated steps* per second. The `chain_macro` / `chain_reference`
//! pair measures the incremental-span + macro-stepping kernel against
//! the legacy clone-and-rescan kernel preserved in
//! [`abg_sched::ReferenceExecutor`] — the before/after of the
//! `O(T∞)`-per-quantum → `O(work done this quantum)` rewrite.

use super::single_job::{single_job_sweep_with_steps, SingleJobSweepConfig};
use abg_alloc::DynamicEquiPartition;
use abg_control::{AControl, ConstantRequest};
use abg_dag::{generate, LeveledJob, Phase, PhasedJob};
use abg_sched::{
    BGreedyExecutor, JobExecutor, LeveledExecutor, OwnedBGreedyExecutor, PipelinedExecutor,
    ReferenceBGreedyExecutor,
};
use abg_sim::{live_job_footprint, CompletedJob, MultiJobSim, NullProbe, QuantumCore};
use abg_workload::{JobSetSpec, ReleaseSchedule, WorkflowKind};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of the kernel suite.
///
/// [`KernelBenchConfig::full`] is the recorded-baseline size;
/// [`KernelBenchConfig::smoke`] shrinks every kernel so the whole suite
/// finishes in well under a second (CI and tests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelBenchConfig {
    /// Minimum wall-clock per kernel in milliseconds: each kernel body
    /// repeats until at least this much time has elapsed.
    pub min_wall_ms: u64,
    /// Tasks in the serial-chain kernels (long `T∞`, width 1).
    pub chain_len: u32,
    /// Quantum length for the chain kernels — deliberately short, so the
    /// legacy kernel pays its per-quantum rescan many times.
    pub chain_quantum: u64,
    /// Width of the pipelined chain-bundle (fork-join) kernel.
    pub bundle_width: u32,
    /// Levels per chain in the chain-bundle kernel.
    pub bundle_levels: u32,
    /// Depth of the binary fork-tree kernel (`2^depth − 1` tasks).
    pub tree_depth: u32,
    /// Serial/parallel phase pairs in the phased (pipelined) kernel.
    pub phased_pairs: u64,
    /// Parallel-phase width in the phased kernel.
    pub phased_width: u64,
    /// Levels per phase in the phased kernel.
    pub phased_len: u64,
    /// Width of the barrier-leveled kernel.
    pub leveled_width: u64,
    /// Levels of the barrier-leveled kernel.
    pub leveled_levels: u64,
    /// Levels per chain of the `weighted_frontier` kernel's bundle
    /// (width `bundle_width`, heterogeneous half-integer task weights):
    /// the residual-work executor kernel priced on a sustained wide
    /// frontier.
    pub weighted_levels: u32,
    /// Fan-out of the `workflow_open` kernel's Montage-like arrivals.
    pub workflow_scale: u32,
    /// Measured completions per repetition of the `workflow_open`
    /// kernel.
    pub workflow_jobs: u64,
    /// Layers of the random dag in the `dag_build` kernel.
    pub dag_levels: u32,
    /// Maximum layer width of the `dag_build` kernel's dag.
    pub dag_width: u32,
    /// Extra cross-layer edge probability in the `dag_build` kernel.
    pub dag_edge_prob: f64,
    /// Work units dispatched through the sharded `parallel_map` in the
    /// `sweep_parallel` kernel.
    pub parallel_units: u64,
    /// Transition factors of the single-job sweep kernel.
    pub sweep_factors: Vec<u64>,
    /// Jobs per factor in the single-job sweep kernel.
    pub sweep_jobs: u32,
    /// Machine size for the composite kernels.
    pub processors: u32,
    /// Load of the multiprogrammed DEQ kernel.
    pub load: f64,
    /// Measured completions per repetition of the open-system kernel.
    pub open_jobs: u64,
    /// Offered utilization of the open-system kernel (must be stable).
    pub open_rho: f64,
    /// Levels per job in the open kernels (width-8 phases, so `T1 =
    /// 8 · open_levels`). Long jobs put the drivers in the event-sparse
    /// regime the frozen-quantum machinery targets: thousands of quanta
    /// between arrivals and completions, nearly all of them frozen.
    pub open_levels: u64,
    /// Offered utilization of the `open_event` kernel — high enough
    /// that a double-digit population is live in every window, while
    /// staying in DEQ's satisfied regime where windows can freeze.
    pub open_event_rho: f64,
    /// Processor groups of the `open_sharded` kernel. Each shard is an
    /// independent decimated open system committing its own horizon, so
    /// the kernel's aggregate simulated steps scale with the shard
    /// count while the per-event cost scales with the per-shard
    /// population.
    pub open_shards: u32,
    /// Jobs pushed through the `open_churn` kernel — short jobs on a
    /// dense deterministic arrival grid, every one admitted up front
    /// with a future release step. Completions land in nearly every
    /// quantum, so the kernel prices the core's storage layer: slot
    /// scan/reclamation under churn, with the live set a small fraction
    /// of the in-system population.
    pub churn_jobs: u64,
    /// Jobs of the `open_churn_large` variant: the same regime scaled
    /// until the system *holds* a 10⁵-order job population, so the
    /// kernel demonstrates per-quantum cost scaling with the live set,
    /// not with everything admitted.
    pub churn_large_jobs: u64,
    /// Suite seed (job generation only; timings are machine-dependent).
    pub seed: u64,
}

impl KernelBenchConfig {
    /// The recorded-baseline size (sub-minute on a laptop core).
    pub fn full() -> Self {
        Self {
            min_wall_ms: 200,
            chain_len: 100_000,
            chain_quantum: 64,
            bundle_width: 8,
            bundle_levels: 25_000,
            tree_depth: 16,
            phased_pairs: 64,
            phased_width: 16,
            phased_len: 64,
            leveled_width: 16,
            leveled_levels: 50_000,
            weighted_levels: 25_000,
            workflow_scale: 32,
            workflow_jobs: 1_000,
            dag_levels: 2_000,
            dag_width: 32,
            dag_edge_prob: 0.05,
            parallel_units: 1_024,
            sweep_factors: vec![2, 10, 40],
            sweep_jobs: 8,
            processors: 128,
            load: 2.0,
            open_jobs: 400,
            open_rho: 0.6,
            open_levels: 100_000,
            open_event_rho: 0.85,
            open_shards: 4,
            churn_jobs: 10_000,
            churn_large_jobs: 150_000,
            seed: 0xB16C_2008,
        }
    }

    /// A CI/test smoke size: every kernel shrunk to finish the whole
    /// suite in well under a second.
    pub fn smoke() -> Self {
        Self {
            min_wall_ms: 2,
            chain_len: 4_000,
            chain_quantum: 64,
            bundle_width: 8,
            bundle_levels: 500,
            // Deep enough that the saturated wide-frontier regime
            // dominates, as it does at the full size — a shallower tree
            // is straddle-heavy and systematically undershoots the
            // committed full-size baseline the --check gate compares
            // against.
            tree_depth: 13,
            phased_pairs: 8,
            phased_width: 8,
            phased_len: 16,
            leveled_width: 8,
            leveled_levels: 1_000,
            weighted_levels: 500,
            workflow_scale: 8,
            workflow_jobs: 80,
            dag_levels: 100,
            dag_width: 8,
            dag_edge_prob: 0.05,
            parallel_units: 32,
            sweep_factors: vec![2, 10],
            sweep_jobs: 2,
            processors: 32,
            load: 1.0,
            open_jobs: 60,
            open_rho: 0.5,
            open_levels: 4_000,
            // The full size runs 0.85 on 128 processors (16 effective
            // servers); at the smoke scale (4 effective servers) the
            // same rho is burstier and spends far more time in DEQ's
            // deprived regime where windows cannot freeze, so the smoke
            // point backs off to keep the kernel in the macro-stepping
            // regime the full-size baseline prices.
            open_event_rho: 0.7,
            open_shards: 4,
            churn_jobs: 1_500,
            churn_large_jobs: 8_000,
            seed: 0xB16C_2008,
        }
    }
}

/// One kernel's measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelResult {
    /// Kernel name (stable identifier for trajectory tracking).
    pub kernel: String,
    /// Repetitions of the kernel body within the measurement window.
    pub iters: u64,
    /// Operations processed across all repetitions (tasks executed, or
    /// jobs simulated for the `single_job_sweep` kernel).
    pub ops: u64,
    /// Simulated time steps advanced across all repetitions (zero where
    /// the notion does not apply).
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

/// Repeats `body` until `min_wall_ms` has elapsed (at least once) and
/// folds the accumulated counters into a [`KernelResult`].
fn measure<F>(kernel: &str, min_wall_ms: u64, mut body: F) -> KernelResult
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
        kernel: kernel.to_string(),
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

/// One repetition of a churn kernel: `n_jobs` short barrier-leveled
/// jobs (width 4, 200 levels, `T1 = 800`) on a deterministic arrival
/// grid at effective-server utilization 0.85 — each job asks for 2
/// processors, so level boundaries align with quantum boundaries and
/// nearly every quantum both admits releases and reclaims completions.
/// The *entire* calendar is admitted up front with future release
/// steps: the storage layer holds every not-yet-completed job while
/// only the O(live) set is scheduled, which is exactly the regime where
/// per-quantum full-population scans (and compaction on completion)
/// dominate. Executors are pooled across repetitions, so the
/// measurement prices the core, not job construction.
fn churn_body<'j>(
    processors: u32,
    n_jobs: u64,
    job: &'j LeveledJob,
    pool: &mut Vec<LeveledExecutor<&'j LeveledJob>>,
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
            None => LeveledExecutor::new(job),
        };
        core.admit(ex, ConstantRequest::new(2.0), i * gap_num / gap_den);
    }
    let mut completed = 0u64;
    while core.jobs_in_system() > 0 {
        if !core.any_live() {
            let next = core.next_release().expect("jobs pending");
            core.skip_idle_until(next);
            continue;
        }
        done.clear();
        core.step_quantum_reclaiming(done, pool);
        completed += done.len() as u64;
    }
    (completed, core.now())
}

/// Runs every kernel once and returns the measurements in suite order.
pub fn run_kernel_suite(cfg: &KernelBenchConfig) -> Vec<KernelResult> {
    let ms = cfg.min_wall_ms;
    let mut results = Vec::new();

    // Serial chain, short quanta: the macro-stepping fast path against
    // the legacy clone-and-rescan kernel on identical inputs. These two
    // produce bit-identical QuantumStats (the equivalence suite checks
    // this); only the cost model differs. Executors are built once and
    // rewound per repetition, so the measurement is the simulation loop
    // itself, not per-run construction.
    let chain = generate::chain(cfg.chain_len);
    let q = cfg.chain_quantum;
    let mut chain_ex = BGreedyExecutor::new(&chain);
    results.push(measure("chain_macro", ms, || {
        chain_ex.reset();
        while !chain_ex.is_complete() {
            chain_ex.run_quantum(1, q);
        }
        (chain_ex.completed_work(), chain_ex.elapsed_steps())
    }));
    let mut chain_ref = ReferenceBGreedyExecutor::new(&chain);
    results.push(measure("chain_reference", ms, || {
        chain_ref.reset();
        while !chain_ref.is_complete() {
            chain_ref.run_quantum(1, q);
        }
        (chain_ref.completed_work(), chain_ref.elapsed_steps())
    }));

    // Pipelined fork-join bundle: wide, constant parallelism.
    let bundle = generate::chain_bundle(cfg.bundle_width, cfg.bundle_levels);
    let width = cfg.bundle_width;
    let mut bundle_ex = BGreedyExecutor::new(&bundle);
    results.push(measure("forkjoin_bundle", ms, || {
        bundle_ex.reset();
        while !bundle_ex.is_complete() {
            bundle_ex.run_quantum(width, 100);
        }
        (bundle_ex.completed_work(), bundle_ex.elapsed_steps())
    }));

    // Binary fork tree: parallelism doubling every level, successor
    // relaxation dominated — the wide-frontier bulk path's home turf.
    let tree = generate::binary_fork_tree(cfg.tree_depth);
    let mut tree_ex = BGreedyExecutor::new(&tree);
    results.push(measure("forkjoin_tree", ms, || {
        tree_ex.reset();
        while !tree_ex.is_complete() {
            tree_ex.run_quantum(32, 100);
        }
        (tree_ex.completed_work(), tree_ex.elapsed_steps())
    }));

    // Phased (serial/parallel alternation) under the pipelined
    // fast-forward executor.
    let phased = PhasedJob::new(
        (0..cfg.phased_pairs * 2)
            .map(|i| {
                let w = if i % 2 == 0 { 1 } else { cfg.phased_width };
                Phase::new(w, cfg.phased_len)
            })
            .collect(),
    );
    let pw = cfg.phased_width as u32;
    let mut phased_ex = PipelinedExecutor::new(&phased);
    results.push(measure("phased_pipelined", ms, || {
        phased_ex.reset();
        while !phased_ex.is_complete() {
            phased_ex.run_quantum(pw, 100);
        }
        (phased_ex.completed_work(), phased_ex.elapsed_steps())
    }));

    // Barrier-leveled constant job under the leveled fast-forward.
    let leveled = LeveledJob::constant(cfg.leveled_width, cfg.leveled_levels);
    let lw = cfg.leveled_width as u32;
    let mut leveled_ex = LeveledExecutor::new(&leveled);
    results.push(measure("leveled_barrier", ms, || {
        leveled_ex.reset();
        while !leveled_ex.is_complete() {
            leveled_ex.run_quantum(lw, 100);
        }
        (leveled_ex.completed_work(), leveled_ex.elapsed_steps())
    }));

    // Weighted wide frontier: the same bundle shape as
    // `forkjoin_bundle`, every task carrying a heterogeneous
    // half-integer weight, so each step advances residual costs and the
    // completion sweep compacts in place — the weighted executor
    // kernel's sustained regime. Built once, rewound per repetition;
    // ops count processor-step units (Σ ceil(wᵢ)), not tasks.
    let weighted = {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let base = generate::chain_bundle(cfg.bundle_width, cfg.weighted_levels);
        let weights: Vec<f64> = (0..base.num_tasks())
            .map(|_| rng.random_range(1..=7u64) as f64 * 0.5)
            .collect();
        base.with_weights(weights)
            .expect("half-integer weights are finite and positive")
    };
    let wwidth = cfg.bundle_width;
    let mut weighted_ex = BGreedyExecutor::new(&weighted);
    results.push(measure("weighted_frontier", ms, || {
        weighted_ex.reset();
        while !weighted_ex.is_complete() {
            weighted_ex.run_quantum(wwidth, 100);
        }
        (weighted_ex.completed_work(), weighted_ex.elapsed_steps())
    }));

    // Dag construction: builder ingest + CSR finalization + Kahn
    // validation of a random layered graph. Ops are tasks built, steps
    // are edges placed; the same seed every iteration keeps the counters
    // iter-constant.
    results.push(measure("dag_build", ms, || {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let dag = generate::random_layered(
            &mut rng,
            cfg.dag_levels,
            1..=cfg.dag_width,
            cfg.dag_edge_prob,
        );
        (dag.work(), dag.num_edges() as u64)
    }));

    // Harness dispatch: many small independent simulations through the
    // sharded `parallel_map` — measures the sweep harness's fan-out
    // throughput (cursor claiming + chunk assembly), not the simulation
    // kernels themselves.
    let par_job = PhasedJob::constant(cfg.phased_width, cfg.phased_len);
    let par_w = cfg.phased_width as u32;
    results.push(measure("sweep_parallel", ms, || {
        let units: Vec<u64> = (0..cfg.parallel_units).collect();
        let runs = super::parallel_map(units, |_unit| {
            let mut ex = PipelinedExecutor::new(&par_job);
            while !ex.is_complete() {
                ex.run_quantum(par_w, 100);
            }
            (ex.completed_work(), ex.elapsed_steps())
        });
        runs.iter()
            .fold((0, 0), |(w, s), &(rw, rs)| (w + rw, s + rs))
    }));

    // Composite: the Figure-5 single-job sweep at a reduced size. Ops
    // are jobs simulated (each factor × job pair runs under both
    // controllers); steps are the total simulated steps of those runs,
    // deterministic in the seed so the counter stays iter-constant.
    let mut sweep_cfg = SingleJobSweepConfig::scaled();
    sweep_cfg.factors = cfg.sweep_factors.clone();
    sweep_cfg.jobs_per_factor = cfg.sweep_jobs;
    sweep_cfg.quantum_len = 100;
    sweep_cfg.seed = cfg.seed;
    let sweep_jobs = sweep_cfg.factors.len() as u64 * sweep_cfg.jobs_per_factor as u64 * 2;
    results.push(measure("single_job_sweep", ms, || {
        let (points, steps) = single_job_sweep_with_steps(&sweep_cfg);
        assert_eq!(points.len(), sweep_cfg.factors.len());
        (sweep_jobs, steps)
    }));

    // Composite: one multiprogrammed job set under DEQ + ABG.
    let spec = JobSetSpec {
        processors: cfg.processors,
        quantum_len: 100,
        load: cfg.load,
        max_factor: 32,
        pairs: 2,
        max_jobs: cfg.processors as usize,
        release: ReleaseSchedule::Batched,
    };
    let set = spec.generate(&mut StdRng::seed_from_u64(cfg.seed));
    let releases = set.releases;
    // One Arc per job, shared by every repetition — the measurement no
    // longer pays a phase-list clone per job per iteration.
    let jobs: Vec<Arc<PhasedJob>> = set.jobs.into_iter().map(Arc::new).collect();
    results.push(measure("multiprogrammed_deq", ms, || {
        let mut sim = MultiJobSim::new(DynamicEquiPartition::new(cfg.processors), 100);
        for (job, &release) in jobs.iter().zip(&releases) {
            sim.add_job(
                Box::new(PipelinedExecutor::new(Arc::clone(job))),
                Box::new(AControl::new(0.2)),
                release,
            );
        }
        let out = sim.run();
        (out.total_work(), out.makespan)
    }));

    // Composite: the open-system driver under sustained Poisson
    // arrivals — admission, event-driven stepping with frozen-quantum
    // windows between arrivals and completions, and steady-state
    // collection. The long jobs (`open_levels` width-8 levels) put the
    // run in the event-sparse regime: thousands of quanta separate
    // consecutive events and nearly all of them are macro-stepped. Ops
    // are arrivals admitted, steps are the simulated horizon; the fixed
    // seed keeps both iter-constant.
    let open_t1 = 8.0 * cfg.open_levels as f64;
    let open_job = Arc::new(PhasedJob::constant(8, cfg.open_levels));
    // Every boxed open driver stores the same erased slot types, so one
    // footprint figure covers the four driver kernels. The peak
    // population is read off the final repetition's steady report — the
    // fixed seed makes every repetition identical.
    let boxed_footprint = live_job_footprint::<
        Box<dyn JobExecutor + Send>,
        Box<dyn abg_control::RequestCalculator + Send>,
    >() as u64;
    let peak = Cell::new(0u64);
    let open_cfg = abg_queue::OpenConfig {
        processors: cfg.processors,
        quantum_len: 100,
        arrivals: abg_workload::ArrivalProcess::Poisson {
            mean_gap: abg_workload::mean_gap_for_utilization(cfg.open_rho, cfg.processors, open_t1),
        },
        warmup_jobs: cfg.open_jobs / 4,
        measured_jobs: cfg.open_jobs,
        batches: 8,
        // Unbounded in practice: the largest budget whose step horizon
        // fits in u64.
        max_quanta: u64::MAX / 100,
        saturation: abg_queue::SaturationConfig::default(),
        seed: cfg.seed,
    };
    let mut open_res = measure("open_system", ms, || {
        let out = abg_queue::run_open_system(
            &open_cfg,
            DynamicEquiPartition::new(cfg.processors),
            // Homogeneous population: every arrival runs the same job
            // structure, so a recycled executor is rewound and reused —
            // the steady-state loop allocates nothing per arrival.
            |_rng, recycled| {
                if let Some(mut ex) = recycled {
                    if ex.try_reset() {
                        return ex;
                    }
                }
                Box::new(PipelinedExecutor::new(Arc::clone(&open_job)))
            },
            || Box::new(AControl::new(0.2)),
        );
        let stats = out.steady().expect("kernel rho must be stable");
        peak.set(stats.peak_jobs_in_system);
        (stats.arrivals, stats.horizon)
    });
    open_res.peak_jobs_in_system = peak.get();
    open_res.bytes_per_live_job = boxed_footprint;
    results.push(open_res);

    // Composite: the same event-driven driver at high offered load —
    // the macro-stepping stress case. A double-digit population is live
    // in every frozen window, so the window bookkeeping (stability
    // checks, per-job lookahead, bulk catch-up) is priced per job
    // rather than hidden behind idle skipping.
    let event_cfg = abg_queue::OpenConfig {
        arrivals: abg_workload::ArrivalProcess::Poisson {
            mean_gap: abg_workload::mean_gap_for_utilization(
                cfg.open_event_rho,
                cfg.processors,
                open_t1,
            ),
        },
        ..open_cfg.clone()
    };
    let mut event_res = measure("open_event", ms, || {
        let out = abg_queue::run_open_system(
            &event_cfg,
            DynamicEquiPartition::new(cfg.processors),
            |_rng, recycled| {
                if let Some(mut ex) = recycled {
                    if ex.try_reset() {
                        return ex;
                    }
                }
                Box::new(PipelinedExecutor::new(Arc::clone(&open_job)))
            },
            || Box::new(AControl::new(0.2)),
        );
        let stats = out.steady().expect("kernel rho must be stable");
        peak.set(stats.peak_jobs_in_system);
        (stats.arrivals, stats.horizon)
    });
    event_res.peak_jobs_in_system = peak.get();
    event_res.bytes_per_live_job = boxed_footprint;
    results.push(event_res);

    // Composite: the sharded open-system engine at the same offered
    // load as `open_event`, the machine split into `open_shards`
    // independent processor groups. Every decimated shard commits its
    // own horizon, so steps (aggregate committed quanta × quantum
    // length) scale with the shard count while each shard's event loop
    // prices a population `open_shards`× smaller — the algorithmic win
    // this kernel gates, so the pool is pinned to one worker and the
    // counters stay independent of the runner's core count. The jobs
    // are width-2 (same `T1` through 4× the levels): a 1/`open_shards`
    // slice of the machine still offers many effective servers, keeping
    // every shard in the satisfied regime where windows freeze.
    let sharded_job = Arc::new(PhasedJob::constant(2, 4 * cfg.open_levels));
    let sharded_cfg = abg_queue::ShardedOpenConfig {
        open: abg_queue::OpenConfig {
            arrivals: abg_workload::ArrivalProcess::Poisson {
                mean_gap: abg_workload::mean_gap_for_utilization(
                    cfg.open_event_rho,
                    cfg.processors,
                    open_t1,
                ),
            },
            ..open_cfg.clone()
        },
        shards: cfg.open_shards,
        routing: abg_queue::ShardRouting::RoundRobin,
    };
    let mut sharded_res = measure("open_sharded", ms, || {
        let out = abg_queue::run_open_sharded_with_threads(
            &sharded_cfg,
            DynamicEquiPartition::new,
            |_rng, recycled: Option<Box<dyn JobExecutor + Send>>| {
                if let Some(mut ex) = recycled {
                    if ex.try_reset() {
                        return ex;
                    }
                }
                Box::new(PipelinedExecutor::new(Arc::clone(&sharded_job)))
            },
            || Box::new(AControl::new(0.2)),
            1,
        );
        let stats = out.steady().expect("kernel rho must be stable");
        peak.set(stats.peak_jobs_in_system);
        (stats.arrivals, stats.quanta * 100)
    });
    sharded_res.peak_jobs_in_system = peak.get();
    sharded_res.bytes_per_live_job = boxed_footprint;
    results.push(sharded_res);

    // Composite: the hierarchical two-level driver over the same
    // decomposition as `open_sharded`, but with the desire-proportional
    // top level reallocating group capacities every 64 quanta. This
    // prices what the top level adds to the sharded engine: the epoch
    // barriers slicing every group's frozen windows, the per-epoch
    // desire folds, and the allocator-rebuild path on resized groups
    // (under round-robin routing the partition quickly settles, so
    // rebuilds price the steady case, not a thrash loop). Same
    // one-worker pool and counters as `open_sharded` so the two gate
    // comparable work.
    let hier_cfg = abg_queue::HierOpenConfig {
        open: sharded_cfg.open.clone(),
        groups: cfg.open_shards,
        routing: abg_queue::ShardRouting::RoundRobin,
        realloc_epoch: 64,
        group_floor: 1,
    };
    let mut hier_res = measure("open_hier", ms, || {
        let out = abg_queue::run_open_hierarchical_with_threads(
            &hier_cfg,
            DynamicEquiPartition::new,
            |_rng, recycled: Option<Box<dyn JobExecutor + Send>>| {
                if let Some(mut ex) = recycled {
                    if ex.try_reset() {
                        return ex;
                    }
                }
                Box::new(PipelinedExecutor::new(Arc::clone(&sharded_job)))
            },
            || Box::new(AControl::new(0.2)),
            abg_control::DesireProportional::new(),
            1,
        );
        let stats = out.steady().expect("kernel rho must be stable");
        peak.set(stats.peak_jobs_in_system);
        (stats.arrivals, stats.quanta * 100)
    });
    hier_res.peak_jobs_in_system = peak.get();
    hier_res.bytes_per_live_job = boxed_footprint;
    results.push(hier_res);

    // Composite: the open-system driver under weighted workflow
    // arrivals — every arrival builds a fresh Montage-like dag (stage
    // structure and half-integer weights from the run's RNG) and
    // executes it through the weighted per-task kernel. Against
    // `open_system` this prices what realistic heterogeneous jobs add:
    // per-arrival dag construction and the residual-work stepping that
    // the homogeneous phased population never touches. The fixed seed
    // keeps arrivals and horizon iter-constant.
    let wf_kind = WorkflowKind::Montage;
    let wf_scale = cfg.workflow_scale;
    let wf_t1 = {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        abg_workload::expected_work_of(256, &mut rng, |rng| {
            wf_kind.generate(wf_scale, rng).work() as f64
        })
    };
    let wf_cfg = abg_queue::OpenConfig {
        arrivals: abg_workload::ArrivalProcess::Poisson {
            mean_gap: abg_workload::mean_gap_for_utilization(cfg.open_rho, cfg.processors, wf_t1),
        },
        warmup_jobs: cfg.workflow_jobs / 4,
        measured_jobs: cfg.workflow_jobs,
        ..open_cfg.clone()
    };
    let mut wf_res = measure("workflow_open", ms, || {
        let out = abg_queue::run_open_system(
            &wf_cfg,
            DynamicEquiPartition::new(cfg.processors),
            // Heterogeneous dags: recycling is declined, every arrival
            // pays its own build — deliberately part of the price.
            |rng, _recycled| Box::new(OwnedBGreedyExecutor::new(wf_kind.generate(wf_scale, rng))),
            || Box::new(AControl::new(0.2)),
        );
        let stats = out.steady().expect("kernel rho must be stable");
        peak.set(stats.peak_jobs_in_system);
        (stats.arrivals, stats.horizon)
    });
    wf_res.peak_jobs_in_system = peak.get();
    wf_res.bytes_per_live_job = boxed_footprint;
    results.push(wf_res);

    // Storage-layer kernels: the completion-heavy churn regime. Short
    // jobs on a dense arrival grid, the whole calendar admitted up
    // front — the core holds the full in-system population while only
    // the small live set does work each quantum, so these two price the
    // live-set bookkeeping itself (the `open_churn` kernel is gated; the
    // large variant demonstrates the population-independent scaling).
    let churn_job = LeveledJob::constant(4, 200); // T1 = 800: four exact quanta at allotment 2
    let churn_footprint = live_job_footprint::<LeveledExecutor<&LeveledJob>, ConstantRequest>();
    let mut churn_pool: Vec<LeveledExecutor<&LeveledJob>> = Vec::new();
    let mut churn_done: Vec<CompletedJob> = Vec::new();
    let mut churn_res = measure("open_churn", ms, || {
        churn_body(
            cfg.processors,
            cfg.churn_jobs,
            &churn_job,
            &mut churn_pool,
            &mut churn_done,
        )
    });
    churn_res.peak_jobs_in_system = cfg.churn_jobs;
    churn_res.bytes_per_live_job = churn_footprint as u64;
    results.push(churn_res);

    let mut churn_large_res = measure("open_churn_large", ms, || {
        churn_body(
            cfg.processors,
            cfg.churn_large_jobs,
            &churn_job,
            &mut churn_pool,
            &mut churn_done,
        )
    });
    churn_large_res.peak_jobs_in_system = cfg.churn_large_jobs;
    churn_large_res.bytes_per_live_job = churn_footprint as u64;
    results.push(churn_large_res);

    // The unified quantum core driven directly, fully monomorphized (no
    // boxed executors or controllers, `NullProbe` instrumentation
    // compiled away): a closed batch released together followed by a
    // staggered open tail that exercises admission ordering and the
    // idle fast-forward. Ops are jobs completed, steps the simulated
    // horizon; both are deterministic so the counters stay
    // iter-constant. The core is rebuilt every repetition — admission
    // and teardown are part of what this kernel prices.
    let uni_job = Arc::new(PhasedJob::constant(8, 200)); // T1 = 1600
    let uni_batch = (cfg.processors as u64 / 8).max(2);
    let uni_gap = 400; // four quanta between staggered releases
    results.push(measure("unified_engine", ms, || {
        let mut core = QuantumCore::new(DynamicEquiPartition::new(cfg.processors), 100, NullProbe);
        for _ in 0..uni_batch {
            core.admit(
                PipelinedExecutor::new(Arc::clone(&uni_job)),
                AControl::new(0.2),
                0,
            );
        }
        for i in 0..uni_batch {
            core.admit(
                PipelinedExecutor::new(Arc::clone(&uni_job)),
                AControl::new(0.2),
                (i + 1) * uni_gap,
            );
        }
        let mut done = Vec::new();
        while core.jobs_in_system() > 0 {
            if !core.any_live() {
                let next = core.next_release().expect("jobs pending");
                core.skip_idle_until(next);
                continue;
            }
            core.step_quantum(&mut done);
        }
        (done.len() as u64, core.now())
    }));

    results
}

/// Throughput ratio `numerator.steps_per_sec / denominator.steps_per_sec`
/// between two kernels of a suite run, by name (`None` if either is
/// missing or the denominator did no steps).
pub fn kernel_speedup(results: &[KernelResult], numerator: &str, denominator: &str) -> Option<f64> {
    let num = results.iter().find(|r| r.kernel == numerator)?;
    let den = results.iter().find(|r| r.kernel == denominator)?;
    if den.steps_per_sec > 0.0 {
        Some(num.steps_per_sec / den.steps_per_sec)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_runs_every_kernel() {
        let results = run_kernel_suite(&KernelBenchConfig::smoke());
        let names: Vec<&str> = results.iter().map(|r| r.kernel.as_str()).collect();
        assert_eq!(
            names,
            [
                "chain_macro",
                "chain_reference",
                "forkjoin_bundle",
                "forkjoin_tree",
                "phased_pipelined",
                "leveled_barrier",
                "weighted_frontier",
                "dag_build",
                "sweep_parallel",
                "single_job_sweep",
                "multiprogrammed_deq",
                "open_system",
                "open_event",
                "open_sharded",
                "open_hier",
                "workflow_open",
                "open_churn",
                "open_churn_large",
                "unified_engine",
            ]
        );
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

    /// Full-size churn measurement on its own, without the rest of the
    /// suite — the before/after probe of the live-set storage layer:
    /// `cargo test --release -p abg churn_probe -- --ignored --nocapture`.
    #[test]
    #[ignore = "measurement probe, not a correctness test"]
    fn churn_probe() {
        let cfg = KernelBenchConfig::full();
        let job = LeveledJob::constant(4, 200);
        let mut pool = Vec::new();
        let mut done = Vec::new();
        for (name, jobs) in [
            ("open_churn", cfg.churn_jobs),
            ("open_churn_large", cfg.churn_large_jobs),
        ] {
            let r = measure(name, 2_000, || {
                churn_body(cfg.processors, jobs, &job, &mut pool, &mut done)
            });
            println!(
                "{name}: iters={} steps/s={:.0} ops/s={:.0}",
                r.iters, r.steps_per_sec, r.ops_per_sec
            );
        }
    }

    #[test]
    fn chain_kernels_do_identical_simulated_work() {
        let cfg = KernelBenchConfig::smoke();
        let results = run_kernel_suite(&cfg);
        let per_iter = |name: &str| {
            let r = results.iter().find(|r| r.kernel == name).unwrap();
            (r.ops / r.iters, r.steps / r.iters)
        };
        // Same job, same schedule: identical per-iteration work and
        // steps; only wall-clock differs.
        assert_eq!(per_iter("chain_macro"), per_iter("chain_reference"));
        assert_eq!(per_iter("chain_macro").0, cfg.chain_len as u64);
    }

    #[test]
    fn speedup_helper_finds_named_kernels() {
        let results = run_kernel_suite(&KernelBenchConfig::smoke());
        let s = kernel_speedup(&results, "chain_macro", "chain_reference");
        assert!(s.is_some());
        assert!(s.unwrap() > 0.0);
        assert!(kernel_speedup(&results, "chain_macro", "nope").is_none());
    }
}
