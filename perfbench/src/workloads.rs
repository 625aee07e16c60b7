//! The four workloads: their seeded inputs, their set-up and one pass
//! of simulations each.
//!
//! A pass is the unit the benchmark repeats in its closed loop: every
//! scheduler at every ρ point of an open workload, or both sweeps of
//! `closed_figs`. Set-up is everything between the seeded inputs and the
//! first simulated quantum; inputs are built before any timer starts.

use crate::layers::{Layers, Span};
use abg::alloc::DynamicEquiPartition;
use abg::control::{AControl, AGreedy, Controller, GroupPolicy};
use abg::dag::JobStructure;
use abg::experiments::{
    multiprogrammed_sweep, population_expected_work, single_job_sweep, LoadPoint,
    MultiprogrammedConfig, OpenSystemConfig, OpenWorkload, SingleJobSweepConfig, SweepPoint,
};
use abg::queue::{
    run_open_hierarchical_with_threads, run_open_system, HierOpenConfig, OpenConfig, OpenOutcome,
    ShardRouting,
};
use abg::sched::{
    BreadthFirstQueue, DagExecutor, JobExecutor, OwnedBGreedyExecutor, PipelinedExecutor,
};
use abg::workload::{
    mean_gap_for_utilization, mixed_factor_job, paper_job, parse_dag, splitmix_seed, write_dag,
    ArrivalProcess, JobSetSpec, WorkflowKind,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unsharded event-driven driver, mixed-factor population, ABG and
    /// A-Greedy at ρ 0.3 and 0.8.
    OpenMixed,
    /// Unsharded driver with a fresh Montage-like workflow per arrival,
    /// ABG and A-Greedy at ρ 0.7.
    OpenMontage,
    /// Hierarchical driver replaying one seeded Montage dag file under
    /// ABG with skewed routing and desire reallocation.
    HierReplay,
    /// The Figure-5 and Figure-6 sweeps.
    ClosedFigs,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::OpenMixed,
        Workload::OpenMontage,
        Workload::HierReplay,
        Workload::ClosedFigs,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OpenMixed => "open_mixed",
            Workload::OpenMontage => "open_montage",
            Workload::HierReplay => "hier_replay",
            Workload::ClosedFigs => "closed_figs",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Machine size of the open workloads.
const PROCESSORS: u32 = 64;
/// Quantum length of the open workloads.
const QUANTUM_LEN: u64 = 100;
/// Scale of the Montage dag `hier_replay` replays (3075 tasks).
const REPLAY_SCALE: u32 = 1024;
/// Scale of the Montage workflow `open_montage` generates per arrival.
const MONTAGE_SCALE: u32 = 8;

/// Everything a run derives from its seed before any timer starts.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The seed every simulation and generator derives from.
    pub seed: u64,
    /// Dag-file text `hier_replay` parses in set-up (empty otherwise).
    pub dag_text: String,
}

impl Inputs {
    /// Builds the seeded inputs of `workload`.
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let dag_text = match workload {
            Workload::HierReplay => {
                let mut rng = StdRng::seed_from_u64(splitmix_seed(seed, 0, 2));
                write_dag(&WorkflowKind::Montage.generate(REPLAY_SCALE, &mut rng))
            }
            _ => String::new(),
        };
        Inputs {
            workload,
            seed,
            dag_text,
        }
    }
}

/// Which controller every arriving job gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// ABG, rate 0.2.
    Abg,
    /// A-Greedy, responsiveness 2 and utilization threshold 0.8.
    AGreedy,
}

impl Scheduler {
    fn controller(self) -> Box<dyn Controller + Send> {
        match self {
            Scheduler::Abg => Box::new(AControl::new(0.2)),
            Scheduler::AGreedy => Box::new(AGreedy::new(2.0, 0.8)),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Scheduler::Abg => "abg",
            Scheduler::AGreedy => "agreedy",
        }
    }
}

/// One simulated open-system run of a pass.
#[derive(Debug, Clone)]
pub struct OpenRun {
    /// Offered utilization.
    pub rho: f64,
    /// The Poisson mean gap set-up solved for `rho`.
    pub mean_gap: f64,
    /// The set-up's `E[T1]` estimate.
    pub expected_work: f64,
    /// The controller.
    pub scheduler: Scheduler,
    /// The configuration handed to the driver.
    pub config: OpenConfig,
}

impl OpenRun {
    /// A short label, e.g. `rho0.8/abg`.
    pub fn label(&self) -> String {
        format!("rho{}/{}", self.rho, self.scheduler.name())
    }
}

/// What the closed sweeps are expected to report about their own
/// populations, derived in set-up from the same generators and seeds.
#[derive(Debug, Clone)]
pub struct ClosedExpect {
    /// `measured_factor` of each Figure-5 point.
    pub measured_factor: Vec<f64>,
    /// `(measured_load, mean_jobs)` of each Figure-6 point.
    pub load_columns: Vec<(f64, f64)>,
    /// Jobs simulated by one pass of both sweeps.
    pub jobs: u64,
}

/// A workload after set-up: ready to simulate.
#[derive(Debug, Clone)]
pub enum Prepared {
    /// An open workload on the unsharded driver.
    Open {
        /// The library sweep these runs reproduce.
        sweep: OpenSystemConfig,
        /// The runs of one pass.
        runs: Vec<OpenRun>,
    },
    /// The hierarchical replay.
    Hier {
        /// Population and measurement settings.
        sweep: OpenSystemConfig,
        /// The single run of one pass (its `config` is the aggregate one).
        run: OpenRun,
        /// The hierarchical configuration.
        config: Box<HierOpenConfig>,
    },
    /// Both closed sweeps.
    Closed {
        /// Figure-5 configuration.
        fig5: SingleJobSweepConfig,
        /// Figure-6 configuration.
        fig6: MultiprogrammedConfig,
        /// Population columns the sweeps must reproduce.
        expect: ClosedExpect,
    },
}

/// The paper's open-system preset at `P = 64`, `L = 100` (2000 measured
/// jobs after 500 warmup arrivals) with the benchmark's ρ points,
/// population and seed.
fn open_system_config(seed: u64, rhos: Vec<f64>, workload: OpenWorkload) -> OpenSystemConfig {
    OpenSystemConfig {
        rhos,
        processors: PROCESSORS,
        quantum_len: QUANTUM_LEN,
        workload,
        seed,
        ..OpenSystemConfig::paper()
    }
}

/// The per-run configuration, seeded exactly as
/// `abg::experiments::open_system_sweep` seeds its point `index`, so the
/// benchmark's runs are the sweep's runs.
fn open_config(cfg: &OpenSystemConfig, mean_gap: f64, index: u64) -> OpenConfig {
    OpenConfig {
        processors: cfg.processors,
        quantum_len: cfg.quantum_len,
        arrivals: ArrivalProcess::Poisson { mean_gap },
        warmup_jobs: cfg.warmup_jobs,
        measured_jobs: cfg.measured_jobs,
        batches: cfg.batches,
        max_quanta: cfg.max_quanta,
        saturation: cfg.saturation,
        seed: splitmix_seed(cfg.seed, index, 1),
    }
}

/// Estimates `E[T1]`, solves each ρ's gap and lays out one run per ρ
/// point and scheduler.
fn plan_runs<L: Layers>(
    cfg: &OpenSystemConfig,
    schedulers: &[Scheduler],
    layers: &L,
) -> Vec<OpenRun> {
    let work = layers.span(Span::ExpectedWork, || population_expected_work(cfg));
    let mut runs = Vec::new();
    for (index, &rho) in cfg.rhos.iter().enumerate() {
        let mean_gap = mean_gap_for_utilization(rho, cfg.processors, work);
        for &scheduler in schedulers {
            runs.push(OpenRun {
                rho,
                mean_gap,
                expected_work: work,
                scheduler,
                config: open_config(cfg, mean_gap, index as u64),
            });
        }
    }
    runs
}

fn prepare_open<L: Layers>(sweep: OpenSystemConfig, layers: &L) -> Prepared {
    let runs = plan_runs(&sweep, &[Scheduler::Abg, Scheduler::AGreedy], layers);
    sweep
        .validate()
        .expect("benchmark open-system config is valid");
    Prepared::Open { sweep, runs }
}

fn fig5_config(seed: u64) -> SingleJobSweepConfig {
    SingleJobSweepConfig {
        seed,
        ..SingleJobSweepConfig::paper()
    }
}

fn fig6_config(seed: u64) -> MultiprogrammedConfig {
    MultiprogrammedConfig {
        seed,
        ..MultiprogrammedConfig::paper()
    }
}

/// Regenerates both sweeps' populations with the sweeps' own per-unit
/// seeds and folds them exactly as the sweeps fold their population
/// columns (unit order, `sum / n`).
fn closed_expect(fig5: &SingleJobSweepConfig, fig6: &MultiprogrammedConfig) -> ClosedExpect {
    let mut jobs = 0;
    let mut measured_factor = Vec::new();
    for &factor in &fig5.factors {
        let n = fig5.jobs_per_factor as u64;
        let sum: f64 = (0..n)
            .map(|index| {
                let mut rng = StdRng::seed_from_u64(splitmix_seed(fig5.seed, factor, index));
                paper_job(factor, fig5.quantum_len, fig5.pairs, &mut rng)
                    .transition_factor(fig5.quantum_len)
            })
            .sum();
        measured_factor.push(sum / n as f64);
        jobs += 2 * n;
    }
    let mut load_columns = Vec::new();
    for &load in &fig6.loads {
        let spec = JobSetSpec {
            processors: fig6.processors,
            quantum_len: fig6.quantum_len,
            load,
            max_factor: fig6.max_factor,
            pairs: fig6.pairs,
            max_jobs: fig6.processors as usize,
            release: fig6.release,
        };
        let n = fig6.sets_per_load as u64;
        let (mut load_sum, mut len_sum) = (0.0, 0.0);
        for index in 0..n {
            let mut rng = StdRng::seed_from_u64(splitmix_seed(fig6.seed, index, load.to_bits()));
            let set = spec.generate(&mut rng);
            load_sum += set.load();
            len_sum += set.len() as f64;
            jobs += 2 * set.len() as u64;
        }
        load_columns.push((load_sum / n as f64, len_sum / n as f64));
    }
    ClosedExpect {
        measured_factor,
        load_columns,
        jobs,
    }
}

/// Set-up: from the seeded inputs to a workload ready for its first
/// simulated quantum. Covers the `E[T1]` estimate, the ρ-to-gap solve,
/// config validation and, for the replay, parsing the dag file; for the
/// closed sweeps, generating their populations.
pub fn set_up<L: Layers>(inputs: &Inputs, layers: &L) -> Prepared {
    let seed = inputs.seed;
    match inputs.workload {
        Workload::OpenMixed => prepare_open(
            open_system_config(seed, vec![0.3, 0.5], OpenWorkload::MixedFactor),
            layers,
        ),
        Workload::OpenMontage => {
            let workload = OpenWorkload::Workflow {
                kind: WorkflowKind::Montage,
                scale: MONTAGE_SCALE,
            };
            prepare_open(open_system_config(seed, vec![0.7], workload), layers)
        }
        Workload::HierReplay => {
            let dag = layers.span(Span::ParseDag, || parse_dag(&inputs.dag_text));
            let dag = Arc::new(dag.expect("the benchmark writes a well-formed dag file"));
            let sweep = open_system_config(seed, vec![0.5], OpenWorkload::Trace(dag));
            let run = plan_runs(&sweep, &[Scheduler::Abg], layers).remove(0);
            let config = Box::new(HierOpenConfig {
                open: run.config.clone(),
                groups: 4,
                routing: ShardRouting::Skewed { hot: 4 },
                realloc_epoch: 50,
                group_floor: 1,
            });
            config
                .validate()
                .expect("benchmark hierarchical config is valid");
            Prepared::Hier { sweep, run, config }
        }
        Workload::ClosedFigs => {
            let (fig5, fig6) = (fig5_config(seed), fig6_config(seed));
            let expect = closed_expect(&fig5, &fig6);
            Prepared::Closed { fig5, fig6, expect }
        }
    }
}

/// What one simulated run produced.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// An open-system run.
    Open(OpenOutcome),
    /// The Figure-5 sweep.
    Fig5(Vec<SweepPoint>),
    /// The Figure-6 sweep.
    Fig6(Vec<LoadPoint>),
    /// The run panicked.
    Panicked,
}

/// One run of a pass, with its label.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// E.g. `rho0.3/abg` or `fig5`.
    pub label: String,
    /// What it produced.
    pub outcome: Outcome,
}

/// One pass over a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Its runs, in a fixed order.
    pub runs: Vec<RunResult>,
    /// Jobs simulated: arrivals admitted over every open run, or jobs
    /// simulated across both sweeps.
    pub jobs: u64,
}

fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

fn open_outcome(outcome: Option<OpenOutcome>) -> (Outcome, u64) {
    match outcome {
        Some(o) => {
            let arrivals = match &o {
                OpenOutcome::Steady(s) => s.arrivals,
                OpenOutcome::Unstable(u) => u.arrivals,
            };
            (Outcome::Open(o), arrivals)
        }
        None => (Outcome::Panicked, 0),
    }
}

/// Builds one executor per admission, as `open_system_sweep` does:
/// generation and construction are timed as separate spans, and a
/// recycled executor is reset in place when every arrival runs the same
/// dag.
fn make_executor<L: Layers>(
    sweep: &OpenSystemConfig,
    layers: &L,
    rng: &mut StdRng,
    recycled: Option<Box<dyn JobExecutor + Send>>,
) -> Box<dyn JobExecutor + Send> {
    let fresh: Box<dyn JobExecutor + Send> = match &sweep.workload {
        // Heterogeneous populations drop the recycled executor.
        OpenWorkload::MixedFactor => {
            let job = layers.span(Span::Generate, || {
                mixed_factor_job(sweep.max_factor, sweep.quantum_len, sweep.pairs, rng)
            });
            layers.span(Span::New, || Box::new(PipelinedExecutor::new(job)))
        }
        OpenWorkload::Workflow { kind, scale } => {
            let dag = layers.span(Span::Generate, || kind.generate(*scale, rng));
            layers.span(Span::New, || Box::new(OwnedBGreedyExecutor::new(dag)))
        }
        OpenWorkload::Trace(dag) => {
            if let Some(mut ex) = recycled {
                if layers.span(Span::New, || ex.try_reset()) {
                    layers.recycled();
                    return ex;
                }
            }
            layers.span(Span::New, || {
                Box::new(DagExecutor::<_, BreadthFirstQueue>::new(Arc::clone(dag)))
            })
        }
    };
    layers.executor(fresh, sweep.quantum_len)
}

/// Runs one pass of a prepared workload on one worker thread.
pub fn run_pass<L: Layers>(prepared: &Prepared, layers: &L) -> Pass {
    match prepared {
        Prepared::Open { sweep, runs } => {
            let mut pass = Pass {
                runs: Vec::new(),
                jobs: 0,
            };
            for run in runs {
                let outcome = guarded(|| {
                    run_open_system(
                        &run.config,
                        layers.allocator(DynamicEquiPartition::new(run.config.processors)),
                        |rng: &mut StdRng, recycled| make_executor(sweep, layers, rng, recycled),
                        || layers.controller(run.scheduler.controller()),
                    )
                });
                let (outcome, jobs) = open_outcome(outcome);
                pass.jobs += jobs;
                pass.runs.push(RunResult {
                    label: run.label(),
                    outcome,
                });
            }
            pass
        }
        Prepared::Hier { sweep, run, config } => {
            let outcome = guarded(|| {
                run_open_hierarchical_with_threads(
                    config,
                    |p| layers.allocator(DynamicEquiPartition::new(p)),
                    |rng: &mut StdRng, recycled| make_executor(sweep, layers, rng, recycled),
                    || layers.controller(run.scheduler.controller()),
                    layers.group_allocator(GroupPolicy::Desire.build()),
                    1,
                )
            });
            let (outcome, jobs) = open_outcome(outcome);
            Pass {
                runs: vec![RunResult {
                    label: run.label(),
                    outcome,
                }],
                jobs,
            }
        }
        Prepared::Closed { fig5, fig6, expect } => {
            let fig5 = layers.span(Span::Fig5, || guarded(|| single_job_sweep(fig5)));
            let fig6 = layers.span(Span::Fig6, || guarded(|| multiprogrammed_sweep(fig6)));
            Pass {
                runs: vec![
                    RunResult {
                        label: "fig5".into(),
                        outcome: fig5.map_or(Outcome::Panicked, Outcome::Fig5),
                    },
                    RunResult {
                        label: "fig6".into(),
                        outcome: fig6.map_or(Outcome::Panicked, Outcome::Fig6),
                    },
                ],
                jobs: expect.jobs,
            }
        }
    }
}

impl Prepared {
    /// The configuration of the library's `open_system_sweep` that runs
    /// exactly this pass, for the open workloads on the unsharded driver.
    pub fn sweep_config(&self) -> Option<&OpenSystemConfig> {
        match self {
            Prepared::Open { sweep, .. } => Some(sweep),
            _ => None,
        }
    }

    /// The open runs of a pass, in pass order (empty for the sweeps).
    pub fn open_runs(&self) -> Vec<&OpenRun> {
        match self {
            Prepared::Open { runs, .. } => runs.iter().collect(),
            Prepared::Hier { run, .. } => vec![run],
            Prepared::Closed { .. } => Vec::new(),
        }
    }
}
