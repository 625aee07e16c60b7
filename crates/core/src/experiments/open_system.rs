//! The open-system ρ sweep: ABG vs A-Greedy under sustained Poisson
//! arrivals through DEQ.
//!
//! The paper's Figure-6 sweep is closed (a fixed set runs to drain);
//! this experiment asks the open-system question instead: with jobs
//! arriving indefinitely at offered load ρ, what steady-state mean
//! response time and slowdown does each task scheduler deliver, and
//! where does the system stop being stable? Offered load is pinned by
//! solving the Poisson mean gap from the expected job work,
//! ρ = E\[T₁\] / (gap · P) (see
//! [`abg_workload::mean_gap_for_utilization`]); both schedulers face
//! the *same* arrival sequence and job population at every ρ.

use super::{configured_threads, parallel_map, task_seed};
use abg_alloc::DynamicEquiPartition;
use abg_control::{AControl, AGreedy, Controller, GroupPolicy};
use abg_dag::ExplicitDag;
use abg_queue::{
    run_open_hierarchical_with_threads, HierOpenConfig, OpenConfig, OpenOutcome, SaturationConfig,
    ShardRouting,
};
use abg_sched::{DagExecutor, JobExecutor, OwnedBGreedyExecutor, PipelinedExecutor};
use abg_workload::{
    expected_work, expected_work_of, mean_gap_for_utilization, mixed_factor_job, ArrivalProcess,
    WorkflowKind,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Which controller drives every arriving job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scheduler {
    Abg,
    AGreedy,
}

/// The job population an open-system sweep releases.
#[derive(Debug, Clone, PartialEq)]
pub enum OpenWorkload {
    /// The paper's mixed-factor fork-join population (unit tasks):
    /// every arrival samples a fresh phase structure with parallel
    /// width uniform in `[2, max_factor]`.
    MixedFactor,
    /// Weighted workflow arrivals: every arrival generates a fresh
    /// instance of the given [`WorkflowKind`] at the given scale, with
    /// stage weights sampled from the run's RNG stream. Executors are
    /// never recycled — the dags are heterogeneous.
    Workflow {
        /// The workflow family to generate.
        kind: WorkflowKind,
        /// Fan-out of the family's widest stage.
        scale: u32,
    },
    /// Trace replay: every arrival executes the *same* dag (typically
    /// loaded from a dag file). The dag is shared by reference and
    /// completed executors are recycled via `try_reset`, so a point
    /// costs no per-arrival dag builds.
    Trace(
        /// The dag every arrival runs.
        Arc<ExplicitDag>,
    ),
}

/// Configuration of the open-system ρ sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenSystemConfig {
    /// Offered utilizations to sweep (values ≥ 1 are expected to be
    /// reported unstable, not simulated to completion).
    pub rhos: Vec<f64>,
    /// Machine size `P`.
    pub processors: u32,
    /// Quantum length `L` in steps.
    pub quantum_len: u64,
    /// Phase pairs per arriving job.
    pub pairs: u64,
    /// Largest parallel width in the mixed-factor job population.
    pub max_factor: u64,
    /// The job population arrivals are drawn from. The presets use
    /// [`OpenWorkload::MixedFactor`], which reproduces the historical
    /// sweep bit-for-bit; workflow and trace workloads route the same
    /// engines over weighted dags.
    pub workload: OpenWorkload,
    /// Arrivals discarded as warmup before measurement.
    pub warmup_jobs: u64,
    /// Arrivals measured per run.
    pub measured_jobs: u64,
    /// Batches for the response-time confidence interval.
    pub batches: u32,
    /// Hard quanta budget per run.
    pub max_quanta: u64,
    /// Monte-Carlo samples for estimating `E[T₁]` of the population.
    pub work_samples: u32,
    /// Saturation-detector tuning.
    pub saturation: SaturationConfig,
    /// Processor groups `G`, each fed by round-robin arrival routing
    /// (see [`abg_queue::shard`]). `1` (the presets' value) runs the
    /// unsharded event-driven driver bit-for-bit; larger counts split
    /// the machine through
    /// [`abg_queue::run_open_hierarchical_with_threads`].
    pub groups: u32,
    /// Top-level reallocation policy. [`GroupPolicy::Static`] never
    /// resizes anyone: `groups = G` under it is the fixed partition.
    pub group_alloc: GroupPolicy,
    /// Reallocation epoch in quanta. Validated always, but a run whose
    /// partition cannot change (`groups = 1`, or the static policy)
    /// runs one unbounded epoch instead: the outcome is the same for
    /// any epoch length, and the barriers would buy nothing.
    pub realloc_epoch: u64,
    /// Per-group capacity floor the top level must honor.
    pub group_floor: u32,
    /// ABG convergence rate `r`.
    pub rate: f64,
    /// A-Greedy responsiveness `ρ`.
    pub responsiveness: f64,
    /// A-Greedy utilization threshold `δ`.
    pub utilization: f64,
    /// Experiment seed.
    pub seed: u64,
}

impl OpenSystemConfig {
    /// Full-scale sweep: ρ from 0.1 to 0.95 plus an intentionally
    /// overloaded point, on a 64-processor machine.
    pub fn paper() -> Self {
        let mut rhos: Vec<f64> = (1..=9).map(|i| i as f64 * 0.1).collect();
        rhos.push(0.95);
        rhos.push(1.2); // must be flagged unstable, not simulated forever
        Self {
            rhos,
            processors: 64,
            quantum_len: 100,
            pairs: 3,
            max_factor: 32,
            workload: OpenWorkload::MixedFactor,
            warmup_jobs: 500,
            measured_jobs: 2000,
            batches: 20,
            max_quanta: 20_000_000,
            work_samples: 4096,
            saturation: SaturationConfig::default(),
            groups: 1,
            group_alloc: GroupPolicy::Static,
            realloc_epoch: 50,
            group_floor: 1,
            rate: 0.2,
            responsiveness: 2.0,
            utilization: 0.8,
            seed: 0x09E2,
        }
    }

    /// A scaled-down smoke sweep for tests and CI: four ρ points (one
    /// overloaded) at a size that finishes in well under a second.
    pub fn smoke() -> Self {
        Self {
            rhos: vec![0.2, 0.5, 0.8, 1.2],
            processors: 16,
            quantum_len: 20,
            pairs: 2,
            max_factor: 8,
            workload: OpenWorkload::MixedFactor,
            warmup_jobs: 40,
            measured_jobs: 160,
            batches: 8,
            max_quanta: 500_000,
            work_samples: 512,
            saturation: SaturationConfig::default(),
            groups: 1,
            group_alloc: GroupPolicy::Static,
            realloc_epoch: 50,
            group_floor: 1,
            rate: 0.2,
            responsiveness: 2.0,
            utilization: 0.8,
            seed: 0x09E2,
        }
    }

    /// The per-point engine configuration, with the knobs exactly as
    /// given. The arrival gap and seed vary per point but play no part
    /// in config validity, so [`validate`](Self::validate) passes
    /// placeholders.
    fn hier_config(&self, mean_gap: f64, seed: u64) -> HierOpenConfig {
        HierOpenConfig {
            open: OpenConfig {
                processors: self.processors,
                quantum_len: self.quantum_len,
                arrivals: ArrivalProcess::Poisson { mean_gap },
                warmup_jobs: self.warmup_jobs,
                measured_jobs: self.measured_jobs,
                batches: self.batches,
                max_quanta: self.max_quanta,
                saturation: self.saturation,
                seed,
            },
            groups: self.groups,
            routing: ShardRouting::RoundRobin,
            realloc_epoch: self.realloc_epoch,
            group_floor: self.group_floor,
        }
    }

    /// Validates the per-point engine configuration this sweep would
    /// run, so front ends can reject an inconsistent measurement setup
    /// (a bad group count, a zero reallocation epoch, an ungrantable
    /// floor) with a typed error up front instead of panicking
    /// mid-sweep. Every knob is checked, including those a fixed
    /// partition does not consult.
    pub fn validate(&self) -> Result<(), abg_queue::ConfigError> {
        self.hier_config(1.0, self.seed).validate()
    }
}

/// One scheduler's steady-state measurements at one ρ point. Unstable
/// points report `stable == false` with the statistics fields `NaN`
/// (the diagnostics that exist either way — quanta, arrivals — are
/// always filled in).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerOpenPoint {
    /// Whether the run reached its measurement target.
    pub stable: bool,
    /// Mean response time in steps (`NaN` when unstable).
    pub mean_response: f64,
    /// ~95% batch-means half-width of the mean (`NaN` when unstable).
    pub response_half_width: f64,
    /// Median slowdown (`NaN` when unstable).
    pub slowdown_p50: f64,
    /// 95th-percentile slowdown (`NaN` when unstable).
    pub slowdown_p95: f64,
    /// 99th-percentile slowdown (`NaN` when unstable).
    pub slowdown_p99: f64,
    /// Time-average in-system job count (`NaN` when unstable).
    pub mean_jobs_in_system: f64,
    /// Served utilization: completed work over `P · horizon` (`NaN`
    /// when unstable).
    pub measured_utilization: f64,
    /// Quanta the run executed (before aborting, when unstable).
    pub quanta: u64,
    /// Arrivals admitted.
    pub arrivals: u64,
}

impl SchedulerOpenPoint {
    fn from_outcome(outcome: &OpenOutcome) -> Self {
        match outcome {
            OpenOutcome::Steady(s) => Self {
                stable: true,
                mean_response: s.response.mean,
                response_half_width: s.response.half_width,
                slowdown_p50: s.slowdown.p50,
                slowdown_p95: s.slowdown.p95,
                slowdown_p99: s.slowdown.p99,
                mean_jobs_in_system: s.mean_jobs_in_system,
                measured_utilization: s.measured_utilization,
                quanta: s.quanta,
                arrivals: s.arrivals,
            },
            OpenOutcome::Unstable(u) => Self {
                stable: false,
                mean_response: f64::NAN,
                response_half_width: f64::NAN,
                slowdown_p50: f64::NAN,
                slowdown_p95: f64::NAN,
                slowdown_p99: f64::NAN,
                mean_jobs_in_system: f64::NAN,
                measured_utilization: f64::NAN,
                quanta: u.quanta,
                arrivals: u.arrivals,
            },
        }
    }
}

/// One ρ point of the sweep: both schedulers against the same arrival
/// sequence and job population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenSystemRow {
    /// Offered utilization.
    pub rho: f64,
    /// Poisson mean inter-arrival gap solved for this ρ.
    pub mean_gap: f64,
    /// Estimated `E[T₁]` of the job population (steps).
    pub expected_work: f64,
    /// ABG's measurements.
    pub abg: SchedulerOpenPoint,
    /// A-Greedy's measurements.
    pub agreedy: SchedulerOpenPoint,
}

fn run_point(cfg: &OpenSystemConfig, mean_gap: f64, index: u64, which: Scheduler) -> OpenOutcome {
    let (max_factor, quantum_len, pairs) = (cfg.max_factor, cfg.quantum_len, cfg.pairs);
    match &cfg.workload {
        // Jobs here are heterogeneous (each arrival samples a fresh
        // phase structure), so recycled executors are dropped rather
        // than reset — the sweep fingerprints stay pinned to the
        // fresh-build behaviour.
        OpenWorkload::MixedFactor => run_point_with(
            cfg,
            mean_gap,
            index,
            which,
            move |rng: &mut StdRng,
                  _recycled: Option<Box<dyn JobExecutor + Send>>|
                  -> Box<dyn JobExecutor + Send> {
                Box::new(PipelinedExecutor::new(mixed_factor_job(
                    max_factor,
                    quantum_len,
                    pairs,
                    rng,
                )))
            },
        ),
        // Workflow dags are heterogeneous too (fresh structure and
        // weights per arrival), so recycling is likewise declined.
        OpenWorkload::Workflow { kind, scale } => {
            let (kind, scale) = (*kind, *scale);
            run_point_with(
                cfg,
                mean_gap,
                index,
                which,
                move |rng: &mut StdRng,
                      _recycled: Option<Box<dyn JobExecutor + Send>>|
                      -> Box<dyn JobExecutor + Send> {
                    Box::new(OwnedBGreedyExecutor::new(kind.generate(scale, rng)))
                },
            )
        }
        // Trace replay: one shared dag, so a completed executor rewinds
        // in place instead of rebuilding its frontier state.
        OpenWorkload::Trace(dag) => {
            let dag = Arc::clone(dag);
            run_point_with(
                cfg,
                mean_gap,
                index,
                which,
                move |_rng: &mut StdRng,
                      recycled: Option<Box<dyn JobExecutor + Send>>|
                      -> Box<dyn JobExecutor + Send> {
                    if let Some(mut ex) = recycled {
                        if ex.try_reset() {
                            return ex;
                        }
                    }
                    Box::new(DagExecutor::<_, abg_sched::BreadthFirstQueue>::new(
                        Arc::clone(&dag),
                    ))
                },
            )
        }
    }
}

/// Runs one (ρ, scheduler) point through whichever engine the config
/// selects, with `make_executor` supplying an executor per arrival.
fn run_point_with<E>(
    cfg: &OpenSystemConfig,
    mean_gap: f64,
    index: u64,
    which: Scheduler,
    make_executor: E,
) -> OpenOutcome
where
    E: Fn(&mut StdRng, Option<Box<dyn JobExecutor + Send>>) -> Box<dyn JobExecutor + Send> + Sync,
{
    // Per-ρ seed shared by BOTH schedulers: identical rng, identical
    // arrival times, identical job structures — a paired comparison.
    let mut hier = cfg.hier_config(mean_gap, task_seed(cfg.seed, index, 1));
    if cfg.groups == 1 || cfg.group_alloc == GroupPolicy::Static {
        // The partition cannot change, so the outcome is the same for
        // any epoch length: run one unbounded epoch, no barriers.
        hier.realloc_epoch = u64::MAX;
    }
    let make_controller = move || -> Box<dyn Controller + Send> {
        match which {
            Scheduler::Abg => Box::new(AControl::new(cfg.rate)),
            Scheduler::AGreedy => Box::new(AGreedy::new(cfg.responsiveness, cfg.utilization)),
        }
    };
    // The engine pool takes the sweep harness's `ABG_THREADS` worker
    // count; the outcome is thread-count invariant either way.
    run_open_hierarchical_with_threads(
        &hier,
        DynamicEquiPartition::new,
        make_executor,
        make_controller,
        cfg.group_alloc.build(),
        configured_threads(),
    )
}

/// Estimates `E[T₁]` of the configured job population — Monte-Carlo
/// sampling for the generative workloads (deterministic in the config
/// seed), exact for trace replay (every arrival is the same dag).
pub fn population_expected_work(cfg: &OpenSystemConfig) -> f64 {
    let mut rng = StdRng::seed_from_u64(task_seed(cfg.seed, u64::MAX, 0));
    match &cfg.workload {
        OpenWorkload::MixedFactor => expected_work(cfg.work_samples, &mut rng, |rng| {
            mixed_factor_job(cfg.max_factor, cfg.quantum_len, cfg.pairs, rng)
        }),
        OpenWorkload::Workflow { kind, scale } => {
            expected_work_of(cfg.work_samples, &mut rng, |rng| {
                kind.generate(*scale, rng).work() as f64
            })
        }
        OpenWorkload::Trace(dag) => dag.work() as f64,
    }
}

/// Runs the open-system sweep; one [`OpenSystemRow`] per configured ρ.
///
/// # Panics
///
/// Panics if the config has no ρ values or an inconsistent measurement
/// setup (see [`OpenConfig`]).
pub fn open_system_sweep(cfg: &OpenSystemConfig) -> Vec<OpenSystemRow> {
    assert!(!cfg.rhos.is_empty(), "sweep needs at least one rho");
    let work = population_expected_work(cfg);
    let units: Vec<(u64, Scheduler)> = (0..cfg.rhos.len() as u64)
        .flat_map(|i| [(i, Scheduler::Abg), (i, Scheduler::AGreedy)])
        .collect();
    let outcomes = parallel_map(units, |&(index, which)| {
        let rho = cfg.rhos[index as usize];
        let gap = mean_gap_for_utilization(rho, cfg.processors, work);
        SchedulerOpenPoint::from_outcome(&run_point(cfg, gap, index, which))
    });
    cfg.rhos
        .iter()
        .enumerate()
        .map(|(i, &rho)| OpenSystemRow {
            rho,
            mean_gap: mean_gap_for_utilization(rho, cfg.processors, work),
            expected_work: work,
            abg: outcomes[2 * i],
            agreedy: outcomes[2 * i + 1],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_stable_below_one_and_unstable_above() {
        let cfg = OpenSystemConfig::smoke();
        let rows = open_system_sweep(&cfg);
        assert_eq!(rows.len(), cfg.rhos.len());
        for row in &rows {
            if row.rho < 0.9 {
                assert!(row.abg.stable, "ABG unstable at rho={}", row.rho);
                assert!(row.agreedy.stable, "A-Greedy unstable at rho={}", row.rho);
                assert!(row.abg.mean_response.is_finite());
                assert!(row.agreedy.mean_response.is_finite());
                assert!(row.abg.slowdown_p50 >= 1.0);
            }
            if row.rho >= 1.0 {
                assert!(!row.abg.stable, "ABG steady at rho={}", row.rho);
                assert!(!row.agreedy.stable, "A-Greedy steady at rho={}", row.rho);
                assert!(row.abg.mean_response.is_nan());
            }
            assert!(row.mean_gap > 0.0 && row.expected_work > 0.0);
        }
    }

    #[test]
    fn response_time_grows_with_offered_load() {
        let mut cfg = OpenSystemConfig::smoke();
        cfg.rhos = vec![0.2, 0.8];
        let rows = open_system_sweep(&cfg);
        assert!(rows[1].abg.mean_response >= rows[0].abg.mean_response);
        assert!(rows[1].abg.mean_jobs_in_system > rows[0].abg.mean_jobs_in_system);
    }

    #[test]
    fn sweep_is_deterministic() {
        // Bit-level comparison through the fingerprint: unstable rows
        // hold NaN statistics, so `==` on the rows themselves would
        // always fail (NaN != NaN) — the fingerprint folds exact bit
        // patterns instead.
        let mut cfg = OpenSystemConfig::smoke();
        cfg.rhos = vec![0.3, 1.2];
        cfg.measured_jobs = 80;
        cfg.batches = 8;
        let a = crate::experiments::open_fingerprint(&open_system_sweep(&cfg));
        let b = crate::experiments::open_fingerprint(&open_system_sweep(&cfg));
        assert_eq!(a, b);
    }

    #[test]
    fn sharded_sweep_is_steady_and_deterministic() {
        // A fixed partition (four groups under the static policy) behind
        // the same sweep front end: stable below saturation, flagged
        // unstable above it, and bit-level reproducible across repeat
        // runs. (The overload point sits at ρ = 2 here: decimated
        // smoke-scale groups see a quarter of the arrivals each, so the
        // queue-growth trend needs a steeper ramp than the aggregate
        // smoke sweep's 1.2 to trip before the tiny measurement target
        // drains.)
        let mut cfg = OpenSystemConfig::smoke();
        cfg.groups = 4;
        cfg.group_alloc = GroupPolicy::Static;
        cfg.rhos = vec![0.4, 2.0];
        let rows = open_system_sweep(&cfg);
        assert!(rows[0].abg.stable && rows[0].agreedy.stable);
        assert!(rows[0].abg.slowdown_p50 >= 1.0);
        assert!(!rows[1].abg.stable && !rows[1].agreedy.stable);
        let a = crate::experiments::open_fingerprint(&rows);
        let b = crate::experiments::open_fingerprint(&open_system_sweep(&cfg));
        assert_eq!(a, b);
    }

    #[test]
    fn hierarchical_desire_sweep_is_steady_and_deterministic() {
        let mut cfg = OpenSystemConfig::smoke();
        cfg.groups = 4;
        cfg.group_alloc = GroupPolicy::Desire;
        cfg.realloc_epoch = 25;
        cfg.rhos = vec![0.4, 2.0];
        let rows = open_system_sweep(&cfg);
        assert!(rows[0].abg.stable && rows[0].agreedy.stable);
        assert!(rows[0].abg.slowdown_p50 >= 1.0);
        assert!(!rows[1].abg.stable && !rows[1].agreedy.stable);
        let a = crate::experiments::open_fingerprint(&rows);
        let b = crate::experiments::open_fingerprint(&open_system_sweep(&cfg));
        assert_eq!(a, b);
    }

    #[test]
    fn workflow_sweep_is_steady_and_deterministic() {
        let mut cfg = OpenSystemConfig::smoke();
        cfg.workload = OpenWorkload::Workflow {
            kind: WorkflowKind::MapReduce,
            scale: 4,
        };
        cfg.rhos = vec![0.4, 2.0];
        let rows = open_system_sweep(&cfg);
        assert!(rows[0].abg.stable && rows[0].agreedy.stable);
        assert!(rows[0].abg.slowdown_p50 >= 1.0);
        assert!(!rows[1].abg.stable && !rows[1].agreedy.stable);
        let a = crate::experiments::open_fingerprint(&rows);
        let b = crate::experiments::open_fingerprint(&open_system_sweep(&cfg));
        assert_eq!(a, b);
    }

    #[test]
    fn every_workflow_kind_drives_the_open_system() {
        for kind in WorkflowKind::ALL {
            let mut cfg = OpenSystemConfig::smoke();
            cfg.workload = OpenWorkload::Workflow { kind, scale: 3 };
            cfg.rhos = vec![0.4];
            cfg.warmup_jobs = 10;
            cfg.measured_jobs = 40;
            cfg.batches = 4;
            let rows = open_system_sweep(&cfg);
            assert!(rows[0].abg.stable, "{kind} unstable under ABG");
            assert!(rows[0].agreedy.stable, "{kind} unstable under A-Greedy");
            assert!(rows[0].expected_work > 0.0);
        }
    }

    #[test]
    fn workflow_sweep_runs_the_hierarchical_driver_too() {
        let mut cfg = OpenSystemConfig::smoke();
        cfg.workload = OpenWorkload::Workflow {
            kind: WorkflowKind::Epigenomics,
            scale: 3,
        };
        cfg.groups = 4;
        cfg.group_alloc = GroupPolicy::Desire;
        cfg.realloc_epoch = 25;
        cfg.rhos = vec![0.4];
        cfg.warmup_jobs = 10;
        cfg.measured_jobs = 40;
        cfg.batches = 4;
        let rows = open_system_sweep(&cfg);
        assert!(rows[0].abg.stable && rows[0].agreedy.stable);
        let a = crate::experiments::open_fingerprint(&rows);
        let b = crate::experiments::open_fingerprint(&open_system_sweep(&cfg));
        assert_eq!(a, b);
    }

    #[test]
    fn trace_workload_replays_one_dag_exactly() {
        let mut rng = StdRng::seed_from_u64(77);
        let dag = WorkflowKind::Montage.generate(4, &mut rng);
        let work = dag.work() as f64;
        let mut cfg = OpenSystemConfig::smoke();
        cfg.workload = OpenWorkload::Trace(Arc::new(dag));
        cfg.rhos = vec![0.4];
        cfg.warmup_jobs = 10;
        cfg.measured_jobs = 60;
        cfg.batches = 4;
        assert_eq!(
            population_expected_work(&cfg),
            work,
            "trace E[T1] is exact, not sampled"
        );
        let rows = open_system_sweep(&cfg);
        assert!(rows[0].abg.stable && rows[0].agreedy.stable);
        assert!(rows[0].abg.slowdown_p50 >= 1.0);
        let a = crate::experiments::open_fingerprint(&rows);
        let b = crate::experiments::open_fingerprint(&open_system_sweep(&cfg));
        assert_eq!(a, b);
    }

    #[test]
    fn mixed_factor_presets_are_the_historical_workload() {
        assert_eq!(
            OpenSystemConfig::smoke().workload,
            OpenWorkload::MixedFactor
        );
        assert_eq!(
            OpenSystemConfig::paper().workload,
            OpenWorkload::MixedFactor
        );
    }

    #[test]
    fn validate_rejects_bad_group_configs() {
        let mut cfg = OpenSystemConfig::smoke();
        cfg.groups = 0;
        assert_eq!(cfg.validate(), Err(abg_queue::ConfigError::ZeroGroups));
        cfg.groups = 4;
        cfg.realloc_epoch = 0;
        assert_eq!(cfg.validate(), Err(abg_queue::ConfigError::BadReallocEpoch));
        cfg.realloc_epoch = 50;
        cfg.group_floor = cfg.processors;
        assert!(matches!(
            cfg.validate(),
            Err(abg_queue::ConfigError::BadGroupFloor { .. })
        ));
        cfg.group_floor = 1;
        assert_eq!(cfg.validate(), Ok(()));
        cfg.groups = cfg.processors + 1;
        assert!(matches!(
            cfg.validate(),
            Err(abg_queue::ConfigError::BadGroupFloor { .. })
        ));
        // One group consults neither the floor nor the epoch, but the
        // knobs it was given are still checked.
        cfg.groups = 1;
        cfg.group_floor = 0;
        assert!(matches!(
            cfg.validate(),
            Err(abg_queue::ConfigError::BadGroupFloor { floor: 0, .. })
        ));
        cfg.group_floor = 1;
        cfg.realloc_epoch = 0;
        assert_eq!(cfg.validate(), Err(abg_queue::ConfigError::BadReallocEpoch));
    }

    #[test]
    fn schedulers_face_the_same_offered_load() {
        let mut cfg = OpenSystemConfig::smoke();
        cfg.rhos = vec![0.4];
        let row = &open_system_sweep(&cfg)[0];
        // Paired runs: identical seed → identical arrival count.
        assert_eq!(row.abg.arrivals, row.agreedy.arrivals);
    }
}
