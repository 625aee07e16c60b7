//! The open-system simulation driver: sustained arrivals through the
//! shared quantum engine.
//!
//! Jobs arrive indefinitely from a stationary [`ArrivalProcess`]; each
//! arrival is admitted into the generic
//! [`QuantumCore`](abg_sim::QuantumCore) (the same
//! stepping core behind every closed driver in `abg-sim`, here with a
//! caller-chosen [`Probe`]) and drained when it completes. The driver
//! never materializes the job population: memory is proportional to the
//! number of jobs *in the system*, so it can push millions of jobs
//! through a run if the statistics call for it.
//!
//! Measurement protocol (see `EXPERIMENTS.md` for the methodology):
//!
//! 1. the first `warmup_jobs` arrivals are warmup — they run normally
//!    but their responses are discarded (initial-transient truncation);
//! 2. the next `measured_jobs` arrivals are the measurement population:
//!    the run continues (arrivals never stop) until every one of them
//!    has completed;
//! 3. mean response time gets a batch-means confidence interval and
//!    slowdowns (response over the job's solo lower bound
//!    `max(T∞, T1/P)`) get nearest-rank percentiles;
//! 4. a [`SaturationDetector`](crate::SaturationDetector) watches the
//!    in-system job count and aborts runs that will never reach steady
//!    state (ρ ≥ 1), reporting them as [`OpenOutcome::Unstable`]
//!    instead of hanging.
//!
//! This module defines the configuration and outcome types every
//! open-system entry point shares. It owns no loop: [`run_open_system`]
//! is the one-group case of the event loop in [`hier`](crate::hier),
//! run to `until = u64::MAX` with the caller's probe, and its outcome
//! comes from the same merge as the multi-group driver's.
//! With one group, arrival gaps and job structures come from one RNG
//! seeded with `cfg.seed`, interleaved as the pinned fingerprints
//! require.

use crate::hier::{GroupSim, HierOpenConfig};
use crate::saturation::{SaturationConfig, SaturationReason};
use crate::shard::{merge_reports, ShardRouting};
use crate::stats::{ConfidenceInterval, PercentileSummary};
use abg_alloc::Allocator;
use abg_control::Controller;
use abg_sched::JobExecutor;
use abg_sim::{NullProbe, Probe};
use abg_workload::ArrivalProcess;
use rand::rngs::StdRng;

/// Configuration of one open-system run.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenConfig {
    /// Machine size `P`.
    pub processors: u32,
    /// Quantum length `L` in steps.
    pub quantum_len: u64,
    /// The arrival process (absolute times are drawn from its stream).
    pub arrivals: ArrivalProcess,
    /// Arrivals discarded as warmup before measurement starts.
    pub warmup_jobs: u64,
    /// Arrivals measured after warmup; the run ends when all of them
    /// completed (arrivals continue throughout).
    pub measured_jobs: u64,
    /// Batches for the response-time confidence interval.
    pub batches: u32,
    /// Hard quanta budget; exhausting it marks the run unstable. The
    /// step horizon `max_quanta × quantum_len` must fit in a `u64`.
    pub max_quanta: u64,
    /// Saturation-detector tuning.
    pub saturation: SaturationConfig,
    /// Seed driving the arrival stream and the job generator.
    pub seed: u64,
}

/// Why an [`OpenConfig`] is internally inconsistent.
///
/// Returned by [`OpenConfig::validate`] so front ends (the CLI `open`
/// subcommand) can report the problem instead of aborting the process;
/// the drivers still fail fast via [`OpenConfig::assert_valid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `processors == 0`: the machine has nothing to allocate.
    NoProcessors,
    /// `quantum_len == 0`: a quantum must last at least one step.
    ZeroQuantum,
    /// `measured_jobs == 0`: the run could never end.
    NothingToMeasure,
    /// `batches < 2`: batch means needs at least two batches.
    TooFewBatches,
    /// Fewer measured jobs than batches — some batch would be empty.
    TooFewObservations {
        /// The configured measurement population.
        measured_jobs: u64,
        /// The configured batch count.
        batches: u32,
    },
    /// `max_quanta == 0`: no quanta budget to run under.
    NoQuantaBudget,
    /// `max_quanta × quantum_len` overflows `u64`: the budget's last
    /// step could not be represented on the simulated clock.
    HorizonOverflow {
        /// The configured quanta budget.
        max_quanta: u64,
        /// The configured quantum length.
        quantum_len: u64,
    },
    /// `groups == 0` in a multi-group configuration: the run needs at
    /// least one processor group.
    ZeroGroups,
    /// `realloc_epoch == 0`: the desire feedback loop would never run.
    BadReallocEpoch,
    /// The per-group capacity floor is zero or cannot be granted to
    /// every group at once (`floor > P / G`) — the top-level allocator
    /// could not honor its floor invariant.
    BadGroupFloor {
        /// The configured per-group floor.
        floor: u32,
        /// The configured machine size.
        processors: u32,
        /// The configured group count.
        groups: u32,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoProcessors => write!(f, "machine must have processors"),
            ConfigError::ZeroQuantum => write!(f, "quantum length must be positive"),
            ConfigError::NothingToMeasure => write!(f, "nothing to measure"),
            ConfigError::TooFewBatches => write!(f, "batch means needs at least two batches"),
            ConfigError::TooFewObservations {
                measured_jobs,
                batches,
            } => write!(
                f,
                "need at least one observation per batch ({measured_jobs} jobs < {batches} batches)"
            ),
            ConfigError::NoQuantaBudget => write!(f, "need a positive quanta budget"),
            ConfigError::HorizonOverflow {
                max_quanta,
                quantum_len,
            } => write!(
                f,
                "step horizon overflows u64 ({max_quanta} quanta of {quantum_len} steps)"
            ),
            ConfigError::ZeroGroups => write!(f, "need at least one processor group"),
            ConfigError::BadReallocEpoch => {
                write!(f, "need a positive reallocation epoch")
            }
            ConfigError::BadGroupFloor {
                floor,
                processors,
                groups,
            } => write!(
                f,
                "per-group floor must be between 1 and P/G \
                 ({floor} with {processors} processors over {groups} groups)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl OpenConfig {
    /// Checks internal consistency, reporting the first violation as a
    /// typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.processors == 0 {
            return Err(ConfigError::NoProcessors);
        }
        if self.quantum_len == 0 {
            return Err(ConfigError::ZeroQuantum);
        }
        if self.measured_jobs == 0 {
            return Err(ConfigError::NothingToMeasure);
        }
        if self.batches < 2 {
            return Err(ConfigError::TooFewBatches);
        }
        if self.measured_jobs < self.batches as u64 {
            return Err(ConfigError::TooFewObservations {
                measured_jobs: self.measured_jobs,
                batches: self.batches,
            });
        }
        if self.max_quanta == 0 {
            return Err(ConfigError::NoQuantaBudget);
        }
        if self.max_quanta.checked_mul(self.quantum_len).is_none() {
            return Err(ConfigError::HorizonOverflow {
                max_quanta: self.max_quanta,
                quantum_len: self.quantum_len,
            });
        }
        Ok(())
    }

    /// Panicking form of [`validate`](OpenConfig::validate), used by the
    /// drivers (whose signatures predate the typed error) to fail fast
    /// with the same messages the old asserts produced.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] display message on the first
    /// violation.
    pub fn assert_valid(&self) {
        if let Err(err) = self.validate() {
            panic!("{err}");
        }
    }
}

/// Completed work over machine capacity `P · horizon`, guarded so a run
/// aborted before executing a single quantum (`horizon == 0`) reports a
/// utilization of zero instead of `0/0 = NaN`. The reference driver's
/// utilization; the event-driven entry points divide by the capacity
/// integral in the shared merge.
#[cfg(test)]
pub(crate) fn measured_utilization(completed_work: u64, processors: u32, horizon: u64) -> f64 {
    if horizon == 0 {
        return 0.0;
    }
    completed_work as f64 / (processors as f64 * horizon as f64)
}

/// Steady-state measurements of a completed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyStats {
    /// Mean response time (steps) with its batch-means interval.
    pub response: ConfidenceInterval,
    /// Slowdown percentiles (response over `max(T∞, T1/P)`).
    pub slowdown: PercentileSummary,
    /// Measured completions (equals the configured `measured_jobs`).
    pub completed: u64,
    /// Total arrivals admitted over the run (warmup + measured + tail).
    pub arrivals: u64,
    /// Quanta executed.
    pub quanta: u64,
    /// Final simulation step (the horizon the run covered).
    pub horizon: u64,
    /// Time-average in-system job count over executed quanta.
    pub mean_jobs_in_system: f64,
    /// Peak in-system job count over executed quanta — the memory
    /// high-water mark of the run (the live-set storage scales with this
    /// figure, not with total arrivals). Multi-group runs report the
    /// sum of the per-group peaks: an upper bound on the
    /// aggregate footprint (the groups need not peak simultaneously).
    pub peak_jobs_in_system: u64,
    /// Completed work over machine capacity `P · horizon` — the
    /// utilization the machine actually served (sanity check against
    /// the offered ρ).
    pub measured_utilization: f64,
}

/// Diagnostics of a run aborted as unstable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnstableReport {
    /// What tripped.
    pub reason: SaturationReason,
    /// Quanta executed before aborting.
    pub quanta: u64,
    /// Simulation step at abort.
    pub horizon: u64,
    /// Jobs still in the system at abort.
    pub jobs_in_system: u64,
    /// Measured completions collected before aborting.
    pub completed: u64,
    /// Arrivals admitted before aborting.
    pub arrivals: u64,
}

/// The outcome of an open-system run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpenOutcome {
    /// The run reached its measurement target; steady-state statistics.
    Steady(SteadyStats),
    /// The run was aborted by saturation detection (or budget
    /// exhaustion) — the configuration is reported unstable.
    Unstable(UnstableReport),
}

impl OpenOutcome {
    /// Whether the run completed its measurement.
    pub fn is_steady(&self) -> bool {
        matches!(self, OpenOutcome::Steady(_))
    }

    /// The steady statistics, if any.
    pub fn steady(&self) -> Option<&SteadyStats> {
        match self {
            OpenOutcome::Steady(s) => Some(s),
            OpenOutcome::Unstable(_) => None,
        }
    }
}

/// Runs one open-system simulation.
///
/// `make_executor` builds the task-scheduler side of each arriving job
/// (it receives the driver's RNG, so job populations are sampled
/// deterministically from `cfg.seed`); `make_calculator` builds its
/// request calculator. The allocator is shared by every job in the
/// system — [`abg_alloc::DynamicEquiPartition`] reproduces the paper's
/// two-level setup.
///
/// The factory's second argument is an executor **recycled** from an
/// earlier completed job, if one is pooled: homogeneous workloads can
/// [`try_reset`](JobExecutor::try_reset) and return it, making the
/// steady-state loop allocation-free per arrival; heterogeneous
/// workloads simply drop it and build afresh. Either choice must yield
/// an executor observationally equal to a newly constructed one — the
/// recycled path is a pure allocation-lifetime optimisation and the
/// simulated outcome is identical.
///
/// # Panics
///
/// Panics on an inconsistent configuration (see [`OpenConfig`]).
pub fn run_open_system<A, E, C>(
    cfg: &OpenConfig,
    allocator: A,
    make_executor: E,
    make_calculator: C,
) -> OpenOutcome
where
    A: Allocator,
    E: FnMut(&mut StdRng, Option<Box<dyn JobExecutor + Send>>) -> Box<dyn JobExecutor + Send>,
    C: FnMut() -> Box<dyn Controller + Send>,
{
    run_open_system_probed(cfg, allocator, make_executor, make_calculator, NullProbe).0
}

/// [`run_open_system`] with a [`Probe`] threaded through the quantum
/// core — the observation layer the closed drivers have always had, now
/// available under sustained arrivals. A
/// [`TraceProbe`](abg_sim::TraceProbe) in retaining mode captures
/// per-job quantum traces (availability included on request), enabling
/// trim and deprivation analysis of open-system runs; a custom probe
/// can aggregate whatever it likes online. Returns the outcome together
/// with the probe.
///
/// With [`NullProbe`] this *is* `run_open_system`: the probe
/// monomorphizes to nothing and the loop is the uninstrumented one the
/// pinned open-sweep fingerprint covers. The loop is the one every
/// open-system entry point runs, here over a single group that owns
/// all `P` processors.
///
/// # Panics
///
/// Panics on an inconsistent configuration (see [`OpenConfig`]).
pub fn run_open_system_probed<A, E, C, P>(
    cfg: &OpenConfig,
    allocator: A,
    mut make_executor: E,
    mut make_calculator: C,
    probe: P,
) -> (OpenOutcome, P)
where
    A: Allocator,
    E: FnMut(&mut StdRng, Option<Box<dyn JobExecutor + Send>>) -> Box<dyn JobExecutor + Send>,
    C: FnMut() -> Box<dyn Controller + Send>,
    P: Probe,
{
    cfg.assert_valid();
    let one = HierOpenConfig {
        open: cfg.clone(),
        groups: 1,
        routing: ShardRouting::RoundRobin,
        realloc_epoch: u64::MAX,
        group_floor: 1,
    };
    let mut sim = GroupSim::new(&one, 0, cfg.processors, allocator, probe);
    sim.advance_until(&one, u64::MAX, &mut make_executor, &mut make_calculator);
    let (report, probe) = sim.into_report();
    (merge_reports(cfg, &[report]), probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saturation::SaturationDetector;
    use abg_alloc::DynamicEquiPartition;
    use abg_control::AControl;
    use abg_dag::PhasedJob;
    use abg_sched::PipelinedExecutor;
    use abg_workload::{mean_gap_for_utilization, ArrivalProcess};

    /// Constant width-2, 40-level jobs: T1 = 80, T∞ = 40.
    fn constant_job() -> Box<dyn JobExecutor + Send> {
        Box::new(PipelinedExecutor::new(PhasedJob::constant(2, 40)))
    }

    fn config(rho: f64) -> OpenConfig {
        OpenConfig {
            processors: 16,
            quantum_len: 10,
            arrivals: ArrivalProcess::Poisson {
                mean_gap: mean_gap_for_utilization(rho, 16, 80.0),
            },
            warmup_jobs: 50,
            measured_jobs: 200,
            batches: 10,
            max_quanta: 2_000_000,
            saturation: SaturationConfig::default(),
            seed: 0x0BE7,
        }
    }

    fn run(cfg: &OpenConfig) -> OpenOutcome {
        run_open_system(
            cfg,
            DynamicEquiPartition::new(cfg.processors),
            |_rng, _recycled| constant_job(),
            || Box::new(AControl::new(0.2)),
        )
    }

    #[test]
    fn recycling_executors_changes_nothing_observable() {
        // Same run twice: one factory drops every recycled executor and
        // builds fresh, the other resets and reuses. The outcomes must
        // be identical — recycling is an allocation-lifetime change.
        let cfg = config(0.5);
        let fresh = run(&cfg);
        let mut reused = 0u64;
        let recycled = run_open_system(
            &cfg,
            DynamicEquiPartition::new(cfg.processors),
            |_rng, recycled| {
                if let Some(mut ex) = recycled {
                    if ex.try_reset() {
                        reused += 1;
                        return ex;
                    }
                }
                constant_job()
            },
            || Box::new(AControl::new(0.2)),
        );
        assert_eq!(fresh, recycled);
        assert!(reused > 100, "pool must actually be exercised: {reused}");
    }

    #[test]
    fn light_load_reaches_steady_state_with_finite_statistics() {
        let out = run(&config(0.3));
        let stats = out.steady().expect("rho = 0.3 must be stable");
        assert_eq!(stats.completed, 200);
        assert!(stats.response.mean.is_finite() && stats.response.mean >= 40.0);
        assert!(stats.response.half_width.is_finite());
        assert!(stats.slowdown.p50 >= 1.0, "slowdown below its lower bound");
        assert!(stats.slowdown.p50 <= stats.slowdown.p95);
        assert!(stats.slowdown.p95 <= stats.slowdown.p99);
        assert!(stats.measured_utilization > 0.05 && stats.measured_utilization < 1.0);
        assert!(stats.arrivals >= 250, "arrivals kept flowing past warmup");
    }

    #[test]
    fn overload_is_flagged_unstable_not_hung() {
        let out = run(&config(1.5));
        match out {
            OpenOutcome::Unstable(report) => {
                assert!(
                    matches!(
                        report.reason,
                        SaturationReason::QueueGrowth { .. } | SaturationReason::InSystemCap { .. }
                    ),
                    "expected a queue-based trip, got {:?}",
                    report.reason
                );
                assert!(report.jobs_in_system > 0);
            }
            OpenOutcome::Steady(s) => panic!("rho = 1.5 reported steady: {s:?}"),
        }
    }

    #[test]
    fn runs_are_deterministic_for_a_fixed_seed() {
        let a = run(&config(0.4));
        let b = run(&config(0.4));
        assert_eq!(a, b);
        let mut other = config(0.4);
        other.seed ^= 1;
        assert_ne!(run(&other), a, "seed must matter");
    }

    #[test]
    fn heavier_stable_load_has_larger_response() {
        let light = run(&config(0.15));
        let heavy = run(&config(0.75));
        let (light, heavy) = (light.steady().unwrap(), heavy.steady().unwrap());
        assert!(
            heavy.response.mean >= light.response.mean,
            "queueing delay should grow with load: {} vs {}",
            heavy.response.mean,
            light.response.mean
        );
        assert!(heavy.mean_jobs_in_system > light.mean_jobs_in_system);
    }

    #[test]
    fn trace_arrivals_drive_the_driver_too() {
        let mut cfg = config(0.3);
        cfg.arrivals = ArrivalProcess::Trace {
            gaps: vec![20, 0, 40],
        };
        let out = run(&cfg);
        assert!(out.is_steady(), "deterministic gaps at light load");
    }

    #[test]
    fn quanta_budget_reports_horizon_exhausted() {
        let mut cfg = config(0.3);
        cfg.max_quanta = 16;
        match run(&cfg) {
            OpenOutcome::Unstable(report) => {
                assert!(matches!(
                    report.reason,
                    SaturationReason::HorizonExhausted { quanta: 16 }
                ));
            }
            OpenOutcome::Steady(_) => panic!("16 quanta cannot finish 250 jobs"),
        }
    }

    #[test]
    #[should_panic(expected = "one observation per batch")]
    fn too_few_measured_jobs_for_batches_rejected() {
        let mut cfg = config(0.3);
        cfg.measured_jobs = 4;
        cfg.batches = 10;
        let _ = run(&cfg);
    }

    #[test]
    fn validate_reports_typed_errors_with_the_historical_messages() {
        let base = config(0.3);
        assert_eq!(base.validate(), Ok(()));

        type Mutate<'a> = &'a dyn Fn(&mut OpenConfig);
        let cases: [(Mutate, ConfigError, &str); 7] = [
            (
                &|c| c.processors = 0,
                ConfigError::NoProcessors,
                "machine must have processors",
            ),
            (
                &|c| c.quantum_len = 0,
                ConfigError::ZeroQuantum,
                "quantum length must be positive",
            ),
            (
                &|c| c.measured_jobs = 0,
                ConfigError::NothingToMeasure,
                "nothing to measure",
            ),
            (
                &|c| c.batches = 1,
                ConfigError::TooFewBatches,
                "batch means needs at least two batches",
            ),
            (
                &|c| {
                    c.measured_jobs = 4;
                    c.batches = 10;
                },
                ConfigError::TooFewObservations {
                    measured_jobs: 4,
                    batches: 10,
                },
                "need at least one observation per batch (4 jobs < 10 batches)",
            ),
            (
                &|c| c.max_quanta = 0,
                ConfigError::NoQuantaBudget,
                "need a positive quanta budget",
            ),
            (
                &|c| c.max_quanta = u64::MAX / 10 + 1,
                ConfigError::HorizonOverflow {
                    max_quanta: u64::MAX / 10 + 1,
                    quantum_len: 10,
                },
                "step horizon overflows u64 (1844674407370955162 quanta of 10 steps)",
            ),
        ];
        for (mutate, expected, message) in cases {
            let mut cfg = base.clone();
            mutate(&mut cfg);
            let err = cfg.validate().unwrap_err();
            assert_eq!(err, expected);
            // assert_valid (and with it the drivers) must keep panicking
            // with the exact messages the old asserts produced.
            assert_eq!(err.to_string(), message);
        }
    }

    #[test]
    fn horizon_at_the_u64_edge_is_accepted() {
        // The largest budget whose last step still fits on the clock.
        let mut cfg = config(0.3);
        cfg.max_quanta = u64::MAX / cfg.quantum_len;
        assert_eq!(cfg.validate(), Ok(()));
        let out = run(&cfg);
        assert!(out.is_steady(), "an unreachable budget never trips");
        cfg.max_quanta += 1;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::HorizonOverflow { .. })
        ));
    }

    #[test]
    fn capacity_past_u64_keeps_utilization_exact() {
        // Sparse arrivals on a wide machine: the horizon passes
        // `u64::MAX / P`, so the capacity integral `P · horizon` no
        // longer fits in u64 and a saturating fold would inflate the
        // utilization.
        let mut cfg = config(0.3);
        cfg.processors = 1024;
        cfg.arrivals = ArrivalProcess::Poisson { mean_gap: 1e16 };
        cfg.warmup_jobs = 0;
        cfg.measured_jobs = 8;
        cfg.batches = 2;
        cfg.max_quanta = u64::MAX / cfg.quantum_len;
        let OpenOutcome::Steady(s) = run(&cfg) else {
            panic!("an idle machine cannot saturate");
        };
        assert!(s.horizon > u64::MAX / 1024, "horizon {}", s.horizon);
        assert_eq!(s.completed, 8);
        let expected = (8 * 80) as f64 / (1024.0 * s.horizon as f64);
        assert_eq!(s.measured_utilization.to_bits(), expected.to_bits());
    }

    #[test]
    fn zero_horizon_abort_yields_zero_utilization_not_nan() {
        // A run aborted before executing a single quantum used to feed
        // `0 / (P · 0)` into the utilization — a NaN that poisoned any
        // aggregation over it.
        assert_eq!(measured_utilization(0, 16, 0).to_bits(), 0.0_f64.to_bits());
        // Normal case unchanged.
        assert_eq!(measured_utilization(320, 16, 10), 2.0);
        // The companion statistic over an empty detector history is
        // likewise a plain zero.
        let detector = SaturationDetector::new(SaturationConfig::default());
        assert_eq!(detector.mean_jobs_in_system().to_bits(), 0.0_f64.to_bits());
    }
}
