//! The quantum-by-quantum open-system driver, kept as a reference
//! implementation.
//!
//! [`run_open_system`](crate::run_open_system) used to execute this
//! exact loop: one allocate/step/observe round per quantum, every
//! quantum, with no event awareness. The event-driven driver replaced
//! it for speed, under the contract that every observable —
//! fingerprints, completion order, steady-state statistics, saturation
//! reports — stays **bit-identical**. This module preserves the old
//! loop verbatim so that contract is checkable by differential tests,
//! rather than an article of faith.
//!
//! Compiled only for tests; it is not part of the production API.

use crate::driver::{measured_utilization, OpenConfig, OpenOutcome, SteadyStats, UnstableReport};
use crate::saturation::{SaturationDetector, SaturationReason};
use crate::stats::{batch_means, percentiles};
use abg_alloc::Allocator;
use abg_control::Controller;
use abg_sched::JobExecutor;
use abg_sim::{CompletedJob, NullProbe, Probe, QuantumCore};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pre-event-driven open-system driver: steps the core one quantum
/// at a time with no frozen windows.
///
/// Exists solely as the ground truth the event-driven driver is
/// differentially tested against.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceOpenDriver;

impl ReferenceOpenDriver {
    /// Reference counterpart of [`run_open_system`].
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent configuration (see
    /// [`OpenConfig::validate`]).
    ///
    /// [`run_open_system`]: crate::run_open_system
    pub fn run<A, E, C>(
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
        Self::run_probed(cfg, allocator, make_executor, make_calculator, NullProbe).0
    }

    /// Reference counterpart of [`run_open_system_probed`] — the legacy
    /// loop with a probe threaded through.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent configuration (see
    /// [`OpenConfig::validate`]).
    ///
    /// [`run_open_system_probed`]: crate::run_open_system_probed
    pub fn run_probed<A, E, C, P>(
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
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut stream = cfg.arrivals.stream();
        let mut engine = QuantumCore::new(allocator, cfg.quantum_len, probe);
        let mut detector = SaturationDetector::new(cfg.saturation);

        let warmup = cfg.warmup_jobs;
        let measured = cfg.measured_jobs;
        let mut responses = vec![f64::NAN; measured as usize];
        let mut slowdowns = vec![f64::NAN; measured as usize];
        let mut outstanding = measured;

        let mut arrivals = 0u64;
        let mut next_arrival = stream.next_arrival(&mut rng);
        let mut completed_work = 0u64;
        let mut done: Vec<CompletedJob> = Vec::new();
        let mut pool: Vec<Box<dyn JobExecutor + Send>> = Vec::new();

        let outcome = loop {
            while next_arrival <= engine.now() {
                let executor = make_executor(&mut rng, pool.pop());
                engine.admit(executor, make_calculator(), next_arrival);
                arrivals += 1;
                next_arrival = stream.next_arrival(&mut rng);
            }
            if !engine.any_live() {
                if engine.skip_idle_until(next_arrival) {
                    continue;
                }
                // Idle, and the next arrival lies past the clock horizon.
                break OpenOutcome::Unstable(UnstableReport {
                    reason: SaturationReason::HorizonExhausted {
                        quanta: engine.quanta(),
                    },
                    quanta: engine.quanta(),
                    horizon: engine.now(),
                    jobs_in_system: engine.jobs_in_system() as u64,
                    completed: measured - outstanding,
                    arrivals,
                });
            }

            done.clear();
            engine.step_quantum_reclaiming(&mut done, &mut pool);
            detector.record(engine.jobs_in_system());

            for job in &done {
                completed_work += job.work;
                if job.id < warmup || job.id >= warmup + measured {
                    continue;
                }
                let slot = (job.id - warmup) as usize;
                let response = job.response_time() as f64;
                let lower = (job.span as f64).max(job.work as f64 / cfg.processors as f64);
                responses[slot] = response;
                slowdowns[slot] = response / lower.max(1.0);
                outstanding -= 1;
            }

            if outstanding == 0 {
                let response = batch_means(&responses, cfg.batches)
                    .expect("validate() guarantees one observation per batch");
                let slowdown = percentiles(&slowdowns).expect("measured_jobs > 0");
                let horizon = engine.now();
                break OpenOutcome::Steady(SteadyStats {
                    response,
                    slowdown,
                    completed: measured,
                    arrivals,
                    quanta: engine.quanta(),
                    horizon,
                    mean_jobs_in_system: detector.mean_jobs_in_system(),
                    peak_jobs_in_system: detector.peak_jobs_in_system(),
                    measured_utilization: measured_utilization(
                        completed_work,
                        cfg.processors,
                        horizon,
                    ),
                });
            }

            let reason = detector.check().or_else(|| {
                (engine.quanta() >= cfg.max_quanta).then_some(SaturationReason::HorizonExhausted {
                    quanta: cfg.max_quanta,
                })
            });
            if let Some(reason) = reason {
                break OpenOutcome::Unstable(UnstableReport {
                    reason,
                    quanta: engine.quanta(),
                    horizon: engine.now(),
                    jobs_in_system: engine.jobs_in_system() as u64,
                    completed: measured - outstanding,
                    arrivals,
                });
            }
        };
        (outcome, engine.into_probe())
    }
}
