//! Open-system queueing subsystem for the ABG reproduction.
//!
//! The paper's experiments are *closed*: a fixed job set is released,
//! the machine runs to drain, and makespan/waste are compared. Real
//! schedulers also face the *open* regime — jobs arrive indefinitely
//! from a stationary process and the question becomes whether the
//! system is stable at a given offered load ρ and, when it is, what
//! mean response time and slowdown jobs see in steady state.
//!
//! This crate supplies that regime on top of the shared
//! [`abg_sim::QuantumCore`] stepping core:
//!
//! * [`driver`] — [`run_open_system`]: sustained-arrival simulation
//!   whose memory footprint tracks the in-system population, not the
//!   total number of arrivals, plus the configuration and outcome types
//!   every entry point shares;
//! * [`events`] — the pending-event layer behind the loop: the
//!   frozen-window bound arithmetic;
//! * [`stats`] — [`batch_means`] confidence intervals and nearest-rank
//!   [`percentiles`] for steady-state output analysis;
//! * [`saturation`] — the [`SaturationDetector`] queue-length trend
//!   test that aborts never-steady runs (ρ ≥ 1) instead of hanging;
//! * [`shard`] — deterministic arrival routing over processor groups
//!   ([`ShardRouting`]) and the stable-order merge of per-group
//!   reports into one outcome;
//! * [`hier`] — [`run_open_hierarchical`]: the machine split into `G`
//!   processor groups under a top-level [`abg_control::GroupAllocator`]
//!   that repartitions it at fixed reallocation epochs from per-group
//!   desire reports. A fixed partition is the
//!   [`abg_control::StaticEqui`] policy. The module also holds the
//!   crate's one event loop; every entry point runs on the calling
//!   thread;
//! * `reference` (tests only) — the legacy quantum-by-quantum loop,
//!   kept as the differential-testing ground truth for the event-driven
//!   driver.
//!
//! **One loop.** Every entry point runs the same event-driven loop.
//! Between arrivals, completions, request changes and saturation checks
//! it macro-steps the core across frozen quanta in bulk
//! ([`abg_sim::QuantumCore::advance_frozen`]) instead of burning an
//! allocate/step/observe round per quantum, with bit-identical
//! observables. The two entry points differ only in how many processor
//! groups they build and whether a top-level policy runs between
//! epochs. [`run_open_system`] is one group.
//! [`run_open_hierarchical`] is `G` groups described by
//! one [`HierOpenConfig`]: under the never-resizing
//! [`abg_control::StaticEqui`] (best with `realloc_epoch = u64::MAX`,
//! one unbounded epoch) that is a fixed partition, under a feedback
//! policy a hierarchical scheduler. No configuration hands off to
//! another driver: `groups = 1` is the one-group case, whose arrival
//! source (one RNG seeded from the run seed) the loop picks from the
//! group count.
//!
//! Offered load is set through
//! [`abg_workload::mean_gap_for_utilization`]: ρ = E\[T₁\] / (gap · P),
//! so solving for the Poisson mean gap pins the sweep points.
//!
//! ```
//! use abg_alloc::DynamicEquiPartition;
//! use abg_control::AControl;
//! use abg_dag::PhasedJob;
//! use abg_queue::{run_open_system, OpenConfig, SaturationConfig};
//! use abg_sched::PipelinedExecutor;
//! use abg_workload::{mean_gap_for_utilization, ArrivalProcess};
//!
//! let cfg = OpenConfig {
//!     processors: 8,
//!     quantum_len: 10,
//!     arrivals: ArrivalProcess::Poisson {
//!         // T1 = 2 * 30 = 60 steps per job, offered at rho = 0.4.
//!         mean_gap: mean_gap_for_utilization(0.4, 8, 60.0),
//!     },
//!     warmup_jobs: 20,
//!     measured_jobs: 60,
//!     batches: 6,
//!     max_quanta: 1_000_000,
//!     saturation: SaturationConfig::default(),
//!     seed: 42,
//! };
//! let outcome = run_open_system(
//!     &cfg,
//!     DynamicEquiPartition::new(cfg.processors),
//!     |_rng, _recycled| Box::new(PipelinedExecutor::new(PhasedJob::constant(2, 30))),
//!     || Box::new(AControl::new(0.2)),
//! );
//! let stats = outcome.steady().expect("light load is stable");
//! assert!(stats.response.mean.is_finite());
//! assert!(stats.slowdown.p50 >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod events;
pub mod hier;
#[cfg(test)]
mod invariants;
#[cfg(test)]
mod lockstep;
#[cfg(test)]
mod reference;
pub mod saturation;
#[cfg(test)]
mod saturation_oracle;
pub mod shard;
pub mod stats;

pub use driver::{
    run_open_system, run_open_system_probed, ConfigError, OpenConfig, OpenOutcome, SteadyStats,
    UnstableReport,
};
pub use hier::{
    run_open_hierarchical, run_open_hierarchical_detailed, run_open_hierarchical_with_threads,
    GroupSummary, HierOpenConfig,
};
pub use saturation::{SaturationConfig, SaturationDetector, SaturationReason};
pub use shard::ShardRouting;
pub use stats::{
    batch_means, merge_shard_samples, merged_batch_means, percentiles, weighted_mean,
    ConfidenceInterval, PercentileSummary,
};
