//! Helpers shared by the integration tests. Every test file that names
//! this module compiles its own copy and uses a subset of it.
#![allow(dead_code)]

use abg::experiments::with_workers;
use abg::queue::{
    run_open_hierarchical, HierOpenConfig, OpenConfig, OpenOutcome, SaturationConfig, ShardRouting,
};
use abg_alloc::DynamicEquiPartition;
use abg_control::{AControl, Controller, GroupAllocator};
use abg_dag::PhasedJob;
use abg_sched::{JobExecutor, PipelinedExecutor};
use abg_workload::{mean_gap_for_utilization, ArrivalProcess};
use rand::rngs::StdRng;
use std::fmt::Debug;

/// Runs `sweep` at 1, 2 and 4 explicit workers, asserts that every
/// count gives the same result, and returns it: the worker count moves
/// wall-clock time only.
pub fn at_each_worker_count<T: PartialEq + Debug>(sweep: impl Fn() -> T) -> T {
    let serial = with_workers(1, &sweep);
    for workers in [2, 4] {
        assert_eq!(
            with_workers(workers, &sweep),
            serial,
            "drifted at {workers} workers"
        );
    }
    serial
}

/// An open system of 16 processors at offered load `rho`, whose
/// arrivals are [`constant_job`]s.
pub fn constant_job_config(rho: f64) -> OpenConfig {
    OpenConfig {
        processors: 16,
        quantum_len: 20,
        arrivals: ArrivalProcess::Poisson {
            // Constant 4-wide, 50-level jobs: T1 = 200 steps.
            mean_gap: mean_gap_for_utilization(rho, 16, 200.0),
        },
        warmup_jobs: 30,
        measured_jobs: 120,
        batches: 8,
        max_quanta: 1_000_000,
        saturation: SaturationConfig::default(),
        seed: 0xD01,
    }
}

/// The executor of one arrival of [`constant_job_config`]: a drained
/// executor reset in place, else a fresh 4-wide, 50-level job. The
/// reset path must leave every statistic untouched (the smoke goldens
/// pin the heterogeneous fresh-build path).
pub fn constant_job(
    _rng: &mut StdRng,
    recycled: Option<Box<dyn JobExecutor + Send>>,
) -> Box<dyn JobExecutor + Send> {
    if let Some(mut ex) = recycled {
        if ex.try_reset() {
            return ex;
        }
    }
    Box::new(PipelinedExecutor::new(PhasedJob::constant(4, 50)))
}

/// `cfg` on the multi-group driver: `groups` round-robin groups under
/// the top level `group_alloc`, every job under ABG.
pub fn run_hier(
    cfg: &OpenConfig,
    groups: u32,
    realloc_epoch: u64,
    group_alloc: impl GroupAllocator,
) -> OpenOutcome {
    run_open_hierarchical(
        &HierOpenConfig {
            open: cfg.clone(),
            groups,
            routing: ShardRouting::RoundRobin,
            realloc_epoch,
            group_floor: 1,
        },
        DynamicEquiPartition::new,
        constant_job,
        || -> Box<dyn Controller + Send> { Box::new(AControl::new(0.2)) },
        group_alloc,
    )
}
