//! Open-system subsystem acceptance: pinned fingerprint of the smoke
//! sweep, finite statistics under light load, and saturation handling
//! of overload.
//!
//! The golden below was recorded from `abg-cli open --smoke --json`
//! (the JSON carries the same fingerprint). If an *intentional* change
//! to the driver, the arrival stream or the job generator moves it,
//! re-record with that command and say so in the commit message.

use abg::experiments::{open_fingerprint, open_system_sweep, OpenSystemConfig, OpenWorkload};
use abg::queue::{
    run_open_hierarchical_with_threads, run_open_system, HierOpenConfig, OpenConfig, OpenOutcome,
    SaturationConfig, ShardRouting,
};
use abg_alloc::DynamicEquiPartition;
use abg_control::{AControl, AGreedy, Controller, StaticEqui};
use abg_dag::PhasedJob;
use abg_sched::{JobExecutor, PipelinedExecutor};
use abg_workload::{mean_gap_for_utilization, ArrivalProcess, WorkflowKind};

/// `open_system_sweep(OpenSystemConfig::smoke())`.
const OPEN_SMOKE: u64 = 0x32ed9525adb1b404;

#[test]
fn smoke_open_sweep_matches_golden() {
    // The sweep routes every point through the multi-group driver with
    // the presets' `groups = 1`: the one-group case of the open-system
    // loop, which draws arrivals and jobs exactly as the unsharded
    // driver — this golden staying pinned IS the bit-identity check for
    // it.
    let rows = open_system_sweep(&OpenSystemConfig::smoke());
    assert_eq!(open_fingerprint(&rows), OPEN_SMOKE);
}

/// The smoke sweep over fresh Montage workflow arrivals at scale 8,
/// recorded from `abg-cli open --smoke --workflow montage --json`:
/// every job runs the weighted kernel.
const OPEN_SMOKE_MONTAGE: u64 = 0x2524e920c7bdc50a;

#[test]
fn smoke_montage_sweep_matches_golden() {
    let mut cfg = OpenSystemConfig::smoke();
    cfg.workload = OpenWorkload::Workflow {
        kind: WorkflowKind::Montage,
        scale: 8,
    };
    let rows = open_system_sweep(&cfg);
    assert_eq!(open_fingerprint(&rows), OPEN_SMOKE_MONTAGE);
}

#[test]
fn smoke_open_sweep_is_thread_count_invariant() {
    // Safe to mutate concurrently with sibling tests for the same
    // reason as in sweep_equivalence.rs: results never depend on it.
    for threads in ["1", "2", "8"] {
        std::env::set_var("ABG_THREADS", threads);
        let rows = open_system_sweep(&OpenSystemConfig::smoke());
        assert_eq!(
            open_fingerprint(&rows),
            OPEN_SMOKE,
            "open sweep drifted at ABG_THREADS={threads}"
        );
    }
    std::env::remove_var("ABG_THREADS");
}

fn driver_config(rho: f64) -> OpenConfig {
    OpenConfig {
        processors: 16,
        quantum_len: 20,
        arrivals: ArrivalProcess::Poisson {
            // Constant 4-wide, 50-level jobs below: T1 = 200 steps.
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

fn run_with(cfg: &OpenConfig, abg_controller: bool) -> OpenOutcome {
    run_open_system(
        cfg,
        DynamicEquiPartition::new(cfg.processors),
        |_rng, recycled| -> Box<dyn JobExecutor + Send> {
            // Homogeneous constant jobs: recycle drained executors; the
            // reset path must leave every statistic untouched (the smoke
            // fingerprint above pins the heterogeneous fresh-build path).
            if let Some(mut ex) = recycled {
                if ex.try_reset() {
                    return ex;
                }
            }
            Box::new(PipelinedExecutor::new(PhasedJob::constant(4, 50)))
        },
        move || -> Box<dyn Controller + Send> {
            if abg_controller {
                Box::new(AControl::new(0.2))
            } else {
                Box::new(AGreedy::new(2.0, 0.8))
            }
        },
    )
}

/// A fixed partition into `groups` groups: the static top level with
/// one unbounded epoch.
fn run_fixed(cfg: &OpenConfig, groups: u32, threads: usize) -> OpenOutcome {
    run_open_hierarchical_with_threads(
        &HierOpenConfig {
            open: cfg.clone(),
            groups,
            routing: ShardRouting::RoundRobin,
            realloc_epoch: u64::MAX,
            group_floor: 1,
        },
        DynamicEquiPartition::new,
        |_rng, recycled: Option<Box<dyn JobExecutor + Send>>| {
            if let Some(mut ex) = recycled {
                if ex.try_reset() {
                    return ex;
                }
            }
            Box::new(PipelinedExecutor::new(PhasedJob::constant(4, 50)))
        },
        || -> Box<dyn Controller + Send> { Box::new(AControl::new(0.2)) },
        StaticEqui,
        threads,
    )
}

#[test]
fn sharded_outcome_is_identical_for_every_thread_count() {
    // The acceptance property of a fixed partition: at a fixed group
    // count the merged outcome is a pure function of the configuration
    // — the worker pool's size and schedule must never show through.
    let cfg = driver_config(0.5);
    for groups in [2u32, 4, 8] {
        let baseline = run_fixed(&cfg, groups, 1);
        assert!(baseline.is_steady(), "rho = 0.5 with {groups} groups");
        for threads in 2..=8 {
            assert_eq!(
                run_fixed(&cfg, groups, threads),
                baseline,
                "groups = {groups} drifted at {threads} threads"
            );
        }
    }
}

#[test]
fn single_shard_engine_matches_the_event_driver_bit_for_bit() {
    // One group of the multi-group driver is the unsharded driver.
    let cfg = driver_config(0.5);
    for threads in [1usize, 4] {
        assert_eq!(run_fixed(&cfg, 1, threads), run_with(&cfg, true));
    }
}

#[test]
fn low_rho_mean_response_is_finite_for_both_schedulers() {
    let cfg = driver_config(0.25);
    for abg_controller in [true, false] {
        let out = run_with(&cfg, abg_controller);
        let stats = out
            .steady()
            .unwrap_or_else(|| panic!("rho = 0.25 unstable (abg = {abg_controller})"));
        assert!(
            stats.response.mean.is_finite() && stats.response.mean > 0.0,
            "non-finite mean response (abg = {abg_controller}): {stats:?}"
        );
        assert!(stats.response.half_width.is_finite());
        assert!(stats.slowdown.p50.is_finite() && stats.slowdown.p50 >= 1.0);
    }
}

#[test]
fn overload_is_flagged_unstable_rather_than_hanging() {
    // rho ≥ 1: the in-system population grows without bound. The run
    // must return with an unstable verdict (trend test or cap), not
    // spin until the quanta budget. At exactly rho = 1 the divergence
    // is slow (critical load grows like √t), so that point gets a
    // measurement target no finite stable system of this size would
    // need — the detector must still cut the run short.
    for rho in [1.0, 1.5, 3.0] {
        let mut cfg = driver_config(rho);
        cfg.measured_jobs = 100_000;
        match run_with(&cfg, true) {
            OpenOutcome::Unstable(report) => {
                assert!(
                    report.quanta < cfg.max_quanta,
                    "rho = {rho} only stopped at the horizon budget"
                );
                assert!(report.jobs_in_system > 0);
            }
            OpenOutcome::Steady(s) => panic!("rho = {rho} reported steady: {s:?}"),
        }
    }
}
