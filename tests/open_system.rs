//! Open-system subsystem acceptance: pinned fingerprint of the smoke
//! sweep, finite statistics under light load, and saturation handling
//! of overload.
//!
//! The golden below was recorded from `abg-cli open --smoke --json`
//! (the JSON carries the same fingerprint). If an *intentional* change
//! to the driver, the arrival stream or the job generator moves it,
//! re-record with that command and say so in the commit message.

mod common;

use abg::experiments::{open_fingerprint, open_system_sweep, OpenSystemConfig, OpenWorkload};
use abg::queue::{run_open_system, OpenConfig, OpenOutcome};
use abg_alloc::DynamicEquiPartition;
use abg_control::{AControl, AGreedy, Controller, StaticEqui};
use abg_workload::WorkflowKind;
use common::{at_each_worker_count, constant_job, constant_job_config, run_hier};

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

/// `open_system_sweep(OpenSystemConfig::paper())`, recorded from
/// `abg-cli open --json`. Each row runs 10–47 k quanta, so this pins
/// hundreds of saturation trend checks at paper-scale horizons, plus
/// the two `QueueGrowth` trips (ρ 0.95 at 384 quanta, ρ 1.2 at 576).
const OPEN_PAPER: u64 = 0xfe3c9570e2665a64;

#[test]
fn paper_open_sweep_matches_golden() {
    let rows = open_system_sweep(&OpenSystemConfig::paper());
    assert_eq!(open_fingerprint(&rows), OPEN_PAPER);
}

#[test]
fn smoke_open_sweep_is_thread_count_invariant() {
    let sweep = || open_fingerprint(&open_system_sweep(&OpenSystemConfig::smoke()));
    assert_eq!(at_each_worker_count(sweep), OPEN_SMOKE);
}

fn run_with(cfg: &OpenConfig, abg_controller: bool) -> OpenOutcome {
    run_open_system(
        cfg,
        DynamicEquiPartition::new(cfg.processors),
        constant_job,
        move || -> Box<dyn Controller + Send> {
            if abg_controller {
                Box::new(AControl::new(0.2))
            } else {
                Box::new(AGreedy::new(2.0, 0.8))
            }
        },
    )
}

#[test]
fn single_shard_engine_matches_the_event_driver_bit_for_bit() {
    // One group of the multi-group driver, the static top level with
    // one unbounded epoch, is the unsharded driver.
    let cfg = constant_job_config(0.5);
    let one_group = run_hier(&cfg, 1, u64::MAX, StaticEqui);
    assert_eq!(one_group, run_with(&cfg, true));
}

#[test]
fn low_rho_mean_response_is_finite_for_both_schedulers() {
    let cfg = constant_job_config(0.25);
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
        let mut cfg = constant_job_config(rho);
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
