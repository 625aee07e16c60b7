//! Hierarchical two-level scheduling acceptance: the static top level
//! is invisible — bit-identical at every epoch length to the fixed
//! partition's one unbounded epoch (and, at one group, to the
//! unsharded driver pinned by `tests/open_system.rs`) — outcomes are
//! thread-count invariant, and the desire feedback beats the fixed
//! partition under skewed arrivals.
//!
//! The golden below was recorded from
//! `abg-cli open --smoke --groups 4 --json` (the JSON carries the same
//! fingerprint). If an *intentional* change to the driver, the arrival
//! stream or the job generator moves it, re-record with that command
//! and say so in the commit message.

use abg::experiments::{
    hierarchical_skew_sweep, open_fingerprint, open_system_sweep, HierarchicalConfig,
    OpenSystemConfig, OpenWorkload,
};
use abg::queue::{
    run_open_hierarchical_with_threads, HierOpenConfig, OpenConfig, OpenOutcome, SaturationConfig,
    ShardRouting,
};
use abg_alloc::DynamicEquiPartition;
use abg_control::{AControl, Controller, GroupPolicy, StaticEqui};
use abg_dag::PhasedJob;
use abg_sched::{JobExecutor, PipelinedExecutor};
use abg_workload::{mean_gap_for_utilization, parse_dag, write_dag, ArrivalProcess, WorkflowKind};
use rand::SeedableRng;
use std::sync::Arc;

/// `open_system_sweep(OpenSystemConfig::smoke())` — the unsharded
/// driver's golden from `tests/open_system.rs`, which a one-group
/// hierarchical sweep must reproduce bit-for-bit.
const OPEN_SMOKE: u64 = 0x32ed9525adb1b404;

/// `open_system_sweep` of the smoke config at `groups = 4` with the
/// static top level: the fixed partition, pinned against silent drift.
const OPEN_SMOKE_HIER_STATIC_G4: u64 = 0x53e9b7f79ac798f2;

fn smoke_with_groups(groups: u32, policy: GroupPolicy) -> OpenSystemConfig {
    let mut cfg = OpenSystemConfig::smoke();
    cfg.groups = groups;
    cfg.group_alloc = policy;
    cfg
}

#[test]
fn one_group_hier_sweep_matches_the_unsharded_golden() {
    // groups = 1 runs the unsharded arrival source through the epoch
    // loop, whatever the policy — the sum invariant forbids any
    // capacity change, so even the feedback policies are inert.
    for policy in [GroupPolicy::Static, GroupPolicy::Desire] {
        let rows = open_system_sweep(&smoke_with_groups(1, policy));
        assert_eq!(open_fingerprint(&rows), OPEN_SMOKE, "{policy:?}");
    }
}

#[test]
fn static_four_group_sweep_matches_golden() {
    let rows = open_system_sweep(&smoke_with_groups(4, GroupPolicy::Static));
    assert_eq!(open_fingerprint(&rows), OPEN_SMOKE_HIER_STATIC_G4);
}

/// A four-group desire sweep replaying one seeded Montage dag through
/// a dag-file round trip (`OpenWorkload::Trace`): every arrival runs a
/// recycled weighted executor.
const HIER_TRACE_MONTAGE_G4: u64 = 0xf65ad691edf6662d;

#[test]
fn hierarchical_trace_replay_matches_golden() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7ACE);
    let text = write_dag(&WorkflowKind::Montage.generate(6, &mut rng));
    let dag = parse_dag(&text).expect("written dags parse");
    assert!(!dag.is_unit_weight());
    let mut cfg = smoke_with_groups(4, GroupPolicy::Desire);
    cfg.workload = OpenWorkload::Trace(Arc::new(dag));
    cfg.rhos = vec![0.3, 0.7];
    let rows = open_system_sweep(&cfg);
    assert!(rows.iter().all(|r| r.abg.stable && r.agreedy.stable));
    assert_eq!(open_fingerprint(&rows), HIER_TRACE_MONTAGE_G4);
}

fn open_config(rho: f64) -> OpenConfig {
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

fn make_executor(
    _rng: &mut rand::rngs::StdRng,
    recycled: Option<Box<dyn JobExecutor + Send>>,
) -> Box<dyn JobExecutor + Send> {
    if let Some(mut ex) = recycled {
        if ex.try_reset() {
            return ex;
        }
    }
    Box::new(PipelinedExecutor::new(PhasedJob::constant(4, 50)))
}

fn run_hier(
    cfg: &OpenConfig,
    groups: u32,
    routing: ShardRouting,
    realloc_epoch: u64,
    policy: GroupPolicy,
    threads: usize,
) -> OpenOutcome {
    run_open_hierarchical_with_threads(
        &HierOpenConfig {
            open: cfg.clone(),
            groups,
            routing,
            realloc_epoch,
            group_floor: 1,
        },
        DynamicEquiPartition::new,
        make_executor,
        || -> Box<dyn Controller + Send> { Box::new(AControl::new(0.2)) },
        policy.build(),
        threads,
    )
}

#[test]
fn static_top_level_is_invisible() {
    // The acceptance anchor at the driver level: a top level that
    // never resizes anyone must be invisible — every group's loop is
    // sliced at epoch boundaries but replays the identical schedule,
    // so the merged outcome equals the one-unbounded-epoch run the
    // sweep picks for a fixed partition, for every group count,
    // thread count and epoch length.
    let cfg = open_config(0.5);
    for groups in [1u32, 2, 4, 8] {
        let baseline = run_hier(
            &cfg,
            groups,
            ShardRouting::RoundRobin,
            u64::MAX,
            GroupPolicy::Static,
            1,
        );
        assert!(baseline.is_steady(), "rho = 0.5 with {groups} groups");
        for threads in 1..=8 {
            for epoch in [1u64, 32, 500] {
                assert_eq!(
                    run_hier(
                        &cfg,
                        groups,
                        ShardRouting::RoundRobin,
                        epoch,
                        GroupPolicy::Static,
                        threads,
                    ),
                    baseline,
                    "groups = {groups} drifted at {threads} threads, epoch {epoch}"
                );
            }
        }
    }
}

#[test]
fn static_equi_struct_and_policy_agree() {
    // `GroupPolicy::Static.build()` and the unit struct drive the
    // driver identically (the policy enum is the CLI/config surface,
    // the struct the library one).
    let cfg = open_config(0.5);
    let via_policy = run_hier(
        &cfg,
        4,
        ShardRouting::RoundRobin,
        32,
        GroupPolicy::Static,
        2,
    );
    let via_struct = run_open_hierarchical_with_threads(
        &HierOpenConfig {
            open: cfg.clone(),
            groups: 4,
            routing: ShardRouting::RoundRobin,
            realloc_epoch: 32,
            group_floor: 1,
        },
        DynamicEquiPartition::new,
        make_executor,
        || -> Box<dyn Controller + Send> { Box::new(AControl::new(0.2)) },
        StaticEqui,
        2,
    );
    assert_eq!(via_policy, via_struct);
}

#[test]
fn feedback_outcome_is_identical_for_every_thread_count() {
    let cfg = open_config(0.35);
    for policy in [GroupPolicy::Desire, GroupPolicy::Conservative] {
        let baseline = run_hier(&cfg, 4, ShardRouting::Skewed { hot: 4 }, 16, policy, 1);
        assert!(baseline.is_steady(), "{policy:?} at rho = 0.35");
        for threads in 2..=8 {
            assert_eq!(
                run_hier(
                    &cfg,
                    4,
                    ShardRouting::Skewed { hot: 4 },
                    16,
                    policy,
                    threads,
                ),
                baseline,
                "{policy:?} drifted at {threads} threads"
            );
        }
    }
}

#[test]
fn skew_sweep_shows_desire_beating_the_static_partition() {
    // The headline acceptance: under 4:1 skewed arrivals the
    // desire-proportional top level delivers a lower mean response
    // time than the fixed equi-partition (the numbers recorded in
    // EXPERIMENTS.md come from this same smoke sweep).
    let rows = hierarchical_skew_sweep(&HierarchicalConfig::smoke());
    let skewed = rows.last().expect("smoke sweep has a skewed point");
    assert_eq!(skewed.hot, 4);
    let by_policy = |p: GroupPolicy| {
        skewed
            .cells
            .iter()
            .find(|c| c.policy == p)
            .unwrap_or_else(|| panic!("{p:?} missing"))
    };
    let stat = by_policy(GroupPolicy::Static);
    let desire = by_policy(GroupPolicy::Desire);
    assert!(stat.stable && desire.stable);
    assert!(
        desire.mean_response < stat.mean_response,
        "desire {} !< static {}",
        desire.mean_response,
        stat.mean_response
    );
    assert!(desire.hot_processors > stat.hot_processors);
}

#[test]
fn hier_sweep_is_abg_threads_invariant() {
    // Safe to mutate concurrently with sibling tests for the same
    // reason as in sweep_equivalence.rs: results never depend on it.
    let cfg = smoke_with_groups(4, GroupPolicy::Desire);
    std::env::set_var("ABG_THREADS", "1");
    let baseline = open_fingerprint(&open_system_sweep(&cfg));
    for threads in ["2", "8"] {
        std::env::set_var("ABG_THREADS", threads);
        assert_eq!(
            open_fingerprint(&open_system_sweep(&cfg)),
            baseline,
            "hier sweep drifted at ABG_THREADS={threads}"
        );
    }
    std::env::remove_var("ABG_THREADS");
}
