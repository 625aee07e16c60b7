//! Hierarchical two-level scheduling acceptance: the static top level
//! is invisible — bit-identical at every epoch length to the fixed
//! partition's one unbounded epoch (and, at one group, to the
//! unsharded driver pinned by `tests/open_system.rs`) — sweeps are
//! invariant under the harness's worker count, the driver runs
//! non-`Sync` factories on the calling thread, and the desire feedback
//! beats the fixed partition under skewed arrivals.
//!
//! The goldens below were recorded from
//! `abg-cli open --smoke --groups 4 --group-alloc POLICY --json` (the
//! JSON carries the same fingerprint). If an *intentional* change to
//! the driver, the arrival stream or the job generator moves one,
//! re-record with that command and say so in the commit message.

mod common;

use abg::experiments::{
    hierarchical_skew_sweep, open_fingerprint, open_system_sweep, HierarchicalConfig,
    OpenSystemConfig, OpenWorkload,
};
use abg::queue::{run_open_hierarchical_detailed, HierOpenConfig, ShardRouting};
use abg_alloc::DynamicEquiPartition;
use abg_control::{AControl, Controller, GroupPolicy, StaticEqui};
use abg_workload::{parse_dag, write_dag, WorkflowKind};
use common::{at_each_worker_count, constant_job, constant_job_config, run_hier};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

/// `open_system_sweep(OpenSystemConfig::smoke())` — the unsharded
/// driver's golden from `tests/open_system.rs`, which a one-group
/// hierarchical sweep must reproduce bit-for-bit.
const OPEN_SMOKE: u64 = 0x32ed9525adb1b404;

/// `open_system_sweep` of the smoke config at `groups = 4` with the
/// static top level: the fixed partition, pinned against silent drift.
const OPEN_SMOKE_HIER_STATIC_G4: u64 = 0x53e9b7f79ac798f2;

/// The same sweep under the desire-proportional top level
/// (`abg-cli open --smoke --groups 4 --group-alloc desire --json`).
const OPEN_SMOKE_HIER_DESIRE_G4: u64 = 0xc7703a234f44739c;

/// The same sweep under the conservative top level
/// (`abg-cli open --smoke --groups 4 --group-alloc conservative --json`).
const OPEN_SMOKE_HIER_CONSERVATIVE_G4: u64 = 0x3dc3f1a59e32696e;

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

#[test]
fn feedback_four_group_sweeps_match_golden() {
    for (policy, golden) in [
        (GroupPolicy::Desire, OPEN_SMOKE_HIER_DESIRE_G4),
        (GroupPolicy::Conservative, OPEN_SMOKE_HIER_CONSERVATIVE_G4),
    ] {
        let rows = open_system_sweep(&smoke_with_groups(4, policy));
        assert_eq!(open_fingerprint(&rows), golden, "{policy:?}");
    }
}

/// A four-group desire sweep replaying one seeded Montage dag through
/// a dag-file round trip (`OpenWorkload::Trace`): every arrival runs a
/// recycled weighted executor.
const HIER_TRACE_MONTAGE_G4: u64 = 0xf65ad691edf6662d;

#[test]
fn hierarchical_trace_replay_matches_golden() {
    let mut rng = StdRng::seed_from_u64(0x7ACE);
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

#[test]
fn static_top_level_is_invisible() {
    // The acceptance anchor at the driver level: a top level that
    // never resizes anyone must be invisible — every group's loop is
    // sliced at epoch boundaries but replays the identical schedule,
    // so the merged outcome equals the one-unbounded-epoch run the
    // sweep picks for a fixed partition, for every group count and
    // epoch length.
    let cfg = constant_job_config(0.5);
    for groups in [1u32, 2, 4, 8] {
        let baseline = run_hier(&cfg, groups, u64::MAX, StaticEqui);
        assert!(baseline.is_steady(), "rho = 0.5 with {groups} groups");
        for epoch in [1u64, 32, 500] {
            assert_eq!(
                run_hier(&cfg, groups, epoch, StaticEqui),
                baseline,
                "groups = {groups} drifted at epoch {epoch}"
            );
        }
    }
}

#[test]
fn static_equi_struct_and_policy_agree() {
    // `GroupPolicy::Static.build()` and the unit struct drive the
    // driver identically (the policy enum is the CLI/config surface,
    // the struct the library one).
    let cfg = constant_job_config(0.5);
    let via_policy = run_hier(&cfg, 4, 32, GroupPolicy::Static.build());
    let via_struct = run_hier(&cfg, 4, 32, StaticEqui);
    assert_eq!(via_policy, via_struct);
}

#[test]
fn factories_run_on_the_calling_thread() {
    // The driver steps every group on the calling thread, so none of
    // its factories has to be `Sync` (or `Send`): these count their
    // calls through shared `Rc<Cell<_>>`s. Every admission builds (or
    // recycles) exactly one executor and one controller.
    let cfg = HierOpenConfig {
        open: constant_job_config(0.35),
        groups: 4,
        routing: ShardRouting::Skewed { hot: 4 },
        realloc_epoch: 16,
        group_floor: 1,
    };
    for policy in [GroupPolicy::Desire, GroupPolicy::Conservative] {
        let allocators = Rc::new(Cell::new(0u64));
        let executors = Rc::new(Cell::new(0u64));
        let controllers = Rc::new(Cell::new(0u64));
        let (outcome, groups) = run_open_hierarchical_detailed(
            &cfg,
            {
                let allocators = Rc::clone(&allocators);
                move |processors| {
                    allocators.set(allocators.get() + 1);
                    DynamicEquiPartition::new(processors)
                }
            },
            {
                let executors = Rc::clone(&executors);
                move |rng: &mut StdRng, recycled| {
                    executors.set(executors.get() + 1);
                    constant_job(rng, recycled)
                }
            },
            {
                let controllers = Rc::clone(&controllers);
                move || -> Box<dyn Controller + Send> {
                    controllers.set(controllers.get() + 1);
                    Box::new(AControl::new(0.2))
                }
            },
            policy.build(),
        );
        assert!(outcome.is_steady(), "{policy:?} at rho = 0.35");
        assert_eq!(groups.len(), 4, "{policy:?}");
        let arrivals: u64 = groups.iter().map(|g| g.arrivals).sum();
        assert_eq!(executors.get(), arrivals, "{policy:?}");
        assert_eq!(controllers.get(), arrivals, "{policy:?}");
        // One allocator per group at the start, one per resize after.
        assert!(allocators.get() >= 4, "{policy:?}");
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
    let cfg = smoke_with_groups(4, GroupPolicy::Desire);
    let sweep = || open_fingerprint(&open_system_sweep(&cfg));
    assert_eq!(at_each_worker_count(sweep), OPEN_SMOKE_HIER_DESIRE_G4);
}
