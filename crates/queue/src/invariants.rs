//! Outcome invariants of every open-system entry point, property-tested
//! over seeds and offered loads on both sides of saturation.
//!
//! Whatever the driver configuration — unsharded, a fixed partition, or
//! a hierarchical top level — a merged outcome must be internally
//! consistent: served utilization within `[0, 1]`, no more completions
//! than arrivals, ordered percentiles, a mean population no larger than
//! the peak, and (hierarchical runs) group capacities within the bounds
//! every partition of the machine respects.

use crate::{
    run_open_hierarchical_detailed, run_open_hierarchical_with_threads, run_open_system,
    HierOpenConfig, OpenConfig, OpenOutcome, SaturationConfig, ShardRouting,
};
use abg_alloc::DynamicEquiPartition;
use abg_control::{AControl, Controller, DesireProportional, GroupAllocator, StaticEqui};
use abg_sched::{JobExecutor, PipelinedExecutor};
use abg_workload::{mean_gap_for_utilization, mixed_factor_job, ArrivalProcess};
use proptest::prelude::*;
use rand::rngs::StdRng;

const PROCESSORS: u32 = 8;
const QUANTUM_LEN: u64 = 10;
/// Rough `E[T₁]` of the `mixed_factor_job(8, 10, 2, _)` population,
/// only used to translate ρ into a mean gap.
const APPROX_T1: f64 = 200.0;

fn config(rho: f64, seed: u64) -> OpenConfig {
    OpenConfig {
        processors: PROCESSORS,
        quantum_len: QUANTUM_LEN,
        arrivals: ArrivalProcess::Poisson {
            mean_gap: mean_gap_for_utilization(rho, PROCESSORS, APPROX_T1),
        },
        warmup_jobs: 10,
        measured_jobs: 40,
        batches: 4,
        max_quanta: 20_000,
        saturation: SaturationConfig::default(),
        seed,
    }
}

fn make_executor(
    rng: &mut StdRng,
    _recycled: Option<Box<dyn JobExecutor + Send>>,
) -> Box<dyn JobExecutor + Send> {
    Box::new(PipelinedExecutor::new(mixed_factor_job(
        8,
        QUANTUM_LEN,
        2,
        rng,
    )))
}

fn make_controller() -> Box<dyn Controller + Send> {
    Box::new(AControl::new(0.2))
}

fn assert_outcome_invariants(cfg: &OpenConfig, outcome: &OpenOutcome, label: &str) {
    match outcome {
        OpenOutcome::Steady(s) => {
            assert!(
                (0.0..=1.0).contains(&s.measured_utilization),
                "{label}: utilization {}",
                s.measured_utilization
            );
            assert_eq!(s.completed, cfg.measured_jobs, "{label}");
            assert!(s.completed <= s.arrivals, "{label}: {s:?}");
            let p = s.slowdown;
            assert!(
                p.p50 <= p.p95 && p.p95 <= p.p99 && p.p99 <= p.max,
                "{label}: {p:?}"
            );
            assert!(
                s.mean_jobs_in_system <= s.peak_jobs_in_system as f64,
                "{label}: {s:?}"
            );
        }
        OpenOutcome::Unstable(u) => {
            assert!(u.completed < cfg.measured_jobs, "{label}: {u:?}");
            assert!(u.completed <= u.arrivals, "{label}: {u:?}");
        }
    }
}

fn check_hierarchical<G: GroupAllocator>(cfg: &OpenConfig, groups: u32, policy: G) {
    let hier = HierOpenConfig {
        open: cfg.clone(),
        groups,
        routing: ShardRouting::Skewed { hot: 3 },
        realloc_epoch: 8,
        group_floor: 1,
    };
    let label = format!("groups={groups} {}", policy.name());
    let (outcome, summaries) = run_open_hierarchical_detailed(
        &hier,
        DynamicEquiPartition::new,
        make_executor,
        make_controller,
        policy,
        2,
    );
    assert_outcome_invariants(cfg, &outcome, &label);
    assert_eq!(summaries.len(), groups as usize, "{label}");
    // Every partition the top level hands out sums to P with each group
    // at or above the floor (the driver asserts both at each barrier),
    // so any share lies within these bounds. A group keeps the share it
    // held when its own run ended, so the final shares need not sum to
    // P once a group finishes early; with one group the share is P.
    let ceiling = PROCESSORS - (groups - 1) * hier.group_floor;
    for g in &summaries {
        assert!(
            (hier.group_floor..=ceiling).contains(&g.final_processors),
            "{label}: group {g:?}"
        );
        assert!((0.0..=1.0).contains(&g.utilization), "{label}: group {g:?}");
    }
    if groups == 1 {
        assert_eq!(summaries[0].final_processors, PROCESSORS, "{label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_entry_point_keeps_the_outcome_invariants(
        rho in prop_oneof![Just(0.3), Just(0.7), Just(1.3)],
        seed in 0u64..u64::MAX,
    ) {
        let cfg = config(rho, seed);

        let unsharded = run_open_system(
            &cfg,
            DynamicEquiPartition::new(PROCESSORS),
            make_executor,
            make_controller,
        );
        assert_outcome_invariants(&cfg, &unsharded, "unsharded");

        // Fixed partitions, routed round-robin.
        for groups in [2u32, 4] {
            let fixed = HierOpenConfig {
                open: cfg.clone(),
                groups,
                routing: ShardRouting::RoundRobin,
                realloc_epoch: u64::MAX,
                group_floor: 1,
            };
            let outcome = run_open_hierarchical_with_threads(
                &fixed,
                DynamicEquiPartition::new,
                make_executor,
                make_controller,
                StaticEqui,
                2,
            );
            assert_outcome_invariants(&cfg, &outcome, &format!("fixed groups={groups}"));
        }

        for groups in [1u32, 4] {
            check_hierarchical(&cfg, groups, StaticEqui);
            check_hierarchical(&cfg, groups, DesireProportional::new());
        }
    }
}
