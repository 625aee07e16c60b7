//! Lockstep differential tests: the event-driven driver must be
//! **bit-identical** to the reference quantum-by-quantum loop.
//!
//! Frozen-quantum macro-stepping is only a performance optimisation if
//! nothing observable moves: steady statistics, saturation reports,
//! completion order, and per-quantum traces all have to come out
//! bit-for-bit the same whether the driver stepped every quantum or
//! jumped between events. The property tests here run both drivers
//! over randomized loads (ρ ∈ {0.2, 0.7, 0.95}), arrival processes
//! (Poisson and trace), allocators (DEQ and proportional), and
//! controllers (ABG and A-Greedy), with a heterogeneous job population
//! sampled from the shared driver RNG — the exact interleaving the
//! pinned sweep fingerprints depend on. The one-group configurations of
//! the multi-group entry point (`groups = 1` as a fixed partition with
//! one unbounded epoch, and under both a static and a feedback top
//! level with short epochs) draw from that same source and must match
//! the reference too.

use crate::reference::ReferenceOpenDriver;
use crate::{
    run_open_hierarchical, run_open_system_probed, HierOpenConfig, OpenConfig, OpenOutcome,
    SaturationConfig, ShardRouting,
};
use abg_alloc::{Allocator, DynamicEquiPartition, Proportional};
use abg_control::{AControl, AGreedy, Controller, DesireProportional, StaticEqui};
use abg_sched::{JobExecutor, PipelinedExecutor};
use abg_sim::TraceProbe;
use abg_workload::{mean_gap_for_utilization, mixed_factor_job, ArrivalProcess};
use proptest::prelude::*;
use rand::rngs::StdRng;

const PROCESSORS: u32 = 8;
const QUANTUM_LEN: u64 = 10;
/// Rough `E[T₁]` of the `mixed_factor_job(8, 10, 2, _)` population —
/// only used to translate ρ into a mean gap; bit-identity holds for
/// any load, so precision is irrelevant here.
const APPROX_T1: f64 = 200.0;
/// Rough `E[T₁]` of the short `mixed_factor_job(4, 10, 1, _)`
/// population the high-churn cases arrive at.
const APPROX_SHORT_T1: f64 = 50.0;

fn config_with(rho: f64, poisson: bool, seed: u64, approx_t1: f64) -> OpenConfig {
    let gap = mean_gap_for_utilization(rho, PROCESSORS, approx_t1);
    let arrivals = if poisson {
        ArrivalProcess::Poisson { mean_gap: gap }
    } else {
        // A repeating deterministic pattern with the same mean gap,
        // including back-to-back arrivals (gap 0) and long lulls that
        // exercise the idle fast-forward.
        let g = gap.max(2.0) as u64;
        ArrivalProcess::Trace {
            gaps: vec![g, 0, 2 * g, g / 2, 3 * g],
        }
    };
    OpenConfig {
        processors: PROCESSORS,
        quantum_len: QUANTUM_LEN,
        arrivals,
        warmup_jobs: 10,
        measured_jobs: 40,
        batches: 4,
        // Small enough that overloaded cases exhaust the budget quickly;
        // the HorizonExhausted report must then match bit-for-bit too.
        max_quanta: 20_000,
        saturation: SaturationConfig::default(),
        seed,
    }
}

fn config(rho: f64, poisson: bool, seed: u64) -> OpenConfig {
    config_with(rho, poisson, seed, APPROX_T1)
}

/// Heterogeneous population sampled from the driver's RNG — every
/// arrival consumes structure draws interleaved with the Poisson gap
/// draws, pinning the one-arrival-at-a-time RNG discipline.
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

/// Short-job population for the high-churn cases: most jobs span only
/// a handful of quanta, so completions (and with them the slab core's
/// reclamation path) land in nearly every quantum.
fn make_short_executor(
    rng: &mut StdRng,
    _recycled: Option<Box<dyn JobExecutor + Send>>,
) -> Box<dyn JobExecutor + Send> {
    Box::new(PipelinedExecutor::new(mixed_factor_job(
        4,
        QUANTUM_LEN,
        1,
        rng,
    )))
}

/// The job-population factory a lockstep case arrives jobs from.
type ExecFactory =
    fn(&mut StdRng, Option<Box<dyn JobExecutor + Send>>) -> Box<dyn JobExecutor + Send>;

fn make_controller(abg: bool) -> Box<dyn Controller + Send> {
    if abg {
        Box::new(AControl::new(0.2))
    } else {
        Box::new(AGreedy::new(2.0, 0.8))
    }
}

pub(crate) fn assert_outcome_bits_eq(reference: &OpenOutcome, event: &OpenOutcome) {
    match (reference, event) {
        (OpenOutcome::Steady(r), OpenOutcome::Steady(e)) => {
            assert_eq!(r.response.mean.to_bits(), e.response.mean.to_bits());
            assert_eq!(
                r.response.half_width.to_bits(),
                e.response.half_width.to_bits()
            );
            assert_eq!(r.response.batches, e.response.batches);
            assert_eq!(r.response.batch_size, e.response.batch_size);
            assert_eq!(r.slowdown.p50.to_bits(), e.slowdown.p50.to_bits());
            assert_eq!(r.slowdown.p95.to_bits(), e.slowdown.p95.to_bits());
            assert_eq!(r.slowdown.p99.to_bits(), e.slowdown.p99.to_bits());
            assert_eq!(r.slowdown.max.to_bits(), e.slowdown.max.to_bits());
            assert_eq!(
                (r.completed, r.arrivals, r.quanta, r.horizon),
                (e.completed, e.arrivals, e.quanta, e.horizon)
            );
            assert_eq!(
                r.mean_jobs_in_system.to_bits(),
                e.mean_jobs_in_system.to_bits()
            );
            assert_eq!(r.peak_jobs_in_system, e.peak_jobs_in_system);
            assert_eq!(
                r.measured_utilization.to_bits(),
                e.measured_utilization.to_bits()
            );
        }
        (OpenOutcome::Unstable(r), OpenOutcome::Unstable(e)) => {
            assert_eq!(r, e, "unstable reports diverged");
        }
        (r, e) => panic!("outcome kinds diverged:\n  reference: {r:?}\n  event:     {e:?}"),
    }
}

fn run_case<A, F>(alloc: F, cfg: &OpenConfig, exec: ExecFactory, abg: bool)
where
    A: Allocator + Send,
    F: Fn() -> A + Sync,
{
    let cfg = cfg.clone();

    // Uninstrumented fast path: NullProbe declines the replay, so
    // frozen windows cost O(live) — and the outcome must still match.
    let reference = ReferenceOpenDriver::run(&cfg, alloc(), exec, || make_controller(abg));
    let event = crate::run_open_system(&cfg, alloc(), exec, || make_controller(abg));
    assert_outcome_bits_eq(&reference, &event);

    // One group of the multi-group entry point: first as a fixed
    // partition (one unbounded epoch), then with a short epoch that
    // pauses the group often, which must stay invisible.
    let mut hier = HierOpenConfig {
        open: cfg.clone(),
        groups: 1,
        routing: ShardRouting::RoundRobin,
        realloc_epoch: u64::MAX,
        group_floor: 1,
    };
    let fixed = run_open_hierarchical(
        &hier,
        |_| alloc(),
        exec,
        || make_controller(abg),
        StaticEqui,
    );
    assert_outcome_bits_eq(&reference, &fixed);
    hier.realloc_epoch = 5;
    let hier_static = run_open_hierarchical(
        &hier,
        |_| alloc(),
        exec,
        || make_controller(abg),
        StaticEqui,
    );
    assert_outcome_bits_eq(&reference, &hier_static);
    let hier_desire = run_open_hierarchical(
        &hier,
        |_| alloc(),
        exec,
        || make_controller(abg),
        DesireProportional::new(),
    );
    assert_outcome_bits_eq(&reference, &hier_desire);

    // Probed path: the replay must reproduce the reference hook
    // sequence exactly — completion order and every per-quantum record.
    let (ref_out, ref_probe) = ReferenceOpenDriver::run_probed(
        &cfg,
        alloc(),
        exec,
        || make_controller(abg),
        TraceProbe::new().retaining(),
    );
    let (ev_out, ev_probe) = run_open_system_probed(
        &cfg,
        alloc(),
        exec,
        || make_controller(abg),
        TraceProbe::new().retaining(),
    );
    assert_outcome_bits_eq(&ref_out, &ev_out);
    let ref_traces = ref_probe.completed_traces();
    let ev_traces = ev_probe.completed_traces();
    assert_eq!(
        ref_traces.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        ev_traces.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        "completion order diverged"
    );
    for ((id, r), (_, e)) in ref_traces.iter().zip(ev_traces.iter()) {
        assert_eq!(r, e, "trace of job {id} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn event_driver_matches_reference_bit_for_bit(
        rho in prop_oneof![Just(0.2), Just(0.7), Just(0.95)],
        poisson in (0u8..2).prop_map(|b| b == 1),
        deq in (0u8..2).prop_map(|b| b == 1),
        abg in (0u8..2).prop_map(|b| b == 1),
        seed in 0u64..u64::MAX,
    ) {
        let cfg = config(rho, poisson, seed);
        if deq {
            run_case(|| DynamicEquiPartition::new(PROCESSORS), &cfg, make_executor, abg);
        } else {
            run_case(|| Proportional::new(PROCESSORS), &cfg, make_executor, abg);
        }
    }

    /// High-churn regime: near-saturation load over short jobs, so the
    /// slab core admits and reclaims slots in nearly every quantum —
    /// the storage rewrite's stress case. Saturated seeds compare their
    /// `Unstable` reports bit-for-bit instead.
    #[test]
    fn high_churn_slab_core_matches_reference_bit_for_bit(
        rho in prop_oneof![Just(0.9), Just(0.97)],
        poisson in (0u8..2).prop_map(|b| b == 1),
        deq in (0u8..2).prop_map(|b| b == 1),
        abg in (0u8..2).prop_map(|b| b == 1),
        seed in 0u64..u64::MAX,
    ) {
        let cfg = config_with(rho, poisson, seed, APPROX_SHORT_T1);
        if deq {
            run_case(|| DynamicEquiPartition::new(PROCESSORS), &cfg, make_short_executor, abg);
        } else {
            run_case(|| Proportional::new(PROCESSORS), &cfg, make_short_executor, abg);
        }
    }
}
