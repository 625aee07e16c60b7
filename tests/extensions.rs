//! Integration tests for the beyond-the-paper extensions: the
//! work-stealing substrate, the adaptive quantum policy, the governed
//! convergence rate — all exercised through the same two-level
//! simulation as the core reproduction.

use abg::prelude::*;
use abg_control::AdaptiveRateControl;
use abg_sim::{AdaptiveQuantum, FixedQuantum};
use abg_steal::{abp_request, ASteal, StealExecutor};
use proptest::prelude::*;

fn forkjoin(width: u64) -> PhasedJob {
    PhasedJob::new(vec![
        Phase::new(1, 60),
        Phase::new(width, 200),
        Phase::new(1, 40),
        Phase::new(width, 200),
        Phase::new(1, 60),
    ])
}

/// Work stealing completes the same jobs as the centralized executors
/// with the same work/span accounting.
#[test]
fn steal_executor_accounting_matches_intrinsics() {
    let job = forkjoin(8);
    let dag = job.to_explicit();
    let mut ex = StealExecutor::new(&dag, 11);
    let mut span = 0.0;
    while !ex.is_complete() {
        let s = ex.run_quantum(6, 25);
        span += s.span;
    }
    assert_eq!(ex.completed_work(), job.work());
    assert!((span - job.span() as f64).abs() < 1e-9);
}

/// The full two-level loop over the stealing substrate: A-Steal asks
/// for far less than ABP during serial phases.
#[test]
fn asteal_releases_processors_in_serial_phases() {
    let job = forkjoin(16);
    let dag = job.to_explicit();

    let run = |calc: Box<dyn Controller + Send>| {
        MultiJobSim::homogeneous(Scripted::ample(32), 50)
            .with_traces()
            .run_job(StealExecutor::new(&dag, 23), calc)
    };
    let asteal = run(Box::new(ASteal::paper_default()));
    let abp = run(Box::new(abp_request(32)));

    // ABP holds 32 processors every quantum; A-Steal's mean allotment
    // must be well below that.
    let mean_allot = |r: &CompletedJob| {
        r.trace.iter().map(|q| q.allotment as f64).sum::<f64>() / r.trace.len() as f64
    };
    assert!(mean_allot(&abp) > 31.0);
    assert!(
        mean_allot(&asteal) < 20.0,
        "A-Steal mean allotment {}",
        mean_allot(&asteal)
    );
    assert!(
        abp.waste > 2 * asteal.waste,
        "{} vs {}",
        abp.waste,
        asteal.waste
    );
}

/// The adaptive quantum pacer dominates the fixed pacers on the
/// quanta-versus-quality frontier for phase-structured jobs. Pacing is
/// now a property of the unified `Controller` — the paced controller is
/// just another controller, even behind a `Box<dyn>`.
#[test]
fn adaptive_quantum_frontier() {
    let job = forkjoin(12);
    let run = |pacer: AdaptiveQuantum| {
        // Boxed on purpose: the quantum-length hooks must survive
        // dynamic dispatch for heterogeneous engines.
        let ctl: Box<dyn Controller + Send> = Box::new(pacer.pace(AControl::new(0.2)));
        MultiJobSim::homogeneous(Scripted::ample(64), 25)
            .run_job(PipelinedExecutor::new(job.clone()), ctl)
    };
    let short = run(FixedQuantum(25).into());
    let long = run(FixedQuantum(400).into());
    let adaptive = run(AdaptiveQuantum::new(25, 400, 0.05));

    assert!(
        adaptive.quanta < short.quanta,
        "{} vs {}",
        adaptive.quanta,
        short.quanta
    );
    assert!(
        adaptive.response_time() <= long.response_time(),
        "{} vs {}",
        adaptive.response_time(),
        long.response_time()
    );
}

/// The governed rate keeps the Theorem-4 precondition without giving up
/// single-job quality.
#[test]
fn governed_rate_end_to_end() {
    let job = forkjoin(24);
    let mut ctl = AdaptiveRateControl::new(0.2, 0.9);
    let run = MultiJobSim::homogeneous(Scripted::ample(64), 50)
        .run_job(PipelinedExecutor::new(job), &mut ctl);
    // Quanta blend the serial and parallel phases, so the measured
    // factor is well below the width-24 peak but still far above 1.
    assert!(
        ctl.estimated_factor() >= 3.0,
        "Ĉ_L = {}",
        ctl.estimated_factor()
    );
    assert!(ctl.effective_rate() * ctl.estimated_factor() < 1.0);
    assert!(run.time_over_span() < 1.6);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Work stealing completes arbitrary layered dags (no deadlock or
    /// livelock) within the classic bound, for any allotment schedule.
    #[test]
    fn stealing_always_completes(seed in 0u64..200, a in 1u32..12) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dag = abg_dag::generate::random_layered(&mut rng, 5, 1..=5, 0.3);
        let mut ex = StealExecutor::new(&dag, seed ^ 0xF00D);
        let mut guard = 0u64;
        while !ex.is_complete() {
            ex.run_quantum(a, 8);
            guard += 1;
            prop_assert!(guard < 10_000, "no livelock allowed");
        }
        prop_assert_eq!(ex.completed_work(), dag.work());
    }

    /// The adaptive quantum pacer always stays within its bounds and
    /// the run completes with conserved work.
    #[test]
    fn adaptive_quantum_respects_bounds(widths in prop::collection::vec(1u64..10, 1..5),
                                        min_exp in 0u32..3) {
        let min = 5u64 << min_exp;
        let max = min * 8;
        let phases: Vec<Phase> = widths.iter().map(|&w| Phase::new(w, 20)).collect();
        let job = PhasedJob::new(phases);
        let total = job.work();
        let run = MultiJobSim::homogeneous(Scripted::ample(32), min)
            .with_traces()
            .run_job(
                PipelinedExecutor::new(job),
                AdaptiveQuantum::new(min, max, 0.05).pace(AControl::new(0.2)),
            );
        prop_assert_eq!(run.work, total);
        for r in &run.trace {
            prop_assert!(r.stats.quantum_len >= min && r.stats.quantum_len <= max,
                "quantum length {} outside [{min}, {max}]", r.stats.quantum_len);
        }
    }
}
