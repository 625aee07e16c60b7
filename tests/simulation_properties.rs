//! Property tests over whole simulated runs: conservation laws of the
//! single-job engine, determinism, and multi-job accounting.

use abg_alloc::{DynamicEquiPartition, Scripted};
use abg_control::{AControl, AGreedy, ConstantRequest, Controller};
use abg_dag::{Phase, PhasedJob};
use abg_sched::{JobExecutor, PipelinedExecutor};
use abg_sim::{run_single_job, MultiJobSim, SingleJobConfig};
use proptest::prelude::*;

fn phases() -> impl Strategy<Value = Vec<Phase>> {
    prop::collection::vec((1u64..=12, 1u64..=8), 1..6)
        .prop_map(|v| v.into_iter().map(|(w, l)| Phase::new(w, l)).collect())
}

/// One of the three request calculators, chosen by the case generator.
fn calculator(which: u8) -> Box<dyn Controller + Send> {
    match which % 3 {
        0 => Box::new(AControl::new(0.2)),
        1 => Box::new(AGreedy::paper_default()),
        _ => Box::new(ConstantRequest::new(4.0)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Conservation: the traced quantum statistics add up to the job's
    /// intrinsic work and span; waste equals held cycles minus work;
    /// running time is bounded below by both `T∞` and `T1/P`.
    #[test]
    fn single_job_conservation(ph in phases(), which in 0u8..3, p in 1u32..32, l in 1u64..20) {
        let job = PhasedJob::new(ph);
        let (work, span) = (job.work(), job.span());
        let mut ex = PipelinedExecutor::new(job);
        let mut calc = calculator(which);
        let mut alloc = Scripted::ample(p);
        let run = run_single_job(&mut ex, &mut calc, &mut alloc,
                                 SingleJobConfig::new(l).with_trace());

        prop_assert_eq!(run.work, work);
        prop_assert_eq!(run.span, span);
        let traced_work: u64 = run.trace.iter().map(|r| r.stats.work).sum();
        let traced_span: f64 = run.trace.iter().map(|r| r.stats.span).sum();
        prop_assert_eq!(traced_work, work);
        prop_assert!((traced_span - span as f64).abs() < 1e-6);

        let held: u64 = run.trace.iter()
            .map(|r| r.allotment as u64 * r.stats.quantum_len)
            .sum();
        prop_assert_eq!(run.waste, held - work);

        prop_assert!(run.running_time >= span);
        prop_assert!(run.running_time >= work.div_ceil(p as u64));
        // Every quantum except the last is full.
        for r in &run.trace[..run.trace.len() - 1] {
            prop_assert!(r.stats.is_full(), "non-final quantum not full: {r:?}");
        }
    }

    /// Determinism: identical inputs give identical runs.
    #[test]
    fn single_job_deterministic(ph in phases(), which in 0u8..3) {
        let job = PhasedJob::new(ph);
        let run = |job: PhasedJob| {
            let mut ex = PipelinedExecutor::new(job);
            let mut calc = calculator(which);
            let mut alloc = Scripted::ample(16);
            run_single_job(&mut ex, &mut calc, &mut alloc,
                           SingleJobConfig::new(10).with_trace())
        };
        prop_assert_eq!(run(job.clone()), run(job));
    }

    /// ABG requests stay within `[1, peak parallelism]` on any fork-join
    /// job whose phases hold for at least a quantum — the controller is
    /// a convex combination of past requests and measured parallelisms.
    #[test]
    fn abg_requests_bounded_by_peak(ph in phases(), l in 1u64..20) {
        let job = PhasedJob::new(ph);
        let peak = job.phases().iter().map(|p| p.width).max().unwrap() as f64;
        let mut ex = PipelinedExecutor::new(job);
        let mut calc = AControl::new(0.2);
        let mut alloc = Scripted::ample(64);
        let run = run_single_job(&mut ex, &mut calc, &mut alloc,
                                 SingleJobConfig::new(l).with_trace());
        for r in &run.trace {
            prop_assert!(r.request >= 1.0 - 1e-9, "request {} < 1", r.request);
            prop_assert!(r.request <= peak + 1e-9,
                "request {} exceeds peak parallelism {}", r.request, peak);
        }
    }

    /// Multi-job accounting: every job completes after its release, the
    /// makespan is the max completion, and the machine is never
    /// oversubscribed (total waste + total work ≤ quanta·P·L).
    #[test]
    fn multi_job_accounting(jobs in prop::collection::vec((phases(), 0u64..100), 1..6),
                            p in 2u32..32, l in 2u64..20) {
        let mut sim = MultiJobSim::new(DynamicEquiPartition::new(p), l)
            .with_max_quanta(200_000);
        let mut total_work = 0u64;
        for (ph, release) in &jobs {
            let job = PhasedJob::new(ph.clone());
            total_work += job.work();
            sim.add_job(Box::new(PipelinedExecutor::new(job)),
                        Box::new(AControl::new(0.2)), *release);
        }
        let out = sim.run();
        prop_assert_eq!(out.total_work(), total_work);
        let mut max_completion = 0;
        for j in &out.jobs {
            prop_assert!(j.completion > j.release);
            max_completion = max_completion.max(j.completion);
        }
        prop_assert_eq!(out.makespan, max_completion);
        prop_assert!(out.total_waste + total_work <= out.quanta * p as u64 * l,
            "machine oversubscribed: waste {} + work {} > capacity {}",
            out.total_waste, total_work, out.quanta * p as u64 * l);
    }

    /// The executor's remaining-work view is consistent step by step.
    #[test]
    fn completed_work_monotone(ph in phases(), a in 1u32..16, l in 1u64..10) {
        let job = PhasedJob::new(ph);
        let total = job.work();
        let mut ex = PipelinedExecutor::new(job);
        let mut prev = 0;
        while !ex.is_complete() {
            ex.run_quantum(a, l);
            let done = ex.completed_work();
            prop_assert!(done >= prev);
            prop_assert!(done <= total);
            prev = done;
        }
        prop_assert_eq!(prev, total);
    }
}
