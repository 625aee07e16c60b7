//! Property tests over whole simulated runs: conservation laws of a lone
//! job, determinism, multi-job accounting, the monomorphized multi-job
//! simulator in lockstep with the boxed one, and frozen windows over
//! jobs admitted ahead of their release in lockstep with pure stepping.

use abg_alloc::{DynamicEquiPartition, Scripted};
use abg_control::{AControl, AGreedy, ConstantRequest, Controller};
use abg_dag::{Phase, PhasedJob};
use abg_sched::{JobExecutor, PipelinedExecutor};
use abg_sim::{CompletedJob, MultiJobOutcome, MultiJobSim, NullProbe, QuantumCore};
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

/// A job set: phase lists with their release steps.
type Set = [(Vec<Phase>, u64)];

/// Runs `set` with every job on its own concrete `PipelinedExecutor`
/// under a clone of `ctl`: the monomorphized simulator, untraced or
/// traced.
fn run_mono<C: Controller + Clone>(
    set: &Set,
    p: u32,
    l: u64,
    ctl: &C,
    traced: bool,
) -> MultiJobOutcome {
    let mut sim = MultiJobSim::homogeneous(DynamicEquiPartition::new(p), l);
    for (ph, release) in set {
        sim.add_job(
            PipelinedExecutor::new(PhasedJob::new(ph.clone())),
            ctl.clone(),
            *release,
        );
    }
    if traced {
        sim.with_traces().run()
    } else {
        sim.run()
    }
}

/// The same set through boxed executors and controllers with a
/// `TraceProbe`.
fn run_boxed<C: Controller + Clone + Send + 'static>(
    set: &Set,
    p: u32,
    l: u64,
    ctl: &C,
) -> MultiJobOutcome {
    let mut sim = MultiJobSim::new(DynamicEquiPartition::new(p), l).with_traces();
    for (ph, release) in set {
        sim.add_job(
            Box::new(PipelinedExecutor::new(PhasedJob::new(ph.clone()))),
            Box::new(ctl.clone()),
            *release,
        );
    }
    sim.run()
}

/// Holds the monomorphized runs of one set to the boxed traced run, bit
/// for bit: every `CompletedJob` with an empty trace, makespan, waste and
/// quanta untraced; the whole outcome, traces included, traced.
fn assert_lockstep<C: Controller + Clone + Send + 'static>(set: &Set, p: u32, l: u64, ctl: C) {
    let boxed = run_boxed(set, p, l, &ctl);
    let mono = run_mono(set, p, l, &ctl, false);
    let untraced: Vec<CompletedJob> = boxed
        .jobs
        .iter()
        .map(|j| CompletedJob {
            trace: Vec::new(),
            ..j.clone()
        })
        .collect();
    assert_eq!(mono.jobs, untraced, "untraced: an empty trace per job");
    assert_eq!(
        (mono.makespan, mono.total_waste, mono.quanta),
        (boxed.makespan, boxed.total_waste, boxed.quanta)
    );
    assert_eq!(run_mono(set, p, l, &ctl, true), boxed);
}

/// A drained job's `(id, release, completion, waste, quanta,
/// reallocations)`.
type JobRow = (u64, u64, u64, u64, u64, u64);

/// Runs `set` on a bare `QuantumCore` (DEQ(16), L = 10) with every job
/// admitted up front, ahead of its release, under calculator `which`:
/// stepping each quantum, and after each real quantum advancing a frozen
/// window too when `frozen`. Returns the drained jobs in id order, the
/// final clock and the quanta executed.
fn run_preadmitted(set: &Set, which: u8, frozen: bool) -> (Vec<JobRow>, u64, u64) {
    let mut core: QuantumCore<Box<dyn JobExecutor + Send>, Box<dyn Controller + Send>, _, _> =
        QuantumCore::new(DynamicEquiPartition::new(16), 10, NullProbe);
    for (ph, release) in set {
        let executor = Box::new(PipelinedExecutor::new(PhasedJob::new(ph.clone())));
        core.admit(executor, calculator(which), *release);
    }
    let mut done: Vec<CompletedJob> = Vec::new();
    while core.jobs_in_system() > 0 {
        if !core.any_live() {
            let next = core.next_release().expect("jobs pending");
            assert!(core.skip_idle_until(next), "release within the clock");
            continue;
        }
        core.step_quantum(&mut done);
        if frozen {
            core.advance_frozen(u64::MAX / 1024);
        }
    }
    done.sort_by_key(|c| c.id);
    let jobs = done
        .iter()
        .map(|c| {
            (
                c.id,
                c.release,
                c.completion,
                c.waste,
                c.quanta,
                c.reallocations,
            )
        })
        .collect();
    (jobs, core.now(), core.quanta())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Frozen windows over pre-admitted jobs: releases mid-quantum and
    /// out of id order (so a release can land mid-live-set) must surface
    /// exactly where pure stepping surfaces them.
    #[test]
    fn frozen_windows_match_stepping_with_preadmitted_releases(
        set in prop::collection::vec((phases(), 0u64..400), 1..6),
        which in 0u8..3,
    ) {
        prop_assert_eq!(run_preadmitted(&set, which, true), run_preadmitted(&set, which, false));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lockstep: the monomorphized `MultiJobSim` (concrete executor and
    /// controller, `NullProbe`) reproduces the boxed `TraceProbe` one on
    /// random sets under ABG and A-Greedy, batched or staggered.
    #[test]
    fn monomorphic_multi_job_matches_boxed(
        set in prop::collection::vec((phases(), 0u64..100), 1..7),
        batched in 0u8..2, p in 1u32..40, l in 1u64..25,
    ) {
        let set: Vec<(Vec<Phase>, u64)> = set.into_iter()
            .map(|(ph, r)| (ph, if batched == 1 { 0 } else { r }))
            .collect();
        assert_lockstep(&set, p, l, AControl::paper_default());
        assert_lockstep(&set, p, l, AGreedy::paper_default());
    }

    /// Conservation: the traced quantum statistics add up to the job's
    /// intrinsic work and span; waste equals held cycles minus work;
    /// running time is bounded below by both `T∞` and `T1/P`.
    #[test]
    fn single_job_conservation(ph in phases(), which in 0u8..3, p in 1u32..32, l in 1u64..20) {
        let job = PhasedJob::new(ph);
        let (work, span) = (job.work(), job.span());
        let run = MultiJobSim::homogeneous(Scripted::ample(p), l)
            .with_traces()
            .run_job(PipelinedExecutor::new(job), calculator(which));

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

        prop_assert!(run.response_time() >= span);
        prop_assert!(run.response_time() >= work.div_ceil(p as u64));
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
            MultiJobSim::homogeneous(Scripted::ample(16), 10)
                .with_traces()
                .run_job(PipelinedExecutor::new(job), calculator(which))
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
        let run = MultiJobSim::homogeneous(Scripted::ample(64), l)
            .with_traces()
            .run_job(PipelinedExecutor::new(job), AControl::new(0.2));
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
