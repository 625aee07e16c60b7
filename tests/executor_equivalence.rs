//! Property tests: the fast-forward executors are step-exact replicas
//! of per-task B-Greedy execution, and every greedy variant respects
//! the classical greedy-scheduling bounds.

use abg_dag::{generate, ExplicitDag, Phase, PhasedJob, TaskId};
use abg_sched::queue::{BreadthFirstQueue, FifoQueue, LifoQueue};
use abg_sched::{
    BGreedyExecutor, DagExecutor, DepthFirstExecutor, GreedyExecutor, JobExecutor,
    PipelinedExecutor, ReadyQueue, ReferenceExecutor,
};
use proptest::prelude::*;

/// Arbitrary small phase lists (fork-join shaped: widths ≥ 1).
fn phases() -> impl Strategy<Value = Vec<Phase>> {
    prop::collection::vec((1u64..=9, 1u64..=6), 1..6)
        .prop_map(|v| v.into_iter().map(|(w, l)| Phase::new(w, l)).collect())
}

/// Arbitrary allotment schedules.
fn allotments() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(1u32..=12, 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The pipelined fast path reproduces per-task B-Greedy execution
    /// on the lowered dag, quantum by quantum.
    #[test]
    fn pipelined_matches_per_task(phases in phases(), allots in allotments(), l in 1u64..8) {
        let job = PhasedJob::new(phases);
        let dag = job.to_explicit();
        let mut fast = PipelinedExecutor::new(job);
        let mut slow = BGreedyExecutor::new(&dag);
        for &a in &allots {
            let f = fast.run_quantum(a, l);
            let s = slow.run_quantum(a, l);
            prop_assert_eq!(f.work, s.work);
            prop_assert!((f.span - s.span).abs() < 1e-9, "{} vs {}", f.span, s.span);
            prop_assert_eq!(f.steps_worked, s.steps_worked);
            prop_assert_eq!(f.completed, s.completed);
            if fast.is_complete() { break; }
        }
    }

    /// The same fast path on barrier jobs (one-level phases) reproduces
    /// per-task B-Greedy on their lowering.
    #[test]
    fn leveled_matches_per_task(phases in phases(), allots in allotments(), l in 1u64..8) {
        let job = PhasedJob::barrier(&phases);
        let dag = job.to_explicit();
        let mut fast = PipelinedExecutor::new(job);
        let mut slow = BGreedyExecutor::new(&dag);
        for &a in &allots {
            let f = fast.run_quantum(a, l);
            let s = slow.run_quantum(a, l);
            prop_assert_eq!(f.work, s.work);
            prop_assert!((f.span - s.span).abs() < 1e-9);
            prop_assert_eq!(f.steps_worked, s.steps_worked);
            if fast.is_complete() { break; }
        }
    }

    /// Every greedy variant completes any dag within the Graham/Brent
    /// bound `T ≤ T1/a + T∞` at a fixed allotment, and the accumulated
    /// quantum statistics equal the job's intrinsic totals.
    #[test]
    fn greedy_bound_and_totals(seed in 0u64..1000, a in 1u32..10) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dag = generate::random_layered(&mut rng, 6, 1..=5, 0.3);
        let bound = dag.work() as f64 / a as f64 + dag.span() as f64;

        for variant in 0..3 {
            let (steps, work, span) = match variant {
                0 => drive(BGreedyExecutor::new(&dag), a),
                1 => drive(GreedyExecutor::new(&dag), a),
                _ => drive(DepthFirstExecutor::new(&dag), a),
            };
            prop_assert!(steps as f64 <= bound + 1e-9,
                "variant {variant}: T = {steps} > {bound}");
            prop_assert_eq!(work, dag.work());
            prop_assert!((span - dag.span() as f64).abs() < 1e-9,
                "variant {variant}: span sum {} vs {}", span, dag.span());
        }
    }

    /// Quantum work is conserved: a quantum never reports more work
    /// than `a·L`, and the paper's Inequality (5) holds up to its
    /// boundary correction: `α(q) + β(q) ≥ 1 − 2/L` on full
    /// non-completing quanta.
    ///
    /// The exact `α + β ≥ 1` of the paper fails by up to `2/L` when a
    /// quantum straddles level/phase tails: a step that finishes a level
    /// started in an *earlier* quantum is an "incomplete" greedy step
    /// but earns only the level's residual fraction of span credit (and
    /// symmetrically at the quantum's end). The deficit vanishes as
    /// `L → ∞`, leaving the paper's asymptotic analysis intact; see
    /// EXPERIMENTS.md.
    #[test]
    fn efficiency_inequality_holds(phases in phases(), a in 1u32..10, l in 1u64..12) {
        let job = PhasedJob::new(phases);
        let mut ex = PipelinedExecutor::new(job);
        while !ex.is_complete() {
            let s = ex.run_quantum(a, l);
            prop_assert!(s.work <= a as u64 * l);
            if s.is_full() && !s.completed {
                let alpha = s.work_efficiency().expect("a > 0");
                let beta = s.span_efficiency().expect("l > 0");
                prop_assert!(alpha + beta >= 1.0 - 2.0 / l as f64 - 1e-9,
                    "α = {alpha}, β = {beta} on a full quantum with L = {l}");
            }
        }
    }

    /// The same corrected inequality on barrier jobs.
    #[test]
    fn efficiency_inequality_holds_barrier(phases in phases(), a in 1u32..10, l in 1u64..12) {
        let job = PhasedJob::barrier(&phases);
        let mut ex = PipelinedExecutor::new(job);
        while !ex.is_complete() {
            let s = ex.run_quantum(a, l);
            if s.is_full() && !s.completed {
                let alpha = s.work_efficiency().expect("a > 0");
                let beta = s.span_efficiency().expect("l > 0");
                prop_assert!(alpha + beta >= 1.0 - 2.0 / l as f64 - 1e-9,
                    "α = {alpha}, β = {beta} on a full quantum with L = {l}");
            }
        }
    }

    /// The macro-stepping kernel is *bit-identical* to the naive
    /// per-step reference kernel — same work, same steps, same span down
    /// to the last ulp (the reference's per-task `1.0 / size` divisions
    /// are exactly the optimised kernel's reciprocal-table reads, added
    /// in the same pop order) — on random layered dags under random
    /// allotment/quantum-length schedules, for every queue discipline.
    /// Zero-allotment quanta are included: both kernels must treat them
    /// as pure no-ops.
    #[test]
    fn macro_kernel_bit_identical_to_reference(
        seed in 0u64..1000,
        sched in prop::collection::vec((0u32..=12, 1u64..=16), 1..40),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dag = generate::random_layered(&mut rng, 6, 1..=5, 0.3);
        lockstep::<BreadthFirstQueue>(&dag, &sched);
        lockstep::<FifoQueue>(&dag, &sched);
        lockstep::<LifoQueue>(&dag, &sched);
    }

    /// The wide-frontier bulk kernel is bit-identical to the reference
    /// on the canonical fork-join shapes, each of which pins a different
    /// kernel regime: the binary fork tree drives the structural fast
    /// path (forest, unit edges, contiguous id runs), the chain bundle
    /// the steady saturated path with live join in-degrees, the diamond
    /// wide straddling steps, nested series-parallel graphs mix every
    /// regime with skip-level edges, and the pure serial chain drives
    /// the macro-stepped serial segment. Allotments range up to 48 so
    /// quanta cross the saturated/straddling boundary both ways, and all
    /// three queue disciplines run the same schedule.
    #[test]
    fn macro_kernel_bit_identical_on_forkjoin_shapes(
        shape in 0usize..5,
        seed in 0u64..200,
        sched in prop::collection::vec((0u32..=48, 1u64..=16), 1..30),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dag = match shape {
            0 => generate::binary_fork_tree(7),
            1 => generate::chain_bundle(6, 9),
            2 => generate::fork_join_diamond(37),
            3 => generate::series_parallel(&mut rng, 60, 4, 0.4),
            _ => generate::chain(120),
        };
        lockstep::<BreadthFirstQueue>(&dag, &sched);
        lockstep::<FifoQueue>(&dag, &sched);
        lockstep::<LifoQueue>(&dag, &sched);
    }

    /// Reset-then-rerun bit-identity: running a dag through a reset
    /// executor replays the exact per-quantum statistics (span compared
    /// by bit pattern) and slot lists of both the executor's own first
    /// run and a freshly constructed one — reset is observationally
    /// equivalent to construction. Each case runs a unit dag and a
    /// weighted one, whose first run may end with tasks in progress.
    #[test]
    fn reset_rerun_is_bit_identical(
        seed in 0u64..300,
        wseed in 0u64..300,
        sched in prop::collection::vec((0u32..=12, 1u64..=16), 1..30),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let unit = generate::random_layered(&mut rng, 6, 1..=5, 0.3);
        for dag in [unit, weighted_layered(seed, wseed, 48)] {
            let mut ex = BGreedyExecutor::new(&dag);
            let first = trace(&mut ex, &sched);
            prop_assert!(ex.try_reset());
            let again = trace(&mut ex, &sched);
            let fresh = trace(&mut BGreedyExecutor::new(&dag), &sched);
            prop_assert_eq!(&first, &again, "reset diverged from first run");
            prop_assert_eq!(&first, &fresh, "reset diverged from fresh construction");
        }
    }

    /// The event-driven weighted kernel is bit-identical to the
    /// per-step weighted reference on random layered dags under random
    /// half-integer weight tables, allotment/quantum-length schedules
    /// and every queue discipline, with the slot lists (finish times
    /// converted back to residuals) equal after every quantum. Each case
    /// runs two weight tables of the same dag, one with short costs
    /// (1 to 4, Montage-like) and one with costs up to 24 against quanta
    /// of at most 16 steps, so tasks routinely straddle quantum
    /// boundaries; each under the drawn schedule as is and under one
    /// where every quantum is followed by one at a quarter of its
    /// allotment, so running tasks pause and later resume. Every run is
    /// then reset and replayed, so the replay reads the span-share table.
    /// The weight tables always contain at least one non-unit entry, so
    /// both executors take their weighted paths (the unit shortcut is
    /// pinned separately below).
    #[test]
    fn weighted_kernel_bit_identical_to_reference(
        seed in 0u64..500,
        wseed in 0u64..500,
        sched in prop::collection::vec((0u32..=12, 1u64..=16), 1..40),
    ) {
        let paused: Vec<(u32, u64)> = sched
            .iter()
            .flat_map(|&(a, l)| [(a, l), (1 + a / 4, l)])
            .collect();
        for max_half in [8, 48] {
            for sched in [&sched, &paused] {
                // A fresh dag per run, so that every first pass computes
                // its shares and every second pass reads the table its
                // reset built.
                let dag = || weighted_layered(seed, wseed, max_half);
                lockstep::<BreadthFirstQueue>(&dag(), sched);
                lockstep::<FifoQueue>(&dag(), sched);
                lockstep::<LifoQueue>(&dag(), sched);
            }
        }
    }

    /// An all-unit weight table is observationally identical to having
    /// no table at all: the build detects it, routes the unit fast
    /// path, and every per-quantum statistic matches bit for bit.
    #[test]
    fn unit_weight_table_matches_no_table_bit_for_bit(
        seed in 0u64..300,
        sched in prop::collection::vec((0u32..=12, 1u64..=16), 1..30),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let bare = generate::random_layered(&mut rng, 6, 1..=5, 0.3);
        let tabled = bare.clone().with_uniform_weight(1.0).expect("unit weights");
        prop_assert!(tabled.is_unit_weight());
        let mut plain = BGreedyExecutor::new(&bare);
        let mut unit: DagExecutor<&ExplicitDag, BreadthFirstQueue> = DagExecutor::new(&tabled);
        let first = trace(&mut plain, &sched);
        let second = trace(&mut unit, &sched);
        prop_assert_eq!(first, second, "unit table diverged from no table");
    }

    /// Driven to completion, the weighted kernels agree on the totals:
    /// completed work is the sum of integer task costs and the
    /// accumulated fractional span reproduces the weighted span exactly.
    #[test]
    fn weighted_kernel_completes_like_reference(
        seed in 0u64..200, wseed in 0u64..200, a in 1u32..10, l in 1u64..20,
    ) {
        use rand::{RngExt as _, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let base = generate::random_layered(&mut rng, 5, 1..=6, 0.4);
        let mut wrng = rand::rngs::StdRng::seed_from_u64(wseed);
        let mut weights: Vec<f64> = (0..base.num_tasks())
            .map(|_| wrng.random_range(1..=7u64) as f64 * 0.5)
            .collect();
        weights[0] = 1.5;
        let dag = base.with_weights(weights).expect("finite positive weights");
        let mut fast = BGreedyExecutor::new(&dag);
        let mut slow: ReferenceExecutor<&ExplicitDag, BreadthFirstQueue> =
            ReferenceExecutor::new(&dag);
        let mut fast_span = 0.0f64;
        let mut slow_span = 0.0f64;
        while !fast.is_complete() {
            fast_span += fast.run_quantum(a, l).span;
            slow_span += slow.run_quantum(a, l).span;
        }
        prop_assert!(slow.is_complete());
        prop_assert_eq!(fast.elapsed_steps(), slow.elapsed_steps());
        prop_assert_eq!(fast.completed_work(), dag.work());
        prop_assert_eq!(fast_span.to_bits(), slow_span.to_bits(),
            "accumulated span {} vs {}", fast_span, slow_span);
        prop_assert!((fast_span - dag.weighted_span() as f64).abs() < 1e-9,
            "span sum {} vs weighted span {}", fast_span, dag.weighted_span());
    }

    /// Driven to completion with generous quanta, both kernels agree on
    /// the totals and on completing at all.
    #[test]
    fn macro_kernel_completes_like_reference(seed in 0u64..500, a in 1u32..10, l in 1u64..20) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dag = generate::random_layered(&mut rng, 5, 1..=6, 0.4);
        let mut fast = BGreedyExecutor::new(&dag);
        let mut slow: ReferenceExecutor<&ExplicitDag, BreadthFirstQueue> =
            ReferenceExecutor::new(&dag);
        let mut fast_span = 0.0f64;
        let mut slow_span = 0.0f64;
        while !fast.is_complete() {
            fast_span += fast.run_quantum(a, l).span;
            slow_span += slow.run_quantum(a, l).span;
        }
        prop_assert!(slow.is_complete());
        prop_assert_eq!(fast.elapsed_steps(), slow.elapsed_steps());
        prop_assert_eq!(fast.completed_work(), dag.work());
        prop_assert_eq!(fast_span.to_bits(), slow_span.to_bits(),
            "accumulated span {} vs {}", fast_span, slow_span);
        prop_assert!((fast_span - dag.span() as f64).abs() < 1e-9);
    }
}

/// A random layered dag with a half-integer weight table: weights 0.5
/// to `max_half / 2`, so integer costs 1 to `max_half / 2` (task 0 is
/// pinned to 2.5, so the table is never all-unit).
fn weighted_layered(seed: u64, wseed: u64, max_half: u64) -> ExplicitDag {
    use rand::{RngExt as _, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let base = generate::random_layered(&mut rng, 6, 1..=5, 0.3);
    let mut wrng = rand::rngs::StdRng::seed_from_u64(wseed);
    let mut weights: Vec<f64> = (0..base.num_tasks())
        .map(|_| wrng.random_range(1..=max_half) as f64 * 0.5)
        .collect();
    weights[0] = 2.5;
    let dag = base.with_weights(weights).expect("finite positive weights");
    assert!(!dag.is_unit_weight());
    dag
}

/// Runs the optimised and reference kernels in lockstep over the same
/// quantum schedule and asserts bit-identical [`abg_sched::QuantumStats`]
/// plus matching executor-level counters and in-progress slot lists
/// after every quantum. Both executors are then reset and run the
/// schedule again: on a weighted dag the reset builds the span-share
/// table, so the second pass checks the kernel's table path against the
/// reference, which computes every share itself.
fn lockstep<Q: ReadyQueue>(dag: &ExplicitDag, sched: &[(u32, u64)]) {
    let mut fast: DagExecutor<&ExplicitDag, Q> = DagExecutor::new(dag);
    let mut slow: ReferenceExecutor<&ExplicitDag, Q> = ReferenceExecutor::new(dag);
    lockstep_pass(&mut fast, &mut slow, sched);
    fast.reset();
    slow.reset();
    if !dag.is_unit_weight() {
        assert!(
            dag.weight_profile().unwrap().span_shares().is_some(),
            "a reset leaves the span-share table unbuilt"
        );
    }
    lockstep_pass(&mut fast, &mut slow, sched);
}

/// One pass of [`lockstep`] over `sched`.
fn lockstep_pass<Q: ReadyQueue>(
    fast: &mut DagExecutor<&ExplicitDag, Q>,
    slow: &mut ReferenceExecutor<&ExplicitDag, Q>,
    sched: &[(u32, u64)],
) {
    for &(a, l) in sched {
        let f = fast.run_quantum(a, l);
        let s = slow.run_quantum(a, l);
        assert_eq!(f.allotment, s.allotment);
        assert_eq!(f.quantum_len, s.quantum_len);
        assert_eq!(f.work, s.work, "work diverged at (a={a}, l={l})");
        assert_eq!(
            f.steps_worked, s.steps_worked,
            "steps diverged at (a={a}, l={l})"
        );
        assert_eq!(
            f.span.to_bits(),
            s.span.to_bits(),
            "span diverged at (a={a}, l={l}): {} vs {}",
            f.span,
            s.span
        );
        assert_eq!(f.completed, s.completed);
        assert_eq!(fast.completed_work(), slow.completed_work());
        assert_eq!(fast.elapsed_steps(), slow.elapsed_steps());
        assert_eq!(fast.is_complete(), slow.is_complete());
        assert_eq!(
            fast.in_progress(),
            slow.in_progress(),
            "slots diverged at (a={a}, l={l})"
        );
    }
}

/// One quantum's observable record: (work, steps worked, span bit
/// pattern, completed), then the executor's completed work, elapsed
/// steps and in-progress slots after it.
type QuantumRecord = (u64, u64, u64, bool, u64, u64, Vec<(TaskId, u64)>);

/// Replays a quantum schedule and returns its per-quantum
/// [`QuantumRecord`]s.
fn trace<D, Q>(ex: &mut DagExecutor<D, Q>, sched: &[(u32, u64)]) -> Vec<QuantumRecord>
where
    D: std::borrow::Borrow<ExplicitDag>,
    Q: ReadyQueue,
{
    sched
        .iter()
        .map(|&(a, l)| {
            let s = ex.run_quantum(a, l);
            (
                s.work,
                s.steps_worked,
                s.span.to_bits(),
                s.completed,
                ex.completed_work(),
                ex.elapsed_steps(),
                ex.in_progress().to_vec(),
            )
        })
        .collect()
}

/// Runs a job to completion at a fixed allotment; returns (steps,
/// total work, accumulated fractional span).
fn drive<E: JobExecutor>(mut ex: E, a: u32) -> (u64, u64, f64) {
    let mut span = 0.0;
    while !ex.is_complete() {
        let s = ex.run_quantum(a, 7);
        span += s.span;
    }
    (ex.elapsed_steps(), ex.completed_work(), span)
}
