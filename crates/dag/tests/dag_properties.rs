//! Property tests for the dag substrate: builder validation, level
//! assignment, and the consistency of the compact and explicit job
//! representations.

use abg_dag::generate::random_layered;
use abg_dag::{DagBuilder, JobStructure, Phase, PhasedJob, TaskId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Brute-force longest-path levels for cross-checking the builder.
fn brute_force_levels(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut level = vec![0u32; n];
    // Bellman-Ford style relaxation; terminates because the input is
    // acyclic (edges only go forward in id order in the generator).
    for _ in 0..n {
        for &(a, b) in edges {
            level[b as usize] = level[b as usize].max(level[a as usize] + 1);
        }
    }
    level
}

/// Random forward-edge dags: edges (a, b) with a < b never form cycles.
fn forward_dags() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..24).prop_flat_map(|n| {
        let edges = prop::collection::vec(
            (0..(n as u32 - 1))
                .prop_flat_map(move |a| ((a + 1)..n as u32).prop_map(move |b| (a, b))),
            0..40,
        );
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The builder's level assignment equals the brute-force longest
    /// path, and level sizes always sum to the work.
    #[test]
    fn builder_levels_are_longest_paths((n, mut edges) in forward_dags()) {
        edges.sort_unstable();
        edges.dedup();
        let mut b = DagBuilder::new();
        b.add_tasks(n);
        for &(x, y) in &edges {
            b.add_edge(TaskId(x), TaskId(y)).expect("forward edges are valid");
        }
        let dag = b.build().expect("forward-edge graphs are acyclic");
        let expected = brute_force_levels(n, &edges);
        for t in dag.tasks() {
            prop_assert_eq!(dag.level(t), expected[t.index()]);
        }
        prop_assert_eq!(dag.level_sizes().iter().sum::<u64>(), dag.work());
        prop_assert_eq!(dag.span(), u64::from(*expected.iter().max().unwrap()) + 1);
    }

    /// Duplicate edges are rejected exactly when they repeat.
    #[test]
    fn duplicate_edges_rejected((n, mut edges) in forward_dags()) {
        edges.sort_unstable();
        edges.dedup();
        prop_assume!(!edges.is_empty());
        let mut b = DagBuilder::new();
        b.add_tasks(n);
        for &(x, y) in &edges {
            b.add_edge(TaskId(x), TaskId(y)).expect("first insertion fine");
        }
        let (x, y) = edges[0];
        prop_assert!(b.add_edge(TaskId(x), TaskId(y)).is_err());
    }

    /// A cycle is always caught at build time.
    #[test]
    fn cycles_always_detected(n in 2usize..16, at in 0usize..14) {
        let at = at % (n - 1);
        let mut b = DagBuilder::new();
        b.add_tasks(n);
        // A forward chain plus one back edge closing a cycle.
        for i in 0..n - 1 {
            b.add_edge(TaskId(i as u32), TaskId(i as u32 + 1)).unwrap();
        }
        b.add_edge(TaskId(at as u32 + 1), TaskId(at as u32)).unwrap();
        prop_assert!(b.build().is_err());
    }

    /// A barrier job and its explicit lowering agree on work, span and
    /// profile, and the lowering is a full barrier: every task of level
    /// `l + 1` depends on every task of level `l`.
    #[test]
    fn representations_agree(runs in prop::collection::vec((1u64..8, 1u64..4), 1..6)) {
        let phases: Vec<Phase> = runs.iter().map(|&(w, k)| Phase::new(w, k)).collect();
        let widths: Vec<u64> = runs
            .iter()
            .flat_map(|&(w, k)| std::iter::repeat_n(w, k as usize))
            .collect();
        let job = PhasedJob::barrier(&phases);
        let dag = job.to_explicit();
        prop_assert_eq!(dag.work(), job.work());
        prop_assert_eq!(dag.span(), job.span());
        prop_assert_eq!(JobStructure::profile(&dag), JobStructure::profile(&job));
        prop_assert_eq!(dag.level_sizes(), &widths[..]);
        for t in dag.tasks() {
            let level = dag.level(t) as usize;
            let want = if level == 0 { 0 } else { widths[level - 1] };
            prop_assert_eq!(u64::from(dag.in_degree(t)), want, "task {} at level {}", t, level);
        }
    }

    /// The transition factor is scale-consistent: measured with the
    /// whole job as one quantum it is exactly the average parallelism
    /// (vs A(0) = 1) or 1/average, whichever exceeds 1.
    #[test]
    fn transition_factor_whole_job(widths in prop::collection::vec(1u64..9, 1..10)) {
        let phases: Vec<Phase> = widths.iter().map(|&w| Phase::new(w, 1)).collect();
        let job = PhasedJob::barrier(&phases);
        let c = job.transition_factor(job.span());
        let avg = job.average_parallelism();
        let expected = if avg >= 1.0 { avg } else { 1.0 / avg };
        prop_assert!((c - expected).abs() < 1e-9, "c = {c}, expected {expected}");
    }

    /// `random_layered` always produces dags whose span equals the
    /// requested layer count and whose every non-source task has at
    /// least one predecessor.
    #[test]
    fn random_layered_well_formed(seed in 0u64..500, layers in 1u32..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dag = random_layered(&mut rng, layers, 1..=4, 0.25);
        prop_assert_eq!(dag.span(), u64::from(layers));
        for t in dag.tasks() {
            if dag.level(t) > 0 {
                prop_assert!(dag.in_degree(t) >= 1);
            }
        }
        let sources = dag.sources().count() as u64;
        prop_assert_eq!(sources, dag.level_sizes()[0]);
    }
}
