//! Job generators: canonical small graphs for tests and examples, plus
//! randomized fork-join and layered-dag generators used by the workload
//! crate.

use crate::explicit::{DagBuilder, ExplicitDag};
use crate::phased::{Phase, PhasedJob};
use crate::TaskId;
use rand::{Rng, RngExt as _};
use std::ops::RangeInclusive;

/// A serial chain of `n` unit tasks.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn chain(n: u32) -> ExplicitDag {
    assert!(n > 0, "a chain needs at least one task");
    let mut b = DagBuilder::with_capacity(n as usize);
    let first = b.add_tasks(n as usize);
    for i in 0..n - 1 {
        b.add_edge(TaskId(first.0 + i), TaskId(first.0 + i + 1))
            .expect("chain edges are valid");
    }
    b.build().expect("chain is acyclic")
}

/// A fork-join diamond: one source forking to `width` parallel tasks that
/// join into one sink (`width + 2` tasks, span 3).
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn fork_join_diamond(width: u32) -> ExplicitDag {
    assert!(width > 0, "fork width must be positive");
    let mut b = DagBuilder::with_capacity(width as usize + 2);
    let src = b.add_task();
    let mid = b.add_tasks(width as usize);
    let sink = b.add_task();
    for i in 0..width {
        let m = TaskId(mid.0 + i);
        b.add_edge(src, m).expect("valid");
        b.add_edge(m, sink).expect("valid");
    }
    b.build().expect("diamond is acyclic")
}

/// A complete binary out-tree of the given `depth` (a `2^depth - 1`-task
/// divide phase); depth 1 is a single task.
///
/// # Panics
///
/// Panics if `depth == 0` or `depth > 31`.
pub fn binary_fork_tree(depth: u32) -> ExplicitDag {
    assert!(depth > 0 && depth <= 31, "depth must be in 1..=31");
    let n = (1u32 << depth) - 1;
    let mut b = DagBuilder::with_capacity(n as usize);
    b.add_tasks(n as usize);
    // Heap-style indexing: children of i are 2i+1 and 2i+2.
    for i in 0..n {
        for c in [2 * i + 1, 2 * i + 2] {
            if c < n {
                b.add_edge(TaskId(i), TaskId(c)).expect("valid");
            }
        }
    }
    b.build().expect("tree is acyclic")
}

/// A bundle of `width` independent chains of `levels` unit tasks each —
/// a job whose parallelism is *pipelined*: as long as more than `levels`
/// steps remain, exactly `width` tasks are ready every step, so any
/// allotment `a ≤ width` achieves full utilization.
///
/// This is the natural model of the paper's "synthetic job with constant
/// parallelism" (Figures 1 and 4): unlike a barrier-leveled job of the
/// same width profile, processor counts that do not divide `width` lose
/// nothing at level boundaries.
///
/// # Panics
///
/// Panics if `width == 0` or `levels == 0`.
pub fn chain_bundle(width: u32, levels: u32) -> ExplicitDag {
    assert!(width > 0 && levels > 0, "bundle must be non-empty");
    let mut b = DagBuilder::with_capacity((width as usize) * (levels as usize));
    for _ in 0..width {
        let mut prev = b.add_task();
        for _ in 1..levels {
            let next = b.add_task();
            b.add_edge(prev, next).expect("valid");
            prev = next;
        }
    }
    b.build().expect("chain bundle is acyclic")
}

/// The scenario behind the paper's Figure 2: a job on which B-Greedy's
/// fractional quantum statistics come out to `T1(q) = 12`,
/// `T∞(q) = 0.8 + 1 + 0.6 = 2.4` and hence `A(q) = 5`.
///
/// The job is one source task forking into five independent 3-task chains
/// (levels of sizes `[1, 5, 5, 5]`). Execute it with allotment 1 for the
/// first two steps (completing the source and one chain head), then run a
/// quantum of 3 steps with allotment 4: that quantum completes 4 tasks of
/// level 1 (fraction 0.8), all 5 of level 2 (1.0) and 3 of level 3 (0.6).
pub fn figure2_job() -> ExplicitDag {
    let chains = 5u32;
    let chain_len = 3u32;
    let mut b = DagBuilder::with_capacity(1 + (chains * chain_len) as usize);
    let src = b.add_task();
    for _ in 0..chains {
        let head = b.add_task();
        b.add_edge(src, head).expect("valid");
        let mut prev = head;
        for _ in 1..chain_len {
            let next = b.add_task();
            b.add_edge(prev, next).expect("valid");
            prev = next;
        }
    }
    b.build().expect("figure-2 job is acyclic")
}

/// Specification of a randomized data-parallel fork-join job, the
/// workload class of the paper's Section 7: alternating serial phases
/// (width 1) and parallel phases (width `w`), starting and ending with a
/// serial phase.
///
/// The *transition factor* of the generated job is governed by `width`
/// ("we generate jobs with different transition factors by varying the
/// level of parallelism in the parallel phases"), while `serial_levels`
/// and `parallel_levels` vary the work and critical-path length at a
/// fixed factor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForkJoinSpec {
    /// Length (in levels) of each serial phase, sampled uniformly.
    pub serial_levels: RangeInclusive<u64>,
    /// Length (in levels) of each parallel phase, sampled uniformly.
    pub parallel_levels: RangeInclusive<u64>,
    /// Width of each parallel phase, sampled uniformly.
    pub width: RangeInclusive<u64>,
    /// Number of (serial, parallel) phase pairs; a trailing serial phase
    /// closes the job.
    pub pairs: u64,
}

impl ForkJoinSpec {
    /// A paper-style spec targeting transition factor `c` on a machine
    /// with quantum length `quantum_levels` (levels per full quantum of
    /// the reference schedule): every parallel phase has width exactly
    /// `c`, and phase lengths are whole multiples of the quantum so that
    /// quantum averages alternate cleanly between `≈1` and `≈c`.
    ///
    /// Serial phases last 1–2 quanta and parallel phases 3–6: a
    /// feedback scheduler necessarily wastes roughly one quantum's worth
    /// of processors at every parallel→serial drop (it cannot see the
    /// drop coming), so parallel phases lasting several quanta are what
    /// separate a stable scheduler (pays the drop once) from an
    /// oscillating one (keeps paying inside the phase) — the regime the
    /// paper's Figure 5 operates in.
    ///
    /// # Panics
    ///
    /// Panics if `c == 0`, `quantum_levels == 0`, or `pairs == 0`.
    pub fn with_transition_factor(c: u64, quantum_levels: u64, pairs: u64) -> Self {
        assert!(c > 0 && quantum_levels > 0 && pairs > 0);
        Self {
            serial_levels: quantum_levels..=2 * quantum_levels,
            parallel_levels: 3 * quantum_levels..=6 * quantum_levels,
            width: c..=c,
            pairs,
        }
    }

    /// Samples a job from the spec with pipelined-phase semantics — the
    /// default model for the paper's data-parallel workloads (see
    /// [`PhasedJob`]).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> PhasedJob {
        PhasedJob::new(self.sample_phases(rng))
    }

    /// Samples the phase list (exposed so callers can inspect or perturb
    /// the phase structure before building the job, or read it with
    /// barrier semantics through [`PhasedJob::barrier`]).
    pub fn sample_phases<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Phase> {
        assert!(self.pairs > 0, "a job needs at least one phase pair");
        let mut phases = Vec::with_capacity(2 * self.pairs as usize + 1);
        for _ in 0..self.pairs {
            phases.push(Phase::new(1, rng.random_range(self.serial_levels.clone())));
            phases.push(Phase::new(
                rng.random_range(self.width.clone()),
                rng.random_range(self.parallel_levels.clone()),
            ));
        }
        phases.push(Phase::new(1, rng.random_range(self.serial_levels.clone())));
        phases
    }
}

/// Generates a random series-parallel dag by recursive composition:
/// with probability `series_prob` a sub-dag of budget `n` splits into
/// two sequential halves, otherwise into `2..=max_branch` parallel
/// branches; a budget of 1 is a single task. Series-parallel graphs are
/// the closure of fork-join programs under nesting — richer than the
/// flat phase model but still structured, which makes them a good
/// stress input for the schedulers.
///
/// The construction adds one fork task ahead of parallel branches and
/// one join task after, so the generated dag has a unique source and a
/// unique sink.
///
/// # Panics
///
/// Panics if `budget == 0`, `max_branch < 2`, or `series_prob` is
/// outside `[0, 1]`.
pub fn series_parallel<R: Rng + ?Sized>(
    rng: &mut R,
    budget: u32,
    max_branch: u32,
    series_prob: f64,
) -> ExplicitDag {
    assert!(budget > 0, "need a positive task budget");
    assert!(
        max_branch >= 2,
        "parallel composition needs at least 2 branches"
    );
    assert!(
        (0.0..=1.0).contains(&series_prob),
        "probability must be in [0, 1]"
    );
    let mut b = DagBuilder::new();
    let (_, _) = sp_build(rng, &mut b, budget, max_branch, series_prob);
    b.build().expect("series-parallel graphs are acyclic")
}

/// Recursively builds a series-parallel block; returns (entry, exit).
fn sp_build<R: Rng + ?Sized>(
    rng: &mut R,
    b: &mut DagBuilder,
    budget: u32,
    max_branch: u32,
    series_prob: f64,
) -> (TaskId, TaskId) {
    if budget <= 1 {
        let t = b.add_task();
        return (t, t);
    }
    if rng.random_bool(series_prob) {
        // Series: left ; right.
        let left_budget = rng.random_range(1..budget);
        let (entry, mid) = sp_build(rng, b, left_budget, max_branch, series_prob);
        let (mid2, exit) = sp_build(rng, b, budget - left_budget, max_branch, series_prob);
        b.add_edge(mid, mid2).expect("series edge is fresh");
        (entry, exit)
    } else {
        // Parallel: fork -> branches -> join.
        let branches = rng.random_range(2..=max_branch.min(budget.max(2)));
        let fork = b.add_task();
        let join = b.add_task();
        let mut remaining = budget;
        for i in 0..branches {
            let share = if i + 1 == branches {
                remaining.max(1)
            } else {
                (remaining / (branches - i)).max(1)
            };
            remaining = remaining.saturating_sub(share);
            let (entry, exit) = sp_build(rng, b, share, max_branch, series_prob);
            b.add_edge(fork, entry).expect("fork edge is fresh");
            b.add_edge(exit, join).expect("join edge is fresh");
        }
        (fork, join)
    }
}

/// Generates a random layered dag: `levels` layers whose widths are
/// sampled from `width`, where every non-source task has at least one
/// parent in the previous layer (so a task's level equals its layer) and
/// additional cross edges appear with probability `extra_edge_prob`.
///
/// Used for property tests and for exercising schedulers on irregular
/// (non-barrier) structures.
///
/// # Panics
///
/// Panics if `levels == 0`, the width range includes 0, or
/// `extra_edge_prob` is outside `[0, 1]`.
pub fn random_layered<R: Rng + ?Sized>(
    rng: &mut R,
    levels: u32,
    width: RangeInclusive<u32>,
    extra_edge_prob: f64,
) -> ExplicitDag {
    assert!(levels > 0, "need at least one layer");
    assert!(*width.start() > 0, "layer widths must be positive");
    assert!(
        (0.0..=1.0).contains(&extra_edge_prob),
        "probability must be in [0, 1]"
    );
    let mut b = DagBuilder::new();
    let mut prev: Vec<TaskId> = Vec::new();
    for _ in 0..levels {
        let w = rng.random_range(width.clone());
        let cur: Vec<TaskId> = (0..w).map(|_| b.add_task()).collect();
        if !prev.is_empty() {
            for &t in &cur {
                // Mandatory parent pins the task's level to its layer.
                let p = prev[rng.random_range(0..prev.len())];
                b.add_edge(p, t).expect("valid");
                for &q in &prev {
                    if q != p && rng.random_bool(extra_edge_prob) {
                        b.add_edge(q, t).expect("valid");
                    }
                }
            }
        }
        prev = cur;
    }
    b.build().expect("layered dag is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::JobStructure;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn chain_shape() {
        let d = chain(7);
        assert_eq!(d.work(), 7);
        assert_eq!(d.span(), 7);
    }

    #[test]
    fn diamond_shape() {
        let d = fork_join_diamond(6);
        assert_eq!(d.work(), 8);
        assert_eq!(d.span(), 3);
        assert_eq!(d.level_sizes(), &[1, 6, 1]);
    }

    #[test]
    fn binary_tree_shape() {
        let d = binary_fork_tree(4);
        assert_eq!(d.work(), 15);
        assert_eq!(d.span(), 4);
        assert_eq!(d.level_sizes(), &[1, 2, 4, 8]);
    }

    #[test]
    fn chain_bundle_shape() {
        let d = chain_bundle(10, 7);
        assert_eq!(d.work(), 70);
        assert_eq!(d.span(), 7);
        assert_eq!(d.level_sizes(), &[10; 7]);
        assert_eq!(d.sources().count(), 10);
        assert_eq!(d.sinks().count(), 10);
    }

    #[test]
    fn figure2_job_shape() {
        let d = figure2_job();
        assert_eq!(d.work(), 16);
        assert_eq!(d.span(), 4);
        assert_eq!(d.level_sizes(), &[1, 5, 5, 5]);
    }

    #[test]
    fn forkjoin_spec_alternates_phases() {
        let mut rng = StdRng::seed_from_u64(7);
        let spec = ForkJoinSpec {
            serial_levels: 2..=4,
            parallel_levels: 3..=5,
            width: 10..=10,
            pairs: 3,
        };
        let phases = spec.sample_phases(&mut rng);
        assert_eq!(phases.len(), 7);
        for (i, p) in phases.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(p.width, 1);
                assert!((2..=4).contains(&p.levels));
            } else {
                assert_eq!(p.width, 10);
                assert!((3..=5).contains(&p.levels));
            }
        }
    }

    #[test]
    fn transition_factor_spec_hits_target() {
        let mut rng = StdRng::seed_from_u64(42);
        let quantum_levels = 8;
        for c in [2u64, 5, 20] {
            let spec = ForkJoinSpec::with_transition_factor(c, quantum_levels, 4);
            let job = spec.generate(&mut rng);
            let measured = job.transition_factor(quantum_levels);
            // Phase lengths are at least one quantum, so at least one full
            // quantum sits inside a parallel phase (A ≈ c) adjacent to a
            // quantum overlapping serial levels (A < c): measured factor
            // lands within a small constant of the target.
            assert!(
                measured >= c as f64 / 2.0 && measured <= c as f64 + 1e-9,
                "target {c}, measured {measured}"
            );
        }
    }

    #[test]
    fn series_parallel_has_unique_source_and_sink() {
        let mut rng = StdRng::seed_from_u64(13);
        for budget in [1u32, 2, 7, 40, 200] {
            let d = series_parallel(&mut rng, budget, 4, 0.5);
            assert!(
                d.work() >= budget as u64,
                "budget {budget}: work {}",
                d.work()
            );
            assert_eq!(d.sources().count(), 1, "budget {budget}");
            assert_eq!(d.sinks().count(), 1, "budget {budget}");
        }
    }

    #[test]
    fn series_parallel_pure_series_is_a_chain() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = series_parallel(&mut rng, 12, 3, 1.0);
        assert_eq!(d.work(), 12);
        assert_eq!(d.span(), 12, "always-series composition is a chain");
    }

    #[test]
    fn series_parallel_deterministic_per_seed() {
        let a = series_parallel(&mut StdRng::seed_from_u64(8), 30, 3, 0.4);
        let b = series_parallel(&mut StdRng::seed_from_u64(8), 30, 3, 0.4);
        assert_eq!(a.work(), b.work());
        assert_eq!(a.span(), b.span());
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    fn random_layered_levels_match_layers() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = random_layered(&mut rng, 6, 1..=5, 0.3);
        assert_eq!(d.span(), 6);
        assert!(d.work() >= 6);
        // Level sizes are bounded by the sampled width range.
        for &s in d.level_sizes() {
            assert!((1..=5).contains(&s));
        }
    }

    #[test]
    fn random_layered_deterministic_for_seed() {
        let a = random_layered(&mut StdRng::seed_from_u64(9), 5, 2..=4, 0.5);
        let b = random_layered(&mut StdRng::seed_from_u64(9), 5, 2..=4, 0.5);
        assert_eq!(a.work(), b.work());
        assert_eq!(a.level_sizes(), b.level_sizes());
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn chain_zero_panics() {
        let _ = chain(0);
    }
}
