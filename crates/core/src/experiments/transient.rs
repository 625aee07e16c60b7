//! Request-trajectory experiments: the paper's Figures 1 and 4.
//!
//! A job of constant parallelism `A` runs alone with every request
//! granted; the interesting output is the *request trajectory* `d(q)`.
//! ABG converges geometrically to `A` with no overshoot (Figure 4(a));
//! A-Greedy oscillates forever (Figures 1 and 4(b)).

use abg_alloc::Scripted;
use abg_control::{AControl, AGreedy, Controller};
use abg_dag::generate::chain_bundle;
use abg_sched::executor::OwnedBGreedyExecutor;
use abg_sim::{run_single_job, SingleJobConfig};

/// Configuration of the transient-behaviour comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientConfig {
    /// The constant parallelism `A` of the synthetic job.
    pub parallelism: u64,
    /// Quantum length `L` in steps.
    pub quantum_len: u64,
    /// Number of quanta to report (the job is sized to last at least
    /// this long).
    pub quanta: u32,
    /// ABG convergence rate `r`.
    pub rate: f64,
    /// A-Greedy responsiveness `ρ`.
    pub responsiveness: f64,
    /// A-Greedy utilization threshold `δ`.
    pub utilization: f64,
    /// Machine size (every request up to this is granted).
    pub processors: u32,
}

impl TransientConfig {
    /// The paper's Figure-4 setting: constant parallelism 10 over 8
    /// quanta, `r = 0.2`, `ρ = 2`.
    pub fn paper() -> Self {
        Self {
            parallelism: 10,
            quantum_len: 1000,
            quanta: 8,
            rate: 0.2,
            responsiveness: 2.0,
            utilization: 0.8,
            processors: 128,
        }
    }
}

/// One quantum of a request trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// Quantum index `q`, 1-based.
    pub quantum: u32,
    /// The request `d(q)`.
    pub request: f64,
    /// The allotment `a(q)` granted.
    pub allotment: u32,
}

/// The two trajectories side by side.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    /// The constant parallelism of the job (the target line).
    pub parallelism: u64,
    /// ABG's trajectory (Figure 4(a)).
    pub abg: Vec<TrajectoryPoint>,
    /// A-Greedy's trajectory (Figures 1 / 4(b)).
    pub agreedy: Vec<TrajectoryPoint>,
}

fn trajectory<C: Controller>(cfg: &TransientConfig, mut calculator: C) -> Vec<TrajectoryPoint> {
    // Size the job so it cannot finish before `quanta` quanta even at
    // full allotment (one level per step once a ≥ A). The job is a
    // *chain bundle*, not a barrier job: constant parallelism means
    // `parallelism` ready tasks on every step, so any allotment at or
    // below it achieves full utilization (the regime of Figures 1/4).
    let levels = cfg.quantum_len * (cfg.quanta as u64 + 2);
    let mut executor = OwnedBGreedyExecutor::new(chain_bundle(
        u32::try_from(cfg.parallelism).expect("parallelism fits u32"),
        u32::try_from(levels).expect("trajectory job fits u32 levels"),
    ));
    let mut allocator = Scripted::ample(cfg.processors);
    let run = run_single_job(
        &mut executor,
        &mut calculator,
        &mut allocator,
        SingleJobConfig::new(cfg.quantum_len).with_trace(),
    );
    run.trace
        .iter()
        .take(cfg.quanta as usize)
        .map(|r| TrajectoryPoint {
            quantum: r.index,
            request: r.request,
            allotment: r.allotment,
        })
        .collect()
}

/// Runs the Figure-1/Figure-4 comparison.
///
/// # Panics
///
/// Panics on nonsensical configs (zero parallelism/quanta, invalid
/// controller parameters).
pub fn transient_comparison(cfg: &TransientConfig) -> TransientResult {
    assert!(cfg.parallelism > 0 && cfg.quanta > 0);
    TransientResult {
        parallelism: cfg.parallelism,
        abg: trajectory(cfg, AControl::new(cfg.rate)),
        agreedy: trajectory(cfg, AGreedy::new(cfg.responsiveness, cfg.utilization)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TransientConfig {
        TransientConfig {
            parallelism: 10,
            quantum_len: 50,
            quanta: 8,
            rate: 0.2,
            responsiveness: 2.0,
            utilization: 0.8,
            processors: 128,
        }
    }

    #[test]
    fn abg_trajectory_matches_theorem1_shape() {
        let res = transient_comparison(&cfg());
        assert_eq!(res.abg.len(), 8);
        let a = res.parallelism as f64;
        // Monotone approach, no overshoot, geometric with ratio r.
        for w in res.abg.windows(2) {
            assert!(w[1].request >= w[0].request - 1e-9, "must be monotone");
            assert!(w[1].request <= a + 1e-9, "must not overshoot");
        }
        // After 8 quanta at r = 0.2 the error is r^7·(A−1) ≈ 1e-5·9.
        let err = (res.abg.last().unwrap().request - a).abs();
        assert!(err < 0.01, "steady-state error {err}");
    }

    #[test]
    fn agreedy_trajectory_oscillates() {
        let res = transient_comparison(&cfg());
        let reqs: Vec<f64> = res.agreedy.iter().map(|p| p.request).collect();
        // The desire must exceed A at least once (overshoot) and the
        // trajectory must not settle.
        let a = res.parallelism as f64;
        assert!(
            reqs.iter().any(|&d| d > a),
            "expected overshoot in {reqs:?}"
        );
        let tail: Vec<f64> = reqs[3..].to_vec();
        let min = tail.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = tail.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > min, "A-Greedy settled unexpectedly: {reqs:?}");
    }

    #[test]
    fn first_request_is_one_for_both() {
        let res = transient_comparison(&cfg());
        assert_eq!(res.abg[0].request, 1.0);
        assert_eq!(res.agreedy[0].request, 1.0);
    }

    #[test]
    fn allotments_track_requests_under_ample_availability() {
        let res = transient_comparison(&cfg());
        for p in res.abg.iter().chain(&res.agreedy) {
            assert_eq!(p.allotment, p.request.ceil() as u32);
        }
    }
}
