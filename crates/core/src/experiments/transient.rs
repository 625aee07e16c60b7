//! Request-trajectory experiments: the paper's Figures 1 and 4.
//!
//! A job of constant parallelism `A` runs alone with every request
//! granted; the interesting output is the *request trajectory* `d(q)`.
//! ABG converges geometrically to `A` with no overshoot (Figure 4(a));
//! A-Greedy oscillates forever (Figures 1 and 4(b)).

use abg_alloc::Scripted;
use abg_control::{AControl, AGreedy, Controller};
use abg_dag::PhasedJob;
use abg_sched::PipelinedExecutor;
use abg_sim::{MultiJobSim, QuantumRecord};

/// The constant parallelism `A` of the synthetic job.
const PARALLELISM: u64 = 10;
/// Quantum length `L` in steps.
const QUANTUM_LEN: u64 = 1000;
/// Machine size: every request up to it is granted.
const PROCESSORS: u32 = 128;

/// The two trajectories side by side.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    /// The constant parallelism of the job (the target line).
    pub parallelism: u64,
    /// ABG's first quanta (Figure 4(a)): request `d(q)`, allotment
    /// `a(q)` and the rest of each quantum's record.
    pub abg: Vec<QuantumRecord>,
    /// A-Greedy's first quanta (Figures 1 / 4(b)).
    pub agreedy: Vec<QuantumRecord>,
}

fn trajectory<C: Controller>(quanta: u32, calculator: C) -> Vec<QuantumRecord> {
    // Size the job so it cannot finish before `quanta` quanta even at
    // full allotment (one level per step once a ≥ A). Constant
    // parallelism means `A` ready tasks on every step, so any allotment
    // at or below it achieves full utilization (the regime of Figures
    // 1/4).
    let levels = QUANTUM_LEN * (u64::from(quanta) + 2);
    let mut trace = MultiJobSim::homogeneous(Scripted::ample(PROCESSORS), QUANTUM_LEN)
        .with_traces()
        .run_job(
            PipelinedExecutor::new(PhasedJob::constant(PARALLELISM, levels)),
            calculator,
        )
        .trace;
    trace.truncate(quanta as usize);
    trace
}

/// Runs the Figure-1/Figure-4 comparison over the first `quanta` quanta
/// of the paper's setting: constant parallelism `A = 10`, `L = 1000`,
/// 128 processors, both controllers at the paper's parameters
/// ([`AControl::paper_default`], [`AGreedy::paper_default`]).
///
/// # Panics
///
/// Panics if `quanta` is zero.
pub fn transient_comparison(quanta: u32) -> TransientResult {
    assert!(quanta > 0, "a trajectory needs at least one quantum");
    TransientResult {
        parallelism: PARALLELISM,
        abg: trajectory(quanta, AControl::paper_default()),
        agreedy: trajectory(quanta, AGreedy::paper_default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abg_trajectory_matches_theorem1_shape() {
        let res = transient_comparison(8);
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
        let res = transient_comparison(8);
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
        let res = transient_comparison(8);
        assert_eq!(res.abg[0].request, 1.0);
        assert_eq!(res.agreedy[0].request, 1.0);
    }

    #[test]
    fn allotments_track_requests_under_ample_availability() {
        let res = transient_comparison(8);
        for p in res.abg.iter().chain(&res.agreedy) {
            assert_eq!(p.allotment, p.request.ceil() as u32);
        }
    }
}
