//! Control-theoretic analysis of the feedback loop (Section 4).
//!
//! With the job's average parallelism held constant at `A`, the paper's
//! Figure-3 loop is linear time-invariant and can be analysed in the
//! z-domain. The component transfer functions are
//!
//! ```text
//! A-Control:  G(z) = K / (z − 1)            (integral controller)
//! B-Greedy:   S(z) = 1 / A                  (measurement path)
//! reference:  R(z) = z / (z − 1)            (unit step)
//! ```
//!
//! giving the first-order closed loop (Equation (2))
//!
//! ```text
//! T(z) = (K/A) / (z − (1 − K/A))
//! ```
//!
//! with the single pole `p₀ = 1 − K/A`. [`ClosedLoop`] models this
//! system exactly; [`analyze_step_response`] extracts the transient and
//! steady-state metrics of Theorem 1 (BIBO stability, steady-state
//! error, maximum overshoot, convergence rate) from any request
//! trajectory — analytical or simulated — so the same machinery also
//! quantifies A-Greedy's instability.

/// The first-order closed loop of the ABG feedback structure for a job
/// of constant average parallelism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedLoop {
    /// The job's (constant) average parallelism `A`.
    pub parallelism: f64,
    /// The controller gain `K`.
    pub gain: f64,
}

impl ClosedLoop {
    /// Builds the loop with the Theorem-1 gain `K = (1 − r)·A` for a
    /// desired convergence rate `r ∈ [0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism <= 0` or `rate` is outside `[0, 1)`.
    pub fn with_convergence_rate(parallelism: f64, rate: f64) -> Self {
        assert!(parallelism > 0.0, "parallelism must be positive");
        assert!(
            (0.0..1.0).contains(&rate),
            "convergence rate must lie in [0, 1), got {rate}"
        );
        Self {
            parallelism,
            gain: (1.0 - rate) * parallelism,
        }
    }

    /// The closed-loop pole `p₀ = 1 − K/A`.
    pub fn pole(&self) -> f64 {
        1.0 - self.gain / self.parallelism
    }

    /// Bounded-input bounded-output stability: the pole lies strictly
    /// inside the unit circle.
    pub fn is_bibo_stable(&self) -> bool {
        self.pole().abs() < 1.0
    }

    /// Simulates the closed loop for `quanta` quanta and returns the
    /// request trajectory `d(1), d(2), …` starting from `d(1) = d1`.
    ///
    /// The recurrence is the time-domain form of the loop:
    /// `d(q+1) = d(q) + K·(1 − d(q)/A)`.
    pub fn request_trajectory(&self, d1: f64, quanta: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(quanta);
        let mut d = d1;
        for _ in 0..quanta {
            out.push(d);
            d += self.gain * (1.0 - d / self.parallelism);
        }
        out
    }
}

/// Transient and steady-state metrics of a request trajectory against a
/// constant target parallelism — the four criteria of Theorem 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepMetrics {
    /// `|d(q) − A|` at the end of the trajectory.
    pub steady_state_error: f64,
    /// Maximum of `d(q) − d(∞)` over the trajectory (0 when the request
    /// never exceeds its steady-state value).
    pub max_overshoot: f64,
    /// Worst observed per-quantum error-contraction ratio
    /// `|d(q+1) − A| / |d(q) − A|` before settling. For the ideal loop
    /// this equals `|pole|`; values ≥ 1 mean the request is not
    /// converging.
    pub convergence_rate: f64,
    /// First index (0-based) at which the error drops below
    /// `tolerance·A` and stays there, or the trajectory length if never.
    pub settling_quantum: usize,
}

/// Analyzes a request trajectory against a constant parallelism target.
///
/// `tolerance` is the relative error band used for settling detection
/// (e.g. `0.02` for a 2 % band).
///
/// # Panics
///
/// Panics if the trajectory is empty or `target <= 0`.
pub fn analyze_step_response(trajectory: &[f64], target: f64, tolerance: f64) -> StepMetrics {
    assert!(!trajectory.is_empty(), "empty trajectory");
    assert!(target > 0.0, "target parallelism must be positive");
    let steady = *trajectory.last().expect("non-empty");
    let steady_state_error = (steady - target).abs();

    let max_overshoot = trajectory
        .iter()
        .map(|&d| d - steady)
        .fold(0.0f64, f64::max);

    // Contraction ratio while outside the settling band.
    let band = tolerance * target;
    let mut convergence_rate = 0.0f64;
    for w in trajectory.windows(2) {
        let e0 = (w[0] - target).abs();
        let e1 = (w[1] - target).abs();
        if e0 > band {
            convergence_rate = convergence_rate.max(e1 / e0);
        }
    }

    let settling_quantum = (0..trajectory.len())
        .find(|&i| trajectory[i..].iter().all(|&d| (d - target).abs() <= band))
        .unwrap_or(trajectory.len());

    StepMetrics {
        steady_state_error,
        max_overshoot,
        convergence_rate,
        settling_quantum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_pole_equals_rate() {
        for a in [2.0, 10.0, 128.0] {
            for r in [0.0, 0.2, 0.5, 0.9] {
                let loop_ = ClosedLoop::with_convergence_rate(a, r);
                assert!((loop_.pole() - r).abs() < 1e-12);
                assert!(loop_.is_bibo_stable());
            }
        }
    }

    #[test]
    fn unstable_gain_detected() {
        // K > 2A puts the pole below −1.
        let loop_ = ClosedLoop {
            parallelism: 10.0,
            gain: 25.0,
        };
        assert!(!loop_.is_bibo_stable());
    }

    #[test]
    fn trajectory_converges_without_overshoot() {
        let loop_ = ClosedLoop::with_convergence_rate(20.0, 0.2);
        let traj = loop_.request_trajectory(1.0, 40);
        let m = analyze_step_response(&traj, 20.0, 0.01);
        assert!(
            m.steady_state_error < 1e-6,
            "sse = {}",
            m.steady_state_error
        );
        assert!(m.max_overshoot < 1e-9, "overshoot = {}", m.max_overshoot);
        assert!((m.convergence_rate - 0.2).abs() < 1e-9);
        assert!(m.settling_quantum < 40);
    }

    #[test]
    fn one_step_convergence_settles_immediately() {
        let loop_ = ClosedLoop::with_convergence_rate(50.0, 0.0);
        let traj = loop_.request_trajectory(1.0, 5);
        assert_eq!(traj[1], 50.0);
        let m = analyze_step_response(&traj, 50.0, 0.01);
        assert_eq!(m.settling_quantum, 1);
        assert_eq!(m.steady_state_error, 0.0);
    }

    #[test]
    fn oscillating_trajectory_flagged_nonconvergent() {
        // A-Greedy-like 8/16 oscillation around A = 10.
        let traj: Vec<f64> = (0..16)
            .map(|i| if i % 2 == 0 { 8.0 } else { 16.0 })
            .collect();
        let m = analyze_step_response(&traj, 10.0, 0.02);
        assert!(m.convergence_rate >= 1.0);
        assert_eq!(m.settling_quantum, traj.len());
        assert!(m.steady_state_error > 0.0);
    }

    #[test]
    fn overshoot_measured_against_steady_state() {
        let traj = vec![1.0, 14.0, 9.0, 10.0, 10.0];
        let m = analyze_step_response(&traj, 10.0, 0.02);
        assert!((m.max_overshoot - 4.0).abs() < 1e-12);
    }

    #[test]
    fn trajectory_matches_closed_form() {
        // d(q) − A = pole^(q-1) · (d(1) − A).
        let a = 32.0;
        let r = 0.3;
        let loop_ = ClosedLoop::with_convergence_rate(a, r);
        let traj = loop_.request_trajectory(1.0, 10);
        for (q, &d) in traj.iter().enumerate() {
            let expected = a + r.powi(q as i32) * (1.0 - a);
            assert!((d - expected).abs() < 1e-9, "q={q}: {d} vs {expected}");
        }
    }

    #[test]
    #[should_panic(expected = "empty trajectory")]
    fn empty_trajectory_rejected() {
        let _ = analyze_step_response(&[], 1.0, 0.01);
    }
}
