//! A-Control: the paper's adaptive integral controller (Section 3).

use crate::Controller;
use abg_sched::QuantumStats;

/// The A-Control processor-request calculator.
///
/// A-Control closes the loop of the paper's Figure 3 with the integral
/// control law `d(q+1) = d(q) + K(q+1)·e(q)` where `e(q) = 1 − d(q)/A(q)`
/// and the gain is retuned every quantum to `K(q+1) = (1 − r)·A(q)`
/// (Theorem 1). Substituting the gain gives the closed form actually
/// implemented (Equation (3)):
///
/// ```text
/// d(q) = r·d(q−1) + (1 − r)·A(q−1)     for q > 1,      d(1) = 1.
/// ```
///
/// `r ∈ [0, 1)` is the **convergence rate**: the request approaches a
/// constant parallelism geometrically with ratio `r` per quantum, with
/// `r = 0` giving one-step convergence (`d(q) = A(q−1)`).
///
/// A quantum in which no work was done carries no parallelism measurement
/// (`A(q)` is undefined); the controller holds the previous request in
/// that case rather than decaying toward zero.
///
/// ```
/// use abg_control::{AControl, Controller};
/// use abg_sched::QuantumStats;
///
/// let mut ctl = AControl::new(0.2);
/// assert_eq!(ctl.initial_request(), 1.0);
/// // A quantum that measured average parallelism A(q) = 10:
/// let stats = QuantumStats {
///     allotment: 4, quantum_len: 10, steps_worked: 10,
///     work: 100, span: 10.0, completed: false,
/// };
/// let d = ctl.observe(&stats);
/// assert!((d - (0.2 * 1.0 + 0.8 * 10.0)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct AControl {
    rate: f64,
    request: f64,
}

impl AControl {
    /// Creates a controller with the given convergence rate `r ∈ [0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1)` or not finite.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && (0.0..1.0).contains(&rate),
            "convergence rate must lie in [0, 1), got {rate}"
        );
        Self { rate, request: 1.0 }
    }

    /// The paper's simulation setting, `r = 0.2` (Section 7.1).
    pub fn paper_default() -> Self {
        Self::new(0.2)
    }

    /// The configured convergence rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Controller for AControl {
    fn observe(&mut self, stats: &QuantumStats) -> f64 {
        if let Some(a) = stats.average_parallelism() {
            self.request = self.rate * self.request + (1.0 - self.rate) * a;
        }
        self.request
    }

    fn current_request(&self) -> f64 {
        self.request
    }

    fn name(&self) -> &'static str {
        "a-control"
    }

    fn supports_frozen_stepping(&self) -> bool {
        // observe() is a pure function of (request, stats): replayable.
        true
    }

    fn is_steady(&self, stats: &QuantumStats) -> bool {
        // Steady iff re-running the recurrence on the same measurement
        // reproduces the request bit-for-bit (a geometric fixed point, or
        // a zero-work quantum that holds the request).
        match stats.average_parallelism() {
            Some(a) => {
                (self.rate * self.request + (1.0 - self.rate) * a).to_bits()
                    == self.request.to_bits()
            }
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quantum(work: u64, span: f64) -> QuantumStats {
        QuantumStats {
            allotment: 8,
            quantum_len: 10,
            steps_worked: 10,
            work,
            span,
            completed: false,
        }
    }

    #[test]
    fn initial_request_is_one() {
        let c = AControl::new(0.2);
        assert_eq!(c.current_request(), 1.0);
        assert_eq!(c.initial_request(), 1.0);
    }

    #[test]
    fn recurrence_matches_equation_3() {
        let mut c = AControl::new(0.2);
        // A(1) = 40 / 4 = 10.
        let d2 = c.observe(&quantum(40, 4.0));
        assert!((d2 - (0.2 * 1.0 + 0.8 * 10.0)).abs() < 1e-12);
        let d3 = c.observe(&quantum(40, 4.0));
        assert!((d3 - (0.2 * d2 + 0.8 * 10.0)).abs() < 1e-12);
    }

    #[test]
    fn one_step_convergence_copies_parallelism() {
        let mut c = AControl::new(0.0);
        assert_eq!(c.observe(&quantum(50, 5.0)), 10.0);
        assert_eq!(c.observe(&quantum(21, 3.0)), 7.0);
    }

    #[test]
    fn converges_geometrically_with_rate_r() {
        let a = 16.0;
        let mut c = AControl::new(0.5);
        let mut prev_err = (c.current_request() - a).abs();
        for _ in 0..20 {
            let d = c.observe(&quantum(64, 4.0));
            let err = (d - a).abs();
            if prev_err > 1e-9 {
                assert!((err / prev_err - 0.5).abs() < 1e-9);
            }
            prev_err = err;
        }
        assert!(prev_err < 1e-4);
    }

    #[test]
    fn no_overshoot_from_below() {
        let mut c = AControl::new(0.2);
        for _ in 0..100 {
            let d = c.observe(&quantum(100, 10.0));
            assert!(d <= 10.0 + 1e-12, "request {d} overshot the parallelism");
        }
    }

    #[test]
    fn zero_work_quantum_holds_request() {
        let mut c = AControl::new(0.2);
        c.observe(&quantum(40, 4.0));
        let held = c.current_request();
        let idle = QuantumStats {
            allotment: 0,
            quantum_len: 10,
            steps_worked: 0,
            work: 0,
            span: 0.0,
            completed: false,
        };
        assert_eq!(c.observe(&idle), held);
    }

    #[test]
    fn steadiness_tracks_the_fixed_point() {
        let mut c = AControl::new(0.0);
        let q = quantum(50, 5.0); // A = 10
        assert!(c.supports_frozen_stepping());
        assert!(!c.is_steady(&q), "request 1.0 is far from A = 10");
        c.observe(&q); // one-step convergence: request = 10 exactly
        assert!(
            c.is_steady(&q),
            "at the fixed point observe() is idempotent"
        );
        let idle = QuantumStats {
            allotment: 0,
            quantum_len: 10,
            steps_worked: 0,
            work: 0,
            span: 0.0,
            completed: false,
        };
        assert!(c.is_steady(&idle), "zero-work quanta hold the request");
    }

    #[test]
    fn gain_matches_theorem_1() {
        // The closed form is the integral law d(q+1) = d(q) + K·e(q)
        // with e(q) = 1 − d(q)/A(q) and the Theorem-1 gain K = (1 − r)·A(q).
        let mut c = AControl::new(0.25);
        let d = c.current_request();
        let a = 12.0; // quantum(48, 4.0)
        let gain = 0.75 * a;
        let next = c.observe(&quantum(48, 4.0));
        assert!((next - (d + gain * (1.0 - d / a))).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "convergence rate")]
    fn rate_one_rejected() {
        let _ = AControl::new(1.0);
    }

    #[test]
    #[should_panic(expected = "convergence rate")]
    fn nan_rate_rejected() {
        let _ = AControl::new(f64::NAN);
    }
}
