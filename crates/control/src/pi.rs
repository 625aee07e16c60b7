//! A gain-scheduled PI (proportional-integral) request controller —
//! the natural next rung on the controller ladder the paper's
//! future-work section points at ("other parameters").
//!
//! A-Control is a pure integral controller: its closed loop is first
//! order, so convergence is monotone but each quantum's correction is
//! limited to a fixed fraction of the remaining error. Adding a
//! proportional term reacts to the *change* of the error within one
//! quantum:
//!
//! ```text
//! d(q+1) = d(q) + Kp·(e(q) − e(q−1)) + Ki·e(q),     e(q) = 1 − d(q)/A(q)
//! ```
//!
//! With the gains scheduled against the measured parallelism the same
//! way Theorem 1 schedules `K` (`Kp = β·A`, `Ki = (1 − r)·A`), the
//! constant-parallelism closed loop is second order; `β = 0` recovers
//! A-Control exactly. The error-difference term cuts both ways: when
//! the job's parallelism *jumps*, `e(q) − e(q−1)` spikes and the
//! controller reacts harder than A-Control on the very next quantum
//! (anticipatory action); during a smooth approach the difference is
//! negative and acts as damping, settling slightly later. The module's
//! tests verify stability, zero steady-state error, both sides of that
//! trade-off, and the A-Control-equivalence corner empirically.

use crate::Controller;
use abg_sched::QuantumStats;

/// The gain-scheduled PI request calculator.
#[derive(Debug, Clone)]
pub struct PiControl {
    /// Integral rate parameter `r` (as in A-Control).
    rate: f64,
    /// Proportional coefficient `β ∈ [0, r]`: the proportional gain is
    /// scheduled as `Kp = β·A(q)`.
    beta: f64,
    request: f64,
    prev_error: f64,
}

impl PiControl {
    /// Creates a PI controller with integral rate `r ∈ [0, 1)` and
    /// proportional coefficient `beta ∈ [0, r]`.
    ///
    /// # Panics
    ///
    /// Panics on parameters outside those ranges.
    pub fn new(rate: f64, beta: f64) -> Self {
        assert!(
            rate.is_finite() && (0.0..1.0).contains(&rate),
            "rate must lie in [0, 1), got {rate}"
        );
        assert!(
            beta.is_finite() && (0.0..=rate).contains(&beta),
            "beta must lie in [0, rate], got {beta}"
        );
        Self {
            rate,
            beta,
            request: 1.0,
            prev_error: 0.0,
        }
    }

    /// The integral rate `r`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The proportional coefficient `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }
}

impl Controller for PiControl {
    fn observe(&mut self, stats: &QuantumStats) -> f64 {
        if let Some(a) = stats.average_parallelism() {
            let error = 1.0 - self.request / a;
            let ki = (1.0 - self.rate) * a;
            let kp = self.beta * a;
            self.request += kp * (error - self.prev_error) + ki * error;
            // Requests below one processor are meaningless; the floor
            // mirrors A-Greedy's.
            self.request = self.request.max(1.0);
            self.prev_error = error;
        }
        self.request
    }

    fn current_request(&self) -> f64 {
        self.request
    }

    fn name(&self) -> &'static str {
        "pi-control"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_step_response, AControl};

    fn quantum(work: u64, span: f64) -> QuantumStats {
        QuantumStats {
            allotment: 32,
            quantum_len: 10,
            steps_worked: 10,
            work,
            span,
            completed: false,
        }
    }

    fn trajectory(ctl: &mut dyn Controller, a: f64, quanta: usize) -> Vec<f64> {
        let mut out = vec![ctl.current_request()];
        for _ in 1..quanta {
            let s = quantum((a * 10.0) as u64, 10.0);
            out.push(ctl.observe(&s));
        }
        out
    }

    #[test]
    fn beta_zero_is_acontrol() {
        let mut pi = PiControl::new(0.2, 0.0);
        let mut ac = AControl::new(0.2);
        for _ in 0..20 {
            let s = quantum(160, 10.0);
            assert!((pi.observe(&s) - ac.observe(&s)).abs() < 1e-12);
        }
    }

    #[test]
    fn converges_with_zero_steady_state_error() {
        for beta in [0.05, 0.1, 0.2] {
            let mut pi = PiControl::new(0.2, beta);
            let traj = trajectory(&mut pi, 16.0, 60);
            let m = analyze_step_response(&traj, 16.0, 0.001);
            assert!(m.steady_state_error < 1e-6, "β={beta}: {m:?}");
        }
    }

    #[test]
    fn proportional_term_damps_settling() {
        let settle = |beta: f64| {
            let mut pi = PiControl::new(0.4, beta);
            let traj = trajectory(&mut pi, 64.0, 80);
            analyze_step_response(&traj, 64.0, 0.01).settling_quantum
        };
        // Damping slows the approach (the error difference opposes the
        // correction while converging) but must stay the same order.
        assert!(
            settle(0.4) >= settle(0.0),
            "{} vs {}",
            settle(0.4),
            settle(0.0)
        );
        assert!(
            settle(0.4) <= 3 * settle(0.0).max(1),
            "damping must not stall convergence"
        );
    }

    #[test]
    fn proportional_term_reacts_harder_to_parallelism_jumps() {
        // Converge to A = 16, then the job widens to A = 48: the error
        // difference spikes, so the PI controller covers more of the
        // gap on the first post-jump quantum than pure A-Control.
        let react = |beta: f64| {
            let mut pi = PiControl::new(0.4, beta);
            for _ in 0..40 {
                pi.observe(&quantum(160, 10.0)); // A = 16
            }
            let before = pi.current_request();
            let after = pi.observe(&quantum(480, 10.0)); // A jumps to 48
            after - before
        };
        let plain = react(0.0);
        let anticipatory = react(0.4);
        assert!(
            anticipatory > plain,
            "the proportional kick should enlarge the first response:              {anticipatory} vs {plain}"
        );
    }

    #[test]
    fn overshoot_stays_negligible() {
        for beta in [0.0, 0.1, 0.2] {
            let mut pi = PiControl::new(0.2, beta);
            let traj = trajectory(&mut pi, 32.0, 60);
            let m = analyze_step_response(&traj, 32.0, 0.001);
            assert!(
                m.max_overshoot <= 0.05 * 32.0,
                "β={beta}: overshoot {}",
                m.max_overshoot
            );
        }
    }

    #[test]
    fn request_floor_is_one() {
        let mut pi = PiControl::new(0.2, 0.2);
        // A job collapsing to parallelism 1 drives e(q) negative hard;
        // the request must not drop below one processor.
        for _ in 0..5 {
            pi.observe(&quantum(320, 10.0)); // A = 32
        }
        for _ in 0..10 {
            pi.observe(&quantum(10, 10.0)); // A = 1
        }
        assert!(pi.current_request() >= 1.0);
        assert!((pi.current_request() - 1.0).abs() < 0.2);
    }

    #[test]
    fn zero_work_quanta_hold_state() {
        let mut pi = PiControl::new(0.2, 0.1);
        pi.observe(&quantum(160, 10.0));
        let held = pi.current_request();
        let idle = QuantumStats {
            allotment: 0,
            quantum_len: 10,
            steps_worked: 0,
            work: 0,
            span: 0.0,
            completed: false,
        };
        assert_eq!(pi.observe(&idle), held);
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn beta_above_rate_rejected() {
        let _ = PiControl::new(0.2, 0.3);
    }
}
