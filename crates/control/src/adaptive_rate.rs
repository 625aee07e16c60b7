//! A-Control with an online convergence-rate governor.
//!
//! The waste, makespan and response-time bounds (Theorems 4 and 5)
//! require the convergence rate to satisfy `r < 1/C_L`, and the paper
//! assumes `r` "is chosen based on some historical characterization of
//! the workload" (Section 6.2). [`AdaptiveRateControl`] removes that
//! assumption: it estimates the transition factor online from the
//! measured parallelism sequence and clamps the working rate to
//! `min(r_target, margin / Ĉ_L)`, so the bound precondition holds
//! against the job actually being scheduled.
//!
//! When `Ĉ_L` is small the controller behaves exactly like
//! [`AControl`](crate::AControl) at the target rate; when the job turns out to sway
//! violently, the rate automatically drops toward one-step convergence
//! (`r = 0`), which is the safe end of the spectrum — the request then
//! tracks the latest measurement as fast as possible.

use crate::Controller;
use abg_sched::QuantumStats;

/// A-Control with the convergence rate governed by an online estimate
/// of the transition factor.
#[derive(Debug, Clone)]
pub struct AdaptiveRateControl {
    target_rate: f64,
    /// Safety margin: the working rate is capped at
    /// `margin / estimated_factor` (margin < 1 keeps strict
    /// inequality).
    margin: f64,
    request: f64,
    estimated_factor: f64,
    prev_parallelism: f64,
}

impl AdaptiveRateControl {
    /// Creates a governor targeting `target_rate` with the given safety
    /// margin (the paper's strict `r < 1/C_L` wants `margin < 1`).
    ///
    /// # Panics
    ///
    /// Panics unless `target_rate ∈ [0, 1)` and `margin ∈ (0, 1)`.
    pub fn new(target_rate: f64, margin: f64) -> Self {
        assert!(
            target_rate.is_finite() && (0.0..1.0).contains(&target_rate),
            "target rate must lie in [0, 1), got {target_rate}"
        );
        assert!(
            margin.is_finite() && margin > 0.0 && margin < 1.0,
            "margin must lie in (0, 1), got {margin}"
        );
        Self {
            target_rate,
            margin,
            request: 1.0,
            estimated_factor: 1.0,
            prev_parallelism: 1.0, // A(0) = 1 by definition
        }
    }

    /// The paper-style default: target `r = 0.2` with a 0.9 margin.
    pub fn paper_default() -> Self {
        Self::new(0.2, 0.9)
    }

    /// The current transition-factor estimate `Ĉ_L` (the running
    /// maximum of adjacent measured-parallelism ratios, seeded with
    /// `A(0) = 1`).
    pub fn estimated_factor(&self) -> f64 {
        self.estimated_factor
    }

    /// The rate currently in force: `min(target, margin / Ĉ_L)`.
    pub fn effective_rate(&self) -> f64 {
        self.target_rate.min(self.margin / self.estimated_factor)
    }
}

impl Controller for AdaptiveRateControl {
    fn observe(&mut self, stats: &QuantumStats) -> f64 {
        if let Some(a) = stats.average_parallelism() {
            // Update Ĉ_L only on full quanta, matching the definition.
            if stats.is_full() {
                let ratio = if a > self.prev_parallelism {
                    a / self.prev_parallelism
                } else {
                    self.prev_parallelism / a
                };
                self.estimated_factor = self.estimated_factor.max(ratio);
                self.prev_parallelism = a;
            }
            let r = self.effective_rate();
            self.request = r * self.request + (1.0 - r) * a;
        }
        self.request
    }

    fn current_request(&self) -> f64 {
        self.request
    }

    fn name(&self) -> &'static str {
        "a-control-adaptive-rate"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AControl;

    fn quantum(work: u64, span: f64) -> QuantumStats {
        QuantumStats {
            allotment: 16,
            quantum_len: 10,
            steps_worked: 10,
            work,
            span,
            completed: false,
        }
    }

    #[test]
    fn behaves_like_acontrol_on_tame_jobs() {
        // Constant parallelism 4 with margin 0.9: Ĉ_L snaps to 4 on the
        // first quantum (vs A(0) = 1) but 0.9/4 = 0.225 > 0.2, so the
        // target rate stays in force and the trajectories coincide.
        let mut adaptive = AdaptiveRateControl::new(0.2, 0.9);
        let mut plain = AControl::new(0.2);
        for _ in 0..10 {
            let s = quantum(40, 10.0);
            assert!((adaptive.observe(&s) - plain.observe(&s)).abs() < 1e-12);
        }
        assert!((adaptive.effective_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn rate_drops_on_violent_jobs() {
        let mut c = AdaptiveRateControl::new(0.2, 0.9);
        // Parallelism jumps 1 -> 50: Ĉ_L ≈ 50, rate capped at 0.018.
        c.observe(&quantum(10, 10.0)); // A = 1
        c.observe(&quantum(500, 10.0)); // A = 50
        assert!(c.estimated_factor() >= 50.0);
        assert!(c.effective_rate() < 0.02);
        // The precondition of Theorem 4 now holds for the estimate.
        assert!(c.effective_rate() * c.estimated_factor() < 1.0);
    }

    #[test]
    fn estimate_only_grows() {
        let mut c = AdaptiveRateControl::paper_default();
        c.observe(&quantum(200, 10.0)); // A = 20
        let peak = c.estimated_factor();
        c.observe(&quantum(200, 10.0)); // constant: ratio 1
        assert_eq!(c.estimated_factor(), peak);
    }

    #[test]
    fn non_full_quanta_do_not_update_estimate() {
        let mut c = AdaptiveRateControl::paper_default();
        let partial = QuantumStats {
            allotment: 16,
            quantum_len: 10,
            steps_worked: 5,
            work: 400,
            span: 5.0,
            completed: true,
        };
        c.observe(&partial);
        assert_eq!(c.estimated_factor(), 1.0, "non-full quanta are excluded");
    }

    #[test]
    fn converges_despite_clamped_rate() {
        let mut c = AdaptiveRateControl::new(0.2, 0.9);
        c.observe(&quantum(10, 10.0)); // A = 1 keeps estimate at 1
        for _ in 0..30 {
            c.observe(&quantum(80, 10.0)); // A = 8
        }
        assert!((c.current_request() - 8.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "margin")]
    fn margin_of_one_rejected() {
        let _ = AdaptiveRateControl::new(0.2, 1.0);
    }
}
