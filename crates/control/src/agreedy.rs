//! A-Greedy: the multiplicative-increase multiplicative-decrease
//! baseline (Agrawal, He, Hsu, Leiserson — PPoPP 2006).

use crate::Controller;
use abg_sched::QuantumStats;

/// The A-Greedy desire (processor-request) calculator.
///
/// A-Greedy classifies each quantum by its processor utilization and by
/// whether the allocator granted the full desire:
///
/// * **inefficient** — `T1(q) < δ·a(q)·L`: too many allotted cycles went
///   unused, so the desire is divided by the responsiveness `ρ`;
/// * **efficient and satisfied** — utilization reached `δ` and
///   `a(q) ≥ d(q)`: the job may well be able to use more, so the desire
///   is multiplied by `ρ`;
/// * **efficient but deprived** — utilization reached `δ` but the
///   allocator granted less than requested: the desire is kept.
///
/// The desire starts at `d(1) = 1` and never drops below 1 processor.
/// The paper's simulations use `ρ = 2` (its "multiplicative factor") and
/// the conventional utilization threshold `δ = 0.8`.
///
/// The scheme guarantees provably good time and waste bounds, but its
/// requests never settle: on a job of constant parallelism `A` the desire
/// perpetually oscillates in `[A/ρ, ρ·A)` — the instability shown in the
/// paper's Figures 1 and 4(b) that motivates ABG.
///
/// ```
/// use abg_control::{AGreedy, Controller};
/// use abg_sched::QuantumStats;
///
/// let mut desire = AGreedy::paper_default(); // ρ = 2, δ = 0.8
/// // Fully-utilized satisfied quantum: desire doubles.
/// let good = QuantumStats {
///     allotment: 1, quantum_len: 10, steps_worked: 10,
///     work: 10, span: 10.0, completed: false,
/// };
/// assert_eq!(desire.observe(&good), 2.0);
/// // Poorly-utilized quantum (3 of 20 cycles): desire halves.
/// let bad = QuantumStats {
///     allotment: 2, quantum_len: 10, steps_worked: 10,
///     work: 3, span: 3.0, completed: false,
/// };
/// assert_eq!(desire.observe(&bad), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct AGreedy {
    responsiveness: f64,
    utilization: f64,
    desire: f64,
}

impl AGreedy {
    /// Creates a calculator with responsiveness `ρ > 1` and utilization
    /// threshold `δ ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics on non-finite or out-of-range parameters.
    pub fn new(responsiveness: f64, utilization: f64) -> Self {
        assert!(
            responsiveness.is_finite() && responsiveness > 1.0,
            "responsiveness must exceed 1, got {responsiveness}"
        );
        assert!(
            utilization.is_finite() && utilization > 0.0 && utilization <= 1.0,
            "utilization threshold must lie in (0, 1], got {utilization}"
        );
        Self {
            responsiveness,
            utilization,
            desire: 1.0,
        }
    }

    /// The paper's simulation setting: `ρ = 2`, `δ = 0.8`.
    pub fn paper_default() -> Self {
        Self::new(2.0, 0.8)
    }

    /// The responsiveness parameter `ρ`.
    pub fn responsiveness(&self) -> f64 {
        self.responsiveness
    }

    /// The utilization threshold `δ`.
    pub fn utilization_threshold(&self) -> f64 {
        self.utilization
    }

    /// Whether a quantum with these statistics counts as efficient.
    pub fn is_efficient(&self, stats: &QuantumStats) -> bool {
        stats.work as f64 >= self.utilization * stats.allotment as f64 * stats.quantum_len as f64
    }
}

impl Controller for AGreedy {
    fn observe(&mut self, stats: &QuantumStats) -> f64 {
        // A zero allotment carries no utilization signal; hold the desire.
        if stats.allotment == 0 {
            return self.desire;
        }
        let deprived = (stats.allotment as f64) < self.desire;
        if !self.is_efficient(stats) {
            self.desire = (self.desire / self.responsiveness).max(1.0);
        } else if !deprived {
            self.desire *= self.responsiveness;
        }
        // efficient and deprived: desire unchanged.
        self.desire
    }

    fn current_request(&self) -> f64 {
        self.desire
    }

    fn name(&self) -> &'static str {
        "a-greedy"
    }

    fn supports_frozen_stepping(&self) -> bool {
        // observe() is a pure function of (desire, stats): replayable.
        true
    }

    fn is_steady(&self, stats: &QuantumStats) -> bool {
        // Only the holding branches are fixed points: a zero allotment,
        // an efficient-but-deprived quantum, or an inefficient quantum
        // already pinned at the floor. Satisfied quanta oscillate ×ρ/÷ρ
        // forever (the Figure 1 instability), so they are never steady.
        if stats.allotment == 0 {
            return true;
        }
        let deprived = (stats.allotment as f64) < self.desire;
        if !self.is_efficient(stats) {
            ((self.desire / self.responsiveness).max(1.0)).to_bits() == self.desire.to_bits()
        } else {
            deprived
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quantum(allotment: u32, quantum_len: u64, work: u64) -> QuantumStats {
        QuantumStats {
            allotment,
            quantum_len,
            steps_worked: quantum_len,
            work,
            span: 1.0,
            completed: false,
        }
    }

    #[test]
    fn efficient_satisfied_doubles() {
        let mut g = AGreedy::paper_default();
        // Desire 1, allotment 1, fully used.
        assert_eq!(g.observe(&quantum(1, 10, 10)), 2.0);
        assert_eq!(g.observe(&quantum(2, 10, 20)), 4.0);
    }

    #[test]
    fn inefficient_halves() {
        let mut g = AGreedy::new(2.0, 0.8);
        g.observe(&quantum(1, 10, 10)); // -> 2
        g.observe(&quantum(2, 10, 20)); // -> 4
                                        // Only 50% utilization at allotment 4: inefficient.
        assert_eq!(g.observe(&quantum(4, 10, 20)), 2.0);
    }

    #[test]
    fn efficient_deprived_holds() {
        let mut g = AGreedy::new(2.0, 0.8);
        g.observe(&quantum(1, 10, 10)); // desire 2
                                        // Granted 1 < desire 2, fully utilized: hold.
        assert_eq!(g.observe(&quantum(1, 10, 10)), 2.0);
    }

    #[test]
    fn desire_never_below_one() {
        let mut g = AGreedy::new(2.0, 0.8);
        for _ in 0..5 {
            g.observe(&quantum(1, 10, 0)); // totally idle quanta
        }
        assert_eq!(g.current_request(), 1.0);
    }

    #[test]
    fn oscillates_on_constant_parallelism() {
        // Constant parallelism A = 10, ample availability: the desire
        // must never settle — the instability of the paper's Figure 1.
        let a_job = 10.0f64;
        let mut g = AGreedy::paper_default();
        let mut desires = Vec::new();
        let mut d = g.current_request();
        for _ in 0..32 {
            let allot = d.ceil() as u32; // allocator grants the request
                                         // Work done: with allotment above the parallelism the job can
                                         // only use A·L cycles; below it, it saturates the allotment.
            let l = 100u64;
            let work = ((allot as f64).min(a_job) * l as f64) as u64;
            d = g.observe(&quantum(allot, l, work));
            desires.push(d);
        }
        let tail = &desires[8..];
        let min = tail.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = tail.iter().cloned().fold(0.0, f64::max);
        assert!(
            max / min >= 2.0 - 1e-9,
            "A-Greedy settled ({min}..{max}); expected sustained oscillation"
        );
    }

    #[test]
    fn zero_allotment_holds_desire() {
        let mut g = AGreedy::paper_default();
        g.observe(&quantum(1, 10, 10)); // desire 2
        assert_eq!(g.observe(&quantum(0, 10, 0)), 2.0);
    }

    #[test]
    fn only_holding_branches_are_steady() {
        let mut g = AGreedy::paper_default();
        assert!(g.supports_frozen_stepping());
        g.observe(&quantum(1, 10, 10)); // desire 2
        assert!(g.is_steady(&quantum(0, 10, 0)), "zero allotment holds");
        assert!(
            g.is_steady(&quantum(1, 10, 10)),
            "efficient + deprived holds"
        );
        assert!(
            !g.is_steady(&quantum(2, 10, 20)),
            "satisfied quanta keep doubling"
        );
        assert!(
            !g.is_steady(&quantum(2, 10, 5)),
            "inefficient above the floor keeps halving"
        );
        let floor = AGreedy::paper_default(); // desire 1
        assert!(
            floor.is_steady(&quantum(2, 10, 5)),
            "inefficient at the floor stays at 1"
        );
    }

    #[test]
    fn efficiency_threshold_is_inclusive() {
        let g = AGreedy::new(2.0, 0.8);
        assert!(g.is_efficient(&quantum(10, 10, 80)));
        assert!(!g.is_efficient(&quantum(10, 10, 79)));
    }

    #[test]
    #[should_panic(expected = "responsiveness")]
    fn rho_of_one_rejected() {
        let _ = AGreedy::new(1.0, 0.8);
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn delta_above_one_rejected() {
        let _ = AGreedy::new(2.0, 1.5);
    }
}
