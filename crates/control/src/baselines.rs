//! Reference request calculators used as experiment controls.

use crate::Controller;
use abg_sched::QuantumStats;

/// Requests a fixed number of processors every quantum — the
/// conventional non-adaptive strategy the paper's introduction argues
/// against.
#[derive(Debug, Clone, Copy)]
pub struct ConstantRequest {
    request: f64,
}

impl ConstantRequest {
    /// Creates a calculator that always requests `request` processors.
    ///
    /// # Panics
    ///
    /// Panics if `request < 1` or is not finite.
    pub fn new(request: f64) -> Self {
        assert!(
            request.is_finite() && request >= 1.0,
            "constant request must be at least 1, got {request}"
        );
        Self { request }
    }
}

impl Controller for ConstantRequest {
    fn initial_request(&self) -> f64 {
        self.request
    }

    fn observe(&mut self, _stats: &QuantumStats) -> f64 {
        self.request
    }

    fn current_request(&self) -> f64 {
        self.request
    }

    fn name(&self) -> &'static str {
        "constant"
    }

    fn supports_frozen_stepping(&self) -> bool {
        true
    }

    fn is_steady(&self, _stats: &QuantumStats) -> bool {
        // The request never moves: every quantum is a fixed point.
        true
    }
}

/// A clairvoyant calculator that always requests the job's *overall*
/// average parallelism `T1/T∞`.
///
/// No online scheduler can use this (the parallelism is unknown before
/// the job finishes); it serves as an idealised upper baseline when
/// evaluating how close the adaptive schemes get.
#[derive(Debug, Clone, Copy)]
pub struct OracleRequest {
    parallelism: f64,
}

impl OracleRequest {
    /// Creates an oracle for a job whose average parallelism is known.
    ///
    /// # Panics
    ///
    /// Panics if `average_parallelism < 1` or is not finite.
    pub fn new(average_parallelism: f64) -> Self {
        assert!(
            average_parallelism.is_finite() && average_parallelism >= 1.0,
            "average parallelism must be at least 1, got {average_parallelism}"
        );
        Self {
            parallelism: average_parallelism,
        }
    }
}

impl Controller for OracleRequest {
    fn initial_request(&self) -> f64 {
        self.parallelism
    }

    fn observe(&mut self, _stats: &QuantumStats) -> f64 {
        self.parallelism
    }

    fn current_request(&self) -> f64 {
        self.parallelism
    }

    fn name(&self) -> &'static str {
        "oracle"
    }

    fn supports_frozen_stepping(&self) -> bool {
        true
    }

    fn is_steady(&self, _stats: &QuantumStats) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn any_quantum() -> QuantumStats {
        QuantumStats {
            allotment: 3,
            quantum_len: 5,
            steps_worked: 5,
            work: 15,
            span: 5.0,
            completed: false,
        }
    }

    #[test]
    fn constant_ignores_feedback() {
        let mut c = ConstantRequest::new(7.0);
        assert_eq!(c.initial_request(), 7.0);
        assert_eq!(c.observe(&any_quantum()), 7.0);
        assert_eq!(c.current_request(), 7.0);
        assert_eq!(c.name(), "constant");
    }

    #[test]
    fn oracle_requests_average_parallelism() {
        let mut o = OracleRequest::new(12.5);
        assert_eq!(o.initial_request(), 12.5);
        assert_eq!(o.observe(&any_quantum()), 12.5);
    }

    #[test]
    fn boxed_calculator_dispatches() {
        let mut b: Box<dyn Controller + Send> = Box::new(ConstantRequest::new(4.0));
        assert_eq!(b.observe(&any_quantum()), 4.0);
        assert_eq!(b.name(), "constant");
        assert_eq!(b.initial_request(), 4.0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn constant_below_one_rejected() {
        let _ = ConstantRequest::new(0.5);
    }

    #[test]
    #[should_panic(expected = "average parallelism")]
    fn oracle_nan_rejected() {
        let _ = OracleRequest::new(f64::NAN);
    }
}
