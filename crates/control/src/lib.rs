//! Processor-request calculation for the ABG reproduction.
//!
//! Between scheduling quanta the task scheduler reports a *processor
//! request* `d(q+1)` to the OS allocator, computed from the statistics of
//! the quantum that just ended. This crate implements the paper's
//! [`AControl`] adaptive integral controller (Section 3) and the
//! [`AGreedy`] multiplicative-increase/multiplicative-decrease baseline it
//! is compared against, plus simple reference calculators and the
//! control-theoretic analysis toolkit behind Theorem 1. The
//! [`group`] module lifts the same feedback shape one level up: a
//! [`GroupAllocator`] repartitions the machine among processor groups
//! from per-group desire reports (hierarchical two-level scheduling).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acontrol;
pub mod adaptive_rate;
pub mod agreedy;
pub mod analysis;
pub mod baselines;
pub mod group;
pub mod pi;

pub use acontrol::AControl;
pub use adaptive_rate::AdaptiveRateControl;
pub use agreedy::AGreedy;
pub use analysis::{analyze_step_response, ClosedLoop, PiClosedLoop, StepMetrics};
pub use baselines::{ConstantRequest, OracleRequest};
pub use group::{
    equi_partition, ConservativeTwoLevel, DesireProportional, GroupAllocator, GroupDesire,
    GroupPolicy, StaticEqui,
};
pub use pi::PiControl;

use abg_sched::QuantumStats;

/// A non-clairvoyant per-job controller: the request side of the
/// two-level loop, plus an optional say in the quantum length.
///
/// The controller is fed the statistics of each completed quantum and
/// produces the request for the next one. `current_request` must return
/// the value most recently produced (or the initial request before any
/// feedback), so the simulator can query a job's standing request without
/// mutating state.
///
/// The two quantum-length hooks let a controller *pace* the loop (the
/// paper's adaptive-quantum future-work item): the engine passes its
/// configured quantum length `L` and the controller returns the length it
/// wants for the (first / next) quantum. The defaults return `L`
/// unchanged, so ordinary request calculators are fixed-quantum
/// controllers for free. On a machine shared by several jobs the engine
/// runs each quantum at the minimum length any live job asks for.
pub trait Controller {
    /// The request for the job's first quantum; the paper fixes
    /// `d(1) = 1` for both ABG and A-Greedy.
    fn initial_request(&self) -> f64 {
        1.0
    }

    /// Observes quantum `q` and returns the request `d(q+1)`.
    fn observe(&mut self, stats: &QuantumStats) -> f64;

    /// The standing request (last value returned by [`observe`], or the
    /// initial request).
    ///
    /// [`observe`]: Controller::observe
    fn current_request(&self) -> f64;

    /// Short human-readable name used in traces and reports.
    fn name(&self) -> &'static str;

    /// Length of the job's first quantum, given the engine's configured
    /// length `default_len`. Fixed-quantum controllers keep the default.
    fn initial_quantum_len(&self, default_len: u64) -> u64 {
        default_len
    }

    /// Length the controller wants for the job's next quantum, queried
    /// right after each [`observe`] call. Fixed-quantum controllers keep
    /// the default.
    ///
    /// [`observe`]: Controller::observe
    fn next_quantum_len(&mut self, default_len: u64) -> u64 {
        default_len
    }

    /// Whether the controller participates in frozen-quantum
    /// macro-stepping: its [`observe`] must be a pure function of
    /// `(current state, stats)` with no hidden inputs, and its
    /// [`next_quantum_len`] must be a pure function of the state (no
    /// side effects), so the engine can replay the feedback per-quantum
    /// (or skip it while [`is_steady`] holds) during a bulk advance.
    /// Defaults to `false` — unknown controllers force the engine back
    /// to quantum-by-quantum stepping.
    ///
    /// [`next_quantum_len`]: Controller::next_quantum_len
    ///
    /// [`observe`]: Controller::observe
    /// [`is_steady`]: Controller::is_steady
    fn supports_frozen_stepping(&self) -> bool {
        false
    }

    /// Whether feeding the *same* `stats` to [`observe`] again would
    /// leave the controller state (and thus its request and quantum
    /// length) bit-identical. A conservative `false` is always correct;
    /// `true` lets the engine skip the replay entirely for this job.
    ///
    /// [`observe`]: Controller::observe
    fn is_steady(&self, stats: &QuantumStats) -> bool {
        let _ = stats;
        false
    }
}

/// Boxed controllers are controllers too, so the simulator can hold a
/// heterogeneous set of per-job controllers. All methods forward —
/// including the quantum-length and frozen-stepping hooks, so a boxed
/// paced controller still paces the engine and a boxed steady controller
/// still freezes it (a defaulted forward here would silently disable
/// macro-stepping for every boxed controller).
impl Controller for Box<dyn Controller + Send> {
    fn initial_request(&self) -> f64 {
        (**self).initial_request()
    }
    fn observe(&mut self, stats: &QuantumStats) -> f64 {
        (**self).observe(stats)
    }
    fn current_request(&self) -> f64 {
        (**self).current_request()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn initial_quantum_len(&self, default_len: u64) -> u64 {
        (**self).initial_quantum_len(default_len)
    }
    fn next_quantum_len(&mut self, default_len: u64) -> u64 {
        (**self).next_quantum_len(default_len)
    }
    fn supports_frozen_stepping(&self) -> bool {
        (**self).supports_frozen_stepping()
    }
    fn is_steady(&self, stats: &QuantumStats) -> bool {
        (**self).is_steady(stats)
    }
}

/// Mutable references are controllers too, so a driver that owns its
/// controller can lend it to a generic engine for the duration of a run.
impl<T: Controller + ?Sized> Controller for &mut T {
    fn initial_request(&self) -> f64 {
        (**self).initial_request()
    }
    fn observe(&mut self, stats: &QuantumStats) -> f64 {
        (**self).observe(stats)
    }
    fn current_request(&self) -> f64 {
        (**self).current_request()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn initial_quantum_len(&self, default_len: u64) -> u64 {
        (**self).initial_quantum_len(default_len)
    }
    fn next_quantum_len(&mut self, default_len: u64) -> u64 {
        (**self).next_quantum_len(default_len)
    }
    fn supports_frozen_stepping(&self) -> bool {
        (**self).supports_frozen_stepping()
    }
    fn is_steady(&self, stats: &QuantumStats) -> bool {
        (**self).is_steady(stats)
    }
}
