//! Adaptive quantum length — the paper's first future-work item
//! (Section 9: "dynamically adjusting the quantum length and other
//! parameters to achieve better system wide adaptivity").
//!
//! The quantum length trades reaction speed against reallocation
//! overhead: short quanta track parallelism changes quickly but
//! renegotiate processors constantly; long quanta amortize the
//! renegotiation but stretch the one-quantum lag a feedback scheduler
//! pays at every parallelism transition.
//!
//! Pacing rides on the unified [`Controller`] trait: a controller's
//! [`next_quantum_len`](Controller::next_quantum_len) hook lets it pick
//! each quantum's length online, so the *same* generic core drives
//! fixed and adaptive quanta. [`Paced`] wraps any request calculator
//! with an [`AdaptiveQuantum`] pacer implementing the natural rule —
//! lengthen while the request is stable, shrink as soon as it moves —
//! and [`FixedQuantum`] is the degenerate pacer that never moves.
//! Run a paced controller through any driver, e.g.
//! [`run_single_job`](crate::run_single_job); the run's
//! `reallocations` counts the quanta whose allotment changed.
//!
//! (The pre-unification `QuantumPolicy` trait, which duplicated the
//! request bookkeeping outside the controller, is gone; `Paced`
//! subsumes it.)

use abg_control::Controller;
use abg_sched::QuantumStats;

/// The conventional fixed-length quantum, as a pacer: wrap a controller
/// with [`FixedQuantum::pace`] to run it at this length regardless of
/// the engine default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedQuantum(pub u64);

impl FixedQuantum {
    /// Wraps a request calculator into a controller running every
    /// quantum at this fixed length.
    ///
    /// # Panics
    ///
    /// Panics if the length is zero.
    pub fn pace<C: Controller>(self, inner: C) -> Paced<C> {
        AdaptiveQuantum::from(self).pace(inner)
    }
}

impl From<FixedQuantum> for AdaptiveQuantum {
    /// The degenerate pacer `min = max = L`: the band never matters and
    /// the length never moves.
    fn from(fixed: FixedQuantum) -> Self {
        assert!(fixed.0 > 0, "quantum length must be positive");
        Self {
            min: fixed.0,
            max: fixed.0,
            stability_band: f64::INFINITY,
            len: fixed.0,
        }
    }
}

/// Multiplicative adaptive quantum sizing.
///
/// If the feedback update moved the request by less than
/// `stability_band` (relative), the job's parallelism is steady and the
/// quantum doubles (capped at `max`); otherwise it halves (floored at
/// `min`). On a constant-parallelism job the steady-state quantum is
/// `max`, cutting reallocation events by `max/min`; at every phase
/// transition the quantum collapses to react quickly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveQuantum {
    /// Smallest quantum length.
    pub min: u64,
    /// Largest quantum length.
    pub max: u64,
    /// Relative request-change threshold for "stable".
    pub stability_band: f64,
    len: u64,
}

impl AdaptiveQuantum {
    /// Creates a pacer starting from `min`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min ≤ max` and the band is positive.
    pub fn new(min: u64, max: u64, stability_band: f64) -> Self {
        assert!(min > 0 && min <= max, "need 0 < min ≤ max");
        assert!(
            stability_band > 0.0 && stability_band.is_finite(),
            "stability band must be positive"
        );
        Self {
            min,
            max,
            stability_band,
            len: min,
        }
    }

    /// The current quantum length.
    pub fn current_len(&self) -> u64 {
        self.len
    }

    /// Feeds one feedback update — the request that drove the quantum
    /// and the request the controller produced from it — and returns the
    /// next quantum's length: doubled if the relative change stayed
    /// within the stability band, halved otherwise.
    pub fn update(&mut self, prev_request: f64, next_request: f64) -> u64 {
        let relative_change = (next_request - prev_request).abs() / prev_request.max(1.0);
        if relative_change <= self.stability_band {
            self.len = (self.len * 2).min(self.max);
        } else {
            self.len = (self.len / 2).max(self.min);
        }
        self.len
    }

    /// Wraps a request calculator into a [`Paced`] controller driven by
    /// this pacer.
    pub fn pace<C: Controller>(self, inner: C) -> Paced<C> {
        Paced { inner, pacer: self }
    }
}

/// A request calculator paced by an [`AdaptiveQuantum`]: the unified
/// [`Controller`] that merges the old request/quantum-length split.
///
/// The request side forwards to the wrapped calculator untouched; after
/// every observation the pacer sees the (previous, next) request pair
/// and resizes the quantum, which the engine picks up through
/// [`Controller::next_quantum_len`]. Works in every driver — single
/// job, closed multi-job, open system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paced<C> {
    inner: C,
    pacer: AdaptiveQuantum,
}

impl<C> Paced<C> {
    /// The wrapped request calculator.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// The pacer state (current quantum length, bounds, band).
    pub fn pacer(&self) -> &AdaptiveQuantum {
        &self.pacer
    }
}

impl<C: Controller> Controller for Paced<C> {
    fn initial_request(&self) -> f64 {
        self.inner.initial_request()
    }

    fn observe(&mut self, stats: &QuantumStats) -> f64 {
        // `current_request` is the request that drove this quantum —
        // exactly the "previous" side of the pacer's stability test.
        let prev = self.inner.current_request();
        let next = self.inner.observe(stats);
        self.pacer.update(prev, next);
        next
    }

    fn current_request(&self) -> f64 {
        self.inner.current_request()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initial_quantum_len(&self, _default_len: u64) -> u64 {
        self.pacer.len
    }

    fn next_quantum_len(&mut self, _default_len: u64) -> u64 {
        self.pacer.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SingleJobConfig;
    use abg_alloc::Scripted;
    use abg_control::AControl;
    use abg_dag::{Phase, PhasedJob};
    use abg_sched::PipelinedExecutor;

    fn forkjoin() -> PhasedJob {
        PhasedJob::new(vec![
            Phase::new(1, 100),
            Phase::new(12, 600),
            Phase::new(1, 100),
            Phase::new(12, 600),
            Phase::new(1, 100),
        ])
    }

    #[test]
    fn fixed_pacer_reproduces_fixed_engine() {
        let job = forkjoin();
        let mut a = PipelinedExecutor::new(&job);
        let mut c = AControl::new(0.2);
        let mut al = Scripted::ample(64);
        let fixed = crate::run_single_job(&mut a, &mut c, &mut al, SingleJobConfig::new(50));

        let mut b = PipelinedExecutor::new(&job);
        let mut c2 = FixedQuantum(50).pace(AControl::new(0.2));
        let mut al2 = Scripted::ample(64);
        let adaptive = crate::run_single_job(&mut b, &mut c2, &mut al2, SingleJobConfig::new(50));
        assert_eq!(fixed.running_time, adaptive.running_time);
        assert_eq!(fixed.waste, adaptive.waste);
        assert_eq!(fixed.quanta, adaptive.quanta);
    }

    #[test]
    fn adaptive_pacer_uses_fewer_quanta_on_stable_jobs() {
        let job = PhasedJob::constant(8, 4000);
        let run_with = |adaptive: bool| {
            let mut ex = PipelinedExecutor::new(&job);
            let mut al = Scripted::ample(64);
            let pacer = if adaptive {
                AdaptiveQuantum::new(25, 400, 0.05)
            } else {
                AdaptiveQuantum::from(FixedQuantum(25))
            };
            let mut c = pacer.pace(AControl::new(0.2));
            crate::run_single_job(&mut ex, &mut c, &mut al, SingleJobConfig::new(25))
        };
        let fixed_run = run_with(false);
        let adaptive_run = run_with(true);
        assert!(
            adaptive_run.quanta * 2 < fixed_run.quanta,
            "adaptive {} quanta vs fixed {}",
            adaptive_run.quanta,
            fixed_run.quanta
        );
        // And it must not meaningfully slow the job down.
        assert!(adaptive_run.running_time as f64 <= fixed_run.running_time as f64 * 1.2);
    }

    #[test]
    fn adaptive_pacer_shrinks_on_transitions() {
        let mut p = AdaptiveQuantum::new(10, 160, 0.05);
        // Stable feedback: grows 10 -> 20 -> 40.
        assert_eq!(p.update(8.0, 8.0), 20);
        assert_eq!(p.update(8.0, 8.1), 40);
        // A big request move: collapses 40 -> 20 -> 10 -> 10.
        assert_eq!(p.update(8.0, 2.0), 20);
        assert_eq!(p.update(2.0, 8.0), 10);
        assert_eq!(p.update(8.0, 2.0), 10);
    }

    #[test]
    fn reallocation_count_tracks_allotment_changes() {
        let job = PhasedJob::constant(4, 200);
        let mut ex = PipelinedExecutor::new(job);
        // Rate 0: one-step convergence, requests 1 then 4.
        let mut c = FixedQuantum(20).pace(AControl::new(0.0));
        let mut al = Scripted::ample(16);
        let run = crate::run_single_job(&mut ex, &mut c, &mut al, SingleJobConfig::new(20));
        assert_eq!(
            run.reallocations, 1,
            "only the 1 -> 4 jump changes the allotment"
        );
    }

    #[test]
    fn paced_controller_works_in_the_multi_job_engine() {
        // The merged trait means pacing is no longer single-job only:
        // a paced job shortens shared quanta (the engine runs at the
        // minimum any live controller asks for).
        use abg_alloc::DynamicEquiPartition;
        let mut sim = crate::MultiJobSim::new(DynamicEquiPartition::new(32), 40);
        sim.add_job(
            Box::new(PipelinedExecutor::new(forkjoin())),
            Box::new(AdaptiveQuantum::new(10, 160, 0.05).pace(AControl::new(0.2))),
            0,
        );
        sim.add_job(
            Box::new(PipelinedExecutor::new(forkjoin())),
            Box::new(AControl::new(0.2)),
            0,
        );
        let out = sim.run();
        assert_eq!(out.jobs.len(), 2);
        let total_work: u64 = out.jobs.iter().map(|j| j.work).sum();
        assert_eq!(total_work, 2 * forkjoin().work());
    }

    #[test]
    #[should_panic(expected = "min ≤ max")]
    fn bad_bounds_rejected() {
        let _ = AdaptiveQuantum::new(100, 10, 0.05);
    }
}
