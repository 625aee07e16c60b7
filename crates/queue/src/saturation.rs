//! Saturation detection: abort open-system runs that will never reach
//! steady state.
//!
//! An open system is stable only when the offered load is below the
//! machine's effective capacity; at ρ ≥ 1 the number of jobs in the
//! system grows without bound and a run-until-N-completions driver
//! would simply never terminate. The detector watches the in-system
//! job count at every quantum boundary and trips on a sustained upward
//! trend (or a hard cap), so unstable points are *reported*, not hung
//! on.

/// Tuning of the queue-length trend test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaturationConfig {
    /// Samples (executed quanta) before the trend test activates —
    /// keeps the empty-system ramp-up from tripping it.
    pub min_samples: usize,
    /// Quanta between trend evaluations.
    pub check_every: u64,
    /// The late-window mean must exceed `growth_factor` × the early
    /// mean...
    pub growth_factor: f64,
    /// ...plus this absolute margin (jobs), so near-empty systems do
    /// not trip on ratios of small numbers.
    pub margin: f64,
    /// Hard cap on in-system jobs: trips immediately when crossed.
    pub max_in_system: usize,
}

impl Default for SaturationConfig {
    fn default() -> Self {
        Self {
            min_samples: 256,
            check_every: 64,
            growth_factor: 1.5,
            margin: 8.0,
            max_in_system: 100_000,
        }
    }
}

/// Why a run was declared unstable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SaturationReason {
    /// The in-system job count trends upward: the late-window mean
    /// exceeds the early-window mean beyond the configured factor and
    /// margin.
    QueueGrowth {
        /// Mean in-system jobs over the early half of the test window.
        early_mean: f64,
        /// Mean in-system jobs over the late half of the test window.
        late_mean: f64,
    },
    /// The in-system job count crossed the hard cap.
    InSystemCap {
        /// The count at the moment the cap tripped.
        jobs_in_system: u64,
    },
    /// The run hit its quanta budget before collecting every measured
    /// completion (conservatively treated as unstable).
    HorizonExhausted {
        /// The exhausted budget.
        quanta: u64,
    },
}

/// Incremental queue-length trend test over in-system job counts.
#[derive(Debug, Clone)]
pub struct SaturationDetector {
    cfg: SaturationConfig,
    samples: Vec<u64>,
}

impl SaturationDetector {
    /// A fresh detector.
    pub fn new(cfg: SaturationConfig) -> Self {
        Self {
            cfg,
            samples: Vec::new(),
        }
    }

    /// Records the in-system job count at a quantum boundary.
    pub fn record(&mut self, jobs_in_system: usize) {
        self.samples.push(jobs_in_system as u64);
    }

    /// Records the same in-system count at `n` consecutive quantum
    /// boundaries — the population is constant across a frozen-quantum
    /// window, and replicating the sample keeps the history (and with it
    /// every future trend evaluation and the reported mean) identical
    /// to quantum-by-quantum recording.
    pub fn record_n(&mut self, jobs_in_system: usize, n: u64) {
        let target = self.samples.len() + n as usize;
        self.samples.resize(target, jobs_in_system as u64);
    }

    /// Additional samples until the next trend evaluation would fire
    /// (`u64::MAX` if the cadence is zero, i.e. never). Event-driven
    /// drivers end bulk windows at this horizon so a mid-window trend
    /// trip cannot be skipped over: between evaluation points only the
    /// hard cap is live, and a constant population cannot newly cross
    /// it.
    pub fn quanta_until_trend_check(&self) -> u64 {
        let every = self.cfg.check_every;
        if every == 0 {
            return u64::MAX;
        }
        let n = self.samples.len() as u64;
        let min = self.cfg.min_samples.max(8) as u64;
        let mut next = (n / every + 1) * every;
        if next < min {
            next = min.div_ceil(every) * every;
        }
        next - n
    }

    /// Samples recorded so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Peak in-system jobs over every recorded sample (0 before any
    /// sample) — the memory-scale figure the bench harness reports per
    /// open kernel.
    pub fn peak_jobs_in_system(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// Mean in-system jobs over every recorded sample.
    pub fn mean_jobs_in_system(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
    }

    /// Evaluates the detector. The hard cap is checked on every call;
    /// the trend test only at the configured cadence once the minimum
    /// sample count is reached.
    ///
    /// The trend test discards the earliest quarter of the history
    /// (transient ramp-up from an empty system), splits the remainder
    /// into an early and a late half, and trips when the late mean
    /// exceeds `growth_factor · early + margin` — a load with ρ ≥ 1
    /// grows linearly and crosses that line quickly, while a stable
    /// queue fluctuates around its steady-state mean and never does.
    pub fn check(&self) -> Option<SaturationReason> {
        if let Some(&last) = self.samples.last() {
            if last as usize >= self.cfg.max_in_system {
                return Some(SaturationReason::InSystemCap {
                    jobs_in_system: last,
                });
            }
        }
        let n = self.samples.len();
        if n < self.cfg.min_samples.max(8) || !(n as u64).is_multiple_of(self.cfg.check_every) {
            return None;
        }
        let window = &self.samples[n / 4..];
        let half = window.len() / 2;
        let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
        let early = mean(&window[..half]);
        let late = mean(&window[half..]);
        if late > self.cfg.growth_factor * early + self.cfg.margin {
            Some(SaturationReason::QueueGrowth {
                early_mean: early,
                late_mean: late,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(min_samples: usize, check_every: u64) -> SaturationDetector {
        SaturationDetector::new(SaturationConfig {
            min_samples,
            check_every,
            ..SaturationConfig::default()
        })
    }

    #[test]
    fn linear_growth_trips_the_trend_test() {
        let mut d = detector(64, 16);
        let mut tripped = None;
        for t in 0..4096u64 {
            d.record(t as usize / 4);
            if let Some(reason) = d.check() {
                tripped = Some((t, reason));
                break;
            }
        }
        let (t, reason) = tripped.expect("linear queue growth must trip");
        assert!(t < 2048, "tripped too late: {t}");
        assert!(
            matches!(reason, SaturationReason::QueueGrowth { early_mean, late_mean }
            if late_mean > early_mean)
        );
    }

    #[test]
    fn stable_fluctuation_never_trips() {
        let mut d = detector(64, 16);
        for t in 0..8192u64 {
            // Bounded oscillation around 10 jobs.
            d.record(10 + (t % 7) as usize);
            assert!(d.check().is_none(), "stable queue flagged at t={t}");
        }
        assert!((d.mean_jobs_in_system() - 13.0).abs() < 0.5);
    }

    #[test]
    fn ramp_to_steady_state_does_not_trip() {
        // Converging systems look like growth early on; the discarded
        // first quarter and the margin must absorb it.
        let mut d = detector(64, 16);
        for t in 0..8192u64 {
            let level = (t / 4).min(30) as usize + (t % 3) as usize;
            d.record(level);
            assert!(d.check().is_none(), "converging queue flagged at t={t}");
        }
    }

    #[test]
    fn hard_cap_trips_immediately_regardless_of_cadence() {
        let mut d = SaturationDetector::new(SaturationConfig {
            max_in_system: 50,
            ..SaturationConfig::default()
        });
        d.record(49);
        assert!(d.check().is_none());
        d.record(50);
        assert!(matches!(
            d.check(),
            Some(SaturationReason::InSystemCap { jobs_in_system: 50 })
        ));
    }

    #[test]
    fn record_n_is_identical_to_repeated_record() {
        let mut bulk = detector(64, 16);
        let mut serial = detector(64, 16);
        for t in 0..40u64 {
            bulk.record(t as usize);
            serial.record(t as usize);
        }
        bulk.record_n(7, 100);
        for _ in 0..100 {
            serial.record(7);
        }
        assert_eq!(bulk.len(), serial.len());
        assert_eq!(
            bulk.mean_jobs_in_system().to_bits(),
            serial.mean_jobs_in_system().to_bits()
        );
        assert_eq!(bulk.check(), serial.check());
    }

    #[test]
    fn trend_check_horizon_lands_on_evaluation_points() {
        let mut d = detector(64, 16);
        // Empty history: first evaluation at max(min_samples, multiple).
        assert_eq!(d.quanta_until_trend_check(), 64);
        d.record_n(3, 64);
        assert_eq!(d.quanta_until_trend_check(), 16);
        d.record(3);
        // 65 samples: next multiple of 16 is 80.
        assert_eq!(d.quanta_until_trend_check(), 15);
        // Walking exactly to the horizon always lands where the trend
        // test actually evaluates.
        for _ in 0..5 {
            let h = d.quanta_until_trend_check();
            d.record_n(3, h);
            assert!((d.len() as u64).is_multiple_of(16) && d.len() >= 64);
        }
    }

    #[test]
    fn trend_test_waits_for_minimum_samples() {
        let mut d = detector(512, 16);
        for t in 0..511u64 {
            d.record(t as usize); // violent growth, but below min_samples
            assert!(d.check().is_none());
        }
    }
}
