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
    /// The run hit its quanta budget, or its next arrival lies past the
    /// last quantum boundary a `u64` clock can hold, before collecting
    /// every measured completion (conservatively treated as unstable).
    HorizonExhausted {
        /// The exhausted budget, or the quanta run when the clock ran
        /// out first.
        quanta: u64,
    },
}

/// Incremental queue-length trend test over in-system job counts.
///
/// The history is stored as runs of equal counts, so memory grows with
/// the number of population changes, not with the quanta recorded, and
/// every operation is O(1) except the trend test's two binary searches.
#[derive(Debug, Clone)]
pub struct SaturationDetector {
    cfg: SaturationConfig,
    /// Maximal runs of equal counts in recording order: adjacent runs
    /// always differ in count.
    runs: Vec<Run>,
    peak: u64,
}

/// One run of equal samples, with the history's cumulative length and
/// sum through its end. The sum is a `u128`: population × quanta can
/// pass 2⁶⁴ on a long horizon, and every sum below that converts to
/// the same `f64` as a `u64` would.
#[derive(Debug, Clone, Copy)]
struct Run {
    count: u64,
    end: u64,
    sum: u128,
}

impl SaturationDetector {
    /// A fresh detector.
    pub fn new(cfg: SaturationConfig) -> Self {
        Self {
            cfg,
            runs: Vec::new(),
            peak: 0,
        }
    }

    /// Records the in-system job count at a quantum boundary.
    pub fn record(&mut self, jobs_in_system: usize) {
        self.record_n(jobs_in_system, 1);
    }

    /// Records the same in-system count at `n` consecutive quantum
    /// boundaries — the population is constant across a frozen-quantum
    /// window. The window extends (or appends) one run in O(1), and the
    /// history is the same as `n` calls to [`record`](Self::record), so
    /// every future trend evaluation and the reported mean are too.
    pub fn record_n(&mut self, jobs_in_system: usize, n: u64) {
        if n == 0 {
            return;
        }
        let count = jobs_in_system as u64;
        let added = u128::from(count) * u128::from(n);
        self.peak = self.peak.max(count);
        match self.runs.last_mut() {
            Some(last) if last.count == count => {
                last.end += n;
                last.sum += added;
            }
            last => {
                let (end, sum) = last.map_or((0, 0), |r| (r.end, r.sum));
                self.runs.push(Run {
                    count,
                    end: end + n,
                    sum: sum + added,
                });
            }
        }
    }

    /// Runs stored: the number of maximal runs of equal samples.
    #[cfg(test)]
    pub(crate) fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Samples recorded so far, as a `u64`.
    fn samples(&self) -> u64 {
        self.runs.last().map_or(0, |r| r.end)
    }

    /// Sum of the first `k` samples (`k` ≤ [`len`](Self::len)): the
    /// runs that end by `k` plus the part of the run straddling it.
    fn prefix_sum(&self, k: u64) -> u128 {
        let i = self.runs.partition_point(|r| r.end <= k);
        let (end, sum) = match i.checked_sub(1) {
            Some(j) => (self.runs[j].end, self.runs[j].sum),
            None => (0, 0),
        };
        match self.runs.get(i) {
            Some(r) => sum + u128::from(k - end) * u128::from(r.count),
            None => sum,
        }
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
        let n = self.samples();
        let min = self.cfg.min_samples.max(8) as u64;
        let mut next = (n / every + 1) * every;
        if next < min {
            next = min.div_ceil(every) * every;
        }
        next - n
    }

    /// Samples recorded so far.
    pub fn len(&self) -> usize {
        self.samples() as usize
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Peak in-system jobs over every recorded sample (0 before any
    /// sample) — the memory-scale figure the bench harness reports per
    /// open kernel.
    pub fn peak_jobs_in_system(&self) -> u64 {
        self.peak
    }

    /// Mean in-system jobs over every recorded sample.
    pub fn mean_jobs_in_system(&self) -> f64 {
        match self.runs.last() {
            Some(r) => r.sum as f64 / r.end as f64,
            None => 0.0,
        }
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
        let last = self.runs.last()?;
        if last.count as usize >= self.cfg.max_in_system {
            return Some(SaturationReason::InSystemCap {
                jobs_in_system: last.count,
            });
        }
        let n = last.end;
        if n < self.cfg.min_samples.max(8) as u64 || !n.is_multiple_of(self.cfg.check_every) {
            return None;
        }
        let start = n / 4;
        let mid = start + (n - start) / 2;
        let (at_start, at_mid) = (self.prefix_sum(start), self.prefix_sum(mid));
        let early = (at_mid - at_start) as f64 / (mid - start) as f64;
        let late = (last.sum - at_mid) as f64 / (n - mid) as f64;
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
    fn constant_population_is_stored_as_one_run() {
        let mut d = detector(64, 16);
        for _ in 0..1_000 {
            d.record(5);
        }
        d.record_n(5, 999_000);
        d.record_n(9, 0); // no sample: neither a run nor the peak moves
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.len(), 1_000_000);
        assert_eq!(d.peak_jobs_in_system(), 5);
        assert_eq!(d.mean_jobs_in_system(), 5.0);
        d.record(6);
        d.record(5);
        assert_eq!(d.run_count(), 3, "a change of count starts a new run");
    }

    #[test]
    fn sums_past_u64_stay_exact() {
        let mut d = SaturationDetector::new(SaturationConfig {
            min_samples: 8,
            check_every: 1 << 32,
            max_in_system: usize::MAX,
            ..SaturationConfig::default()
        });
        // Just below the edge: (2³² − 1) · 2³² = 2⁶⁴ − 2³², which a u64
        // holds, so the mean is the u64 computation's, bit for bit.
        let below = u64::from(u32::MAX) << 32;
        d.record_n(u32::MAX as usize, 1 << 32);
        assert_eq!(
            d.mean_jobs_in_system().to_bits(),
            (below as f64 / (1u64 << 32) as f64).to_bits()
        );
        // One more sample of 2³² puts the sum at exactly 2⁶⁴, which a
        // wrapping u64 would read as 0.
        d.record(1 << 32);
        let exact = 2f64.powi(64) / ((1u64 << 32) + 1) as f64;
        assert_eq!(d.mean_jobs_in_system().to_bits(), exact.to_bits());
        // 2³² − 1 samples more at 2³⁴ reach 2³³ samples, a trend
        // evaluation point. The late half, samples [5·2³⁰, 2³³), is all
        // 2³⁴, so its sum is 3·2⁶⁴: exact, the late mean is 2³⁴; wrapped,
        // it would read 0.
        d.record_n(1 << 34, (1 << 32) - 1);
        assert_eq!(d.len(), 1 << 33);
        match d.check() {
            Some(SaturationReason::QueueGrowth {
                early_mean,
                late_mean,
            }) => {
                assert_eq!(late_mean, 2f64.powi(34));
                assert!(early_mean < late_mean);
            }
            other => panic!("expected a growth trip, got {other:?}"),
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
