//! Oracle test for the run-length saturation history: every answer of
//! [`SaturationDetector`] must agree bit for bit with a per-quantum
//! reference that stores one sample per recorded quantum and re-sums
//! slices of it, as the detector did before its history became runs.

use crate::saturation::{SaturationConfig, SaturationDetector, SaturationReason};
use proptest::prelude::*;

/// The per-quantum detector: one `u64` per recorded quantum.
struct Oracle {
    cfg: SaturationConfig,
    samples: Vec<u64>,
}

impl Oracle {
    fn record_n(&mut self, jobs_in_system: usize, n: u64) {
        let target = self.samples.len() + n as usize;
        self.samples.resize(target, jobs_in_system as u64);
    }

    fn quanta_until_trend_check(&self) -> u64 {
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

    fn peak(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
    }

    fn check(&self) -> Option<SaturationReason> {
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

    /// Maximal runs of equal samples.
    fn runs(&self) -> usize {
        self.samples.chunk_by(|a, b| a == b).count()
    }
}

/// A verdict with its means as bits, so equality is bit equality.
fn bits(reason: Option<SaturationReason>) -> Option<(u64, u64)> {
    reason.map(|r| match r {
        SaturationReason::QueueGrowth {
            early_mean,
            late_mean,
        } => (early_mean.to_bits(), late_mean.to_bits()),
        SaturationReason::InSystemCap { jobs_in_system } => (u64::MAX, jobs_in_system),
        SaturationReason::HorizonExhausted { quanta } => (u64::MAX - 1, quanta),
    })
}

fn assert_agree(d: &SaturationDetector, o: &Oracle, step: usize) {
    assert_eq!(d.len(), o.samples.len(), "len after call {step}");
    assert_eq!(
        d.is_empty(),
        o.samples.is_empty(),
        "is_empty after call {step}"
    );
    assert_eq!(d.run_count(), o.runs(), "runs after call {step}");
    assert_eq!(d.peak_jobs_in_system(), o.peak(), "peak after call {step}");
    assert_eq!(
        d.mean_jobs_in_system().to_bits(),
        o.mean().to_bits(),
        "mean after call {step}"
    );
    assert_eq!(
        d.quanta_until_trend_check(),
        o.quanta_until_trend_check(),
        "trend horizon after call {step}"
    );
    assert_eq!(bits(d.check()), bits(o.check()), "check after call {step}");
}

/// `(min_samples, check_every, max_in_system)`: the default tuning, a
/// per-sample cadence, cadences that do not divide `min_samples`, a
/// zero cadence (trend test off), and caps low enough to trip.
fn configs() -> impl Strategy<Value = SaturationConfig> {
    (0u8..6, 0usize..300, 1u64..100, 0u8..4).prop_map(|(mode, min, every, cap)| {
        let (min_samples, check_every) = match mode {
            0 => (256, 64),
            1 => (min, 1),
            2 => (min, every),
            3 => (min, 0),
            4 => (0, every),
            _ => (8, 3),
        };
        SaturationConfig {
            min_samples,
            check_every,
            max_in_system: if cap == 0 { 60 } else { 100_000 },
            ..SaturationConfig::default()
        }
    })
}

/// Calls of `(kind, raw count, raw n)`. Kind 0 records one sample,
/// kind 1 a window of 0–199 samples (zero included), kinds 2 and 3
/// repeat the previous count (one sample or a window) so runs must
/// merge.
fn calls() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    prop::collection::vec((0u8..4, 0u64..24, 0u64..200), 1..=120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn run_length_detector_matches_per_quantum_oracle(
        cfg in configs(),
        calls in calls(),
        drift in 0u64..3,
    ) {
        let mut d = SaturationDetector::new(cfg);
        let mut o = Oracle { cfg, samples: Vec::new() };
        assert_agree(&d, &o, 0);
        let mut count = 0usize;
        for (step, &(kind, raw, n)) in calls.iter().enumerate() {
            // `drift` > 0 makes the population grow with the history, so
            // the trend test trips in some cases; 0 keeps it stable.
            if kind < 2 {
                count = (raw + drift * o.samples.len() as u64 / 16) as usize;
            }
            if kind % 2 == 0 {
                d.record(count);
                o.record_n(count, 1);
            } else {
                d.record_n(count, n);
                o.record_n(count, n);
            }
            assert_agree(&d, &o, step + 1);
        }
    }
}
