//! Property tests for release schedules and arrival streams: the
//! closed-system sampler ([`ReleaseSchedule::sample`]) and the
//! open-system stream ([`ArrivalProcess::stream`]).

use abg_workload::{ArrivalProcess, ReleaseSchedule};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Batched schedules release every job at step 0, whatever the set
    /// size or rng state.
    #[test]
    fn batched_releases_are_all_zero(n in 0usize..200, seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let releases = ReleaseSchedule::Batched.sample(n, &mut rng);
        prop_assert_eq!(releases.len(), n);
        prop_assert!(releases.iter().all(|&r| r == 0));
    }

    /// Uniform releases stay inside `[0, horizon]` inclusive.
    #[test]
    fn uniform_releases_respect_the_horizon(
        n in 0usize..200,
        horizon in 0u64..100_000,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let releases = ReleaseSchedule::Uniform { horizon }.sample(n, &mut rng);
        prop_assert_eq!(releases.len(), n);
        prop_assert!(releases.iter().all(|&r| r <= horizon));
    }

    /// Poisson releases are produced in arrival order: the sampled
    /// sequence is non-decreasing (gaps are non-negative by
    /// construction).
    #[test]
    fn poisson_releases_are_non_decreasing(
        n in 1usize..200,
        // Bits of a gap in [0.5, ~64.5): always positive and finite.
        gap_scale in 0u8..128,
        seed in 0u64..1_000_000,
    ) {
        let mean_gap = 0.5 + gap_scale as f64 / 2.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let releases = ReleaseSchedule::Poisson { mean_gap }.sample(n, &mut rng);
        prop_assert_eq!(releases.len(), n);
        prop_assert!(releases.windows(2).all(|w| w[0] <= w[1]), "{:?}", releases);
    }

    /// The unbounded stream agrees with the closed-system sampler on
    /// monotonicity and eventually advances past any horizon.
    #[test]
    fn arrival_streams_are_monotone_and_unbounded(
        mean_gap_half in 1u32..100,
        seed in 0u64..1_000_000,
    ) {
        let process = ArrivalProcess::Poisson { mean_gap: mean_gap_half as f64 / 2.0 };
        let mut stream = process.stream();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut prev = 0u64;
        for _ in 0..256 {
            let t = stream.next_arrival(&mut rng);
            prop_assert!(t >= prev, "arrivals went backwards: {t} < {prev}");
            prev = t;
        }
        // 256 draws with a positive mean gap advance with overwhelming
        // probability; equality would need every single gap to round to
        // zero, which the exponential sampler cannot sustain.
        prop_assert!(prev > 0);
    }

    /// Trace streams replay their gaps cyclically as a running prefix
    /// sum.
    #[test]
    fn trace_streams_replay_gaps_cyclically(
        gaps in prop::collection::vec(0u64..50, 1..12),
        rounds in 1usize..4,
    ) {
        prop_assume!(gaps.iter().any(|&g| g > 0));
        let process = ArrivalProcess::Trace { gaps: gaps.clone() };
        let mut stream = process.stream();
        let mut rng = StdRng::seed_from_u64(0);
        let mut expected = 0u64;
        for round in 0..rounds {
            for (i, &g) in gaps.iter().enumerate() {
                expected += g;
                let got = stream.next_arrival(&mut rng);
                prop_assert_eq!(got, expected, "round {} gap {}", round, i);
            }
        }
    }
}

// The panic paths are deterministic contract checks, not properties.

#[test]
#[should_panic(expected = "mean inter-arrival gap must be positive")]
fn poisson_schedule_rejects_zero_gap() {
    let mut rng = StdRng::seed_from_u64(1);
    let _ = ReleaseSchedule::Poisson { mean_gap: 0.0 }.sample(3, &mut rng);
}

#[test]
#[should_panic(expected = "mean inter-arrival gap must be positive")]
fn poisson_schedule_rejects_negative_gap() {
    let mut rng = StdRng::seed_from_u64(1);
    let _ = ReleaseSchedule::Poisson { mean_gap: -4.0 }.sample(3, &mut rng);
}

#[test]
#[should_panic(expected = "mean inter-arrival gap must be positive")]
fn poisson_schedule_rejects_nan_gap() {
    let mut rng = StdRng::seed_from_u64(1);
    let _ = ReleaseSchedule::Poisson { mean_gap: f64::NAN }.sample(3, &mut rng);
}

#[test]
#[should_panic(expected = "mean inter-arrival gap must be positive")]
fn poisson_process_rejects_non_positive_gap() {
    let _ = ArrivalProcess::Poisson { mean_gap: 0.0 }.stream();
}

#[test]
#[should_panic(expected = "arrival trace must contain gaps")]
fn trace_process_rejects_empty_trace() {
    let _ = ArrivalProcess::Trace { gaps: vec![] }.stream();
}

#[test]
#[should_panic(expected = "positive gap so time advances")]
fn trace_process_rejects_all_zero_gaps() {
    let _ = ArrivalProcess::Trace {
        gaps: vec![0, 0, 0],
    }
    .stream();
}
