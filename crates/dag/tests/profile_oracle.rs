//! Oracle tests for the run-length parallelism profile: every statistic
//! must agree bit for bit with a per-level reference that expands the
//! runs into one width per level and chunk-sums them.

use abg_dag::{transition_factor, JobStructure, ParallelismProfile, Phase, PhasedJob};
use proptest::prelude::*;

/// One width per level.
fn expand(phases: &[Phase]) -> Vec<u64> {
    phases
        .iter()
        .flat_map(|p| std::iter::repeat_n(p.width, p.levels as usize))
        .collect()
}

/// Per-level quantum averages, trailing partial quantum included.
fn reference_averages(widths: &[u64], quantum_levels: u64) -> Vec<f64> {
    widths
        .chunks(quantum_levels as usize)
        .map(|c| c.iter().sum::<u64>() as f64 / c.len() as f64)
        .collect()
}

/// `C_L` over full quanta, keeping the partial one only when it is the
/// sole quantum.
fn reference_factor(widths: &[u64], quantum_levels: u64) -> f64 {
    let mut averages = reference_averages(widths, quantum_levels);
    if !(widths.len() as u64).is_multiple_of(quantum_levels) && averages.len() > 1 {
        averages.pop();
    }
    let (mut prev, mut c) = (1.0f64, 1.0f64);
    for &a in &averages {
        c = c.max(if a > prev { a / prev } else { prev / a });
        prev = a;
    }
    c
}

fn reference_cv(widths: &[u64]) -> f64 {
    let n = widths.len() as f64;
    let mean = widths.iter().sum::<u64>() as f64 / n;
    let var = widths
        .iter()
        .map(|&w| {
            let d = w as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

/// Phase lists of 1–9 phases, widths 1–200 and lengths 1–5000. About
/// a third of the phases repeat their predecessor's width so that runs
/// must merge, and half are at most 8 levels long so that short phases
/// (and short trailing quanta) are common.
fn phase_lists() -> impl Strategy<Value = Vec<Phase>> {
    prop::collection::vec((1u64..=200, 1u64..=5000, 0u8..3, 0u8..2), 1..=9).prop_map(|raw| {
        let mut phases: Vec<Phase> = Vec::with_capacity(raw.len());
        for (width, levels, repeat, short) in raw {
            let width = match phases.last() {
                Some(prev) if repeat == 0 => prev.width,
                _ => width,
            };
            let levels = if short == 0 { 1 + levels % 8 } else { levels };
            phases.push(Phase::new(width, levels));
        }
        phases
    })
}

fn divisors_above(n: u64, floor: u64) -> Vec<u64> {
    (floor + 1..=n).filter(|d| n.is_multiple_of(*d)).collect()
}

/// A quantum length for a job of `span` levels whose last phase is
/// `tail` levels long: `L = 1`, a divisor of the span, `L > span`, a
/// length whose only partial quantum is exactly the last phase, or
/// anything up to the span.
fn quantum_for(span: u64, tail: u64, mode: u8, raw: u64) -> u64 {
    let pick = |options: Vec<u64>| options[(raw % options.len() as u64) as usize];
    match mode {
        0 => 1,
        1 => pick(divisors_above(span, 0)),
        2 => span + 1 + raw % span,
        3 if span > tail => {
            let full = divisors_above(span - tail, tail);
            if full.is_empty() {
                1 + raw % span
            } else {
                pick(full)
            }
        }
        _ => 1 + raw % span,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn run_length_statistics_match_per_level_reference(
        phases in phase_lists(),
        mode in 0u8..5,
        raw in 0u64..u64::MAX,
    ) {
        let widths = expand(&phases);
        let span = widths.len() as u64;
        let tail = phases.last().unwrap().levels;
        let quantum_levels = quantum_for(span, tail, mode, raw);
        let profile = PhasedJob::new(phases).profile();

        prop_assert_eq!(&profile, &ParallelismProfile::new(widths.clone()));
        prop_assert_eq!(profile.span(), span);
        prop_assert_eq!(profile.work(), widths.iter().sum::<u64>());
        prop_assert_eq!(profile.peak(), *widths.iter().max().unwrap());
        prop_assert_eq!(
            profile.average().to_bits(),
            (widths.iter().sum::<u64>() as f64 / span as f64).to_bits()
        );
        prop_assert_eq!(
            profile.change_count(),
            widths.windows(2).filter(|w| w[0] != w[1]).count()
        );
        prop_assert_eq!(
            profile.coefficient_of_variation().to_bits(),
            reference_cv(&widths).to_bits()
        );

        let averages: Vec<u64> = profile
            .quantum_averages(quantum_levels)
            .map(f64::to_bits)
            .collect();
        let expected: Vec<u64> = reference_averages(&widths, quantum_levels)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        prop_assert_eq!(averages, expected);
        prop_assert_eq!(
            transition_factor(&profile, quantum_levels).to_bits(),
            reference_factor(&widths, quantum_levels).to_bits()
        );
    }

    /// The run-length profile of a phased job equals the one measured
    /// level by level on its lowered dag.
    #[test]
    fn phased_profile_matches_lowered_dag(
        phases in prop::collection::vec((1u64..=6, 1u64..=6), 1..=5),
    ) {
        let job = PhasedJob::new(phases.into_iter().map(|(w, l)| Phase::new(w, l)).collect());
        prop_assert_eq!(job.profile(), ParallelismProfile::from(&job.to_explicit()));
    }
}
