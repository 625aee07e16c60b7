//! Adaptive quantum length (future work, Section 9): fixed-short vs
//! fixed-long vs adaptive quantum sizing under the ABG controller.

use super::{mean, per_cell, probe_job};
use abg_alloc::Scripted;
use abg_control::AControl;
use abg_sched::PipelinedExecutor;
use abg_sim::{AdaptiveQuantum, FixedQuantum, MultiJobSim};

/// The probe jobs: transition factors, jobs per factor, phase pairs
/// per job.
const FACTORS: [u64; 3] = [5, 20, 60];
const JOBS_PER_FACTOR: u32 = 6;
const PAIRS: u64 = 3;
/// Machine size.
const PROCESSORS: u32 = 128;
/// Short (and minimum) quantum length.
const SHORT_QUANTUM: u64 = 50;
/// Long (and maximum) quantum length.
const LONG_QUANTUM: u64 = 800;
/// Relative request-stability band of the adaptive policy.
const STABILITY_BAND: f64 = 0.05;
/// Recorded seed.
const SEED: u64 = 0xADA7;

/// One policy's mean results.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveQuantumRow {
    /// Policy name.
    pub policy: String,
    /// Mean `T / T∞`.
    pub time_norm: f64,
    /// Mean `W / T1`.
    pub waste_norm: f64,
    /// Mean number of scheduling quanta (feedback/renegotiation events).
    pub mean_quanta: f64,
    /// Mean number of quanta whose allotment changed (reallocation
    /// events — the overhead the paper's motivation worries about).
    pub mean_reallocations: f64,
}

/// Compares `fixed(50)`, `fixed(800)` and `adaptive(50..800)` quantum
/// policies on the same jobs, each pacing the paper's controller
/// ([`AControl::paper_default`]); `seed` overrides the recorded one.
pub fn adaptive_quantum_comparison(seed: Option<u64>) -> Vec<AdaptiveQuantumRow> {
    let seed = seed.unwrap_or(SEED);
    // One unit per generated job: all three policies run over the same
    // job through one executor, rewound between policies, so the job is
    // generated once instead of once per policy and nothing is
    // re-allocated. The run set (and every aggregate) is identical to
    // running each policy in its own unit.
    let runs = per_cell(&FACTORS, JOBS_PER_FACTOR, |factor, index| {
        // Phase geometry follows the *long* quantum so even the longest
        // policy sees phases spanning full quanta.
        let job = probe_job(seed, factor, index, LONG_QUANTUM, PAIRS);
        let mut ex = PipelinedExecutor::new(job);
        let sim = || MultiJobSim::homogeneous(Scripted::ample(PROCESSORS), SHORT_QUANTUM);
        let short = sim().run_job(
            &mut ex,
            FixedQuantum(SHORT_QUANTUM).pace(AControl::paper_default()),
        );
        ex.reset();
        let long = sim().run_job(
            &mut ex,
            FixedQuantum(LONG_QUANTUM).pace(AControl::paper_default()),
        );
        ex.reset();
        let adaptive = sim().run_job(
            &mut ex,
            AdaptiveQuantum::new(SHORT_QUANTUM, LONG_QUANTUM, STABILITY_BAND)
                .pace(AControl::paper_default()),
        );
        [short, long, adaptive]
    });

    let names = [
        format!("fixed L = {SHORT_QUANTUM}"),
        format!("fixed L = {LONG_QUANTUM}"),
        format!("adaptive L ∈ [{SHORT_QUANTUM}, {LONG_QUANTUM}]"),
    ];
    names
        .into_iter()
        .enumerate()
        .map(|(p, policy)| AdaptiveQuantumRow {
            policy,
            time_norm: mean(runs.flat(), |r| r[p].time_over_span()),
            waste_norm: mean(runs.flat(), |r| r[p].waste_over_work()),
            mean_quanta: mean(runs.flat(), |r| r[p].quanta as f64),
            mean_reallocations: mean(runs.flat(), |r| r[p].reallocations as f64),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_policies_reported() {
        let rows = adaptive_quantum_comparison(None);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.time_norm >= 1.0 - 1e-9, "{r:?}");
            assert!(r.mean_quanta >= 1.0, "{r:?}");
        }
    }

    #[test]
    fn adaptive_uses_fewer_quanta_than_fixed_short() {
        let rows = adaptive_quantum_comparison(None);
        let short = &rows[0];
        let adaptive = &rows[2];
        assert!(
            adaptive.mean_quanta < short.mean_quanta,
            "adaptive {} quanta vs fixed-short {}",
            adaptive.mean_quanta,
            short.mean_quanta
        );
    }

    #[test]
    fn adaptive_wastes_less_than_fixed_long() {
        let rows = adaptive_quantum_comparison(None);
        let long = &rows[1];
        let adaptive = &rows[2];
        assert!(
            adaptive.waste_norm <= long.waste_norm * 1.05,
            "adaptive waste {} vs fixed-long {}",
            adaptive.waste_norm,
            long.waste_norm
        );
    }
}
