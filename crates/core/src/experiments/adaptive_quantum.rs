//! Adaptive quantum length (future work, Section 9): fixed-short vs
//! fixed-long vs adaptive quantum sizing under the ABG controller.

use super::{mean, per_cell, probe_job};
use abg_alloc::Scripted;
use abg_control::AControl;
use abg_sched::PipelinedExecutor;
use abg_sim::{run_single_job, AdaptiveQuantum, FixedQuantum, SingleJobConfig};

/// Configuration of the adaptive-quantum comparison. Every policy paces
/// the paper's controller ([`AControl::paper_default`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveQuantumConfig {
    /// Transition factors of the probe jobs.
    pub factors: Vec<u64>,
    /// Jobs per factor.
    pub jobs_per_factor: u32,
    /// Machine size.
    pub processors: u32,
    /// Short (and minimum) quantum length.
    pub short_quantum: u64,
    /// Long (and maximum) quantum length.
    pub long_quantum: u64,
    /// Relative request-stability band of the adaptive policy.
    pub stability_band: f64,
    /// Phase pairs per job.
    pub pairs: u64,
    /// Experiment seed.
    pub seed: u64,
}

impl AdaptiveQuantumConfig {
    /// Moderate default probe. Jobs are generated against the *long*
    /// quantum's geometry so every policy faces identical jobs.
    pub fn default_probe() -> Self {
        Self {
            factors: vec![5, 20, 60],
            jobs_per_factor: 6,
            processors: 128,
            short_quantum: 50,
            long_quantum: 800,
            stability_band: 0.05,
            pairs: 3,
            seed: 0xADA7,
        }
    }
}

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

/// Compares `fixed(short)`, `fixed(long)` and `adaptive(short..long)`
/// quantum policies under ABG on the same jobs.
pub fn adaptive_quantum_comparison(cfg: &AdaptiveQuantumConfig) -> Vec<AdaptiveQuantumRow> {
    // One unit per generated job: all three policies run over the same
    // job through one executor, rewound between policies, so the job is
    // generated once instead of once per policy and nothing is
    // re-allocated. The run set (and every aggregate) is identical to
    // running each policy in its own unit.
    let runs = per_cell(&cfg.factors, cfg.jobs_per_factor, |factor, index| {
        // Phase geometry follows the *long* quantum so even the longest
        // policy sees phases spanning full quanta.
        let job = probe_job(cfg.seed, factor, index, cfg.long_quantum, cfg.pairs);
        let mut ex = PipelinedExecutor::new(job);
        let sim = SingleJobConfig::new(cfg.short_quantum);
        let short = run_single_job(
            &mut ex,
            &mut FixedQuantum(cfg.short_quantum).pace(AControl::paper_default()),
            &mut Scripted::ample(cfg.processors),
            sim,
        );
        ex.reset();
        let long = run_single_job(
            &mut ex,
            &mut FixedQuantum(cfg.long_quantum).pace(AControl::paper_default()),
            &mut Scripted::ample(cfg.processors),
            sim,
        );
        ex.reset();
        let adaptive = run_single_job(
            &mut ex,
            &mut AdaptiveQuantum::new(cfg.short_quantum, cfg.long_quantum, cfg.stability_band)
                .pace(AControl::paper_default()),
            &mut Scripted::ample(cfg.processors),
            sim,
        );
        [short, long, adaptive]
    });

    let names = [
        format!("fixed L = {}", cfg.short_quantum),
        format!("fixed L = {}", cfg.long_quantum),
        format!("adaptive L ∈ [{}, {}]", cfg.short_quantum, cfg.long_quantum),
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

    fn tiny() -> AdaptiveQuantumConfig {
        AdaptiveQuantumConfig {
            factors: vec![8],
            jobs_per_factor: 3,
            processors: 64,
            short_quantum: 20,
            long_quantum: 160,
            stability_band: 0.05,
            pairs: 2,
            seed: 4,
        }
    }

    #[test]
    fn three_policies_reported() {
        let rows = adaptive_quantum_comparison(&tiny());
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.time_norm >= 1.0 - 1e-9, "{r:?}");
            assert!(r.mean_quanta >= 1.0, "{r:?}");
        }
    }

    #[test]
    fn adaptive_uses_fewer_quanta_than_fixed_short() {
        let rows = adaptive_quantum_comparison(&tiny());
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
        let rows = adaptive_quantum_comparison(&tiny());
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
