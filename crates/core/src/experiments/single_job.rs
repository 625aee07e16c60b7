//! The single-job sweep over transition factors: the paper's Figure 5.
//!
//! Each job runs alone in an unconstrained environment (every request
//! granted up to `P`), once under ABG and once under A-Greedy, and the
//! sweep reports running time normalized by the critical path (the
//! optimal time in this setting — Figure 5(a)), waste normalized by
//! work (Figure 5(c)), and the per-run A-Greedy/ABG ratios (Figures
//! 5(b) and 5(d)).

use super::{mean, per_cell, probe_job};
use abg_alloc::Scripted;
use abg_control::{AControl, AGreedy};
use abg_dag::JobStructure;
use abg_sched::PipelinedExecutor;
use abg_sim::{CompletedJob, MultiJobSim};

/// Configuration of the Figure-5 sweep. Both schedulers run with the
/// paper's parameters ([`AControl::paper_default`],
/// [`AGreedy::paper_default`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SingleJobSweepConfig {
    /// The transition factors to sweep (x-axis).
    pub factors: Vec<u64>,
    /// Jobs generated per factor (the paper uses 50).
    pub jobs_per_factor: u32,
    /// Machine size `P` (paper: 128).
    pub processors: u32,
    /// Quantum length `L` in steps (paper: 1000).
    pub quantum_len: u64,
    /// Serial/parallel phase pairs per job.
    pub pairs: u64,
    /// Experiment seed.
    pub seed: u64,
}

impl SingleJobSweepConfig {
    /// The paper's setting: factors 2..=100, 50 jobs per factor,
    /// `P = 128`, `L = 1000`, `r = 0.2`, `ρ = 2`. `abg-cli fig5` runs it.
    pub fn paper() -> Self {
        Self {
            factors: (2..=100).collect(),
            jobs_per_factor: 50,
            processors: 128,
            quantum_len: 1000,
            pairs: 4,
            seed: 0xA6B6_2008,
        }
    }
}

/// One x-axis point of Figure 5 (means over the factor's jobs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Target transition factor of the generated jobs.
    pub factor: u64,
    /// Mean measured transition factor (sanity check on the generator).
    pub measured_factor: f64,
    /// Mean `T / T∞` under ABG (Figure 5(a), lower line).
    pub abg_time_norm: f64,
    /// Mean `T / T∞` under A-Greedy (Figure 5(a), upper line).
    pub agreedy_time_norm: f64,
    /// Mean `W / T1` under ABG (Figure 5(c)).
    pub abg_waste_norm: f64,
    /// Mean `W / T1` under A-Greedy (Figure 5(c)).
    pub agreedy_waste_norm: f64,
    /// Mean per-run running-time ratio A-Greedy / ABG (Figure 5(b)).
    pub time_ratio: f64,
    /// Waste ratio A-Greedy / ABG over the factor's jobs, computed on
    /// summed wastes (robust to a single near-zero-waste ABG run that
    /// would dominate a mean of per-run ratios) — Figure 5(d).
    pub waste_ratio: f64,
}

/// The pair of runs for one generated job, with the job's measured
/// transition factor (the job itself is dropped once both runs finish).
#[derive(Debug, Clone)]
struct JobPair {
    measured_factor: f64,
    abg: CompletedJob,
    agreedy: CompletedJob,
}

fn run_pair(cfg: &SingleJobSweepConfig, factor: u64, index: u64) -> JobPair {
    let job = probe_job(cfg.seed, factor, index, cfg.quantum_len, cfg.pairs);
    // Both runs borrow the same job structure and share one executor,
    // rewound between them — nothing is cloned or re-allocated per run.
    let mut ex = PipelinedExecutor::new(&job);
    let abg = MultiJobSim::homogeneous(Scripted::ample(cfg.processors), cfg.quantum_len)
        .run_job(&mut ex, AControl::paper_default());
    ex.reset();
    let agreedy = MultiJobSim::homogeneous(Scripted::ample(cfg.processors), cfg.quantum_len)
        .run_job(&mut ex, AGreedy::paper_default());
    JobPair {
        measured_factor: job.transition_factor(cfg.quantum_len),
        abg,
        agreedy,
    }
}

/// Runs the Figure-5 sweep; one [`SweepPoint`] per configured factor.
///
/// Work units (factor × job) are spread across all cores; results are
/// deterministic for a given config regardless of thread count.
///
/// # Panics
///
/// Panics if the config has no factors or zero jobs per factor.
pub fn single_job_sweep(cfg: &SingleJobSweepConfig) -> Vec<SweepPoint> {
    assert!(!cfg.factors.is_empty(), "sweep needs at least one factor");
    assert!(
        cfg.jobs_per_factor > 0,
        "sweep needs at least one job per factor"
    );
    let cells = per_cell(&cfg.factors, cfg.jobs_per_factor, |factor, index| {
        run_pair(cfg, factor, index)
    });
    cfg.factors
        .iter()
        .zip(cells.iter())
        .map(|(&factor, runs)| SweepPoint {
            factor,
            measured_factor: mean(runs, |p| p.measured_factor),
            abg_time_norm: mean(runs, |p| p.abg.time_over_span()),
            agreedy_time_norm: mean(runs, |p| p.agreedy.time_over_span()),
            abg_waste_norm: mean(runs, |p| p.abg.waste_over_work()),
            agreedy_waste_norm: mean(runs, |p| p.agreedy.waste_over_work()),
            time_ratio: mean(runs, |p| {
                p.agreedy.response_time() as f64 / p.abg.response_time() as f64
            }),
            waste_ratio: {
                let agreedy: u64 = runs.iter().map(|p| p.agreedy.waste).sum();
                let abg: u64 = runs.iter().map(|p| p.abg.waste).sum();
                agreedy as f64 / abg.max(1) as f64
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sampled factor axis with fewer jobs and a shorter quantum.
    fn small() -> SingleJobSweepConfig {
        SingleJobSweepConfig {
            factors: vec![2, 5, 10, 20, 30, 40, 60, 80, 100],
            jobs_per_factor: 16,
            quantum_len: 200,
            pairs: 3,
            ..SingleJobSweepConfig::paper()
        }
    }

    #[test]
    fn scaled_sweep_shows_abg_advantage() {
        let cfg = small();
        let points = single_job_sweep(&cfg);
        assert_eq!(points.len(), cfg.factors.len());
        // The headline result: averaged across the sweep, A-Greedy wastes
        // substantially more and runs longer than ABG.
        let mean_time_ratio: f64 =
            points.iter().map(|p| p.time_ratio).sum::<f64>() / points.len() as f64;
        let mean_waste_ratio: f64 =
            points.iter().map(|p| p.waste_ratio).sum::<f64>() / points.len() as f64;
        assert!(mean_time_ratio > 1.0, "time ratio {mean_time_ratio}");
        assert!(mean_waste_ratio > 1.2, "waste ratio {mean_waste_ratio}");
        // Sanity: normalized times are at least 1 (T ≥ T∞).
        for p in &points {
            assert!(p.abg_time_norm >= 1.0 - 1e-9);
            assert!(p.agreedy_time_norm >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let cfg = SingleJobSweepConfig {
            factors: vec![5, 10],
            jobs_per_factor: 3,
            ..small()
        };
        assert_eq!(single_job_sweep(&cfg), single_job_sweep(&cfg));
    }

    #[test]
    #[should_panic(expected = "at least one factor")]
    fn empty_factor_axis_rejected() {
        let cfg = SingleJobSweepConfig {
            factors: vec![],
            ..small()
        };
        let _ = single_job_sweep(&cfg);
    }
}
