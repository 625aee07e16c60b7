//! The single-job sweep over transition factors: the paper's Figure 5.
//!
//! Each job runs alone in an unconstrained environment (every request
//! granted up to `P`), once under ABG and once under A-Greedy, and the
//! sweep reports running time normalized by the critical path (the
//! optimal time in this setting — Figure 5(a)), waste normalized by
//! work (Figure 5(c)), and the per-run A-Greedy/ABG ratios (Figures
//! 5(b) and 5(d)).

use super::{parallel_map, task_seed};
use abg_alloc::Scripted;
use abg_control::{AControl, AGreedy};
use abg_dag::{JobStructure, PhasedJob};
use abg_sched::PipelinedExecutor;
use abg_sim::{run_single_job, SingleJobConfig, SingleJobRun};
use abg_workload::{paper_job, scaled_job};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the Figure-5 sweep.
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
    /// Shrinks phase lengths below the paper's quantum-multiple sizing
    /// (1 = paper scale; larger values make jobs proportionally
    /// smaller, for tests and benches).
    pub scale_down: u64,
    /// ABG convergence rate `r` (paper: 0.2).
    pub rate: f64,
    /// A-Greedy responsiveness `ρ` (paper: 2).
    pub responsiveness: f64,
    /// A-Greedy utilization threshold `δ`.
    pub utilization: f64,
    /// Experiment seed.
    pub seed: u64,
}

impl SingleJobSweepConfig {
    /// The paper's setting: factors 2..=100, 50 jobs per factor,
    /// `P = 128`, `L = 1000`, `r = 0.2`, `ρ = 2`.
    pub fn paper() -> Self {
        Self {
            factors: (2..=100).collect(),
            jobs_per_factor: 50,
            processors: 128,
            quantum_len: 1000,
            pairs: 4,
            scale_down: 1,
            rate: 0.2,
            responsiveness: 2.0,
            utilization: 0.8,
            seed: 0xA6B6_2008,
        }
    }

    /// A scaled-down sweep for tests and benches: sampled factor axis,
    /// fewer jobs, and a shorter quantum. The paper's phase geometry
    /// (phase length at least one quantum's worth of levels) is kept —
    /// that geometry is what makes the feedback dynamics meaningful —
    /// so jobs shrink with the quantum instead of degenerating.
    pub fn scaled() -> Self {
        Self {
            factors: vec![2, 5, 10, 20, 40, 80],
            jobs_per_factor: 8,
            processors: 128,
            quantum_len: 100,
            pairs: 3,
            scale_down: 1,
            rate: 0.2,
            responsiveness: 2.0,
            utilization: 0.8,
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

/// The pair of runs for one generated job.
#[derive(Debug, Clone)]
struct JobPair {
    job: PhasedJob,
    abg: SingleJobRun,
    agreedy: SingleJobRun,
}

fn run_pair(cfg: &SingleJobSweepConfig, factor: u64, index: u64) -> JobPair {
    let mut rng = StdRng::seed_from_u64(task_seed(cfg.seed, factor, index));
    let job = if cfg.scale_down <= 1 {
        paper_job(factor, cfg.quantum_len, cfg.pairs, &mut rng)
    } else {
        scaled_job(factor, cfg.quantum_len, cfg.pairs, cfg.scale_down, &mut rng)
    };
    let sim_cfg = SingleJobConfig::new(cfg.quantum_len);
    // Both runs borrow the same job structure and share one executor,
    // rewound between them — nothing is cloned or re-allocated per run.
    let mut ex = PipelinedExecutor::new(&job);
    let abg = run_single_job(
        &mut ex,
        &mut AControl::new(cfg.rate),
        &mut Scripted::ample(cfg.processors),
        sim_cfg,
    );
    ex.reset();
    let agreedy = run_single_job(
        &mut ex,
        &mut AGreedy::new(cfg.responsiveness, cfg.utilization),
        &mut Scripted::ample(cfg.processors),
        sim_cfg,
    );
    JobPair { job, abg, agreedy }
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
    single_job_sweep_with_steps(cfg).0
}

/// [`single_job_sweep`], additionally returning the total simulated
/// steps across every run of the sweep (both schedulers, every job) —
/// the quantity the kernel-benchmark trajectory reports as steps/sec.
/// Deterministic for a given config, like the points themselves.
///
/// # Panics
///
/// Panics if the config has no factors or zero jobs per factor.
pub fn single_job_sweep_with_steps(cfg: &SingleJobSweepConfig) -> (Vec<SweepPoint>, u64) {
    assert!(!cfg.factors.is_empty(), "sweep needs at least one factor");
    assert!(
        cfg.jobs_per_factor > 0,
        "sweep needs at least one job per factor"
    );
    let units: Vec<(u64, u64)> = cfg
        .factors
        .iter()
        .flat_map(|&f| (0..cfg.jobs_per_factor as u64).map(move |j| (f, j)))
        .collect();
    let pairs = parallel_map(units, |&(factor, index)| {
        (factor, run_pair(cfg, factor, index))
    });
    let steps: u64 = pairs
        .iter()
        .map(|(_, p)| p.abg.running_time + p.agreedy.running_time)
        .sum();

    let points = cfg
        .factors
        .iter()
        .map(|&factor| {
            let runs: Vec<&JobPair> = pairs
                .iter()
                .filter(|(f, _)| *f == factor)
                .map(|(_, p)| p)
                .collect();
            let n = runs.len() as f64;
            let mean = |f: &dyn Fn(&JobPair) -> f64| runs.iter().map(|p| f(p)).sum::<f64>() / n;
            SweepPoint {
                factor,
                measured_factor: mean(&|p| p.job.transition_factor(cfg.quantum_len)),
                abg_time_norm: mean(&|p| p.abg.time_over_span()),
                agreedy_time_norm: mean(&|p| p.agreedy.time_over_span()),
                abg_waste_norm: mean(&|p| p.abg.waste_over_work()),
                agreedy_waste_norm: mean(&|p| p.agreedy.waste_over_work()),
                time_ratio: mean(&|p| p.agreedy.running_time as f64 / p.abg.running_time as f64),
                waste_ratio: {
                    let agreedy: u64 = runs.iter().map(|p| p.agreedy.waste).sum();
                    let abg: u64 = runs.iter().map(|p| p.abg.waste).sum();
                    agreedy as f64 / abg.max(1) as f64
                },
            }
        })
        .collect();
    (points, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_sweep_shows_abg_advantage() {
        let cfg = SingleJobSweepConfig::scaled();
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
            ..SingleJobSweepConfig::scaled()
        };
        let a = single_job_sweep_with_steps(&cfg);
        let b = single_job_sweep_with_steps(&cfg);
        assert_eq!(a, b);
        assert!(a.1 > 0, "the sweep simulates a positive number of steps");
        assert_eq!(a.0, single_job_sweep(&cfg), "wrapper returns same points");
    }

    #[test]
    #[should_panic(expected = "at least one factor")]
    fn empty_factor_axis_rejected() {
        let cfg = SingleJobSweepConfig {
            factors: vec![],
            ..SingleJobSweepConfig::scaled()
        };
        let _ = single_job_sweep(&cfg);
    }
}
