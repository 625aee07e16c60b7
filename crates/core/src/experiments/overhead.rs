//! Reallocation overhead: pricing the instability the paper's
//! introduction warns about.
//!
//! The paper's simulations "ignore the scheduling overheads due to
//! reallocation of processors" while its motivation argues that
//! A-Greedy's fluctuating requests "cause … unnecessary reallocation
//! overheads and loss of localities". This experiment closes that loop:
//! every quantum whose allotment changed burns a configurable number of
//! steps before work resumes. A-Greedy reallocates nearly every quantum
//! (its desire oscillates by design), so its cost grows with the
//! overhead; ABG's requests freeze after convergence, so it pays almost
//! nothing.

use super::{parallel_map, task_seed};
use abg_alloc::Scripted;
use abg_control::{AControl, AGreedy};
use abg_sched::PipelinedExecutor;
use abg_sim::{run_single_job, SingleJobConfig, SingleJobRun};
use abg_workload::paper_job;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the overhead sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadConfig {
    /// Overhead values as fractions of the quantum length (x-axis).
    pub overhead_fractions: Vec<f64>,
    /// Transition factors of the probe jobs.
    pub factors: Vec<u64>,
    /// Jobs per (fraction, factor) cell.
    pub jobs_per_factor: u32,
    /// Machine size.
    pub processors: u32,
    /// Quantum length `L`.
    pub quantum_len: u64,
    /// Phase pairs per job.
    pub pairs: u64,
    /// ABG convergence rate.
    pub rate: f64,
    /// Experiment seed.
    pub seed: u64,
}

impl OverheadConfig {
    /// Moderate default probe: overheads up to 20% of the quantum.
    pub fn default_probe() -> Self {
        Self {
            overhead_fractions: vec![0.0, 0.01, 0.05, 0.1, 0.2],
            factors: vec![8, 24],
            jobs_per_factor: 5,
            processors: 128,
            quantum_len: 200,
            pairs: 3,
            rate: 0.2,
            seed: 0x08EA,
        }
    }
}

/// One x-axis point of the overhead sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadRow {
    /// Overhead as a fraction of `L`.
    pub overhead_fraction: f64,
    /// Mean `T / T∞` under ABG.
    pub abg_time_norm: f64,
    /// Mean `T / T∞` under A-Greedy.
    pub agreedy_time_norm: f64,
    /// Mean `W / T1` under ABG.
    pub abg_waste_norm: f64,
    /// Mean `W / T1` under A-Greedy.
    pub agreedy_waste_norm: f64,
    /// Mean reallocation events per run under ABG.
    pub abg_reallocations: f64,
    /// Mean reallocation events per run under A-Greedy.
    pub agreedy_reallocations: f64,
}

/// Runs the sweep; one row per overhead fraction.
pub fn overhead_sweep(cfg: &OverheadConfig) -> Vec<OverheadRow> {
    let units: Vec<(usize, u64, u64, bool)> = cfg
        .overhead_fractions
        .iter()
        .enumerate()
        .flat_map(|(oi, _)| {
            cfg.factors.iter().flat_map(move |&f| {
                (0..cfg.jobs_per_factor as u64)
                    .flat_map(move |j| [(oi, f, j, true), (oi, f, j, false)])
            })
        })
        .collect();
    let results = parallel_map(units, |&(oi, factor, index, abg)| {
        let overhead = (cfg.overhead_fractions[oi] * cfg.quantum_len as f64).round() as u64;
        let mut rng = StdRng::seed_from_u64(task_seed(cfg.seed, factor, index));
        let job = paper_job(factor, cfg.quantum_len, cfg.pairs, &mut rng);
        let sim = SingleJobConfig::new(cfg.quantum_len).with_reallocation_overhead(overhead);
        let run = if abg {
            run_single_job(
                &mut PipelinedExecutor::new(job),
                &mut AControl::new(cfg.rate),
                &mut Scripted::ample(cfg.processors),
                sim,
            )
        } else {
            run_single_job(
                &mut PipelinedExecutor::new(job),
                &mut AGreedy::paper_default(),
                &mut Scripted::ample(cfg.processors),
                sim,
            )
        };
        (oi, abg, run)
    });

    cfg.overhead_fractions
        .iter()
        .enumerate()
        .map(|(oi, &fraction)| {
            let select = |abg: bool| -> Vec<&SingleJobRun> {
                results
                    .iter()
                    .filter(|(i, a, _)| *i == oi && *a == abg)
                    .map(|(_, _, r)| r)
                    .collect()
            };
            let mean = |runs: &[&SingleJobRun], f: &dyn Fn(&SingleJobRun) -> f64| {
                runs.iter().map(|r| f(r)).sum::<f64>() / runs.len() as f64
            };
            let abg = select(true);
            let agreedy = select(false);
            OverheadRow {
                overhead_fraction: fraction,
                abg_time_norm: mean(&abg, &SingleJobRun::time_over_span),
                agreedy_time_norm: mean(&agreedy, &SingleJobRun::time_over_span),
                abg_waste_norm: mean(&abg, &SingleJobRun::waste_over_work),
                agreedy_waste_norm: mean(&agreedy, &SingleJobRun::waste_over_work),
                abg_reallocations: mean(&abg, &|r| r.reallocations as f64),
                agreedy_reallocations: mean(&agreedy, &|r| r.reallocations as f64),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> OverheadConfig {
        OverheadConfig {
            overhead_fractions: vec![0.0, 0.2],
            factors: vec![12],
            jobs_per_factor: 4,
            processors: 64,
            quantum_len: 100,
            pairs: 3,
            rate: 0.2,
            seed: 31,
        }
    }

    #[test]
    fn agreedy_reallocates_far_more() {
        let rows = overhead_sweep(&tiny());
        for r in &rows {
            assert!(
                r.agreedy_reallocations > 1.4 * r.abg_reallocations,
                "A-Greedy's oscillation should dominate the reallocation count: {r:?}"
            );
        }
    }

    #[test]
    fn overhead_widens_the_gap() {
        let rows = overhead_sweep(&tiny());
        let gap = |r: &OverheadRow| r.agreedy_time_norm - r.abg_time_norm;
        assert!(
            gap(&rows[1]) > gap(&rows[0]),
            "pricing reallocations must widen A-Greedy's deficit: {rows:?}"
        );
    }

    #[test]
    fn zero_overhead_matches_baseline_engine() {
        let rows = overhead_sweep(&tiny());
        // With fraction 0 the engine must behave exactly like the plain
        // run; spot-check that normalized time is in the usual band.
        assert!(rows[0].abg_time_norm < 1.5, "{rows:?}");
    }
}
