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

use super::{mean, per_cell, probe_job};
use abg_alloc::Scripted;
use abg_control::{AControl, AGreedy, Controller};
use abg_sched::PipelinedExecutor;
use abg_sim::{run_single_job, SingleJobConfig, SingleJobRun};

/// Configuration of the overhead sweep. Both schedulers run with the
/// paper's parameters ([`AControl::paper_default`],
/// [`AGreedy::paper_default`]).
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
    // Per probe job: one (ABG, A-Greedy) pair of runs per fraction.
    let runs = per_cell(&cfg.factors, cfg.jobs_per_factor, |factor, index| {
        let job = probe_job(cfg.seed, factor, index, cfg.quantum_len, cfg.pairs);
        let run = |mut calculator: &mut dyn Controller, fraction: f64| {
            let overhead = (fraction * cfg.quantum_len as f64).round() as u64;
            run_single_job(
                &mut PipelinedExecutor::new(&job),
                &mut calculator,
                &mut Scripted::ample(cfg.processors),
                SingleJobConfig::new(cfg.quantum_len).with_reallocation_overhead(overhead),
            )
        };
        cfg.overhead_fractions
            .iter()
            .map(|&fraction| {
                [
                    run(&mut AControl::paper_default(), fraction),
                    run(&mut AGreedy::paper_default(), fraction),
                ]
            })
            .collect::<Vec<[SingleJobRun; 2]>>()
    });

    cfg.overhead_fractions
        .iter()
        .enumerate()
        .map(|(oi, &fraction)| {
            let mean_of =
                |s: usize, f: fn(&SingleJobRun) -> f64| mean(runs.flat(), |r| f(&r[oi][s]));
            OverheadRow {
                overhead_fraction: fraction,
                abg_time_norm: mean_of(0, SingleJobRun::time_over_span),
                agreedy_time_norm: mean_of(1, SingleJobRun::time_over_span),
                abg_waste_norm: mean_of(0, SingleJobRun::waste_over_work),
                agreedy_waste_norm: mean_of(1, SingleJobRun::waste_over_work),
                abg_reallocations: mean_of(0, |r| r.reallocations as f64),
                agreedy_reallocations: mean_of(1, |r| r.reallocations as f64),
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
