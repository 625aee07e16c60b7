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
use abg_sim::{CompletedJob, MultiJobSim};

/// Overhead values as fractions of the quantum length (x-axis): up to
/// 20% of the quantum.
const OVERHEAD_FRACTIONS: [f64; 5] = [0.0, 0.01, 0.05, 0.1, 0.2];
/// The probe jobs: transition factors, jobs per (fraction, factor)
/// cell, phase pairs per job.
const FACTORS: [u64; 2] = [8, 24];
const JOBS_PER_FACTOR: u32 = 5;
const PAIRS: u64 = 3;
/// Machine size.
const PROCESSORS: u32 = 128;
/// Quantum length `L`.
const QUANTUM_LEN: u64 = 200;
/// Recorded seed.
const SEED: u64 = 0x08EA;

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

/// Runs the sweep; one row per overhead fraction. Both schedulers run
/// with the paper's parameters ([`AControl::paper_default`],
/// [`AGreedy::paper_default`]); `seed` overrides the recorded one.
pub fn overhead_sweep(seed: Option<u64>) -> Vec<OverheadRow> {
    let seed = seed.unwrap_or(SEED);
    // Per probe job: one (ABG, A-Greedy) pair of runs per fraction.
    let runs = per_cell(&FACTORS, JOBS_PER_FACTOR, |factor, index| {
        let job = probe_job(seed, factor, index, QUANTUM_LEN, PAIRS);
        let run = |calculator: &mut dyn Controller, fraction: f64| {
            let overhead = (fraction * QUANTUM_LEN as f64).round() as u64;
            MultiJobSim::homogeneous(Scripted::ample(PROCESSORS), QUANTUM_LEN)
                .with_reallocation_overhead(overhead)
                .run_job(PipelinedExecutor::new(&job), calculator)
        };
        OVERHEAD_FRACTIONS
            .iter()
            .map(|&fraction| {
                [
                    run(&mut AControl::paper_default(), fraction),
                    run(&mut AGreedy::paper_default(), fraction),
                ]
            })
            .collect::<Vec<[CompletedJob; 2]>>()
    });

    OVERHEAD_FRACTIONS
        .iter()
        .enumerate()
        .map(|(oi, &fraction)| {
            let mean_of =
                |s: usize, f: fn(&CompletedJob) -> f64| mean(runs.flat(), |r| f(&r[oi][s]));
            OverheadRow {
                overhead_fraction: fraction,
                abg_time_norm: mean_of(0, CompletedJob::time_over_span),
                agreedy_time_norm: mean_of(1, CompletedJob::time_over_span),
                abg_waste_norm: mean_of(0, CompletedJob::waste_over_work),
                agreedy_waste_norm: mean_of(1, CompletedJob::waste_over_work),
                abg_reallocations: mean_of(0, |r| r.reallocations as f64),
                agreedy_reallocations: mean_of(1, |r| r.reallocations as f64),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreedy_reallocates_far_more() {
        let rows = overhead_sweep(None);
        for r in &rows {
            assert!(
                r.agreedy_reallocations > 1.4 * r.abg_reallocations,
                "A-Greedy's oscillation should dominate the reallocation count: {r:?}"
            );
        }
    }

    #[test]
    fn overhead_widens_the_gap() {
        let rows = overhead_sweep(None);
        let gap = |r: &OverheadRow| r.agreedy_time_norm - r.abg_time_norm;
        assert!(
            gap(&rows[4]) > gap(&rows[0]),
            "pricing reallocations must widen A-Greedy's deficit: {rows:?}"
        );
    }

    #[test]
    fn zero_overhead_matches_baseline_engine() {
        let rows = overhead_sweep(None);
        // With fraction 0 the engine must behave exactly like the plain
        // run; spot-check that normalized time is in the usual band.
        assert!(rows[0].abg_time_norm < 1.5, "{rows:?}");
    }
}
