//! Centralized vs distributed scheduling: ABG against the
//! work-stealing schedulers of the paper's related work (Section 8).
//!
//! The empirical lineage the paper cites (\[2\]) showed A-Steal (work
//! stealing *with* parallelism feedback) far ahead of ABP (work
//! stealing without feedback). This experiment reproduces that
//! comparison inside the same two-level harness and adds the
//! combination the paper suggests but never built: the A-Control
//! controller driving a work-stealing execution.

use super::{mean, per_cell, probe_job};
use abg_alloc::Scripted;
use abg_control::{AControl, Controller};
use abg_sched::PipelinedExecutor;
use abg_sim::MultiJobSim;
use abg_steal::{abp_request, ASteal, StealExecutor};
use abg_workload::splitmix_seed;

/// The probe jobs: transition factors, jobs per factor, phase pairs
/// per job (they are lowered to explicit dags, so they stay modest).
const FACTORS: [u64; 3] = [4, 8, 16];
const JOBS_PER_FACTOR: u32 = 4;
const PAIRS: u64 = 2;
/// Machine size.
const PROCESSORS: u32 = 32;
/// Quantum length `L`.
const QUANTUM_LEN: u64 = 50;
/// Recorded seed.
const SEED: u64 = 0x0005_7EA1;

/// Mean quality of one scheduler across the probe jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct StealRow {
    /// Scheduler name.
    pub scheduler: String,
    /// Mean `T / T∞`.
    pub time_norm: f64,
    /// Mean `W / T1` (for the stealing schedulers this includes the
    /// steal cycles — they occupy allotted processors without doing
    /// work, so the quantum accounting already charges them).
    pub waste_norm: f64,
}

/// The four schedulers, in row order.
const SCHEDULERS: [&str; 4] = [
    "abg (centralized b-greedy)",
    "a-steal (stealing + mult-inc/dec)",
    "abp (stealing, no feedback)",
    "a-control + stealing",
];

/// Runs the four schedulers over the probe jobs and returns one row per
/// scheduler: centralized ABG, A-Steal, ABP, and A-Control over
/// stealing. Both A-Control rows run with the paper's rate
/// ([`AControl::paper_default`]); `seed` overrides the recorded one.
pub fn stealing_comparison(seed: Option<u64>) -> Vec<StealRow> {
    let seed = seed.unwrap_or(SEED);
    let runs = per_cell(&FACTORS, JOBS_PER_FACTOR, |factor, index| {
        let job = probe_job(seed, factor, index, QUANTUM_LEN, PAIRS);
        let dag = job.to_explicit();
        let steal_seed = splitmix_seed(seed ^ 0x5EED, factor, index);
        let steal = |request: &mut dyn Controller| {
            MultiJobSim::homogeneous(Scripted::ample(PROCESSORS), QUANTUM_LEN)
                .run_job(StealExecutor::new(&dag, steal_seed), request)
        };
        [
            MultiJobSim::homogeneous(Scripted::ample(PROCESSORS), QUANTUM_LEN)
                .run_job(PipelinedExecutor::new(job), AControl::paper_default()),
            steal(&mut ASteal::paper_default()),
            steal(&mut abp_request(PROCESSORS)),
            steal(&mut AControl::paper_default()),
        ]
    });
    SCHEDULERS
        .iter()
        .enumerate()
        .map(|(s, name)| StealRow {
            scheduler: name.to_string(),
            time_norm: mean(runs.flat(), |r| r[s].time_over_span()),
            waste_norm: mean(runs.flat(), |r| r[s].waste_over_work()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_schedulers_reported() {
        let rows = stealing_comparison(None);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.time_norm >= 1.0 - 1e-9, "{r:?}");
            assert!(r.waste_norm >= 0.0, "{r:?}");
        }
    }

    #[test]
    fn feedback_beats_abp_on_waste() {
        // The headline of [2]: parallelism feedback slashes waste
        // relative to always-ask-for-everything ABP.
        let rows = stealing_comparison(None);
        let waste = |name: &str| {
            rows.iter()
                .find(|r| r.scheduler.starts_with(name))
                .expect("row exists")
                .waste_norm
        };
        assert!(
            waste("abp") > 1.5 * waste("a-steal"),
            "ABP should waste far more than A-Steal: {rows:?}"
        );
        assert!(
            waste("abp") > 1.5 * waste("abg"),
            "ABP should waste far more than ABG: {rows:?}"
        );
    }

    #[test]
    fn comparison_is_deterministic() {
        assert_eq!(stealing_comparison(None), stealing_comparison(None));
    }
}
