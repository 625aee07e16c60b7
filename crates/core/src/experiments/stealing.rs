//! Centralized vs distributed scheduling: ABG against the
//! work-stealing schedulers of the paper's related work (Section 8).
//!
//! The empirical lineage the paper cites (\[2\]) showed A-Steal (work
//! stealing *with* parallelism feedback) far ahead of ABP (work
//! stealing without feedback). This experiment reproduces that
//! comparison inside the same two-level harness and adds the
//! combination the paper suggests but never built: the A-Control
//! controller driving a work-stealing execution.

use super::{parallel_map, task_seed};
use abg_alloc::Scripted;
use abg_control::AControl;
use abg_sched::PipelinedExecutor;
use abg_sim::{run_single_job, SingleJobConfig, SingleJobRun};
use abg_steal::{abp_request, ASteal, StealExecutor};
use abg_workload::paper_job;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the stealing comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct StealingConfig {
    /// Transition factors of the probe jobs.
    pub factors: Vec<u64>,
    /// Jobs per factor.
    pub jobs_per_factor: u32,
    /// Machine size.
    pub processors: u32,
    /// Quantum length `L`.
    pub quantum_len: u64,
    /// Phase pairs per job (jobs are lowered to explicit dags, so keep
    /// them modest).
    pub pairs: u64,
    /// ABG convergence rate.
    pub rate: f64,
    /// Experiment seed.
    pub seed: u64,
}

impl StealingConfig {
    /// A moderate default probe.
    pub fn default_probe() -> Self {
        Self {
            factors: vec![4, 8, 16],
            jobs_per_factor: 4,
            processors: 32,
            quantum_len: 50,
            pairs: 2,
            rate: 0.2,
            seed: 0x0005_7EA1,
        }
    }
}

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

fn summarize(name: &str, runs: &[SingleJobRun]) -> StealRow {
    let n = runs.len() as f64;
    StealRow {
        scheduler: name.to_string(),
        time_norm: runs.iter().map(SingleJobRun::time_over_span).sum::<f64>() / n,
        waste_norm: runs.iter().map(SingleJobRun::waste_over_work).sum::<f64>() / n,
    }
}

/// Runs the four schedulers over the probe jobs and returns one row per
/// scheduler: centralized ABG, A-Steal, ABP, and A-Control over
/// stealing.
pub fn stealing_comparison(cfg: &StealingConfig) -> Vec<StealRow> {
    let units: Vec<(u64, u64, u8)> = cfg
        .factors
        .iter()
        .flat_map(|&f| {
            (0..cfg.jobs_per_factor as u64).flat_map(move |j| (0..4u8).map(move |s| (f, j, s)))
        })
        .collect();
    let runs = parallel_map(units, |&(factor, index, scheduler)| {
        let mut rng = StdRng::seed_from_u64(task_seed(cfg.seed, factor, index));
        let job = paper_job(factor, cfg.quantum_len, cfg.pairs, &mut rng);
        let sim_cfg = SingleJobConfig::new(cfg.quantum_len);
        let mut alloc = Scripted::ample(cfg.processors);
        let steal_seed = task_seed(cfg.seed ^ 0x5EED, factor, index);
        let run = match scheduler {
            0 => run_single_job(
                &mut PipelinedExecutor::new(job),
                &mut AControl::new(cfg.rate),
                &mut alloc,
                sim_cfg,
            ),
            s => {
                let dag = job.to_explicit();
                let mut ex = StealExecutor::new(&dag, steal_seed);
                match s {
                    1 => run_single_job(&mut ex, &mut ASteal::paper_default(), &mut alloc, sim_cfg),
                    2 => run_single_job(
                        &mut ex,
                        &mut abp_request(cfg.processors),
                        &mut alloc,
                        sim_cfg,
                    ),
                    _ => run_single_job(&mut ex, &mut AControl::new(cfg.rate), &mut alloc, sim_cfg),
                }
            }
        };
        (scheduler, run)
    });

    let by = |s: u8| -> Vec<SingleJobRun> {
        runs.iter()
            .filter(|(sch, _)| *sch == s)
            .map(|(_, r)| r.clone())
            .collect()
    };
    vec![
        summarize("abg (centralized b-greedy)", &by(0)),
        summarize("a-steal (stealing + mult-inc/dec)", &by(1)),
        summarize("abp (stealing, no feedback)", &by(2)),
        summarize("a-control + stealing", &by(3)),
    ]
}

/// Convenience used by the boxed multi-job simulator: a `'static`
/// work-stealing executor over an owned dag.
pub fn owned_steal_executor(
    dag: abg_dag::ExplicitDag,
    seed: u64,
) -> StealExecutor<abg_dag::ExplicitDag> {
    StealExecutor::new(dag, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StealingConfig {
        StealingConfig {
            factors: vec![4, 8],
            jobs_per_factor: 2,
            processors: 16,
            quantum_len: 25,
            pairs: 2,
            rate: 0.2,
            seed: 5,
        }
    }

    #[test]
    fn four_schedulers_reported() {
        let rows = stealing_comparison(&tiny());
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
        let rows = stealing_comparison(&tiny());
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
        assert_eq!(stealing_comparison(&tiny()), stealing_comparison(&tiny()));
    }
}
