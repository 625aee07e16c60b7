//! Robustness beyond fork-join: ABG vs A-Greedy on irregular
//! parallelism profiles, correlated with the alternative job
//! characteristics of the paper's future-work section (transition
//! factor, coefficient of variation, change frequency).

use super::{parallel_map, task_seed};
use abg_alloc::Scripted;
use abg_control::{AControl, AGreedy};
use abg_dag::{JobStructure, PhasedJob};
use abg_sched::PipelinedExecutor;
use abg_sim::{run_single_job, SingleJobConfig, SingleJobRun};
use abg_workload::paper_job;
use abg_workload::profiles::{bursty_job, ramp_job, random_walk_job};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the robustness experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessConfig {
    /// Jobs per profile class.
    pub jobs_per_class: u32,
    /// Machine size.
    pub processors: u32,
    /// Quantum length `L`.
    pub quantum_len: u64,
    /// Peak parallelism of the irregular profiles.
    pub peak: u64,
    /// ABG convergence rate.
    pub rate: f64,
    /// Experiment seed.
    pub seed: u64,
}

impl RobustnessConfig {
    /// Moderate default probe.
    pub fn default_probe() -> Self {
        Self {
            jobs_per_class: 8,
            processors: 128,
            quantum_len: 100,
            peak: 32,
            rate: 0.2,
            seed: 0x0B57,
        }
    }
}

/// One profile class's results.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessRow {
    /// Profile class name.
    pub class: String,
    /// Mean measured transition factor `C_L`.
    pub transition_factor: f64,
    /// Mean coefficient of variation of the per-level parallelism.
    pub coefficient_of_variation: f64,
    /// Mean number of adjacent-level parallelism changes per 1000
    /// levels (the "frequency of change" characteristic).
    pub changes_per_kilolevel: f64,
    /// Mean `T / T∞` under ABG.
    pub abg_time_norm: f64,
    /// Mean `T / T∞` under A-Greedy.
    pub agreedy_time_norm: f64,
    /// Mean `W / T1` under ABG.
    pub abg_waste_norm: f64,
    /// Mean `W / T1` under A-Greedy.
    pub agreedy_waste_norm: f64,
}

const CLASSES: [&str; 4] = ["fork-join", "random-walk", "bursty", "ramp"];

/// Per-job measurement tuple: (C_L, CV, changes/klvl, ABG run, A-Greedy run).
type JobMeasurement = (f64, f64, f64, SingleJobRun, SingleJobRun);

fn make_job(class: &str, cfg: &RobustnessConfig, rng: &mut StdRng) -> PhasedJob {
    let l = cfg.quantum_len;
    match class {
        "fork-join" => paper_job(cfg.peak, l, 3, rng),
        "random-walk" => random_walk_job(24, l / 2, cfg.peak, 2.0, rng),
        "bursty" => bursty_job(30, l / 2, cfg.peak, 0.15, rng),
        "ramp" => ramp_job(10, l / 2, cfg.peak),
        other => unreachable!("unknown class {other}"),
    }
}

fn pair(job: &PhasedJob, cfg: &RobustnessConfig) -> (SingleJobRun, SingleJobRun) {
    let sim = SingleJobConfig::new(cfg.quantum_len);
    let abg = run_single_job(
        &mut PipelinedExecutor::new(job),
        &mut AControl::new(cfg.rate),
        &mut Scripted::ample(cfg.processors),
        sim,
    );
    let agreedy = run_single_job(
        &mut PipelinedExecutor::new(job),
        &mut AGreedy::paper_default(),
        &mut Scripted::ample(cfg.processors),
        sim,
    );
    (abg, agreedy)
}

/// Runs every profile class and returns one row per class.
pub fn robustness_comparison(cfg: &RobustnessConfig) -> Vec<RobustnessRow> {
    let units: Vec<(usize, u64)> = (0..CLASSES.len())
        .flat_map(|c| (0..cfg.jobs_per_class as u64).map(move |j| (c, j)))
        .collect();
    let results = parallel_map(units, |&(class_idx, index)| {
        let mut rng = StdRng::seed_from_u64(task_seed(cfg.seed, class_idx as u64, index));
        let job = make_job(CLASSES[class_idx], cfg, &mut rng);
        let profile = job.profile();
        let (abg, agreedy) = pair(&job, cfg);
        (
            class_idx,
            (
                job.transition_factor(cfg.quantum_len),
                profile.coefficient_of_variation(),
                profile.change_count() as f64 / profile.span() as f64 * 1000.0,
                abg,
                agreedy,
            ),
        )
    });

    CLASSES
        .iter()
        .enumerate()
        .map(|(ci, name)| {
            let rows: Vec<_> = results
                .iter()
                .filter(|(c, _)| *c == ci)
                .map(|(_, r)| r)
                .collect();
            let n = rows.len() as f64;
            let mean =
                |f: &dyn Fn(&JobMeasurement) -> f64| rows.iter().map(|r| f(r)).sum::<f64>() / n;
            RobustnessRow {
                class: name.to_string(),
                transition_factor: mean(&|r| r.0),
                coefficient_of_variation: mean(&|r| r.1),
                changes_per_kilolevel: mean(&|r| r.2),
                abg_time_norm: mean(&|r| r.3.time_over_span()),
                agreedy_time_norm: mean(&|r| r.4.time_over_span()),
                abg_waste_norm: mean(&|r| r.3.waste_over_work()),
                agreedy_waste_norm: mean(&|r| r.4.waste_over_work()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RobustnessConfig {
        RobustnessConfig {
            jobs_per_class: 3,
            processors: 64,
            quantum_len: 40,
            peak: 16,
            rate: 0.2,
            seed: 9,
        }
    }

    #[test]
    fn all_classes_reported() {
        let rows = robustness_comparison(&tiny());
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.transition_factor >= 1.0, "{r:?}");
            assert!(r.abg_time_norm >= 1.0 - 1e-9, "{r:?}");
            assert!(r.agreedy_time_norm >= 1.0 - 1e-9, "{r:?}");
        }
    }

    #[test]
    fn abg_stays_competitive_on_irregular_profiles() {
        // ABG's advantage was proven for fork-join; the robustness claim
        // is that it does not fall behind A-Greedy on irregular shapes.
        let rows = robustness_comparison(&tiny());
        for r in &rows {
            assert!(
                r.abg_time_norm <= r.agreedy_time_norm * 1.15,
                "ABG fell behind on {}: {r:?}",
                r.class
            );
        }
    }

    #[test]
    fn characteristics_separate_the_classes() {
        let rows = robustness_comparison(&tiny());
        let get = |name: &str| rows.iter().find(|r| r.class == name).unwrap();
        // The ramp changes gently but often; the bursty profile has the
        // extreme variance.
        assert!(get("ramp").changes_per_kilolevel > get("fork-join").changes_per_kilolevel);
        assert!(get("bursty").coefficient_of_variation > get("ramp").coefficient_of_variation);
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            robustness_comparison(&tiny()),
            robustness_comparison(&tiny())
        );
    }
}
