//! Robustness beyond fork-join: ABG vs A-Greedy on irregular
//! parallelism profiles, correlated with the alternative job
//! characteristics of the paper's future-work section (transition
//! factor, coefficient of variation, change frequency).

use super::{mean, per_cell};
use abg_alloc::Scripted;
use abg_control::{AControl, AGreedy};
use abg_dag::{JobStructure, PhasedJob};
use abg_sched::PipelinedExecutor;
use abg_sim::{CompletedJob, MultiJobSim};
use abg_workload::profiles::{bursty_job, ramp_job, random_walk_job};
use abg_workload::{paper_job, splitmix_seed};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Jobs per profile class.
const JOBS_PER_CLASS: u32 = 8;
/// Machine size.
const PROCESSORS: u32 = 128;
/// Quantum length `L`.
const QUANTUM_LEN: u64 = 100;
/// Peak parallelism of the irregular profiles.
const PEAK: u64 = 32;
/// Recorded seed.
const SEED: u64 = 0x0B57;

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

fn make_job(class: &str, rng: &mut StdRng) -> PhasedJob {
    let l = QUANTUM_LEN;
    match class {
        "fork-join" => paper_job(PEAK, l, 3, rng),
        "random-walk" => random_walk_job(24, l / 2, PEAK, 2.0, rng),
        "bursty" => bursty_job(30, l / 2, PEAK, 0.15, rng),
        "ramp" => ramp_job(10, l / 2, PEAK),
        other => unreachable!("unknown class {other}"),
    }
}

fn pair(job: &PhasedJob) -> (CompletedJob, CompletedJob) {
    let abg = MultiJobSim::homogeneous(Scripted::ample(PROCESSORS), QUANTUM_LEN)
        .run_job(PipelinedExecutor::new(job), AControl::paper_default());
    let agreedy = MultiJobSim::homogeneous(Scripted::ample(PROCESSORS), QUANTUM_LEN)
        .run_job(PipelinedExecutor::new(job), AGreedy::paper_default());
    (abg, agreedy)
}

/// Runs every profile class and returns one row per class. Both
/// schedulers run with the paper's parameters
/// ([`AControl::paper_default`], [`AGreedy::paper_default`]); `seed`
/// overrides the recorded one.
pub fn robustness_comparison(seed: Option<u64>) -> Vec<RobustnessRow> {
    let seed = seed.unwrap_or(SEED);
    let classes: Vec<u64> = (0..CLASSES.len() as u64).collect();
    let cells = per_cell(&classes, JOBS_PER_CLASS, |class, index| {
        let mut rng = StdRng::seed_from_u64(splitmix_seed(seed, class, index));
        let job = make_job(CLASSES[class as usize], &mut rng);
        let profile = job.profile();
        let (abg, agreedy) = pair(&job);
        // (C_L, CV, changes per kilolevel, ABG run, A-Greedy run)
        (
            job.transition_factor(QUANTUM_LEN),
            profile.coefficient_of_variation(),
            profile.change_count() as f64 / profile.span() as f64 * 1000.0,
            abg,
            agreedy,
        )
    });

    CLASSES
        .iter()
        .zip(cells.iter())
        .map(|(name, rows)| RobustnessRow {
            class: name.to_string(),
            transition_factor: mean(rows, |r| r.0),
            coefficient_of_variation: mean(rows, |r| r.1),
            changes_per_kilolevel: mean(rows, |r| r.2),
            abg_time_norm: mean(rows, |r| r.3.time_over_span()),
            agreedy_time_norm: mean(rows, |r| r.4.time_over_span()),
            abg_waste_norm: mean(rows, |r| r.3.waste_over_work()),
            agreedy_waste_norm: mean(rows, |r| r.4.waste_over_work()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_classes_reported() {
        let rows = robustness_comparison(None);
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
        let rows = robustness_comparison(None);
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
        let rows = robustness_comparison(None);
        let get = |name: &str| rows.iter().find(|r| r.class == name).unwrap();
        // The ramp changes gently but often; the bursty profile has the
        // extreme variance.
        assert!(get("ramp").changes_per_kilolevel > get("fork-join").changes_per_kilolevel);
        assert!(get("bursty").coefficient_of_variation > get("ramp").coefficient_of_variation);
    }

    #[test]
    fn deterministic() {
        assert_eq!(robustness_comparison(None), robustness_comparison(None));
    }
}
