//! The multiprogrammed load sweep: the paper's Figure 6.
//!
//! Job sets of varying load space-share the machine through dynamic
//! equi-partitioning; both task schedulers run the *same* sets, and the
//! sweep reports makespan and mean response time normalized by their
//! theoretical lower bounds (Figures 6(a)/6(c)) plus per-set
//! A-Greedy/ABG ratios (Figures 6(b)/6(d)).

use super::{parallel_map, task_seed};
use crate::bounds::{makespan_lower_bound, response_lower_bound_batched, JobSize};
use abg_alloc::DynamicEquiPartition;
use abg_control::{AControl, AGreedy, Controller};
use abg_dag::PhasedJob;
use abg_sched::PipelinedExecutor;
use abg_sim::{MultiJobOutcome, MultiJobSim};
use abg_workload::{JobSetSpec, ReleaseSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Which controller drives every job of a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scheduler {
    Abg,
    AGreedy,
}

/// Configuration of the Figure-6 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiprogrammedConfig {
    /// Load values to sweep (x-axis; load = Σ avg parallelism / P).
    pub loads: Vec<f64>,
    /// Job sets generated per load value.
    pub sets_per_load: u32,
    /// Machine size `P` (paper: 128).
    pub processors: u32,
    /// Quantum length `L` in steps (paper: 1000).
    pub quantum_len: u64,
    /// Phase pairs per member job.
    pub pairs: u64,
    /// Largest parallel width in the mixed-factor population.
    pub max_factor: u64,
    /// Release schedule (batched enables the response-time bound).
    pub release: ReleaseSchedule,
    /// ABG convergence rate `r`.
    pub rate: f64,
    /// A-Greedy responsiveness `ρ`.
    pub responsiveness: f64,
    /// A-Greedy utilization threshold `δ`.
    pub utilization: f64,
    /// Experiment seed.
    pub seed: u64,
}

impl MultiprogrammedConfig {
    /// The paper's setting: `P = 128`, `L = 1000`, batched sets,
    /// loads spanning (0, 6], ~5000 sets total.
    pub fn paper() -> Self {
        Self {
            loads: (1..=24).map(|i| i as f64 * 0.25).collect(),
            sets_per_load: 208, // ≈ 5000 sets in total
            processors: 128,
            quantum_len: 1000,
            pairs: 3,
            max_factor: 100,
            release: ReleaseSchedule::Batched,
            rate: 0.2,
            responsiveness: 2.0,
            utilization: 0.8,
            seed: 0xF166,
        }
    }

    /// A scaled-down sweep for tests and benches.
    pub fn scaled() -> Self {
        Self {
            loads: vec![0.5, 1.0, 2.0, 4.0],
            sets_per_load: 4,
            processors: 32,
            quantum_len: 50,
            pairs: 2,
            max_factor: 16,
            release: ReleaseSchedule::Batched,
            rate: 0.2,
            responsiveness: 2.0,
            utilization: 0.8,
            seed: 0xF166,
        }
    }
}

/// One x-axis point of Figure 6 (means over the load's sets).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Target load of the generated sets.
    pub load: f64,
    /// Mean achieved load (sanity check on the generator).
    pub measured_load: f64,
    /// Mean number of jobs per set.
    pub mean_jobs: f64,
    /// Mean `M / M*` under ABG (Figure 6(a)).
    pub abg_makespan_norm: f64,
    /// Mean `M / M*` under A-Greedy (Figure 6(a)).
    pub agreedy_makespan_norm: f64,
    /// Mean `R / R*` under ABG (Figure 6(c); batched sets only).
    pub abg_response_norm: f64,
    /// Mean `R / R*` under A-Greedy (Figure 6(c)).
    pub agreedy_response_norm: f64,
    /// Mean per-set makespan ratio A-Greedy / ABG (Figure 6(b)).
    pub makespan_ratio: f64,
    /// Mean per-set response ratio A-Greedy / ABG (Figure 6(d)).
    pub response_ratio: f64,
}

fn run_set(
    cfg: &MultiprogrammedConfig,
    jobs: &[Arc<PhasedJob>],
    releases: &[u64],
    which: Scheduler,
) -> MultiJobOutcome {
    let mut sim = MultiJobSim::new(DynamicEquiPartition::new(cfg.processors), cfg.quantum_len);
    for (job, &release) in jobs.iter().zip(releases) {
        let calculator: Box<dyn Controller + Send> = match which {
            Scheduler::Abg => Box::new(AControl::new(cfg.rate)),
            Scheduler::AGreedy => Box::new(AGreedy::new(cfg.responsiveness, cfg.utilization)),
        };
        // The executor needs `'static` ownership (it is boxed into the
        // sim), but the job structure itself is shared: both schedulers
        // run against the same `Arc`ed phase lists, no deep clones.
        sim.add_job(
            Box::new(PipelinedExecutor::new(Arc::clone(job))),
            calculator,
            release,
        );
    }
    sim.run()
}

/// The measurements of one set under one scheduler.
#[derive(Debug, Clone, Copy)]
struct SetResult {
    load: f64,
    jobs: f64,
    abg_makespan: f64,
    agreedy_makespan: f64,
    abg_response: f64,
    agreedy_response: f64,
    makespan_star: f64,
    response_star: Option<f64>,
}

fn evaluate_set(cfg: &MultiprogrammedConfig, load: f64, index: u64) -> SetResult {
    let mut rng = StdRng::seed_from_u64(task_seed(cfg.seed, index, load.to_bits()));
    let spec = JobSetSpec {
        processors: cfg.processors,
        quantum_len: cfg.quantum_len,
        load,
        max_factor: cfg.max_factor,
        pairs: cfg.pairs,
        max_jobs: cfg.processors as usize,
        release: cfg.release,
    };
    let set = spec.generate(&mut rng);
    let set_load = set.load();
    let set_len = set.len();
    // Move the generated jobs into shared ownership once; the two
    // scheduler runs (and the lower-bound computation) all borrow the
    // same job structures.
    let releases = set.releases;
    let jobs: Vec<Arc<PhasedJob>> = set.jobs.into_iter().map(Arc::new).collect();
    let abg = run_set(cfg, &jobs, &releases, Scheduler::Abg);
    let agreedy = run_set(cfg, &jobs, &releases, Scheduler::AGreedy);

    let sizes: Vec<JobSize> = jobs
        .iter()
        .zip(&releases)
        .map(|(j, &r)| JobSize {
            work: j.work(),
            span: j.span(),
            release: r,
        })
        .collect();
    let makespan_star = makespan_lower_bound(&sizes, cfg.processors);
    let batched = releases.iter().all(|&r| r == 0);
    let response_star = batched.then(|| response_lower_bound_batched(&sizes, cfg.processors));

    SetResult {
        load: set_load,
        jobs: set_len as f64,
        abg_makespan: abg.makespan as f64,
        agreedy_makespan: agreedy.makespan as f64,
        abg_response: abg.mean_response_time(),
        agreedy_response: agreedy.mean_response_time(),
        makespan_star,
        response_star,
    }
}

/// Runs the Figure-6 sweep; one [`LoadPoint`] per configured load.
///
/// # Panics
///
/// Panics if the config has no loads or zero sets per load.
pub fn multiprogrammed_sweep(cfg: &MultiprogrammedConfig) -> Vec<LoadPoint> {
    assert!(!cfg.loads.is_empty(), "sweep needs at least one load");
    assert!(
        cfg.sets_per_load > 0,
        "sweep needs at least one set per load"
    );
    let units: Vec<(f64, u64)> = cfg
        .loads
        .iter()
        .flat_map(|&l| (0..cfg.sets_per_load as u64).map(move |i| (l, i)))
        .collect();
    let results = parallel_map(units, |&(load, index)| {
        (load, evaluate_set(cfg, load, index))
    });

    cfg.loads
        .iter()
        .map(|&load| {
            let rows: Vec<&SetResult> = results
                .iter()
                .filter(|(l, _)| *l == load)
                .map(|(_, r)| r)
                .collect();
            let n = rows.len() as f64;
            let mean = |f: &dyn Fn(&SetResult) -> f64| rows.iter().map(|r| f(r)).sum::<f64>() / n;
            LoadPoint {
                load,
                measured_load: mean(&|r| r.load),
                mean_jobs: mean(&|r| r.jobs),
                abg_makespan_norm: mean(&|r| r.abg_makespan / r.makespan_star),
                agreedy_makespan_norm: mean(&|r| r.agreedy_makespan / r.makespan_star),
                abg_response_norm: mean(&|r| {
                    r.response_star.map_or(f64::NAN, |s| r.abg_response / s)
                }),
                agreedy_response_norm: mean(&|r| {
                    r.response_star.map_or(f64::NAN, |s| r.agreedy_response / s)
                }),
                makespan_ratio: mean(&|r| r.agreedy_makespan / r.abg_makespan),
                response_ratio: mean(&|r| r.agreedy_response / r.abg_response),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_sweep_produces_sane_normalized_metrics() {
        let cfg = MultiprogrammedConfig::scaled();
        let points = multiprogrammed_sweep(&cfg);
        assert_eq!(points.len(), cfg.loads.len());
        for p in &points {
            // Measured metrics can never beat their lower bounds.
            assert!(p.abg_makespan_norm >= 1.0 - 1e-9, "{p:?}");
            assert!(p.agreedy_makespan_norm >= 1.0 - 1e-9, "{p:?}");
            assert!(p.abg_response_norm >= 1.0 - 1e-9, "{p:?}");
            assert!(p.agreedy_response_norm >= 1.0 - 1e-9, "{p:?}");
            assert!(p.mean_jobs >= 1.0);
        }
    }

    #[test]
    fn light_load_favors_abg() {
        let mut cfg = MultiprogrammedConfig::scaled();
        cfg.loads = vec![0.5];
        cfg.sets_per_load = 6;
        let p = &multiprogrammed_sweep(&cfg)[0];
        // Under light load requests are granted and ABG's cleaner
        // feedback should not lose to A-Greedy.
        assert!(
            p.makespan_ratio > 0.97,
            "makespan ratio {} unexpectedly below 1",
            p.makespan_ratio
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let mut cfg = MultiprogrammedConfig::scaled();
        cfg.loads = vec![1.0];
        cfg.sets_per_load = 2;
        assert_eq!(multiprogrammed_sweep(&cfg), multiprogrammed_sweep(&cfg));
    }
}
