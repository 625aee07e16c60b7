//! Ablation experiments for the design choices DESIGN.md calls out:
//! convergence rate, quantum length, A-Greedy parameters, scheduler
//! priority rule, and the phase-semantics model.

use super::{mean, per_cell, probe_job, QualityPoint};
use abg_alloc::Scripted;
use abg_control::{AControl, AGreedy, AdaptiveRateControl, Controller};
use abg_dag::{ForkJoinSpec, PhasedJob};
use abg_sched::{
    BGreedyExecutor, DepthFirstExecutor, GreedyExecutor, JobExecutor, PipelinedExecutor,
};
use abg_sim::{run_single_job, SingleJobConfig, SingleJobRun};
use abg_workload::splitmix_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Common setup of the single-job ablations.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationConfig {
    /// Transition factors of the probe jobs.
    pub factors: Vec<u64>,
    /// Jobs per factor.
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

impl AblationConfig {
    /// A moderate default: factors {5, 20, 60}, a handful of jobs each.
    pub fn default_probe() -> Self {
        Self {
            factors: vec![5, 20, 60],
            jobs_per_factor: 6,
            processors: 128,
            quantum_len: 200,
            pairs: 3,
            seed: 0x00AB_1A7E,
        }
    }
}

/// Quality of the controllers `make` builds, one per probe job, each
/// driving its job alone at quantum length `quantum_len`. Jobs are drawn
/// at that quantum length, so their phase geometry follows it.
fn probe_quality<C, M>(cfg: &AblationConfig, quantum_len: u64, make: M) -> QualityPoint
where
    C: Controller,
    M: Fn() -> C + Sync,
{
    let runs = per_cell(&cfg.factors, cfg.jobs_per_factor, |factor, index| {
        run_single_job(
            &mut PipelinedExecutor::new(probe_job(cfg.seed, factor, index, quantum_len, cfg.pairs)),
            &mut make(),
            &mut Scripted::ample(cfg.processors),
            SingleJobConfig::new(quantum_len),
        )
    });
    QualityPoint::of(runs.flat())
}

/// One row of the convergence-rate ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateAblationRow {
    /// The convergence rate `r`.
    pub rate: f64,
    /// Quality at this rate.
    pub quality: QualityPoint,
}

/// Sweeps the convergence rate `r` of ABG (the paper notes results "do
/// not deviate too much for all values of convergence rate less than
/// 0.6" — this reproduces that claim).
pub fn rate_ablation(cfg: &AblationConfig, rates: &[f64]) -> Vec<RateAblationRow> {
    rates
        .iter()
        .map(|&rate| RateAblationRow {
            rate,
            quality: probe_quality(cfg, cfg.quantum_len, || AControl::new(rate)),
        })
        .collect()
}

/// Quality of the rate-governed controller
/// ([`AdaptiveRateControl`]) on the same probe jobs — the online
/// answer to the paper's assumption that `r < 1/C_L` is arranged from
/// historical workload knowledge.
pub fn governed_rate_quality(cfg: &AblationConfig, target_rate: f64) -> QualityPoint {
    probe_quality(cfg, cfg.quantum_len, || {
        AdaptiveRateControl::new(target_rate, 0.9)
    })
}

/// One row of the quantum-length ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantumAblationRow {
    /// The quantum length `L`.
    pub quantum_len: u64,
    /// ABG quality at this quantum length.
    pub abg: QualityPoint,
    /// A-Greedy quality at this quantum length.
    pub agreedy: QualityPoint,
}

/// Sweeps the quantum length `L`. Jobs are regenerated per `L` so the
/// phase geometry keeps its quantum-multiple shape (the factor is a
/// per-`L` characteristic, per footnote 2 of the paper).
pub fn quantum_ablation(cfg: &AblationConfig, quanta: &[u64]) -> Vec<QuantumAblationRow> {
    quanta
        .iter()
        .map(|&l| QuantumAblationRow {
            quantum_len: l,
            abg: probe_quality(cfg, l, AControl::paper_default),
            agreedy: probe_quality(cfg, l, AGreedy::paper_default),
        })
        .collect()
}

/// One row of the A-Greedy parameter ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AGreedyAblationRow {
    /// Responsiveness `ρ`.
    pub responsiveness: f64,
    /// Utilization threshold `δ`.
    pub utilization: f64,
    /// Quality at these parameters.
    pub quality: QualityPoint,
}

/// Sweeps A-Greedy's `ρ × δ` grid — how sensitive is the baseline to
/// its tuning?
pub fn agreedy_ablation(
    cfg: &AblationConfig,
    responsiveness: &[f64],
    utilization: &[f64],
) -> Vec<AGreedyAblationRow> {
    let mut rows = Vec::new();
    for &rho in responsiveness {
        for &delta in utilization {
            rows.push(AGreedyAblationRow {
                responsiveness: rho,
                utilization: delta,
                quality: probe_quality(cfg, cfg.quantum_len, || AGreedy::new(rho, delta)),
            });
        }
    }
    rows
}

/// One row of the scheduler-priority ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerAblationRow {
    /// Priority rule name.
    pub scheduler: String,
    /// Quality of the full ABG loop with this task scheduler.
    pub quality: QualityPoint,
}

/// Runs the full ABG feedback loop with different task-scheduler
/// priority rules (breadth-first = B-Greedy, FIFO = plain greedy,
/// LIFO = depth-first) on the *same* explicit dags.
///
/// B-Greedy's lowest-level-first rule is what makes the fractional
/// `A(q)` measurement faithful; the other rules feed the controller a
/// distorted signal.
pub fn scheduler_ablation(cfg: &AblationConfig) -> Vec<SchedulerAblationRow> {
    fn run<E: JobExecutor>(executor: &mut E, p: u32, sim_cfg: SingleJobConfig) -> SingleJobRun {
        run_single_job(
            executor,
            &mut AControl::paper_default(),
            &mut Scripted::ample(p),
            sim_cfg,
        )
    }
    // Smaller jobs: the per-task executor materialises every task.
    let quantum_len = cfg.quantum_len.min(100);
    let sim_cfg = SingleJobConfig::new(quantum_len);
    let p = cfg.processors;
    // Each unit draws its dag and runs all three rules on it, so the
    // three passes share the worker pool.
    let runs = per_cell(&cfg.factors, cfg.jobs_per_factor, |f, j| {
        let mut rng = StdRng::seed_from_u64(splitmix_seed(cfg.seed, f, j));
        let dag = ForkJoinSpec::with_transition_factor(f.min(16), quantum_len, 2)
            .generate(&mut rng)
            .to_explicit();
        [
            run(&mut BGreedyExecutor::new(&dag), p, sim_cfg),
            run(&mut GreedyExecutor::new(&dag), p, sim_cfg),
            run(&mut DepthFirstExecutor::new(&dag), p, sim_cfg),
        ]
    });
    [
        "breadth-first (B-Greedy)",
        "fifo (plain greedy)",
        "lifo (depth-first)",
    ]
    .into_iter()
    .enumerate()
    .map(|(i, rule)| SchedulerAblationRow {
        scheduler: rule.to_string(),
        quality: QualityPoint {
            time_norm: mean(runs.flat(), |r| r[i].time_over_span()),
            waste_norm: mean(runs.flat(), |r| r[i].waste_over_work()),
        },
    })
    .collect()
}

/// One row of the phase-semantics ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct SemanticsAblationRow {
    /// Job model name.
    pub model: String,
    /// Request calculator name.
    pub scheduler: String,
    /// Quality under this combination.
    pub quality: QualityPoint,
}

/// Compares the pipelined-phase job model against the barrier-per-level
/// model under both controllers, on jobs generated from the *same*
/// phase lists: the barrier job is [`PhasedJob::barrier`] of the sampled
/// phases, and both run through [`PipelinedExecutor`].
///
/// Under barriers, allotments that do not divide the phase width lose
/// cycles at every level boundary; A-Greedy's power-of-two desires are
/// especially hurt (its utilization check keeps it a factor below the
/// width). The ablation quantifies why the pipelined model is the
/// faithful reading of the paper's workloads.
pub fn semantics_ablation(cfg: &AblationConfig) -> Vec<SemanticsAblationRow> {
    let mut rows = Vec::new();
    let combos: [(&str, bool); 4] = [
        ("abg", false),
        ("abg", true),
        ("a-greedy", false),
        ("a-greedy", true),
    ];
    for (sched, barrier) in combos {
        let runs = per_cell(&cfg.factors, cfg.jobs_per_factor, |factor, index| {
            let mut rng = StdRng::seed_from_u64(splitmix_seed(cfg.seed, factor, index));
            let spec = ForkJoinSpec::with_transition_factor(factor, cfg.quantum_len, cfg.pairs);
            let mut calc: Box<dyn Controller + Send> = if sched == "abg" {
                Box::new(AControl::paper_default())
            } else {
                Box::new(AGreedy::paper_default())
            };
            let mut alloc = Scripted::ample(cfg.processors);
            let sim_cfg = SingleJobConfig::new(cfg.quantum_len);
            let job = if barrier {
                PhasedJob::barrier(&spec.sample_phases(&mut rng))
            } else {
                spec.generate(&mut rng)
            };
            run_single_job(
                &mut PipelinedExecutor::new(job),
                &mut calc,
                &mut alloc,
                sim_cfg,
            )
        });
        rows.push(SemanticsAblationRow {
            model: if barrier { "barrier" } else { "pipelined" }.to_string(),
            scheduler: sched.to_string(),
            quality: QualityPoint::of(runs.flat()),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AblationConfig {
        AblationConfig {
            factors: vec![4, 12],
            jobs_per_factor: 2,
            processors: 64,
            quantum_len: 40,
            pairs: 2,
            seed: 3,
        }
    }

    #[test]
    fn rate_ablation_small_rates_are_fine() {
        let rows = rate_ablation(&tiny(), &[0.0, 0.2, 0.6, 0.9]);
        assert_eq!(rows.len(), 4);
        // High convergence rates react too slowly: quality degrades.
        let t0 = rows[0].quality.time_norm;
        let t9 = rows[3].quality.time_norm;
        assert!(
            t9 >= t0 - 1e-9,
            "r=0.9 ({t9}) should be no faster than r=0 ({t0})"
        );
        for r in &rows {
            assert!(r.quality.time_norm >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn governed_rate_is_competitive_with_fixed_target() {
        let cfg = tiny();
        let fixed = rate_ablation(&cfg, &[0.2])[0].quality;
        let governed = governed_rate_quality(&cfg, 0.2);
        // The governor may clamp the rate toward 0 on violent jobs; it
        // must not cost more than a small factor on either metric.
        assert!(
            governed.time_norm <= fixed.time_norm * 1.1,
            "{governed:?} vs {fixed:?}"
        );
        assert!(
            governed.waste_norm <= fixed.waste_norm * 1.3,
            "{governed:?} vs {fixed:?}"
        );
    }

    #[test]
    fn quantum_ablation_produces_rows() {
        let rows = quantum_ablation(&tiny(), &[20, 80]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.abg.time_norm >= 1.0 - 1e-9);
            assert!(r.agreedy.time_norm >= r.abg.time_norm - 0.5);
        }
    }

    #[test]
    fn agreedy_grid_shapes() {
        let rows = agreedy_ablation(&tiny(), &[1.5, 2.0], &[0.5, 0.8]);
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn scheduler_ablation_breadth_first_no_worse() {
        let rows = scheduler_ablation(&tiny());
        assert_eq!(rows.len(), 3);
        let bg = &rows[0];
        assert!(bg.scheduler.contains("breadth"));
        for other in &rows[1..] {
            assert!(
                bg.quality.time_norm <= other.quality.time_norm + 0.25,
                "B-Greedy should not be substantially slower: {rows:?}"
            );
        }
    }

    #[test]
    fn semantics_ablation_barrier_hurts_agreedy_more() {
        let rows = semantics_ablation(&tiny());
        assert_eq!(rows.len(), 4);
        let get = |m: &str, s: &str| {
            rows.iter()
                .find(|r| r.model == m && r.scheduler == s)
                .expect("combo exists")
                .quality
        };
        let ag_pen = get("barrier", "a-greedy").time_norm - get("pipelined", "a-greedy").time_norm;
        let abg_pen = get("barrier", "abg").time_norm - get("pipelined", "abg").time_norm;
        assert!(
            ag_pen >= abg_pen - 0.15,
            "barrier model should hurt A-Greedy at least as much as ABG \
             (A-Greedy penalty {ag_pen:.3}, ABG penalty {abg_pen:.3})"
        );
    }

    /// Golden of the default-probe semantics ablation: every row's
    /// quality, bit for bit, so a change to either job model or its
    /// executor shows up here.
    #[test]
    fn semantics_ablation_matches_golden() {
        let mut f = crate::experiments::Fingerprint::new();
        for row in semantics_ablation(&AblationConfig::default_probe()) {
            f.f64(row.quality.time_norm).f64(row.quality.waste_norm);
        }
        assert_eq!(f.finish(), 0x5ff9_911b_0c65_5b7c);
    }
}
