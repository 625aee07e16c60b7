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
use abg_sim::{CompletedJob, MultiJobSim};
use abg_workload::splitmix_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The probe jobs: transition factors, jobs per factor, phase pairs per
/// job.
const FACTORS: [u64; 3] = [5, 20, 60];
const JOBS_PER_FACTOR: u32 = 6;
const PAIRS: u64 = 3;
/// Machine size.
const PROCESSORS: u32 = 128;
/// Quantum length `L` (the quantum ablation sweeps it instead).
const QUANTUM_LEN: u64 = 200;
/// Recorded seed of every ablation.
const SEED: u64 = 0x00AB_1A7E;
/// Convergence rates `r` of the rate ablation.
const RATES: [f64; 5] = [0.0, 0.2, 0.4, 0.6, 0.8];
/// Target rate of the rate-governed controller.
const GOVERNED_TARGET: f64 = 0.2;
/// Quantum lengths `L` of the quantum ablation.
const QUANTA: [u64; 5] = [50, 100, 200, 400, 800];
/// A-Greedy's responsiveness `ρ` × utilization threshold `δ` grid.
const RESPONSIVENESS: [f64; 3] = [1.5, 2.0, 4.0];
const UTILIZATION: [f64; 3] = [0.5, 0.8, 0.95];

/// Quality of the controllers `make` builds, one per probe job, each
/// driving its job alone at quantum length `quantum_len`. Jobs are drawn
/// at that quantum length, so their phase geometry follows it.
fn probe_quality<C, M>(seed: u64, quantum_len: u64, make: M) -> QualityPoint
where
    C: Controller,
    M: Fn() -> C + Sync,
{
    let runs = per_cell(&FACTORS, JOBS_PER_FACTOR, |factor, index| {
        MultiJobSim::homogeneous(Scripted::ample(PROCESSORS), quantum_len).run_job(
            PipelinedExecutor::new(probe_job(seed, factor, index, quantum_len, PAIRS)),
            make(),
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

/// Sweeps the convergence rate `r` of ABG over {0, 0.2, …, 0.8} (the
/// paper notes results "do not deviate too much for all values of
/// convergence rate less than 0.6" — this reproduces that claim).
/// `seed` overrides the recorded one.
pub fn rate_ablation(seed: Option<u64>) -> Vec<RateAblationRow> {
    let seed = seed.unwrap_or(SEED);
    RATES
        .iter()
        .map(|&rate| RateAblationRow {
            rate,
            quality: probe_quality(seed, QUANTUM_LEN, || AControl::new(rate)),
        })
        .collect()
}

/// Quality of the rate-governed controller
/// ([`AdaptiveRateControl`]) on the same probe jobs — the online
/// answer to the paper's assumption that `r < 1/C_L` is arranged from
/// historical workload knowledge. Its target rate is 0.2.
pub fn governed_rate_quality(seed: Option<u64>) -> QualityPoint {
    probe_quality(seed.unwrap_or(SEED), QUANTUM_LEN, || {
        AdaptiveRateControl::new(GOVERNED_TARGET, 0.9)
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

/// Sweeps the quantum length `L` over {50, 100, 200, 400, 800}. Jobs
/// are regenerated per `L` so the phase geometry keeps its
/// quantum-multiple shape (the factor is a per-`L` characteristic, per
/// footnote 2 of the paper).
pub fn quantum_ablation(seed: Option<u64>) -> Vec<QuantumAblationRow> {
    let seed = seed.unwrap_or(SEED);
    QUANTA
        .iter()
        .map(|&l| QuantumAblationRow {
            quantum_len: l,
            abg: probe_quality(seed, l, AControl::paper_default),
            agreedy: probe_quality(seed, l, AGreedy::paper_default),
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

/// Sweeps A-Greedy's `ρ × δ` grid, ρ ∈ {1.5, 2, 4} × δ ∈ {0.5, 0.8,
/// 0.95} — how sensitive is the baseline to its tuning?
pub fn agreedy_ablation(seed: Option<u64>) -> Vec<AGreedyAblationRow> {
    let seed = seed.unwrap_or(SEED);
    let mut rows = Vec::new();
    for &rho in &RESPONSIVENESS {
        for &delta in &UTILIZATION {
            rows.push(AGreedyAblationRow {
                responsiveness: rho,
                utilization: delta,
                quality: probe_quality(seed, QUANTUM_LEN, || AGreedy::new(rho, delta)),
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
pub fn scheduler_ablation(seed: Option<u64>) -> Vec<SchedulerAblationRow> {
    fn run<E: JobExecutor>(executor: E, quantum_len: u64) -> CompletedJob {
        MultiJobSim::homogeneous(Scripted::ample(PROCESSORS), quantum_len)
            .run_job(executor, AControl::paper_default())
    }
    // Smaller jobs: the per-task executor materialises every task.
    let quantum_len = 100;
    let seed = seed.unwrap_or(SEED);
    // Each unit draws its dag and runs all three rules on it, so the
    // three passes share the worker pool.
    let runs = per_cell(&FACTORS, JOBS_PER_FACTOR, |f, j| {
        let mut rng = StdRng::seed_from_u64(splitmix_seed(seed, f, j));
        let dag = ForkJoinSpec::with_transition_factor(f.min(16), quantum_len, 2)
            .generate(&mut rng)
            .to_explicit();
        [
            run(BGreedyExecutor::new(&dag), quantum_len),
            run(GreedyExecutor::new(&dag), quantum_len),
            run(DepthFirstExecutor::new(&dag), quantum_len),
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
pub fn semantics_ablation(seed: Option<u64>) -> Vec<SemanticsAblationRow> {
    let seed = seed.unwrap_or(SEED);
    let mut rows = Vec::new();
    let combos: [(&str, bool); 4] = [
        ("abg", false),
        ("abg", true),
        ("a-greedy", false),
        ("a-greedy", true),
    ];
    for (sched, barrier) in combos {
        let runs = per_cell(&FACTORS, JOBS_PER_FACTOR, |factor, index| {
            let mut rng = StdRng::seed_from_u64(splitmix_seed(seed, factor, index));
            let spec = ForkJoinSpec::with_transition_factor(factor, QUANTUM_LEN, PAIRS);
            let calc: Box<dyn Controller + Send> = if sched == "abg" {
                Box::new(AControl::paper_default())
            } else {
                Box::new(AGreedy::paper_default())
            };
            let job = if barrier {
                PhasedJob::barrier(&spec.sample_phases(&mut rng))
            } else {
                spec.generate(&mut rng)
            };
            MultiJobSim::homogeneous(Scripted::ample(PROCESSORS), QUANTUM_LEN)
                .run_job(PipelinedExecutor::new(job), calc)
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

    #[test]
    fn rate_ablation_small_rates_are_fine() {
        let rows = rate_ablation(None);
        assert_eq!(rows.len(), 5);
        // High convergence rates react too slowly: quality degrades.
        let t0 = rows[0].quality.time_norm;
        let t8 = rows[4].quality.time_norm;
        assert!(
            t8 >= t0 - 1e-9,
            "r=0.8 ({t8}) should be no faster than r=0 ({t0})"
        );
        for r in &rows {
            assert!(r.quality.time_norm >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn governed_rate_is_competitive_with_fixed_target() {
        let row = rate_ablation(None)[1];
        assert_eq!(row.rate, GOVERNED_TARGET);
        let fixed = row.quality;
        let governed = governed_rate_quality(None);
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
        let rows = quantum_ablation(None);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.abg.time_norm >= 1.0 - 1e-9);
            assert!(r.agreedy.time_norm >= r.abg.time_norm - 0.5);
        }
    }

    #[test]
    fn agreedy_grid_shapes() {
        let rows = agreedy_ablation(None);
        assert_eq!(rows.len(), 9);
    }

    #[test]
    fn scheduler_ablation_breadth_first_no_worse() {
        let rows = scheduler_ablation(None);
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
        let rows = semantics_ablation(None);
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
        for row in semantics_ablation(None) {
            f.f64(row.quality.time_norm).f64(row.quality.waste_norm);
        }
        assert_eq!(f.finish(), 0x5ff9_911b_0c65_5b7c);
    }
}
