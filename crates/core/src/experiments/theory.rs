//! Empirical validation of the paper's analytical results: Theorem 1
//! (control metrics), Lemma 2 (request envelope), Theorem 3 (running
//! time under trim analysis), Theorem 4 (waste) and Theorem 5 (global
//! bounds).

use super::task_seed;
use crate::bounds::{self, makespan_lower_bound, response_lower_bound_batched, JobSize};
use abg_alloc::{DynamicEquiPartition, Scripted};
use abg_control::{analyze_step_response, AControl, AGreedy, ClosedLoop, Controller};
use abg_dag::{JobStructure, PhasedJob};
use abg_sched::PipelinedExecutor;
use abg_sim::{run_single_job, MultiJobSim, SingleJobConfig, SingleJobRun};
use abg_workload::{paper_job, JobSetSpec, ReleaseSchedule};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::sync::Arc;

/// One cell of the Theorem-1 validation grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Theorem1Row {
    /// Constant job parallelism `A`.
    pub parallelism: f64,
    /// Configured convergence rate `r`.
    pub rate: f64,
    /// Closed-loop pole `1 − K/A` (should equal `r`).
    pub pole: f64,
    /// BIBO stability of the loop.
    pub bibo_stable: bool,
    /// Steady-state error of the simulated trajectory.
    pub steady_state_error: f64,
    /// Maximum overshoot of the trajectory.
    pub max_overshoot: f64,
    /// Worst observed per-quantum error contraction (should equal `r`).
    pub measured_rate: f64,
}

/// Validates Theorem 1 on a grid of parallelisms × rates by simulating
/// the ideal closed loop for `quanta` quanta.
pub fn theorem1_grid(parallelisms: &[f64], rates: &[f64], quanta: usize) -> Vec<Theorem1Row> {
    let mut rows = Vec::with_capacity(parallelisms.len() * rates.len());
    for &a in parallelisms {
        for &r in rates {
            let loop_ = ClosedLoop::with_convergence_rate(a, r);
            let traj = loop_.request_trajectory(1.0, quanta);
            let m = analyze_step_response(&traj, a, 0.001);
            rows.push(Theorem1Row {
                parallelism: a,
                rate: r,
                pole: loop_.pole(),
                bibo_stable: loop_.is_bibo_stable(),
                steady_state_error: m.steady_state_error,
                max_overshoot: m.max_overshoot,
                measured_rate: m.convergence_rate,
            });
        }
    }
    rows
}

/// A measured quantity against its theoretical bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundCheck {
    /// What was checked (e.g. `"lemma2-upper"`).
    pub quantity: &'static str,
    /// The measured value.
    pub measured: f64,
    /// The bound it must respect.
    pub bound: f64,
    /// `measured ≤ bound` (with a small floating-point slack).
    pub holds: bool,
}

impl BoundCheck {
    fn le(quantity: &'static str, measured: f64, bound: f64) -> Self {
        Self {
            quantity,
            measured,
            bound,
            holds: measured <= bound * (1.0 + 1e-9) + 1e-9,
        }
    }

    fn ge(quantity: &'static str, measured: f64, bound: f64) -> Self {
        Self {
            quantity,
            measured,
            bound,
            holds: measured >= bound * (1.0 - 1e-9) - 1e-9,
        }
    }
}

/// Measures the transition factor realised by a traced run: the maximal
/// adjacent ratio of measured `A(q)` over full quanta, seeded with
/// `A(0) = 1` (Section 5.2 applied to the actual schedule, which is
/// exactly the quantity the proofs of Lemma 2 / Theorems 3–5 consume).
fn traced_transition_factor(run: &SingleJobRun) -> f64 {
    let mut prev = 1.0f64;
    let mut c = 1.0f64;
    for rec in &run.trace {
        if !rec.stats.is_full() {
            continue;
        }
        if let Some(a) = rec.stats.average_parallelism() {
            c = c.max(if a > prev { a / prev } else { prev / a });
            prev = a;
        }
    }
    c
}

fn abg_traced_run(
    factor: u64,
    rate: f64,
    quantum_len: u64,
    pairs: u64,
    allocator: &mut Scripted,
    seed: u64,
) -> SingleJobRun {
    let mut rng = StdRng::seed_from_u64(seed);
    let job = paper_job(factor, quantum_len, pairs, &mut rng);
    run_single_job(
        &mut PipelinedExecutor::new(job),
        &mut AControl::new(rate),
        allocator,
        SingleJobConfig::new(quantum_len).with_trace(),
    )
}

/// Validates Lemma 2 on a generated job: every full quantum's request
/// must lie in `[(1−r)/(C_L−r)·A(q), C_L(1−r)/(1−C_L·r)·A(q)]` (the
/// upper envelope only when `r < 1/C_L`).
///
/// Returns the lower-envelope check and, when applicable, the upper one.
pub fn lemma2_check(
    factor: u64,
    rate: f64,
    quantum_len: u64,
    pairs: u64,
    processors: u32,
    seed: u64,
) -> Vec<BoundCheck> {
    let mut allocator = Scripted::ample(processors);
    let run = abg_traced_run(factor, rate, quantum_len, pairs, &mut allocator, seed);
    let c_l = traced_transition_factor(&run);
    let coeff = bounds::lemma2_coefficients(c_l, rate);

    let mut min_ratio = f64::INFINITY;
    let mut max_ratio: f64 = 0.0;
    for rec in &run.trace {
        if !rec.stats.is_full() {
            continue;
        }
        if let Some(a) = rec.stats.average_parallelism() {
            let ratio = rec.request / a;
            min_ratio = min_ratio.min(ratio);
            max_ratio = max_ratio.max(ratio);
        }
    }

    if !min_ratio.is_finite() {
        // The run had no full quanta (it completed within its first
        // quantum): there is nothing Lemma 2 constrains, and returning
        // vacuously-passing checks would mask the misconfiguration.
        return Vec::new();
    }
    let mut checks = vec![BoundCheck::ge("lemma2-lower", min_ratio, coeff.lower)];
    if let Some(upper) = coeff.upper {
        checks.push(BoundCheck::le("lemma2-upper", max_ratio, upper));
    }
    checks
}

/// Validates Theorem 3 under an adversarial availability script: the
/// running time must respect
/// `T ≤ 2·T1/P̃ + (C_L + 1 − 2r)/(1 − r)·T∞ + L` with `P̃` the
/// trimmed availability.
pub fn theorem3_check(
    factor: u64,
    rate: f64,
    quantum_len: u64,
    pairs: u64,
    processors: u32,
    seed: u64,
) -> BoundCheck {
    // Adversarial availability: alternating austere and generous quanta
    // plus random spikes, cycling forever.
    let mut rng = StdRng::seed_from_u64(task_seed(seed, factor, 3));
    let script: Vec<u32> = (0..64)
        .map(|i| {
            if i % 7 == 0 {
                processors
            } else {
                rng.random_range(1..=processors.max(2) / 2)
            }
        })
        .collect();
    let mut allocator = Scripted::cycling(processors, script);
    let run = abg_traced_run(factor, rate, quantum_len, pairs, &mut allocator, seed);
    let c_l = traced_transition_factor(&run);
    let trim = bounds::theorem3_trim_steps(run.span, c_l, rate, quantum_len);
    let availabilities: Vec<u32> = run
        .trace
        .iter()
        .map(|r| r.availability.expect("trace recorded availability"))
        .collect();
    let p_trimmed = abg_sim::trimmed_availability(&availabilities, quantum_len, trim.ceil() as u64)
        // With every quantum trimmed the bound is vacuous; availability
        // 1 (the fair minimum) keeps the check meaningful instead.
        .unwrap_or(1.0);
    let bound = bounds::theorem3_time_bound(run.work, run.span, c_l, rate, p_trimmed, quantum_len);
    BoundCheck::le("theorem3-time", run.running_time as f64, bound)
}

/// Validates Theorem 4 in the unconstrained environment: waste must
/// respect `W ≤ C_L(1−r)/(1−C_L·r)·T1 + P·L`. Returns `None` when the
/// measured factor violates `r < 1/C_L` (the bound does not apply).
pub fn theorem4_check(
    factor: u64,
    rate: f64,
    quantum_len: u64,
    pairs: u64,
    processors: u32,
    seed: u64,
) -> Option<BoundCheck> {
    let mut allocator = Scripted::ample(processors);
    let run = abg_traced_run(factor, rate, quantum_len, pairs, &mut allocator, seed);
    let c_l = traced_transition_factor(&run);
    bounds::theorem4_waste_bound(run.work, c_l, rate, processors, quantum_len)
        .map(|bound| BoundCheck::le("theorem4-waste", run.waste as f64, bound))
}

/// Validates Theorem 5 on one batched job set scheduled by ABG + DEQ:
/// makespan and mean response time against their competitive bounds.
/// Returns `None` when `r < 1/C_L` fails for the set's maximum factor.
pub fn theorem5_check(
    load: f64,
    max_factor: u64,
    rate: f64,
    quantum_len: u64,
    pairs: u64,
    processors: u32,
    seed: u64,
) -> Option<Vec<BoundCheck>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = JobSetSpec {
        processors,
        quantum_len,
        load,
        max_factor,
        pairs,
        max_jobs: processors as usize,
        release: ReleaseSchedule::Batched,
    };
    let set = spec.generate(&mut rng);
    let set_len = set.len();
    let releases = set.releases;
    let jobs: Vec<Arc<PhasedJob>> = set.jobs.into_iter().map(Arc::new).collect();

    let mut sim = MultiJobSim::new(DynamicEquiPartition::new(processors), quantum_len);
    let mut max_c_l = 1.0f64;
    for (job, &release) in jobs.iter().zip(&releases) {
        max_c_l = max_c_l.max(job.transition_factor(quantum_len));
        let calc: Box<dyn Controller + Send> = Box::new(AControl::new(rate));
        sim.add_job(
            Box::new(PipelinedExecutor::new(Arc::clone(job))),
            calc,
            release,
        );
    }
    let out = sim.run();

    let sizes: Vec<JobSize> = jobs
        .iter()
        .zip(&releases)
        .map(|(j, &r)| JobSize {
            work: j.work(),
            span: j.span(),
            release: r,
        })
        .collect();
    let m_star = makespan_lower_bound(&sizes, processors);
    let r_star = response_lower_bound_batched(&sizes, processors);

    let m_bound = bounds::theorem5_makespan_bound(m_star, max_c_l, rate, quantum_len, set_len)?;
    let r_bound = bounds::theorem5_response_bound(r_star, max_c_l, rate, quantum_len, set_len)?;
    Some(vec![
        BoundCheck::le("theorem5-makespan", out.makespan as f64, m_bound),
        BoundCheck::le("theorem5-response", out.mean_response_time(), r_bound),
    ])
}

/// Convenience: run an A-Greedy traced run in the same harness (used by
/// ablation benches comparing envelope violations).
pub fn agreedy_traced_run(
    factor: u64,
    responsiveness: f64,
    utilization: f64,
    quantum_len: u64,
    pairs: u64,
    processors: u32,
    seed: u64,
) -> SingleJobRun {
    let mut rng = StdRng::seed_from_u64(seed);
    let job = paper_job(factor, quantum_len, pairs, &mut rng);
    run_single_job(
        &mut PipelinedExecutor::new(job),
        &mut AGreedy::new(responsiveness, utilization),
        &mut Scripted::ample(processors),
        SingleJobConfig::new(quantum_len).with_trace(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_grid_satisfies_all_four_criteria() {
        let rows = theorem1_grid(&[2.0, 16.0, 128.0], &[0.0, 0.2, 0.5], 64);
        assert_eq!(rows.len(), 9);
        for row in rows {
            assert!(row.bibo_stable, "{row:?}");
            assert!((row.pole - row.rate).abs() < 1e-12, "{row:?}");
            assert!(row.steady_state_error < 1e-6, "{row:?}");
            assert!(row.max_overshoot < 1e-9, "{row:?}");
            assert!(row.measured_rate <= row.rate + 1e-9, "{row:?}");
        }
    }

    #[test]
    fn lemma2_holds_on_small_factor() {
        // factor 4 with r = 0.2 < 1/4: both envelopes must exist & hold.
        let checks = lemma2_check(4, 0.2, 32, 3, 128, 7);
        assert_eq!(checks.len(), 2, "upper envelope should apply");
        for c in checks {
            assert!(c.holds, "{c:?}");
        }
    }

    #[test]
    fn lemma2_lower_holds_on_large_factor() {
        // factor 20 with r = 0.2 ≥ 1/20: only the lower envelope applies.
        let checks = lemma2_check(20, 0.2, 32, 3, 128, 7);
        assert_eq!(checks.len(), 1);
        assert!(checks[0].holds, "{:?}", checks[0]);
    }

    #[test]
    fn theorem3_bound_holds_under_adversary() {
        for factor in [2u64, 8] {
            let c = theorem3_check(factor, 0.2, 32, 3, 64, 11);
            assert!(c.holds, "{c:?}");
        }
    }

    #[test]
    fn theorem4_bound_holds_when_applicable() {
        let c = theorem4_check(4, 0.2, 32, 3, 128, 13).expect("0.2 < 1/4");
        assert!(c.holds, "{c:?}");
    }

    #[test]
    fn theorem4_inapplicable_when_rate_too_fast() {
        assert!(theorem4_check(50, 0.2, 32, 3, 128, 13).is_none());
    }

    #[test]
    fn theorem5_bounds_hold_on_batched_set() {
        let checks =
            theorem5_check(1.0, 4, 0.2, 32, 2, 32, 17).expect("factor 4 with r = 0.2 applies");
        assert_eq!(checks.len(), 2);
        for c in checks {
            assert!(c.holds, "{c:?}");
        }
    }
}
