//! Empirical validation of the paper's analytical results: Theorem 1
//! (control metrics), Lemma 2 (request envelope), Theorem 3 (running
//! time under trim analysis), Theorem 4 (waste) and Theorem 5 (global
//! bounds).

use super::{pipelined, SharedSet};
use crate::bounds::{self, makespan_lower_bound, response_lower_bound_batched};
use abg_alloc::{DynamicEquiPartition, Scripted};
use abg_control::{analyze_step_response, AControl, ClosedLoop};
use abg_dag::JobStructure;
use abg_sched::PipelinedExecutor;
use abg_sim::{CompletedJob, MultiJobSim};
use abg_workload::{paper_job, splitmix_seed, JobSetSpec, ReleaseSchedule};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// Phase pairs of every job the single-job checks (Lemma 2, Theorems 3
/// and 4) generate.
const PAIRS: u64 = 3;
/// Machine size of the unconstrained checks (Lemma 2, Theorem 4).
const AMPLE_PROCESSORS: u32 = 128;
/// Machine size of Theorem 3's adversarial availability script.
const ADVERSARY_PROCESSORS: u32 = 64;
/// Theorem 5's job set: the largest transition factor, ABG's rate,
/// phase pairs per job and machine size.
const SET_MAX_FACTOR: u64 = 4;
const SET_RATE: f64 = 0.2;
const SET_PAIRS: u64 = 2;
const SET_PROCESSORS: u32 = 64;

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
fn traced_transition_factor(run: &CompletedJob) -> f64 {
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
    allocator: &mut Scripted,
    seed: u64,
) -> CompletedJob {
    let mut rng = StdRng::seed_from_u64(seed);
    let job = paper_job(factor, quantum_len, PAIRS, &mut rng);
    MultiJobSim::homogeneous(allocator, quantum_len)
        .with_traces()
        .run_job(PipelinedExecutor::new(job), AControl::new(rate))
}

/// Validates Lemma 2 on a generated job run alone on 128 processors:
/// every full quantum's request must lie in
/// `[(1−r)/(C_L−r)·A(q), C_L(1−r)/(1−C_L·r)·A(q)]` (the upper envelope
/// only when `r < 1/C_L`).
///
/// Returns the lower-envelope check and, when applicable, the upper one.
pub fn lemma2_check(factor: u64, rate: f64, quantum_len: u64, seed: u64) -> Vec<BoundCheck> {
    let mut allocator = Scripted::ample(AMPLE_PROCESSORS);
    let run = abg_traced_run(factor, rate, quantum_len, &mut allocator, seed);
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

/// Validates Theorem 3 under an adversarial availability script on 64
/// processors: the running time must respect
/// `T ≤ 2·T1/P̃ + (C_L + 1 − 2r)/(1 − r)·T∞ + L` with `P̃` the
/// trimmed availability.
pub fn theorem3_check(factor: u64, rate: f64, quantum_len: u64, seed: u64) -> BoundCheck {
    // Adversarial availability: alternating austere and generous quanta
    // plus random spikes, cycling forever.
    let mut rng = StdRng::seed_from_u64(splitmix_seed(seed, factor, 3));
    let script: Vec<u32> = (0..64)
        .map(|i| {
            if i % 7 == 0 {
                ADVERSARY_PROCESSORS
            } else {
                rng.random_range(1..=ADVERSARY_PROCESSORS / 2)
            }
        })
        .collect();
    let mut allocator = Scripted::cycling(ADVERSARY_PROCESSORS, script);
    let run = abg_traced_run(factor, rate, quantum_len, &mut allocator, seed);
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
    BoundCheck::le("theorem3-time", run.response_time() as f64, bound)
}

/// Validates Theorem 4 in the unconstrained environment (128
/// processors): waste must respect `W ≤ C_L(1−r)/(1−C_L·r)·T1 + P·L`.
/// Returns `None` when the measured factor violates `r < 1/C_L` (the
/// bound does not apply).
pub fn theorem4_check(factor: u64, rate: f64, quantum_len: u64, seed: u64) -> Option<BoundCheck> {
    let mut allocator = Scripted::ample(AMPLE_PROCESSORS);
    let run = abg_traced_run(factor, rate, quantum_len, &mut allocator, seed);
    let c_l = traced_transition_factor(&run);
    bounds::theorem4_waste_bound(run.work, c_l, rate, AMPLE_PROCESSORS, quantum_len)
        .map(|bound| BoundCheck::le("theorem4-waste", run.waste as f64, bound))
}

/// Validates Theorem 5 on one batched job set (transition factors up to
/// 4, two phase pairs per job) scheduled by ABG (`r = 0.2`) + DEQ on 64
/// processors: makespan and mean response time against their
/// competitive bounds. Returns `None` when `r < 1/C_L` fails for the
/// set's maximum factor.
pub fn theorem5_check(load: f64, quantum_len: u64, seed: u64) -> Option<Vec<BoundCheck>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = JobSetSpec {
        processors: SET_PROCESSORS,
        quantum_len,
        load,
        max_factor: SET_MAX_FACTOR,
        pairs: SET_PAIRS,
        max_jobs: SET_PROCESSORS as usize,
        release: ReleaseSchedule::Batched,
    };
    let set = SharedSet::new(spec.generate(&mut rng));
    let set_len = set.jobs.len();
    let max_c_l = set
        .jobs
        .iter()
        .map(|job| job.transition_factor(quantum_len))
        .fold(1.0f64, f64::max);
    let out = set.run(
        DynamicEquiPartition::new(SET_PROCESSORS),
        quantum_len,
        pipelined,
        || AControl::new(SET_RATE),
    );

    let sizes = set.sizes();
    let m_star = makespan_lower_bound(&sizes, SET_PROCESSORS);
    let r_star = response_lower_bound_batched(&sizes, SET_PROCESSORS);

    let m_bound = bounds::theorem5_makespan_bound(m_star, max_c_l, SET_RATE, quantum_len, set_len)?;
    let r_bound = bounds::theorem5_response_bound(r_star, max_c_l, SET_RATE, quantum_len, set_len)?;
    Some(vec![
        BoundCheck::le("theorem5-makespan", out.makespan as f64, m_bound),
        BoundCheck::le("theorem5-response", out.mean_response_time(), r_bound),
    ])
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
        let checks = lemma2_check(4, 0.2, 32, 7);
        assert_eq!(checks.len(), 2, "upper envelope should apply");
        for c in checks {
            assert!(c.holds, "{c:?}");
        }
    }

    #[test]
    fn lemma2_lower_holds_on_large_factor() {
        // factor 20 with r = 0.2 ≥ 1/20: only the lower envelope applies.
        let checks = lemma2_check(20, 0.2, 32, 7);
        assert_eq!(checks.len(), 1);
        assert!(checks[0].holds, "{:?}", checks[0]);
    }

    #[test]
    fn theorem3_bound_holds_under_adversary() {
        for factor in [2u64, 8] {
            let c = theorem3_check(factor, 0.2, 32, 11);
            assert!(c.holds, "{c:?}");
        }
    }

    #[test]
    fn theorem4_bound_holds_when_applicable() {
        let c = theorem4_check(4, 0.2, 32, 13).expect("0.2 < 1/4");
        assert!(c.holds, "{c:?}");
    }

    #[test]
    fn theorem4_inapplicable_when_rate_too_fast() {
        assert!(theorem4_check(50, 0.2, 32, 13).is_none());
    }

    #[test]
    fn theorem5_bounds_hold_on_batched_set() {
        let checks = theorem5_check(1.0, 32, 17).expect("factor 4 with r = 0.2 applies");
        assert_eq!(checks.len(), 2);
        for c in checks {
            assert!(c.holds, "{c:?}");
        }
    }
}
