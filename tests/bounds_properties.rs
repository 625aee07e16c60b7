//! Property tests tying the theoretical bounds to the simulator: lower
//! bounds must actually lower-bound simulated schedules, and the
//! competitive coefficients must behave as the formulas promise.

use abg::bounds::{
    self, lemma2_coefficients, makespan_lower_bound, response_lower_bound_batched, JobSize,
};
use abg_alloc::DynamicEquiPartition;
use abg_control::{AControl, AGreedy, ConstantRequest, Controller};
use abg_dag::{Phase, PhasedJob};
use abg_sched::PipelinedExecutor;
use abg_sim::MultiJobSim;
use proptest::prelude::*;

fn phases() -> impl Strategy<Value = Vec<Phase>> {
    prop::collection::vec((1u64..=10, 1u64..=8), 1..5)
        .prop_map(|v| v.into_iter().map(|(w, l)| Phase::new(w, l)).collect())
}

fn job_sets() -> impl Strategy<Value = Vec<(Vec<Phase>, u64)>> {
    prop::collection::vec((phases(), 0u64..60), 1..6)
}

/// Builds a traced multi-job simulation over the given set and returns
/// (outcome, sizes).
fn simulate(
    jobs: &[(Vec<Phase>, u64)],
    p: u32,
    l: u64,
    which: u8,
) -> (abg_sim::MultiJobOutcome, Vec<JobSize>) {
    let mut sim = MultiJobSim::new(DynamicEquiPartition::new(p), l).with_max_quanta(500_000);
    let mut sizes = Vec::new();
    for (ph, release) in jobs {
        let job = PhasedJob::new(ph.clone());
        sizes.push(JobSize {
            work: job.work(),
            span: job.span(),
            release: *release,
        });
        let calc: Box<dyn Controller + Send> = match which % 3 {
            0 => Box::new(AControl::new(0.2)),
            1 => Box::new(AGreedy::paper_default()),
            _ => Box::new(ConstantRequest::new(3.0)),
        };
        sim.add_job(Box::new(PipelinedExecutor::new(job)), calc, *release);
    }
    (sim.run(), sizes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No simulated schedule ever beats the makespan lower bound — for
    /// any job set, release pattern, machine size and scheduler.
    #[test]
    fn makespan_lower_bound_is_a_lower_bound(jobs in job_sets(), p in 1u32..24,
                                             l in 2u64..16, which in 0u8..3) {
        let (out, sizes) = simulate(&jobs, p, l, which);
        let m_star = makespan_lower_bound(&sizes, p);
        prop_assert!(out.makespan as f64 >= m_star - 1e-9,
            "simulated {} < bound {m_star}", out.makespan);
    }

    /// Batched sets: mean response time never beats `R*`.
    #[test]
    fn response_lower_bound_is_a_lower_bound(jobs in prop::collection::vec(phases(), 1..6),
                                             p in 1u32..24, l in 2u64..16, which in 0u8..3) {
        let batched: Vec<(Vec<Phase>, u64)> = jobs.into_iter().map(|ph| (ph, 0)).collect();
        let (out, sizes) = simulate(&batched, p, l, which);
        let r_star = response_lower_bound_batched(&sizes, p);
        prop_assert!(out.mean_response_time() >= r_star - 1e-9,
            "simulated {} < bound {r_star}", out.mean_response_time());
    }

    /// Lemma-2 coefficients bracket 1 whenever the upper bound applies,
    /// and tighten monotonically as the factor approaches 1.
    #[test]
    fn lemma2_coefficients_bracket_one(c_l in 1.0f64..20.0, r in 0.0f64..0.99) {
        let coeff = lemma2_coefficients(c_l, r);
        prop_assert!(coeff.lower > 0.0);
        prop_assert!(coeff.lower <= 1.0 + 1e-9);
        if let Some(upper) = coeff.upper {
            prop_assert!(upper >= 1.0 - 1e-9, "upper {upper} below 1");
            prop_assert!(upper >= coeff.lower);
        } else {
            prop_assert!(c_l * r >= 1.0, "upper missing although r < 1/C_L");
        }
    }

    /// The Theorem-3 bound grows monotonically in the transition factor
    /// and shrinks in the trimmed availability — sanity on the formula's
    /// partial derivatives.
    #[test]
    fn theorem3_bound_monotonicity(work in 1u64..100_000, span in 1u64..5_000,
                                   c in 1.0f64..50.0, r in 0.0f64..0.9,
                                   avail in 1.0f64..256.0, l in 1u64..2_000) {
        let base = bounds::theorem3_time_bound(work, span, c, r, avail, l);
        let more_factor = bounds::theorem3_time_bound(work, span, c + 1.0, r, avail, l);
        let more_avail = bounds::theorem3_time_bound(work, span, c, r, avail + 1.0, l);
        prop_assert!(more_factor >= base);
        prop_assert!(more_avail <= base);
    }

    /// Theorem-4/5 bounds exist exactly when `r < 1/C_L`.
    #[test]
    fn bound_applicability_matches_precondition(c in 1.0f64..20.0, r in 0.0f64..0.99) {
        let applies = c * r < 1.0;
        prop_assert_eq!(bounds::theorem4_waste_bound(100, c, r, 8, 10).is_some(), applies);
        prop_assert_eq!(bounds::theorem5_makespan_bound(10.0, c, r, 10, 4).is_some(), applies);
        prop_assert_eq!(bounds::theorem5_response_bound(10.0, c, r, 10, 4).is_some(), applies);
    }

    /// Trimming can only lower (or keep) the measured availability, and
    /// more trimming never raises it.
    #[test]
    fn trimming_is_monotone(avail in prop::collection::vec(0u32..200, 1..40),
                            l in 1u64..50) {
        let mut prev = f64::INFINITY;
        for trim in 0..avail.len() as u64 + 2 {
            match abg_sim::trimmed_availability(&avail, l, trim * l) {
                Some(v) => {
                    prop_assert!(v <= prev + 1e-9, "trim {trim}: {v} > {prev}");
                    prev = v;
                }
                None => break, // everything trimmed; stays vacuous after
            }
        }
    }
}
