//! Theoretical bounds of the paper (Lemma 2, Theorems 3–5) and the
//! lower bounds the two-level scheduler is competitive against.
//!
//! All bound functions take the convergence rate `r` and the transition
//! factor `C_L` explicitly. The waste, makespan and response-time bounds
//! only hold when `r < 1/C_L` (the remark after Lemma 2); functions
//! depending on that return `None` when the precondition fails.

/// Coefficients of Lemma 2: for every full quantum `q`,
/// `lower·A(q) ≤ d(q) ≤ upper·A(q)`, where the upper bound exists only
/// when `r < 1/C_L`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lemma2Coefficients {
    /// `(1 − r) / (C_L − r)`.
    pub lower: f64,
    /// `C_L(1 − r) / (1 − C_L·r)` when `r < 1/C_L`.
    pub upper: Option<f64>,
}

/// Computes the Lemma-2 request/parallelism envelope.
///
/// # Panics
///
/// Panics if `c_l < 1` or `r` is outside `[0, 1)`.
pub fn lemma2_coefficients(c_l: f64, r: f64) -> Lemma2Coefficients {
    validate_params(c_l, r);
    let lower = (1.0 - r) / (c_l - r);
    let upper = (c_l * r < 1.0).then(|| c_l * (1.0 - r) / (1.0 - c_l * r));
    Lemma2Coefficients { lower, upper }
}

/// The trim amount of Theorem 3:
/// `R = (C_L + 1 − 2r)/(1 − r) · T∞ + L` time steps.
pub fn theorem3_trim_steps(span: u64, c_l: f64, r: f64, quantum_len: u64) -> f64 {
    validate_params(c_l, r);
    (c_l + 1.0 - 2.0 * r) / (1.0 - r) * span as f64 + quantum_len as f64
}

/// Theorem 3 running-time bound:
/// `T ≤ 2·T1/P̃ + (C_L + 1 − 2r)/(1 − r)·T∞ + L`,
/// with `P̃` the [`theorem3_trim_steps`]-trimmed availability.
///
/// # Panics
///
/// Panics if `trimmed_availability <= 0` or on invalid `c_l`/`r`.
pub fn theorem3_time_bound(
    work: u64,
    span: u64,
    c_l: f64,
    r: f64,
    trimmed_availability: f64,
    quantum_len: u64,
) -> f64 {
    validate_params(c_l, r);
    assert!(
        trimmed_availability > 0.0,
        "trimmed availability must be positive"
    );
    2.0 * work as f64 / trimmed_availability
        + (c_l + 1.0 - 2.0 * r) / (1.0 - r) * span as f64
        + quantum_len as f64
}

/// Theorem 4 waste bound:
/// `W ≤ C_L(1 − r)/(1 − C_L·r) · T1 + P·L`.
/// Requires `r < 1/C_L`; returns `None` otherwise.
pub fn theorem4_waste_bound(
    work: u64,
    c_l: f64,
    r: f64,
    processors: u32,
    quantum_len: u64,
) -> Option<f64> {
    validate_params(c_l, r);
    (c_l * r < 1.0).then(|| {
        c_l * (1.0 - r) / (1.0 - c_l * r) * work as f64 + processors as f64 * quantum_len as f64
    })
}

/// Theorem 5 makespan bound for `|J| ≤ P` and arbitrary release times:
/// `M ≤ ((C_L + 1 − 2·C_L·r)/(1 − C_L·r) + (C_L + 1 − 2r)/(1 − r))·M* + L(|J| + 2)`.
/// Requires `r < 1/C_L`; returns `None` otherwise.
pub fn theorem5_makespan_bound(
    makespan_lower_bound: f64,
    c_l: f64,
    r: f64,
    quantum_len: u64,
    num_jobs: usize,
) -> Option<f64> {
    validate_params(c_l, r);
    (c_l * r < 1.0).then(|| {
        let coeff =
            (c_l + 1.0 - 2.0 * c_l * r) / (1.0 - c_l * r) + (c_l + 1.0 - 2.0 * r) / (1.0 - r);
        coeff * makespan_lower_bound + quantum_len as f64 * (num_jobs as f64 + 2.0)
    })
}

/// Theorem 5 mean-response-time bound for batched sets:
/// `R ≤ ((2·C_L + 2 − 4·C_L·r)/(1 − C_L·r) + (C_L + 1 − 2r)/(1 − r))·R* + L(|J| + 2)`.
/// Requires `r < 1/C_L`; returns `None` otherwise.
pub fn theorem5_response_bound(
    response_lower_bound: f64,
    c_l: f64,
    r: f64,
    quantum_len: u64,
    num_jobs: usize,
) -> Option<f64> {
    validate_params(c_l, r);
    (c_l * r < 1.0).then(|| {
        let coeff =
            (2.0 * c_l + 2.0 - 4.0 * c_l * r) / (1.0 - c_l * r) + (c_l + 1.0 - 2.0 * r) / (1.0 - r);
        coeff * response_lower_bound + quantum_len as f64 * (num_jobs as f64 + 2.0)
    })
}

/// Intrinsic size of one job as used by the lower bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSize {
    /// Work `T1`.
    pub work: u64,
    /// Critical-path length `T∞`.
    pub span: u64,
    /// Release step.
    pub release: u64,
}

/// The classical makespan lower bound `M*` on `P` processors:
///
/// ```text
/// M* = max( Σ_j T1_j / P ,  max_j ( r_j + max(T∞_j, T1_j / P) ) )
/// ```
///
/// (total-work bound and per-job release+span bound). The paper's
/// Figure 6(a) normalizes measured makespans against this quantity.
///
/// # Panics
///
/// Panics if `jobs` is empty or `processors == 0`.
pub fn makespan_lower_bound(jobs: &[JobSize], processors: u32) -> f64 {
    assert!(!jobs.is_empty(), "lower bound of an empty set is undefined");
    assert!(processors > 0, "machine must have processors");
    let p = processors as f64;
    let total_work: f64 = jobs.iter().map(|j| j.work as f64).sum();
    let per_job = jobs
        .iter()
        .map(|j| j.release as f64 + (j.span as f64).max(j.work as f64 / p))
        .fold(0.0f64, f64::max);
    (total_work / p).max(per_job)
}

/// The batched mean-response-time lower bound `R*` on `P` processors:
///
/// ```text
/// R* = max( (1/n) Σ_j T∞_j ,  squashed-area bound )
/// ```
///
/// where the squashed-area bound schedules the jobs' work in
/// shortest-first order on all `P` processors with no parallelism
/// constraints: sorting works ascending `T1_(1) ≤ … ≤ T1_(n)`,
/// `SA = (1/(n·P)) Σ_k (n − k + 1)·T1_(k)`.
///
/// # Panics
///
/// Panics if `jobs` is empty, `processors == 0`, or any release is
/// non-zero (the bound is for batched sets).
pub fn response_lower_bound_batched(jobs: &[JobSize], processors: u32) -> f64 {
    assert!(!jobs.is_empty(), "lower bound of an empty set is undefined");
    assert!(processors > 0, "machine must have processors");
    assert!(
        jobs.iter().all(|j| j.release == 0),
        "the batched response-time bound requires all releases at 0"
    );
    let n = jobs.len() as f64;
    let p = processors as f64;
    let mean_span: f64 = jobs.iter().map(|j| j.span as f64).sum::<f64>() / n;
    let mut works: Vec<u64> = jobs.iter().map(|j| j.work).collect();
    works.sort_unstable();
    let squashed: f64 = works
        .iter()
        .enumerate()
        .map(|(k, &w)| (jobs.len() - k) as f64 * w as f64)
        .sum::<f64>()
        / (n * p);
    mean_span.max(squashed)
}

fn validate_params(c_l: f64, r: f64) {
    assert!(
        c_l >= 1.0,
        "transition factor must be at least 1, got {c_l}"
    );
    assert!(
        (0.0..1.0).contains(&r),
        "convergence rate must lie in [0, 1), got {r}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma2_envelope_brackets_one() {
        let c = lemma2_coefficients(4.0, 0.2);
        assert!(c.lower <= 1.0);
        let upper = c.upper.expect("0.2 < 1/4 fails? 0.2 < 0.25 holds");
        assert!(upper >= 1.0);
        assert!((c.lower - 0.8 / 3.8).abs() < 1e-12);
        assert!((upper - 4.0 * 0.8 / (1.0 - 0.8)).abs() < 1e-9);
    }

    #[test]
    fn lemma2_upper_vanishes_when_rate_too_fast() {
        let c = lemma2_coefficients(10.0, 0.2); // 0.2 ≥ 1/10
        assert!(c.upper.is_none());
        assert!(c.lower > 0.0);
    }

    #[test]
    fn theorem3_bound_formula() {
        // c_l = 3, r = 0.2: coefficient (3 + 1 − 0.4)/0.8 = 4.5.
        let b = theorem3_time_bound(1000, 100, 3.0, 0.2, 10.0, 50);
        assert!((b - (200.0 + 450.0 + 50.0)).abs() < 1e-9);
        let trim = theorem3_trim_steps(100, 3.0, 0.2, 50);
        assert!((trim - 500.0).abs() < 1e-9);
    }

    #[test]
    fn theorem4_requires_slow_rate() {
        assert!(theorem4_waste_bound(100, 10.0, 0.2, 8, 10).is_none());
        let b = theorem4_waste_bound(100, 2.0, 0.2, 8, 10).expect("0.2 < 0.5");
        // 2·0.8/0.6·100 + 80 = 266.67 + 80.
        assert!((b - (2.0 * 0.8 / 0.6 * 100.0 + 80.0)).abs() < 1e-9);
    }

    #[test]
    fn theorem5_bounds_scale_with_lower_bounds() {
        let m = theorem5_makespan_bound(100.0, 2.0, 0.1, 10, 4).unwrap();
        let m2 = theorem5_makespan_bound(200.0, 2.0, 0.1, 10, 4).unwrap();
        assert!(m2 > m);
        let r = theorem5_response_bound(100.0, 2.0, 0.1, 10, 4).unwrap();
        assert!(r > m, "the response coefficient dominates the makespan one");
    }

    #[test]
    fn makespan_lower_bound_picks_binding_constraint() {
        let p = 4;
        // Work-bound case: lots of total work.
        let jobs = [
            JobSize {
                work: 100,
                span: 5,
                release: 0,
            },
            JobSize {
                work: 100,
                span: 5,
                release: 0,
            },
        ];
        assert_eq!(makespan_lower_bound(&jobs, p), 50.0);
        // Span-bound case: one long chain released late.
        let jobs = [
            JobSize {
                work: 10,
                span: 10,
                release: 90,
            },
            JobSize {
                work: 10,
                span: 5,
                release: 0,
            },
        ];
        assert_eq!(makespan_lower_bound(&jobs, p), 100.0);
    }

    #[test]
    fn makespan_lower_bound_uses_work_over_p_per_job() {
        // A single huge job: even alone it needs T1/P steps.
        let jobs = [JobSize {
            work: 1000,
            span: 1,
            release: 0,
        }];
        assert_eq!(makespan_lower_bound(&jobs, 10), 100.0);
    }

    #[test]
    fn response_lower_bound_squashed_area() {
        let p = 2;
        let jobs = [
            JobSize {
                work: 2,
                span: 1,
                release: 0,
            },
            JobSize {
                work: 4,
                span: 1,
                release: 0,
            },
        ];
        // SA = (2·2 + 1·4) / (2·2) = 2; mean span = 1.
        assert_eq!(response_lower_bound_batched(&jobs, p), 2.0);
    }

    #[test]
    fn response_lower_bound_mean_span_dominates_for_serial_jobs() {
        let jobs = [
            JobSize {
                work: 10,
                span: 10,
                release: 0,
            },
            JobSize {
                work: 10,
                span: 10,
                release: 0,
            },
        ];
        // On 100 processors SA is tiny; mean span 10 binds.
        assert_eq!(response_lower_bound_batched(&jobs, 100), 10.0);
    }

    #[test]
    #[should_panic(expected = "batched")]
    fn response_bound_rejects_releases() {
        let jobs = [JobSize {
            work: 1,
            span: 1,
            release: 5,
        }];
        let _ = response_lower_bound_batched(&jobs, 2);
    }

    #[test]
    #[should_panic(expected = "transition factor")]
    fn invalid_factor_rejected() {
        let _ = lemma2_coefficients(0.5, 0.2);
    }
}
