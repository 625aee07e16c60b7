//! Integration tests validating the paper's analytical guarantees
//! (Lemma 2, Theorems 1, 3, 4, 5) on simulated schedules across a
//! parameter grid.

use abg::experiments::{
    lemma2_check, theorem1_grid, theorem3_check, theorem4_check, theorem5_check,
};

#[test]
fn theorem1_criteria_across_grid() {
    let rows = theorem1_grid(
        &[1.5, 4.0, 10.0, 32.0, 128.0, 1024.0],
        &[0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95],
        128,
    );
    assert_eq!(rows.len(), 42);
    for r in rows {
        assert!(r.bibo_stable, "unstable at {r:?}");
        assert!((r.pole - r.rate).abs() < 1e-12);
        // Zero steady-state error is approached geometrically: after q
        // quanta the residual is exactly r^(q-1)·(A − 1).
        let residual = r.rate.powi(127) * (r.parallelism - 1.0);
        assert!(
            r.steady_state_error <= residual + 1e-9,
            "sse {} exceeds geometric residual {residual} at {r:?}",
            r.steady_state_error
        );
        assert!(r.max_overshoot < 1e-9, "overshoot {r:?}");
        assert!(r.measured_rate <= r.rate + 1e-6, "rate {r:?}");
    }
}

#[test]
fn lemma2_envelope_across_factors_and_rates() {
    for seed in [1u64, 7, 23] {
        for factor in [2u64, 3, 4, 6, 8, 12, 16] {
            for rate in [0.0, 0.05, 0.2, 0.4] {
                for check in lemma2_check(factor, rate, 100, seed) {
                    assert!(
                        check.holds,
                        "factor {factor}, rate {rate}, seed {seed}: {check:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn theorem3_time_bound_under_adversaries() {
    for seed in [3u64, 11, 42] {
        for factor in [2u64, 5, 10, 20, 50] {
            for rate in [0.0, 0.2, 0.5, 0.8] {
                let check = theorem3_check(factor, rate, 100, seed);
                assert!(
                    check.holds,
                    "factor {factor}, rate {rate}, seed {seed}: {check:?}"
                );
            }
        }
    }
}

#[test]
fn theorem4_waste_bound_when_applicable() {
    let mut applicable = 0;
    for seed in [5u64, 13] {
        for factor in [2u64, 3, 4, 8, 16] {
            for rate in [0.0, 0.05, 0.2] {
                if let Some(check) = theorem4_check(factor, rate, 100, seed) {
                    applicable += 1;
                    assert!(
                        check.holds,
                        "factor {factor}, rate {rate}, seed {seed}: {check:?}"
                    );
                }
            }
        }
    }
    assert!(
        applicable >= 10,
        "too few applicable configurations ({applicable})"
    );
}

#[test]
fn theorem5_global_bounds_hold() {
    let mut applicable = 0;
    for seed in [17u64, 29] {
        for load in [0.5, 1.0, 2.0, 4.0] {
            if let Some(checks) = theorem5_check(load, 50, seed) {
                applicable += 1;
                for c in checks {
                    assert!(c.holds, "load {load}, seed {seed}: {c:?}");
                }
            }
        }
    }
    assert!(
        applicable >= 6,
        "too few applicable job sets ({applicable})"
    );
}

#[test]
fn theorem4_correctly_reports_inapplicable() {
    // Factor 50 with r = 0.2 breaks r < 1/C_L by an order of magnitude.
    assert!(theorem4_check(50, 0.2, 100, 1).is_none());
}
