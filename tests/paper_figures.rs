//! Integration tests asserting the *shape* of every paper figure at
//! reduced size: who wins, by roughly what factor, and where behaviour
//! crosses over. These are the executable form of EXPERIMENTS.md.

use abg::experiments::{
    multiprogrammed_sweep, single_job_sweep, transient_comparison, MultiprogrammedConfig,
    SingleJobSweepConfig,
};
use abg_dag::generate::figure2_job;
use abg_sched::{BGreedyExecutor, JobExecutor};

/// Figure 1: A-Greedy's requests on a constant-parallelism job keep
/// oscillating by a factor of ρ forever.
#[test]
fn figure1_agreedy_request_instability() {
    let res = transient_comparison(10);
    let tail: Vec<f64> = res.agreedy[4..].iter().map(|p| p.request).collect();
    let min = tail.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = tail.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        max / min >= 2.0 - 1e-9,
        "no sustained oscillation: {tail:?}"
    );
    // And the oscillation brackets the true parallelism.
    assert!(
        min < 10.0 && max > 10.0,
        "oscillation should straddle A: {min}..{max}"
    );
}

/// Figure 2: the worked example's exact quantum statistics.
#[test]
fn figure2_fractional_statistics() {
    let dag = figure2_job();
    let mut ex = BGreedyExecutor::new(&dag);
    ex.run_quantum(1, 2);
    let q = ex.run_quantum(4, 3);
    assert_eq!(q.work, 12);
    assert!((q.span - 2.4).abs() < 1e-12);
    assert_eq!(q.average_parallelism(), Some(5.0));
}

/// Figure 4: ABG converges geometrically with rate r, no overshoot,
/// vanishing steady-state error — while A-Greedy overshoots and never
/// settles.
#[test]
fn figure4_transient_comparison() {
    let res = transient_comparison(10);
    let a = res.parallelism as f64;

    // ABG: monotone, bounded by A, geometric error decay at rate r.
    let mut prev_err = a - 1.0;
    for p in &res.abg {
        assert!(p.request <= a + 1e-9, "overshoot at q={}", p.quantum);
        let err = a - p.request;
        assert!(err <= prev_err + 1e-9, "error must shrink monotonically");
        prev_err = err;
    }
    let final_err = a - res.abg.last().unwrap().request;
    assert!(final_err < 0.01 * a, "steady-state error {final_err}");

    // The exact trajectory of Equation (3): d(q+1) = r·d(q) + (1-r)·A,
    // at the paper's r = 0.2.
    let r = 0.2;
    let mut d = 1.0;
    for p in &res.abg {
        assert!(
            (p.request - d).abs() < 1e-9,
            "q={}: {} vs {}",
            p.quantum,
            p.request,
            d
        );
        d = r * d + (1.0 - r) * a;
    }

    // A-Greedy: overshoots by up to ρ and keeps oscillating.
    let max = res.agreedy.iter().map(|p| p.request).fold(0.0f64, f64::max);
    assert!(max >= 1.5 * a, "expected an overshoot ≥ 1.5A, saw {max}");
}

/// Figure 5: across the factor sweep ABG runs faster and wastes less
/// than A-Greedy; at tiny factors the two are comparable; ABG's curves
/// barely move with the factor.
#[test]
fn figure5_single_job_sweep_shape() {
    let cfg = SingleJobSweepConfig {
        factors: vec![2, 5, 10, 20, 40, 80],
        jobs_per_factor: 8,
        quantum_len: 100,
        pairs: 3,
        ..SingleJobSweepConfig::paper()
    };
    let pts = single_job_sweep(&cfg);

    // Headline: mean ratios favour ABG (paper: ≈1.2× time, ≈2× waste).
    let n = pts.len() as f64;
    let time_ratio: f64 = pts.iter().map(|p| p.time_ratio).sum::<f64>() / n;
    let waste_ratio: f64 = pts.iter().map(|p| p.waste_ratio).sum::<f64>() / n;
    assert!(time_ratio > 1.03, "time ratio {time_ratio}");
    assert!(waste_ratio > 1.5, "waste ratio {waste_ratio}");

    // Small factors: comparable performance (ratio near 1).
    assert!(pts[0].time_ratio < 1.15, "factor 2 should be nearly even");

    // ABG's normalized time moves little across a 40× factor range.
    let abg_spread = pts.iter().map(|p| p.abg_time_norm).fold(0.0f64, f64::max)
        - pts
            .iter()
            .map(|p| p.abg_time_norm)
            .fold(f64::INFINITY, f64::min);
    assert!(
        abg_spread < 0.5,
        "ABG should be factor-insensitive, spread {abg_spread}"
    );

    // Sanity: measured factors track the targets.
    for p in &pts {
        assert!(p.measured_factor >= p.factor as f64 * 0.4);
        assert!(p.measured_factor <= p.factor as f64 + 1e-9);
    }
}

/// Figure 6: under light load ABG wins by ~10%; under heavy load the
/// two schedulers converge; normalized makespan rises then falls.
#[test]
fn figure6_multiprogrammed_shape() {
    let cfg = MultiprogrammedConfig {
        loads: vec![0.25, 0.5, 1.0, 2.0, 4.0, 6.0],
        sets_per_load: 6,
        processors: 128,
        quantum_len: 100,
        pairs: 3,
        max_factor: 100,
        ..MultiprogrammedConfig::paper()
    };
    let pts = multiprogrammed_sweep(&cfg);

    // Light load: ABG ahead on both global metrics.
    let light = &pts[0];
    assert!(
        light.makespan_ratio > 1.02,
        "light-load makespan ratio {}",
        light.makespan_ratio
    );
    assert!(
        light.response_ratio > 1.02,
        "light-load response ratio {}",
        light.response_ratio
    );

    // Heavy load: the advantage diminishes (requests are deprived).
    let heavy = pts.last().unwrap();
    assert!(
        heavy.makespan_ratio < light.makespan_ratio,
        "advantage should shrink with load: {} vs {}",
        heavy.makespan_ratio,
        light.makespan_ratio
    );
    assert!(
        heavy.makespan_ratio < 1.05,
        "heavy-load ratio {}",
        heavy.makespan_ratio
    );

    // All normalized metrics are ≥ 1 (lower bounds are real bounds).
    for p in &pts {
        assert!(p.abg_makespan_norm >= 1.0 - 1e-9);
        assert!(p.agreedy_makespan_norm >= 1.0 - 1e-9);
        assert!(p.abg_response_norm >= 1.0 - 1e-9);
        assert!(p.agreedy_response_norm >= 1.0 - 1e-9);
    }

    // The rise-then-fall of M/M* (two lower bounds crossing over).
    let first = pts.first().unwrap().abg_makespan_norm;
    let peak = pts
        .iter()
        .map(|p| p.abg_makespan_norm)
        .fold(0.0f64, f64::max);
    let last = pts.last().unwrap().abg_makespan_norm;
    assert!(
        peak >= first && peak >= last,
        "expected a peak: {first} .. {peak} .. {last}"
    );
}
