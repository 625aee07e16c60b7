//! Golden bit-exactness of the sweep outputs across refactors.
//!
//! The fingerprints pinned here were recorded from the pre-CSR,
//! pre-sharding harness (`cargo run --release --example
//! sweep_fingerprint`, which prints the Fig. 5 and Fig. 6 pair); every
//! field of every output row is folded through `f64::to_bits`, so a
//! match means the memory-layout and parallelism overhaul left the
//! simulation behavior identical down to the last ulp. If an *intentional* behavior change moves these values,
//! re-record them with the example and say so in the commit message.

mod common;

use abg::experiments::{
    adaptive_quantum_comparison, agreedy_ablation, allocator_policy_comparison,
    governed_rate_quality, hierarchical_skew_sweep, load_fingerprint, multiprogrammed_sweep,
    overhead_sweep, quantum_ablation, rate_ablation, robustness_comparison, scheduler_ablation,
    single_job_sweep, stealing_comparison, sweep_fingerprint, theorem3_check, transient_comparison,
    BoundCheck, Fingerprint, HierarchicalConfig, MultiprogrammedConfig, QualityPoint,
    SingleJobSweepConfig,
};
use common::at_each_worker_count;

/// `single_job_sweep(SingleJobSweepConfig::paper())`.
const FIG5_PAPER: u64 = 0xbd4b009a3e6290c5;
/// `multiprogrammed_sweep(MultiprogrammedConfig::paper())`.
const FIG6_PAPER: u64 = 0xa904d28e2f0eaa19;
/// `rate_ablation(None)`: r ∈ {0, 0.2, 0.4, 0.6, 0.8}.
const RATE_ABLATION: u64 = 0xc7337a29e82745e2;
/// `governed_rate_quality(None)`: target r = 0.2.
const GOVERNED_RATE: u64 = 0xa23117890f675b02;
/// `quantum_ablation(None)`: L ∈ {50, 100, 200, 400, 800}.
const QUANTUM_ABLATION: u64 = 0xd9892114bb3eba60;
/// `agreedy_ablation(None)`: ρ ∈ {1.5, 2, 4} × δ ∈ {0.5, 0.8, 0.95}.
const AGREEDY_ABLATION: u64 = 0x3058afaf418e6a8b;
/// `scheduler_ablation(None)`.
const SCHEDULER_ABLATION: u64 = 0x1b0c8e17ee6eec49;
/// `stealing_comparison(None)`.
const STEALING: u64 = 0x84669800547ee001;
/// `adaptive_quantum_comparison(None)`.
const ADAPTIVE_QUANTUM: u64 = 0x5efdffb983d42395;
/// `robustness_comparison(None)`.
const ROBUSTNESS: u64 = 0x33d1d6829b36ea29;
/// `overhead_sweep(None)`.
const OVERHEAD: u64 = 0xf62c7baa47376c6a;
/// `allocator_policy_comparison(None)`.
const ALLOCATOR_POLICIES: u64 = 0x8ff46f0ade31fef6;
/// `transient_comparison(8)`, Fig. 4's run.
const TRANSIENT: u64 = 0x31e6a03700a65c54;
/// `theorem3_check` over the `thm3` grid (factors 2..50, r ∈ {0, 0.2, 0.5}, seed 2008).
const THEOREM3: u64 = 0xdc90230b7f871eef;
/// `hierarchical_skew_sweep(HierarchicalConfig::smoke())`.
const HIERARCHICAL_SMOKE: u64 = 0x4c28c81f103c156b;

#[test]
fn paper_single_job_sweep_matches_golden() {
    let points = single_job_sweep(&SingleJobSweepConfig::paper());
    assert_eq!(sweep_fingerprint(&points), FIG5_PAPER);
}

#[test]
fn paper_multiprogrammed_sweep_matches_golden() {
    let points = multiprogrammed_sweep(&MultiprogrammedConfig::paper());
    assert_eq!(load_fingerprint(&points), FIG6_PAPER);
}

#[test]
fn sweeps_are_thread_count_invariant() {
    // Paper Fig. 5 holds its golden at each count; a small local Fig. 6
    // config agrees with itself at each count in milliseconds.
    let fig5 = || sweep_fingerprint(&single_job_sweep(&SingleJobSweepConfig::paper()));
    assert_eq!(at_each_worker_count(fig5), FIG5_PAPER);
    let fig6_cfg = MultiprogrammedConfig {
        loads: vec![0.5, 4.0],
        sets_per_load: 4,
        quantum_len: 200,
        ..MultiprogrammedConfig::paper()
    };
    at_each_worker_count(|| load_fingerprint(&multiprogrammed_sweep(&fig6_cfg)));
}

// Goldens of the remaining closed outputs, each the preset `abg-cli all`
// prints. Every number of every row is folded through `f64::to_bits`
// (labels through their length), so a refactor of the sweep harness
// that reorders a sum or redraws a job shows up.

fn quality(f: &mut Fingerprint, q: QualityPoint) {
    f.f64(q.time_norm).f64(q.waste_norm);
}

fn check(f: &mut Fingerprint, c: &BoundCheck) {
    f.word(c.quantity.len() as u64)
        .f64(c.measured)
        .f64(c.bound)
        .word(c.holds as u64);
}

#[test]
fn rate_ablation_matches_golden() {
    let mut f = Fingerprint::new();
    for r in rate_ablation(None) {
        f.f64(r.rate);
        quality(&mut f, r.quality);
    }
    assert_eq!(f.finish(), RATE_ABLATION);
}

#[test]
fn governed_rate_quality_matches_golden() {
    let mut f = Fingerprint::new();
    quality(&mut f, governed_rate_quality(None));
    assert_eq!(f.finish(), GOVERNED_RATE);
}

#[test]
fn quantum_ablation_matches_golden() {
    let mut f = Fingerprint::new();
    for r in quantum_ablation(None) {
        f.word(r.quantum_len);
        quality(&mut f, r.abg);
        quality(&mut f, r.agreedy);
    }
    assert_eq!(f.finish(), QUANTUM_ABLATION);
}

#[test]
fn agreedy_ablation_matches_golden() {
    let mut f = Fingerprint::new();
    for r in agreedy_ablation(None) {
        f.f64(r.responsiveness).f64(r.utilization);
        quality(&mut f, r.quality);
    }
    assert_eq!(f.finish(), AGREEDY_ABLATION);
}

#[test]
fn scheduler_ablation_matches_golden() {
    let mut f = Fingerprint::new();
    for r in scheduler_ablation(None) {
        f.word(r.scheduler.len() as u64);
        quality(&mut f, r.quality);
    }
    assert_eq!(f.finish(), SCHEDULER_ABLATION);
}

#[test]
fn stealing_comparison_matches_golden() {
    let mut f = Fingerprint::new();
    for r in stealing_comparison(None) {
        f.word(r.scheduler.len() as u64)
            .f64(r.time_norm)
            .f64(r.waste_norm);
    }
    assert_eq!(f.finish(), STEALING);
}

#[test]
fn adaptive_quantum_comparison_matches_golden() {
    let mut f = Fingerprint::new();
    for r in adaptive_quantum_comparison(None) {
        f.word(r.policy.len() as u64)
            .f64(r.time_norm)
            .f64(r.waste_norm)
            .f64(r.mean_quanta)
            .f64(r.mean_reallocations);
    }
    assert_eq!(f.finish(), ADAPTIVE_QUANTUM);
}

#[test]
fn robustness_comparison_matches_golden() {
    let mut f = Fingerprint::new();
    for r in robustness_comparison(None) {
        f.word(r.class.len() as u64)
            .f64(r.transition_factor)
            .f64(r.coefficient_of_variation)
            .f64(r.changes_per_kilolevel)
            .f64(r.abg_time_norm)
            .f64(r.agreedy_time_norm)
            .f64(r.abg_waste_norm)
            .f64(r.agreedy_waste_norm);
    }
    assert_eq!(f.finish(), ROBUSTNESS);
}

#[test]
fn overhead_sweep_matches_golden() {
    let mut f = Fingerprint::new();
    for r in overhead_sweep(None) {
        f.f64(r.overhead_fraction)
            .f64(r.abg_time_norm)
            .f64(r.agreedy_time_norm)
            .f64(r.abg_waste_norm)
            .f64(r.agreedy_waste_norm)
            .f64(r.abg_reallocations)
            .f64(r.agreedy_reallocations);
    }
    assert_eq!(f.finish(), OVERHEAD);
}

#[test]
fn allocator_policy_comparison_matches_golden() {
    let mut f = Fingerprint::new();
    for r in allocator_policy_comparison(None) {
        f.word(r.policy.len() as u64)
            .f64(r.load)
            .f64(r.makespan_norm)
            .f64(r.response_norm)
            .f64(r.waste_norm);
    }
    assert_eq!(f.finish(), ALLOCATOR_POLICIES);
}

#[test]
fn transient_comparison_matches_golden() {
    let res = transient_comparison(8);
    let mut f = Fingerprint::new();
    f.word(res.parallelism);
    for p in res.abg.iter().chain(&res.agreedy) {
        f.word(p.index as u64)
            .f64(p.request)
            .word(p.allotment as u64);
    }
    assert_eq!(f.finish(), TRANSIENT);
}

#[test]
fn theorem3_check_matches_golden() {
    let mut f = Fingerprint::new();
    for factor in [2u64, 5, 10, 20, 50] {
        for rate in [0.0, 0.2, 0.5] {
            check(&mut f, &theorem3_check(factor, rate, 200, 2008));
        }
    }
    assert_eq!(f.finish(), THEOREM3);
}

#[test]
fn hierarchical_smoke_sweep_matches_golden() {
    let mut f = Fingerprint::new();
    for row in hierarchical_skew_sweep(&HierarchicalConfig::smoke()) {
        f.word(row.hot as u64).f64(row.hot_local_rho);
        for c in &row.cells {
            f.word(c.stable as u64)
                .f64(c.mean_response)
                .f64(c.response_half_width)
                .f64(c.slowdown_p50)
                .word(c.hot_processors as u64);
            for &u in &c.group_utilization {
                f.f64(u);
            }
        }
    }
    assert_eq!(f.finish(), HIERARCHICAL_SMOKE);
}
