//! Outcome checks: every run of every pass is hashed bit for bit, and
//! either compared with the hash recorded for the default seed or, on
//! any other seed, held to the invariants a correct run must meet.

use crate::workloads::{Outcome, Pass, Prepared, RunResult, Workload};
use abg::experiments::{load_fingerprint, sweep_fingerprint, Fingerprint};
use abg::queue::{OpenOutcome, SaturationReason};

/// The seed whose outcomes are recorded below.
pub const DEFAULT_SEED: u64 = 1;

/// Hash of every run of one pass at [`DEFAULT_SEED`], in pass order.
pub fn pinned(workload: Workload) -> &'static [u64] {
    match workload {
        Workload::OpenMixed => &[
            0x99b2_8b49_54f3_832d,
            0x200d_0d80_e053_0617,
            0x8884_914d_bc86_a6b6,
            0xebed_64a3_1dc9_1d17,
        ],
        Workload::OpenMontage => &[0x6d42_0b9e_51cb_750a, 0x82c8_5904_058a_fc6f],
        Workload::HierReplay => &[0xe624_eab1_608f_1ef4],
        Workload::ClosedFigs => &[0x71eb_9dd2_5e91_80c0, 0x6825_774f_8bbc_da9a],
    }
}

fn fold_open(f: &mut Fingerprint, outcome: &OpenOutcome) {
    match outcome {
        OpenOutcome::Steady(s) => {
            f.word(1)
                .f64(s.response.mean)
                .f64(s.response.half_width)
                .word(s.response.batches as u64)
                .word(s.response.batch_size)
                .f64(s.slowdown.p50)
                .f64(s.slowdown.p95)
                .f64(s.slowdown.p99)
                .f64(s.slowdown.max)
                .word(s.completed)
                .word(s.arrivals)
                .word(s.quanta)
                .word(s.horizon)
                .f64(s.mean_jobs_in_system)
                .word(s.peak_jobs_in_system)
                .f64(s.measured_utilization);
        }
        OpenOutcome::Unstable(u) => {
            f.word(2);
            match u.reason {
                SaturationReason::QueueGrowth {
                    early_mean,
                    late_mean,
                } => f.word(0).f64(early_mean).f64(late_mean),
                SaturationReason::InSystemCap { jobs_in_system } => f.word(1).word(jobs_in_system),
                SaturationReason::HorizonExhausted { quanta } => f.word(2).word(quanta),
            };
            f.word(u.quanta)
                .word(u.horizon)
                .word(u.jobs_in_system)
                .word(u.completed)
                .word(u.arrivals);
        }
    }
}

/// Hashes every run of a pass: the set-up's inputs to an open run
/// (`ρ`, gap, `E[T1]`) and every field of its outcome, or every field of
/// every sweep point. `f64` values enter by bit pattern.
pub fn run_hashes(prepared: &Prepared, pass: &Pass) -> Vec<u64> {
    let open = prepared.open_runs();
    pass.runs
        .iter()
        .enumerate()
        .map(|(i, run)| match &run.outcome {
            Outcome::Open(o) => {
                let mut f = Fingerprint::new();
                let r = open[i];
                f.f64(r.rho).f64(r.mean_gap).f64(r.expected_work);
                fold_open(&mut f, o);
                f.finish()
            }
            Outcome::Fig5(points) => sweep_fingerprint(points),
            Outcome::Fig6(points) => load_fingerprint(points),
            Outcome::Panicked => 0,
        })
        .collect()
}

/// Why one run failed its check, if it did.
fn invariant_failure(prepared: &Prepared, index: usize, run: &RunResult) -> Option<String> {
    match (&run.outcome, prepared) {
        (Outcome::Panicked, _) => Some("panicked".into()),
        (Outcome::Open(OpenOutcome::Unstable(u)), _) => Some(format!(
            "saturated where steady is expected: {:?}",
            u.reason
        )),
        (Outcome::Open(OpenOutcome::Steady(s)), _) => {
            let want = prepared.open_runs()[index].config.measured_jobs;
            let u = s.measured_utilization;
            let p = &s.slowdown;
            if s.completed != want {
                Some(format!("completed {} != measured {want}", s.completed))
            } else if !(0.0..=1.0).contains(&u) {
                Some(format!("utilization {u} outside [0, 1]"))
            } else if !(p.p50 <= p.p95 && p.p95 <= p.p99) {
                Some(format!("slowdown percentiles out of order: {p:?}"))
            } else if !(s.response.mean.is_finite() && s.response.mean > 0.0) {
                Some(format!("mean response {} not positive", s.response.mean))
            } else {
                None
            }
        }
        (Outcome::Fig5(points), Prepared::Closed { expect, .. }) => {
            let columns: Vec<f64> = points.iter().map(|p| p.measured_factor).collect();
            if !same_bits(&columns, &expect.measured_factor) {
                return Some("measured factors differ from the generated population".into());
            }
            points
                .iter()
                .find(|p| !(p.abg_time_norm >= 1.0 && p.agreedy_time_norm >= 1.0))
                .map(|p| format!("running time below the span: {p:?}"))
        }
        (Outcome::Fig6(points), Prepared::Closed { expect, .. }) => {
            let columns: Vec<f64> = points
                .iter()
                .flat_map(|p| [p.measured_load, p.mean_jobs])
                .collect();
            let want: Vec<f64> = expect
                .load_columns
                .iter()
                .flat_map(|&(load, jobs)| [load, jobs])
                .collect();
            if !same_bits(&columns, &want) {
                return Some("load columns differ from the generated population".into());
            }
            points
                .iter()
                .find(|p| {
                    !(p.abg_makespan_norm >= 1.0 - 1e-9
                        && p.agreedy_makespan_norm >= 1.0 - 1e-9
                        && p.abg_response_norm >= 1.0 - 1e-9
                        && p.agreedy_response_norm >= 1.0 - 1e-9)
                })
                .map(|p| format!("below the lower bound: {p:?}"))
        }
        (Outcome::Fig5(_) | Outcome::Fig6(_), _) => {
            Some("sweep outcome on an open workload".into())
        }
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks one pass and returns a message per failed run. At the default
/// seed each run's hash must equal the recorded one; on every seed the
/// invariants must hold and each run's hash must equal `reference`, the
/// hashes of the run's first pass, when given.
pub fn check_pass(
    workload: Workload,
    seed: u64,
    prepared: &Prepared,
    pass: &Pass,
    hashes: &[u64],
    reference: Option<&[u64]>,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, run) in pass.runs.iter().enumerate() {
        let hash = hashes[i];
        let failure = if let Some(why) = invariant_failure(prepared, i, run) {
            Some(why)
        } else if seed == DEFAULT_SEED && pinned(workload).get(i) != Some(&hash) {
            Some(format!("hash {hash:#018x} differs from the recorded one"))
        } else if reference.is_some_and(|r| r[i] != hash) {
            Some(format!("hash {hash:#018x} differs from the first pass"))
        } else {
            None
        };
        if let Some(why) = failure {
            failures.push(format!("{}: {why}", run.label));
        }
    }
    failures
}
