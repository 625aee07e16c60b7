//! OS-allocator policy comparison: the same ABG-scheduled job sets
//! under dynamic equi-partitioning, round-robin and proportional
//! share.
//!
//! Theorem 5's guarantees require the allocator to be fair **and**
//! non-reserving; DEQ is both. Round-robin is fair but reserving (slack
//! from small requesters is not redistributed), and proportional share
//! is non-reserving but unfair (big requesters crowd out small ones).
//! This experiment quantifies what each missing property costs at the
//! system level.

use super::{mean, per_cell, pipelined, SharedSet};
use crate::bounds::{makespan_lower_bound, response_lower_bound_batched};
use abg_alloc::{Allocator, DynamicEquiPartition, Proportional, RoundRobin};
use abg_control::AControl;
use abg_workload::{splitmix_seed, JobSetSpec, ReleaseSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Loads of the probe job sets.
const LOADS: [f64; 3] = [0.5, 1.0, 2.0];
/// Sets per load.
const SETS_PER_LOAD: u32 = 6;
/// Machine size.
const PROCESSORS: u32 = 64;
/// Quantum length.
const QUANTUM_LEN: u64 = 100;
/// Largest parallel width of member jobs.
const MAX_FACTOR: u64 = 32;
/// Phase pairs per member job.
const PAIRS: u64 = 2;
/// Recorded seed.
const SEED: u64 = 0xA110C;

/// One (policy, load) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocatorPolicyRow {
    /// Allocator name.
    pub policy: String,
    /// Target load of the sets.
    pub load: f64,
    /// Mean `M / M*`.
    pub makespan_norm: f64,
    /// Mean `R / R*`.
    pub response_norm: f64,
    /// Mean total waste normalized by total work.
    pub waste_norm: f64,
}

fn run_with<A: Allocator>(set: &SharedSet, allocator: A) -> (f64, f64, f64) {
    // All three policies execute the same Arc-shared job structures.
    let out = set.run(allocator, QUANTUM_LEN, pipelined, AControl::paper_default);
    let sizes = set.sizes();
    let m_star = makespan_lower_bound(&sizes, PROCESSORS);
    let r_star = response_lower_bound_batched(&sizes, PROCESSORS);
    (
        out.makespan as f64 / m_star,
        out.mean_response_time() / r_star,
        out.total_waste as f64 / out.total_work() as f64,
    )
}

/// Runs the comparison; rows are ordered policy-major, load-minor.
/// Every job runs the paper's controller ([`AControl::paper_default`]);
/// `seed` overrides the recorded one.
pub fn allocator_policy_comparison(seed: Option<u64>) -> Vec<AllocatorPolicyRow> {
    let seed = seed.unwrap_or(SEED);
    // Per set: one (M/M*, R/R*, W/T1) triple per policy.
    let cells = per_cell(&LOADS, SETS_PER_LOAD, |load, index| {
        let mut rng = StdRng::seed_from_u64(splitmix_seed(seed, index, load.to_bits()));
        let spec = JobSetSpec {
            processors: PROCESSORS,
            quantum_len: QUANTUM_LEN,
            load,
            max_factor: MAX_FACTOR,
            pairs: PAIRS,
            max_jobs: PROCESSORS as usize,
            release: ReleaseSchedule::Batched,
        };
        let set = SharedSet::new(spec.generate(&mut rng));
        [
            run_with(&set, DynamicEquiPartition::new(PROCESSORS)),
            run_with(&set, RoundRobin::new(PROCESSORS)),
            run_with(&set, Proportional::new(PROCESSORS)),
        ]
    });

    let names = ["deq", "round-robin", "proportional"];
    let mut rows = Vec::new();
    for (pi, name) in names.iter().enumerate() {
        for (&load, sets) in LOADS.iter().zip(cells.iter()) {
            rows.push(AllocatorPolicyRow {
                policy: name.to_string(),
                load,
                makespan_norm: mean(sets, |s| s[pi].0),
                response_norm: mean(sets, |s| s[pi].1),
                waste_norm: mean(sets, |s| s[pi].2),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_policies_times_loads() {
        let rows = allocator_policy_comparison(None);
        assert_eq!(rows.len(), 9);
        for r in &rows {
            assert!(r.makespan_norm >= 1.0 - 1e-9, "{r:?}");
            assert!(r.response_norm >= 1.0 - 1e-9, "{r:?}");
        }
    }

    #[test]
    fn deq_no_worse_than_round_robin_under_load() {
        let rows = allocator_policy_comparison(None);
        let get = |policy: &str, load: f64| {
            rows.iter()
                .find(|r| r.policy == policy && r.load == load)
                .expect("cell exists")
        };
        // Under contention, redistribution must help (or at least not
        // hurt): round-robin reserves slack that DEQ hands out.
        let deq = get("deq", 2.0);
        let rr = get("round-robin", 2.0);
        assert!(
            deq.makespan_norm <= rr.makespan_norm * 1.02,
            "DEQ {deq:?} should not lose to round-robin {rr:?}"
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            allocator_policy_comparison(None),
            allocator_policy_comparison(None)
        );
    }
}
