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

use super::{parallel_map, task_seed};
use crate::bounds::{makespan_lower_bound, response_lower_bound_batched, JobSize};
use abg_alloc::{Allocator, DynamicEquiPartition, Proportional, RoundRobin};
use abg_control::{AControl, Controller};
use abg_dag::PhasedJob;
use abg_sched::PipelinedExecutor;
use abg_sim::MultiJobSim;
use abg_workload::{JobSetSpec, ReleaseSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Configuration of the allocator comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocatorPolicyConfig {
    /// Loads of the probe job sets.
    pub loads: Vec<f64>,
    /// Sets per load.
    pub sets_per_load: u32,
    /// Machine size.
    pub processors: u32,
    /// Quantum length.
    pub quantum_len: u64,
    /// Largest parallel width of member jobs.
    pub max_factor: u64,
    /// Phase pairs per member job.
    pub pairs: u64,
    /// ABG convergence rate.
    pub rate: f64,
    /// Experiment seed.
    pub seed: u64,
}

impl AllocatorPolicyConfig {
    /// Moderate default probe.
    pub fn default_probe() -> Self {
        Self {
            loads: vec![0.5, 1.0, 2.0],
            sets_per_load: 6,
            processors: 64,
            quantum_len: 100,
            max_factor: 32,
            pairs: 2,
            rate: 0.2,
            seed: 0xA110C,
        }
    }
}

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

fn run_with<A: Allocator>(
    jobs: &[Arc<PhasedJob>],
    releases: &[u64],
    processors: u32,
    allocator: A,
    quantum_len: u64,
    rate: f64,
) -> (f64, f64, f64) {
    let mut sim = MultiJobSim::new(allocator, quantum_len);
    for (job, &release) in jobs.iter().zip(releases) {
        let calc: Box<dyn Controller + Send> = Box::new(AControl::new(rate));
        // All three policies execute the same Arc-shared job structures.
        sim.add_job(
            Box::new(PipelinedExecutor::new(Arc::clone(job))),
            calc,
            release,
        );
    }
    let out = sim.run();
    let sizes: Vec<JobSize> = jobs
        .iter()
        .zip(releases)
        .map(|(j, &r)| JobSize {
            work: j.work(),
            span: j.span(),
            release: r,
        })
        .collect();
    let m_star = makespan_lower_bound(&sizes, processors);
    let r_star = response_lower_bound_batched(&sizes, processors);
    (
        out.makespan as f64 / m_star,
        out.mean_response_time() / r_star,
        out.total_waste as f64 / out.total_work() as f64,
    )
}

/// Runs the comparison; rows are ordered policy-major, load-minor.
pub fn allocator_policy_comparison(cfg: &AllocatorPolicyConfig) -> Vec<AllocatorPolicyRow> {
    let units: Vec<(f64, u64)> = cfg
        .loads
        .iter()
        .flat_map(|&l| (0..cfg.sets_per_load as u64).map(move |i| (l, i)))
        .collect();
    // (load, [deq, rr, prop] triples)
    let results = parallel_map(units, |&(load, index)| {
        let mut rng = StdRng::seed_from_u64(task_seed(cfg.seed, index, load.to_bits()));
        let spec = JobSetSpec {
            processors: cfg.processors,
            quantum_len: cfg.quantum_len,
            load,
            max_factor: cfg.max_factor,
            pairs: cfg.pairs,
            max_jobs: cfg.processors as usize,
            release: ReleaseSchedule::Batched,
        };
        let set = spec.generate(&mut rng);
        let releases = set.releases;
        let jobs: Vec<Arc<PhasedJob>> = set.jobs.into_iter().map(Arc::new).collect();
        let deq = run_with(
            &jobs,
            &releases,
            cfg.processors,
            DynamicEquiPartition::new(cfg.processors),
            cfg.quantum_len,
            cfg.rate,
        );
        let rr = run_with(
            &jobs,
            &releases,
            cfg.processors,
            RoundRobin::new(cfg.processors),
            cfg.quantum_len,
            cfg.rate,
        );
        let prop = run_with(
            &jobs,
            &releases,
            cfg.processors,
            Proportional::new(cfg.processors),
            cfg.quantum_len,
            cfg.rate,
        );
        (load, [deq, rr, prop])
    });

    let names = ["deq", "round-robin", "proportional"];
    let mut rows = Vec::new();
    for (pi, name) in names.iter().enumerate() {
        for &load in &cfg.loads {
            let cells: Vec<&(f64, f64, f64)> = results
                .iter()
                .filter(|(l, _)| *l == load)
                .map(|(_, triple)| &triple[pi])
                .collect();
            let n = cells.len() as f64;
            rows.push(AllocatorPolicyRow {
                policy: name.to_string(),
                load,
                makespan_norm: cells.iter().map(|c| c.0).sum::<f64>() / n,
                response_norm: cells.iter().map(|c| c.1).sum::<f64>() / n,
                waste_norm: cells.iter().map(|c| c.2).sum::<f64>() / n,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AllocatorPolicyConfig {
        AllocatorPolicyConfig {
            loads: vec![0.5, 2.0],
            sets_per_load: 3,
            processors: 32,
            quantum_len: 50,
            max_factor: 16,
            pairs: 2,
            rate: 0.2,
            seed: 77,
        }
    }

    #[test]
    fn three_policies_times_loads() {
        let rows = allocator_policy_comparison(&tiny());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.makespan_norm >= 1.0 - 1e-9, "{r:?}");
            assert!(r.response_norm >= 1.0 - 1e-9, "{r:?}");
        }
    }

    #[test]
    fn deq_no_worse_than_round_robin_under_load() {
        let rows = allocator_policy_comparison(&tiny());
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
            allocator_policy_comparison(&tiny()),
            allocator_policy_comparison(&tiny())
        );
    }
}
