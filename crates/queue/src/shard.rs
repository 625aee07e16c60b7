//! Arrival routing and the merge of per-group reports: what a run over
//! `G` processor groups adds to the one event loop in
//! [`hier`](crate::hier).
//!
//! * **routing** — every group replays the *same* aggregate arrival
//!   path (all groups seed the router RNG identically from the run
//!   seed via SplitMix64) and keeps the arrivals a deterministic
//!   [`ShardRouting`] policy assigns to it, so the split never depends
//!   on thread count or schedule;
//! * **job identity** — the job structure of global arrival `g` is
//!   sampled from its own SplitMix64-derived RNG, so the simulated job
//!   population is a function of the run seed alone: identical across
//!   group counts `G ≥ 2` and routing policies;
//! * **merge** — per-group measured samples carry their global
//!   measurement slot, and the merge recombines them in slot order
//!   (aggregate arrival order) through the pure helpers in
//!   [`stats`](crate::stats), in stable group-index order for every
//!   summed diagnostic. The result is one [`OpenOutcome`] whatever the
//!   pool's schedule was.
//!
//! A fixed partition of the machine is a [`HierOpenConfig`] run under
//! [`StaticEqui`](abg_control::StaticEqui): group `k` keeps its
//! equi-partition share ([`abg_control::equi_partition`]) for the whole
//! run. Routing only applies for `G ≥ 2`, which is a *different* (but
//! equally deterministic) simulation from the one-group driver: arrival
//! gap draws no longer interleave with job-structure draws, and each
//! group schedules its own population on its own sub-machine.
//!
//! Why this scales: the per-event cost of the quantum core grows with
//! the live population, so `G` groups each carrying `~N/G` jobs commit
//! simulated time cheaper than one core carrying `N` — on top of the
//! wall-clock parallelism of the worker pool (the caller picks its
//! size; the experiment harness passes its `ABG_THREADS` count).

use crate::driver::{OpenConfig, OpenOutcome, SteadyStats, UnstableReport};
use crate::hier::HierOpenConfig;
use crate::saturation::SaturationReason;
use crate::stats::{merge_shard_samples, merged_batch_means, percentiles, weighted_mean};
use abg_workload::{splitmix_seed, ArrivalStream};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How arrivals are assigned to processor groups. Every policy is a
/// pure function of the run seed and the global arrival index, so the
/// split is reproducible whatever the pool does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRouting {
    /// Global arrival `g` goes to group `g mod G` — a perfectly even
    /// split of the arrival count.
    RoundRobin,
    /// Deterministic skew: the first `hot` arrivals of every
    /// `hot + (G - 1)`-arrival cycle go to group 0, the rest
    /// round-robin over groups `1..G` — a `hot : 1` load concentration
    /// on group 0. The hierarchical experiments use it to stress
    /// feedback repartitioning; under a fixed partition it simply
    /// overloads group 0. With `G = 1` everything lands on group 0.
    Skewed {
        /// Arrivals routed to group 0 per cycle (`hot = 1` is uniform;
        /// `hot = G` gives group 0 a `G : 1` share).
        hot: u32,
    },
}

/// The RNG seed every group's arrival replay starts from — shared, so
/// all groups decimate one common aggregate path.
fn router_seed(seed: u64) -> u64 {
    splitmix_seed(seed, 0, 1)
}

/// The RNG seed global arrival `g` samples its job structure from.
pub(crate) fn job_seed(seed: u64, global: u64) -> u64 {
    splitmix_seed(seed, global, 2)
}

/// The group the routing policy assigns global arrival `g` to.
pub(crate) fn route(cfg: &HierOpenConfig, global: u64) -> u32 {
    match cfg.routing {
        ShardRouting::RoundRobin => (global % cfg.groups as u64) as u32,
        ShardRouting::Skewed { hot } => {
            let cycle = hot as u64 + cfg.groups as u64 - 1;
            if cycle == 0 {
                return 0; // hot = 0 with one group: everything is group 0.
            }
            let r = global % cycle;
            if r < hot as u64 {
                0
            } else {
                (r - hot as u64 + 1) as u32
            }
        }
    }
}

/// Measured global arrival indices the routing policy assigns to
/// `group` — computable up front (routing is a pure function of seed
/// and index), so each group knows its measurement target before
/// simulating anything.
pub(crate) fn measured_assigned(cfg: &HierOpenConfig, group: u32) -> u64 {
    let warmup = cfg.open.warmup_jobs;
    (warmup..warmup + cfg.open.measured_jobs)
        .filter(|&g| route(cfg, g) == group)
        .count() as u64
}

/// One group's pending-arrival source: replays the aggregate arrival
/// path from the shared router seed and yields `(global index, time)`
/// for the arrivals routed to this group. Skipped arrivals still
/// consume their draws, so every group sees the identical aggregate
/// path.
pub(crate) struct ShardArrivals {
    stream: ArrivalStream,
    rng: StdRng,
    /// Global index of the next aggregate arrival to draw.
    next_global: u64,
    group: u32,
}

impl ShardArrivals {
    pub(crate) fn new(cfg: &HierOpenConfig, group: u32) -> Self {
        Self {
            stream: cfg.open.arrivals.stream(),
            rng: StdRng::seed_from_u64(router_seed(cfg.open.seed)),
            next_global: 0,
            group,
        }
    }

    /// The next arrival routed to this group.
    pub(crate) fn next(&mut self, cfg: &HierOpenConfig) -> (u64, u64) {
        loop {
            let time = self.stream.next_arrival(&mut self.rng);
            let global = self.next_global;
            self.next_global += 1;
            if route(cfg, global) == self.group {
                return (global, time);
            }
        }
    }
}

/// Everything a processor group hands back for the deterministic merge.
pub(crate) struct ShardReport {
    /// Measured samples: `(global slot, response, slowdown)`.
    pub(crate) samples: Vec<(u64, f64, f64)>,
    pub(crate) arrivals: u64,
    pub(crate) completed_measured: u64,
    pub(crate) completed_work: u64,
    /// The group's capacity integral ∫ capacity dt in processor-steps
    /// (`P · horizon` for a group that was never resized).
    pub(crate) capacity_steps: u128,
    pub(crate) quanta: u64,
    pub(crate) horizon: u64,
    pub(crate) jobs_in_system: u64,
    pub(crate) mean_jobs_in_system: f64,
    pub(crate) peak_jobs_in_system: u64,
    pub(crate) tripped: Option<SaturationReason>,
}

/// Folds the per-group reports into one [`OpenOutcome`], in stable
/// group-index order — the one outcome assembly of every open-system
/// entry point (a single report for the unsharded driver).
///
/// Any tripped group makes the merged outcome [`OpenOutcome::Unstable`]
/// (reason from the lowest-index tripped group; diagnostics summed,
/// horizon the maximum). Otherwise the measured samples recombine in
/// global slot order through [`merged_batch_means`] /
/// [`merge_shard_samples`]; `quanta` and `arrivals` sum; `horizon` is
/// the largest group horizon; the mean in-system count is the
/// quanta-weighted mean of the group means; and the served utilization
/// is total completed work over the summed capacity integrals.
pub(crate) fn merge_reports(open: &OpenConfig, reports: &[ShardReport]) -> OpenOutcome {
    let quanta: u64 = reports.iter().map(|r| r.quanta).sum();
    let arrivals: u64 = reports.iter().map(|r| r.arrivals).sum();
    let horizon: u64 = reports.iter().map(|r| r.horizon).max().unwrap_or(0);
    let completed: u64 = reports.iter().map(|r| r.completed_measured).sum();

    if let Some(tripped) = reports.iter().find(|r| r.tripped.is_some()) {
        return OpenOutcome::Unstable(UnstableReport {
            reason: tripped.tripped.expect("found a tripped group"),
            quanta,
            horizon,
            jobs_in_system: reports.iter().map(|r| r.jobs_in_system).sum(),
            completed,
            arrivals,
        });
    }

    let slots = open.measured_jobs as usize;
    let responses: Vec<Vec<(u64, f64)>> = reports
        .iter()
        .map(|r| r.samples.iter().map(|&(s, resp, _)| (s, resp)).collect())
        .collect();
    let slowdowns: Vec<Vec<(u64, f64)>> = reports
        .iter()
        .map(|r| r.samples.iter().map(|&(s, _, sd)| (s, sd)).collect())
        .collect();
    let response = merged_batch_means(&responses, slots, open.batches)
        .expect("steady groups tile the measurement slots");
    let slowdown_samples =
        merge_shard_samples(&slowdowns, slots).expect("steady groups tile the measurement slots");
    let slowdown = percentiles(&slowdown_samples).expect("measured_jobs > 0");

    let weights: Vec<(f64, f64)> = reports
        .iter()
        .map(|r| (r.mean_jobs_in_system, r.quanta as f64))
        .collect();
    let completed_work: u64 = reports.iter().map(|r| r.completed_work).sum();
    // A run aborted before its first quantum has no capacity: report
    // zero utilization rather than `0/0 = NaN`.
    let capacity: f64 = reports.iter().map(|r| r.capacity_steps as f64).sum();
    let utilization = if capacity == 0.0 {
        0.0
    } else {
        completed_work as f64 / capacity
    };
    OpenOutcome::Steady(SteadyStats {
        response,
        slowdown,
        completed: open.measured_jobs,
        arrivals,
        quanta,
        horizon,
        mean_jobs_in_system: weighted_mean(&weights),
        // Summed per-group peaks: an aggregate-footprint upper bound
        // (the groups need not peak at the same instant).
        peak_jobs_in_system: reports.iter().map(|r| r.peak_jobs_in_system).sum(),
        measured_utilization: utilization,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hier::run_open_hierarchical_with_threads;
    use crate::lockstep::assert_outcome_bits_eq;
    use crate::reference::ReferenceOpenDriver;
    use crate::saturation::SaturationConfig;
    use abg_alloc::DynamicEquiPartition;
    use abg_control::{AControl, StaticEqui};
    use abg_dag::PhasedJob;
    use abg_sched::PipelinedExecutor;
    use abg_workload::{mean_gap_for_utilization, ArrivalProcess};

    /// A fixed partition of 16 processors into `groups` groups: the
    /// static top level with one unbounded epoch.
    fn config(rho: f64, groups: u32, routing: ShardRouting) -> HierOpenConfig {
        HierOpenConfig {
            open: OpenConfig {
                processors: 16,
                quantum_len: 10,
                arrivals: ArrivalProcess::Poisson {
                    // Constant width-2, 40-level jobs: T1 = 80.
                    mean_gap: mean_gap_for_utilization(rho, 16, 80.0),
                },
                warmup_jobs: 40,
                measured_jobs: 160,
                batches: 8,
                max_quanta: 2_000_000,
                saturation: SaturationConfig::default(),
                seed: 0x5AAD,
            },
            groups,
            routing,
            realloc_epoch: u64::MAX,
            group_floor: 1,
        }
    }

    fn run(cfg: &HierOpenConfig, threads: usize) -> OpenOutcome {
        run_open_hierarchical_with_threads(
            cfg,
            DynamicEquiPartition::new,
            |_rng, _recycled| Box::new(PipelinedExecutor::new(PhasedJob::constant(2, 40))),
            || Box::new(AControl::new(0.2)),
            StaticEqui,
            threads,
        )
    }

    #[test]
    fn routing_policies_cover_every_shard_and_are_deterministic() {
        for routing in [ShardRouting::RoundRobin, ShardRouting::Skewed { hot: 2 }] {
            let cfg = config(0.5, 4, routing);
            let total: u64 = (0..4).map(|k| measured_assigned(&cfg, k)).sum();
            assert_eq!(total, cfg.open.measured_jobs, "{routing:?}");
            for k in 0..4 {
                assert!(
                    measured_assigned(&cfg, k) > 0,
                    "{routing:?}: group {k} starved"
                );
            }
        }
        // Round-robin is an exact split of the measured window.
        let cfg = config(0.5, 4, ShardRouting::RoundRobin);
        for k in 0..4 {
            assert_eq!(measured_assigned(&cfg, k), 40);
        }
    }

    #[test]
    fn every_shard_replays_the_same_aggregate_path() {
        let cfg = config(0.5, 4, ShardRouting::RoundRobin);
        // Collect (global, time) from every group's source; the union
        // must be one consistent aggregate path.
        let mut seen: Vec<(u64, u64)> = Vec::new();
        for k in 0..4 {
            let mut src = ShardArrivals::new(&cfg, k);
            for _ in 0..25 {
                seen.push(src.next(&cfg));
            }
        }
        seen.sort_unstable();
        for pair in seen.windows(2) {
            assert_ne!(pair[0].0, pair[1].0, "global index claimed twice");
            assert!(pair[0].1 <= pair[1].1, "aggregate path not monotone");
        }
        // Round-robin: group k owns exactly the indices ≡ k (mod 4).
        let mut src = ShardArrivals::new(&cfg, 2);
        for j in 0..10 {
            assert_eq!(src.next(&cfg).0, 2 + 4 * j);
        }
    }

    #[test]
    fn single_shard_is_bit_identical_to_the_unsharded_driver() {
        let cfg = config(0.5, 1, ShardRouting::RoundRobin);
        let reference = ReferenceOpenDriver::run(
            &cfg.open,
            DynamicEquiPartition::new(cfg.open.processors),
            |_rng, _recycled| Box::new(PipelinedExecutor::new(PhasedJob::constant(2, 40))),
            || Box::new(AControl::new(0.2)),
        );
        assert!(reference.is_steady());
        for threads in [1, 4] {
            assert_outcome_bits_eq(&reference, &run(&cfg, threads));
        }
    }

    #[test]
    fn outcome_is_independent_of_thread_count_and_schedule() {
        for routing in [ShardRouting::RoundRobin, ShardRouting::Skewed { hot: 2 }] {
            let cfg = config(0.5, 4, routing);
            let baseline = run(&cfg, 1);
            assert!(baseline.is_steady(), "{routing:?}");
            for threads in 2..=8 {
                assert_eq!(
                    run(&cfg, threads),
                    baseline,
                    "{routing:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn sharded_steady_statistics_are_sane() {
        let cfg = config(0.4, 4, ShardRouting::RoundRobin);
        let out = run(&cfg, 2);
        let stats = out.steady().expect("rho = 0.4 must be stable");
        assert_eq!(stats.completed, 160);
        assert!(stats.response.mean.is_finite() && stats.response.mean >= 40.0);
        assert!(stats.slowdown.p50 >= 1.0);
        assert!(stats.slowdown.p50 <= stats.slowdown.p95);
        assert!(stats.measured_utilization > 0.05 && stats.measured_utilization < 1.0);
        assert!(stats.mean_jobs_in_system > 0.0);
        assert!(stats.arrivals >= 160);
    }

    #[test]
    fn sharded_overload_is_flagged_unstable() {
        let cfg = config(1.5, 4, ShardRouting::RoundRobin);
        match run(&cfg, 2) {
            OpenOutcome::Unstable(report) => {
                assert!(matches!(
                    report.reason,
                    SaturationReason::QueueGrowth { .. } | SaturationReason::InSystemCap { .. }
                ));
                assert!(report.jobs_in_system > 0);
            }
            OpenOutcome::Steady(s) => panic!("rho = 1.5 reported steady: {s:?}"),
        }
    }

    #[test]
    fn job_population_is_identical_across_routings() {
        // Same seed, different routing: the same global arrival samples
        // the same job structure (it is keyed by the global index), so
        // both runs measure the same population — the split, not the
        // jobs, is what changes.
        let rr = run(&config(0.4, 4, ShardRouting::RoundRobin), 2);
        let skewed = run(&config(0.4, 4, ShardRouting::Skewed { hot: 2 }), 2);
        let (rr, skewed) = (rr.steady().unwrap(), skewed.steady().unwrap());
        // Constant jobs here, so responses differ only through queueing;
        // both must be steady with the full measured count.
        assert_eq!(rr.completed, skewed.completed);
    }
}
