//! Hierarchical two-level scheduling: a feedback-driven top-level
//! allocator over the sharded open-system engine.
//!
//! The sharded engine ([`run_open_sharded`](crate::run_open_sharded))
//! fixes each processor group's capacity at `P/G` forever; under
//! skewed arrivals one group drowns while its neighbors idle. This
//! module adds the missing layer of the hierarchical schemes for
//! malleable jobs (Cao–Sun–Qian–Wu's desire-feedback partitioning,
//! with the policy made pluggable in the spirit of the
//! control-theoretic framing): each group still runs its own
//! [`QuantumCore`] + [`SaturationDetector`]
//! over the deterministic router-replay arrival split, but now reports
//! a per-epoch **group desire** — aggregated job requests, in-system
//! population, and served utilization — to a top-level
//! [`GroupAllocator`] that recomputes every group's capacity at fixed
//! reallocation epochs.
//!
//! **Execution model.** The driver advances all groups in lockstep
//! over reallocation epochs of `realloc_epoch` quanta. Within an epoch
//! each group runs its ordinary event-driven loop (admissions, real
//! quanta, frozen-window macro-steps) and pauses at the first quantum
//! boundary at or after the epoch edge — the *epoch invariant*:
//! capacity changes take effect at quantum granularity, never inside a
//! quantum. At the barrier the driver folds every group's desire (in
//! group-index order, on one thread), asks the policy for the next
//! partition, and swaps each resized group's allocator in place.
//!
//! **Determinism.** Everything the sharded engine guarantees carries
//! over: arrivals replay the shared router path, job structures are
//! keyed by global arrival index, and the merge folds in group-index
//! order — the outcome is a pure function of the configuration,
//! bit-independent of the worker pool's size and schedule. Epoch
//! segmentation itself is invisible to a group that is never resized:
//! frozen windows may be split at any quantum boundary
//! ([`advance_frozen`](QuantumCore::advance_frozen) is bit-equivalent
//! to stepping, and the detector's `record_n` is linear in its
//! sample count), and an idle group *pauses* at the epoch edge rather
//! than capping its idle skip (a capped skip plus a later one could
//! land a full quantum later than the single direct skip). That is why
//! [`StaticEqui`](abg_control::StaticEqui) — which never resizes
//! anyone — reproduces [`run_open_sharded`](crate::run_open_sharded)
//! bit-for-bit, pinned fingerprints included, whatever the epoch
//! length: the compatibility anchor the tests pin.
//!
//! `groups = 1` delegates to [`run_open_system`](crate::run_open_system)
//! verbatim (with one group the sum invariant forbids any capacity
//! change), mirroring the sharded engine's `shards = 1` rule.

use crate::driver::{ConfigError, OpenConfig, OpenOutcome};
use crate::events::frozen_window_bound;
use crate::saturation::{SaturationDetector, SaturationReason};
use crate::shard::{
    job_seed, measured_assigned, merge_reports, pool_threads, shard_processors, shard_trip,
    ShardArrivals, ShardReport, ShardRouting, ShardedOpenConfig,
};
use abg_alloc::Allocator;
use abg_control::{GroupAllocator, GroupDesire, RequestCalculator};
use abg_sched::JobExecutor;
use abg_sim::{CompletedJob, NullProbe, QuantumCore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of a hierarchical open-system run: the sharded
/// decomposition plus the top level's reallocation cadence and
/// capacity floor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierOpenConfig {
    /// The aggregate open-system configuration (total machine size,
    /// aggregate arrival process and measurement window; `max_quanta`
    /// and the saturation tuning apply per group).
    pub open: OpenConfig,
    /// Processor groups `G` under the top-level allocator.
    pub groups: u32,
    /// The arrival-routing policy (shared with the sharded engine).
    pub routing: ShardRouting,
    /// Reallocation epoch in quanta: the top-level allocator runs at
    /// every multiple of `realloc_epoch * quantum_len` steps.
    pub realloc_epoch: u64,
    /// Per-group capacity floor the allocator must always honor (at
    /// least 1, at most `P/G`).
    pub group_floor: u32,
}

impl HierOpenConfig {
    /// Checks internal consistency, reporting the first violation as a
    /// typed [`ConfigError`]: the aggregate config must be valid, the
    /// group count positive, the reallocation epoch positive, and the
    /// per-group floor grantable to every group at once
    /// (`1 <= floor <= P/G` — which also rejects more groups than
    /// processors).
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.open.validate()?;
        if self.groups == 0 {
            return Err(ConfigError::ZeroGroups);
        }
        if self.realloc_epoch == 0 {
            return Err(ConfigError::BadReallocEpoch);
        }
        if self.group_floor == 0 || self.group_floor > self.open.processors / self.groups {
            return Err(ConfigError::BadGroupFloor {
                floor: self.group_floor,
                processors: self.open.processors,
                groups: self.groups,
            });
        }
        Ok(())
    }

    /// Panicking form of [`validate`](HierOpenConfig::validate), used
    /// by the driver to fail fast with the [`ConfigError`] display
    /// message.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] display message on the first
    /// violation.
    pub fn assert_valid(&self) {
        if let Err(err) = self.validate() {
            panic!("{err}");
        }
    }

    /// The per-group decomposition this run starts from: the sharded
    /// configuration with one shard per group. The routing helpers,
    /// arrival replay and initial equi-partition are all defined
    /// against this view.
    pub fn as_sharded(&self) -> ShardedOpenConfig {
        ShardedOpenConfig {
            open: self.open.clone(),
            shards: self.groups,
            routing: self.routing,
        }
    }
}

/// Per-group accounting of one hierarchical run: where the top level
/// left each group's capacity and how the group spent it. The merged
/// [`OpenOutcome`] aggregates across groups; this is the view that
/// shows the reallocation at work (a hot group under skewed routing
/// should end with more processors and every group's served
/// utilization should level out).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupSummary {
    /// Group index.
    pub group: u32,
    /// Capacity the group held when the run ended.
    pub final_processors: u32,
    /// Arrivals routed to (and admitted by) the group.
    pub arrivals: u64,
    /// Served utilization: the group's completed work over its own
    /// capacity integral ∫ capacity dt (which reflects every resize).
    pub utilization: f64,
}

/// Where a group's simulation currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupStatus {
    /// Paused at an epoch edge with work (or arrivals) still pending.
    Running,
    /// Every measured arrival routed to this group has completed.
    Finished,
    /// The group's detector (or quanta budget) declared it unstable.
    Tripped,
}

/// One resumable per-group open-system simulation: the event-driven
/// shard loop of the sharded engine, pausable at any quantum boundary
/// so a top-level allocator can resize the group between epochs.
///
/// `run_shard` runs one of these with an unbounded epoch (`until =
/// u64::MAX`), which disables every pause point — the hierarchical
/// driver and the static sharded engine share this loop, so their
/// equivalence under a never-resizing policy is structural, not
/// coincidental.
pub(crate) struct GroupSim<A: Allocator> {
    /// Current capacity (processors owned by this group).
    processors: u32,
    engine:
        QuantumCore<Box<dyn JobExecutor + Send>, Box<dyn RequestCalculator + Send>, A, NullProbe>,
    detector: SaturationDetector,
    arrivals: ShardArrivals,
    /// Local admission id → global arrival index (admission order).
    globals: Vec<u64>,
    /// Measured arrivals routed here that have not completed yet.
    outstanding: u64,
    pool: Vec<Box<dyn JobExecutor + Send>>,
    done: Vec<CompletedJob>,
    next_global: u64,
    next_time: u64,
    status: GroupStatus,
    samples: Vec<(u64, f64, f64)>,
    arrivals_seen: u64,
    completed_measured: u64,
    completed_work: u64,
    tripped: Option<SaturationReason>,
    /// Integral of capacity over simulated time, folded at each epoch
    /// barrier — the group's contribution to the merged utilization
    /// denominator.
    capacity_steps: u64,
    accounted_now: u64,
    accounted_work: u64,
}

impl<A: Allocator> GroupSim<A> {
    /// A fresh group simulation at its equi-partition capacity. A
    /// group with no measured arrivals routed to it starts (and stays)
    /// finished — it could not influence any merged statistic.
    pub(crate) fn new(cfg: &ShardedOpenConfig, shard: u32, allocator: A) -> Self {
        let open = &cfg.open;
        let processors = shard_processors(open.processors, cfg.shards, shard);
        let assigned = measured_assigned(cfg, shard);
        let mut arrivals = ShardArrivals::new(cfg, shard);
        let engine = QuantumCore::new(allocator, open.quantum_len, NullProbe);
        let detector = SaturationDetector::new(open.saturation);
        let (status, next_global, next_time) = if assigned == 0 {
            (GroupStatus::Finished, 0, 0)
        } else {
            let (global, time) = arrivals.next(cfg);
            (GroupStatus::Running, global, time)
        };
        Self {
            processors,
            engine,
            detector,
            arrivals,
            globals: Vec::new(),
            outstanding: assigned,
            pool: Vec::new(),
            done: Vec::new(),
            next_global,
            next_time,
            status,
            samples: Vec::with_capacity(assigned as usize),
            arrivals_seen: 0,
            completed_measured: 0,
            completed_work: 0,
            tripped: None,
            capacity_steps: 0,
            accounted_now: 0,
            accounted_work: 0,
        }
    }

    /// Whether the group still has measured work pending.
    pub(crate) fn is_running(&self) -> bool {
        self.status == GroupStatus::Running
    }

    /// Resizes the group: the next quantum allocates against the new
    /// machine. Only called at epoch barriers, and only when the
    /// capacity actually changed — an untouched group keeps its
    /// allocator state (DEQ rotation included) bit-intact.
    pub(crate) fn set_capacity(&mut self, processors: u32, allocator: A) {
        self.processors = processors;
        self.engine.set_allocator(allocator);
    }

    /// Advances the simulation to the first quantum boundary at or
    /// after `until` (or to completion / saturation trip, whichever
    /// comes first). `until = u64::MAX` never pauses: the loop then
    /// *is* the sharded engine's single-pass shard loop.
    ///
    /// Pause points are chosen to keep segmentation invisible:
    ///
    /// * between quanta (`now >= until` before a real step);
    /// * inside a frozen window, by bounding the window at the epoch
    ///   edge — bit-equal by the frozen-window splitting invariant;
    /// * while idle, by *returning* when the next arrival lies beyond
    ///   the epoch instead of capping the skip (`skip_idle_until`
    ///   always advances at least one quantum, so skip-then-skip can
    ///   overshoot the single direct skip).
    pub(crate) fn advance_until<E, C>(
        &mut self,
        cfg: &ShardedOpenConfig,
        until: u64,
        make_executor: &E,
        make_calculator: &C,
    ) where
        E: Fn(&mut StdRng, Option<Box<dyn JobExecutor + Send>>) -> Box<dyn JobExecutor + Send>
            + Sync,
        C: Fn() -> Box<dyn RequestCalculator + Send> + Sync,
    {
        if self.status != GroupStatus::Running {
            return;
        }
        let open = &cfg.open;
        let warmup = open.warmup_jobs;
        let measured = open.measured_jobs;

        loop {
            while self.next_time <= self.engine.now() {
                // Job structures are sampled from the arrival's own
                // derived RNG, so the population is a function of the
                // run seed alone — identical across group counts,
                // routings and reallocation policies.
                let mut job_rng = StdRng::seed_from_u64(job_seed(open.seed, self.next_global));
                let executor = make_executor(&mut job_rng, self.pool.pop());
                let id = self
                    .engine
                    .admit(executor, make_calculator(), self.next_time);
                debug_assert_eq!(id as usize, self.globals.len());
                self.globals.push(self.next_global);
                self.arrivals_seen += 1;
                (self.next_global, self.next_time) = self.arrivals.next(cfg);
            }
            if !self.engine.any_live() {
                if self.next_time > until {
                    return; // Paused idle at the epoch edge.
                }
                self.engine.skip_idle_until(self.next_time);
                continue;
            }
            if self.engine.now() >= until {
                return; // Paused between quanta at the epoch edge.
            }

            self.done.clear();
            self.engine
                .step_quantum_reclaiming(&mut self.done, &mut self.pool);
            self.detector.record(self.engine.jobs_in_system());

            for job in &self.done {
                self.completed_work += job.work;
                let global = self.globals[job.id as usize];
                if global < warmup || global >= warmup + measured {
                    continue;
                }
                let response = job.response_time() as f64;
                // Solo lower bound on response against the group's
                // *current* machine: the job cannot beat its span nor
                // perfect speedup on the processors its group owns at
                // completion time (constant under a static top level).
                let lower = (job.span as f64).max(job.work as f64 / self.processors as f64);
                self.samples
                    .push((global - warmup, response, response / lower.max(1.0)));
                self.completed_measured += 1;
                self.outstanding -= 1;
            }

            if self.outstanding == 0 {
                self.status = GroupStatus::Finished;
                return;
            }
            if let Some(reason) = shard_trip(open, &self.engine, &self.detector) {
                self.tripped = Some(reason);
                self.status = GroupStatus::Tripped;
                return;
            }

            while let Some(len) = self.engine.frozen_quantum_len() {
                let now = self.engine.now();
                if now >= until {
                    break; // The outer loop pauses after admissions.
                }
                // The epoch edge bounds the window like any other
                // event horizon; `u64::MAX` must stay un-bounded so
                // the unsegmented path is literally the original.
                let epoch_bound = if until == u64::MAX {
                    u64::MAX
                } else {
                    (until - now).div_ceil(len)
                };
                let bound = frozen_window_bound(
                    now,
                    len,
                    self.next_time,
                    self.detector.quanta_until_trend_check(),
                    self.engine.quanta(),
                    open.max_quanta,
                )
                .min(epoch_bound);
                let advanced = self.engine.advance_frozen(bound);
                if advanced == 0 {
                    break;
                }
                self.detector
                    .record_n(self.engine.jobs_in_system(), advanced);
                if let Some(reason) = shard_trip(open, &self.engine, &self.detector) {
                    self.tripped = Some(reason);
                    self.status = GroupStatus::Tripped;
                    return;
                }
            }
        }
    }

    /// Folds the epoch that just ended into the capacity integral and
    /// returns the group's desire report: standing request sum and
    /// population at the barrier, and the fraction of the epoch's
    /// capacity spent on completed work. Finished and tripped groups
    /// report zero desire — granting them capacity would waste it.
    pub(crate) fn fold_epoch(&mut self) -> GroupDesire {
        let now = self.engine.now();
        let elapsed = now - self.accounted_now;
        self.capacity_steps = self
            .capacity_steps
            .saturating_add((self.processors as u64).saturating_mul(elapsed));
        let work = self.completed_work - self.accounted_work;
        let utilization = if elapsed == 0 {
            0.0
        } else {
            work as f64 / (self.processors as f64 * elapsed as f64)
        };
        self.accounted_now = now;
        self.accounted_work = self.completed_work;
        if self.is_running() {
            GroupDesire {
                requests: self.engine.live_request_sum(),
                population: self.engine.jobs_in_system() as u64,
                utilization,
            }
        } else {
            GroupDesire {
                requests: 0.0,
                population: 0,
                utilization,
            }
        }
    }

    /// The group's capacity integral (processor-steps) folded so far.
    pub(crate) fn capacity_steps(&self) -> u64 {
        self.capacity_steps
    }

    /// The group's standing in the run's [`GroupSummary`] table.
    /// Meaningful once the run has ended (the capacity integral is
    /// folded up to the final barrier).
    fn summary(&self, group: u32) -> GroupSummary {
        GroupSummary {
            group,
            final_processors: self.processors,
            arrivals: self.arrivals_seen,
            utilization: if self.capacity_steps == 0 {
                0.0
            } else {
                self.completed_work as f64 / self.capacity_steps as f64
            },
        }
    }

    /// Hands the group's accumulated statistics to the merge.
    pub(crate) fn into_report(self) -> ShardReport {
        ShardReport {
            processors: self.processors,
            samples: self.samples,
            arrivals: self.arrivals_seen,
            completed_measured: self.completed_measured,
            completed_work: self.completed_work,
            quanta: self.engine.quanta(),
            horizon: self.engine.now(),
            jobs_in_system: self.engine.jobs_in_system() as u64,
            mean_jobs_in_system: self.detector.mean_jobs_in_system(),
            peak_jobs_in_system: self.detector.peak_jobs_in_system(),
            tripped: self.tripped,
        }
    }
}

/// Advances every group on a scoped-thread pool (static chunk
/// partition — groups are independent, so the schedule can never show
/// through) and returns once all of them have paused at the barrier.
fn advance_groups<A, F>(sims: &mut [GroupSim<A>], threads: usize, advance: F)
where
    A: Allocator + Send,
    F: Fn(&mut GroupSim<A>) + Sync,
{
    let n = sims.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        for sim in sims.iter_mut() {
            advance(sim);
        }
        return;
    }
    let chunk = n.div_ceil(threads);
    let advance = &advance;
    std::thread::scope(|scope| {
        for group_chunk in sims.chunks_mut(chunk) {
            scope.spawn(move || {
                for sim in group_chunk {
                    advance(sim);
                }
            });
        }
    });
}

/// Runs one hierarchical open-system simulation on the worker pool
/// sized by `ABG_THREADS` (see [`run_open_hierarchical_with_threads`]
/// for an explicit count).
///
/// `make_allocator` builds a group's *within-group* allocator from its
/// current capacity (called again whenever the top level resizes the
/// group); `make_executor` / `make_calculator` are the factories of
/// [`run_open_system`](crate::run_open_system); `group_alloc` is the
/// top-level policy consulted at every reallocation epoch. With
/// `groups = 1` this *is* [`run_open_system`](crate::run_open_system)
/// on `cfg.open` — the sum invariant forbids any capacity change, so
/// the top level is inert by construction.
///
/// # Panics
///
/// Panics on an inconsistent configuration (see
/// [`HierOpenConfig::validate`]) or a policy that violates the
/// partition invariants (wrong length, sum ≠ P, below the floor).
pub fn run_open_hierarchical<A, FA, E, C, G>(
    cfg: &HierOpenConfig,
    make_allocator: FA,
    make_executor: E,
    make_calculator: C,
    group_alloc: G,
) -> OpenOutcome
where
    A: Allocator + Send,
    FA: Fn(u32) -> A + Sync,
    E: Fn(&mut StdRng, Option<Box<dyn JobExecutor + Send>>) -> Box<dyn JobExecutor + Send> + Sync,
    C: Fn() -> Box<dyn RequestCalculator + Send> + Sync,
    G: GroupAllocator,
{
    run_open_hierarchical_with_threads(
        cfg,
        make_allocator,
        make_executor,
        make_calculator,
        group_alloc,
        pool_threads(),
    )
}

/// [`run_open_hierarchical`] with an explicit worker count. The
/// outcome is identical for every `threads` value by construction:
/// groups only interact at the epoch barrier, where desires are folded
/// in group-index order on the calling thread.
///
/// # Panics
///
/// Panics on an inconsistent configuration (see
/// [`HierOpenConfig::validate`]) or a policy that violates the
/// partition invariants (wrong length, sum ≠ P, below the floor).
pub fn run_open_hierarchical_with_threads<A, FA, E, C, G>(
    cfg: &HierOpenConfig,
    make_allocator: FA,
    make_executor: E,
    make_calculator: C,
    group_alloc: G,
    threads: usize,
) -> OpenOutcome
where
    A: Allocator + Send,
    FA: Fn(u32) -> A + Sync,
    E: Fn(&mut StdRng, Option<Box<dyn JobExecutor + Send>>) -> Box<dyn JobExecutor + Send> + Sync,
    C: Fn() -> Box<dyn RequestCalculator + Send> + Sync,
    G: GroupAllocator,
{
    run_open_hierarchical_detailed(
        cfg,
        make_allocator,
        make_executor,
        make_calculator,
        group_alloc,
        threads,
    )
    .0
}

/// [`run_open_hierarchical_with_threads`] returning the per-group
/// [`GroupSummary`] table alongside the merged outcome — the view the
/// skew experiments and examples use to show capacity following load.
///
/// # Panics
///
/// Panics on an inconsistent configuration (see
/// [`HierOpenConfig::validate`]) or a policy that violates the
/// partition invariants (wrong length, sum ≠ P, below the floor).
pub fn run_open_hierarchical_detailed<A, FA, E, C, G>(
    cfg: &HierOpenConfig,
    make_allocator: FA,
    make_executor: E,
    make_calculator: C,
    mut group_alloc: G,
    threads: usize,
) -> (OpenOutcome, Vec<GroupSummary>)
where
    A: Allocator + Send,
    FA: Fn(u32) -> A + Sync,
    E: Fn(&mut StdRng, Option<Box<dyn JobExecutor + Send>>) -> Box<dyn JobExecutor + Send> + Sync,
    C: Fn() -> Box<dyn RequestCalculator + Send> + Sync,
    G: GroupAllocator,
{
    cfg.assert_valid();
    if cfg.groups == 1 {
        // One group owns the whole machine forever: delegate verbatim
        // to the unsharded driver, bit-identical (same RNG stream,
        // same loop) — mirroring the sharded engine's `shards = 1`.
        let outcome = crate::driver::run_open_system(
            &cfg.open,
            make_allocator(cfg.open.processors),
            make_executor,
            make_calculator,
        );
        let (arrivals, utilization) = match &outcome {
            OpenOutcome::Steady(s) => (s.arrivals, s.measured_utilization),
            OpenOutcome::Unstable(u) => (u.arrivals, f64::NAN),
        };
        let summary = GroupSummary {
            group: 0,
            final_processors: cfg.open.processors,
            arrivals,
            utilization,
        };
        return (outcome, vec![summary]);
    }

    let sharded = cfg.as_sharded();
    let processors = cfg.open.processors;
    let mut caps: Vec<u32> = (0..cfg.groups)
        .map(|k| shard_processors(processors, cfg.groups, k))
        .collect();
    let mut sims: Vec<GroupSim<A>> = caps
        .iter()
        .enumerate()
        .map(|(k, &cap)| GroupSim::new(&sharded, k as u32, make_allocator(cap)))
        .collect();

    let epoch_steps = cfg.realloc_epoch.saturating_mul(cfg.open.quantum_len);
    let mut epoch: u64 = 1;
    loop {
        let until = epoch.saturating_mul(epoch_steps);
        advance_groups(&mut sims, threads, |sim| {
            sim.advance_until(&sharded, until, &make_executor, &make_calculator)
        });
        // Desire collection and reallocation happen on this thread, in
        // group-index order: the one serial point of each epoch.
        let desires: Vec<GroupDesire> = sims.iter_mut().map(GroupSim::fold_epoch).collect();
        if !sims.iter().any(GroupSim::is_running) {
            break;
        }
        let next = group_alloc.reallocate(processors, cfg.group_floor, &caps, &desires);
        assert_eq!(
            next.len(),
            cfg.groups as usize,
            "group allocator '{}' returned {} capacities for {} groups",
            group_alloc.name(),
            next.len(),
            cfg.groups
        );
        assert_eq!(
            next.iter().sum::<u32>(),
            processors,
            "group allocator '{}' must partition all {} processors: {next:?}",
            group_alloc.name(),
            processors
        );
        assert!(
            next.iter().all(|&cap| cap >= cfg.group_floor),
            "group allocator '{}' dropped below the floor {}: {next:?}",
            group_alloc.name(),
            cfg.group_floor
        );
        for (k, sim) in sims.iter_mut().enumerate() {
            if next[k] != caps[k] && sim.is_running() {
                sim.set_capacity(next[k], make_allocator(next[k]));
            }
        }
        caps = next;
        epoch += 1;
    }

    let capacity: f64 = sims.iter().map(|s| s.capacity_steps() as f64).sum();
    let summaries: Vec<GroupSummary> = sims
        .iter()
        .enumerate()
        .map(|(k, sim)| sim.summary(k as u32))
        .collect();
    let reports: Vec<ShardReport> = sims.into_iter().map(GroupSim::into_report).collect();
    (merge_reports(&cfg.open, &reports, capacity), summaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_open_system;
    use crate::saturation::SaturationConfig;
    use crate::shard::{route, run_open_sharded_with_threads};
    use abg_alloc::DynamicEquiPartition;
    use abg_control::{AControl, ConservativeTwoLevel, DesireProportional, StaticEqui};
    use abg_dag::PhasedJob;
    use abg_sched::PipelinedExecutor;
    use abg_workload::{mean_gap_for_utilization, ArrivalProcess};

    fn config(rho: f64, groups: u32, routing: ShardRouting, realloc_epoch: u64) -> HierOpenConfig {
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
            realloc_epoch,
            group_floor: 1,
        }
    }

    fn run<G: GroupAllocator>(cfg: &HierOpenConfig, policy: G, threads: usize) -> OpenOutcome {
        run_open_hierarchical_with_threads(
            cfg,
            DynamicEquiPartition::new,
            |_rng, _recycled| Box::new(PipelinedExecutor::new(PhasedJob::constant(2, 40))),
            || Box::new(AControl::new(0.2)),
            policy,
            threads,
        )
    }

    fn run_sharded(cfg: &HierOpenConfig, threads: usize) -> OpenOutcome {
        run_open_sharded_with_threads(
            &cfg.as_sharded(),
            DynamicEquiPartition::new,
            |_rng, _recycled| Box::new(PipelinedExecutor::new(PhasedJob::constant(2, 40))),
            || Box::new(AControl::new(0.2)),
            threads,
        )
    }

    #[test]
    fn static_equi_is_bit_identical_to_the_sharded_engine() {
        // The compatibility anchor, at the module level: a top level
        // that never resizes anyone must leave every group's
        // simulation — and thus the merged outcome — bit-identical to
        // the fixed-partition sharded engine, whatever the epoch
        // length slices the groups' loops into.
        for groups in [2u32, 4, 8] {
            let baseline = run_sharded(&config(0.5, groups, ShardRouting::RoundRobin, 1), 1);
            for realloc_epoch in [1u64, 8, 64, 1000] {
                let cfg = config(0.5, groups, ShardRouting::RoundRobin, realloc_epoch);
                assert_eq!(
                    run(&cfg, StaticEqui, 1),
                    baseline,
                    "groups={groups} epoch={realloc_epoch}"
                );
            }
        }
    }

    #[test]
    fn one_group_delegates_to_the_unsharded_driver() {
        let cfg = config(0.5, 1, ShardRouting::RoundRobin, 16);
        let direct = run_open_system(
            &cfg.open,
            DynamicEquiPartition::new(cfg.open.processors),
            |_rng, _recycled| Box::new(PipelinedExecutor::new(PhasedJob::constant(2, 40))),
            || Box::new(AControl::new(0.2)),
        );
        assert_eq!(run(&cfg, DesireProportional::new(), 1), direct);
    }

    #[test]
    fn outcome_is_independent_of_thread_count_and_schedule() {
        for routing in [ShardRouting::RoundRobin, ShardRouting::Skewed { hot: 4 }] {
            let cfg = config(0.35, 4, routing, 16);
            let baseline = run(&cfg, DesireProportional::new(), 1);
            for threads in 2..=8 {
                assert_eq!(
                    run(&cfg, DesireProportional::new(), threads),
                    baseline,
                    "{routing:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn skewed_routing_concentrates_arrivals_on_group_zero() {
        let cfg = config(0.5, 4, ShardRouting::Skewed { hot: 4 }, 16).as_sharded();
        // Cycle of hot + shards - 1 = 7: four arrivals to group 0,
        // then one each to groups 1..3 — an exact 4:1:1:1 split.
        let groups: Vec<u32> = (0..14).map(|g| route(&cfg, g)).collect();
        assert_eq!(groups, vec![0, 0, 0, 0, 1, 2, 3, 0, 0, 0, 0, 1, 2, 3]);
        // Every measured arrival lands on exactly one group.
        let assigned: u64 = (0..4).map(|k| measured_assigned(&cfg, k)).sum();
        assert_eq!(assigned, cfg.open.measured_jobs);
        let hot = measured_assigned(&cfg, 0);
        assert!(
            hot * 2 > assigned,
            "hot group got {hot} of {assigned} measured arrivals"
        );
    }

    #[test]
    fn desire_feedback_beats_static_partitioning_under_skew() {
        // 4:1 skew at aggregate rho = 0.35: group 0's local load under
        // the fixed equi-partition is 0.35 * 16/7 = 0.8 (queued but
        // stable), while desire-proportional rebalances capacity until
        // every group's local load is back near 0.35. Mean response
        // must improve; both runs must stay steady.
        let cfg = config(0.35, 4, ShardRouting::Skewed { hot: 4 }, 16);
        let stat = run(&cfg, StaticEqui, 2);
        let desire = run(&cfg, DesireProportional::new(), 2);
        let stat = stat.steady().expect("static stays stable at 0.8 local");
        let desire = desire.steady().expect("desire must remain stable");
        assert!(
            desire.response.mean < stat.response.mean,
            "desire {} !< static {}",
            desire.response.mean,
            stat.response.mean
        );
    }

    #[test]
    fn group_summaries_show_capacity_following_load() {
        let cfg = config(0.35, 4, ShardRouting::Skewed { hot: 4 }, 16);
        let (outcome, groups) = run_open_hierarchical_detailed(
            &cfg,
            DynamicEquiPartition::new,
            |_rng, _recycled| Box::new(PipelinedExecutor::new(PhasedJob::constant(2, 40))),
            || Box::new(AControl::new(0.2)),
            DesireProportional::new(),
            1,
        );
        assert!(outcome.is_steady());
        assert_eq!(groups.len(), 4);
        assert_eq!(groups.iter().map(|g| g.final_processors).sum::<u32>(), 16);
        // The hot group sees ~4x the arrivals of any other group, and
        // the feedback loop should have granted it extra capacity.
        assert!(groups[0].arrivals > groups[1].arrivals);
        assert!(
            groups[0].final_processors > 4,
            "hot group ended at {} processors",
            groups[0].final_processors
        );
        for g in &groups {
            assert!(g.utilization.is_finite() && g.utilization >= 0.0);
        }
    }

    #[test]
    fn conservative_policy_stays_steady_and_deterministic() {
        let cfg = config(0.35, 4, ShardRouting::Skewed { hot: 4 }, 16);
        let a = run(&cfg, ConservativeTwoLevel::new(2.0, 0.8), 1);
        let b = run(&cfg, ConservativeTwoLevel::new(2.0, 0.8), 4);
        assert_eq!(a, b);
        assert!(a.is_steady(), "conservative policy tripped: {a:?}");
    }

    #[test]
    fn validate_reports_typed_hier_errors() {
        let mut cfg = config(0.5, 0, ShardRouting::RoundRobin, 16);
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroGroups));
        assert_eq!(
            cfg.validate().unwrap_err().to_string(),
            "need at least one processor group"
        );
        cfg.groups = 4;
        cfg.realloc_epoch = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::BadReallocEpoch));
        assert_eq!(
            cfg.validate().unwrap_err().to_string(),
            "need a positive reallocation epoch"
        );
        cfg.realloc_epoch = 16;
        cfg.group_floor = 5;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::BadGroupFloor {
                floor: 5,
                processors: 16,
                groups: 4
            })
        );
        assert_eq!(
            cfg.validate().unwrap_err().to_string(),
            "per-group floor must be between 1 and P/G (5 with 16 processors over 4 groups)"
        );
        cfg.group_floor = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadGroupFloor { floor: 0, .. })
        ));
        // More groups than processors is a floor violation too.
        cfg.group_floor = 1;
        cfg.groups = 17;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadGroupFloor { .. })
        ));
        cfg.groups = 4;
        assert_eq!(cfg.validate(), Ok(()));
        // Aggregate-config violations surface through the same path.
        cfg.open.batches = 1;
        assert_eq!(cfg.validate(), Err(ConfigError::TooFewBatches));
        cfg.open.quantum_len = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroQuantum));
    }

    #[test]
    #[should_panic(expected = "need a positive reallocation epoch")]
    fn zero_epoch_fails_fast_in_the_driver() {
        let cfg = config(0.5, 4, ShardRouting::RoundRobin, 0);
        let _ = run(&cfg, StaticEqui, 1);
    }
}
