//! Hierarchical two-level scheduling, and the one open-system event
//! loop every entry point runs.
//!
//! A fixed partition gives each processor group `P/G` processors
//! forever; under skewed arrivals one group drowns while its neighbors
//! idle. This module adds the missing layer of the hierarchical
//! schemes for malleable jobs (Cao–Sun–Qian–Wu's desire-feedback
//! partitioning, with the policy made pluggable in the spirit of the
//! control-theoretic framing): each group runs its own
//! [`QuantumCore`] + [`SaturationDetector`] and reports a per-epoch
//! **group desire** — aggregated job requests, in-system population,
//! and served utilization — to a top-level [`GroupAllocator`] that
//! recomputes every group's capacity at fixed reallocation epochs. The
//! fixed partition is the top level that never resizes:
//! [`StaticEqui`](abg_control::StaticEqui) over `G` groups.
//!
//! **One loop.** `GroupSim` is the only open-system event loop in the
//! crate: admit due arrivals → fast-forward an idle machine → step one
//! quantum → record completions → macro-step frozen quanta, with one
//! saturation/budget trip check and one outcome assembly
//! (`merge_reports`) behind it. There are two entry points:
//!
//! * [`run_open_system`](crate::run_open_system) runs one group with
//!   the caller's probe to `until = u64::MAX`;
//! * [`run_open_hierarchical`] runs `G` groups through the epoch loop
//!   below, consulting its top-level policy at every barrier.
//!
//! Nothing delegates: `groups = 1` is the one-group case of the same
//! loop. What a group's arrivals come from follows from the group count
//! alone. One group draws gaps and job structures from one RNG seeded
//! with the run seed, straight from its [`ArrivalStream`]. `G ≥ 2` groups
//! each replay the shared router path and draw each job from its own
//! per-arrival seed (see [`shard`](crate::shard)). With one group the
//! sum invariant pins the capacity at `P`, which makes the slowdown
//! denominator `P`: bit-identical to the reference driver.
//!
//! **Execution model.** The driver advances all groups in lockstep
//! over reallocation epochs of `realloc_epoch` quanta, on the calling
//! thread. Within an epoch each group in turn, in group-index order,
//! runs the event-driven loop and pauses at the first quantum boundary
//! at or after the epoch edge — the *epoch invariant*: capacity changes
//! take effect at quantum granularity, never inside a quantum. At the
//! barrier the driver folds every group's desire in group-index order,
//! asks the policy for the next partition, and swaps each resized
//! group's allocator in place. Parallelism lives one level up: the
//! sweep harness runs whole (ρ, scheduler) cells on its worker pool.
//!
//! **Determinism.** Arrivals replay the shared router path, job
//! structures are keyed by global arrival index, and groups interact
//! only at the barrier — the outcome is a pure function of the
//! configuration, whichever thread runs it. Epoch segmentation itself
//! is invisible to a group that is never resized: frozen windows may
//! be split at any quantum boundary
//! ([`advance_frozen`](QuantumCore::advance_frozen) is bit-equivalent
//! to stepping, and two detector `record_n` calls of one count over
//! `a` and `b` quanta store the same single run as one call over
//! `a + b`), and an idle group *pauses* at the epoch edge rather
//! than capping its idle skip (a capped skip plus a later one could
//! land a full quantum later than the single direct skip). That is why
//! [`StaticEqui`](abg_control::StaticEqui) — which never resizes
//! anyone — gives the same outcome whatever the epoch length (a caller
//! that knows its partition cannot change may as well pass
//! `realloc_epoch = u64::MAX` and skip the barriers), and why one group
//! under any policy matches the unsharded reference bit-for-bit.

use crate::driver::{ConfigError, OpenConfig, OpenOutcome};
use crate::events::frozen_window_bound;
use crate::saturation::{SaturationDetector, SaturationReason};
use crate::shard::{
    job_seed, measured_assigned, merge_reports, ShardArrivals, ShardReport, ShardRouting,
};
use abg_alloc::Allocator;
use abg_control::{equi_partition, Controller, GroupAllocator, GroupDesire};
use abg_sched::JobExecutor;
use abg_sim::{CompletedJob, NullProbe, Probe, QuantumCore};
use abg_workload::ArrivalStream;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of an open-system run over `G` processor groups: the
/// aggregate run, the group count and arrival routing, and the top
/// level's reallocation cadence and capacity floor. A fixed partition
/// is this configuration under [`StaticEqui`](abg_control::StaticEqui).
#[derive(Debug, Clone, PartialEq)]
pub struct HierOpenConfig {
    /// The aggregate open-system configuration (total machine size,
    /// aggregate arrival process and measurement window; `max_quanta`
    /// and the saturation tuning apply per group).
    pub open: OpenConfig,
    /// Processor groups `G` under the top-level allocator.
    pub groups: u32,
    /// The arrival-routing policy.
    pub routing: ShardRouting,
    /// Reallocation epoch in quanta: the top-level allocator runs at
    /// every multiple of `realloc_epoch * quantum_len` steps
    /// (`u64::MAX`: one unbounded epoch, so the policy never runs).
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
}

/// Per-group accounting of one hierarchical run: where the top level
/// left each group's capacity and how the group spent it. The merged
/// [`OpenOutcome`] aggregates across groups; this is the view that
/// shows the reallocation at work (a hot group under skewed routing
/// should end with more processors and every group's served
/// utilization should level out).
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
enum GroupStatus {
    /// Paused at an epoch edge with work (or arrivals) still pending.
    Running,
    /// Every measured arrival routed to this group has completed.
    Finished,
    /// The group's detector (or quanta budget) declared it unstable.
    Tripped(SaturationReason),
}

/// Where a group's arrivals and job structures come from.
/// [`GroupSim::new`] picks the variant from the group count.
enum ArrivalSource {
    /// One group owns the machine: one RNG seeded from the run seed
    /// draws the arrival gaps and every job structure, interleaved
    /// gap/job/gap… one arrival at a time — the order the pinned
    /// unsharded fingerprints depend on. Every arrival is admitted
    /// here, so the admission id is the global index.
    Stream {
        stream: ArrivalStream,
        rng: StdRng,
        /// Arrivals drawn so far: the global index of the next one.
        drawn: u64,
    },
    /// `G ≥ 2` groups: a replay of the shared aggregate path that keeps
    /// the arrivals routed to this group. Each job structure is drawn
    /// from its arrival's own [`job_seed`] RNG, so the population is
    /// identical across group counts and routings.
    Routed {
        router: ShardArrivals,
        /// Local admission id → global arrival index.
        globals: Vec<u64>,
    },
}

impl ArrivalSource {
    fn new(cfg: &HierOpenConfig, group: u32) -> Self {
        if cfg.groups == 1 {
            ArrivalSource::Stream {
                stream: cfg.open.arrivals.stream(),
                rng: StdRng::seed_from_u64(cfg.open.seed),
                drawn: 0,
            }
        } else {
            ArrivalSource::Routed {
                router: ShardArrivals::new(cfg, group),
                globals: Vec::new(),
            }
        }
    }

    /// The next arrival of this group as `(global index, time)`.
    fn next(&mut self, cfg: &HierOpenConfig) -> (u64, u64) {
        match self {
            ArrivalSource::Stream { stream, rng, drawn } => {
                let global = *drawn;
                *drawn += 1;
                (global, stream.next_arrival(rng))
            }
            ArrivalSource::Routed { router, .. } => router.next(cfg),
        }
    }

    /// Builds the executor of global arrival `global`, which the caller
    /// admits next.
    fn build<E>(
        &mut self,
        seed: u64,
        global: u64,
        recycled: Option<Box<dyn JobExecutor + Send>>,
        make_executor: &mut E,
    ) -> Box<dyn JobExecutor + Send>
    where
        E: FnMut(&mut StdRng, Option<Box<dyn JobExecutor + Send>>) -> Box<dyn JobExecutor + Send>,
    {
        match self {
            ArrivalSource::Stream { rng, .. } => make_executor(rng, recycled),
            ArrivalSource::Routed { globals, .. } => {
                globals.push(global);
                make_executor(&mut StdRng::seed_from_u64(job_seed(seed, global)), recycled)
            }
        }
    }

    /// The global arrival index of the job admitted with local id `id`.
    fn global(&self, id: u64) -> u64 {
        match self {
            ArrivalSource::Stream { .. } => id,
            ArrivalSource::Routed { globals, .. } => globals[id as usize],
        }
    }
}

/// One resumable per-group open-system simulation — the one
/// event-driven loop behind every open-system entry point, pausable at
/// any quantum boundary so a top-level allocator can resize the group
/// between epochs.
///
/// [`run_open_system_probed`](crate::run_open_system_probed) runs a
/// single group with the caller's probe to `until = u64::MAX`, which
/// disables every pause point; a fixed partition is the hierarchical
/// driver with one unbounded epoch, so its equivalence to any epoch
/// length under a never-resizing policy is structural, not
/// coincidental.
pub(crate) struct GroupSim<A: Allocator, P: Probe> {
    /// Current capacity (processors owned by this group).
    processors: u32,
    engine: QuantumCore<Box<dyn JobExecutor + Send>, Box<dyn Controller + Send>, A, P>,
    detector: SaturationDetector,
    source: ArrivalSource,
    /// Measured arrivals routed here that have not completed yet.
    outstanding: u64,
    /// Executors handed back by the engine when their jobs drained,
    /// offered to the factory one per admission (LIFO — the hottest
    /// buffers first). Bounded by the peak in-system job count.
    pool: Vec<Box<dyn JobExecutor + Send>>,
    done: Vec<CompletedJob>,
    next_global: u64,
    next_time: u64,
    status: GroupStatus,
    samples: Vec<(u64, f64, f64)>,
    arrivals_seen: u64,
    completed_measured: u64,
    completed_work: u64,
    /// Integral of capacity over simulated time, folded at each epoch
    /// barrier — the group's contribution to the merged utilization
    /// denominator. `P · now` passes `u64::MAX` on long horizons the
    /// config accepts; in `u128` it cannot overflow (`P < 2³²`).
    capacity_steps: u128,
    accounted_now: u64,
    accounted_work: u64,
}

impl<A: Allocator, P: Probe> GroupSim<A, P> {
    /// A fresh simulation of group `group` at capacity `processors`.
    /// A group with no measured arrivals routed to it starts (and
    /// stays) finished — it could not influence any merged statistic.
    pub(crate) fn new(
        cfg: &HierOpenConfig,
        group: u32,
        processors: u32,
        allocator: A,
        probe: P,
    ) -> Self {
        let open = &cfg.open;
        let assigned = measured_assigned(cfg, group);
        let mut source = ArrivalSource::new(cfg, group);
        let engine = QuantumCore::new(allocator, open.quantum_len, probe);
        let detector = SaturationDetector::new(open.saturation);
        let (status, next_global, next_time) = if assigned == 0 {
            (GroupStatus::Finished, 0, 0)
        } else {
            let (global, time) = source.next(cfg);
            (GroupStatus::Running, global, time)
        };
        Self {
            processors,
            engine,
            detector,
            source,
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
    /// comes first). `until = u64::MAX` never pauses.
    ///
    /// Each round admits every arrival due at the current boundary,
    /// fast-forwards an empty system to the next arrival, steps one
    /// real quantum, records its completions, and then macro-steps the
    /// core across frozen quanta up to the next driver-level event.
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
        cfg: &HierOpenConfig,
        until: u64,
        make_executor: &mut E,
        make_calculator: &mut C,
    ) where
        E: FnMut(&mut StdRng, Option<Box<dyn JobExecutor + Send>>) -> Box<dyn JobExecutor + Send>,
        C: FnMut() -> Box<dyn Controller + Send>,
    {
        if !self.is_running() {
            return;
        }
        let open = &cfg.open;
        let warmup = open.warmup_jobs;
        let measured = open.measured_jobs;

        loop {
            while self.next_time <= self.engine.now() {
                let executor =
                    self.source
                        .build(open.seed, self.next_global, self.pool.pop(), make_executor);
                let id = self
                    .engine
                    .admit(executor, make_calculator(), self.next_time);
                debug_assert_eq!(self.source.global(id), self.next_global);
                self.arrivals_seen += 1;
                (self.next_global, self.next_time) = self.source.next(cfg);
            }
            if !self.engine.any_live() {
                if self.next_time > until {
                    return; // Paused idle at the epoch edge.
                }
                if !self.engine.skip_idle_until(self.next_time) {
                    // The next arrival lies past the clock horizon.
                    self.status = GroupStatus::Tripped(SaturationReason::HorizonExhausted {
                        quanta: self.engine.quanta(),
                    });
                    return;
                }
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
                let global = self.source.global(job.id);
                if global < warmup || global >= warmup + measured {
                    continue;
                }
                let response = job.response_time() as f64;
                // Solo lower bound on response against the group's
                // *current* machine: the job cannot beat its span nor
                // perfect speedup on the processors its group owns at
                // completion time (P for a single group).
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
            if self.trip(open) {
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
                if self.trip(open) {
                    return;
                }
            }
        }
    }

    /// Evaluates the saturation detector, then the quanta budget, and
    /// marks the group tripped on a verdict. Evaluated after every real
    /// quantum and every frozen window: windows end exactly on
    /// trend-evaluation and budget edges, so once per window sees what
    /// per-quantum evaluation would have seen.
    fn trip(&mut self, open: &OpenConfig) -> bool {
        let reason = self.detector.check().or_else(|| {
            (self.engine.quanta() >= open.max_quanta).then_some(
                SaturationReason::HorizonExhausted {
                    quanta: open.max_quanta,
                },
            )
        });
        if let Some(reason) = reason {
            self.status = GroupStatus::Tripped(reason);
        }
        reason.is_some()
    }

    /// Folds the time since the last fold into the capacity integral
    /// and returns the stretch's `(elapsed steps, completed work)`.
    fn fold_capacity(&mut self) -> (u64, u64) {
        let now = self.engine.now();
        let elapsed = now - self.accounted_now;
        self.capacity_steps += u128::from(self.processors) * u128::from(elapsed);
        let work = self.completed_work - self.accounted_work;
        self.accounted_now = now;
        self.accounted_work = self.completed_work;
        (elapsed, work)
    }

    /// Folds the epoch that just ended into the capacity integral and
    /// returns the group's desire report: standing request sum and
    /// population at the barrier, and the fraction of the epoch's
    /// capacity spent on completed work. Finished and tripped groups
    /// report zero desire — granting them capacity would waste it.
    pub(crate) fn fold_epoch(&mut self) -> GroupDesire {
        let (elapsed, work) = self.fold_capacity();
        let utilization = if elapsed == 0 {
            0.0
        } else {
            work as f64 / (self.processors as f64 * elapsed as f64)
        };
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

    /// Hands the group's accumulated statistics to the merge, together
    /// with its probe.
    pub(crate) fn into_report(mut self) -> (ShardReport, P) {
        self.fold_capacity();
        let report = ShardReport {
            samples: self.samples,
            arrivals: self.arrivals_seen,
            completed_measured: self.completed_measured,
            completed_work: self.completed_work,
            capacity_steps: self.capacity_steps,
            quanta: self.engine.quanta(),
            horizon: self.engine.now(),
            jobs_in_system: self.engine.jobs_in_system() as u64,
            mean_jobs_in_system: self.detector.mean_jobs_in_system(),
            peak_jobs_in_system: self.detector.peak_jobs_in_system(),
            tripped: match self.status {
                GroupStatus::Tripped(reason) => Some(reason),
                GroupStatus::Running | GroupStatus::Finished => None,
            },
        };
        (report, self.engine.into_probe())
    }
}

/// Runs one hierarchical open-system simulation on the calling
/// thread: each epoch advances the groups in group-index order, and
/// groups only interact at the epoch barrier.
///
/// `make_allocator` builds a group's *within-group* allocator from its
/// current capacity (called again whenever the top level resizes the
/// group); `make_executor` / `make_calculator` are the factories of
/// [`run_open_system`](crate::run_open_system); `group_alloc` is the
/// top-level policy consulted at every reallocation epoch. With
/// `groups = 1` the sum invariant forbids any capacity change, so the
/// top level is inert and the outcome equals
/// [`run_open_system`](crate::run_open_system) on `cfg.open`.
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
    A: Allocator,
    FA: FnMut(u32) -> A,
    E: FnMut(&mut StdRng, Option<Box<dyn JobExecutor + Send>>) -> Box<dyn JobExecutor + Send>,
    C: FnMut() -> Box<dyn Controller + Send>,
    G: GroupAllocator,
{
    run_open_hierarchical_detailed(
        cfg,
        make_allocator,
        make_executor,
        make_calculator,
        group_alloc,
    )
    .0
}

/// [`run_open_hierarchical`] under its former name. The `threads`
/// argument is ignored: the driver always runs on the calling thread.
/// Kept only for the `perfbench` package's workloads; it goes with the
/// next change to the benchmark.
#[doc(hidden)]
pub fn run_open_hierarchical_with_threads<A, FA, E, C, G>(
    cfg: &HierOpenConfig,
    make_allocator: FA,
    make_executor: E,
    make_calculator: C,
    group_alloc: G,
    _threads: usize,
) -> OpenOutcome
where
    A: Allocator,
    FA: FnMut(u32) -> A,
    E: FnMut(&mut StdRng, Option<Box<dyn JobExecutor + Send>>) -> Box<dyn JobExecutor + Send>,
    C: FnMut() -> Box<dyn Controller + Send>,
    G: GroupAllocator,
{
    run_open_hierarchical(
        cfg,
        make_allocator,
        make_executor,
        make_calculator,
        group_alloc,
    )
}

/// [`run_open_hierarchical`] returning the per-group [`GroupSummary`]
/// table alongside the merged outcome — the view the skew experiments
/// and examples use to show capacity following load.
///
/// # Panics
///
/// Panics on an inconsistent configuration (see
/// [`HierOpenConfig::validate`]) or a policy that violates the
/// partition invariants (wrong length, sum ≠ P, below the floor).
pub fn run_open_hierarchical_detailed<A, FA, E, C, G>(
    cfg: &HierOpenConfig,
    mut make_allocator: FA,
    mut make_executor: E,
    mut make_calculator: C,
    mut group_alloc: G,
) -> (OpenOutcome, Vec<GroupSummary>)
where
    A: Allocator,
    FA: FnMut(u32) -> A,
    E: FnMut(&mut StdRng, Option<Box<dyn JobExecutor + Send>>) -> Box<dyn JobExecutor + Send>,
    C: FnMut() -> Box<dyn Controller + Send>,
    G: GroupAllocator,
{
    cfg.assert_valid();
    let processors = cfg.open.processors;
    let mut caps = equi_partition(processors, cfg.groups);
    let mut sims: Vec<GroupSim<A, NullProbe>> = caps
        .iter()
        .enumerate()
        .map(|(k, &cap)| GroupSim::new(cfg, k as u32, cap, make_allocator(cap), NullProbe))
        .collect();

    // Both products saturate: a fixed partition runs with
    // `realloc_epoch = u64::MAX`, which must become one unbounded epoch
    // (`until = u64::MAX`) in which every group runs to its end.
    let epoch_steps = cfg.realloc_epoch.saturating_mul(cfg.open.quantum_len);
    let mut epoch: u64 = 1;
    loop {
        let until = epoch.saturating_mul(epoch_steps);
        for sim in &mut sims {
            sim.advance_until(cfg, until, &mut make_executor, &mut make_calculator);
        }
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

    let summaries: Vec<GroupSummary> = sims
        .iter()
        .enumerate()
        .map(|(k, sim)| sim.summary(k as u32))
        .collect();
    let reports: Vec<ShardReport> = sims.into_iter().map(|sim| sim.into_report().0).collect();
    (merge_reports(&cfg.open, &reports), summaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::assert_outcome_bits_eq;
    use crate::reference::ReferenceOpenDriver;
    use crate::saturation::SaturationConfig;
    use crate::shard::route;
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

    fn run<G: GroupAllocator>(cfg: &HierOpenConfig, policy: G) -> OpenOutcome {
        run_open_hierarchical(
            cfg,
            DynamicEquiPartition::new,
            |_rng, _recycled| Box::new(PipelinedExecutor::new(PhasedJob::constant(2, 40))),
            || Box::new(AControl::new(0.2)),
            policy,
        )
    }

    #[test]
    fn static_equi_is_invisible_at_every_epoch_length() {
        // A top level that never resizes anyone must leave every
        // group's simulation — and thus the merged outcome —
        // bit-identical to the fixed partition's one unbounded epoch,
        // whatever the epoch length slices the groups' loops into.
        for groups in [2u32, 4, 8] {
            let unbounded = config(0.5, groups, ShardRouting::RoundRobin, u64::MAX);
            let baseline = run(&unbounded, StaticEqui);
            assert!(baseline.is_steady(), "groups={groups}");
            for realloc_epoch in [1u64, 8, 64, 1000] {
                let cfg = config(0.5, groups, ShardRouting::RoundRobin, realloc_epoch);
                assert_eq!(
                    run(&cfg, StaticEqui),
                    baseline,
                    "groups={groups} epoch={realloc_epoch}"
                );
            }
        }
    }

    #[test]
    fn one_group_is_bit_identical_to_the_reference_driver() {
        // One group runs the unsharded arrival source through the epoch
        // loop; the sum invariant pins its capacity at P, so neither the
        // epoch length nor the policy may show in the outcome.
        let open = config(0.5, 1, ShardRouting::RoundRobin, 16).open;
        let reference = ReferenceOpenDriver::run(
            &open,
            DynamicEquiPartition::new(open.processors),
            |_rng, _recycled| Box::new(PipelinedExecutor::new(PhasedJob::constant(2, 40))),
            || Box::new(AControl::new(0.2)),
        );
        assert!(reference.is_steady());
        for realloc_epoch in [1u64, 16, 1000] {
            let cfg = config(0.5, 1, ShardRouting::RoundRobin, realloc_epoch);
            assert_outcome_bits_eq(&reference, &run(&cfg, DesireProportional::new()));
            assert_outcome_bits_eq(&reference, &run(&cfg, StaticEqui));
        }
    }

    #[test]
    fn overloaded_one_group_summary_reports_its_capacity_integral() {
        let cfg = config(1.5, 1, ShardRouting::RoundRobin, 16);
        let (outcome, groups) = run_open_hierarchical_detailed(
            &cfg,
            DynamicEquiPartition::new,
            |_rng, _recycled| Box::new(PipelinedExecutor::new(PhasedJob::constant(2, 40))),
            || Box::new(AControl::new(0.2)),
            DesireProportional::new(),
        );
        assert!(!outcome.is_steady(), "rho = 1.5 reported steady");
        assert_eq!(groups.len(), 1);
        let summary = groups[0];
        assert_eq!(summary.final_processors, cfg.open.processors);
        assert!(
            (0.0..=1.0).contains(&summary.utilization),
            "utilization {}",
            summary.utilization
        );
    }

    #[test]
    fn skewed_routing_concentrates_arrivals_on_group_zero() {
        let cfg = config(0.5, 4, ShardRouting::Skewed { hot: 4 }, 16);
        // Cycle of hot + groups - 1 = 7: four arrivals to group 0,
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
        let stat = run(&cfg, StaticEqui);
        let desire = run(&cfg, DesireProportional::new());
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
        let a = run(&cfg, ConservativeTwoLevel::new(2.0, 0.8));
        let b = run(&cfg, ConservativeTwoLevel::new(2.0, 0.8));
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
        cfg.open.max_quanta = u64::MAX;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::HorizonOverflow { .. })
        ));
        cfg.open.batches = 1;
        assert_eq!(cfg.validate(), Err(ConfigError::TooFewBatches));
        cfg.open.quantum_len = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroQuantum));
    }

    #[test]
    #[should_panic(expected = "need a positive reallocation epoch")]
    fn zero_epoch_fails_fast_in_the_driver() {
        let cfg = config(0.5, 4, ShardRouting::RoundRobin, 0);
        let _ = run(&cfg, StaticEqui);
    }
}
