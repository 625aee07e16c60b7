//! The one generic quantum core behind every simulation driver.
//!
//! The paper's single-job runs, the adaptive-quantum variant, the
//! closed multiprogrammed sets and the open-system arrival stream are
//! all the *same* two-level loop — at every quantum boundary each live
//! job's controller reports `d(q)`, the OS allocator grants
//! `a(q) = min(ceil d(q), p(q))`, and each job's task scheduler burns
//! the quantum and measures the statistics that drive the feedback.
//! [`QuantumCore`] is that loop, written once and made generic over all
//! four roles:
//!
//! * `E`: the per-job task scheduler ([`JobExecutor`]) — a concrete
//!   executor for monomorphized single-job runs, `Box<dyn JobExecutor +
//!   Send>` for heterogeneous job sets;
//! * `C`: the per-job [`Controller`] — request feedback plus an
//!   optional say in the quantum length (paced controllers);
//! * `A`: the machine-wide [`Allocator`];
//! * `P`: a [`Probe`](crate::Probe) observing the loop —
//!   [`NullProbe`](crate::NullProbe) compiles the instrumentation away
//!   entirely.
//!
//! The two public drivers — the closed [`MultiJobSim`](crate::MultiJobSim)
//! (a lone job is a one-job set) and `abg_queue`'s `run_open_system` —
//! are thin configurations of this core; the sweep/open fingerprint
//! suites pin each of them bit-identical to the pre-unification loops.
//!
//! Accounting rules (all preserved from the paper): time is
//! quantum-synchronous; a job released mid-quantum joins at the next
//! boundary; a job finishing mid-quantum holds its allotment to the
//! boundary (counted as waste); a quantum whose allotment differs from
//! the job's previous one burns
//! [`reallocation_overhead`](QuantumCore::with_reallocation_overhead)
//! steps off the front (held cycles count as waste). Each quantum runs
//! at the *minimum* length any live controller asks for, so paced and
//! fixed-quantum jobs can share a machine.
//!
//! The live set is one admission-ordered `Vec` of slab indices: each
//! quantum's requests reach the allocator in that order, which DEQ's
//! rotating tie-break depends on, and the last quantum's grant picture
//! is kept in arrays parallel to it for [frozen
//! windows](QuantumCore::advance_frozen).

use crate::trace::QuantumRecord;
use abg_alloc::{ceil_request, AllocationStability, Allocator};
use abg_control::Controller;
use abg_sched::{JobExecutor, QuantumStats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One admitted job inside the core.
///
/// Slots live in a slab: once admitted a job keeps its index until it
/// completes, so the live set and the finished list move only indices
/// and reclamation frees exactly the finished slots.
struct Slot<E, C> {
    id: u64,
    executor: E,
    controller: C,
    release_step: u64,
    request: f64,
    next_len: u64,
    waste: u64,
    quanta: u64,
    reallocations: u64,
    prev_allotment: Option<u32>,
}

/// A job drained from the core after completing, with everything a
/// driver needs to account for it: the one per-job result of every
/// driver, alone on the machine or in a set.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedJob {
    /// Admission-order identifier (0-based, monotone across the run).
    pub id: u64,
    /// Release (arrival) step as submitted.
    pub release: u64,
    /// Absolute completion step: partway into the final quantum, every
    /// earlier live quantum counting in full even at a zero allotment.
    pub completion: u64,
    /// Work `T1` of the job.
    pub work: u64,
    /// Critical-path length `T∞` of the job.
    pub span: u64,
    /// Processor cycles wasted on this job, `Σ_q (a(q)·L − T1(q))`: the
    /// job holds its allotment to each quantum boundary, so its final
    /// quantum can waste up to `a·L` (the paper's `P·L` term).
    pub waste: u64,
    /// Quanta in which the job was live (the last one counted even if
    /// cut short).
    pub quanta: u64,
    /// Quanta whose allotment differed from the job's previous one; each
    /// costs the core's
    /// [`reallocation_overhead`](QuantumCore::with_reallocation_overhead).
    pub reallocations: u64,
    /// Per-quantum trace (empty unless a trace-collecting probe filled
    /// it in, e.g. [`TraceProbe`](crate::TraceProbe)).
    pub trace: Vec<QuantumRecord>,
}

impl CompletedJob {
    /// Response time: completion minus release. For a job released at
    /// step 0 this is the paper's running time `T`.
    pub fn response_time(&self) -> u64 {
        self.completion - self.release
    }

    /// Speedup `T1 / T`.
    pub fn speedup(&self) -> f64 {
        self.work as f64 / self.response_time() as f64
    }

    /// Response time over the span, `T / T∞` (the paper's Figure 5(a)
    /// y-axis: in an unconstrained environment the critical path is the
    /// optimal running time).
    pub fn time_over_span(&self) -> f64 {
        self.response_time() as f64 / self.span as f64
    }

    /// Waste over work, `W / T1` (the paper's Figure 5(c) y-axis).
    pub fn waste_over_work(&self) -> f64 {
        self.waste as f64 / self.work as f64
    }
}

/// Estimated core-side bytes per in-system job for a core over executor
/// type `E` and controller type `C`: the job's slot, its pending-heap
/// entry and live index, plus its share of the per-live arrays of the
/// last quantum (requests, allotments, availabilities, stats, steadiness
/// flags). Heap state owned by the executor or controller themselves
/// (job structure, phase lists) is *not* counted — for boxed jobs this
/// is the footprint of the core's bookkeeping, not of the job. The bench
/// harness reports this next to the peak in-system population as the
/// memory-scale figure of the open kernels.
pub fn live_job_footprint<E, C>() -> usize {
    use std::mem::size_of;
    size_of::<Option<Slot<E, C>>>()      // slab slot
        + size_of::<(u64, u64, usize)>() // pending-release heap entry
        + size_of::<usize>()             // live index
        + size_of::<f64>()               // request
        + size_of::<u32>() * 2           // allotment + availability
        + size_of::<QuantumStats>()      // cached last-quantum stats
        + size_of::<bool>() // steadiness flag
}

/// The generic quantum-synchronous stepping core: a machine-wide
/// allocator, a set of in-system jobs (each an executor + controller
/// pair), a probe, and one explicit-step API.
///
/// Drivers call [`admit`](QuantumCore::admit) whenever a job enters the
/// system and [`step_quantum`](QuantumCore::step_quantum) once per
/// quantum; completed jobs are moved out into the caller's buffer, so
/// the core only ever holds the jobs currently in the system.
///
/// In-system jobs sit in a slab: slots never move and freed indices go
/// on a free list for the next admission. The live set —
/// released-but-unfinished jobs — is one `Vec` of slab indices in
/// admission order, the order every allocation sees; a release inserts
/// at its admission-order position (almost always the end) and a
/// quantum with completions runs one `retain` over it.
/// Admitted-but-not-yet-released jobs wait in a release-ordered heap. A
/// quantum therefore costs `O(live jobs)`, independent of how many
/// pending jobs the system holds — the regime where the whole arrival
/// calendar is admitted up front stays cheap.
pub struct QuantumCore<E, C, A, P> {
    allocator: A,
    probe: P,
    default_len: u64,
    now: u64,
    quanta: u64,
    reallocation_overhead: u64,
    next_id: u64,
    // Slab storage: `slots[i]` is `None` while `i` is on the free list.
    slots: Vec<Option<Slot<E, C>>>,
    free: Vec<usize>,
    // The live set in admission (id) order, and the pending-release
    // min-heap keyed on `(release_step, id)`.
    live: Vec<usize>,
    pending: BinaryHeap<Reverse<(u64, u64, usize)>>,
    // The last quantum's per-live arrays, parallel to `live` until it
    // changes, reused across quanta: the steady-state loop does no heap
    // allocation beyond executor internals.
    requests: Vec<f64>,
    allotments: Vec<u32>,
    availabilities: Vec<u32>,
    last_stats: Vec<QuantumStats>,
    // Jobs that finished this quantum, with their completion steps.
    finished: Vec<(usize, u64)>,
    // The certified frozen window's length (see `advance_frozen`): set
    // only by the certifying step, cleared by anything that changes
    // `live`. With it: the executors' minimum lookahead and each
    // controller's `is_steady` flag.
    frozen_len: Option<u64>,
    frozen_lookahead: u64,
    last_have_avail: bool,
    steady: Vec<bool>,
}

impl<E, C, A, P> QuantumCore<E, C, A, P>
where
    E: JobExecutor,
    C: Controller,
    A: Allocator,
    P: crate::Probe,
{
    /// Creates a core over the given allocator, default quantum length
    /// and probe. Controllers may shorten or lengthen individual quanta
    /// via [`Controller::next_quantum_len`]; `quantum_len` is the
    /// default they are offered and the grid idle skips land on.
    ///
    /// # Panics
    ///
    /// Panics if `quantum_len == 0`.
    pub fn new(allocator: A, quantum_len: u64, probe: P) -> Self {
        assert!(quantum_len > 0, "quantum length must be positive");
        Self {
            allocator,
            probe,
            default_len: quantum_len,
            now: 0,
            quanta: 0,
            reallocation_overhead: 0,
            next_id: 0,
            slots: Vec::new(),
            free: Vec::new(),
            live: Vec::new(),
            pending: BinaryHeap::new(),
            requests: Vec::new(),
            allotments: Vec::new(),
            availabilities: Vec::new(),
            last_stats: Vec::new(),
            finished: Vec::new(),
            frozen_len: None,
            frozen_lookahead: 0,
            last_have_avail: false,
            steady: Vec::new(),
        }
    }

    /// Charges this many steps off the front of every quantum whose
    /// allotment differs from the job's previous one (capped at the
    /// quantum length); the held cycles count as waste.
    pub fn with_reallocation_overhead(mut self, steps: u64) -> Self {
        self.reallocation_overhead = steps;
        self
    }

    /// Admits a job released at `release_step`, returning its admission
    /// id. The job participates from the first quantum boundary at or
    /// after its release.
    pub fn admit(&mut self, executor: E, controller: C, release_step: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        // The cached quantum no longer describes the full job set.
        self.frozen_len = None;
        let request = controller.initial_request();
        let next_len = controller.initial_quantum_len(self.default_len);
        let slot = Slot {
            id,
            executor,
            controller,
            release_step,
            request,
            next_len,
            waste: 0,
            quanta: 0,
            reallocations: 0,
            prev_allotment: None,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        if release_step <= self.now {
            self.insert_live(idx);
        } else {
            self.pending.push(Reverse((release_step, id, idx)));
        }
        id
    }

    fn slot(&self, idx: usize) -> &Slot<E, C> {
        self.slots[idx].as_ref().expect("freed slab slot")
    }

    /// Inserts `idx` into the live set at its admission-order position —
    /// almost always the end, since a job released now is usually the
    /// youngest live one. The live set keys the frozen-quantum cache, so
    /// the cache goes.
    fn insert_live(&mut self, idx: usize) {
        let id = self.slot(idx).id;
        let at = self.live.partition_point(|&j| self.slot(j).id < id);
        self.live.insert(at, idx);
        self.frozen_len = None;
    }

    /// Moves every pending job whose release step has been reached into
    /// the live set — called whenever the clock advances, so the live
    /// set always holds exactly the jobs live at the current boundary.
    fn process_releases(&mut self) {
        while let Some(&Reverse((release, _, idx))) = self.pending.peek() {
            if release > self.now {
                break;
            }
            self.pending.pop();
            self.insert_live(idx);
        }
    }

    /// The current quantum boundary (absolute step).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Quanta executed so far (idle skips do not count).
    pub fn quanta(&self) -> u64 {
        self.quanta
    }

    /// The default quantum length `L`.
    pub fn quantum_len(&self) -> u64 {
        self.default_len
    }

    /// Jobs currently in the system (released or pending release).
    pub fn jobs_in_system(&self) -> usize {
        self.live.len() + self.pending.len()
    }

    /// The length of the certified frozen window, if one is open: the
    /// last quantum was stepped by
    /// [`step_quantum_reclaiming`](QuantumCore::step_quantum_reclaiming),
    /// which certified that replaying it is bit-equivalent to stepping,
    /// and nothing has thawed it since (admission, release, idle skip,
    /// allocator swap, or a window that ran out). `None` means
    /// [`advance_frozen`](QuantumCore::advance_frozen) would decline.
    /// Event-driven drivers use this to convert time horizons (the next
    /// arrival) into quantum counts.
    pub fn frozen_quantum_len(&self) -> Option<u64> {
        self.frozen_len
    }

    /// Whether any in-system job is live at the current boundary.
    pub fn any_live(&self) -> bool {
        !self.live.is_empty()
    }

    /// Sum of the standing requests `d(q)` of the jobs live at the
    /// current boundary — the aggregate processor desire this core
    /// would report to a higher-level allocator. Pending (not yet
    /// released) jobs do not count.
    pub fn live_request_sum(&self) -> f64 {
        // An explicit +0.0 seed: an empty `Iterator::sum::<f64>()` is
        // -0.0, and idle groups report their desire through this sum.
        self.live
            .iter()
            .fold(0.0, |sum, &i| sum + self.slot(i).request)
    }

    /// Replaces the machine-wide allocator mid-run — the mechanism a
    /// top-level allocator uses to grow or shrink this core's machine
    /// at a reallocation epoch. Takes effect from the next quantum; the
    /// frozen-quantum cache is invalidated because the cached grant
    /// picture was computed against the old machine.
    pub fn set_allocator(&mut self, allocator: A) {
        self.allocator = allocator;
        self.frozen_len = None;
    }

    /// Earliest release step among in-system jobs, if any — live jobs
    /// (whose releases are in the past) and pending ones alike.
    pub fn next_release(&self) -> Option<u64> {
        let pending = self.pending.peek().map(|&Reverse((r, _, _))| r);
        self.live
            .iter()
            .map(|&i| self.slot(i).release_step)
            .chain(pending)
            .min()
    }

    /// Shared view of the probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consumes the core, returning the probe with everything it
    /// collected.
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// Advances the clock over an idle machine: jumps to the first
    /// default-length quantum boundary at or after `release` that is
    /// strictly after the current boundary, and returns `true`.
    ///
    /// Returns `false` and leaves the clock where it is when no quantum
    /// starting at that boundary could end on a `u64` clock: the release
    /// lies past the simulated horizon, and the caller must end the run
    /// instead of stepping.
    ///
    /// # Panics
    ///
    /// Panics (debug) if a job is already live — skipping over runnable
    /// work would corrupt the schedule.
    #[must_use]
    pub fn skip_idle_until(&mut self, release: u64) -> bool {
        debug_assert!(!self.any_live(), "skip_idle_until with live jobs");
        let l = self.default_len;
        let Some(boundary) = release
            .div_ceil(l)
            .max(self.now / l + 1)
            .checked_mul(l)
            .filter(|b| b.checked_add(l).is_some())
        else {
            return false;
        };
        self.frozen_len = None;
        self.now = boundary;
        self.process_releases();
        true
    }

    /// Runs one quantum at the current boundary over every live job:
    /// gathers requests, allocates, steps each job's task scheduler, and
    /// feeds the measured statistics back through its controller. Jobs
    /// that completed during the quantum are drained into `completed` in
    /// admission order; the clock advances one quantum.
    ///
    /// # Panics
    ///
    /// Panics if no job is live — callers decide how to skip idle time
    /// (see [`skip_idle_until`](QuantumCore::skip_idle_until)).
    ///
    /// It certifies no frozen window: after it,
    /// [`advance_frozen`](QuantumCore::advance_frozen) declines.
    pub fn step_quantum(&mut self, completed: &mut Vec<CompletedJob>) {
        self.step_quantum_inner::<false>(completed, None);
    }

    /// The open drivers' step: [`step_quantum`](QuantumCore::step_quantum),
    /// but it hands the executors of drained jobs back to the caller
    /// instead of dropping them, and certifies the frozen window that
    /// [`advance_frozen`](QuantumCore::advance_frozen) may then take.
    ///
    /// An open-system driver over a homogeneous workload can
    /// [`try_reset`](JobExecutor::try_reset) and re-admit the reclaimed
    /// executors, so a steady-state run recycles a bounded pool of
    /// executors instead of allocating one per arrival. Neither the
    /// reclaiming nor the certification changes the simulated schedule.
    pub fn step_quantum_reclaiming(
        &mut self,
        completed: &mut Vec<CompletedJob>,
        reclaimed: &mut Vec<E>,
    ) {
        self.step_quantum_inner::<true>(completed, Some(reclaimed));
    }

    /// The one step body. With `CERTIFY` it certifies the quantum just
    /// run as a frozen window, checking each job right after its
    /// `observe` and stopping at the first that fails.
    fn step_quantum_inner<const CERTIFY: bool>(
        &mut self,
        completed: &mut Vec<CompletedJob>,
        mut reclaimed: Option<&mut Vec<E>>,
    ) {
        let now = self.now;
        assert!(
            !self.live.is_empty(),
            "step_quantum with no live jobs (use skip_idle_until)"
        );
        // The quantum runs at the shortest length any live controller
        // asks for; fixed-quantum controllers all ask for the default,
        // so homogeneous sets step on the configured grid.
        let mut len = u64::MAX;
        self.requests.clear();
        for &i in &self.live {
            let slot = self.slots[i].as_ref().expect("freed slab slot");
            len = len.min(slot.next_len);
            self.requests.push(slot.request);
        }
        self.probe.on_quantum_start(now, len, self.live.len());
        let want_avail = self.probe.wants_availability();
        let have_avail = want_avail
            && self
                .allocator
                .try_availabilities(&self.requests, &mut self.availabilities);
        self.allocator
            .allocate_into(&self.requests, &mut self.allotments);
        debug_assert_eq!(self.allotments.len(), self.live.len());
        // A window replays these allotments, so the allocator must
        // certify that the next quantum's requests would reproduce them.
        // Exact-request allocations, and recorded availabilities (whose
        // probes see raw requests under any policy), tolerate no drift.
        let stability = CERTIFY.then(|| self.allocator.allocation_stability());
        let exact = stability == Some(AllocationStability::ByExactRequests) || want_avail;
        let mut certifying = stability.is_some_and(|s| s != AllocationStability::Unstable);
        let (mut lookahead, mut next_len) = (u64::MAX, u64::MAX);
        self.last_stats.clear();
        self.finished.clear();
        for (k, &i) in self.live.iter().enumerate() {
            let allotment = self.allotments[k];
            let availability = if have_avail {
                Some(self.availabilities[k])
            } else {
                None
            };
            let job = self.slots[i].as_mut().expect("freed slab slot");
            // A changed allotment burns the first `reallocation_overhead`
            // steps of the quantum before any task runs.
            let overhead = if job.prev_allotment.is_some_and(|p| p != allotment) {
                job.reallocations += 1;
                self.reallocation_overhead.min(len)
            } else {
                0
            };
            job.prev_allotment = Some(allotment);
            self.probe
                .on_grant(job.id, job.request, allotment, availability);
            let stats = job.executor.run_quantum(allotment, len - overhead);
            job.quanta += 1;
            // Held cycles cover the whole quantum, overhead included.
            job.waste += stats.waste() + allotment as u64 * overhead;
            if stats.completed {
                self.finished.push((i, now + overhead + stats.steps_worked));
            }
            let record = QuantumRecord {
                index: job.quanta as u32,
                start_step: now,
                request: job.request,
                allotment,
                availability,
                stats,
            };
            self.probe.on_quantum_end(job.id, &record);
            job.request = job.controller.observe(&stats);
            job.next_len = job.controller.next_quantum_len(self.default_len);
            if certifying {
                // Cheapest first. A window replays the grants computed
                // from the *pre-observe* request, so the post-observe one
                // must reproduce them: the same ceiling, or the same bits
                // when `exact`.
                let (cur, prev) = (job.request, self.requests[k]);
                certifying = !stats.completed
                    && overhead == 0
                    && ceil_request(cur) == ceil_request(prev)
                    && (!exact || cur.to_bits() == prev.to_bits())
                    && job.controller.supports_frozen_stepping();
                if certifying {
                    let m = job.executor.steady_quanta(allotment, len, &stats);
                    certifying = m > 0;
                    lookahead = lookahead.min(m);
                    next_len = next_len.min(job.next_len);
                    self.last_stats.push(stats);
                }
            }
        }
        // Drain the finished slots in live-set order, i.e. admission
        // order (allocation order, and with it DEQ's rotating tie-break
        // state, must not depend on who finished).
        for &(i, completion) in &self.finished {
            let slot = self.slots[i].take().expect("freed slab slot");
            let mut done = CompletedJob {
                id: slot.id,
                release: slot.release_step,
                completion,
                work: slot.executor.total_work(),
                span: slot.executor.total_span(),
                waste: slot.waste,
                quanta: slot.quanta,
                reallocations: slot.reallocations,
                trace: Vec::new(),
            };
            self.probe.on_job_complete(&mut done);
            completed.push(done);
            if let Some(pool) = reclaimed.as_deref_mut() {
                pool.push(slot.executor);
            }
            self.free.push(i);
        }
        if !self.finished.is_empty() {
            self.live.retain(|&i| self.slots[i].is_some());
        }
        self.now = now + len;
        self.quanta += 1;
        // Every job passed, so the live set is unchanged (no
        // completions), the quantum ran full-length for everyone (no
        // reallocation overhead, which a frozen repeat would not burn),
        // and the next quantum must still run at this length. Drifting
        // controllers, replayed in the window, are checked last: only
        // `exact` forbids them.
        let mut certified = certifying && next_len == len;
        if certified {
            self.steady.clear();
            for (&i, stats) in self.live.iter().zip(&self.last_stats) {
                let job = self.slots[i].as_ref().expect("freed slab slot");
                self.steady.push(job.controller.is_steady(stats));
            }
            certified = !exact || self.steady.iter().all(|&s| s);
        }
        self.frozen_len = certified.then_some(len);
        self.frozen_lookahead = lookahead;
        self.last_have_avail = have_avail;
        self.process_releases();
    }

    /// Bulk-advances up to `max_quanta` *frozen* quanta — quanta that
    /// would be bit-for-bit repeats of the last real quantum — and
    /// returns how many were advanced (possibly 0).
    ///
    /// It takes only a window the certifying step opened (see
    /// [`frozen_quantum_len`](QuantumCore::frozen_quantum_len)). A
    /// quantum is frozen when replaying it changes nothing the next
    /// allocation could see: the live set is unchanged, every executor
    /// certifies via [`JobExecutor::steady_quanta`] that it would
    /// reproduce its statistics, the allocator certifies via
    /// [`Allocator::allocation_stability`] that re-running it would
    /// reproduce the allotments, and every controller opts in via
    /// [`Controller::supports_frozen_stepping`]. Controllers whose state
    /// still drifts (`is_steady` false) are replayed per-quantum in a
    /// micro-loop — bit-identical to stepping — and the window closes
    /// early if a drift would change an integerized request or a quantum
    /// length; fully steady windows skip even that loop and cost `O(live
    /// jobs)` regardless of length.
    ///
    /// The live set stays unchanged because the window never crosses an
    /// event the core knows of: completions are excluded by the
    /// executors' own lookahead, and the window ends at the first
    /// boundary at or after the next pending release, where stepping
    /// would have released that job. Arrivals the caller has not yet
    /// admitted remain the caller's to bound through `max_quanta`. A
    /// window cut short by `max_quanta` stays certified for the rest of
    /// the lookahead.
    ///
    /// Probes observe the window according to
    /// [`Probe::wants_frozen_replay`](crate::Probe::wants_frozen_replay):
    /// a replaying probe receives exactly the hook sequence
    /// quantum-by-quantum stepping would have produced; a declining
    /// probe (e.g. [`NullProbe`](crate::NullProbe)) sees nothing and the
    /// window costs no per-quantum work at all.
    ///
    /// Executor state, span/waste accounting, per-job quantum counts and
    /// the clock all advance exactly as `k` calls of
    /// [`step_quantum`](QuantumCore::step_quantum) would have advanced
    /// them; fingerprint suites pin the equivalence.
    pub fn advance_frozen(&mut self, max_quanta: u64) -> u64 {
        let Some(len) = self.frozen_len else {
            return 0;
        };
        let mut k_max = max_quanta.min(self.frozen_lookahead);
        if let Some(&Reverse((release, _, _))) = self.pending.peek() {
            k_max = k_max.min((release - self.now).div_ceil(len));
        }
        if k_max == 0 {
            return 0;
        }
        let replay = self.probe.wants_frozen_replay();
        let k = if !replay && self.steady.iter().all(|&s| s) {
            // Fast path: nothing inside the window can change any state
            // the window itself consults, so its length is known now.
            k_max
        } else {
            // Micro-loop: replay the probe hooks and/or the drifting
            // controllers quantum by quantum, closing the window if a
            // drift would change an integerized request or quantum
            // length (the next allocation could then differ).
            let mut k = 0;
            let mut stop_after = false;
            while k < k_max && !stop_after {
                let now_q = self.now + k * len;
                if replay {
                    self.probe.on_quantum_start(now_q, len, self.live.len());
                }
                for idx in 0..self.live.len() {
                    let i = self.live[idx];
                    let allotment = self.allotments[idx];
                    let availability = if self.last_have_avail {
                        Some(self.availabilities[idx])
                    } else {
                        None
                    };
                    let job = self.slots[i].as_mut().expect("freed slab slot");
                    if replay {
                        self.probe
                            .on_grant(job.id, job.request, allotment, availability);
                        let record = QuantumRecord {
                            index: (job.quanta + k + 1) as u32,
                            start_step: now_q,
                            request: job.request,
                            allotment,
                            availability,
                            stats: self.last_stats[idx],
                        };
                        self.probe.on_quantum_end(job.id, &record);
                    }
                    if !self.steady[idx] {
                        let prev_next_len = job.next_len;
                        job.request = job.controller.observe(&self.last_stats[idx]);
                        job.next_len = job.controller.next_quantum_len(self.default_len);
                        if ceil_request(job.request) != ceil_request(self.requests[idx])
                            || job.next_len != prev_next_len
                        {
                            stop_after = true;
                        }
                        self.steady[idx] = job.controller.is_steady(&self.last_stats[idx]);
                    }
                }
                k += 1;
            }
            if stop_after {
                // The quantum after this window differs; force the
                // caller back through a real step.
                self.frozen_len = None;
            }
            k
        };
        // Catch every executor and counter up in one shot; the
        // steady_quanta contract makes the bulk call state-equivalent
        // to `k` per-quantum calls, and leaves each executor's lookahead
        // `k` shorter (an unbounded one stays unbounded).
        for (idx, &i) in self.live.iter().enumerate() {
            let job = self.slots[i].as_mut().expect("freed slab slot");
            job.executor.run_quantum(self.allotments[idx], k * len);
            job.quanta += k;
            job.waste += k * self.last_stats[idx].waste();
        }
        if self.frozen_lookahead != u64::MAX {
            self.frozen_lookahead -= k;
            if self.frozen_lookahead == 0 {
                self.frozen_len = None;
            }
        }
        self.now += k * len;
        self.quanta += k;
        self.process_releases();
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{NullProbe, Probe, TraceProbe};
    use abg_alloc::DynamicEquiPartition;
    use abg_control::ConstantRequest;
    use abg_dag::{Phase, PhasedJob};
    use abg_sched::PipelinedExecutor;
    use proptest::strategy::Strategy;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

    /// A barrier job: `levels` levels of `width` tasks, a join between
    /// each pair.
    fn job(width: u64, levels: u64) -> PipelinedExecutor {
        PipelinedExecutor::new(PhasedJob::barrier(&[Phase::new(width, levels)]))
    }

    #[test]
    fn monomorphized_core_matches_engine_semantics() {
        let mut core = QuantumCore::new(DynamicEquiPartition::new(8), 10, NullProbe);
        core.admit(job(2, 40), ConstantRequest::new(2.0), 0);
        let mut done = Vec::new();
        core.step_quantum(&mut done);
        assert_eq!(core.now(), 10);
        core.admit(job(2, 20), ConstantRequest::new(2.0), 10);
        while core.jobs_in_system() > 0 {
            core.step_quantum(&mut done);
        }
        done.sort_by_key(|c| c.id);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].completion, 40);
        assert_eq!(done[1].completion, 30);
        assert_eq!(done[1].response_time(), 20);
    }

    #[test]
    fn trace_probe_delivers_traces_through_completed_jobs() {
        let mut core = QuantumCore::new(
            DynamicEquiPartition::new(8),
            10,
            TraceProbe::new().with_availability(),
        );
        core.admit(job(2, 40), ConstantRequest::new(2.0), 0);
        let mut done = Vec::new();
        while core.jobs_in_system() > 0 {
            core.step_quantum(&mut done);
        }
        let trace = &done[0].trace;
        assert_eq!(trace.len() as u64, done[0].quanta);
        assert_eq!(trace[0].start_step, 0);
        assert_eq!(trace[0].availability, Some(8), "alone on the machine");
        let work: u64 = trace.iter().map(|r| r.stats.work).sum();
        assert_eq!(work, done[0].work);
    }

    #[test]
    fn retaining_probe_keeps_traces_out_of_the_job() {
        let mut core = QuantumCore::new(
            DynamicEquiPartition::new(8),
            10,
            TraceProbe::new().retaining(),
        );
        core.admit(job(2, 20), ConstantRequest::new(2.0), 0);
        let mut done = Vec::new();
        while core.jobs_in_system() > 0 {
            core.step_quantum(&mut done);
        }
        assert!(done[0].trace.is_empty(), "retained, not delivered");
        let kept = core.into_probe().into_completed_traces();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].0, done[0].id);
        assert_eq!(kept[0].1.len() as u64, done[0].quanta);
    }

    #[test]
    fn custom_probe_sees_every_hook_in_order() {
        #[derive(Default)]
        struct Counting {
            starts: u64,
            grants: u64,
            ends: u64,
            completions: u64,
        }
        impl Probe for Counting {
            fn on_quantum_start(&mut self, _now: u64, _len: u64, live: usize) {
                assert!(live > 0);
                self.starts += 1;
            }
            fn on_grant(&mut self, _id: u64, request: f64, allotment: u32, _p: Option<u32>) {
                assert!(allotment as f64 <= request.ceil());
                self.grants += 1;
            }
            fn on_quantum_end(&mut self, _id: u64, record: &QuantumRecord) {
                assert!(record.stats.quantum_len > 0);
                self.ends += 1;
            }
            fn on_job_complete(&mut self, job: &mut CompletedJob) {
                assert!(job.completion > 0);
                self.completions += 1;
            }
        }
        let mut core = QuantumCore::new(DynamicEquiPartition::new(4), 10, Counting::default());
        core.admit(job(2, 30), ConstantRequest::new(2.0), 0);
        core.admit(job(2, 30), ConstantRequest::new(2.0), 0);
        let mut done = Vec::new();
        while core.jobs_in_system() > 0 {
            core.step_quantum(&mut done);
        }
        let probe = core.into_probe();
        assert_eq!(probe.completions, 2);
        assert_eq!(probe.grants, probe.ends);
        assert_eq!(probe.ends, done.iter().map(|c| c.quanta).sum::<u64>());
        assert!(probe.starts > 0);
    }

    #[test]
    fn frozen_advance_matches_stepping_with_trace_replay() {
        // Two pipelined jobs under DEQ with constant requests: after one
        // real quantum the rest of the run is frozen. Advancing the
        // frozen window in bulk must leave clock, counters, completions
        // and the full per-quantum trace bit-identical to stepping.
        use abg_dag::PhasedJob;
        use abg_sched::PipelinedExecutor;
        let build = || {
            let mut core = QuantumCore::new(
                DynamicEquiPartition::new(8),
                10,
                TraceProbe::new().retaining().with_availability(),
            );
            core.admit(
                PipelinedExecutor::new(PhasedJob::constant(3, 200)),
                ConstantRequest::new(3.0),
                0,
            );
            core.admit(
                PipelinedExecutor::new(PhasedJob::constant(4, 300)),
                ConstantRequest::new(4.0),
                0,
            );
            core
        };
        let mut stepped = build();
        let mut done_stepped = Vec::new();
        while stepped.jobs_in_system() > 0 {
            stepped.step_quantum(&mut done_stepped);
        }

        let mut frozen = build();
        let mut done_frozen = Vec::new();
        let mut bulk_advanced = 0u64;
        while frozen.jobs_in_system() > 0 {
            frozen.step_quantum_reclaiming(&mut done_frozen, &mut Vec::new());
            bulk_advanced += frozen.advance_frozen(u64::MAX / 1024);
        }
        assert!(bulk_advanced > 0, "the frozen path never engaged");
        assert_eq!(frozen.now(), stepped.now());
        assert_eq!(frozen.quanta(), stepped.quanta());
        assert_eq!(done_frozen.len(), done_stepped.len());
        for (f, s) in done_frozen.iter().zip(&done_stepped) {
            assert_eq!(
                (f.id, f.completion, f.waste, f.quanta),
                (s.id, s.completion, s.waste, s.quanta)
            );
        }
        let t_f = frozen.into_probe().into_completed_traces();
        let t_s = stepped.into_probe().into_completed_traces();
        assert_eq!(t_f.len(), t_s.len());
        for ((id_f, tr_f), (id_s, tr_s)) in t_f.iter().zip(&t_s) {
            assert_eq!(id_f, id_s);
            assert_eq!(tr_f.len(), tr_s.len(), "job {id_f}: trace length");
            for (a, b) in tr_f.iter().zip(tr_s) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.start_step, b.start_step);
                assert_eq!(a.request.to_bits(), b.request.to_bits());
                assert_eq!(a.allotment, b.allotment);
                assert_eq!(a.availability, b.availability);
                assert_eq!(a.stats.work, b.stats.work);
                assert_eq!(a.stats.span.to_bits(), b.stats.span.to_bits());
            }
        }
    }

    #[test]
    fn frozen_advance_declines_without_opt_ins() {
        // AdaptiveRateControl does not declare frozen support, so the
        // core must refuse to macro-step it even when nothing moves. The
        // pipelined constant job certifies steady quanta, and after three
        // quanta the adaptive request stays inside one ceiling, so only
        // the controller opt-in stands between this run and a frozen
        // window, as the ConstantRequest run shows.
        // The closed driver's step certifies nothing.
        fn frozen_after_three_quanta<C: Controller>(controller: C, certify: bool) -> u64 {
            let mut core = QuantumCore::new(DynamicEquiPartition::new(8), 10, NullProbe);
            core.admit(
                PipelinedExecutor::new(PhasedJob::constant(2, 400)),
                controller,
                0,
            );
            for _ in 0..3 {
                if certify {
                    core.step_quantum_reclaiming(&mut Vec::new(), &mut Vec::new());
                } else {
                    core.step_quantum(&mut Vec::new());
                }
            }
            core.advance_frozen(1000)
        }
        let adaptive = abg_control::AdaptiveRateControl::new(0.5, 0.1);
        assert_eq!(frozen_after_three_quanta(adaptive, true), 0);
        assert!(frozen_after_three_quanta(ConstantRequest::new(2.0), true) > 0);
        assert_eq!(
            frozen_after_three_quanta(ConstantRequest::new(2.0), false),
            0
        );
    }

    #[test]
    fn frozen_window_stops_at_the_next_pending_release() {
        // The second job is admitted ahead of its release at 50. The
        // window may not run past the boundary where stepping would
        // release it: it stops at 50, and the release thaws the cache.
        let mut core = QuantumCore::new(DynamicEquiPartition::new(8), 10, NullProbe);
        core.admit(
            PipelinedExecutor::new(PhasedJob::constant(3, 200)),
            ConstantRequest::new(3.0),
            0,
        );
        core.admit(
            PipelinedExecutor::new(PhasedJob::constant(2, 100)),
            ConstantRequest::new(2.0),
            50,
        );
        let mut done = Vec::new();
        core.step_quantum_reclaiming(&mut done, &mut Vec::new());
        assert_eq!(core.advance_frozen(u64::MAX / 1024), 4);
        assert_eq!(core.now(), 50);
        assert!(core.any_live());
        assert_eq!(core.jobs_in_system(), 2, "second job live, none done");
        assert_eq!(core.frozen_quantum_len(), None, "the release thaws");
        while core.jobs_in_system() > 0 {
            core.step_quantum(&mut done);
        }
        done.sort_by_key(|c| c.id);
        assert_eq!(done[0].completion, 200);
        assert_eq!(done[1].completion, 150, "as pure stepping");
    }

    /// The certification `advance_frozen` ran before the step loop took
    /// it over: four validation passes over the live set after the
    /// stepped quantum whose length and per-job statistics (in live
    /// order) are `len` and `stats`. Returns the window's lookahead and
    /// `all_steady` when a window is certified.
    fn certification_oracle<E, C, A, P>(
        core: &QuantumCore<E, C, A, P>,
        len: u64,
        stats: &[QuantumStats],
    ) -> Option<(u64, bool)>
    where
        E: JobExecutor,
        C: Controller,
        A: Allocator,
        P: Probe,
    {
        // The live set is the one that ran (no completion left, no
        // release joined) and nobody paid reallocation overhead.
        if stats.len() != core.live.len()
            || stats.iter().any(|s| s.completed || s.quantum_len != len)
        {
            return None;
        }
        let stability = core.allocator.allocation_stability();
        if stability == AllocationStability::Unstable {
            return None;
        }
        if core.live.iter().map(|&i| core.slot(i).next_len).min() != Some(len) {
            return None;
        }
        let mut all_steady = true;
        for (idx, &i) in core.live.iter().enumerate() {
            let slot = core.slot(i);
            if !slot.controller.supports_frozen_stepping() {
                return None;
            }
            all_steady &= slot.controller.is_steady(&stats[idx]);
        }
        let want_avail = core.probe.wants_availability();
        if !all_steady && (stability == AllocationStability::ByExactRequests || want_avail) {
            return None;
        }
        for (idx, &i) in core.live.iter().enumerate() {
            let cur = core.slot(i).request;
            let prev = core.requests[idx];
            let raw_equal = cur.to_bits() == prev.to_bits();
            let stable = match stability {
                AllocationStability::Unstable => unreachable!("filtered above"),
                AllocationStability::ByCeilings => ceil_request(cur) == ceil_request(prev),
                AllocationStability::ByExactRequests => raw_equal,
            };
            if !stable || (want_avail && !raw_equal) {
                return None;
            }
        }
        let lookahead = core
            .live
            .iter()
            .enumerate()
            .map(|(idx, &i)| {
                core.slot(i)
                    .executor
                    .steady_quanta(core.allotments[idx], len, &stats[idx])
            })
            .min()?;
        (lookahead > 0).then_some((lookahead, all_steady))
    }

    /// Forwards every hook to `inner` and keeps the last quantum's length
    /// and per-job statistics for [`certification_oracle`].
    struct Recording<P> {
        inner: P,
        len: u64,
        stats: Vec<QuantumStats>,
    }

    impl<P: Probe> Probe for Recording<P> {
        fn on_quantum_start(&mut self, now: u64, len: u64, live: usize) {
            self.len = len;
            self.stats.clear();
            self.inner.on_quantum_start(now, len, live);
        }
        fn on_grant(&mut self, id: u64, request: f64, allotment: u32, p: Option<u32>) {
            self.inner.on_grant(id, request, allotment, p);
        }
        fn on_quantum_end(&mut self, id: u64, record: &QuantumRecord) {
            self.stats.push(record.stats);
            self.inner.on_quantum_end(id, record);
        }
        fn on_job_complete(&mut self, job: &mut CompletedJob) {
            self.inner.on_job_complete(job);
        }
        fn wants_availability(&self) -> bool {
            self.inner.wants_availability()
        }
        fn wants_frozen_replay(&self) -> bool {
            self.inner.wants_frozen_replay()
        }
    }

    /// A pipelined executor whose lookahead answers as if a completed
    /// job could go on and as if a quantum cut short by reallocation
    /// overhead had run in full: the certification must not lean on
    /// executors to refuse a window at a completion or an overhead.
    struct Lax(PipelinedExecutor);

    impl JobExecutor for Lax {
        fn run_quantum(&mut self, allotment: u32, steps: u64) -> QuantumStats {
            self.0.run_quantum(allotment, steps)
        }
        fn is_complete(&self) -> bool {
            self.0.is_complete()
        }
        fn total_work(&self) -> u64 {
            self.0.total_work()
        }
        fn total_span(&self) -> u64 {
            self.0.total_span()
        }
        fn completed_work(&self) -> u64 {
            self.0.completed_work()
        }
        fn elapsed_steps(&self) -> u64 {
            self.0.elapsed_steps()
        }
        fn steady_quanta(&self, allotment: u32, _steps: u64, stats: &QuantumStats) -> u64 {
            if stats.completed {
                u64::MAX
            } else {
                self.0.steady_quanta(allotment, stats.quantum_len, stats)
            }
        }
    }

    /// A constant request whose quantum length cycles through `L`, `L +
    /// 1` and `L + 2`, one step per observation. It opts in to frozen
    /// stepping but is never steady, so only the quantum-length and
    /// steadiness checks stand between it and a wrong window.
    struct Cycling(u64);

    impl Controller for Cycling {
        fn observe(&mut self, _stats: &QuantumStats) -> f64 {
            self.0 = (self.0 + 1) % 3;
            2.0
        }
        fn current_request(&self) -> f64 {
            2.0
        }
        fn name(&self) -> &'static str {
            "cycling"
        }
        fn next_quantum_len(&mut self, default_len: u64) -> u64 {
            default_len + self.0
        }
        fn supports_frozen_stepping(&self) -> bool {
            true
        }
    }

    /// A random job: its phases `(width, levels)`, its release, which
    /// controller runs it, and whether its executor is [`Lax`].
    type OracleJob = (Vec<(u64, u64)>, u64, u8, bool);

    /// Steps `jobs` through the certifying step on `allocator`, holding
    /// the step loop's verdict (window length, lookahead, steadiness)
    /// to [`certification_oracle`]'s after every stepped quantum, and
    /// again after every window that leaves one certified. Windows are
    /// cut at `max_window` quanta so the lookahead carries across them.
    /// Returns the number of certified quanta.
    fn check_certification<A: Allocator, P: Probe>(
        jobs: &[OracleJob],
        allocator: A,
        probe: P,
        overhead: u64,
        max_window: u64,
    ) -> u64 {
        type Executor = Box<dyn JobExecutor + Send>;
        type Calculator = Box<dyn Controller + Send>;
        let probe = Recording {
            inner: probe,
            len: 0,
            stats: Vec::new(),
        };
        let mut core: QuantumCore<Executor, Calculator, _, _> =
            QuantumCore::new(allocator, 5, probe).with_reallocation_overhead(overhead);
        for (phases, release, which, lax) in jobs {
            let job = PhasedJob::new(phases.iter().map(|&(w, l)| Phase::new(w, l)).collect());
            let pipelined = PipelinedExecutor::new(job);
            let executor: Executor = if *lax {
                Box::new(Lax(pipelined))
            } else {
                Box::new(pipelined)
            };
            let controller: Calculator = match which % 5 {
                0 => Box::new(abg_control::AControl::new(0.2)),
                1 => Box::new(abg_control::AGreedy::paper_default()),
                2 => Box::new(ConstantRequest::new(3.0)),
                3 => Box::new(abg_control::AdaptiveRateControl::paper_default()),
                _ => Box::new(Cycling(0)),
            };
            core.admit(executor, controller, *release);
        }
        let verdict = |core: &QuantumCore<Executor, Calculator, A, Recording<P>>| {
            core.frozen_len
                .map(|len| (len, core.frozen_lookahead, core.steady.iter().all(|&s| s)))
        };
        let oracle = |core: &QuantumCore<Executor, Calculator, A, Recording<P>>| {
            let len = core.probe.len;
            certification_oracle(core, len, &core.probe.stats).map(|(m, s)| (len, m, s))
        };
        let (mut done, mut pool) = (Vec::new(), Vec::new());
        let mut certified = 0;
        while core.jobs_in_system() > 0 {
            if !core.any_live() {
                let next = core.next_release().expect("jobs pending");
                assert!(core.skip_idle_until(next));
                continue;
            }
            core.step_quantum_reclaiming(&mut done, &mut pool);
            assert_eq!(verdict(&core), oracle(&core), "at step {}", core.now());
            while core.frozen_quantum_len().is_some() {
                certified += core.advance_frozen(max_window);
                if verdict(&core).is_some() {
                    assert_eq!(
                        verdict(&core),
                        oracle(&core),
                        "after a window at {}",
                        core.now()
                    );
                }
            }
        }
        certified
    }

    const ORACLE_CASES: u32 = 128;
    static ORACLE_SEEN: AtomicU32 = AtomicU32::new(0);
    static ORACLE_CERTIFIED: AtomicU64 = AtomicU64::new(0);

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(ORACLE_CASES))]

        /// The step loop certifies exactly the windows the validation
        /// passes certify, with the same lookahead and steadiness, under
        /// every request calculator (and a paced one that is never
        /// steady), a ceiling-stable (DEQ) and an
        /// exact-request (overloaded proportional) allocator, and with
        /// and without recorded availabilities. Across its cases it must
        /// certify some window, so it cannot pass vacuously.
        #[test]
        fn step_loop_certification_matches_the_validation_passes(
            jobs in proptest::collection::vec(
                (
                    proptest::collection::vec((1u64..=6, 1u64..=60), 1..4),
                    0u64..60,
                    0u8..5,
                    (0u8..4).prop_map(|x| x == 0),
                ),
                1..6,
            ),
            processors in 1u32..12,
            overhead in 0u64..2,
            max_window in 1u64..4,
        ) {
            use abg_alloc::Proportional;
            let mut certified = 0;
            for probe in [TraceProbe::new(), TraceProbe::new().with_availability()] {
                let deq = DynamicEquiPartition::new(processors);
                certified += check_certification(&jobs, deq, probe.clone(), overhead, max_window);
                let prop = Proportional::new(processors);
                certified += check_certification(&jobs, prop, probe, overhead, max_window);
            }
            let deq = DynamicEquiPartition::new(processors);
            certified += check_certification(&jobs, deq, NullProbe, overhead, max_window);
            let prop = Proportional::new(processors);
            certified += check_certification(&jobs, prop, NullProbe, overhead, max_window);
            let total = ORACLE_CERTIFIED.fetch_add(certified, Ordering::Relaxed) + certified;
            if ORACLE_SEEN.fetch_add(1, Ordering::Relaxed) + 1 == ORACLE_CASES {
                proptest::prop_assert!(total > 0, "no case certified a window");
            }
        }
    }

    #[test]
    fn live_request_sum_counts_only_released_jobs() {
        let mut core = QuantumCore::new(DynamicEquiPartition::new(8), 10, NullProbe);
        assert_eq!(core.live_request_sum(), 0.0);
        core.admit(job(2, 40), ConstantRequest::new(2.0), 0);
        core.admit(job(2, 40), ConstantRequest::new(3.0), 0);
        // Released in the future: desire must not count it yet.
        core.admit(job(2, 40), ConstantRequest::new(5.0), 25);
        assert_eq!(core.live_request_sum(), 5.0);
        let mut done = Vec::new();
        core.step_quantum(&mut done);
        core.step_quantum(&mut done);
        core.step_quantum(&mut done);
        assert_eq!(core.now(), 30);
        assert_eq!(core.live_request_sum(), 10.0, "pending job now released");
    }

    #[test]
    fn set_allocator_resizes_the_machine_and_thaws_the_frozen_cache() {
        // A width-4 constant job on 8 processors: after one real
        // quantum the run is frozen. Swapping in a 2-processor machine
        // must invalidate the cached grant picture and halve the
        // allotment from the next quantum on (visible as one extra
        // reallocation).
        let mut core = QuantumCore::new(DynamicEquiPartition::new(8), 10, NullProbe);
        core.admit(
            PipelinedExecutor::new(PhasedJob::constant(4, 400)),
            ConstantRequest::new(4.0),
            0,
        );
        let mut done = Vec::new();
        core.step_quantum_reclaiming(&mut done, &mut Vec::new());
        assert!(core.frozen_quantum_len().is_some());
        core.set_allocator(DynamicEquiPartition::new(2));
        assert_eq!(core.frozen_quantum_len(), None, "cache must thaw");
        assert_eq!(core.advance_frozen(1000), 0);
        while core.jobs_in_system() > 0 {
            core.step_quantum(&mut done);
        }
        // Width 4 on 2 processors: each level costs 2 steps from the
        // swap on, so the remaining 1 560 tasks take 780 steps.
        assert_eq!(done[0].reallocations, 1, "the shrink, 4 -> 2");
        assert!(done[0].completion > 100);
        assert_eq!(done[0].completion, 790);
    }

    #[test]
    fn slab_reuses_freed_slots_without_reordering() {
        let mut core = QuantumCore::new(DynamicEquiPartition::new(8), 10, NullProbe);
        core.admit(job(2, 20), ConstantRequest::new(2.0), 0); // id 0
        core.admit(job(2, 60), ConstantRequest::new(2.0), 0); // id 1
        let mut done = Vec::new();
        while done.is_empty() {
            core.step_quantum(&mut done);
        }
        assert_eq!(done[0].id, 0);
        assert_eq!(core.jobs_in_system(), 1);
        assert_eq!(core.slots.len(), 2, "slot freed in place, not compacted");
        // The freed slot is reused by the next admission instead of
        // growing the slab, and the newcomer schedules after the older
        // live job regardless of which physical slot it landed in.
        core.admit(job(2, 20), ConstantRequest::new(2.0), core.now()); // id 2
        assert_eq!(core.slots.len(), 2, "admission reuses the freed slot");
        while core.jobs_in_system() > 0 {
            core.step_quantum(&mut done);
        }
        done.sort_by_key(|c| c.id);
        assert_eq!(done.len(), 3);
        assert_eq!(done[1].completion, 60, "older job untouched by reuse");
        assert_eq!(done[2].completion, 40, "reused slot ran the new job");
    }

    #[test]
    fn pending_releases_surface_as_jobs_become_live() {
        // Pre-admitted future releases: the pending heap feeds the live
        // set as the clock crosses each release, including across an
        // idle skip, and `next_release` sees live and pending jobs.
        let mut core = QuantumCore::new(DynamicEquiPartition::new(8), 10, NullProbe);
        core.admit(job(2, 20), ConstantRequest::new(2.0), 0);
        core.admit(job(2, 20), ConstantRequest::new(2.0), 55);
        assert_eq!(core.next_release(), Some(0));
        let mut done = Vec::new();
        core.step_quantum(&mut done);
        core.step_quantum(&mut done);
        assert_eq!(done.len(), 1);
        assert!(!core.any_live(), "second job still pending at step 20");
        assert_eq!(core.next_release(), Some(55));
        assert!(core.skip_idle_until(55));
        assert_eq!(core.now(), 60);
        assert!(core.any_live(), "idle skip crossed the release");
        while core.jobs_in_system() > 0 {
            core.step_quantum(&mut done);
        }
        assert_eq!(done[1].completion, 80);
        assert_eq!(done[1].response_time(), 25);
    }

    #[test]
    fn completed_jobs_are_drained_not_retained() {
        let mut core = QuantumCore::new(DynamicEquiPartition::new(4), 5, NullProbe);
        for i in 0..3 {
            core.admit(job(1, 5 * (i + 1)), ConstantRequest::new(1.0), 0);
        }
        let mut done = Vec::new();
        core.step_quantum(&mut done);
        assert_eq!(done.len(), 1, "shortest job drains after one quantum");
        assert_eq!(core.jobs_in_system(), 2);
        core.step_quantum(&mut done);
        core.step_quantum(&mut done);
        assert_eq!(core.jobs_in_system(), 0);
        // Admission ids survive the drains, in admission order.
        let ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn skip_idle_until_lands_on_boundary_after_now() {
        let mut core = QuantumCore::<PipelinedExecutor, ConstantRequest, _, _>::new(
            DynamicEquiPartition::new(4),
            10,
            NullProbe,
        );
        assert!(core.skip_idle_until(34));
        assert_eq!(core.now(), 40);
        // Already past: still advances at least one quantum.
        assert!(core.skip_idle_until(5));
        assert_eq!(core.now(), 50);
        assert_eq!(core.quanta(), 0, "idle skips execute no quanta");
    }

    #[test]
    fn skip_idle_until_refuses_a_release_past_the_clock_horizon() {
        let mut core = QuantumCore::<PipelinedExecutor, ConstantRequest, _, _>::new(
            DynamicEquiPartition::new(4),
            20,
            NullProbe,
        );
        // u64::MAX rounds up past the last boundary a u64 can hold; the
        // skip is refused instead of wrapping the clock backwards.
        assert!(!core.skip_idle_until(u64::MAX));
        assert_eq!(core.now(), 0, "a refused skip leaves the clock alone");
        // The last boundary that still fits a whole quantum is reachable.
        let last = (u64::MAX - 20) / 20 * 20;
        assert!(core.skip_idle_until(last));
        assert_eq!(core.now(), last);
        assert!(!core.skip_idle_until(last + 1));
        assert_eq!(core.now(), last);
    }

    #[test]
    #[should_panic(expected = "no live jobs")]
    fn stepping_an_idle_machine_panics() {
        let mut core = QuantumCore::new(DynamicEquiPartition::new(4), 10, NullProbe);
        core.admit(job(1, 5), ConstantRequest::new(1.0), 100);
        core.step_quantum(&mut Vec::new());
    }

    #[test]
    fn reallocations_travel_with_the_completed_job() {
        // Request 1 then 4 under an ample allocator: exactly one
        // allotment change over the whole run.
        let mut core = QuantumCore::new(DynamicEquiPartition::new(16), 20, NullProbe);
        core.admit(job(4, 200), abg_control::AControl::new(0.0), 0);
        let mut done = Vec::new();
        while core.jobs_in_system() > 0 {
            core.step_quantum(&mut done);
        }
        assert_eq!(done[0].reallocations, 1);
    }
}
