//! Zero-cost observation of the quantum core.
//!
//! Every driver used to hand-roll its own instrumentation: the
//! single-job loop built traces inline, the multi-job engine kept a
//! per-slot trace vector behind a flag, and the open-system driver had
//! no instrumentation at all. A [`Probe`] decouples observation from
//! stepping: the generic [`QuantumCore`](crate::QuantumCore) calls the
//! probe at four points of every quantum and the probe decides what to
//! keep. Probes are monomorphized type parameters, so [`NullProbe`] —
//! every hook an empty default — compiles to nothing and the
//! uninstrumented hot path pays zero cost for the abstraction.
//!
//! [`TraceProbe`] is the workhorse consumer: it rebuilds the
//! per-quantum [`QuantumRecord`] traces that `trim`, `metrics` and the
//! Gantt renderer consume, for *any* driver — including the open-system
//! driver, where trim/deprivation analysis was previously impossible.

use crate::quantum_core::CompletedJob;
use crate::trace::QuantumRecord;

/// Observer threaded through the quantum core's stepping loop.
///
/// All hooks default to no-ops, so a probe only implements the events it
/// cares about. The core invokes them in a fixed order each quantum:
/// one [`on_quantum_start`], then per live job (in admission order) one
/// [`on_grant`] before the executor runs and one [`on_quantum_end`]
/// after, then one [`on_job_complete`] per job drained at the boundary.
///
/// [`on_quantum_start`]: Probe::on_quantum_start
/// [`on_grant`]: Probe::on_grant
/// [`on_quantum_end`]: Probe::on_quantum_end
/// [`on_job_complete`]: Probe::on_job_complete
pub trait Probe {
    /// A quantum is about to run at absolute step `now`, with length
    /// `quantum_len` and `live_jobs` participating jobs.
    fn on_quantum_start(&mut self, now: u64, quantum_len: u64, live_jobs: usize) {
        let _ = (now, quantum_len, live_jobs);
    }

    /// The allocator granted `allotment` processors to job `job_id`
    /// requesting `request`; `availability` is `p(q)` when the core was
    /// asked to record it (and the allocator can answer).
    fn on_grant(&mut self, job_id: u64, request: f64, allotment: u32, availability: Option<u32>) {
        let _ = (job_id, request, allotment, availability);
    }

    /// Job `job_id` finished running the quantum; `record` carries the
    /// measured statistics (the request is the pre-feedback `d(q)`).
    fn on_quantum_end(&mut self, job_id: u64, record: &QuantumRecord) {
        let _ = (job_id, record);
    }

    /// A job completed and is being drained out of the core. The probe
    /// may enrich it — [`TraceProbe`] moves the job's collected trace
    /// into [`CompletedJob::trace`] here.
    fn on_job_complete(&mut self, job: &mut CompletedJob) {
        let _ = job;
    }

    /// Whether the core should query the allocator for per-job
    /// availabilities each quantum so [`on_grant`] /
    /// [`on_quantum_end`] see `p(q)`. Availability probing re-runs the
    /// allocation policy, so it is strictly opt-in.
    ///
    /// [`on_grant`]: Probe::on_grant
    /// [`on_quantum_end`]: Probe::on_quantum_end
    fn wants_availability(&self) -> bool {
        false
    }

    /// Whether the core must replay the per-quantum hook sequence
    /// ([`on_quantum_start`], [`on_grant`], [`on_quantum_end`]) for every
    /// quantum covered by a frozen-quantum bulk advance, so this probe
    /// sees records indistinguishable from quantum-by-quantum stepping.
    /// Defaults to `true` — an unknown probe gets the faithful replay;
    /// probes that keep nothing ([`NullProbe`]) decline and let the core
    /// skip the loop entirely.
    ///
    /// [`on_quantum_start`]: Probe::on_quantum_start
    /// [`on_grant`]: Probe::on_grant
    /// [`on_quantum_end`]: Probe::on_quantum_end
    fn wants_frozen_replay(&self) -> bool {
        true
    }
}

/// The do-nothing probe: every hook is the empty default, so a core
/// instantiated with `NullProbe` monomorphizes to the uninstrumented
/// loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    fn wants_frozen_replay(&self) -> bool {
        false
    }
}

/// Collects per-job [`QuantumRecord`] traces from any driver.
///
/// Records accumulate per job while it is live. On completion the trace
/// is either moved into [`CompletedJob::trace`] (the default — how the
/// closed-system engine returns traces to its caller) or, in
/// [`retaining`](TraceProbe::retaining) mode, kept inside the probe so
/// drivers that consume and drop their `CompletedJob`s — the open-system
/// driver — can still hand the traces back afterwards.
///
/// There is no disabled `TraceProbe`: a driver that may run untraced
/// takes the probe as a type parameter and runs [`NullProbe`] instead.
#[derive(Debug, Clone, Default)]
pub struct TraceProbe {
    want_availability: bool,
    retain: bool,
    open: Vec<(u64, Vec<QuantumRecord>)>,
    completed: Vec<(u64, Vec<QuantumRecord>)>,
}

impl TraceProbe {
    /// A probe with availability off, delivering traces through
    /// [`CompletedJob::trace`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Also record the allocator availability `p(q)` in every record.
    pub fn with_availability(mut self) -> Self {
        self.want_availability = true;
        self
    }

    /// Keep completed jobs' traces inside the probe (see
    /// [`completed_traces`](TraceProbe::completed_traces)) instead of
    /// moving them into [`CompletedJob::trace`].
    pub fn retaining(mut self) -> Self {
        self.retain = true;
        self
    }

    /// Traces of completed jobs, in completion order, keyed by the
    /// core's admission id. Empty unless the probe is in
    /// [`retaining`](TraceProbe::retaining) mode.
    pub fn completed_traces(&self) -> &[(u64, Vec<QuantumRecord>)] {
        &self.completed
    }

    /// Consumes the probe, returning the retained completed-job traces.
    pub fn into_completed_traces(self) -> Vec<(u64, Vec<QuantumRecord>)> {
        self.completed
    }
}

impl Probe for TraceProbe {
    fn on_quantum_end(&mut self, job_id: u64, record: &QuantumRecord) {
        match self.open.iter_mut().find(|(id, _)| *id == job_id) {
            Some((_, trace)) => trace.push(*record),
            None => self.open.push((job_id, vec![*record])),
        }
    }

    fn on_job_complete(&mut self, job: &mut CompletedJob) {
        let Some(pos) = self.open.iter().position(|(id, _)| *id == job.id) else {
            return;
        };
        let (id, trace) = self.open.swap_remove(pos);
        if self.retain {
            self.completed.push((id, trace));
        } else {
            job.trace = trace;
        }
    }

    fn wants_availability(&self) -> bool {
        self.want_availability
    }
}
