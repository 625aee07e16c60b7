//! Per-layer timing from outside the program.
//!
//! Each workload is written once, generic over [`Layers`]. [`Plain`]
//! passes every component through untouched and runs every span closure
//! directly, so the end-to-end figures measure the program alone.
//! [`Traced`] wraps each component behind its public trait (executor,
//! controller, allocator, group allocator) and times the benchmark's own
//! factory closures, summing busy time and call counts per layer.
//!
//! The wrappers must not change what they wrap: every trait method with a
//! default is forwarded, because a defaulted `try_reset`,
//! `steady_quanta`, `supports_frozen_stepping`, `is_steady`,
//! `allocation_stability` or availability probe would quietly switch off
//! recycling or frozen stepping and the traced run would measure a
//! different program. The tests compare traced and untraced outcome
//! hashes bit for bit.

use abg::alloc::{AllocationStability, Allocator, DynamicEquiPartition};
use abg::control::{Controller, GroupAllocator, GroupDesire};
use abg::sched::{JobExecutor, QuantumStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A timed region: one layer boundary the benchmark can see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Job or workflow generation inside the executor factory.
    Generate,
    /// The Monte-Carlo `E[T1]` estimate in set-up.
    ExpectedWork,
    /// Parsing the replayed dag file in set-up.
    ParseDag,
    /// Executor construction or in-place reset inside the factory.
    New,
    /// `JobExecutor::run_quantum`.
    RunQuantum,
    /// `Controller::observe`.
    Observe,
    /// `Allocator::allocate_into` / `allocate`.
    Allocate,
    /// `GroupAllocator::reallocate`.
    GroupAllocate,
    /// The Figure-5 single-job sweep.
    Fig5,
    /// The Figure-6 multiprogrammed sweep.
    Fig6,
}

impl Span {
    /// Every span, in report order.
    pub const ALL: [Span; 10] = [
        Span::Generate,
        Span::ExpectedWork,
        Span::ParseDag,
        Span::New,
        Span::RunQuantum,
        Span::Observe,
        Span::Allocate,
        Span::GroupAllocate,
        Span::Fig5,
        Span::Fig6,
    ];

    /// Spans inside a pass; their sum is subtracted from a traced pass's
    /// wall time to give the drivers' self time.
    pub const IN_PASS: [Span; 8] = [
        Span::Generate,
        Span::New,
        Span::RunQuantum,
        Span::Observe,
        Span::Allocate,
        Span::GroupAllocate,
        Span::Fig5,
        Span::Fig6,
    ];
}

/// Busy time, call counts and the few ratios' numerators, summed over a
/// traced pass. Relaxed atomics: the values are statistics and publish
/// nothing else; runs are single-threaded and read after they return.
#[derive(Debug, Default)]
struct Counters {
    nanos: [AtomicU64; Span::ALL.len()],
    calls: [AtomicU64; Span::ALL.len()],
    /// Quanta covered by bulk `run_quantum(a, k·L)` calls with `k ≥ 2`.
    bulk_quanta: AtomicU64,
    /// Quanta covered by all `run_quantum` calls.
    job_quanta: AtomicU64,
    /// Factory admissions served by a successful `try_reset`.
    resets: AtomicU64,
    /// Requests passed to the allocator, summed over calls.
    requests: AtomicU64,
}

/// A copy of [`Counters`] taken after a pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Busy seconds per span, indexed like [`Span::ALL`].
    pub seconds: [f64; Span::ALL.len()],
    /// Calls per span, indexed like [`Span::ALL`].
    pub calls: [u64; Span::ALL.len()],
    /// See [`Counters`].
    pub bulk_quanta: u64,
    /// See [`Counters`].
    pub job_quanta: u64,
    /// See [`Counters`].
    pub resets: u64,
    /// See [`Counters`].
    pub requests: u64,
}

impl Snapshot {
    /// Busy seconds of one span.
    pub fn seconds(&self, span: Span) -> f64 {
        self.seconds[span as usize]
    }
}

impl Counters {
    fn add(&self, span: Span, nanos: u64) {
        self.nanos[span as usize].fetch_add(nanos, Ordering::Relaxed);
        self.calls[span as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn time<T>(&self, span: Span, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(span, t0.elapsed().as_nanos() as u64);
        out
    }

    /// Reads every counter and zeroes it for the next pass.
    fn take(&self) -> Snapshot {
        let take = |a: &AtomicU64| a.swap(0, Ordering::Relaxed);
        let mut s = Snapshot::default();
        for i in 0..Span::ALL.len() {
            s.seconds[i] = take(&self.nanos[i]) as f64 * 1e-9;
            s.calls[i] = take(&self.calls[i]);
        }
        s.bulk_quanta = take(&self.bulk_quanta);
        s.job_quanta = take(&self.job_quanta);
        s.resets = take(&self.resets);
        s.requests = take(&self.requests);
        s
    }
}

/// How a workload's components are wired: bare, or behind timing
/// wrappers.
pub trait Layers: Sync {
    /// The allocator type the drivers receive.
    type Alloc: Allocator + Send;

    /// Wraps (or passes through) an allocator.
    fn allocator(&self, inner: DynamicEquiPartition) -> Self::Alloc;

    /// Wraps (or passes through) a freshly built executor whose quanta
    /// are `quantum_len` steps long.
    fn executor(
        &self,
        inner: Box<dyn JobExecutor + Send>,
        quantum_len: u64,
    ) -> Box<dyn JobExecutor + Send>;

    /// Wraps (or passes through) a controller.
    fn controller(&self, inner: Box<dyn Controller + Send>) -> Box<dyn Controller + Send>;

    /// Wraps (or passes through) a top-level group allocator.
    fn group_allocator(
        &self,
        inner: Box<dyn GroupAllocator + Send>,
    ) -> Box<dyn GroupAllocator + Send>;

    /// Runs `f`, timing it as `span` when traced.
    fn span<T>(&self, span: Span, f: impl FnOnce() -> T) -> T;

    /// Notes that the factory served an admission by resetting a
    /// recycled executor.
    fn recycled(&self);
}

/// No instrumentation: the program as a user runs it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Plain;

impl Layers for Plain {
    type Alloc = DynamicEquiPartition;

    fn allocator(&self, inner: DynamicEquiPartition) -> DynamicEquiPartition {
        inner
    }
    fn executor(
        &self,
        inner: Box<dyn JobExecutor + Send>,
        _quantum_len: u64,
    ) -> Box<dyn JobExecutor + Send> {
        inner
    }
    fn controller(&self, inner: Box<dyn Controller + Send>) -> Box<dyn Controller + Send> {
        inner
    }
    fn group_allocator(
        &self,
        inner: Box<dyn GroupAllocator + Send>,
    ) -> Box<dyn GroupAllocator + Send> {
        inner
    }
    #[inline(always)]
    fn span<T>(&self, _span: Span, f: impl FnOnce() -> T) -> T {
        f()
    }
    #[inline(always)]
    fn recycled(&self) {}
}

/// Timing wrappers around every component, feeding shared counters.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    counters: Arc<Counters>,
}

impl Traced {
    /// Reads and zeroes the counters.
    pub fn take(&self) -> Snapshot {
        self.counters.take()
    }
}

impl Layers for Traced {
    type Alloc = TimedAllocator<DynamicEquiPartition>;

    fn allocator(&self, inner: DynamicEquiPartition) -> Self::Alloc {
        TimedAllocator {
            inner,
            counters: Arc::clone(&self.counters),
        }
    }
    fn executor(
        &self,
        inner: Box<dyn JobExecutor + Send>,
        quantum_len: u64,
    ) -> Box<dyn JobExecutor + Send> {
        Box::new(TimedExecutor {
            inner,
            quantum_len,
            counters: Arc::clone(&self.counters),
        })
    }
    fn controller(&self, inner: Box<dyn Controller + Send>) -> Box<dyn Controller + Send> {
        Box::new(TimedController {
            inner,
            counters: Arc::clone(&self.counters),
        })
    }
    fn group_allocator(
        &self,
        inner: Box<dyn GroupAllocator + Send>,
    ) -> Box<dyn GroupAllocator + Send> {
        Box::new(TimedGroupAllocator {
            inner,
            counters: Arc::clone(&self.counters),
        })
    }
    fn span<T>(&self, span: Span, f: impl FnOnce() -> T) -> T {
        self.counters.time(span, f)
    }
    fn recycled(&self) {
        self.counters.resets.fetch_add(1, Ordering::Relaxed);
    }
}

/// Times `run_quantum` and counts the quanta each call covers.
struct TimedExecutor {
    inner: Box<dyn JobExecutor + Send>,
    quantum_len: u64,
    counters: Arc<Counters>,
}

impl JobExecutor for TimedExecutor {
    fn run_quantum(&mut self, allotment: u32, steps: u64) -> QuantumStats {
        let quanta = steps / self.quantum_len;
        self.counters
            .job_quanta
            .fetch_add(quanta.max(1), Ordering::Relaxed);
        if quanta >= 2 {
            self.counters
                .bulk_quanta
                .fetch_add(quanta, Ordering::Relaxed);
        }
        let inner = &mut self.inner;
        self.counters
            .time(Span::RunQuantum, || inner.run_quantum(allotment, steps))
    }
    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }
    fn total_work(&self) -> u64 {
        self.inner.total_work()
    }
    fn total_span(&self) -> u64 {
        self.inner.total_span()
    }
    fn completed_work(&self) -> u64 {
        self.inner.completed_work()
    }
    fn elapsed_steps(&self) -> u64 {
        self.inner.elapsed_steps()
    }
    fn try_reset(&mut self) -> bool {
        self.inner.try_reset()
    }
    fn steady_quanta(&self, allotment: u32, steps: u64, stats: &QuantumStats) -> u64 {
        self.inner.steady_quanta(allotment, steps, stats)
    }
}

/// Times `observe`.
struct TimedController {
    inner: Box<dyn Controller + Send>,
    counters: Arc<Counters>,
}

impl Controller for TimedController {
    fn initial_request(&self) -> f64 {
        self.inner.initial_request()
    }
    fn observe(&mut self, stats: &QuantumStats) -> f64 {
        let inner = &mut self.inner;
        self.counters.time(Span::Observe, || inner.observe(stats))
    }
    fn current_request(&self) -> f64 {
        self.inner.current_request()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn initial_quantum_len(&self, default_len: u64) -> u64 {
        self.inner.initial_quantum_len(default_len)
    }
    fn next_quantum_len(&mut self, default_len: u64) -> u64 {
        self.inner.next_quantum_len(default_len)
    }
    fn supports_frozen_stepping(&self) -> bool {
        self.inner.supports_frozen_stepping()
    }
    fn is_steady(&self, stats: &QuantumStats) -> bool {
        self.inner.is_steady(stats)
    }
}

/// Times `allocate_into` and counts the requests it sees.
#[derive(Clone)]
pub struct TimedAllocator<A> {
    inner: A,
    counters: Arc<Counters>,
}

impl<A: Allocator + Clone> Allocator for TimedAllocator<A> {
    fn allocate_into(&mut self, requests: &[f64], out: &mut Vec<u32>) {
        self.counters
            .requests
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        let inner = &mut self.inner;
        self.counters
            .time(Span::Allocate, || inner.allocate_into(requests, out))
    }
    fn allocate(&mut self, requests: &[f64]) -> Vec<u32> {
        self.counters
            .requests
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        let inner = &mut self.inner;
        self.counters
            .time(Span::Allocate, || inner.allocate(requests))
    }
    fn availabilities(&mut self, requests: &[f64]) -> Vec<u32> {
        self.inner.availabilities(requests)
    }
    fn try_availabilities(&mut self, requests: &[f64], out: &mut Vec<u32>) -> bool {
        self.inner.try_availabilities(requests, out)
    }
    fn total_processors(&self) -> u32 {
        self.inner.total_processors()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn allocation_stability(&self) -> AllocationStability {
        self.inner.allocation_stability()
    }
}

/// Times `reallocate`.
struct TimedGroupAllocator {
    inner: Box<dyn GroupAllocator + Send>,
    counters: Arc<Counters>,
}

impl GroupAllocator for TimedGroupAllocator {
    fn reallocate(
        &mut self,
        processors: u32,
        floor: u32,
        current: &[u32],
        desires: &[GroupDesire],
    ) -> Vec<u32> {
        let inner = &mut self.inner;
        self.counters.time(Span::GroupAllocate, || {
            inner.reallocate(processors, floor, current, desires)
        })
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abg::control::AControl;
    use abg::sched::PipelinedExecutor;
    use abg::sim::FixedQuantum;
    use abg::workload::paper_job;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // Several of these defaults change only speed, not outcomes, so the
    // outcome-hash tests cannot see a forward that went missing.
    #[test]
    fn wrappers_answer_every_defaulted_method_as_the_wrapped_component() {
        let traced = Traced::default();

        let job = || -> Box<dyn JobExecutor + Send> {
            let mut rng = StdRng::seed_from_u64(1);
            Box::new(PipelinedExecutor::new(paper_job(4, 100, 2, &mut rng)))
        };
        let (mut bare, mut wrapped) = (job(), traced.executor(job(), 10));
        let stats = bare.run_quantum(4, 10);
        assert_eq!(wrapped.run_quantum(4, 10), stats);
        let steady = bare.steady_quanta(4, 10, &stats);
        assert!(steady > 0);
        assert_eq!(wrapped.steady_quanta(4, 10, &stats), steady);
        assert!(bare.try_reset());
        assert!(wrapped.try_reset());

        // A paced controller moves the quantum-length hooks off their
        // defaults; a bare ABG controller answers the frozen-stepping ones.
        let pacer =
            || -> Box<dyn Controller + Send> { Box::new(FixedQuantum(7).pace(AControl::new(0.2))) };
        let (mut bare, mut wrapped) = (pacer(), traced.controller(pacer()));
        assert_eq!(wrapped.initial_request(), bare.initial_request());
        assert_eq!(wrapped.initial_quantum_len(100), 7);
        wrapped.observe(&stats);
        assert_eq!(wrapped.next_quantum_len(100), bare.next_quantum_len(100));
        let abg = || -> Box<dyn Controller + Send> { Box::new(AControl::new(0.2)) };
        let (mut bare, mut wrapped) = (abg(), traced.controller(abg()));
        assert!(wrapped.supports_frozen_stepping());
        for _ in 0..200 {
            assert_eq!(wrapped.observe(&stats), bare.observe(&stats));
        }
        assert!(bare.is_steady(&stats));
        assert!(wrapped.is_steady(&stats));

        let (mut bare, mut wrapped) = (
            DynamicEquiPartition::new(8),
            traced.allocator(DynamicEquiPartition::new(8)),
        );
        let requests = [1.0, 2.5, 9.0];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        assert!(bare.try_availabilities(&requests, &mut a));
        assert!(wrapped.try_availabilities(&requests, &mut b));
        assert_eq!(a, b);
        assert_eq!(
            wrapped.availabilities(&requests),
            bare.availabilities(&requests)
        );
        bare.allocate_into(&requests, &mut a);
        wrapped.allocate_into(&requests, &mut b);
        assert_eq!(a, b);
        assert_ne!(bare.allocation_stability(), AllocationStability::Unstable);
        assert_eq!(wrapped.allocation_stability(), bare.allocation_stability());
    }
}
