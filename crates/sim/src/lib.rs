//! Discrete-time simulation engine for the ABG reproduction.
//!
//! The simulator realises the paper's two-level scheduling framework:
//! time advances in unit steps grouped into quanta of `L` steps; at every
//! quantum boundary each live job's request calculator reports `d(q)` to
//! the OS allocator, the allocator grants allotments `a(q)`, and each
//! job's task scheduler runs the quantum and measures its statistics.
//!
//! Two entry points cover the paper's two simulation sets:
//!
//! * [`run_single_job`] — one job alone on the machine (Figures 1, 4, 5
//!   and the trim-analysis experiments), with optional per-quantum
//!   tracing;
//! * [`MultiJobSim`] — a job set space-sharing the machine through a
//!   shared allocator such as DEQ (Figure 6), with release times and
//!   global metrics (makespan, mean response time).
//!
//! Every driver is a thin configuration of one generic loop:
//! [`quantum_core::QuantumCore`], parameterized over the executor,
//! controller, allocator and a monomorphized [`probe::Probe`] observer
//! ([`NullProbe`] compiles the instrumentation away). The core admits
//! jobs at any time and drains them as they complete, so the
//! open-system (sustained-arrival) driver in `abg-queue` runs
//! indefinitely on it, probes included.
//!
//! [`trim`] implements the paper's trim analysis (Section 6.1),
//! [`metrics`] the derived per-run measurements, and [`adaptive`] the
//! paced controllers of the paper's future-work section (plus the
//! reallocation-overhead accounting its motivation calls for).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod metrics;
pub mod multi;
pub mod probe;
pub mod quantum_core;
pub mod single;
pub mod trace;
pub mod trim;

pub use adaptive::{AdaptiveQuantum, FixedQuantum, Paced};
pub use metrics::{JobMetrics, QuantumClass};
pub use multi::{JobOutcome, MultiJobOutcome, MultiJobSim};
pub use probe::{NullProbe, Probe, TraceProbe};
pub use quantum_core::{live_job_footprint, CompletedJob, QuantumCore};
pub use single::{run_single_job, SingleJobConfig, SingleJobRun};
pub use trace::{trace_to_csv, QuantumRecord};
pub use trim::{mean_availability, trimmed_availability};
