//! Discrete-time simulation engine for the ABG reproduction.
//!
//! The simulator realises the paper's two-level scheduling framework:
//! time advances in unit steps grouped into quanta of `L` steps; at every
//! quantum boundary each live job's request calculator reports `d(q)` to
//! the OS allocator, the allocator grants allotments `a(q)`, and each
//! job's task scheduler runs the quantum and measures its statistics.
//!
//! One closed driver covers the paper's two simulation sets:
//! [`MultiJobSim`] runs a job set space-sharing the machine through a
//! shared allocator such as DEQ (Figure 6), with release times and
//! global metrics (makespan, mean response time), and
//! [`MultiJobSim::run_job`] runs one job alone on the machine (Figures
//! 1, 4, 5 and the trim-analysis experiments) as a one-job set. Either
//! way each job comes back as the core's [`CompletedJob`] — response
//! time, waste, work, span and the optional [`QuantumRecord`] trace — so
//! a job alone and a job in a set are measured by one record.
//!
//! Every driver is a thin configuration of one generic loop:
//! [`quantum_core::QuantumCore`], parameterized over the executor,
//! controller, allocator and a monomorphized [`probe::Probe`] observer
//! ([`NullProbe`] compiles the instrumentation away). The core admits
//! jobs at any time and drains them as they complete, so the
//! open-system (sustained-arrival) driver in `abg-queue` runs
//! indefinitely on it, probes included.
//!
//! [`trim`] implements the paper's trim analysis (Section 6.1), and
//! [`adaptive`] the paced controllers of the paper's future-work
//! section (plus the reallocation-overhead accounting its motivation
//! calls for).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod multi;
pub mod probe;
pub mod quantum_core;
pub mod trace;
pub mod trim;

pub use adaptive::{AdaptiveQuantum, FixedQuantum, Paced};
pub use multi::{MultiJobOutcome, MultiJobSim};
pub use probe::{NullProbe, Probe, TraceProbe};
pub use quantum_core::{live_job_footprint, CompletedJob, QuantumCore};
pub use trace::QuantumRecord;
pub use trim::{mean_availability, trimmed_availability};
