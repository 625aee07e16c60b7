//! # Adaptive B-Greedy (ABG)
//!
//! A from-scratch Rust reproduction of *"Adaptive B-Greedy (ABG): A
//! Simple yet Efficient Scheduling Algorithm"* (Sun & Hsu, IPDPS 2008):
//! two-level adaptive scheduling of malleable parallel jobs with
//! parallelism feedback.
//!
//! ABG couples two pieces:
//!
//! * **B-Greedy** ([`abg_sched::BGreedyExecutor`]) — a greedy task
//!   scheduler with breadth-first (lowest-level-first) priority that
//!   measures each quantum's average parallelism
//!   `A(q) = T1(q) / T∞(q)` with fractional critical-path progress;
//! * **A-Control** ([`abg_control::AControl`]) — a self-tuning integral
//!   controller turning the measurement into the next processor request,
//!   `d(q) = r·d(q−1) + (1 − r)·A(q−1)`.
//!
//! The baseline it is evaluated against is **A-Greedy**
//! ([`abg_control::AGreedy`]), the multiplicative-increase /
//! multiplicative-decrease scheduler of Agrawal et al.
//!
//! ## Quick start
//!
//! ```
//! use abg::prelude::*;
//!
//! // A data-parallel job: 1-wide serial phases around a 16-wide phase.
//! let job = PhasedJob::new(vec![
//!     Phase::new(1, 20),
//!     Phase::new(16, 40),
//!     Phase::new(1, 20),
//! ]);
//!
//! // Schedule it with ABG (convergence rate 0.2) alone on 64 processors,
//! // quantum length 10.
//! let run = MultiJobSim::homogeneous(Scripted::ample(64), 10)
//!     .run_job(PipelinedExecutor::new(job), AControl::new(0.2));
//! assert!(run.speedup() > 1.0);
//! ```
//!
//! The [`experiments`] module regenerates every figure of the paper's
//! evaluation; [`bounds`] implements the theoretical guarantees
//! (Theorems 3–5 and the lower bounds they are competitive against); and
//! [`report`] renders experiment output as aligned tables or CSV.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod experiments;
pub mod gantt;
pub mod prelude;
pub mod report;

pub use abg_alloc as alloc;
pub use abg_control as control;
pub use abg_dag as dag;
pub use abg_queue as queue;
pub use abg_sched as sched;
pub use abg_sim as sim;
pub use abg_workload as workload;
