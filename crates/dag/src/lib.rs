//! Job model for the ABG reproduction.
//!
//! The paper models a malleable job as a *dynamically unfolding directed
//! acyclic graph* of unit-size tasks. Two intrinsic characteristics drive
//! all the analysis:
//!
//! * the **work** `T1` — the total number of tasks in the dag, and
//! * the **critical-path length** `T∞` — the number of tasks on the longest
//!   dependency chain.
//!
//! The paper additionally introduces the **transition factor** `C_L`: the
//! maximal ratio between the average parallelism of any two adjacent full
//! scheduling quanta of length `L` (Section 5.2).
//!
//! This crate provides two concrete job representations:
//!
//! * [`ExplicitDag`] — an arbitrary precedence graph, built with
//!   [`DagBuilder`] and validated (acyclic, in-bounds). Its tasks are unit
//!   unless the dag carries a per-task weight table, under which a task of
//!   weight `w` costs `ceil(w)` processor-steps. This is the fully general
//!   model used by the per-task simulator, the weighted workflow
//!   families, unit tests and the paper's Figure-2 example.
//! * [`PhasedJob`] — a fork-join job given by its phase list, with
//!   *pipelined* chains inside each phase and a join between phases. This
//!   is the default model for the paper's data-parallel workloads; it
//!   admits an `O(phases)` fast-forward executor. The stricter
//!   bulk-synchronous reading, a barrier between *every* pair of
//!   consecutive levels, is a `PhasedJob` of one-level phases
//!   ([`PhasedJob::barrier`]), kept for the phase-semantics ablation.
//!
//! Both representations expose the same intrinsic statistics through
//! [`JobStructure`], and `PhasedJob` lowers to an `ExplicitDag`
//! ([`PhasedJob::to_explicit`]) so property tests can cross-check the
//! execution paths against per-task simulation.
//!
//! ```
//! use abg_dag::{JobStructure, Phase, PhasedJob};
//!
//! // serial(4) -> 8-wide(16) -> serial(4): a fork-join job.
//! let job = PhasedJob::new(vec![
//!     Phase::new(1, 4),
//!     Phase::new(8, 16),
//!     Phase::new(1, 4),
//! ]);
//! assert_eq!(job.work(), 4 + 128 + 4);
//! assert_eq!(job.span(), 24);
//! // The transition factor for 8-level quanta is the serial/parallel jump.
//! assert!(job.transition_factor(8) >= 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explicit;
pub mod generate;
pub mod phased;
pub mod profile;
pub mod stats;

pub use explicit::{weight_cost, DagBuilder, DagError, ExplicitDag, WeightProfile};
pub use generate::ForkJoinSpec;
pub use phased::{Phase, PhasedJob};
pub use profile::ParallelismProfile;
pub use stats::{transition_factor, JobStructure};

/// Identifier of a unit task inside a single job.
///
/// Task ids are dense indices assigned by the builder in insertion order;
/// they carry no scheduling meaning beyond identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The task id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The level of a task: the number of tasks on the longest chain from any
/// source of the dag up to and including the task, minus one.
///
/// Sources have level 0, and the critical-path length of a job equals its
/// maximum level plus one. B-Greedy prioritises ready tasks with the lowest
/// level (Section 2 of the paper).
pub type Level = u32;
