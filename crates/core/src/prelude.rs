//! Convenience re-exports of the types most programs need.

pub use abg_alloc::{Allocator, DynamicEquiPartition, Proportional, RoundRobin, Scripted};
pub use abg_control::{AControl, AGreedy, ClosedLoop, ConstantRequest, Controller, OracleRequest};
pub use abg_dag::{
    DagBuilder, ExplicitDag, ForkJoinSpec, JobStructure, ParallelismProfile, Phase, PhasedJob,
    TaskId,
};
pub use abg_sched::{
    BGreedyExecutor, DepthFirstExecutor, GreedyExecutor, JobExecutor, OwnedBGreedyExecutor,
    PipelinedExecutor, QuantumStats,
};
pub use abg_sim::{
    CompletedJob, MultiJobOutcome, MultiJobSim, NullProbe, Probe, QuantumCore, QuantumRecord,
    TraceProbe,
};
pub use abg_workload::{paper_job, JobSet, JobSetSpec, ReleaseSchedule};

pub use crate::bounds;
