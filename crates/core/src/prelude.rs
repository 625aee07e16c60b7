//! Convenience re-exports of the types most programs need.

pub use abg_alloc::{Allocator, DynamicEquiPartition, Proportional, RoundRobin, Scripted};
pub use abg_control::{AControl, AGreedy, ClosedLoop, ConstantRequest, Controller, OracleRequest};
pub use abg_dag::{
    DagBuilder, ExplicitDag, ForkJoinSpec, JobStructure, LeveledJob, ParallelismProfile, Phase,
    PhasedJob, TaskId,
};
pub use abg_sched::{
    BGreedyExecutor, DepthFirstExecutor, GreedyExecutor, JobExecutor, LeveledExecutor,
    OwnedBGreedyExecutor, PipelinedExecutor, QuantumStats,
};
pub use abg_sim::{
    run_single_job, CompletedJob, JobMetrics, JobOutcome, MultiJobOutcome, MultiJobSim, NullProbe,
    Probe, QuantumCore, QuantumRecord, SingleJobConfig, SingleJobRun, TraceProbe,
};
pub use abg_workload::{paper_job, JobSet, JobSetSpec, ReleaseSchedule};

pub use crate::bounds;
