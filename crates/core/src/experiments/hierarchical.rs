//! The hierarchical skew sweep: top-level reallocation policies
//! against increasingly skewed arrival routing.
//!
//! A fixed equi-partition of the machine is optimal when arrivals
//! spread evenly across the processor groups — and pathological when
//! they do not: a group receiving `h` of every `h + G - 1` arrivals
//! sees its *local* offered load inflated by `h·G / (h + G - 1)` while
//! its neighbors idle. This experiment quantifies what the two-level
//! feedback loop buys back. For each skew factor `h` it runs the same
//! arrival sequence and job population under every configured
//! [`GroupPolicy`] and reports mean response time, median slowdown,
//! the hot group's final capacity, and the spread of per-group served
//! utilization. The static policy is the fixed-partition baseline; the
//! feedback policies should hold their response time roughly flat as the skew
//! grows, with the hot group's capacity following its load.

use super::per_cell;
use abg_alloc::DynamicEquiPartition;
use abg_control::{AControl, Controller, GroupPolicy};
use abg_dag::PhasedJob;
use abg_queue::{
    run_open_hierarchical_detailed, HierOpenConfig, OpenConfig, OpenOutcome, SaturationConfig,
    ShardRouting,
};
use abg_sched::PipelinedExecutor;
use abg_workload::{mean_gap_for_utilization, splitmix_seed, ArrivalProcess};
use std::sync::Arc;

/// Configuration of the hierarchical skew sweep. Every job runs the
/// paper's controller ([`AControl::paper_default`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalConfig {
    /// Machine size `P`.
    pub processors: u32,
    /// Processor groups `G` under the top-level allocator.
    pub groups: u32,
    /// Quantum length `L` in steps.
    pub quantum_len: u64,
    /// Reallocation epoch in quanta.
    pub realloc_epoch: u64,
    /// Aggregate offered load ρ (kept fixed across skews: skew moves
    /// load between groups without changing the machine-wide total).
    pub rho: f64,
    /// Skew factors to sweep: skew `h` routes `h` consecutive arrivals
    /// to group 0 for every one routed to each other group (`h = 1` is
    /// the uniform round-robin split).
    pub hots: Vec<u32>,
    /// Top-level policies to compare at every skew point.
    pub policies: Vec<GroupPolicy>,
    /// Constant parallel width of every arriving job.
    pub width: u64,
    /// Phases per job (`T₁ = width · levels`).
    pub levels: u64,
    /// Arrivals discarded as warmup before measurement.
    pub warmup_jobs: u64,
    /// Arrivals measured per run.
    pub measured_jobs: u64,
    /// Batches for the response-time confidence interval.
    pub batches: u32,
    /// Hard quanta budget per run (applies per group).
    pub max_quanta: u64,
    /// Saturation-detector tuning (applies per group).
    pub saturation: SaturationConfig,
    /// Experiment seed.
    pub seed: u64,
}

impl HierarchicalConfig {
    /// Full-scale sweep: 64 processors in 8 groups, skews up to 8:1.
    pub fn paper() -> Self {
        Self {
            processors: 64,
            groups: 8,
            quantum_len: 20,
            realloc_epoch: 50,
            rho: 0.45,
            hots: vec![1, 2, 4, 8],
            policies: vec![
                GroupPolicy::Static,
                GroupPolicy::Desire,
                GroupPolicy::Conservative,
            ],
            width: 4,
            levels: 50,
            warmup_jobs: 400,
            measured_jobs: 1600,
            batches: 16,
            max_quanta: 20_000_000,
            saturation: SaturationConfig::default(),
            seed: 0x5E3A,
        }
    }

    /// A scaled-down smoke sweep for tests and CI: 16 processors in 4
    /// groups, uniform and 4:1 skew, finishing in well under a second.
    pub fn smoke() -> Self {
        Self {
            processors: 16,
            groups: 4,
            quantum_len: 10,
            realloc_epoch: 16,
            rho: 0.35,
            hots: vec![1, 4],
            policies: vec![
                GroupPolicy::Static,
                GroupPolicy::Desire,
                GroupPolicy::Conservative,
            ],
            width: 2,
            levels: 40,
            warmup_jobs: 40,
            measured_jobs: 160,
            batches: 8,
            max_quanta: 2_000_000,
            saturation: SaturationConfig::default(),
            seed: 0x5E3A,
        }
    }

    /// The per-point hierarchical engine configuration at skew `hot`.
    fn hier_config(&self, hot: u32, mean_gap: f64) -> HierOpenConfig {
        HierOpenConfig {
            open: OpenConfig {
                processors: self.processors,
                quantum_len: self.quantum_len,
                arrivals: ArrivalProcess::Poisson { mean_gap },
                warmup_jobs: self.warmup_jobs,
                measured_jobs: self.measured_jobs,
                batches: self.batches,
                max_quanta: self.max_quanta,
                saturation: self.saturation,
                // One seed per skew, shared by every policy: identical
                // arrivals and job structures — a paired comparison.
                seed: splitmix_seed(self.seed, hot as u64, 3),
            },
            groups: self.groups,
            routing: ShardRouting::Skewed { hot },
            realloc_epoch: self.realloc_epoch,
            group_floor: 1,
        }
    }

    /// Validates the engine configuration this sweep would run.
    pub fn validate(&self) -> Result<(), abg_queue::ConfigError> {
        self.hier_config(1, 1.0).validate()
    }
}

/// One policy's measurements at one skew point.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyPoint {
    /// The top-level policy measured.
    pub policy: GroupPolicy,
    /// Whether every group reached its measurement target.
    pub stable: bool,
    /// Mean response time in steps (`NaN` when unstable).
    pub mean_response: f64,
    /// ~95% batch-means half-width of the mean (`NaN` when unstable).
    pub response_half_width: f64,
    /// Median slowdown (`NaN` when unstable).
    pub slowdown_p50: f64,
    /// Capacity the hot group (group 0) held when the run ended.
    pub hot_processors: u32,
    /// Per-group served utilization (completed work over each group's
    /// own capacity integral), in group order.
    pub group_utilization: Vec<f64>,
}

/// One skew point: every configured policy against the same arrivals.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalRow {
    /// The skew factor `h` (group 0 receives `h` of every `h + G - 1`
    /// arrivals).
    pub hot: u32,
    /// The hot group's local offered load under the *fixed*
    /// equi-partition — the load the static baseline actually faces:
    /// `ρ · h·G / (h + G - 1)`.
    pub hot_local_rho: f64,
    /// One cell per configured policy, in config order.
    pub cells: Vec<PolicyPoint>,
}

/// Runs the hierarchical skew sweep; one [`HierarchicalRow`] per
/// configured skew factor, each with one [`PolicyPoint`] per policy.
///
/// # Panics
///
/// Panics if the config has no skew factors or policies, or an
/// inconsistent engine setup (see [`HierarchicalConfig::validate`]).
pub fn hierarchical_skew_sweep(cfg: &HierarchicalConfig) -> Vec<HierarchicalRow> {
    assert!(!cfg.hots.is_empty(), "sweep needs at least one skew");
    assert!(!cfg.policies.is_empty(), "sweep needs at least one policy");
    let work = (cfg.width * cfg.levels) as f64;
    let mean_gap = mean_gap_for_utilization(cfg.rho, cfg.processors, work);
    let cells = per_cell(&cfg.hots, cfg.policies.len() as u32, |hot, index| {
        let policy = cfg.policies[index as usize];
        let hier = cfg.hier_config(hot, mean_gap);
        let job = Arc::new(PhasedJob::constant(cfg.width, cfg.levels));
        let (outcome, groups) = run_open_hierarchical_detailed(
            &hier,
            DynamicEquiPartition::new,
            move |_rng, _recycled| Box::new(PipelinedExecutor::new(Arc::clone(&job))),
            || -> Box<dyn Controller + Send> { Box::new(AControl::paper_default()) },
            policy.build(),
            1,
        );
        let (stable, mean_response, response_half_width, slowdown_p50) = match &outcome {
            OpenOutcome::Steady(s) => {
                (true, s.response.mean, s.response.half_width, s.slowdown.p50)
            }
            OpenOutcome::Unstable(_) => (false, f64::NAN, f64::NAN, f64::NAN),
        };
        PolicyPoint {
            policy,
            stable,
            mean_response,
            response_half_width,
            slowdown_p50,
            hot_processors: groups[0].final_processors,
            group_utilization: groups.iter().map(|g| g.utilization).collect(),
        }
    });
    cfg.hots
        .iter()
        .zip(cells.iter())
        .map(|(&hot, cells)| HierarchicalRow {
            hot,
            hot_local_rho: cfg.rho * (hot as f64 * cfg.groups as f64)
                / (hot as f64 + cfg.groups as f64 - 1.0),
            cells: cells.to_vec(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_shape_and_stability() {
        let cfg = HierarchicalConfig::smoke();
        let rows = hierarchical_skew_sweep(&cfg);
        assert_eq!(rows.len(), cfg.hots.len());
        for row in &rows {
            assert_eq!(row.cells.len(), cfg.policies.len());
            for cell in &row.cells {
                assert!(cell.stable, "{:?} unstable at hot={}", cell.policy, row.hot);
                assert!(cell.mean_response.is_finite());
                assert!(cell.slowdown_p50 >= 1.0);
                assert_eq!(cell.group_utilization.len(), cfg.groups as usize);
            }
        }
        // At the uniform point the local load equals the aggregate.
        assert!((rows[0].hot_local_rho - cfg.rho).abs() < 1e-12);
        assert!(rows[1].hot_local_rho > cfg.rho);
    }

    #[test]
    fn feedback_beats_the_static_partition_under_skew() {
        // The headline claim: at 4:1 skew the desire-proportional top
        // level must deliver a lower mean response time than the fixed
        // partition, by shifting capacity toward the hot group.
        let cfg = HierarchicalConfig::smoke();
        let rows = hierarchical_skew_sweep(&cfg);
        let skewed = rows.last().unwrap();
        let stat = &skewed.cells[0];
        let desire = &skewed.cells[1];
        assert_eq!(stat.policy, GroupPolicy::Static);
        assert_eq!(desire.policy, GroupPolicy::Desire);
        assert!(
            desire.mean_response < stat.mean_response,
            "desire {} !< static {}",
            desire.mean_response,
            stat.mean_response
        );
        // Capacity visibly followed the load: the static hot group is
        // stuck at P/G while desire's hot group ended above it.
        assert_eq!(stat.hot_processors, cfg.processors / cfg.groups);
        assert!(desire.hot_processors > stat.hot_processors);
    }

    #[test]
    fn sweep_is_deterministic() {
        let mut cfg = HierarchicalConfig::smoke();
        cfg.hots = vec![4];
        let a = hierarchical_skew_sweep(&cfg);
        let b = hierarchical_skew_sweep(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn validate_surfaces_engine_errors() {
        let mut cfg = HierarchicalConfig::smoke();
        assert_eq!(cfg.validate(), Ok(()));
        cfg.realloc_epoch = 0;
        assert_eq!(cfg.validate(), Err(abg_queue::ConfigError::BadReallocEpoch));
    }
}
