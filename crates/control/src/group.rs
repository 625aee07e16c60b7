//! Top-level processor allocation among processor *groups* — the upper
//! half of hierarchical two-level scheduling.
//!
//! In the two-level schemes for malleable jobs (Cao, Sun, Qian, Wu's
//! scalable hierarchical scheduling; the control-theoretic framing of
//! Furia et al.), each group of processors runs its own adaptive
//! scheduler (ABG / A-Greedy under an equi-partition allocator here)
//! and periodically reports a **group desire** upward: its aggregated
//! job requests, in-system population, and served utilization. A
//! top-level [`GroupAllocator`] folds those desires into a new capacity
//! partition at fixed reallocation epochs.
//!
//! The contract mirrors the per-job [`Controller`](crate::Controller)
//! trait one level down: the policy is fed feedback and produces the
//! next grant, but never touches the simulation itself. Every policy
//! must return capacities that sum to exactly the machine size and
//! never fall below the configured per-group floor — the floor is what
//! keeps a starved group able to *report* desire again (a group at
//! zero processors could never run a job and would deadlock the
//! feedback loop).

/// One group's per-epoch feedback to the top-level allocator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GroupDesire {
    /// Sum of the standing processor requests `d(q)` of the group's
    /// live jobs at the epoch boundary — the group's aggregate desire
    /// in the sense of the hierarchical desire-feedback schemes.
    pub requests: f64,
    /// Jobs in the group's system (released or pending) at the epoch
    /// boundary.
    pub population: u64,
    /// Fraction of the group's capacity spent on *completed* work over
    /// the last epoch (`0.0` when the group was idle the whole epoch).
    /// Lumpy at small epochs — work in progress counts only when its
    /// job completes — but a pure function of the simulation state.
    pub utilization: f64,
}

/// A top-level allocator policy: folds per-group desires into the next
/// capacity partition at each reallocation epoch.
///
/// Invariants every implementation must uphold (the driver asserts
/// them, and the crate's property tests exercise them):
///
/// * the returned vector has one entry per group;
/// * the capacities sum to exactly `processors`;
/// * every capacity is at least `floor` (which validation guarantees
///   satisfies `groups * floor <= processors`).
pub trait GroupAllocator {
    /// Computes the capacity partition for the next epoch from the
    /// current partition and the per-group desires of the epoch that
    /// just ended. `current` and `desires` are indexed by group, and
    /// the initial partition is always the equi-partition (see
    /// [`equi_partition`]); policies only ever diverge from it at epoch
    /// boundaries.
    fn reallocate(
        &mut self,
        processors: u32,
        floor: u32,
        current: &[u32],
        desires: &[GroupDesire],
    ) -> Vec<u32>;

    /// Short human-readable name used in reports and CLI output.
    fn name(&self) -> &'static str;
}

/// Boxed group allocators are group allocators too, so drivers can be
/// generic over the policy while the CLI picks one at runtime.
impl GroupAllocator for Box<dyn GroupAllocator + Send> {
    fn reallocate(
        &mut self,
        processors: u32,
        floor: u32,
        current: &[u32],
        desires: &[GroupDesire],
    ) -> Vec<u32> {
        (**self).reallocate(processors, floor, current, desires)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// The equi-partition of `processors` over `groups`: `P/G` each, with
/// the remainder spread over the lowest-index groups. This is the
/// partition every hierarchical run starts from; under [`StaticEqui`]
/// it is the fixed partition the run keeps.
///
/// # Panics
///
/// Panics if `groups == 0`.
pub fn equi_partition(processors: u32, groups: u32) -> Vec<u32> {
    assert!(groups > 0, "need at least one processor group");
    (0..groups)
        .map(|k| processors / groups + u32::from(k < processors % groups))
        .collect()
}

/// Largest-remainder apportionment of `processors` over non-negative
/// `weights`, with every entry granted at least `floor`: the shared
/// arithmetic under the feedback policies. Each group is guaranteed its
/// floor; the remaining `processors - n*floor` are split proportionally
/// to the weights, fractional leftovers going to the largest
/// remainders (ties to the lowest group index). Weights that are all
/// zero (or not finite) fall back to equal weights, i.e. the
/// equi-partition of the free pool.
///
/// The result always sums to exactly `processors` and every entry is
/// at least `floor` — by construction, not by rounding luck.
///
/// # Panics
///
/// Panics if `weights` is empty or `floor * weights.len() > processors`
/// (validation upstream rejects such configurations).
fn apportion(processors: u32, floor: u32, weights: &[f64]) -> Vec<u32> {
    let n = weights.len();
    assert!(n > 0, "need at least one processor group");
    let floored = (floor as u64).checked_mul(n as u64).expect("tiny sizes");
    assert!(
        floored <= processors as u64,
        "floor {floor} over {n} groups exceeds {processors} processors"
    );
    let free = processors - floored as u32;

    let clean: Vec<f64> = weights.iter().map(|w| w.max(0.0)).collect();
    let total: f64 = clean.iter().sum();
    let uniform = !(total.is_finite() && total > 0.0);

    // Integer part of each proportional share, then the fractional
    // remainders decide who gets the leftover units.
    let mut out = vec![floor; n];
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(n);
    let mut granted = 0u32;
    for (k, w) in clean.iter().enumerate() {
        let share = if uniform {
            free as f64 / n as f64
        } else {
            free as f64 * w / total
        };
        let base = (share.floor() as u32).min(free - granted.min(free));
        out[k] += base;
        granted += base;
        remainders.push((k, share - share.floor()));
    }
    // Largest remainder first; ties broken by group index for a fully
    // deterministic order.
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    let mut leftover = free - granted;
    while leftover > 0 {
        for &(k, _) in &remainders {
            if leftover == 0 {
                break;
            }
            out[k] += 1;
            leftover -= 1;
        }
    }
    out
}

/// The fixed partition: holds the initial equi-partition forever, so
/// every group keeps its `P/G` processors (the capacities never change,
/// so the per-group cores never see a reallocation).
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticEqui;

impl GroupAllocator for StaticEqui {
    fn reallocate(
        &mut self,
        _processors: u32,
        _floor: u32,
        current: &[u32],
        _desires: &[GroupDesire],
    ) -> Vec<u32> {
        current.to_vec()
    }
    fn name(&self) -> &'static str {
        "static"
    }
}

/// Desire-proportional feedback partitioning: each epoch the free pool
/// (everything above the per-group floors) is apportioned in
/// proportion to the groups' aggregated request sums, with an optional
/// per-group ceiling. This is the top-level rule of the hierarchical
/// desire-feedback schemes: groups drowning in requests grow, idle
/// groups shrink to their floor, and a machine with no desire anywhere
/// relaxes back to the equi-partition.
#[derive(Debug, Clone, Copy, Default)]
pub struct DesireProportional {
    /// Optional per-group capacity ceiling; surplus above it is
    /// redistributed to groups still below theirs.
    max_per_group: Option<u32>,
}

impl DesireProportional {
    /// A desire-proportional policy with no per-group ceiling.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps every group at `max` processors (clamped to at least the
    /// floor at reallocation time); surplus is redistributed in group
    /// index order among groups below the cap, and the cap is ignored
    /// when it cannot be honored (all groups at the cap with processors
    /// still unplaced).
    pub fn with_max(max: u32) -> Self {
        Self {
            max_per_group: Some(max),
        }
    }
}

impl GroupAllocator for DesireProportional {
    fn reallocate(
        &mut self,
        processors: u32,
        floor: u32,
        _current: &[u32],
        desires: &[GroupDesire],
    ) -> Vec<u32> {
        let weights: Vec<f64> = desires.iter().map(|d| d.requests).collect();
        let mut out = apportion(processors, floor, &weights);
        if let Some(max) = self.max_per_group {
            clamp_to_max(&mut out, max.max(floor));
        }
        out
    }
    fn name(&self) -> &'static str {
        "desire"
    }
}

/// Trims every entry above `max` and hands the surplus to entries
/// still below it, one unit at a time in index order. If every entry
/// sits at the cap with surplus left, the cap is infeasible
/// (`max * n < sum`) and the remainder is spread round-robin anyway —
/// the sum invariant outranks the ceiling.
fn clamp_to_max(out: &mut [u32], max: u32) {
    let mut surplus = 0u32;
    for c in out.iter_mut() {
        if *c > max {
            surplus += *c - max;
            *c = max;
        }
    }
    let n = out.len();
    let mut k = 0usize;
    let mut stalled = 0usize;
    while surplus > 0 {
        if out[k] < max || stalled >= n {
            out[k] += 1;
            surplus -= 1;
            stalled = 0;
        } else {
            stalled += 1;
        }
        k = (k + 1) % n;
    }
}

/// A-Greedy's multiplicative desire adjustment lifted to the group
/// level: each group carries a desire multiplier that grows by `rho`
/// when the group was efficient (utilization at least `delta`) but
/// deprived (requested more than its capacity), shrinks by `rho` when
/// the group ran inefficiently, and holds otherwise. Idle groups reset
/// to a desire of one. Capacities are then apportioned to the desires
/// like [`DesireProportional`] — the conservative variant reacts over
/// several epochs where desire-proportional jumps immediately.
#[derive(Debug, Clone)]
pub struct ConservativeTwoLevel {
    rho: f64,
    delta: f64,
    desires: Vec<f64>,
}

impl ConservativeTwoLevel {
    /// A conservative two-level policy with responsiveness `rho > 1`
    /// and utilization threshold `delta` in `(0, 1)` — the same
    /// parameter shape as the per-job A-Greedy controller.
    ///
    /// # Panics
    ///
    /// Panics unless `rho > 1.0` and `0.0 < delta < 1.0`.
    pub fn new(rho: f64, delta: f64) -> Self {
        assert!(rho > 1.0, "responsiveness must exceed 1");
        assert!(delta > 0.0 && delta < 1.0, "threshold must be in (0, 1)");
        Self {
            rho,
            delta,
            desires: Vec::new(),
        }
    }
}

impl GroupAllocator for ConservativeTwoLevel {
    fn reallocate(
        &mut self,
        processors: u32,
        floor: u32,
        current: &[u32],
        desires: &[GroupDesire],
    ) -> Vec<u32> {
        if self.desires.len() != desires.len() {
            self.desires = vec![1.0; desires.len()];
        }
        for (k, d) in desires.iter().enumerate() {
            let g = &mut self.desires[k];
            if d.population == 0 {
                *g = 1.0;
            } else if d.utilization < self.delta {
                *g = (*g / self.rho).max(1.0);
            } else if d.requests > current[k] as f64 {
                *g = (*g * self.rho).min(processors as f64);
            }
        }
        apportion(processors, floor, &self.desires)
    }
    fn name(&self) -> &'static str {
        "conservative"
    }
}

/// The named top-level policies, as a plain enum so configurations and
/// the CLI can carry a policy by name and build the trait object at
/// run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupPolicy {
    /// [`StaticEqui`]: the fixed equi-partition.
    Static,
    /// [`DesireProportional`] with no per-group ceiling.
    Desire,
    /// [`ConservativeTwoLevel`] with the A-Greedy-shaped defaults
    /// `rho = 2`, `delta = 0.8`.
    Conservative,
}

impl GroupPolicy {
    /// Builds the policy behind the name.
    pub fn build(self) -> Box<dyn GroupAllocator + Send> {
        match self {
            GroupPolicy::Static => Box::new(StaticEqui),
            GroupPolicy::Desire => Box::new(DesireProportional::new()),
            GroupPolicy::Conservative => Box::new(ConservativeTwoLevel::new(2.0, 0.8)),
        }
    }

    /// The policy's [`GroupAllocator::name`] without building it.
    pub fn name(self) -> &'static str {
        match self {
            GroupPolicy::Static => "static",
            GroupPolicy::Desire => "desire",
            GroupPolicy::Conservative => "conservative",
        }
    }
}

impl std::str::FromStr for GroupPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "static" => Ok(GroupPolicy::Static),
            "desire" => Ok(GroupPolicy::Desire),
            "conservative" => Ok(GroupPolicy::Conservative),
            other => Err(format!(
                "unknown group allocator '{other}' (expected static, desire or conservative)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desire(requests: f64, population: u64, utilization: f64) -> GroupDesire {
        GroupDesire {
            requests,
            population,
            utilization,
        }
    }

    #[test]
    fn equi_partition_spreads_the_remainder_low_first() {
        assert_eq!(equi_partition(16, 3), vec![6, 5, 5]);
        assert_eq!(equi_partition(16, 1), vec![16]);
        assert_eq!(equi_partition(3, 4), vec![1, 1, 1, 0]);
    }

    #[test]
    fn apportion_is_proportional_with_exact_sum() {
        // 12 free over weights 3:1 → 9:3 on top of floor 1 each.
        assert_eq!(apportion(14, 1, &[3.0, 1.0]), vec![10, 4]);
        // Zero weights fall back to equal shares.
        assert_eq!(apportion(8, 1, &[0.0, 0.0]), vec![4, 4]);
        // Largest remainder wins the leftover unit; ties go low-index.
        assert_eq!(apportion(3, 0, &[1.0, 1.0]), vec![2, 1]);
        // Negative and non-finite weights are treated as zero weight.
        let caps = apportion(9, 1, &[f64::NAN, -2.0, 6.0]);
        assert_eq!(caps.iter().sum::<u32>(), 9);
        assert_eq!(caps[2], 7);
    }

    #[test]
    fn static_equi_holds_whatever_partition_it_is_handed() {
        let mut alloc = StaticEqui;
        let current = vec![6, 5, 5];
        let desires = vec![
            desire(100.0, 40, 1.0),
            desire(0.0, 0, 0.0),
            desire(0.0, 0, 0.0),
        ];
        assert_eq!(alloc.reallocate(16, 1, &current, &desires), current);
        assert_eq!(alloc.name(), "static");
    }

    #[test]
    fn desire_proportional_follows_the_request_skew() {
        let mut alloc = DesireProportional::new();
        let desires = vec![desire(30.0, 20, 0.9), desire(10.0, 5, 0.5)];
        let caps = alloc.reallocate(16, 1, &[8, 8], &desires);
        assert_eq!(caps.iter().sum::<u32>(), 16);
        // Floor 1 each, 14 free split 3:1 → 10.5:3.5 → [12, 4] or
        // [11, 5] depending on rounding; exact: 14*0.75 = 10.5 → base
        // 10, remainder .5 each, leftover 1 to lower index → [12, 4].
        assert_eq!(caps, vec![12, 4]);
        // No desire anywhere: relax back to equal shares.
        let idle = vec![desire(0.0, 0, 0.0); 2];
        assert_eq!(alloc.reallocate(16, 1, &caps, &idle), vec![8, 8]);
    }

    #[test]
    fn desire_proportional_honors_the_ceiling_when_feasible() {
        let mut alloc = DesireProportional::with_max(9);
        let desires = vec![desire(100.0, 50, 1.0), desire(1.0, 1, 0.2)];
        let caps = alloc.reallocate(16, 1, &[8, 8], &desires);
        assert_eq!(caps, vec![9, 7]);
        // Infeasible ceiling (2 groups × max 7 < 16): sum still wins.
        let mut tight = DesireProportional::with_max(7);
        let caps = tight.reallocate(16, 1, &[8, 8], &desires);
        assert_eq!(caps.iter().sum::<u32>(), 16);
    }

    #[test]
    fn conservative_policy_ramps_desire_multiplicatively() {
        let mut alloc = ConservativeTwoLevel::new(2.0, 0.8);
        let mut current = equi_partition(16, 2);
        // Group 0 efficient and deprived, group 1 idle: capacity shifts
        // toward group 0 over epochs, but only by a factor of rho each.
        let desires = vec![desire(20.0, 10, 0.95), desire(0.0, 0, 0.0)];
        current = alloc.reallocate(16, 1, &current, &desires);
        // Desires 2:1 over 14 free → [10, 6] (with floors).
        assert_eq!(current, vec![10, 6]);
        current = alloc.reallocate(16, 1, &current, &desires);
        // Desires 4:1 over 14 free → ~[12, 4].
        assert!(current[0] > 10, "desire keeps ramping: {current:?}");
        assert_eq!(current.iter().sum::<u32>(), 16);
        // Group 0 turns inefficient: its desire halves back.
        let cooled = vec![desire(20.0, 10, 0.2), desire(0.0, 0, 0.0)];
        let next = alloc.reallocate(16, 1, &current, &cooled);
        assert!(next[0] < current[0], "inefficiency must shrink: {next:?}");
    }

    #[test]
    fn policy_names_round_trip_through_from_str() {
        for (name, policy) in [
            ("static", GroupPolicy::Static),
            ("desire", GroupPolicy::Desire),
            ("conservative", GroupPolicy::Conservative),
        ] {
            assert_eq!(name.parse::<GroupPolicy>().unwrap(), policy);
            assert_eq!(policy.name(), name);
            assert_eq!(policy.build().name(), name);
        }
        let err = "greedy".parse::<GroupPolicy>().unwrap_err();
        assert!(err.contains("unknown group allocator 'greedy'"), "{err}");
    }
}
