//! Arbitrary precedence graphs over unit or weighted tasks.
//!
//! An [`ExplicitDag`] stores the successor adjacency in CSR (compressed
//! sparse row) form — one flat successor array plus an offset table —
//! together with the in-degrees of every task and the level assignment
//! (longest distance from a source). It is constructed through
//! [`DagBuilder`], which validates that the graph is acyclic and
//! well-formed before any scheduler touches it.
//!
//! # Memory layout
//!
//! The builder records edges as a flat `(from, to)` list (with an O(1)
//! hash-based duplicate check) and finalizes into CSR with one stable
//! counting sort, so building a dag is O(V + E) regardless of density.
//! The finished dag packs all successors into a single contiguous
//! allocation: executors iterating `successors(t)` on the hot path read
//! one offset pair and then walk a dense slice, instead of chasing a
//! per-task heap pointer as the previous `Vec<Vec<TaskId>>` layout did.
//!
//! Those structural arrays sit behind one `Arc`, apart from the optional
//! per-task weight table. A workflow generator that draws fresh weights
//! over one kept structure for every arrival therefore allocates only
//! the weight table per dag; the CSR is built once and shared.

use crate::{Level, TaskId};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

/// Errors detected while building or validating a dag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// The graph contains no tasks; a job must have at least one task.
    Empty,
    /// An edge references a task id that was never added.
    UnknownTask(TaskId),
    /// An edge from a task to itself.
    SelfLoop(TaskId),
    /// The same (from, to) edge was added twice.
    DuplicateEdge(TaskId, TaskId),
    /// The precedence relation contains a cycle; `remaining` tasks could
    /// not be topologically ordered.
    Cycle {
        /// Number of tasks that are part of (or downstream of) a cycle.
        remaining: usize,
    },
    /// A weight table's length differs from the dag's task count.
    WeightTableLength {
        /// Tasks in the dag.
        tasks: usize,
        /// Entries in the rejected table.
        weights: usize,
    },
    /// A task weight is not a finite positive number (NaN, infinite,
    /// zero or negative weights would poison the span accounting).
    InvalidWeight(TaskId),
    /// A task's cost `ceil(weight)`, or the running total cost of the
    /// dag up to and including that task, does not fit in `u64`.
    CostOverflow(TaskId),
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::Empty => write!(f, "dag has no tasks"),
            DagError::UnknownTask(t) => write!(f, "edge references unknown task {t}"),
            DagError::SelfLoop(t) => write!(f, "self-loop on task {t}"),
            DagError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            DagError::Cycle { remaining } => {
                write!(
                    f,
                    "precedence relation is cyclic ({remaining} tasks unordered)"
                )
            }
            DagError::WeightTableLength { tasks, weights } => {
                write!(f, "weight table has {weights} entries for {tasks} tasks")
            }
            DagError::InvalidWeight(t) => {
                write!(
                    f,
                    "invalid weight for task {t}: must be finite and positive"
                )
            }
            DagError::CostOverflow(t) => {
                write!(
                    f,
                    "cost overflow at task {t}: task costs and the total cost must fit in u64"
                )
            }
        }
    }
}

impl std::error::Error for DagError {}

/// Hasher for packed `(from, to)` edge keys: one SplitMix64 finalizer
/// round. Edge keys are already well-distributed dense indices, so the
/// default SipHash would spend most of the duplicate check hashing; this
/// keeps [`DagBuilder::add_edge`] O(1) with a small constant.
#[derive(Debug, Default, Clone)]
struct EdgeKeyHasher(u64);

impl Hasher for EdgeKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only u64 edge keys are ever hashed; fold arbitrary bytes anyway
        // so the impl is total.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, key: u64) {
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type EdgeSet = HashSet<u64, BuildHasherDefault<EdgeKeyHasher>>;

#[inline]
fn edge_key(from: TaskId, to: TaskId) -> u64 {
    (from.0 as u64) << 32 | to.0 as u64
}

/// Checks that `w` is a usable task weight (finite and strictly
/// positive); anything else is rejected before it can reach the span
/// accounting, where a NaN or an infinity would silently poison every
/// downstream statistic.
fn validate_weight(t: TaskId, w: f64) -> Result<(), DagError> {
    if w.is_finite() && w > 0.0 {
        Ok(())
    } else {
        Err(DagError::InvalidWeight(t))
    }
}

/// Processor-steps consumed by task `t` of weight `w`: `ceil(w)`, the
/// rule a [`WeightProfile`] applies to every entry of its table. Fails
/// with [`DagError::InvalidWeight`] unless `w` is finite and positive,
/// and with [`DagError::CostOverflow`] when the ceiling does not fit in
/// `u64`.
pub fn weight_cost(t: TaskId, w: f64) -> Result<u64, DagError> {
    validate_weight(t, w)?;
    // `u64::MAX as f64` rounds up to 2⁶⁴, the first ceiling that
    // `as u64` would saturate; every f64 below it has a ceiling below it.
    if w >= u64::MAX as f64 {
        return Err(DagError::CostOverflow(t));
    }
    // `ceil` without a libm call: truncate, then round any fraction up.
    // Below 2⁵³ the truncation is exact, and from there on every f64 is
    // an integer, so the comparison never adds one to a whole weight.
    let whole = w as u64;
    Ok(whole + u64::from((whole as f64) < w))
}

/// Derived per-task and per-level cost tables of a weighted dag.
///
/// A task of weight `w` consumes `ceil(w)` whole processor-steps (the
/// simulation advances in unit steps, so fractional weights round up to
/// the next step; `cost ≥ 1` always). Every cost and the total `T1` fit
/// in `u64` ([`DagError::CostOverflow`] otherwise), which bounds every
/// in-quantum finish time `now + cost` by `T1`. The profile precomputes
/// everything the weighted executors touch on their hot path:
///
/// * `cost(t)` — integer processor-steps of task `t`;
/// * one record per level `l`: `level_cost(l)`, the level's total cost,
///   stored with its reciprocal so a completed task charges its
///   fractional share of the level without a division, and
///   `level_max_cost(l)`, the heaviest task of the level, which is the
///   level's contribution to the *weighted* critical path: a completed
///   task at level `l` contributes `cost · recip · max` span, so a fully
///   completed level contributes exactly `level_max_cost(l)` and the
///   quantum average parallelism `A(q) = T1(q)/T∞(q)` still measures
///   processor demand (a level of `n` tasks of uniform cost `c` reads as
///   `A = n·c / c = n`);
/// * the weighted work `T1 = Σ cost(t)` and span
///   `T∞ = Σ_l level_max_cost(l)` (the critical-path length of a
///   level-by-level execution, and the value every executor's
///   accumulated quantum spans sum to), read through
///   [`ExplicitDag::work`] and [`ExplicitDag::weighted_span`].
///
/// A dag that is replayed also gets a per-task table of those span
/// shares, [`span_shares`](Self::span_shares), built once by
/// [`ExplicitDag::build_span_shares`] the first time an executor is
/// reset over it and shared by every executor over the same dag. It is
/// a cache, not part of the dag's value: `PartialEq` and `Debug` ignore
/// it. It is not built eagerly here, because dags generated fresh for
/// each arrival would pay for a table that no replay reads.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightProfile {
    weights: Vec<f64>,
    costs: Vec<u64>,
    levels: Vec<LevelCost>,
    total_cost: u64,
    span_cost: u64,
    shares: SpanShares,
}

/// `span_contribution(cost(t), level(t))` per task, once built. Every
/// two caches compare equal and print alike, so a profile's equality
/// and `Debug` output do not depend on whether its table was built.
#[derive(Clone, Default)]
struct SpanShares(OnceLock<Box<[f64]>>);

impl PartialEq for SpanShares {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for SpanShares {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanShares").finish_non_exhaustive()
    }
}

/// One level's cost record: the three operands of a completed task's
/// span share, packed so a share reads one record.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct LevelCost {
    /// Total cost of the level's tasks.
    cost: u64,
    /// `1.0 / cost`.
    recip: f64,
    /// Cost of the level's heaviest task.
    max: u64,
}

impl WeightProfile {
    /// Computes the profile for `weights` over tasks whose levels are
    /// given by `level` (with `num_levels` levels total). Every weight
    /// must be finite and strictly positive, and every cost and the
    /// total cost must fit in `u64`.
    fn new(weights: Vec<f64>, level: &[Level], num_levels: usize) -> Result<Self, DagError> {
        debug_assert_eq!(weights.len(), level.len());
        let mut costs = Vec::with_capacity(weights.len());
        let mut total_cost = 0u64;
        for (i, &w) in weights.iter().enumerate() {
            let t = TaskId(i as u32);
            let c = weight_cost(t, w)?;
            total_cost = total_cost.checked_add(c).ok_or(DagError::CostOverflow(t))?;
            costs.push(c);
        }
        let mut levels = vec![LevelCost::default(); num_levels];
        for (&c, &l) in costs.iter().zip(level) {
            // A level's cost is a partial sum of the checked total.
            let lv = &mut levels[l as usize];
            lv.cost += c;
            lv.max = lv.max.max(c);
        }
        for lv in &mut levels {
            lv.recip = 1.0 / lv.cost as f64;
        }
        let span_cost = levels.iter().map(|lv| lv.max).sum();
        Ok(WeightProfile {
            weights,
            costs,
            levels,
            total_cost,
            span_cost,
            shares: SpanShares::default(),
        })
    }

    /// The raw (possibly fractional) weight of each task, in id order.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Integer processor-steps task `t` consumes (`ceil(weight) ≥ 1`).
    #[inline]
    pub fn cost(&self, t: TaskId) -> u64 {
        self.costs[t.index()]
    }

    /// The per-task cost table, in id order.
    #[inline]
    pub fn costs(&self) -> &[u64] {
        &self.costs
    }

    /// Total cost of all tasks at level `l`.
    #[inline]
    pub fn level_cost(&self, l: usize) -> u64 {
        self.levels[l].cost
    }

    /// Cost of the heaviest task at level `l` — the level's contribution
    /// to the weighted span.
    #[inline]
    pub fn level_max_cost(&self, l: usize) -> u64 {
        self.levels[l].max
    }

    /// Fractional span a completed task at level `l` with cost `c`
    /// contributes. The multiplication order (`cost`, then reciprocal,
    /// then max) is part of the bit-identity contract between the
    /// optimised and reference weighted kernels.
    #[inline]
    pub fn span_contribution(&self, c: u64, l: usize) -> f64 {
        let lv = &self.levels[l];
        c as f64 * lv.recip * lv.max as f64
    }

    /// The per-task span shares, `span_contribution(cost(t), level(t))`
    /// bit for bit in id order, once [`ExplicitDag::build_span_shares`]
    /// has built them; `None` before.
    #[inline]
    pub fn span_shares(&self) -> Option<&[f64]> {
        self.shares.0.get().map(|s| &s[..])
    }
}

/// Incremental builder for an [`ExplicitDag`].
///
/// Edges are kept as a flat insertion-ordered list plus a hash set of
/// packed `(from, to)` keys, so `add_edge` is O(1) — including the
/// duplicate check — and `build` finalizes into CSR in O(V + E).
///
/// ```
/// use abg_dag::DagBuilder;
///
/// // A two-task chain: t0 -> t1.
/// let mut b = DagBuilder::new();
/// let t0 = b.add_task();
/// let t1 = b.add_task();
/// b.add_edge(t0, t1).unwrap();
/// let dag = b.build().unwrap();
/// assert_eq!(dag.work(), 2);
/// assert_eq!(dag.span(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct DagBuilder {
    /// Edges in insertion order; `build` counting-sorts them into CSR.
    edges: Vec<(TaskId, TaskId)>,
    /// Packed `(from, to)` keys of `edges`, for O(1) duplicate checks.
    seen: EdgeSet,
    in_degree: Vec<u32>,
    out_degree: Vec<u32>,
    /// Per-task weights, materialised lazily on the first
    /// [`DagBuilder::set_weight`] call (`None` ⇒ every task is unit).
    weights: Option<Vec<f64>>,
}

impl DagBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with capacity for `n` tasks.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            edges: Vec::with_capacity(n),
            seen: EdgeSet::with_capacity_and_hasher(n, BuildHasherDefault::default()),
            in_degree: Vec::with_capacity(n),
            out_degree: Vec::with_capacity(n),
            weights: None,
        }
    }

    /// Adds a new unit task and returns its id.
    pub fn add_task(&mut self) -> TaskId {
        let id = TaskId(u32::try_from(self.in_degree.len()).expect("more than u32::MAX tasks"));
        self.in_degree.push(0);
        self.out_degree.push(0);
        if let Some(w) = &mut self.weights {
            w.push(1.0);
        }
        id
    }

    /// Adds a task of weight `w` and returns its id. Equivalent to
    /// [`DagBuilder::add_task`] followed by
    /// [`DagBuilder::set_weight`].
    pub fn add_weighted_task(&mut self, w: f64) -> Result<TaskId, DagError> {
        let id = self.add_task();
        self.set_weight(id, w)?;
        Ok(id)
    }

    /// Sets the weight of task `t` (the default is `1.0`). The weight
    /// must be finite and strictly positive; a task of weight `w`
    /// consumes `ceil(w)` processor-steps when executed.
    pub fn set_weight(&mut self, t: TaskId, w: f64) -> Result<(), DagError> {
        if t.index() >= self.in_degree.len() {
            return Err(DagError::UnknownTask(t));
        }
        validate_weight(t, w)?;
        self.weights
            .get_or_insert_with(|| vec![1.0; self.in_degree.len()])[t.index()] = w;
        Ok(())
    }

    /// Adds `n` tasks, returning the id of the first; the block is
    /// contiguous, so the ids are `first..first + n`.
    pub fn add_tasks(&mut self, n: usize) -> TaskId {
        let first = TaskId(self.in_degree.len() as u32);
        for _ in 0..n {
            self.add_task();
        }
        first
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.in_degree.len()
    }

    /// Whether no tasks were added yet.
    pub fn is_empty(&self) -> bool {
        self.in_degree.is_empty()
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a precedence edge `from -> to` (i.e. `to` becomes ready only
    /// after `from` completes).
    ///
    /// Rejects self-loops, unknown ids and duplicate edges immediately;
    /// cycles are detected at [`DagBuilder::build`] time.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) -> Result<(), DagError> {
        let n = self.in_degree.len() as u32;
        if from.0 >= n {
            return Err(DagError::UnknownTask(from));
        }
        if to.0 >= n {
            return Err(DagError::UnknownTask(to));
        }
        if from == to {
            return Err(DagError::SelfLoop(from));
        }
        if !self.seen.insert(edge_key(from, to)) {
            return Err(DagError::DuplicateEdge(from, to));
        }
        self.edges.push((from, to));
        self.out_degree[from.index()] += 1;
        self.in_degree[to.index()] += 1;
        Ok(())
    }

    /// Validates the graph (non-empty, acyclic), computes levels, and
    /// returns the finished dag in CSR form.
    pub fn build(self) -> Result<ExplicitDag, DagError> {
        if self.in_degree.is_empty() {
            return Err(DagError::Empty);
        }
        let n = self.in_degree.len();
        let m = self.edges.len();
        assert!(
            u32::try_from(m).is_ok(),
            "more than u32::MAX edges (CSR offsets are 32-bit)"
        );
        // CSR finalization: prefix-sum the out-degrees into the offset
        // table, then place each edge at its row cursor. The scan runs in
        // insertion order and each row's cursor only moves forward, so
        // `successors(t)` preserves the per-task edge insertion order.
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        succ_off.push(0);
        for &d in &self.out_degree {
            acc += d;
            succ_off.push(acc);
        }
        let mut cursor: Vec<u32> = succ_off[..n].to_vec();
        let mut succ_flat = vec![TaskId(0); m];
        for &(from, to) in &self.edges {
            let c = &mut cursor[from.index()];
            succ_flat[*c as usize] = to;
            *c += 1;
        }
        // Kahn's algorithm doubling as cycle detection and (longest-path)
        // level assignment.
        let mut indeg = self.in_degree.clone();
        let mut level: Vec<Level> = vec![0; n];
        let mut queue: Vec<TaskId> = (0..n as u32)
            .map(TaskId)
            .filter(|t| indeg[t.index()] == 0)
            .collect();
        let mut ordered = 0usize;
        let mut head = 0usize;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            ordered += 1;
            let lu = level[u.index()];
            let row = succ_off[u.index()] as usize..succ_off[u.index() + 1] as usize;
            for &v in &succ_flat[row] {
                let lv = &mut level[v.index()];
                *lv = (*lv).max(lu + 1);
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    queue.push(v);
                }
            }
        }
        if ordered != n {
            return Err(DagError::Cycle {
                remaining: n - ordered,
            });
        }
        let span = level.iter().copied().max().unwrap_or(0) + 1;
        let mut level_sizes = vec![0u64; span as usize];
        for &l in &level {
            level_sizes[l as usize] += 1;
        }
        let level_recip = level_sizes.iter().map(|&s| 1.0 / s as f64).collect();
        // The Kahn queue was seeded with exactly the in-degree-zero tasks
        // in id order — cache that prefix as the source list so executor
        // construction and reset need no O(V) rescan.
        let sources = (0..n as u32)
            .map(TaskId)
            .filter(|t| self.in_degree[t.index()] == 0)
            .collect();
        // Structural flags for the wide-frontier kernel (see
        // `ExplicitDag::is_forest` / `has_unit_edges`): both are O(V + E)
        // here and let the executor's saturated bulk step skip per-edge
        // bookkeeping that the shape makes redundant.
        let forest = self.in_degree.iter().all(|&d| d <= 1);
        let unit_edges = self
            .edges
            .iter()
            .all(|&(from, to)| level[to.index()] == level[from.index()] + 1);
        // A weight table of all-exactly-1.0 entries is kept (so a dag
        // file round-trip is lossless) but flagged unit, which keeps every
        // executor on the unit-task fast paths.
        let unit_weight = match &self.weights {
            None => true,
            Some(w) => w.iter().all(|&x| x == 1.0),
        };
        let weights = match self.weights {
            None => None,
            Some(w) => Some(Box::new(WeightProfile::new(w, &level, span as usize)?)),
        };
        Ok(ExplicitDag {
            topo: Arc::new(Topology {
                succ_off,
                succ_flat,
                in_degree: self.in_degree,
                level,
                level_sizes,
                level_recip,
                sources,
                forest,
                unit_edges,
            }),
            unit_weight,
            weights,
        })
    }
}

/// A validated, immutable precedence graph over unit or weighted tasks.
///
/// Tasks are identified by dense [`TaskId`]s. The successor adjacency is
/// stored in CSR form — [`ExplicitDag::successors`] is a slice of one
/// shared flat array — alongside the in-degree of each task (used by
/// executors to track readiness) and each task's level. A dag may carry
/// a per-task weight table ([`ExplicitDag::weight_profile`]); without one
/// every task costs one processor-step.
///
/// The structure lives in one reference-counted block that clones and
/// re-weightings share: [`Clone`] and
/// [`with_weights`](ExplicitDag::with_weights) copy no CSR array, only
/// the weight table. Equality still compares values, so a dag rebuilt
/// from the same edges and weights equals one that shares its topology.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplicitDag {
    /// The structure, shared by every clone and re-weighting.
    topo: Arc<Topology>,
    /// Whether every task costs exactly one processor-step (no weight
    /// table, or a table of all-1.0 entries). Cached for
    /// [`ExplicitDag::is_unit_weight`] — the gate of the unit-task
    /// executor fast paths.
    unit_weight: bool,
    /// Derived cost tables when a weight table is present; boxed so the
    /// (overwhelmingly common) unit dag pays one pointer of overhead.
    weights: Option<Box<WeightProfile>>,
}

/// The weight-independent part of an [`ExplicitDag`]: adjacency, degrees,
/// levels and the structural flags, all fixed by the edges.
#[derive(Debug, PartialEq)]
struct Topology {
    /// CSR offsets: successors of task `t` occupy
    /// `succ_flat[succ_off[t] .. succ_off[t + 1]]`; length `n + 1`.
    succ_off: Vec<u32>,
    /// All successor ids, row-major in task order.
    succ_flat: Vec<TaskId>,
    in_degree: Vec<u32>,
    level: Vec<Level>,
    level_sizes: Vec<u64>,
    /// `1.0 / level_sizes[l]`, precomputed once so executors can charge a
    /// completed task its fractional span contribution without a division
    /// (or a level rescan) on the hot path.
    level_recip: Vec<f64>,
    /// Tasks with no predecessors, in id order — the initial ready set.
    /// Cached at build time so executor construction and `reset()` avoid
    /// an O(V) in-degree rescan per run.
    sources: Vec<TaskId>,
    /// Whether every task has at most one predecessor (the precedence
    /// relation is a forest). Cached for [`ExplicitDag::is_forest`].
    forest: bool,
    /// Whether every edge drops exactly one level. Cached for
    /// [`ExplicitDag::has_unit_edges`].
    unit_edges: bool,
}

impl ExplicitDag {
    /// The work `T1` of the job in processor-steps: the number of tasks
    /// for a unit dag, or the total task cost `Σ ceil(weight)` when a
    /// weight table is present.
    #[inline]
    pub fn work(&self) -> u64 {
        match &self.weights {
            Some(wp) => wp.total_cost,
            None => self.topo.in_degree.len() as u64,
        }
    }

    /// Critical-path length `T∞` in *levels*: number of tasks on the
    /// longest chain. Unit executors size their per-level state with
    /// this; the weighted analogue in processor-steps is
    /// [`ExplicitDag::weighted_span`].
    #[inline]
    pub fn span(&self) -> u64 {
        self.topo.level_sizes.len() as u64
    }

    /// Critical-path length `T∞` in processor-steps: `Σ_l max-cost(l)`
    /// over the levels (the span of a level-by-level execution). Equals
    /// [`ExplicitDag::span`] for unit dags.
    #[inline]
    pub fn weighted_span(&self) -> u64 {
        match &self.weights {
            Some(wp) => wp.span_cost,
            None => self.span(),
        }
    }

    /// Whether every task costs exactly one processor-step — `true` for
    /// dags without a weight table *and* for tables that are all-1.0.
    /// Executors gate the unit-task fast paths (serial chain walk, bulk
    /// level stepping) on this flag; weighted dags take the
    /// residual-work path instead.
    #[inline]
    pub fn is_unit_weight(&self) -> bool {
        self.unit_weight
    }

    /// The derived cost tables, when a weight table is present.
    #[inline]
    pub fn weight_profile(&self) -> Option<&WeightProfile> {
        self.weights.as_deref()
    }

    /// Builds the per-task span-share table of a weighted dag, once, and
    /// returns it ([`WeightProfile::span_shares`]); later calls, from any
    /// thread or executor sharing this dag, return the same table. `None`
    /// for unit dags, whose executors never read it. Executors call this
    /// when they are reset for a replay, so dags that are run only once
    /// never pay for the table.
    pub fn build_span_shares(&self) -> Option<&[f64]> {
        if self.unit_weight {
            return None;
        }
        let wp = self.weights.as_deref()?;
        let shares = wp.shares.0.get_or_init(|| {
            wp.costs
                .iter()
                .zip(&self.topo.level)
                .map(|(&c, &l)| wp.span_contribution(c, l as usize))
                .collect()
        });
        Some(shares)
    }

    /// The raw weight of task `t` (`1.0` without a weight table).
    #[inline]
    pub fn weight(&self, t: TaskId) -> f64 {
        match &self.weights {
            Some(wp) => wp.weights()[t.index()],
            None => 1.0,
        }
    }

    /// Processor-steps task `t` consumes (`ceil(weight)`, `1` without a
    /// weight table).
    #[inline]
    pub fn task_cost(&self, t: TaskId) -> u64 {
        match &self.weights {
            Some(wp) => wp.cost(t),
            None => 1,
        }
    }

    /// Returns this dag with the given per-task weight table attached
    /// (replacing any existing one). The structure is untouched and
    /// stays shared with every other dag built from it; only the cost
    /// tables and the unit-weight flag are recomputed. Rejects
    /// tables of the wrong length ([`DagError::WeightTableLength`]), with
    /// non-finite / non-positive entries ([`DagError::InvalidWeight`]), or
    /// whose costs or total cost overflow `u64` ([`DagError::CostOverflow`]).
    pub fn with_weights(mut self, weights: Vec<f64>) -> Result<Self, DagError> {
        if weights.len() != self.num_tasks() {
            return Err(DagError::WeightTableLength {
                tasks: self.num_tasks(),
                weights: weights.len(),
            });
        }
        self.unit_weight = weights.iter().all(|&x| x == 1.0);
        self.weights = Some(Box::new(WeightProfile::new(
            weights,
            &self.topo.level,
            self.topo.level_sizes.len(),
        )?));
        Ok(self)
    }

    /// Returns this dag with every task weighted `w` — the uniform-cost
    /// generalisation used when lowering a `PhasedJob` to a weighted
    /// explicit dag.
    pub fn with_uniform_weight(self, w: f64) -> Result<Self, DagError> {
        let n = self.num_tasks();
        self.with_weights(vec![w; n])
    }

    /// Number of tasks (as a `usize`, for indexing).
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.topo.in_degree.len()
    }

    /// Successors of `t`, in edge insertion order.
    #[inline]
    pub fn successors(&self, t: TaskId) -> &[TaskId] {
        let g = &*self.topo;
        &g.succ_flat[g.succ_off[t.index()] as usize..g.succ_off[t.index() + 1] as usize]
    }

    /// In-degree (number of direct predecessors) of `t`.
    #[inline]
    pub fn in_degree(&self, t: TaskId) -> u32 {
        self.topo.in_degree[t.index()]
    }

    /// The full in-degree table, indexed by task id. Executors seed (and
    /// reset) their `remaining_preds` state with one memcpy of this slice
    /// instead of `num_tasks` individual `in_degree` calls.
    #[inline]
    pub fn in_degrees(&self) -> &[u32] {
        &self.topo.in_degree
    }

    /// Successors of every task in the contiguous id block
    /// `first..=last`, as one flat CSR slice — the concatenation of each
    /// task's successor row in id order. Executors draining a frontier
    /// whose ids form one ascending run use this to replace per-task row
    /// walks with a single bulk append.
    #[inline]
    pub fn successors_block(&self, first: TaskId, last: TaskId) -> &[TaskId] {
        let g = &*self.topo;
        &g.succ_flat[g.succ_off[first.index()] as usize..g.succ_off[last.index() + 1] as usize]
    }

    /// Out-degree (number of direct successors) of `t`.
    #[inline]
    pub fn out_degree(&self, t: TaskId) -> u32 {
        let off = &self.topo.succ_off;
        off[t.index() + 1] - off[t.index()]
    }

    /// Level of `t` (longest distance from a source; sources are level 0).
    #[inline]
    pub fn level(&self, t: TaskId) -> Level {
        self.topo.level[t.index()]
    }

    /// Number of tasks at each level; `level_sizes().len() == span()`.
    #[inline]
    pub fn level_sizes(&self) -> &[u64] {
        &self.topo.level_sizes
    }

    /// Reciprocal level sizes, `level_recips()[l] == 1.0 / level_sizes()[l]`.
    ///
    /// Completing a task at level `l` contributes exactly this much
    /// fractional span, so executors can maintain `T∞(q)` incrementally —
    /// one lookup and add per completed task — instead of rescanning a
    /// per-level counter vector at every quantum boundary.
    #[inline]
    pub fn level_recips(&self) -> &[f64] {
        &self.topo.level_recip
    }

    /// Fractional span contributed by one task at level `l`.
    #[inline]
    pub fn level_recip(&self, l: Level) -> f64 {
        self.topo.level_recip[l as usize]
    }

    /// Whether every task has at most one predecessor, i.e. the
    /// precedence relation is a forest (fork trees, chains, bundles of
    /// chains). In a forest, completing a task enables **all** of its
    /// successors outright, so an executor draining a frontier can push
    /// them without consulting its remaining-predecessor table.
    #[inline]
    pub fn is_forest(&self) -> bool {
        self.topo.forest
    }

    /// Whether every edge drops exactly one level
    /// (`level(to) == level(from) + 1`). When it does, all successors
    /// enabled while level `l` drains land on level `l + 1`, so a
    /// breadth-first executor can target one bucket without a per-task
    /// level lookup. Together with [`ExplicitDag::is_forest`] this is the
    /// precondition of the wide-frontier kernel's structural fast path.
    #[inline]
    pub fn has_unit_edges(&self) -> bool {
        self.topo.unit_edges
    }

    /// Iterator over all task ids in id order.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.topo.in_degree.len() as u32).map(TaskId)
    }

    /// Tasks with no predecessors (ready at job start), in id order.
    pub fn sources(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.topo.sources.iter().copied()
    }

    /// The cached source list as a slice (see [`ExplicitDag::sources`]).
    #[inline]
    pub fn source_tasks(&self) -> &[TaskId] {
        &self.topo.sources
    }

    /// Tasks with no successors.
    pub fn sinks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks().filter(|&t| self.out_degree(t) == 0)
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.topo.succ_flat.len()
    }

    /// Average parallelism `T1 / T∞` (in processor-steps, so weighted
    /// dags use the weighted work and span).
    pub fn average_parallelism(&self) -> f64 {
        self.work() as f64 / self.weighted_span() as f64
    }

    /// The successor adjacency as nested lists (the pre-CSR layout);
    /// allocates one `Vec` per task. Useful for interchange and tests —
    /// the hot paths should iterate [`ExplicitDag::successors`] instead.
    pub fn to_adjacency(&self) -> Vec<Vec<TaskId>> {
        self.tasks().map(|t| self.successors(t).to_vec()).collect()
    }

    /// Rebuilds a dag from nested successor lists (the inverse of
    /// [`ExplicitDag::to_adjacency`]), re-validating everything.
    pub fn from_adjacency(succs: Vec<Vec<TaskId>>) -> Result<Self, DagError> {
        let mut b = DagBuilder::with_capacity(succs.len());
        b.add_tasks(succs.len());
        for (i, row) in succs.iter().enumerate() {
            for &to in row {
                b.add_edge(TaskId(i as u32), to)?;
            }
        }
        b.build()
    }

    /// Renders the dag in Graphviz `dot` syntax, ranking tasks by level.
    ///
    /// Intended for debugging and for illustrating small example graphs
    /// (such as the paper's Figure 2); not meant for large jobs.
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name} {{");
        let _ = writeln!(out, "  rankdir=TB; node [shape=circle];");
        for l in 0..self.topo.level_sizes.len() as u32 {
            let ids: Vec<String> = self
                .tasks()
                .filter(|t| self.topo.level[t.index()] == l)
                .map(|t| format!("{t}"))
                .collect();
            let _ = writeln!(out, "  {{ rank=same; {} }}", ids.join("; "));
        }
        for t in self.tasks() {
            for &s in self.successors(t) {
                let _ = writeln!(out, "  {t} -> {s};");
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> ExplicitDag {
        let mut b = DagBuilder::new();
        let first = b.add_tasks(n);
        for i in 0..n - 1 {
            b.add_edge(TaskId(first.0 + i as u32), TaskId(first.0 + i as u32 + 1))
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn empty_dag_rejected() {
        assert_eq!(DagBuilder::new().build().unwrap_err(), DagError::Empty);
    }

    #[test]
    fn single_task() {
        let mut b = DagBuilder::new();
        b.add_task();
        let d = b.build().unwrap();
        assert_eq!(d.work(), 1);
        assert_eq!(d.span(), 1);
        assert_eq!(d.level_sizes(), &[1]);
        assert_eq!(d.sources().count(), 1);
        assert_eq!(d.sinks().count(), 1);
    }

    #[test]
    fn chain_levels() {
        let d = chain(5);
        assert_eq!(d.work(), 5);
        assert_eq!(d.span(), 5);
        for t in d.tasks() {
            assert_eq!(d.level(t), t.0);
        }
        assert_eq!(d.average_parallelism(), 1.0);
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = DagBuilder::new();
        let t = b.add_task();
        assert_eq!(b.add_edge(t, t).unwrap_err(), DagError::SelfLoop(t));
    }

    #[test]
    fn unknown_task_rejected() {
        let mut b = DagBuilder::new();
        let t = b.add_task();
        let bogus = TaskId(7);
        assert_eq!(
            b.add_edge(t, bogus).unwrap_err(),
            DagError::UnknownTask(bogus)
        );
        assert_eq!(
            b.add_edge(bogus, t).unwrap_err(),
            DagError::UnknownTask(bogus)
        );
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut b = DagBuilder::new();
        let a = b.add_task();
        let c = b.add_task();
        b.add_edge(a, c).unwrap();
        assert_eq!(b.add_edge(a, c).unwrap_err(), DagError::DuplicateEdge(a, c));
        // The reverse edge is not a duplicate (it is a cycle, caught at
        // build time) — the packed key must distinguish direction.
        assert_eq!(b.add_edge(c, a), Ok(()));
    }

    #[test]
    fn cycle_rejected() {
        let mut b = DagBuilder::new();
        let a = b.add_task();
        let c = b.add_task();
        let d = b.add_task();
        b.add_edge(a, c).unwrap();
        b.add_edge(c, d).unwrap();
        b.add_edge(d, c).unwrap();
        match b.build().unwrap_err() {
            DagError::Cycle { remaining } => assert_eq!(remaining, 2),
            e => panic!("expected cycle, got {e:?}"),
        }
    }

    #[test]
    fn diamond_levels() {
        // a -> {b, c} -> d
        let mut b = DagBuilder::new();
        let a = b.add_task();
        let x = b.add_task();
        let y = b.add_task();
        let z = b.add_task();
        b.add_edge(a, x).unwrap();
        b.add_edge(a, y).unwrap();
        b.add_edge(x, z).unwrap();
        b.add_edge(y, z).unwrap();
        let d = b.build().unwrap();
        assert_eq!(d.span(), 3);
        assert_eq!(d.level_sizes(), &[1, 2, 1]);
        assert_eq!(d.level(z), 2);
        assert_eq!(d.in_degree(z), 2);
        assert_eq!(d.num_edges(), 4);
        assert_eq!(d.out_degree(a), 2);
        assert_eq!(d.out_degree(z), 0);
    }

    #[test]
    fn successors_preserve_insertion_order() {
        let mut b = DagBuilder::new();
        let a = b.add_task();
        let succs: Vec<TaskId> = (0..5).map(|_| b.add_task()).collect();
        // Insert out of id order; iteration must follow insertion order.
        for &i in &[3usize, 0, 4, 1, 2] {
            b.add_edge(a, succs[i]).unwrap();
        }
        let d = b.build().unwrap();
        let got: Vec<u32> = d.successors(a).iter().map(|t| t.0).collect();
        assert_eq!(got, vec![4, 1, 5, 2, 3]);
    }

    #[test]
    fn level_is_longest_path() {
        // a -> b -> d, a -> d: level(d) must be 2, not 1.
        let mut bld = DagBuilder::new();
        let a = bld.add_task();
        let b = bld.add_task();
        let d = bld.add_task();
        bld.add_edge(a, b).unwrap();
        bld.add_edge(b, d).unwrap();
        bld.add_edge(a, d).unwrap();
        let dag = bld.build().unwrap();
        assert_eq!(dag.level(d), 2);
        assert_eq!(dag.span(), 3);
    }

    #[test]
    fn dot_output_contains_edges() {
        let d = chain(3);
        let dot = d.to_dot("g");
        assert!(dot.contains("t0 -> t1;"));
        assert!(dot.contains("t1 -> t2;"));
        assert!(dot.starts_with("digraph g {"));
    }

    #[test]
    fn structural_flags_track_shape() {
        // A chain is a forest with unit edges.
        let c = chain(4);
        assert!(c.is_forest());
        assert!(c.has_unit_edges());
        // A diamond's join has in-degree 2: not a forest, edges unit.
        let mut b = DagBuilder::new();
        let a = b.add_task();
        let x = b.add_task();
        let y = b.add_task();
        let z = b.add_task();
        b.add_edge(a, x).unwrap();
        b.add_edge(a, y).unwrap();
        b.add_edge(x, z).unwrap();
        b.add_edge(y, z).unwrap();
        let d = b.build().unwrap();
        assert!(!d.is_forest());
        assert!(d.has_unit_edges());
        // A skip-level edge (a -> b -> d plus a -> d) is not unit.
        let mut bld = DagBuilder::new();
        let a = bld.add_task();
        let m = bld.add_task();
        let s = bld.add_task();
        bld.add_edge(a, m).unwrap();
        bld.add_edge(m, s).unwrap();
        bld.add_edge(a, s).unwrap();
        let d = bld.build().unwrap();
        assert!(!d.has_unit_edges());
        assert!(!d.is_forest(), "the sink has two predecessors");
    }

    #[test]
    fn successors_block_concatenates_rows() {
        // 0 -> {2, 1}, 1 -> {3}: the block over ids 0..=1 is both rows
        // in id order, preserving each row's insertion order.
        let mut b = DagBuilder::new();
        b.add_tasks(4);
        b.add_edge(TaskId(0), TaskId(2)).unwrap();
        b.add_edge(TaskId(0), TaskId(1)).unwrap();
        b.add_edge(TaskId(1), TaskId(3)).unwrap();
        let d = b.build().unwrap();
        assert_eq!(
            d.successors_block(TaskId(0), TaskId(1)),
            &[TaskId(2), TaskId(1), TaskId(3)]
        );
        assert_eq!(d.successors_block(TaskId(2), TaskId(3)), &[]);
    }

    #[test]
    fn level_sizes_sum_to_work() {
        let d = chain(9);
        assert_eq!(d.level_sizes().iter().sum::<u64>(), d.work());
    }

    #[test]
    fn adjacency_round_trip_is_identity() {
        let d = chain(7);
        let back = ExplicitDag::from_adjacency(d.to_adjacency()).unwrap();
        assert_eq!(d, back);
        let mut b = DagBuilder::new();
        let a = b.add_task();
        let x = b.add_task();
        let y = b.add_task();
        b.add_edge(a, y).unwrap();
        b.add_edge(a, x).unwrap();
        b.add_edge(x, y).unwrap();
        let d = b.build().unwrap();
        let adjacency = d.to_adjacency();
        assert_eq!(adjacency[a.index()], vec![y, x], "insertion order kept");
        assert_eq!(ExplicitDag::from_adjacency(adjacency).unwrap(), d);
    }

    #[test]
    fn weighted_chain_costs_and_spans() {
        let mut b = DagBuilder::new();
        let t0 = b.add_weighted_task(2.0).unwrap();
        let t1 = b.add_weighted_task(3.5).unwrap();
        let t2 = b.add_task(); // defaults to 1.0
        b.add_edge(t0, t1).unwrap();
        b.add_edge(t1, t2).unwrap();
        let d = b.build().unwrap();
        assert!(!d.is_unit_weight());
        assert_eq!(d.task_cost(t0), 2, "integral weight is its own cost");
        assert_eq!(d.task_cost(t1), 4, "fractional weight rounds up");
        assert_eq!(d.task_cost(t2), 1);
        assert_eq!(d.weight(t1), 3.5, "raw weights are preserved");
        assert_eq!(d.work(), 7, "work is the total cost");
        assert_eq!(d.span(), 3, "level count is unchanged");
        assert_eq!(d.weighted_span(), 7, "a chain's weighted span is its work");
        assert_eq!(d.average_parallelism(), 1.0);
    }

    #[test]
    fn weighted_level_tables() {
        // a -> {x, y} -> z with costs 1, 2, 4, 1.
        let mut b = DagBuilder::new();
        let a = b.add_task();
        let x = b.add_weighted_task(2.0).unwrap();
        let y = b.add_weighted_task(4.0).unwrap();
        let z = b.add_task();
        b.add_edge(a, x).unwrap();
        b.add_edge(a, y).unwrap();
        b.add_edge(x, z).unwrap();
        b.add_edge(y, z).unwrap();
        let d = b.build().unwrap();
        let wp = d.weight_profile().unwrap();
        assert_eq!(wp.level_cost(1), 6);
        assert_eq!(wp.level_max_cost(1), 4);
        assert_eq!(wp.levels[1].recip, 1.0 / 6.0);
        assert_eq!(d.work(), 8);
        assert_eq!(d.weighted_span(), 1 + 4 + 1);
        // A completed level contributes its max cost to the span:
        // cost/level_cost · max summed over the level.
        let level1: f64 = wp.span_contribution(2, 1) + wp.span_contribution(4, 1);
        assert!((level1 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn all_unit_weight_table_keeps_the_unit_flag() {
        let d = chain(5);
        let w = d.clone().with_weights(vec![1.0; 5]).unwrap();
        assert!(w.is_unit_weight(), "an all-1.0 table is structurally unit");
        assert!(w.weight_profile().is_some(), "but the table is kept");
        assert_eq!(w.work(), d.work());
        assert_eq!(w.weighted_span(), d.span());
    }

    #[test]
    fn invalid_weights_rejected_with_the_typed_message() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0] {
            let mut b = DagBuilder::new();
            let t0 = b.add_task();
            let t1 = b.add_task();
            b.add_edge(t0, t1).unwrap();
            let err = b.set_weight(t1, bad).unwrap_err();
            assert_eq!(err, DagError::InvalidWeight(t1), "weight {bad}");
            assert_eq!(
                err.to_string(),
                "invalid weight for task t1: must be finite and positive"
            );
        }
        let mut b = DagBuilder::new();
        b.add_task();
        assert_eq!(
            b.set_weight(TaskId(9), 1.0).unwrap_err(),
            DagError::UnknownTask(TaskId(9))
        );
    }

    #[test]
    fn with_weights_rejects_bad_tables_with_the_typed_error() {
        let d = chain(3);
        let err = d.clone().with_weights(vec![1.0, 2.0]).unwrap_err();
        assert_eq!(
            err,
            DagError::WeightTableLength {
                tasks: 3,
                weights: 2
            }
        );
        assert_eq!(err.to_string(), "weight table has 2 entries for 3 tasks");
        assert_eq!(
            d.with_weights(vec![1.0, -3.0, 1.0]),
            Err(DagError::InvalidWeight(TaskId(1)))
        );
    }

    #[test]
    fn costs_past_u64_are_refused_with_the_typed_error() {
        // 2⁶⁴ is the first ceiling that `as u64` would saturate.
        let two_pow_64 = 18_446_744_073_709_551_616.0;
        let err = chain(3)
            .with_weights(vec![1.0, two_pow_64, 1.0])
            .unwrap_err();
        assert_eq!(err, DagError::CostOverflow(TaskId(1)));
        assert_eq!(
            err.to_string(),
            "cost overflow at task t1: task costs and the total cost must fit in u64"
        );
        // The largest f64 below 2⁶⁴ (2⁶⁴ − 2¹¹) is still a valid cost.
        let below = chain(1)
            .with_weights(vec![18_446_744_073_709_549_568.0])
            .unwrap();
        assert_eq!(below.work(), 18_446_744_073_709_549_568);
        // Two costs of 2⁶³ sum to 2⁶⁴, one past `u64::MAX`.
        let half = 9_223_372_036_854_775_808.0;
        assert_eq!(
            chain(2).with_weights(vec![half, half]),
            Err(DagError::CostOverflow(TaskId(1)))
        );
        // The builder refuses the same tables at build time.
        let mut b = DagBuilder::new();
        let t0 = b.add_weighted_task(1e30).unwrap();
        b.add_task();
        assert_eq!(b.build().unwrap_err(), DagError::CostOverflow(t0));
    }

    /// `weight_cost` rounds up without `f64::ceil`; it must agree with
    /// it on every weight it accepts: fractions, subnormals, the 2⁵² and
    /// 2⁵³ boundaries, the largest f64 below 2⁶⁴ and random bit patterns.
    #[test]
    fn weight_cost_is_the_ceiling_of_every_accepted_weight() {
        use rand::rngs::StdRng;
        use rand::{Rng, RngExt, SeedableRng};
        let two_pow_52 = 4_503_599_627_370_496.0;
        let two_pow_53 = 9_007_199_254_740_992.0;
        let boundaries = [
            5e-324,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            2.0 - f64::EPSILON,
            two_pow_52 - 0.5,
            two_pow_52,
            two_pow_52 + 1.0,
            two_pow_53 - 1.0,
            two_pow_53,
            two_pow_53 + 2.0,
            9_223_372_036_854_775_808.0,
            18_446_744_073_709_549_568.0,
        ];
        let mut rng = StdRng::seed_from_u64(64);
        let random: Vec<f64> = (0..20_000)
            .map(|i| {
                if i % 2 == 0 {
                    f64::from_bits(rng.next_u64() >> 1)
                } else {
                    rng.random::<f64>() * 1e6
                }
            })
            .filter(|&w| w > 0.0 && w < 18_446_744_073_709_551_616.0)
            .collect();
        assert!(random.len() > 10_000);
        for w in boundaries.into_iter().chain(random) {
            assert_eq!(weight_cost(TaskId(0), w), Ok(w.ceil() as u64), "{w:e}");
        }
    }

    #[test]
    fn unit_dags_never_build_span_shares() {
        let bare = chain(4);
        assert_eq!(bare.build_span_shares(), None);
        let tabled = bare.with_weights(vec![1.0; 4]).unwrap();
        assert_eq!(tabled.build_span_shares(), None);
        let wp = tabled.weight_profile().unwrap();
        assert_eq!(wp.span_shares(), None, "an all-1.0 table stays unbuilt");
    }

    #[test]
    fn clones_and_reweightings_share_the_topology_and_compare_by_value() {
        let d = chain(4).with_weights(vec![1.5, 2.0, 3.0, 1.0]).unwrap();
        let reweighted = d.clone().with_weights(vec![2.0; 4]).unwrap();
        assert!(Arc::ptr_eq(&d.topo, &d.clone().topo));
        assert!(Arc::ptr_eq(&d.topo, &reweighted.topo));
        assert_ne!(d, reweighted, "the weights still differ");
        assert_eq!(reweighted.work(), 8);
        // The same edges and weights built again share nothing, yet the
        // dags are equal.
        let mut b = DagBuilder::new();
        for w in [1.5, 2.0, 3.0, 1.0] {
            b.add_weighted_task(w).unwrap();
        }
        for i in 0..3 {
            b.add_edge(TaskId(i), TaskId(i + 1)).unwrap();
        }
        let rebuilt = b.build().unwrap();
        assert!(!Arc::ptr_eq(&d.topo, &rebuilt.topo));
        assert_eq!(d, rebuilt);
    }

    #[test]
    fn builder_counts_tasks_and_edges() {
        let mut b = DagBuilder::with_capacity(3);
        assert!(b.is_empty());
        b.add_tasks(3);
        assert_eq!(b.len(), 3);
        b.add_edge(TaskId(0), TaskId(1)).unwrap();
        b.add_edge(TaskId(0), TaskId(2)).unwrap();
        assert_eq!(b.num_edges(), 2);
    }
}
