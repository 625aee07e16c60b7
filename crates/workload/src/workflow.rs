//! Realistic scientific-workflow generators with weighted tasks.
//!
//! The paper's synthetic fork-join jobs pin the transition factor but
//! keep every task unit-cost. Real schedulers are evaluated on workflow
//! suites — Montage mosaics, Epigenomics pipelines, MapReduce shuffles —
//! whose stages have characteristic shapes *and* characteristic task
//! costs. This module generates those structures as weighted
//! [`ExplicitDag`]s: each [`WorkflowKind`] is a family parameterised by
//! a `scale` (the fan-out of its widest stage) with per-stage weight
//! distributions drawn from a caller-supplied RNG.
//!
//! Weights are sampled as exact half-integers (`k · 0.5` for integer
//! `k`), so they round-trip bit-exactly through the text dag format
//! ([`dagfile`](crate::dagfile)), and the derived integer costs
//! (`ceil`) stay small and predictable.

use abg_dag::{weight_cost, DagBuilder, ExplicitDag, TaskId};
use rand::{Rng, RngExt as _};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::str::FromStr;

/// A family of workflow structures with stage-characteristic weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkflowKind {
    /// Source → `scale` parallel tasks → sink: the minimal fork-join
    /// with heterogeneous branch costs.
    Diamond,
    /// `scale` map tasks shuffling into `max(1, scale / 4)` reduce
    /// tasks (complete bipartite shuffle), bracketed by a split source
    /// and a collect sink.
    MapReduce,
    /// A Montage-like mosaic pipeline: `scale` projections, difference
    /// fits over neighbouring pairs, a concatenation/model bottleneck,
    /// per-tile background correction, and a final co-add.
    Montage,
    /// An Epigenomics-like pipeline: a split fans into `scale`
    /// independent 4-stage lanes (filter → convert → transform → map)
    /// that merge and finish through a 2-stage serial tail.
    Epigenomics,
}

impl WorkflowKind {
    /// All kinds, in a stable order (CLI listings, sweeps, tests).
    pub const ALL: [WorkflowKind; 4] = [
        WorkflowKind::Diamond,
        WorkflowKind::MapReduce,
        WorkflowKind::Montage,
        WorkflowKind::Epigenomics,
    ];

    /// The canonical lowercase name (what [`FromStr`] accepts).
    pub fn name(&self) -> &'static str {
        match self {
            WorkflowKind::Diamond => "diamond",
            WorkflowKind::MapReduce => "mapreduce",
            WorkflowKind::Montage => "montage",
            WorkflowKind::Epigenomics => "epigenomics",
        }
    }

    /// Generates one workflow instance at the given scale (clamped to a
    /// minimum of 1), sampling stage weights from `rng`. The returned
    /// dag always carries a weight table with at least one non-unit
    /// entry, so it routes the weighted executor kernels.
    ///
    /// The structure is a pure function of `(kind, scale)`; only the
    /// weights are drawn, one per task in task-id order. Once a thread
    /// asks for the same `(kind, scale)` twice in a row, it keeps that
    /// validated structure, and every dag generated from it shares its
    /// topology: later calls only draw and build the weight table.
    pub fn generate<R: Rng + ?Sized>(&self, scale: u32, rng: &mut R) -> ExplicitDag {
        let shape = self.shape(scale.max(1) as usize);
        let weights = draw(&shape.ranges, rng).collect();
        shape
            .dag
            .clone()
            .with_weights(weights)
            .expect("half-integer weights are finite and positive")
    }

    /// The work `T1` of the dag [`generate`](Self::generate) would
    /// return from the same RNG state, without building it: the same
    /// weights are drawn in the same order, so the RNG ends in the same
    /// state, and their costs are summed by the table's own rule,
    /// [`weight_cost`].
    pub fn sample_work<R: Rng + ?Sized>(&self, scale: u32, rng: &mut R) -> u64 {
        let shape = self.shape(scale.max(1) as usize);
        draw(&shape.ranges, rng)
            .enumerate()
            .map(|(i, w)| {
                weight_cost(TaskId(i as u32), w)
                    .expect("half-integer weights are finite and positive")
            })
            .sum()
    }

    /// The shape at `scale`: the thread's kept copy when this is a
    /// repeat request, a fresh build otherwise.
    fn shape(self, scale: usize) -> Rc<Shape> {
        SHAPES.with(|slots| {
            let slot = &mut slots.borrow_mut()[self as usize];
            if slot.0 != scale {
                // A new scale drops the kept shape: a one-off request
                // is never retained.
                *slot = (scale, None);
                return Rc::new(self.build_shape(scale));
            }
            Rc::clone(
                slot.1
                    .get_or_insert_with(|| Rc::new(self.build_shape(scale))),
            )
        })
    }

    fn build_shape(self, scale: usize) -> Shape {
        match self {
            WorkflowKind::Diamond => diamond(scale),
            WorkflowKind::MapReduce => mapreduce(scale),
            WorkflowKind::Montage => montage(scale),
            WorkflowKind::Epigenomics => epigenomics(scale),
        }
    }
}

const KINDS: usize = WorkflowKind::ALL.len();

thread_local! {
    /// One slot per [`WorkflowKind`]: the scale last requested on this
    /// thread, and its shape once that scale was requested twice in a
    /// row. Scales are at least 1, so 0 marks an unused slot.
    static SHAPES: RefCell<[(usize, Option<Rc<Shape>>); KINDS]> =
        const { RefCell::new([const { (0, None) }; KINDS]) };
}

/// A workflow's structure: the validated unit-weight dag and each
/// task's half-weight range `(lo, hi)`, in task-id order.
struct Shape {
    dag: ExplicitDag,
    ranges: Vec<(u64, u64)>,
}

/// Builds a [`Shape`] through [`DagBuilder`], so every id, self-loop,
/// duplicate-edge and cycle check runs.
struct ShapeBuilder {
    builder: DagBuilder,
    ranges: Vec<(u64, u64)>,
}

impl ShapeBuilder {
    fn with_capacity(n: usize) -> Self {
        ShapeBuilder {
            builder: DagBuilder::with_capacity(n),
            ranges: Vec::with_capacity(n),
        }
    }

    /// Adds one task whose weight will be drawn by `half(rng, lo, hi)`.
    fn task(&mut self, lo: u64, hi: u64) -> TaskId {
        self.ranges.push((lo, hi));
        self.builder.add_task()
    }

    fn edge(&mut self, from: TaskId, to: TaskId) {
        self.builder.add_edge(from, to).expect("fresh ids");
    }

    fn build(self) -> Shape {
        Shape {
            dag: self
                .builder
                .build()
                .expect("workflows are acyclic by construction"),
            ranges: self.ranges,
        }
    }
}

impl fmt::Display for WorkflowKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for WorkflowKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "diamond" => Ok(WorkflowKind::Diamond),
            "mapreduce" | "map-reduce" => Ok(WorkflowKind::MapReduce),
            "montage" => Ok(WorkflowKind::Montage),
            "epigenomics" => Ok(WorkflowKind::Epigenomics),
            other => Err(format!(
                "unknown workflow '{other}' (expected one of: diamond, mapreduce, montage, epigenomics)"
            )),
        }
    }
}

/// Draws one weight per range, in order: the one draw routine behind
/// both [`WorkflowKind::generate`] and [`WorkflowKind::sample_work`].
fn draw<'a, R: Rng + ?Sized>(
    ranges: &'a [(u64, u64)],
    rng: &'a mut R,
) -> impl Iterator<Item = f64> + 'a {
    ranges.iter().map(move |&(lo, hi)| half(rng, lo, hi))
}

/// Samples a half-integer weight in `[lo/2, hi/2]` — an exact binary
/// fraction, so it survives text serialisation bit-for-bit.
fn half<R: Rng + ?Sized>(rng: &mut R, lo: u64, hi: u64) -> f64 {
    rng.random_range(lo..=hi) as f64 * 0.5
}

fn diamond(scale: usize) -> Shape {
    let mut b = ShapeBuilder::with_capacity(scale + 2);
    let src = b.task(2, 6);
    let mids: Vec<TaskId> = (0..scale).map(|_| b.task(2, 16)).collect();
    let sink = b.task(2, 8);
    for &m in &mids {
        b.edge(src, m);
        b.edge(m, sink);
    }
    b.build()
}

fn mapreduce(scale: usize) -> Shape {
    let maps = scale;
    let reduces = (scale / 4).max(1);
    let mut b = ShapeBuilder::with_capacity(maps + reduces + 2);
    let split = b.task(2, 4);
    let map_ids: Vec<TaskId> = (0..maps).map(|_| b.task(8, 32)).collect();
    let reduce_ids: Vec<TaskId> = (0..reduces).map(|_| b.task(16, 48)).collect();
    let collect = b.task(2, 6);
    for &m in &map_ids {
        b.edge(split, m);
        // The shuffle: every map feeds every reduce.
        for &r in &reduce_ids {
            b.edge(m, r);
        }
    }
    for &r in &reduce_ids {
        b.edge(r, collect);
    }
    b.build()
}

fn montage(scale: usize) -> Shape {
    let n = scale;
    let mut b = ShapeBuilder::with_capacity(2 * n + n.saturating_sub(1) + 4);
    // mProject: re-project each input tile.
    let projects: Vec<TaskId> = (0..n).map(|_| b.task(4, 12)).collect();
    // mDiffFit: fit the overlap of each neighbouring pair of tiles.
    let diffs: Vec<TaskId> = (0..n.saturating_sub(1))
        .map(|i| {
            let d = b.task(2, 6);
            b.edge(projects[i], d);
            b.edge(projects[i + 1], d);
            d
        })
        .collect();
    // mConcatFit + mBgModel: the serial bottleneck.
    let concat = b.task(2, 8);
    for &d in &diffs {
        b.edge(d, concat);
    }
    if diffs.is_empty() {
        // A single-tile mosaic still models the fit stage.
        b.edge(projects[0], concat);
    }
    let model = b.task(4, 10);
    b.edge(concat, model);
    // mBackground: correct each tile against the model.
    let backgrounds: Vec<TaskId> = (0..n)
        .map(|i| {
            let bg = b.task(2, 8);
            b.edge(model, bg);
            b.edge(projects[i], bg);
            bg
        })
        .collect();
    // mImgtbl + mAdd: gather and co-add.
    let imgtbl = b.task(1, 4);
    for &bg in &backgrounds {
        b.edge(bg, imgtbl);
    }
    let add = b.task(8, 24);
    b.edge(imgtbl, add);
    b.build()
}

fn epigenomics(scale: usize) -> Shape {
    let lanes = scale;
    let mut b = ShapeBuilder::with_capacity(4 * lanes + 4);
    let split = b.task(2, 6);
    let merge_inputs: Vec<TaskId> = (0..lanes)
        .map(|_| {
            // One lane: filter → convert → transform → map, a serial
            // 4-chain with map dominating the cost.
            let filter = b.task(2, 8);
            b.edge(split, filter);
            let convert = b.task(1, 4);
            b.edge(filter, convert);
            let transform = b.task(1, 4);
            b.edge(convert, transform);
            let map = b.task(12, 36);
            b.edge(transform, map);
            map
        })
        .collect();
    let merge = b.task(4, 10);
    for &m in &merge_inputs {
        b.edge(m, merge);
    }
    let index = b.task(2, 6);
    b.edge(merge, index);
    let pileup = b.task(4, 12);
    b.edge(index, pileup);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dagfile::write_dag;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `(fnv1a(write_dag), next u64)` per kind × scale × seed, recorded
    /// from the build-per-call generators.
    const GOLDENS: [(u64, u64); 32] = [
        // Diamond: scale 1, 2, 8, 33 × seed 1, 42
        (0x2466df10aad1c029, 0xf5d93be338563c50),
        (0xf2628af65dca1ae2, 0xacf74e2351d7680c),
        (0xb632ad78d270ac9b, 0x40415c16e43c34e3),
        (0xdba81c27204c4d55, 0x5251f66261ff21ef),
        (0x799d7ea723f6205d, 0xefffb212ba981a61),
        (0x3f124de8af7419db, 0xc9ba844429b2e0b9),
        (0x1407cee800fe65aa, 0xe6cabb8c0e5b4591),
        (0x5a13c738c270f3c1, 0xe5f67f5fad7bfbfa),
        // MapReduce: scale 1, 2, 8, 33 × seed 1, 42
        (0x0a2087836d7f8ff4, 0x40415c16e43c34e3),
        (0x80396070b4cf7eff, 0x5251f66261ff21ef),
        (0xc7282d3df8b19df8, 0xd60bf710b9f54682),
        (0x9828cfa323d2a55e, 0xdd7cb25ea9747a19),
        (0xcf421153f979a96f, 0xb4379b9bbc4d98d2),
        (0xa0c87b85f3eafbc6, 0xab17adc3aab5ee4b),
        (0x7f8e08c8a59549ac, 0x3bb275260cddaac2),
        (0xa5cdd694d84fc98b, 0x916f74e5dfd7cc1e),
        // Montage: scale 1, 2, 8, 33 × seed 1, 42
        (0x277b02b6684584ec, 0xf85f60a0e17c7992),
        (0x3dec2c6133f6a37f, 0xb1af05846591cda5),
        (0x2564e37334cdb2a6, 0x4a482a245f7091ae),
        (0xfd7838af4ea99fc3, 0x42779d6ca71c6af2),
        (0x15bf9f94ec226f55, 0x3621fa4d526391a5),
        (0xf7241054f21e94c6, 0x87721034288f9f5e),
        (0x42d74c4a4ab94d82, 0xc36e507c2c33850e),
        (0xf06bbbd76086be05, 0x69eb2101cd6569d7),
        // Epigenomics: scale 1, 2, 8, 33 × seed 1, 42
        (0x44958839026e6c45, 0x50dbebf9597d2f5c),
        (0x4cca288480c75e2a, 0x3fd6cff65c09bbc6),
        (0xc586d9a850a37e02, 0xb4379b9bbc4d98d2),
        (0xf865df88f7628ede, 0xab17adc3aab5ee4b),
        (0x54e91407fd09c9a2, 0xaa957a7d94bf0a67),
        (0x8fc7c48f56af1ab8, 0x3396e86d0c5c5e67),
        (0x8730aa1cfca0ca60, 0x250dc6c26a7ae4e7),
        (0xcd1221d3ea5e6c1a, 0xd6e5b9cf19ec1561),
    ];

    #[test]
    fn every_kind_generates_a_weighted_dag() {
        let mut rng = StdRng::seed_from_u64(7);
        for kind in WorkflowKind::ALL {
            for scale in [1u32, 4, 16] {
                let d = kind.generate(scale, &mut rng);
                assert!(!d.is_unit_weight(), "{kind} scale {scale} must be weighted");
                assert!(d.num_tasks() >= 3, "{kind} scale {scale}");
                assert!(d.work() >= d.num_tasks() as u64);
                assert!(d.weighted_span() >= d.span());
            }
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        for kind in WorkflowKind::ALL {
            let d1 = kind.generate(8, &mut StdRng::seed_from_u64(42));
            let d2 = kind.generate(8, &mut StdRng::seed_from_u64(42));
            let w1 = d1.weight_profile().unwrap().weights();
            let w2 = d2.weight_profile().unwrap().weights();
            assert_eq!(w1, w2, "{kind}");
            assert_eq!(d1.num_tasks(), d2.num_tasks(), "{kind}");
        }
    }

    #[test]
    fn structures_have_the_expected_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = WorkflowKind::Diamond.generate(6, &mut rng);
        assert_eq!(d.num_tasks(), 8);
        assert_eq!(d.span(), 3);

        let m = WorkflowKind::MapReduce.generate(8, &mut rng);
        assert_eq!(m.num_tasks(), 1 + 8 + 2 + 1);
        assert_eq!(m.span(), 4);

        let mo = WorkflowKind::Montage.generate(4, &mut rng);
        // 4 projects + 3 diffs + concat + model + 4 backgrounds + imgtbl + add
        assert_eq!(mo.num_tasks(), 15);

        let e = WorkflowKind::Epigenomics.generate(5, &mut rng);
        // split + 5 lanes × 4 + merge + index + pileup
        assert_eq!(e.num_tasks(), 24);
        assert_eq!(e.span(), 8);
    }

    #[test]
    fn scale_zero_clamps_to_one() {
        let mut rng = StdRng::seed_from_u64(1);
        for kind in WorkflowKind::ALL {
            let d = kind.generate(0, &mut rng);
            assert!(d.num_tasks() >= 3, "{kind}");
        }
    }

    /// FNV-1a over the dag-file text: a stable fingerprint of structure
    /// and bit-exact weights.
    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Every kind × scale {1, 2, 8, 33} × seed {1, 42}: the hash of the
    /// generated dag's `write_dag` text and the RNG's next `u64` after
    /// generation. Pins the structure and the draw count and order.
    #[test]
    fn generation_matches_the_goldens() {
        let mut got = Vec::new();
        for kind in WorkflowKind::ALL {
            for scale in [1u32, 2, 8, 33] {
                for seed in [1u64, 42] {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let dag = kind.generate(scale, &mut rng);
                    got.push((fnv1a(&write_dag(&dag)), rng.next_u64()));
                }
            }
        }
        assert_eq!(got, GOLDENS);
    }

    /// Whether this thread keeps a shape for `kind`.
    fn kept(kind: WorkflowKind) -> bool {
        SHAPES.with(|slots| slots.borrow()[kind as usize].1.is_some())
    }

    /// One RNG drives a sequence through the cold path, the first
    /// repeat (fill), a hit, replacement by another scale and another
    /// kind's slot; every call must match the same call made from the
    /// same RNG state on a fresh thread, which builds from scratch.
    #[test]
    fn kept_shapes_generate_what_a_fresh_thread_generates() {
        use WorkflowKind::{MapReduce, Montage};
        let calls = [
            (Montage, 8, false),
            (Montage, 8, true),
            (Montage, 8, true),
            (Montage, 16, false),
            (Montage, 8, false),
            (MapReduce, 8, false),
            (Montage, 8, true),
        ];
        let mut rng = StdRng::seed_from_u64(11);
        for (i, &(kind, scale, keeps)) in calls.iter().enumerate() {
            let mut fresh_rng = rng.clone();
            let fresh = std::thread::scope(|s| {
                s.spawn(|| kind.generate(scale, &mut fresh_rng))
                    .join()
                    .unwrap()
            });
            let dag = kind.generate(scale, &mut rng);
            assert_eq!(kept(Montage), keeps, "call {i}: {kind} {scale}");
            assert_eq!(dag, fresh, "call {i}: {kind} {scale}");
            let bits = |d: &ExplicitDag| -> Vec<u64> {
                let wp = d.weight_profile().expect("weighted");
                wp.weights().iter().map(|w| w.to_bits()).collect()
            };
            assert_eq!(bits(&dag), bits(&fresh), "call {i}: {kind} {scale}");
            assert_eq!(rng, fresh_rng, "call {i}: RNG state after {kind} {scale}");
        }
        assert!(!kept(MapReduce), "a one-off MapReduce request is not kept");
    }

    /// Whether two dags share one topology: every successor row, the
    /// in-degree table and the level sizes are the same memory.
    fn shares_topology(a: &ExplicitDag, b: &ExplicitDag) -> bool {
        a.num_tasks() == b.num_tasks()
            && a.tasks()
                .all(|t| std::ptr::eq(a.successors(t), b.successors(t)))
            && std::ptr::eq(a.in_degrees(), b.in_degrees())
            && std::ptr::eq(a.level_sizes(), b.level_sizes())
    }

    /// Dags generated from a kept shape share its topology, so do their
    /// re-weightings, and a dag rebuilt from the same edges and weights
    /// shares nothing yet still compares equal.
    #[test]
    fn kept_shapes_share_one_topology() {
        let mut rng = StdRng::seed_from_u64(5);
        for kind in WorkflowKind::ALL {
            let _fresh = kind.generate(8, &mut rng);
            let a = kind.generate(8, &mut rng);
            let b = kind.generate(8, &mut rng);
            assert!(kept(kind), "{kind}");
            assert_ne!(a, b, "{kind}: fresh weights per call");
            assert!(shares_topology(&a, &b), "{kind}");
            let heavier = a
                .weight_profile()
                .unwrap()
                .weights()
                .iter()
                .map(|w| w + 1.0);
            let reweighted = a.clone().with_weights(heavier.collect()).unwrap();
            assert!(shares_topology(&a, &reweighted), "{kind}");
            let rebuilt = crate::dagfile::parse_dag(&write_dag(&a)).unwrap();
            assert!(!shares_topology(&a, &rebuilt), "{kind}");
            assert_eq!(a, rebuilt, "{kind}: equality compares values");
        }
    }

    /// `sample_work` is bit-equal to building the dag and reading its
    /// work, and leaves the RNG exactly where `generate` leaves it.
    #[test]
    fn sampled_work_equals_the_generated_dags_work() {
        for kind in WorkflowKind::ALL {
            for scale in [1u32, 2, 8, 33] {
                for seed in [1u64, 7, 42] {
                    let mut sampled = StdRng::seed_from_u64(seed);
                    let mut built = StdRng::seed_from_u64(seed);
                    // Twice, so the second pair runs on the kept shape.
                    for _ in 0..2 {
                        assert_eq!(
                            kind.sample_work(scale, &mut sampled),
                            kind.generate(scale, &mut built).work(),
                            "{kind} scale {scale} seed {seed}"
                        );
                    }
                    assert_eq!(
                        sampled.next_u64(),
                        built.next_u64(),
                        "{kind} scale {scale} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn names_round_trip_through_fromstr() {
        for kind in WorkflowKind::ALL {
            assert_eq!(kind.name().parse::<WorkflowKind>().unwrap(), kind);
        }
        assert_eq!(
            "MapReduce".parse::<WorkflowKind>().unwrap(),
            WorkflowKind::MapReduce,
            "parsing is case-insensitive"
        );
        let err = "mosaic".parse::<WorkflowKind>().unwrap_err();
        assert!(err.contains("unknown workflow 'mosaic'"), "{err}");
    }

    #[test]
    fn workflows_execute_to_completion() {
        use abg_sched::{BGreedyExecutor, JobExecutor};
        let mut rng = StdRng::seed_from_u64(19);
        for kind in WorkflowKind::ALL {
            let d = kind.generate(6, &mut rng);
            let mut ex = BGreedyExecutor::new(&d);
            let mut span = 0.0;
            while !ex.is_complete() {
                span += ex.run_quantum(4, 16).span;
            }
            assert_eq!(ex.completed_work(), d.work(), "{kind}");
            assert!(
                (span - d.weighted_span() as f64).abs() < 1e-9,
                "{kind}: span {span} vs {}",
                d.weighted_span()
            );
        }
    }
}
