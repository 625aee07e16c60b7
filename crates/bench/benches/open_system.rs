//! Open-system driver benchmarks: the sustained-arrival stepping loop
//! (admission, quantum stepping, completion drain, statistics
//! collection) and the full ρ sweep at smoke scale.

use abg::experiments::{open_system_sweep, OpenSystemConfig};
use abg::queue::{
    run_open_hierarchical_with_threads, run_open_sharded_with_threads, run_open_system,
    HierOpenConfig, OpenConfig, SaturationConfig, ShardRouting, ShardedOpenConfig,
};
use abg_alloc::DynamicEquiPartition;
use abg_control::{AControl, GroupPolicy, RequestCalculator};
use abg_dag::PhasedJob;
use abg_queue::ReferenceOpenDriver;
use abg_sched::{JobExecutor, PipelinedExecutor};
use abg_workload::{mean_gap_for_utilization, ArrivalProcess};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn driver_config(rho: f64, measured_jobs: u64) -> OpenConfig {
    OpenConfig {
        processors: 32,
        quantum_len: 100,
        arrivals: ArrivalProcess::Poisson {
            // Constant-structure jobs below: T1 = 8 × 200 = 1600 steps.
            mean_gap: mean_gap_for_utilization(rho, 32, 1600.0),
        },
        warmup_jobs: measured_jobs / 4,
        measured_jobs,
        batches: 8,
        // Unbounded in practice: the largest budget whose step horizon
        // fits in u64.
        max_quanta: u64::MAX / 100,
        saturation: SaturationConfig::default(),
        seed: 0xB16C_2008,
    }
}

fn bench_open_system(c: &mut Criterion) {
    let mut g = c.benchmark_group("open_system");
    g.sample_size(20);

    let job = Arc::new(PhasedJob::constant(8, 200));
    for rho in [0.3, 0.7] {
        let cfg = driver_config(rho, 120);
        let job = Arc::clone(&job);
        g.bench_function(format!("driver_rho_{rho}"), |b| {
            b.iter(|| {
                black_box(run_open_system(
                    black_box(&cfg),
                    DynamicEquiPartition::new(cfg.processors),
                    |_rng, recycled| {
                        if let Some(mut ex) = recycled {
                            if ex.try_reset() {
                                return ex;
                            }
                        }
                        Box::new(PipelinedExecutor::new(Arc::clone(&job)))
                    },
                    || Box::new(AControl::new(0.2)),
                ))
            })
        });
    }

    let sweep = OpenSystemConfig::smoke();
    g.bench_function("smoke_sweep", |b| {
        b.iter(|| black_box(open_system_sweep(black_box(&sweep))))
    });

    g.finish();
}

/// Event-driven driver vs the legacy quantum-by-quantum reference loop,
/// at a lull-dominated load (ρ = 0.3, idle fast-forward does the work)
/// and a backlog-dominated one (ρ = 0.9, frozen-quantum macro-stepping
/// does). The pair quantifies what the calendar layer buys end to end.
///
/// Jobs here are deep (T₁ = 8 × 50 000 = 400 000 steps) so events are
/// *sparse* relative to the quantum: at ρ = 0.9 the mean arrival gap is
/// ~35 quanta, at ρ = 0.3 it is ~104 — both well past the ~22 quanta
/// the controller needs to reach a bitwise-steady request after each
/// event. Shallow jobs (as in the `open_system` group above) see an
/// arrival almost every quantum and leave no window for macro-stepping
/// — that regime stays covered by the group above.
fn bench_open_event_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("open_event_kernel");
    g.sample_size(20);

    let job = Arc::new(PhasedJob::constant(8, 50_000));
    for rho in [0.3, 0.9] {
        let mut cfg = driver_config(rho, 60);
        // 128 processors = 16 effective servers for width-8 jobs, so the
        // ρ = 0.9 population stays in DEQ's satisfied regime (allotments
        // it can freeze); on a 4-server machine that load lives in the
        // deprived regime where every quantum reallocates.
        cfg.processors = 128;
        cfg.arrivals = ArrivalProcess::Poisson {
            mean_gap: mean_gap_for_utilization(rho, 128, 400_000.0),
        };
        for (name, legacy) in [("event", false), ("legacy", true)] {
            let cfg = cfg.clone();
            let job = Arc::clone(&job);
            g.bench_function(format!("{name}_rho_{rho}"), |b| {
                b.iter(|| {
                    let make_executor =
                        |_rng: &mut _, recycled: Option<Box<dyn JobExecutor + Send>>| {
                            if let Some(mut ex) = recycled {
                                if ex.try_reset() {
                                    return ex;
                                }
                            }
                            Box::new(PipelinedExecutor::new(Arc::clone(&job)))
                                as Box<dyn JobExecutor + Send>
                        };
                    let make_controller =
                        || Box::new(AControl::new(0.2)) as Box<dyn RequestCalculator + Send>;
                    let alloc = DynamicEquiPartition::new(cfg.processors);
                    black_box(if legacy {
                        ReferenceOpenDriver::run(
                            black_box(&cfg),
                            alloc,
                            make_executor,
                            make_controller,
                        )
                    } else {
                        run_open_system(black_box(&cfg), alloc, make_executor, make_controller)
                    })
                })
            });
        }
    }

    g.finish();
}

/// The sharded engine across shard counts on one worker, at the
/// backlog-dominated load of the `open_event` regime. Deep width-2 jobs
/// (T₁ = 2 × 200 000 = 400 000 steps) keep even a 16-processor shard at
/// 8 effective servers, so every shard stays in the satisfied regime
/// where frozen windows form. Simulated time committed per iteration
/// *grows* with the shard count (every decimated shard runs its own
/// full horizon) while iteration wall-clock stays roughly flat beyond
/// `G = 2` — each shard's event loop prices a fraction of the
/// population, paying back the per-shard arrival replay and trend-check
/// bookkeeping; the `open_sharded` gated kernel tracks the resulting
/// steps/s ratio against `open_event`.
fn bench_open_sharded(c: &mut Criterion) {
    let mut g = c.benchmark_group("open_sharded");
    g.sample_size(20);

    let job = Arc::new(PhasedJob::constant(2, 200_000));
    let mut open = driver_config(0.85, 60);
    open.processors = 128;
    open.arrivals = ArrivalProcess::Poisson {
        mean_gap: mean_gap_for_utilization(0.85, 128, 400_000.0),
    };
    for shards in [1u32, 2, 4, 8] {
        let cfg = ShardedOpenConfig {
            open: open.clone(),
            shards,
            routing: ShardRouting::RoundRobin,
        };
        let job = Arc::clone(&job);
        g.bench_function(format!("shards_{shards}"), |b| {
            b.iter(|| {
                black_box(run_open_sharded_with_threads(
                    black_box(&cfg),
                    DynamicEquiPartition::new,
                    |_rng, recycled: Option<Box<dyn JobExecutor + Send>>| {
                        if let Some(mut ex) = recycled {
                            if ex.try_reset() {
                                return ex;
                            }
                        }
                        Box::new(PipelinedExecutor::new(Arc::clone(&job)))
                    },
                    || Box::new(AControl::new(0.2)) as Box<dyn RequestCalculator + Send>,
                    1,
                ))
            })
        });
    }

    g.finish();
}

/// The hierarchical top level over four groups, static vs the
/// desire-proportional feedback allocator, at a uniform and a 4:1
/// skewed arrival split. Same deep width-2 jobs and backlog-dominated
/// load as `open_sharded`, so the static/uniform cell prices exactly
/// the sharded engine plus the epoch-slicing overhead (desires are
/// folded every 64 quanta but no group ever resizes); the feedback
/// cells add the allocator-rebuild cost on every capacity move. Under
/// skew the static partition's hot group carries most of the
/// population, so the feedback rows can be *faster* per unit of
/// simulated time — the gated `open_hier` kernel tracks that ratio.
fn bench_open_hier(c: &mut Criterion) {
    let mut g = c.benchmark_group("open_hier");
    g.sample_size(20);

    let job = Arc::new(PhasedJob::constant(2, 200_000));
    let mut open = driver_config(0.7, 60);
    open.processors = 128;
    open.arrivals = ArrivalProcess::Poisson {
        mean_gap: mean_gap_for_utilization(0.7, 128, 400_000.0),
    };
    for (route_name, routing) in [
        ("uniform", ShardRouting::RoundRobin),
        ("skew4", ShardRouting::Skewed { hot: 4 }),
    ] {
        for policy in [GroupPolicy::Static, GroupPolicy::Desire] {
            let cfg = HierOpenConfig {
                open: open.clone(),
                groups: 4,
                routing,
                realloc_epoch: 64,
                group_floor: 1,
            };
            let job = Arc::clone(&job);
            g.bench_function(format!("{}_{route_name}", policy.name()), |b| {
                b.iter(|| {
                    black_box(run_open_hierarchical_with_threads(
                        black_box(&cfg),
                        DynamicEquiPartition::new,
                        |_rng, recycled: Option<Box<dyn JobExecutor + Send>>| {
                            if let Some(mut ex) = recycled {
                                if ex.try_reset() {
                                    return ex;
                                }
                            }
                            Box::new(PipelinedExecutor::new(Arc::clone(&job)))
                        },
                        || Box::new(AControl::new(0.2)) as Box<dyn RequestCalculator + Send>,
                        policy.build(),
                        1,
                    ))
                })
            });
        }
    }

    g.finish();
}

criterion_group!(
    benches,
    bench_open_system,
    bench_open_event_kernel,
    bench_open_sharded,
    bench_open_hier
);
criterion_main!(benches);
