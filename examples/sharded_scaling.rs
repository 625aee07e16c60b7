//! Aggregate throughput of the sharded open-system engine: the same
//! offered load simulated as one machine versus as independent
//! processor-group shards.
//!
//! ```text
//! cargo run --release --example sharded_scaling
//! ```
//!
//! Each row splits a 128-processor machine at ρ = 0.85 into `G` shards
//! and reports how much simulated time the engine commits per
//! wall-clock second (aggregate committed quanta × quantum length,
//! summed over shards). Two effects stack:
//!
//! * every decimated shard runs its own full horizon, so the aggregate
//!   simulated time grows with `G` at the same total arrival count; and
//! * each shard's event loop prices a population `G`× smaller, so those
//!   horizons are also cheaper to commit.
//!
//! The pool here is pinned to one worker so the table isolates the
//! algorithmic win; on a multi-core machine `run_open_sharded` spreads
//! the shards over `ABG_THREADS` workers on top of it.

use abg::queue::{
    run_open_sharded_with_threads, OpenConfig, SaturationConfig, ShardRouting, ShardedOpenConfig,
};
use abg_alloc::DynamicEquiPartition;
use abg_control::{AControl, RequestCalculator};
use abg_dag::PhasedJob;
use abg_sched::{JobExecutor, PipelinedExecutor};
use abg_workload::{mean_gap_for_utilization, ArrivalProcess};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let processors = 128u32;
    let rho = 0.85;
    // Width-2 jobs keep even a 1/8 slice of the machine at 8 effective
    // servers — every shard stays in the satisfied regime where frozen
    // windows form. T1 = 2 × 40_000 = 80_000 steps per job.
    let job = Arc::new(PhasedJob::constant(2, 40_000));
    let t1 = 2.0 * 40_000.0;
    let open = OpenConfig {
        processors,
        quantum_len: 100,
        arrivals: ArrivalProcess::Poisson {
            mean_gap: mean_gap_for_utilization(rho, processors, t1),
        },
        warmup_jobs: 200,
        measured_jobs: 2_000,
        batches: 8,
        // Unbounded in practice: the largest budget whose step horizon
        // fits in u64.
        max_quanta: u64::MAX / 100,
        saturation: SaturationConfig {
            // ~ρ·P/width ≈ 54 jobs are in flight at this load, and the
            // ramp from an empty system to that plateau would read as
            // "queue growth" under the default margin (tuned for the
            // small populations of the test sweeps). Widening the
            // additive margin keeps the trend test armed for genuine
            // divergence only.
            margin: 80.0,
            ..SaturationConfig::default()
        },
        seed: 0xB16C_2008,
    };

    println!("sharded open-system engine, P = {processors}, rho = {rho}");
    println!(
        "{:>6}  {:>14}  {:>9}  {:>13}  {:>8}",
        "shards", "agg steps", "wall ms", "steps/s", "vs G=1"
    );
    let mut base = None;
    for shards in [1u32, 2, 4, 8] {
        let cfg = ShardedOpenConfig {
            open: open.clone(),
            shards,
            routing: ShardRouting::RoundRobin,
        };
        let start = Instant::now();
        let out = run_open_sharded_with_threads(
            &cfg,
            DynamicEquiPartition::new,
            |_rng, recycled: Option<Box<dyn JobExecutor + Send>>| {
                if let Some(mut ex) = recycled {
                    if ex.try_reset() {
                        return ex;
                    }
                }
                Box::new(PipelinedExecutor::new(Arc::clone(&job)))
            },
            || -> Box<dyn RequestCalculator + Send> { Box::new(AControl::new(0.2)) },
            1,
        );
        let wall = start.elapsed().as_secs_f64();
        let stats = out.steady().expect("rho = 0.85 is stable");
        let steps = stats.quanta * open.quantum_len;
        let rate = steps as f64 / wall;
        let speedup = rate / *base.get_or_insert(rate);
        println!(
            "{:>6}  {:>14}  {:>9.1}  {:>13.3e}  {:>7.2}x",
            shards,
            steps,
            wall * 1e3,
            rate,
            speedup
        );
    }
}
