//! Workflow round-trip: generate a weighted Montage-like dag, save it
//! to the on-disk dag-file format, reload it bit-for-bit, and drive the
//! reloaded dag both as a closed single job and as the arrival
//! population of the hierarchical open-system driver.
//!
//! ```text
//! cargo run --release --example workflow_replay
//! ```
//!
//! The dag-file format is line-oriented text (`tasks`, `weight`,
//! `edge`); Rust's shortest-round-trip float formatting makes the
//! half-integer stage weights reload with identical bit patterns, so
//! the replayed runs are exact replicas, not approximations.

use std::sync::Arc;

use abg::experiments::{try_open_system_sweep, OpenSystemConfig, OpenWorkload};
use abg_sched::{BGreedyExecutor, JobExecutor as _};
use abg_workload::{load_dag, save_dag, WorkflowKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. Generate one Montage-like workflow instance with seeded
    //    half-integer stage weights.
    let mut rng = StdRng::seed_from_u64(0x4D4F_4E54);
    let dag = WorkflowKind::Montage.generate(8, &mut rng);
    println!(
        "generated {}: {} tasks, work T1 = {}, levels = {}, weighted span T∞ = {}",
        WorkflowKind::Montage,
        dag.num_tasks(),
        dag.work(),
        dag.span(),
        dag.weighted_span(),
    );

    // 2. Save to disk and reload; the round-trip must be exact.
    let path = std::env::temp_dir().join("abg_workflow_replay_montage.dag");
    let path = path.to_str().expect("temp path is valid UTF-8");
    save_dag(path, &dag).expect("can write the dag file");
    let reloaded = load_dag(path).expect("can reload the dag file");
    assert_eq!(dag, reloaded, "round-trip must be bit-exact");
    println!("saved to {path} and reloaded bit-for-bit");
    println!();

    // 3. Closed replay: run the reloaded dag to completion at fixed
    //    allotments and compare against the weighted Brent bound
    //    T1/a + T∞.
    println!("closed replay (quantum length 20):");
    println!("{:>3}  {:>6}  {:>12}  {:>6}", "a", "T", "bound", "quanta");
    for a in [1u32, 2, 4, 8] {
        let mut ex = BGreedyExecutor::new(&reloaded);
        let mut quanta = 0u64;
        while !ex.is_complete() {
            ex.run_quantum(a, 20);
            quanta += 1;
        }
        let bound = reloaded.work() as f64 / a as f64 + reloaded.weighted_span() as f64;
        println!(
            "{:>3}  {:>6}  {:>12.1}  {:>6}",
            a,
            ex.elapsed_steps(),
            bound,
            quanta
        );
    }
    println!();

    // 4. Open replay: every arrival executes the reloaded dag, routed
    //    through the hierarchical two-level driver with desire-feedback
    //    reallocation across 4 processor groups.
    let mut cfg = OpenSystemConfig::smoke();
    cfg.rhos = vec![0.3, 0.6];
    cfg.groups = 4;
    cfg.group_alloc = "desire".parse().expect("a valid policy name");
    cfg.workload = OpenWorkload::Trace(Arc::new(reloaded));
    let rows = try_open_system_sweep(&cfg).expect("a consistent configuration");
    println!(
        "open replay on P = {} over {} groups ({} reallocation every {} quanta):",
        cfg.processors,
        cfg.groups,
        cfg.group_alloc.name(),
        cfg.realloc_epoch
    );
    println!(
        "{:>5}  {:>10}  {:>12}  {:>8}  {:>8}",
        "rho", "E[T1]", "abg resp", "sd p50", "sd p95"
    );
    for r in &rows {
        let (resp, p50, p95) = if r.abg.stable {
            (
                format!(
                    "{:.1}±{:.1}",
                    r.abg.mean_response, r.abg.response_half_width
                ),
                format!("{:.2}", r.abg.slowdown_p50),
                format!("{:.2}", r.abg.slowdown_p95),
            )
        } else {
            ("unstable".into(), "-".into(), "-".into())
        };
        println!(
            "{:>5.2}  {:>10.1}  {:>12}  {:>8}  {:>8}",
            r.rho, r.expected_work, resp, p50, p95
        );
    }
    println!();
    println!(
        "every arrival replays the same reloaded dag, so E[T1] is exact (no Monte-Carlo \
         sampling) and\nthe whole run is reproducible from the dag file and the seed alone."
    );

    let _ = std::fs::remove_file(path);
}
