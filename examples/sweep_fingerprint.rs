//! Prints bit-exact fingerprints of the paper-scale sweeps.
//!
//! ```text
//! cargo run --release --example sweep_fingerprint
//! ```
//!
//! The values only depend on the config (including the seed), never on
//! the machine or thread count. Record them before a kernel or layout
//! refactor and compare after: equal fingerprints mean the refactor is
//! behavior-identical down to the last ulp on every sweep output field
//! (the unified-quantum-core rewrite of all four drivers was gated on
//! exactly this check). `tests/sweep_equivalence.rs` pins both values
//! as `FIG5_PAPER` and `FIG6_PAPER`.

use abg::experiments::{
    load_fingerprint, multiprogrammed_sweep, single_job_sweep, sweep_fingerprint,
    MultiprogrammedConfig, SingleJobSweepConfig,
};
use std::time::Instant;

fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    eprintln!("  [{label}: {:.2}s]", start.elapsed().as_secs_f64());
    out
}

fn main() {
    let fig5 = timed("fig5 paper", || {
        single_job_sweep(&SingleJobSweepConfig::paper())
    });
    println!(
        "single_job_sweep(paper)         = {:#018x}",
        sweep_fingerprint(&fig5)
    );

    let fig6 = timed("fig6 paper", || {
        multiprogrammed_sweep(&MultiprogrammedConfig::paper())
    });
    println!(
        "multiprogrammed_sweep(paper)    = {:#018x}",
        load_fingerprint(&fig6)
    );
}
