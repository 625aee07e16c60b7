//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload open_mixed --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a summary, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

use abg_perfbench::check::DEFAULT_SEED;
use abg_perfbench::measure::{traced, untraced};
use abg_perfbench::workloads::{Inputs, Workload};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: abg-perfbench --workload <open_mixed|open_montage|hier_replay|closed_figs> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The closed sweeps size their worker pool from this variable; the
    // benchmark measures one worker thread so its figures do not depend
    // on how many cores the host lends it.
    std::env::set_var("ABG_THREADS", "1");

    let inputs = Inputs::new(args.workload, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let report = if args.trace {
        traced(&inputs, budget)
    } else {
        untraced(&inputs, budget)
    };

    println!(
        "workload {} seed {} trace {}: {} passes, {} runs checked, {} failed (failed_frac {})",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        report.passes,
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted as f64
    );
    for (label, hash) in &report.hashes {
        println!("  run {label:<20} outcome hash {hash:#018x}");
    }
    for failure in report.failures.iter().take(20) {
        println!("  FAILED {failure}");
    }
    for m in &report.metrics {
        println!("  {:<30} {:>16} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
