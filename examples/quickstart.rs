//! Quickstart: schedule one malleable fork-join job with ABG.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a data-parallel job (serial → 32-wide → serial → 8-wide →
//! serial), runs it alone on a 64-processor machine under the ABG
//! two-level scheduler (B-Greedy task scheduler + the A-Control
//! `Controller`), and prints what happened quantum by quantum.

use abg::prelude::*;

fn main() {
    // A job is a dag of unit tasks; fork-join jobs are described by
    // their phase list. `PhasedJob` phases pipeline internally and join
    // at phase boundaries.
    let job = PhasedJob::new(vec![
        Phase::new(1, 40),  // serial ramp-in
        Phase::new(32, 90), // wide data-parallel phase
        Phase::new(1, 30),  // serial reduction
        Phase::new(8, 60),  // narrower parallel phase
        Phase::new(1, 20),  // serial tail
    ]);
    println!(
        "job: T1 = {} tasks, T∞ = {} levels, average parallelism = {:.1}",
        job.work(),
        job.span(),
        job.average_parallelism()
    );

    // The two-level scheduler: the task scheduler executes and measures,
    // the `Controller` turns measurements into processor requests, the
    // OS allocator grants them (here: everything available, up to
    // P = 64). A lone job is a one-job set of the closed driver, and
    // the closed and open-system drivers are the same unified quantum
    // core under a different configuration.
    let run = MultiJobSim::homogeneous(Scripted::ample(64), 25) // quantum length L = 25
        .with_traces()
        .run_job(PipelinedExecutor::new(job), AControl::new(0.2)); // convergence rate r = 0.2

    println!("\n q    d(q)  a(q)   T1(q)  T∞(q)    A(q)");
    for r in &run.trace {
        println!(
            "{:>2} {:>7.2} {:>5} {:>7} {:>6.1} {:>7.1}",
            r.index,
            r.request,
            r.allotment,
            r.stats.work,
            r.stats.span,
            r.stats.average_parallelism().unwrap_or(f64::NAN),
        );
    }

    println!(
        "\ncompleted in {} steps (critical path {}, so T/T∞ = {:.2})",
        run.response_time(),
        run.span,
        run.time_over_span()
    );
    println!(
        "wasted {} processor-cycles on {} of work (W/T1 = {:.3})",
        run.waste,
        run.work,
        run.waste_over_work()
    );
    println!("speedup over serial execution: {:.1}×", run.speedup());
}
