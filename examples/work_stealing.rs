//! Work stealing with and without parallelism feedback: A-Steal vs ABP
//! vs centralized ABG on the same job.
//!
//! ```text
//! cargo run --release --example work_stealing
//! ```
//!
//! ABP holds the whole machine and burns the serial phases in failed
//! steal attempts; A-Steal's feedback releases processors it cannot
//! use; centralized ABG additionally avoids steal overhead entirely.
//! All three request policies are ordinary [`Controller`]s
//! (`abg_steal` implements the trait for its schedulers), so they drop
//! into the closed driver's `run_job` unchanged.

use abg::prelude::*;
use abg_steal::{abp_request, ASteal, StealExecutor};

fn main() {
    let processors = 32u32;
    let quantum = 50u64;
    let job = PhasedJob::new(vec![
        Phase::new(1, 120),
        Phase::new(16, 300),
        Phase::new(1, 120),
        Phase::new(16, 300),
        Phase::new(1, 120),
    ]);
    println!(
        "job: T1 = {}, T∞ = {}, average parallelism {:.1}; machine P = {}\n",
        job.work(),
        job.span(),
        job.average_parallelism(),
        processors
    );

    // Centralized ABG (B-Greedy + A-Control) on the pipelined fast path.
    let abg = MultiJobSim::homogeneous(Scripted::ample(processors), quantum)
        .run_job(PipelinedExecutor::new(job.clone()), AControl::new(0.2));

    // The stealing schedulers need the explicit dag.
    let dag = job.to_explicit();

    let mut asteal_exec = StealExecutor::new(&dag, 0xA5);
    let asteal = MultiJobSim::homogeneous(Scripted::ample(processors), quantum)
        .run_job(&mut asteal_exec, ASteal::paper_default());
    let asteal_steals = asteal_exec.steal_cycles();

    let mut abp_exec = StealExecutor::new(&dag, 0xA5);
    let abp = MultiJobSim::homogeneous(Scripted::ample(processors), quantum)
        .run_job(&mut abp_exec, abp_request(processors));
    let abp_steals = abp_exec.steal_cycles();

    println!("scheduler                      T/T∞    W/T1   steal-cycles");
    println!(
        "abg (centralized)            {:>6.2} {:>7.3}   {:>12}",
        abg.time_over_span(),
        abg.waste_over_work(),
        "-"
    );
    println!(
        "a-steal (feedback stealing)  {:>6.2} {:>7.3}   {:>12}",
        asteal.time_over_span(),
        asteal.waste_over_work(),
        asteal_steals
    );
    println!(
        "abp (no feedback)            {:>6.2} {:>7.3}   {:>12}",
        abp.time_over_span(),
        abp.waste_over_work(),
        abp_steals
    );
    println!(
        "\nABP wastes {:.1}× more cycles than A-Steal — the value of\n\
         parallelism feedback, independent of the execution substrate.",
        abp.waste_over_work() / asteal.waste_over_work().max(1e-9)
    );
}
