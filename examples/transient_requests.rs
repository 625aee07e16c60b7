//! Transient behaviour: ABG vs A-Greedy request trajectories on a
//! constant-parallelism job (the paper's Figures 1 and 4), rendered as
//! an ASCII chart. Both controllers run through the same unified core;
//! only the `Controller` impl differs.
//!
//! ```text
//! cargo run --release --example transient_requests
//! ```

use abg::control::{AControl, AGreedy};
use abg::experiments::transient_comparison;

fn bar(value: f64, scale: f64, width: usize, ch: char) -> String {
    let n = ((value / scale) * width as f64).round() as usize;
    std::iter::repeat_n(ch, n.min(width)).collect()
}

fn main() {
    let res = transient_comparison(12);
    let max = 20.0; // chart scale: twice the parallelism
    let width = 48;

    println!(
        "constant parallelism A = {}  (quantum L = 1000, r = {}, ρ = {})\n",
        res.parallelism,
        AControl::paper_default().rate(),
        AGreedy::paper_default().responsiveness()
    );
    println!("ABG (A-Control): converges geometrically, no overshoot");
    for p in &res.abg {
        println!(
            " q={:>2} d={:>6.2} |{:<width$}|",
            p.index,
            p.request,
            bar(p.request, max, width, '#')
        );
    }
    println!("\nA-Greedy: multiplicative increase/decrease never settles");
    for p in &res.agreedy {
        println!(
            " q={:>2} d={:>6.2} |{:<width$}|",
            p.index,
            p.request,
            bar(p.request, max, width, '*')
        );
    }
    println!(
        "\n(the target parallelism sits at column {}; every '*' row above or\n \
         below it is a quantum of misallocated processors)",
        width / 2
    );
}
