//! Hierarchical two-level scheduling under skewed arrivals: what the
//! desire-feedback top level buys over the fixed equi-partition.
//!
//! ```text
//! cargo run --release --example hierarchical_skew
//! ```
//!
//! A 32-processor machine is split into 4 processor groups. Arrivals
//! are routed with skew `h`: group 0 receives `h` of every `h + 3`
//! arrivals, the rest one each — so at `h = 1` the split is uniform
//! and at `h = 8` group 0 carries ~73% of the load while holding 25%
//! of the machine under the static partition. Each row runs the same
//! arrival sequence and job population under a top-level policy and
//! reports the steady-state mean response time, the hot group's final
//! capacity, and the spread of per-group served utilization (completed
//! work over each group's own capacity integral). The static policy is
//! the fixed partition (it never resizes a group); the feedback
//! policies reallocate every 50 quanta and should flatten the
//! utilization spread as the skew grows.

use abg::experiments::{hierarchical_skew_sweep, HierarchicalConfig};
use abg::queue::SaturationConfig;
use abg_control::GroupPolicy;

fn main() {
    let cfg = HierarchicalConfig {
        processors: 32,
        groups: 4,
        quantum_len: 20,
        realloc_epoch: 50,
        rho: 0.4,
        hots: vec![1, 2, 4, 8],
        policies: vec![
            GroupPolicy::Static,
            GroupPolicy::Desire,
            GroupPolicy::Conservative,
        ],
        width: 2,
        levels: 100,
        warmup_jobs: 200,
        measured_jobs: 800,
        batches: 8,
        max_quanta: 50_000_000,
        saturation: SaturationConfig::default(),
        seed: 0x5E3A,
    };
    let rows = hierarchical_skew_sweep(&cfg);

    println!(
        "hierarchical two-level scheduling, P = {}, G = {}, aggregate rho = {}, \
         realloc every {} quanta",
        cfg.processors, cfg.groups, cfg.rho, cfg.realloc_epoch
    );
    println!(
        "{:>4}  {:>9}  {:>12}  {:>12}  {:>8}  {:>7}  {:>24}",
        "skew", "local rho", "policy", "mean resp", "sd p50", "hot P", "group utilization"
    );
    for row in &rows {
        for cell in &row.cells {
            let utils: Vec<String> = cell
                .group_utilization
                .iter()
                .map(|u| format!("{u:.2}"))
                .collect();
            let (resp, sd) = if cell.stable {
                (
                    format!("{:.1}", cell.mean_response),
                    format!("{:.2}", cell.slowdown_p50),
                )
            } else {
                ("unstable".into(), "-".into())
            };
            println!(
                "{:>4}  {:>9.3}  {:>12}  {:>12}  {:>8}  {:>7}  {:>24}",
                row.hot,
                row.hot_local_rho,
                cell.policy.name(),
                resp,
                sd,
                cell.hot_processors,
                utils.join(" "),
            );
        }
        println!();
    }
    println!(
        "local rho = the hot group's offered load under the FIXED partition; the static \
         policy faces it directly,\nwhile the feedback policies shift capacity toward the \
         hot group (see 'hot P') and level the utilizations."
    );
}
