//! Bring your own controller: one `Controller` impl drives every driver.
//!
//! ```text
//! cargo run --release --example custom_controller
//! ```
//!
//! The unified quantum core is generic over the [`Controller`] trait, so
//! a user-defined request policy plugs into the closed driver
//! and the open-system (sustained-arrival) driver without touching
//! either. The controller here snaps its request to the nearest power of
//! two and only moves when the measured parallelism drifts — the kind of
//! policy a cluster with power-of-two partition sizes would actually
//! want, and one the paper never had to name.

use abg::prelude::*;
use abg::queue::{run_open_system, OpenConfig, SaturationConfig};
use abg_workload::{mean_gap_for_utilization, ArrivalProcess};

/// Requests the power of two nearest the measured average parallelism,
/// holding its position until the measurement drifts by more than the
/// hysteresis band (so one noisy quantum cannot flap the partition).
#[derive(Debug, Clone)]
struct PowerOfTwo {
    request: f64,
    hysteresis: f64,
}

impl PowerOfTwo {
    fn new(hysteresis: f64) -> Self {
        Self {
            request: 1.0,
            hysteresis,
        }
    }
}

impl Controller for PowerOfTwo {
    fn observe(&mut self, stats: &QuantumStats) -> f64 {
        if let Some(a) = stats.average_parallelism() {
            let drift = (a - self.request).abs() / self.request.max(1.0);
            if drift > self.hysteresis {
                // Nearest power of two in log-space, never below 1.
                self.request = 2f64.powf(a.max(1.0).log2().round());
            }
        }
        self.request
    }

    fn current_request(&self) -> f64 {
        self.request
    }

    fn name(&self) -> &'static str {
        "power-of-two"
    }
}

fn main() {
    let job = PhasedJob::new(vec![
        Phase::new(1, 40),
        Phase::new(24, 120),
        Phase::new(1, 40),
        Phase::new(6, 90),
        Phase::new(1, 30),
    ]);

    // ── Closed driver: the job alone on the machine. ────────────────
    let run = MultiJobSim::homogeneous(Scripted::ample(64), 25)
        .with_traces()
        .run_job(PipelinedExecutor::new(job), PowerOfTwo::new(0.25));
    println!("closed driver, one job under the custom controller:");
    println!(" q    d(q)  a(q)    A(q)");
    for r in &run.trace {
        println!(
            "{:>2} {:>7.2} {:>5} {:>7.1}",
            r.index,
            r.request,
            r.allotment,
            r.stats.average_parallelism().unwrap_or(f64::NAN),
        );
    }
    println!(
        "done in {} steps (T/T∞ = {:.2}), waste/work = {:.3}",
        run.response_time(),
        run.time_over_span(),
        run.waste_over_work()
    );
    for r in &run.trace {
        let d = r.request;
        assert!(
            (d.log2().fract()).abs() < 1e-12,
            "every request is a power of two, got {d}"
        );
    }

    // ── Open driver: the same controller under Poisson arrivals. ────
    let cfg = OpenConfig {
        processors: 32,
        quantum_len: 25,
        arrivals: ArrivalProcess::Poisson {
            // T1 = 6 * 60 = 360 steps per job, offered at rho = 0.4.
            mean_gap: mean_gap_for_utilization(0.4, 32, 360.0),
        },
        warmup_jobs: 40,
        measured_jobs: 160,
        batches: 8,
        max_quanta: 1_000_000,
        saturation: SaturationConfig::default(),
        seed: 0xCAFE,
    };
    let outcome = run_open_system(
        &cfg,
        DynamicEquiPartition::new(cfg.processors),
        |_rng, _recycled| -> Box<dyn JobExecutor + Send> {
            Box::new(PipelinedExecutor::new(PhasedJob::constant(6, 60)))
        },
        // The same user type, boxed for the heterogeneous engine.
        || -> Box<dyn Controller + Send> { Box::new(PowerOfTwo::new(0.25)) },
    );
    let stats = outcome.steady().expect("rho = 0.4 is stable");
    println!("\nopen driver, sustained arrivals under the same controller:");
    println!(
        "  {} arrivals measured over {} steps",
        stats.arrivals, stats.horizon
    );
    println!(
        "  mean response {:.0} ± {:.0} steps, median slowdown {:.2}",
        stats.response.mean, stats.response.half_width, stats.slowdown.p50
    );
}
