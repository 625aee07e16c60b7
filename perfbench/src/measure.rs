//! The measurement loops: untraced (end-to-end metrics) and traced
//! (per-layer metrics), each a closed loop of passes over one workload.

use crate::calibrate::host_speed;
use crate::check::{check_pass, run_hashes};
use crate::layers::{Plain, Snapshot, Span, Traced};
use crate::workloads::{run_pass, set_up, Inputs, Outcome, Pass, Prepared};
use abg::queue::OpenOutcome;
use std::time::{Duration, Instant};

/// Passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Simulated runs checked.
    pub attempted: u64,
    /// Simulated runs that failed their check.
    pub failed: u64,
    /// Every failure message.
    pub failures: Vec<String>,
    /// Passes timed.
    pub passes: usize,
    /// Label and outcome hash of each run of the first pass.
    pub hashes: Vec<(String, u64)>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Whether every run passed and nothing else went wrong.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Checks every pass against the recorded hashes or the invariants, and
/// against the first pass of the run.
struct Tally<'a> {
    inputs: &'a Inputs,
    first: Option<Vec<u64>>,
}

impl Tally<'_> {
    fn check(&mut self, prepared: &Prepared, pass: &Pass, report: &mut Report) {
        let hashes = run_hashes(prepared, pass);
        let failures = check_pass(
            self.inputs.workload,
            self.inputs.seed,
            prepared,
            pass,
            &hashes,
            self.first.as_deref(),
        );
        report.attempted += pass.runs.len() as u64;
        report.failed += failures.len() as u64;
        report.failures.extend(failures);
        if self.first.is_none() {
            let labels = pass.runs.iter().map(|r| r.label.clone());
            report.hashes = labels.zip(hashes.iter().copied()).collect();
            self.first = Some(hashes);
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Peak resident set of this process, in bytes (`VmHWM`).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Resets `VmHWM` to the current resident set, so the peak read later
/// belongs to what ran after this call.
fn reset_peak_rss() {
    // Best effort: without the reset the process's peak still covers one
    // workload only, since every run is its own process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Share of a pass's wall time spent after it measuring host speed.
const CALIBRATION_SHARE: f64 = 0.1;

/// The untraced run: `jobs_per_s`, `setup_s` and `peak_rss_mb`.
///
/// Every pass has its own set-up and is followed by a host-speed
/// measurement that scales both (see [`crate::calibrate`]), so both
/// medians sample the whole run at one nominal host speed.
pub fn untraced(inputs: &Inputs, budget: Duration) -> Report {
    reset_peak_rss();
    let mut report = Report::default();
    let mut tally = Tally {
        inputs,
        first: None,
    };
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while rates.len() < MIN_PASSES || started.elapsed() < budget {
        let (prepared, setup) = timed(|| set_up(inputs, &Plain));
        let (pass, wall) = timed(|| run_pass(&prepared, &Plain));
        let speed = host_speed(wall * CALIBRATION_SHARE);
        setups.push(setup * speed);
        rates.push(pass.jobs as f64 / wall / speed);
        tally.check(&prepared, &pass, &mut report);
    }
    report.passes = rates.len();
    report.metric("jobs_per_s", median(&rates), "1/s");
    report.metric("setup_s", median(&setups), "s");
    let rss = peak_rss_bytes().unwrap_or_else(|| {
        report
            .failures
            .push("cannot read VmHWM from /proc/self/status".into());
        0
    });
    report.metric("peak_rss_mb", rss as f64 / (1024.0 * 1024.0), "MB");
    report
}

/// Counts a traced pass must repeat exactly, pass after pass and run
/// after run at one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerCounts {
    /// Calls per span, indexed like [`Span::ALL`].
    pub calls: Vec<u64>,
    /// Quanta covered by bulk `run_quantum` calls.
    pub bulk_quanta: u64,
    /// Quanta covered by all `run_quantum` calls.
    pub job_quanta: u64,
    /// Admissions served by `try_reset`.
    pub resets: u64,
    /// Requests the allocator saw.
    pub requests: u64,
    /// Machine quanta the runs executed.
    pub sim_quanta: u64,
    /// Largest in-system population of any run.
    pub peak_jobs: u64,
}

/// The counts of one traced pass.
pub fn layer_counts(snapshot: &Snapshot, pass: &Pass) -> LayerCounts {
    let steady = || {
        pass.runs.iter().filter_map(|r| match &r.outcome {
            Outcome::Open(OpenOutcome::Steady(s)) => Some(s),
            _ => None,
        })
    };
    LayerCounts {
        calls: snapshot.calls.to_vec(),
        bulk_quanta: snapshot.bulk_quanta,
        job_quanta: snapshot.job_quanta,
        resets: snapshot.resets,
        requests: snapshot.requests,
        sim_quanta: steady().map(|s| s.quanta).sum(),
        peak_jobs: steady().map(|s| s.peak_jobs_in_system).max().unwrap_or(0),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run: every per-layer metric. Untraced and traced passes
/// alternate, so `trace.overhead_frac` compares passes made under the
/// same host conditions.
pub fn traced(inputs: &Inputs, budget: Duration) -> Report {
    let mut report = Report::default();
    let traced = Traced::default();
    let mut tally = Tally {
        inputs,
        first: None,
    };
    let (mut setup_spans, mut snapshots) = (Vec::new(), Vec::new());
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut counts: Option<LayerCounts> = None;
    let started = Instant::now();
    while traced_walls.len() < MIN_PASSES || started.elapsed() < budget {
        let prepared = set_up(inputs, &traced);
        setup_spans.push(traced.take());

        let (pass, wall) = timed(|| run_pass(&prepared, &Plain));
        plain_walls.push(wall);
        tally.check(&prepared, &pass, &mut report);

        let (pass, wall) = timed(|| run_pass(&prepared, &traced));
        let snapshot = traced.take();
        tally.check(&prepared, &pass, &mut report);
        let these = layer_counts(&snapshot, &pass);
        match &counts {
            None => counts = Some(these),
            Some(first) if *first != these => report.failures.push(format!(
                "layer counts changed between passes: {first:?} vs {these:?}"
            )),
            Some(_) => {}
        }
        traced_walls.push(wall);
        snapshots.push(snapshot);
    }
    report.passes = traced_walls.len();
    let counts = counts.expect("at least one traced pass");
    let span_s = |span: Span| {
        median(
            &snapshots
                .iter()
                .map(|s| s.seconds(span))
                .collect::<Vec<_>>(),
        )
    };
    let setup_s = |span: Span| {
        median(
            &setup_spans
                .iter()
                .map(|s| s.seconds(span))
                .collect::<Vec<_>>(),
        )
    };
    let calls = |span: Span| counts.calls[span as usize] as f64;
    let self_s: Vec<f64> = snapshots
        .iter()
        .zip(&traced_walls)
        .map(|(s, wall)| {
            let children: f64 = Span::IN_PASS.iter().map(|&span| s.seconds(span)).sum();
            wall - children
        })
        .collect();
    let new_calls = counts.calls[Span::New as usize];
    let allocate_calls = counts.calls[Span::Allocate as usize];

    report.metric("workload.generate_s", span_s(Span::Generate), "s");
    report.metric("workload.generate_calls", calls(Span::Generate), "count");
    report.metric("workload.expected_work_s", setup_s(Span::ExpectedWork), "s");
    report.metric("workload.parse_dag_s", setup_s(Span::ParseDag), "s");
    report.metric("sched.run_quantum_s", span_s(Span::RunQuantum), "s");
    report.metric("sched.run_quantum_calls", calls(Span::RunQuantum), "count");
    report.metric("sched.bulk_quanta", counts.bulk_quanta as f64, "count");
    report.metric("sched.new_s", span_s(Span::New), "s");
    report.metric("sched.new_calls", new_calls as f64, "count");
    report.metric(
        "sched.recycle_ratio",
        ratio(counts.resets, new_calls),
        "ratio",
    );
    report.metric("control.observe_s", span_s(Span::Observe), "s");
    report.metric("control.observe_calls", calls(Span::Observe), "count");
    report.metric("control.group_allocate_s", span_s(Span::GroupAllocate), "s");
    report.metric(
        "control.group_allocate_calls",
        calls(Span::GroupAllocate),
        "count",
    );
    report.metric("alloc.allocate_s", span_s(Span::Allocate), "s");
    report.metric("alloc.allocate_calls", allocate_calls as f64, "count");
    report.metric(
        "alloc.requests_per_call",
        ratio(counts.requests, allocate_calls),
        "count",
    );
    report.metric("queue.self_s", median(&self_s), "s");
    report.metric("sim.quanta", counts.sim_quanta as f64, "count");
    report.metric(
        "sim.frozen_share",
        ratio(counts.bulk_quanta, counts.job_quanta),
        "ratio",
    );
    report.metric("sim.peak_jobs_in_system", counts.peak_jobs as f64, "count");
    report.metric("experiments.fig5_s", span_s(Span::Fig5), "s");
    report.metric("experiments.fig6_s", span_s(Span::Fig6), "s");
    report.metric(
        "trace.overhead_frac",
        median(&traced_walls) / median(&plain_walls) - 1.0,
        "ratio",
    );
    report
}
