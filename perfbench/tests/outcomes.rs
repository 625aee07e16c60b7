//! The benchmark measures the program it claims to measure: traced and
//! untraced passes give the same outcomes bit for bit, the layer counts
//! repeat exactly, and the open workloads are the library's own sweep.

use abg::experiments::open_system_sweep;
use abg::queue::OpenOutcome;
use abg_perfbench::check::{pinned, run_hashes, DEFAULT_SEED};
use abg_perfbench::layers::{Plain, Traced};
use abg_perfbench::measure::{layer_counts, traced, untraced, LayerCounts};
use abg_perfbench::workloads::{run_pass, set_up, Inputs, Outcome, Workload};
use std::time::Duration;

fn hashes(workload: Workload, traced: bool) -> Vec<u64> {
    let inputs = Inputs::new(workload, DEFAULT_SEED);
    let prepared = set_up(&inputs, &Plain);
    let pass = if traced {
        run_pass(&prepared, &Traced::default())
    } else {
        run_pass(&prepared, &Plain)
    };
    run_hashes(&prepared, &pass)
}

fn traced_counts(workload: Workload) -> LayerCounts {
    let inputs = Inputs::new(workload, DEFAULT_SEED);
    let traced = Traced::default();
    let prepared = set_up(&inputs, &Plain);
    let pass = run_pass(&prepared, &traced);
    layer_counts(&traced.take(), &pass)
}

fn traced_matches_untraced(workload: Workload) {
    let plain = hashes(workload, false);
    assert_eq!(plain, pinned(workload), "untraced outcome moved");
    assert_eq!(hashes(workload, true), plain, "tracing changed the outcome");
}

#[test]
fn open_mixed_traced_outcome_is_the_untraced_one() {
    traced_matches_untraced(Workload::OpenMixed);
}

#[test]
fn open_montage_traced_outcome_is_the_untraced_one() {
    traced_matches_untraced(Workload::OpenMontage);
}

#[test]
fn hier_replay_traced_outcome_is_the_untraced_one() {
    traced_matches_untraced(Workload::HierReplay);
}

#[test]
fn closed_figs_traced_outcome_is_the_untraced_one() {
    traced_matches_untraced(Workload::ClosedFigs);
}

#[test]
fn layer_counts_repeat_exactly() {
    for workload in [
        Workload::OpenMixed,
        Workload::OpenMontage,
        Workload::HierReplay,
    ] {
        let first = traced_counts(workload);
        assert_eq!(traced_counts(workload), first, "{}", workload.name());
        assert!(
            first.calls.iter().any(|&c| c > 0),
            "{} traced nothing",
            workload.name()
        );
    }
}

#[test]
fn recycling_and_frozen_stepping_survive_the_wrappers() {
    // A wrapper that dropped `try_reset` would leave the replay with no
    // recycled admissions; one that dropped `steady_quanta` or the
    // controller's frozen-stepping hooks would leave no bulk quanta.
    let replay = traced_counts(Workload::HierReplay);
    assert!(replay.resets > 0);
    let mixed = traced_counts(Workload::OpenMixed);
    assert!(mixed.bulk_quanta > 0);
}

#[test]
fn open_workloads_are_the_library_sweep() {
    for workload in [Workload::OpenMixed, Workload::OpenMontage] {
        let inputs = Inputs::new(workload, DEFAULT_SEED);
        let prepared = set_up(&inputs, &Plain);
        let config = prepared.sweep_config().expect("open workload");
        let rows = open_system_sweep(config);
        let pass = run_pass(&prepared, &Plain);
        let points = rows.iter().flat_map(|r| [(r, &r.abg), (r, &r.agreedy)]);
        for ((row, point), (run, result)) in
            points.zip(prepared.open_runs().into_iter().zip(&pass.runs))
        {
            let Outcome::Open(OpenOutcome::Steady(s)) = &result.outcome else {
                panic!("{} not steady", result.label);
            };
            assert_eq!(row.rho.to_bits(), run.rho.to_bits());
            assert_eq!(row.mean_gap.to_bits(), run.mean_gap.to_bits());
            assert_eq!(row.expected_work.to_bits(), run.expected_work.to_bits());
            assert_eq!(point.arrivals, s.arrivals, "{}", result.label);
            assert_eq!(point.quanta, s.quanta, "{}", result.label);
            assert_eq!(point.mean_response.to_bits(), s.response.mean.to_bits());
            assert_eq!(point.slowdown_p99.to_bits(), s.slowdown.p99.to_bits());
            assert_eq!(
                point.measured_utilization.to_bits(),
                s.measured_utilization.to_bits()
            );
        }
    }
}

/// `(name, unit)` of every metric listed under `section` in the
/// repository's `BENCHMARK.json`, in file order.
fn listed_metrics(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let rest =
            &entry[entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5..];
        rest[..rest.find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn reports_every_listed_metric_and_no_other() {
    let inputs = Inputs::new(Workload::OpenMontage, DEFAULT_SEED);
    for (section, report) in [
        ("end_to_end", untraced(&inputs, Duration::ZERO)),
        ("per_layer", traced(&inputs, Duration::ZERO)),
    ] {
        assert!(report.correct(), "{:?}", report.failures);
        let printed: Vec<(String, String)> = report
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(printed, listed_metrics(section), "{section}");
        assert!(report.metrics.iter().all(|m| m.value.is_finite()));
    }
}
