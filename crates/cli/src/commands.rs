//! Subcommand implementations: each regenerates one figure or analysis
//! and prints it through [`abg::report::Table`].

use crate::options::Options;
use abg::experiments::{
    self, AblationConfig, AdaptiveQuantumConfig, AllocatorPolicyConfig, MultiprogrammedConfig,
    OpenSystemConfig, OpenSystemRow, OpenWorkload, OverheadConfig, RobustnessConfig,
    SchedulerOpenPoint, SingleJobSweepConfig, StealingConfig, TransientConfig,
};
use abg::report::{f3, mark, Chart, Table};
use abg_control::GroupPolicy;
use abg_sched::JobExecutor as _;

/// Dispatches a subcommand.
pub fn run(command: &str, opts: &Options) -> Result<(), String> {
    match command {
        "fig1" => fig1(opts),
        "fig2" => fig2(opts),
        "fig4" => fig4(opts),
        "fig5" => fig5(opts),
        "fig6" => fig6(opts),
        "thm1" => thm1(opts),
        "lemma2" => lemma2(opts),
        "thm3" => thm3(opts),
        "thm4" => thm4(opts),
        "thm5" => thm5(opts),
        "ablate" => ablate(opts)?,
        "steal" => steal(opts),
        "adaptive" => adaptive(opts),
        "robustness" => robustness(opts),
        "allocators" => allocators(opts),
        "overhead" => overhead(opts),
        "bench" => bench(opts)?,
        "open" => open(opts)?,
        "all" => all(opts),
        other => return Err(format!("unknown command '{other}' (try --help)")),
    }
    Ok(())
}

fn emit(title: &str, table: &Table, opts: &Options) {
    if opts.csv {
        print!("{}", table.render_csv());
    } else {
        println!("== {title} ==");
        print!("{}", table.render());
        println!();
    }
}

fn fig1(opts: &Options) {
    let mut cfg = TransientConfig::paper();
    cfg.quanta = 16; // the figure shows the sustained oscillation
    let res = experiments::transient_comparison(&cfg);
    let mut t = Table::new(&["quantum", "agreedy_request", "parallelism"]);
    for p in &res.agreedy {
        t.row_owned(vec![
            p.quantum.to_string(),
            f3(p.request),
            res.parallelism.to_string(),
        ]);
    }
    emit(
        "Figure 1: request instability of A-Greedy (constant parallelism)",
        &t,
        opts,
    );
}

fn fig2(_opts: &Options) {
    // The worked example of Section 2: exact numbers, not a sweep.
    let dag = abg_dag::generate::figure2_job();
    let mut ex = abg_sched::BGreedyExecutor::new(&dag);
    let warmup = ex.run_quantum(1, 2);
    let q = ex.run_quantum(4, 3);
    println!("== Figure 2: B-Greedy fractional quantum statistics ==");
    println!("job: 1 source forking into 5 chains of 3 tasks (levels [1, 5, 5, 5])");
    println!(
        "warm-up quantum (a=1, 2 steps): T1 = {}, T∞ = {:.1}",
        warmup.work, warmup.span
    );
    println!(
        "measured quantum (a=4, 3 steps): T1(q) = {}, T∞(q) = {:.1}, A(q) = {:.0}",
        q.work,
        q.span,
        q.average_parallelism().expect("work was done")
    );
    println!("paper's Figure 2 values:         T1(q) = 12, T∞(q) = 2.4, A(q) = 5");
    println!();
}

fn fig4(opts: &Options) {
    let cfg = TransientConfig::paper();
    let res = experiments::transient_comparison(&cfg);
    let mut t = Table::new(&["quantum", "abg_request", "agreedy_request", "parallelism"]);
    for (a, g) in res.abg.iter().zip(&res.agreedy) {
        t.row_owned(vec![
            a.quantum.to_string(),
            f3(a.request),
            f3(g.request),
            res.parallelism.to_string(),
        ]);
    }
    emit(
        "Figure 4: transient and steady-state behaviour (r = 0.2, ρ = 2)",
        &t,
        opts,
    );
    if opts.plot && !opts.csv {
        let abg: Vec<f64> = res.abg.iter().map(|p| p.request).collect();
        let agreedy: Vec<f64> = res.agreedy.iter().map(|p| p.request).collect();
        let target = vec![res.parallelism as f64; abg.len()];
        let mut c = Chart::new(10);
        c.series("parallelism A", '-', &target)
            .series("A-Greedy d(q)", '*', &agreedy)
            .series("ABG d(q)", '#', &abg);
        print!("{}", c.render());
        println!();
    }
}

fn fig5(opts: &Options) {
    let mut cfg = if opts.full {
        SingleJobSweepConfig::paper()
    } else {
        let mut c = SingleJobSweepConfig::scaled();
        c.factors = vec![2, 5, 10, 20, 30, 40, 60, 80, 100];
        c.jobs_per_factor = 16;
        c.quantum_len = 200;
        c
    };
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    let points = experiments::single_job_sweep(&cfg);
    let mut t = Table::new(&[
        "factor",
        "measured_cl",
        "abg_t/tinf",
        "agreedy_t/tinf",
        "abg_w/t1",
        "agreedy_w/t1",
        "time_ratio",
        "waste_ratio",
    ]);
    for p in &points {
        t.row_owned(vec![
            p.factor.to_string(),
            f3(p.measured_factor),
            f3(p.abg_time_norm),
            f3(p.agreedy_time_norm),
            f3(p.abg_waste_norm),
            f3(p.agreedy_waste_norm),
            f3(p.time_ratio),
            f3(p.waste_ratio),
        ]);
    }
    emit(
        "Figure 5: single-job running time and waste vs transition factor",
        &t,
        opts,
    );
    let n = points.len() as f64;
    let tr: f64 = points.iter().map(|p| p.time_ratio).sum::<f64>() / n;
    let wr: f64 = points.iter().map(|p| p.waste_ratio).sum::<f64>() / n;
    if !opts.csv {
        println!(
            "mean A-Greedy/ABG ratios: time {:.3} (paper ≈ 1.2), waste {:.3} (paper ≈ 2)",
            tr, wr
        );
        println!();
    }
    if opts.plot && !opts.csv {
        let abg: Vec<f64> = points.iter().map(|p| p.abg_time_norm).collect();
        let agreedy: Vec<f64> = points.iter().map(|p| p.agreedy_time_norm).collect();
        let mut c = Chart::new(8);
        c.series("A-Greedy T/T∞ per factor", '*', &agreedy).series(
            "ABG T/T∞ per factor",
            '#',
            &abg,
        );
        print!("{}", c.render());
        println!();
    }
}

fn fig6(opts: &Options) {
    let mut cfg = if opts.full {
        MultiprogrammedConfig::paper()
    } else {
        let mut c = MultiprogrammedConfig::scaled();
        c.loads = vec![0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0];
        c.sets_per_load = 12;
        c.processors = 128;
        c.quantum_len = 200;
        c.max_factor = 100;
        c.pairs = 3;
        c
    };
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    let points = experiments::multiprogrammed_sweep(&cfg);
    let mut t = Table::new(&[
        "load",
        "jobs",
        "abg_m/m*",
        "agreedy_m/m*",
        "abg_r/r*",
        "agreedy_r/r*",
        "makespan_ratio",
        "response_ratio",
    ]);
    for p in &points {
        t.row_owned(vec![
            f3(p.measured_load),
            f3(p.mean_jobs),
            f3(p.abg_makespan_norm),
            f3(p.agreedy_makespan_norm),
            f3(p.abg_response_norm),
            f3(p.agreedy_response_norm),
            f3(p.makespan_ratio),
            f3(p.response_ratio),
        ]);
    }
    emit(
        "Figure 6: multiprogrammed makespan and mean response time vs load",
        &t,
        opts,
    );
}

fn thm1(opts: &Options) {
    let rows =
        experiments::theorem1_grid(&[2.0, 10.0, 32.0, 128.0], &[0.0, 0.2, 0.4, 0.6, 0.8], 64);
    let mut t = Table::new(&[
        "parallelism",
        "rate",
        "pole",
        "bibo",
        "sse",
        "overshoot",
        "measured_rate",
    ]);
    for r in &rows {
        t.row_owned(vec![
            f3(r.parallelism),
            f3(r.rate),
            f3(r.pole),
            mark(r.bibo_stable).to_string(),
            format!("{:.2e}", r.steady_state_error),
            format!("{:.2e}", r.max_overshoot),
            f3(r.measured_rate),
        ]);
    }
    emit(
        "Theorem 1: BIBO stability, zero SSE, zero overshoot, convergence rate r",
        &t,
        opts,
    );
}

fn seed_of(opts: &Options) -> u64 {
    opts.seed.unwrap_or(2008)
}

fn lemma2(opts: &Options) {
    let mut t = Table::new(&["factor", "rate", "check", "measured", "bound", "holds"]);
    for &factor in &[2u64, 4, 8, 16] {
        for &rate in &[0.05, 0.2] {
            for c in experiments::lemma2_check(factor, rate, 200, 3, 128, seed_of(opts)) {
                t.row_owned(vec![
                    factor.to_string(),
                    f3(rate),
                    c.quantity.to_string(),
                    f3(c.measured),
                    f3(c.bound),
                    mark(c.holds).to_string(),
                ]);
            }
        }
    }
    emit("Lemma 2: request / parallelism envelope", &t, opts);
}

fn thm3(opts: &Options) {
    let mut t = Table::new(&["factor", "rate", "measured_T", "bound", "holds"]);
    for &factor in &[2u64, 5, 10, 20, 50] {
        for &rate in &[0.0, 0.2, 0.5] {
            let c = experiments::theorem3_check(factor, rate, 200, 3, 64, seed_of(opts));
            t.row_owned(vec![
                factor.to_string(),
                f3(rate),
                f3(c.measured),
                f3(c.bound),
                mark(c.holds).to_string(),
            ]);
        }
    }
    emit(
        "Theorem 3: running time under adversarial availability (trim analysis)",
        &t,
        opts,
    );
}

fn thm4(opts: &Options) {
    let mut t = Table::new(&["factor", "rate", "measured_W", "bound", "holds"]);
    for &factor in &[2u64, 3, 4, 8, 16] {
        for &rate in &[0.05, 0.2] {
            match experiments::theorem4_check(factor, rate, 200, 3, 128, seed_of(opts)) {
                Some(c) => {
                    t.row_owned(vec![
                        factor.to_string(),
                        f3(rate),
                        f3(c.measured),
                        f3(c.bound),
                        mark(c.holds).to_string(),
                    ]);
                }
                None => {
                    t.row_owned(vec![
                        factor.to_string(),
                        f3(rate),
                        "-".into(),
                        "-".into(),
                        "n/a (r ≥ 1/C_L)".into(),
                    ]);
                }
            }
        }
    }
    emit("Theorem 4: processor waste bound", &t, opts);
}

fn thm5(opts: &Options) {
    let mut t = Table::new(&["load", "check", "measured", "bound", "holds"]);
    for &load in &[0.5, 1.0, 2.0] {
        match experiments::theorem5_check(load, 4, 0.2, 100, 2, 64, seed_of(opts)) {
            Some(checks) => {
                for c in checks {
                    t.row_owned(vec![
                        f3(load),
                        c.quantity.to_string(),
                        f3(c.measured),
                        f3(c.bound),
                        mark(c.holds).to_string(),
                    ]);
                }
            }
            None => {
                t.row_owned(vec![
                    f3(load),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "n/a".into(),
                ]);
            }
        }
    }
    emit(
        "Theorem 5: makespan and mean response time bounds (ABG + DEQ)",
        &t,
        opts,
    );
}

fn ablate(opts: &Options) -> Result<(), String> {
    let which = opts.positional.first().map(String::as_str).unwrap_or("all");
    let mut cfg = AblationConfig::default_probe();
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    let run_rate = |opts: &Options| {
        let rows = experiments::rate_ablation(&cfg, &[0.0, 0.2, 0.4, 0.6, 0.8]);
        let mut t = Table::new(&["rate", "time/tinf", "waste/t1"]);
        for r in &rows {
            t.row_owned(vec![
                f3(r.rate),
                f3(r.quality.time_norm),
                f3(r.quality.waste_norm),
            ]);
        }
        let governed = experiments::governed_rate_quality(&cfg, 0.2);
        t.row_owned(vec![
            "governed (r ≤ 0.9/Ĉ_L)".into(),
            f3(governed.time_norm),
            f3(governed.waste_norm),
        ]);
        emit("Ablation: ABG convergence rate r", &t, opts);
    };
    let run_quantum = |opts: &Options| {
        let rows = experiments::quantum_ablation(&cfg, &[50, 100, 200, 400, 800]);
        let mut t = Table::new(&["L", "abg_t", "abg_w", "agreedy_t", "agreedy_w"]);
        for r in &rows {
            t.row_owned(vec![
                r.quantum_len.to_string(),
                f3(r.abg.time_norm),
                f3(r.abg.waste_norm),
                f3(r.agreedy.time_norm),
                f3(r.agreedy.waste_norm),
            ]);
        }
        emit("Ablation: quantum length L", &t, opts);
    };
    let run_agreedy = |opts: &Options| {
        let rows = experiments::agreedy_ablation(&cfg, &[1.5, 2.0, 4.0], &[0.5, 0.8, 0.95]);
        let mut t = Table::new(&["rho", "delta", "time/tinf", "waste/t1"]);
        for r in &rows {
            t.row_owned(vec![
                f3(r.responsiveness),
                f3(r.utilization),
                f3(r.quality.time_norm),
                f3(r.quality.waste_norm),
            ]);
        }
        emit("Ablation: A-Greedy ρ × δ", &t, opts);
    };
    let run_scheduler = |opts: &Options| {
        let rows = experiments::scheduler_ablation(&cfg);
        let mut t = Table::new(&["scheduler", "time/tinf", "waste/t1"]);
        for r in &rows {
            t.row_owned(vec![
                r.scheduler.clone(),
                f3(r.quality.time_norm),
                f3(r.quality.waste_norm),
            ]);
        }
        emit("Ablation: task-scheduler priority rule", &t, opts);
    };
    let run_semantics = |opts: &Options| {
        let rows = experiments::semantics_ablation(&cfg);
        let mut t = Table::new(&["model", "scheduler", "time/tinf", "waste/t1"]);
        for r in &rows {
            t.row_owned(vec![
                r.model.clone(),
                r.scheduler.clone(),
                f3(r.quality.time_norm),
                f3(r.quality.waste_norm),
            ]);
        }
        emit("Ablation: pipelined vs barrier phase semantics", &t, opts);
    };
    match which {
        "rate" => run_rate(opts),
        "quantum" => run_quantum(opts),
        "agreedy" => run_agreedy(opts),
        "scheduler" => run_scheduler(opts),
        "semantics" => run_semantics(opts),
        "all" => {
            run_rate(opts);
            run_quantum(opts);
            run_agreedy(opts);
            run_scheduler(opts);
            run_semantics(opts);
        }
        other => {
            return Err(format!(
                "unknown ablation '{other}' (rate|quantum|agreedy|scheduler|semantics|all)"
            ));
        }
    }
    Ok(())
}

fn steal(opts: &Options) {
    let mut cfg = StealingConfig::default_probe();
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    let rows = experiments::stealing_comparison(&cfg);
    let mut t = Table::new(&["scheduler", "time/tinf", "waste/t1"]);
    for r in &rows {
        t.row_owned(vec![r.scheduler.clone(), f3(r.time_norm), f3(r.waste_norm)]);
    }
    emit(
        "Work stealing: ABG vs A-Steal vs ABP vs A-Control-over-stealing",
        &t,
        opts,
    );
}

fn adaptive(opts: &Options) {
    let mut cfg = AdaptiveQuantumConfig::default_probe();
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    let rows = experiments::adaptive_quantum_comparison(&cfg);
    let mut t = Table::new(&["policy", "time/tinf", "waste/t1", "quanta", "reallocations"]);
    for r in &rows {
        t.row_owned(vec![
            r.policy.clone(),
            f3(r.time_norm),
            f3(r.waste_norm),
            f3(r.mean_quanta),
            f3(r.mean_reallocations),
        ]);
    }
    emit("Future work: adaptive quantum length under ABG", &t, opts);
}

fn robustness(opts: &Options) {
    let mut cfg = RobustnessConfig::default_probe();
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    let rows = experiments::robustness_comparison(&cfg);
    let mut t = Table::new(&[
        "profile",
        "c_l",
        "cv",
        "changes/klvl",
        "abg_t",
        "agreedy_t",
        "abg_w",
        "agreedy_w",
    ]);
    for r in &rows {
        t.row_owned(vec![
            r.class.clone(),
            f3(r.transition_factor),
            f3(r.coefficient_of_variation),
            f3(r.changes_per_kilolevel),
            f3(r.abg_time_norm),
            f3(r.agreedy_time_norm),
            f3(r.abg_waste_norm),
            f3(r.agreedy_waste_norm),
        ]);
    }
    emit(
        "Robustness: irregular parallelism profiles and alternative job characteristics",
        &t,
        opts,
    );
}

fn allocators(opts: &Options) {
    let mut cfg = AllocatorPolicyConfig::default_probe();
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    let rows = experiments::allocator_policy_comparison(&cfg);
    let mut t = Table::new(&["policy", "load", "m/m*", "r/r*", "waste/work"]);
    for r in &rows {
        t.row_owned(vec![
            r.policy.clone(),
            f3(r.load),
            f3(r.makespan_norm),
            f3(r.response_norm),
            f3(r.waste_norm),
        ]);
    }
    emit(
        "OS allocator policies: DEQ vs round-robin vs proportional (ABG jobs)",
        &t,
        opts,
    );
}

fn overhead(opts: &Options) {
    let mut cfg = OverheadConfig::default_probe();
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    let rows = experiments::overhead_sweep(&cfg);
    let mut t = Table::new(&[
        "overhead/L",
        "abg_t",
        "agreedy_t",
        "abg_w",
        "agreedy_w",
        "abg_reallocs",
        "agreedy_reallocs",
    ]);
    for r in &rows {
        t.row_owned(vec![
            f3(r.overhead_fraction),
            f3(r.abg_time_norm),
            f3(r.agreedy_time_norm),
            f3(r.abg_waste_norm),
            f3(r.agreedy_waste_norm),
            f3(r.abg_reallocations),
            f3(r.agreedy_reallocations),
        ]);
    }
    emit(
        "Reallocation overhead: pricing request instability",
        &t,
        opts,
    );
}

/// Renders the kernel suite as a JSON document (hand-rolled: the
/// workspace deliberately has no JSON dependency).
fn bench_json(
    mode: &str,
    cfg: &abg::experiments::KernelBenchConfig,
    results: &[abg::experiments::KernelResult],
    speedup: Option<f64>,
) -> String {
    let num = |x: f64| {
        if x.is_finite() {
            format!("{x:.3}")
        } else {
            "null".to_string()
        }
    };
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"abg-bench-kernels/v2\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    s.push_str(&format!("  \"min_wall_ms\": {},\n", cfg.min_wall_ms));
    s.push_str("  \"kernels\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"iters\": {}, \"ops\": {}, \"steps\": {}, \
             \"wall_ms\": {}, \"ops_per_sec\": {}, \"steps_per_sec\": {}, \
             \"peak_jobs_in_system\": {}, \"bytes_per_live_job\": {}}}{}\n",
            r.kernel,
            r.iters,
            r.ops,
            r.steps,
            num(r.wall_ms),
            num(r.ops_per_sec),
            num(r.steps_per_sec),
            r.peak_jobs_in_system,
            r.bytes_per_live_job,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"derived\": {\"chain_macro_over_reference_steps_per_sec\": ");
    match speedup {
        Some(x) => s.push_str(&num(x)),
        None => s.push_str("null"),
    }
    s.push_str("}\n}\n");
    s
}

/// Extracts the named kernel's `steps_per_sec` from a baseline JSON
/// document produced by [`bench_json`] (hand-rolled scan; the workspace
/// deliberately has no JSON dependency).
fn baseline_steps_per_sec(json: &str, kernel: &str) -> Option<f64> {
    let marker = format!("\"kernel\": \"{kernel}\"");
    let rest = &json[json.find(&marker)?..];
    let row = &rest[..rest.find('}')?];
    let key = "\"steps_per_sec\": ";
    let val = &row[row.find(key)? + key.len()..];
    // Tolerate trailing fields after the value (v2 rows carry the
    // memory-scale figures behind it) as well as end-of-row.
    val.split(',').next()?.trim().parse().ok()
}

/// Kernels the `--check` regression gate covers: the hot-loop kernels
/// whose throughput exercises each simulation regime — the serial
/// macro-stepping chain, the wide-frontier bulk paths (tree and
/// bundle), the event-driven open-system driver at moderate load
/// (`open_system`) and in its high-load macro-stepping regime
/// (`open_event`), the fixed partition whose aggregate committed
/// quanta price the per-group population win
/// (`open_sharded`), the hierarchical two-level driver whose epoch
/// barriers and desire feedback ride on the same decomposition
/// (`open_hier`), the completion-heavy churn kernel that prices the
/// slab live-set storage (`open_churn`), the monomorphized unified
/// quantum core in mixed closed+open use, the weighted-residual frontier
/// path (`weighted_frontier`), and the open system fed by generated
/// weighted workflows (`workflow_open`). All are stable well within
/// the 30% band on an otherwise idle machine, so a trip means a real
/// regression, not noise.
const GATED_KERNELS: [&str; 11] = [
    "chain_macro",
    "forkjoin_tree",
    "forkjoin_bundle",
    "weighted_frontier",
    "open_system",
    "open_event",
    "open_sharded",
    "open_hier",
    "open_churn",
    "workflow_open",
    "unified_engine",
];

/// The `--check` regression gate: every gated kernel's fresh throughput
/// must stay above 70% of the committed baseline.
fn bench_check(path: &str, results: &[abg::experiments::KernelResult]) -> Result<(), String> {
    let baseline =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    for kernel in GATED_KERNELS {
        let base = baseline_steps_per_sec(&baseline, kernel)
            .ok_or_else(|| format!("no {kernel} steps_per_sec in {path}"))?;
        let cur = results
            .iter()
            .find(|r| r.kernel == kernel)
            .map(|r| r.steps_per_sec)
            .ok_or_else(|| format!("suite did not run {kernel}"))?;
        let floor = base * 0.7;
        if cur < floor {
            return Err(format!(
                "{kernel} regression: {cur:.0} steps/s is below 70% of baseline {base:.0} \
                 (floor {floor:.0}, from {path})"
            ));
        }
        println!(
            "bench check ok: {kernel} {cur:.0} steps/s vs baseline {base:.0} (floor {floor:.0})"
        );
    }
    Ok(())
}

fn bench(opts: &Options) -> Result<(), String> {
    let mode = match opts.positional.first().map(String::as_str) {
        None => "full",
        Some("smoke") => "smoke",
        Some(other) => return Err(format!("unknown bench size '{other}' (expected 'smoke')")),
    };
    let mut cfg = if mode == "smoke" {
        experiments::KernelBenchConfig::smoke()
    } else {
        experiments::KernelBenchConfig::full()
    };
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    if opts.check.is_some() {
        // The smoke suite's few-ms windows are fine for "does every
        // kernel run" but far too jittery to gate on: back-to-back
        // 2 ms chain_macro samples vary by 4× on a shared machine.
        // Gated runs measure long enough to amortize scheduler noise.
        cfg.min_wall_ms = cfg.min_wall_ms.max(100);
    }
    let results = experiments::run_kernel_suite(&cfg);
    let speedup = experiments::kernel_speedup(&results, "chain_macro", "chain_reference");
    let mut t = Table::new(&[
        "kernel",
        "iters",
        "ops",
        "steps",
        "wall_ms",
        "ops/s",
        "steps/s",
        "peak_jobs",
        "B/job",
    ]);
    for r in &results {
        let dash_zero = |v: u64| {
            if v == 0 {
                "-".to_string()
            } else {
                v.to_string()
            }
        };
        t.row_owned(vec![
            r.kernel.clone(),
            r.iters.to_string(),
            r.ops.to_string(),
            r.steps.to_string(),
            format!("{:.2}", r.wall_ms),
            format!("{:.0}", r.ops_per_sec),
            format!("{:.0}", r.steps_per_sec),
            dash_zero(r.peak_jobs_in_system),
            dash_zero(r.bytes_per_live_job),
        ]);
    }
    emit(
        "Kernel benchmark suite (wall-clock; machine-dependent)",
        &t,
        opts,
    );
    if !opts.csv {
        match speedup {
            Some(s) => println!(
                "macro-stepping kernel vs clone-and-rescan reference on the serial chain: {s:.2}x steps/s"
            ),
            None => println!("chain speedup unavailable (reference kernel did no steps)"),
        }
        println!();
    }
    if opts.json {
        let path = "BENCH_kernels.json";
        std::fs::write(path, bench_json(mode, &cfg, &results, speedup))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = &opts.check {
        bench_check(path, &results)?;
    }
    Ok(())
}

/// Renders one scheduler's fields of an open-system row for the table:
/// statistics when stable, a dash otherwise.
fn open_cells(p: &SchedulerOpenPoint) -> Vec<String> {
    if p.stable {
        vec![
            format!("{:.1}±{:.1}", p.mean_response, p.response_half_width),
            f3(p.slowdown_p50),
            f3(p.slowdown_p95),
            f3(p.slowdown_p99),
        ]
    } else {
        vec!["unstable".into(), "-".into(), "-".into(), "-".into()]
    }
}

/// Renders the open-system sweep as a JSON document (hand-rolled: the
/// workspace deliberately has no JSON dependency). `NaN` statistics of
/// unstable points become `null`.
fn open_json(mode: &str, cfg: &OpenSystemConfig, rows: &[OpenSystemRow]) -> String {
    let num = |x: f64| {
        if x.is_finite() {
            format!("{x:.6}")
        } else {
            "null".to_string()
        }
    };
    let point = |p: &SchedulerOpenPoint| {
        format!(
            "{{\"stable\": {}, \"mean_response\": {}, \"response_half_width\": {}, \
             \"slowdown_p50\": {}, \"slowdown_p95\": {}, \"slowdown_p99\": {}, \
             \"mean_jobs_in_system\": {}, \"measured_utilization\": {}, \
             \"quanta\": {}, \"arrivals\": {}}}",
            p.stable,
            num(p.mean_response),
            num(p.response_half_width),
            num(p.slowdown_p50),
            num(p.slowdown_p95),
            num(p.slowdown_p99),
            num(p.mean_jobs_in_system),
            num(p.measured_utilization),
            p.quanta,
            p.arrivals,
        )
    };
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"abg-open-system/v2\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    s.push_str(&format!(
        "  \"processors\": {}, \"quantum_len\": {},\n",
        cfg.processors, cfg.quantum_len
    ));
    s.push_str(&format!(
        "  \"groups\": {}, \"group_alloc\": \"{}\", \"realloc_epoch\": {},\n",
        cfg.groups,
        cfg.group_alloc.name(),
        cfg.realloc_epoch
    ));
    s.push_str(&format!(
        "  \"fingerprint\": \"{:#018x}\",\n",
        experiments::open_fingerprint(rows)
    ));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"rho\": {}, \"mean_gap\": {}, \"expected_work\": {}, \"abg\": {}, \
             \"agreedy\": {}}}{}\n",
            num(r.rho),
            num(r.mean_gap),
            num(r.expected_work),
            point(&r.abg),
            point(&r.agreedy),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn open(opts: &Options) -> Result<(), String> {
    let mut cfg = if opts.smoke {
        OpenSystemConfig::smoke()
    } else {
        OpenSystemConfig::paper()
    };
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    if let Some(rho) = opts.rho {
        cfg.rhos = vec![rho];
    }
    if let Some(groups) = opts.groups {
        cfg.groups = groups;
    }
    if let Some(name) = &opts.group_alloc {
        cfg.group_alloc = name.parse()?;
    }
    if let Some(epoch) = opts.realloc_epoch {
        cfg.realloc_epoch = epoch;
    }
    if opts.workflow.is_some() && opts.dag_file.is_some() {
        return Err("--workflow and --dag-file are mutually exclusive".into());
    }
    if let Some(name) = &opts.workflow {
        let kind: abg_workload::WorkflowKind = name.parse()?;
        // Smoke keeps arrivals small enough for the CI step; the full
        // sweep uses a wider stage fan-out.
        let scale = if opts.smoke { 8 } else { 16 };
        cfg.workload = OpenWorkload::Workflow { kind, scale };
    }
    if let Some(path) = &opts.dag_file {
        let dag = abg_workload::load_dag(path).map_err(|e| e.to_string())?;
        cfg.workload = OpenWorkload::Trace(std::sync::Arc::new(dag));
    }
    // Reject an inconsistent measurement setup with a message instead
    // of letting the sweep panic mid-run.
    cfg.validate()
        .map_err(|e| format!("invalid open-system configuration: {e}"))?;
    let rows = experiments::open_system_sweep(&cfg);
    if opts.json {
        print!(
            "{}",
            open_json(if opts.smoke { "smoke" } else { "paper" }, &cfg, &rows)
        );
        return Ok(());
    }
    let mut t = Table::new(&[
        "rho",
        "abg_mrt",
        "abg_sd50",
        "abg_sd95",
        "abg_sd99",
        "agreedy_mrt",
        "ag_sd50",
        "ag_sd95",
        "ag_sd99",
    ]);
    for r in &rows {
        let mut cells = vec![f3(r.rho)];
        cells.extend(open_cells(&r.abg));
        cells.extend(open_cells(&r.agreedy));
        t.row_owned(cells);
    }
    emit(
        "Open system: steady-state response time and slowdown vs offered load (DEQ)",
        &t,
        opts,
    );
    if !opts.csv {
        let sharding = if cfg.groups == 1 {
            String::new()
        } else if cfg.group_alloc == GroupPolicy::Static {
            format!(" across {} groups (fixed partition)", cfg.groups)
        } else {
            format!(
                " across {} groups ({} reallocation every {} quanta)",
                cfg.groups,
                cfg.group_alloc.name(),
                cfg.realloc_epoch
            )
        };
        println!(
            "E[T1] = {:.1} steps/job on P = {}{sharding}; unstable points tripped saturation \
             detection",
            rows.first().map(|r| r.expected_work).unwrap_or(f64::NAN),
            cfg.processors,
        );
        println!();
    }
    Ok(())
}

fn all(opts: &Options) {
    fig1(opts);
    fig2(opts);
    fig4(opts);
    fig5(opts);
    fig6(opts);
    thm1(opts);
    lemma2(opts);
    thm3(opts);
    thm4(opts);
    thm5(opts);
    let _ = ablate(opts);
    steal(opts);
    adaptive(opts);
    robustness(opts);
    allocators(opts);
    overhead(opts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use abg::experiments::KernelResult;

    fn fake_result(kernel: &str, steps_per_sec: f64) -> KernelResult {
        KernelResult {
            kernel: kernel.to_string(),
            iters: 1,
            ops: 100,
            steps: 100,
            wall_ms: 1.0,
            ops_per_sec: steps_per_sec,
            steps_per_sec,
            peak_jobs_in_system: 42,
            bytes_per_live_job: 128,
        }
    }

    #[test]
    fn baseline_parser_round_trips_bench_json() {
        let cfg = abg::experiments::KernelBenchConfig::smoke();
        let results = vec![
            fake_result("chain_macro", 123456.789),
            fake_result("chain_reference", 500.0),
        ];
        let json = bench_json("smoke", &cfg, &results, Some(2.0));
        let got = baseline_steps_per_sec(&json, "chain_macro").unwrap();
        assert!((got - 123456.789).abs() < 1e-2);
        assert!(baseline_steps_per_sec(&json, "no_such_kernel").is_none());
    }

    /// A full result set for every gated kernel at the given fraction of
    /// a 1000 steps/s baseline, except `slow_kernel` (if any), which
    /// runs at `slow_frac`.
    fn gated_results(frac: f64, slow_kernel: Option<(&str, f64)>) -> Vec<KernelResult> {
        GATED_KERNELS
            .iter()
            .map(|&k| {
                let f = match slow_kernel {
                    Some((s, sf)) if s == k => sf,
                    _ => frac,
                };
                fake_result(k, 1000.0 * f)
            })
            .collect()
    }

    #[test]
    fn bench_check_trips_only_below_the_floor() {
        let cfg = abg::experiments::KernelBenchConfig::smoke();
        let baseline = gated_results(1.0, None);
        let dir = std::env::temp_dir().join("abg_bench_check_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        std::fs::write(&path, bench_json("smoke", &cfg, &baseline, None)).unwrap();
        let path = path.to_str().unwrap();

        // At 71% of baseline: passes. At 69%: trips.
        assert!(bench_check(path, &gated_results(0.71, None)).is_ok());
        let err = bench_check(path, &gated_results(0.69, None)).unwrap_err();
        assert!(err.contains("regression"), "{err}");
        // Every gated kernel trips the gate individually, even with the
        // others comfortably above the floor.
        for kernel in GATED_KERNELS {
            let err = bench_check(path, &gated_results(1.0, Some((kernel, 0.69)))).unwrap_err();
            assert!(
                err.contains(kernel) && err.contains("regression"),
                "{kernel}: {err}"
            );
        }
        // Missing baseline file or kernel is an error, not a silent pass.
        assert!(bench_check("/no/such/file.json", &baseline).is_err());
        assert!(bench_check(path, &[fake_result("other", 1.0)]).is_err());
        let mut missing = gated_results(1.0, None);
        missing.retain(|r| r.kernel != "open_system");
        let err = bench_check(path, &missing).unwrap_err();
        assert!(err.contains("did not run open_system"), "{err}");
    }

    /// `open` with impossible hierarchical knobs surfaces the typed
    /// [`abg_queue::ConfigError`] messages (and the policy-name parse
    /// error) before any simulation runs.
    #[test]
    fn open_rejects_bad_group_configs_with_the_typed_messages() {
        let base = Options {
            command: Some("open".into()),
            smoke: true,
            ..Options::default()
        };
        let err = open(&Options {
            groups: Some(0),
            ..base.clone()
        })
        .unwrap_err();
        assert_eq!(
            err,
            "invalid open-system configuration: need at least one processor group"
        );
        let err = open(&Options {
            groups: Some(4),
            realloc_epoch: Some(0),
            ..base.clone()
        })
        .unwrap_err();
        assert_eq!(
            err,
            "invalid open-system configuration: need a positive reallocation epoch"
        );
        // The smoke machine has 16 processors; 17 groups cannot all
        // hold the floor of one processor.
        let err = open(&Options {
            groups: Some(17),
            ..base.clone()
        })
        .unwrap_err();
        assert_eq!(
            err,
            "invalid open-system configuration: per-group floor must be between 1 and P/G \
             (1 with 16 processors over 17 groups)"
        );
        let err = open(&Options {
            groups: Some(4),
            group_alloc: Some("greedy".into()),
            ..base
        })
        .unwrap_err();
        assert_eq!(
            err,
            "unknown group allocator 'greedy' (expected static, desire or conservative)"
        );
    }

    /// The workload flags fail fast: conflicting flags, unknown family
    /// names and unreadable dag files all surface their typed messages
    /// before any simulation runs.
    #[test]
    fn open_rejects_bad_workload_flags_with_the_typed_messages() {
        let base = Options {
            command: Some("open".into()),
            smoke: true,
            ..Options::default()
        };
        let err = open(&Options {
            workflow: Some("mapreduce".into()),
            dag_file: Some("x.dag".into()),
            ..base.clone()
        })
        .unwrap_err();
        assert_eq!(err, "--workflow and --dag-file are mutually exclusive");
        let err = open(&Options {
            workflow: Some("cyclone".into()),
            ..base.clone()
        })
        .unwrap_err();
        assert_eq!(
            err,
            "unknown workflow 'cyclone' (expected one of: diamond, mapreduce, montage, \
             epigenomics)"
        );
        let err = open(&Options {
            dag_file: Some("/no/such/file.dag".into()),
            ..base
        })
        .unwrap_err();
        assert!(err.starts_with("dag file i/o error:"), "{err}");
    }
}
