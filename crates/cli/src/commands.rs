//! Subcommand implementations: each regenerates one figure or analysis
//! and prints it through [`abg::report::Table`].

use crate::options::Options;
use abg::experiments::{
    self, MultiprogrammedConfig, OpenSystemConfig, OpenSystemRow, OpenWorkload, SchedulerOpenPoint,
    SingleJobSweepConfig,
};
use abg::report::{f3, mark, Chart, Table};
use abg_control::GroupPolicy;
use abg_sched::JobExecutor as _;
use std::error::Error;
use std::io::{self, Write};

/// What a command returns: a message for the user, or the error of a
/// write to stdout (a closed pipe among them, which `main` ends
/// quietly).
pub type Outcome = Result<(), Box<dyn Error>>;

/// One command: its usage (the name, then the one optional positional
/// it takes, if any), its help text and its body.
type Command = (&'static str, &'static str, fn(&Options) -> Outcome);

/// The closed experiments, in the order `all` runs them.
#[rustfmt::skip]
const CLOSED: [Command; 16] = [
    ("fig1", "A-Greedy request instability (Figure 1)", fig1),
    ("fig2", "B-Greedy fractional quantum statistics (Figure 2)", fig2),
    ("fig4", "ABG vs A-Greedy transient trajectories (Figure 4)", fig4),
    ("fig5", "single-job sweep over transition factors (Figure 5)", fig5),
    ("fig6", "multiprogrammed load sweep (Figure 6)", fig6),
    ("thm1", "control-theoretic metrics grid (Theorem 1)", thm1),
    ("lemma2", "request/parallelism envelope check (Lemma 2)", lemma2),
    ("thm3", "time bound under adversarial availability (Theorem 3)", thm3),
    ("thm4", "waste bound check (Theorem 4)", thm4),
    ("thm5", "makespan / response-time bound check (Theorem 5)", thm5),
    ("ablate <which>", "rate | quantum | agreedy | scheduler | semantics | all", ablate),
    ("steal", "ABG vs A-Steal vs ABP (work-stealing substrate)", steal),
    ("adaptive", "adaptive quantum length (paper future work)", adaptive),
    ("robustness", "irregular parallelism profiles", robustness),
    ("allocators", "DEQ vs round-robin vs proportional share", allocators),
    ("overhead", "reallocation-overhead sensitivity sweep", overhead),
];

/// The commands `all` does not run.
#[rustfmt::skip]
const OTHERS: [Command; 3] = [
    ("bench [smoke]", "kernel benchmark suite (smoke = CI-sized run)", bench),
    ("open", "open-system rho sweep: steady-state response time\n\
              and slowdown under sustained Poisson arrivals", open),
    ("all", "every closed experiment, fig1 through overhead", all),
];

fn commands() -> impl Iterator<Item = &'static Command> {
    CLOSED.iter().chain(&OTHERS)
}

/// The text of `--help` and of usage errors: the command table, then
/// the flags.
pub fn usage() -> String {
    let mut s = String::from("usage: abg-cli <command> [args] [--csv] [--seed N]\n\n");
    s.push_str("commands:\n");
    for &(usage, help, _) in commands() {
        for (i, line) in help.lines().enumerate() {
            let head = if i == 0 { usage } else { "" };
            s.push_str(&format!("  {head:<21}{line}\n"));
        }
    }
    s.push('\n');
    s.push_str(Options::FLAGS);
    s
}

/// Dispatches a command. Only `ablate` and `bench` take an argument
/// (one each); any other positional is an error, not silently ignored.
pub fn run(command: &str, opts: &Options) -> Outcome {
    let &(usage, _, body) = commands()
        .find(|c| c.0.split(' ').next() == Some(command))
        .ok_or_else(|| format!("unknown command '{command}' (try --help)"))?;
    let arity = usage.split(' ').count() - 1;
    if let Some(stray) = opts.positional.get(arity) {
        return Err(format!("unexpected argument '{stray}' (try --help)").into());
    }
    body(opts)
}

/// Writes one table to stdout: CSV under `--csv`, headed by a
/// `# <title>` line when `all` prints it among the others, or titled
/// and aligned.
fn emit(title: &str, table: &Table, opts: &Options) -> Outcome {
    let mut out = io::stdout().lock();
    if opts.csv {
        if opts.command.as_deref() == Some("all") {
            writeln!(out, "# {title}")?;
        }
        write!(out, "{}", table.render_csv())?;
    } else {
        write!(out, "== {title} ==\n{}\n", table.render())?;
    }
    Ok(())
}

fn fig1(opts: &Options) -> Outcome {
    // 16 quanta: the figure shows the sustained oscillation.
    let res = experiments::transient_comparison(16);
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
    )
}

fn fig2(opts: &Options) -> Outcome {
    // The worked example of Section 2: exact numbers, not a sweep. One
    // source forks into 5 chains of 3 tasks (levels [1, 5, 5, 5]).
    let dag = abg_dag::generate::figure2_job();
    let mut ex = abg_sched::BGreedyExecutor::new(&dag);
    let mut t = Table::new(&["quantum", "allotment", "steps", "T1(q)", "T∞(q)", "A(q)"]);
    for (name, a, steps) in [("warm-up", 1, 2), ("measured", 4, 3)] {
        let q = ex.run_quantum(a, steps);
        t.row_owned(vec![
            name.into(),
            a.to_string(),
            steps.to_string(),
            q.work.to_string(),
            f3(q.span),
            f3(q.average_parallelism().expect("work was done")),
        ]);
    }
    t.row(&["paper", "4", "3", "12", "2.400", "5.000"]);
    emit("Figure 2: B-Greedy fractional quantum statistics", &t, opts)
}

fn fig4(opts: &Options) -> Outcome {
    let res = experiments::transient_comparison(8);
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
    )?;
    if opts.plot && !opts.csv {
        let abg: Vec<f64> = res.abg.iter().map(|p| p.request).collect();
        let agreedy: Vec<f64> = res.agreedy.iter().map(|p| p.request).collect();
        let target = vec![res.parallelism as f64; abg.len()];
        let mut c = Chart::new(10);
        c.series("parallelism A", '-', &target)
            .series("A-Greedy d(q)", '*', &agreedy)
            .series("ABG d(q)", '#', &abg);
        writeln!(io::stdout().lock(), "{}", c.render())?;
    }
    Ok(())
}

fn fig5(opts: &Options) -> Outcome {
    let mut cfg = SingleJobSweepConfig::paper();
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
    )?;
    let n = points.len() as f64;
    let tr: f64 = points.iter().map(|p| p.time_ratio).sum::<f64>() / n;
    let wr: f64 = points.iter().map(|p| p.waste_ratio).sum::<f64>() / n;
    if !opts.csv {
        writeln!(
            io::stdout().lock(),
            "mean A-Greedy/ABG ratios: time {:.3} (paper ≈ 1.2), waste {:.3} (paper ≈ 2)\n",
            tr,
            wr
        )?;
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
        writeln!(io::stdout().lock(), "{}", c.render())?;
    }
    Ok(())
}

fn fig6(opts: &Options) -> Outcome {
    let mut cfg = MultiprogrammedConfig::paper();
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
    )
}

fn thm1(opts: &Options) -> Outcome {
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
    )
}

fn seed_of(opts: &Options) -> u64 {
    opts.seed.unwrap_or(2008)
}

fn lemma2(opts: &Options) -> Outcome {
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
    emit("Lemma 2: request / parallelism envelope", &t, opts)
}

fn thm3(opts: &Options) -> Outcome {
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
    )
}

fn thm4(opts: &Options) -> Outcome {
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
    emit("Theorem 4: processor waste bound", &t, opts)
}

fn thm5(opts: &Options) -> Outcome {
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
    )
}

fn ablate(opts: &Options) -> Outcome {
    let which = opts.positional.first().map(String::as_str).unwrap_or("all");
    let run_rate = |opts: &Options| {
        let rows = experiments::rate_ablation(opts.seed);
        let mut t = Table::new(&["rate", "time/tinf", "waste/t1"]);
        for r in &rows {
            t.row_owned(vec![
                f3(r.rate),
                f3(r.quality.time_norm),
                f3(r.quality.waste_norm),
            ]);
        }
        let governed = experiments::governed_rate_quality(opts.seed);
        t.row_owned(vec![
            "governed (r ≤ 0.9/Ĉ_L)".into(),
            f3(governed.time_norm),
            f3(governed.waste_norm),
        ]);
        emit("Ablation: ABG convergence rate r", &t, opts)
    };
    let run_quantum = |opts: &Options| {
        let rows = experiments::quantum_ablation(opts.seed);
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
        emit("Ablation: quantum length L", &t, opts)
    };
    let run_agreedy = |opts: &Options| {
        let rows = experiments::agreedy_ablation(opts.seed);
        let mut t = Table::new(&["rho", "delta", "time/tinf", "waste/t1"]);
        for r in &rows {
            t.row_owned(vec![
                f3(r.responsiveness),
                f3(r.utilization),
                f3(r.quality.time_norm),
                f3(r.quality.waste_norm),
            ]);
        }
        emit("Ablation: A-Greedy ρ × δ", &t, opts)
    };
    let run_scheduler = |opts: &Options| {
        let rows = experiments::scheduler_ablation(opts.seed);
        let mut t = Table::new(&["scheduler", "time/tinf", "waste/t1"]);
        for r in &rows {
            t.row_owned(vec![
                r.scheduler.clone(),
                f3(r.quality.time_norm),
                f3(r.quality.waste_norm),
            ]);
        }
        emit("Ablation: task-scheduler priority rule", &t, opts)
    };
    let run_semantics = |opts: &Options| {
        let rows = experiments::semantics_ablation(opts.seed);
        let mut t = Table::new(&["model", "scheduler", "time/tinf", "waste/t1"]);
        for r in &rows {
            t.row_owned(vec![
                r.model.clone(),
                r.scheduler.clone(),
                f3(r.quality.time_norm),
                f3(r.quality.waste_norm),
            ]);
        }
        emit("Ablation: pipelined vs barrier phase semantics", &t, opts)
    };
    match which {
        "rate" => run_rate(opts),
        "quantum" => run_quantum(opts),
        "agreedy" => run_agreedy(opts),
        "scheduler" => run_scheduler(opts),
        "semantics" => run_semantics(opts),
        "all" => {
            run_rate(opts)?;
            run_quantum(opts)?;
            run_agreedy(opts)?;
            run_scheduler(opts)?;
            run_semantics(opts)
        }
        other => Err(format!(
            "unknown ablation '{other}' (rate|quantum|agreedy|scheduler|semantics|all)"
        )
        .into()),
    }
}

fn steal(opts: &Options) -> Outcome {
    let rows = experiments::stealing_comparison(opts.seed);
    let mut t = Table::new(&["scheduler", "time/tinf", "waste/t1"]);
    for r in &rows {
        t.row_owned(vec![r.scheduler.clone(), f3(r.time_norm), f3(r.waste_norm)]);
    }
    emit(
        "Work stealing: ABG vs A-Steal vs ABP vs A-Control-over-stealing",
        &t,
        opts,
    )
}

fn adaptive(opts: &Options) -> Outcome {
    let rows = experiments::adaptive_quantum_comparison(opts.seed);
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
    emit("Future work: adaptive quantum length under ABG", &t, opts)
}

fn robustness(opts: &Options) -> Outcome {
    let rows = experiments::robustness_comparison(opts.seed);
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
    )
}

fn allocators(opts: &Options) -> Outcome {
    let rows = experiments::allocator_policy_comparison(opts.seed);
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
    )
}

fn overhead(opts: &Options) -> Outcome {
    let rows = experiments::overhead_sweep(opts.seed);
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
    )
}

/// Renders the kernel suite as a JSON document (hand-rolled: the
/// workspace deliberately has no JSON dependency).
fn bench_json(
    mode: &str,
    cfg: &experiments::KernelBenchConfig,
    results: &[experiments::KernelResult],
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
    s.push_str("  \"schema\": \"abg-bench-kernels/v3\",\n");
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
    s.push_str("  ]\n}\n");
    s
}

/// Extracts the named kernel's `steps_per_sec` from a baseline JSON
/// document produced by [`bench_json`], schema v2 or v3 (hand-rolled
/// scan; the workspace deliberately has no JSON dependency).
fn baseline_steps_per_sec(json: &str, kernel: &str) -> Option<f64> {
    let marker = format!("\"kernel\": \"{kernel}\"");
    let rest = &json[json.find(&marker)?..];
    let row = &rest[..rest.find('}')?];
    let key = "\"steps_per_sec\": ";
    let val = &row[row.find(key)? + key.len()..];
    // Tolerate trailing fields after the value (rows carry the
    // memory-scale figures behind it) as well as end-of-row.
    val.split(',').next()?.trim().parse().ok()
}

/// The `--check` regression gate: every kernel of the suite must have
/// run and must stay above 70% of its committed baseline steps/s. Every
/// kernel's verdict goes to stderr, so `--json` stdout stays one
/// document, and the error names every kernel below its floor.
fn bench_check(path: &str, results: &[experiments::KernelResult]) -> Result<(), String> {
    let baseline =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let mut below = Vec::new();
    for kernel in experiments::kernel_names() {
        let cur = results
            .iter()
            .find(|r| r.kernel == kernel)
            .map(|r| r.steps_per_sec)
            .ok_or_else(|| format!("suite did not run {kernel}"))?;
        let base = baseline_steps_per_sec(&baseline, kernel)
            .ok_or_else(|| format!("no {kernel} steps_per_sec in {path}"))?;
        let floor = base * 0.7;
        let verdict = if cur < floor {
            below.push(format!("{kernel} {cur:.0} steps/s (floor {floor:.0})"));
            "BELOW FLOOR"
        } else {
            "ok"
        };
        eprintln!(
            "bench check {verdict}: {kernel} {cur:.0} steps/s vs baseline {base:.0} (floor {floor:.0})"
        );
    }
    if below.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "regression below 70% of baseline (from {path}): {}",
            below.join(", ")
        ))
    }
}

fn bench(opts: &Options) -> Outcome {
    let mode = match opts.positional.first().map(String::as_str) {
        None => "full",
        Some("smoke") => "smoke",
        Some(other) => {
            return Err(format!("unknown bench size '{other}' (expected 'smoke')").into())
        }
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
    if opts.json {
        write!(io::stdout().lock(), "{}", bench_json(mode, &cfg, &results))?;
    } else {
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
        let dash_zero = |v: u64| {
            if v == 0 {
                "-".to_string()
            } else {
                v.to_string()
            }
        };
        for r in &results {
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
        )?;
    }
    match &opts.check {
        Some(path) => Ok(bench_check(path, &results)?),
        None => Ok(()),
    }
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

fn open(opts: &Options) -> Outcome {
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
        let mode = if opts.smoke { "smoke" } else { "paper" };
        write!(io::stdout().lock(), "{}", open_json(mode, &cfg, &rows))?;
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
    )?;
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
        writeln!(
            io::stdout().lock(),
            "E[T1] = {:.1} steps/job on P = {}{sharding}; unstable points tripped saturation \
             detection\n",
            rows.first().map(|r| r.expected_work).unwrap_or(f64::NAN),
            cfg.processors,
        )?;
    }
    Ok(())
}

fn all(opts: &Options) -> Outcome {
    CLOSED.iter().try_for_each(|&(_, _, body)| body(opts))
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
            fake_result("open_churn", 500.0),
        ];
        let json = bench_json("smoke", &cfg, &results);
        assert!(
            json.contains("\"schema\": \"abg-bench-kernels/v3\""),
            "{json}"
        );
        let got = baseline_steps_per_sec(&json, "chain_macro").unwrap();
        assert!((got - 123456.789).abs() < 1e-2);
        assert!(baseline_steps_per_sec(&json, "no_such_kernel").is_none());
    }

    /// The committed baseline is schema v2 (it still carries rows of
    /// kernels the suite no longer runs, and a `derived` member); the
    /// reader finds every suite kernel's row in it.
    #[test]
    fn committed_v2_baseline_covers_every_kernel() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
        let json = std::fs::read_to_string(path).unwrap();
        assert!(json.contains("\"schema\": \"abg-bench-kernels/v2\""));
        for kernel in abg::experiments::kernel_names() {
            let base = baseline_steps_per_sec(&json, kernel);
            assert!(base.is_some_and(|b| b > 0.0), "{kernel}: {base:?}");
        }
    }

    /// A full result set for every suite kernel at the given fraction of
    /// a 1000 steps/s baseline, except `slow_kernel` (if any), which
    /// runs at `slow_frac`.
    fn suite_results(frac: f64, slow_kernel: Option<(&str, f64)>) -> Vec<KernelResult> {
        abg::experiments::kernel_names()
            .map(|k| {
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
        let baseline = suite_results(1.0, None);
        let dir = std::env::temp_dir().join("abg_bench_check_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        std::fs::write(&path, bench_json("smoke", &cfg, &baseline)).unwrap();
        let path = path.to_str().unwrap();

        // At 71% of baseline: passes. At 69%: trips.
        assert!(bench_check(path, &suite_results(0.71, None)).is_ok());
        let err = bench_check(path, &suite_results(0.69, None)).unwrap_err();
        assert!(err.contains("regression"), "{err}");
        // Every kernel trips the gate individually, even with the
        // others comfortably above the floor.
        for kernel in abg::experiments::kernel_names() {
            let err = bench_check(path, &suite_results(1.0, Some((kernel, 0.69)))).unwrap_err();
            assert!(
                err.contains(kernel) && err.contains("regression"),
                "{kernel}: {err}"
            );
        }
        // Every kernel is judged before the gate fails: with two kernels
        // under the floor, the error names both and no other.
        let mut two = suite_results(1.0, None);
        let last = two.len() - 1;
        two[0].steps_per_sec = 690.0;
        two[last].steps_per_sec = 350.0;
        let err = bench_check(path, &two).unwrap_err();
        let expected = format!(
            "regression below 70% of baseline (from {path}): {} 690 steps/s (floor 700), \
             {} 350 steps/s (floor 700)",
            two[0].kernel, two[last].kernel
        );
        assert_eq!(err, expected);
        // Missing baseline file, baseline row or kernel is an error, not
        // a silent pass.
        assert!(bench_check("/no/such/file.json", &baseline).is_err());
        assert!(bench_check(path, &[fake_result("other", 1.0)]).is_err());
        let mut partial = baseline.clone();
        partial.retain(|r| r.kernel != "unified_engine");
        let partial_path = dir.join("partial.json");
        std::fs::write(&partial_path, bench_json("smoke", &cfg, &partial)).unwrap();
        let err = bench_check(partial_path.to_str().unwrap(), &baseline).unwrap_err();
        assert!(err.contains("no unified_engine steps_per_sec"), "{err}");
        let mut missing = suite_results(1.0, None);
        missing.retain(|r| r.kernel != "open_system");
        let err = bench_check(path, &missing).unwrap_err();
        assert!(err.contains("did not run open_system"), "{err}");
    }

    /// Runs `opts.command`, which must fail, and returns its message.
    fn fail(opts: &Options) -> String {
        let command = opts.command.as_deref().expect("a command");
        run(command, opts).unwrap_err().to_string()
    }

    /// A positional argument that no command reads is an error before
    /// anything runs, for `all` as for every single command; only
    /// `ablate` and `bench` take one, and a second one is rejected.
    #[test]
    fn stray_positional_arguments_are_rejected() {
        let with = |command: &str, positional: &[&str]| Options {
            command: Some(command.into()),
            positional: positional.iter().map(|s| s.to_string()).collect(),
            ..Options::default()
        };
        for command in ["all", "fig2", "fig5", "thm3", "open"] {
            let err = fail(&with(command, &["bogus"]));
            assert_eq!(err, "unexpected argument 'bogus' (try --help)", "{command}");
        }
        let err = fail(&with("ablate", &["rate", "extra"]));
        assert_eq!(err, "unexpected argument 'extra' (try --help)");
        let err = fail(&with("bench", &["smoke", "extra"]));
        assert_eq!(err, "unexpected argument 'extra' (try --help)");
        let err = fail(&with("ablate", &["bogus"]));
        assert!(err.starts_with("unknown ablation 'bogus'"), "{err}");
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
        let err = fail(&Options {
            groups: Some(0),
            ..base.clone()
        });
        assert_eq!(
            err,
            "invalid open-system configuration: need at least one processor group"
        );
        let err = fail(&Options {
            groups: Some(4),
            realloc_epoch: Some(0),
            ..base.clone()
        });
        assert_eq!(
            err,
            "invalid open-system configuration: need a positive reallocation epoch"
        );
        // The smoke machine has 16 processors; 17 groups cannot all
        // hold the floor of one processor.
        let err = fail(&Options {
            groups: Some(17),
            ..base.clone()
        });
        assert_eq!(
            err,
            "invalid open-system configuration: per-group floor must be between 1 and P/G \
             (1 with 16 processors over 17 groups)"
        );
        let err = fail(&Options {
            groups: Some(4),
            group_alloc: Some("greedy".into()),
            ..base
        });
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
        let err = fail(&Options {
            workflow: Some("mapreduce".into()),
            dag_file: Some("x.dag".into()),
            ..base.clone()
        });
        assert_eq!(err, "--workflow and --dag-file are mutually exclusive");
        let err = fail(&Options {
            workflow: Some("cyclone".into()),
            ..base.clone()
        });
        assert_eq!(
            err,
            "unknown workflow 'cyclone' (expected one of: diamond, mapreduce, montage, \
             epigenomics)"
        );
        let err = fail(&Options {
            dag_file: Some("/no/such/file.dag".into()),
            ..base
        });
        assert!(err.starts_with("dag file i/o error:"), "{err}");
    }
}
