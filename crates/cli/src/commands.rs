//! Subcommand implementations: each regenerates one figure or analysis
//! and prints it through [`abg::report::Table`], whose columns it
//! describes once as a list of (header, cell) pairs over its rows.

use crate::json::{self, Json};
use crate::options::Options;
use abg::experiments::{
    self, KernelBenchConfig, KernelResult, MultiprogrammedConfig, OpenSystemConfig, OpenSystemRow,
    OpenWorkload, SchedulerOpenPoint, SingleJobSweepConfig,
};
use abg::report::{f3, mark, Chart, Column, Table};
use abg_control::GroupPolicy;
use abg_sched::JobExecutor as _;
use std::error::Error;
use std::io::{self, Write};

/// What a command returns: a message for the user, or the error of a
/// write to stdout (a closed pipe among them, which `main` ends
/// quietly).
pub type Outcome = Result<(), Box<dyn Error>>;

/// What runs a command or one ablation.
type Body = fn(&Options) -> Outcome;

/// One command: its usage (the name, then the one optional positional
/// it takes, if any), its help text, its body, and the command-scoped
/// flags (see [`Options::scoped_flags`]) it reads — the renderers it
/// has among them.
type Command = (&'static str, &'static str, Body, &'static [&'static str]);

/// A command whose only output is tables.
const TABLES: &[&str] = &["--csv"];
/// A command that can also append charts to its tables.
const CHARTS: &[&str] = &["--csv", "--plot"];

/// The closed experiments, in the order `all` runs them. `all` forwards
/// each renderer flag to the ones that read it.
#[rustfmt::skip]
const CLOSED: [Command; 16] = [
    ("fig1", "A-Greedy request instability (Figure 1)", fig1, TABLES),
    ("fig2", "B-Greedy fractional quantum statistics (Figure 2)", fig2, TABLES),
    ("fig4", "ABG vs A-Greedy transient trajectories (Figure 4)", fig4, CHARTS),
    ("fig5", "single-job sweep over transition factors (Figure 5)", fig5, CHARTS),
    ("fig6", "multiprogrammed load sweep (Figure 6)", fig6, TABLES),
    ("thm1", "control-theoretic metrics grid (Theorem 1)", thm1, TABLES),
    ("lemma2", "request/parallelism envelope check (Lemma 2)", lemma2, TABLES),
    ("thm3", "time bound under adversarial availability (Theorem 3)", thm3, TABLES),
    ("thm4", "waste bound check (Theorem 4)", thm4, TABLES),
    ("thm5", "makespan / response-time bound check (Theorem 5)", thm5, TABLES),
    // `usage` lists the ablation names as the help of `<which>`.
    ("ablate <which>", "<which>", ablate, TABLES),
    ("steal", "ABG vs A-Steal vs ABP (work-stealing substrate)", steal, TABLES),
    ("adaptive", "adaptive quantum length (paper future work)", adaptive, TABLES),
    ("robustness", "irregular parallelism profiles", robustness, TABLES),
    ("allocators", "DEQ vs round-robin vs proportional share", allocators, TABLES),
    ("overhead", "reallocation-overhead sensitivity sweep", overhead, TABLES),
];

/// The commands `all` does not run.
#[rustfmt::skip]
const OTHERS: [Command; 3] = [
    ("bench", "kernel benchmark suite (wall-clock throughput)", bench,
     &["--csv", "--json", "--check"]),
    ("open", "open-system rho sweep: steady-state response time\n\
              and slowdown under sustained Poisson arrivals", open,
     &["--smoke", "--csv", "--json", "--rho", "--groups", "--group-alloc", "--realloc-epoch",
       "--workflow", "--dag-file"]),
    ("all", "every closed experiment, fig1 through overhead", all, CHARTS),
];

fn commands() -> impl Iterator<Item = &'static Command> {
    CLOSED.iter().chain(&OTHERS)
}

/// The text of `--help` and of usage errors: the command table, then
/// the flags.
pub fn usage() -> String {
    let mut s = String::from("usage: abg-cli <command> [args] [--csv] [--seed N]\n\n");
    s.push_str("commands:\n");
    for &(usage, help, _, _) in commands() {
        let help = help.replace("<which>", &ablation_names(" | "));
        for (i, line) in help.lines().enumerate() {
            let head = if i == 0 { usage } else { "" };
            s.push_str(&format!("  {head:<21}{line}\n"));
        }
    }
    s.push('\n');
    s.push_str(Options::FLAGS);
    s
}

/// Dispatches a command. Only `ablate` takes an argument (one); any
/// other positional, and any command-scoped flag the command does not
/// read, is an error before the command runs, not silently ignored. So
/// is a renderer flag the chosen renderer does not read: a JSON
/// document has no CSV form and no charts, and CSV has no charts.
pub fn run(command: &str, opts: &Options) -> Outcome {
    let &(usage, _, body, reads) = commands()
        .find(|c| c.0.split(' ').next() == Some(command))
        .ok_or_else(|| format!("unknown command '{command}' (try --help)"))?;
    let arity = usage.split(' ').count() - 1;
    if let Some(stray) = opts.positional.get(arity) {
        return Err(format!("unexpected argument '{stray}' (try --help)").into());
    }
    if let Some(flag) = opts.scoped_flags().find(|flag| !reads.contains(flag)) {
        return Err(format!("flag '{flag}' does not apply to '{command}' (try --help)").into());
    }
    let (renderer, unread): (&str, &[&str]) = if opts.json {
        ("--json", CHARTS)
    } else if opts.csv {
        ("--csv", &["--plot"])
    } else {
        ("", &[])
    };
    if let Some(flag) = opts.scoped_flags().find(|flag| unread.contains(flag)) {
        return Err(
            format!("flag '{flag}' does not apply to '{command} {renderer}' (try --help)").into(),
        );
    }
    body(opts)
}

/// Writes the table of `rows` under `columns` to stdout: CSV under
/// `--csv`, headed by a `# <title>` line when `all` prints it among the
/// others, or titled and aligned.
fn emit<R>(title: &str, rows: &[R], columns: &[Column<R>], opts: &Options) -> Outcome {
    let table = Table::new(rows, columns);
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
    let rows: Vec<_> = res.agreedy.iter().map(|&g| (g, res.parallelism)).collect();
    emit(
        "Figure 1: request instability of A-Greedy (constant parallelism)",
        &rows,
        &[
            ("quantum", |(g, _)| g.quantum.to_string()),
            ("agreedy_request", |(g, _)| f3(g.request)),
            ("parallelism", |(_, a)| a.to_string()),
        ],
        opts,
    )
}

fn fig2(opts: &Options) -> Outcome {
    // The worked example of Section 2: exact numbers, not a sweep. One
    // source forks into 5 chains of 3 tasks (levels [1, 5, 5, 5]).
    let dag = abg_dag::generate::figure2_job();
    let mut ex = abg_sched::BGreedyExecutor::new(&dag);
    let mut rows = Vec::new();
    for (name, a, steps) in [("warm-up", 1, 2), ("measured", 4, 3)] {
        let q = ex.run_quantum(a, steps);
        let parallelism = q.average_parallelism().expect("work was done");
        rows.push((name, a, steps, q.work, q.span, parallelism));
    }
    rows.push(("paper", 4, 3, 12, 2.4, 5.0));
    emit(
        "Figure 2: B-Greedy fractional quantum statistics",
        &rows,
        &[
            ("quantum", |r| r.0.to_string()),
            ("allotment", |r| r.1.to_string()),
            ("steps", |r| r.2.to_string()),
            ("T1(q)", |r| r.3.to_string()),
            ("T∞(q)", |r| f3(r.4)),
            ("A(q)", |r| f3(r.5)),
        ],
        opts,
    )
}

fn fig4(opts: &Options) -> Outcome {
    let res = experiments::transient_comparison(8);
    let rows: Vec<_> = res
        .abg
        .iter()
        .zip(&res.agreedy)
        .map(|(&a, &g)| (a, g, res.parallelism))
        .collect();
    emit(
        "Figure 4: transient and steady-state behaviour (r = 0.2, ρ = 2)",
        &rows,
        &[
            ("quantum", |(a, _, _)| a.quantum.to_string()),
            ("abg_request", |(a, _, _)| f3(a.request)),
            ("agreedy_request", |(_, g, _)| f3(g.request)),
            ("parallelism", |(_, _, p)| p.to_string()),
        ],
        opts,
    )?;
    if opts.plot {
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
    emit(
        "Figure 5: single-job running time and waste vs transition factor",
        &points,
        &[
            ("factor", |p| p.factor.to_string()),
            ("measured_cl", |p| f3(p.measured_factor)),
            ("abg_t/tinf", |p| f3(p.abg_time_norm)),
            ("agreedy_t/tinf", |p| f3(p.agreedy_time_norm)),
            ("abg_w/t1", |p| f3(p.abg_waste_norm)),
            ("agreedy_w/t1", |p| f3(p.agreedy_waste_norm)),
            ("time_ratio", |p| f3(p.time_ratio)),
            ("waste_ratio", |p| f3(p.waste_ratio)),
        ],
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
    if opts.plot {
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
    emit(
        "Figure 6: multiprogrammed makespan and mean response time vs load",
        &points,
        &[
            ("load", |p| f3(p.measured_load)),
            ("jobs", |p| f3(p.mean_jobs)),
            ("abg_m/m*", |p| f3(p.abg_makespan_norm)),
            ("agreedy_m/m*", |p| f3(p.agreedy_makespan_norm)),
            ("abg_r/r*", |p| f3(p.abg_response_norm)),
            ("agreedy_r/r*", |p| f3(p.agreedy_response_norm)),
            ("makespan_ratio", |p| f3(p.makespan_ratio)),
            ("response_ratio", |p| f3(p.response_ratio)),
        ],
        opts,
    )
}

fn thm1(opts: &Options) -> Outcome {
    let rows =
        experiments::theorem1_grid(&[2.0, 10.0, 32.0, 128.0], &[0.0, 0.2, 0.4, 0.6, 0.8], 64);
    emit(
        "Theorem 1: BIBO stability, zero SSE, zero overshoot, convergence rate r",
        &rows,
        &[
            ("parallelism", |r| f3(r.parallelism)),
            ("rate", |r| f3(r.rate)),
            ("pole", |r| f3(r.pole)),
            ("bibo", |r| mark(r.bibo_stable).into()),
            ("sse", |r| format!("{:.2e}", r.steady_state_error)),
            ("overshoot", |r| format!("{:.2e}", r.max_overshoot)),
            ("measured_rate", |r| f3(r.measured_rate)),
        ],
        opts,
    )
}

fn seed_of(opts: &Options) -> u64 {
    opts.seed.unwrap_or(2008)
}

fn lemma2(opts: &Options) -> Outcome {
    let mut rows = Vec::new();
    for &factor in &[2u64, 4, 8, 16] {
        for &rate in &[0.05, 0.2] {
            for c in experiments::lemma2_check(factor, rate, 200, 3, 128, seed_of(opts)) {
                rows.push((factor, rate, c));
            }
        }
    }
    emit(
        "Lemma 2: request / parallelism envelope",
        &rows,
        &[
            ("factor", |r| r.0.to_string()),
            ("rate", |r| f3(r.1)),
            ("check", |r| r.2.quantity.into()),
            ("measured", |r| f3(r.2.measured)),
            ("bound", |r| f3(r.2.bound)),
            ("holds", |r| mark(r.2.holds).into()),
        ],
        opts,
    )
}

fn thm3(opts: &Options) -> Outcome {
    let mut rows = Vec::new();
    for &factor in &[2u64, 5, 10, 20, 50] {
        for &rate in &[0.0, 0.2, 0.5] {
            let c = experiments::theorem3_check(factor, rate, 200, 3, 64, seed_of(opts));
            rows.push((factor, rate, c));
        }
    }
    emit(
        "Theorem 3: running time under adversarial availability (trim analysis)",
        &rows,
        &[
            ("factor", |r| r.0.to_string()),
            ("rate", |r| f3(r.1)),
            ("measured_T", |r| f3(r.2.measured)),
            ("bound", |r| f3(r.2.bound)),
            ("holds", |r| mark(r.2.holds).into()),
        ],
        opts,
    )
}

fn thm4(opts: &Options) -> Outcome {
    // A `None` check: the measured factor breaks `r < 1/C_L`, so the
    // bound does not apply.
    let mut rows = Vec::new();
    for &factor in &[2u64, 3, 4, 8, 16] {
        for &rate in &[0.05, 0.2] {
            let c = experiments::theorem4_check(factor, rate, 200, 3, 128, seed_of(opts));
            rows.push((factor, rate, c));
        }
    }
    emit(
        "Theorem 4: processor waste bound",
        &rows,
        &[
            ("factor", |r| r.0.to_string()),
            ("rate", |r| f3(r.1)),
            ("measured_W", |r| r.2.map_or("-".into(), |c| f3(c.measured))),
            ("bound", |r| r.2.map_or("-".into(), |c| f3(c.bound))),
            ("holds", |r| {
                r.2.map_or("n/a (r ≥ 1/C_L)", |c| mark(c.holds)).into()
            }),
        ],
        opts,
    )
}

fn thm5(opts: &Options) -> Outcome {
    // One row per check of each load, or one `None` row for a load
    // whose job set breaks `r < 1/C_L`.
    let mut rows = Vec::new();
    for &load in &[0.5, 1.0, 2.0] {
        match experiments::theorem5_check(load, 4, 0.2, 100, 2, 64, seed_of(opts)) {
            Some(checks) => rows.extend(checks.into_iter().map(|c| (load, Some(c)))),
            None => rows.push((load, None)),
        }
    }
    emit(
        "Theorem 5: makespan and mean response time bounds (ABG + DEQ)",
        &rows,
        &[
            ("load", |r| f3(r.0)),
            ("check", |r| r.1.map_or("-", |c| c.quantity).into()),
            ("measured", |r| r.1.map_or("-".into(), |c| f3(c.measured))),
            ("bound", |r| r.1.map_or("-".into(), |c| f3(c.bound))),
            ("holds", |r| r.1.map_or("n/a", |c| mark(c.holds)).into()),
        ],
        opts,
    )
}

/// The ablations, in the order `ablate all` runs them.
const ABLATIONS: [(&str, Body); 5] = [
    ("rate", ablate_rate),
    ("quantum", ablate_quantum),
    ("agreedy", ablate_agreedy),
    ("scheduler", ablate_scheduler),
    ("semantics", ablate_semantics),
];

/// The names `ablate` takes, `all` last, joined by `sep`.
fn ablation_names(sep: &str) -> String {
    let names: Vec<&str> = ABLATIONS.iter().map(|a| a.0).chain(["all"]).collect();
    names.join(sep)
}

fn ablate(opts: &Options) -> Outcome {
    let which = opts.positional.first().map_or("all", String::as_str);
    let chosen: Vec<_> = ABLATIONS
        .iter()
        .filter(|a| which == "all" || a.0 == which)
        .collect();
    if chosen.is_empty() {
        let names = ablation_names("|");
        return Err(format!("unknown ablation '{which}' ({names})").into());
    }
    chosen.into_iter().try_for_each(|a| (a.1)(opts))
}

fn ablate_rate(opts: &Options) -> Outcome {
    let mut rows: Vec<_> = experiments::rate_ablation(opts.seed)
        .into_iter()
        .map(|r| (f3(r.rate), r.quality))
        .collect();
    let governed = experiments::governed_rate_quality(opts.seed);
    rows.push(("governed (r ≤ 0.9/Ĉ_L)".into(), governed));
    emit(
        "Ablation: ABG convergence rate r",
        &rows,
        &[
            ("rate", |r| r.0.clone()),
            ("time/tinf", |r| f3(r.1.time_norm)),
            ("waste/t1", |r| f3(r.1.waste_norm)),
        ],
        opts,
    )
}

fn ablate_quantum(opts: &Options) -> Outcome {
    let rows = experiments::quantum_ablation(opts.seed);
    emit(
        "Ablation: quantum length L",
        &rows,
        &[
            ("L", |r| r.quantum_len.to_string()),
            ("abg_t", |r| f3(r.abg.time_norm)),
            ("abg_w", |r| f3(r.abg.waste_norm)),
            ("agreedy_t", |r| f3(r.agreedy.time_norm)),
            ("agreedy_w", |r| f3(r.agreedy.waste_norm)),
        ],
        opts,
    )
}

fn ablate_agreedy(opts: &Options) -> Outcome {
    let rows = experiments::agreedy_ablation(opts.seed);
    emit(
        "Ablation: A-Greedy ρ × δ",
        &rows,
        &[
            ("rho", |r| f3(r.responsiveness)),
            ("delta", |r| f3(r.utilization)),
            ("time/tinf", |r| f3(r.quality.time_norm)),
            ("waste/t1", |r| f3(r.quality.waste_norm)),
        ],
        opts,
    )
}

fn ablate_scheduler(opts: &Options) -> Outcome {
    let rows = experiments::scheduler_ablation(opts.seed);
    emit(
        "Ablation: task-scheduler priority rule",
        &rows,
        &[
            ("scheduler", |r| r.scheduler.clone()),
            ("time/tinf", |r| f3(r.quality.time_norm)),
            ("waste/t1", |r| f3(r.quality.waste_norm)),
        ],
        opts,
    )
}

fn ablate_semantics(opts: &Options) -> Outcome {
    let rows = experiments::semantics_ablation(opts.seed);
    emit(
        "Ablation: pipelined vs barrier phase semantics",
        &rows,
        &[
            ("model", |r| r.model.clone()),
            ("scheduler", |r| r.scheduler.clone()),
            ("time/tinf", |r| f3(r.quality.time_norm)),
            ("waste/t1", |r| f3(r.quality.waste_norm)),
        ],
        opts,
    )
}

fn steal(opts: &Options) -> Outcome {
    let rows = experiments::stealing_comparison(opts.seed);
    emit(
        "Work stealing: ABG vs A-Steal vs ABP vs A-Control-over-stealing",
        &rows,
        &[
            ("scheduler", |r| r.scheduler.clone()),
            ("time/tinf", |r| f3(r.time_norm)),
            ("waste/t1", |r| f3(r.waste_norm)),
        ],
        opts,
    )
}

fn adaptive(opts: &Options) -> Outcome {
    let rows = experiments::adaptive_quantum_comparison(opts.seed);
    emit(
        "Future work: adaptive quantum length under ABG",
        &rows,
        &[
            ("policy", |r| r.policy.clone()),
            ("time/tinf", |r| f3(r.time_norm)),
            ("waste/t1", |r| f3(r.waste_norm)),
            ("quanta", |r| f3(r.mean_quanta)),
            ("reallocations", |r| f3(r.mean_reallocations)),
        ],
        opts,
    )
}

fn robustness(opts: &Options) -> Outcome {
    let rows = experiments::robustness_comparison(opts.seed);
    emit(
        "Robustness: irregular parallelism profiles and alternative job characteristics",
        &rows,
        &[
            ("profile", |r| r.class.clone()),
            ("c_l", |r| f3(r.transition_factor)),
            ("cv", |r| f3(r.coefficient_of_variation)),
            ("changes/klvl", |r| f3(r.changes_per_kilolevel)),
            ("abg_t", |r| f3(r.abg_time_norm)),
            ("agreedy_t", |r| f3(r.agreedy_time_norm)),
            ("abg_w", |r| f3(r.abg_waste_norm)),
            ("agreedy_w", |r| f3(r.agreedy_waste_norm)),
        ],
        opts,
    )
}

fn allocators(opts: &Options) -> Outcome {
    let rows = experiments::allocator_policy_comparison(opts.seed);
    emit(
        "OS allocator policies: DEQ vs round-robin vs proportional (ABG jobs)",
        &rows,
        &[
            ("policy", |r| r.policy.clone()),
            ("load", |r| f3(r.load)),
            ("m/m*", |r| f3(r.makespan_norm)),
            ("r/r*", |r| f3(r.response_norm)),
            ("waste/work", |r| f3(r.waste_norm)),
        ],
        opts,
    )
}

fn overhead(opts: &Options) -> Outcome {
    let rows = experiments::overhead_sweep(opts.seed);
    emit(
        "Reallocation overhead: pricing request instability",
        &rows,
        &[
            ("overhead/L", |r| f3(r.overhead_fraction)),
            ("abg_t", |r| f3(r.abg_time_norm)),
            ("agreedy_t", |r| f3(r.agreedy_time_norm)),
            ("abg_w", |r| f3(r.abg_waste_norm)),
            ("agreedy_w", |r| f3(r.agreedy_waste_norm)),
            ("abg_reallocs", |r| f3(r.abg_reallocations)),
            ("agreedy_reallocs", |r| f3(r.agreedy_reallocations)),
        ],
        opts,
    )
}

/// The schema of the kernel suite's JSON document: what `bench --json`
/// writes and the only one `bench --check` reads.
const BENCH_SCHEMA: &str = "abg-bench-kernels/v4";

/// Renders the kernel suite as a JSON document.
fn bench_json(cfg: &KernelBenchConfig, results: &[KernelResult]) -> String {
    let kernel = |r: &KernelResult| {
        Json::Obj(vec![
            ("kernel", Json::Str(r.kernel.clone())),
            ("iters", Json::Int(r.iters)),
            ("ops", Json::Int(r.ops)),
            ("steps", Json::Int(r.steps)),
            ("wall_ms", Json::Num(r.wall_ms)),
            ("ops_per_sec", Json::Num(r.ops_per_sec)),
            ("steps_per_sec", Json::Num(r.steps_per_sec)),
            ("peak_jobs_in_system", Json::Int(r.peak_jobs_in_system)),
            ("bytes_per_live_job", Json::Int(r.bytes_per_live_job)),
        ])
    };
    json::document(
        &[
            ("schema", Json::Str(BENCH_SCHEMA.into())),
            ("seed", Json::Int(cfg.seed)),
            ("min_wall_ms", Json::Int(cfg.min_wall_ms)),
            ("kernels", Json::Arr(results.iter().map(kernel).collect())),
        ],
        3,
    )
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
    // Tolerate trailing fields after the value (rows carry the
    // memory-scale figures behind it) as well as end-of-row.
    val.split(',').next()?.trim().parse().ok()
}

/// Reads the `--check` baseline at `path`, which must be a
/// [`BENCH_SCHEMA`] document; `bench` calls it before the suite runs,
/// so a missing or stale baseline fails at once.
fn read_baseline(path: &str) -> Result<String, String> {
    let baseline =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let key = "\"schema\": \"";
    let schema = baseline
        .find(key)
        .and_then(|at| baseline[at + key.len()..].split('"').next())
        .unwrap_or("none");
    if schema != BENCH_SCHEMA {
        return Err(format!(
            "baseline {path} is schema {schema}, but bench writes {BENCH_SCHEMA} (re-record it with bench --json)"
        ));
    }
    Ok(baseline)
}

/// The `--check` regression gate: every kernel of the suite must have
/// run and must stay above 70% of its steps/s in `baseline` (read from
/// `path` by [`read_baseline`]). Every kernel's verdict goes to stderr,
/// so `--json` stdout stays one document, and the error names every
/// kernel below its floor.
fn bench_check(path: &str, baseline: &str, results: &[KernelResult]) -> Result<(), String> {
    let mut below = Vec::new();
    for kernel in experiments::kernel_names() {
        let cur = results
            .iter()
            .find(|r| r.kernel == kernel)
            .map(|r| r.steps_per_sec)
            .ok_or_else(|| format!("suite did not run {kernel}"))?;
        let base = baseline_steps_per_sec(baseline, kernel)
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

/// A count, or a dash where the kernel reports none.
fn dash_zero(v: u64) -> String {
    if v == 0 {
        "-".to_string()
    } else {
        v.to_string()
    }
}

fn bench(opts: &Options) -> Outcome {
    let baseline = match &opts.check {
        Some(path) => Some((path, read_baseline(path)?)),
        None => None,
    };
    let mut cfg = KernelBenchConfig::default();
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    let results = experiments::run_kernel_suite(&cfg);
    if opts.json {
        write!(io::stdout().lock(), "{}", bench_json(&cfg, &results))?;
    } else {
        emit(
            "Kernel benchmark suite (wall-clock; machine-dependent)",
            &results,
            &[
                ("kernel", |r| r.kernel.clone()),
                ("iters", |r| r.iters.to_string()),
                ("ops", |r| r.ops.to_string()),
                ("steps", |r| r.steps.to_string()),
                ("wall_ms", |r| format!("{:.2}", r.wall_ms)),
                ("ops/s", |r| format!("{:.0}", r.ops_per_sec)),
                ("steps/s", |r| format!("{:.0}", r.steps_per_sec)),
                ("peak_jobs", |r| dash_zero(r.peak_jobs_in_system)),
                ("B/job", |r| dash_zero(r.bytes_per_live_job)),
            ],
            opts,
        )?;
    }
    match baseline {
        Some((path, baseline)) => Ok(bench_check(path, &baseline, &results)?),
        None => Ok(()),
    }
}

/// One scheduler's mean response time with its confidence half width,
/// or `unstable`.
fn mrt_cell(p: &SchedulerOpenPoint) -> String {
    if p.stable {
        format!("{:.1}±{:.1}", p.mean_response, p.response_half_width)
    } else {
        "unstable".into()
    }
}

/// One statistic `x` of scheduler point `p`, or a dash when `p` is
/// unstable.
fn stat_cell(p: &SchedulerOpenPoint, x: f64) -> String {
    if p.stable {
        f3(x)
    } else {
        "-".into()
    }
}

/// One scheduler's point of an open-system row, as a JSON object.
fn point_json(p: &SchedulerOpenPoint) -> Json {
    Json::Obj(vec![
        ("stable", Json::Bool(p.stable)),
        ("mean_response", Json::Num(p.mean_response)),
        ("response_half_width", Json::Num(p.response_half_width)),
        ("slowdown_p50", Json::Num(p.slowdown_p50)),
        ("slowdown_p95", Json::Num(p.slowdown_p95)),
        ("slowdown_p99", Json::Num(p.slowdown_p99)),
        ("mean_jobs_in_system", Json::Num(p.mean_jobs_in_system)),
        ("measured_utilization", Json::Num(p.measured_utilization)),
        ("quanta", Json::Int(p.quanta)),
        ("arrivals", Json::Int(p.arrivals)),
    ])
}

/// Renders the open-system sweep as a JSON document. `NaN` statistics
/// of unstable points become `null`.
fn open_json(mode: &str, cfg: &OpenSystemConfig, rows: &[OpenSystemRow]) -> String {
    let row = |r: &OpenSystemRow| {
        Json::Obj(vec![
            ("rho", Json::Num(r.rho)),
            ("mean_gap", Json::Num(r.mean_gap)),
            ("expected_work", Json::Num(r.expected_work)),
            ("abg", point_json(&r.abg)),
            ("agreedy", point_json(&r.agreedy)),
        ])
    };
    let fingerprint = format!("{:#018x}", experiments::open_fingerprint(rows));
    json::document(
        &[
            ("schema", Json::Str("abg-open-system/v2".into())),
            ("mode", Json::Str(mode.into())),
            ("seed", Json::Int(cfg.seed)),
            ("processors", Json::Int(cfg.processors.into())),
            ("quantum_len", Json::Int(cfg.quantum_len)),
            ("groups", Json::Int(cfg.groups.into())),
            ("group_alloc", Json::Str(cfg.group_alloc.name().into())),
            ("realloc_epoch", Json::Int(cfg.realloc_epoch)),
            ("fingerprint", Json::Str(fingerprint)),
            ("rows", Json::Arr(rows.iter().map(row).collect())),
        ],
        6,
    )
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
    // The sweep refuses an inconsistent measurement setup, or a load
    // whose jobs would arrive more than once per step, before any point
    // runs.
    let rows = experiments::try_open_system_sweep(&cfg)
        .map_err(|e| format!("invalid open-system configuration: {e}"))?;
    if opts.json {
        let mode = if opts.smoke { "smoke" } else { "paper" };
        write!(io::stdout().lock(), "{}", open_json(mode, &cfg, &rows))?;
        return Ok(());
    }
    emit(
        "Open system: steady-state response time and slowdown vs offered load (DEQ)",
        &rows,
        &[
            ("rho", |r| f3(r.rho)),
            ("abg_mrt", |r| mrt_cell(&r.abg)),
            ("abg_sd50", |r| stat_cell(&r.abg, r.abg.slowdown_p50)),
            ("abg_sd95", |r| stat_cell(&r.abg, r.abg.slowdown_p95)),
            ("abg_sd99", |r| stat_cell(&r.abg, r.abg.slowdown_p99)),
            ("agreedy_mrt", |r| mrt_cell(&r.agreedy)),
            ("ag_sd50", |r| stat_cell(&r.agreedy, r.agreedy.slowdown_p50)),
            ("ag_sd95", |r| stat_cell(&r.agreedy, r.agreedy.slowdown_p95)),
            ("ag_sd99", |r| stat_cell(&r.agreedy, r.agreedy.slowdown_p99)),
        ],
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
    CLOSED.iter().try_for_each(|&(_, _, body, reads)| {
        body(&Options {
            csv: opts.csv && reads.contains(&"--csv"),
            plot: opts.plot && reads.contains(&"--plot"),
            ..opts.clone()
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let cfg = abg::experiments::KernelBenchConfig::default();
        let results = vec![
            fake_result("chain_macro", 123456.789),
            fake_result("open_churn", 500.0),
        ];
        let json = bench_json(&cfg, &results);
        assert!(
            json.contains("\"schema\": \"abg-bench-kernels/v4\""),
            "{json}"
        );
        assert!(!json.contains("\"mode\""), "{json}");
        let row = |kernel: &str, rate: &str| {
            format!(
                "    {{\"kernel\": \"{kernel}\", \"iters\": 1, \"ops\": 100, \"steps\": 100, \
                 \"wall_ms\": 1.000, \"ops_per_sec\": {rate}, \"steps_per_sec\": {rate}, \
                 \"peak_jobs_in_system\": 42, \"bytes_per_live_job\": 128}}"
            )
        };
        assert_eq!(
            json,
            format!(
                "{{\n  \"schema\": \"abg-bench-kernels/v4\",\n  \"seed\": {},\n  \
                 \"min_wall_ms\": 200,\n  \"kernels\": [\n{},\n{}\n  ]\n}}\n",
                cfg.seed,
                row("chain_macro", "123456.789"),
                row("open_churn", "500.000")
            )
        );
        let got = baseline_steps_per_sec(&json, "chain_macro").unwrap();
        assert!((got - 123456.789).abs() < 1e-2);
        assert!(baseline_steps_per_sec(&json, "no_such_kernel").is_none());
    }

    /// The committed baseline is the schema `bench --json` writes, and
    /// its rows are exactly the suite's kernels, in suite order: a stale
    /// row or a missing one fails here, not in CI.
    #[test]
    fn committed_baseline_rows_are_the_suite() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
        let json = std::fs::read_to_string(path).unwrap();
        assert!(json.contains(&format!("\"schema\": \"{BENCH_SCHEMA}\"")));
        let key = "\"kernel\": \"";
        let rows: Vec<&str> = json
            .split(key)
            .skip(1)
            .map(|row| row.split('"').next().unwrap())
            .collect();
        assert!(
            rows.iter().copied().eq(abg::experiments::kernel_names()),
            "{rows:?}"
        );
        for kernel in rows {
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

    /// `bench --check path` once the suite has produced `results`.
    fn check(path: &str, results: &[KernelResult]) -> Result<(), String> {
        read_baseline(path).and_then(|baseline| bench_check(path, &baseline, results))
    }

    #[test]
    fn bench_check_trips_only_below_the_floor() {
        let cfg = abg::experiments::KernelBenchConfig::default();
        let baseline = suite_results(1.0, None);
        let dir = std::env::temp_dir().join("abg_bench_check_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        std::fs::write(&path, bench_json(&cfg, &baseline)).unwrap();
        let path = path.to_str().unwrap();

        // At 71% of baseline: passes. At 69%: trips.
        assert!(check(path, &suite_results(0.71, None)).is_ok());
        let err = check(path, &suite_results(0.69, None)).unwrap_err();
        assert!(err.contains("regression"), "{err}");
        // Every kernel trips the gate individually, even with the
        // others comfortably above the floor.
        for kernel in abg::experiments::kernel_names() {
            let err = check(path, &suite_results(1.0, Some((kernel, 0.69)))).unwrap_err();
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
        let err = check(path, &two).unwrap_err();
        let expected = format!(
            "regression below 70% of baseline (from {path}): {} 690 steps/s (floor 700), \
             {} 350 steps/s (floor 700)",
            two[0].kernel, two[last].kernel
        );
        assert_eq!(err, expected);
        // Missing baseline file, baseline row or kernel is an error, not
        // a silent pass.
        assert!(check("/no/such/file.json", &baseline).is_err());
        assert!(check(path, &[fake_result("other", 1.0)]).is_err());
        let mut partial = baseline.clone();
        partial.retain(|r| r.kernel != "unified_engine");
        let partial_path = dir.join("partial.json");
        std::fs::write(&partial_path, bench_json(&cfg, &partial)).unwrap();
        let err = check(partial_path.to_str().unwrap(), &baseline).unwrap_err();
        assert!(err.contains("no unified_engine steps_per_sec"), "{err}");
        let mut missing = suite_results(1.0, None);
        missing.retain(|r| r.kernel != "open_system");
        let err = check(path, &missing).unwrap_err();
        assert!(err.contains("did not run open_system"), "{err}");
        // A baseline of another schema is refused before any row is
        // read, with both schemas named.
        let v2_path = dir.join("v2.json");
        let v2 = bench_json(&cfg, &baseline).replace(BENCH_SCHEMA, "abg-bench-kernels/v2");
        std::fs::write(&v2_path, v2).unwrap();
        let v2_path = v2_path.to_str().unwrap();
        let err = check(v2_path, &baseline).unwrap_err();
        assert_eq!(
            err,
            format!(
                "baseline {v2_path} is schema abg-bench-kernels/v2, but bench writes \
                 abg-bench-kernels/v4 (re-record it with bench --json)"
            )
        );
    }

    /// Runs `opts.command`, which must fail, and returns its message.
    fn fail(opts: &Options) -> String {
        let command = opts.command.as_deref().expect("a command");
        run(command, opts).unwrap_err().to_string()
    }

    /// A positional argument or a flag that the command never reads is
    /// an error before anything runs, for `all` as for every single
    /// command; only `ablate` takes a positional, and a second one is
    /// rejected. `bench` has one size, so `bench smoke` and `bench
    /// --smoke` are stray too.
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
        let err = fail(&with("bench", &["smoke"]));
        assert_eq!(err, "unexpected argument 'smoke' (try --help)");
        let err = fail(&with("ablate", &["bogus"]));
        assert_eq!(
            err,
            "unknown ablation 'bogus' (rate|quantum|agreedy|scheduler|semantics|all)"
        );
        // A flag only other commands read is rejected the same way: the
        // seven `open` flags, `--check` outside `bench`, `--json`
        // outside `open` and `bench`, and `--plot` outside `fig4`,
        // `fig5` and `all`.
        let cases: [&[&str]; 14] = [
            &["fig2", "--plot"],
            &["open", "--smoke", "--plot"],
            &["fig5", "--rho", "0.5"],
            &["bench", "--smoke"],
            &["fig6", "--json"],
            &["all", "--json"],
            &["open", "--check", "base.json"],
            &["ablate", "rate", "--check", "base.json"],
            &["fig2", "--groups", "4"],
            &["fig2", "--group-alloc", "desire"],
            &["all", "--realloc-epoch", "25"],
            &["thm3", "--workflow", "montage"],
            &["bench", "--dag-file", "x.dag"],
            &["bench", "--json", "--rho", "0.5"],
        ];
        for args in cases {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let opts = Options::parse(&args).unwrap();
            let flag = args.iter().rev().find(|a| a.starts_with("--")).unwrap();
            let err = fail(&opts);
            assert_eq!(
                err,
                format!("flag '{flag}' does not apply to '{}' (try --help)", args[0]),
                "{args:?}"
            );
        }
    }

    /// `--help` lists every ablation name, from the one ablation table.
    #[test]
    fn usage_lists_every_ablation() {
        assert!(usage().contains(
            "  ablate <which>       rate | quantum | agreedy | scheduler | semantics | all\n"
        ));
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

    /// A load whose jobs would arrive more than once per step is the
    /// typed `ArrivalsTooDense` error, not a panic in the arrival
    /// stream or a run that exhausts memory.
    #[test]
    fn open_rejects_an_impossible_rate_with_the_typed_message() {
        let err = fail(&Options {
            command: Some("open".into()),
            smoke: true,
            rho: Some(1e10),
            ..Options::default()
        });
        assert_eq!(
            err,
            "invalid open-system configuration: arrivals too dense: the mean inter-arrival \
             gap must be finite and at least one step (got 6.210e-9 steps)"
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
