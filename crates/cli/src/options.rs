//! Minimal flag parsing for `abg-cli` (no external dependency).

/// Parsed command line.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// The subcommand (first positional argument).
    pub command: Option<String>,
    /// Extra positional arguments after the command (e.g. the ablation
    /// name).
    pub positional: Vec<String>,
    /// Run at CI smoke scale (the `open` subcommand).
    pub smoke: bool,
    /// Emit CSV instead of an aligned table (refused under `--json`).
    pub csv: bool,
    /// Override the experiment seed.
    pub seed: Option<u64>,
    /// Restrict the `open` sweep to a single offered utilization.
    pub rho: Option<f64>,
    /// Processor groups for the open-system sweep (the `open`
    /// subcommand). Any integer parses; the typed config validation
    /// owns the rejection of impossible counts (zero, or more groups
    /// than processors).
    pub groups: Option<u32>,
    /// Top-level reallocation policy name (the `open` subcommand);
    /// resolved against [`abg_control::GroupPolicy`] when the command
    /// runs so the error message lists the valid names.
    pub group_alloc: Option<String>,
    /// Reallocation epoch in quanta (the `open` subcommand). Zero
    /// parses; the typed config validation rejects it.
    pub realloc_epoch: Option<u64>,
    /// Workflow family for open-system arrivals (the `open`
    /// subcommand); resolved against
    /// [`abg_workload::WorkflowKind`] when the command runs so the
    /// error message lists the valid names.
    pub workflow: Option<String>,
    /// Dag-file path whose dag every open-system arrival replays (the
    /// `open` subcommand); mutually exclusive with `--workflow`.
    pub dag_file: Option<String>,
    /// Append ASCII charts after the tables (`fig4`, `fig5` and `all`,
    /// not under `--csv`).
    pub plot: bool,
    /// Print machine-readable JSON instead of a table (the `bench` and
    /// `open` subcommands; every other command refuses it).
    pub json: bool,
    /// Compare bench results against a committed baseline JSON and fail
    /// on regression (the `bench` subcommand).
    pub check: Option<String>,
    /// The harness worker count for this run (`ABG_THREADS` when
    /// absent; the flag wins when both are set).
    pub threads: Option<usize>,
}

impl Options {
    /// The flag half of the usage text (the command half is the
    /// command table's, see `commands::usage`).
    pub const FLAGS: &'static str = "\
flags (one marked with commands belongs to those, and any other command
refuses it):
  --smoke              open: CI-sized sweep instead of the full-scale one
  --csv                CSV output instead of aligned tables (not with --json)
  --plot               fig4, fig5, all: append ASCII charts after the tables
                       (not with --csv; all draws the charts of fig4 and fig5)
  --json               bench: print the suite as JSON instead of the table
                       open: print the sweep as JSON (with its fingerprint)
  --check PATH         bench: fail if any kernel's throughput regresses
                       more than 30% below the baseline JSON at PATH
  --seed N             override the experiment seed
  --rho R              open: sweep only the given offered utilization
  --groups G           open: split the machine into G processor groups
                       (1 = the unsharded driver; with --group-alloc static,
                       a fixed partition)
  --group-alloc P      open: top-level reallocation policy — static, desire
                       or conservative (default static)
  --realloc-epoch Q    open: reallocate group capacities every Q quanta
                       (default 50)
  --workflow W         open: weighted workflow arrivals — diamond, mapreduce,
                       montage or epigenomics (default: mixed-factor jobs)
  --dag-file PATH      open: every arrival replays the dag loaded from the
                       text dag file at PATH (excludes --workflow)
  --threads N          harness worker count for this run (default: the
                       ABG_THREADS variable, else one per hardware thread;
                       capped at 4 per hardware thread; results are
                       identical for any count, only wall-clock changes)
  -h, --help           this text";

    /// The command-scoped flags this command line sets, in [`Self::FLAGS`]
    /// order. Only the commands that read such a flag accept it; every
    /// other flag applies to every command.
    pub fn scoped_flags(&self) -> impl Iterator<Item = &'static str> {
        [
            ("--smoke", self.smoke),
            ("--csv", self.csv),
            ("--plot", self.plot),
            ("--json", self.json),
            ("--check", self.check.is_some()),
            ("--rho", self.rho.is_some()),
            ("--groups", self.groups.is_some()),
            ("--group-alloc", self.group_alloc.is_some()),
            ("--realloc-epoch", self.realloc_epoch.is_some()),
            ("--workflow", self.workflow.is_some()),
            ("--dag-file", self.dag_file.is_some()),
        ]
        .into_iter()
        .filter_map(|(flag, set)| set.then_some(flag))
    }

    /// Parses raw arguments.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Options::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => opts.smoke = true,
                "--csv" => opts.csv = true,
                "--plot" => opts.plot = true,
                "--json" => opts.json = true,
                "--check" => {
                    let v = it.next().ok_or("--check needs a baseline path")?;
                    opts.check = Some(v.clone());
                }
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    opts.seed = Some(v.parse().map_err(|_| format!("invalid seed '{v}'"))?);
                }
                "--rho" => {
                    let v = it.next().ok_or("--rho needs a value")?;
                    let rho: f64 = v
                        .parse()
                        .map_err(|_| format!("invalid utilization '{v}'"))?;
                    if !rho.is_finite() || rho <= 0.0 {
                        return Err("--rho must be a positive utilization".into());
                    }
                    opts.rho = Some(rho);
                }
                "--groups" => {
                    let v = it.next().ok_or("--groups needs a value")?;
                    let n: u32 = v
                        .parse()
                        .map_err(|_| format!("invalid group count '{v}'"))?;
                    opts.groups = Some(n);
                }
                "--group-alloc" => {
                    let v = it.next().ok_or("--group-alloc needs a policy name")?;
                    opts.group_alloc = Some(v.clone());
                }
                "--realloc-epoch" => {
                    let v = it.next().ok_or("--realloc-epoch needs a value")?;
                    let n: u64 = v
                        .parse()
                        .map_err(|_| format!("invalid reallocation epoch '{v}'"))?;
                    opts.realloc_epoch = Some(n);
                }
                "--workflow" => {
                    let v = it.next().ok_or("--workflow needs a family name")?;
                    opts.workflow = Some(v.clone());
                }
                "--dag-file" => {
                    let v = it.next().ok_or("--dag-file needs a path")?;
                    opts.dag_file = Some(v.clone());
                }
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("invalid thread count '{v}'"))?;
                    if n == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    opts.threads = Some(n);
                }
                "-h" | "--help" => {
                    opts.command = None;
                    return Ok(opts);
                }
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown flag '{flag}'"));
                }
                positional => {
                    if opts.command.is_none() {
                        opts.command = Some(positional.to_string());
                    } else {
                        opts.positional.push(positional.to_string());
                    }
                }
            }
        }
        Ok(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_command_and_flags() {
        let o = parse(&["fig5", "--seed", "42"]).unwrap();
        assert_eq!(o.command.as_deref(), Some("fig5"));
        assert!(!o.csv);
        assert_eq!(o.seed, Some(42));
    }

    #[test]
    fn collects_positional_args() {
        let o = parse(&["ablate", "rate", "--csv"]).unwrap();
        assert_eq!(o.command.as_deref(), Some("ablate"));
        assert_eq!(o.positional, vec!["rate"]);
        assert!(o.csv);
    }

    #[test]
    fn parses_smoke_flag() {
        let o = parse(&["open", "--smoke", "--json"]).unwrap();
        assert_eq!(o.command.as_deref(), Some("open"));
        assert!(o.smoke);
        assert!(o.json);
        assert!(!parse(&["open"]).unwrap().smoke);
    }

    #[test]
    fn parses_plot_flag() {
        let o = parse(&["fig4", "--plot"]).unwrap();
        assert!(o.plot);
    }

    #[test]
    fn parses_json_flag() {
        let o = parse(&["bench", "--json"]).unwrap();
        assert_eq!(o.command.as_deref(), Some("bench"));
        assert!(o.positional.is_empty());
        assert!(o.json);
    }

    #[test]
    fn parses_check_flag() {
        let o = parse(&["bench", "--check", "BENCH_kernels.json"]).unwrap();
        assert_eq!(o.check.as_deref(), Some("BENCH_kernels.json"));
        assert!(parse(&["bench", "--check"]).is_err());
    }

    #[test]
    fn parses_threads_flag() {
        let o = parse(&["bench", "--threads", "4"]).unwrap();
        assert_eq!(o.threads, Some(4));
        assert!(parse(&["sweep"]).unwrap().threads.is_none());
        assert!(parse(&["bench", "--threads"]).is_err());
        assert!(parse(&["bench", "--threads", "zero"]).is_err());
        assert!(parse(&["bench", "--threads", "0"]).is_err());
    }

    #[test]
    fn parses_rho_flag() {
        let o = parse(&["open", "--smoke", "--rho", "0.9"]).unwrap();
        assert_eq!(o.rho, Some(0.9));
        assert!(parse(&["open"]).unwrap().rho.is_none());
        assert!(parse(&["open", "--rho"]).is_err());
        assert!(parse(&["open", "--rho", "high"]).is_err());
        assert!(parse(&["open", "--rho", "-0.5"]).is_err());
        assert!(parse(&["open", "--rho", "0"]).is_err());
    }

    #[test]
    fn parses_group_flags() {
        let o = parse(&[
            "open",
            "--smoke",
            "--groups",
            "4",
            "--group-alloc",
            "desire",
            "--realloc-epoch",
            "25",
        ])
        .unwrap();
        assert_eq!(o.groups, Some(4));
        assert_eq!(o.group_alloc.as_deref(), Some("desire"));
        assert_eq!(o.realloc_epoch, Some(25));
        let o = parse(&["open"]).unwrap();
        assert!(o.groups.is_none() && o.group_alloc.is_none() && o.realloc_epoch.is_none());
        assert!(parse(&["open", "--groups"]).is_err());
        assert!(parse(&["open", "--groups", "many"]).is_err());
        assert!(parse(&["open", "--group-alloc"]).is_err());
        assert!(parse(&["open", "--realloc-epoch"]).is_err());
        assert!(parse(&["open", "--realloc-epoch", "soon"]).is_err());
        // Zero group counts and epochs parse: the typed config
        // validation owns those rejections, so the CLI surfaces its
        // message rather than a parse error.
        assert_eq!(parse(&["open", "--groups", "0"]).unwrap().groups, Some(0));
        assert_eq!(
            parse(&["open", "--realloc-epoch", "0"])
                .unwrap()
                .realloc_epoch,
            Some(0)
        );
    }

    #[test]
    fn parses_workflow_and_dag_file_flags() {
        let o = parse(&["open", "--smoke", "--workflow", "mapreduce"]).unwrap();
        assert_eq!(o.workflow.as_deref(), Some("mapreduce"));
        assert!(o.dag_file.is_none());
        let o = parse(&["open", "--dag-file", "trace.dag"]).unwrap();
        assert_eq!(o.dag_file.as_deref(), Some("trace.dag"));
        assert!(o.workflow.is_none());
        let o = parse(&["open"]).unwrap();
        assert!(o.workflow.is_none() && o.dag_file.is_none());
        assert!(parse(&["open", "--workflow"]).is_err());
        assert!(parse(&["open", "--dag-file"]).is_err());
        // An unknown family name parses: the command resolves it
        // against WorkflowKind and surfaces that error message.
        assert_eq!(
            parse(&["open", "--workflow", "mosaic"]).unwrap().workflow,
            Some("mosaic".to_string())
        );
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(parse(&["fig1", "--what"]).is_err());
        // Figs. 5 and 6 have one scale, the paper's, and no flag for it.
        assert_eq!(
            parse(&["fig5", "--full"]).unwrap_err(),
            "unknown flag '--full'"
        );
    }

    #[test]
    fn rejects_bad_seed() {
        assert!(parse(&["fig1", "--seed", "abc"]).is_err());
        assert!(parse(&["fig1", "--seed"]).is_err());
    }

    #[test]
    fn help_clears_command() {
        let o = parse(&["fig1", "--help"]).unwrap();
        assert!(o.command.is_none());
    }

    #[test]
    fn empty_args_ok() {
        let o = parse(&[]).unwrap();
        assert!(o.command.is_none());
    }
}
