//! `abg-cli` — regenerates every figure and theorem check of the ABG
//! paper as plain-text tables (or CSV).
//!
//! `abg-cli --help` lists the commands and flags; one command table
//! in `commands.rs` drives dispatch, `all` and that help text.
//!
//! `--full` switches `fig5`/`fig6` to the paper's full scale (still
//! sub-second thanks to the fast-forward executors); the default is a
//! smaller sweep that preserves the shape.

mod commands;
mod options;

use options::Options;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}\n");
            eprintln!("{}", commands::usage());
            return ExitCode::FAILURE;
        }
    };
    let Some(command) = opts.command.clone() else {
        println!("{}", commands::usage());
        return ExitCode::SUCCESS;
    };
    if let Some(n) = opts.threads {
        // The harness reads ABG_THREADS through
        // `abg::experiments::configured_threads`; the flag is a per-run
        // override of that variable. Results are thread-count
        // independent — this pins wall-clock behaviour only.
        std::env::set_var("ABG_THREADS", n.to_string());
    }
    match commands::run(&command, &opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
