//! `abg-cli` — regenerates every figure and theorem check of the ABG
//! paper as plain-text tables (or CSV).
//!
//! `abg-cli --help` lists the commands and flags; one command table
//! in `commands.rs` drives dispatch, `all`, the flags each command
//! accepts and that help text.
//!
//! `fig5` and `fig6` run the paper's Section 7 set-up (well under a
//! second each, thanks to the fast-forward executors). Every command
//! writes to stdout through `io::Write`, so a reader that closes the
//! pipe early (`| head`) ends the run quietly with exit status 0.

mod commands;
mod json;
mod options;

use options::Options;
use std::io::{self, ErrorKind, Write};
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
    let outcome = match opts.command.as_deref() {
        None => writeln!(io::stdout().lock(), "{}", commands::usage()).map_err(Into::into),
        Some(command) => {
            if let Some(n) = opts.threads {
                // The sweep harness sizes its worker pool from
                // ABG_THREADS; the flag is a per-run override of that
                // variable. Results are thread-count independent — this
                // pins wall-clock behaviour only.
                std::env::set_var("ABG_THREADS", n.to_string());
            }
            commands::run(command, &opts)
        }
    };
    let Err(err) = outcome else {
        return ExitCode::SUCCESS;
    };
    match err.downcast_ref::<io::Error>() {
        // The reader closed the pipe (`| head`): it wants no more output.
        Some(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        _ => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}
