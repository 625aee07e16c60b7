//! `abg-cli` end to end with a reader that closes stdout early.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// `abg-cli all --csv | head -1`: the reader takes one line and closes
/// the pipe while Figs. 5 and 6 are still running. The next write fails
/// with a broken pipe, which must end the run quietly with status 0,
/// not with a `print!` panic and exit status 101.
#[test]
fn a_closed_pipe_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_abg-cli"))
        .args(["all", "--csv"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("abg-cli runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("one line");
    assert!(first.starts_with("# Figure 1: "), "{first}");
    // The reader is dropped here, which closes the pipe.
    let out = child.wait_with_output().expect("abg-cli exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exit status {:?}: {stderr}",
        out.status
    );
    assert!(stderr.is_empty(), "a panic or message on stderr: {stderr}");
}
