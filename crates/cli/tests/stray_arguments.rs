//! `abg-cli` end to end with arguments it must refuse before printing
//! anything: a positional or a flag no command reads, and a `bench
//! --check` baseline that cannot be read.

use std::process::{Command, Output};

/// Runs `abg-cli` with `args`, which must fail with empty stdout, and
/// returns its stderr.
fn refused(args: &[&str]) -> String {
    let out: Output = Command::new(env!("CARGO_BIN_EXE_abg-cli"))
        .args(args)
        .output()
        .expect("abg-cli runs");
    assert!(
        !out.status.success(),
        "{args:?}: exit status {:?}",
        out.status
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8(out.stderr).expect("utf-8 stderr")
}

/// `all bogus --csv` must fail before printing anything: `all` runs
/// every ablation, and a stray argument used to reach `ablate` as an
/// unknown ablation name, whose error was dropped along with all five
/// ablation tables while the command still exited 0.
#[test]
fn all_with_a_stray_argument_fails_before_printing() {
    let stderr = refused(&["all", "bogus", "--csv"]);
    assert!(stderr.contains("unexpected argument 'bogus'"), "{stderr}");
}

/// A flag only other commands read used to be ignored: `bench --smoke`
/// ran the full suite and `fig6 --json` printed a text table.
#[test]
fn a_flag_the_command_never_reads_fails_before_printing() {
    for (args, flag) in [
        (&["fig5", "--rho", "0.5"][..], "--rho"),
        (&["bench", "--smoke"], "--smoke"),
        (&["fig6", "--json"], "--json"),
    ] {
        let stderr = refused(args);
        let expected = format!("flag '{flag}' does not apply to '{}' (try --help)", args[0]);
        assert!(stderr.contains(&expected), "{stderr}");
    }
}

/// `bench --check` reads its baseline before the kernel suite runs, so
/// a missing file fails at once, with no kernel table on stdout.
#[test]
fn bench_check_with_a_missing_baseline_fails_before_the_suite() {
    let stderr = refused(&["bench", "--check", "/no/such/file.json"]);
    assert!(
        stderr.contains("cannot read baseline /no/such/file.json"),
        "{stderr}"
    );
}
