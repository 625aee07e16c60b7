//! `abg-cli` end to end with a positional argument no command reads.

use std::process::Command;

/// `all bogus --csv` must fail before printing anything: `all` runs
/// every ablation, and a stray argument used to reach `ablate` as an
/// unknown ablation name, whose error was dropped along with all five
/// ablation tables while the command still exited 0.
#[test]
fn all_with_a_stray_argument_fails_before_printing() {
    let out = Command::new(env!("CARGO_BIN_EXE_abg-cli"))
        .args(["all", "bogus", "--csv"])
        .output()
        .expect("abg-cli runs");
    assert!(!out.status.success(), "exit status {:?}", out.status);
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("unexpected argument 'bogus'"), "{stderr}");
}
