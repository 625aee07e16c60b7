//! `abg-cli all --csv` end to end: every closed command's output, pinned.
//!
//! Several tables `all` prints have no library golden of their own: the
//! default `fig5`/`fig6` presets, Fig. 1's 16-quantum trajectory and the
//! Lemma 2 / Theorem 1, 4, 5 grids. One fingerprint over the whole stdout
//! pins them together with every other closed command. Each table is
//! headed by a `# <title>` line, so the stream splits back into tables.

use abg::experiments::Fingerprint;
use std::process::Command;

const ALL_CSV: u64 = 0x3a9e_dedf_0ab7_54ef;

#[test]
fn all_csv_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_abg-cli"))
        .args(["all", "--csv"])
        .output()
        .expect("abg-cli runs");
    assert!(
        out.status.success(),
        "exit status {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.starts_with(b"# Figure 1: "));
    let mut f = Fingerprint::new();
    f.word(out.stdout.len() as u64);
    for &b in &out.stdout {
        f.word(u64::from(b));
    }
    assert_eq!(f.finish(), ALL_CSV, "all --csv output changed");
}
