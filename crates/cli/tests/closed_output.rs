//! `abg-cli` stdout end to end: every closed command's output in each
//! renderer, and the open smoke table, pinned.
//!
//! Several tables `all` prints have no library golden of their own:
//! Fig. 1's 16-quantum trajectory and the Lemma 2 / Theorem 1, 4, 5
//! grids. (Figs. 5 and 6 run the paper presets, which `FIG5_PAPER` and
//! `FIG6_PAPER` pin in the library.) One fingerprint over the whole
//! stdout pins them together with every other closed command. In the
//! CSV stream each table is headed by a `# <title>` line, so the stream
//! splits back into tables. The text, `--plot` and `open --smoke`
//! goldens pin the aligned renderer, the ASCII charts and the open
//! table's footer.

use abg::experiments::Fingerprint;
use std::process::Command;

const ALL_CSV: u64 = 0x73ae_789c_9a23_20a2;
const ALL_TEXT: u64 = 0x32d6_28f8_b9d6_7727;
const ALL_PLOT: u64 = 0xc89b_7946_633a_fa0a;
const OPEN_SMOKE_TEXT: u64 = 0x7af7_aefb_ea3e_824d;
const OPEN_SMOKE_JSON: u64 = 0x7d68_7ad7_3c3c_72c3;

/// Runs `abg-cli` with `args`, which must succeed, and fingerprints its
/// stdout (length, then every byte); also returns the stdout.
fn stdout_fingerprint(args: &[&str]) -> (u64, Vec<u8>) {
    let out = Command::new(env!("CARGO_BIN_EXE_abg-cli"))
        .args(args)
        .output()
        .expect("abg-cli runs");
    assert!(
        out.status.success(),
        "{args:?}: exit status {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut f = Fingerprint::new();
    f.word(out.stdout.len() as u64);
    for &b in &out.stdout {
        f.word(u64::from(b));
    }
    (f.finish(), out.stdout)
}

#[test]
fn all_csv_matches_golden() {
    let (fingerprint, stdout) = stdout_fingerprint(&["all", "--csv"]);
    assert!(stdout.starts_with(b"# Figure 1: "));
    assert_eq!(fingerprint, ALL_CSV, "all --csv output changed");
}

#[test]
fn all_text_matches_golden() {
    let (fingerprint, stdout) = stdout_fingerprint(&["all"]);
    assert!(stdout.starts_with(b"== Figure 1: "));
    assert_eq!(fingerprint, ALL_TEXT, "all output changed");
}

#[test]
fn all_plot_matches_golden() {
    let (fingerprint, _) = stdout_fingerprint(&["all", "--plot"]);
    assert_eq!(fingerprint, ALL_PLOT, "all --plot output changed");
}

#[test]
fn open_smoke_text_matches_golden() {
    let (fingerprint, stdout) = stdout_fingerprint(&["open", "--smoke"]);
    assert!(stdout.starts_with(b"== Open system: "));
    assert_eq!(fingerprint, OPEN_SMOKE_TEXT, "open --smoke output changed");
}

/// The library pins the smoke sweep's fingerprint (`OPEN_SMOKE` in
/// `tests/open_system.rs`); the CLI must print that same value in its
/// JSON document, which CI's open-system steps read. The whole document
/// is pinned too, which holds the JSON writer's layout.
#[test]
fn open_smoke_json_carries_the_pinned_fingerprint() {
    const OPEN_SMOKE: &str = "0x32ed9525adb1b404";
    let (fingerprint, stdout) = stdout_fingerprint(&["open", "--smoke", "--json"]);
    let json = String::from_utf8(stdout).expect("utf-8 JSON");
    let key = "\"fingerprint\": \"";
    let at = json.find(key).expect("a fingerprint member") + key.len();
    let printed = json[at..].split('"').next().expect("a closing quote");
    assert_eq!(printed, OPEN_SMOKE, "{json}");
    assert_eq!(fingerprint, OPEN_SMOKE_JSON, "open --smoke --json changed");
}
