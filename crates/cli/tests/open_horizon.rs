//! `abg-cli open` end to end at a load so small that arrival clocks
//! run past the last quantum boundary a `u64` can hold.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// At ρ = 1e-16 the smoke sweep's arrival gaps (~6·10¹⁷ steps) push the
/// clock past `u64::MAX` long before every measured job arrives. The
/// run must end promptly with both schedulers' rows marked unstable —
/// never wrap the clock and spin.
#[test]
fn open_smoke_at_a_vanishing_rho_ends_unstable() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_abg-cli"))
        .args(["open", "--smoke", "--rho", "1e-16", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("abg-cli starts");
    let start = Instant::now();
    while child.try_wait().expect("abg-cli is waitable").is_none() {
        if start.elapsed() > Duration::from_secs(60) {
            child.kill().expect("kill the hung run");
            panic!("open --smoke --rho 1e-16 still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("abg-cli output");
    assert!(
        out.status.success(),
        "abg-cli failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8(out.stdout).expect("utf-8 JSON");
    assert_eq!(json.matches("\"stable\": false").count(), 2, "{json}");
    assert!(!json.contains("\"stable\": true"), "{json}");
}
