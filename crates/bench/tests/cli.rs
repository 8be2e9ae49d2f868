//! Bench binaries refuse arguments they do not understand: a typo such
//! as `--thread 4` must fail loudly instead of silently running the
//! default configuration.

use std::process::Command;

#[test]
fn unknown_flag_exits_with_code_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig2a")).arg("--bogus").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stdout.is_empty(), "no work may run before the check");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--bogus"));
}
