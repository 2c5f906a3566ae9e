//! The experiment binaries take their `--flag VALUE` options through
//! `gcr_bench::arg`: a value that does not parse is a usage error (exit 2),
//! not an `unwrap` panic (exit 101).

use std::process::Command;

fn rejects(bin: &str, name: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(stderr.contains(args[0]), "{name} must name the flag: {stderr}");
    assert!(stderr.contains(&format!("usage: {name} ")), "{name} must print its usage: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "{name} {args:?} must stop before measuring");
}

#[test]
fn bad_option_values_are_usage_errors() {
    rejects(env!("CARGO_BIN_EXE_fig10"), "fig10", &["--threads", "x"]);
    rejects(env!("CARGO_BIN_EXE_table6"), "table6", &["--steps", "-1"]);
    rejects(env!("CARGO_BIN_EXE_fig10"), "fig10", &["--json"]);
}
