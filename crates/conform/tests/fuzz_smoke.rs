//! A small fixed-seed fuzzing run over every oracle: the same harness the
//! CI `fuzz-smoke` job runs at higher iteration counts.

use gcr_conform::{fuzz, ALL_ORACLES};

#[test]
fn smoke_all_oracles() {
    let failures = fuzz(7, 40, &ALL_ORACLES);
    let msgs: Vec<String> = failures
        .iter()
        .map(|f| format!("[{}] iter {}: {}\n{}", f.oracle, f.iter, f.message, f.minimized))
        .collect();
    assert!(msgs.is_empty(), "fuzz smoke failures:\n{}", msgs.join("\n---\n"));
}

/// An unknown `GCR_EXEC` — including `compiled`, an engine name until the
/// tape executor was removed — must stop `gcr-fuzz` before it runs anything,
/// not fall back to the default engine and report green.
#[test]
fn fuzz_rejects_unknown_gcr_exec() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_gcr-fuzz"))
        .args(["--iters", "1", "--oracle", "engine"])
        .env("GCR_EXEC", "compiled")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("interp|vm"), "{stderr}");
}
