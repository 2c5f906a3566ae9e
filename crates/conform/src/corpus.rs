//! The minimized regression corpus: `corpus/*.loop`.
//!
//! Every file is a small LoopLang program — a shrunk fuzzing reproducer or
//! a hand-minimized edge case — replayed by the test suite on every build.
//! Replay re-runs the conformance oracles that apply to arbitrary
//! programs, plus the frontend round-trip property, under whichever
//! execution engine `GCR_EXEC` selects for the plain run. New fuzzing
//! failures land here automatically: `gcr-fuzz` writes the minimized
//! program next to its diagnostic, and committing the `.loop` file turns
//! the failure into a permanent regression test.

use crate::oracles::{run_oracle, Oracle};
use gcr_ir::{ParamBinding, Program};
use std::path::{Path, PathBuf};

/// Directory holding the committed corpus.
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// All committed corpus files, sorted by name (deterministic replay
/// order).
pub fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory must exist")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "loop"))
        .collect();
    files.sort();
    files
}

/// Replays one corpus program through every applicable oracle. Returns the
/// first violation, prefixed with the failing check's name.
pub fn replay(src: &str) -> Result<(), String> {
    let prog = gcr_frontend::parse(src).map_err(|e| format!("parse: {e}"))?;
    gcr_ir::validate::validate(&prog).map_err(|e| format!("validate: {e:?}"))?;

    // Round-trip: the printer and parser must agree exactly on
    // parser-originated programs.
    let printed = gcr_ir::print::print_program(&prog);
    let back = gcr_frontend::parse(&printed).map_err(|e| format!("reparse: {e}"))?;
    if back != prog {
        return Err(format!("round-trip: parse(print(p)) != p\n--- printed:\n{printed}"));
    }

    // Plain run under the env-selected engine (the corpus must execute
    // under both `GCR_EXEC=interp` and `GCR_EXEC=vm`).
    let binding = ParamBinding::new(vec![12; prog.params.len()]);
    let mut m = gcr_exec::Machine::new(&prog, binding);
    m.run_steps_guarded(&mut gcr_exec::NullSink, 2, 50_000_000)
        .map_err(|e| format!("plain run: {e}"))?;

    for oracle in [Oracle::Engine, Oracle::Sweep, Oracle::Profile, Oracle::Static, Oracle::Assoc] {
        run_oracle(oracle, &prog).map_err(|e| format!("{oracle}: {e}"))?;
    }
    // The optimizer oracle compares with a relative tolerance, which is
    // only meaningful when the program computes finite values.
    if finite_at(&prog, 16) {
        run_oracle(Oracle::Optimize, &prog).map_err(|e| format!("optimize: {e}"))?;
    }
    Ok(())
}

/// True when every array element stays finite after the oracle run shape.
fn finite_at(prog: &Program, n: i64) -> bool {
    let binding = ParamBinding::new(vec![n; prog.params.len()]);
    let mut m = gcr_exec::Machine::new(prog, binding);
    if m.run_steps_guarded(&mut gcr_exec::NullSink, 2, 50_000_000).is_err() {
        return false;
    }
    (0..prog.arrays.len())
        .all(|i| m.read_array(gcr_ir::ArrayId::from_index(i)).iter().all(|v| v.is_finite()))
}
