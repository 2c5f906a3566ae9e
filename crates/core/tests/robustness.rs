//! Degradation-ladder tests: a deliberately-broken pass (via the
//! `SafetyOptions::inject_fault` hook) must make `optimize_checked` fall
//! back exactly one rung, report the cause, and still deliver a program
//! semantically equal to the original.

use gcr_core::checked::{apply_strategy_checked, optimize_checked, Pass, SafetyOptions};
use gcr_core::pipeline::Strategy;
use gcr_core::regroup::RegroupLevel;
use gcr_exec::{Machine, NullSink};
use gcr_frontend::parse;
use gcr_ir::{GcrError, ParamBinding};

const SRC: &str = "
program ladder
param N
array A[N, N], B[N, N], C[N, N]

for i = 2, N - 1 {
  for j = 2, N - 1 {
    A[j, i] = 0.25 * (A[j-1, i] + A[j+1, i] + B[j, i-1] + B[j, i+1])
  }
}
for i = 2, N - 1 {
  for j = 2, N - 1 {
    B[j, i] = f(A[j, i])
  }
}
for i = 2, N - 1 {
  for j = 2, N - 1 {
    C[j, i] = g(B[j, i], C[j, i])
  }
}
";

const FULL: Strategy = Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::Multi };

/// The transformed program must compute the same array contents as the
/// original at a size the oracle never saw.
fn assert_same_semantics(orig: &gcr_ir::Program, opt: &gcr_core::OptimizedProgram) {
    let bind = ParamBinding::new(vec![9]);
    let mut m1 = Machine::new(orig, bind.clone());
    m1.run_steps(&mut NullSink, 2);
    let layout = opt.layout(&bind);
    let mut m2 = Machine::with_layout(&opt.program, bind, layout);
    m2.run_steps(&mut NullSink, 2);
    for (ai, decl) in orig.arrays.iter().enumerate() {
        let a1 = gcr_ir::ArrayId::from_index(ai);
        let a2 = opt.program.array_by_name(&decl.name).unwrap();
        assert_eq!(m1.read_array(a1), m2.read_array(a2), "array {}", decl.name);
    }
}

#[test]
fn clean_run_reports_no_fallbacks() {
    let prog = parse(SRC).unwrap();
    let opt = apply_strategy_checked(&prog, FULL, &SafetyOptions::default()).unwrap();
    assert!(!opt.robustness.degraded(), "{:?}", opt.robustness);
    assert_eq!(opt.robustness.strategy, "fuse3+group");
    assert!(opt.plan.is_some());
    // One checkpoint per pass: prelim, fusion levels 1..3, regroup.
    assert_eq!(opt.robustness.checks, 5);
    assert_same_semantics(&prog, &opt);
}

#[test]
fn regroup_fault_drops_one_rung_to_fusion_only() {
    let prog = parse(SRC).unwrap();
    let safety = SafetyOptions { inject_fault: Some(Pass::Regroup), ..Default::default() };
    let opt = apply_strategy_checked(&prog, FULL, &safety).unwrap();
    assert_eq!(opt.robustness.fallbacks.len(), 1, "{:?}", opt.robustness);
    let fb = &opt.robustness.fallbacks[0];
    assert_eq!(fb.pass, Pass::Regroup);
    assert_eq!(fb.from, "fuse3+group");
    assert_eq!(fb.to, "fuse3");
    assert!(
        matches!(fb.cause, GcrError::OracleMismatch { .. }),
        "cause should be the oracle: {}",
        fb.cause
    );
    assert_eq!(opt.robustness.strategy, "fuse3");
    assert!(opt.plan.is_none(), "regrouping plan must be dropped");
    // Fusion survived: the rung below, not a collapse to the original.
    assert!(opt.fusion.total_fused() > 0);
    assert_same_semantics(&prog, &opt);
}

#[test]
fn fusion_fault_falls_back_to_baseline() {
    let prog = parse(SRC).unwrap();
    let safety =
        SafetyOptions { inject_fault: Some(Pass::Fusion { level: 1 }), ..Default::default() };
    let opt = apply_strategy_checked(&prog, FULL, &safety).unwrap();
    let fb = &opt.robustness.fallbacks[0];
    assert_eq!(fb.pass, Pass::Fusion { level: 1 });
    assert_eq!(fb.from, "fuse3+group");
    assert_eq!(fb.to, "sgi-like");
    assert_eq!(opt.robustness.strategy, "sgi-like");
    assert!(opt.plan.is_none());
    assert_same_semantics(&prog, &opt);
}

#[test]
fn deep_fusion_fault_keeps_proven_levels() {
    let prog = parse(SRC).unwrap();
    let safety =
        SafetyOptions { inject_fault: Some(Pass::Fusion { level: 2 }), ..Default::default() };
    let opt = apply_strategy_checked(&prog, FULL, &safety).unwrap();
    let fb = &opt.robustness.fallbacks[0];
    assert_eq!(fb.pass, Pass::Fusion { level: 2 });
    assert_eq!(fb.from, "fuse3+group");
    assert_eq!(fb.to, "fuse1+group");
    // Level-1 fusion kept, regrouping still ran on the good program.
    assert_eq!(opt.robustness.strategy, "fuse1+group");
    assert!(opt.plan.is_some());
    assert_same_semantics(&prog, &opt);
}

#[test]
fn strict_mode_surfaces_the_first_error() {
    let prog = parse(SRC).unwrap();
    let safety =
        SafetyOptions { strict: true, inject_fault: Some(Pass::Regroup), ..Default::default() };
    let err = apply_strategy_checked(&prog, FULL, &safety).unwrap_err();
    assert!(matches!(err, GcrError::OracleMismatch { .. }), "{err}");
}

#[test]
fn no_fallback_stops_at_last_good_program() {
    let prog = parse(SRC).unwrap();
    let safety = SafetyOptions {
        fallback: false,
        inject_fault: Some(Pass::Fusion { level: 1 }),
        ..Default::default()
    };
    let opt = apply_strategy_checked(&prog, FULL, &safety).unwrap();
    // No baseline retry: straight to the original program.
    assert_eq!(opt.robustness.strategy, "original");
    assert!(opt.plan.is_none());
    assert_eq!(opt.fusion.total_fused(), 0);
    assert_same_semantics(&prog, &opt);
}

#[test]
fn fusion_budget_zero_reports_budget_exceeded() {
    let prog = parse(SRC).unwrap();
    let mut opts = FULL.options();
    opts.fusion_opts.max_steps = 0;
    let safety = SafetyOptions { strict: true, ..Default::default() };
    let err = optimize_checked(&prog, &opts, &safety).unwrap_err();
    assert!(
        matches!(
            err,
            GcrError::BudgetExceeded { resource: gcr_ir::Resource::FusionWorklist, limit: 0 }
        ),
        "{err}"
    );
    // Without strict mode the same exhaustion degrades instead of failing.
    let opt = optimize_checked(&prog, &opts, &SafetyOptions::default()).unwrap();
    assert!(opt.robustness.degraded());
    assert_same_semantics(&prog, &opt);
}

#[test]
fn unrunnable_reference_disables_oracle_but_still_optimizes() {
    // A[i+1] walks past the end: the original cannot serve as a semantic
    // reference, so the pipeline falls back to validation-only checks.
    let prog = parse(
        "
program oob
param N
array A[N]
for i = 1, N {
  A[i+1] = f(A[i])
}
",
    )
    .unwrap();
    let opt = optimize_checked(&prog, &FULL.options(), &SafetyOptions::default()).unwrap();
    assert!(opt.robustness.oracle_disabled.is_some(), "{:?}", opt.robustness);
    assert!(!opt.robustness.describe().is_empty());
    // Strict mode refuses instead.
    let strict = SafetyOptions { strict: true, ..Default::default() };
    assert!(optimize_checked(&prog, &FULL.options(), &strict).is_err());
}

#[test]
fn invalid_input_is_fatal_not_degraded() {
    let mut prog = parse(SRC).unwrap();
    // Break the program: a guard on a top-level statement is invalid.
    prog.body[0].guard = Some(gcr_ir::Range::consts(1, 2));
    let err = optimize_checked(&prog, &FULL.options(), &SafetyOptions::default()).unwrap_err();
    assert!(matches!(err, GcrError::Validate { .. }), "{err}");
}

#[test]
fn sgi_strategy_checked_matches_unchecked() {
    let prog = parse(SRC).unwrap();
    let opt = apply_strategy_checked(&prog, Strategy::Sgi, &SafetyOptions::default()).unwrap();
    assert_eq!(opt.robustness.strategy, "sgi-like");
    assert!(!opt.robustness.degraded());
    assert_same_semantics(&prog, &opt);
}

#[test]
fn oracle_fuel_exhaustion_degrades_gracefully() {
    let prog = parse(SRC).unwrap();
    // Starve only the checkpoint runs: the original (3 nests, N=12, 2
    // steps) needs ~2.4k fuel; the fully fused version spends about the
    // same, so pick a budget between "original fits" and "checks fit".
    // Find how much the original needs, then give the checks just that.
    let fuel = {
        let mut m = Machine::new(&prog, ParamBinding::new(vec![12]));
        let mut f = 0u64;
        while m.run_steps_guarded(&mut NullSink, 2, f).is_err() {
            f += 200;
            m = Machine::new(&prog, ParamBinding::new(vec![12]));
        }
        Some(f)
    };
    let safety = SafetyOptions { fuel, ..Default::default() };
    // Must never panic; whether it degrades depends on the transformed
    // programs' instance counts, but the result must stay correct.
    let opt = apply_strategy_checked(&prog, FULL, &safety).unwrap();
    assert_same_semantics(&prog, &opt);
}

#[test]
fn original_strategy_builds_no_oracle() {
    let prog = parse(SRC).unwrap();
    // One unit of fuel cannot run the reference; with no pass there is no
    // checkpoint to consult it, so even strict mode has nothing to refuse.
    let strict = SafetyOptions { fuel: Some(1), strict: true, ..Default::default() };
    let opt = apply_strategy_checked(&prog, Strategy::Original, &strict).unwrap();
    assert_eq!(opt.robustness.checks, 0);
    assert_eq!(opt.robustness.oracle_disabled, None);
    assert_eq!(opt.robustness.strategy, "original");
    // With passes to vet, the same options still refuse up front...
    let starved =
        GcrError::BudgetExceeded { resource: gcr_ir::Resource::InterpreterFuel, limit: 1 };
    assert_eq!(apply_strategy_checked(&prog, FULL, &strict).unwrap_err(), starved);
    assert_eq!(apply_strategy_checked(&prog, Strategy::Sgi, &strict).unwrap_err(), starved);
    // ...and without strict mode the first checkpoint records why the
    // oracle is off, and every pass is still vetted structurally.
    let lenient = SafetyOptions { strict: false, ..strict };
    let opt = apply_strategy_checked(&prog, FULL, &lenient).unwrap();
    assert_eq!(opt.robustness.oracle_disabled, Some(starved));
    assert_eq!(opt.robustness.checks, 5);
    assert!(!opt.robustness.degraded(), "{:?}", opt.robustness);
    assert_eq!(
        opt.robustness.describe(),
        ["warning: semantic oracle disabled (budget exceeded: interpreter fuel limit 1 \
          exhausted); passes checked by validation only"]
    );
    assert_same_semantics(&prog, &opt);
}

#[test]
fn regroup_fault_is_caught_under_the_regrouped_layout() {
    // Two arrays always accessed together, so regrouping interleaves them:
    // the checkpoint that must catch the fault reads every array in place
    // through strides that are not the default layout's.
    let prog = parse(
        "
program pair
param N
array X[N, N], Y[N, N]

for i = 1, N {
  for j = 1, N {
    X[j, i] = f(X[j, i], Y[j, i])
  }
}
for i = 1, N {
  for j = 1, N {
    Y[j, i] = g(X[j, i], Y[j, i])
  }
}
",
    )
    .unwrap();
    let clean = apply_strategy_checked(&prog, FULL, &SafetyOptions::default()).unwrap();
    let bind = ParamBinding::new(vec![12]);
    assert_ne!(
        clean.layout(&bind),
        gcr_exec::DataLayout::column_major(&clean.program, &bind, clean.pad_bytes),
        "regrouping must change the layout for this test to mean anything"
    );
    assert_same_semantics(&prog, &clean);
    let safety = SafetyOptions { inject_fault: Some(Pass::Regroup), ..Default::default() };
    let opt = apply_strategy_checked(&prog, FULL, &safety).unwrap();
    let fb = &opt.robustness.fallbacks[0];
    assert_eq!(fb.pass, Pass::Regroup);
    match &fb.cause {
        GcrError::OracleMismatch { stage, array, detail } => {
            assert_eq!(stage, "regroup");
            assert_eq!(array, "X", "the corrupted statement writes X");
            assert!(detail.starts_with("element 0: "), "first element in logical order: {detail}");
        }
        other => panic!("cause should be the oracle: {other}"),
    }
    assert!(opt.plan.is_none(), "regrouping plan must be dropped");
    assert_same_semantics(&prog, &opt);
}
