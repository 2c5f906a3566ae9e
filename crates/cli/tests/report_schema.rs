//! Golden-file test for the `gcr-report/v1` JSON schema: a fixed program
//! is optimized, profiled and simulated deterministically, wall-clock
//! fields are normalized to zero, and the serialized report is compared
//! byte-for-byte against `tests/golden/report.json`.
//!
//! On intentional schema changes, regenerate the golden file with
//! `GCR_BLESS=1 cargo test -p gcr-cli --test report_schema` and review the
//! diff (EXPERIMENTS.md documents the schema and must be updated too).

use gcr_cli::report::{ProfileSection, SimSection};
use gcr_cli::Report;
use gcr_core::checked::SafetyOptions;
use gcr_core::pipeline::Strategy;
use gcr_core::Tracer;
use gcr_exec::{ExecEngine, Machine};
use gcr_ir::ParamBinding;

const SRC: &str = "
program golden
param N
array A[N], B[N]

for i = 1, N {
  A[i] = f(A[i])
}
for i = 1, N {
  B[i] = g(A[i], B[i])
}
";

const SIZE: i64 = 32;

fn build_report() -> Report {
    let prog = gcr_frontend::parse(SRC).unwrap();
    let strategy = Strategy::FusionOnly { levels: 3 };
    let mut tracer = Tracer::enabled();
    let opt = gcr_core::apply_strategy_checked_traced(
        &prog,
        strategy,
        &SafetyOptions::default(),
        &mut tracer,
    )
    .unwrap();
    let mut report =
        Report::new("golden-test", &prog, strategy.label(), &opt, tracer.into_events());

    // One shared run, as `gcrc --simulate 32 --profile --cache-scale 16,64`.
    let bind = ParamBinding::new(vec![SIZE]);
    let layout = opt.layout(&bind);
    let mut m = Machine::capped(&opt.program, bind, layout, ExecEngine::default()).unwrap();
    let mut profile = gcr_reuse::ProfileSink::elements(&opt.program);
    let run = gcr_cache::simulate(&mut m, (16, 64), 1, u64::MAX, &mut profile).unwrap();
    report.profile = Some(ProfileSection { size: SIZE, steps: 1, profile: profile.finish() });
    report.simulation = Some(SimSection {
        size: SIZE,
        steps: 1,
        cycles: run.cycles,
        flops: run.stats.flops,
        total: run.misses,
        phases: run.phases,
    });
    report
}

#[test]
fn report_json_matches_golden() {
    let json = build_report().normalized().to_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/report.json");
    if std::env::var_os("GCR_BLESS").is_some() {
        std::fs::write(path, &json).unwrap();
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing — run once with GCR_BLESS=1 to create it");
    assert_eq!(
        json, golden,
        "JSON report schema drifted from tests/golden/report.json; if the \
         change is intentional, bless with GCR_BLESS=1 and update EXPERIMENTS.md"
    );
}

/// Same workflow for the static-prediction section: probe simulations and
/// polynomial fitting are fully deterministic (no wall-clock state inside
/// the section), so a report carrying a `prediction` — closed-form model
/// strings included — is golden-tested byte-for-byte too.
#[test]
fn static_prediction_report_matches_golden() {
    let prog = gcr_frontend::parse(SRC).unwrap();
    let strategy = Strategy::FusionOnly { levels: 3 };
    let mut tracer = Tracer::disabled();
    let opt = gcr_core::apply_strategy_checked_traced(
        &prog,
        strategy,
        &SafetyOptions::default(),
        &mut tracer,
    )
    .unwrap();
    let mut report =
        Report::new("golden-test", &prog, strategy.label(), &opt, tracer.into_events());

    let spec = gcr_static::SweepSpec::new(32, vec![256, 1024], 1);
    let a = gcr_static::Analyzer::analyze_with(
        &opt.program,
        spec,
        gcr_exec::ExecEngine::default(),
        gcr_static::DEFAULT_PROBE_FUEL,
        |b| opt.layout(b),
    )
    .unwrap();
    let p = a.predict(1_000_000).unwrap();
    let m = a.model();
    report.prediction = Some(gcr_cli::report::PredictionSection {
        size: p.size,
        steps: p.steps,
        line: m.spec.line,
        method: p.method.name().into(),
        class: p.class.name().into(),
        tolerance: p.tolerance,
        degree: m.degree,
        period: m.period,
        regime_base: m.base,
        probe_sims: m.probe_sims,
        refs: p.refs,
        capacities: p
            .capacities
            .iter()
            .enumerate()
            .map(|(ci, cp)| gcr_cli::report::PredictionEntry {
                capacity: cp.capacity,
                misses: cp.misses,
                model: m.capacities[ci].global.render_at("N", p.size),
                per_array: cp
                    .per_array
                    .iter()
                    .enumerate()
                    .map(|(ai, &mi)| (opt.program.arrays[ai].name.clone(), mi))
                    .collect(),
            })
            .collect(),
    });

    let json = report.normalized().to_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/report_static.json");
    if std::env::var_os("GCR_BLESS").is_some() {
        std::fs::write(path, &json).unwrap();
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing — run once with GCR_BLESS=1 to create it");
    assert_eq!(
        json, golden,
        "static-prediction report drifted from tests/golden/report_static.json; \
         if the change is intentional, bless with GCR_BLESS=1 and update EXPERIMENTS.md"
    );
}

#[test]
fn normalization_only_touches_wall_clock() {
    let a = build_report();
    let b = a.clone().normalized();
    assert!(b.trace.iter().all(|e| e.wall_ns == 0));
    let strip = |r: &Report| {
        let mut r = r.clone();
        for e in &mut r.trace {
            e.wall_ns = 0;
        }
        r
    };
    assert_eq!(strip(&a), b, "normalized() must not change any other field");
}
