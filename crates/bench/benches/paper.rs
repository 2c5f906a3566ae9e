//! Criterion benches mirroring the paper's experiments at reduced sizes —
//! one group per figure/table, so `cargo bench` exercises every
//! reproduction pipeline end to end. The experiment binaries (`fig3`,
//! `fig10`, `table6`, …) print the full-size tables; these benches track
//! the cost of regenerating them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gcr_apps::AppSpec;
use gcr_bench::capture_trace;
use gcr_bench::sweep::{measure_strategy_report_cached, MeasureCache};
use gcr_bench::Measurement;
use gcr_core::pipeline::Strategy;
use gcr_core::regroup::RegroupLevel;
use gcr_ir::ParamBinding;
use gcr_reuse::driven::{measure_program_order, reuse_driven_order};
use std::hint::black_box;

/// One cold sweep point, as `fig10` and `table6` take it (nothing memoized).
fn measure_strategy(app: &AppSpec, strategy: Strategy, size: i64, steps: usize) -> Measurement {
    measure_strategy_report_cached(&MeasureCache::new(), "bench", app, strategy, size, steps)
        .expect("the bundled apps measure at bench sizes")
        .0
}

/// Figure 3 pipeline: trace capture + program-order histogram +
/// reuse-driven reorder, on ADI.
fn bench_fig3(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3");
    g.sample_size(10);
    for n in [26i64, 50] {
        g.bench_with_input(BenchmarkId::new("adi_reuse_driven", n), &n, |b, &n| {
            let prog = gcr_apps::adi::program();
            b.iter(|| {
                let trace = capture_trace(&prog, ParamBinding::new(vec![n]));
                let (h, _) = measure_program_order(&trace);
                let order = reuse_driven_order(&trace);
                black_box((h.reuses, order.len()))
            });
        });
    }
    g.finish();
}

/// Figure 10 pipeline: optimize + simulate, per strategy, on ADI and SP.
fn bench_fig10(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10");
    g.sample_size(10);
    let strategies = [
        Strategy::Original,
        Strategy::FusionOnly { levels: 3 },
        Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::Multi },
    ];
    for app in gcr_apps::evaluation_apps() {
        if app.name != "ADI" && app.name != "SP" {
            continue;
        }
        let size = if app.name == "SP" { 12 } else { 48 };
        for s in strategies {
            g.bench_with_input(BenchmarkId::new(app.name, s.label()), &s, |b, &s| {
                b.iter(|| black_box(measure_strategy(&app, s, size, 1).cycles));
            });
        }
    }
    g.finish();
}

/// Section 6 pipeline: the SGI-like baseline vs the global strategy.
fn bench_table6(c: &mut Criterion) {
    let mut g = c.benchmark_group("table6");
    g.sample_size(10);
    let apps = gcr_apps::evaluation_apps();
    let tomcatv = apps.iter().find(|a| a.name == "Tomcatv").unwrap();
    for s in [Strategy::Sgi, Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::Multi }] {
        g.bench_with_input(BenchmarkId::new("tomcatv", s.label()), &s, |b, &s| {
            b.iter(|| black_box(measure_strategy(tomcatv, s, 48, 1).misses.l2));
        });
    }
    g.finish();
}

/// The compiler itself (Section 4.1 reports compilation cost): preliminary
/// passes + fusion + regrouping on the SP application.
fn bench_compiler(c: &mut Criterion) {
    let mut g = c.benchmark_group("compiler");
    g.bench_function("sp_full_pipeline", |b| {
        let orig = gcr_apps::sp::program();
        b.iter(|| {
            let opt = gcr_core::pipeline::apply_strategy(
                &orig,
                Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::Multi },
            );
            black_box(opt.fusion.total_fused())
        });
    });
    g.bench_function("sp_parse", |b| {
        let src = gcr_apps::sp::source();
        b.iter(|| black_box(gcr_frontend::parse(&src).unwrap().count_loops()));
    });
    g.finish();
}

criterion_group!(benches, bench_fig3, bench_fig10, bench_table6, bench_compiler);
criterion_main!(benches);
