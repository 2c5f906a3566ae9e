//! Figure 10 — "Effect of Transformations".
//!
//! For each application, measures execution time (modeled cycles) and L1,
//! L2 and TLB miss counts for: the original program, fusion only, and
//! fusion + data regrouping; SP additionally gets the one-level-fusion bar.
//! Values are printed normalized to the original (the paper's bars) along
//! with absolute counts and the original miss rates. A machine-readable
//! report set (schema `gcr-report-set/v1`, one entry per app × strategy
//! with the full pass trace and per-phase miss breakdown) is written to
//! `results/fig10.json` (override with `--json <path>`).
//!
//! All app × strategy measurements run as one job list on the parallel
//! sweep engine: `GCR_THREADS`/`--threads` set the worker count (output is
//! byte-identical for any value), `GCR_MEASURE_CACHE=<file>` persists the
//! content-keyed measurement cache so the `--ablation` superset reuses the
//! base run's points, and the sweep wall clock lands in the report set's
//! `timing` section.

use gcr_bench::sweep::{app_jobs, run_jobs, MeasureCache, SweepJob};
use gcr_bench::{arg, fig10_strategies, print_table, STEPS};
use gcr_cli::{ReportSet, SweepTiming};
use gcr_core::pipeline::Strategy;
use gcr_core::regroup::RegroupLevel;
use std::time::Instant;

const USAGE: &str = "usage: fig10 [--size-scale F] [--steps K] [--ablation] [--app NAME] [--threads N] [--json PATH]";

fn main() {
    // Fail fast on a bad GCR_EXEC instead of silently measuring under the
    // default engine.
    if let Err(e) = gcr_exec::ExecEngine::from_env() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let scale: f64 = arg(USAGE, "--size-scale").unwrap_or(1.0);
    let steps: usize = arg(USAGE, "--steps").unwrap_or(STEPS);
    let ablation = std::env::args().any(|a| a == "--ablation");
    let only: Option<String> = arg(USAGE, "--app");
    let threads: usize = arg(USAGE, "--threads").unwrap_or(0);
    let json_path: String = arg(USAGE, "--json").unwrap_or_else(|| "results/fig10.json".into());
    let mut set = ReportSet::new("fig10", "Figure 10: effect of transformations");

    // One flat job list across apps and strategies, so the pool balances
    // the big kernels against the small ones.
    let apps = gcr_apps::evaluation_apps();
    let mut jobs: Vec<SweepJob<'_>> = Vec::new();
    let mut groups: Vec<(&gcr_apps::AppSpec, i64, usize)> = Vec::new(); // (app, size, #jobs)
    for app in &apps {
        if let Some(name) = &only {
            if !app.name.eq_ignore_ascii_case(name) {
                continue;
            }
        }
        let size = ((app.default_size as f64 * scale) as i64).max(8);
        let mut strategies = fig10_strategies(app.name);
        if ablation {
            strategies.push(Strategy::RegroupOnly);
            strategies.push(Strategy::FusionNoAlign { levels: 3 });
            strategies
                .push(Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::ElementOnly });
            strategies
                .push(Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::AvoidInnermost });
        }
        let added = app_jobs(app, &strategies, size, steps);
        groups.push((app, size, added.len()));
        jobs.extend(added);
    }

    let cache = MeasureCache::from_env();
    let start = Instant::now();
    let mut results = run_jobs(threads, &cache, "fig10", &jobs).into_iter();
    let wall_ns = start.elapsed().as_nanos() as u64;
    if let Err(e) = cache.save() {
        eprintln!("could not persist measurement cache: {e}");
    }

    let mut job_iter = jobs.iter();
    for (app, size, njobs) in groups {
        // One bad kernel (or one strategy the checked pipeline rejects)
        // must not kill the sweep: report it on stderr and keep going.
        let measurements: Vec<_> = results
            .by_ref()
            .take(njobs)
            .zip(job_iter.by_ref().take(njobs))
            .filter_map(|(res, job)| match res {
                Ok((m, report, diagnostics)) => {
                    for d in diagnostics {
                        eprintln!("{}/{}: {d}", app.name, job.strategy.label());
                    }
                    set.reports.push(report);
                    Some(m)
                }
                Err(e) => {
                    eprintln!("{}/{}: skipped: {e}", app.name, job.strategy.label());
                    None
                }
            })
            .collect();
        let Some(base) = measurements.first() else {
            eprintln!("{}: no strategy could be measured", app.name);
            continue;
        };
        let mut rows = Vec::new();
        for m in &measurements {
            let r = m.rel(base);
            rows.push(vec![
                m.label.clone(),
                format!("{:.3}", r[0]),
                format!("{:.3}", r[1]),
                format!("{:.3}", r[2]),
                format!("{:.3}", r[3]),
                format!("{:.2e}", m.cycles),
                format!("{:.1}", m.mflops()),
                m.misses.l1.to_string(),
                m.misses.l2.to_string(),
                m.misses.tlb.to_string(),
            ]);
        }
        print_table(
            &format!(
                "Figure 10: {} {}x (paper size {}), {} steps; original miss rates: L1 {:.2}% L2 {:.3}% TLB {:.4}%",
                app.name,
                size,
                app.paper_size,
                steps,
                100.0 * base.misses.l1_rate(),
                100.0 * base.misses.l2_rate(),
                100.0 * base.misses.tlb_rate(),
            ),
            &[
                "version", "time", "L1", "L2", "TLB", "cycles", "Mf/s", "L1 abs", "L2 abs",
                "TLB abs",
            ],
            &rows,
        );
    }
    set.timing = Some(SweepTiming {
        threads: if threads == 0 { gcr_par::thread_count() } else { threads },
        wall_ns,
        memo_hits: cache.hits(),
        memo_misses: cache.misses(),
        memo_evictions: cache.evictions(),
        memo_corrupt: cache.corrupt(),
    });
    match set.write(&json_path) {
        Ok(()) => println!("\nJSON report set ({} runs) written to {json_path}", set.reports.len()),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
}
