//! `sweep-fig10` end to end: the regenerate-the-figure user. Sweep jobs in,
//! `gcr-report-set/v1` bytes out, through `gcr_bench::sweep::run_jobs_with`
//! on the `gcr-par` pool with a fresh `MeasureCache` per sweep.

use crate::e2e::{Recorder, Runner};
use crate::workload::{sweep_apps, Plan, SweepApp, ENGINE, SWEEP_STEPS};
use gcr_bench::sweep::{app_jobs, run_jobs_with, JobResult, MeasureCache, SweepJob};
use gcr_bench::Measurement;
use gcr_cli::report::Json;
use gcr_cli::ReportSet;
use gcr_core::pipeline::Strategy;
use gcr_exec::ExecEngine;
use std::collections::BTreeMap;
use std::time::Instant;

const GENERATOR: &str = "gcr-benchmark";

/// Sweep workers: the two cores of the reference host, or fewer.
pub fn sweep_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

pub struct SweepRunner {
    pub apps: Vec<SweepApp>,
    pub threads: usize,
    ratios: FusedRatios,
}

/// The paper's result in simulated units: memory traffic and cycles of
/// fuse3+group over original, per `(app, size)` measured.
#[derive(Default)]
pub struct FusedRatios {
    original: BTreeMap<(&'static str, i64), (u64, f64)>,
    ratios: BTreeMap<(&'static str, i64), (f64, f64)>,
}

impl FusedRatios {
    /// Takes in one job's measurement. An app's original job comes before
    /// its fused ones in every job list.
    pub fn note(&mut self, job: &SweepJob<'_>, m: &Measurement) {
        let at = (job.app.name, job.size);
        match job.strategy {
            Strategy::Original => {
                self.original.insert(at, (m.misses.memory_traffic, m.cycles));
            }
            Strategy::FusionRegroup { .. } => {
                if let Some(&(traffic, cycles)) = self.original.get(&at) {
                    let t = m.misses.memory_traffic as f64 / traffic.max(1) as f64;
                    self.ratios.insert(at, (t, m.cycles / cycles.max(1.0)));
                }
            }
            _ => {}
        }
    }

    pub fn len(&self) -> usize {
        self.ratios.len()
    }

    /// Geometric means `(traffic, cycles)` over the pairs measured, summed
    /// in key order so that the result does not depend on the order the
    /// measurements came in.
    pub fn geomeans(&self) -> (f64, f64) {
        let n = self.ratios.len().max(1) as f64;
        let (t, c) =
            self.ratios.values().fold((0.0, 0.0), |(t, c), r| (t + r.0.ln(), c + r.1.ln()));
        ((t / n).exp(), (c / n).exp())
    }
}

/// The job list of one pass, in figure order.
pub fn jobs_of(apps: &[SweepApp], pass: u64) -> Vec<SweepJob<'_>> {
    apps.iter()
        .flat_map(|a| {
            app_jobs(&a.app, &gcr_bench::fig10_strategies(a.app.name), a.size(pass), SWEEP_STEPS)
        })
        .collect()
}

pub fn job_key(job: &SweepJob<'_>) -> String {
    format!("{}/{}@{}", job.app.name, job.strategy.label(), job.size)
}

/// One sweep, as the `fig10` binary does it: run the jobs, collect the
/// reports into a set, serialize.
pub fn sweep(
    threads: usize,
    jobs: &[SweepJob<'_>],
    engine: ExecEngine,
) -> (Vec<JobResult>, String) {
    let cache = MeasureCache::new();
    let results = run_jobs_with(threads, &cache, GENERATOR, jobs, engine);
    let mut set = ReportSet::new(GENERATOR, "figure 10 sweep");
    for (_, report, _) in results.iter().flatten() {
        set.reports.push(report.clone());
    }
    let json = set.to_json();
    (results, json)
}

impl SweepRunner {
    /// Records outputs and the fused-over-original ratios of one sweep.
    fn record(&mut self, jobs: &[SweepJob<'_>], results: &[JobResult], rec: &mut Recorder) {
        for (job, result) in jobs.iter().zip(results) {
            let key = job_key(job);
            match result {
                Ok((m, report, _)) => {
                    rec.op(None);
                    rec.output(&key, &report.clone().normalized().to_json());
                    self.ratios.note(job, m);
                }
                Err(e) => rec.op(Some(format!("{key}: {e}"))),
            }
        }
    }
}

impl Runner for SweepRunner {
    fn setup(plan: &Plan) -> SweepRunner {
        let runner = SweepRunner {
            apps: sweep_apps(plan),
            threads: sweep_threads(),
            ratios: FusedRatios::default(),
        };
        std::hint::black_box(sweep(runner.threads, &jobs_of(&runner.apps, 0), ENGINE));
        runner
    }

    fn pass(&mut self, pass: u64, rec: &mut Recorder) -> f64 {
        let apps = std::mem::take(&mut self.apps);
        let jobs = jobs_of(&apps, pass);
        let started = Instant::now();
        let (results, json) = sweep(self.threads, &jobs, ENGINE);
        let wall = started.elapsed().as_secs_f64();
        std::hint::black_box(json);
        rec.latencies_ms.push(wall * 1e3);
        self.record(&jobs, &results, rec);
        drop(jobs);
        self.apps = apps;
        wall
    }

    fn check(&mut self, rec: &mut Recorder) {
        // The reference interpreter must measure the same numbers.
        let jobs = jobs_of(&self.apps, 0);
        let (results, _) = sweep(self.threads, &jobs, ExecEngine::Interp);
        for (job, result) in jobs.iter().zip(&results) {
            let key = job_key(job);
            match result {
                Ok((_, report, _)) => {
                    let json = report.clone().normalized().to_json();
                    let same = rec.same_output(&key, &json);
                    rec.check(same, || format!("{key}: vm and interp reports differ"));
                }
                Err(e) => rec.op(Some(format!("{key} under interp: {e}"))),
            }
        }
        rec.check(self.ratios.len() > 0, || "no fused/original pair was measured".into());
    }

    fn quality(&self) -> Vec<(&'static str, f64)> {
        let (traffic, cycles) = self.ratios.geomeans();
        vec![("sim_traffic_ratio", traffic), ("sim_cycles_ratio", cycles)]
    }

    fn describe(&self) -> Json {
        Json::O(vec![
            ("engine", Json::S(ENGINE.name().into())),
            ("sweep_threads", Json::U(self.threads as u64)),
            ("steps", Json::U(SWEEP_STEPS as u64)),
            (
                "apps",
                Json::A(
                    self.apps
                        .iter()
                        .map(|a| {
                            Json::O(vec![
                                ("name", Json::S(a.app.name.into())),
                                ("base_size", Json::I(a.base)),
                                ("phase", Json::U(a.phase)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("ratio_points", Json::U(self.ratios.len() as u64)),
        ])
    }
}
