//! The three `gcrc` workloads end to end: LoopLang text and options in,
//! `gcr_cli::run_source` output bytes out.

use crate::e2e::{Recorder, Runner};
use crate::workload::{cli_items, cli_options, gallery_sweeps, CliItem, Plan, Workload, ENGINE};
use gcr_cli::report::Json;
use gcr_exec::ExecEngine;
use std::time::Instant;

pub struct CliRunner {
    plan: Plan,
    pub items: Vec<CliItem>,
    sweeps: usize,
    /// Latency of every timed operation by item, for the result file.
    item_ms: Vec<(&'static str, f64)>,
}

/// Blanks the wall-clock fields of `gcrc` output (the `ms` column of the
/// pass trace, `wall_ns` in the JSON report) so that two runs of the same
/// input compare byte for byte.
pub fn normalize(out: &str) -> String {
    let mut norm = String::with_capacity(out.len());
    for line in out.lines() {
        if let Some(at) = line.find("\"wall_ns\": ") {
            norm.push_str(&line[..at]);
            norm.push_str("\"wall_ns\": 0");
            if line.ends_with(',') {
                norm.push(',');
            }
        } else if let Some(at) = line.find(" ms  loops ") {
            // The number is right-aligned, so its padding goes with it.
            let digits = |c: char| c.is_ascii_digit() || c == '.' || c == '-';
            norm.push_str(line[..at].trim_end_matches(digits).trim_end());
            norm.push_str(" -");
            norm.push_str(&line[at..]);
        } else {
            norm.push_str(line);
        }
        norm.push('\n');
    }
    norm
}

/// The `gcr-report/v1` document `--report -` appends to the output.
pub fn report_of(out: &str) -> Result<Json, String> {
    let at = out
        .find("{\n  \"schema\": \"gcr-report/v1\"")
        .ok_or_else(|| "no gcr-report/v1 document in the output".to_string())?;
    Json::parse(&out[at..])
}

pub fn as_u64(j: Option<&Json>) -> Option<u64> {
    match j? {
        Json::U(v) => Some(*v),
        Json::I(v) => u64::try_from(*v).ok(),
        _ => None,
    }
}

/// Invariants that tie the three `--hierarchy` sinks and the legacy
/// hierarchy of one report together; `Err` names the first one broken.
fn report_invariants(report: &Json) -> Result<(), String> {
    let hier = report.get("hierarchy").ok_or("no hierarchy section")?;
    let refs = as_u64(hier.get("refs")).ok_or("hierarchy.refs missing")?;
    let legacy = as_u64(report.get("simulation").and_then(|s| s.get("total")?.get("refs")))
        .ok_or("simulation.total.refs missing")?;
    if refs != legacy {
        return Err(format!("refs differ: multi-level {refs}, legacy hierarchy {legacy}"));
    }
    let Some(Json::A(levels)) = hier.get("levels") else { return Err("no levels".into()) };
    let l1 = levels.first().ok_or("no L1")?;
    let touched = as_u64(l1.get("hits")).unwrap_or(0) + as_u64(l1.get("misses")).unwrap_or(0);
    if touched != refs {
        return Err(format!("L1 hits + misses = {touched}, refs = {refs}"));
    }
    let Some(Json::A(bins)) = hier.get("sweep") else { return Err("no sweep bins".into()) };
    let mut last = refs;
    for bin in bins {
        let fa = as_u64(bin.get("fa_misses")).ok_or("fa_misses missing")?;
        let sa = as_u64(bin.get("assoc_misses")).ok_or("assoc_misses missing")?;
        if fa > last {
            return Err(format!("FA misses rise with capacity: {fa} after {last}"));
        }
        if sa > refs {
            return Err(format!("4-way misses {sa} exceed refs {refs}"));
        }
        last = fa;
    }
    Ok(())
}

impl CliRunner {
    fn run_item(&self, item: &CliItem, pass: u64, engine: ExecEngine) -> Result<String, String> {
        let options = cli_options(self.plan.workload, item.size(pass), item.steps, engine);
        gcr_cli::run_source(&item.source, &options).map_err(|e| e.to_string())
    }
}

impl Runner for CliRunner {
    fn setup(plan: &Plan) -> CliRunner {
        let runner = CliRunner {
            plan: *plan,
            items: cli_items(plan),
            sweeps: if plan.workload == Workload::OptGallery { gallery_sweeps(plan) } else { 1 },
            item_ms: Vec::new(),
        };
        // Untimed warm-up: one whole pass, outputs dropped.
        for item in &runner.items {
            std::hint::black_box(runner.run_item(item, 0, ENGINE).ok());
        }
        runner
    }

    fn pass(&mut self, pass: u64, rec: &mut Recorder) -> f64 {
        let mut outputs = Vec::with_capacity(self.items.len() * self.sweeps);
        let started = Instant::now();
        for _ in 0..self.sweeps {
            for item in &self.items {
                let t = Instant::now();
                let out = self.run_item(item, pass, ENGINE);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                rec.latencies_ms.push(ms);
                self.item_ms.push((item.name, ms));
                outputs.push((item, out));
            }
        }
        let wall = started.elapsed().as_secs_f64();
        for (item, out) in outputs {
            let key = item.key(pass);
            match out {
                Ok(out) => {
                    rec.op(None);
                    rec.output(&key, &normalize(&out));
                }
                Err(e) => rec.op(Some(format!("{key}: {e}"))),
            }
        }
        wall
    }

    fn check(&mut self, rec: &mut Recorder) {
        for item in &self.items {
            let key = item.key(0);
            if self.plan.workload == Workload::OptGallery {
                // Nothing is executed here, so there is no second engine to
                // ask; the bounds checker is the independent judge of the
                // emitted program.
                let out = self.run_item(item, 0, ENGINE).unwrap_or_default();
                rec.check(out.contains("bounds check (output): ok"), || {
                    format!("{key}: emitted program fails the bounds check")
                });
                rec.check(!out.contains(" FAIL "), || format!("{key}: a pass was rolled back"));
                continue;
            }
            // The reference interpreter must produce the same report bytes.
            match self.run_item(item, 0, ExecEngine::Interp) {
                Ok(out) => {
                    let same = rec.same_output(&key, &normalize(&out));
                    rec.check(same, || format!("{key}: vm and interp reports differ"));
                    let verdict = report_of(&out).and_then(|r| report_invariants(&r));
                    rec.op(verdict.err().map(|why| format!("{key}: {why}")));
                }
                Err(e) => rec.op(Some(format!("{key} under interp: {e}"))),
            }
        }
    }

    fn describe(&self) -> Json {
        let median_ms = |name: &str| {
            let ms: Vec<f64> =
                self.item_ms.iter().filter(|(n, _)| *n == name).map(|(_, ms)| *ms).collect();
            Json::F(if ms.is_empty() { 0.0 } else { crate::stats::median(&ms) })
        };
        Json::O(vec![
            ("engine", Json::S(ENGINE.name().into())),
            ("sweeps_per_pass", Json::U(self.sweeps as u64)),
            (
                "items",
                Json::A(
                    self.items
                        .iter()
                        .map(|i| {
                            Json::O(vec![
                                ("name", Json::S(i.name.into())),
                                ("base_size", i.base.map_or(Json::Null, Json::I)),
                                ("phase", Json::U(i.phase)),
                                ("steps", Json::U(i.steps as u64)),
                                ("median_ms", median_ms(i.name)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_blanks_only_the_clocks() {
        let out = "pass trace (3 checkpoints):\n  prelim         ok     0.412 ms  loops 4->4 stmts 3->3\n  fusion@3       ok   101.412 ms  loops 84->21\n      \"wall_ns\": 41234,\n      \"wall_ns\": 7\nsimulate N=8\n";
        let norm = normalize(out);
        assert!(norm.contains("  prelim         ok - ms  loops 4->4 stmts 3->3\n"), "{norm}");
        assert!(norm.contains("  fusion@3       ok - ms  loops 84->21\n"), "{norm}");
        assert!(norm.contains("\"wall_ns\": 0,\n"), "{norm}");
        assert!(norm.contains("\"wall_ns\": 0\n"), "{norm}");
        assert!(norm.ends_with("simulate N=8\n"));
        assert_eq!(normalize(&norm), norm);
    }

    #[test]
    fn two_runs_of_one_item_normalize_equal_and_hold_the_invariants() {
        let plan = Plan { workload: Workload::SimFused, seed: 1, quick: true };
        let runner = CliRunner { plan, items: cli_items(&plan), sweeps: 1, item_ms: Vec::new() };
        let item = runner.items.iter().find(|i| i.name == "jacobi2d").unwrap();
        let a = runner.run_item(item, 0, ExecEngine::Vm).unwrap();
        let b = runner.run_item(item, 0, ExecEngine::Interp).unwrap();
        assert_eq!(normalize(&a), normalize(&b));
        report_invariants(&report_of(&a).unwrap()).unwrap();
    }
}
