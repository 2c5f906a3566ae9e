//! The whole suite: every workload in its own child process (so that
//! `peak_rss_mb` is per workload), collected into one result file; and the
//! two gates built on it, `selfcheck` and `check`.

use crate::compare::{self, Verdict};
use crate::layers::EXACT;
use crate::workload::{Workload, DEFAULT_SEED};
use crate::{read_json, write_json, Args, DEFAULT_SECONDS, OUT_DIR};
use gcr_cli::report::Json;
use std::io::Write as _;
use std::process::{Command, ExitCode};

const RESULTS_DIR: &str = "benchmark/results";

#[derive(Clone, Copy)]
struct SuiteRun {
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    bless: bool,
}

/// Runs every workload as `gcr-benchmark run ...` in a child of its own
/// and returns the result document.
fn run_suite(s: &SuiteRun) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut runs = Vec::new();
    for w in Workload::ALL {
        let path = format!("{OUT_DIR}/run-{}.json", w.name());
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w.name(), "--json", &path])
            .args(["--seed", &s.seed.to_string()])
            .args(["--seconds", &s.seconds.to_string()])
            .args(["--trace", if s.traced { "1" } else { "0" }]);
        if s.quick {
            cmd.arg("--quick");
        }
        if s.bless {
            cmd.arg("--bless");
        }
        let status = cmd.status().map_err(|e| format!("cannot start the {} run: {e}", w.name()))?;
        if !status.success() {
            return Err(format!("the {} run ended with {status}", w.name()));
        }
        runs.push(read_json(&path)?);
        let _ = std::fs::remove_file(&path);
    }
    Ok(Json::O(vec![
        ("schema", Json::S("gcr-benchmark-result/v1".into())),
        ("host", crate::host::facts(s.seed)),
        ("run_seconds", Json::F(s.seconds)),
        ("runs", Json::A(runs)),
    ]))
}

fn runs_of(doc: &Json) -> &[Json] {
    match doc.get("runs") {
        Some(Json::A(runs)) => runs,
        _ => &[],
    }
}

fn count(run: &Json, key: &str) -> u64 {
    crate::cli_run::as_u64(run.get(key)).unwrap_or(0)
}

fn failed_operations(doc: &Json) -> u64 {
    runs_of(doc).iter().map(|r| count(r, "failed")).sum()
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    compare::number(run.get("metrics")?.get(name)?.get("value"))
}

fn workload_of(run: &Json) -> &str {
    match run.get("workload") {
        Some(Json::S(name)) => name,
        _ => "?",
    }
}

fn suite_run_of(args: &Args) -> Result<SuiteRun, String> {
    Ok(SuiteRun {
        seed: args.parsed("--seed", DEFAULT_SEED)?,
        seconds: args.parsed("--seconds", DEFAULT_SECONDS)?,
        traced: args.flag("--traced"),
        quick: args.flag("--quick"),
        bless: args.flag("--bless"),
    })
}

/// Layer numbers worth a column in the history line.
const HEADLINES: [&str; 8] = [
    "cli.unattributed_share",
    "core.verify_share",
    "exec.batched_event_share",
    "exec.vm_speedup",
    "cache.fa_over_assoc",
    "par.sweep_speedup",
    "serve.transport_us",
    "trace_overhead_share",
];

/// One line of `history.jsonl`: git rev, when, and every end-to-end value
/// plus the headline layer numbers, per workload.
fn history_line(e2e: &Json, traced: &Json) -> String {
    let per_workload = |doc: &Json, names: &dyn Fn(&Json) -> Vec<(&'static str, Json)>| {
        Json::O(
            runs_of(doc)
                .iter()
                .filter_map(|run| {
                    let w = Workload::from_name(workload_of(run))?;
                    Some((w.name(), Json::O(names(run))))
                })
                .collect(),
        )
    };
    let when = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    crate::result::compact(&Json::O(vec![
        ("git_rev", Json::S(crate::host::git_rev())),
        ("unix_time", Json::U(when)),
        ("host", e2e.get("host").cloned().unwrap_or(Json::Null)),
        (
            "end_to_end",
            per_workload(e2e, &|run| match run.get("metrics") {
                Some(Json::O(ms)) => ms
                    .iter()
                    .filter_map(|(name, _)| Some((*name, Json::F(metric(run, name)?))))
                    .collect(),
                _ => Vec::new(),
            }),
        ),
        (
            "layers",
            per_workload(traced, &|run| {
                HEADLINES.iter().filter_map(|&n| Some((n, Json::F(metric(run, n)?)))).collect()
            }),
        ),
    ]))
}

/// `suite`: the end-to-end suite (or, with `--traced`, the traced one).
/// `--record` runs both and commits them to `benchmark/results/`.
pub fn suite(args: &Args) -> Result<ExitCode, String> {
    let s = suite_run_of(args)?;
    if args.flag("--record") {
        return record(&s);
    }
    let doc = run_suite(&s)?;
    let path = format!("{OUT_DIR}/{}.json", if s.traced { "layers" } else { "result" });
    write_json(&path, &doc)?;
    println!("{path} written");
    let failed = failed_operations(&doc);
    if failed > 0 {
        println!("{failed} operations failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Both suites, written to `benchmark/results/` as the numbers of this
/// commit; nothing is recorded when an operation failed.
fn record(s: &SuiteRun) -> Result<ExitCode, String> {
    let e2e = run_suite(&SuiteRun { traced: false, ..*s })?;
    let traced = run_suite(&SuiteRun { traced: true, ..*s })?;
    let failed = failed_operations(&e2e) + failed_operations(&traced);
    if failed > 0 {
        return Err(format!("{failed} operations failed; nothing recorded"));
    }
    write_json(&format!("{RESULTS_DIR}/baseline.json"), &e2e)?;
    write_json(&format!("{RESULTS_DIR}/layers.json"), &traced)?;
    let history = format!("{RESULTS_DIR}/history.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)
        .map_err(|e| format!("cannot open {history}: {e}"))?;
    writeln!(file, "{}", history_line(&e2e, &traced))
        .map_err(|e| format!("cannot append to {history}: {e}"))?;
    println!("recorded baseline.json, layers.json and one line of history.jsonl in {RESULTS_DIR}");
    Ok(ExitCode::SUCCESS)
}

/// `selfcheck`: the suite twice on this build. Every end-to-end metric
/// must agree within its bound and every exact metric be identical, on the
/// default seed and, for the exact ones, on one other seed.
pub fn selfcheck(args: &Args) -> Result<ExitCode, String> {
    let base = suite_run_of(args)?;
    let mut bad = 0usize;
    for (seed, traced) in [(base.seed, false), (base.seed, true), (base.seed + 1, true)] {
        let leg = SuiteRun { seed, traced, bless: false, ..base };
        let kind = if traced { "traced" } else { "end-to-end" };
        println!("== selfcheck: {kind} suite twice, seed {seed}");
        let (a, b) = (run_suite(&leg)?, run_suite(&leg)?);
        let stem = format!("{OUT_DIR}/selfcheck-{kind}-{seed}");
        write_json(&format!("{stem}-a.json"), &a)?;
        write_json(&format!("{stem}-b.json"), &b)?;
        let rows = compare::compare(&a, &b, true)?;
        compare::print(&rows, false);
        bad += rows.iter().filter(|r| !matches!(r.verdict, Verdict::Ok | Verdict::Info)).count();
        let failed = failed_operations(&a) + failed_operations(&b);
        if failed > 0 {
            println!("{failed} operations failed");
            bad += 1;
        }
    }
    if bad > 0 {
        println!("selfcheck: {bad} rows do not repeat");
        return Ok(ExitCode::FAILURE);
    }
    println!("selfcheck: every end-to-end metric within its bound, every exact metric identical");
    Ok(ExitCode::SUCCESS)
}

/// Largest share of a `gcrc` workload's pass the traced run may leave
/// without a named layer span.
const MAX_UNATTRIBUTED: f64 = 0.15;
/// Drift of a layer's share of the pass that `check` points out.
const SHARE_DRIFT: f64 = 0.10;

fn counts_path(workload: &str, quick: bool) -> String {
    format!("benchmark/golden/{workload}{}.layers.json", if quick { ".quick" } else { "" })
}

/// The exact counts and the layer shares of one traced run, the content of
/// a `golden/*.layers.json` file.
fn counts_of(run: &Json) -> Json {
    Json::O(vec![
        (
            "exact",
            Json::O(EXACT.iter().filter_map(|&n| Some((n, Json::F(metric(run, n)?)))).collect()),
        ),
        ("shares", run.get("shares").cloned().unwrap_or(Json::O(Vec::new()))),
    ])
}

/// `check`: output checks only. One pass per workload (with `--quick`, at
/// sizes ÷ 4), end to end and traced. Compares digests, exact counts and
/// layer shares, never absolute times, so it reads the same on any host.
pub fn check(args: &Args) -> Result<ExitCode, String> {
    let quick = args.flag("--quick");
    let bless = args.flag("--bless");
    let mut problems = Vec::new();
    // `--seconds 0`: one cycle (one pass when quick) and no more.
    let base = SuiteRun { seed: DEFAULT_SEED, seconds: 0.0, traced: false, quick, bless };
    let e2e = run_suite(&base)?;
    let traced = run_suite(&SuiteRun { traced: true, ..base })?;
    for run in runs_of(&e2e).iter().chain(runs_of(&traced)) {
        if count(run, "failed") > 0 {
            problems.push(format!(
                "{}: {} operations failed",
                workload_of(run),
                count(run, "failed")
            ));
        }
    }
    for run in runs_of(&traced) {
        let workload = workload_of(run);
        let unattributed = metric(run, "cli.unattributed_share").unwrap_or(0.0);
        if unattributed > MAX_UNATTRIBUTED {
            problems.push(format!(
                "{workload}: cli.unattributed_share is {unattributed:.3}, above {MAX_UNATTRIBUTED}"
            ));
        }
        let path = counts_path(workload, quick);
        let now = counts_of(run);
        if bless {
            write_json(&path, &now)?;
            println!("blessed {path}");
            continue;
        }
        let recorded = read_json(&path)?;
        for &name in EXACT {
            let (want, got) = (
                recorded.get("exact").and_then(|e| e.get(name)),
                now.get("exact").and_then(|e| e.get(name)),
            );
            if want != got {
                problems.push(format!("{workload}: {name} is {got:?}, recorded {want:?}"));
            }
        }
        if let (Some(Json::O(now)), Some(recorded)) = (now.get("shares"), recorded.get("shares")) {
            for (span, share) in now {
                let (Json::F(share), Some(Json::F(was))) = (share, recorded.get(span)) else {
                    continue;
                };
                let drift = if (share - was).abs() > SHARE_DRIFT { "  <- drifted" } else { "" };
                println!("  {workload:<13} {span:<18} share {share:.3}, recorded {was:.3}{drift}");
            }
        }
    }
    if problems.is_empty() {
        println!("check: every operation succeeded, digests and exact counts match");
        return Ok(ExitCode::SUCCESS);
    }
    for p in &problems {
        println!("check: {p}");
    }
    Ok(ExitCode::FAILURE)
}
