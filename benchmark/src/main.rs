//! `gcr-benchmark`: end-to-end and per-layer benchmark of the whole
//! LoopLang → report stack. See `benchmark/README.md`.
//!
//! ```text
//! gcr-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1]
//! gcr-benchmark suite [--seed N] [--seconds S] [--traced] [--record]
//! gcr-benchmark compare A.json B.json [--all]
//! gcr-benchmark selfcheck [--seed N] [--seconds S]
//! gcr-benchmark check [--quick] [--bless]
//! ```

mod batchlog;
mod cli_run;
mod compare;
mod e2e;
mod host;
mod layers;
mod result;
mod serve_mix;
mod span;
mod stats;
mod suite;
mod sweep_run;
mod workload;

use gcr_cli::report::Json;
use std::process::ExitCode;
use workload::{Plan, Workload, DEFAULT_SEED};

/// Seconds of timed passes when `--seconds` is not given; `run_seconds` of
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Directory the benchmark writes into, relative to the repository root.
pub const OUT_DIR: &str = "benchmark/out";

pub struct Args(Vec<String>);

impl Args {
    pub fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    pub fn value(&self, name: &str) -> Option<&str> {
        self.0.iter().position(|a| a == name).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None if self.flag(name) => Err(format!("{name} needs a value")),
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v:?}")),
        }
    }

    fn positional(&self) -> Vec<&str> {
        self.0.iter().skip(1).filter(|a| !a.starts_with("--")).map(String::as_str).collect()
    }
}

pub fn write_json(path: &str, json: &Json) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, json.render()).map_err(|e| format!("cannot write {path}: {e}"))
}

pub fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One workload in this process: the driver's entry point.
fn run(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("run needs --workload <name>")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; the workloads are {}", known.join(", "))
    })?;
    let plan =
        Plan { workload, seed: args.parsed("--seed", DEFAULT_SEED)?, quick: args.flag("--quick") };
    let seconds: f64 = args.parsed("--seconds", DEFAULT_SECONDS)?;
    let traced = match args.parsed("--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    println!(
        "gcr-benchmark {} seed {} {}{}",
        workload.name(),
        plan.seed,
        if traced { "traced" } else { "end to end" },
        if plan.quick { " (quick)" } else { "" }
    );

    let (run_json, line, failures) = if traced {
        let t = layers::trace(&plan);
        let path = format!("{OUT_DIR}/trace-{}.json", workload.name());
        write_json(&path, &t.spans.to_json(workload.name()))?;
        for (name, unit, value) in t.layers.iter() {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
        println!("  {} spans written to {path}", t.spans.spans.len());
        (
            result::traced_run_json(&plan, &t),
            result::contract_line(t.attempted, t.failed, t.layers.iter()),
            t.failures,
        )
    } else {
        let bless = args.flag("--bless");
        let r = match workload {
            Workload::ServeMix => e2e::run::<serve_mix::ServeRunner>(&plan, seconds, bless),
            Workload::SweepFig10 => e2e::run::<sweep_run::SweepRunner>(&plan, seconds, bless),
            _ => e2e::run::<cli_run::CliRunner>(&plan, seconds, bless),
        };
        for &(name, s) in &r.metrics {
            println!(
                "  {name:<34} {:>16.6} {:<6} [q1 {:.6}, q3 {:.6}, n {}]",
                s.value,
                result::unit_of(name),
                s.q1,
                s.q3,
                s.n
            );
        }
        println!("  {} passes, outputs hash to {:016x}", r.passes, r.digest);
        let listed = result::END_TO_END.iter().map(|&(name, unit, _)| {
            (name, unit, r.metric(name).expect("every run reports every listed metric").value)
        });
        (result::e2e_run_json(&r), result::contract_line(r.attempted, r.failed, listed), r.failures)
    };
    for f in &failures {
        println!("  FAILED {f}");
    }
    if let Some(path) = args.value("--json") {
        write_json(path, &run_json)?;
    }
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn compare_files(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional()[..] else {
        return Err("compare needs A.json and B.json".into());
    };
    let rows = compare::compare(&read_json(a)?, &read_json(b)?, false)?;
    compare::print(&rows, args.flag("--all"));
    let regressed = rows.iter().filter(|r| r.verdict == compare::Verdict::Regressed).count();
    let unresolved = rows.iter().filter(|r| r.verdict == compare::Verdict::Unresolved).count();
    println!("{} rows, {regressed} regressed, {unresolved} unresolved", rows.len());
    Ok(if regressed > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    // The program under test reads these; a stray setting in the caller's
    // shell must not change what is measured.
    for var in ["GCR_EXEC", "GCR_THREADS", "GCR_FAULT", "GCR_FAULT_SEED", "GCR_MEASURE_CACHE"] {
        std::env::remove_var(var);
    }
    let args = Args(std::env::args().skip(1).collect());
    if !std::path::Path::new("benchmark/golden").is_dir() {
        eprintln!("gcr-benchmark: run from the repository root (benchmark/golden not found here)");
        return ExitCode::from(2);
    }
    let outcome = match args.0.first().map(String::as_str) {
        Some("run") => run(&args),
        Some("suite") => suite::suite(&args),
        Some("compare") => compare_files(&args),
        Some("selfcheck") => suite::selfcheck(&args),
        Some("check") => suite::check(&args),
        _ => {
            Err("usage: gcr-benchmark run|suite|compare|selfcheck|check (see benchmark/README.md)"
                .into())
        }
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("gcr-benchmark: {e}");
        ExitCode::from(2)
    })
}
