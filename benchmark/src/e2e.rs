//! The end-to-end run: set-up, timed passes with tracing off, output
//! checks. One client thread, closed loop; the only other threads are the
//! ones the program itself starts.

use crate::stats::{fnv64, median, quartiles, tail_p99};
use crate::workload::{Plan, DEFAULT_SEED, JITTER};
use gcr_cli::report::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Operation counts, latencies and outputs of one run.
#[derive(Default)]
pub struct Recorder {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
    pub latencies_ms: Vec<f64>,
    /// FNV-64 of each operation's normalized output, by operation key.
    outputs: BTreeMap<String, u64>,
}

impl Recorder {
    /// Counts one operation or check; `problem` describes why it failed.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(why) = problem {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }

    /// Counts a check that must hold.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.op((!holds).then(what));
    }

    /// Records an operation's normalized output. The same operation must
    /// give the same bytes every time it repeats within a run.
    pub fn output(&mut self, key: &str, normalized: &str) {
        let h = fnv64(normalized.as_bytes());
        if let Some(&seen) = self.outputs.get(key) {
            self.check(seen == h, || format!("{key}: output differs between repeats"));
        } else {
            self.outputs.insert(key.to_string(), h);
        }
    }

    /// Whether `normalized` is byte for byte what `key` produced before.
    pub fn same_output(&self, key: &str, normalized: &str) -> bool {
        self.outputs.get(key) == Some(&fnv64(normalized.as_bytes()))
    }

    /// FNV-64 over every (key, output hash) in key order.
    pub fn digest(&self) -> u64 {
        use std::hash::Hasher as _;
        let mut h = gcr_reuse::FnvHasher::default();
        for (key, out) in &self.outputs {
            h.write(key.as_bytes());
            h.write(&[0]);
            h.write(&out.to_le_bytes());
        }
        h.finish()
    }
}

/// A workload's end-to-end behaviour.
pub trait Runner: Sized {
    /// Passes in one cycle.
    const PASSES: u64 = JITTER;
    /// Cycles one set-up can feed.
    const MAX_CYCLES: usize = usize::MAX;
    /// Generates the inputs, starts what the workload needs, and runs the
    /// untimed warm-up.
    fn setup(plan: &Plan) -> Self;
    /// Pushes the whole item list through the entry point once and returns
    /// the seconds that took; bookkeeping on the outputs comes after the
    /// clock stops.
    fn pass(&mut self, pass: u64, rec: &mut Recorder) -> f64;
    /// Output checks that need more than the digest.
    fn check(&mut self, rec: &mut Recorder);
    /// Quality metrics that are not timings (`sim_*_ratio`).
    fn quality(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// Sizes, thread counts and repeat counts, for the result file.
    fn describe(&self) -> Json;
    fn teardown(self) {}
}

/// A timing summarised over its samples.
#[derive(Clone, Copy)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    fn median_of(samples: &[f64]) -> Summary {
        let (q1, q3) = quartiles(samples);
        Summary { value: median(samples), q1, q3, n: samples.len() }
    }

    pub fn exact(value: f64) -> Summary {
        Summary { value, q1: value, q3: value, n: 1 }
    }
}

pub struct RunResult {
    pub plan: Plan,
    /// End-to-end metrics by name, in `BENCHMARK.json` order, followed by
    /// the workload's quality metrics and `failed_share`.
    pub metrics: Vec<(&'static str, Summary)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub digest: u64,
    pub passes: usize,
    pub describe: Json,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<Summary> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, s)| *s)
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn golden_path(plan: &Plan) -> String {
    let quick = if plan.quick { ".quick" } else { "" };
    format!("benchmark/golden/{}{quick}.digest", plan.workload.name())
}

/// Whether the committed digest covers this run. A whole cycle produces
/// the same outputs whatever the seed; what a single quick pass holds is
/// the seed's draw.
fn golden_applies(plan: &Plan) -> bool {
    plan.seed == DEFAULT_SEED || !plan.quick
}

fn check_golden(plan: &Plan, rec: &mut Recorder, bless: bool) {
    let path = golden_path(plan);
    let digest = format!("{:016x}\n", rec.digest());
    if bless {
        if golden_applies(plan) {
            std::fs::write(&path, &digest).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            println!("blessed {path}: {}", digest.trim());
        }
        return;
    }
    if golden_applies(plan) {
        let want = std::fs::read_to_string(&path).unwrap_or_default();
        rec.check(want == digest, || {
            format!(
                "golden mismatch: {path} holds {:?}, outputs hash to {:?}",
                want.trim(),
                digest.trim()
            )
        });
    }
}

/// Runs `plan` end to end for about `seconds` of timed passes.
pub fn run<R: Runner>(plan: &Plan, seconds: f64, bless: bool) -> RunResult {
    let mut rec = Recorder::default();
    let setups = if plan.quick { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut runner: Option<R> = None;
    for _ in 0..setups {
        if let Some(old) = runner.take() {
            old.teardown();
        }
        let t = Instant::now();
        runner = Some(R::setup(plan));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut runner = runner.expect("at least one set-up");

    // Whole cycles of JITTER passes until the time is used up, so that
    // every run does the same work per cycle whatever its seed.
    let mut pass_s = Vec::new();
    let mut cycle_mean_s = Vec::new();
    let timed = Instant::now();
    for _ in 0..if plan.quick { 1 } else { R::MAX_CYCLES } {
        let cycle = Instant::now();
        let first = pass_s.len();
        for pass in 0..if plan.quick { 1 } else { R::PASSES } {
            pass_s.push(runner.pass(pass, &mut rec));
        }
        let passes = &pass_s[first..];
        cycle_mean_s.push(passes.iter().sum::<f64>() / passes.len() as f64);
        // Stop when half of another cycle would overshoot the budget.
        if timed.elapsed().as_secs_f64() + cycle.elapsed().as_secs_f64() / 2.0 > seconds {
            break;
        }
    }
    let rss = peak_rss_mb();
    let latencies = std::mem::take(&mut rec.latencies_ms);

    runner.check(&mut rec);
    check_golden(plan, &mut rec, bless);

    let mut metrics = vec![
        // The mean pass of a cycle, not the median pass: passes of one
        // cycle differ in size, and which sizes meet in the median pass is
        // the seed's choice, while a cycle's total is the same for all.
        ("wall_s", Summary { value: median(&cycle_mean_s), ..Summary::median_of(&pass_s) }),
        ("lat_p50_ms", Summary { n: latencies.len(), ..Summary::exact(median(&latencies)) }),
        ("lat_p99_ms", Summary { n: latencies.len(), ..Summary::exact(tail_p99(&latencies)) }),
        ("peak_rss_mb", Summary::exact(rss)),
        ("setup_s", Summary::median_of(&setup_s)),
    ];
    for (name, value) in runner.quality() {
        metrics.push((name, Summary::exact(value)));
    }
    metrics.push(("failed_share", Summary::exact(rec.failed as f64 / rec.attempted.max(1) as f64)));
    let describe = runner.describe();
    runner.teardown();
    RunResult {
        plan: *plan,
        metrics,
        attempted: rec.attempted,
        failed: rec.failed,
        failures: rec.failures.clone(),
        digest: rec.digest(),
        passes: pass_s.len(),
        describe,
    }
}
