//! `compare A.json B.json`: one row per metric × workload with both sides'
//! medians and quartiles, the bound, and a verdict.

use crate::layers::EXACT;
use crate::result::{unit_of, END_TO_END, EXACT_END_TO_END};
use crate::stats::{median, quartiles};
use gcr_cli::report::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot tell a regression from noise.
    Unresolved,
    /// A per-layer timing: no bound, shown for the reader.
    Info,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// One side's runs of one metric on one workload.
#[derive(Clone, Debug)]
pub struct Side {
    pub values: Vec<f64>,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    /// `(value, q1, q3)` per run. Several runs give their own quartiles; a
    /// single run brings the quartiles of its passes.
    fn of(runs: &[(f64, f64, f64)]) -> Side {
        let values: Vec<f64> = runs.iter().map(|r| r.0).collect();
        let (q1, q3) = if runs.len() > 1 { quartiles(&values) } else { (runs[0].1, runs[0].2) };
        Side { median: median(&values), values, q1, q3 }
    }

    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Side,
    pub b: Side,
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

/// The bound of a metric: the listed one for an end-to-end timing, 0 for a
/// metric that repeats exactly, none for a per-layer timing.
pub fn bound_of(metric: &str) -> Option<f64> {
    if let Some(&(_, _, bound)) = END_TO_END.iter().find(|(n, _, _)| *n == metric) {
        return Some(bound);
    }
    let exact = EXACT_END_TO_END.iter().any(|(n, _)| *n == metric) || EXACT.contains(&metric);
    exact.then_some(0.0)
}

/// `symmetric` is the self-check's reading: the two sides are the same
/// build, so a difference in either direction beyond the bound is a
/// failure to repeat.
fn verdict(a: &Side, b: &Side, bound: Option<f64>, symmetric: bool) -> Verdict {
    let Some(bound) = bound else { return Verdict::Info };
    if bound == 0.0 {
        // Repeats exactly: every run on both sides reads the same.
        let same = a.values.iter().chain(&b.values).all(|v| *v == a.values[0]);
        return if same { Verdict::Ok } else { Verdict::Regressed };
    }
    // Every bounded metric is lower-is-better.
    let worse_by = if a.median == 0.0 { 0.0 } else { (b.median - a.median) / a.median };
    let beyond = if symmetric { worse_by.abs() > bound } else { worse_by > bound };
    let all_better = b.values.iter().all(|vb| a.values.iter().all(|va| vb < va));
    if a.spread().max(b.spread()) > bound && !all_better {
        Verdict::Unresolved
    } else if beyond {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

pub fn number(j: Option<&Json>) -> Option<f64> {
    match j? {
        Json::F(v) => Some(*v),
        Json::U(v) => Some(*v as f64),
        Json::I(v) => Some(*v as f64),
        _ => None,
    }
}

type Runs = Vec<((String, String), Vec<(f64, f64, f64)>)>;

/// `(workload, metric)` → runs, in the file's order.
fn collect(doc: &Json) -> Result<Runs, String> {
    let Some(Json::A(runs)) = doc.get("runs") else { return Err("no `runs` array".into()) };
    let mut out: Runs = Vec::new();
    for run in runs {
        let Some(Json::S(workload)) = run.get("workload") else {
            return Err("run without workload".into());
        };
        let Some(Json::O(metrics)) = run.get("metrics") else {
            return Err("run without metrics".into());
        };
        for (name, m) in metrics {
            let value = number(m.get("value")).ok_or_else(|| format!("{name}: no value"))?;
            let sample =
                (value, number(m.get("q1")).unwrap_or(value), number(m.get("q3")).unwrap_or(value));
            let key = (workload.clone(), name.to_string());
            match out.iter_mut().find(|(k, _)| *k == key) {
                Some((_, samples)) => samples.push(sample),
                None => out.push((key, vec![sample])),
            }
        }
    }
    Ok(out)
}

pub fn compare(a: &Json, b: &Json, symmetric: bool) -> Result<Vec<Row>, String> {
    let (a, b) = (collect(a)?, collect(b)?);
    let mut rows = Vec::new();
    for (key, a_runs) in &a {
        let Some((_, b_runs)) = b.iter().find(|(k, _)| k == key) else { continue };
        let (sa, sb) = (Side::of(a_runs), Side::of(b_runs));
        let bound = bound_of(&key.1);
        rows.push(Row {
            workload: key.0.clone(),
            metric: key.1.clone(),
            verdict: verdict(&sa, &sb, bound, symmetric),
            a: sa,
            b: sb,
            bound,
        });
    }
    Ok(rows)
}

pub fn print(rows: &[Row], all: bool) {
    println!(
        "{:<13} {:<32} {:<6} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A median",
        "A [q1, q3]",
        "B median",
        "B [q1, q3]",
        "change",
        "bound"
    );
    // Without `--all`: the bounded rows a workload actually exercises.
    let shown = |r: &&Row| {
        all || (r.verdict != Verdict::Info
            && (r.a.median != 0.0 || r.b.median != 0.0 || r.metric == "failed_share"))
    };
    for r in rows.iter().filter(shown) {
        let change = if r.a.median == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.1}%", 100.0 * (r.b.median - r.a.median) / r.a.median)
        };
        println!(
            "{:<13} {:<32} {:<6} {:>12.5} {:>25} {:>12.5} {:>25} {:>8} {:>6}  {}",
            r.workload,
            r.metric,
            unit_of(&r.metric),
            r.a.median,
            format!("[{:.5}, {:.5}]", r.a.q1, r.a.q3),
            r.b.median,
            format!("[{:.5}, {:.5}]", r.b.q1, r.b.q3),
            change,
            r.bound.map_or("-".to_string(), |b| format!("{b}")),
            r.verdict.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(wall: &[f64], misses: f64) -> Json {
        Json::O(vec![(
            "runs",
            Json::A(
                wall.iter()
                    .map(|&w| {
                        Json::O(vec![
                            ("workload", Json::S("sim-fused".into())),
                            (
                                "metrics",
                                Json::O(vec![
                                    ("wall_s", Json::O(vec![("value", Json::F(w))])),
                                    ("cache.l1_misses", Json::O(vec![("value", Json::F(misses))])),
                                    ("cache.tee_s", Json::O(vec![("value", Json::F(w / 2.0))])),
                                ]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    fn verdicts(a: &Json, b: &Json, symmetric: bool) -> Vec<Verdict> {
        compare(a, b, symmetric).unwrap().iter().map(|r| r.verdict).collect()
    }

    #[test]
    fn verdicts_follow_bound_spread_and_exactness() {
        let base = doc(&[1.00, 1.01, 0.99, 1.00], 500.0);
        // Within the bound, counts equal.
        assert_eq!(
            verdicts(&base, &doc(&[1.05, 1.04, 1.06, 1.05], 500.0), false),
            [Verdict::Ok, Verdict::Ok, Verdict::Info]
        );
        // Beyond the bound; a count moved.
        assert_eq!(
            verdicts(&base, &doc(&[1.20, 1.21, 1.19, 1.20], 501.0), false),
            [Verdict::Regressed, Verdict::Regressed, Verdict::Info]
        );
        // Spread wider than the bound.
        assert_eq!(
            verdicts(&base, &doc(&[0.8, 1.3, 0.9, 1.4], 500.0), false)[0],
            Verdict::Unresolved
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(verdicts(&base, &doc(&[0.5, 0.9, 0.6, 0.95], 500.0), false)[0], Verdict::Ok);
        // A gain is fine one-sided, a failure to repeat in the self-check.
        let faster = doc(&[0.80, 0.81, 0.79, 0.80], 500.0);
        assert_eq!(verdicts(&base, &faster, false)[0], Verdict::Ok);
        assert_eq!(verdicts(&base, &faster, true)[0], Verdict::Regressed);
    }

    #[test]
    fn bounds_come_from_the_metric_tables() {
        assert_eq!(bound_of("wall_s"), Some(0.10));
        assert_eq!(bound_of("peak_rss_mb"), Some(0.20));
        assert_eq!(bound_of("setup_s"), Some(0.25));
        assert_eq!(bound_of("sim_traffic_ratio"), Some(0.0));
        assert_eq!(bound_of("failed_share"), Some(0.0));
        assert_eq!(bound_of("exec.accesses"), Some(0.0));
        assert_eq!(bound_of("cache.fa_sweep_s"), None);
    }
}
