//! The shape of what a run leaves behind: the one-line result the driver
//! reads, and the per-run object of `result.json`.

use crate::e2e::{RunResult, Summary};
use crate::layers::Traced;
use crate::workload::Plan;
use gcr_cli::report::Json;

/// End-to-end metrics every workload reports: name, unit, regression
/// bound. `BENCHMARK.json` lists exactly these. Each bound is at least
/// three times the widest spread seen over ten seeds on any workload
/// (README.md has the table): 2.3 % for `wall_s`, 4.1 % for `lat_p50_ms`
/// (sub-millisecond files on `opt-gallery`), 3.2 % for `lat_p99_ms`, 6.3 %
/// for `peak_rss_mb` (which two sweep jobs overlap on the two workers).
pub const END_TO_END: &[(&str, &str, f64)] = &[
    ("wall_s", "s", 0.10),
    ("lat_p50_ms", "ms", 0.15),
    ("lat_p99_ms", "ms", 0.15),
    ("peak_rss_mb", "MB", 0.20),
    ("setup_s", "s", 0.25),
];

/// End-to-end metrics of the suite that the driver's contract cannot
/// carry: the two ratios exist on `sweep-fig10` only, and `failed_share`
/// is 0 on a healthy run. They repeat exactly; any change is a regression.
pub const EXACT_END_TO_END: &[(&str, &str)] =
    &[("sim_traffic_ratio", "ratio"), ("sim_cycles_ratio", "ratio"), ("failed_share", "ratio")];

pub fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _)| (n, u))
        .chain(EXACT_END_TO_END.iter().copied())
        .chain(crate::layers::PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|(n, _)| *n == metric)
        .map_or("", |(_, u)| u)
}

/// One line, no spaces between tokens needed by anyone: `Json::render`
/// with its line breaks and indentation taken out.
pub fn compact(json: &Json) -> String {
    json.render().lines().map(str::trim_start).collect()
}

fn metric_json(s: Summary, unit: &str) -> Json {
    Json::O(vec![
        ("value", Json::F(s.value)),
        ("unit", Json::S(unit.into())),
        ("q1", Json::F(s.q1)),
        ("q3", Json::F(s.q3)),
        ("n", Json::U(s.n as u64)),
    ])
}

fn run_header(plan: &Plan, traced: bool, attempted: u64, failed: u64) -> Vec<(&'static str, Json)> {
    vec![
        ("workload", Json::S(plan.workload.name().into())),
        ("seed", Json::U(plan.seed)),
        ("traced", Json::Bool(traced)),
        ("quick", Json::Bool(plan.quick)),
        ("attempted", Json::U(attempted)),
        ("failed", Json::U(failed)),
    ]
}

/// The run object of an end-to-end run.
pub fn e2e_run_json(r: &RunResult) -> Json {
    let mut fields = run_header(&r.plan, false, r.attempted, r.failed);
    fields.push(("passes", Json::U(r.passes as u64)));
    fields.push(("digest", Json::S(format!("{:016x}", r.digest))));
    fields.push((
        "metrics",
        Json::O(r.metrics.iter().map(|&(name, s)| (name, metric_json(s, unit_of(name)))).collect()),
    ));
    fields.push(("inputs", r.describe.clone()));
    fields.push(("failures", Json::A(r.failures.iter().cloned().map(Json::S).collect())));
    Json::O(fields)
}

/// The run object of a traced run.
pub fn traced_run_json(plan: &Plan, t: &Traced) -> Json {
    let mut fields = run_header(plan, true, t.attempted, t.failed);
    fields.push((
        "metrics",
        Json::O(
            t.layers
                .iter()
                .map(|(name, unit, value)| (name, metric_json(Summary::exact(value), unit)))
                .collect(),
        ),
    ));
    fields.push((
        "shares",
        Json::O(t.shares.iter().map(|&(name, share)| (name, Json::F(share))).collect()),
    ));
    fields.push(("failures", Json::A(t.failures.iter().cloned().map(Json::S).collect())));
    Json::O(fields)
}

/// The last line of a run's standard output, as the driver reads it:
/// exactly `correct`, `attempted`, `failed` and `metrics`, the metrics
/// being exactly the listed ones with `value` and `unit`.
pub fn contract_line(
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'static str, &'static str, f64)>,
) -> String {
    compact(&Json::O(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::U(attempted.max(1))),
        ("failed", Json::U(failed)),
        (
            "metrics",
            Json::O(
                metrics
                    .map(|(name, unit, value)| {
                        (
                            name,
                            Json::O(vec![
                                ("value", Json::F(value)),
                                ("unit", Json::S(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_is_one_line_of_valid_json() {
        let line = contract_line(7, 0, [("wall_s", "s", 1.25), ("setup_s", "s", 0.5)].into_iter());
        assert!(!line.contains('\n'));
        let back = Json::parse(&line).unwrap();
        assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(back.get("attempted"), Some(&Json::U(7)));
        let wall = back.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value"), Some(&Json::F(1.25)));
        assert_eq!(wall.get("unit"), Some(&Json::S("s".into())));
    }

    #[test]
    fn benchmark_json_lists_the_same_end_to_end_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(Json::A(listed)) = doc.get("end_to_end") else { panic!("no end_to_end list") };
        assert_eq!(listed.len(), END_TO_END.len());
        for (m, &(name, unit, bound)) in listed.iter().zip(END_TO_END) {
            assert_eq!(m.get("name"), Some(&Json::S(name.into())));
            assert_eq!(m.get("unit"), Some(&Json::S(unit.into())));
            assert_eq!(m.get("better"), Some(&Json::S("lower".into())));
            assert_eq!(m.get("bound"), Some(&Json::F(bound)));
        }
        let Some(Json::A(workloads)) = doc.get("workloads") else { panic!("no workloads") };
        let names: Vec<&Json> = workloads.iter().filter_map(|w| w.get("name")).collect();
        let ours: Vec<Json> =
            crate::workload::Workload::ALL.iter().map(|w| Json::S(w.name().into())).collect();
        assert_eq!(names, ours.iter().collect::<Vec<_>>());
    }
}
