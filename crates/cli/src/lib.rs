#![warn(missing_docs)]

//! `gcrc` — the command-line driver for the global-cache-reuse optimizer.
//!
//! ```text
//! gcrc program.loop                         # optimize and print the program
//! gcrc program.loop --strategy fuse         # fusion only
//! gcrc program.loop --summary               # transformation statistics
//! gcrc program.loop --trace                 # per-pass trace (time, IR deltas)
//! gcrc program.loop --simulate 257 --steps 3  # run through the cache simulator
//! gcrc program.loop --profile               # reuse-distance profile
//! gcrc program.loop --report out.json       # machine-readable JSON report
//! gcrc program.loop --stats                 # static program statistics
//! ```
//!
//! The driver is a thin, testable layer over the library crates: parse →
//! preliminary transformations → reuse-based loop fusion → multi-level data
//! regrouping → (optionally) execute on the simulated memory hierarchy.
//! The [`report`] module defines the JSON artifact schema shared with the
//! experiment binaries (see EXPERIMENTS.md).

pub mod report;

use gcr_core::checked::{apply_strategy_checked_traced, SafetyOptions};
use gcr_core::pipeline::{OptimizedProgram, Strategy};
use gcr_core::regroup::RegroupLevel;
use gcr_core::Tracer;
use gcr_exec::{ExecEngine, Machine};
use gcr_ir::{GcrError, ParamBinding};
pub use report::{Report, ReportSet, SweepTiming};
use std::fmt::Write as _;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Options {
    /// Input path (or `-` reads stdin; tests pass source directly).
    pub input: String,
    /// Which program version to produce.
    pub strategy: Strategy,
    /// Print the transformed program text.
    pub emit: bool,
    /// Print transformation statistics.
    pub summary: bool,
    /// Print the per-pass trace (wall time, IR size deltas, outcomes).
    pub trace: bool,
    /// Measure a reuse-distance profile of the transformed program
    /// (per-array and per-phase histograms).
    pub profile: bool,
    /// Write a machine-readable JSON report here (`-` appends to stdout).
    pub report_path: Option<String>,
    /// Print static program statistics (Figure 9 style).
    pub stats: bool,
    /// Print per-loop data footprints of the *input* program.
    pub footprints: bool,
    /// Statically check array bounds of input and output programs.
    pub check: bool,
    /// Emit the data-sharing graph of the input program in Graphviz DOT.
    pub dot: bool,
    /// Simulate execution at this size parameter.
    pub simulate: Option<i64>,
    /// Statically predict the capacity sweep at this size parameter
    /// (symbolic reuse model, no trace simulation at the target size).
    pub static_n: Option<i64>,
    /// Time steps for simulation.
    pub steps: usize,
    /// Measure the reuse-distance histogram at this size.
    pub reuse_hist: Option<i64>,
    /// Print the predicted miss-ratio curve at this size.
    pub mrc: Option<i64>,
    /// Cache scale factors (L1/TLB, L2) for simulation.
    pub cache_scale: (usize, usize),
    /// Treat the first optimizer fault as fatal (no degradation ladder).
    pub strict: bool,
    /// Degrade to weaker strategies on optimizer faults (disabled by
    /// `--no-fallback`: stop at the last good program instead).
    pub fallback: bool,
    /// Interpreter fuel budget for oracle checks and `--simulate` runs.
    pub fuel: Option<u64>,
    /// Execution engine for `--simulate`, `--profile`, `--reuse-hist` and
    /// `--mrc` runs (`None` defers to `GCR_EXEC` / the `vm` default).
    pub exec: Option<ExecEngine>,
    /// Realistic hierarchy descriptor to measure (`--hierarchy`), e.g.
    /// `l1=8K/32/4,l2=64K/128/fa,prefetch=next-line`.
    pub hierarchy: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            input: String::new(),
            strategy: Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::Multi },
            emit: true,
            summary: false,
            trace: false,
            profile: false,
            report_path: None,
            stats: false,
            footprints: false,
            check: false,
            dot: false,
            simulate: None,
            static_n: None,
            steps: 1,
            reuse_hist: None,
            mrc: None,
            cache_scale: (1, 1),
            strict: false,
            fallback: true,
            fuel: None,
            exec: None,
            hierarchy: None,
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
usage: gcrc <file.loop> [options]

options:
  --strategy <s>     original | sgi | fuse | fuse1 | fuse+group (default) | group
  --no-emit          do not print the transformed program
  --summary          print transformation statistics
  --trace            print the per-pass trace (wall time, IR size deltas)
  --profile          measure a reuse-distance profile of the transformed
                     program (per-array and per-phase histograms); uses the
                     --simulate size, or N=64
  --report <path>    write a machine-readable JSON report (schema
                     gcr-report/v1; `-` appends it to stdout)
  --stats            print static program statistics
  --footprints       print per-loop data footprints of the input program
  --check            statically check array bounds (input and output)
  --dot              emit the input's data-sharing graph (Graphviz DOT)
  --simulate <N>     execute at size N through the simulated memory hierarchy
  --static <N>       predict the capacity sweep at size N analytically:
                     fit per-capacity miss polynomials in N from a few small
                     probe runs, then evaluate them at N (32-byte lines,
                     capacities 256B/1KB/4KB/16KB); N can be far beyond
                     what --simulate could ever execute
  --steps <K>        time steps for --simulate (default 1)
  --hierarchy <desc> measure a realistic multi-level hierarchy at the
                     --simulate size (or N=64): comma-separated
                     l1=SIZE/LINE/ASSOC[,l2=...][,l3=...]
                     [,policy=inclusive|exclusive]
                     [,prefetch=none|next-line]; sizes take K/M suffixes,
                     ASSOC is a way count or `fa`; adds FA + 4-way sweep
                     bins and a hierarchy report section
  --cache-scale <a,b>  shrink L1/TLB by a and L2 by b during --simulate
  --reuse-hist <N>   print the reuse-distance histogram at size N
  --mrc <N>          print the predicted miss-ratio curve at size N
  --strict           treat the first optimizer fault as fatal
  --no-fallback      do not degrade to weaker strategies on faults;
                     stop at the last verified program instead
  --fuel <N>         interpreter step budget for semantic checks and
                     --simulate (terminates runaway programs)
  --exec <engine>    execution engine for measurement runs: vm (default;
                     register bytecode VM over the compiled op tape with
                     strip execution) or interp (the reference
                     tree-walking interpreter); overrides GCR_EXEC
";

fn usage_err(msg: String) -> GcrError {
    GcrError::Usage(msg)
}

/// Parses the command line. Returns [`GcrError::Usage`] (with the usage
/// text) on bad input.
pub fn parse_args(args: &[String]) -> Result<Options, GcrError> {
    let mut o = Options::default();
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next().cloned().ok_or_else(|| usage_err(format!("{flag} needs a value\n{USAGE}")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--strategy" => {
                let name = value(&mut it, "--strategy")?;
                o.strategy = Strategy::from_name(&name)
                    .ok_or_else(|| usage_err(format!("unknown strategy `{name}`\n{USAGE}")))?;
            }
            "--no-emit" => o.emit = false,
            "--summary" => o.summary = true,
            "--trace" => o.trace = true,
            "--profile" => o.profile = true,
            "--report" => o.report_path = Some(value(&mut it, "--report")?),
            "--stats" => o.stats = true,
            "--footprints" => o.footprints = true,
            "--check" => o.check = true,
            "--dot" => o.dot = true,
            "--simulate" => {
                o.simulate = Some(
                    value(&mut it, "--simulate")?
                        .parse()
                        .map_err(|e| usage_err(format!("bad --simulate value: {e}")))?,
                )
            }
            "--static" => {
                o.static_n = Some(
                    value(&mut it, "--static")?
                        .parse()
                        .map_err(|e| usage_err(format!("bad --static value: {e}")))?,
                )
            }
            "--steps" => {
                o.steps = value(&mut it, "--steps")?
                    .parse()
                    .map_err(|e| usage_err(format!("bad --steps value: {e}")))?
            }
            "--hierarchy" => o.hierarchy = Some(value(&mut it, "--hierarchy")?),
            "--cache-scale" => {
                let v = value(&mut it, "--cache-scale")?;
                let (a, b) = v
                    .split_once(',')
                    .ok_or_else(|| usage_err("cache-scale wants `a,b`".to_string()))?;
                o.cache_scale = (
                    a.parse().map_err(|e| usage_err(format!("bad cache scale: {e}")))?,
                    b.parse().map_err(|e| usage_err(format!("bad cache scale: {e}")))?,
                );
            }
            "--reuse-hist" => {
                o.reuse_hist = Some(
                    value(&mut it, "--reuse-hist")?
                        .parse()
                        .map_err(|e| usage_err(format!("bad --reuse-hist value: {e}")))?,
                )
            }
            "--mrc" => {
                o.mrc = Some(
                    value(&mut it, "--mrc")?
                        .parse()
                        .map_err(|e| usage_err(format!("bad --mrc value: {e}")))?,
                )
            }
            "--exec" => {
                let name = value(&mut it, "--exec")?;
                o.exec = Some(ExecEngine::parse(&name).ok_or_else(|| {
                    usage_err(format!(
                        "unknown engine `{name}`: valid engines are {}\n{USAGE}",
                        ExecEngine::NAMES
                    ))
                })?);
            }
            "--strict" => o.strict = true,
            "--no-fallback" => o.fallback = false,
            "--fuel" => {
                o.fuel = Some(
                    value(&mut it, "--fuel")?
                        .parse()
                        .map_err(|e| usage_err(format!("bad --fuel value: {e}")))?,
                )
            }
            "--help" | "-h" => return Err(usage_err(USAGE.to_string())),
            "-" => {
                if !o.input.is_empty() {
                    return Err(usage_err(format!("multiple input files\n{USAGE}")));
                }
                o.input = "-".to_string();
            }
            flag if flag.starts_with('-') => {
                return Err(usage_err(format!("unknown option `{flag}`\n{USAGE}")))
            }
            path => {
                if !o.input.is_empty() {
                    return Err(usage_err(format!("multiple input files\n{USAGE}")));
                }
                o.input = path.to_string();
            }
        }
    }
    if o.input.is_empty() {
        return Err(usage_err(format!("no input file\n{USAGE}")));
    }
    Ok(o)
}

/// The safety configuration a command line implies.
fn safety_of(o: &Options) -> SafetyOptions {
    SafetyOptions { strict: o.strict, fallback: o.fallback, fuel: o.fuel, ..Default::default() }
}

/// Runs the driver over already-loaded source text, returning the output.
pub fn run_source(src: &str, o: &Options) -> Result<String, GcrError> {
    run_source_with_diagnostics(src, o).map(|(out, _)| out)
}

/// Like [`run_source`], but also returns the fail-safe pipeline's fallback
/// diagnostics (one human-readable line per degradation), which `main`
/// prints to stderr.
pub fn run_source_with_diagnostics(
    src: &str,
    o: &Options,
) -> Result<(String, Vec<String>), GcrError> {
    let prog = gcr_frontend::parse(src)?;
    let mut out = String::new();
    if o.stats {
        let st = gcr_analysis::stats::program_stats(&prog);
        let _ = writeln!(
            out,
            "program {}: {} lines, {} loops in {} nests (depth {}-{}), {} arrays, {} scalars",
            st.name,
            st.lines,
            st.loops,
            st.nests,
            st.min_depth,
            st.max_depth,
            st.arrays,
            st.scalars
        );
    }
    if o.footprints {
        let _ = write!(out, "{}", gcr_analysis::summary::render_footprints(&prog));
    }
    if o.dot {
        let _ = write!(out, "{}", gcr_analysis::graph::render_dot(&prog));
    }
    let mut tracer =
        if o.trace || o.report_path.is_some() { Tracer::enabled() } else { Tracer::disabled() };
    let opt = apply_strategy_checked_traced(&prog, o.strategy, &safety_of(o), &mut tracer)?;
    let mut diagnostics = opt.robustness.describe();
    if o.trace {
        let _ = writeln!(out, "pass trace ({} checkpoints):", opt.robustness.checks);
        for ev in tracer.events() {
            let _ = writeln!(out, "  {}", ev.describe());
        }
    }
    let mut rep = o
        .report_path
        .is_some()
        .then(|| Report::new("gcrc", &prog, o.strategy.label(), &opt, tracer.into_events()));
    if o.check {
        for (which, p) in [("input", &prog), ("output", &opt.program)] {
            let issues = gcr_analysis::bounds::check_bounds(p);
            if issues.is_empty() {
                let _ = writeln!(out, "bounds check ({which}): ok");
            } else {
                for i in &issues {
                    let _ = writeln!(out, "bounds check ({which}): {i}");
                }
            }
        }
    }
    if o.emit {
        let _ = write!(out, "{}", gcr_ir::print::print_program(&opt.program));
    }
    if o.summary {
        let f = &opt.fusion;
        let _ = writeln!(
            out,
            "prelim: {} loops unrolled, {} arrays from splitting, {} loops from distribution",
            opt.prelim.unrolled, opt.prelim.split_arrays, opt.prelim.distributed
        );
        let _ = writeln!(
            out,
            "fusion: {:?} -> {:?} loops per level; {} fused, {} embedded, {} peeled",
            f.loops_before,
            f.loops_after,
            f.total_fused(),
            f.embedded,
            f.peeled
        );
        if !f.infusible.is_empty() {
            let _ = writeln!(out, "infusible: {}", f.infusible.join("; "));
        }
        if opt.plan.is_some() {
            let _ = writeln!(
                out,
                "regrouping: {} arrays -> {} allocations",
                opt.regroup.arrays, opt.regroup.allocations
            );
            for (names, _) in &opt.regroup.groups {
                let _ = writeln!(out, "  group: {}", names.join(", "));
            }
        }
    }
    let fuel = o.fuel.unwrap_or(u64::MAX);
    let engine = match o.exec {
        Some(e) => e,
        None => ExecEngine::from_env()?,
    };
    let spec = o
        .hierarchy
        .as_deref()
        .map(gcr_cache::HierarchySpec::parse)
        .transpose()
        .map_err(|why| usage_err(format!("bad --hierarchy descriptor: {why}\n{USAGE}")))?;
    let mut machines = Vec::new();
    // `--simulate`, `--profile` and `--hierarchy` measure at one size: one
    // machine, one run, every requested sink teed onto the same stream.
    if o.simulate.is_some() || o.profile || spec.is_some() {
        let n = o.simulate.unwrap_or(64);
        let m = machine_at(&mut machines, &opt, engine, n)?;
        let mut psink = o.profile.then(|| gcr_reuse::ProfileSink::elements(&opt.program));
        let mut hsink = spec.as_ref().map(gcr_cache::HierarchyRunSink::new);
        let mut extra = gcr_exec::Tee { a: &mut psink, b: &mut hsink };
        if o.simulate.is_some() {
            if engine == ExecEngine::Vm {
                if let Some(why) = m.refusal() {
                    diagnostics.push(format!(
                        "note: --simulate ran on the interpreter, not the vm: {why}"
                    ));
                }
            }
            let run = gcr_cache::simulate(m, o.cache_scale, o.steps, fuel, &mut extra)?;
            let c = run.misses;
            let _ = writeln!(
                out,
                "simulate N={n} x{}: {} refs, L1 miss {} ({:.2}%), L2 miss {}, TLB miss {}, \
                 traffic {} KB, {:.3e} cycles",
                o.steps,
                c.refs,
                c.l1,
                100.0 * c.l1_rate(),
                c.l2,
                c.tlb,
                c.memory_traffic / 1024,
                run.cycles
            );
            if let Some(r) = rep.as_mut() {
                r.simulation = Some(report::SimSection {
                    size: n,
                    steps: o.steps,
                    cycles: run.cycles,
                    flops: run.stats.flops,
                    total: c,
                    phases: run.phases,
                });
            }
        } else {
            m.run_steps_guarded(&mut extra, o.steps, fuel)?;
        }
        if let Some(p) = psink {
            let section = report::ProfileSection { size: n, steps: o.steps, profile: p.finish() };
            let _ = write!(out, "{}", section.to_text());
            if let Some(r) = rep.as_mut() {
                r.profile = Some(section);
            }
        }
        if let Some(h) = hsink {
            let section = report::HierarchySection { size: n, steps: o.steps, run: h.finish() };
            out.push_str(&section.to_text());
            if let Some(r) = rep.as_mut() {
                r.hierarchy = Some(section);
            }
        }
    }
    if let Some(n) = o.static_n {
        let spec = gcr_static::SweepSpec {
            line: 32,
            capacities: vec![256, 1024, 4096, 16384],
            steps: o.steps,
        };
        let analyzer = gcr_static::Analyzer::analyze_with(
            &opt.program,
            spec,
            engine,
            o.fuel.unwrap_or(gcr_static::DEFAULT_PROBE_FUEL),
            |b| opt.layout(b),
        );
        match analyzer.and_then(|a| a.predict(n).map(|p| prediction_section(&a, &opt.program, p))) {
            Ok(section) => {
                let _ = write!(out, "{}", section.to_text());
                if let Some(r) = rep.as_mut() {
                    r.prediction = Some(section);
                }
            }
            Err(gcr_static::StaticError::NotAnalyzable { reason }) => {
                let _ = writeln!(out, "static prediction unavailable: {reason}");
            }
            Err(gcr_static::StaticError::Gcr(e)) => return Err(e),
        }
    }
    // `--reuse-hist` and `--mrc` read the one-step element-distance
    // histogram; at equal sizes the second reuses the first's run.
    let mut last: Option<(i64, gcr_reuse::Histogram)> = None;
    let mut hist_at = |n: i64| -> Result<gcr_reuse::Histogram, GcrError> {
        if last.as_ref().map(|(at, _)| *at) != Some(n) {
            let mut sink = gcr_reuse::DistanceSink::elements();
            machine_at(&mut machines, &opt, engine, n)?.run_guarded(&mut sink, fuel)?;
            last = Some((n, sink.analyzer.hist));
        }
        Ok(last.as_ref().expect("measured above").1.clone())
    };
    if let Some(n) = o.reuse_hist {
        let h = hist_at(n)?;
        let _ = writeln!(out, "reuse distances at N={n} (log2 bins):");
        for (bin, count) in h.points() {
            let _ = writeln!(out, "  2^{bin:<2} {count}");
        }
        let _ = writeln!(out, "  cold {}", h.cold);
    }
    if let Some(n) = o.mrc {
        let _ = writeln!(
            out,
            "predicted miss ratio by cache capacity (fully associative LRU, elements):"
        );
        for (cap, ratio) in gcr_reuse::miss_ratio_curve(&hist_at(n)?) {
            let _ = writeln!(out, "  {:>10} {:>7.3}%", cap, 100.0 * ratio);
        }
    }
    if let (Some(r), Some(path)) = (rep, o.report_path.as_ref()) {
        let json = r.to_json();
        if path == "-" {
            out.push_str(&json);
        } else {
            std::fs::write(path, &json)
                .map_err(|e| GcrError::Io { path: path.clone(), why: e.to_string() })?;
            let _ = writeln!(out, "report written to {path}");
        }
    }
    Ok((out, diagnostics))
}

/// The byte-capped machine of size `n`, built on first use: the runs of one
/// invocation at one size share it (the address stream does not depend on
/// the data, so a later run on the advanced memory image traces the same
/// accesses).
fn machine_at<'m, 'p>(
    built: &'m mut Vec<(i64, Machine<'p>)>,
    opt: &'p OptimizedProgram,
    engine: ExecEngine,
    n: i64,
) -> Result<&'m mut Machine<'p>, GcrError> {
    if built.iter().all(|(size, _)| *size != n) {
        let bind = ParamBinding::new(vec![n; opt.program.params.len()]);
        let layout = opt.layout(&bind);
        built.push((n, Machine::capped(&opt.program, bind, layout, engine)?));
    }
    Ok(&mut built.iter_mut().find(|(size, _)| *size == n).expect("built above").1)
}

/// Converts a `gcr-static` prediction (plus its model's closed forms) into
/// the report section.
fn prediction_section(
    a: &gcr_static::Analyzer<'_>,
    prog: &gcr_ir::Program,
    p: gcr_static::Prediction,
) -> report::PredictionSection {
    let m = a.model();
    let var = prog.params.first().map_or("N", |d| d.name.as_str());
    report::PredictionSection {
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
            .map(|(ci, cp)| report::PredictionEntry {
                capacity: cp.capacity,
                misses: cp.misses,
                model: m.capacities[ci].global.render_at(var, p.size),
                per_array: cp
                    .per_array
                    .iter()
                    .enumerate()
                    .map(|(ai, &mi)| (prog.arrays[ai].name.clone(), mi))
                    .collect(),
            })
            .collect(),
    }
}

/// Entry point used by `main`: loads the file and runs. The second element
/// of the result is the fallback diagnostics for stderr.
pub fn run(args: &[String]) -> Result<(String, Vec<String>), GcrError> {
    let o = parse_args(args)?;
    let src = if o.input == "-" {
        use std::io::Read;
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| GcrError::Io { path: "<stdin>".into(), why: e.to_string() })?;
        s
    } else {
        std::fs::read_to_string(&o.input)
            .map_err(|e| GcrError::Io { path: o.input.clone(), why: e.to_string() })?
    };
    run_source_with_diagnostics(&src, &o)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "
program demo
param N
array A[N], B[N]

for i = 1, N {
  A[i] = f(A[i])
}
for i = 1, N {
  B[i] = g(A[i], B[i])
}
";

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_flags() {
        let o = parse_args(&args(&[
            "x.loop",
            "--strategy",
            "fuse",
            "--summary",
            "--simulate",
            "64",
            "--steps",
            "2",
            "--cache-scale",
            "4,16",
        ]))
        .unwrap();
        assert_eq!(o.input, "x.loop");
        assert_eq!(o.strategy, Strategy::FusionOnly { levels: 3 });
        assert!(o.summary);
        assert_eq!(o.simulate, Some(64));
        assert_eq!(o.steps, 2);
        assert_eq!(o.cache_scale, (4, 16));
    }

    #[test]
    fn parses_observability_flags() {
        let o =
            parse_args(&args(&["x.loop", "--trace", "--profile", "--report", "out.json"])).unwrap();
        assert!(o.trace);
        assert!(o.profile);
        assert_eq!(o.report_path.as_deref(), Some("out.json"));
        assert!(parse_args(&args(&["x.loop", "--report"])).is_err(), "--report needs a path");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["a", "b"])).is_err());
        assert!(parse_args(&args(&["a", "--strategy", "zap"])).is_err());
        assert!(parse_args(&args(&["a", "--bogus"])).is_err());
        assert!(parse_args(&args(&["a", "--simulate"])).is_err());
    }

    #[test]
    fn emits_fused_program() {
        let mut o = parse_args(&args(&["-", "--strategy", "fuse", "--summary"])).unwrap();
        o.input = "mem".into();
        let out = run_source(SRC, &o).unwrap();
        assert!(out.contains("for i = 1, N {"), "{out}");
        assert!(out.contains("fusion: [2] -> [1] loops per level"), "{out}");
    }

    #[test]
    fn simulates_and_reports_misses() {
        let mut o = parse_args(&args(&["-", "--no-emit", "--simulate", "128"])).unwrap();
        o.input = "mem".into();
        let out = run_source(SRC, &o).unwrap();
        assert!(out.contains("simulate N=128"), "{out}");
        assert!(out.contains("L1 miss"), "{out}");
    }

    #[test]
    fn parses_static_flag() {
        let o = parse_args(&args(&["x.loop", "--static", "1000000000"])).unwrap();
        assert_eq!(o.static_n, Some(1_000_000_000));
        assert!(parse_args(&args(&["x.loop", "--static"])).is_err(), "--static needs a value");
        assert!(parse_args(&args(&["x.loop", "--static", "many"])).is_err());
    }

    #[test]
    fn static_prediction_output() {
        let mut o = parse_args(&args(&["-", "--no-emit", "--static", "1000000000"])).unwrap();
        o.input = "mem".into();
        let out = run_source(SRC, &o).unwrap();
        assert!(out.contains("prediction at N=1000000000"), "{out}");
        assert!(out.contains("capacity"), "{out}");
        assert!(out.contains("misses(N) ="), "{out}");
    }

    #[test]
    fn static_prediction_in_report_schema() {
        let mut o =
            parse_args(&args(&["-", "--no-emit", "--static", "100000", "--report", "-"])).unwrap();
        o.input = "mem".into();
        let out = run_source(SRC, &o).unwrap();
        assert!(out.contains("\"prediction\""), "{out}");
        assert!(out.contains("\"class\""), "{out}");
        assert!(out.contains("\"capacity_bytes\""), "{out}");
        assert!(out.contains("\"model\""), "{out}");
    }

    #[test]
    fn reuse_histogram_output() {
        let mut o = parse_args(&args(&["-", "--no-emit", "--reuse-hist", "64"])).unwrap();
        o.input = "mem".into();
        let out = run_source(SRC, &o).unwrap();
        assert!(out.contains("reuse distances at N=64"), "{out}");
        assert!(out.contains("cold"), "{out}");
    }

    #[test]
    fn stats_line() {
        let mut o = parse_args(&args(&["-", "--no-emit", "--stats"])).unwrap();
        o.input = "mem".into();
        let out = run_source(SRC, &o).unwrap();
        assert!(out.contains("2 loops in 2 nests"), "{out}");
    }

    #[test]
    fn dot_output() {
        let mut o = parse_args(&args(&["-", "--no-emit", "--dot"])).unwrap();
        o.input = "mem".into();
        let out = run_source(SRC, &o).unwrap();
        assert!(out.contains("digraph sharing"), "{out}");
        assert!(out.contains("n0 -> n1"), "{out}");
    }

    #[test]
    fn check_reports_bounds() {
        let mut o = parse_args(&args(&["-", "--no-emit", "--check"])).unwrap();
        o.input = "mem".into();
        let out = run_source(SRC, &o).unwrap();
        assert!(out.contains("bounds check (input): ok"), "{out}");
        assert!(out.contains("bounds check (output): ok"), "{out}");
        let bad = "
program bad
param N
array A[N]
for i = 1, N {
  A[i+1] = 0.0
}
";
        let out = run_source(bad, &o).unwrap();
        assert!(out.contains("upper bound"), "{out}");
    }

    #[test]
    fn footprints_output() {
        let mut o = parse_args(&args(&["-", "--no-emit", "--footprints"])).unwrap();
        o.input = "mem".into();
        let out = run_source(SRC, &o).unwrap();
        assert!(out.contains("loop [0]"), "{out}");
        assert!(out.contains("rw"), "{out}");
    }

    #[test]
    fn mrc_output() {
        let mut o = parse_args(&args(&["-", "--no-emit", "--mrc", "64"])).unwrap();
        o.input = "mem".into();
        let out = run_source(SRC, &o).unwrap();
        assert!(out.contains("predicted miss ratio"), "{out}");
    }

    #[test]
    fn parse_errors_are_reported() {
        let o = parse_args(&args(&["mem"])).unwrap();
        let err = run_source("program x\nfor {", &o).unwrap_err();
        assert!(matches!(err, GcrError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("parse error"), "{err}");
    }

    #[test]
    fn parses_safety_flags() {
        let o =
            parse_args(&args(&["x.loop", "--strict", "--no-fallback", "--fuel", "5000"])).unwrap();
        assert!(o.strict);
        assert!(!o.fallback);
        assert_eq!(o.fuel, Some(5000));
        assert!(parse_args(&args(&["x.loop", "--fuel", "lots"])).is_err());
    }

    #[test]
    fn parses_exec_flag() {
        let o = parse_args(&args(&["x.loop", "--exec", "interp"])).unwrap();
        assert_eq!(o.exec, Some(ExecEngine::Interp));
        let o = parse_args(&args(&["x.loop", "--exec", "vm"])).unwrap();
        assert_eq!(o.exec, Some(ExecEngine::Vm));
        assert_eq!(parse_args(&args(&["x.loop"])).unwrap().exec, None);
        // `compiled` named the tape executor until it was removed.
        for bad in ["compiled", "jit"] {
            let err = parse_args(&args(&["x.loop", "--exec", bad])).unwrap_err().to_string();
            assert!(
                err.contains("valid engines are interp|vm\n"),
                "rejection of `{bad}` must list exactly the valid engines: {err}"
            );
        }
        assert!(parse_args(&args(&["x.loop", "--exec"])).is_err());
    }

    #[test]
    fn hierarchy_flag_measures_and_reports() {
        let mut o = parse_args(&args(&[
            "-",
            "--no-emit",
            "--simulate",
            "64",
            "--hierarchy",
            "l1=1K/32/4,l2=8K/128/fa,prefetch=next-line",
            "--report",
            "-",
        ]))
        .unwrap();
        o.input = "mem".into();
        let out = run_source(SRC, &o).unwrap();
        assert!(
            out.contains("hierarchy l1=1K/32/4,l2=8K/128/fa,policy=inclusive,prefetch=next-line"),
            "{out}"
        );
        assert!(out.contains("\"hierarchy\""), "{out}");
        assert!(out.contains("\"assoc_misses\""), "{out}");
        assert!(out.contains("\"prefetches\""), "{out}");
    }

    #[test]
    fn hierarchy_flag_rejects_bad_descriptors() {
        let mut o = parse_args(&args(&["-", "--no-emit", "--hierarchy", "l1=8K/33/4"])).unwrap();
        o.input = "mem".into();
        let err = run_source(SRC, &o).unwrap_err();
        assert!(matches!(err, GcrError::Usage(_)), "{err}");
    }

    #[test]
    fn engines_agree_on_hierarchy_output() {
        let run_with = |engine: &str| {
            let mut o = parse_args(&args(&[
                "-",
                "--no-emit",
                "--simulate",
                "96",
                "--hierarchy",
                "l1=512/32/2,l2=4K/32/fa,policy=exclusive",
                "--exec",
                engine,
            ]))
            .unwrap();
            o.input = "mem".into();
            run_source(SRC, &o).unwrap()
        };
        let a = run_with("interp");
        let b = run_with("vm");
        assert_eq!(a, b, "interp and vm engines must report identical hierarchy counts");
    }

    #[test]
    fn engines_agree_on_simulation_output() {
        let run_with = |engine: &str| {
            let mut o =
                parse_args(&args(&["-", "--no-emit", "--simulate", "96", "--exec", engine]))
                    .unwrap();
            o.input = "mem".into();
            run_source(SRC, &o).unwrap()
        };
        let a = run_with("interp");
        let b = run_with("vm");
        assert_eq!(a, b, "interp and vm engines must report identical miss counts");
    }

    #[test]
    fn vm_fallback_to_the_interpreter_is_named_on_stderr_only() {
        // 40 nested right operands: deeper than the tape's register file.
        let deep = format!(
            "program deep\nparam N\narray A[N]\nfor i = 1, N {{\n  A[i] = {}A[i]{}\n}}\n",
            "(A[i] + ".repeat(40),
            ")".repeat(40)
        );
        let run_with = |engine: &str| {
            let mut o = parse_args(&args(&[
                "-",
                "--strategy",
                "original",
                "--no-emit",
                "--simulate",
                "32",
                "--exec",
                engine,
            ]))
            .unwrap();
            o.input = "mem".into();
            run_source_with_diagnostics(&deep, &o).unwrap()
        };
        let (vm_out, vm_diag) = run_with("vm");
        let (interp_out, interp_diag) = run_with("interp");
        assert_eq!(vm_out, interp_out, "stdout must not change");
        assert!(interp_diag.is_empty(), "{interp_diag:?}");
        assert_eq!(vm_diag.len(), 1, "{vm_diag:?}");
        assert!(
            vm_diag[0].starts_with("note: ") && vm_diag[0].contains("registers"),
            "{}",
            vm_diag[0]
        );
        // A program on the tape says nothing.
        let mut o = parse_args(&args(&["-", "--no-emit", "--simulate", "32"])).unwrap();
        o.input = "mem".into();
        o.exec = Some(ExecEngine::Vm);
        assert!(run_source_with_diagnostics(SRC, &o).unwrap().1.is_empty());
    }

    #[test]
    fn fuel_flag_bounds_simulation() {
        let mut o =
            parse_args(&args(&["-", "--no-emit", "--simulate", "64", "--fuel", "10"])).unwrap();
        o.input = "mem".into();
        // Fuel 10 is too little even for the oracle's own runs.
        let err = run_source(SRC, &o).unwrap_err();
        assert!(
            matches!(
                err,
                GcrError::BudgetExceeded { resource: gcr_ir::Resource::InterpreterFuel, .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn clean_runs_emit_no_diagnostics() {
        let mut o = parse_args(&args(&["-", "--no-emit", "--summary"])).unwrap();
        o.input = "mem".into();
        let (out, diags) = run_source_with_diagnostics(SRC, &o).unwrap();
        assert!(diags.is_empty(), "{diags:?}");
        assert!(out.contains("fusion:"), "{out}");
    }

    #[test]
    fn trace_prints_pass_lines() {
        let mut o = parse_args(&args(&["-", "--no-emit", "--trace"])).unwrap();
        o.input = "mem".into();
        let out = run_source(SRC, &o).unwrap();
        assert!(out.contains("pass trace"), "{out}");
        assert!(out.contains("fusion@1"), "{out}");
        assert!(out.contains("regroup"), "{out}");
    }

    #[test]
    fn profile_prints_histograms() {
        let mut o = parse_args(&args(&["-", "--no-emit", "--profile"])).unwrap();
        o.input = "mem".into();
        let out = run_source(SRC, &o).unwrap();
        assert!(out.contains("reuse profile at N=64"), "{out}");
        assert!(out.contains("array A"), "{out}");
        assert!(out.contains("(all accesses)"), "{out}");
    }

    #[test]
    fn report_to_stdout_is_valid_schema() {
        let mut o = parse_args(&args(&[
            "-",
            "--no-emit",
            "--profile",
            "--simulate",
            "64",
            "--report",
            "-",
        ]))
        .unwrap();
        o.input = "mem".into();
        let out = run_source(SRC, &o).unwrap();
        assert!(out.contains("\"schema\": \"gcr-report/v1\""), "{out}");
        assert!(out.contains("\"pass\": \"fusion@1\""), "{out}");
        assert!(out.contains("\"per_array\""), "{out}");
        assert!(out.contains("\"per_phase\""), "{out}");
        assert!(out.contains("\"simulation\""), "{out}");
        assert!(out.contains("\"cycles\""), "{out}");
    }
}
