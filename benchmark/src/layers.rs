//! The traced run: the same items through the same public calls the
//! end-to-end entry points make, each call wrapped in a span, plus probes
//! that time one layer alone (the VM on a null sink, each sink on a replayed
//! `BatchLog`). Layers are crate names.
//!
//! End-to-end metrics never come from here; they are taken with tracing
//! off. What this run adds on top of an untraced pass is reported as
//! `trace_overhead_share`.

use crate::batchlog::BatchLog;
use crate::cli_run::{normalize, report_of};
use crate::e2e::Recorder;
use crate::serve_mix::{predict_bodies, Class, Live, Mix};
use crate::span::Spans;
use crate::stats::median;
use crate::sweep_run::{job_key, jobs_of, sweep, sweep_threads, FusedRatios};
use crate::workload::{
    cli_items, cli_options, sweep_apps, CliItem, Plan, Workload, ENGINE, HIERARCHY,
};
use gcr_bench::sweep::{measure_strategy_report_cached_with, MeasureCache};
use gcr_cache::{
    AssocSweepSink, CacheConfig, CapacitySweepSink, CostModel, HierarchySpec, MemoryHierarchy,
    MultiLevelSink, PhasedHierarchySink,
};
use gcr_cli::report::{HierarchySection, Json, SimSection};
use gcr_cli::{Options, Report};
use gcr_core::checked::{apply_strategy_checked_traced, SafetyOptions};
use gcr_core::pipeline::{apply_strategy, OptimizedProgram, Strategy};
use gcr_core::Tracer;
use gcr_exec::{ExecEngine, Machine, NullSink, VmPlan};
use gcr_ir::{ParamBinding, Program};
use gcr_reuse::{DistanceSink, ProfileSink, TraceCapture};
use gcr_serve::{Request, Response};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Every per-layer metric: name, unit, better direction. `BENCHMARK.json`
/// lists the same names; a unit test holds the two together. A metric a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("frontend.parse_s", "s", "lower"),
    ("frontend.parse_mb_per_s", "MB/s", "higher"),
    ("frontend.ir_stmts", "count", "lower"),
    ("analysis.report_s", "s", "lower"),
    ("core.optimize_s", "s", "lower"),
    ("core.prelim_s", "s", "lower"),
    ("core.fusion_s", "s", "lower"),
    ("core.regroup_s", "s", "lower"),
    ("core.transform_s", "s", "lower"),
    ("core.verify_s", "s", "lower"),
    ("core.verify_share", "ratio", "lower"),
    ("core.loops_fused", "count", "higher"),
    ("core.arrays_regrouped", "count", "higher"),
    ("core.ir_loops_after", "count", "lower"),
    ("core.fallbacks", "count", "lower"),
    ("exec.compile_s", "s", "lower"),
    ("exec.plan_s", "s", "lower"),
    ("exec.compiled_share", "ratio", "higher"),
    ("exec.vm_null_s", "s", "lower"),
    ("exec.vm_maccess_per_s", "M/s", "higher"),
    ("exec.interp_null_s", "s", "lower"),
    ("exec.vm_speedup", "ratio", "higher"),
    ("exec.batched_event_share", "ratio", "higher"),
    ("exec.events_per_batch", "count", "higher"),
    ("exec.strips", "count", "higher"),
    ("exec.superinstructions", "count", "higher"),
    ("exec.accesses", "count", "lower"),
    ("reuse.distance_s", "s", "lower"),
    ("reuse.profile_s", "s", "lower"),
    ("reuse.capture_s", "s", "lower"),
    ("reuse.capture_mb", "MB", "lower"),
    ("cache.fa_sweep_s", "s", "lower"),
    ("cache.fa_sweep_maccess_per_s", "M/s", "higher"),
    ("cache.assoc_sweep_s", "s", "lower"),
    ("cache.assoc_sweep_maccess_per_s", "M/s", "higher"),
    ("cache.multilevel_s", "s", "lower"),
    ("cache.multilevel_maccess_per_s", "M/s", "higher"),
    ("cache.legacy_hier_s", "s", "lower"),
    ("cache.legacy_hier_maccess_per_s", "M/s", "higher"),
    ("cache.tee_s", "s", "lower"),
    ("cache.fa_over_assoc", "ratio", "lower"),
    ("cache.refs", "count", "lower"),
    ("cache.l1_misses", "count", "lower"),
    ("cache.l2_misses", "count", "lower"),
    ("static.fit_s", "s", "lower"),
    ("static.predict_ns", "ns", "lower"),
    ("static.probe_sims", "count", "lower"),
    ("static.analyzable_share", "ratio", "higher"),
    ("cli.report_json_s", "s", "lower"),
    ("cli.json_parse_s", "s", "lower"),
    ("cli.report_bytes", "B", "lower"),
    ("cli.unattributed_share", "ratio", "lower"),
    ("bench.measure_cold_s", "s", "lower"),
    ("bench.measure_warm_s", "s", "lower"),
    ("bench.memo_hit_share", "ratio", "higher"),
    ("bench.memo_speedup", "ratio", "higher"),
    ("bench.sim_traffic_ratio", "ratio", "lower"),
    ("bench.sim_cycles_ratio", "ratio", "lower"),
    ("par.threads", "count", "higher"),
    ("par.sweep_speedup", "ratio", "higher"),
    ("serve.health_us", "us", "lower"),
    ("serve.optimize_ms", "ms", "lower"),
    ("serve.measure_warm_ms", "ms", "lower"),
    ("serve.measure_cold_ms", "ms", "lower"),
    ("serve.measure_hier_ms", "ms", "lower"),
    ("serve.predict_ms", "ms", "lower"),
    ("serve.transport_us", "us", "lower"),
    ("serve.proto_codec_us", "us", "lower"),
    ("serve.cache_hit_share", "ratio", "higher"),
    ("serve.err_share", "ratio", "lower"),
    ("trace_overhead_share", "ratio", "lower"),
];

/// Metrics that must repeat exactly between two runs of one commit on one
/// seed: counts the program makes, not times.
pub const EXACT: &[&str] = &[
    "frontend.ir_stmts",
    "core.loops_fused",
    "core.arrays_regrouped",
    "core.ir_loops_after",
    "core.fallbacks",
    "exec.compiled_share",
    "exec.batched_event_share",
    "exec.events_per_batch",
    "exec.strips",
    "exec.superinstructions",
    "exec.accesses",
    "cache.refs",
    "cache.l1_misses",
    "cache.l2_misses",
    "static.probe_sims",
    "static.analyzable_share",
    "cli.report_bytes",
    "bench.memo_hit_share",
    "bench.sim_traffic_ratio",
    "bench.sim_cycles_ratio",
    "par.threads",
    "serve.err_share",
];

/// Per-layer values by metric name, every name of [`PER_LAYER`] present.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|&(name, _, _)| (name, 0.0)).collect())
    }

    fn slot(&mut self, name: &str) -> &mut f64 {
        self.0.get_mut(name).unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }

    fn set(&mut self, name: &str, value: f64) {
        *self.slot(name) = value;
    }

    fn add(&mut self, name: &str, value: f64) {
        *self.slot(name) += value;
    }

    /// The frontend's time and rate, from the `frontend.parse` spans.
    fn set_parse_times(&mut self, sp: &Spans, source_bytes: usize) {
        let parse_s = sp.total("frontend.parse");
        self.set("frontend.parse_s", parse_s);
        self.set("frontend.parse_mb_per_s", ratio(source_bytes as f64 / 1e6, parse_s));
    }

    /// The optimizer's time and what of it is verification: the checked
    /// pipeline (`core.optimize` spans) minus the unchecked one
    /// (`core.transform` spans) on the same programs.
    fn set_core_times(&mut self, sp: &Spans) {
        let (optimize_s, transform_s) = (sp.total("core.optimize"), sp.total("core.transform"));
        self.set("core.optimize_s", optimize_s);
        self.set("core.transform_s", transform_s);
        self.set("core.verify_s", optimize_s - transform_s);
        self.set("core.verify_share", ratio(optimize_s - transform_s, optimize_s));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// In [`PER_LAYER`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        PER_LAYER.iter().map(|&(name, unit, _)| (name, unit, self.0[name]))
    }
}

pub struct Traced {
    pub layers: Layers,
    /// Share of the untraced pass each partitioning span took, by span
    /// name (`gcrc` workloads only).
    pub shares: Vec<(&'static str, f64)>,
    pub spans: Spans,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn finish(layers: Layers, shares: Vec<(&'static str, f64)>, spans: Spans, rec: Recorder) -> Traced {
    Traced {
        layers,
        shares,
        spans,
        attempted: rec.attempted.max(1),
        failed: rec.failed,
        failures: rec.failures,
    }
}

/// Runs the traced pass of `plan` and summarises its spans per layer.
pub fn trace(plan: &Plan) -> Traced {
    match plan.workload {
        Workload::OptGallery | Workload::SimOriginal | Workload::SimFused => trace_cli(plan),
        Workload::SweepFig10 => trace_sweep(plan),
        Workload::ServeMix => trace_serve(plan),
    }
}

// ---------------------------------------------------------------------------
// gcrc workloads
// ---------------------------------------------------------------------------

/// What the mirrored pipeline leaves behind for the probes.
struct Compiled {
    prog: Program,
    opt: OptimizedProgram,
    out: String,
}

/// `gcr_cli::run_source`, call for call and in the same order, for the
/// flags the workloads pass — with a span around every call into a layer.
/// The output must equal `run_source`'s byte for byte (modulo clocks),
/// which the caller checks, so this cannot drift from the real driver
/// unnoticed.
fn mirrored_run_source(
    sp: &mut Spans,
    src: &str,
    o: &Options,
    layers: &mut Layers,
) -> Result<Compiled, String> {
    let prog =
        sp.span("frontend.parse", |_| gcr_frontend::parse(src)).map_err(|e| e.to_string())?;
    layers.add("frontend.ir_stmts", prog.count_assigns() as f64);
    let mut out = String::new();
    sp.span("analysis.report", |_| {
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
    });
    let mut tracer = Tracer::enabled();
    let safety = SafetyOptions {
        strict: o.strict,
        fallback: o.fallback,
        fuel: o.fuel,
        ..Default::default()
    };
    let opt = sp
        .span("core.optimize", |_| {
            apply_strategy_checked_traced(&prog, o.strategy, &safety, &mut tracer)
        })
        .map_err(|e| e.to_string())?;
    for ev in tracer.events() {
        let layer = match ev.pass.as_str() {
            p if p.starts_with("prelim") || p.starts_with("orient") => "core.prelim_s",
            p if p.starts_with("fusion") => "core.fusion_s",
            p if p.starts_with("regroup") => "core.regroup_s",
            _ => continue,
        };
        layers.add(layer, ev.wall_ns as f64 / 1e9);
    }
    layers.add("core.loops_fused", opt.fusion.total_fused() as f64);
    layers.add(
        "core.arrays_regrouped",
        opt.regroup.groups.iter().map(|(names, _)| names.len()).sum::<usize>() as f64,
    );
    layers.add("core.ir_loops_after", opt.program.count_loops() as f64);
    layers.add("core.fallbacks", opt.robustness.fallbacks.len() as f64);
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
        sp.span("analysis.report", |_| {
            for (which, p) in [("input", &prog), ("output", &opt.program)] {
                let issues = gcr_analysis::bounds::check_bounds(p);
                if issues.is_empty() {
                    let _ = writeln!(out, "bounds check ({which}): ok");
                }
                for i in &issues {
                    let _ = writeln!(out, "bounds check ({which}): {i}");
                }
            }
        });
    }
    sp.span("cli.emit", |_| {
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
    });
    let fuel = o.fuel.unwrap_or(u64::MAX);
    let engine = o.exec.expect("the workloads pin the engine");
    if let Some(n) = o.simulate {
        sp.span("cli.simulate", |_| -> Result<(), String> {
            let bind = ParamBinding::new(vec![n; prog.params.len()]);
            let layout = opt.layout(&bind);
            let mut m = Machine::with_layout(&opt.program, bind, layout).with_engine(engine);
            let mut sink = PhasedHierarchySink::new(
                MemoryHierarchy::origin2000_scaled(o.cache_scale.0, o.cache_scale.1),
                &opt.program,
            );
            m.run_steps_guarded(&mut sink, o.steps, fuel).map_err(|e| e.to_string())?;
            let c = sink.hierarchy.counts();
            let cycles = CostModel::default().cycles(&m.stats(), &c);
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
                cycles
            );
            if let Some(r) = rep.as_mut() {
                r.simulation = Some(SimSection {
                    size: n,
                    steps: o.steps,
                    cycles,
                    flops: m.stats().flops,
                    total: c,
                    phases: sink.phases(),
                });
            }
            Ok(())
        })?;
    }
    if let Some(desc) = &o.hierarchy {
        sp.span("cli.hierarchy", |_| -> Result<(), String> {
            let spec = HierarchySpec::parse(desc)?;
            let n = o.simulate.unwrap_or(64);
            let bind = ParamBinding::new(vec![n; prog.params.len()]);
            let layout = opt.layout(&bind);
            let run = gcr_cache::measure_hierarchy(
                &opt.program,
                bind,
                layout,
                engine,
                o.steps,
                fuel,
                &spec,
            )
            .map_err(|e| e.to_string())?;
            let c = &run.counts;
            layers.add("cache.refs", c.refs as f64);
            layers.add("cache.l1_misses", c.levels[0].misses as f64);
            layers.add("cache.l2_misses", c.levels.get(1).map_or(0, |l| l.misses) as f64);
            let section = HierarchySection { size: n, steps: o.steps, run };
            out.push_str(&section.to_text());
            if let Some(r) = rep.as_mut() {
                r.hierarchy = Some(section);
            }
            Ok(())
        })?;
    }
    if let Some(r) = rep {
        let json = sp.span("cli.report_json", |_| r.to_json());
        layers.add("cli.report_bytes", json.len() as f64);
        out.push_str(&json);
    }
    Ok(Compiled { prog, opt, out })
}

/// Spans of [`mirrored_run_source`] that partition an item's time.
const CLI_LAYER_SPANS: [&str; 7] = [
    "frontend.parse",
    "analysis.report",
    "core.optimize",
    "cli.emit",
    "cli.simulate",
    "cli.hierarchy",
    "cli.report_json",
];

/// Counters of the single-layer probes, summed over the items.
#[derive(Default)]
struct ProbeTotals {
    items: u64,
    compiled: u64,
    accesses: u64,
    batched_events: u64,
    deliveries: u64,
    capture_bytes: usize,
}

const PROBE_FUEL: u64 = gcr_bench::MEASURE_FUEL;

/// Times each layer under the simulation alone, on one item.
fn probe_item(
    sp: &mut Spans,
    c: &Compiled,
    o: &Options,
    totals: &mut ProbeTotals,
    layers: &mut Layers,
    rec: &mut Recorder,
    key: &str,
) -> Result<(), String> {
    let n = o.simulate.expect("probes are for simulated items");
    let bind = ParamBinding::new(vec![n; c.prog.params.len()]);
    let layout = c.opt.layout(&bind);
    let prog = &c.opt.program;
    let machine = |engine: ExecEngine| {
        Machine::with_layout(prog, bind.clone(), layout.clone()).with_engine(engine)
    };

    sp.span("core.transform", |_| std::hint::black_box(apply_strategy(&c.prog, o.strategy)));

    totals.items += 1;
    let tape = sp.span("exec.compile", |_| gcr_exec::compile(prog, &bind, &layout));
    if let Some(tape) = &tape {
        totals.compiled += 1;
        let plan = sp.span("exec.plan", |_| VmPlan::build(tape));
        layers.add("exec.strips", plan.strip_count() as f64);
        layers.add("exec.superinstructions", plan.superinstruction_count() as f64);
    }

    // The first run compiles and plans inside the machine; the second is
    // the VM alone. The trace does not depend on the data, so a second run
    // on the advanced memory image does the same work.
    let mut vm = machine(ENGINE);
    vm.run_steps_guarded(&mut NullSink, o.steps, PROBE_FUEL).map_err(|e| e.to_string())?;
    let before = vm.stats().accesses();
    sp.span("exec.vm_null", |_| vm.run_steps_guarded(&mut NullSink, o.steps, PROBE_FUEL))
        .map_err(|e| e.to_string())?;
    let accesses = vm.stats().accesses() - before;
    totals.accesses += accesses;
    let mut interp = machine(ExecEngine::Interp);
    sp.span("exec.interp_null", |_| interp.run_steps_guarded(&mut NullSink, o.steps, PROBE_FUEL))
        .map_err(|e| e.to_string())?;

    let mut log = BatchLog::new();
    machine(ENGINE).run_steps_guarded(&mut log, o.steps, PROBE_FUEL).map_err(|e| e.to_string())?;
    rec.check(log.events() == accesses, || {
        format!("{key}: the log holds {} events, the VM counted {accesses}", log.events())
    });
    totals.batched_events += log.batched_events;
    totals.deliveries += log.batches + log.single_events;

    // Each sink alone, on exactly the stream the VM produced.
    let spec = HierarchySpec::parse(HIERARCHY)?;
    let caps = spec.sweep_capacities();
    let line = spec.levels[0].line;
    let four_way: Vec<CacheConfig> =
        caps.iter().map(|&c| CacheConfig { size: c as usize, line, assoc: 4 }).collect();
    let mut fa = CapacitySweepSink::new(line as u64, &caps);
    sp.span("cache.fa_sweep", |_| log.replay(&mut fa));
    let mut sa = AssocSweepSink::new(&four_way);
    sp.span("cache.assoc_sweep", |_| log.replay(&mut sa));
    let mut ml = MultiLevelSink::new(spec.build());
    sp.span("cache.multilevel", |_| log.replay(&mut ml));
    let mut legacy = PhasedHierarchySink::new(
        MemoryHierarchy::origin2000_scaled(o.cache_scale.0, o.cache_scale.1),
        prog,
    );
    sp.span("cache.legacy_hier", |_| log.replay(&mut legacy));
    let refs = [fa.refs(), sa.refs(), ml.model.counts().refs, legacy.hierarchy.counts().refs];
    rec.check(refs.iter().all(|&r| r == accesses), || {
        format!("{key}: refs differ across the sinks: {refs:?}, VM counted {accesses}")
    });
    let fa_misses: Vec<u64> = caps.iter().map(|&c| fa.misses(c)).collect();
    rec.check(fa_misses.windows(2).all(|w| w[1] <= w[0]), || {
        format!("{key}: FA misses are not monotone in capacity: {fa_misses:?}")
    });

    let mut distance = DistanceSink::elements();
    sp.span("reuse.distance", |_| log.replay(&mut distance));
    let mut profile = ProfileSink::elements(prog);
    sp.span("reuse.profile", |_| log.replay(&mut profile));
    let mut capture = TraceCapture::new();
    let captured = sp.span("reuse.capture", |_| {
        log.replay(&mut capture);
        capture.trace().total_accesses()
    });
    rec.check(captured as u64 == accesses, || {
        format!("{key}: the capture holds {captured} accesses, the VM counted {accesses}")
    });
    let t = capture.trace();
    totals.capture_bytes += t.accs.capacity() * std::mem::size_of::<gcr_reuse::Access>()
        + t.starts.capacity() * 4
        + t.stmts.capacity() * std::mem::size_of::<gcr_ir::StmtId>();
    Ok(())
}

/// Plain and mirrored sweeps of the list alternate this many times; the
/// median plain sweep is the untraced reference and the median mirrored
/// sweep the one whose spans are kept. One sweep each would let a single
/// scheduling hiccup read as unattributed time.
const TRACE_REPEATS: usize = 3;

/// One sweep of the item list through the mirrored pipeline.
struct MirroredSweep {
    wall_s: f64,
    spans: Spans,
    layers: Layers,
    compiled: Vec<Result<Compiled, String>>,
}

fn trace_cli(plan: &Plan) -> Traced {
    let mut rec = Recorder::default();
    let items = cli_items(plan);
    let options = |item: &CliItem| cli_options(plan.workload, item.size(0), item.steps, ENGINE);
    let simulated = plan.workload != Workload::OptGallery;
    let source_bytes: usize = items.iter().map(|i| i.source.len()).sum();

    // Warm-up, then one sweep of the list through the real entry point
    // and one through the mirrored pipeline, in turns.
    for item in &items {
        std::hint::black_box(gcr_cli::run_source(&item.source, &options(item)).ok());
    }
    let mut plain = Vec::new();
    let mut plain_s = Vec::new();
    let mut mirrored = Vec::new();
    for _ in 0..TRACE_REPEATS {
        let started = Instant::now();
        plain = items
            .iter()
            .map(|item| {
                gcr_cli::run_source(&item.source, &options(item)).map_err(|e| e.to_string())
            })
            .collect::<Vec<_>>();
        plain_s.push(started.elapsed().as_secs_f64());

        let (mut spans, mut layers) = (Spans::new(), Layers::new());
        let started = Instant::now();
        let compiled = items
            .iter()
            .enumerate()
            .map(|(id, item)| {
                spans.set_item(id);
                let o = options(item);
                spans.span("item", |sp| mirrored_run_source(sp, &item.source, &o, &mut layers))
            })
            .collect();
        mirrored.push(MirroredSweep {
            wall_s: started.elapsed().as_secs_f64(),
            spans,
            layers,
            compiled,
        });
    }
    let untraced_s = median(&plain_s);
    mirrored.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let MirroredSweep { wall_s: traced_s, spans: mut sp, mut layers, compiled } =
        mirrored.swap_remove(TRACE_REPEATS / 2);

    let mut totals = ProbeTotals::default();
    for (id, ((item, plain), mirrored)) in items.iter().zip(&plain).zip(&compiled).enumerate() {
        let key = item.key(0);
        sp.set_item(id);
        match (plain, mirrored) {
            (Ok(plain), Ok(c)) => {
                rec.check(normalize(plain) == normalize(&c.out), || {
                    format!("{key}: the mirrored pipeline's output differs from run_source's")
                });
                if simulated {
                    let parsed = sp.span("cli.json_parse", |_| report_of(&c.out));
                    rec.op(parsed.err().map(|e| format!("{key}: report does not parse back: {e}")));
                    let probed = probe_item(
                        &mut sp,
                        c,
                        &options(item),
                        &mut totals,
                        &mut layers,
                        &mut rec,
                        &key,
                    );
                    rec.op(probed.err().map(|e| format!("{key}: {e}")));
                } else {
                    sp.span("core.transform", |_| {
                        std::hint::black_box(apply_strategy(&c.prog, options(item).strategy))
                    });
                }
            }
            (Err(e), _) | (_, Err(e)) => rec.op(Some(format!("{key}: {e}"))),
        }
    }

    layers.set_parse_times(&sp, source_bytes);
    layers.set("analysis.report_s", sp.total("analysis.report"));
    layers.set_core_times(&sp);
    layers.set("cli.report_json_s", sp.total("cli.report_json"));
    layers.set("cli.json_parse_s", sp.total("cli.json_parse"));
    let attributed: f64 = CLI_LAYER_SPANS.iter().map(|name| sp.total(name)).sum();
    let shares =
        CLI_LAYER_SPANS.iter().map(|&name| (name, ratio(sp.total(name), untraced_s))).collect();
    layers.set("cli.unattributed_share", ratio(untraced_s - attributed, untraced_s));
    layers.set("trace_overhead_share", ratio(traced_s - untraced_s, untraced_s));

    if simulated {
        let m = |n: u64| n as f64 / 1e6;
        let vm_s = sp.total("exec.vm_null");
        let interp_s = sp.total("exec.interp_null");
        layers.set("exec.compile_s", sp.total("exec.compile"));
        layers.set("exec.plan_s", sp.total("exec.plan"));
        layers.set("exec.compiled_share", ratio(totals.compiled as f64, totals.items as f64));
        layers.set("exec.vm_null_s", vm_s);
        layers.set("exec.vm_maccess_per_s", ratio(m(totals.accesses), vm_s));
        layers.set("exec.interp_null_s", interp_s);
        layers.set("exec.vm_speedup", ratio(interp_s, vm_s));
        layers.set(
            "exec.batched_event_share",
            ratio(totals.batched_events as f64, totals.accesses as f64),
        );
        layers
            .set("exec.events_per_batch", ratio(totals.accesses as f64, totals.deliveries as f64));
        layers.set("exec.accesses", totals.accesses as f64);
        layers.set("reuse.distance_s", sp.total("reuse.distance"));
        layers.set("reuse.profile_s", sp.total("reuse.profile"));
        layers.set("reuse.capture_s", sp.total("reuse.capture"));
        layers.set("reuse.capture_mb", totals.capture_bytes as f64 / (1024.0 * 1024.0));
        for name in ["cache.fa_sweep", "cache.assoc_sweep", "cache.multilevel", "cache.legacy_hier"]
        {
            let s = sp.total(name);
            layers.set(&format!("{name}_s"), s);
            layers.set(&format!("{name}_maccess_per_s"), ratio(m(totals.accesses), s));
        }
        layers.set("cache.tee_s", sp.total("cli.hierarchy") - vm_s);
        layers.set(
            "cache.fa_over_assoc",
            ratio(sp.total("cache.fa_sweep"), sp.total("cache.assoc_sweep")),
        );
    }
    finish(layers, shares, sp, rec)
}

// ---------------------------------------------------------------------------
// sweep-fig10
// ---------------------------------------------------------------------------

fn trace_sweep(plan: &Plan) -> Traced {
    let mut layers = Layers::new();
    let mut sp = Spans::new();
    let mut rec = Recorder::default();
    let apps = sweep_apps(plan);
    let jobs = jobs_of(&apps, 0);
    let threads = sweep_threads();

    // Warm-up and the untraced reference sweep, as the end-to-end run does
    // it; then the same sweep on one thread, for the pool's speed-up.
    std::hint::black_box(sweep(threads, &jobs, ENGINE));
    let started = Instant::now();
    let (results, _) = sweep(threads, &jobs, ENGINE);
    let untraced_s = started.elapsed().as_secs_f64();
    let serial_s = sp.span("par.serial_sweep", |_| {
        let t = Instant::now();
        std::hint::black_box(sweep(1, &jobs, ENGINE));
        t.elapsed().as_secs_f64()
    });
    layers.set("par.threads", threads as f64);
    layers.set("par.sweep_speedup", ratio(serial_s, untraced_s));

    // Job by job on this thread against one cache: every job cold, then
    // every job again, warm.
    let cache = MeasureCache::new();
    let measure_all = |sp: &mut Spans, span: &'static str| -> Vec<_> {
        jobs.iter()
            .enumerate()
            .map(|(id, job)| {
                sp.set_item(id);
                sp.span(span, |_| {
                    measure_strategy_report_cached_with(
                        &cache,
                        "gcr-benchmark",
                        job.app,
                        job.strategy,
                        job.size,
                        job.steps,
                        ENGINE,
                    )
                })
            })
            .collect()
    };
    let cold = measure_all(&mut sp, "bench.measure_cold");
    // Hits in a cold sweep are strategies that optimized to the same program.
    layers.set(
        "bench.memo_hit_share",
        ratio(cache.hits() as f64, (cache.hits() + cache.misses()) as f64),
    );
    let warm = measure_all(&mut sp, "bench.measure_warm");
    let mut ratios = FusedRatios::default();
    for (id, (((job, reference), cold), warm)) in
        jobs.iter().zip(&results).zip(cold).zip(warm).enumerate()
    {
        sp.set_item(id);
        let key = job_key(job);
        match (cold, warm, reference) {
            (Ok((m, cold, _)), Ok((_, warm, _)), Ok((_, reference, _))) => {
                rec.op(None);
                let cold = cold.normalized().to_json();
                rec.check(cold == warm.normalized().to_json(), || {
                    format!("{key}: the memoized report differs from the cold one")
                });
                rec.check(cold == reference.clone().normalized().to_json(), || {
                    format!("{key}: the serial report differs from the pool's")
                });
                ratios.note(job, &m);
                layers.add("exec.accesses", m.stats.accesses() as f64);
                layers.add("cache.refs", m.misses.refs as f64);
                layers.add("cache.l1_misses", m.misses.l1 as f64);
                layers.add("cache.l2_misses", m.misses.l2 as f64);
            }
            (Err(e), ..) | (_, Err(e), _) => rec.op(Some(format!("{key}: {e}"))),
            (.., Err(e)) => rec.op(Some(format!("{key} on the pool: {e}"))),
        }

        // The layers under one cold measurement, each alone.
        let (prog, bind) = (job.app.build)(job.size);
        let mut tracer = Tracer::enabled();
        let Ok(opt) = sp.span("core.optimize", |_| {
            apply_strategy_checked_traced(
                &prog,
                job.strategy,
                &SafetyOptions::default(),
                &mut tracer,
            )
        }) else {
            continue;
        };
        sp.span("core.transform", |_| std::hint::black_box(apply_strategy(&prog, job.strategy)));
        layers.add("core.loops_fused", opt.fusion.total_fused() as f64);
        layers.add("core.ir_loops_after", opt.program.count_loops() as f64);
        layers.add("core.fallbacks", opt.robustness.fallbacks.len() as f64);
        let layout = opt.layout(&bind);
        let mut vm =
            Machine::with_layout(&opt.program, bind.clone(), layout.clone()).with_engine(ENGINE);
        let _ = vm.run_steps_guarded(&mut NullSink, job.steps, PROBE_FUEL);
        let _ =
            sp.span("exec.vm_null", |_| vm.run_steps_guarded(&mut NullSink, job.steps, PROBE_FUEL));
        let mut log = BatchLog::new();
        let _ = Machine::with_layout(&opt.program, bind, layout)
            .with_engine(ENGINE)
            .run_steps_guarded(&mut log, job.steps, PROBE_FUEL);
        let mut legacy = PhasedHierarchySink::new(
            MemoryHierarchy::origin2000_scaled(job.app.l1_scale, job.app.l2_scale),
            &opt.program,
        );
        sp.span("cache.legacy_hier", |_| log.replay(&mut legacy));
    }
    let (traffic, cycles) = ratios.geomeans();
    layers.set("bench.sim_traffic_ratio", traffic);
    layers.set("bench.sim_cycles_ratio", cycles);
    let (cold_s, warm_s) = (sp.total("bench.measure_cold"), sp.total("bench.measure_warm"));
    layers.set("bench.measure_cold_s", cold_s);
    layers.set("bench.measure_warm_s", warm_s);
    layers.set("bench.memo_speedup", ratio(cold_s, warm_s));
    layers.set_core_times(&sp);
    let accesses = layers.get("exec.accesses") / 1e6;
    layers.set("exec.vm_null_s", sp.total("exec.vm_null"));
    layers.set("exec.vm_maccess_per_s", ratio(accesses, sp.total("exec.vm_null")));
    layers.set("cache.legacy_hier_s", sp.total("cache.legacy_hier"));
    layers.set("cache.legacy_hier_maccess_per_s", ratio(accesses, sp.total("cache.legacy_hier")));
    // The cold measurements job by job, with spans, against the serial
    // sweep of the same jobs without.
    layers.set("trace_overhead_share", ratio(cold_s - serial_s, serial_s));
    finish(layers, Vec::new(), sp, rec)
}

// ---------------------------------------------------------------------------
// serve-mix
// ---------------------------------------------------------------------------

fn class_span(class: Class) -> &'static str {
    match class {
        Class::Health => "serve.health",
        Class::Report => "serve.report",
        Class::Optimize => "serve.optimize",
        Class::MeasureWarm => "serve.measure_warm",
        Class::MeasureCold => "serve.measure_cold",
        Class::MeasureHier => "serve.measure_hier",
        Class::Predict => "serve.predict",
    }
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

fn trace_serve(plan: &Plan) -> Traced {
    let mut layers = Layers::new();
    let mut sp = Spans::new();
    let mut rec = Recorder::default();
    let mix = Mix::new(plan);

    // Block 0 untraced on one server, then with a span per request on a
    // fresh one (cold keys stay cold), both warmed the same way.
    let warmed = |mix: &Mix| {
        let mut live = Live::start();
        for req in mix.warm_requests() {
            std::hint::black_box(live.call(&req).ok());
        }
        live
    };
    let block = mix.block(0);
    let mut live = warmed(&mix);
    let started = Instant::now();
    for it in &block {
        std::hint::black_box(live.call(&it.request).ok());
    }
    let untraced_s = started.elapsed().as_secs_f64();
    live.stop();

    let mut live = warmed(&mix);
    let started = Instant::now();
    for (id, it) in block.iter().enumerate() {
        sp.set_item(id);
        let resp = sp.span(class_span(it.class), |_| live.call(&it.request));
        match resp {
            Ok(r) if r.is_ok() => rec.op(None),
            Ok(r) => rec.op(Some(format!("{}: {}", it.key, r.body.trim()))),
            Err(e) => rec.op(Some(format!("{}: {e}", it.key))),
        }
    }
    let traced_s = started.elapsed().as_secs_f64();
    layers.set("trace_overhead_share", ratio(traced_s - untraced_s, untraced_s));
    let p50 = |span: &str, scale: f64| median_or_zero(&sp.durations(span)) * scale;
    layers.set("serve.health_us", p50("serve.health", 1e6));
    layers.set("serve.optimize_ms", p50("serve.optimize", 1e3));
    layers.set("serve.measure_warm_ms", p50("serve.measure_warm", 1e3));
    layers.set("serve.measure_cold_ms", p50("serve.measure_cold", 1e3));
    layers.set("serve.measure_hier_ms", p50("serve.measure_hier", 1e3));
    layers.set("serve.predict_ms", p50("serve.predict", 1e3));

    // The daemon's own books, before the probes below add to them.
    let report = live.call(&Request::new("report")).ok().and_then(|r| Json::parse(&r.body).ok());
    if let Some(report) = &report {
        let count = |j: Option<&Json>| crate::cli_run::as_u64(j).unwrap_or(0) as f64;
        let cache = report.get("cache");
        let (hits, misses) =
            (count(cache.and_then(|c| c.get("hits"))), count(cache.and_then(|c| c.get("misses"))));
        layers.set("serve.cache_hit_share", ratio(hits, hits + misses));
        let errors: f64 = match report.get("errors") {
            Some(Json::O(codes)) => codes.iter().map(|(_, n)| count(Some(n))).sum(),
            _ => 0.0,
        };
        layers.set("serve.err_share", ratio(errors, count(report.get("requests"))));
    }
    rec.check(report.is_some(), || "the report verb did not answer".into());

    // Transport: the socket round trip of `health` minus the in-process
    // `Server::handle` on the same payload.
    let health = Request::new("health");
    let payload = health.encode();
    const ROUNDS: usize = 500;
    let socket: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(live.call(&health).ok());
            t.elapsed().as_secs_f64()
        })
        .collect();
    let in_process: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(live.server.handle(&payload));
            t.elapsed().as_secs_f64()
        })
        .collect();
    layers.set("serve.transport_us", (median(&socket) - median(&in_process)) * 1e6);
    // Codec: encode and parse of one optimize request and its response.
    let optimize = block.iter().find(|i| i.class == Class::Optimize).expect("mix has optimize");
    let response = live.call(&optimize.request).expect("optimize answers");
    let codec: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            let wire = optimize.request.encode();
            std::hint::black_box(Request::parse(&wire).ok());
            let wire = response.encode();
            std::hint::black_box(Response::parse(&wire).ok());
            t.elapsed().as_secs_f64()
        })
        .collect();
    layers.set("serve.proto_codec_us", median(&codec) * 1e6);
    live.stop();

    // Under the verbs: the frontend and the optimizer on the optimize
    // bodies, the static model on the predict bodies.
    let strategy = Strategy::from_name("fuse+group").expect("known strategy");
    let mut source_bytes = 0usize;
    for k in gcr_apps::gallery() {
        source_bytes += k.source.len();
        let Ok(prog) = sp.span("frontend.parse", |_| gcr_frontend::parse(k.source)) else {
            continue;
        };
        layers.add("frontend.ir_stmts", prog.count_assigns() as f64);
        let mut tracer = Tracer::enabled();
        if let Ok(opt) = sp.span("core.optimize", |_| {
            apply_strategy_checked_traced(&prog, strategy, &SafetyOptions::default(), &mut tracer)
        }) {
            layers.add("core.loops_fused", opt.fusion.total_fused() as f64);
            layers.add("core.ir_loops_after", opt.program.count_loops() as f64);
            layers.add("core.fallbacks", opt.robustness.fallbacks.len() as f64);
        }
        sp.span("core.transform", |_| std::hint::black_box(apply_strategy(&prog, strategy)));
    }
    layers.set_parse_times(&sp, source_bytes);
    layers.set_core_times(&sp);

    let bodies = predict_bodies();
    let mut analyzable = 0usize;
    let mut evals = Vec::new();
    for (name, body) in &bodies {
        let prog = gcr_frontend::parse(body).expect("predict bodies parse");
        let opt = apply_strategy(&prog, strategy);
        let spec =
            gcr_static::SweepSpec::new(32, gcr_serve::server::PREDICT_CAPACITIES.to_vec(), 1);
        let fitted = sp.span("static.fit", |_| {
            gcr_static::Analyzer::analyze_with(
                &opt.program,
                spec,
                ExecEngine::default(),
                gcr_static::DEFAULT_PROBE_FUEL,
                |b| opt.layout(b),
            )
        });
        match fitted {
            Ok(analyzer) => {
                analyzable += 1;
                layers.add("static.probe_sims", analyzer.model().probe_sims as f64);
                for _ in 0..1000 {
                    let t = Instant::now();
                    std::hint::black_box(analyzer.predict(1_000_000).ok());
                    evals.push(t.elapsed().as_nanos() as f64);
                }
            }
            Err(gcr_static::StaticError::NotAnalyzable { .. }) => {}
            Err(e) => rec.op(Some(format!("static model of {name}: {e:?}"))),
        }
    }
    layers.set("static.fit_s", sp.total("static.fit"));
    layers.set("static.predict_ns", median_or_zero(&evals));
    layers.set("static.analyzable_share", ratio(analyzable as f64, bodies.len() as f64));
    finish(layers, Vec::new(), sp, rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_metrics_are_per_layer_metrics() {
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|(n, _, _)| n == name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_per_layer_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(Json::A(listed)) = doc.get("per_layer") else { panic!("no per_layer list") };
        let listed: Vec<(String, String, String)> = listed
            .iter()
            .map(|m| {
                let s = |k: &str| match m.get(k) {
                    Some(Json::S(s)) => s.clone(),
                    other => panic!("{k}: {other:?}"),
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn the_mirrored_pipeline_matches_run_source() {
        for workload in [Workload::OptGallery, Workload::SimFused] {
            let plan = Plan { workload, seed: 3, quick: true };
            for item in cli_items(&plan).iter().take(3) {
                let o = cli_options(workload, item.size(0), item.steps, ENGINE);
                let want = gcr_cli::run_source(&item.source, &o).unwrap();
                let got =
                    mirrored_run_source(&mut Spans::new(), &item.source, &o, &mut Layers::new())
                        .unwrap();
                assert_eq!(normalize(&want), normalize(&got.out), "{}", item.name);
            }
        }
    }
}
