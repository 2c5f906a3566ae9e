//! The seven metamorphic oracles.
//!
//! Each oracle takes a program and returns `Err(diagnostic)` when one of
//! the workspace's cross-cutting invariants is violated. Panics inside the
//! system under test are caught and reported as failures too, so the
//! fuzzer surfaces crashes and mismatches through the same channel.
//!
//! | oracle | invariant | compared artifacts |
//! |--------|-----------|--------------------|
//! | [`Oracle::Engine`]   | interpreter ≡ bytecode VM, on the source and on its `fuse+group` output | event stream, stats, f64 bits (any NaN equals any NaN), fuel |
//! | [`Oracle::Optimize`] | `optimize_checked` preserves semantics on every ladder rung | final array contents vs original |
//! | [`Oracle::Sweep`]    | single-pass sweep (per event and batched) ≡ per-capacity LRU; inclusion property | exact miss counts |
//! | [`Oracle::Profile`]  | reuse profiles are internally consistent | histogram masses |
//! | [`Oracle::Bound`]    | fused reuse distances are `O(k·m)`, size-independent | max exact distance at two sizes |
//! | [`Oracle::Static`]   | analytic miss model ≡ trace simulation at unseen sizes | miss counts per capacity and array, by construct class |
//! | [`Oracle::Assoc`]    | single-set set-associative ≡ fully-associative sweep ≡ single-level `fa` hierarchy; per-set stack inclusion; VM batches ≡ interpreter events at N = 12 and 40 | exact miss counts; every set-associative, FA, two-level and legacy L1/L2/TLB counter, the legacy one per phase too |

use gcr_cache::{
    AssocResult, AssocSweepSink, Cache, CacheConfig, CapacitySweepSink, Inclusion, MemoryHierarchy,
    MissCounts, MultiLevelCache, MultiLevelCounts, MultiLevelSink, MultiLevelSweepSink,
    PhasedHierarchySink, Prefetch, Tlb,
};
use gcr_core::checked::{optimize_checked, values_match, Fallback, Pass, SafetyOptions};
use gcr_core::OptimizeOptions;
use gcr_exec::{canonical_bits, AccessEvent, DataLayout, ExecEngine, Machine, TraceSink};
use gcr_ir::{ParamBinding, Program, StmtId};
use gcr_reuse::{Histogram, ProfileSink, ReuseDistanceAnalyzer};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One of the seven conformance oracles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// Differential interpreter-vs-VM execution.
    Engine,
    /// Optimizer semantic preservation across the degradation ladder.
    Optimize,
    /// Capacity sweep vs dedicated LRU simulation + inclusion property.
    Sweep,
    /// Reuse-distance profile consistency.
    Profile,
    /// Fused-chain reuse-distance bound (`O(k·m)`, size-independent).
    Bound,
    /// Analytic miss model vs trace simulation at sizes the fit never saw.
    Static,
    /// Set-associative simulation vs the fully-associative sweep
    /// (single-set byte equality + fixed-set-count way monotonicity).
    Assoc,
}

/// All oracles, in documentation order.
pub const ALL_ORACLES: [Oracle; 7] = [
    Oracle::Engine,
    Oracle::Optimize,
    Oracle::Sweep,
    Oracle::Profile,
    Oracle::Bound,
    Oracle::Static,
    Oracle::Assoc,
];

impl Oracle {
    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Oracle::Engine => "engine",
            Oracle::Optimize => "optimize",
            Oracle::Sweep => "sweep",
            Oracle::Profile => "profile",
            Oracle::Bound => "bound",
            Oracle::Static => "static",
            Oracle::Assoc => "assoc",
        }
    }

    /// Parses a CLI name (`"all"` is handled by the caller).
    pub fn from_name(s: &str) -> Option<Oracle> {
        ALL_ORACLES.into_iter().find(|o| o.name() == s)
    }
}

impl std::fmt::Display for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Fuel budget for oracle runs: generous for the generated sizes, finite
/// so a transformed program with runaway bounds terminates.
const FUEL: u64 = 50_000_000;

/// Runs one oracle, converting panics in the system under test into
/// failures.
pub fn run_oracle(oracle: Oracle, prog: &Program) -> Result<(), String> {
    let res = catch_unwind(AssertUnwindSafe(|| match oracle {
        Oracle::Engine => engine_diff(prog),
        Oracle::Optimize => optimize_equiv(prog),
        Oracle::Sweep => sweep_vs_sim(prog),
        Oracle::Profile => profile_consistency(prog),
        Oracle::Bound => fused_bound(prog),
        Oracle::Static => static_parity(prog),
        Oracle::Assoc => ExecEngine::from_env()
            .map_err(|e| e.to_string())
            .and_then(|engine| assoc_parity(prog, engine)),
    }));
    match res {
        Ok(r) => r,
        Err(p) => Err(format!("panic: {}", panic_msg(p))),
    }
}

fn panic_msg(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

// ---------------------------------------------------------------- oracle 1

/// One observable event: a traced access or an instance boundary. The
/// VM must reproduce the interpreter's stream exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ev {
    Access { addr: u64, array: usize, ref_id: usize, stmt: usize, is_write: bool },
    End(usize),
}

#[derive(Default)]
struct Cap(Vec<Ev>);

impl TraceSink for Cap {
    fn access(&mut self, ev: AccessEvent) {
        self.0.push(Ev::Access {
            addr: ev.addr,
            array: ev.array.index(),
            ref_id: ev.ref_id.index(),
            stmt: ev.stmt.index(),
            is_write: ev.is_write,
        });
    }

    fn end_instance(&mut self, stmt: StmtId) {
        self.0.push(Ev::End(stmt.index()));
    }
}

struct Run {
    events: Vec<Ev>,
    stats: gcr_exec::ExecStats,
    mem: Vec<Vec<u64>>,
    outcome: Result<(), String>,
}

fn run_engine(
    prog: &Program,
    binding: &ParamBinding,
    layout: &DataLayout,
    engine: ExecEngine,
    steps: usize,
    fuel: u64,
) -> Run {
    let mut m = Machine::with_layout(prog, binding.clone(), layout.clone()).with_engine(engine);
    let mut cap = Cap::default();
    let outcome = m.run_steps_guarded(&mut cap, steps, fuel).map_err(|e| e.to_string());
    // Bit identity holds on non-NaN values; any NaN equals any NaN.
    let mem = (0..prog.arrays.len())
        .map(|i| {
            m.read_array(gcr_ir::ArrayId::from_index(i)).into_iter().map(canonical_bits).collect()
        })
        .collect();
    Run { events: cap.0, stats: m.stats(), mem, outcome }
}

/// Oracle 1: the register bytecode VM must be observationally identical
/// to the interpreter — same event stream (accesses *and* instance
/// boundaries, in order), same statistics, bit-identical `f64` memory up to
/// NaN sign and payload ([`canonical_bits`]), and the same fuel-exhaustion
/// behaviour — under several layouts, on the program as generated and on
/// what `fuse+group` makes of it: fused bodies put every statement under
/// outer conditions, which is the shape the VM's masked strips exist for
/// and which no generated source has by itself.
fn engine_diff(prog: &Program) -> Result<(), String> {
    let n = 12;
    let binding = ParamBinding::new(vec![n; prog.params.len()]);
    let layouts = [
        ("plain", DataLayout::column_major(prog, &binding, 0)),
        ("padded", DataLayout::column_major(prog, &binding, 64)),
    ];
    for (label, layout) in &layouts {
        engines_agree(prog, &binding, layout, label)?;
    }
    // A fatal optimizer error is oracle 2's finding, not this one's. Nor
    // is output that really steps outside an array at this size: fusion
    // peels under the large-parameter model (DESIGN.md §12.4), the tape
    // compiler rightly refuses such a program, and in release builds the
    // interpreter would read whatever lies there.
    if let Ok(opt) = optimize_checked(prog, &OptimizeOptions::default(), &SafetyOptions::default())
    {
        if crate::gen::in_bounds_at(&opt.program, n) {
            let label = format!("{} output", opt.robustness.strategy);
            engines_agree(&opt.program, &binding, &opt.layout(&binding), &label)?;
        }
    }
    Ok(())
}

/// Both engines on one program under one layout: whole runs of one and two
/// steps, then a run starved of fuel halfway.
fn engines_agree(
    prog: &Program,
    binding: &ParamBinding,
    layout: &DataLayout,
    label: &str,
) -> Result<(), String> {
    // The generated grammar and the optimizer's output stay inside the
    // compiler's domain; a fallback to the interpreter would silently void
    // the comparison.
    let mut probe = Machine::with_layout(prog, binding.clone(), layout.clone());
    if let Some(why) = probe.refusal() {
        return Err(format!("program unexpectedly outside compiler domain ({label}): {why}"));
    }
    for steps in [1usize, 2] {
        let a = run_engine(prog, binding, layout, ExecEngine::Interp, steps, FUEL);
        let b = run_engine(prog, binding, layout, ExecEngine::Vm, steps, FUEL);
        compare_runs(label, steps, &a, &b)?;
    }
    // Fuel parity: starve both engines with the fuel that lets the
    // interpreter get roughly halfway, and require the identical error and
    // identical (prefix) event stream.
    let full = run_engine(prog, binding, layout, ExecEngine::Interp, 1, FUEL);
    let spent = full.stats.instances + 1;
    if spent > 2 {
        let short = spent / 2;
        let a = run_engine(prog, binding, layout, ExecEngine::Interp, 1, short);
        let b = run_engine(prog, binding, layout, ExecEngine::Vm, 1, short);
        if a.outcome != b.outcome {
            return Err(format!(
                "fuel {short} outcome diverged ({label}): interp {:?} vs vm {:?}",
                a.outcome, b.outcome
            ));
        }
        if a.events != b.events {
            return Err(format!(
                "fuel {short} event prefix diverged ({label}): interp {} events, vm {}",
                a.events.len(),
                b.events.len()
            ));
        }
    }
    Ok(())
}

fn compare_runs(label: &str, steps: usize, a: &Run, b: &Run) -> Result<(), String> {
    if a.outcome != b.outcome {
        return Err(format!(
            "outcome diverged ({label}, steps={steps}): interp {:?} vs vm {:?}",
            a.outcome, b.outcome
        ));
    }
    if a.events != b.events {
        let at = a.events.iter().zip(&b.events).position(|(x, y)| x != y);
        return Err(format!(
            "event streams diverged ({label}, steps={steps}): interp {} events vs vm {}, first diff at {:?}: {:?} vs {:?}",
            a.events.len(),
            b.events.len(),
            at,
            at.map(|i| a.events[i]),
            at.map(|i| b.events[i]),
        ));
    }
    if a.stats != b.stats {
        return Err(format!(
            "stats diverged ({label}, steps={steps}): interp {:?} vs vm {:?}",
            a.stats, b.stats
        ));
    }
    for (ai, (ma, mb)) in a.mem.iter().zip(&b.mem).enumerate() {
        if ma != mb {
            let at = ma.iter().zip(mb).position(|(x, y)| x != y);
            return Err(format!(
                "memory of array #{ai} diverged ({label}, vm, steps={steps}) at element {at:?}"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- oracle 2

/// Oracle 2: every rung of the degradation ladder must deliver a program
/// that computes the same array contents as the original — verified
/// *externally* (not trusting the pipeline's internal oracle) and at a
/// larger size than the internal checkpoint uses, so size-parametric
/// transformation bugs cannot hide behind the checked size.
fn optimize_equiv(prog: &Program) -> Result<(), String> {
    let faults: [Option<Pass>; 4] =
        [None, Some(Pass::Prelim), Some(Pass::Fusion { level: 1 }), Some(Pass::Regroup)];
    for fault in faults {
        let safety = SafetyOptions { inject_fault: fault, ..SafetyOptions::default() };
        let opt = optimize_checked(prog, &OptimizeOptions::default(), &safety)
            .map_err(|e| format!("optimize_checked({fault:?}) fatal: {e}"))?;
        // The injected corruption adds +1.0 to the first assignment after
        // the pass. The pipeline's checkpoints need not "detect" it per se
        // (the corrupted statement may write a scalar or sit under a dead
        // guard, leaving memory untouched) — but whatever program comes out
        // the other end must be memory-equivalent to the original at the
        // ladder's own oracle sizes. (A dynamic oracle cannot promise more:
        // value clamps like `min(x, 1.0)` can mask a corruption at any
        // finite size set, so divergence at a *third* size is a known
        // residual, not a checkpoint bug.) The unfaulted pipeline is held
        // to a stricter standard: equivalence at a size the internal
        // oracle never saw, which is what catches size-parametric
        // transform bugs.
        match fault {
            None => {
                // A pass that emits invalid IR or panics is a bug, never an
                // expected degradation: the ladder rolls it back, but the
                // oracle must not.
                if let Some(f) = opt.robustness.fallbacks.iter().find(|f| pass_bug(f)) {
                    return Err(format!("pass {} failed on its own: {}", f.pass, f.cause));
                }
                check_equivalence(prog, &opt, 16, fault)?
            }
            Some(_) => {
                let sizes = [
                    SafetyOptions::default().oracle_n,
                    SafetyOptions::default().oracle_n2.unwrap_or(12),
                ];
                for n in sizes {
                    check_equivalence(prog, &opt, n, fault).map_err(|e| {
                        format!("undetected injected fault escaped the ladder: {e}")
                    })?;
                }
            }
        }
    }
    Ok(())
}

/// True when a fallback was caused by the pass itself rather than by the
/// ladder's oracle: its output failed validation, or it panicked (the
/// ladder reports a pass panic as `Exec` prefixed with the pass's stage,
/// an oracle run's failure as `after <stage>: ...`).
fn pass_bug(f: &Fallback) -> bool {
    match &f.cause {
        gcr_ir::GcrError::Validate { .. } => true,
        gcr_ir::GcrError::Exec { why } => why.starts_with(&format!("{}: ", f.pass)),
        _ => false,
    }
}

/// Executes original and optimized programs from equalized initial data
/// and compares every (non-scalar) array, following component splits
/// (`u` → `u__1..u__k`) the preliminary passes may have introduced.
fn check_equivalence(
    orig: &Program,
    opt: &gcr_core::OptimizedProgram,
    n: i64,
    fault: Option<Pass>,
) -> Result<(), String> {
    let binding = ParamBinding::new(vec![n; orig.params.len()]);
    let steps = 2;
    let layout = DataLayout::column_major(orig, &binding, 0);
    let mut reference = Machine::with_layout(orig, binding.clone(), layout);
    let initial: Vec<Vec<f64>> = (0..orig.arrays.len())
        .map(|i| reference.read_array(gcr_ir::ArrayId::from_index(i)))
        .collect();
    reference
        .run_steps_guarded(&mut gcr_exec::NullSink, steps, FUEL)
        .map_err(|e| format!("reference run failed at N={n}: {e}"))?;

    let opt_layout = opt.layout(&binding);
    let mut m = Machine::with_layout(&opt.program, binding.clone(), opt_layout);
    for (i, decl) in orig.arrays.iter().enumerate() {
        let vals = &initial[i];
        if let Some(t) = opt.program.array_by_name(&decl.name) {
            if opt.program.array(t).rank() == decl.rank() {
                m.write_array(t, vals).map_err(|e| e.to_string())?;
                continue;
            }
        }
        let comps = split_count(&opt.program, &decl.name)
            .ok_or_else(|| format!("array {} disappeared after {fault:?}", decl.name))?;
        for c in 0..comps {
            let part = opt.program.array_by_name(&format!("{}__{}", decl.name, c + 1)).unwrap();
            let slice: Vec<f64> = vals.iter().skip(c).step_by(comps).copied().collect();
            m.write_array(part, &slice).map_err(|e| e.to_string())?;
        }
    }
    m.run_steps_guarded(&mut gcr_exec::NullSink, steps, FUEL).map_err(|e| {
        format!("optimized run ({}, fault {fault:?}) failed at N={n}: {e}", opt.robustness.strategy)
    })?;

    for (i, decl) in orig.arrays.iter().enumerate() {
        if decl.rank() == 0 {
            continue; // scalar reductions may reassociate across fusion
        }
        let want = reference.read_array(gcr_ir::ArrayId::from_index(i));
        if let Some(t) = opt.program.array_by_name(&decl.name) {
            if opt.program.array(t).rank() == decl.rank() {
                compare_arrays(
                    &decl.name,
                    &want,
                    &m.read_array(t),
                    &opt.robustness.strategy,
                    fault,
                )?;
                continue;
            }
        }
        let comps = split_count(&opt.program, &decl.name)
            .ok_or_else(|| format!("array {} disappeared after {fault:?}", decl.name))?;
        for c in 0..comps {
            let part = opt.program.array_by_name(&format!("{}__{}", decl.name, c + 1)).unwrap();
            let wantc: Vec<f64> = want.iter().skip(c).step_by(comps).copied().collect();
            compare_arrays(
                &format!("{}__{}", decl.name, c + 1),
                &wantc,
                &m.read_array(part),
                &opt.robustness.strategy,
                fault,
            )?;
        }
    }
    Ok(())
}

/// Number of `name__k` components present in the transformed program.
fn split_count(prog: &Program, name: &str) -> Option<usize> {
    let mut c = 0;
    while prog.array_by_name(&format!("{}__{}", name, c + 1)).is_some() {
        c += 1;
    }
    (c > 0).then_some(c)
}

fn compare_arrays(
    name: &str,
    want: &[f64],
    got: &[f64],
    strategy: &str,
    fault: Option<Pass>,
) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!(
            "array {name} length {} vs {} (strategy {strategy}, fault {fault:?})",
            want.len(),
            got.len()
        ));
    }
    for (i, (&x, &y)) in want.iter().zip(got).enumerate() {
        if !values_match(x, y) {
            return Err(format!(
                "array {name}[{i}] diverged: {x} vs {y} (strategy {strategy}, fault {fault:?})"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- oracle 3

/// Capturing sink: feeds the sweep and records the raw address stream for
/// the per-capacity reference simulations.
struct SweepCap {
    sweep: CapacitySweepSink,
    trace: Vec<(u64, bool)>,
}

impl TraceSink for SweepCap {
    fn access(&mut self, ev: AccessEvent) {
        self.sweep.access(ev);
        self.trace.push((ev.addr, ev.is_write));
    }
}

/// Oracle 3: the single-pass [`CapacitySweepSink`] must agree *exactly*
/// with a dedicated fully-associative LRU simulation at every capacity of
/// a random capacity set (Section 2.1: hit ⟺ reuse distance < capacity),
/// and miss counts must be monotone in capacity (the inclusion property).
///
/// The capacities are handed over as drawn — unsorted, with duplicates,
/// usually including a single line and one capacity the footprint never
/// fills — and the sink is fed twice: per event behind [`SweepCap`], and
/// unwrapped under the VM, whose strips reach its native `record_batch`
/// path (the one every batched measurement runs).
fn sweep_vs_sim(prog: &Program) -> Result<(), String> {
    let binding = ParamBinding::new(vec![12; prog.params.len()]);
    let mut rng = crate::rng::Rng::new(
        prog.body.len() as u64 ^ (prog.next_stmt as u64) << 16 ^ (prog.next_ref as u64) << 32,
    );
    let line: u64 = *rng.pick(&[16, 32, 64]);
    let ncaps = rng.range(2, 5) as usize;
    let mut drawn: Vec<u64> = (0..ncaps).map(|_| line * rng.range(1, 96) as u64).collect();
    if rng.chance(3, 4) {
        drawn.push(line);
    }
    if rng.chance(1, 2) {
        drawn.push(drawn[0]);
    }
    drawn.push(line << 16); // more lines than a generated program touches
    let mut caps = drawn.clone();
    caps.sort_unstable();
    caps.dedup();

    let mut sink = SweepCap { sweep: CapacitySweepSink::new(line, &drawn), trace: Vec::new() };
    let mut m = Machine::new(prog, binding.clone());
    m.run_steps_guarded(&mut sink, 2, FUEL).map_err(|e| format!("run failed: {e}"))?;

    let mut batched = CapacitySweepSink::new(line, &drawn);
    let mut m = Machine::new(prog, binding).with_engine(ExecEngine::Vm);
    m.run_steps_guarded(&mut batched, 2, FUEL).map_err(|e| format!("vm run failed: {e}"))?;
    if batched.refs() != sink.sweep.refs() || batched.miss_counts() != sink.sweep.miss_counts() {
        return Err(format!(
            "batch path diverged from per-event: {} refs {:?} vs {} refs {:?}",
            batched.refs(),
            batched.miss_counts(),
            sink.sweep.refs(),
            sink.sweep.miss_counts()
        ));
    }

    if sink.sweep.refs() != sink.trace.len() as u64 {
        return Err(format!(
            "sweep saw {} refs, trace recorded {}",
            sink.sweep.refs(),
            sink.trace.len()
        ));
    }
    for &cap in &caps {
        let assoc = (cap / line) as usize;
        let mut c = Cache::new(CacheConfig { size: cap as usize, line: line as usize, assoc });
        for &(addr, w) in &sink.trace {
            c.access_rw(addr, w);
        }
        let got = sink.sweep.misses(cap);
        if got != c.misses {
            return Err(format!(
                "capacity {} lines (line {line}): sweep {got} misses, dedicated LRU {}",
                cap / line,
                c.misses
            ));
        }
    }
    let counts = sink.sweep.miss_counts();
    for w in counts.windows(2) {
        if w[1].1 > w[0].1 {
            return Err(format!(
                "inclusion violated: {} misses at {}B > {} misses at {}B",
                w[1].1, w[1].0, w[0].1, w[0].0
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- oracle 4

/// Wraps a [`ProfileSink`] while independently counting events.
struct ProfileCap {
    profile: ProfileSink,
    accesses: u64,
    distinct: std::collections::HashSet<u64>,
    granularity: u64,
}

impl TraceSink for ProfileCap {
    fn access(&mut self, ev: AccessEvent) {
        self.profile.access(ev);
        self.accesses += 1;
        self.distinct.insert(ev.addr / self.granularity);
    }

    fn end_instance(&mut self, stmt: StmtId) {
        self.profile.end_instance(stmt);
    }
}

fn mass(h: &Histogram) -> u64 {
    h.cold + h.reuses
}

/// Oracle 4: profile bookkeeping must be conservative — the global
/// histogram's mass equals the traced access count, its cold count equals
/// the distinct footprint, bin totals equal the reuse count, and the
/// per-array and per-phase decompositions each sum back to the global
/// histogram.
fn profile_consistency(prog: &Program) -> Result<(), String> {
    let binding = ParamBinding::new(vec![12; prog.params.len()]);
    let granularity = 8;
    let mut sink = ProfileCap {
        profile: ProfileSink::new(prog, granularity),
        accesses: 0,
        distinct: std::collections::HashSet::new(),
        granularity,
    };
    let mut m = Machine::new(prog, binding);
    m.run_steps_guarded(&mut sink, 2, FUEL).map_err(|e| format!("run failed: {e}"))?;
    let accesses = sink.accesses;
    let footprint = sink.distinct.len() as u64;
    let profile = sink.profile.finish();

    let g = &profile.global;
    if mass(g) != accesses {
        return Err(format!("global mass {} != traced accesses {accesses}", mass(g)));
    }
    if g.cold != footprint {
        return Err(format!("global cold {} != distinct footprint {footprint}", g.cold));
    }
    if g.bins.iter().sum::<u64>() != g.reuses {
        return Err(format!(
            "global bins sum {} != reuses {}",
            g.bins.iter().sum::<u64>(),
            g.reuses
        ));
    }
    let per_array: u64 = profile.per_array.iter().map(|(_, h)| mass(h)).sum();
    if per_array != mass(g) {
        return Err(format!("per-array masses sum {per_array} != global {}", mass(g)));
    }
    let per_phase: u64 = profile.per_phase.iter().map(|(_, h)| mass(h)).sum();
    if per_phase != mass(g) {
        return Err(format!("per-phase masses sum {per_phase} != global {}", mass(g)));
    }
    let cold_arrays: u64 = profile.per_array.iter().map(|(_, h)| h.cold).sum();
    if cold_arrays < g.cold {
        // Per-array cold counts may exceed the global (an element first
        // seen by array A then reused by array B under regrouped layouts
        // is cold for B too), but can never undercount.
        return Err(format!("per-array cold sum {cold_arrays} < global cold {}", g.cold));
    }
    Ok(())
}

// ---------------------------------------------------------------- oracle 5

/// Sink tracking the maximum exact finite reuse distance.
struct MaxDist {
    analyzer: ReuseDistanceAnalyzer,
    max: u64,
}

impl TraceSink for MaxDist {
    fn access(&mut self, ev: AccessEvent) {
        if let Some(d) = self.analyzer.access(ev.addr) {
            self.max = self.max.max(d);
        }
    }
}

fn max_distance(prog: &Program, opt: &gcr_core::OptimizedProgram, n: i64) -> Result<u64, String> {
    let binding = ParamBinding::new(vec![n; prog.params.len()]);
    let layout = opt.layout(&binding);
    let mut m = Machine::with_layout(&opt.program, binding, layout);
    let mut sink = MaxDist { analyzer: ReuseDistanceAnalyzer::new(8), max: 0 };
    m.run_guarded(&mut sink, FUEL).map_err(|e| format!("fused run failed at N={n}: {e}"))?;
    Ok(sink.max)
}

/// Oracle 5: on the fusible chain family ([`crate::gen::generate_chain`]),
/// fusion must (a) actually fuse the whole chain into one nest, and (b)
/// bound every reuse distance by a constant independent of `N` and linear
/// in the chain size — the paper's central `O(k·m)` claim (Section 3.1).
/// Size independence is checked exactly: the maximum finite distance must
/// be *identical* at two different sizes.
fn fused_bound(prog: &Program) -> Result<(), String> {
    let k = prog.arrays.iter().filter(|a| !a.is_scalar()).count();
    let m = prog.count_loops();
    let opt = optimize_checked(prog, &OptimizeOptions::default(), &SafetyOptions::default())
        .map_err(|e| format!("optimize failed on fusible chain: {e}"))?;
    if opt.robustness.degraded() {
        return Err(format!(
            "fusible chain degraded to {}: {:?}",
            opt.robustness.strategy, opt.robustness.fallbacks
        ));
    }
    if opt.program.count_nests() != 1 {
        return Err(format!(
            "fusible chain of {m} loops left {} nests (strategy {})",
            opt.program.count_nests(),
            opt.robustness.strategy
        ));
    }
    let d1 = max_distance(prog, &opt, 40)?;
    let d2 = max_distance(prog, &opt, 80)?;
    if d1 != d2 {
        return Err(format!(
            "fused max reuse distance is size-dependent: {d1} at N=40, {d2} at N=80"
        ));
    }
    // Generous constant: the steady-state window holds O(k·m) elements
    // (k arrays × alignment window), plus boundary iterations.
    let bound = 16 * (k as u64 + 1) * (m as u64 + 1) + 64;
    if d1 > bound {
        return Err(format!(
            "fused max reuse distance {d1} exceeds O(k·m) bound {bound} (k={k}, m={m})"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------- oracle 6

/// Slack added to a bounded model's own tolerance when comparing against
/// the simulator: the model documents its holdout error, which small
/// verification sizes can exceed by quantization noise.
const BOUNDED_SLACK: f64 = 0.02;

/// Oracle 6: the analytic reuse model ([`gcr_static`]) must reproduce the
/// trace simulator's miss counts at sizes its fit never saw, with the
/// accuracy its construct class promises: **byte-exact** for guard-free
/// (affine) programs, within the model's own documented tolerance (plus
/// [`BOUNDED_SLACK`]) for guarded ones. A refusal (`NotAnalyzable`) is
/// only acceptable inside the model's documented exclusions — several
/// size parameters, or a guarded program whose fit failed; a guard-free
/// single-parameter program that the model refuses is an oracle failure.
fn static_parity(prog: &Program) -> Result<(), String> {
    if prog.params.len() > 1 {
        return Ok(()); // documented exclusion: the model is univariate
    }
    // Small line and capacities keep the regime floor — and with it the
    // probe and verification simulations — cheap for arbitrary nest depth.
    let line: u64 = 16;
    let caps: Vec<u64> = vec![64, 256];
    let steps = 2;
    let spec = gcr_static::SweepSpec::new(line, caps.clone(), steps);
    let engine = ExecEngine::from_env().map_err(|e| e.to_string())?;
    let analyzer = match gcr_static::Analyzer::analyze_with(prog, spec, engine, FUEL, |b| {
        DataLayout::column_major(prog, b, 0)
    }) {
        Ok(a) => a,
        Err(gcr_static::StaticError::NotAnalyzable { reason }) => {
            if gcr_static::has_guards(prog) {
                return Ok(()); // documented refusal on guarded control flow
            }
            return Err(format!("guard-free program refused by the model: {reason}"));
        }
        Err(gcr_static::StaticError::Gcr(gcr_ir::GcrError::BudgetExceeded { .. })) => {
            return Ok(()); // probe too expensive at this fuel: out of scope
        }
        Err(gcr_static::StaticError::Gcr(e)) => return Err(format!("probe run failed: {e}")),
    };
    let model = analyzer.model();
    // Two sizes the fit never touched: just past the regime floor and a
    // different residue class farther out.
    for n in [model.base + 5, 2 * model.base + 3] {
        let p = match analyzer.predict(n) {
            Ok(p) => p,
            Err(e) => return Err(format!("predict({n}) failed: {e}")),
        };
        let mut sink = CapacitySweepSink::new(line, &caps);
        let binding = ParamBinding::new(vec![n; prog.params.len()]);
        let mut m = Machine::new(prog, binding);
        match m.run_steps_guarded(&mut sink, steps, FUEL) {
            Ok(()) => {}
            Err(gcr_ir::GcrError::BudgetExceeded { .. }) => return Ok(()),
            Err(e) => return Err(format!("verification run failed at N={n}: {e}")),
        }
        if p.refs != sink.refs() as u128 {
            return Err(format!(
                "refs diverged at N={n}: model {} vs simulated {}",
                p.refs,
                sink.refs()
            ));
        }
        for cp in &p.capacities {
            let want = sink.misses(cp.capacity) as u128;
            match p.class {
                gcr_static::Class::Exact => {
                    if cp.misses != want {
                        return Err(format!(
                            "exact-class misses diverged at N={n}, capacity {}B: \
                             model {} vs simulated {want}",
                            cp.capacity, cp.misses
                        ));
                    }
                }
                gcr_static::Class::Bounded => {
                    let tol = model.tolerance + BOUNDED_SLACK;
                    let err = (cp.misses as f64 - want as f64).abs() / (want as f64).max(1.0);
                    if err > tol {
                        return Err(format!(
                            "bounded-class misses off by {err:.4} (> {tol:.4}) at N={n}, \
                             capacity {}B: model {} vs simulated {want}",
                            cp.capacity, cp.misses
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- oracle 7

/// Everything one run of oracle 7 measures, compared whole across the
/// engines.
#[derive(Debug, PartialEq)]
struct AssocRun {
    fa_refs: u64,
    fa: Vec<(u64, u64)>,
    sa: Vec<AssocResult>,
    single_level: Vec<MultiLevelCounts>,
    two_level: MultiLevelCounts,
    legacy: MissCounts,
    legacy_phases: Vec<(String, MissCounts)>,
}

/// Oracle 7, engine-parameterized so the corpus replay can pin both
/// engines explicitly. Two laws of the exact set-associative simulator
/// (see DESIGN.md §16 for why monotonicity pins the *set count*):
///
/// 1. **Single-set equality** — with `ways = capacity / line` the cache is
///    one LRU stack, and its misses must byte-equal the
///    [`CapacitySweepSink`] at the same capacity — and the demand misses
///    of a single-level `l1=capacity/line/fa` [`MultiLevelCache`], which
///    past 64 ways is a third implementation of the same stack.
/// 2. **Way monotonicity at fixed set count** — growing the ways at a
///    fixed set count never adds misses (per-set LRU stack inclusion).
///
/// Both hold on the `engine` run at N = 12 and at N = 40, where strips
/// are long enough for the batch paths' whole-iteration replay to skip
/// work. At each size the run is also held, counter for counter (every
/// configuration's [`AssocResult`], the FA sweep, a two-level inclusive
/// [`MultiLevelSink`], and a [`PhasedHierarchySink`] over a legacy
/// [`MemoryHierarchy`] whose 2–8-entry TLB has pages below or above the
/// line, totals and phases), to the same run under the other engine: the
/// VM's batches against the interpreter's single events.
pub fn assoc_parity(prog: &Program, engine: ExecEngine) -> Result<(), String> {
    let mut rng = crate::rng::Rng::new(
        0x5e7a_550c
            ^ prog.body.len() as u64
            ^ (prog.next_stmt as u64) << 16
            ^ (prog.next_ref as u64) << 32,
    );
    let line: u64 = *rng.pick(&[16, 32, 64]);
    let mut caps: Vec<u64> = (0..3).map(|_| line * rng.range(1, 96) as u64).collect();
    caps.sort_unstable();
    caps.dedup();
    let sets = 1usize << rng.range(1, 4); // 2 to 16 sets
    let max_ways = 4usize;

    // Single-set geometries first (index-aligned with `caps`), then the
    // fixed-set-count way ladder.
    let mut configs: Vec<CacheConfig> = caps
        .iter()
        .map(|&c| CacheConfig { size: c as usize, line: line as usize, assoc: (c / line) as usize })
        .collect();
    let ladder_at = configs.len();
    configs.extend((1..=max_ways).map(|w| CacheConfig {
        size: sets * w * line as usize,
        line: line as usize,
        assoc: w,
    }));
    // A 2-way L1 over a 4-way L2 of twice the line.
    let (l1, l2) = (sets * 2 * line as usize, 2 * line as usize);
    let two_level = [
        CacheConfig { size: l1, line: line as usize, assoc: 2 },
        CacheConfig { size: 8 * l1, line: l2, assoc: 4 },
    ];
    // The same caches as a legacy hierarchy, beside a TLB with pages of
    // half a line up to eight lines.
    let tlb = (rng.range(2, 8) as usize, (line as usize / 2) << rng.range(0, 4));

    let other = match engine {
        ExecEngine::Vm => ExecEngine::Interp,
        ExecEngine::Interp => ExecEngine::Vm,
    };
    for n in [12, 40] {
        let run = |engine: ExecEngine| -> Result<AssocRun, String> {
            // One pass feeds every model, batches included (the VM emits
            // strips).
            let mut fa = CapacitySweepSink::new(line, &caps);
            let mut sa = AssocSweepSink::new(&configs);
            let mut ml = MultiLevelSweepSink::new(
                configs[..ladder_at]
                    .iter()
                    .map(|&c| MultiLevelCache::new(&[c], Inclusion::Inclusive, Prefetch::None))
                    .collect(),
            );
            let mut two = MultiLevelSink::new(MultiLevelCache::new(
                &two_level,
                Inclusion::Inclusive,
                Prefetch::None,
            ));
            let mut legacy = PhasedHierarchySink::new(
                MemoryHierarchy::new(two_level[0], two_level[1], Tlb::new(tlb.0, tlb.1)),
                prog,
            );
            let mut sweeps = gcr_exec::Tee { a: &mut fa, b: &mut sa };
            let mut models = gcr_exec::Tee { a: &mut ml, b: &mut two };
            let mut all = gcr_exec::Tee { a: &mut sweeps, b: &mut models };
            let mut m = Machine::new(prog, ParamBinding::new(vec![n; prog.params.len()]))
                .with_engine(engine);
            m.run_steps_guarded(&mut gcr_exec::Tee { a: &mut all, b: &mut legacy }, 2, FUEL)
                .map_err(|e| format!("N={n} run failed under {engine:?}: {e}"))?;
            let legacy_refs = legacy.hierarchy.counts().refs;
            if fa.refs() != sa.refs() || fa.refs() != legacy_refs {
                return Err(format!(
                    "N={n}: FA sweep saw {} refs, set-associative sweep {}, legacy hierarchy \
                     {legacy_refs}",
                    fa.refs(),
                    sa.refs()
                ));
            }
            Ok(AssocRun {
                fa_refs: fa.refs(),
                fa: fa.miss_counts(),
                sa: sa.results(),
                single_level: ml.counts(),
                two_level: two.model.counts(),
                legacy: legacy.hierarchy.counts(),
                legacy_phases: legacy.phases(),
            })
        };
        let here = run(engine)?;
        for (i, &cap) in caps.iter().enumerate() {
            let (fa_misses, sa_misses) = (here.fa[i].1, here.sa[i].misses);
            let ml_misses = here.single_level[i].levels[0].misses;
            if fa_misses != sa_misses || fa_misses != ml_misses {
                return Err(format!(
                    "N={n}: single set of {} lines (line {line}): set-associative {sa_misses} \
                     misses, FA sweep {fa_misses}, single-level hierarchy {ml_misses}",
                    cap / line
                ));
            }
        }
        let ladder: Vec<u64> = here.sa[ladder_at..].iter().map(|r| r.misses).collect();
        for (w, pair) in ladder.windows(2).enumerate() {
            if pair[1] > pair[0] {
                return Err(format!(
                    "N={n}: way monotonicity violated at {sets} sets: {} misses with {} ways > \
                     {} misses with {} ways",
                    pair[1],
                    w + 2,
                    pair[0],
                    w + 1
                ));
            }
        }
        let there = run(other)?;
        if here != there {
            return Err(format!(
                "N={n}: {engine:?} and {other:?} runs measure differently:\n{here:?}\nvs\n{there:?}"
            ));
        }
    }
    Ok(())
}
