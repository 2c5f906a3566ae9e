//! Fail-safe pipeline driver: [`optimize_checked`] runs the same passes as
//! [`crate::pipeline::optimize`], but validates the program and re-runs a
//! differential semantic oracle after every pass, rolling back to the last
//! good program and degrading to a weaker strategy when anything goes wrong.
//!
//! The degradation ladder follows the strength ordering of the paper's
//! evaluation strategies:
//!
//! ```text
//! fusion + regrouping  →  fusion only  →  SGI-like baseline  →  original
//! ```
//!
//! * a **regrouping** fault drops the regrouping plan (one rung);
//! * a **fusion** fault at level 1 abandons fusion and retries the
//!   conservative baseline; if that also fails the original program is
//!   used untouched;
//! * a fusion fault at a deeper level keeps the shallower levels already
//!   proven good and stops fusing deeper;
//! * **preliminary** pass faults skip the pass.
//!
//! Every rollback is recorded in a [`RobustnessReport`] carried on the
//! returned [`OptimizedProgram`], so drivers can print exactly what was
//! given up and why.

use crate::baseline::{baseline_fuse, BaselineReport, BASELINE_PAD_BYTES};
use crate::fusion::{fuse_one_level, loops_per_level, FusionReport};
use crate::pipeline::{OptimizeOptions, OptimizedProgram, Strategy};
use crate::prelim::{preliminary, PrelimReport};
use crate::regroup::{self, RegroupLevel, RegroupPlan, RegroupReport};
use crate::trace::{IrSize, PassEvent, Tracer};
use gcr_exec::{DataLayout, Machine, NullSink};
use gcr_ir::{ArrayId, BinOp, Expr, GcrError, GuardedStmt, ParamBinding, Program, Resource, Stmt};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Oracle fuel when the `fuel` option of [`SafetyOptions`] is unset:
/// enough for every
/// bundled kernel at the oracle size, small enough to stop degenerate
/// trip counts quickly.
pub const DEFAULT_FUEL: u64 = 10_000_000;

pub use gcr_exec::DEFAULT_MAX_BYTES;

/// A pipeline pass, as identified in fallback records and fault injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// Loop interchange (`orient_nests`).
    Orient,
    /// Preliminary transformations (unroll/split/distribute/fold).
    Prelim,
    /// Reuse-based fusion of one loop level.
    Fusion {
        /// Loop level fused (1 = outermost).
        level: usize,
    },
    /// Multi-level data regrouping.
    Regroup,
    /// The SGI-like conservative baseline (fallback rung only).
    Baseline,
}

impl std::fmt::Display for Pass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Pass::Orient => write!(f, "orient"),
            Pass::Prelim => write!(f, "prelim"),
            Pass::Fusion { level } => write!(f, "fusion@{level}"),
            Pass::Regroup => write!(f, "regroup"),
            Pass::Baseline => write!(f, "baseline"),
        }
    }
}

/// One recorded degradation step.
#[derive(Clone, Debug, PartialEq)]
pub struct Fallback {
    /// The pass that failed.
    pub pass: Pass,
    /// Strategy label before the fallback.
    pub from: String,
    /// Strategy label after the fallback.
    pub to: String,
    /// Why the pass was rejected.
    pub cause: GcrError,
}

/// What the fail-safe pipeline had to give up, and why.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RobustnessReport {
    /// Every degradation step, in order.
    pub fallbacks: Vec<Fallback>,
    /// Post-pass checkpoints executed (validation, plus the oracle when
    /// enabled).
    pub checks: usize,
    /// Label of the strategy actually delivered.
    pub strategy: String,
    /// Set when the *original* program could not be executed as the
    /// semantic reference (e.g. out-of-bounds subscripts, fuel exhaustion):
    /// passes were then vetted by structural validation only.
    pub oracle_disabled: Option<GcrError>,
}

impl RobustnessReport {
    /// True when any pass had to be rolled back.
    pub fn degraded(&self) -> bool {
        !self.fallbacks.is_empty()
    }

    /// Human-readable one-line-per-fallback diagnostics (for stderr).
    pub fn describe(&self) -> Vec<String> {
        let mut lines = Vec::new();
        if let Some(cause) = &self.oracle_disabled {
            lines.push(format!(
                "warning: semantic oracle disabled ({cause}); passes checked by validation only"
            ));
        }
        for f in &self.fallbacks {
            if f.from == f.to {
                lines.push(format!(
                    "warning: pass {} skipped ({}); strategy stays {}",
                    f.pass, f.cause, f.to
                ));
            } else {
                lines.push(format!(
                    "warning: pass {} failed ({}); degraded {} -> {}",
                    f.pass, f.cause, f.from, f.to
                ));
            }
        }
        lines
    }
}

/// Knobs of the fail-safe driver.
#[derive(Clone, Copy, Debug)]
pub struct SafetyOptions {
    /// Treat the first pass failure as fatal instead of degrading.
    pub strict: bool,
    /// Degrade to weaker strategies on failure. When `false` (and not
    /// strict), the pipeline stops at the last good program without trying
    /// weaker rungs.
    pub fallback: bool,
    /// Run the differential oracle after each pass (otherwise checkpoints
    /// only validate structure).
    pub oracle: bool,
    /// Value bound to every size parameter for oracle runs.
    pub oracle_n: i64,
    /// Second parameter size the oracle also checks (`None` disables the
    /// extra run). Checking two sizes catches transforms that are only
    /// accidentally correct at one size — e.g. a wrong boundary statement
    /// masked at small `N` by an overlapping constant-guard write.
    pub oracle_n2: Option<i64>,
    /// Time steps the oracle executes each version for.
    pub oracle_steps: usize,
    /// Interpreter fuel per oracle run ([`DEFAULT_FUEL`] when `None`).
    pub fuel: Option<u64>,
    /// Memory-image cap for oracle machines ([`DEFAULT_MAX_BYTES`] when
    /// `None`; `Some(usize::MAX)` disables).
    pub max_bytes: Option<usize>,
    /// Test hook: corrupt the program right after this pass runs, so the
    /// checkpoint and the degradation ladder can be exercised
    /// deterministically.
    pub inject_fault: Option<Pass>,
}

impl Default for SafetyOptions {
    fn default() -> Self {
        SafetyOptions {
            strict: false,
            fallback: true,
            oracle: true,
            oracle_n: 12,
            oracle_n2: Some(18),
            oracle_steps: 2,
            fuel: None,
            max_bytes: None,
            inject_fault: None,
        }
    }
}

impl SafetyOptions {
    fn fuel(&self) -> u64 {
        self.fuel.unwrap_or(DEFAULT_FUEL)
    }

    fn max_bytes(&self) -> usize {
        self.max_bytes.unwrap_or(DEFAULT_MAX_BYTES)
    }
}

/// Reference results of the original program: per-array initial and final
/// contents under one or two small bindings, in logical element order.
struct Oracle {
    runs: Vec<OracleRun>,
    steps: usize,
    fuel: u64,
}

/// Reference data at one parameter size.
struct OracleRun {
    binding: ParamBinding,
    entries: Vec<OracleEntry>,
}

struct OracleEntry {
    name: String,
    rank: usize,
    /// First-dimension constant (candidate split component count).
    comps: Option<usize>,
    initial: Vec<f64>,
    final_: Vec<f64>,
}

/// Post-pass checkpoint state: the oracle plus bookkeeping.
struct Checker<'p> {
    safety: SafetyOptions,
    /// The original program, the semantic reference.
    reference: &'p Program,
    /// Built from `reference` by the first checkpoint, so a pipeline
    /// without passes never runs it: `None` until then, `Some(None)` when
    /// the oracle is off or could not be built.
    oracle: Option<Option<Oracle>>,
    /// Why the reference could not be executed (see
    /// [`RobustnessReport::oracle_disabled`]).
    oracle_disabled: Option<GcrError>,
    checks: usize,
}

// The panic-containment helpers moved to `gcr_par::isolate` so the ladder
// here, the conformance fuzzer, and the `gcr-serve` request boundary all
// share one hook installation and one payload-to-text convention. The
// `catch_unwind` sites below treat a panic as a recoverable oracle verdict
// (reported through the degradation ladder), so the hook's stderr message
// would be noise; the suppression flag is thread-local, so concurrent
// pipelines on `gcr-par` workers don't silence each other's genuine
// panics.
use gcr_par::isolate::{panic_msg, quiet_panics};

/// The oracle's element test: `got` matches the reference value `want`
/// when the two are bit-equal, both NaN, or within a relative tolerance
/// of `1e-9` (reductions inside one loop keep their order, so everything
/// else must match almost exactly). The first two cases cover what the
/// tolerance cannot: `inf − inf` is NaN, and NaN compares false with
/// everything, its own bits included when the sign or payload differ.
pub fn values_match(want: f64, got: f64) -> bool {
    want.to_bits() == got.to_bits()
        || (want.is_nan() && got.is_nan())
        || (want - got).abs() <= 1e-9 * want.abs().max(1.0)
}

/// Elementwise comparison of array `got` of `m`, read in place in logical
/// order, against the reference values `want` under [`values_match`].
/// `array` names the array in the error.
fn compare(
    stage: &str,
    array: impl FnOnce() -> String,
    want: impl ExactSizeIterator<Item = f64>,
    m: &Machine<'_>,
    got: ArrayId,
) -> Result<(), GcrError> {
    let mismatch = |detail: String| GcrError::OracleMismatch {
        stage: stage.to_string(),
        array: array(),
        detail,
    };
    let got_len = m.layout.arrays[got.index()].len();
    if want.len() != got_len {
        return Err(mismatch(format!("length {} vs {}", want.len(), got_len)));
    }
    let mut want = want.enumerate();
    let mut first_bad = None;
    m.visit_array(got, |y| {
        let (i, x) = want.next().expect("lengths compared above");
        if !values_match(x, y) && first_bad.is_none() {
            first_bad = Some((i, x, y));
        }
    });
    match first_bad {
        Some((i, x, y)) => Err(mismatch(format!("element {i}: {x} vs {y}"))),
        None => Ok(()),
    }
}

/// Component `c` of `comps` of a reference array the preliminary passes
/// split (`u` -> `u__1..u__k`, interleaved innermost): every `comps`-th
/// value from the `c`-th on, which is the component in logical order because
/// the first dimension runs fastest.
fn component(vals: &[f64], c: usize, comps: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
    vals.iter().skip(c).step_by(comps).copied()
}

fn build_oracle(prog: &Program, safety: &SafetyOptions) -> Result<Option<Oracle>, GcrError> {
    if !safety.oracle {
        return Ok(None);
    }
    let mut sizes = vec![safety.oracle_n];
    if let Some(n2) = safety.oracle_n2 {
        if n2 != safety.oracle_n {
            sizes.push(n2);
        }
    }
    let fuel = safety.fuel();
    let max_bytes = safety.max_bytes();
    let steps = safety.oracle_steps;
    let built = quiet_panics(|| {
        catch_unwind(AssertUnwindSafe(|| -> Result<Oracle, GcrError> {
            let mut runs = Vec::with_capacity(sizes.len());
            for n in sizes {
                let binding = ParamBinding::new(vec![n; prog.params.len()]);
                let layout = DataLayout::column_major(prog, &binding, 0);
                let mut m =
                    Machine::try_with_layout(prog, binding.clone(), layout, Some(max_bytes))?;
                let mut entries: Vec<OracleEntry> = prog
                    .arrays
                    .iter()
                    .enumerate()
                    .map(|(ai, decl)| OracleEntry {
                        name: decl.name.clone(),
                        rank: decl.rank(),
                        comps: decl.dims.first().and_then(|d| d.as_const()).map(|c| c as usize),
                        initial: m.read_array(ArrayId::from_index(ai)),
                        final_: Vec::new(),
                    })
                    .collect();
                m.run_steps_guarded(&mut NullSink, steps, fuel)?;
                for (ai, e) in entries.iter_mut().enumerate() {
                    e.final_ = m.read_array(ArrayId::from_index(ai));
                }
                runs.push(OracleRun { binding, entries });
            }
            Ok(Oracle { runs, steps, fuel })
        }))
    });
    match built {
        Ok(Ok(o)) => Ok(Some(o)),
        Ok(Err(e)) => Err(e),
        Err(p) => Err(GcrError::Exec { why: format!("original program: {}", panic_msg(p)) }),
    }
}

impl<'p> Checker<'p> {
    fn new(reference: &'p Program, safety: &SafetyOptions) -> Self {
        Checker { safety: *safety, reference, oracle: None, oracle_disabled: None, checks: 0 }
    }

    /// Runs the reference ahead of the first checkpoint. `Err` only under
    /// [`SafetyOptions::strict`], where an unrunnable reference is fatal to
    /// the whole pipeline; otherwise it is recorded and passes are vetted
    /// structurally.
    fn ensure_oracle(&mut self) -> Result<(), GcrError> {
        if self.oracle.is_none() {
            self.oracle = Some(match build_oracle(self.reference, &self.safety) {
                Ok(o) => o,
                Err(e) if !self.safety.strict => {
                    self.oracle_disabled = Some(e);
                    None
                }
                Err(e) => return Err(e),
            });
        }
        Ok(())
    }

    /// Moves the checkpoint bookkeeping into the pipeline's report.
    fn finish(self, report: &mut RobustnessReport) {
        report.checks = self.checks;
        report.oracle_disabled = self.oracle_disabled;
    }

    /// Validates `prog` and, when the oracle is on, executes it under
    /// `mk_layout` and compares every array against the reference.
    fn check(
        &mut self,
        stage: &str,
        prog: &Program,
        mk_layout: &dyn Fn(&Program, &ParamBinding) -> DataLayout,
    ) -> Result<(), GcrError> {
        self.checks += 1;
        gcr_ir::validate::validate(prog)
            .map_err(|errors| GcrError::Validate { stage: stage.to_string(), errors })?;
        let Some(Some(o)) = &self.oracle else { return Ok(()) };
        let max_bytes = self.safety.max_bytes();
        let run = quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| -> Result<(), GcrError> {
                for r in &o.runs {
                    let layout = mk_layout(prog, &r.binding);
                    let mut m =
                        Machine::try_with_layout(prog, r.binding.clone(), layout, Some(max_bytes))?;
                    // Equalize initial data with the reference: same-name arrays
                    // get the reference contents directly; arrays split by the
                    // preliminary passes get their components.
                    for e in &r.entries {
                        if let Some(t) = prog.array_by_name(&e.name) {
                            if prog.array(t).rank() == e.rank {
                                m.write_array(t, &e.initial)?;
                                continue;
                            }
                        }
                        let comps = split_comps(e, stage)?;
                        for c in 0..comps {
                            let part = split_part(prog, e, c, stage)?;
                            m.write_array_from(part, component(&e.initial, c, comps))?;
                        }
                    }
                    m.run_steps_guarded(&mut NullSink, o.steps, o.fuel)?;
                    for e in &r.entries {
                        if e.rank == 0 {
                            continue; // scalar reductions may reassociate across fusion
                        }
                        if let Some(t) = prog.array_by_name(&e.name) {
                            if prog.array(t).rank() == e.rank {
                                let want = e.final_.iter().copied();
                                compare(stage, || e.name.clone(), want, &m, t)?;
                                continue;
                            }
                        }
                        let comps = split_comps(e, stage)?;
                        for c in 0..comps {
                            let part = split_part(prog, e, c, stage)?;
                            let name = || format!("{}__{}", e.name, c + 1);
                            compare(stage, name, component(&e.final_, c, comps), &m, part)?;
                        }
                    }
                }
                Ok(())
            }))
        });
        match run {
            Ok(res) => res,
            Err(p) => Err(GcrError::Exec { why: format!("after {stage}: {}", panic_msg(p)) }),
        }
    }
}

fn split_comps(e: &OracleEntry, stage: &str) -> Result<usize, GcrError> {
    e.comps.filter(|&c| c > 0).ok_or_else(|| GcrError::Exec {
        why: format!("array {} disappeared after {stage}", e.name),
    })
}

fn split_part(prog: &Program, e: &OracleEntry, c: usize, stage: &str) -> Result<ArrayId, GcrError> {
    prog.array_by_name(&format!("{}__{}", e.name, c + 1)).ok_or_else(|| GcrError::Exec {
        why: format!("array {} lost component {} after {stage}", e.name, c + 1),
    })
}

/// Test hook: makes the first assignment compute a different value, so the
/// semantic oracle is guaranteed to reject the program.
fn corrupt(prog: &mut Program) {
    fn walk(list: &mut [GuardedStmt]) -> bool {
        for gs in list {
            match &mut gs.stmt {
                Stmt::Assign(a) => {
                    let old = std::mem::replace(&mut a.rhs, Expr::Const(0.0));
                    a.rhs = Expr::Bin(BinOp::Add, Box::new(old), Box::new(Expr::Const(1.0)));
                    return true;
                }
                Stmt::Loop(l) => {
                    if walk(&mut l.body) {
                        return true;
                    }
                }
            }
        }
        false
    }
    walk(&mut prog.body);
}

/// Runs one pass under full protection: panics become [`GcrError::Exec`],
/// the optional fault hook fires, the checkpoint runs, and on any failure
/// the program is restored to its pre-pass state. When the tracer is
/// enabled, the pass (plus its checkpoint) is timed and its IR size delta
/// recorded; a disabled tracer skips all measurement.
fn attempt<T>(
    program: &mut Program,
    checker: &mut Checker<'_>,
    tracer: &mut Tracer,
    pass: Pass,
    mk_layout: &dyn Fn(&Program, &ParamBinding) -> DataLayout,
    f: impl FnOnce(&mut Program) -> Result<T, GcrError>,
) -> Result<T, GcrError> {
    // Fails only in strict mode, where every caller returns a pass error
    // as the pipeline's: the same `Err`, before any pass runs or is traced,
    // as when the reference was run up front.
    checker.ensure_oracle()?;
    let snapshot = program.clone();
    let stage = pass.to_string();
    let before = tracer.is_enabled().then(|| IrSize::of(program));
    let t0 = tracer.is_enabled().then(std::time::Instant::now);
    let out = quiet_panics(|| catch_unwind(AssertUnwindSafe(|| f(program))));
    let res = match out {
        Ok(Ok(v)) => {
            if checker.safety.inject_fault == Some(pass) {
                corrupt(program);
            }
            checker.check(&stage, program, mk_layout).map(|_| v)
        }
        Ok(Err(e)) => Err(e),
        Err(p) => Err(GcrError::Exec { why: format!("{stage}: {}", panic_msg(p)) }),
    };
    if res.is_err() {
        *program = snapshot;
    }
    tracer.record(|| PassEvent {
        pass: stage.clone(),
        ok: res.is_ok(),
        wall_ns: t0.map_or(0, |t| t.elapsed().as_nanos() as u64),
        before: before.unwrap_or_default(),
        after: IrSize::of(program),
        detail: match &res {
            Ok(_) => String::new(),
            Err(e) => e.to_string(),
        },
    });
    res
}

fn default_layout(prog: &Program, binding: &ParamBinding) -> DataLayout {
    DataLayout::column_major(prog, binding, 0)
}

/// Label of the strategy a (levels, regroup, baseline) state delivers,
/// matching [`Strategy::label`].
fn state_label(
    levels: usize,
    regroup: bool,
    regroup_level: RegroupLevel,
    baseline: bool,
) -> String {
    if baseline {
        return "sgi-like".into();
    }
    match (levels, regroup) {
        (0, false) => "original".into(),
        (0, true) => "group-only".into(),
        (n, false) => format!("fuse{n}"),
        (n, true) => {
            let suffix = match regroup_level {
                RegroupLevel::Multi => "+group",
                RegroupLevel::ElementOnly => "+elem",
                RegroupLevel::AvoidInnermost => "+outer",
            };
            format!("fuse{n}{suffix}")
        }
    }
}

fn merge_fusion(total: &mut FusionReport, level: usize, rep: FusionReport) {
    if total.fused.len() < level {
        total.fused.resize(level, 0);
    }
    total.fused[level - 1] += rep.fused.iter().sum::<usize>();
    total.embedded += rep.embedded;
    total.peeled += rep.peeled;
    total.loops_after = rep.loops_after;
    for w in rep.infusible {
        if !total.infusible.contains(&w) {
            total.infusible.push(w);
        }
    }
    total.budget_exhausted |= rep.budget_exhausted;
}

/// The fail-safe counterpart of [`crate::pipeline::optimize`].
///
/// Fatal errors (`Err`) are limited to: an invalid *input* program and,
/// under [`SafetyOptions::strict`], a failure to execute the *original*
/// program (the semantic reference, run when the first pass is about to be
/// checked) or the first pass failure. Everything else degrades per the
/// ladder and is recorded in the returned program's [`RobustnessReport`].
///
/// ```
/// use gcr_core::{optimize_checked, OptimizeOptions, SafetyOptions};
/// let prog = gcr_frontend::parse("
/// program demo
/// param N
/// array A[N], B[N]
/// for i = 1, N { A[i] = f(A[i]) }
/// for i = 1, N { B[i] = g(A[i], B[i]) }
/// ").unwrap();
/// let opt = optimize_checked(&prog, &OptimizeOptions::default(),
///                            &SafetyOptions::default()).unwrap();
/// assert!(!opt.robustness.degraded());
/// assert_eq!(opt.program.count_nests(), 1); // the two loops fused
/// ```
pub fn optimize_checked(
    prog: &Program,
    opts: &OptimizeOptions,
    safety: &SafetyOptions,
) -> Result<OptimizedProgram, GcrError> {
    optimize_checked_traced(prog, opts, safety, &mut Tracer::disabled())
}

/// [`optimize_checked`] with per-pass tracing: every pass attempt is
/// recorded as a [`PassEvent`] on `tracer` (see [`crate::trace`]). Passing
/// [`Tracer::disabled`] makes this identical to [`optimize_checked`] — no
/// timestamps are taken and no IR nodes are counted.
pub fn optimize_checked_traced(
    prog: &Program,
    opts: &OptimizeOptions,
    safety: &SafetyOptions,
    tracer: &mut Tracer,
) -> Result<OptimizedProgram, GcrError> {
    gcr_ir::validate::validate(prog)
        .map_err(|errors| GcrError::Validate { stage: "input".into(), errors })?;
    let mut report = RobustnessReport::default();
    let mut checker = Checker::new(prog, safety);
    let mut program = prog.clone();

    let mut want_levels = if opts.fusion { opts.fusion_opts.max_levels } else { 0 };
    let mut want_regroup = opts.regroup;
    let rl = opts.regroup_opts.level;
    let mut baseline = false;
    let mut stopped = false;
    let mut prelim_rep = PrelimReport::default();
    let mut fusion_rep = FusionReport::default();
    let mut baseline_rep = BaselineReport::default();

    // A failure of a pass that is merely preparatory (orient, prelim) skips
    // the pass without changing the strategy.
    let skip_or_stop = |pass: Pass,
                        cause: GcrError,
                        report: &mut RobustnessReport,
                        stopped: &mut bool|
     -> Result<(), GcrError> {
        if safety.strict {
            return Err(cause);
        }
        let here = state_label(want_levels, want_regroup, rl, baseline);
        report.fallbacks.push(Fallback { pass, from: here.clone(), to: here, cause });
        if !safety.fallback {
            *stopped = true;
        }
        Ok(())
    };

    if opts.orient && !stopped {
        if let Err(cause) =
            attempt(&mut program, &mut checker, tracer, Pass::Orient, &default_layout, |p| {
                crate::interchange::orient_nests(p);
                Ok(())
            })
        {
            skip_or_stop(Pass::Orient, cause, &mut report, &mut stopped)?;
        }
    }

    if opts.prelim && !stopped {
        match attempt(&mut program, &mut checker, tracer, Pass::Prelim, &default_layout, |p| {
            Ok(preliminary(p, opts.small_dim_limit))
        }) {
            Ok(rep) => {
                tracer.annotate_last(|| {
                    format!(
                        "unrolled {}, split {}, distributed {}",
                        rep.unrolled, rep.split_arrays, rep.distributed
                    )
                });
                prelim_rep = rep;
            }
            Err(cause) => skip_or_stop(Pass::Prelim, cause, &mut report, &mut stopped)?,
        }
    }

    if want_levels > 0 && !stopped {
        fusion_rep.loops_before = loops_per_level(&program);
        let mut level = 1;
        while level <= want_levels && !stopped {
            let res = attempt(
                &mut program,
                &mut checker,
                tracer,
                Pass::Fusion { level },
                &default_layout,
                |p| {
                    let rep = fuse_one_level(p, &opts.fusion_opts, level);
                    if rep.budget_exhausted {
                        return Err(GcrError::BudgetExceeded {
                            resource: Resource::FusionWorklist,
                            limit: opts.fusion_opts.max_steps as u64,
                        });
                    }
                    Ok(rep)
                },
            );
            match res {
                Ok(rep) => {
                    tracer.annotate_last(|| {
                        format!(
                            "fused {}, embedded {}, peeled {}",
                            rep.fused.iter().sum::<usize>(),
                            rep.embedded,
                            rep.peeled
                        )
                    });
                    merge_fusion(&mut fusion_rep, level, rep);
                    level += 1;
                }
                Err(cause) => {
                    if safety.strict {
                        return Err(cause);
                    }
                    let from = state_label(want_levels, want_regroup, rl, baseline);
                    if level == 1 {
                        // Fusion is unusable: drop to the SGI-like baseline,
                        // then to the original program.
                        want_levels = 0;
                        want_regroup = false;
                        if !safety.fallback {
                            report.fallbacks.push(Fallback {
                                pass: Pass::Fusion { level },
                                from,
                                to: state_label(0, false, rl, false),
                                cause,
                            });
                            stopped = true;
                        } else {
                            report.fallbacks.push(Fallback {
                                pass: Pass::Fusion { level },
                                from,
                                to: "sgi-like".into(),
                                cause,
                            });
                            match attempt(
                                &mut program,
                                &mut checker,
                                tracer,
                                Pass::Baseline,
                                &default_layout,
                                |p| Ok(baseline_fuse(p)),
                            ) {
                                Ok(rep) => {
                                    baseline = true;
                                    baseline_rep = rep;
                                }
                                Err(cause2) => {
                                    report.fallbacks.push(Fallback {
                                        pass: Pass::Baseline,
                                        from: "sgi-like".into(),
                                        to: "original".into(),
                                        cause: cause2,
                                    });
                                }
                            }
                        }
                    } else {
                        // Keep the levels already proven good.
                        let kept = level - 1;
                        report.fallbacks.push(Fallback {
                            pass: Pass::Fusion { level },
                            from,
                            to: state_label(kept, want_regroup, rl, baseline),
                            cause,
                        });
                        want_levels = kept;
                        if !safety.fallback {
                            stopped = true;
                        }
                    }
                    break;
                }
            }
        }
    }

    let mut plan: Option<RegroupPlan> = None;
    let mut regroup_rep = RegroupReport::default();
    if want_regroup && !stopped {
        let pad = opts.regroup_opts.pad_bytes;
        let regroup_opts = opts.regroup_opts;
        let res = attempt(
            &mut program,
            &mut checker,
            tracer,
            Pass::Regroup,
            &{
                // The checkpoint must execute under the *regrouped* layout:
                // that is the artifact being vetted.
                let opts_for_layout = regroup_opts;
                move |p: &Program, b: &ParamBinding| {
                    let plan = regroup::plan(p, &opts_for_layout);
                    regroup::layout(p, &plan, b, pad)
                }
            },
            |p| Ok(regroup::plan(p, &regroup_opts)),
        );
        match res {
            Ok(p) => {
                tracer.annotate_last(|| {
                    format!(
                        "{} arrays -> {} allocations",
                        program.arrays.iter().filter(|a| !a.is_scalar()).count(),
                        p.groups.iter().filter(|g| g.rank > 0).count()
                    )
                });
                regroup_rep = RegroupReport {
                    arrays: program.arrays.iter().filter(|a| !a.is_scalar()).count(),
                    allocations: p.groups.iter().filter(|g| g.rank > 0).count(),
                    groups: Vec::new(),
                };
                for g in &p.groups {
                    if g.members.len() >= 2 {
                        let names =
                            g.members.iter().map(|&m| program.array(m).name.clone()).collect();
                        regroup_rep.groups.push((names, String::new()));
                    }
                }
                plan = Some(p);
            }
            Err(cause) => {
                if safety.strict {
                    return Err(cause);
                }
                let from = state_label(want_levels, true, rl, baseline);
                want_regroup = false;
                report.fallbacks.push(Fallback {
                    pass: Pass::Regroup,
                    from,
                    to: state_label(want_levels, false, rl, baseline),
                    cause,
                });
            }
        }
    }

    checker.finish(&mut report);
    report.strategy = state_label(want_levels, want_regroup, rl, baseline);
    Ok(OptimizedProgram {
        program,
        prelim: prelim_rep,
        fusion: fusion_rep,
        baseline: baseline_rep,
        plan,
        regroup: regroup_rep,
        pad_bytes: if baseline { BASELINE_PAD_BYTES } else { opts.regroup_opts.pad_bytes },
        robustness: report,
    })
}

/// Fail-safe counterpart of [`crate::pipeline::apply_strategy`].
pub fn apply_strategy_checked(
    prog: &Program,
    strategy: Strategy,
    safety: &SafetyOptions,
) -> Result<OptimizedProgram, GcrError> {
    apply_strategy_checked_traced(prog, strategy, safety, &mut Tracer::disabled())
}

/// [`apply_strategy_checked`] with per-pass tracing (see [`crate::trace`]).
pub fn apply_strategy_checked_traced(
    prog: &Program,
    strategy: Strategy,
    safety: &SafetyOptions,
    tracer: &mut Tracer,
) -> Result<OptimizedProgram, GcrError> {
    // `GCR_FAULT=panic_in_pass` chaos hook: a panic *here*, at the
    // pipeline entry, is deliberately outside the per-pass `attempt`
    // containment below — it models the pass whose unwind escapes the
    // ladder, which only a caller-side isolation boundary (the `gcr-serve`
    // per-request `catch_unwind`) can absorb. Inert unless the environment
    // arms it.
    gcr_par::fault::maybe_panic(gcr_par::fault::FaultPoint::PanicInPass);
    if strategy == Strategy::Sgi {
        gcr_ir::validate::validate(prog)
            .map_err(|errors| GcrError::Validate { stage: "input".into(), errors })?;
        let mut report = RobustnessReport::default();
        let mut checker = Checker::new(prog, safety);
        let mut program = prog.clone();
        let mut baseline_rep = BaselineReport::default();
        let mut pad = BASELINE_PAD_BYTES;
        match attempt(&mut program, &mut checker, tracer, Pass::Baseline, &default_layout, |p| {
            Ok(baseline_fuse(p))
        }) {
            Ok(rep) => {
                baseline_rep = rep;
                report.strategy = "sgi-like".into();
            }
            Err(cause) => {
                if safety.strict {
                    return Err(cause);
                }
                report.fallbacks.push(Fallback {
                    pass: Pass::Baseline,
                    from: "sgi-like".into(),
                    to: "original".into(),
                    cause,
                });
                report.strategy = "original".into();
                pad = 0;
            }
        }
        checker.finish(&mut report);
        return Ok(OptimizedProgram {
            program,
            prelim: PrelimReport::default(),
            fusion: FusionReport::default(),
            baseline: baseline_rep,
            plan: None,
            regroup: RegroupReport::default(),
            pad_bytes: pad,
            robustness: report,
        });
    }
    optimize_checked_traced(prog, &strategy.options(), safety, tracer)
}
