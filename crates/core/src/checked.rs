//! The optimizer's one pass sequence, in Section 4.1's order (preliminary
//! passes → reuse-based fusion level by level → multi-level regrouping),
//! run as a degradation ladder. [`optimize_checked`] validates
//! the program after every pass and runs a differential semantic oracle
//! against the original, rolling back to the last good program and
//! degrading to a weaker strategy when anything goes wrong.
//! [`apply_strategy`] runs the same ladder with the oracle off: its
//! checkpoints validate the IR and execute nothing.
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
//! [`Strategy::Sgi`] enters the ladder at the baseline rung.
//!
//! The oracle runs on what is delivered. The ladder first runs *deferred*:
//! each pass's checkpoint validates the IR (and counts in
//! [`RobustnessReport::checks`]) but executes nothing. The delivered
//! program is then executed once per oracle size, under its own layout.
//! Only when a pass failed or that run disagrees with the reference is the
//! ladder replayed *per pass*, executing every intermediate program, and
//! that replay alone decides the fallbacks, the strict-mode error and the
//! pass trace. DESIGN.md §17, ADR 8, gives the exactness argument.
//!
//! Every rollback is recorded in a [`RobustnessReport`] carried on the
//! returned [`OptimizedProgram`], so drivers can print exactly what was
//! given up and why.

use crate::baseline::{baseline_fuse, BaselineReport, BASELINE_PAD_BYTES};
use crate::fusion::{fuse_one_level, loops_per_level, merge_fusion, FusionReport};
use crate::pipeline::{OptimizeOptions, OptimizedProgram, Strategy};
use crate::prelim::{preliminary, PrelimReport};
use crate::regroup::{self, RegroupLevel, RegroupReport};
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
    /// Preliminary transformations (unroll/split/distribute/fold).
    Prelim,
    /// Reuse-based fusion of one loop level.
    Fusion {
        /// Loop level fused (1 = outermost).
        level: usize,
    },
    /// Multi-level data regrouping.
    Regroup,
    /// The SGI-like conservative baseline: the fallback rung below fusion,
    /// and where [`Strategy::Sgi`] enters the ladder.
    Baseline,
}

impl std::fmt::Display for Pass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
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
    /// Post-pass checkpoints of the ladder that delivered the program, one
    /// per attempted pass. Each validates the IR; the oracle executes the
    /// delivered program once, and each intermediate program only when the
    /// ladder is replayed per pass (see the [module docs](self)).
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
    /// Run the differential oracle on the delivered program, and after
    /// each pass when the ladder is replayed (otherwise checkpoints only
    /// validate structure).
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
    /// Checkpoints validate and count but execute nothing; the oracle runs
    /// once, on the delivered program ([`Checker::check_delivered`]).
    deferred: bool,
    /// Candidate executions, one per oracle size a program is run at.
    #[cfg_attr(not(test), allow(dead_code))]
    runs: usize,
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
        Checker {
            safety: *safety,
            reference,
            oracle: None,
            oracle_disabled: None,
            checks: 0,
            deferred: false,
            runs: 0,
        }
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

    /// Moves the checkpoint count into the pipeline's report and starts a
    /// fresh one; the reference runs stay for a replay.
    fn finish(&mut self, report: &mut RobustnessReport) {
        report.checks = std::mem::take(&mut self.checks);
        report.oracle_disabled = self.oracle_disabled.clone();
    }

    /// Validates `prog` and, unless deferred, runs the oracle on it under
    /// `mk_layout`.
    fn check(
        &mut self,
        stage: &str,
        prog: &Program,
        mk_layout: &dyn Fn(&Program, &ParamBinding) -> DataLayout,
    ) -> Result<(), GcrError> {
        self.checks += 1;
        gcr_ir::validate::validate(prog)
            .map_err(|errors| GcrError::Validate { stage: stage.to_string(), errors })?;
        if self.deferred {
            return Ok(());
        }
        self.execute(stage, prog, mk_layout)
    }

    /// The deferred ladder's one oracle run: the delivered program under
    /// the layout it is delivered with.
    fn check_delivered(&mut self, opt: &OptimizedProgram) -> Result<(), GcrError> {
        self.execute("delivered", &opt.program, &|_: &Program, b: &ParamBinding| opt.layout(b))
    }

    /// When the oracle is on, executes `prog` under `mk_layout` at every
    /// oracle size and compares every array against the reference.
    fn execute(
        &mut self,
        stage: &str,
        prog: &Program,
        mk_layout: &dyn Fn(&Program, &ParamBinding) -> DataLayout,
    ) -> Result<(), GcrError> {
        let Some(Some(o)) = &self.oracle else { return Ok(()) };
        let runs = &mut self.runs;
        let max_bytes = self.safety.max_bytes();
        let run = quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| -> Result<(), GcrError> {
                for r in &o.runs {
                    *runs += 1;
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

/// Label of the strategy a (levels, regroup, baseline) state of the ladder
/// over `opts` delivers, matching [`Strategy::label`].
fn state_label(opts: &OptimizeOptions, levels: usize, regroup: bool, baseline: bool) -> String {
    if baseline {
        return "sgi-like".into();
    }
    match (levels, regroup) {
        (0, false) => "original".into(),
        (0, true) => "group-only".into(),
        (n, false) if !opts.fusion_opts.align => format!("fuse{n}-noalign"),
        (n, false) => format!("fuse{n}"),
        (n, true) => {
            let suffix = match opts.regroup_opts.level {
                RegroupLevel::Multi => "+group",
                RegroupLevel::ElementOnly => "+elem",
                RegroupLevel::AvoidInnermost => "+outer",
            };
            format!("fuse{n}{suffix}")
        }
    }
}

/// The checked optimizer: the ladder over the passes `opts` enables.
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
    run(prog, opts, Start::Top, safety, tracer)
}

/// Where [`drive`] enters the ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Start {
    /// At the top: the passes the options enable, in order.
    Top,
    /// At the SGI-like baseline rung.
    Baseline,
}

impl Start {
    fn of(strategy: Strategy) -> Start {
        if strategy == Strategy::Sgi {
            Start::Baseline
        } else {
            Start::Top
        }
    }
}

/// Validates the input, then runs the ladder from `start`.
fn run(
    prog: &Program,
    opts: &OptimizeOptions,
    start: Start,
    safety: &SafetyOptions,
    tracer: &mut Tracer,
) -> Result<OptimizedProgram, GcrError> {
    gcr_ir::validate::validate(prog)
        .map_err(|errors| GcrError::Validate { stage: "input".into(), errors })?;
    check_delivered_or_replay(prog, opts, start, safety, &mut Checker::new(prog, safety), tracer)
}

/// Produces the program version for a named strategy: the ladder of
/// [`apply_strategy_checked`] with the oracle off, so every pass is
/// validated and none executed. A pass that emits invalid IR is rolled
/// back and recorded in [`OptimizedProgram::robustness`]. Infallible,
/// because only strict mode turns a pass failure into an error.
pub fn apply_strategy(prog: &Program, strategy: Strategy) -> OptimizedProgram {
    let safety = SafetyOptions { oracle: false, ..SafetyOptions::default() };
    let mut checker = Checker::new(prog, &safety);
    checker.deferred = true;
    let opts = strategy.options();
    drive(prog, &opts, Start::of(strategy), &safety, &mut checker, &mut Tracer::disabled())
        .expect("the ladder fails only in strict mode")
}

/// Runs the ladder deferred and the oracle once on what it delivers. When
/// a pass failed or that run disagrees with the reference, the result and
/// its trace are discarded and the ladder is replayed per pass, reusing
/// the reference runs: only the replay decides fallbacks and errors.
fn check_delivered_or_replay(
    prog: &Program,
    opts: &OptimizeOptions,
    start: Start,
    safety: &SafetyOptions,
    checker: &mut Checker<'_>,
    tracer: &mut Tracer,
) -> Result<OptimizedProgram, GcrError> {
    let mark = tracer.events().len();
    checker.deferred = true;
    match drive(prog, opts, start, safety, checker, tracer) {
        Ok(opt) if !opt.robustness.degraded() && checker.check_delivered(&opt).is_ok() => {
            return Ok(opt)
        }
        // The reference itself failed under strict mode, before any pass
        // ran: the per-pass ladder stops at the same point.
        Err(e) if checker.oracle.is_none() => return Err(e),
        _ => {}
    }
    tracer.truncate(mark);
    checker.deferred = false;
    drive(prog, opts, start, safety, checker, tracer)
}

/// The degradation ladder over `prog` from `start`, checkpointed by
/// `checker` in its current mode.
fn drive(
    prog: &Program,
    opts: &OptimizeOptions,
    start: Start,
    safety: &SafetyOptions,
    checker: &mut Checker<'_>,
    tracer: &mut Tracer,
) -> Result<OptimizedProgram, GcrError> {
    let mut report = RobustnessReport::default();
    let mut program = prog.clone();

    let mut want_levels = if opts.fusion { opts.fusion_opts.max_levels } else { 0 };
    let mut want_regroup = opts.regroup;
    let mut baseline: Option<BaselineReport> = None;
    let mut stopped = false;
    let mut prelim_rep = PrelimReport::default();
    let mut fusion_rep = FusionReport::default();

    if start == Start::Baseline {
        baseline = baseline_rung(&mut program, checker, tracer, safety, &mut report)?;
    }

    if opts.prelim {
        match attempt(&mut program, checker, tracer, Pass::Prelim, &default_layout, |p| {
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
            // A failure of the merely preparatory pass skips it without
            // changing the strategy.
            Err(cause) => {
                if safety.strict {
                    return Err(cause);
                }
                let here = state_label(opts, want_levels, want_regroup, baseline.is_some());
                report.fallbacks.push(Fallback {
                    pass: Pass::Prelim,
                    from: here.clone(),
                    to: here,
                    cause,
                });
                stopped = !safety.fallback;
            }
        }
    }

    if want_levels > 0 && !stopped {
        fusion_rep.loops_before = loops_per_level(&program);
        let mut level = 1;
        while level <= want_levels && !stopped {
            let res = attempt(
                &mut program,
                checker,
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
                    let from = state_label(opts, want_levels, want_regroup, baseline.is_some());
                    if level == 1 {
                        // Fusion is unusable: drop to the SGI-like baseline,
                        // then to the original program.
                        want_levels = 0;
                        want_regroup = false;
                        if !safety.fallback {
                            report.fallbacks.push(Fallback {
                                pass: Pass::Fusion { level },
                                from,
                                to: state_label(opts, 0, false, false),
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
                            baseline =
                                baseline_rung(&mut program, checker, tracer, safety, &mut report)?;
                        }
                    } else {
                        // Keep the levels already proven good.
                        let kept = level - 1;
                        report.fallbacks.push(Fallback {
                            pass: Pass::Fusion { level },
                            from,
                            to: state_label(opts, kept, want_regroup, baseline.is_some()),
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

    let mut plan = None;
    let mut regroup_rep = RegroupReport::default();
    if want_regroup && !stopped {
        let pad = opts.regroup_opts.pad_bytes;
        let regroup_opts = opts.regroup_opts;
        let res = attempt(
            &mut program,
            checker,
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
                regroup_rep = RegroupReport::of(&program, &p);
                tracer.annotate_last(|| {
                    format!(
                        "{} arrays -> {} allocations",
                        regroup_rep.arrays, regroup_rep.allocations
                    )
                });
                plan = Some(p);
            }
            Err(cause) => {
                if safety.strict {
                    return Err(cause);
                }
                let from = state_label(opts, want_levels, true, baseline.is_some());
                want_regroup = false;
                report.fallbacks.push(Fallback {
                    pass: Pass::Regroup,
                    from,
                    to: state_label(opts, want_levels, false, baseline.is_some()),
                    cause,
                });
            }
        }
    }

    checker.finish(&mut report);
    report.strategy = state_label(opts, want_levels, want_regroup, baseline.is_some());
    Ok(OptimizedProgram {
        program,
        prelim: prelim_rep,
        fusion: fusion_rep,
        pad_bytes: if baseline.is_some() {
            BASELINE_PAD_BYTES
        } else {
            opts.regroup_opts.pad_bytes
        },
        baseline: baseline.unwrap_or_default(),
        plan,
        regroup: regroup_rep,
        robustness: report,
    })
}

/// The SGI-like rung: the baseline's report when its pass is kept. When it
/// is rolled back the program stays as it was, which is recorded as a fall
/// to the original strategy (or, in strict mode, returned as the error).
fn baseline_rung(
    program: &mut Program,
    checker: &mut Checker<'_>,
    tracer: &mut Tracer,
    safety: &SafetyOptions,
    report: &mut RobustnessReport,
) -> Result<Option<BaselineReport>, GcrError> {
    match attempt(program, checker, tracer, Pass::Baseline, &default_layout, |p| {
        Ok(baseline_fuse(p))
    }) {
        Ok(rep) => Ok(Some(rep)),
        Err(cause) if safety.strict => Err(cause),
        Err(cause) => {
            report.fallbacks.push(Fallback {
                pass: Pass::Baseline,
                from: "sgi-like".into(),
                to: "original".into(),
                cause,
            });
            Ok(None)
        }
    }
}

/// Fail-safe counterpart of [`apply_strategy`].
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
    run(prog, &strategy.options(), Start::of(strategy), safety, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regroup::RegroupLevel;

    const FULL: Strategy = Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::Multi };

    const SRC: &str = "
program ladder
param N
array A[N, N], B[N, N], C[N, N]

for i = 2, N - 1 {
  for j = 2, N - 1 {
    A[j, i] = 0.25 * (A[j-1, i] + A[j+1, i] + B[j, i-1] + B[j, i+1])
  }
}
for i = 2, N - 1 {
  for j = 2, N - 1 {
    B[j, i] = f(A[j, i])
  }
}
for i = 2, N - 1 {
  for j = 2, N - 1 {
    C[j, i] = g(B[j, i], C[j, i])
  }
}
";

    /// The ladder checked pass by pass from the start, with no deferred
    /// attempt: the reference [`apply_strategy_checked_traced`] must agree
    /// with.
    fn per_pass(
        prog: &Program,
        strategy: Strategy,
        safety: &SafetyOptions,
        tracer: &mut Tracer,
    ) -> Result<OptimizedProgram, GcrError> {
        gcr_ir::validate::validate(prog)
            .map_err(|errors| GcrError::Validate { stage: "input".into(), errors })?;
        let (opts, start) = (strategy.options(), Start::of(strategy));
        drive(prog, &opts, start, safety, &mut Checker::new(prog, safety), tracer)
    }

    /// Everything a run delivers, with the pass trace's timings zeroed.
    fn outcome(res: Result<OptimizedProgram, GcrError>, tracer: Tracer) -> String {
        let mut events = tracer.into_events();
        for e in &mut events {
            e.wall_ns = 0;
        }
        format!("{res:#?}\n{events:#?}")
    }

    fn loop_files() -> Vec<std::path::PathBuf> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = Vec::new();
        for dir in ["examples", "crates/conform/corpus"] {
            for entry in std::fs::read_dir(root.join(dir)).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_some_and(|x| x == "loop") {
                    files.push(path);
                }
            }
        }
        files.sort();
        files
    }

    #[test]
    fn deferred_check_delivers_what_the_per_pass_ladder_delivers() {
        let files = loop_files();
        assert!(files.len() >= 30, "{files:?}");
        let strategies = [
            Strategy::Sgi,
            Strategy::FusionOnly { levels: 1 },
            Strategy::FusionOnly { levels: 3 },
            FULL,
            Strategy::RegroupOnly,
        ];
        let faults = [
            None,
            Some(Pass::Prelim),
            Some(Pass::Fusion { level: 1 }),
            Some(Pass::Fusion { level: 2 }),
            Some(Pass::Fusion { level: 3 }),
            Some(Pass::Regroup),
            Some(Pass::Baseline),
        ];
        let modes = [(false, true), (true, true), (false, false)];
        for path in &files {
            let src = std::fs::read_to_string(path).unwrap();
            let prog = gcr_frontend::parse(&src).unwrap();
            for strategy in strategies {
                for inject_fault in faults {
                    for (strict, fallback) in modes {
                        let safety =
                            SafetyOptions { strict, fallback, inject_fault, ..Default::default() };
                        let mut t1 = Tracer::enabled();
                        let deferred =
                            apply_strategy_checked_traced(&prog, strategy, &safety, &mut t1);
                        let mut t2 = Tracer::enabled();
                        let replayed = per_pass(&prog, strategy, &safety, &mut t2);
                        assert_eq!(
                            outcome(deferred, t1),
                            outcome(replayed, t2),
                            "{} {strategy:?} {inject_fault:?} strict {strict} fallback {fallback}",
                            path.display()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_clean_pipeline_executes_its_candidate_once_per_oracle_size() {
        let prog = gcr_frontend::parse(SRC).unwrap();
        let safety = SafetyOptions::default();
        let opts = FULL.options();
        let mut checker = Checker::new(&prog, &safety);
        let opt = check_delivered_or_replay(
            &prog,
            &opts,
            Start::Top,
            &safety,
            &mut checker,
            &mut Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(opt.robustness.strategy, "fuse3+group");
        assert_eq!(opt.robustness.checks, 5, "prelim, fusion@1..3 and regroup");
        assert_eq!(checker.runs, 2);
        // Per pass, each of the five checkpoints runs it at both sizes.
        let mut checker = Checker::new(&prog, &safety);
        drive(&prog, &opts, Start::Top, &safety, &mut checker, &mut Tracer::disabled()).unwrap();
        assert_eq!(checker.runs, 10);
    }

    #[test]
    fn a_failed_deferred_check_replays_the_ladder_per_pass() {
        let prog = gcr_frontend::parse(SRC).unwrap();
        let safety =
            SafetyOptions { inject_fault: Some(Pass::Fusion { level: 2 }), ..Default::default() };
        let opts = FULL.options();
        let mut checker = Checker::new(&prog, &safety);
        let opt = check_delivered_or_replay(
            &prog,
            &opts,
            Start::Top,
            &safety,
            &mut checker,
            &mut Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(opt.robustness.strategy, "fuse1+group");
        assert_eq!(opt.robustness.checks, 4, "prelim, fusion@1, fusion@2 and regroup");
        // The deferred check stops at the first size that mismatches (1);
        // the replay runs prelim, fusion@1 and regroup at both sizes and
        // the faulty fusion@2 at the first (2 + 2 + 1 + 2).
        assert_eq!(checker.runs, 1 + 7);
    }

    #[test]
    fn the_original_strategy_executes_nothing() {
        let prog = gcr_frontend::parse(SRC).unwrap();
        let safety = SafetyOptions::default();
        let mut checker = Checker::new(&prog, &safety);
        let opts = Strategy::Original.options();
        let opt = check_delivered_or_replay(
            &prog,
            &opts,
            Start::Top,
            &safety,
            &mut checker,
            &mut Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(opt.robustness.checks, 0);
        assert_eq!(checker.runs, 0);
        assert!(checker.oracle.is_none(), "no pass, so no reference run either");
    }
}
