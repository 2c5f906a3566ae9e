//! The IR interpreter.
//!
//! Executes a program in exact loop order, evaluating `f64` arithmetic over
//! a flat memory image and streaming every **array** access to a
//! [`TraceSink`]. Scalars (rank-0 arrays) are computed but not traced: in
//! compiled code they live in registers, and the paper's measurements count
//! memory references.
//!
//! Guard ranges are honoured: a member statement of a loop executes only in
//! iterations inside its guard — this is how fused programs (alignment,
//! embedding, peeling) run without code generation.

use crate::compile::Refusal;
use crate::layout::{ArrayLayout, DataLayout, ELEM_BYTES};
use gcr_ir::{
    ArrayId, ArrayRef, AssignKind, BinOp, Expr, GcrError, GuardedStmt, Loop, ParamBinding, Program,
    ReduceOp, RefId, Resource, Stmt, StmtId, Subscript, UnOp,
};

/// One traced array access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessEvent {
    /// Byte address.
    pub addr: u64,
    /// Array accessed.
    pub array: ArrayId,
    /// Static reference id.
    pub ref_id: RefId,
    /// Static statement id.
    pub stmt: StmtId,
    /// True for stores (and the store half of reductions).
    pub is_write: bool,
}

/// One event position within a strip iteration: the event's static fields
/// plus its affine address walk. Slot `s` of iteration `k` is the event
/// `AccessEvent { addr: addr + k * stride, .. }` — every address in a strip
/// is an affine function of the iteration, which is exactly what makes the
/// strip batchable in the first place.
#[derive(Clone, Copy, Debug)]
pub struct BatchSlot {
    /// Byte address at the strip's first iteration.
    pub addr: u64,
    /// Per-iteration byte advance (may be zero or negative).
    pub stride: i64,
    /// Array accessed.
    pub array: ArrayId,
    /// Static reference id.
    pub ref_id: RefId,
    /// Static statement id.
    pub stmt: StmtId,
    /// True for stores (and the store half of reductions).
    pub is_write: bool,
}

impl BatchSlot {
    /// Byte address of this slot at strip iteration `k`.
    #[inline(always)]
    pub fn addr_at(&self, k: i64) -> u64 {
        (self.addr as i64 + k * self.stride) as u64
    }

    /// The full event of this slot at strip iteration `k`.
    #[inline(always)]
    pub fn event_at(&self, k: i64) -> AccessEvent {
        AccessEvent {
            addr: self.addr_at(k),
            array: self.array,
            ref_id: self.ref_id,
            stmt: self.stmt,
            is_write: self.is_write,
        }
    }
}

/// A whole iteration strip of trace events, in compressed affine form: the
/// VM engine proves every event address of a planned segment affine in the
/// loop variable, so a strip of `iters` iterations is fully described by
/// one [`BatchSlot`] per event position — no per-event materialization at
/// all on the producer side.
///
/// The exact per-event stream is iteration-major: for `k` in `0..iters`,
/// slot `0..slots.len()` in order, with `end_instance(stmt)` fired after
/// the first `end` slots of each iteration, then after the next boundary,
/// and so on (`ends` offsets are within-iteration and ascending; every
/// iteration has the same boundary structure). Replaying that order
/// reproduces what the per-event engines deliver call by call — the
/// default [`TraceSink::record_batch`] does exactly this, and the
/// differential suites hold batched runs to it bit-for-bit.
pub struct TraceBatch<'a> {
    /// Event positions of one iteration, in emission order.
    pub slots: &'a [BatchSlot],
    /// Instance boundaries within each iteration: `(end, stmt)` means the
    /// instance of `stmt` ends after the iteration's first `end` events.
    pub ends: &'a [(u32, StmtId)],
    /// Number of iterations in the strip.
    pub iters: u32,
}

impl TraceBatch<'_> {
    /// Total number of access events the batch encodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len() * self.iters as usize
    }

    /// True when the batch encodes no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Consumer of the access stream.
pub trait TraceSink {
    /// Called for every traced access, in execution order. Events are
    /// passed by value — [`AccessEvent`] is a small `Copy` struct, and the
    /// hot interpreter → sink path should not bounce through a reference.
    fn access(&mut self, ev: AccessEvent);

    /// Called after each dynamic statement instance (all its reads and its
    /// write have been reported). Used by the reuse-driven execution study
    /// to delimit instruction instances.
    fn end_instance(&mut self, _stmt: StmtId) {}

    /// Delivers a whole strip of events at once (the VM engine's batched
    /// path). The default expands the affine batch through
    /// [`TraceSink::access`] and [`TraceSink::end_instance`] in exact
    /// stream order, so every sink is correct unmodified; hot sinks
    /// override this to turn millions of virtual calls into one tight
    /// address-expansion loop over their own state.
    fn record_batch(&mut self, batch: &TraceBatch<'_>) {
        for k in 0..batch.iters as i64 {
            let mut pos = 0usize;
            for &(end, stmt) in batch.ends {
                for sl in &batch.slots[pos..end as usize] {
                    self.access(sl.event_at(k));
                }
                pos = end as usize;
                self.end_instance(stmt);
            }
            for sl in &batch.slots[pos..] {
                self.access(sl.event_at(k));
            }
        }
    }
}

/// Feeds one access stream to two sinks, so several measurements share a
/// single execution pass. Nests for more: a `Tee` is itself a sink.
/// Batches are forwarded whole, so both sides keep their fast paths.
pub struct Tee<'a, A: TraceSink, B: TraceSink> {
    /// First sink.
    pub a: &'a mut A,
    /// Second sink.
    pub b: &'a mut B,
}

impl<A: TraceSink, B: TraceSink> TraceSink for Tee<'_, A, B> {
    #[inline]
    fn access(&mut self, ev: AccessEvent) {
        self.a.access(ev);
        self.b.access(ev);
    }

    #[inline]
    fn end_instance(&mut self, stmt: StmtId) {
        self.a.end_instance(stmt);
        self.b.end_instance(stmt);
    }

    fn record_batch(&mut self, batch: &TraceBatch<'_>) {
        self.a.record_batch(batch);
        self.b.record_batch(batch);
    }
}

/// An optional sink: `None` ignores the stream, so a measurement that a
/// flag turns on or off rides a [`Tee`] without a second code path.
impl<S: TraceSink> TraceSink for Option<S> {
    #[inline]
    fn access(&mut self, ev: AccessEvent) {
        if let Some(s) = self {
            s.access(ev);
        }
    }

    #[inline]
    fn end_instance(&mut self, stmt: StmtId) {
        if let Some(s) = self {
            s.end_instance(stmt);
        }
    }

    fn record_batch(&mut self, batch: &TraceBatch<'_>) {
        if let Some(s) = self {
            s.record_batch(batch);
        }
    }
}

/// Sink that ignores everything (pure execution).
#[derive(Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn access(&mut self, _ev: AccessEvent) {}

    #[inline]
    fn record_batch(&mut self, _batch: &TraceBatch<'_>) {}
}

/// Sink that counts reads and writes.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountingSink {
    /// Number of read events.
    pub reads: u64,
    /// Number of write events.
    pub writes: u64,
}

impl TraceSink for CountingSink {
    #[inline]
    fn access(&mut self, ev: AccessEvent) {
        if ev.is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
    }

    fn record_batch(&mut self, batch: &TraceBatch<'_>) {
        let w = batch.slots.iter().filter(|sl| sl.is_write).count() as u64;
        self.writes += w * batch.iters as u64;
        self.reads += (batch.slots.len() as u64 - w) * batch.iters as u64;
    }
}

/// Execution statistics (inputs to the cycle cost model).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Dynamic statement instances executed.
    pub instances: u64,
    /// Floating-point operations executed.
    pub flops: u64,
    /// Traced array reads.
    pub reads: u64,
    /// Traced array writes.
    pub writes: u64,
}

impl ExecStats {
    /// Total traced accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Statically estimated dynamic counts for one execution of the program
/// body, computed from loop bounds without running anything. Guards are
/// ignored, so both fields are *upper* bounds — tight for unguarded
/// programs, slightly generous for fused ones. Intended for reserving
/// trace-capture capacity up front instead of growing `Vec`s amortized.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecEstimate {
    /// Dynamic assignment instances.
    pub instances: u64,
    /// Traced array accesses (scalar references excluded, matching what
    /// the interpreter reports to its sink).
    pub accesses: u64,
}

/// Which execution engine a [`Machine`] runs.
///
/// Both engines are observationally identical — same access-event
/// stream, bit-identical `f64` memory image, same statistics and fuel
/// accounting — which the differential test suite and the interp≡vm
/// conformance oracle enforce. The interpreter is the reference semantics;
/// the register VM is the fast producer, one dispatch per iteration strip.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecEngine {
    /// The tree-walking interpreter (reference semantics).
    Interp,
    /// The register bytecode VM of [`mod@crate::vm`]: superinstructions
    /// selected over the tape of [`mod@crate::compile`] (op tapes, affine
    /// address walkers, guard-resolved iteration segments) plus vectorized
    /// strip execution with batched event emission. Programs outside the
    /// tape's compilation domain run on the interpreter; the default for
    /// all measurement runs.
    #[default]
    Vm,
}

impl ExecEngine {
    /// The accepted engine names, for error messages.
    pub const NAMES: &'static str = "interp|vm";

    /// Parses an engine name as accepted by `GCR_EXEC` and `--exec`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "interp" => Some(ExecEngine::Interp),
            "vm" => Some(ExecEngine::Vm),
            _ => None,
        }
    }

    /// Short name of this engine (the inverse of [`ExecEngine::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            ExecEngine::Interp => "interp",
            ExecEngine::Vm => "vm",
        }
    }

    /// Engine selected by the `GCR_EXEC` environment variable. Unset picks
    /// the default ([`ExecEngine::Vm`]); a recognized name selects that
    /// engine; anything else is a usage error — entry points surface it
    /// instead of silently falling back to the default. Tests should pass
    /// the engine explicitly via [`Machine::with_engine`] instead;
    /// environment variables are racy to set from a multi-threaded test
    /// harness.
    pub fn from_env() -> Result<Self, GcrError> {
        Self::from_env_value(std::env::var("GCR_EXEC").ok().as_deref())
    }

    /// [`ExecEngine::from_env`] on an already-read `GCR_EXEC` value, so the
    /// rejection is testable without touching the process environment.
    fn from_env_value(value: Option<&str>) -> Result<Self, GcrError> {
        match value {
            None => Ok(ExecEngine::default()),
            Some(v) => ExecEngine::parse(v).ok_or_else(|| {
                GcrError::Usage(format!(
                    "unknown execution engine `{v}` in GCR_EXEC: valid engines are {}",
                    ExecEngine::NAMES
                ))
            }),
        }
    }
}

/// Cap on the simulated memory image of every oracle and measurement
/// machine ([`Machine::capped`]).
pub const DEFAULT_MAX_BYTES: usize = 1 << 28; // 256 MiB

/// The interpreter. One `Machine` owns the memory image; `run` can be
/// called repeatedly (e.g. once per time step).
pub struct Machine<'p> {
    prog: &'p Program,
    binding: ParamBinding,
    /// Address function per array.
    pub layout: DataLayout,
    mem: Vec<f64>,
    vars: Vec<i64>,
    op_counts: Vec<u32>,
    stats: ExecStats,
    engine: ExecEngine,
    /// Lazily compiled tape and the VM plan over it: `None` until first
    /// needed, `Some(Err(_))` when the program is outside the compiler's
    /// domain (interpreter fallback, with the reason). The VM's lowering is
    /// total over compiled programs, so every tape has a plan.
    compiled: Option<Result<(crate::tape::CompiledProgram, crate::vm::VmPlan), Refusal>>,
}

impl<'p> Machine<'p> {
    /// Creates a machine with the default column-major layout and
    /// deterministic initial memory.
    pub fn new(prog: &'p Program, binding: ParamBinding) -> Self {
        let layout = DataLayout::column_major(prog, &binding, 0);
        Self::with_layout(prog, binding, layout)
    }

    /// Creates a machine with an explicit layout, refusing layouts whose
    /// memory image would exceed `max_bytes` — the guard that keeps a
    /// degenerate parameter binding from exhausting host memory.
    pub fn try_with_layout(
        prog: &'p Program,
        binding: ParamBinding,
        layout: DataLayout,
        max_bytes: Option<usize>,
    ) -> Result<Self, GcrError> {
        if let Some(cap) = max_bytes {
            if layout.total_bytes > cap {
                return Err(GcrError::BudgetExceeded {
                    resource: Resource::MemoryBytes,
                    limit: cap as u64,
                });
            }
        }
        Ok(Self::with_layout(prog, binding, layout))
    }

    /// The constructor of every measurement run: `engine` over a memory
    /// image of at most [`DEFAULT_MAX_BYTES`], so a size typed on a command
    /// line or sent in a request is a typed error, never an allocation
    /// failure.
    pub fn capped(
        prog: &'p Program,
        binding: ParamBinding,
        layout: DataLayout,
        engine: ExecEngine,
    ) -> Result<Self, GcrError> {
        Ok(Self::try_with_layout(prog, binding, layout, Some(DEFAULT_MAX_BYTES))?
            .with_engine(engine))
    }

    /// Creates a machine with an explicit layout (e.g. after regrouping).
    pub fn with_layout(prog: &'p Program, binding: ParamBinding, layout: DataLayout) -> Self {
        let mut op_counts = vec![0u32; prog.next_stmt as usize];
        prog.walk(|gs, _| {
            if let Stmt::Assign(a) = &gs.stmt {
                op_counts[a.id.index()] = a.rhs.op_count() as u32 + 1; // +1 for the store
            }
        });
        let mut m = Machine {
            prog,
            binding,
            mem: vec![0.0; layout.total_bytes / ELEM_BYTES + 1],
            layout,
            vars: vec![0; prog.vars.len()],
            op_counts,
            stats: ExecStats::default(),
            // Construction stays infallible: entry points (CLI, bench and
            // serve binaries) validate `GCR_EXEC` up front and report the
            // usage error; by the time a machine is built here an invalid
            // value has already been rejected.
            engine: ExecEngine::from_env().unwrap_or_default(),
            compiled: None,
        };
        m.init_memory();
        m
    }

    /// Selects the execution engine, consuming style (for construction
    /// chains). The compiled tape is cached across engine switches — it
    /// depends only on the program, binding, and layout.
    pub fn with_engine(mut self, engine: ExecEngine) -> Self {
        self.set_engine(engine);
        self
    }

    /// Selects the execution engine in place.
    pub fn set_engine(&mut self, engine: ExecEngine) {
        self.engine = engine;
    }

    /// Engine currently selected.
    pub fn engine(&self) -> ExecEngine {
        self.engine
    }

    /// True when this machine's program compiled to the tape (after
    /// forcing compilation). The VM's lowering is total over compiled
    /// programs, so a `false` under [`ExecEngine::Vm`] means runs use the
    /// interpreter fallback; [`Machine::refusal`] says why.
    pub fn compiles(&mut self) -> bool {
        self.refusal().is_none()
    }

    /// Why the tape compiler declined this machine's program (after
    /// forcing compilation); `None` when it compiled.
    pub fn refusal(&mut self) -> Option<&Refusal> {
        self.ensure_compiled().as_ref().err()
    }

    fn ensure_compiled(
        &mut self,
    ) -> &Result<(crate::tape::CompiledProgram, crate::vm::VmPlan), Refusal> {
        let (prog, binding, layout) = (self.prog, &self.binding, &self.layout);
        self.compiled.get_or_insert_with(|| {
            crate::compile::try_compile(prog, binding, layout).map(|cp| {
                let plan = crate::vm::VmPlan::build(&cp);
                (cp, plan)
            })
        })
    }

    /// Fills memory with a deterministic per-(array, logical element)
    /// pattern, so that two layouts of the same program start from equal
    /// logical contents.
    pub fn init_memory(&mut self) {
        for (ai, al) in self.layout.arrays.iter().enumerate() {
            let mut flat = 0u64;
            for_each_elem_mut(&mut self.mem, al, |elem| {
                *elem = init_value(ai as u64, flat);
                flat += 1;
            });
        }
    }

    /// The program this machine executes.
    pub fn program(&self) -> &'p Program {
        self.prog
    }

    /// Parameter binding in use.
    pub fn binding(&self) -> &ParamBinding {
        &self.binding
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Statically estimated instance/access counts for one execution of
    /// the body under this machine's parameter binding (see
    /// [`ExecEstimate`] for the bound's direction).
    pub fn estimate(&self) -> ExecEstimate {
        let mut est = ExecEstimate::default();
        estimate_list(&self.prog.body, 1, &self.binding, &mut est);
        est
    }

    /// Executes the whole program body once, streaming accesses to `sink`.
    pub fn run<S: TraceSink>(&mut self, sink: &mut S) {
        self.run_fueled(sink, 1, u64::MAX).expect("unlimited fuel cannot run out");
    }

    /// Executes the body `steps` times (the time-step loop of the kernels).
    pub fn run_steps<S: TraceSink>(&mut self, sink: &mut S, steps: usize) {
        self.run_fueled(sink, steps, u64::MAX).expect("unlimited fuel cannot run out");
    }

    /// Like [`Machine::run`], but stops with [`GcrError::BudgetExceeded`]
    /// once `fuel` units (loop iterations plus statement instances) are
    /// spent. A transformed program whose bounds went wrong terminates
    /// instead of spinning.
    pub fn run_guarded<S: TraceSink>(&mut self, sink: &mut S, fuel: u64) -> Result<(), GcrError> {
        self.run_fueled(sink, 1, fuel)
    }

    /// Like [`Machine::run_steps`], with one fuel budget shared across all
    /// `steps` executions of the body.
    pub fn run_steps_guarded<S: TraceSink>(
        &mut self,
        sink: &mut S,
        steps: usize,
        fuel: u64,
    ) -> Result<(), GcrError> {
        self.run_fueled(sink, steps, fuel)
    }

    fn run_fueled<S: TraceSink>(
        &mut self,
        sink: &mut S,
        steps: usize,
        fuel: u64,
    ) -> Result<(), GcrError> {
        if self.engine == ExecEngine::Vm {
            self.ensure_compiled();
            if let Some(Ok((cp, plan))) = self.compiled.as_ref() {
                return crate::vm::run(
                    cp,
                    plan,
                    &mut self.mem,
                    &mut self.vars,
                    &mut self.stats,
                    sink,
                    steps,
                    fuel,
                );
            }
            // Outside the compiler's domain: fall through to the
            // reference interpreter, which is total.
        }
        // Split borrows: body is part of prog (shared), the rest is mutable.
        let body = &self.prog.body;
        let mut ctx = Ctx {
            binding: &self.binding,
            layout: &self.layout,
            mem: &mut self.mem,
            vars: &mut self.vars,
            op_counts: &self.op_counts,
            stats: &mut self.stats,
            guards: Vec::new(),
            fuel,
            fuel_limit: fuel,
        };
        for _ in 0..steps {
            ctx.run_list(body, sink)?;
        }
        Ok(())
    }

    /// Reads an array's contents in logical (odometer) order, regardless of
    /// layout — used to compare program versions for semantic equality.
    pub fn read_array(&self, a: ArrayId) -> Vec<f64> {
        let al = &self.layout.arrays[a.index()];
        let mut out = Vec::with_capacity(al.len());
        for_each_run(al, |start, len, stride| {
            if stride == ELEM_BYTES {
                out.extend_from_slice(&self.mem[start / ELEM_BYTES..][..len]);
            } else {
                out.extend((0..len).map(|k| self.mem[(start + k * stride) / ELEM_BYTES]));
            }
        });
        out
    }

    /// Calls `f` with every element of an array in logical order — what
    /// [`Machine::read_array`] would return, visited in place.
    pub fn visit_array(&self, a: ArrayId, f: impl FnMut(f64)) {
        for_each_elem(&self.mem, &self.layout.arrays[a.index()], f);
    }

    /// Writes an array's contents in logical (odometer) order — the inverse
    /// of [`Machine::read_array`]; used to equalize initial data between
    /// program versions whose array identities differ (e.g. after array
    /// splitting). Fails with [`GcrError::LayoutMismatch`] when the value
    /// count disagrees with the layout's element count.
    pub fn write_array(&mut self, a: ArrayId, vals: &[f64]) -> Result<(), GcrError> {
        self.check_len(a, vals.len())?;
        let mut rest = vals;
        let mem = &mut self.mem;
        for_each_run(&self.layout.arrays[a.index()], |start, len, stride| {
            let (run, tail) = rest.split_at(len);
            rest = tail;
            if stride == ELEM_BYTES {
                mem[start / ELEM_BYTES..][..len].copy_from_slice(run);
            } else {
                run.iter()
                    .enumerate()
                    .for_each(|(k, &v)| mem[(start + k * stride) / ELEM_BYTES] = v);
            }
        });
        Ok(())
    }

    /// [`Machine::write_array`] from any source of exactly as many values
    /// as the array has elements, e.g. every `k`-th value of a slice.
    pub fn write_array_from(
        &mut self,
        a: ArrayId,
        vals: impl ExactSizeIterator<Item = f64>,
    ) -> Result<(), GcrError> {
        self.check_len(a, vals.len())?;
        let mut vals = vals;
        for_each_elem_mut(&mut self.mem, &self.layout.arrays[a.index()], |elem| {
            *elem = vals.next().expect("length checked");
        });
        Ok(())
    }

    fn check_len(&self, a: ArrayId, got: usize) -> Result<(), GcrError> {
        let expected = self.layout.arrays[a.index()].len();
        if got == expected {
            return Ok(());
        }
        Err(GcrError::LayoutMismatch { array: self.prog.array(a).name.clone(), expected, got })
    }

    /// Sum over all arrays' logical contents (cheap equivalence signal).
    pub fn checksum(&self) -> f64 {
        (0..self.prog.arrays.len())
            .map(|i| {
                let mut sum = 0.0;
                self.visit_array(ArrayId::from_index(i), |v| {
                    if v.is_finite() {
                        sum += v;
                    }
                });
                sum
            })
            .sum()
    }
}

/// Counts traced (non-scalar) reads in an expression tree.
fn expr_traced_reads(e: &Expr) -> u64 {
    match e {
        Expr::Read(r) => u64::from(!r.subs.is_empty()),
        Expr::Unary(_, x) => expr_traced_reads(x),
        Expr::Bin(_, x, y) => expr_traced_reads(x) + expr_traced_reads(y),
        Expr::Call(_, args) => args.iter().map(expr_traced_reads).sum(),
        Expr::Const(_) | Expr::Lin(_) | Expr::Var { .. } => 0,
    }
}

fn estimate_list(stmts: &[GuardedStmt], mult: u64, bind: &ParamBinding, est: &mut ExecEstimate) {
    for gs in stmts {
        match &gs.stmt {
            Stmt::Assign(a) => {
                let mut acc = expr_traced_reads(&a.rhs);
                if !a.lhs.subs.is_empty() {
                    // The store, plus the read half of a reduction.
                    acc += 1 + u64::from(matches!(a.kind, AssignKind::Reduce(_)));
                }
                est.instances = est.instances.saturating_add(mult);
                est.accesses = est.accesses.saturating_add(mult.saturating_mul(acc));
            }
            Stmt::Loop(l) => {
                let trips = (l.hi.eval(bind) - l.lo.eval(bind) + 1).max(0) as u64;
                estimate_list(&l.body, mult.saturating_mul(trips), bind, est);
            }
        }
    }
}

/// Deterministic initial value for logical element `flat` of array `ai`.
fn init_value(ai: u64, flat: u64) -> f64 {
    // Small, well-conditioned values in [0.5, 1.5).
    let h = ai
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(flat.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    0.5 + (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Calls `run(start, len, stride)` for every run of an array — `len`
/// logically consecutive elements, the first at byte address `start`, a
/// constant `stride` bytes apart — in logical order (first dimension
/// fastest, 1-based: the order of `init_memory`, `read_array` and
/// `write_array`). A run is the first dimension extended over every
/// following dimension that continues it without a gap, so a column-major
/// array is one run, and so is a member of an element-interleaved group;
/// the remaining dimensions are an odometer that carries the address along,
/// and no index tuple is turned into an address per element.
fn for_each_run(al: &ArrayLayout, mut run: impl FnMut(usize, usize, usize)) {
    if al.extents.iter().any(|&e| e <= 0) {
        return;
    }
    let (mut len, stride, mut outer) = match (al.extents.first(), al.strides.first()) {
        (Some(&n), Some(&stride)) => (n as usize, stride, 1),
        _ => (1, 0, 0), // a scalar
    };
    while outer < al.extents.len() && stride.checked_mul(len) == Some(al.strides[outer]) {
        len *= al.extents[outer] as usize;
        outer += 1;
    }
    let (extents, strides) = (&al.extents[outer..], &al.strides[outer..]);
    let mut idx = vec![1i64; extents.len()];
    let mut start = al.base;
    loop {
        run(start, len, stride);
        let mut d = 0;
        loop {
            if d == idx.len() {
                return; // odometer wrapped (at once when the array is one run)
            }
            if idx[d] < extents[d] {
                idx[d] += 1;
                start += strides[d];
                break;
            }
            start -= strides[d] * (idx[d] - 1) as usize;
            idx[d] = 1;
            d += 1;
        }
    }
}

/// Calls `f` with every element of an array in the memory image `mem`, in
/// logical order.
fn for_each_elem(mem: &[f64], al: &ArrayLayout, mut f: impl FnMut(f64)) {
    for_each_run(al, |start, len, stride| {
        if stride == ELEM_BYTES {
            mem[start / ELEM_BYTES..][..len].iter().for_each(|&v| f(v));
        } else {
            (0..len).for_each(|k| f(mem[(start + k * stride) / ELEM_BYTES]));
        }
    });
}

/// [`for_each_elem`] over the elements' places, for filling them.
fn for_each_elem_mut(mem: &mut [f64], al: &ArrayLayout, mut f: impl FnMut(&mut f64)) {
    for_each_run(al, |start, len, stride| {
        if stride == ELEM_BYTES {
            mem[start / ELEM_BYTES..][..len].iter_mut().for_each(&mut f);
        } else {
            (0..len).for_each(|k| f(&mut mem[(start + k * stride) / ELEM_BYTES]));
        }
    });
}

struct Ctx<'a> {
    binding: &'a ParamBinding,
    layout: &'a DataLayout,
    mem: &'a mut Vec<f64>,
    vars: &'a mut Vec<i64>,
    op_counts: &'a [u32],
    stats: &'a mut ExecStats,
    /// Guard-range scratch, used as a stack across nested `run_loop`
    /// calls. Hoisted here so entering a loop — which happens once per
    /// *enclosing* iteration — allocates nothing after the first entry.
    guards: Vec<Option<(i64, i64)>>,
    fuel: u64,
    fuel_limit: u64,
}

impl Ctx<'_> {
    /// Spends one fuel unit; `Err` when the budget is exhausted.
    #[inline]
    fn spend(&mut self) -> Result<(), GcrError> {
        if self.fuel == 0 {
            return Err(GcrError::BudgetExceeded {
                resource: Resource::InterpreterFuel,
                limit: self.fuel_limit,
            });
        }
        self.fuel -= 1;
        Ok(())
    }

    fn run_list<S: TraceSink>(
        &mut self,
        stmts: &[GuardedStmt],
        sink: &mut S,
    ) -> Result<(), GcrError> {
        for gs in stmts {
            debug_assert!(gs.guard.is_none(), "top-level statements are unguarded");
            self.run_stmt(&gs.stmt, sink)?;
        }
        Ok(())
    }

    fn run_stmt<S: TraceSink>(&mut self, stmt: &Stmt, sink: &mut S) -> Result<(), GcrError> {
        match stmt {
            Stmt::Assign(a) => self.run_assign(a, sink),
            Stmt::Loop(l) => self.run_loop(l, sink),
        }
    }

    fn run_loop<S: TraceSink>(&mut self, l: &Loop, sink: &mut S) -> Result<(), GcrError> {
        let lo = l.lo.eval(self.binding);
        let hi = l.hi.eval(self.binding);
        // Guards are loop-invariant; outer-variable entries depend only on
        // enclosing loop variables, which are fixed for this execution of
        // the loop — evaluate both once, into the shared scratch stack
        // (recursion pushes above `base`, so this frame's entries stay put).
        let base = self.guards.len();
        for gs in &l.body {
            let mut g = None;
            // Conjunction over outer entries: inactive => never-active range.
            for (v, r) in &gs.outer {
                let (rlo, rhi) = r.eval(self.binding);
                let val = self.vars[v.index()];
                if val < rlo || val > rhi {
                    g = Some(Some((1, 0))); // empty range: never active
                    break;
                }
            }
            self.guards.push(g.unwrap_or_else(|| gs.guard.as_ref().map(|r| r.eval(self.binding))));
        }
        for t in lo..=hi {
            self.spend()?;
            self.vars[l.var.index()] = t;
            for (k, gs) in l.body.iter().enumerate() {
                if let Some((glo, ghi)) = self.guards[base + k] {
                    if t < glo || t > ghi {
                        continue;
                    }
                }
                self.run_stmt(&gs.stmt, sink)?;
            }
        }
        self.guards.truncate(base);
        Ok(())
    }

    fn run_assign<S: TraceSink>(
        &mut self,
        a: &gcr_ir::Assign,
        sink: &mut S,
    ) -> Result<(), GcrError> {
        self.spend()?;
        let rhs = self.eval(&a.rhs, a.id, sink);
        // Locate the target once; the (possible) reduction read and the
        // store both reuse the same slot.
        let slot = self.locate(&a.lhs);
        let traced = !a.lhs.subs.is_empty();
        let value = match a.kind {
            AssignKind::Normal => rhs,
            AssignKind::Reduce(op) => {
                // The reduction reads its target first.
                if traced {
                    self.touch_at(slot.byte, &a.lhs, false, a.id, sink);
                }
                let old = self.mem[slot.elem];
                match op {
                    ReduceOp::Sum => old + rhs,
                    ReduceOp::Max => old.max(rhs),
                    ReduceOp::Min => old.min(rhs),
                }
            }
        };
        self.mem[slot.elem] = value;
        if traced {
            self.touch_at(slot.byte, &a.lhs, true, a.id, sink);
        }
        self.stats.instances += 1;
        self.stats.flops += u64::from(self.op_counts[a.id.index()]);
        sink.end_instance(a.id);
        Ok(())
    }

    fn eval<S: TraceSink>(&mut self, e: &Expr, stmt: StmtId, sink: &mut S) -> f64 {
        match e {
            Expr::Const(c) => *c,
            Expr::Lin(l) => l.eval(self.binding) as f64,
            Expr::Var { var, offset } => (self.vars[var.index()] + offset) as f64,
            Expr::Read(r) => {
                let slot = self.locate(r);
                if !r.subs.is_empty() {
                    self.touch_at(slot.byte, r, false, stmt, sink);
                }
                self.mem[slot.elem]
            }
            Expr::Unary(op, x) => {
                let v = self.eval(x, stmt, sink);
                match op {
                    UnOp::Neg => -v,
                    UnOp::Sqrt => v.abs().sqrt(),
                    UnOp::Abs => v.abs(),
                }
            }
            Expr::Bin(op, x, y) => {
                let a = self.eval(x, stmt, sink);
                let b = self.eval(y, stmt, sink);
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => {
                        if b.abs() < 1e-300 {
                            a
                        } else {
                            a / b
                        }
                    }
                    BinOp::Max => a.max(b),
                    BinOp::Min => a.min(b),
                }
            }
            Expr::Call(name, args) => {
                let mut s = 0.0;
                for a in args {
                    s += self.eval(a, stmt, sink);
                }
                intrinsic(name, s)
            }
        }
    }

    #[inline]
    fn locate(&self, r: &ArrayRef) -> Slot {
        let al = &self.layout.arrays[r.array.index()];
        let mut addr = al.base;
        for (k, sub) in r.subs.iter().enumerate() {
            let i = match sub {
                Subscript::Var { var, offset } => self.vars[var.index()] + offset,
                Subscript::Invariant(e) => e.eval(self.binding),
            };
            debug_assert!(
                i >= 1 && i <= al.extents[k],
                "subscript {i} out of bounds 1..={} (dim {k})",
                al.extents[k]
            );
            addr += al.strides[k] * (i - 1) as usize;
        }
        Slot { byte: addr as u64, elem: addr / ELEM_BYTES }
    }

    /// Reports one traced access at an already-located address. Callers
    /// are responsible for skipping scalars (register-allocated, not
    /// traced) — this keeps the hot path to a single `locate` per access.
    #[inline]
    fn touch_at<S: TraceSink>(
        &mut self,
        addr: u64,
        r: &ArrayRef,
        is_write: bool,
        stmt: StmtId,
        sink: &mut S,
    ) {
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        sink.access(AccessEvent { addr, array: r.array, ref_id: r.id, stmt, is_write });
    }
}

struct Slot {
    byte: u64,
    elem: usize,
}

/// Affine coefficients of the opaque intrinsics (`f`, `g`, … in the
/// paper's examples): `(scale, bias)` applied to the argument sum. Shared
/// with the tape's `Intrinsic` op so both engines evaluate the exact same
/// expression.
pub(crate) fn intrinsic_coeffs(name: &str) -> (f64, f64) {
    match name {
        "f" => (0.5, 1.0),
        "g" => (0.3, 2.0),
        "h" => (0.7, -1.0),
        "t" => (0.9, 0.1),
        "u" => (1.1, 0.0),
        "w" => (0.5, 0.3),
        "relax" => (0.25, 0.0),
        "flux" => (0.4, 0.2),
        "wave" => (0.25, 0.5),
        _ => (1.0, 0.0),
    }
}

/// Fixed interpretations of the intrinsics: affine functions of the
/// argument sum, cheap and deterministic.
fn intrinsic(name: &str, s: f64) -> f64 {
    let (scale, bias) = intrinsic_coeffs(name);
    scale * s + bias
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_ir::{LinExpr, ProgramBuilder, Range};

    /// for i = 2, N { A[i] = f(A[i-1]) }
    fn chain_prog() -> Program {
        let mut b = ProgramBuilder::new("chain");
        let n = b.param("N");
        let a = b.array("A", &[LinExpr::param(n)]);
        let i = b.var("i");
        let rhs = b.read(a, vec![Subscript::var(i, -1)]);
        let s = b.assign(a, vec![Subscript::var(i, 0)], Expr::Call("f", vec![rhs]));
        let l = b.for_(i, LinExpr::konst(2), LinExpr::param(n), vec![s]);
        b.push(l);
        b.finish()
    }

    #[test]
    fn engine_names_round_trip() {
        for engine in [ExecEngine::Interp, ExecEngine::Vm] {
            assert_eq!(ExecEngine::parse(engine.name()), Some(engine));
            assert!(ExecEngine::NAMES.contains(engine.name()));
        }
        assert_eq!(ExecEngine::NAMES, "interp|vm");
        assert_eq!(ExecEngine::parse("jit"), None);
        assert_eq!(ExecEngine::parse(""), None);
        assert_eq!(ExecEngine::default(), ExecEngine::Vm);
    }

    #[test]
    fn unknown_gcr_exec_value_is_a_usage_error() {
        assert_eq!(ExecEngine::from_env_value(None), Ok(ExecEngine::Vm));
        assert_eq!(ExecEngine::from_env_value(Some("interp")), Ok(ExecEngine::Interp));
        // `compiled` was an engine until the tape executor was removed: old
        // scripts exporting it must fail, not silently run the VM.
        for bad in ["compiled", "VM", ""] {
            match ExecEngine::from_env_value(Some(bad)) {
                Err(GcrError::Usage(msg)) => {
                    assert!(msg.contains("interp|vm") && msg.contains("GCR_EXEC"), "{msg}")
                }
                other => panic!("GCR_EXEC={bad:?} must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn executes_chain_and_counts() {
        let p = chain_prog();
        let mut m = Machine::new(&p, ParamBinding::new(vec![10]));
        let mut sink = CountingSink::default();
        m.run(&mut sink);
        assert_eq!(sink.reads, 9);
        assert_eq!(sink.writes, 9);
        assert_eq!(m.stats().instances, 9);
        // A[i] = 0.5*A[i-1] + 1: fixed point 2; check recurrence applied.
        let a = m.read_array(gcr_ir::ArrayId::from_index(0));
        for i in 1..10 {
            assert!((a[i] - (0.5 * a[i - 1] + 1.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn tee_feeds_both_sinks_the_whole_stream() {
        /// Counts accesses and instance boundaries, batched or not.
        #[derive(Default, Debug, PartialEq)]
        struct Seen {
            accesses: u64,
            ends: u64,
            batches: u64,
        }
        impl TraceSink for Seen {
            fn access(&mut self, _ev: AccessEvent) {
                self.accesses += 1;
            }
            fn end_instance(&mut self, _stmt: StmtId) {
                self.ends += 1;
            }
            fn record_batch(&mut self, batch: &TraceBatch<'_>) {
                self.batches += 1;
                self.accesses += batch.len() as u64;
                self.ends += (batch.ends.len() * batch.iters as usize) as u64;
            }
        }
        let p = chain_prog();
        for engine in [ExecEngine::Interp, ExecEngine::Vm] {
            let bind = ParamBinding::new(vec![40]);
            let mut alone = Seen::default();
            Machine::new(&p, bind.clone()).with_engine(engine).run(&mut alone);
            let (mut a, mut b, mut c) = (Seen::default(), Seen::default(), Seen::default());
            let mut inner = Tee { a: &mut b, b: &mut c };
            let mut tee = Tee { a: &mut a, b: &mut inner };
            Machine::new(&p, bind).with_engine(engine).run(&mut tee);
            assert_eq!(alone.accesses, 78);
            assert_eq!(alone.ends, 39);
            // Batches arrive whole on every side, nested or not.
            assert_eq!(alone.batches > 0, engine == ExecEngine::Vm);
            assert_eq!([&a, &b, &c], [&alone; 3], "{}", engine.name());
        }
    }

    #[test]
    fn trace_addresses_are_sequential() {
        let p = chain_prog();
        let mut m = Machine::new(&p, ParamBinding::new(vec![5]));
        struct Cap(Vec<AccessEvent>);
        impl TraceSink for Cap {
            fn access(&mut self, ev: AccessEvent) {
                self.0.push(ev);
            }
        }
        let mut sink = Cap(Vec::new());
        m.run(&mut sink);
        // i=2: read A[1] (addr 0), write A[2] (addr 8); i=3: read 8, write 16...
        let addrs: Vec<u64> = sink.0.iter().map(|e| e.addr).collect();
        assert_eq!(addrs, vec![0, 8, 8, 16, 16, 24, 24, 32]);
        assert!(!sink.0[0].is_write && sink.0[1].is_write);
    }

    #[test]
    fn guards_restrict_iterations() {
        let mut b = ProgramBuilder::new("g");
        let n = b.param("N");
        let a = b.array("A", &[LinExpr::param(n)]);
        let i = b.var("i");
        let s0 = b.assign(a, vec![Subscript::var(i, 0)], Expr::Const(1.0));
        let s1 = b.assign(a, vec![Subscript::var(i, 0)], Expr::Const(2.0));
        let l = match b.for_(i, LinExpr::konst(1), LinExpr::param(n), vec![s0, s1]) {
            Stmt::Loop(mut l) => {
                l.body[1].guard = Some(Range::consts(3, 4)); // overwrite only at 3,4
                Stmt::Loop(l)
            }
            _ => unreachable!(),
        };
        b.push(l);
        let p = b.finish();
        let mut m = Machine::new(&p, ParamBinding::new(vec![6]));
        m.run(&mut NullSink);
        let a = m.read_array(gcr_ir::ArrayId::from_index(0));
        assert_eq!(a, vec![1.0, 1.0, 2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn outer_guard_entries_restrict_outer_iterations() {
        // Inner member active only when the OUTER variable is in [2, 3].
        let mut b = ProgramBuilder::new("og");
        let n = b.param("N");
        let a = b.array("A", &[LinExpr::param(n), LinExpr::param(n)]);
        let i = b.var("i");
        let j = b.var("j");
        let s = b.assign(a, vec![Subscript::var(j, 0), Subscript::var(i, 0)], Expr::Const(7.0));
        let inner = match b.for_(j, LinExpr::konst(1), LinExpr::param(n), vec![s]) {
            Stmt::Loop(mut l) => {
                l.body[0].outer = vec![(i, Range::consts(2, 3))];
                Stmt::Loop(l)
            }
            _ => unreachable!(),
        };
        let outer = b.for_(i, LinExpr::konst(1), LinExpr::param(n), vec![inner]);
        b.push(outer);
        let p = b.finish();
        let mut m = Machine::new(&p, ParamBinding::new(vec![4]));
        let before = m.read_array(gcr_ir::ArrayId::from_index(0));
        m.run(&mut NullSink);
        let after = m.read_array(gcr_ir::ArrayId::from_index(0));
        for col in 0..4 {
            for row in 0..4 {
                let k = col * 4 + row;
                if col == 1 || col == 2 {
                    assert_eq!(after[k], 7.0, "col {col} written");
                } else {
                    assert_eq!(after[k], before[k], "col {col} untouched");
                }
            }
        }
    }

    #[test]
    fn estimate_matches_unguarded_execution() {
        let p = chain_prog();
        let mut m = Machine::new(&p, ParamBinding::new(vec![10]));
        let est = m.estimate();
        let mut c = CountingSink::default();
        m.run(&mut c);
        assert_eq!(est.instances, m.stats().instances);
        assert_eq!(est.accesses, m.stats().accesses());
    }

    #[test]
    fn estimate_is_upper_bound_under_guards() {
        let mut b = ProgramBuilder::new("g");
        let n = b.param("N");
        let a = b.array("A", &[LinExpr::param(n)]);
        let i = b.var("i");
        let s = b.assign(a, vec![Subscript::var(i, 0)], Expr::Const(1.0));
        let l = match b.for_(i, LinExpr::konst(1), LinExpr::param(n), vec![s]) {
            Stmt::Loop(mut l) => {
                l.body[0].guard = Some(Range::consts(3, 4));
                Stmt::Loop(l)
            }
            _ => unreachable!(),
        };
        b.push(l);
        let p = b.finish();
        let mut m = Machine::new(&p, ParamBinding::new(vec![8]));
        let est = m.estimate();
        m.run(&mut NullSink);
        assert!(est.instances >= m.stats().instances);
        assert!(est.accesses >= m.stats().accesses());
        assert_eq!(est.instances, 8, "guard ignored: full trip count");
        assert_eq!(m.stats().instances, 2, "guard executed: two iterations");
    }

    #[test]
    fn reductions_accumulate() {
        let mut b = ProgramBuilder::new("r");
        let n = b.param("N");
        let a = b.array("A", &[LinExpr::param(n)]);
        let sc = b.scalar("s");
        let i = b.var("i");
        let init = b.assign(sc, vec![], Expr::Const(0.0));
        b.push(init);
        let s0 = b.assign(a, vec![Subscript::var(i, 0)], Expr::Const(2.0));
        let rd = b.read(a, vec![Subscript::var(i, 0)]);
        let s1 = b.reduce(ReduceOp::Sum, sc, vec![], rd);
        let l = b.for_(i, LinExpr::konst(1), LinExpr::param(n), vec![s0, s1]);
        b.push(l);
        let p = b.finish();
        let mut m = Machine::new(&p, ParamBinding::new(vec![8]));
        let mut c = CountingSink::default();
        m.run(&mut c);
        let s = m.read_array(gcr_ir::ArrayId::from_index(1));
        assert_eq!(s, vec![16.0]);
        // scalar accesses are not traced
        assert_eq!(c.writes, 8);
        assert_eq!(c.reads, 8);
    }

    #[test]
    fn init_memory_is_layout_independent() {
        let p = chain_prog();
        let bind = ParamBinding::new(vec![7]);
        let m1 = Machine::new(&p, bind.clone());
        let l2 = DataLayout::column_major(&p, &bind, 256);
        let m2 = Machine::with_layout(&p, bind, l2);
        assert_eq!(
            m1.read_array(gcr_ir::ArrayId::from_index(0)),
            m2.read_array(gcr_ir::ArrayId::from_index(0))
        );
    }

    #[test]
    fn run_steps_iterates() {
        let p = chain_prog();
        let mut m = Machine::new(&p, ParamBinding::new(vec![4]));
        let mut c = CountingSink::default();
        m.run_steps(&mut c, 3);
        assert_eq!(m.stats().instances, 9);
    }

    #[test]
    fn fuel_budget_terminates_degenerate_runs() {
        let p = chain_prog();
        // Tiny memory footprint, huge trip count: only fuel can stop it soon.
        let mut m = Machine::new(&p, ParamBinding::new(vec![1_000_000]));
        let err = m.run_guarded(&mut NullSink, 1000).unwrap_err();
        assert_eq!(
            err,
            GcrError::BudgetExceeded { resource: Resource::InterpreterFuel, limit: 1000 }
        );
        // Ample fuel: completes fine, budget shared across steps.
        let mut m = Machine::new(&p, ParamBinding::new(vec![10]));
        m.run_steps_guarded(&mut NullSink, 2, 1_000).unwrap();
        assert!(m.run_steps_guarded(&mut NullSink, 2, 30).is_err());
    }

    #[test]
    fn memory_cap_rejects_oversized_layouts() {
        let p = chain_prog();
        let bind = ParamBinding::new(vec![1_000_000]);
        let layout = DataLayout::column_major(&p, &bind, 0);
        let err = match Machine::try_with_layout(&p, bind.clone(), layout, Some(1 << 20)) {
            Err(e) => e,
            Ok(_) => panic!("oversized layout accepted"),
        };
        assert!(matches!(err, GcrError::BudgetExceeded { resource: Resource::MemoryBytes, .. }));
        let bind = ParamBinding::new(vec![16]);
        let layout = DataLayout::column_major(&p, &bind, 0);
        assert!(Machine::try_with_layout(&p, bind, layout, Some(1 << 20)).is_ok());
    }

    #[test]
    fn write_array_checks_length() {
        let p = chain_prog();
        let mut m = Machine::new(&p, ParamBinding::new(vec![4]));
        let a = gcr_ir::ArrayId::from_index(0);
        let err = m.write_array(a, &[1.0, 2.0]).unwrap_err();
        assert_eq!(err, GcrError::LayoutMismatch { array: "A".into(), expected: 4, got: 2 });
        m.write_array(a, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.read_array(a), vec![1.0, 2.0, 3.0, 4.0]);
    }

    // ---- the strided walkers against the definition they replaced ----

    /// The definition the strided walkers are held to: every logical
    /// index tuple of an array (1-based, innermost dimension fastest), to be
    /// addressed through [`ArrayLayout::addr`].
    fn for_each_index(extents: &[i64], mut f: impl FnMut(&[i64])) {
        let rank = extents.len();
        let mut idx = vec![1i64; rank];
        if extents.iter().any(|&e| e <= 0) {
            return;
        }
        loop {
            f(&idx);
            let mut d = 0;
            while d < rank {
                idx[d] += 1;
                if idx[d] <= extents[d] {
                    break;
                }
                idx[d] = 1;
                d += 1;
            }
            if d == rank {
                return; // odometer wrapped (also the rank-0 single visit)
            }
        }
    }

    /// Memory-image slot of every element of an array in logical order, by
    /// the old definition.
    fn reference_slots(al: &ArrayLayout) -> Vec<usize> {
        let mut slots = Vec::new();
        for_each_index(&al.extents, |idx| slots.push(al.addr(idx) / ELEM_BYTES));
        slots
    }

    /// `group` arrays of the given constant extents.
    fn same_shape_arrays(extents: &[i64], group: usize) -> Program {
        let mut b = ProgramBuilder::new("walk");
        let dims: Vec<LinExpr> = extents.iter().map(|&e| LinExpr::konst(e)).collect();
        for k in 0..group {
            b.array(format!("A{k}"), &dims);
        }
        b.finish()
    }

    /// The layout `gcr_core::regroup::layout` gives a group whose members
    /// stay together down to dimension `split` and are separate below it
    /// (`split == 0` interleaves elements): column-major inside a member's
    /// block, member blocks side by side, every stride from `split` up
    /// multiplied by the group size.
    fn interleaved(extents: &[i64], group: usize, split: usize, base: usize) -> DataLayout {
        let split = split.min(extents.len());
        let block = |d: usize| ELEM_BYTES * extents[..d].iter().product::<i64>() as usize;
        let arrays = (0..group)
            .map(|m| ArrayLayout {
                base: base + m * block(split),
                strides: (0..extents.len())
                    .map(|d| if d < split { block(d) } else { group * block(d) })
                    .collect(),
                extents: extents.to_vec(),
            })
            .collect();
        DataLayout { arrays, total_bytes: base + group * block(extents.len()) }
    }

    proptest::proptest! {
        #[test]
        fn walkers_agree_with_index_odometer_and_addr(
            extents in proptest::collection::vec(1i64..8, 0..5),
            group in 1usize..4,
            split in 0usize..5,
            pad in proptest::prop_oneof![
                proptest::Just(0usize),
                proptest::Just(64usize),
                proptest::Just(20usize)
            ],
        ) {
            let prog = same_shape_arrays(&extents, group);
            let bind = ParamBinding::new(vec![]);
            let layouts = [
                DataLayout::column_major(&prog, &bind, pad),
                interleaved(&extents, group, split, pad),
            ];
            let len = extents.iter().product::<i64>() as usize;
            let mut logical: Vec<Vec<Vec<f64>>> = Vec::new();
            for layout in layouts {
                let mut m = Machine::with_layout(&prog, bind.clone(), layout.clone());
                // init_memory: the same image as one `addr` per element.
                let mut image = vec![0.0; m.mem.len()];
                for (ai, al) in layout.arrays.iter().enumerate() {
                    let slots = reference_slots(al);
                    proptest::prop_assert_eq!(slots.len(), len);
                    for (flat, &slot) in slots.iter().enumerate() {
                        image[slot] = init_value(ai as u64, flat as u64);
                    }
                }
                proptest::prop_assert_eq!(&m.mem, &image);
                logical.push(
                    (0..group).map(|ai| m.read_array(ArrayId::from_index(ai))).collect(),
                );
                for (ai, al) in layout.arrays.iter().enumerate() {
                    let a = ArrayId::from_index(ai);
                    let slots = reference_slots(al);
                    // read_array and visit_array: logical order, first
                    // dimension fastest.
                    let want: Vec<f64> = slots.iter().map(|&s| m.mem[s]).collect();
                    proptest::prop_assert_eq!(&m.read_array(a), &want);
                    let mut seen = Vec::new();
                    m.visit_array(a, |v| seen.push(v));
                    proptest::prop_assert_eq!(&seen, &want);
                    // write_array (slice) and write_array_from (every
                    // second value of a longer slice) land where `addr` says
                    // and touch nothing else.
                    let vals: Vec<f64> = (0..2 * len).map(|k| (ai * 1000 + k) as f64).collect();
                    m.write_array(a, &vals[..len]).unwrap();
                    for (k, &s) in slots.iter().enumerate() {
                        image[s] = vals[k];
                    }
                    proptest::prop_assert_eq!(&m.mem, &image);
                    proptest::prop_assert_eq!(&m.read_array(a), &vals[..len]);
                    m.write_array_from(a, vals.iter().skip(1).step_by(2).copied()).unwrap();
                    for (k, &s) in slots.iter().enumerate() {
                        image[s] = vals[1 + 2 * k];
                    }
                    proptest::prop_assert_eq!(&m.mem, &image);
                    // A wrong length is still refused, before any write.
                    let mismatch = GcrError::LayoutMismatch {
                        array: format!("A{ai}"),
                        expected: len,
                        got: len + 1,
                    };
                    proptest::prop_assert_eq!(
                        m.write_array(a, &vals[..len + 1]).unwrap_err(),
                        mismatch.clone()
                    );
                    proptest::prop_assert_eq!(
                        m.write_array_from(a, vals[..len + 1].iter().copied()).unwrap_err(),
                        mismatch
                    );
                    proptest::prop_assert_eq!(&m.mem, &image);
                }
                let total: f64 = image_sum(&m, group);
                proptest::prop_assert_eq!(m.checksum(), total);
            }
            // Two layouts of one program start from equal logical contents.
            proptest::prop_assert_eq!(&logical[0], &logical[1]);
        }
    }

    /// `checksum` by its old definition: per array the finite values of
    /// `read_array` summed in order, then the per-array sums.
    fn image_sum(m: &Machine<'_>, arrays: usize) -> f64 {
        (0..arrays).map(|ai| m.read_array(ArrayId::from_index(ai)).into_iter().sum::<f64>()).sum()
    }
}
