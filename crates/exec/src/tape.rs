//! The tape: the lowered intermediate form the VM engine consumes —
//! register op tapes, affine address walkers, and guard-resolved iteration
//! segments — plus the per-instance execution state the VM's exact path
//! runs on.
//!
//! The tree-walking interpreter in [`crate::machine`] pays three taxes per
//! dynamic statement instance: recursive `Expr` dispatch, a fresh
//! `base + Σ stride·(i−1)` multiply chain per array access, and a guard
//! check per member per iteration. All three are static properties of a
//! `(Program, ParamBinding, DataLayout)` triple, so [`mod@crate::compile`]
//! lowers them away once:
//!
//! * every assignment's right-hand side becomes a linear `Op` tape over a
//!   small register file — destination registers are the expression-tree
//!   depths, assigned at lowering time, so evaluation is a single loop with
//!   no runtime stack. Leaf-then-combine pairs are fused into single
//!   ops (`Op::ReadAdd`, `Op::ConstMul`, …), halving the dispatch count
//!   on stencil right-hand sides without reordering any floating-point
//!   operation;
//! * every static array reference becomes a `Walker`: an affine address
//!   re-based at loop entry and advanced by a constant byte stride per
//!   iteration, replacing the subscript multiply chain in `locate()`;
//! * every loop body is split into `Segment`s — maximal sub-intervals of
//!   the iteration range on which the *set* of guard-active members is
//!   constant — so the per-iteration loop runs guard-check-free (the
//!   compile-time analogue of the paper's boundary splitting). Conditions
//!   on *outer* variables cannot change inside the loop: each member
//!   carries at most one bit of a mask (`Item::req`) that the loop's
//!   `OuterCheck`s set once at loop entry, and that mask is the only
//!   run-time guard mechanism.
//!
//! The tape is an IR, not an engine: [`crate::vm`] walks its items, loops
//! and segments, and the only code here that executes anything is the
//! statement-instance core the VM calls into — `Exec::exec_ops` and
//! `Exec::store_tail`, which compute and store every statement instance
//! outside an op-major strip sweep (quietly inside a strip, with events and
//! accounting on the exact per-iteration path taken when fuel cannot cover
//! a whole strip), plus `Exec::traced_read` and `Exec::spend`. That core
//! is observationally identical to the interpreter: same
//! [`AccessEvent`] stream (order and fields), bit-identical `f64` memory
//! image (same FP evaluation order, including the division guard and the
//! intrinsic call lowering), same [`ExecStats`], and the same fuel
//! accounting — one unit per loop iteration plus one per assignment
//! instance, spent in the same order.

use crate::layout::ELEM_BYTES;
use crate::machine::{AccessEvent, ExecStats, TraceSink};
use gcr_ir::{ArrayId, GcrError, ReduceOp, RefId, Resource, StmtId};

/// One register-machine instruction. `d` is the destination register,
/// assigned at lowering time from the expression-tree depth. Binary ops
/// combine `regs[d]` (left operand) with `regs[d+1]` (right operand) into
/// `regs[d]`; unary ops, the fused leaf-combine ops, and the intrinsic
/// update `regs[d]` in place.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    /// `regs[d] = v` (literal constants and folded `Lin` expressions).
    Const { d: u16, v: f64 },
    /// `regs[d] = (vars[slot] + offset) as f64`.
    Var { d: u16, slot: u16, offset: i64 },
    /// Traced array read through walker `w`: emits the access event, then
    /// `regs[d] = mem[addr/8]`.
    Read { d: u16, w: u32, stmt: StmtId },
    /// Untraced (scalar) read through walker `w`.
    ReadScalar { d: u16, w: u32 },
    /// `regs[d] = -regs[d]`.
    Neg { d: u16 },
    /// `regs[d] = regs[d].abs().sqrt()` (the interpreter's total sqrt).
    Sqrt { d: u16 },
    /// `regs[d] = regs[d].abs()`.
    Abs { d: u16 },
    /// `regs[d] = regs[d] + regs[d+1]`.
    Add { d: u16 },
    /// `regs[d] = regs[d] - regs[d+1]`.
    Sub { d: u16 },
    /// `regs[d] = regs[d] * regs[d+1]`.
    Mul { d: u16 },
    /// Guarded division: `regs[d]` unchanged when `|regs[d+1]| < 1e-300`.
    Div { d: u16 },
    /// `regs[d] = regs[d].max(regs[d+1])`.
    Max { d: u16 },
    /// `regs[d] = regs[d].min(regs[d+1])`.
    Min { d: u16 },
    /// `regs[d] = scale * regs[d] + bias` (intrinsic call, argument sum
    /// already accumulated in `regs[d]` by the lowering).
    Intrinsic { d: u16, scale: f64, bias: f64 },
    /// Fused traced read + combine: `regs[d] = regs[d] + read(w)`.
    ReadAdd { d: u16, w: u32, stmt: StmtId },
    /// `regs[d] = regs[d] - read(w)`.
    ReadSub { d: u16, w: u32, stmt: StmtId },
    /// `regs[d] = regs[d] * read(w)`.
    ReadMul { d: u16, w: u32, stmt: StmtId },
    /// `regs[d] = regs[d].max(read(w))`.
    ReadMax { d: u16, w: u32, stmt: StmtId },
    /// `regs[d] = regs[d].min(read(w))`.
    ReadMin { d: u16, w: u32, stmt: StmtId },
    /// Fused constant combine: `regs[d] = regs[d] + v`.
    ConstAdd { d: u16, v: f64 },
    /// `regs[d] = regs[d] - v`.
    ConstSub { d: u16, v: f64 },
    /// `regs[d] = regs[d] * v`.
    ConstMul { d: u16, v: f64 },
    /// `regs[d] = regs[d] / v` — emitted only when `|v| >= 1e-300`, so the
    /// interpreter's division guard is resolved at compile time.
    ConstDiv { d: u16, v: f64 },
    /// `regs[d] = regs[d].max(v)`.
    ConstMax { d: u16, v: f64 },
    /// `regs[d] = regs[d].min(v)`.
    ConstMin { d: u16, v: f64 },
}

impl Op {
    /// Walker of a traced-read op, if any.
    pub(crate) fn traced_read_walker(&self) -> Option<u32> {
        match *self {
            Op::Read { w, .. }
            | Op::ReadAdd { w, .. }
            | Op::ReadSub { w, .. }
            | Op::ReadMul { w, .. }
            | Op::ReadMax { w, .. }
            | Op::ReadMin { w, .. } => Some(w),
            _ => None,
        }
    }
}

/// Affine address walker for one static array reference. The byte address
/// is `konst + Σ stride·vars[slot]`, computed once at loop entry (priming)
/// and advanced incrementally by the innermost loop's stride afterwards.
#[derive(Clone, Debug)]
pub(crate) struct Walker {
    /// Layout base plus all invariant-subscript and offset contributions.
    pub konst: i64,
    /// `(loop-variable slot, byte stride)` terms, duplicates merged.
    pub terms: Vec<(u16, i64)>,
}

/// Event metadata of one walker, split from `Walker` so the per-access
/// hot path loads a compact struct instead of a `Vec`-bearing one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EvMeta {
    /// Array accessed (reported in events).
    pub array: ArrayId,
    /// Static reference id (reported in events).
    pub ref_id: RefId,
}

/// Per-walker run-time state: the current byte address packed next to the
/// event metadata, so one bounds check and one cache line serve both.
/// Shared with the VM engine, whose walker semantics are identical.
#[derive(Clone, Copy)]
pub(crate) struct WState {
    pub(crate) cur: i64,
    pub(crate) array: ArrayId,
    pub(crate) ref_id: RefId,
}

/// Register-file size. Expression depth is bounded by this at compile
/// time; the executor masks indices with `REG_MASK`, which removes every
/// register bounds check without changing any in-domain behaviour.
pub(crate) const MAX_REGS: usize = 32;
pub(crate) const REG_MASK: usize = MAX_REGS - 1;

/// One compiled assignment statement.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CStmt {
    /// Right-hand-side tape: `ops[start..end]`, result in `regs[0]`.
    pub ops: (u32, u32),
    /// Walker of the left-hand-side reference.
    pub walker: u32,
    /// False for scalar targets (not traced).
    pub traced: bool,
    /// `Some` for reductions (which read their target first).
    pub reduce: Option<ReduceOp>,
    /// Static statement id (reported in events).
    pub id: StmtId,
    /// Flop count charged per instance (rhs ops + 1 for the store).
    pub flops: u32,
}

/// What a segment item executes.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ItemKind {
    /// Index into [`CompiledProgram::stmts`].
    Stmt(u32),
    /// Index into [`CompiledProgram::loops`].
    Loop(u32),
}

/// One member of a segment, in source order.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Item {
    /// Statement or nested loop.
    pub kind: ItemKind,
    /// Outer-condition bit; item is skipped when `req & inactive != 0`.
    /// Zero for unconditional members.
    pub req: u64,
}

/// A maximal sub-interval of a loop's range on which the set of
/// guard-active members is constant.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Segment {
    /// First iteration (inclusive).
    pub lo: i64,
    /// Last iteration (inclusive).
    pub hi: i64,
    /// Members active on this interval: `items[start..end]`.
    pub items: (u32, u32),
    /// Walkers to re-base at segment entry: `prime_list[start..end]`.
    pub prime: (u32, u32),
    /// Per-iteration walker increments: `advance_list[start..end]`.
    pub advance: (u32, u32),
}

/// One compiled loop.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CLoop {
    /// Loop-variable slot.
    pub var: u16,
    /// Guard-resolved iteration segments: `segments[start..end]`. Together
    /// they cover the full `lo..=hi` range exactly.
    pub segments: (u32, u32),
    /// Outer-condition checks evaluated at loop entry: `checks[start..end]`.
    pub checks: (u32, u32),
}

/// One outer-variable condition, evaluated once at loop entry. A failing
/// check sets `bit` in the loop's inactive mask.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OuterCheck {
    /// Mask bit of the condition list this check belongs to (shared by
    /// every member that carries the same list).
    pub bit: u64,
    /// Enclosing loop-variable slot to test.
    pub slot: u16,
    /// Lower bound (inclusive).
    pub lo: i64,
    /// Upper bound (inclusive).
    pub hi: i64,
}

/// A program lowered once against a `(ParamBinding, DataLayout)` pair.
///
/// Produced by [`crate::compile::try_compile`]; planned by
/// [`crate::vm::VmPlan::build`] and executed by [`crate::machine::Machine`]
/// when its engine is [`crate::machine::ExecEngine::Vm`]. All loop bounds,
/// guard intervals, and address strides are resolved to constants; only
/// loop variables and the register file exist at run time.
#[derive(Clone, Debug, Default)]
pub struct CompiledProgram {
    pub(crate) ops: Vec<Op>,
    pub(crate) stmts: Vec<CStmt>,
    pub(crate) walkers: Vec<Walker>,
    pub(crate) ev: Vec<EvMeta>,
    pub(crate) items: Vec<Item>,
    pub(crate) segments: Vec<Segment>,
    pub(crate) loops: Vec<CLoop>,
    pub(crate) checks: Vec<OuterCheck>,
    pub(crate) prime_list: Vec<u32>,
    pub(crate) advance_list: Vec<(u32, i64)>,
    pub(crate) top_items: (u32, u32),
    pub(crate) top_prime: (u32, u32),
    pub(crate) max_regs: usize,
}

/// Run-time state of one execution over a tape. Statistics are owned
/// counters, flushed to the machine's [`ExecStats`] when the run ends.
/// The VM executor ([`crate::vm`]) wraps this state and drives the op
/// interpreter, the walkers, and the fuel accounting from its own item
/// walk.
pub(crate) struct Exec<'a> {
    pub(crate) cp: &'a CompiledProgram,
    pub(crate) mem: &'a mut [f64],
    pub(crate) vars: &'a mut [i64],
    /// Register file (expression scratch).
    pub(crate) regs: [f64; MAX_REGS],
    /// Per-walker state: current byte address plus event metadata.
    pub(crate) wk: Vec<WState>,
    pub(crate) instances: u64,
    pub(crate) flops: u64,
    pub(crate) reads: u64,
    pub(crate) writes: u64,
    pub(crate) fuel: u64,
    pub(crate) fuel_limit: u64,
}

impl<'a> Exec<'a> {
    /// Fresh execution state over a compiled program.
    pub(crate) fn new(
        cp: &'a CompiledProgram,
        mem: &'a mut [f64],
        vars: &'a mut [i64],
        fuel: u64,
    ) -> Self {
        Exec {
            cp,
            mem,
            vars,
            regs: [0.0; MAX_REGS],
            wk: cp.ev.iter().map(|m| WState { cur: 0, array: m.array, ref_id: m.ref_id }).collect(),
            instances: 0,
            flops: 0,
            reads: 0,
            writes: 0,
            fuel,
            fuel_limit: fuel,
        }
    }

    /// Flushes the owned counters into `stats`. Counters live in registers
    /// during the run; flush even on a fuel error so partial-run statistics
    /// match the interpreter's.
    pub(crate) fn flush_stats(&self, stats: &mut ExecStats) {
        stats.instances += self.instances;
        stats.flops += self.flops;
        stats.reads += self.reads;
        stats.writes += self.writes;
    }

    #[inline]
    fn out_of_fuel(&self) -> GcrError {
        GcrError::BudgetExceeded { resource: Resource::InterpreterFuel, limit: self.fuel_limit }
    }

    /// Spends one fuel unit (same accounting as the interpreter).
    #[inline]
    pub(crate) fn spend(&mut self) -> Result<(), GcrError> {
        if self.fuel == 0 {
            return Err(self.out_of_fuel());
        }
        self.fuel -= 1;
        Ok(())
    }

    /// Spends `n` units at once for iterations that execute nothing.
    /// Observably identical to `n` single spends: no events separate them,
    /// and exhaustion anywhere inside the run produces the same error.
    #[inline]
    pub(crate) fn spend_bulk(&mut self, n: u64) -> Result<(), GcrError> {
        if self.fuel < n {
            return Err(self.out_of_fuel());
        }
        self.fuel -= n;
        Ok(())
    }

    /// Re-bases a range of walkers from the current loop variables.
    pub(crate) fn prime(&mut self, range: (u32, u32)) {
        let cp = self.cp;
        for &w in &cp.prime_list[range.0 as usize..range.1 as usize] {
            let info = &cp.walkers[w as usize];
            let mut addr = info.konst;
            for &(slot, stride) in &info.terms {
                addr += stride * self.vars[slot as usize];
            }
            self.wk[w as usize].cur = addr;
        }
    }

    /// Reads through walker `w` and returns the value. `COUNT` selects
    /// per-access statistics (the exact path); the VM's strip path accounts
    /// statistics in bulk per segment. `EMIT` selects event emission —
    /// false on the VM's strip-compute pass, whose events are emitted
    /// separately in batches.
    #[inline(always)]
    pub(crate) fn traced_read<const COUNT: bool, const EMIT: bool, S: TraceSink>(
        &mut self,
        w: u32,
        stmt: StmtId,
        sink: &mut S,
    ) -> f64 {
        let st = self.wk[w as usize];
        if COUNT {
            self.reads += 1;
        }
        if EMIT {
            sink.access(AccessEvent {
                addr: st.cur as u64,
                array: st.array,
                ref_id: st.ref_id,
                stmt,
                is_write: false,
            });
        }
        self.mem[st.cur as usize / ELEM_BYTES]
    }

    /// Runs one op range. Infallible: fuel is spent by the callers
    /// (per-instance on the exact path, in bulk on the strip path).
    #[inline(always)]
    pub(crate) fn exec_ops<const COUNT: bool, const EMIT: bool, S: TraceSink>(
        &mut self,
        range: (u32, u32),
        sink: &mut S,
    ) {
        let cp = self.cp;
        for op in &cp.ops[range.0 as usize..range.1 as usize] {
            match *op {
                Op::Const { d, v } => self.regs[d as usize & REG_MASK] = v,
                Op::Var { d, slot, offset } => {
                    self.regs[d as usize & REG_MASK] = (self.vars[slot as usize] + offset) as f64;
                }
                Op::Read { d, w, stmt } => {
                    self.regs[d as usize & REG_MASK] =
                        self.traced_read::<COUNT, EMIT, S>(w, stmt, sink);
                }
                Op::ReadScalar { d, w } => {
                    self.regs[d as usize & REG_MASK] =
                        self.mem[self.wk[w as usize].cur as usize / ELEM_BYTES];
                }
                Op::Neg { d } => {
                    self.regs[d as usize & REG_MASK] = -self.regs[d as usize & REG_MASK]
                }
                Op::Sqrt { d } => {
                    self.regs[d as usize & REG_MASK] =
                        self.regs[d as usize & REG_MASK].abs().sqrt();
                }
                Op::Abs { d } => {
                    self.regs[d as usize & REG_MASK] = self.regs[d as usize & REG_MASK].abs()
                }
                Op::Add { d } => {
                    self.regs[d as usize & REG_MASK] += self.regs[(d as usize + 1) & REG_MASK];
                }
                Op::Sub { d } => {
                    self.regs[d as usize & REG_MASK] -= self.regs[(d as usize + 1) & REG_MASK];
                }
                Op::Mul { d } => {
                    self.regs[d as usize & REG_MASK] *= self.regs[(d as usize + 1) & REG_MASK];
                }
                Op::Div { d } => {
                    // Mirrors the interpreter's guard exactly, including
                    // its NaN behaviour (`NaN.abs() < 1e-300` is false, so
                    // a NaN divisor divides).
                    let a = self.regs[d as usize & REG_MASK];
                    let b = self.regs[(d as usize + 1) & REG_MASK];
                    self.regs[d as usize & REG_MASK] = if b.abs() < 1e-300 { a } else { a / b };
                }
                Op::Max { d } => {
                    self.regs[d as usize & REG_MASK] = self.regs[d as usize & REG_MASK]
                        .max(self.regs[(d as usize + 1) & REG_MASK]);
                }
                Op::Min { d } => {
                    self.regs[d as usize & REG_MASK] = self.regs[d as usize & REG_MASK]
                        .min(self.regs[(d as usize + 1) & REG_MASK]);
                }
                Op::Intrinsic { d, scale, bias } => {
                    self.regs[d as usize & REG_MASK] =
                        scale * self.regs[d as usize & REG_MASK] + bias;
                }
                Op::ReadAdd { d, w, stmt } => {
                    self.regs[d as usize & REG_MASK] +=
                        self.traced_read::<COUNT, EMIT, S>(w, stmt, sink);
                }
                Op::ReadSub { d, w, stmt } => {
                    self.regs[d as usize & REG_MASK] -=
                        self.traced_read::<COUNT, EMIT, S>(w, stmt, sink);
                }
                Op::ReadMul { d, w, stmt } => {
                    self.regs[d as usize & REG_MASK] *=
                        self.traced_read::<COUNT, EMIT, S>(w, stmt, sink);
                }
                Op::ReadMax { d, w, stmt } => {
                    let v = self.traced_read::<COUNT, EMIT, S>(w, stmt, sink);
                    self.regs[d as usize & REG_MASK] = self.regs[d as usize & REG_MASK].max(v);
                }
                Op::ReadMin { d, w, stmt } => {
                    let v = self.traced_read::<COUNT, EMIT, S>(w, stmt, sink);
                    self.regs[d as usize & REG_MASK] = self.regs[d as usize & REG_MASK].min(v);
                }
                Op::ConstAdd { d, v } => self.regs[d as usize & REG_MASK] += v,
                Op::ConstSub { d, v } => self.regs[d as usize & REG_MASK] -= v,
                Op::ConstMul { d, v } => self.regs[d as usize & REG_MASK] *= v,
                Op::ConstDiv { d, v } => self.regs[d as usize & REG_MASK] /= v,
                Op::ConstMax { d, v } => {
                    self.regs[d as usize & REG_MASK] = self.regs[d as usize & REG_MASK].max(v);
                }
                Op::ConstMin { d, v } => {
                    self.regs[d as usize & REG_MASK] = self.regs[d as usize & REG_MASK].min(v);
                }
            }
        }
    }

    /// The store sequence of one statement instance: reduce read, memory
    /// write, write event, `end_instance` — in the interpreter's exact
    /// order. `COUNT` selects per-access statistics; `EMIT` selects event
    /// and instance-boundary emission (false on the VM's strip-compute
    /// pass, whose events and boundaries are emitted in batches).
    #[inline(always)]
    pub(crate) fn store_tail<const COUNT: bool, const EMIT: bool, S: TraceSink>(
        &mut self,
        s: CStmt,
        sink: &mut S,
    ) {
        let rhs = self.regs[0];
        let st = self.wk[s.walker as usize];
        let addr = st.cur;
        let elem = addr as usize / ELEM_BYTES;
        let value = match s.reduce {
            None => rhs,
            Some(op) => {
                // The reduction reads its target first, as the interpreter
                // does (event before the combine, write event after).
                if s.traced {
                    if COUNT {
                        self.reads += 1;
                    }
                    if EMIT {
                        sink.access(AccessEvent {
                            addr: addr as u64,
                            array: st.array,
                            ref_id: st.ref_id,
                            stmt: s.id,
                            is_write: false,
                        });
                    }
                }
                let old = self.mem[elem];
                match op {
                    ReduceOp::Sum => old + rhs,
                    ReduceOp::Max => old.max(rhs),
                    ReduceOp::Min => old.min(rhs),
                }
            }
        };
        self.mem[elem] = value;
        if s.traced {
            if COUNT {
                self.writes += 1;
            }
            if EMIT {
                sink.access(AccessEvent {
                    addr: addr as u64,
                    array: st.array,
                    ref_id: st.ref_id,
                    stmt: s.id,
                    is_write: true,
                });
            }
        }
        if COUNT {
            self.instances += 1;
            self.flops += u64::from(s.flops);
        }
        if EMIT {
            sink.end_instance(s.id);
        }
    }
}
