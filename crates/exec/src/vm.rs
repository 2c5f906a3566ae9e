//! The register bytecode VM: superinstruction selection over the compiled
//! tape and vectorized strip execution with batched event emission.
//!
//! The tape ([`crate::tape`]) already lowers expression trees to linear op
//! tapes over an untagged register file, but executed op by op it still
//! pays one dispatch per scalar op and one virtual sink call per access
//! event. This engine removes both taxes where the tape's own analysis
//! proves it safe:
//!
//! * **Superinstructions.** Each compiled statement's op tape is pattern
//!   matched once into a single `VInst`: constant fills, copies, fused
//!   load-load-op-store sequences (`VInst::BinRR`), load-const forms
//!   (`VInst::BinRC`), and read-sum chains with an optional affine
//!   post-step (`VInst::Chain` — the shape of every stencil and intrinsic
//!   call the frontend produces). Statements outside these shapes keep the
//!   op tape and run as `VInst::Micro`, so the lowering is *total*: the
//!   VM's domain is exactly the tape compiler's domain.
//! * **Strip execution.** Segments whose members are statements with
//!   affine walkers execute in whole iteration strips per dispatch. Members
//!   may carry outer-condition bits — every statement of a fused loop does
//!   — because the loop's mask is computed once at loop entry and cannot
//!   change inside it: the plan covers *all* members of the segment, and
//!   each loop entry runs it with the members its mask switches off
//!   filtered out of the slot list, the instance boundaries, the bulk
//!   fuel/statistics charge and the kernel sweep. An unconditional segment
//!   is the case "no member has a bit" of the same plan and the same run.
//!   Because every event address is an affine function of the loop
//!   variable (value-independent), the strip's complete event stream is
//!   known before any arithmetic runs and is handed to the sink once per
//!   strip in compressed affine form: one [`crate::machine::BatchSlot`]
//!   (start address, stride, static fields) per event position, via
//!   [`crate::TraceSink::record_batch`]. The producer does *zero* per-event
//!   work — an event-blind sink costs nothing, and a hot sink expands
//!   addresses in one tight loop over its own state. The arithmetic then
//!   runs as tight per-statement kernels over the strip.
//!   When a compile-time dependence check proves no statement pair can
//!   touch the same address within a strip (distinct iterations), kernels
//!   sweep statement-major; otherwise compute falls back to
//!   iteration-major order inside the strip, which preserves every data
//!   dependence while events stay batched.
//! * **Inner-loop unrolling.** A condition-free constant-trip inner loop (the
//!   `for m = 1, 5` component loops NPB wraps around every statement)
//!   would otherwise cap strips at its tiny trip count. When every trip is
//!   statement-major safe with the inner value substituted into its
//!   affine forms, the planner unrolls the loop body into the *parent*
//!   strip — one `SItem::Prime` step re-bases the inner walkers per
//!   trip, and strips run as long as the parent loop.
//!
//! Observational equivalence with the interpreter is non-negotiable and
//! enforced by the differential test suite and the interp≡vm conformance
//! oracle: identical `AccessEvent` streams (including `end_instance`
//! interleaving), bit-identical `f64` memory, identical [`ExecStats`], and
//! identical fuel accounting. The strip path is taken only when the
//! remaining fuel provably covers the whole segment under the current
//! mask, so exhaustion inside a strip is impossible and partial runs take
//! the exact per-event path.

use crate::layout::ELEM_BYTES;
use crate::machine::{BatchSlot, ExecStats, NullSink, TraceBatch, TraceSink};
use crate::tape::{CompiledProgram, Exec, ItemKind, Op, Segment};
use gcr_ir::{ArrayId, GcrError, ReduceOp, StmtId};
use std::mem;

/// Cap on iterations per strip: bounds each kernel's working set (a strip
/// walks at most this many elements per operand) and the distance the
/// statement-major dependence check must clear.
const MAX_STRIP: usize = 1024;

/// Trip-count ceiling for unrolling a constant-bound inner loop into its
/// parent's strip. Small by design: unrolling multiplies the per-iteration
/// slot and kernel count by the trip count, and the payoff — strips as
/// long as the *parent* loop instead of the tiny inner one — only needs
/// the short component-style loops (`for m = 1, 5`) the NPB kernels wrap
/// around every statement.
const UNROLL_MAX: i64 = 8;

/// Arithmetic of the binary superinstructions. Division carries the
/// interpreter's guard (divisor below `1e-300` leaves the left operand).
#[derive(Clone, Copy, Debug)]
enum VBin {
    Add,
    Sub,
    Mul,
    Div,
    Max,
    Min,
}

impl VBin {
    #[inline(always)]
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            VBin::Add => a + b,
            VBin::Sub => a - b,
            VBin::Mul => a * b,
            VBin::Div => {
                if b.abs() < 1e-300 {
                    a
                } else {
                    a / b
                }
            }
            VBin::Max => a.max(b),
            VBin::Min => a.min(b),
        }
    }

    fn from_read_op(op: &Op) -> Option<(Self, u32)> {
        match *op {
            Op::ReadAdd { d: 0, w, .. } => Some((VBin::Add, w)),
            Op::ReadSub { d: 0, w, .. } => Some((VBin::Sub, w)),
            Op::ReadMul { d: 0, w, .. } => Some((VBin::Mul, w)),
            Op::ReadMax { d: 0, w, .. } => Some((VBin::Max, w)),
            Op::ReadMin { d: 0, w, .. } => Some((VBin::Min, w)),
            _ => None,
        }
    }

    fn from_const_op(op: &Op) -> Option<(Self, f64)> {
        match *op {
            Op::ConstAdd { d: 0, v } => Some((VBin::Add, v)),
            Op::ConstSub { d: 0, v } => Some((VBin::Sub, v)),
            Op::ConstMul { d: 0, v } => Some((VBin::Mul, v)),
            // `ConstDiv` is emitted only for `|v| >= 1e-300`, where the
            // guarded division is a plain division — identical result.
            Op::ConstDiv { d: 0, v } => Some((VBin::Div, v)),
            Op::ConstMax { d: 0, v } => Some((VBin::Max, v)),
            Op::ConstMin { d: 0, v } => Some((VBin::Min, v)),
            _ => None,
        }
    }

    fn from_bin_op(op: &Op) -> Option<Self> {
        match *op {
            Op::Add { d: 0 } => Some(VBin::Add),
            Op::Sub { d: 0 } => Some(VBin::Sub),
            Op::Mul { d: 0 } => Some(VBin::Mul),
            Op::Div { d: 0 } => Some(VBin::Div),
            Op::Max { d: 0 } => Some(VBin::Max),
            Op::Min { d: 0 } => Some(VBin::Min),
            _ => None,
        }
    }
}

/// Post-step of a read-sum chain, preserving the tape's exact FP order.
#[derive(Clone, Copy, Debug)]
enum ChainKind {
    /// `scale * acc + bias`, accumulator seeded with `0.0` (the intrinsic
    /// call lowering: `Const 0, ReadAdd…, Intrinsic`).
    Intrinsic { scale: f64, bias: f64 },
    /// `c * acc`, accumulator seeded with the first read
    /// (`Const c, Read, ReadAdd…, Mul` — a scaled stencil).
    PreMul { c: f64 },
    /// `acc ⊕ v`, accumulator seeded with the first read
    /// (`Read, ReadAdd…, Const⊕`).
    Post { v: f64, op: VBin },
    /// Plain sum, accumulator seeded with the first read.
    Sum,
}

/// One superinstruction: how a statement's right-hand side is computed.
/// The store (reduce read, write, instance boundary) is driven uniformly
/// from the statement's metadata.
#[derive(Clone, Copy, Debug)]
enum VInst {
    /// `rhs = v`.
    Fill { v: f64 },
    /// `rhs = read(a)`.
    Copy { a: u32 },
    /// `rhs = read(a) ⊕ read(b)`.
    BinRR { a: u32, b: u32, op: VBin },
    /// `rhs = read(a) ⊕ v`.
    BinRC { a: u32, v: f64, op: VBin },
    /// Read-sum chain over `chain_ws[ws.0..ws.1]` with a post-step.
    Chain { ws: (u32, u32), kind: ChainKind },
    /// No recognized shape: interpret the statement's op tape.
    Micro,
}

/// One event slot of a strip iteration: which walker produces the event,
/// how its address advances per iteration, and the event's static fields.
#[derive(Clone, Copy, Debug)]
struct EvSlot {
    w: u32,
    stride: i64,
    stmt: StmtId,
    is_write: bool,
}

/// One step of a strip iteration, in source order, with the
/// outer-condition bits of the segment member it came from: a loop entry
/// whose mask has any of them set skips the step everywhere — events,
/// instance boundaries, fuel, statistics and compute.
#[derive(Clone, Copy, Debug)]
struct SItem {
    req: u64,
    step: Step,
}

/// What a strip step does. Segments of plain statements produce only
/// `Stmt` steps; unrolled constant-trip inner loops interleave `Prime`
/// steps that re-base the inner iteration's walkers (one per unrolled
/// inner iteration, before its statements).
#[derive(Clone, Copy, Debug)]
enum Step {
    /// One statement instance, with its event slots of one iteration in
    /// emission order: `slots[start..end]`. Costs one fuel unit, like the
    /// interpreter's assignment. `vector` is false for a `VInst::Micro`
    /// instance whose op-major sweep over a strip would be observable (it
    /// reads what it wrote in an earlier iteration); a statement-major
    /// strip runs such an instance one iteration at a time.
    Stmt { si: u32, slots: (u32, u32), vector: bool },
    /// Set `vars[var] = val` and prime walkers `prime` — positions one
    /// unrolled inner iteration's references at the current parent value.
    /// Costs one fuel unit, like the interpreter's inner-loop iteration.
    Prime { var: u16, val: i64, prime: (u32, u32) },
}

/// Strip plan of one segment, over all its members.
#[derive(Clone, Debug)]
struct Strip {
    /// Steps per iteration: `sitems[start..end]`.
    items: (u32, u32),
    /// True when kernels may sweep statement-major: the affine dependence
    /// check proved that no instance touches, in an earlier iteration of a
    /// strip, an address an instance before it in the body touches in a
    /// later one. Proved on the full member set, so it holds for whatever
    /// subset a mask leaves.
    stmt_major: bool,
}

/// A compiled program's VM lowering: superinstructions for every statement
/// plus strip plans for every segment of statements. Built once per
/// [`CompiledProgram`] by [`VmPlan::build`] and cached by the machine; the
/// lowering is total, so the VM runs exactly the programs that compile.
#[derive(Clone, Debug)]
pub struct VmPlan {
    vstmts: Vec<VInst>,
    chain_ws: Vec<u32>,
    /// Indexed like `CompiledProgram::segments`; `Some` iff every member
    /// of the segment is a statement or a constant-trip inner loop that
    /// unrolls into statements.
    strips: Vec<Option<Strip>>,
    slots: Vec<EvSlot>,
    sitems: Vec<SItem>,
    /// Most event slots any strip iteration has (descriptor pre-sizing).
    max_slots: usize,
    /// Vector-register rows the widest op-major Micro kernel needs.
    max_vregs: usize,
}

impl VmPlan {
    /// Lowers a compiled program to the VM. Total: every statement gets a
    /// superinstruction (worst case `VInst::Micro`) and every segment of
    /// statements a strip plan.
    pub fn build(cp: &CompiledProgram) -> VmPlan {
        let mut plan = VmPlan {
            vstmts: Vec::with_capacity(cp.stmts.len()),
            chain_ws: Vec::new(),
            strips: vec![None; cp.segments.len()],
            slots: Vec::new(),
            sitems: Vec::new(),
            max_slots: 0,
            max_vregs: 0,
        };
        for s in &cp.stmts {
            let inst = select(cp, s.ops, &mut plan.chain_ws);
            plan.vstmts.push(inst);
        }
        for l in &cp.loops {
            for sidx in l.segments.0..l.segments.1 {
                plan.build_strip(cp, sidx, l.var);
            }
        }
        plan
    }

    /// Number of statements lowered to a single-opcode superinstruction
    /// (everything except `VInst::Micro`).
    pub fn superinstruction_count(&self) -> usize {
        self.vstmts.iter().filter(|i| !matches!(i, VInst::Micro)).count()
    }

    /// Number of segments with a strip plan.
    pub fn strip_count(&self) -> usize {
        self.strips.iter().flatten().count()
    }

    /// One iteration of `strip` under the loop-entry mask `inactive`: fills
    /// `ends` with the instance boundaries of the statements the mask
    /// leaves on — `(event offset within the iteration, statement)`, the
    /// form [`TraceBatch`] takes — and returns the iteration's fuel and
    /// statistic deltas, equal to what the exact path charges for it.
    fn iteration(
        &self,
        cp: &CompiledProgram,
        strip: &Strip,
        inactive: u64,
        ends: &mut Vec<(u32, StmtId)>,
    ) -> (u64, ExecStats) {
        ends.clear();
        let (mut fuel, mut off) = (1u64, 0u32);
        let mut st = ExecStats::default();
        for it in &self.sitems[strip.items.0 as usize..strip.items.1 as usize] {
            if it.req & inactive != 0 {
                continue;
            }
            fuel += 1;
            if let Step::Stmt { si, slots, .. } = it.step {
                let s = &cp.stmts[si as usize];
                off += slots.1 - slots.0;
                ends.push((off, s.id));
                st.flops += u64::from(s.flops);
                st.writes += u64::from(s.traced);
            }
        }
        st.instances = ends.len() as u64;
        st.reads = u64::from(off) - st.writes;
        (fuel, st)
    }

    fn build_strip(&mut self, cp: &CompiledProgram, sidx: u32, var: u16) {
        let seg = &cp.segments[sidx as usize];
        /// One statement instance of a strip iteration.
        struct Inst {
            req: u64,
            si: u32,
            /// Unrolled inner-loop variable and its value for this instance.
            subst: Option<(u16, i64)>,
            /// Walkers to re-base before the instance: set on the first
            /// statement of each unrolled inner iteration.
            prime: Option<(u32, u32)>,
            /// See [`Step::Stmt`]; decided once the accesses are known.
            vector: bool,
        }
        // Admission: every member must be a statement, or a constant-trip
        // inner loop that unrolls — no conditions of its own, one segment
        // of statements only, and a small trip count. The members
        // themselves may carry outer-condition bits; the instances inherit
        // them. Anything else keeps the exact path.
        let mut insts: Vec<Inst> = Vec::new();
        for it in &cp.items[seg.items.0 as usize..seg.items.1 as usize] {
            match it.kind {
                ItemKind::Stmt(si) => {
                    insts.push(Inst { req: it.req, si, subst: None, prime: None, vector: true })
                }
                ItemKind::Loop(li) => {
                    let l2 = &cp.loops[li as usize];
                    if l2.checks.1 != l2.checks.0 || l2.segments.1 - l2.segments.0 != 1 {
                        return;
                    }
                    let m = &cp.segments[l2.segments.0 as usize];
                    let body = &cp.items[m.items.0 as usize..m.items.1 as usize];
                    if body.is_empty() || m.hi - m.lo + 1 > UNROLL_MAX {
                        return;
                    }
                    for j in m.lo..=m.hi {
                        for (k, b) in body.iter().enumerate() {
                            let ItemKind::Stmt(si) = b.kind else { return };
                            insts.push(Inst {
                                req: it.req,
                                si,
                                subst: Some((l2.var, j)),
                                prime: (k == 0).then_some(m.prime),
                                vector: true,
                            });
                        }
                    }
                }
            }
        }
        if insts.is_empty() {
            return;
        }
        let unrolled = insts.iter().any(|i| i.subst.is_some());
        // Strips never run longer than the segment itself, so dependence
        // distances only matter up to the shorter of the two.
        let strip_len = (MAX_STRIP as i64).min(seg.hi - seg.lo + 1);
        // Statement-major execution runs each instance over a whole strip
        // before the next one starts. Within an instance that is always
        // the original order (kernels ascend in the iteration; a Micro
        // instance whose op-major sweep would be observable is marked
        // non-`vector` and stepped one iteration at a time). Across
        // instances it is legal when no pair is reordered: see
        // `deps_allow_stmt_major`. Unrolled instances take part with their
        // inner-loop value substituted into the affine form. All of it is
        // checked on the full instance list: a pairwise property of the
        // whole set holds for every subset a mask selects.
        let accs: Vec<Vec<AffAcc>> =
            insts.iter().map(|i| inst_accs(cp, i.si, var, i.subst)).collect();
        for (i, acc) in insts.iter_mut().zip(&accs) {
            i.vector =
                !matches!(self.vstmts[i.si as usize], VInst::Micro) || micro_vec_ok(acc, strip_len);
        }
        let stmt_major = deps_allow_stmt_major(&accs, strip_len);
        if unrolled && !stmt_major {
            // An unrolled iteration-major fallback would re-prime every
            // inner iteration per parent iteration — slower than the
            // exact path it replaces. Keep the exact path (the inner
            // loop's own strip still batches its events).
            return;
        }
        if stmt_major {
            for i in insts.iter().filter(|i| i.vector) {
                if matches!(self.vstmts[i.si as usize], VInst::Micro) {
                    let s = &cp.stmts[i.si as usize];
                    for op in &cp.ops[s.ops.0 as usize..s.ops.1 as usize] {
                        self.max_vregs = self.max_vregs.max(op_rows(op));
                    }
                }
            }
        }
        // Emit the per-iteration step list and event slots, in source
        // order.
        let slots_start = self.slots.len();
        let items_start = self.sitems.len() as u32;
        for i in &insts {
            if let (Some((mvar, val)), Some(prime)) = (i.subst, i.prime) {
                self.sitems.push(SItem { req: i.req, step: Step::Prime { var: mvar, val, prime } });
            }
            self.push_inst(cp, i.si, i.req, i.vector, var);
        }
        self.max_slots = self.max_slots.max(self.slots.len() - slots_start);
        self.strips[sidx as usize] =
            Some(Strip { items: (items_start, self.sitems.len() as u32), stmt_major });
    }

    /// Appends one statement instance's event slots and step-list entry.
    fn push_inst(&mut self, cp: &CompiledProgram, si: u32, req: u64, vector: bool, var: u16) {
        let s = &cp.stmts[si as usize];
        let start = self.slots.len() as u32;
        let mut slot = |w: u32, is_write: bool| {
            self.slots.push(EvSlot { w, stride: pstride(cp, w, var), stmt: s.id, is_write });
        };
        for op in &cp.ops[s.ops.0 as usize..s.ops.1 as usize] {
            if let Some(w) = op.traced_read_walker() {
                slot(w, false);
            }
        }
        if s.traced {
            if s.reduce.is_some() {
                slot(s.walker, false);
            }
            slot(s.walker, true);
        }
        let slots = (start, self.slots.len() as u32);
        self.sitems.push(SItem { req, step: Step::Stmt { si, slots, vector } });
    }
}

/// Per-iteration byte stride of walker `w` with respect to loop variable
/// `var` — the walker's `var` term. Identical to the segment advance-list
/// entry for directly-advanced walkers, and defined (unlike the advance
/// list) for walkers of unrolled inner statements, which re-prime instead
/// of advancing.
fn pstride(cp: &CompiledProgram, w: u32, var: u16) -> i64 {
    cp.walkers[w as usize].terms.iter().filter(|&&(slot, _)| slot == var).map(|&(_, st)| st).sum()
}

/// Walker of any memory-touching op (traced or scalar) — the dependence
/// check must see scalar reads too.
fn any_read_walker(op: &Op) -> Option<u32> {
    match *op {
        Op::ReadScalar { w, .. } => Some(w),
        _ => op.traced_read_walker(),
    }
}

/// Selects the superinstruction for one op tape.
fn select(cp: &CompiledProgram, ops_range: (u32, u32), chain_ws: &mut Vec<u32>) -> VInst {
    let ops = &cp.ops[ops_range.0 as usize..ops_range.1 as usize];
    match ops {
        [Op::Const { d: 0, v }] => return VInst::Fill { v: *v },
        [Op::Read { d: 0, w, .. }] => return VInst::Copy { a: *w },
        [Op::Read { d: 0, w: a, .. }, second] => {
            if let Some((op, b)) = VBin::from_read_op(second) {
                return VInst::BinRR { a: *a, b, op };
            }
            if let Some((op, v)) = VBin::from_const_op(second) {
                return VInst::BinRC { a: *a, v, op };
            }
        }
        // Unfused three-op binary (division is never leaf-fused).
        [Op::Read { d: 0, w: a, .. }, Op::Read { d: 1, w: b, .. }, third] => {
            if let Some(op) = VBin::from_bin_op(third) {
                return VInst::BinRR { a: *a, b: *b, op };
            }
        }
        _ => {}
    }
    // Read-sum chains. The intrinsic-call shape seeds the accumulator
    // with literal +0.0 (matching the interpreter's argument sum); the
    // other shapes seed it with the first read.
    if ops.len() >= 3 {
        if let (Op::Const { d: 0, v }, Op::Intrinsic { d: 0, scale, bias }) =
            (&ops[0], &ops[ops.len() - 1])
        {
            if v.to_bits() == 0.0f64.to_bits() {
                if let Some(ws) = collect_chain(&ops[1..ops.len() - 1], chain_ws, false) {
                    return VInst::Chain {
                        ws,
                        kind: ChainKind::Intrinsic { scale: *scale, bias: *bias },
                    };
                }
            }
        }
    }
    if ops.len() >= 4 {
        if let (Op::Const { d: 0, v }, Op::Mul { d: 0 }) = (&ops[0], &ops[ops.len() - 1]) {
            if let Some(ws) = collect_chain_at(&ops[1..ops.len() - 1], chain_ws, 1) {
                return VInst::Chain { ws, kind: ChainKind::PreMul { c: *v } };
            }
        }
    }
    if ops.len() >= 3 {
        if let Some((op, v)) = VBin::from_const_op(&ops[ops.len() - 1]) {
            if let Some(ws) = collect_chain(&ops[..ops.len() - 1], chain_ws, true) {
                return VInst::Chain { ws, kind: ChainKind::Post { v, op } };
            }
        }
        if let Some(ws) = collect_chain(ops, chain_ws, true) {
            return VInst::Chain { ws, kind: ChainKind::Sum };
        }
    }
    VInst::Micro
}

/// Collects a `Read, ReadAdd…` (when `lead_read`) or `ReadAdd…` chain at
/// register depth 0 into the walker pool, returning the pool range.
fn collect_chain(ops: &[Op], chain_ws: &mut Vec<u32>, lead_read: bool) -> Option<(u32, u32)> {
    collect_chain_inner(ops, chain_ws, lead_read, 0)
}

/// Like [`collect_chain`], with a leading `Read` at register depth `d`
/// (the scaled-stencil shape puts the sum one register deep).
fn collect_chain_at(ops: &[Op], chain_ws: &mut Vec<u32>, d: u16) -> Option<(u32, u32)> {
    collect_chain_inner(ops, chain_ws, true, d)
}

fn collect_chain_inner(
    ops: &[Op],
    chain_ws: &mut Vec<u32>,
    lead_read: bool,
    depth: u16,
) -> Option<(u32, u32)> {
    let mut ws = Vec::with_capacity(ops.len());
    for (k, op) in ops.iter().enumerate() {
        match *op {
            Op::Read { d, w, .. } if k == 0 && lead_read && d == depth => ws.push(w),
            Op::ReadAdd { d, w, .. } if d == depth && (k > 0 || !lead_read) => ws.push(w),
            _ => return None,
        }
    }
    if ws.is_empty() {
        return None;
    }
    let start = chain_ws.len() as u32;
    chain_ws.extend_from_slice(&ws);
    Some((start, chain_ws.len() as u32))
}

/// One statement instance's access in affine form over the strip
/// variable: `addr(t) = konst + stride·t + Σ rest·vars`, with any
/// unrolled inner-loop value already substituted into `konst`.
#[derive(Clone, Debug)]
struct AffAcc {
    array: ArrayId,
    konst: i64,
    stride: i64,
    rest: Vec<(u16, i64)>,
    write: bool,
}

/// Builds the affine access of walker `w` over strip variable `var`,
/// substituting the unrolled inner-loop value (if any) into the constant.
fn aff_acc(
    cp: &CompiledProgram,
    w: u32,
    var: u16,
    subst: Option<(u16, i64)>,
    write: bool,
) -> AffAcc {
    let wk = &cp.walkers[w as usize];
    let mut konst = wk.konst;
    let mut stride = 0i64;
    let mut rest = Vec::new();
    for &(slot, st) in &wk.terms {
        if slot == var {
            stride += st;
        } else if subst.is_some_and(|(mv, _)| slot == mv) {
            konst += st * subst.unwrap().1;
        } else if st != 0 {
            rest.push((slot, st));
        }
    }
    rest.sort_unstable();
    AffAcc { array: cp.ev[w as usize].array, konst, stride, rest, write }
}

/// All memory accesses of one statement instance (scalar reads included —
/// the dependence check must see them) with the write last.
fn inst_accs(cp: &CompiledProgram, si: u32, var: u16, subst: Option<(u16, i64)>) -> Vec<AffAcc> {
    let s = &cp.stmts[si as usize];
    let mut v: Vec<AffAcc> = cp.ops[s.ops.0 as usize..s.ops.1 as usize]
        .iter()
        .filter_map(|op| any_read_walker(op).map(|w| aff_acc(cp, w, var, subst, false)))
        .collect();
    v.push(aff_acc(cp, s.walker, var, subst, true));
    v
}

/// Where two affine accesses of one strip touch the same address.
enum Meet {
    /// Provably nowhere within a strip.
    Never,
    /// Exactly when the second access runs this many iterations after the
    /// first (negative: before it; zero: in the same iteration).
    At(i64),
    /// Not provably related: assume every distance.
    Any,
}

/// Conservative meeting test between two affine accesses over a strip of
/// `strip` iterations.
fn aff_meet(a: &AffAcc, b: &AffAcc, strip: i64) -> Meet {
    // Distinct arrays occupy disjoint byte sets under every layout
    // (including regrouped interleavings), so they can never alias.
    if a.array != b.array {
        return Meet::Never;
    }
    if a.stride != b.stride || a.rest != b.rest {
        // Bases not provably related, or diverging strides: assume the
        // worst. Disjoint allocations with equal terms are handled by the
        // constant difference below.
        return Meet::Any;
    }
    let dc = a.konst - b.konst;
    if a.stride == 0 {
        // Loop-invariant addresses meet in every iteration or in none.
        return if dc == 0 { Meet::Any } else { Meet::Never };
    }
    if dc % a.stride != 0 {
        return Meet::Never;
    }
    // a(t) = b(t + q)  <=>  a.konst - b.konst = stride * q.
    let q = dc / a.stride;
    if q.abs() < strip {
        Meet::At(q)
    } else {
        Meet::Never
    }
}

/// True when statement-major kernel sweeps over a strip of up to `strip`
/// iterations preserve every data dependence. Iteration-major order runs
/// instance `p1` of iteration `t1` before instance `p2` of iteration `t2`
/// when `t1 < t2`, or `t1 == t2` and `p1` comes first in the body;
/// statement-major order runs it first whenever `p1` comes first in the
/// body. The two disagree only on pairs where the instance *later* in the
/// body runs in an *earlier* iteration — so the sweep is legal when no two
/// accesses of different instances, at least one a write, meet at such a
/// negative distance. Same-iteration meetings keep their order, forward
/// ones (a consumer after its producer in the body, reading what an
/// earlier iteration produced — the shape alignment gives fused loops)
/// do too, and same-instance dependences are handled by each kernel's
/// ascending-iteration loop.
fn deps_allow_stmt_major(accs: &[Vec<AffAcc>], strip: i64) -> bool {
    // Only accesses of one array can meet, so pair them up per array: a
    // fused body of 60 statements over 50 arrays stays far from quadratic.
    let mut by_array: Vec<(ArrayId, usize, &AffAcc)> = accs
        .iter()
        .enumerate()
        .flat_map(|(p, list)| list.iter().map(move |a| (a.array, p, a)))
        .collect();
    by_array.sort_by_key(|&(array, p, _)| (array, p));
    for group in by_array.chunk_by(|x, y| x.0 == y.0) {
        for (k, &(_, p1, a)) in group.iter().enumerate() {
            for &(_, p2, b) in &group[k + 1..] {
                if p1 == p2 || !(a.write || b.write) {
                    continue;
                }
                match aff_meet(a, b, strip) {
                    Meet::Never => {}
                    Meet::At(q) if q >= 0 => {}
                    Meet::At(_) | Meet::Any => return false,
                }
            }
        }
    }
    true
}

/// True when one `VInst::Micro` instance may execute op-major over a
/// strip: one pass per op across all iterations, stores last. That runs
/// every read of the strip before every store, which is unobservable
/// unless a read touches what the instance's own write stored in an
/// *earlier* iteration of the strip. A read of an address stored in the
/// same or a later iteration sees the old value in both schedules, and the
/// reduce read-modify-write stays sequential in ascending iteration order
/// in both. `acc` is the instance's access list with the write last.
fn micro_vec_ok(acc: &[AffAcc], strip: i64) -> bool {
    let (w, reads) = acc.split_last().expect("instance access list has a write");
    reads.iter().all(|r| match aff_meet(w, r, strip) {
        Meet::Never => true,
        Meet::At(q) => q <= 0,
        Meet::Any => false,
    })
}

/// Vector-register rows an op touches (binaries read one row deeper).
fn op_rows(op: &Op) -> usize {
    match *op {
        Op::Add { d }
        | Op::Sub { d }
        | Op::Mul { d }
        | Op::Div { d }
        | Op::Max { d }
        | Op::Min { d } => d as usize + 2,
        Op::Const { d, .. }
        | Op::Var { d, .. }
        | Op::Read { d, .. }
        | Op::ReadScalar { d, .. }
        | Op::Neg { d }
        | Op::Sqrt { d }
        | Op::Abs { d }
        | Op::Intrinsic { d, .. }
        | Op::ReadAdd { d, .. }
        | Op::ReadSub { d, .. }
        | Op::ReadMul { d, .. }
        | Op::ReadMax { d, .. }
        | Op::ReadMin { d, .. }
        | Op::ConstAdd { d, .. }
        | Op::ConstSub { d, .. }
        | Op::ConstMul { d, .. }
        | Op::ConstDiv { d, .. }
        | Op::ConstMax { d, .. }
        | Op::ConstMin { d, .. } => d as usize + 1,
    }
}

/// Executes a compiled program under the VM plan: the body `steps` times
/// against `mem`/`vars`, sharing one fuel budget, streaming accesses to
/// `sink`. Mirrors the interpreter's `run_fueled` observably.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<S: TraceSink>(
    cp: &CompiledProgram,
    plan: &VmPlan,
    mem: &mut [f64],
    vars: &mut [i64],
    stats: &mut ExecStats,
    sink: &mut S,
    steps: usize,
    fuel: u64,
) -> Result<(), GcrError> {
    let mut vx = VmExec {
        ex: Exec::new(cp, mem, vars, fuel),
        plan,
        bslots: Vec::with_capacity(plan.max_slots),
        bends: Vec::new(),
        vregs: vec![0.0; plan.max_vregs * MAX_STRIP],
    };
    let mut result = Ok(());
    for _ in 0..steps {
        vx.ex.prime(cp.top_prime);
        if let Err(e) = vx.run_items(cp.top_items, 0, sink) {
            result = Err(e);
            break;
        }
    }
    vx.ex.flush_stats(stats);
    result
}

/// Address cursor of one kernel operand.
#[derive(Clone, Copy)]
struct Cur {
    addr: i64,
    stride: i64,
}

/// Resolved kernel of one statement over a strip.
enum Kern {
    Fill(f64),
    Copy(Cur),
    BinRR(Cur, Cur, VBin),
    BinRC(Cur, f64, VBin),
    Chain(Vec<Cur>, ChainKind),
}

/// The VM executor: tape execution state plus the strip's batch-slot
/// descriptor buffer (one entry per event position of an iteration —
/// building it is the *only* per-strip event work the VM does) and the
/// instance boundaries of the segment being run under the current mask.
/// Both are per-iteration lists: nothing here grows with the strip length.
struct VmExec<'a> {
    ex: Exec<'a>,
    plan: &'a VmPlan,
    bslots: Vec<BatchSlot>,
    bends: Vec<(u32, StmtId)>,
    /// Vector register file of the op-major Micro kernel:
    /// `max_vregs` rows of [`MAX_STRIP`] elements.
    vregs: Vec<f64>,
}

impl VmExec<'_> {
    fn run_items<S: TraceSink>(
        &mut self,
        range: (u32, u32),
        inactive: u64,
        sink: &mut S,
    ) -> Result<(), GcrError> {
        let cp = self.ex.cp;
        for it in &cp.items[range.0 as usize..range.1 as usize] {
            if it.req & inactive != 0 {
                continue;
            }
            match it.kind {
                ItemKind::Stmt(si) => self.exec_stmt(si, sink)?,
                ItemKind::Loop(li) => self.run_loop(li, sink)?,
            }
        }
        Ok(())
    }

    fn run_loop<S: TraceSink>(&mut self, li: u32, sink: &mut S) -> Result<(), GcrError> {
        let cp = self.ex.cp;
        let l = &cp.loops[li as usize];
        let mut inactive = 0u64;
        for c in &cp.checks[l.checks.0 as usize..l.checks.1 as usize] {
            let v = self.ex.vars[c.slot as usize];
            if v < c.lo || v > c.hi {
                inactive |= c.bit;
            }
        }
        for s in l.segments.0..l.segments.1 {
            let seg = &cp.segments[s as usize];
            let trips = (seg.hi - seg.lo + 1) as u64;
            // Strip path: a planned segment with enough fuel that
            // exhaustion inside it is impossible under this entry's mask —
            // charge the active members' fuel and statistics in bulk and
            // run whole iteration strips per dispatch.
            if let Some(strip) = &self.plan.strips[s as usize] {
                let (fuel, per_iter) = self.plan.iteration(cp, strip, inactive, &mut self.bends);
                if let Some(cost) = trips.checked_mul(fuel).filter(|&c| c <= self.ex.fuel) {
                    self.ex.fuel -= cost;
                    self.ex.instances += trips * per_iter.instances;
                    self.ex.flops += trips * per_iter.flops;
                    self.ex.reads += trips * per_iter.reads;
                    self.ex.writes += trips * per_iter.writes;
                    if !self.bends.is_empty() {
                        self.run_strips(l.var, seg, strip, inactive, sink);
                    }
                    continue;
                }
            }
            let items = &cp.items[seg.items.0 as usize..seg.items.1 as usize];
            if !items.iter().any(|it| it.req & inactive == 0) {
                self.ex.spend_bulk(trips)?;
                continue;
            }
            self.ex.vars[l.var as usize] = seg.lo;
            self.ex.prime(seg.prime);
            let advance = &cp.advance_list[seg.advance.0 as usize..seg.advance.1 as usize];
            for t in seg.lo..=seg.hi {
                self.ex.spend()?;
                self.ex.vars[l.var as usize] = t;
                self.run_items(seg.items, inactive, sink)?;
                for &(w, stride) in advance {
                    self.ex.wk[w as usize].cur += stride;
                }
            }
        }
        Ok(())
    }

    /// Runs one planned segment as a sequence of iteration strips, with the
    /// steps whose bits are set in `inactive` left out. Fuel and statistics
    /// are already charged in bulk by the caller, which also left the
    /// active statements' instance boundaries in `self.bends`. `Prime`
    /// steps re-base each unrolled inner iteration's walkers at the strip's
    /// parent value before its statements run (or before their event slots
    /// are materialized).
    fn run_strips<S: TraceSink>(
        &mut self,
        var: u16,
        seg: &Segment,
        strip: &Strip,
        inactive: u64,
        sink: &mut S,
    ) {
        let cp = self.ex.cp;
        let plan = self.plan;
        self.ex.vars[var as usize] = seg.lo;
        self.ex.prime(seg.prime);
        let advance = &cp.advance_list[seg.advance.0 as usize..seg.advance.1 as usize];
        let sitems = &plan.sitems[strip.items.0 as usize..strip.items.1 as usize];
        let active = || sitems.iter().filter(|it| it.req & inactive == 0);
        let ends = mem::take(&mut self.bends);
        let mut t = seg.lo;
        while t <= seg.hi {
            let len = (MAX_STRIP as i64).min(seg.hi - t + 1);
            self.ex.vars[var as usize] = t;
            // Event pass: every address is affine in the strip iteration,
            // so the strip's complete event stream is known here, before
            // any arithmetic runs. Hand it to the sink in compressed
            // affine form — one descriptor per event position, O(slots)
            // work regardless of strip length. Unrolled inner walkers are
            // primed as the walk reaches them.
            self.bslots.clear();
            for it in active() {
                match it.step {
                    Step::Prime { var: mv, val, prime } => {
                        self.ex.vars[mv as usize] = val;
                        self.ex.prime(prime);
                    }
                    Step::Stmt { slots, .. } => {
                        for sl in &plan.slots[slots.0 as usize..slots.1 as usize] {
                            let st = self.ex.wk[sl.w as usize];
                            self.bslots.push(BatchSlot {
                                addr: st.cur as u64,
                                stride: sl.stride,
                                array: st.array,
                                ref_id: st.ref_id,
                                stmt: sl.stmt,
                                is_write: sl.is_write,
                            });
                        }
                    }
                }
            }
            sink.record_batch(&TraceBatch { slots: &self.bslots, ends: &ends, iters: len as u32 });
            // Compute pass.
            if strip.stmt_major {
                for it in active() {
                    match it.step {
                        Step::Prime { var: mv, val, prime } => {
                            self.ex.vars[mv as usize] = val;
                            self.ex.prime(prime);
                        }
                        Step::Stmt { si, vector, .. } => self.kernel(si, vector, len, var, t),
                    }
                }
                for &(w, stride) in advance {
                    self.ex.wk[w as usize].cur += stride * len;
                }
            } else {
                for k in 0..len {
                    self.ex.vars[var as usize] = t + k;
                    for it in active() {
                        let Step::Stmt { si, .. } = it.step else {
                            unreachable!("unrolled strips are statement-major")
                        };
                        self.compute_one(si);
                    }
                    for &(w, stride) in advance {
                        self.ex.wk[w as usize].cur += stride;
                    }
                }
            }
            t += len;
        }
        self.ex.vars[var as usize] = seg.hi;
        self.bends = ends;
    }

    /// Kernel operand cursor of walker `w`: current address plus the
    /// per-iteration stride with respect to the strip variable.
    fn cur_of(&self, w: u32, var: u16) -> Cur {
        Cur { addr: self.ex.wk[w as usize].cur, stride: pstride(self.ex.cp, w, var) }
    }

    /// Statement-major vector kernel: one dispatch, then a tight
    /// read-compute-write loop ascending in the strip iteration — which is
    /// exactly the original per-iteration order of this statement, so
    /// same-statement loop-carried dependences are preserved by
    /// construction.
    fn kernel(&mut self, si: u32, vector: bool, len: i64, var: u16, t0: i64) {
        let cp = self.ex.cp;
        let s = cp.stmts[si as usize];
        let plan = self.plan;
        let k = match plan.vstmts[si as usize] {
            VInst::Fill { v } => Kern::Fill(v),
            VInst::Copy { a } => Kern::Copy(self.cur_of(a, var)),
            VInst::BinRR { a, b, op } => Kern::BinRR(self.cur_of(a, var), self.cur_of(b, var), op),
            VInst::BinRC { a, v, op } => Kern::BinRC(self.cur_of(a, var), v, op),
            VInst::Chain { ws, kind } => {
                let list = &plan.chain_ws[ws.0 as usize..ws.1 as usize];
                Kern::Chain(list.iter().map(|&w| self.cur_of(w, var)).collect(), kind)
            }
            VInst::Micro if vector => return self.vec_micro(si, len, var, t0),
            VInst::Micro => return self.seq_micro(si, len, var, t0),
        };
        let sd = pstride(cp, s.walker, var);
        let mut pd = self.ex.wk[s.walker as usize].cur;
        let mem = &mut *self.ex.mem;
        // Fused read-compute-write per iteration (never read-all-then
        // -write-all — that would break same-statement dependences).
        macro_rules! each {
            ($rhs:expr) => {{
                match s.reduce {
                    None => {
                        for _ in 0..len {
                            let v = $rhs;
                            mem[pd as usize / ELEM_BYTES] = v;
                            pd += sd;
                        }
                    }
                    Some(rop) => {
                        for _ in 0..len {
                            let v = $rhs;
                            let e = pd as usize / ELEM_BYTES;
                            let old = mem[e];
                            mem[e] = match rop {
                                ReduceOp::Sum => old + v,
                                ReduceOp::Max => old.max(v),
                                ReduceOp::Min => old.min(v),
                            };
                            pd += sd;
                        }
                    }
                }
            }};
        }
        match k {
            Kern::Fill(v) => each!(v),
            Kern::Copy(mut a) => each!({
                let x = mem[a.addr as usize / ELEM_BYTES];
                a.addr += a.stride;
                x
            }),
            Kern::BinRR(mut a, mut b, op) => each!({
                let x = mem[a.addr as usize / ELEM_BYTES];
                let y = mem[b.addr as usize / ELEM_BYTES];
                a.addr += a.stride;
                b.addr += b.stride;
                op.apply(x, y)
            }),
            Kern::BinRC(mut a, v, op) => each!({
                let x = mem[a.addr as usize / ELEM_BYTES];
                a.addr += a.stride;
                op.apply(x, v)
            }),
            Kern::Chain(mut cs, kind) => each!({
                let mut it = cs.iter_mut();
                let mut acc = match kind {
                    ChainKind::Intrinsic { .. } => 0.0,
                    _ => {
                        let c = it.next().unwrap();
                        let x = mem[c.addr as usize / ELEM_BYTES];
                        c.addr += c.stride;
                        x
                    }
                };
                for c in it {
                    acc += mem[c.addr as usize / ELEM_BYTES];
                    c.addr += c.stride;
                }
                match kind {
                    ChainKind::Intrinsic { scale, bias } => scale * acc + bias,
                    ChainKind::PreMul { c } => c * acc,
                    ChainKind::Post { v, op } => op.apply(acc, v),
                    ChainKind::Sum => acc,
                }
            }),
        }
    }

    /// Op-major vector execution of one Micro statement over a strip:
    /// each tape op runs once, as a tight loop over all `len` iterations
    /// on a row of the vector register file, then the store phase commits
    /// row 0 in ascending iteration order. One dispatch per op per strip
    /// instead of per iteration — the vectorized form of `Exec::exec_ops`.
    /// Taken only where [`micro_vec_ok`] showed the schedule change
    /// (a strip's reads before its stores) unobservable; each element
    /// still runs the exact op sequence of the tape, so memory is
    /// bit-identical.
    fn vec_micro(&mut self, si: u32, len: i64, var: u16, t0: i64) {
        let cp = self.ex.cp;
        let s = cp.stmts[si as usize];
        let n = len as usize;
        let stride_of = |w: u32| pstride(cp, w, var);
        {
            let vr = &mut self.vregs;
            let ex = &self.ex;
            let mem = &*ex.mem;
            macro_rules! row {
                ($d:expr) => {
                    &mut vr[$d as usize * MAX_STRIP..$d as usize * MAX_STRIP + n]
                };
            }
            macro_rules! map {
                ($d:expr, $f:expr) => {{
                    let f = $f;
                    for x in row!($d).iter_mut() {
                        *x = f(*x);
                    }
                }};
            }
            macro_rules! bin {
                ($d:expr, $f:expr) => {{
                    let f = $f;
                    let (a, b) = vr[$d as usize * MAX_STRIP..].split_at_mut(MAX_STRIP);
                    for k in 0..n {
                        a[k] = f(a[k], b[k]);
                    }
                }};
            }
            macro_rules! read {
                ($d:expr, $w:expr, $f:expr) => {{
                    let f = $f;
                    let st = stride_of($w);
                    let mut a = ex.wk[$w as usize].cur;
                    for x in row!($d).iter_mut() {
                        *x = f(*x, mem[a as usize / ELEM_BYTES]);
                        a += st;
                    }
                }};
            }
            for op in &cp.ops[s.ops.0 as usize..s.ops.1 as usize] {
                match *op {
                    Op::Const { d, v } => map!(d, |_| v),
                    Op::Var { d, slot, offset } => {
                        if slot == var {
                            for (k, x) in row!(d).iter_mut().enumerate() {
                                *x = (t0 + k as i64 + offset) as f64;
                            }
                        } else {
                            let v = (ex.vars[slot as usize] + offset) as f64;
                            map!(d, |_| v);
                        }
                    }
                    Op::Read { d, w, .. } | Op::ReadScalar { d, w } => {
                        read!(d, w, |_, m: f64| m)
                    }
                    Op::Neg { d } => map!(d, |x: f64| -x),
                    Op::Sqrt { d } => map!(d, |x: f64| x.abs().sqrt()),
                    Op::Abs { d } => map!(d, |x: f64| x.abs()),
                    Op::Add { d } => bin!(d, |a, b| a + b),
                    Op::Sub { d } => bin!(d, |a, b| a - b),
                    Op::Mul { d } => bin!(d, |a, b| a * b),
                    Op::Div { d } => {
                        bin!(d, |a, b: f64| if b.abs() < 1e-300 { a } else { a / b })
                    }
                    Op::Max { d } => bin!(d, |a: f64, b: f64| a.max(b)),
                    Op::Min { d } => bin!(d, |a: f64, b: f64| a.min(b)),
                    Op::Intrinsic { d, scale, bias } => map!(d, |x: f64| scale * x + bias),
                    Op::ReadAdd { d, w, .. } => read!(d, w, |x, m| x + m),
                    Op::ReadSub { d, w, .. } => read!(d, w, |x, m| x - m),
                    Op::ReadMul { d, w, .. } => read!(d, w, |x, m| x * m),
                    Op::ReadMax { d, w, .. } => read!(d, w, |x: f64, m: f64| x.max(m)),
                    Op::ReadMin { d, w, .. } => read!(d, w, |x: f64, m: f64| x.min(m)),
                    Op::ConstAdd { d, v } => map!(d, |x: f64| x + v),
                    Op::ConstSub { d, v } => map!(d, |x: f64| x - v),
                    Op::ConstMul { d, v } => map!(d, |x: f64| x * v),
                    Op::ConstDiv { d, v } => map!(d, |x: f64| x / v),
                    Op::ConstMax { d, v } => map!(d, |x: f64| x.max(v)),
                    Op::ConstMin { d, v } => map!(d, |x: f64| x.min(v)),
                }
            }
        }
        // Store phase: commit row 0 ascending — the original iteration
        // order of this statement's stores.
        let sd = stride_of(s.walker);
        let mut pd = self.ex.wk[s.walker as usize].cur;
        let mem = &mut *self.ex.mem;
        let r0 = &self.vregs[..n];
        match s.reduce {
            None => {
                for &v in r0 {
                    mem[pd as usize / ELEM_BYTES] = v;
                    pd += sd;
                }
            }
            Some(rop) => {
                for &v in r0 {
                    let e = pd as usize / ELEM_BYTES;
                    let old = mem[e];
                    mem[e] = match rop {
                        ReduceOp::Sum => old + v,
                        ReduceOp::Max => old.max(v),
                        ReduceOp::Min => old.min(v),
                    };
                    pd += sd;
                }
            }
        }
    }

    /// One Micro statement over a strip, one iteration at a time: what a
    /// statement-major strip does with an instance that reads its own
    /// earlier stores, where the op-major sweep of [`Self::vec_micro`]
    /// would be observable.
    fn seq_micro(&mut self, si: u32, len: i64, var: u16, t0: i64) {
        let cp = self.ex.cp;
        let s = cp.stmts[si as usize];
        let steps: Vec<(u32, i64)> = cp.ops[s.ops.0 as usize..s.ops.1 as usize]
            .iter()
            .filter_map(any_read_walker)
            .chain([s.walker])
            .map(|w| (w, pstride(cp, w, var)))
            .filter(|&(_, stride)| stride != 0)
            .collect();
        for k in 0..len {
            self.ex.vars[var as usize] = t0 + k;
            self.compute_one(si);
            for &(w, stride) in &steps {
                self.ex.wk[w as usize].cur += stride;
            }
        }
        // The caller moves every walker of the segment past the strip once
        // the compute pass is over: hand these back where it expects them.
        for &(w, stride) in &steps {
            self.ex.wk[w as usize].cur -= stride * len;
        }
        self.ex.vars[var as usize] = t0;
    }

    /// Iteration-major quiet compute of one statement instance: identical
    /// arithmetic to the exact path, no events (the batch already carries
    /// them) and no accounting (charged in bulk).
    fn compute_one(&mut self, si: u32) {
        let cp = self.ex.cp;
        let plan = self.plan;
        let s = cp.stmts[si as usize];
        let mut ns = NullSink;
        let rhs = match plan.vstmts[si as usize] {
            VInst::Fill { v } => v,
            VInst::Copy { a } => self.read_quiet(a),
            VInst::BinRR { a, b, op } => {
                let x = self.read_quiet(a);
                let y = self.read_quiet(b);
                op.apply(x, y)
            }
            VInst::BinRC { a, v, op } => op.apply(self.read_quiet(a), v),
            VInst::Chain { ws, kind } => {
                let list = &plan.chain_ws[ws.0 as usize..ws.1 as usize];
                self.chain_value::<false, NullSink>(list, kind, s.id, &mut ns)
            }
            VInst::Micro => {
                self.ex.exec_ops::<false, false, NullSink>(s.ops, &mut ns);
                self.ex.regs[0]
            }
        };
        self.ex.regs[0] = rhs;
        self.ex.store_tail::<false, false, NullSink>(s, &mut ns);
    }

    #[inline(always)]
    fn read_quiet(&mut self, w: u32) -> f64 {
        self.ex.mem[self.ex.wk[w as usize].cur as usize / ELEM_BYTES]
    }

    /// Evaluates a read-sum chain; `EMIT` selects per-event emission (the
    /// exact path) versus quiet reads (the strip-compute path).
    #[inline(always)]
    fn chain_value<const EMIT: bool, S: TraceSink>(
        &mut self,
        list: &[u32],
        kind: ChainKind,
        stmt: StmtId,
        sink: &mut S,
    ) -> f64 {
        let mut i = 0;
        let mut acc = match kind {
            ChainKind::Intrinsic { .. } => 0.0,
            _ => {
                i = 1;
                self.ex.traced_read::<EMIT, EMIT, S>(list[0], stmt, sink)
            }
        };
        for &w in &list[i..] {
            acc += self.ex.traced_read::<EMIT, EMIT, S>(w, stmt, sink);
        }
        match kind {
            ChainKind::Intrinsic { scale, bias } => scale * acc + bias,
            ChainKind::PreMul { c } => c * acc,
            ChainKind::Post { v, op } => op.apply(acc, v),
            ChainKind::Sum => acc,
        }
    }

    /// Exact-path statement execution: superinstruction dispatch with
    /// per-event emission and per-access accounting — event-for-event
    /// identical to the interpreter.
    fn exec_stmt<S: TraceSink>(&mut self, si: u32, sink: &mut S) -> Result<(), GcrError> {
        self.ex.spend()?;
        let cp = self.ex.cp;
        let plan = self.plan;
        let s = cp.stmts[si as usize];
        let rhs = match plan.vstmts[si as usize] {
            VInst::Fill { v } => v,
            VInst::Copy { a } => self.ex.traced_read::<true, true, S>(a, s.id, sink),
            VInst::BinRR { a, b, op } => {
                let x = self.ex.traced_read::<true, true, S>(a, s.id, sink);
                let y = self.ex.traced_read::<true, true, S>(b, s.id, sink);
                op.apply(x, y)
            }
            VInst::BinRC { a, v, op } => {
                op.apply(self.ex.traced_read::<true, true, S>(a, s.id, sink), v)
            }
            VInst::Chain { ws, kind } => {
                let list = &plan.chain_ws[ws.0 as usize..ws.1 as usize];
                self.chain_value::<true, S>(list, kind, s.id, sink)
            }
            VInst::Micro => {
                self.ex.exec_ops::<true, true, S>(s.ops, sink);
                self.ex.regs[0]
            }
        };
        self.ex.regs[0] = rhs;
        self.ex.store_tail::<true, true, S>(s, sink);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::DataLayout;
    use crate::machine::Machine;
    use gcr_ir::ParamBinding;

    fn plan_of(src: &str, n: i64) -> (VmPlan, CompiledProgram) {
        let prog = gcr_frontend::parse(src).unwrap();
        let bind = ParamBinding::new(vec![n; prog.params.len()]);
        let layout = DataLayout::column_major(&prog, &bind, 0);
        let cp = crate::compile::compile(&prog, &bind, &layout)
            .expect("test program must be in the compiler's domain");
        (VmPlan::build(&cp), cp)
    }

    /// True when the strip carries `Prime` steps (an unrolled inner loop).
    fn unrolled(plan: &VmPlan, strip: &Strip) -> bool {
        plan.sitems[strip.items.0 as usize..strip.items.1 as usize]
            .iter()
            .any(|it| matches!(it.step, Step::Prime { .. }))
    }

    #[test]
    fn stencil_selects_chain_superinstruction() {
        let (plan, _) = plan_of(
            "
program s
param N
array A[N], B[N]
for i = 2, N - 1 { B[i] = A[i-1] + A[i] + A[i+1] }
",
            16,
        );
        assert_eq!(plan.vstmts.len(), 1);
        assert!(
            matches!(plan.vstmts[0], VInst::Chain { kind: ChainKind::Sum, ws } if ws.1 - ws.0 == 3),
            "3-point stencil must fuse to one read-sum chain: {:?}",
            plan.vstmts[0]
        );
        assert_eq!(plan.strip_count(), 1, "guard-free inner loop must get a strip plan");
        assert_eq!(plan.superinstruction_count(), 1);
    }

    #[test]
    fn intrinsic_call_selects_intrinsic_chain() {
        let (plan, _) = plan_of(
            "
program s
param N
array A[N], B[N]
for i = 2, N - 1 { B[i] = f(A[i-1], A[i], A[i+1]) }
",
            16,
        );
        assert!(
            matches!(
                plan.vstmts[0],
                VInst::Chain { kind: ChainKind::Intrinsic { .. }, ws } if ws.1 - ws.0 == 3
            ),
            "intrinsic call must fuse to one chain: {:?}",
            plan.vstmts[0]
        );
    }

    #[test]
    fn mmul_inner_selects_fused_multiply() {
        let (plan, cp) = plan_of(
            "
program mmul
param N
array A[N, N], B[N, N], C[N, N]
for i = 1, N { for j = 1, N { for k = 1, N {
  C[j, i] sum= A[j, k] * B[k, i]
} } }
",
            8,
        );
        assert!(
            matches!(plan.vstmts[0], VInst::BinRR { op: VBin::Mul, .. }),
            "mmul inner product must fuse to one load-load-mul opcode: {:?}",
            plan.vstmts[0]
        );
        assert!(cp.stmts[0].reduce.is_some(), "sum= must lower to a reduction store");
        assert!(plan.strip_count() >= 1);
    }

    #[test]
    fn copy_and_fill_select_single_opcodes() {
        let (plan, _) = plan_of(
            "
program s
param N
array A[N], B[N]
for i = 1, N { A[i] = 0.0 }
for i = 1, N { B[i] = A[i] }
",
            16,
        );
        assert!(matches!(plan.vstmts[0], VInst::Fill { .. }), "{:?}", plan.vstmts[0]);
        assert!(matches!(plan.vstmts[1], VInst::Copy { .. }), "{:?}", plan.vstmts[1]);
        assert_eq!(plan.superinstruction_count(), 2);
    }

    #[test]
    fn loop_carried_write_disables_statement_major_only_when_it_must() {
        let stmt_major = |body: &str| {
            let src = format!(
                "program dep\nparam N\narray A[N], B[N], C[N]\nfor i = 2, N {{ {body} }}\n"
            );
            let (plan, _) = plan_of(&src, 16);
            plan.strips.iter().flatten().next().expect("segment must plan a strip").stmt_major
        };
        // s1 reads what s2 — *later* in the body — wrote one iteration
        // ago. Statement-major sweeping would run s1 over the whole strip
        // before s2 has produced anything, which is exactly what the
        // dependence check must reject.
        assert!(
            !stmt_major("B[i] = C[i-1] + A[i]\n C[i] = A[i] + A[i]"),
            "a value carried backward through the body must force iteration-major compute"
        );
        // The anti-dependence in the same direction: s2 reads B[i] before
        // s1 of the *next* iteration overwrites it.
        assert!(
            !stmt_major("B[i-1] = A[i] + A[i]\n C[i] = B[i] + A[i]"),
            "a later overwrite by an earlier statement must force iteration-major compute"
        );
        // The producer first and the consumer reading an earlier iteration
        // (the shape alignment gives fused loops): s1 finishes the strip
        // before s2 starts, and s2 still sees every value it saw before.
        assert!(
            stmt_major("B[i] = A[i] + A[i]\n C[i] = B[i-1] + A[i]"),
            "a value carried forward through the body keeps statement-major"
        );
        // Independent outputs: statement-major is safe and must be kept.
        assert!(
            stmt_major("B[i] = A[i] + A[i]\n C[i] = A[i-1] + A[i]"),
            "independent statements must sweep statement-major"
        );
    }

    #[test]
    fn constant_trip_inner_loop_unrolls_into_parent_strip() {
        // The SP shape: a 5-trip guard-free inner loop under a long flat
        // parent. The planner must unroll the `m` instances into one wide
        // parent strip instead of running 5-iteration strips per parent
        // iteration.
        let src = "
program unroll
param N
array U[5, N], R[5, N]
for i = 2, N - 1 { for m = 1, 5 { R[m, i] = U[m, i-1] + U[m, i+1] } }
";
        let (plan, cp) = plan_of(src, 24);
        let strip = plan
            .strips
            .iter()
            .flatten()
            .find(|s| unrolled(&plan, s))
            .expect("constant-trip inner loop must unroll into the parent strip");
        assert!(strip.stmt_major, "unrolled strips are admitted statement-major only");
        assert_eq!(
            strip.items.1 - strip.items.0,
            10,
            "5 unrolled instances, each with its prime step"
        );
        // Per parent iteration the interpreter charges 1 for the parent
        // item plus, per inner iteration, 1 for the loop step and 1 for
        // the statement: 1 + 5 × 2.
        let (fuel, per_iter) = plan.iteration(&cp, strip, 0, &mut Vec::new());
        assert_eq!(fuel, 11);
        assert_eq!(per_iter.instances, 5);
        // And the unrolled execution must stay observationally exact.
        let prog = gcr_frontend::parse(src).unwrap();
        let bind = ParamBinding::new(vec![24]);
        let run = |engine: crate::machine::ExecEngine| {
            let mut m = Machine::new(&prog, bind.clone()).with_engine(engine);
            let mut sink = crate::machine::CountingSink::default();
            m.run(&mut sink);
            (sink.reads, sink.writes, m.stats(), m.checksum().to_bits())
        };
        assert_eq!(run(crate::machine::ExecEngine::Interp), run(crate::machine::ExecEngine::Vm));

        // A same-instance recurrence (R[m, i-1]) is still safe: each
        // unrolled instance's kernel ascends in `i` with a fused
        // read-compute-write loop, which is that instance's original
        // order. But a *cross-instance* dependence at nonzero strip
        // distance — instance m reading what instance m+1 wrote one `i`
        // ago — would be reordered by the statement-major sweep, so the
        // parent must not unroll; the inner loop keeps its own short
        // exact strips.
        let (plan2, _) = plan_of(
            "
program rec
param N
array U[5, N], R[5, N]
for i = 2, N - 1 { for m = 1, 4 { R[m, i] = R[m + 1, i - 1] + U[m, i] } }
",
            24,
        );
        assert!(
            plan2.strips.iter().flatten().all(|s| !unrolled(&plan2, s)),
            "cross-instance strip-carried dependence must reject unrolling"
        );
    }

    #[test]
    fn vm_runs_mmul_identically_to_interpreter() {
        let src = "
program mmul
param N
array A[N, N], B[N, N], C[N, N]
for i = 1, N { for j = 1, N { A[j, i] = f(A[j, i]) } }
for i = 1, N { for j = 1, N { for k = 1, N {
  C[j, i] sum= A[j, k] * B[k, i]
} } }
";
        let prog = gcr_frontend::parse(src).unwrap();
        let bind = ParamBinding::new(vec![9]);
        let run = |engine: crate::machine::ExecEngine| {
            let mut m = Machine::new(&prog, bind.clone()).with_engine(engine);
            let mut sink = crate::machine::CountingSink::default();
            m.run(&mut sink);
            (sink.reads, sink.writes, m.stats(), m.checksum().to_bits())
        };
        let a = run(crate::machine::ExecEngine::Interp);
        let b = run(crate::machine::ExecEngine::Vm);
        assert_eq!(a, b);
    }
}
