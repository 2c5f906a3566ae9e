//! Lowering from the IR to the tape of [`crate::tape`].
//!
//! Compilation is a single walk over the program body that resolves every
//! quantity the interpreter re-derives at run time:
//!
//! * loop bounds and guard ranges are `LinExpr`s over size parameters only,
//!   so under a fixed [`ParamBinding`] they fold to constants — each loop
//!   body is split into segments on which the active-member set is fixed;
//! * outer conditions (`when v in […]` on an enclosing variable) are
//!   intersected cumulatively per member: each one refines the variable's
//!   proven interval for the member's subtree, a condition that already
//!   contains that interval costs nothing at run time, and members whose
//!   remaining condition lists are equal share one bit of the loop's mask;
//! * subscript chains fold into one affine walker per static reference:
//!   `konst` absorbs the layout base, all invariant subscripts, and the
//!   constant offsets, leaving only `stride · var` terms;
//! * expression trees serialize into a register tape whose destination
//!   slots are the tree depths (left subtree at `d`, right at `d+1`),
//!   reproducing the interpreter's left-to-right evaluation order and
//!   therefore its exact floating-point results.
//!
//! [`try_compile`] is deliberately conservative and says why when it
//! declines: a [`Refusal`] names the shape — interpreter semantics that
//! depend on *stale* loop variables (a variable read outside its enclosing
//! loop, an outer condition on the loop's own variable), a loop body with
//! more than 64 distinct condition lists (the mask is one `u64`), a
//! subscript it cannot prove in bounds over the reference's execution
//! interval, an expression deeper than the register file, a guarded
//! top-level statement. The bounds rule keeps the interpreter's debug
//! bounds assertion authoritative: a program that could step outside an
//! array runs (and panics, in debug builds) exactly as it always has.
//!
//! What *is* guaranteed to compile is pinned by a test rather than by
//! this comment: `crates/bench/tests/fused_fast_path.rs::
//! optimizer_output_stays_on_the_tape` holds every gallery kernel and
//! evaluation app, under every strategy, to the tape (and to at least one
//! VM strip), so optimizer output that leaves the compiler's domain fails
//! tier-1 instead of silently running on the interpreter.

use crate::layout::DataLayout;
use crate::tape::{
    CLoop, CStmt, CompiledProgram, EvMeta, Item, ItemKind, Op, OuterCheck, Segment, Walker,
};
use gcr_ir::{
    ArrayRef, Assign, AssignKind, BinOp, Expr, Loop, ParamBinding, Program, Stmt, StmtId,
    Subscript, UnOp, VarId,
};
use std::fmt;

/// Why [`try_compile`] declined a program. The machine keeps it and runs
/// the reference interpreter, which is total.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// A loop variable is read where no enclosing loop binds it; its value
    /// there depends on execution history.
    StaleVariable {
        /// Name of the variable.
        var: String,
    },
    /// A member of a loop carries an outer condition on that loop's own
    /// variable, whose value at loop entry is the previous execution's.
    OwnVariableCondition {
        /// Name of the loop variable.
        var: String,
    },
    /// A loop body has more distinct outer-condition lists than the 64
    /// bits of the mask evaluated at loop entry.
    ConditionBits {
        /// Name of the loop variable.
        var: String,
    },
    /// A subscript is not provably inside its array over the interval the
    /// reference executes on.
    OutOfBounds {
        /// Name of the array.
        array: String,
        /// Dimension of the subscript (0 is the contiguous one).
        dim: usize,
        /// Smallest value the subscript may take.
        lo: i64,
        /// Largest value the subscript may take.
        hi: i64,
        /// Extent of the dimension (valid subscripts are `1..=extent`).
        extent: i64,
    },
    /// An expression needs more registers than the tape's register file.
    RegisterDepth {
        /// Registers the deepest expression needs.
        depth: usize,
    },
    /// A top-level statement carries a guard or an outer condition.
    GuardedTopLevel,
    /// The variable count or a loop's bounds overflow the tape's index
    /// types.
    TooLarge,
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refusal::StaleVariable { var } => {
                write!(f, "variable `{var}` is used outside its loop")
            }
            Refusal::OwnVariableCondition { var } => {
                write!(f, "a member of loop `{var}` carries an outer condition on `{var}` itself")
            }
            Refusal::ConditionBits { var } => {
                write!(f, "loop `{var}` has more than 64 distinct outer-condition lists")
            }
            Refusal::OutOfBounds { array, dim, lo, hi, extent } => write!(
                f,
                "subscript {dim} of `{array}` spans [{lo}, {hi}], not provably inside 1..={extent}"
            ),
            Refusal::RegisterDepth { depth } => write!(
                f,
                "an expression needs {depth} registers, the tape has {}",
                crate::tape::MAX_REGS
            ),
            Refusal::GuardedTopLevel => f.write_str("a top-level statement is guarded"),
            Refusal::TooLarge => {
                f.write_str("the variable count or a loop's bounds overflow the tape's index types")
            }
        }
    }
}

/// Lowers `prog` under `binding` and `layout` into a [`CompiledProgram`];
/// `None` when [`try_compile`] refuses.
pub fn compile(
    prog: &Program,
    binding: &ParamBinding,
    layout: &DataLayout,
) -> Option<CompiledProgram> {
    try_compile(prog, binding, layout).ok()
}

/// Lowers `prog` under `binding` and `layout` into a [`CompiledProgram`].
///
/// Refuses programs outside the compiler's domain (see the module docs)
/// with the reason; the machine then keeps using the interpreter, which is
/// the reference semantics for every shape.
pub fn try_compile(
    prog: &Program,
    binding: &ParamBinding,
    layout: &DataLayout,
) -> Result<CompiledProgram, Refusal> {
    if prog.vars.len() > usize::from(u16::MAX) {
        return Err(Refusal::TooLarge);
    }
    let mut lw = Lower {
        prog,
        binding,
        layout,
        out: CompiledProgram::default(),
        stmt_walkers: Vec::new(),
        cur_stmt_walkers: Vec::new(),
        ranges: Vec::new(),
        cur_id: StmtId::from_index(0),
    };
    let mut top_kinds = Vec::new();
    for gs in &prog.body {
        // The interpreter asserts top-level statements are unguarded; keep
        // that invariant's enforcement in one place by refusing to compile
        // anything else.
        if gs.guard.is_some() || !gs.outer.is_empty() {
            return Err(Refusal::GuardedTopLevel);
        }
        top_kinds.push(match &gs.stmt {
            Stmt::Assign(a) => ItemKind::Stmt(lw.assign(a)?),
            Stmt::Loop(l) => ItemKind::Loop(lw.lower_loop(l)?),
        });
    }
    let item_start = lw.out.items.len() as u32;
    for &kind in &top_kinds {
        lw.out.items.push(Item { kind, req: 0 });
    }
    lw.out.top_items = (item_start, lw.out.items.len() as u32);
    let prime_start = lw.out.prime_list.len() as u32;
    for &kind in &top_kinds {
        if let ItemKind::Stmt(si) = kind {
            lw.out.prime_list.extend(&lw.stmt_walkers[si as usize]);
        }
    }
    lw.out.top_prime = (prime_start, lw.out.prime_list.len() as u32);
    // The executor's register file is fixed-size with masked indexing;
    // deeper expressions than that stay on the interpreter.
    if lw.out.max_regs > crate::tape::MAX_REGS {
        return Err(Refusal::RegisterDepth { depth: lw.out.max_regs });
    }
    Ok(lw.out)
}

struct Lower<'a> {
    prog: &'a Program,
    binding: &'a ParamBinding,
    layout: &'a DataLayout,
    out: CompiledProgram,
    /// Walkers referenced by each compiled statement (parallel to
    /// `out.stmts`), used to build segment prime/advance lists.
    stmt_walkers: Vec<Vec<u32>>,
    cur_stmt_walkers: Vec<u32>,
    /// Value intervals of the enclosing loop variables along the current
    /// member chain, outermost first: loop range intersected with the
    /// member's guard and outer conditions. Innermost binding wins on
    /// lookup. Doubles as the "is this variable live here?" check and as
    /// the bound prover for subscripts.
    ranges: Vec<(VarId, i64, i64)>,
    /// Id of the assignment currently being lowered (baked into read ops
    /// so the op interpreter can emit events without statement context).
    cur_id: StmtId,
}

/// One outer condition as the mask tests it: `(slot, lo, hi)`.
type Cond = (u16, i64, i64);

/// Per-member lowering result, before segmentation.
struct Member {
    kind: ItemKind,
    /// Effective iteration interval: loop range intersected with the guard.
    alo: i64,
    ahi: i64,
    /// Outer-condition mask bit (0 when unconditional).
    req: u64,
}

impl Lower<'_> {
    /// Value interval of an enclosing loop variable at the current point.
    /// Only a variable bound by an enclosing loop has one: both engines
    /// then agree on its value at every read, where anything else would
    /// read a stale variable whose value depends on execution history.
    fn range_of(&self, v: VarId) -> Result<(i64, i64), Refusal> {
        self.ranges
            .iter()
            .rev()
            .find(|(rv, _, _)| *rv == v)
            .map(|&(_, lo, hi)| (lo, hi))
            .ok_or_else(|| Refusal::StaleVariable { var: self.var_name(v) })
    }

    fn var_name(&self, v: VarId) -> String {
        self.prog.vars[v.index()].name.clone()
    }

    fn push(&mut self, op: Op) {
        self.out.ops.push(op);
    }

    fn note_depth(&mut self, d: u16) {
        self.out.max_regs = self.out.max_regs.max(usize::from(d) + 1);
    }

    /// The register one deeper than `d`.
    fn deeper(d: u16) -> Result<u16, Refusal> {
        d.checked_add(1).ok_or(Refusal::RegisterDepth { depth: usize::from(d) + 2 })
    }

    fn expr(&mut self, e: &Expr, d: u16) -> Result<(), Refusal> {
        self.note_depth(d);
        match e {
            Expr::Const(c) => self.push(Op::Const { d, v: *c }),
            Expr::Lin(l) => self.push(Op::Const { d, v: l.eval(self.binding) as f64 }),
            Expr::Var { var, offset } => {
                self.range_of(*var)?;
                self.push(Op::Var { d, slot: var.index() as u16, offset: *offset });
            }
            Expr::Read(r) => {
                let w = self.walker(r)?;
                self.push(if r.subs.is_empty() {
                    Op::ReadScalar { d, w }
                } else {
                    Op::Read { d, w, stmt: self.cur_id }
                });
            }
            Expr::Unary(op, x) => {
                self.expr(x, d)?;
                self.push(match op {
                    UnOp::Neg => Op::Neg { d },
                    UnOp::Sqrt => Op::Sqrt { d },
                    UnOp::Abs => Op::Abs { d },
                });
            }
            Expr::Bin(op, x, y) => {
                let d2 = Self::deeper(d)?;
                self.expr(x, d)?;
                if self.fused_rhs(op, y, d)? {
                    return Ok(());
                }
                self.expr(y, d2)?;
                self.note_depth(d2);
                self.push(match op {
                    BinOp::Add => Op::Add { d },
                    BinOp::Sub => Op::Sub { d },
                    BinOp::Mul => Op::Mul { d },
                    BinOp::Div => Op::Div { d },
                    BinOp::Max => Op::Max { d },
                    BinOp::Min => Op::Min { d },
                });
            }
            Expr::Call(name, args) => {
                // The interpreter folds `s = 0.0; for a in args { s += a }`
                // then applies the intrinsic; replicate that exact order.
                self.push(Op::Const { d, v: 0.0 });
                let d2 = Self::deeper(d)?;
                for a in args {
                    if self.fused_rhs(&BinOp::Add, a, d)? {
                        continue;
                    }
                    self.expr(a, d2)?;
                    self.note_depth(d2);
                    self.push(Op::Add { d });
                }
                let (scale, bias) = crate::machine::intrinsic_coeffs(name);
                self.push(Op::Intrinsic { d, scale, bias });
            }
        }
        Ok(())
    }

    /// Fuses a binary op whose right operand is a leaf into a single
    /// op (`regs[d] op= leaf`), skipping the spill to
    /// `regs[d+1]`. The arithmetic is the identical operation in the
    /// identical order — only the dispatch count changes. Returns whether
    /// it fused; when not, the caller lowers the operand normally.
    fn fused_rhs(&mut self, op: &BinOp, y: &Expr, d: u16) -> Result<bool, Refusal> {
        let konst = match y {
            Expr::Const(c) => Some(*c),
            Expr::Lin(l) => Some(l.eval(self.binding) as f64),
            _ => None,
        };
        if let Some(v) = konst {
            self.push(match op {
                BinOp::Add => Op::ConstAdd { d, v },
                BinOp::Sub => Op::ConstSub { d, v },
                BinOp::Mul => Op::ConstMul { d, v },
                BinOp::Div => {
                    // The interpreter's division guard, resolved statically:
                    // a tiny constant divisor leaves `regs[d]` unchanged, so
                    // nothing is emitted at all.
                    if v.abs() < 1e-300 {
                        return Ok(true);
                    }
                    Op::ConstDiv { d, v }
                }
                BinOp::Max => Op::ConstMax { d, v },
                BinOp::Min => Op::ConstMin { d, v },
            });
            return Ok(true);
        }
        if let Expr::Read(r) = y {
            // Division needs both operands at run time for its guard.
            if !r.subs.is_empty() && !matches!(op, BinOp::Div) {
                let w = self.walker(r)?;
                let stmt = self.cur_id;
                self.push(match op {
                    BinOp::Add => Op::ReadAdd { d, w, stmt },
                    BinOp::Sub => Op::ReadSub { d, w, stmt },
                    BinOp::Mul => Op::ReadMul { d, w, stmt },
                    BinOp::Max => Op::ReadMax { d, w, stmt },
                    BinOp::Min => Op::ReadMin { d, w, stmt },
                    BinOp::Div => unreachable!("division is never fused"),
                });
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Creates the affine walker for one static reference. Every subscript
    /// is proved in-bounds over the reference's execution interval —
    /// programs that could step outside an array stay on the interpreter,
    /// whose debug bounds assertion is part of the reference semantics.
    fn walker(&mut self, r: &ArrayRef) -> Result<u32, Refusal> {
        let al = &self.layout.arrays[r.array.index()];
        let mut konst = al.base as i64;
        let mut terms: Vec<(u16, i64)> = Vec::new();
        for (k, sub) in r.subs.iter().enumerate() {
            let stride = al.strides[k] as i64;
            let (lo, hi) = match sub {
                Subscript::Var { var, offset } => {
                    let (vlo, vhi) = self.range_of(*var)?;
                    konst += stride * (offset - 1);
                    let slot = var.index() as u16;
                    match terms.iter_mut().find(|(s, _)| *s == slot) {
                        Some(t) => t.1 += stride,
                        None => terms.push((slot, stride)),
                    }
                    (vlo + offset, vhi + offset)
                }
                Subscript::Invariant(e) => {
                    let i = e.eval(self.binding);
                    konst += stride * (i - 1);
                    (i, i)
                }
            };
            if lo < 1 || hi > al.extents[k] {
                return Err(Refusal::OutOfBounds {
                    array: self.prog.arrays[r.array.index()].name.clone(),
                    dim: k,
                    lo,
                    hi,
                    extent: al.extents[k],
                });
            }
        }
        let w = self.out.walkers.len() as u32;
        self.out.walkers.push(Walker { konst, terms });
        self.out.ev.push(EvMeta { array: r.array, ref_id: r.id });
        self.cur_stmt_walkers.push(w);
        Ok(w)
    }

    fn assign(&mut self, a: &Assign) -> Result<u32, Refusal> {
        debug_assert!(self.cur_stmt_walkers.is_empty());
        self.cur_id = a.id;
        let op_start = self.out.ops.len() as u32;
        self.expr(&a.rhs, 0)?;
        let lhs = self.walker(&a.lhs)?;
        let si = self.out.stmts.len() as u32;
        self.out.stmts.push(CStmt {
            ops: (op_start, self.out.ops.len() as u32),
            walker: lhs,
            traced: !a.lhs.subs.is_empty(),
            reduce: match a.kind {
                AssignKind::Normal => None,
                AssignKind::Reduce(op) => Some(op),
            },
            id: a.id,
            flops: a.rhs.op_count() as u32 + 1,
        });
        self.stmt_walkers.push(std::mem::take(&mut self.cur_stmt_walkers));
        Ok(si)
    }

    fn lower_loop(&mut self, l: &Loop) -> Result<u32, Refusal> {
        let lo = l.lo.eval(self.binding);
        let hi = l.hi.eval(self.binding);
        if hi.checked_add(1).is_none() || hi.checked_sub(lo).is_none() {
            return Err(Refusal::TooLarge);
        }
        let var_slot = l.var.index() as u16;

        // Phase 1: lower members (recursing into nested loops) and resolve
        // their guard intervals and outer-condition bits. Condition lists
        // are buffered locally so recursion does not interleave them; list
        // `k` owns mask bit `1 << k`.
        let mut members: Vec<Member> = Vec::new();
        let mut cond_lists: Vec<Vec<Cond>> = Vec::new();
        'members: for gs in &l.body {
            let (mut alo, mut ahi) = (lo, hi);
            if let Some(g) = &gs.guard {
                let (glo, ghi) = g.eval(self.binding);
                alo = alo.max(glo);
                ahi = ahi.min(ghi);
            }
            if alo > ahi {
                // Statically never active: skip the member entirely.
                continue;
            }
            // Outer conditions must test *strictly* enclosing variables —
            // that is the only case in which their value at loop entry is
            // well-defined in both engines (`l.var` is not yet on the range
            // stack here). They are intersected cumulatively: each one
            // narrows the variable's interval on the range stack, which is
            // what the next condition on the same variable and the bound
            // prover in the member's subtree see. A condition that already
            // contains the interval always holds and is dropped; what is
            // left, one interval per variable, is the member's run-time
            // test.
            let depth = self.ranges.len();
            let mut conds: Vec<Cond> = Vec::new();
            for (v, range) in &gs.outer {
                if *v == l.var {
                    return Err(Refusal::OwnVariableCondition { var: self.var_name(*v) });
                }
                let (vlo, vhi) = self.range_of(*v)?;
                let (rlo, rhi) = range.eval(self.binding);
                let (nlo, nhi) = (vlo.max(rlo), vhi.min(rhi));
                if nlo > nhi {
                    // The condition can never hold: the member never runs.
                    self.ranges.truncate(depth);
                    continue 'members;
                }
                if (nlo, nhi) != (vlo, vhi) {
                    self.ranges.push((*v, nlo, nhi));
                    let slot = v.index() as u16;
                    conds.retain(|c| c.0 != slot);
                    conds.push((slot, nlo, nhi));
                }
            }
            // Members with the same test share its bit.
            conds.sort_unstable();
            let req = if conds.is_empty() {
                0
            } else {
                let k = match cond_lists.iter().position(|c| *c == conds) {
                    Some(k) => k,
                    None if cond_lists.len() == 64 => {
                        return Err(Refusal::ConditionBits { var: self.var_name(l.var) });
                    }
                    None => {
                        cond_lists.push(conds);
                        cond_lists.len() - 1
                    }
                };
                1u64 << k
            };
            self.ranges.push((l.var, alo, ahi));
            let kind = match &gs.stmt {
                Stmt::Assign(a) => ItemKind::Stmt(self.assign(a)?),
                Stmt::Loop(inner) => ItemKind::Loop(self.lower_loop(inner)?),
            };
            self.ranges.truncate(depth);
            members.push(Member { kind, alo, ahi, req });
        }

        // Phase 2: split `lo..=hi` at every member boundary into segments
        // with a constant active set. A loop that never runs gets no
        // segments; intervals where nothing is active still become
        // segments so the iteration fuel is charged exactly.
        let seg_start = self.out.segments.len() as u32;
        if lo <= hi {
            let mut cuts: Vec<i64> = vec![lo, hi + 1];
            for m in &members {
                cuts.push(m.alo);
                cuts.push(m.ahi + 1);
            }
            cuts.sort_unstable();
            cuts.dedup();
            for w in cuts.windows(2) {
                let (a, b) = (w[0], w[1] - 1);
                let active = |m: &&Member| m.alo <= a && m.ahi >= b;
                let item_start = self.out.items.len() as u32;
                let prime_start = self.out.prime_list.len() as u32;
                let adv_start = self.out.advance_list.len() as u32;
                for m in members.iter().filter(active) {
                    self.out.items.push(Item { kind: m.kind, req: m.req });
                    let ItemKind::Stmt(si) = m.kind else { continue };
                    for &wk in &self.stmt_walkers[si as usize] {
                        self.out.prime_list.push(wk);
                        let stride = self.out.walkers[wk as usize]
                            .terms
                            .iter()
                            .find(|(s, _)| *s == var_slot)
                            .map_or(0, |(_, st)| *st);
                        if stride != 0 {
                            self.out.advance_list.push((wk, stride));
                        }
                    }
                }
                self.out.segments.push(Segment {
                    lo: a,
                    hi: b,
                    items: (item_start, self.out.items.len() as u32),
                    prime: (prime_start, self.out.prime_list.len() as u32),
                    advance: (adv_start, self.out.advance_list.len() as u32),
                });
            }
        }
        let checks_start = self.out.checks.len() as u32;
        for (k, conds) in cond_lists.iter().enumerate() {
            for &(slot, lo, hi) in conds {
                self.out.checks.push(OuterCheck { bit: 1u64 << k, slot, lo, hi });
            }
        }
        let li = self.out.loops.len() as u32;
        self.out.loops.push(CLoop {
            var: var_slot,
            segments: (seg_start, self.out.segments.len() as u32),
            checks: (checks_start, self.out.checks.len() as u32),
        });
        Ok(li)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{CountingSink, ExecEngine, Machine};

    fn lower(src: &str, n: i64) -> Result<CompiledProgram, Refusal> {
        let prog = gcr_frontend::parse(src).unwrap();
        let bind = ParamBinding::new(vec![n; prog.params.len()]);
        let layout = DataLayout::column_major(&prog, &bind, 0);
        try_compile(&prog, &bind, &layout)
    }

    /// Fusion repeats outer conditions on one variable; only their
    /// intersection keeps `X[j, i]` inside the array.
    fn repeated_outer(first: &str, second: &str) -> String {
        format!(
            "program rep\nparam N\narray X[N, N]\n\
             for i = 2, N + 2 {{\n  for j = 1, N {{\n    \
             when i in {first} when i in {second} X[j, i] = f(X[j, i])\n  }}\n}}\n"
        )
    }

    #[test]
    fn repeated_outer_conditions_refine_cumulatively() {
        let src = repeated_outer("[2, N]", "[2, N + 1]");
        let cp = lower(&src, 12).expect("the looser second condition must not undo the first");
        // `[2, N + 1]` contains what `[2, N]` left of the range: one test.
        assert_eq!(cp.checks.len(), 1);
        assert_eq!((cp.checks[0].lo, cp.checks[0].hi), (2, 12));
        // And the mask does what the interpreter's conjunction does.
        let prog = gcr_frontend::parse(&src).unwrap();
        let run = |engine: ExecEngine| {
            let mut m = Machine::new(&prog, ParamBinding::new(vec![12])).with_engine(engine);
            assert!(m.compiles());
            let mut sink = CountingSink::default();
            m.run(&mut sink);
            (sink, m.stats(), m.checksum().to_bits())
        };
        assert_eq!(run(ExecEngine::Interp), run(ExecEngine::Vm));
    }

    #[test]
    fn subscript_outside_the_intersection_is_still_refused() {
        assert_eq!(
            lower(&repeated_outer("[2, N + 1]", "[2, N + 2]"), 12).unwrap_err(),
            Refusal::OutOfBounds { array: "X".into(), dim: 1, lo: 2, hi: 13, extent: 12 }
        );
    }

    /// `members` statements in an inner loop, statement `k` conditioned on
    /// `i in [2 + k % lists, N]`.
    fn conditioned_members(members: usize, lists: usize) -> String {
        let mut src = String::from(
            "program bits\nparam N\narray A[N, N]\nfor i = 1, N {\n  for j = 1, N {\n",
        );
        for k in 0..members {
            src.push_str(&format!("    when i in [{}, N] A[j, i] = {k}.0\n", 2 + k % lists));
        }
        src.push_str("  }\n}\n");
        src
    }

    #[test]
    fn members_with_equal_condition_lists_share_a_bit() {
        let cp = lower(&conditioned_members(70, 35), 100).expect("35 distinct lists fit the mask");
        assert_eq!(cp.checks.len(), 35);
        let mut bits: Vec<u64> = cp.items.iter().map(|it| it.req).filter(|&r| r != 0).collect();
        assert_eq!(bits.len(), 70, "every member is conditioned");
        bits.sort_unstable();
        bits.dedup();
        assert_eq!(bits.len(), 35);
        assert!(lower(&conditioned_members(64, 64), 100).is_ok());
    }

    #[test]
    fn sixty_five_distinct_condition_lists_are_a_clean_refusal() {
        assert_eq!(
            lower(&conditioned_members(65, 65), 100).unwrap_err(),
            Refusal::ConditionBits { var: "j".into() }
        );
    }

    #[test]
    fn condition_containing_the_proven_range_costs_no_bit() {
        let cp = lower(
            "program full\nparam N\narray A[N, N]\n\
             for i = 2, N - 1 {\n  for j = 1, N {\n    when i in [1, N] A[j, i] = 1.0\n  }\n}\n",
            12,
        )
        .unwrap();
        assert!(cp.checks.is_empty());
        assert!(cp.items.iter().all(|it| it.req == 0));
    }

    #[test]
    fn refusals_name_their_shape() {
        use gcr_ir::{LinExpr, ProgramBuilder, Range};
        // The parser folds a condition on the loop's own variable into the
        // guard, so this shape only arises from IR built by hand.
        let mut b = ProgramBuilder::new("own");
        let n = b.param("N");
        let a = b.array("A", &[LinExpr::param(n)]);
        let i = b.var("i");
        let s = b.assign(a, vec![Subscript::var(i, 0)], Expr::Const(1.0));
        let Stmt::Loop(mut l) = b.for_(i, LinExpr::konst(1), LinExpr::param(n), vec![s]) else {
            unreachable!()
        };
        l.body[0].outer = vec![(i, Range::consts(2, 3))];
        let stale = b.assign(a, vec![Subscript::var(i, 0)], Expr::Const(2.0));
        let mut own = b.finish();
        own.body = vec![gcr_ir::GuardedStmt::bare(Stmt::Loop(l))];
        let try_at_8 = |p: &Program| {
            let bind = ParamBinding::new(vec![8]);
            try_compile(p, &bind, &DataLayout::column_major(p, &bind, 0))
        };
        assert_eq!(try_at_8(&own).unwrap_err(), Refusal::OwnVariableCondition { var: "i".into() });
        own.body.push(gcr_ir::GuardedStmt::bare(stale));
        own.body.remove(0);
        assert_eq!(try_at_8(&own).unwrap_err(), Refusal::StaleVariable { var: "i".into() });

        let deep = format!(
            "program deep\nparam N\narray A[N]\nfor i = 1, N {{\n  A[i] = {}A[i]{}\n}}\n",
            "(A[i] + ".repeat(40),
            ")".repeat(40)
        );
        assert!(
            matches!(lower(&deep, 8).unwrap_err(), Refusal::RegisterDepth { depth } if depth > 32)
        );
        assert!(Refusal::GuardedTopLevel.to_string().contains("top-level"));
    }
}
