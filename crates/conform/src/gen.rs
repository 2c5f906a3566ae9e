//! Seeded random generation of valid `gcr-ir` programs.
//!
//! The grammar deliberately mirrors the paper's input model (Figure 5) —
//! the same shapes the optimizer, both execution engines, and every
//! measurement sink must agree on:
//!
//! * multi-dimensional loop nests (1-D loops and 2-D nests over an `N×N`
//!   array, including transposed subscripts);
//! * per-statement guard ranges (constant and `N`-relative, occasionally
//!   empty or statically dead — the segment-splitting edge cases);
//! * outer conditions on strictly enclosing loop variables, on whole inner
//!   loops and on single statements inside them — sometimes two on one
//!   variable, with subscripts that are only in bounds under their
//!   intersection (the shape fusion gives every statement of a fused body);
//! * negative and positive subscript offsets, sized so that *every*
//!   subscript stays within `1..=N` for every binding `N ≥ MIN_N` (the
//!   interpreter's debug bounds assertion is part of the reference
//!   semantics, so generated programs must never trip it);
//! * arrays shared across loops, scalar and array reductions, invariant
//!   subscripts, and loop-invariant bare statements between loops.
//!
//! Every generated program passes [`gcr_ir::validate::validate`] by
//! construction (debug-asserted here), parses back from its printed form,
//! and executes under any `N ≥ MIN_N`.

use crate::rng::Rng;
use gcr_ir::{
    ArrayId, BinOp, Expr, GuardedStmt, LinExpr, Loop, ParamBinding, ParamId, Program,
    ProgramBuilder, Range, ReduceOp, Stmt, Subscript, UnOp, VarId,
};

/// Smallest parameter binding any oracle uses. Generated subscripts are
/// provably in bounds for every `N ≥ MIN_N`.
pub const MIN_N: i64 = 8;

/// Knobs of the program generator.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Maximum number of top-level statements.
    pub max_top: usize,
    /// Maximum statements per loop body.
    pub max_stmts: usize,
    /// Maximum expression nesting depth.
    pub max_depth: usize,
    /// Allow 2-D nests over the `N×N` array.
    pub allow_2d: bool,
    /// Allow guard ranges and outer conditions.
    pub allow_guards: bool,
    /// Restrict arithmetic to operations that keep values finite and
    /// well-conditioned (no `*`, `/`, `sqrt`), so oracles comparing with a
    /// relative tolerance are meaningful. The full grammar may produce
    /// `inf`/`NaN`, which bit-exact oracles handle fine.
    pub tame: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_top: 4,
            max_stmts: 3,
            max_depth: 3,
            allow_2d: true,
            allow_guards: true,
            tame: false,
        }
    }
}

impl GenConfig {
    /// The restricted grammar for semantic (tolerance-compared) oracles.
    pub fn tame() -> Self {
        GenConfig { tame: true, ..GenConfig::default() }
    }
}

/// Loop-variable value interval, kept in a form whose containment in
/// `1..=N` can be decided for every `N ≥ MIN_N`.
#[derive(Clone, Copy, Debug)]
struct Iv {
    /// Constant lower bound (`≥ 1`).
    lo: i64,
    /// Upper bound.
    hi: Hi,
}

#[derive(Clone, Copy, Debug)]
enum Hi {
    /// `N - b` with `b ≥ 0`.
    NMinus(i64),
    /// A constant `k ≤ MIN_N`.
    Const(i64),
}

impl Iv {
    /// Valid subscript offsets for an extent-`N` dimension: `i + off` stays
    /// in `1..=N` for every iteration and every `N ≥ MIN_N`.
    fn off_lo(&self) -> i64 {
        1 - self.lo
    }

    fn off_hi(&self) -> i64 {
        match self.hi {
            Hi::NMinus(b) => b,
            Hi::Const(k) => MIN_N - k,
        }
    }

    fn hi_expr(&self, n: ParamId) -> LinExpr {
        match self.hi {
            Hi::NMinus(b) => LinExpr::param(n).add_const(-b),
            Hi::Const(k) => LinExpr::konst(k),
        }
    }
}

/// Everything the recursive generator needs.
struct Gen<'a> {
    rng: &'a mut Rng,
    cfg: &'a GenConfig,
    n: ParamId,
    /// Rank-1 arrays of extent `N`.
    vecs: Vec<ArrayId>,
    /// The `N×N` array, when 2-D shapes are enabled.
    mat: Option<ArrayId>,
    scalar: ArrayId,
    /// Enclosing loop variables with their (guard-refined) intervals,
    /// outermost first.
    scope: Vec<(VarId, Iv)>,
    /// Loop variables allocated so far (for unique names).
    nvars: usize,
}

/// Generates one random valid program.
pub fn generate(rng: &mut Rng, cfg: &GenConfig) -> Program {
    let mut b = ProgramBuilder::new("fuzz");
    let n = b.param("N");
    let nvecs = rng.range(2, 3) as usize;
    let vecs: Vec<ArrayId> =
        (0..nvecs).map(|i| b.array(format!("A{i}"), &[LinExpr::param(n)])).collect();
    let mat = (cfg.allow_2d && rng.chance(1, 2))
        .then(|| b.array("M", &[LinExpr::param(n), LinExpr::param(n)]));
    let scalar = b.scalar("s");
    let mut g = Gen { rng, cfg, n, vecs, mat, scalar, scope: Vec::new(), nvars: 0 };
    let top = g.rng.range(1, cfg.max_top as i64) as usize;
    let mut body = Vec::new();
    for _ in 0..top {
        let stmt = g.top_item(&mut b);
        body.push(GuardedStmt::bare(stmt));
    }
    let mut prog = b.finish();
    prog.body = body;
    debug_assert!(
        gcr_ir::validate::validate(&prog).is_ok(),
        "generator must only emit valid programs:\n{}",
        gcr_ir::print::print_program(&prog)
    );
    canonicalize(prog)
}

/// Round-trips a built program through the printer and parser so that the
/// generator emits parser-canonical IR (the parser folds `var + intconst`
/// into subscript-offset form and fixes guard spellings; the round-trip
/// property `parse(print(p)) == p` is claimed for parser-originated
/// programs only).
fn canonicalize(prog: Program) -> Program {
    let printed = gcr_ir::print::print_program(&prog);
    match gcr_frontend::parse(&printed) {
        Ok(p) => p,
        Err(e) => panic!("generated program does not reparse ({e}):\n{printed}"),
    }
}

impl Gen<'_> {
    fn top_item(&mut self, b: &mut ProgramBuilder) -> Stmt {
        match self.rng.below(8) {
            // Bare loop-invariant statement between loops (boundary
            // updates like `A[1] = A[N]`).
            0 => self.invariant_assign(b),
            1 | 2 if self.mat.is_some() => self.nest_2d(b),
            _ => self.loop_1d(b),
        }
    }

    /// A fresh interval for a loop: mostly `[small, N - small]`, sometimes
    /// constant-trip (`[small, const ≤ MIN_N]`) which may even be empty at
    /// small `N`.
    fn interval(&mut self) -> Iv {
        let lo = self.rng.range(1, 4);
        let hi = if self.rng.chance(1, 6) {
            Hi::Const(self.rng.range(lo.min(MIN_N), MIN_N))
        } else {
            Hi::NMinus(self.rng.range(0, 3))
        };
        Iv { lo, hi }
    }

    fn fresh_var(&mut self, b: &mut ProgramBuilder) -> VarId {
        let v = b.var(format!("i{}", self.nvars));
        self.nvars += 1;
        v
    }

    fn loop_1d(&mut self, b: &mut ProgramBuilder) -> Stmt {
        let iv = self.interval();
        let v = self.fresh_var(b);
        let count = self.rng.range(1, self.cfg.max_stmts as i64) as usize;
        let mut body = Vec::new();
        for _ in 0..count {
            body.push(self.member(b, v, iv));
        }
        Stmt::Loop(Loop { var: v, lo: LinExpr::konst(iv.lo), hi: iv.hi_expr(self.n), body })
    }

    fn nest_2d(&mut self, b: &mut ProgramBuilder) -> Stmt {
        let iv_u = self.interval();
        let u = self.fresh_var(b);
        self.scope.push((u, iv_u));
        let inner = self.loop_1d(b);
        self.scope.pop();
        let mut member = GuardedStmt::bare(inner);
        // Outer condition on the (strictly enclosing) outer variable: the
        // inner loop only runs for part of the outer range.
        if self.cfg.allow_guards && self.rng.chance(1, 3) {
            member.outer.push((u, self.guard_range(iv_u)));
        }
        let mut body = vec![member];
        // Occasionally a second inner statement directly under the outer
        // loop, so segments mix loops and statements.
        if self.rng.chance(1, 3) {
            body.push(self.member(b, u, iv_u));
        }
        Stmt::Loop(Loop { var: u, lo: LinExpr::konst(iv_u.lo), hi: iv_u.hi_expr(self.n), body })
    }

    /// One guarded member of a loop over `v` with interval `iv`.
    fn member(&mut self, b: &mut ProgramBuilder, v: VarId, iv: Iv) -> GuardedStmt {
        let guard = (self.cfg.allow_guards && self.rng.chance(1, 3)).then(|| self.guard_range(iv));
        // Offsets must be valid over the iterations the statement actually
        // executes: the loop interval, or — exercising the guard-refined
        // bound prover — the tighter guard∩loop interval.
        let eff = match &guard {
            Some(g) if self.rng.chance(1, 2) => refine(iv, g),
            _ => iv,
        };
        // Inside a nest, conditions on an enclosing variable too: one, or
        // two on the same variable. Half the time the statement's
        // subscripts may rely on them, as they may on the guard.
        let mut outer = Vec::new();
        let mut widened = None;
        if self.cfg.allow_guards && !self.scope.is_empty() && self.rng.chance(1, 3) {
            let k = self.rng.below(self.scope.len() as u64) as usize;
            let (u, iv_u) = self.scope[k];
            let mut refined = iv_u;
            for _ in 0..if self.rng.chance(1, 3) { 2 } else { 1 } {
                let range = self.guard_range(iv_u);
                refined = refine(refined, &range);
                outer.push((u, range));
            }
            if self.rng.chance(1, 2) {
                self.scope[k].1 = refined;
                widened = Some((k, iv_u));
            }
        }
        self.scope.push((v, eff));
        let stmt = self.stmt(b, v, eff);
        self.scope.pop();
        if let Some((k, iv_u)) = widened {
            self.scope[k].1 = iv_u;
        }
        GuardedStmt { stmt, guard, outer }
    }

    /// A guard range over a loop with interval `iv`: usually a sub-range,
    /// sometimes disjoint (statically dead member) or empty.
    fn guard_range(&mut self, iv: Iv) -> Range {
        let lo = self.rng.range(1, MIN_N);
        let hi = if self.rng.chance(1, 2) {
            LinExpr::konst(self.rng.range(lo - 2, MIN_N))
        } else {
            LinExpr::param(self.n).add_const(-self.rng.range(0, 3))
        };
        let _ = iv;
        Range::new(LinExpr::konst(lo), hi)
    }

    /// An assignment (or reduction) whose subscripts use variable `v`
    /// bounded by `eff`.
    fn stmt(&mut self, b: &mut ProgramBuilder, v: VarId, eff: Iv) -> Stmt {
        let rhs = self.expr(b, 0);
        match self.rng.below(10) {
            // Scalar reduction.
            0 | 1 => {
                let op = *self.rng.pick(&[ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min]);
                b.reduce(op, self.scalar, vec![], rhs)
            }
            // Array reduction.
            2 => {
                let a = *self.rng.pick(&self.vecs.clone());
                let sub = self.var_sub(v, eff);
                b.reduce(ReduceOp::Sum, a, vec![sub], rhs)
            }
            // 2-D write, when the matrix and two loop vars are available.
            3 | 4 => match self.mat_subs() {
                Some(subs) => {
                    let m = self.mat.unwrap();
                    b.assign(m, subs, rhs)
                }
                None => {
                    let a = *self.rng.pick(&self.vecs.clone());
                    let sub = self.var_sub(v, eff);
                    b.assign(a, vec![sub], rhs)
                }
            },
            // Plain scalar write.
            5 if self.rng.chance(1, 2) => b.assign(self.scalar, vec![], rhs),
            // 1-D write.
            _ => {
                let a = *self.rng.pick(&self.vecs.clone());
                let sub = self.var_sub(v, eff);
                b.assign(a, vec![sub], rhs)
            }
        }
    }

    /// A variable subscript `v + off` valid over `eff`.
    fn var_sub(&mut self, v: VarId, eff: Iv) -> Subscript {
        let off = self.rng.range(eff.off_lo().max(-3), eff.off_hi().min(3));
        Subscript::var(v, off)
    }

    /// Two matrix subscripts drawn from the enclosing variables (straight
    /// or transposed), falling back to invariants when fewer than two
    /// variables are live.
    fn mat_subs(&mut self) -> Option<Vec<Subscript>> {
        self.mat?;
        let mut subs = Vec::with_capacity(2);
        for d in 0..2 {
            let pick = if self.scope.is_empty() {
                None
            } else {
                // Straight orientation reads dim 0 from the innermost
                // variable; transposed swaps them.
                let idx = if self.rng.chance(3, 4) {
                    self.scope.len() - 1 - (d % self.scope.len())
                } else {
                    self.rng.below(self.scope.len() as u64) as usize
                };
                Some(self.scope[idx])
            };
            subs.push(match pick {
                Some((v, iv)) => {
                    let off = self.rng.range(iv.off_lo().max(-3), iv.off_hi().min(3));
                    Subscript::var(v, off)
                }
                None => self.invariant_sub(),
            });
        }
        Some(subs)
    }

    /// A loop-invariant subscript valid for every `N ≥ MIN_N`.
    fn invariant_sub(&mut self) -> Subscript {
        if self.rng.chance(1, 2) {
            Subscript::Invariant(LinExpr::konst(self.rng.range(1, MIN_N)))
        } else {
            Subscript::Invariant(LinExpr::param(self.n).add_const(-self.rng.range(0, 3)))
        }
    }

    /// Top-level `A[k] = expr` boundary statement (no variables in scope).
    fn invariant_assign(&mut self, b: &mut ProgramBuilder) -> Stmt {
        let rhs = self.expr(b, 0);
        if self.rng.chance(1, 4) {
            b.assign(self.scalar, vec![], rhs)
        } else {
            let a = *self.rng.pick(&self.vecs.clone());
            let sub = self.invariant_sub();
            b.assign(a, vec![sub], rhs)
        }
    }

    /// Random expression over the current scope.
    fn expr(&mut self, b: &mut ProgramBuilder, depth: usize) -> Expr {
        if depth >= self.cfg.max_depth || self.rng.chance(2, 5) {
            return self.leaf(b);
        }
        match self.rng.below(10) {
            0 | 1 => {
                let op = if self.cfg.tame {
                    *self.rng.pick(&[UnOp::Neg, UnOp::Abs])
                } else {
                    *self.rng.pick(&[UnOp::Neg, UnOp::Abs, UnOp::Sqrt])
                };
                Expr::Unary(op, Box::new(self.expr(b, depth + 1)))
            }
            2..=4 => {
                let name = *self.rng.pick(&["f", "g", "h", "t", "u", "w", "relax", "flux", "wave"]);
                let nargs = self.rng.range(1, 2) as usize;
                let args = (0..nargs).map(|_| self.expr(b, depth + 1)).collect();
                Expr::Call(name, args)
            }
            _ => {
                let op = if self.cfg.tame {
                    *self.rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Max, BinOp::Min])
                } else {
                    *self.rng.pick(&[
                        BinOp::Add,
                        BinOp::Sub,
                        BinOp::Mul,
                        BinOp::Div,
                        BinOp::Max,
                        BinOp::Min,
                    ])
                };
                let x = self.expr(b, depth + 1);
                let y = self.expr(b, depth + 1);
                Expr::Bin(op, Box::new(x), Box::new(y))
            }
        }
    }

    fn leaf(&mut self, b: &mut ProgramBuilder) -> Expr {
        match self.rng.below(10) {
            0 | 1 => Expr::Const((self.rng.range(-4, 4) as f64) * 0.5),
            2 if !self.scope.is_empty() => {
                let (v, _) = *self.rng.pick(&self.scope.clone());
                Expr::Var { var: v, offset: self.rng.range(-2, 2) }
            }
            3 if self.rng.chance(1, 2) => b.read_scalar(self.scalar),
            n if n >= 8 && self.mat.is_some() => match self.mat_subs() {
                Some(subs) => b.read(self.mat.unwrap(), subs),
                None => Expr::Const(1.0),
            },
            _ => {
                let a = *self.rng.pick(&self.vecs.clone());
                let sub = match self.scope.last().copied() {
                    Some((v, iv)) if self.rng.chance(4, 5) => {
                        let off = self.rng.range(iv.off_lo().max(-3), iv.off_hi().min(3));
                        Subscript::var(v, off)
                    }
                    _ => self.invariant_sub(),
                };
                b.read(a, vec![sub])
            }
        }
    }
}

/// Intersection of a loop interval with a guard, conservatively folded to
/// the [`Iv`] form (used only to widen the valid-offset window; any
/// interval contained in the true intersection is safe).
fn refine(iv: Iv, g: &Range) -> Iv {
    let glo = g.lo.as_const();
    let ghi = g.hi.as_const();
    let lo = match glo {
        Some(c) if c > iv.lo => c.min(MIN_N),
        _ => iv.lo,
    };
    let hi = match (ghi, iv.hi) {
        // A constant guard top caps the interval at min(k, old); using the
        // smaller slack of the two stays safe.
        (Some(k), Hi::Const(old)) => Hi::Const(old.min(k.max(1))),
        (Some(k), Hi::NMinus(_)) if (1..=MIN_N).contains(&k) => Hi::Const(k),
        _ => iv.hi,
    };
    // Guard against inverted intervals from weird guards: fall back to the
    // loop interval (always safe).
    if lo > MIN_N || matches!(hi, Hi::Const(k) if k < lo) {
        iv
    } else {
        Iv { lo, hi }
    }
}

/// Dynamically verifies that every array reference stays within
/// `1..=extent` at a handful of sample sizes, mirroring the interpreter's
/// activation rules (member guards over the enclosing variable, `outer`
/// entries against current outer values). Affine subscripts under affine
/// bounds violate either at the smallest size or independently of size, so
/// small samples decide the property for every `N >= MIN_N`.
pub fn in_bounds(prog: &Program) -> bool {
    [MIN_N, MIN_N + 1, 12, 17].iter().all(|&n| in_bounds_at(prog, n))
}

/// [`in_bounds`] at the single size `n`.
pub(crate) fn in_bounds_at(prog: &Program, n: i64) -> bool {
    let binding = ParamBinding::new(vec![n; prog.params.len()]);
    let extents: Vec<Vec<i64>> =
        prog.arrays.iter().map(|a| a.dims.iter().map(|d| d.eval(&binding)).collect()).collect();
    let mut vars = vec![0i64; prog.vars.len()];
    bounds_list(&prog.body, &binding, &extents, &mut vars)
}

fn bounds_list(
    list: &[gcr_ir::GuardedStmt],
    binding: &ParamBinding,
    extents: &[Vec<i64>],
    vars: &mut Vec<i64>,
) -> bool {
    // Top-level statements carry no guards (validation forbids them).
    list.iter().all(|gs| bounds_stmt(gs, binding, extents, vars))
}

fn bounds_stmt(
    gs: &gcr_ir::GuardedStmt,
    binding: &ParamBinding,
    extents: &[Vec<i64>],
    vars: &mut Vec<i64>,
) -> bool {
    match &gs.stmt {
        Stmt::Assign(a) => {
            bounds_ref(&a.lhs, binding, extents, vars)
                && bounds_expr(&a.rhs, binding, extents, vars)
        }
        Stmt::Loop(l) => {
            let lo = l.lo.eval(binding);
            let hi = l.hi.eval(binding);
            for t in lo..=hi {
                vars[l.var.index()] = t;
                for m in &l.body {
                    let active = m.guard.as_ref().is_none_or(|r| {
                        let (glo, ghi) = r.eval(binding);
                        (glo..=ghi).contains(&t)
                    }) && m.outer.iter().all(|(v, r)| {
                        let (rlo, rhi) = r.eval(binding);
                        (rlo..=rhi).contains(&vars[v.index()])
                    });
                    if active && !bounds_stmt(m, binding, extents, vars) {
                        return false;
                    }
                }
            }
            true
        }
    }
}

fn bounds_ref(
    r: &gcr_ir::ArrayRef,
    binding: &ParamBinding,
    extents: &[Vec<i64>],
    vars: &[i64],
) -> bool {
    let ext = &extents[r.array.index()];
    r.subs.iter().zip(ext).all(|(s, &e)| {
        let v = match s {
            Subscript::Var { var, offset } => vars[var.index()] + offset,
            Subscript::Invariant(le) => le.eval(binding),
        };
        (1..=e).contains(&v)
    })
}

fn bounds_expr(x: &Expr, binding: &ParamBinding, extents: &[Vec<i64>], vars: &[i64]) -> bool {
    match x {
        Expr::Read(r) => bounds_ref(r, binding, extents, vars),
        Expr::Bin(_, a, b) => {
            bounds_expr(a, binding, extents, vars) && bounds_expr(b, binding, extents, vars)
        }
        Expr::Unary(_, a) => bounds_expr(a, binding, extents, vars),
        Expr::Call(_, args) => args.iter().all(|a| bounds_expr(a, binding, extents, vars)),
        Expr::Const(_) | Expr::Lin(_) | Expr::Var { .. } => true,
    }
}

/// Generates one program from the fusible chain family used by the
/// `O(k·m)` reuse-distance-bound oracle: `m = k` loops over `[2, N-1]`,
/// loop `j` computing `X_j[i] = f_j(X_{j-1}[i + o_j])` with `o_j ∈
/// {-1, 0, 1}` — constant-alignment dependences only, so reuse-based
/// fusion must merge the whole chain into one nest whose reuse distances
/// are independent of `N` (Section 3.1 of the paper).
pub fn generate_chain(rng: &mut Rng) -> Program {
    let k = rng.range(2, 4);
    let mut b = ProgramBuilder::new("chain");
    let n = b.param("N");
    let xs: Vec<ArrayId> =
        (0..=k).map(|j| b.array(format!("X{j}"), &[LinExpr::param(n)])).collect();
    for j in 1..=k as usize {
        let v = b.var(format!("i{j}"));
        let off = rng.range(-1, 1);
        let name = *rng.pick(&["f", "g", "h", "t", "relax", "wave"]);
        let read = b.read(xs[j - 1], vec![Subscript::var(v, off)]);
        let rhs = Expr::Call(name, vec![read]);
        let st = b.assign(xs[j], vec![Subscript::var(v, 0)], rhs);
        let lp = b.for_(v, LinExpr::konst(2), LinExpr::param(n).add_const(-1), vec![st]);
        b.push(lp);
    }
    let prog = b.finish();
    debug_assert!(gcr_ir::validate::validate(&prog).is_ok());
    canonicalize(prog)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_validate_and_roundtrip() {
        for seed in 0..50u64 {
            let mut rng = Rng::new(seed);
            let prog = generate(&mut rng, &GenConfig::default());
            gcr_ir::validate::validate(&prog).expect("generated program must validate");
            let text = gcr_ir::print::print_program(&prog);
            let back = gcr_frontend::parse(&text)
                .unwrap_or_else(|e| panic!("printed program must parse: {e}\n{text}"));
            assert_eq!(gcr_ir::print::print_program(&back), text, "print must be a parse fixpoint");
        }
    }

    #[test]
    fn generated_programs_execute_in_bounds_at_min_n() {
        use gcr_exec::{Machine, NullSink};
        use gcr_ir::ParamBinding;
        for seed in 0..30u64 {
            let mut rng = Rng::new(seed ^ 0xabc);
            let prog = generate(&mut rng, &GenConfig::default());
            for n in [MIN_N, 12] {
                let mut m = Machine::new(&prog, ParamBinding::new(vec![n]));
                m.run_steps_guarded(&mut NullSink, 2, 10_000_000).expect("must run in fuel");
            }
        }
    }

    #[test]
    fn chain_family_validates() {
        for seed in 0..20u64 {
            let mut rng = Rng::new(seed);
            let prog = generate_chain(&mut rng);
            gcr_ir::validate::validate(&prog).expect("chain must validate");
            assert!(prog.count_loops() >= 2);
        }
    }
}
