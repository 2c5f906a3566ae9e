//! Per-dimension access sets and conservative overlap testing.
//!
//! A [`DimSet`] abstracts the set of indices a reference touches in one data
//! dimension: a point (border element), a range swept by a loop variable, or
//! the fused-level variable itself with an offset. Overlap tests are
//! resolved under the "all parameters large" order; whenever two sets cannot
//! be proved disjoint they are assumed to overlap (safe for dependences).

use gcr_ir::{LinExpr, Program, Range, Stmt, Subscript, VarId};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Map from loop variable to its iteration range (the declared loop bounds).
pub type VarRanges = HashMap<VarId, Range>;

/// Collects the iteration range of every loop in the program.
pub fn var_ranges(prog: &Program) -> VarRanges {
    let mut m = HashMap::new();
    prog.walk(|gs, _| {
        if let Stmt::Loop(l) = &gs.stmt {
            m.insert(l.var, l.range());
        }
    });
    m
}

/// Collects loop ranges from a statement subtree into an existing map.
pub fn extend_var_ranges(stmt: &Stmt, m: &mut VarRanges) {
    if let Stmt::Loop(l) = stmt {
        m.insert(l.var, l.range());
        for gs in &l.body {
            extend_var_ranges(&gs.stmt, m);
        }
    }
}

/// Abstract index set in a single data dimension.
#[derive(Clone, Debug, PartialEq)]
pub enum DimSet {
    /// The fusion-level variable with a constant offset: `t + k`.
    LevelVar(i64),
    /// An index range (from a non-level loop variable sweep, offset applied).
    Span(Range),
    /// A single loop-invariant position.
    Point(LinExpr),
}

impl DimSet {
    /// Builds the dim set for a subscript, relative to fusion variable
    /// `level`. `ranges` supplies other loop variables' bounds.
    pub fn from_subscript(sub: &Subscript, level: VarId, ranges: &VarRanges) -> DimSet {
        DimSet::from_subscript_with(sub, level, |v| ranges.get(&v))
    }

    /// [`DimSet::from_subscript`] over any source of loop-variable bounds
    /// (e.g. a member's own inner loops in front of a borrowed outer map).
    pub fn from_subscript_with<'r>(
        sub: &Subscript,
        level: VarId,
        range_of: impl Fn(VarId) -> Option<&'r Range>,
    ) -> DimSet {
        match sub {
            Subscript::Var { var, offset } if *var == level => DimSet::LevelVar(*offset),
            Subscript::Var { var, offset } => match range_of(*var) {
                Some(r) => DimSet::Span(r.shift(*offset)),
                // Unknown variable range: treat as unbounded span.
                None => DimSet::Span(Range::new(
                    LinExpr::konst(i64::MIN / 4),
                    LinExpr::konst(i64::MAX / 4),
                )),
            },
            Subscript::Invariant(e) => DimSet::Point(e.clone()),
        }
    }

    /// The index range covered, for sets that have one independent of the
    /// fused-level time (everything except `LevelVar`, which needs the loop
    /// range). `level_range` supplies it.
    pub fn span(&self, level_range: &Range) -> Range {
        match self {
            DimSet::LevelVar(k) => level_range.shift(*k),
            DimSet::Span(r) => r.clone(),
            DimSet::Point(p) => Range::new(p.clone(), p.clone()),
        }
    }

    /// Conservative overlap test: `false` only when provably disjoint under
    /// the large-parameter order.
    pub fn may_overlap(&self, other: &DimSet, level_range: &Range) -> bool {
        let a = self.span(level_range);
        let b = other.span(level_range);
        ranges_may_overlap(&a, &b)
    }
}

/// Conservative range-overlap test: returns `false` only when one range
/// provably ends before the other begins (for all large parameter values).
pub fn ranges_may_overlap(a: &Range, b: &Range) -> bool {
    let a_before_b = matches!(a.hi.cmp_for_large_params(&b.lo), Some(Ordering::Less));
    let b_before_a = matches!(b.hi.cmp_for_large_params(&a.lo), Some(Ordering::Less));
    !(a_before_b || b_before_a)
}

/// Conservative point-in-range test: `Some(false)` when provably outside,
/// `Some(true)` when provably inside, `None` when unknown.
pub fn point_in_range(p: &LinExpr, r: &Range) -> Option<bool> {
    let lo = p.cmp_for_large_params(&r.lo)?;
    let hi = p.cmp_for_large_params(&r.hi)?;
    Some(lo != Ordering::Less && hi != Ordering::Greater)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_ir::{LinExpr, ParamId, ProgramBuilder, Subscript};

    fn n() -> LinExpr {
        LinExpr::param(ParamId::from_index(0))
    }

    #[test]
    fn range_overlap_cases() {
        // [1,2] vs [3,N]: disjoint
        assert!(!ranges_may_overlap(&Range::consts(1, 2), &Range::new(LinExpr::konst(3), n())));
        // [2,N-1] vs [3,N]: overlap
        assert!(ranges_may_overlap(
            &Range::new(LinExpr::konst(2), n().add_const(-1)),
            &Range::new(LinExpr::konst(3), n())
        ));
        // [N,N] vs [1,N-2]: disjoint
        assert!(!ranges_may_overlap(
            &Range::new(n(), n()),
            &Range::new(LinExpr::konst(1), n().add_const(-2))
        ));
    }

    #[test]
    fn point_tests() {
        let r = Range::new(LinExpr::konst(2), n().add_const(-1));
        assert_eq!(point_in_range(&LinExpr::konst(1), &r), Some(false));
        assert_eq!(point_in_range(&LinExpr::konst(5), &r), Some(true));
        assert_eq!(point_in_range(&n(), &r), Some(false));
        assert_eq!(point_in_range(&n().add_const(-3), &r), Some(true));
    }

    #[test]
    fn dimset_from_subscripts() {
        let mut b = ProgramBuilder::new("t");
        let np = b.param("N");
        let _a = b.array("A", &[LinExpr::param(np)]);
        let i = b.var("i");
        let j = b.var("j");
        let mut ranges = VarRanges::new();
        ranges.insert(j, Range::new(LinExpr::konst(1), LinExpr::param(np)));
        let lv = DimSet::from_subscript(&Subscript::var(i, 2), i, &ranges);
        assert_eq!(lv, DimSet::LevelVar(2));
        let sp = DimSet::from_subscript(&Subscript::var(j, -1), i, &ranges);
        assert_eq!(
            sp,
            DimSet::Span(Range::new(LinExpr::konst(0), LinExpr::param(np).add_const(-1)))
        );
        let pt = DimSet::from_subscript(&Subscript::konst(7), i, &ranges);
        assert_eq!(pt, DimSet::Point(LinExpr::konst(7)));
    }

    #[test]
    fn levelvar_span_uses_loop_range() {
        let d = DimSet::LevelVar(-2);
        let lr = Range::new(LinExpr::konst(3), n());
        assert_eq!(d.span(&lr), Range::new(LinExpr::konst(1), n().add_const(-2)));
    }

    #[test]
    fn var_ranges_walks_program() {
        let mut b = ProgramBuilder::new("t");
        let np = b.param("N");
        let a = b.array("A", &[LinExpr::param(np), LinExpr::param(np)]);
        let i = b.var("i");
        let j = b.var("j");
        let s =
            b.assign(a, vec![Subscript::var(j, 0), Subscript::var(i, 0)], gcr_ir::Expr::Const(0.0));
        let inner = b.for_(j, LinExpr::konst(2), LinExpr::param(np).add_const(-1), vec![s]);
        let outer = b.for_(i, LinExpr::konst(1), LinExpr::param(np), vec![inner]);
        b.push(outer);
        let p = b.finish();
        let r = var_ranges(&p);
        assert_eq!(r.len(), 2);
        assert_eq!(r[&i], Range::new(LinExpr::konst(1), LinExpr::param(np)));
    }
}
