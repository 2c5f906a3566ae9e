//! Classification of references relative to one fusion level.
//!
//! When fusing at a loop level with variable `t`, every array reference in a
//! member statement is either **variant** — some dimension is subscripted
//! `t + k` — or **invariant** (constant/border access repeated by every
//! active iteration). A [`LevelRef`] carries this classification, the
//! per-dimension index sets for overlap testing, and the member's active
//! *time range* (the level iterations in which the access occurs).

use crate::access::{collect_accesses, AccessInfo};
use crate::footprint::{extend_var_ranges, DimSet, VarRanges};
use gcr_ir::{GuardedStmt, Range, Subscript, VarId};

/// Position of a reference relative to the level variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LevelPos {
    /// Dimension `dim` is subscripted `t + offset`.
    Variant {
        /// Which data dimension carries the level variable.
        dim: usize,
        /// The constant offset `k` in `t + k`.
        offset: i64,
    },
    /// No dimension uses the level variable.
    Invariant,
}

/// A reference seen from one fusion level.
#[derive(Clone, Debug, PartialEq)]
pub struct LevelRef {
    /// The underlying access.
    pub access: AccessInfo,
    /// Variant or invariant at this level.
    pub pos: LevelPos,
    /// Index set per data dimension.
    pub dims: Vec<DimSet>,
    /// Level iterations in which the access is active.
    pub time: Range,
}

impl LevelRef {
    /// Variant offset, if variant.
    pub fn variant_offset(&self) -> Option<i64> {
        match self.pos {
            LevelPos::Variant { offset, .. } => Some(offset),
            LevelPos::Invariant => None,
        }
    }

    /// True when every dimension of `self` may overlap the corresponding
    /// dimension of `other` (same array assumed). `level_range` bounds the
    /// level variable for `LevelVar` dims — each side uses its own time
    /// range for its own level-var dims.
    pub fn dims_may_overlap(&self, other: &LevelRef) -> bool {
        debug_assert_eq!(self.dims.len(), other.dims.len());
        self.dims.iter().zip(&other.dims).all(|(a, b)| {
            let ra = a.span(&self.time);
            let rb = b.span(&other.time);
            crate::footprint::ranges_may_overlap(&ra, &rb)
        })
    }
}

/// Classifies every access in a member statement of a level-`level` loop.
///
/// * `member` — a direct body element of the loop (its guard, if any,
///   restricts the level iterations in which it runs);
/// * `loop_range` — the loop's full iteration range;
/// * `outer_ranges` — iteration ranges of loop variables declared outside
///   this loop (inner ones are discovered by walking `member`).
pub fn classify_level_refs(
    member: &GuardedStmt,
    level: VarId,
    loop_range: &Range,
    outer_ranges: &VarRanges,
) -> Vec<LevelRef> {
    let time = member.guard.clone().unwrap_or_else(|| loop_range.clone());
    // The member's own inner loops shadow `outer_ranges`; an assignment
    // member has none and the overlay stays unallocated.
    let mut inner = VarRanges::new();
    extend_var_ranges(&member.stmt, &mut inner);
    let range_of = |v: VarId| inner.get(&v).or_else(|| outer_ranges.get(&v));
    let mut accesses = Vec::new();
    collect_accesses(&member.stmt, &mut accesses);
    accesses
        .into_iter()
        .map(|access| {
            let mut pos = LevelPos::Invariant;
            for (d, sub) in access.aref.subs.iter().enumerate() {
                if let Subscript::Var { var, offset } = sub {
                    if *var == level {
                        pos = LevelPos::Variant { dim: d, offset: *offset };
                        break;
                    }
                }
            }
            let dims = access
                .aref
                .subs
                .iter()
                .map(|s| DimSet::from_subscript_with(s, level, range_of))
                .collect();
            LevelRef { access, pos, dims, time: time.clone() }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind;
    use gcr_ir::{LinExpr, ProgramBuilder, Stmt, Subscript};

    #[test]
    fn classifies_variant_and_invariant() {
        let mut b = ProgramBuilder::new("t");
        let n = b.param("N");
        let a = b.array("A", &[LinExpr::param(n), LinExpr::param(n)]);
        let i = b.var("i");
        let j = b.var("j");
        // inner loop over j: A[j, i] = A[1, i-1]
        let rhs = b.read(a, vec![Subscript::konst(1), Subscript::var(i, -1)]);
        let s = b.assign(a, vec![Subscript::var(j, 0), Subscript::var(i, 0)], rhs);
        let inner = b.for_(j, LinExpr::konst(1), LinExpr::param(n), vec![s]);
        let member = gcr_ir::GuardedStmt::bare(inner);
        let loop_range = Range::new(LinExpr::konst(2), LinExpr::param(n));
        let refs = classify_level_refs(&member, i, &loop_range, &VarRanges::new());
        assert_eq!(refs.len(), 2);
        // read A[1, i-1]: variant at dim 1 with offset -1
        assert_eq!(refs[0].pos, LevelPos::Variant { dim: 1, offset: -1 });
        assert_eq!(refs[0].access.kind, AccessKind::Read);
        assert_eq!(refs[0].dims[0], DimSet::Point(LinExpr::konst(1)));
        // write A[j, i]: variant at dim 1, offset 0; dim 0 spans inner loop
        assert_eq!(refs[1].pos, LevelPos::Variant { dim: 1, offset: 0 });
        assert_eq!(refs[1].dims[0], DimSet::Span(Range::new(LinExpr::konst(1), LinExpr::param(n))));
        assert_eq!(refs[1].time, loop_range);
    }

    #[test]
    fn guard_narrows_time() {
        let mut b = ProgramBuilder::new("t");
        let n = b.param("N");
        let a = b.array("A", &[LinExpr::param(n)]);
        let i = b.var("i");
        let s = b.assign(a, vec![Subscript::var(i, 0)], gcr_ir::Expr::Const(0.0));
        let member = gcr_ir::GuardedStmt::guarded(s, Range::consts(2, 2));
        let loop_range = Range::new(LinExpr::konst(1), LinExpr::param(n));
        let refs = classify_level_refs(&member, i, &loop_range, &VarRanges::new());
        assert_eq!(refs[0].time, Range::consts(2, 2));
    }

    #[test]
    fn scalar_is_invariant_with_no_dims() {
        let mut b = ProgramBuilder::new("t");
        let n = b.param("N");
        let a = b.array("A", &[LinExpr::param(n)]);
        let sc = b.scalar("s");
        let i = b.var("i");
        let rhs = b.read(a, vec![Subscript::var(i, 0)]);
        let s = b.reduce(gcr_ir::ReduceOp::Sum, sc, vec![], rhs);
        let member = gcr_ir::GuardedStmt::bare(s);
        let loop_range = Range::new(LinExpr::konst(1), LinExpr::param(n));
        let refs = classify_level_refs(&member, i, &loop_range, &VarRanges::new());
        let scalar_ref = refs.iter().find(|r| r.access.aref.array == sc).unwrap();
        assert_eq!(scalar_ref.pos, LevelPos::Invariant);
        assert!(scalar_ref.dims.is_empty());
    }

    #[test]
    fn overlap_respects_points() {
        let mut b = ProgramBuilder::new("t");
        let n = b.param("N");
        let a = b.array("A", &[LinExpr::param(n), LinExpr::param(n)]);
        let i = b.var("i");
        let s1 =
            b.assign(a, vec![Subscript::konst(1), Subscript::var(i, 0)], gcr_ir::Expr::Const(0.0));
        let s2 =
            b.assign(a, vec![Subscript::konst(2), Subscript::var(i, 0)], gcr_ir::Expr::Const(0.0));
        let lr = Range::new(LinExpr::konst(1), LinExpr::param(n));
        let m1 = gcr_ir::GuardedStmt::bare(s1);
        let m2 = gcr_ir::GuardedStmt::bare(s2);
        let r1 = &classify_level_refs(&m1, i, &lr, &VarRanges::new())[0];
        let r2 = &classify_level_refs(&m2, i, &lr, &VarRanges::new())[0];
        assert!(!r1.dims_may_overlap(r2), "row 1 vs row 2 disjoint");
        assert!(r1.dims_may_overlap(r1));
        let _ = Stmt::Assign;
    }
}
