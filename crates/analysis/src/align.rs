//! Alignment-factor constraints between a fused loop and an incoming loop.
//!
//! Fusing loop *G* into the earlier loop *F* with alignment factor `a` makes
//! G's iteration `x` execute at fused iteration `t = x + a`, with G's
//! statements placed after F's inside the body. Every pair of conflicting
//! references then induces a lower bound on `a`; read-read (and
//! reduce-reduce) pairs induce *reuse targets* — the alignment that brings
//! the two accesses into the same fused iteration. The paper's `FusibleTest`
//! takes the largest of all factors and declares the loops infusible when a
//! bound is not a constant (Figure 6 and the Figure 4(b) example).
//!
//! Constraints are derived per the reference classification of
//! [`crate::level`]:
//!
//! | F ref        | G ref        | conflict constraint                  |
//! |--------------|--------------|--------------------------------------|
//! | variant `c1` | variant `c2` (same dim) | `a ≥ c2 − c1`             |
//! | variant `c1` | invariant at `k`        | `a ≥ (k − c1) − G.lo`; unbounded ⇒ infusible |
//! | invariant at `k`, active until `T` | variant `c2` | `a ≥ T − (k − c2)`; unbounded ⇒ peel iteration `k − c2` |
//! | invariant until `T` | invariant from `L` | `a ≥ T − L`; unbounded ⇒ infusible |
//!
//! Cross-dimension (transposed) conflicts are conservatively infusible —
//! the paper handles the one program needing it (Tomcatv) by a hand loop
//! interchange, and the bundled Tomcatv is authored in that order.

use crate::access::AccessKind;
use crate::footprint::DimSet;
use crate::level::{LevelPos, LevelRef};
use gcr_ir::LinExpr;

/// Constraint contributed by one pair of references.
#[derive(Clone, Debug, PartialEq)]
pub enum AlignConstraint {
    /// No conflict and no reuse between the pair.
    None,
    /// Dependence: `a ≥ k`.
    Lower(i64),
    /// Reuse (no ordering): bringing the accesses together wants `a = k`.
    ReuseTarget(i64),
    /// The conflict involves only the single G iteration at this position;
    /// peeling it off makes the remainder fusible.
    PeelIteration(LinExpr),
    /// The pair requires an alignment that grows with a size parameter.
    Infusible(&'static str),
}

/// Classifies the required alignment between `f` (a reference of the fused
/// loop) and `g` (a reference of the incoming loop, pre-shift).
pub fn pairwise_constraint(f: &LevelRef, g: &LevelRef) -> AlignConstraint {
    if f.access.aref.array != g.access.aref.array {
        return AlignConstraint::None;
    }
    if !f.dims_may_overlap(g) {
        return AlignConstraint::None;
    }
    let conflict = f.access.kind.conflicts(g.access.kind);
    match (f.pos, g.pos) {
        (LevelPos::Variant { dim: d1, offset: c1 }, LevelPos::Variant { dim: d2, offset: c2 }) => {
            if d1 == d2 {
                if conflict {
                    AlignConstraint::Lower(c2 - c1)
                } else {
                    AlignConstraint::ReuseTarget(c2 - c1)
                }
            } else if conflict {
                AlignConstraint::Infusible("conflict between transposed accesses")
            } else {
                AlignConstraint::None
            }
        }
        (LevelPos::Variant { dim, offset: c1 }, LevelPos::Invariant) => {
            match g.dims.get(dim) {
                Some(DimSet::Point(k)) => {
                    // F touches element k at time k − c1; G touches it in
                    // every active iteration, the first at G.lo + a.
                    let bound = k.add_const(-c1).sub(&g.time.lo);
                    lower_or(bound, conflict, "whole second loop depends on a late element")
                }
                Some(DimSet::Span(_)) => {
                    if conflict {
                        AlignConstraint::Infusible("conflict between transposed accesses")
                    } else {
                        AlignConstraint::None
                    }
                }
                _ => AlignConstraint::None,
            }
        }
        (LevelPos::Invariant, LevelPos::Variant { dim, offset: c2 }) => {
            match f.dims.get(dim) {
                Some(DimSet::Point(k)) => {
                    // F touches element k until f.time.hi; G touches it only
                    // at iteration x = k − c2 (time x + a).
                    let g_iter = k.add_const(-c2);
                    let bound = f.time.hi.sub(&g_iter);
                    match bound.as_const() {
                        Some(c) => {
                            if conflict {
                                AlignConstraint::Lower(c)
                            } else {
                                AlignConstraint::None
                            }
                        }
                        None if conflict => {
                            if positive_growth(&bound) {
                                // Only that single iteration conflicts late.
                                AlignConstraint::PeelIteration(g_iter)
                            } else {
                                AlignConstraint::None
                            }
                        }
                        None => AlignConstraint::None,
                    }
                }
                Some(DimSet::Span(_)) => {
                    if conflict {
                        AlignConstraint::Infusible("conflict between transposed accesses")
                    } else {
                        AlignConstraint::None
                    }
                }
                _ => AlignConstraint::None,
            }
        }
        (LevelPos::Invariant, LevelPos::Invariant) => {
            // Both access fixed elements (which overlap): G entirely after F.
            let bound = f.time.hi.sub(&g.time.lo);
            lower_or(bound, conflict, "serializing dependence on an invariant location")
        }
    }
}

fn lower_or(bound: LinExpr, conflict: bool, why: &'static str) -> AlignConstraint {
    match bound.as_const() {
        Some(c) => {
            if conflict {
                AlignConstraint::Lower(c)
            } else {
                AlignConstraint::ReuseTarget(c)
            }
        }
        None => {
            if conflict && positive_growth(&bound) {
                AlignConstraint::Infusible(why)
            } else {
                AlignConstraint::None
            }
        }
    }
}

/// True when the expression grows with some parameter (the "unbounded
/// alignment" direction).
fn positive_growth(e: &LinExpr) -> bool {
    e.terms().iter().any(|&(_, c)| c > 0)
}

/// True when the loop (given its level refs) carries a dependence between
/// *different* iterations — in which case boundary iterations cannot be
/// moved past the rest of the loop (peeling would reorder them illegally).
pub fn has_loop_carried_self_dep(refs: &[LevelRef]) -> bool {
    for (i, r1) in refs.iter().enumerate() {
        for r2 in &refs[i..] {
            if r1.access.aref.array != r2.access.aref.array {
                continue;
            }
            if !r1.access.kind.conflicts(r2.access.kind) {
                continue;
            }
            if !r1.dims_may_overlap(r2) {
                continue;
            }
            match (r1.pos, r2.pos) {
                (
                    LevelPos::Variant { dim: d1, offset: c1 },
                    LevelPos::Variant { dim: d2, offset: c2 },
                ) => {
                    if d1 != d2 || c1 != c2 {
                        return true;
                    }
                }
                // An invariant location written or read against a variant
                // sweep couples distinct iterations.
                _ => return true,
            }
        }
    }
    false
}

/// Kinds re-exported for convenience in fusion code.
pub fn is_reuse_pair(a: AccessKind, b: AccessKind) -> bool {
    !a.conflicts(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::VarRanges;
    use crate::level::classify_level_refs;
    use gcr_ir::{Expr, GuardedStmt, LinExpr, ProgramBuilder, Range, Stmt, Subscript};

    /// Builds Figure 4(a)'s two loops and returns their level refs.
    /// loop1: for i = 3, N-2 { A[i] = f(A[i-1]) }
    /// loop2: for i = 3, N   { B[i] = g(A[i-2]) }
    fn fig4a() -> (Vec<LevelRef>, Vec<LevelRef>) {
        let mut b = ProgramBuilder::new("fig4a");
        let n = b.param("N");
        let a = b.array("A", &[LinExpr::param(n)]);
        let bb = b.array("B", &[LinExpr::param(n)]);
        let i1 = b.var("i1");
        let i2 = b.var("i2");
        let rhs1 = b.read(a, vec![Subscript::var(i1, -1)]);
        let s1 = b.assign(a, vec![Subscript::var(i1, 0)], rhs1);
        let l1 = b.for_(i1, LinExpr::konst(3), LinExpr::param(n).add_const(-2), vec![s1]);
        let rhs2 = b.read(a, vec![Subscript::var(i2, -2)]);
        let s2 = b.assign(bb, vec![Subscript::var(i2, 0)], rhs2);
        let l2 = b.for_(i2, LinExpr::konst(3), LinExpr::param(n), vec![s2]);
        let r1 = Range::new(LinExpr::konst(3), LinExpr::param(n).add_const(-2));
        let r2 = Range::new(LinExpr::konst(3), LinExpr::param(n));
        let (Stmt::Loop(lp1), Stmt::Loop(lp2)) = (l1, l2) else { unreachable!() };
        let f: Vec<_> = lp1
            .body
            .iter()
            .flat_map(|m| classify_level_refs(m, i1, &r1, &VarRanges::new()))
            .collect();
        let g: Vec<_> = lp2
            .body
            .iter()
            .flat_map(|m| classify_level_refs(m, i2, &r2, &VarRanges::new()))
            .collect();
        (f, g)
    }

    #[test]
    fn variant_variant_flow_dep() {
        let (f, g) = fig4a();
        // f[1] = write A[i]; g[0] = read A[i-2]  => a >= -2
        let w = f.iter().find(|r| r.access.kind == AccessKind::Write).unwrap();
        let rd = g.iter().find(|r| r.access.kind == AccessKind::Read).unwrap();
        assert_eq!(pairwise_constraint(w, rd), AlignConstraint::Lower(-2));
    }

    #[test]
    fn different_arrays_no_constraint() {
        let (f, g) = fig4a();
        let w = f.iter().find(|r| r.access.kind == AccessKind::Write).unwrap();
        let wb = g.iter().find(|r| r.access.kind == AccessKind::Write).unwrap();
        assert_eq!(pairwise_constraint(w, wb), AlignConstraint::None);
    }

    #[test]
    fn read_read_is_reuse_target() {
        let (f, g) = fig4a();
        let r1 = f.iter().find(|r| r.access.kind == AccessKind::Read).unwrap();
        let r2 = g.iter().find(|r| r.access.kind == AccessKind::Read).unwrap();
        // A[i-1] vs A[i-2]: target a = (-2) - (-1) = -1
        assert_eq!(pairwise_constraint(r1, r2), AlignConstraint::ReuseTarget(-1));
    }

    /// Figure 4(b): loop writes A[2..N], statement reads A[N] and writes
    /// A[1], next loop reads A[i-1] — infusible.
    #[test]
    fn fig4b_is_infusible() {
        let mut b = ProgramBuilder::new("fig4b");
        let n = b.param("N");
        let a = b.array("A", &[LinExpr::param(n)]);
        let i1 = b.var("i1");
        let i2 = b.var("i2");
        let rhs1 = b.read(a, vec![Subscript::var(i1, -1)]);
        let s1 = b.assign(a, vec![Subscript::var(i1, 0)], rhs1);
        let l1 = b.for_(i1, LinExpr::konst(2), LinExpr::param(n), vec![s1]);
        let rhs2 = b.read(a, vec![Subscript::var(i2, -1)]);
        let s2 = b.assign(a, vec![Subscript::var(i2, 0)], rhs2);
        let l2 = b.for_(i2, LinExpr::konst(2), LinExpr::param(n), vec![s2]);
        let r = Range::new(LinExpr::konst(2), LinExpr::param(n));
        let (Stmt::Loop(lp1), Stmt::Loop(lp2)) = (l1, l2) else { unreachable!() };
        let _f: Vec<_> = lp1
            .body
            .iter()
            .flat_map(|m| classify_level_refs(m, i1, &r, &VarRanges::new()))
            .collect();
        // The intervening statement A[1] = A[N] becomes an embedded member
        // pinned at a late iteration; model it as an invariant ref active at
        // [N, N] (it must run after the loop's write of A[N]).
        let s_mid = {
            let rhs = b.read(a, vec![Subscript::Invariant(LinExpr::param(n))]);
            b.assign(a, vec![Subscript::konst(1)], rhs)
        };
        let member = GuardedStmt::guarded(s_mid, Range::new(LinExpr::param(n), LinExpr::param(n)));
        let mid_refs = classify_level_refs(&member, i1, &r, &VarRanges::new());
        let write_a1 = mid_refs.iter().find(|m| m.access.kind == AccessKind::Write).unwrap();
        let g: Vec<_> = lp2
            .body
            .iter()
            .flat_map(|m| classify_level_refs(m, i2, &r, &VarRanges::new()))
            .collect();
        let g_read = g.iter().find(|m| m.access.kind == AccessKind::Read).unwrap();
        // write A[1] active until time N vs read A[i-1] touching element 1
        // at iteration 2 => a >= N - 2: peelable single iteration.
        match pairwise_constraint(write_a1, g_read) {
            AlignConstraint::PeelIteration(pos) => assert_eq!(pos.as_const(), Some(2)),
            other => panic!("expected peel, got {other:?}"),
        }
        // ... but loop2 carries a self dependence (A[i] = f(A[i-1])), so the
        // peel is illegal and FusibleTest reports infusible.
        assert!(has_loop_carried_self_dep(&g));
        let _ = Expr::Const(0.0);
    }

    #[test]
    fn variant_vs_late_invariant_read_is_infusible() {
        // loop1 writes A[i]; a second loop reads A[N] every iteration.
        let mut b = ProgramBuilder::new("t");
        let n = b.param("N");
        let a = b.array("A", &[LinExpr::param(n)]);
        let c = b.array("C", &[LinExpr::param(n)]);
        let i1 = b.var("i1");
        let i2 = b.var("i2");
        let s1 = b.assign(a, vec![Subscript::var(i1, 0)], Expr::Const(1.0));
        let l1 = b.for_(i1, LinExpr::konst(1), LinExpr::param(n), vec![s1]);
        let rhs = b.read(a, vec![Subscript::Invariant(LinExpr::param(n))]);
        let s2 = b.assign(c, vec![Subscript::var(i2, 0)], rhs);
        let l2 = b.for_(i2, LinExpr::konst(1), LinExpr::param(n), vec![s2]);
        let r = Range::new(LinExpr::konst(1), LinExpr::param(n));
        let (Stmt::Loop(lp1), Stmt::Loop(lp2)) = (l1, l2) else { unreachable!() };
        let f = classify_level_refs(&lp1.body[0], i1, &r, &VarRanges::new());
        let g = classify_level_refs(&lp2.body[0], i2, &r, &VarRanges::new());
        let w = &f[0];
        let rd = g.iter().find(|m| m.access.kind == AccessKind::Read).unwrap();
        assert!(matches!(pairwise_constraint(w, rd), AlignConstraint::Infusible(_)));
    }

    #[test]
    fn no_self_dep_in_streaming_loop() {
        let (_, g) = fig4a();
        assert!(!has_loop_carried_self_dep(&g), "B[i] = g(A[i-2]) carries nothing");
    }

    #[test]
    fn scalar_serialization() {
        // loop1 writes scalar s each iteration; loop2 reads it: infusible.
        let mut b = ProgramBuilder::new("t");
        let n = b.param("N");
        let sc = b.scalar("s");
        let c = b.array("C", &[LinExpr::param(n)]);
        let i1 = b.var("i1");
        let i2 = b.var("i2");
        let s1 = b.assign(sc, vec![], Expr::Const(1.0));
        let l1 = b.for_(i1, LinExpr::konst(1), LinExpr::param(n), vec![s1]);
        let rhs = b.read_scalar(sc);
        let s2 = b.assign(c, vec![Subscript::var(i2, 0)], rhs);
        let l2 = b.for_(i2, LinExpr::konst(1), LinExpr::param(n), vec![s2]);
        let r = Range::new(LinExpr::konst(1), LinExpr::param(n));
        let (Stmt::Loop(lp1), Stmt::Loop(lp2)) = (l1, l2) else { unreachable!() };
        let f = classify_level_refs(&lp1.body[0], i1, &r, &VarRanges::new());
        let g = classify_level_refs(&lp2.body[0], i2, &r, &VarRanges::new());
        let sw = &f[0];
        let sr = g.iter().find(|m| m.access.aref.array == sc).unwrap();
        assert!(matches!(pairwise_constraint(sw, sr), AlignConstraint::Infusible(_)));
    }

    #[test]
    fn reduce_reduce_same_op_is_reuse() {
        let mut b = ProgramBuilder::new("t");
        let n = b.param("N");
        let a = b.array("A", &[LinExpr::param(n)]);
        let sc = b.scalar("s");
        let i1 = b.var("i1");
        let i2 = b.var("i2");
        let r1 = b.read(a, vec![Subscript::var(i1, 0)]);
        let s1 = b.reduce(gcr_ir::ReduceOp::Sum, sc, vec![], r1);
        let l1 = b.for_(i1, LinExpr::konst(1), LinExpr::param(n), vec![s1]);
        let r2 = b.read(a, vec![Subscript::var(i2, 0)]);
        let s2 = b.reduce(gcr_ir::ReduceOp::Sum, sc, vec![], r2);
        let l2 = b.for_(i2, LinExpr::konst(1), LinExpr::param(n), vec![s2]);
        let r = Range::new(LinExpr::konst(1), LinExpr::param(n));
        let (Stmt::Loop(lp1), Stmt::Loop(lp2)) = (l1, l2) else { unreachable!() };
        let f = classify_level_refs(&lp1.body[0], i1, &r, &VarRanges::new());
        let g = classify_level_refs(&lp2.body[0], i2, &r, &VarRanges::new());
        let f_red = f.iter().find(|m| matches!(m.access.kind, AccessKind::Reduce(_))).unwrap();
        let g_red = g.iter().find(|m| matches!(m.access.kind, AccessKind::Reduce(_))).unwrap();
        // Same-operator reductions commute: no ordering constraint, and the
        // (non-constant) reuse bound contributes nothing.
        assert_eq!(pairwise_constraint(f_red, g_red), AlignConstraint::None);
    }
}
