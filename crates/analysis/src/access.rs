//! Flattened collection of array accesses from statements.

use gcr_ir::{ArrayRef, AssignKind, GuardedStmt, ReduceOp, RefId, Stmt, StmtId};
use std::collections::BTreeSet;

/// How a reference touches its array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Value is read.
    Read,
    /// Value is written.
    Write,
    /// Associative read-modify-write; instances with the same operator
    /// commute, so two `Reduce` accesses of the same kind impose no ordering
    /// on each other.
    Reduce(ReduceOp),
}

impl AccessKind {
    /// True when an ordered pair of accesses to the same datum must preserve
    /// its order (i.e. forms a dependence).
    pub fn conflicts(self, other: AccessKind) -> bool {
        match (self, other) {
            (AccessKind::Read, AccessKind::Read) => false,
            (AccessKind::Reduce(a), AccessKind::Reduce(b)) => a != b,
            _ => true,
        }
    }

    /// True for kinds that modify the datum.
    pub fn writes(self) -> bool {
        !matches!(self, AccessKind::Read)
    }
}

/// One array access occurrence inside a statement.
#[derive(Clone, Debug, PartialEq)]
pub struct AccessInfo {
    /// The reference (array, subscripts, ref id).
    pub aref: ArrayRef,
    /// Read, write or reduce.
    pub kind: AccessKind,
    /// Statement the access belongs to.
    pub stmt: StmtId,
}

impl AccessInfo {
    /// Reference id shorthand.
    pub fn ref_id(&self) -> RefId {
        self.aref.id
    }
}

/// Collects every access in a statement, recursing into nested loops.
/// A reduction's target contributes a single `Reduce` access (not separate
/// read and write).
pub fn collect_accesses(stmt: &Stmt, out: &mut Vec<AccessInfo>) {
    match stmt {
        Stmt::Assign(a) => {
            a.rhs.visit_reads(&mut |r| {
                out.push(AccessInfo { aref: r.clone(), kind: AccessKind::Read, stmt: a.id });
            });
            let kind = match a.kind {
                AssignKind::Normal => AccessKind::Write,
                AssignKind::Reduce(op) => AccessKind::Reduce(op),
            };
            out.push(AccessInfo { aref: a.lhs.clone(), kind, stmt: a.id });
        }
        Stmt::Loop(l) => {
            for gs in &l.body {
                collect_accesses(&gs.stmt, out);
            }
        }
    }
}

/// Collects accesses from a guarded-statement list.
pub fn collect_accesses_list(stmts: &[GuardedStmt], out: &mut Vec<AccessInfo>) {
    for gs in stmts {
        collect_accesses(&gs.stmt, out);
    }
}

/// The set of arrays a statement touches (its data-sharing signature; the
/// paper's `GreedilyFuse` fuses a statement with the closest predecessor
/// sharing any array).
pub fn touched_arrays(stmt: &Stmt) -> BTreeSet<gcr_ir::ArrayId> {
    let mut v = Vec::new();
    collect_accesses(stmt, &mut v);
    v.into_iter().map(|a| a.aref.array).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_ir::{Expr, LinExpr, ProgramBuilder, Subscript};

    #[test]
    fn conflict_matrix() {
        use AccessKind::*;
        assert!(!Read.conflicts(Read));
        assert!(Read.conflicts(Write));
        assert!(Write.conflicts(Write));
        assert!(!Reduce(ReduceOp::Sum).conflicts(Reduce(ReduceOp::Sum)));
        assert!(Reduce(ReduceOp::Sum).conflicts(Reduce(ReduceOp::Max)));
        assert!(Reduce(ReduceOp::Sum).conflicts(Read));
    }

    #[test]
    fn collects_nested_and_kinds() {
        let mut b = ProgramBuilder::new("t");
        let n = b.param("N");
        let a = b.array("A", &[LinExpr::param(n)]);
        let s = b.scalar("s");
        let i = b.var("i");
        let rhs = b.read(a, vec![Subscript::var(i, -1)]);
        let s1 = b.assign(a, vec![Subscript::var(i, 0)], rhs);
        let rhs2 = b.read(a, vec![Subscript::var(i, 0)]);
        let s2 = b.reduce(gcr_ir::ReduceOp::Sum, s, vec![], rhs2);
        let l = b.for_(i, LinExpr::konst(2), LinExpr::param(n), vec![s1, s2]);
        let mut out = Vec::new();
        collect_accesses(&l, &mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].kind, AccessKind::Read);
        assert_eq!(out[1].kind, AccessKind::Write);
        assert_eq!(out[3].kind, AccessKind::Reduce(gcr_ir::ReduceOp::Sum));
        let arrays = touched_arrays(&l);
        assert_eq!(arrays.len(), 2);
        let _ = Expr::Const(0.0);
    }
}
