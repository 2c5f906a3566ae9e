//! Inter-array multi-level data regrouping (Section 3, Figures 7–8).
//!
//! After fusion, a loop touches many arrays and the scattered access wastes
//! cache blocks. Regrouping places data used by the same computation
//! contiguously:
//!
//! 1. the program is partitioned into **computation phases** — for the
//!    element level, the innermost loops; for outer data dimensions, the
//!    loops at the corresponding outer levels;
//! 2. arrays are classified into **compatible** classes (identical shape,
//!    accessed in matching storage order);
//! 3. within a class, arrays are grouped **at data dimension d** iff they
//!    are *always accessed together* by the loops that iterate dimension
//!    `d`'s sub-blocks — two arrays read by the same innermost loops group
//!    at the element level; arrays sharing only the outer loop group at the
//!    row level (exactly the Figure 7 example);
//! 4. grouping is applied dimension by dimension from the outermost; the
//!    paper's correctness condition (grouped at a dimension ⇒ grouped at
//!    every outer dimension) holds by construction because the per-level
//!    togetherness keys are cumulative.
//!
//! The result is an affine [`DataLayout`]: a group interleaved at the
//! element level has members at adjacent bases with `k`-fold strides
//! (`A[j,i] → D[1,j,i]`, `B[j,i] → D[2,j,i]`), and a group grouped only at
//! an outer dimension concatenates member sub-blocks per index of that
//! dimension (`C[j,i] → D[j,2,i]`). No useless data is ever introduced
//! into a cache block (the paper's profitability guarantee): every byte of
//! a group's block belongs to an array accessed by the same phases.

use gcr_analysis::access::collect_accesses;
use gcr_exec::layout::{ArrayLayout, DataLayout, ELEM_BYTES};
use gcr_ir::{ArrayId, ParamBinding, Program, Stmt, Subscript, VarId};
use std::collections::HashMap;
use std::hash::Hash;

/// How aggressively to regroup.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RegroupLevel {
    /// Full multi-level regrouping (the paper's contribution).
    #[default]
    Multi,
    /// Group only fully-together arrays at the element level (the earlier
    /// workshop-paper behaviour; ablation A3).
    ElementOnly,
    /// Multi-level, but never interleave at the innermost dimension (the
    /// paper's workaround for the SGI compiler's poor code generation,
    /// Section 4.1).
    AvoidInnermost,
}

/// Regrouping options.
#[derive(Clone, Copy, Debug, Default)]
pub struct RegroupOptions {
    /// Grouping aggressiveness.
    pub level: RegroupLevel,
    /// Padding in bytes between top-level allocations (0 = dense).
    pub pad_bytes: usize,
}

/// Statistics of a regrouping decision.
#[derive(Clone, Debug, Default)]
pub struct RegroupReport {
    /// Arrays considered (rank ≥ 1).
    pub arrays: usize,
    /// Number of top-level allocations after grouping ("new arrays").
    pub allocations: usize,
    /// Groups with ≥ 2 members: (member names, innermost grouped level —
    /// `"element"` or `"dimension d"`), whichever entry point planned them.
    pub groups: Vec<(Vec<String>, String)>,
}

impl RegroupReport {
    /// The statistics of `plan` over `prog`.
    pub(crate) fn of(prog: &Program, plan: &RegroupPlan) -> RegroupReport {
        let mut report = RegroupReport {
            arrays: prog.arrays.iter().filter(|a| !a.is_scalar()).count(),
            allocations: plan.groups.iter().filter(|g| g.rank > 0).count(),
            groups: Vec::new(),
        };
        for g in &plan.groups {
            if g.members.len() >= 2 {
                let names = g.members.iter().map(|&m| prog.array(m).name.clone()).collect();
                let mut innermost = g.rank;
                for d in (0..g.rank).rev() {
                    if g.keys.iter().all(|kv| kv[d] == g.keys[0][d]) {
                        innermost = d;
                    } else {
                        break;
                    }
                }
                let desc = if innermost == 0 {
                    "element".to_string()
                } else {
                    format!("dimension {innermost}")
                };
                report.groups.push((names, desc));
            }
        }
        report
    }
}

/// The symbolic regrouping decision.
#[derive(Clone, Debug)]
pub struct RegroupPlan {
    /// Top-level groups (each becomes one allocation); members in
    /// declaration order.
    pub groups: Vec<GroupPlan>,
}

/// One top-level allocation.
#[derive(Clone, Debug)]
pub struct GroupPlan {
    /// Member arrays, declaration order.
    pub members: Vec<ArrayId>,
    /// `keys[m][d]` — member `m`'s cumulative togetherness key at data
    /// dimension `d` (0 = innermost). Members with equal keys at `d` are
    /// interleaved at `d`'s sub-block granularity; equal keys at `0` mean
    /// element-level interleaving. Index `rank` is a sentinel outer key.
    pub keys: Vec<Vec<u64>>,
    /// Rank of the member arrays.
    pub rank: usize,
}

/// Computes the regrouping plan for a (fused) program.
pub fn plan(prog: &Program, opts: &RegroupOptions) -> RegroupPlan {
    let n = prog.arrays.len();
    // --- phase membership per loop level ------------------------------------
    let max_rank = prog.arrays.iter().map(|a| a.rank()).max().unwrap_or(0);
    let mut phases_per_level: Vec<Vec<Vec<bool>>> = Vec::new();
    collect_phases(prog, max_rank, &mut phases_per_level);
    // Each array's phase membership at each level, as an exact id.
    let mut membership = Interner::default();
    let mut phase_sets: Vec<Vec<u64>> = vec![Vec::new(); n];
    for (lvl, phases) in phases_per_level.iter().enumerate() {
        for (arr, sets) in phase_sets.iter_mut().enumerate() {
            let member_of: Vec<usize> = (0..phases.len()).filter(|&pi| phases[pi][arr]).collect();
            sets.push(membership.id((lvl, member_of)));
        }
    }
    // --- storage-order (transposed traversal) marks -------------------------
    let ungroupable = transposed_marks(prog);
    // --- compatible classes: identical shape, rank >= 1 ----------------------
    let mut classes: HashMap<Vec<gcr_ir::LinExpr>, Vec<ArrayId>> = HashMap::new();
    for (i, decl) in prog.arrays.iter().enumerate() {
        if decl.rank() > 0 {
            classes.entry(decl.dims.clone()).or_default().push(ArrayId::from_index(i));
        }
    }
    let mut class_list: Vec<(Vec<gcr_ir::LinExpr>, Vec<ArrayId>)> = classes.into_iter().collect();
    class_list.sort_by_key(|(_, m)| m[0]);

    let mut togetherness = Interner::default();
    let mut cumulative = Interner::default();
    let mut groups = Vec::new();
    for (_, members) in class_list {
        let rank = prog.array(members[0]).rank();
        let mut keys: Vec<Vec<u64>> = Vec::new();
        for &m in &members {
            let mut kv = vec![0u64; rank + 1];
            for (d, key) in kv.iter_mut().enumerate().take(rank) {
                // Grouping at dim d needs togetherness down to loop level
                // rank − d (level 1 = outermost loops); a transposed
                // traversal keeps the array apart at d.
                let depth_needed = rank - d;
                let sets: Vec<u64> =
                    phase_sets[m.index()].iter().take(depth_needed).copied().collect();
                let apart = ungroupable.contains(&(m, d)).then_some(m);
                *key = togetherness.id((sets, apart));
            }
            keys.push(kv);
        }
        // Enforce cumulativity: fold each outer key into the next inner one.
        for kv in &mut keys {
            for d in (0..rank).rev() {
                kv[d] = cumulative.id((kv[d + 1], kv[d], None));
            }
        }
        match opts.level {
            RegroupLevel::Multi => {}
            RegroupLevel::ElementOnly => {
                // All-or-nothing grouping at the element level.
                for kv in &mut keys {
                    let inner = kv[0];
                    kv.fill(inner);
                }
            }
            RegroupLevel::AvoidInnermost => {
                // A key of its own at the element level for every member.
                for (m, kv) in keys.iter_mut().enumerate() {
                    kv[0] = cumulative.id((kv[1], kv[0], Some(m)));
                }
            }
        }
        // Split into top-level groups by the outermost dimension's key.
        let mut by_top: Vec<(u64, Vec<usize>)> = Vec::new();
        for (mi, kv) in keys.iter().enumerate() {
            let k = kv[rank - 1];
            match by_top.iter_mut().find(|(kk, _)| *kk == k) {
                Some((_, v)) => v.push(mi),
                None => by_top.push((k, vec![mi])),
            }
        }
        for (_, idxs) in by_top {
            groups.push(GroupPlan {
                members: idxs.iter().map(|&mi| members[mi]).collect(),
                keys: idxs.iter().map(|&mi| keys[mi].clone()).collect(),
                rank,
            });
        }
    }
    // Scalars become singleton allocations at the end.
    for (i, decl) in prog.arrays.iter().enumerate() {
        if decl.rank() == 0 {
            groups.push(GroupPlan {
                members: vec![ArrayId::from_index(i)],
                keys: vec![vec![0]],
                rank: 0,
            });
        }
    }
    RegroupPlan { groups }
}

/// Dense ids for exact keys: two keys get the same id exactly when they are
/// equal.
struct Interner<K>(HashMap<K, u64>);

impl<K> Default for Interner<K> {
    fn default() -> Self {
        Interner(HashMap::new())
    }
}

impl<K: Hash + Eq> Interner<K> {
    fn id(&mut self, key: K) -> u64 {
        let next = self.0.len() as u64;
        *self.0.entry(key).or_insert(next)
    }
}

/// Records, per loop level, which arrays each loop (phase) accesses.
fn collect_phases(prog: &Program, max_levels: usize, out: &mut Vec<Vec<Vec<bool>>>) {
    let n = prog.arrays.len();
    out.clear();
    out.resize(max_levels.max(1), Vec::new());
    fn walk(stmts: &[gcr_ir::GuardedStmt], depth: usize, n: usize, out: &mut Vec<Vec<Vec<bool>>>) {
        for gs in stmts {
            if let Stmt::Loop(l) = &gs.stmt {
                if depth < out.len() {
                    let mut touched = vec![false; n];
                    let mut accs = Vec::new();
                    collect_accesses(&gs.stmt, &mut accs);
                    for a in accs {
                        touched[a.aref.array.index()] = true;
                    }
                    out[depth].push(touched);
                }
                walk(&l.body, depth + 1, n, out);
            }
        }
    }
    walk(&prog.body, 0, n, out);
}

/// Figure 8, first step: in an access `A(..., i, ..., j, ...)` where `i`'s
/// loop encloses `j`'s loop, `A` cannot be grouped at `j`'s dimension
/// (the traversal is transposed relative to storage order).
fn transposed_marks(prog: &Program) -> std::collections::HashSet<(ArrayId, usize)> {
    let mut depth_of: HashMap<VarId, usize> = HashMap::new();
    fn walk(stmts: &[gcr_ir::GuardedStmt], depth: usize, out: &mut HashMap<VarId, usize>) {
        for gs in stmts {
            if let Stmt::Loop(l) = &gs.stmt {
                out.insert(l.var, depth);
                walk(&l.body, depth + 1, out);
            }
        }
    }
    walk(&prog.body, 0, &mut depth_of);
    let mut marks = std::collections::HashSet::new();
    let mut accs = Vec::new();
    for gs in &prog.body {
        collect_accesses(&gs.stmt, &mut accs);
    }
    for a in &accs {
        let subs = &a.aref.subs;
        for p in 0..subs.len() {
            for q in p + 1..subs.len() {
                if let (Subscript::Var { var: vp, .. }, Subscript::Var { var: vq, .. }) =
                    (&subs[p], &subs[q])
                {
                    if let (Some(dp), Some(dq)) = (depth_of.get(vp), depth_of.get(vq)) {
                        if dp < dq {
                            marks.insert((a.aref.array, q));
                        }
                    }
                }
            }
        }
    }
    marks
}

/// Builds the concrete data layout for a plan.
pub fn layout(
    prog: &Program,
    plan: &RegroupPlan,
    binding: &ParamBinding,
    pad: usize,
) -> DataLayout {
    let mut arrays: Vec<Option<ArrayLayout>> = vec![None; prog.arrays.len()];
    let mut cursor = 0usize;
    for g in &plan.groups {
        let extents: Vec<i64> =
            prog.array(g.members[0]).dims.iter().map(|d| d.eval(binding)).collect();
        let idxs: Vec<usize> = (0..g.members.len()).collect();
        let size = place_group(g, &idxs, g.rank as isize - 1, cursor, &extents, &mut arrays);
        cursor = cursor.saturating_add(size).saturating_add(pad);
    }
    let arrays: Vec<ArrayLayout> = arrays
        .into_iter()
        .enumerate()
        .map(|(i, a)| a.unwrap_or_else(|| panic!("array {i} not placed by regrouping")))
        .collect();
    DataLayout { arrays, total_bytes: cursor }
}

/// Recursively lays out the sub-blocks spanning dimensions `0..=d` of the
/// given members (for one fixed index of the outer dimensions). Returns the
/// block size in bytes and fills in bases and strides. Sizes saturate like
/// [`DataLayout::column_major`]'s, so an oversize binding over-reports
/// `total_bytes` and meets the machine's byte cap instead of wrapping.
fn place_group(
    g: &GroupPlan,
    members: &[usize],
    d: isize,
    base: usize,
    extents: &[i64],
    arrays: &mut [Option<ArrayLayout>],
) -> usize {
    if d < 0 {
        // Element level: members still together interleave elements.
        for (pos, &mi) in members.iter().enumerate() {
            let a = g.members[mi];
            arrays[a.index()] = Some(ArrayLayout {
                base: base.saturating_add(pos * ELEM_BYTES),
                strides: vec![0; g.rank],
                extents: extents.to_vec(),
            });
        }
        return members.len() * ELEM_BYTES;
    }
    // Partition members by key at dimension d (order preserving).
    let mut subgroups: Vec<(u64, Vec<usize>)> = Vec::new();
    for &mi in members {
        let k = g.keys[mi][d as usize];
        match subgroups.iter_mut().find(|(kk, _)| *kk == k) {
            Some((_, v)) => v.push(mi),
            None => subgroups.push((k, vec![mi])),
        }
    }
    let n_d = extents[d as usize] as usize;
    let mut offset = base;
    for (_, sg) in &subgroups {
        let inner = place_group(g, sg, d - 1, offset, extents, arrays);
        for &mi in sg {
            let a = g.members[mi];
            let al = arrays[a.index()].as_mut().expect("placed by recursion");
            al.strides[d as usize] = inner;
        }
        offset = offset.saturating_add(n_d.saturating_mul(inner));
    }
    offset - base
}

/// Convenience wrapper: plan + layout + report.
///
/// ```
/// let prog = gcr_frontend::parse("
/// program pair
/// param N
/// array X[N], Y[N]
///
/// for i = 1, N {
///   X[i] = f(X[i], Y[i])
/// }
/// ").unwrap();
/// let bind = gcr_ir::ParamBinding::new(vec![8]);
/// let (layout, report) = gcr_core::regroup(&prog, &bind, &Default::default());
/// // X and Y are always used together: element-level interleave.
/// assert_eq!(report.groups.len(), 1);
/// assert_eq!(layout.arrays[0].strides[0], 16);
/// assert_eq!(layout.arrays[1].base, layout.arrays[0].base + 8);
/// ```
pub fn regroup(
    prog: &Program,
    binding: &ParamBinding,
    opts: &RegroupOptions,
) -> (DataLayout, RegroupReport) {
    let p = plan(prog, opts);
    let report = RegroupReport::of(prog, &p);
    (layout(prog, &p, binding, opts.pad_bytes), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_frontend::parse;

    /// The Figure 7 program: A and B used by the same inner loop, C by a
    /// different inner loop of the same outer loop.
    fn fig7() -> Program {
        parse(
            "
program fig7
param N
array A[N, N], B[N, N], C[N, N]

for i = 1, N {
  for j = 1, N {
    A[j, i] = g(A[j, i], B[j, i])
  }
  for j = 1, N {
    C[j, i] = t(C[j, i])
  }
}
",
        )
        .unwrap()
    }

    #[test]
    fn fig7_multi_level_layout() {
        let p = fig7();
        let (layout, report) = regroup(&p, &ParamBinding::new(vec![4]), &RegroupOptions::default());
        let n = 4usize;
        let (a, b, c) = (&layout.arrays[0], &layout.arrays[1], &layout.arrays[2]);
        // A and B interleave at the element level: adjacent bases, 2x
        // strides in dim 0.
        assert_eq!(b.base, a.base + 8);
        assert_eq!(a.strides[0], 16);
        assert_eq!(b.strides[0], 16);
        // C is grouped at the outer dimension only: its column block sits
        // after the AB block within each outer index.
        assert_eq!(c.base, a.base + 2 * n * 8);
        assert_eq!(c.strides[0], 8);
        // All three share the outer stride = one 3-column super-block.
        assert_eq!(a.strides[1], 3 * n * 8);
        assert_eq!(c.strides[1], a.strides[1]);
        assert_eq!(report.groups.len(), 1);
        assert_eq!(report.groups[0].0, vec!["A", "B", "C"]);
        assert_eq!(report.allocations, 1);
        assert_eq!(layout.total_bytes, 3 * n * n * 8);
    }

    #[test]
    fn fig7_element_only_keeps_c_separate() {
        let p = fig7();
        let opts = RegroupOptions { level: RegroupLevel::ElementOnly, ..Default::default() };
        let (layout, report) = regroup(&p, &ParamBinding::new(vec![4]), &opts);
        let (a, b, c) = (&layout.arrays[0], &layout.arrays[1], &layout.arrays[2]);
        assert_eq!(b.base, a.base + 8, "A,B still element-interleaved");
        assert_eq!(a.strides[1], 2 * 4 * 8, "AB column holds only A and B");
        assert_eq!(c.strides[0], 8);
        assert_eq!(c.strides[1], 4 * 8);
        assert_eq!(report.allocations, 2);
    }

    #[test]
    fn avoid_innermost_concatenates_columns() {
        let p = fig7();
        let opts = RegroupOptions { level: RegroupLevel::AvoidInnermost, ..Default::default() };
        let (layout, _) = regroup(&p, &ParamBinding::new(vec![4]), &opts);
        let (a, b) = (&layout.arrays[0], &layout.arrays[1]);
        // No element interleave: A's column is contiguous, B's follows.
        assert_eq!(a.strides[0], 8);
        assert_eq!(b.strides[0], 8);
        assert_eq!(b.base, a.base + 4 * 8);
        assert_eq!(a.strides[1], 3 * 4 * 8);
    }

    #[test]
    fn unrelated_arrays_stay_apart() {
        let p = parse(
            "
program sep
param N
array A[N], B[N]

for i = 1, N {
  A[i] = f(A[i])
}
for i = 1, N {
  B[i] = g(B[i])
}
",
        )
        .unwrap();
        let (layout, report) = regroup(&p, &ParamBinding::new(vec![8]), &RegroupOptions::default());
        assert_eq!(report.groups.len(), 0);
        assert_eq!(report.allocations, 2);
        let (a, b) = (&layout.arrays[0], &layout.arrays[1]);
        assert_eq!(a.strides[0], 8);
        assert_eq!(b.strides[0], 8);
        assert_eq!(b.base, 8 * 8);
    }

    #[test]
    fn always_together_arrays_interleave() {
        let p = parse(
            "
program tog
param N
array X[N], Y[N], Z[N]

for i = 2, N {
  X[i] = f(X[i], Y[i])
  Y[i] = g(Y[i-1])
  Z[i] = h(X[i], Z[i])
}
",
        )
        .unwrap();
        let (layout, report) = regroup(&p, &ParamBinding::new(vec![8]), &RegroupOptions::default());
        assert_eq!(report.groups.len(), 1);
        assert_eq!(report.groups[0].1, "element");
        let (x, y, z) = (&layout.arrays[0], &layout.arrays[1], &layout.arrays[2]);
        assert_eq!(x.strides[0], 24);
        assert_eq!(y.base, x.base + 8);
        assert_eq!(z.base, x.base + 16);
        assert_eq!(layout.total_bytes, 3 * 8 * 8);
    }

    #[test]
    fn different_shapes_never_group() {
        let p = parse(
            "
program shapes
param N
array A[N], B[N, N]

for i = 1, N {
  A[i] = f(B[i, 1])
}
",
        )
        .unwrap();
        let (_, report) = regroup(&p, &ParamBinding::new(vec![4]), &RegroupOptions::default());
        assert_eq!(report.groups.len(), 0);
    }

    #[test]
    fn transposed_access_blocks_grouping() {
        // B is traversed transposed: the outer loop indexes its inner dim.
        let p = parse(
            "
program transp
param N
array A[N, N], B[N, N]

for i = 1, N {
  for j = 1, N {
    A[j, i] = f(B[i, j])
  }
}
",
        )
        .unwrap();
        let (layout, report) = regroup(&p, &ParamBinding::new(vec![4]), &RegroupOptions::default());
        assert!(report.groups.is_empty(), "{report:?}");
        let (a, b) = (&layout.arrays[0], &layout.arrays[1]);
        assert_eq!(a.strides[0], 8);
        assert_eq!(b.strides[0], 8);
    }

    #[test]
    fn scalars_get_slots() {
        let p = parse(
            "
program sc
param N
array A[N]
scalar s

for i = 1, N {
  s sum= A[i]
}
",
        )
        .unwrap();
        let (layout, _) = regroup(&p, &ParamBinding::new(vec![4]), &RegroupOptions::default());
        assert_eq!(layout.arrays[1].strides.len(), 0);
        assert_eq!(layout.total_bytes, 4 * 8 + 8);
    }

    /// Execution under a regrouped layout must produce identical logical
    /// results to the default layout.
    #[test]
    fn regrouped_layout_preserves_semantics() {
        let p = fig7();
        let bind = ParamBinding::new(vec![6]);
        let (layout, _) = regroup(&p, &bind, &RegroupOptions::default());
        let mut m1 = gcr_exec::Machine::new(&p, bind.clone());
        let mut m2 = gcr_exec::Machine::with_layout(&p, bind, layout);
        m1.run_steps(&mut gcr_exec::NullSink, 2);
        m2.run_steps(&mut gcr_exec::NullSink, 2);
        for ai in 0..p.arrays.len() {
            let a = gcr_ir::ArrayId::from_index(ai);
            assert_eq!(m1.read_array(a), m2.read_array(a), "array {ai}");
        }
    }

    #[test]
    fn padding_between_allocations() {
        let p = parse(
            "
program pad2
param N
array A[N], B[N]

for i = 1, N {
  A[i] = f(A[i])
}
for i = 1, N {
  B[i] = g(B[i])
}
",
        )
        .unwrap();
        let opts = RegroupOptions { pad_bytes: 128, ..Default::default() };
        let (layout, _) = regroup(&p, &ParamBinding::new(vec![4]), &opts);
        assert_eq!(layout.arrays[1].base, 4 * 8 + 128);
    }
}
