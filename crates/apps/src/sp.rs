//! SP — a serial NAS/NPB SP (scalar pentadiagonal) application skeleton.
//!
//! The paper's largest test: 15 global arrays, hundreds of loops after
//! inlining, ADI structure (compute_rhs, then x/y/z sweeps, then add).
//! This skeleton reproduces the structural properties the transformations
//! act on:
//!
//! * six 4-D arrays with a **constant component dimension of 5**
//!   (`u[5,N,N,N]`, …) that the preliminary array splitting unrolls —
//!   the paper's 15 → 42 arrays step;
//! * small `for m = 1, 5` component loops that loop unrolling eliminates;
//! * a long sequence of 3-deep nests that all traverse the full 3-D grid,
//!   so in program order every phase streams the data set through cache
//!   (the evadable reuses of Figure 3);
//! * direction sweeps whose recurrences run along different dimensions,
//!   exercising multi-level fusion and its TLB blow-up without regrouping.
//!
//! The real solver's backward substitutions are authored as forward
//! recurrences (loop reversal is outside the IR's model); this preserves
//! the access pattern and dependence structure the study measures.

use gcr_frontend::parse;
use gcr_ir::Program;
use std::fmt::Write;

/// Generates the LoopLang source.
pub fn source() -> String {
    let mut s = String::new();
    s.push_str("program sp\nparam N\n");
    s.push_str("array u[5, N, N, N], rhs[5, N, N, N], forcing[5, N, N, N]\n");
    s.push_str("array lhs[5, N, N, N], lhsp[5, N, N, N], lhsm[5, N, N, N]\n");
    s.push_str("array dissip[5, N, N, N]\n");
    s.push_str("array us[N, N, N], vs[N, N, N], ws[N, N, N], qs[N, N, N]\n");
    s.push_str("array rho_i[N, N, N], speed[N, N, N], square[N, N, N], ainv[N, N, N]\n\n");

    let grid = "for k = 2, N - 1 {\n  for j = 2, N - 1 {\n    for i = 2, N - 1 {\n";
    let close = "    }\n  }\n}\n";

    // ---- compute_rhs: auxiliaries --------------------------------------
    s.push_str("// compute_rhs: auxiliary quantities\n");
    s.push_str(grid);
    s.push_str("      rho_i[i, j, k] = 1.0 / u[1, i, j, k]\n");
    s.push_str("      us[i, j, k] = u[2, i, j, k] * rho_i[i, j, k]\n");
    s.push_str("      vs[i, j, k] = u[3, i, j, k] * rho_i[i, j, k]\n");
    s.push_str("      ws[i, j, k] = u[4, i, j, k] * rho_i[i, j, k]\n");
    s.push_str("      square[i, j, k] = 0.5 * (u[2, i, j, k] * us[i, j, k] + u[3, i, j, k] * vs[i, j, k] + u[4, i, j, k] * ws[i, j, k])\n");
    s.push_str("      qs[i, j, k] = square[i, j, k] * rho_i[i, j, k]\n");
    s.push_str("      speed[i, j, k] = sqrt(0.4 * (u[5, i, j, k] - square[i, j, k]) * rho_i[i, j, k]) + 0.2\n");
    s.push_str("      ainv[i, j, k] = 1.0 / speed[i, j, k]\n");
    s.push_str(close);

    // ---- compute_rhs: initialize from forcing ---------------------------
    s.push_str("// compute_rhs: initialize rhs from the forcing term\n");
    s.push_str(grid);
    s.push_str("      for m = 1, 5 {\n        rhs[m, i, j, k] = forcing[m, i, j, k]\n      }\n");
    s.push_str(close);

    // ---- compute_rhs: fluxes per direction ------------------------------
    for (dir, aux) in [("i", "us"), ("j", "vs"), ("k", "ws")] {
        let p1 = shift("i, j, k", dir, 1);
        let m1 = shift("i, j, k", dir, -1);
        let _ = writeln!(s, "// compute_rhs: {dir}-direction flux differences");
        s.push_str("for k = 3, N - 2 {\n  for j = 3, N - 2 {\n    for i = 3, N - 2 {\n");
        let _ = writeln!(
            s,
            "      for m = 1, 5 {{\n        rhs[m, i, j, k] = rhs[m, i, j, k] + 0.05 * (u[m, {p1}] - 2.0 * u[m, i, j, k] + u[m, {m1}]) - 0.02 * ({aux}[{p1}] - {aux}[{m1}])\n      }}"
        );
        let _ = writeln!(
            s,
            "      rhs[1, i, j, k] = rhs[1, i, j, k] - 0.01 * (square[{p1}] - square[{m1}]) * ainv[i, j, k]"
        );
        s.push_str(close);
    }

    // ---- compute_rhs: fourth-order artificial dissipation ----------------
    s.push_str("// compute_rhs: fourth-order dissipation stencil\n");
    s.push_str("for k = 4, N - 3 {\n  for j = 4, N - 3 {\n    for i = 4, N - 3 {\n");
    s.push_str("      for m = 1, 5 {\n        dissip[m, i, j, k] = (u[m, i+2, j, k] - 4.0 * u[m, i+1, j, k] + 6.0 * u[m, i, j, k] - 4.0 * u[m, i-1, j, k] + u[m, i-2, j, k]) + (u[m, i, j+2, k] - 4.0 * u[m, i, j+1, k] + 6.0 * u[m, i, j, k] - 4.0 * u[m, i, j-1, k] + u[m, i, j-2, k]) + (u[m, i, j, k+2] - 4.0 * u[m, i, j, k+1] + 6.0 * u[m, i, j, k] - 4.0 * u[m, i, j, k-1] + u[m, i, j, k-2])\n      }\n");
    s.push_str(close);
    s.push_str("// compute_rhs: apply dissipation\n");
    s.push_str("for k = 4, N - 3 {\n  for j = 4, N - 3 {\n    for i = 4, N - 3 {\n");
    s.push_str("      for m = 1, 5 {\n        rhs[m, i, j, k] = rhs[m, i, j, k] - 0.005 * dissip[m, i, j, k]\n      }\n");
    s.push_str(close);

    // ---- x-solve: k,j outer, recurrence along i (innermost) -------------
    solve(&mut s, "x", "lhs", "k = 2, N - 1", "j = 2, N - 1", "i = 2, N - 1", "i");
    // ---- y-solve: k outer, recurrence along j (middle) ------------------
    solve(&mut s, "y", "lhsp", "k = 2, N - 1", "j = 2, N - 1", "i = 2, N - 1", "j");
    // ---- z-solve: j outer, recurrence along k (middle), i streaming —
    // NPB's z_solve iterates j outermost, which is transposed relative to
    // the k-outer sweeps above: the natural fusion barrier of the real code.
    solve(&mut s, "z", "lhsm", "j = 2, N - 1", "k = 2, N - 1", "i = 2, N - 1", "k");

    // ---- add -------------------------------------------------------------
    s.push_str("// add: apply the update\n");
    s.push_str(grid);
    s.push_str("      for m = 1, 5 {\n        u[m, i, j, k] = u[m, i, j, k] + 0.05 * rhs[m, i, j, k]\n      }\n");
    s.push_str(close);
    s
}

/// Emits one direction sweep: factor setup plus the forward elimination
/// with the recurrence along `rec` (one of i/j/k).
fn solve(s: &mut String, name: &str, lhsarr: &str, l0: &str, l1: &str, l2: &str, rec: &str) {
    let m1 = shift("i, j, k", rec, -1);
    let open = format!("for {l0} {{\n  for {l1} {{\n    for {l2} {{\n");
    let close = "    }\n  }\n}\n";
    let _ = writeln!(s, "// {name}-sweep: factor setup");
    s.push_str(&open);
    let _ = writeln!(s, "      {lhsarr}[1, i, j, k] = 0.1 * (rho_i[{m1}] + rho_i[i, j, k]) + 0.9");
    let _ = writeln!(s, "      {lhsarr}[2, i, j, k] = 0.05 * (speed[{m1}] + speed[i, j, k])");
    let _ = writeln!(
        s,
        "      {lhsarr}[3, i, j, k] = 1.0 / ({lhsarr}[1, i, j, k] + {lhsarr}[2, i, j, k])"
    );
    s.push_str(close);
    let _ = writeln!(s, "// {name}-sweep: forward elimination");
    s.push_str(&open);
    let _ = writeln!(
        s,
        "      for m = 1, 5 {{\n        rhs[m, i, j, k] = (rhs[m, i, j, k] - 0.3 * {lhsarr}[2, i, j, k] * rhs[m, {m1}]) * {lhsarr}[3, i, j, k]\n      }}"
    );
    s.push_str(close);
}

/// Replaces one of `i, j, k` in a subscript tuple by `name+off`.
fn shift(base: &str, dir: &str, off: i64) -> String {
    base.split(", ")
        .map(|v| {
            if v == dir {
                if off >= 0 {
                    format!("{v}+{off}")
                } else {
                    format!("{v}{off}")
                }
            } else {
                v.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Parses the generated source.
pub fn program() -> Program {
    parse(&source()).expect("SP source parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_analysis::stats::program_stats;
    use gcr_core::prelim::preliminary;

    #[test]
    fn shape_before_prelim() {
        let st = program_stats(&program());
        assert_eq!(st.arrays, 15, "7 component arrays + 8 grid arrays (paper: 15)");
        assert_eq!(st.nests, 14, "aux, init, 3 fluxes, 2 dissipation, 3x2 solves, add");
        assert_eq!(st.max_depth, 4, "component loops nest to depth 4");
    }

    #[test]
    fn splitting_and_unrolling_multiply_arrays_and_loops() {
        let mut p = program();
        let before_loops = p.count_loops();
        let rep = preliminary(&mut p, 8);
        // 7 arrays x 5 components (paper: 15 -> 42 arrays; ours 15 -> 43).
        assert_eq!(rep.split_arrays, 35, "{rep:?}");
        assert!(rep.unrolled >= 5, "component loops unrolled: {rep:?}");
        assert!(rep.distributed > 10, "distribution separates statements: {rep:?}");
        let after = gcr_core::fusion::loops_per_level(&p);
        assert!(
            after[0] > 2 * before_loops / 3,
            "distribution creates many level-1 loops: {after:?} vs {before_loops}"
        );
        gcr_ir::validate::validate(&p).unwrap();
    }

    #[test]
    fn pipeline_fuses_sp() {
        let orig = program();
        let opt = gcr_core::pipeline::apply_strategy(
            &orig,
            gcr_core::pipeline::Strategy::FusionRegroup {
                levels: 3,
                regroup: gcr_core::regroup::RegroupLevel::Multi,
            },
        );
        let before = opt.fusion.loops_before.first().copied().unwrap_or(0);
        let after = opt.fusion.loops_after.first().copied().unwrap_or(0);
        assert!(
            after * 4 <= before,
            "level-1 loops should collapse substantially: {before} -> {after}\n{:?}",
            opt.fusion.infusible
        );
        // Regrouping merges the split component arrays back together.
        assert!(!opt.regroup.groups.is_empty(), "split components regroup: {:?}", opt.regroup);
    }

    #[test]
    fn pipeline_preserves_sp_semantics() {
        let orig = program();
        let opt = gcr_core::pipeline::apply_strategy(
            &orig,
            gcr_core::pipeline::Strategy::FusionRegroup {
                levels: 3,
                regroup: gcr_core::regroup::RegroupLevel::Multi,
            },
        );
        assert!(!opt.robustness.degraded(), "{:?}", opt.robustness.describe());
        let bind = gcr_ir::ParamBinding::new(vec![10]);
        let mut m1 = gcr_exec::Machine::new(&orig, bind.clone());
        let layout = opt.layout(&bind);
        let mut m2 = gcr_exec::Machine::with_layout(&opt.program, bind, layout);
        // Equalize initial data: split arrays (u__k etc.) take the matching
        // component slice of the original array's initial contents.
        for (ai, decl) in orig.arrays.iter().enumerate() {
            let vals = m1.read_array(gcr_ir::ArrayId::from_index(ai));
            if let Some(target) = opt.program.array_by_name(&decl.name) {
                if opt.program.array(target).rank() == decl.rank() {
                    m2.write_array(target, &vals).unwrap();
                    continue;
                }
            }
            // Split array: components are interleaved innermost.
            let comps = decl.dims[0].as_const().unwrap() as usize;
            for c in 0..comps {
                let part = opt.program.array_by_name(&format!("{}__{}", decl.name, c + 1)).unwrap();
                let slice: Vec<f64> = vals.iter().skip(c).step_by(comps).copied().collect();
                m2.write_array(part, &slice).unwrap();
            }
        }
        m1.run_steps(&mut gcr_exec::NullSink, 2);
        m2.run_steps(&mut gcr_exec::NullSink, 2);
        // u was split into u__1..u__5: compare against the original slices.
        let u = m1.read_array(orig.array_by_name("u").unwrap());
        let n = 10usize;
        for c in 0..5usize {
            let uc = m2.read_array(opt.program.array_by_name(&format!("u__{}", c + 1)).unwrap());
            assert_eq!(uc.len(), n * n * n);
            let _ = n;
            for (flat, v) in uc.iter().enumerate() {
                let orig_v = u[flat * 5 + c];
                assert!(
                    (v - orig_v).abs() <= 1e-9 * orig_v.abs().max(1.0),
                    "u component {} elem {flat}: {v} vs {orig_v}",
                    c + 1
                );
            }
        }
    }
}
