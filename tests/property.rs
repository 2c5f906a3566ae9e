//! Property-based tests: random programs in the paper's input model are
//! pushed through every transformation, checking semantic preservation,
//! structural validity, layout bijectivity and printer/parser round-trips.

use global_cache_reuse::exec::{Machine, NullSink};
use global_cache_reuse::ir::{
    Expr, LinExpr, ParamBinding, Program, ProgramBuilder, Stmt, Subscript,
};
use global_cache_reuse::opt::pipeline::{apply_strategy, Strategy as OptStrategy};
use global_cache_reuse::opt::regroup::RegroupLevel;
use global_cache_reuse::opt::{fuse_program, optimize_checked, FusionOptions, SafetyOptions};
use proptest::prelude::*;

const NARRAYS: usize = 3;

/// One random statement inside a loop: `X[i+a] = f(Y[i+b], Z[i+c])`.
#[derive(Clone, Debug)]
struct RandStmt {
    lhs: usize,
    lhs_off: i64,
    rhs1: usize,
    rhs1_off: i64,
    rhs2: Option<(usize, i64)>,
}

/// A random top-level item.
#[derive(Clone, Debug)]
enum RandItem {
    /// Loop from `3` to `N - 3` over the given statements.
    Loop(Vec<RandStmt>),
    /// Standalone boundary statement `X[c1] = f(Y[c2])`.
    Boundary { lhs: usize, c1: i64, rhs: usize, c2: i64 },
}

fn stmt_strategy() -> impl Strategy<Value = RandStmt> {
    (0..NARRAYS, -2i64..=2, 0..NARRAYS, -2i64..=2, proptest::option::of((0..NARRAYS, -2i64..=2)))
        .prop_map(|(lhs, lhs_off, rhs1, rhs1_off, rhs2)| RandStmt {
            lhs,
            lhs_off,
            rhs1,
            rhs1_off,
            rhs2,
        })
}

fn item_strategy() -> impl Strategy<Value = RandItem> {
    prop_oneof![
        4 => proptest::collection::vec(stmt_strategy(), 1..3).prop_map(RandItem::Loop),
        1 => (0..NARRAYS, 1i64..=3, 0..NARRAYS, 1i64..=3)
            .prop_map(|(lhs, c1, rhs, c2)| RandItem::Boundary { lhs, c1, rhs, c2 }),
    ]
}

fn build(items: &[RandItem]) -> Program {
    let mut b = ProgramBuilder::new("rand");
    let n = b.param("N");
    let arrays: Vec<_> =
        (0..NARRAYS).map(|k| b.array(format!("A{k}"), &[LinExpr::param(n)])).collect();
    for (li, item) in items.iter().enumerate() {
        match item {
            RandItem::Loop(stmts) => {
                let var = b.var(format!("i{li}"));
                let body: Vec<Stmt> = stmts
                    .iter()
                    .map(|s| {
                        let mut rhs = b.read(arrays[s.rhs1], vec![Subscript::var(var, s.rhs1_off)]);
                        if let Some((a2, o2)) = s.rhs2 {
                            let r2 = b.read(arrays[a2], vec![Subscript::var(var, o2)]);
                            rhs = Expr::add(rhs, r2);
                        }
                        rhs = Expr::Call("f", vec![rhs]);
                        b.assign(arrays[s.lhs], vec![Subscript::var(var, s.lhs_off)], rhs)
                    })
                    .collect();
                let l = b.for_(var, LinExpr::konst(3), LinExpr::param(n).add_const(-3), body);
                b.push(l);
            }
            RandItem::Boundary { lhs, c1, rhs, c2 } => {
                let r = b.read(arrays[*rhs], vec![Subscript::konst(*c2)]);
                let s =
                    b.assign(arrays[*lhs], vec![Subscript::konst(*c1)], Expr::Call("g", vec![r]));
                b.push(s);
            }
        }
    }
    b.finish()
}

/// Runs a program and returns all array contents.
fn run(
    prog: &Program,
    layout: Option<global_cache_reuse::exec::DataLayout>,
    n: i64,
) -> Vec<Vec<f64>> {
    let bind = ParamBinding::new(vec![n]);
    let mut m = match layout {
        Some(l) => Machine::with_layout(prog, bind, l),
        None => Machine::new(prog, bind),
    };
    m.run_steps(&mut NullSink, 2);
    (0..prog.arrays.len())
        .map(|i| m.read_array(global_cache_reuse::ir::ArrayId::from_index(i)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reuse-based fusion preserves program semantics exactly (instance
    /// computations are unchanged, only reordered within dependences).
    #[test]
    fn fusion_preserves_semantics(items in proptest::collection::vec(item_strategy(), 1..6)) {
        let orig = build(&items);
        let mut fused = orig.clone();
        fuse_program(&mut fused, &FusionOptions::default());
        prop_assert!(global_cache_reuse::ir::validate::validate(&fused).is_ok());
        let (a, b) = (run(&orig, None, 16), run(&fused, None, 16));
        prop_assert_eq!(a, b);
    }

    /// The whole pipeline (prelim + fusion + regrouped layout) preserves
    /// semantics under the interleaved layout.
    #[test]
    fn pipeline_preserves_semantics(items in proptest::collection::vec(item_strategy(), 1..6)) {
        let orig = build(&items);
        let opt = apply_strategy(
            &orig,
            OptStrategy::FusionRegroup { levels: 2, regroup: RegroupLevel::Multi },
        );
        prop_assert!(!opt.robustness.degraded(), "{:?}", opt.robustness.describe());
        let bind = ParamBinding::new(vec![14]);
        let layout = opt.layout(&bind);
        let (a, b) = (run(&orig, None, 14), run(&opt.program, Some(layout), 14));
        prop_assert_eq!(a, b);
    }

    /// The SGI-like baseline is also semantics-preserving.
    #[test]
    fn baseline_preserves_semantics(items in proptest::collection::vec(item_strategy(), 1..6)) {
        let orig = build(&items);
        let opt = apply_strategy(&orig, OptStrategy::Sgi);
        prop_assert!(!opt.robustness.degraded(), "{:?}", opt.robustness.describe());
        let bind = ParamBinding::new(vec![12]);
        let layout = opt.layout(&bind);
        let (a, b) = (run(&orig, None, 12), run(&opt.program, Some(layout), 12));
        prop_assert_eq!(a, b);
    }

    /// Regrouped layouts are bijections: distinct (array, element) pairs
    /// get distinct, in-bounds addresses.
    #[test]
    fn regrouped_layout_is_bijective(items in proptest::collection::vec(item_strategy(), 1..6)) {
        let prog = build(&items);
        let bind = ParamBinding::new(vec![9]);
        let (layout, _) = global_cache_reuse::opt::regroup::regroup(
            &prog,
            &bind,
            &Default::default(),
        );
        let mut seen = std::collections::HashSet::new();
        for al in &layout.arrays {
            let n = al.extents.first().copied().unwrap_or(1);
            for i in 1..=n.max(1) {
                let idx: Vec<i64> = al.extents.iter().map(|_| i.min(*al.extents.first().unwrap())).collect();
                let a = al.addr(&idx);
                prop_assert!(a + 8 <= layout.total_bytes);
                prop_assert!(seen.insert(a), "address {a} assigned twice");
            }
        }
    }

    /// Printed programs reparse to the same text (printer is a fixpoint of
    /// print ∘ parse), before and after fusion.
    #[test]
    fn print_parse_fixpoint(items in proptest::collection::vec(item_strategy(), 1..5)) {
        for fused in [false, true] {
            let mut prog = build(&items);
            if fused {
                fuse_program(&mut prog, &FusionOptions::default());
            }
            let t1 = global_cache_reuse::ir::print::print_program(&prog);
            let p2 = global_cache_reuse::frontend::parse(&t1);
            prop_assert!(p2.is_ok(), "reparse failed: {:?}\n{}", p2.err(), t1);
            let t2 = global_cache_reuse::ir::print::print_program(&p2.unwrap());
            prop_assert_eq!(t1, t2);
        }
    }

    /// Fusion reports are consistent: loop counts drop by exactly the
    /// number of fusions at level 1 (every fusion merges two level-1 loops,
    /// peels notwithstanding — peeled statements are not loops).
    #[test]
    fn fusion_report_accounting(items in proptest::collection::vec(item_strategy(), 1..6)) {
        let mut prog = build(&items);
        let before = prog.count_nests();
        let rep = fuse_program(&mut prog, &FusionOptions { max_levels: 1, ..Default::default() });
        let after = prog.count_nests();
        prop_assert_eq!(before, after + rep.fused[0]);
    }
}

// ---------------------------------------------------------------------------
// Fail-safe pipeline: optimize_checked must never panic, and on well-formed
// programs it must succeed without touching a fallback rung.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Anything the parser accepts, the checked optimizer survives: it may
    /// return an error (or degrade), but it must not panic — even on
    /// programs whose original version cannot execute.
    #[test]
    fn optimize_checked_never_panics_on_parsed_soup(words in proptest::collection::vec(
        prop_oneof![
            Just("program".to_string()), Just("p".to_string()),
            Just("param".to_string()), Just("N".to_string()),
            Just("array".to_string()), Just("A".to_string()),
            Just("B".to_string()), Just("for".to_string()),
            Just("i".to_string()), Just("=".to_string()),
            Just(",".to_string()), Just("{".to_string()),
            Just("}".to_string()), Just("[".to_string()),
            Just("]".to_string()), Just("+".to_string()),
            Just("-".to_string()), Just("*".to_string()),
            Just("1".to_string()), Just("2".to_string()),
            Just("f".to_string()), Just("(".to_string()),
            Just(")".to_string()), Just("\n".to_string()),
        ], 0..48)) {
        if let Ok(prog) = global_cache_reuse::frontend::parse(&words.join(" ")) {
            let safety = SafetyOptions {
                fuel: Some(200_000),
                max_bytes: Some(1 << 20),
                ..Default::default()
            };
            let _ = optimize_checked(&prog, &fuse_regroup_opts(), &safety);
        }
    }
}

fn fuse_regroup_opts() -> global_cache_reuse::opt::pipeline::OptimizeOptions {
    OptStrategy::FusionRegroup { levels: 2, regroup: RegroupLevel::Multi }.options()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On well-formed random programs the checked pipeline succeeds, keeps
    /// its oracle enabled, and never needs a fallback: every pass it runs
    /// is verified clean.
    #[test]
    fn checked_pipeline_is_clean_on_generated_programs(
        items in proptest::collection::vec(item_strategy(), 1..5),
    ) {
        let orig = build(&items);
        let opt = optimize_checked(&orig, &fuse_regroup_opts(), &SafetyOptions::default());
        prop_assert!(opt.is_ok(), "{:?}", opt.err());
        let opt = opt.unwrap();
        prop_assert!(opt.robustness.oracle_disabled.is_none());
        prop_assert!(!opt.robustness.degraded(), "{:?}", opt.robustness.describe());
        prop_assert!(opt.robustness.checks > 0);
    }
}

// ---------------------------------------------------------------------------
// Two-dimensional programs: multi-level fusion with outer-guard entries
// ---------------------------------------------------------------------------

/// A random 2-D stencil statement `X[j+a, i+b] = f(Y[j+c, i+d], ...)`.
#[derive(Clone, Debug)]
struct Rand2D {
    lhs: usize,
    lo: (i64, i64),
    rhs: usize,
    ro: (i64, i64),
    /// Loop bounds offset: nest ranges over `[3+k, N-3]` to vary bounds.
    lo_shift: i64,
}

fn stmt2d() -> impl Strategy<Value = Rand2D> {
    (0..NARRAYS, (-1i64..=1, -1i64..=1), 0..NARRAYS, (-2i64..=2, -2i64..=2), 0i64..=2)
        .prop_map(|(lhs, lo, rhs, ro, lo_shift)| Rand2D { lhs, lo, rhs, ro, lo_shift })
}

fn build2d(items: &[Rand2D]) -> Program {
    let mut b = ProgramBuilder::new("rand2d");
    let n = b.param("N");
    let arrays: Vec<_> = (0..NARRAYS)
        .map(|k| b.array(format!("B{k}"), &[LinExpr::param(n), LinExpr::param(n)]))
        .collect();
    for (li, it) in items.iter().enumerate() {
        let iv = b.var(format!("i{li}"));
        let jv = b.var(format!("j{li}"));
        let rhs =
            b.read(arrays[it.rhs], vec![Subscript::var(jv, it.ro.0), Subscript::var(iv, it.ro.1)]);
        let s = b.assign(
            arrays[it.lhs],
            vec![Subscript::var(jv, it.lo.0), Subscript::var(iv, it.lo.1)],
            Expr::Call("f", vec![rhs]),
        );
        let inner =
            b.for_(jv, LinExpr::konst(3 + it.lo_shift), LinExpr::param(n).add_const(-3), vec![s]);
        let outer = b.for_(
            iv,
            LinExpr::konst(3 + it.lo_shift),
            LinExpr::param(n).add_const(-3),
            vec![inner],
        );
        b.push(outer);
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Multi-level fusion of random 2-D nests (with unequal bounds, hence
    /// outer-guard entries) preserves semantics exactly.
    #[test]
    fn twod_fusion_preserves_semantics(items in proptest::collection::vec(stmt2d(), 1..5)) {
        let orig = build2d(&items);
        let mut fused = orig.clone();
        fuse_program(&mut fused, &FusionOptions::default());
        prop_assert!(global_cache_reuse::ir::validate::validate(&fused).is_ok());
        let (a, b) = (run(&orig, None, 14), run(&fused, None, 14));
        prop_assert_eq!(a, b);
    }

    /// ... and the regrouped layout still computes the same values.
    #[test]
    fn twod_pipeline_preserves_semantics(items in proptest::collection::vec(stmt2d(), 1..5)) {
        let orig = build2d(&items);
        let opt = apply_strategy(
            &orig,
            OptStrategy::FusionRegroup {
                levels: 3,
                regroup: RegroupLevel::Multi,
            },
        );
        prop_assert!(!opt.robustness.degraded(), "{:?}", opt.robustness.describe());
        let bind = ParamBinding::new(vec![13]);
        let layout = opt.layout(&bind);
        let (a, b) = (run(&orig, None, 13), run(&opt.program, Some(layout), 13));
        prop_assert_eq!(a, b);
    }

    /// Fused 2-D programs still print/parse round-trip (guards included).
    #[test]
    fn twod_print_parse_fixpoint(items in proptest::collection::vec(stmt2d(), 1..4)) {
        let mut prog = build2d(&items);
        fuse_program(&mut prog, &FusionOptions::default());
        let t1 = global_cache_reuse::ir::print::print_program(&prog);
        let p2 = global_cache_reuse::frontend::parse(&t1);
        prop_assert!(p2.is_ok(), "reparse failed: {:?}\n{}", p2.err(), t1);
        let t2 = global_cache_reuse::ir::print::print_program(&p2.unwrap());
        prop_assert_eq!(t1, t2);
    }
}
