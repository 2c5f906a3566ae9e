//! Differential oracle for the two execution engines: on random
//! programs, bindings, layouts (including regrouped-style interleaving),
//! and guard/alignment shapes, the register bytecode VM must be
//! observationally identical to the tree-walking interpreter — same
//! sink-event sequence (accesses *and* instance boundaries, in order),
//! same `ExecStats`, bit-identical memory images, and identical
//! fuel-exhaustion behaviour.

use gcr_exec::{AccessEvent, ArrayLayout, DataLayout, ExecEngine, ExecStats, Machine, TraceSink};
use gcr_ir::{
    ArrayId, Expr, GcrError, LinExpr, ParamBinding, Program, ProgramBuilder, Range, ReduceOp, Stmt,
    StmtId, Subscript,
};
use proptest::prelude::*;

const NARRAYS: usize = 3;

/// Everything a sink can observe, in order.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Event {
    Access(AccessEvent),
    End(StmtId),
}

#[derive(Default)]
struct Cap(Vec<Event>);

impl TraceSink for Cap {
    fn access(&mut self, ev: AccessEvent) {
        self.0.push(Event::Access(ev));
    }
    fn end_instance(&mut self, stmt: StmtId) {
        self.0.push(Event::End(stmt));
    }
}

/// One random statement in a 1-D loop.
#[derive(Clone, Debug)]
struct RStmt {
    lhs: usize,
    lhs_off: i64,
    rhs1: usize,
    rhs1_off: i64,
    rhs2: Option<(usize, i64)>,
    /// 0, 1: normal assign; 2: sum-reduce into the scalar; 3: max-reduce
    /// into the array element (traced reduction read).
    kind: u8,
    /// Combine `rhs1 ∘ rhs2` with division (exercises the FP guard).
    div: bool,
    /// Guard interval, absolute iteration numbers (may exceed the loop
    /// range — resolution must clamp it).
    guard: Option<(i64, i64)>,
}

/// One random top-level item.
#[derive(Clone, Debug)]
enum RItem {
    /// `for i = 3, N-3 { ... }` over 1-D arrays.
    Loop(Vec<RStmt>),
    /// Two-level nest writing the 2-D array, with optional guard on the
    /// inner statement and optional outer-variable condition on the inner
    /// loop's member.
    Nest { di: i64, dj: i64, guard: Option<(i64, i64)>, outer: Option<(i64, i64)> },
    /// Invariant-subscript boundary statement at top level.
    Boundary { lhs: usize, c1: i64, rhs: usize, c2: i64 },
}

fn stmt_strategy() -> impl Strategy<Value = RStmt> {
    (
        (0..NARRAYS, -2i64..=2, 0..NARRAYS, -2i64..=2),
        proptest::option::of((0..NARRAYS, -2i64..=2)),
        0u8..4,
        proptest::option::of((0i64..=9, 0i64..=5)),
        0u8..4,
    )
        .prop_map(|((lhs, lhs_off, rhs1, rhs1_off), rhs2, kind, guard, div)| RStmt {
            lhs,
            lhs_off,
            rhs1,
            rhs1_off,
            rhs2,
            kind,
            div: div == 0,
            guard: guard.map(|(lo, len)| (3 + lo, 3 + lo + len)),
        })
}

fn item_strategy() -> impl Strategy<Value = RItem> {
    prop_oneof![
        4 => proptest::collection::vec(stmt_strategy(), 1..3).prop_map(RItem::Loop),
        2 => (
            (-2i64..=2, -2i64..=2),
            proptest::option::of((0i64..=9, 0i64..=5)),
            proptest::option::of((0i64..=9, 0i64..=5)),
        )
            .prop_map(|((di, dj), guard, outer)| RItem::Nest {
                di,
                dj,
                guard: guard.map(|(lo, len)| (3 + lo, 3 + lo + len)),
                outer: outer.map(|(lo, len)| (3 + lo, 3 + lo + len)),
            }),
        1 => (0..NARRAYS, 1i64..=3, 0..NARRAYS, 1i64..=3)
            .prop_map(|(lhs, c1, rhs, c2)| RItem::Boundary { lhs, c1, rhs, c2 }),
    ]
}

/// Builds the program: three 1-D arrays `A0..A2` of extent N, one 2-D
/// array `M` of extent N×N, and one scalar `s`.
fn build(items: &[RItem]) -> Program {
    let mut b = ProgramBuilder::new("diff");
    let n = b.param("N");
    let arrays: Vec<ArrayId> =
        (0..NARRAYS).map(|k| b.array(format!("A{k}"), &[LinExpr::param(n)])).collect();
    let m2 = b.array("M", &[LinExpr::param(n), LinExpr::param(n)]);
    let sc = b.scalar("s");
    for (li, item) in items.iter().enumerate() {
        match item {
            RItem::Loop(stmts) => {
                let var = b.var(format!("i{li}"));
                let body: Vec<Stmt> = stmts
                    .iter()
                    .map(|s| {
                        let mut rhs = b.read(arrays[s.rhs1], vec![Subscript::var(var, s.rhs1_off)]);
                        if let Some((a2, o2)) = s.rhs2 {
                            let r2 = b.read(arrays[a2], vec![Subscript::var(var, o2)]);
                            rhs = if s.div {
                                Expr::Bin(gcr_ir::BinOp::Div, Box::new(rhs), Box::new(r2))
                            } else {
                                Expr::add(rhs, r2)
                            };
                        }
                        rhs = Expr::Call("f", vec![rhs, Expr::Var { var, offset: 0 }]);
                        match s.kind {
                            2 => b.reduce(ReduceOp::Sum, sc, vec![], rhs),
                            3 => b.reduce(
                                ReduceOp::Max,
                                arrays[s.lhs],
                                vec![Subscript::var(var, s.lhs_off)],
                                rhs,
                            ),
                            _ => b.assign(arrays[s.lhs], vec![Subscript::var(var, s.lhs_off)], rhs),
                        }
                    })
                    .collect();
                let l = b.for_(var, LinExpr::konst(3), LinExpr::param(n).add_const(-3), body);
                let l = match l {
                    Stmt::Loop(mut lp) => {
                        for (k, s) in stmts.iter().enumerate() {
                            if let Some((glo, ghi)) = s.guard {
                                lp.body[k].guard = Some(Range::consts(glo, ghi));
                            }
                        }
                        Stmt::Loop(lp)
                    }
                    _ => unreachable!(),
                };
                b.push(l);
            }
            RItem::Nest { di, dj, guard, outer } => {
                let vi = b.var(format!("i{li}"));
                let vj = b.var(format!("j{li}"));
                let rd = b.read(m2, vec![Subscript::var(vj, *dj), Subscript::var(vi, *di)]);
                let s = b.assign(
                    m2,
                    vec![Subscript::var(vj, 0), Subscript::var(vi, 0)],
                    Expr::Call("g", vec![rd]),
                );
                let inner = b.for_(vj, LinExpr::konst(3), LinExpr::param(n).add_const(-3), vec![s]);
                let inner = match inner {
                    Stmt::Loop(mut lp) => {
                        if let Some((glo, ghi)) = guard {
                            lp.body[0].guard = Some(Range::consts(*glo, *ghi));
                        }
                        if let Some((olo, ohi)) = outer {
                            // Condition the inner member on the *enclosing*
                            // variable — evaluated at inner-loop entry, once
                            // per outer iteration (the fusion idiom).
                            lp.body[0].outer = vec![(vi, Range::consts(*olo, *ohi))];
                        }
                        Stmt::Loop(lp)
                    }
                    _ => unreachable!(),
                };
                let outer_loop =
                    b.for_(vi, LinExpr::konst(3), LinExpr::param(n).add_const(-3), vec![inner]);
                b.push(outer_loop);
            }
            RItem::Boundary { lhs, c1, rhs, c2 } => {
                let r = b.read(arrays[*rhs], vec![Subscript::konst(*c2)]);
                let s =
                    b.assign(arrays[*lhs], vec![Subscript::konst(*c1)], Expr::Call("g", vec![r]));
                b.push(s);
            }
        }
    }
    b.finish()
}

/// A regrouped-style layout: the three 1-D arrays interleaved at stride
/// `3·ELEM`, then the 2-D array and the scalar — the shape `gcr-core`'s
/// regrouping produces, built by hand so this crate needn't depend on it.
fn interleaved_layout(n: i64) -> DataLayout {
    const E: usize = 8;
    let nn = n as usize;
    let mut arrays: Vec<ArrayLayout> = (0..NARRAYS)
        .map(|k| ArrayLayout { base: k * E, strides: vec![NARRAYS * E], extents: vec![n] })
        .collect();
    let m_base = NARRAYS * E * nn;
    arrays.push(ArrayLayout { base: m_base, strides: vec![E, E * nn], extents: vec![n, n] });
    let s_base = m_base + E * nn * nn;
    arrays.push(ArrayLayout { base: s_base, strides: vec![], extents: vec![] });
    DataLayout { arrays, total_bytes: s_base + E }
}

struct RunOut {
    events: Vec<Event>,
    stats: ExecStats,
    bits: Vec<Vec<u64>>,
    checksum: f64,
    fueled: Result<(), GcrError>,
    fueled_events: Vec<Event>,
}

fn run_engine(
    prog: &Program,
    layout: &DataLayout,
    n: i64,
    engine: ExecEngine,
    fuel: u64,
) -> RunOut {
    let bind = ParamBinding::new(vec![n]);
    let mut m = Machine::with_layout(prog, bind.clone(), layout.clone()).with_engine(engine);
    if engine != ExecEngine::Interp {
        assert!(m.compiles(), "generated program must be in the compiler's domain");
    }
    let mut cap = Cap::default();
    m.run_steps(&mut cap, 2);
    let stats = m.stats();
    let bits = (0..prog.arrays.len())
        .map(|i| m.read_array(ArrayId::from_index(i)).into_iter().map(f64::to_bits).collect())
        .collect();
    let checksum = m.checksum();
    // Fresh machine for the fuel experiment: exhaustion behaviour must
    // match from a cold start.
    let mut mf = Machine::with_layout(prog, bind, layout.clone()).with_engine(engine);
    let mut capf = Cap::default();
    let fueled = mf.run_steps_guarded(&mut capf, 2, fuel);
    RunOut { events: cap.0, stats, bits, checksum, fueled, fueled_events: capf.0 }
}

fn check_equivalence(prog: &Program, layout: &DataLayout, n: i64, fuel: u64) {
    let interp = run_engine(prog, layout, n, ExecEngine::Interp, fuel);
    let vm = run_engine(prog, layout, n, ExecEngine::Vm, fuel);
    assert_eq!(interp.events, vm.events, "event stream diverged");
    assert_eq!(interp.stats, vm.stats, "ExecStats diverged");
    assert_eq!(interp.bits, vm.bits, "memory image diverged (bitwise)");
    assert_eq!(interp.checksum.to_bits(), vm.checksum.to_bits(), "checksum diverged");
    assert_eq!(interp.fueled, vm.fueled, "fuel-exhaustion result diverged");
    assert_eq!(interp.fueled_events, vm.fueled_events, "fueled event stream diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// VM and interpreted execution agree on every observable, for every
    /// layout shape, with and without a fuel budget.
    #[test]
    fn vm_matches_interpreter(
        items in proptest::collection::vec(item_strategy(), 1..5),
        n in 12i64..=20,
        fuel in 1u64..400,
    ) {
        let prog = build(&items);
        let bind = ParamBinding::new(vec![n]);
        let plain = DataLayout::column_major(&prog, &bind, 0);
        let padded = DataLayout::column_major(&prog, &bind, 64);
        let interleaved = interleaved_layout(n);
        for layout in [&plain, &padded, &interleaved] {
            check_equivalence(&prog, layout, n, fuel);
        }
    }
}

/// A variable used outside its loop is outside the compiler's domain: the
/// machine must fall back to the interpreter rather than miscompile.
#[test]
fn stale_variable_use_falls_back_to_interpreter() {
    let mut b = ProgramBuilder::new("stale");
    let n = b.param("N");
    let a = b.array("A", &[LinExpr::param(n)]);
    let i = b.var("i");
    let s0 = b.assign(a, vec![Subscript::var(i, 0)], Expr::Const(1.0));
    let l = b.for_(i, LinExpr::konst(1), LinExpr::param(n), vec![s0]);
    b.push(l);
    // `A[i] = 2` *after* the loop: `i` is stale here.
    let s1 = b.assign(a, vec![Subscript::var(i, 0)], Expr::Const(2.0));
    b.push(s1);
    let p = b.finish();
    let bind = ParamBinding::new(vec![6]);
    let mut m = Machine::new(&p, bind.clone()).with_engine(ExecEngine::Vm);
    assert!(!m.compiles(), "stale-variable program must not compile");
    // Fallback still runs with interpreter semantics.
    let mut cap = Cap::default();
    m.run(&mut cap);
    let mut mi = Machine::new(&p, bind).with_engine(ExecEngine::Interp);
    let mut capi = Cap::default();
    mi.run(&mut capi);
    assert_eq!(cap.0, capi.0);
    assert_eq!(m.read_array(ArrayId::from_index(0)), mi.read_array(ArrayId::from_index(0)));
}
