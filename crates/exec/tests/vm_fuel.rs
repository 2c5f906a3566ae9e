//! Fuel-boundary bisection: the VM's partial-run behaviour must match the
//! interpreter event-for-event at *every* fuel level, not just at the
//! halfway points the conformance oracle probes.
//!
//! The VM charges planned segments in bulk and takes the strip path only
//! when the remaining fuel provably covers the whole segment under the
//! mask of the current loop entry; these tests sweep fuel exhaustively from
//! 0 to past the program's total cost, so every bulk/exact boundary —
//! segment entry with exactly enough fuel, one unit short, exhaustion
//! mid-segment on the exact path — is crossed for every program shape the
//! strip executor specializes (single-statement kernels, fused
//! multi-statement segments, loop-carried chains, reductions, guarded
//! bodies whose segments differ, and bodies under outer conditions, whose
//! strips run a different member subset per loop entry).

use gcr_exec::{AccessEvent, ExecEngine, Machine, TraceBatch, TraceSink};
use gcr_ir::{
    Expr, GcrError, LinExpr, ParamBinding, ProgramBuilder, Range, ReduceOp, Stmt, StmtId, Subscript,
};

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

struct Partial {
    outcome: Result<(), GcrError>,
    events: Vec<Event>,
    stats: gcr_exec::ExecStats,
    bits: Vec<Vec<u64>>,
}

fn run_at(prog: &gcr_ir::Program, n: i64, engine: ExecEngine, fuel: u64) -> Partial {
    let mut m = Machine::new(prog, ParamBinding::new(vec![n])).with_engine(engine);
    let mut cap = Cap::default();
    let outcome = m.run_steps_guarded(&mut cap, 2, fuel);
    let bits = (0..prog.arrays.len())
        .map(|i| {
            m.read_array(gcr_ir::ArrayId::from_index(i)).into_iter().map(f64::to_bits).collect()
        })
        .collect();
    Partial { outcome, events: cap.0, stats: m.stats(), bits }
}

/// Sweeps every fuel level from 0 to two past the first that lets the
/// program finish, and requires the VM's partial run to match the
/// interpreter on outcome, event stream, stats, and memory bits at each
/// one.
fn bisect_fuel(prog: &gcr_ir::Program, n: i64) {
    let full = run_at(prog, n, ExecEngine::Interp, u64::MAX);
    assert!(full.outcome.is_ok());
    assert!(full.stats.instances > 0, "test program must execute something");
    let (mut fuel, mut finished) = (0, 0);
    while finished < 3 {
        let a = run_at(prog, n, ExecEngine::Interp, fuel);
        finished += u32::from(a.outcome.is_ok());
        let b = run_at(prog, n, ExecEngine::Vm, fuel);
        assert_eq!(a.outcome, b.outcome, "outcome diverged at fuel {fuel}");
        assert_eq!(a.stats, b.stats, "stats diverged at fuel {fuel}");
        assert_eq!(
            a.events.len(),
            b.events.len(),
            "event count diverged at fuel {fuel} ({} vs {})",
            a.events.len(),
            b.events.len()
        );
        assert_eq!(a.events, b.events, "event stream diverged at fuel {fuel}");
        assert_eq!(a.bits, b.bits, "memory diverged at fuel {fuel}");
        fuel += 1;
    }
}

/// Single-statement stencil: the pure statement-major kernel path.
#[test]
fn fuel_bisection_stencil() {
    let mut b = ProgramBuilder::new("stencil");
    let n = b.param("N");
    let a = b.array("A", &[LinExpr::param(n)]);
    let c = b.array("B", &[LinExpr::param(n)]);
    let i = b.var("i");
    let r1 = b.read(a, vec![Subscript::var(i, -1)]);
    let r2 = b.read(a, vec![Subscript::var(i, 0)]);
    let r3 = b.read(a, vec![Subscript::var(i, 1)]);
    let s = b.assign(c, vec![Subscript::var(i, 0)], Expr::add(Expr::add(r1, r2), r3));
    let l = b.for_(i, LinExpr::konst(2), LinExpr::param(n).add_const(-1), vec![s]);
    b.push(l);
    bisect_fuel(&b.finish(), 11);
}

/// Loop-carried chain `A[i] = A[i-1] + A[i]`: the kernel must preserve the
/// sequential dependence within a strip.
#[test]
fn fuel_bisection_loop_carried_chain() {
    let mut b = ProgramBuilder::new("chain");
    let n = b.param("N");
    let a = b.array("A", &[LinExpr::param(n)]);
    let i = b.var("i");
    let r1 = b.read(a, vec![Subscript::var(i, -1)]);
    let r2 = b.read(a, vec![Subscript::var(i, 0)]);
    let s = b.assign(a, vec![Subscript::var(i, 0)], Expr::add(r1, r2));
    let l = b.for_(i, LinExpr::konst(2), LinExpr::param(n), vec![s]);
    b.push(l);
    bisect_fuel(&b.finish(), 13);
}

/// Fused multi-statement segment with a cross-statement flow dependence
/// (`B[i] = A[i]·A[i]; C[i] = B[i] + A[i]`): iteration order across the
/// statements is observable through B.
#[test]
fn fuel_bisection_fused_segment() {
    let mut b = ProgramBuilder::new("fused");
    let n = b.param("N");
    let a = b.array("A", &[LinExpr::param(n)]);
    let bb = b.array("B", &[LinExpr::param(n)]);
    let cc = b.array("C", &[LinExpr::param(n)]);
    let i = b.var("i");
    let r1 = b.read(a, vec![Subscript::var(i, 0)]);
    let r2 = b.read(a, vec![Subscript::var(i, 0)]);
    let s1 = b.assign(bb, vec![Subscript::var(i, 0)], Expr::mul(r1, r2));
    let r3 = b.read(bb, vec![Subscript::var(i, 0)]);
    let r4 = b.read(a, vec![Subscript::var(i, 0)]);
    let s2 = b.assign(cc, vec![Subscript::var(i, 0)], Expr::add(r3, r4));
    let l = b.for_(i, LinExpr::konst(1), LinExpr::param(n), vec![s1, s2]);
    b.push(l);
    bisect_fuel(&b.finish(), 10);
}

/// Scalar sum-reduction plus an array max-reduction: the reduce read event
/// and combine order must survive batching and partial runs.
#[test]
fn fuel_bisection_reductions() {
    let mut b = ProgramBuilder::new("reduce");
    let n = b.param("N");
    let a = b.array("A", &[LinExpr::param(n)]);
    let m = b.array("M", &[LinExpr::param(n)]);
    let sc = b.scalar("s");
    let i = b.var("i");
    let r1 = b.read(a, vec![Subscript::var(i, 0)]);
    let s1 = b.reduce(ReduceOp::Sum, sc, vec![], r1);
    let r2 = b.read(a, vec![Subscript::var(i, -1)]);
    let s2 = b.reduce(ReduceOp::Max, m, vec![Subscript::var(i, 0)], r2);
    let l = b.for_(i, LinExpr::konst(2), LinExpr::param(n), vec![s1, s2]);
    b.push(l);
    bisect_fuel(&b.finish(), 9);
}

/// Guarded body: guard resolution produces both flat (strip-eligible) and
/// guarded (exact-path) segments in one loop, so the fuel sweep crosses
/// the boundary between the two within a single run.
#[test]
fn fuel_bisection_guarded() {
    let mut b = ProgramBuilder::new("guarded");
    let n = b.param("N");
    let a = b.array("A", &[LinExpr::param(n)]);
    let c = b.array("B", &[LinExpr::param(n)]);
    let i = b.var("i");
    let r1 = b.read(a, vec![Subscript::var(i, 0)]);
    let s1 = b.assign(c, vec![Subscript::var(i, 0)], Expr::Call("f", vec![r1]));
    let r2 = b.read(c, vec![Subscript::var(i, 0)]);
    let s2 = b.assign(a, vec![Subscript::var(i, 0)], r2);
    let l = b.for_(i, LinExpr::konst(1), LinExpr::param(n), vec![s1, s2]);
    let l = match l {
        Stmt::Loop(mut lp) => {
            lp.body[1].guard = Some(Range::consts(4, 7));
            Stmt::Loop(lp)
        }
        _ => unreachable!(),
    };
    b.push(l);
    bisect_fuel(&b.finish(), 12);
}

/// Intrinsic-call chain (`B[i] = f(A[i-1], A[i], A[i+1])`): the
/// `Const 0 + ReadAdd… + Intrinsic` tape the intrinsic lowering emits.
#[test]
fn fuel_bisection_intrinsic_chain() {
    let mut b = ProgramBuilder::new("intrinsic");
    let n = b.param("N");
    let a = b.array("A", &[LinExpr::param(n)]);
    let c = b.array("B", &[LinExpr::param(n)]);
    let i = b.var("i");
    let r1 = b.read(a, vec![Subscript::var(i, -1)]);
    let r2 = b.read(a, vec![Subscript::var(i, 0)]);
    let r3 = b.read(a, vec![Subscript::var(i, 1)]);
    let s = b.assign(c, vec![Subscript::var(i, 0)], Expr::Call("f", vec![r1, r2, r3]));
    let l = b.for_(i, LinExpr::konst(2), LinExpr::param(n).add_const(-1), vec![s]);
    b.push(l);
    bisect_fuel(&b.finish(), 11);
}

/// A body under outer conditions: every inner-loop entry runs the same
/// strip plan under a different mask (nothing, one statement, two, all
/// three), next to a guard that splits the inner range. Exhaustion inside
/// a masked segment must take the exact path with the interpreter's error
/// and event prefix, at every fuel value.
const MASKED: &str = "
program masked
param N
array A[N, N], B[N, N]
for i = 1, N {
  for j = 2, N - 1 {
    when i in [2, 3] A[j, i] = f(A[j-1, i], B[j, i])
    B[j, i] = A[j, i] + B[j+1, i]
    when i in [3, N - 1] when [3, N - 2] A[j, i] max= B[j-1, i]
  }
}
";

#[test]
fn fuel_bisection_masked_strips() {
    let prog = gcr_frontend::parse(MASKED).unwrap();
    let mut m = Machine::new(&prog, ParamBinding::new(vec![6])).with_engine(ExecEngine::Vm);
    assert!(m.compiles(), "{:?}", m.refusal());
    bisect_fuel(&prog, 6);
}

/// One batch as a sink receives it: the statement of every slot, the
/// instance boundaries, the iteration count.
type Batch = (Vec<usize>, Vec<(u32, usize)>, u32);

#[derive(Default)]
struct Batches {
    batches: Vec<Batch>,
    singles: usize,
}

impl TraceSink for Batches {
    fn access(&mut self, _ev: AccessEvent) {
        self.singles += 1;
    }
    fn record_batch(&mut self, batch: &TraceBatch<'_>) {
        self.batches.push((
            batch.slots.iter().map(|sl| sl.stmt.index()).collect(),
            batch.ends.iter().map(|&(end, stmt)| (end, stmt.index())).collect(),
            batch.iters,
        ));
    }
}

/// One loop, one strip plan, entered under different masks: each entry's
/// batch carries exactly the slots and instance boundaries of the members
/// its mask leaves on, with the boundary offsets recomputed for the
/// shorter iteration.
#[test]
fn one_plan_emits_a_different_batch_per_mask() {
    let prog = gcr_frontend::parse(
        "
program masks
param N
array A[N, N], B[N, N]
for i = 1, N {
  for j = 1, N {
    when i in [2, 3] A[j, i] = B[j, i]
    B[j, i] = f(B[j, i])
    when i in [3, 4] A[j, i] sum= B[j, i]
  }
}
",
    )
    .unwrap();
    let mut m = Machine::new(&prog, ParamBinding::new(vec![5])).with_engine(ExecEngine::Vm);
    let mut sink = Batches::default();
    m.run(&mut sink);
    assert_eq!(sink.singles, 0, "every inner-loop entry must run as a strip");
    // Statement 0 has a read and a write, statement 1 the same, statement
    // 2 a read, the reduction's own read, and the write.
    let only_1: Batch = (vec![1, 1], vec![(2, 1)], 5);
    let expected: Vec<Batch> = vec![
        only_1.clone(),
        (vec![0, 0, 1, 1], vec![(2, 0), (4, 1)], 5),
        (vec![0, 0, 1, 1, 2, 2, 2], vec![(2, 0), (4, 1), (7, 2)], 5),
        (vec![1, 1, 2, 2, 2], vec![(2, 1), (5, 2)], 5),
        only_1,
    ];
    assert_eq!(sink.batches, expected);
}
