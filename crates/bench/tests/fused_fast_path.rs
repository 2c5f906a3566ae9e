//! Optimizer output must stay on the VM's fast path.
//!
//! The paper hands its fused loops to a code generator that removes the
//! guards; this repository executes the guarded IR directly, so what the
//! optimizer emits — every statement of a fused body under outer
//! conditions, often several on one variable — is the shape the tape
//! compiler and the strip planner have to take. These tests fail when a
//! change to fusion, regrouping or the compiler pushes optimizer output
//! back onto the interpreter or the per-event path, instead of that
//! showing up later as a benchmark cliff.

use gcr_core::pipeline::{apply_strategy, Strategy};
use gcr_core::regroup::RegroupLevel;
use gcr_exec::{AccessEvent, ExecEngine, Machine, TraceBatch, TraceSink, VmPlan};
use gcr_ir::{ArrayId, ParamBinding, Program, Stmt};
use gcr_reuse::TraceCapture;

fn strategies() -> Vec<Strategy> {
    let mut all: Vec<Strategy> = ["original", "sgi", "fuse", "fuse1", "fuse+group", "group"]
        .iter()
        .map(|name| Strategy::from_name(name).unwrap())
        .collect();
    all.push(Strategy::FusionNoAlign { levels: 3 });
    all.push(Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::ElementOnly });
    all.push(Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::AvoidInnermost });
    all
}

/// Trip count of the longest loop of `prog` under `binding`.
fn longest_loop(prog: &Program, binding: &ParamBinding) -> i64 {
    let mut longest = 0;
    prog.walk(|gs, _| {
        if let Stmt::Loop(l) = &gs.stmt {
            longest = longest.max(l.hi.eval(binding) - l.lo.eval(binding) + 1);
        }
    });
    longest
}

/// Every gallery kernel and evaluation app, under every strategy, at the
/// checked optimizer's two oracle sizes and at the kernel's own size:
/// the optimized program compiles to the tape, and wherever it has a loop
/// worth batching the VM plans at least one strip for it.
#[test]
fn optimizer_output_stays_on_the_tape() {
    let mut programs: Vec<(&str, Program, i64)> =
        gcr_apps::gallery().into_iter().map(|k| (k.name, k.build().0, k.default_size)).collect();
    for app in gcr_apps::evaluation_apps() {
        programs.push((app.name, (app.build)(app.default_size).0, app.default_size));
    }
    let mut bad = Vec::new();
    for (name, prog, default_size) in &programs {
        for strategy in strategies() {
            let opt = apply_strategy(prog, strategy);
            assert!(
                !opt.robustness.degraded(),
                "{name} {strategy:?}: {:?}",
                opt.robustness.describe()
            );
            for n in [12, 18, *default_size] {
                let binding = ParamBinding::new(vec![n; prog.params.len()]);
                let layout = opt.layout(&binding);
                let at = format!("{name} / {} / N={n}", strategy.label());
                match gcr_exec::try_compile(&opt.program, &binding, &layout) {
                    Err(why) => bad.push(format!("{at}: refused by the tape compiler: {why}")),
                    Ok(tape) => {
                        let strips = VmPlan::build(&tape).strip_count();
                        if strips == 0 && longest_loop(&opt.program, &binding) >= 8 {
                            bad.push(format!("{at}: compiled, but the VM planned no strip"));
                        }
                    }
                }
            }
        }
    }
    assert!(bad.is_empty(), "optimizer output left the fast path:\n{}", bad.join("\n"));
}

/// Counts how the events of a run arrived.
#[derive(Default)]
struct Arrival {
    batched: u64,
    single: u64,
}

impl TraceSink for Arrival {
    fn access(&mut self, _ev: AccessEvent) {
        self.single += 1;
    }
    fn record_batch(&mut self, batch: &TraceBatch<'_>) {
        self.batched += batch.len() as u64;
    }
}

/// Fused Swim and fused SP — every statement under outer conditions — run
/// as masked strips: nearly all events arrive in batches, and the batched
/// capture expands to exactly the stream, statistics and memory image the
/// interpreter produces event by event.
#[test]
fn fused_apps_batch_and_match_the_interpreter() {
    let fuse_group = Strategy::from_name("fuse+group").unwrap();
    for (prog, n) in [(gcr_apps::swim::program(), 20), (gcr_apps::sp::program(), 9)] {
        let opt = apply_strategy(&prog, fuse_group);
        assert!(!opt.robustness.degraded(), "{}: {:?}", prog.name, opt.robustness.describe());
        let binding = ParamBinding::new(vec![n; prog.params.len()]);
        let machine = |engine: ExecEngine| {
            Machine::with_layout(&opt.program, binding.clone(), opt.layout(&binding))
                .with_engine(engine)
        };
        let mut arrival = Arrival::default();
        machine(ExecEngine::Vm).run_steps(&mut arrival, 2);
        assert!(
            arrival.batched >= 9 * (arrival.batched + arrival.single) / 10,
            "{}: only {} of {} events arrived in batches",
            prog.name,
            arrival.batched,
            arrival.batched + arrival.single
        );
        let capture = |engine: ExecEngine| {
            let mut m = machine(engine);
            let mut cap = TraceCapture::new();
            m.run_steps(&mut cap, 2);
            let bits: Vec<Vec<u64>> = (0..opt.program.arrays.len())
                .map(|a| {
                    m.read_array(ArrayId::from_index(a)).into_iter().map(f64::to_bits).collect()
                })
                .collect();
            (cap.finish(), m.stats(), bits)
        };
        let (vm, vm_stats, vm_bits) = capture(ExecEngine::Vm);
        let (ev, ev_stats, ev_bits) = capture(ExecEngine::Interp);
        assert_eq!(vm.accs, ev.accs, "{}: access streams differ", prog.name);
        assert_eq!(vm.starts, ev.starts, "{}: instance bounds differ", prog.name);
        assert_eq!(vm.stmts, ev.stmts, "{}: statement ids differ", prog.name);
        assert_eq!(vm_stats, ev_stats, "{}: statistics differ", prog.name);
        assert_eq!(vm_bits, ev_bits, "{}: memory differs", prog.name);
    }
}
