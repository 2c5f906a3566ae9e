//! Cross-crate integration tests: frontend → optimizer → interpreter →
//! simulators, over the real benchmark applications.

use global_cache_reuse::cache::{HierarchySink, MemoryHierarchy};
use global_cache_reuse::exec::{Machine, NullSink};
use global_cache_reuse::ir::ParamBinding;
use global_cache_reuse::opt::pipeline::{apply_strategy, Strategy};
use global_cache_reuse::opt::regroup::RegroupLevel;

const STRATEGIES: [Strategy; 5] = [
    Strategy::Original,
    Strategy::Sgi,
    Strategy::FusionOnly { levels: 3 },
    Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::Multi },
    Strategy::RegroupOnly,
];

/// Every strategy on every app: validates, runs, and performs the same
/// number of logical accesses as the original (transformations reorder
/// work, never add or remove it).
#[test]
fn strategies_preserve_work() {
    for app in gcr_apps::evaluation_apps() {
        let (prog, bind) = (app.build)(12);
        let mut baseline = None;
        for strategy in STRATEGIES {
            let opt = apply_strategy(&prog, strategy);
            assert!(
                !opt.robustness.degraded(),
                "{} {:?}: {:?}",
                app.name,
                strategy,
                opt.robustness.describe()
            );
            global_cache_reuse::ir::validate::validate(&opt.program)
                .unwrap_or_else(|e| panic!("{} {:?}: {e:?}", app.name, strategy));
            let layout = opt.layout(&bind);
            let mut m = Machine::with_layout(&opt.program, bind.clone(), layout);
            m.run(&mut NullSink);
            let accesses = m.stats().accesses();
            let base = *baseline.get_or_insert(accesses);
            assert_eq!(accesses, base, "{} {:?}", app.name, strategy);
        }
    }
}

/// The full measurement stack produces coherent miss counts: refs ≥ L1
/// misses ≥ L2 misses, and TLB misses bounded by refs.
#[test]
fn miss_counts_are_coherent() {
    for app in gcr_apps::evaluation_apps() {
        let (prog, bind) = (app.build)(16);
        let opt = apply_strategy(&prog, Strategy::Original);
        let layout = opt.layout(&bind);
        let mut m = Machine::with_layout(&opt.program, bind, layout);
        let mut sink = HierarchySink::new(MemoryHierarchy::origin2000_scaled(8, 16));
        m.run(&mut sink);
        let c = sink.hierarchy.counts();
        assert_eq!(c.refs, m.stats().accesses(), "{}", app.name);
        assert!(c.l1 <= c.refs);
        assert!(c.l2 <= c.l1, "{}: L2 sees only L1 misses", app.name);
        assert!(c.tlb <= c.refs);
        assert!(c.l1 > 0, "{}: a real program misses sometimes", app.name);
    }
}

/// Fused + regrouped execution computes the same values as the original
/// for all four applications (two time steps, element-exact for plain
/// assignments).
#[test]
fn full_pipeline_is_semantics_preserving() {
    for app in gcr_apps::evaluation_apps() {
        let (prog, bind) = (app.build)(12);
        let opt = apply_strategy(
            &prog,
            Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::Multi },
        );
        assert!(!opt.robustness.degraded(), "{}: {:?}", app.name, opt.robustness.describe());
        let mut m1 = Machine::new(&prog, bind.clone());
        let layout = opt.layout(&bind);
        let mut m2 = Machine::with_layout(&opt.program, bind, layout);
        // Equalize initial data for arrays whose identity changed (splits).
        for (ai, decl) in prog.arrays.iter().enumerate() {
            let vals = m1.read_array(global_cache_reuse::ir::ArrayId::from_index(ai));
            if let Some(t) = opt.program.array_by_name(&decl.name) {
                if opt.program.array(t).rank() == decl.rank() {
                    m2.write_array(t, &vals).unwrap();
                    continue;
                }
            }
            let comps = decl.dims[0].as_const().expect("split dim is constant") as usize;
            for cidx in 0..comps {
                let part = opt
                    .program
                    .array_by_name(&format!("{}__{}", decl.name, cidx + 1))
                    .expect("split component exists");
                let slice: Vec<f64> = vals.iter().skip(cidx).step_by(comps).copied().collect();
                m2.write_array(part, &slice).unwrap();
            }
        }
        m1.run_steps(&mut NullSink, 2);
        m2.run_steps(&mut NullSink, 2);
        for (ai, decl) in prog.arrays.iter().enumerate() {
            if decl.is_scalar() {
                continue; // reductions may reassociate
            }
            let v1 = m1.read_array(global_cache_reuse::ir::ArrayId::from_index(ai));
            if let Some(t) = opt.program.array_by_name(&decl.name) {
                if opt.program.array(t).rank() == decl.rank() {
                    let v2 = m2.read_array(t);
                    for (k, (x, y)) in v1.iter().zip(&v2).enumerate() {
                        assert!(
                            (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                            "{} array {} elem {k}: {x} vs {y}",
                            app.name,
                            decl.name
                        );
                    }
                }
            }
        }
    }
}

/// Transformed programs round-trip through the printer and parser.
#[test]
fn transformed_programs_reparse() {
    for app in gcr_apps::evaluation_apps() {
        let (prog, _) = (app.build)(12);
        let opt = apply_strategy(&prog, Strategy::FusionOnly { levels: 3 });
        assert!(!opt.robustness.degraded(), "{}: {:?}", app.name, opt.robustness.describe());
        let text = global_cache_reuse::ir::print::print_program(&opt.program);
        let reparsed = global_cache_reuse::frontend::parse(&text)
            .unwrap_or_else(|e| panic!("{}: reparse failed: {e}\n{text}", app.name));
        let text2 = global_cache_reuse::ir::print::print_program(&reparsed);
        assert_eq!(text, text2, "{}: printer fixpoint", app.name);
    }
}

/// The facade crate exposes the whole stack.
#[test]
fn facade_reexports() {
    let p = global_cache_reuse::frontend::parse(
        "program t\nparam N\narray A[N]\nfor i = 1, N {\n A[i] = f(A[i])\n}\n",
    )
    .unwrap();
    let st = global_cache_reuse::analysis::stats::program_stats(&p);
    assert_eq!(st.loops, 1);
    let mut m = Machine::new(&p, ParamBinding::new(vec![4]));
    m.run(&mut NullSink);
    assert_eq!(m.stats().instances, 4);
}

/// Every transformed program passes the static bounds checker — no
/// transformation may manufacture an out-of-bounds access.
#[test]
fn transformed_programs_stay_in_bounds() {
    for app in gcr_apps::evaluation_apps() {
        for strategy in STRATEGIES {
            let (prog, _) = (app.build)(12);
            let opt = apply_strategy(&prog, strategy);
            assert!(
                !opt.robustness.degraded(),
                "{} {:?}: {:?}",
                app.name,
                strategy,
                opt.robustness.describe()
            );
            let issues = global_cache_reuse::analysis::bounds::check_bounds(&opt.program);
            assert!(issues.is_empty(), "{} {:?}: {issues:?}", app.name, strategy);
        }
    }
}
