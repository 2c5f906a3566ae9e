//! The program versions of the paper's evaluation and what the optimizer
//! delivers for them.
//!
//! [`Strategy`] names the versions the evaluation compares (original,
//! SGI-like baseline, fusion only, fusion + regrouping, and the ablations)
//! and [`OptimizeOptions`] the passes behind each. [`apply_strategy`]
//! produces the transformed program plus a regrouping plan through the one
//! pass sequence, [`crate::checked`]'s ladder (Section 4.1's
//! implementation order: preliminary transformations → reuse-based loop
//! fusion, level by level → multi-level data regrouping), with the oracle
//! off. The concrete [`DataLayout`] is materialized per parameter binding
//! with [`OptimizedProgram::layout`].

pub use crate::checked::apply_strategy;

use crate::baseline::BaselineReport;
use crate::fusion::{FusionOptions, FusionReport};
use crate::prelim::PrelimReport;
use crate::regroup::{self, RegroupLevel, RegroupOptions, RegroupPlan, RegroupReport};
use gcr_exec::DataLayout;
use gcr_ir::{ParamBinding, Program};

/// Pipeline options.
#[derive(Clone, Copy, Debug)]
pub struct OptimizeOptions {
    /// Run the preliminary passes (unroll/split/distribute/fold).
    pub prelim: bool,
    /// Small-dimension limit for unrolling and array splitting.
    pub small_dim_limit: i64,
    /// Run reuse-based fusion.
    pub fusion: bool,
    /// Fusion parameters.
    pub fusion_opts: FusionOptions,
    /// Run data regrouping (otherwise the default column-major layout).
    pub regroup: bool,
    /// Regrouping parameters.
    pub regroup_opts: RegroupOptions,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            prelim: true,
            small_dim_limit: 8,
            fusion: true,
            fusion_opts: FusionOptions::default(),
            regroup: true,
            regroup_opts: RegroupOptions::default(),
        }
    }
}

/// A named program version from the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Unoptimized program, plain column-major layout.
    Original,
    /// Local strategies: adjacent conforming fusion + inter-array padding.
    Sgi,
    /// Reuse-based fusion only (default layout) — "computation fusion".
    FusionOnly {
        /// Loop levels fused.
        levels: usize,
    },
    /// Fusion + multi-level regrouping — the paper's full strategy.
    FusionRegroup {
        /// Loop levels fused.
        levels: usize,
        /// Regrouping aggressiveness.
        regroup: RegroupLevel,
    },
    /// Ablation: regrouping without fusion.
    RegroupOnly,
    /// Ablation: fusion with reuse-driven alignment disabled (loops fuse
    /// only when alignment 0 is legal).
    FusionNoAlign {
        /// Loop levels fused.
        levels: usize,
    },
}

impl Strategy {
    /// Parses the user-facing strategy names shared by the `gcrc` command
    /// line and the `gcr-serve` request protocol. `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Strategy> {
        Some(match name {
            "original" => Strategy::Original,
            "sgi" => Strategy::Sgi,
            "fuse" => Strategy::FusionOnly { levels: 3 },
            "fuse1" => Strategy::FusionOnly { levels: 1 },
            "fuse+group" => Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::Multi },
            "group" => Strategy::RegroupOnly,
            _ => return None,
        })
    }

    /// Short label for report tables.
    pub fn label(&self) -> String {
        match self {
            Strategy::Original => "original".into(),
            Strategy::Sgi => "sgi-like".into(),
            Strategy::FusionOnly { levels } => format!("fuse{levels}"),
            Strategy::FusionRegroup { levels, regroup: RegroupLevel::Multi } => {
                format!("fuse{levels}+group")
            }
            Strategy::FusionRegroup { levels, regroup: RegroupLevel::ElementOnly } => {
                format!("fuse{levels}+elem")
            }
            Strategy::FusionRegroup { levels, regroup: RegroupLevel::AvoidInnermost } => {
                format!("fuse{levels}+outer")
            }
            Strategy::RegroupOnly => "group-only".into(),
            Strategy::FusionNoAlign { levels } => format!("fuse{levels}-noalign"),
        }
    }

    /// The pipeline options implementing this strategy.
    pub fn options(&self) -> OptimizeOptions {
        let mut o = OptimizeOptions::default();
        match *self {
            Strategy::Original => {
                o.prelim = false;
                o.fusion = false;
                o.regroup = false;
            }
            Strategy::Sgi => {
                o.prelim = false;
                o.fusion = false;
                o.regroup = false;
            }
            Strategy::FusionOnly { levels } => {
                o.fusion_opts.max_levels = levels;
                o.regroup = false;
            }
            Strategy::FusionRegroup { levels, regroup } => {
                o.fusion_opts.max_levels = levels;
                o.regroup_opts.level = regroup;
            }
            Strategy::RegroupOnly => {
                o.fusion = false;
            }
            Strategy::FusionNoAlign { levels } => {
                o.fusion_opts.max_levels = levels;
                o.fusion_opts.align = false;
                o.regroup = false;
            }
        }
        o
    }
}

/// Result of the pipeline.
#[derive(Clone, Debug)]
pub struct OptimizedProgram {
    /// The transformed program.
    pub program: Program,
    /// Preliminary-pass statistics.
    pub prelim: PrelimReport,
    /// Fusion statistics.
    pub fusion: FusionReport,
    /// Baseline statistics (only for [`Strategy::Sgi`]).
    pub baseline: BaselineReport,
    /// Regrouping decision (`None` when regrouping is off).
    pub plan: Option<RegroupPlan>,
    /// Regrouping statistics.
    pub regroup: RegroupReport,
    /// Padding for the default layout (baseline uses one L2 line).
    pub pad_bytes: usize,
    /// What the optimizer delivered and what it gave up: the delivered
    /// strategy's label, its checkpoints and every fallback, on the checked
    /// path and on [`apply_strategy`] alike.
    pub robustness: crate::checked::RobustnessReport,
}

impl OptimizedProgram {
    /// Materializes the data layout for a concrete input size.
    pub fn layout(&self, binding: &ParamBinding) -> DataLayout {
        match &self.plan {
            Some(plan) => regroup::layout(&self.program, plan, binding, self.pad_bytes),
            None => DataLayout::column_major(&self.program, binding, self.pad_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BASELINE_PAD_BYTES;
    use crate::checked::{apply_strategy_checked, SafetyOptions};
    use gcr_exec::{Machine, NullSink};
    use gcr_frontend::parse;

    const SRC: &str = "
program pipe
param N
array A[N, N], B[N, N], C[N, N]

for i = 2, N - 1 {
  for j = 2, N - 1 {
    A[j, i] = 0.25 * (A[j-1, i] + A[j+1, i] + B[j, i-1] + B[j, i+1])
  }
}
for i = 2, N - 1 {
  for j = 2, N - 1 {
    B[j, i] = f(A[j, i])
  }
}
for i = 2, N - 1 {
  for j = 2, N - 1 {
    C[j, i] = g(B[j, i], C[j, i])
  }
}
";

    #[test]
    fn full_pipeline_preserves_semantics() {
        let orig = parse(SRC).unwrap();
        for strategy in [
            Strategy::Original,
            Strategy::Sgi,
            Strategy::FusionOnly { levels: 1 },
            Strategy::FusionOnly { levels: 3 },
            Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::Multi },
            Strategy::RegroupOnly,
        ] {
            let opt = apply_strategy(&orig, strategy);
            assert!(!opt.robustness.degraded(), "{strategy:?}: {:?}", opt.robustness.describe());
            gcr_ir::validate::validate(&opt.program)
                .unwrap_or_else(|e| panic!("{strategy:?}: {e:?}"));
            let bind = ParamBinding::new(vec![10]);
            let mut m1 = Machine::new(&orig, bind.clone());
            m1.run_steps(&mut NullSink, 2);
            let layout = opt.layout(&bind);
            let mut m2 = Machine::with_layout(&opt.program, bind, layout);
            m2.run_steps(&mut NullSink, 2);
            for (ai, decl) in orig.arrays.iter().enumerate() {
                let a1 = gcr_ir::ArrayId::from_index(ai);
                let a2 = opt.program.array_by_name(&decl.name).unwrap();
                assert_eq!(
                    m1.read_array(a1),
                    m2.read_array(a2),
                    "{strategy:?} array {}",
                    decl.name
                );
            }
        }
    }

    #[test]
    fn apply_strategy_delivers_the_strategy_with_the_checked_paths_checkpoints() {
        let orig = parse(SRC).unwrap();
        for strategy in [
            Strategy::Original,
            Strategy::Sgi,
            Strategy::FusionOnly { levels: 1 },
            Strategy::FusionOnly { levels: 3 },
            Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::Multi },
            Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::ElementOnly },
            Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::AvoidInnermost },
            Strategy::RegroupOnly,
            Strategy::FusionNoAlign { levels: 3 },
        ] {
            let opt = apply_strategy(&orig, strategy);
            assert_eq!(opt.robustness.strategy, strategy.label(), "{strategy:?}");
            assert!(!opt.robustness.degraded(), "{strategy:?}");
            let checked =
                apply_strategy_checked(&orig, strategy, &SafetyOptions::default()).unwrap();
            assert_eq!(opt.robustness.checks, checked.robustness.checks, "{strategy:?}");
            assert_eq!(
                gcr_ir::print::print_program(&opt.program),
                gcr_ir::print::print_program(&checked.program),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn strategies_have_distinct_labels() {
        let labels: Vec<String> = [
            Strategy::Original,
            Strategy::Sgi,
            Strategy::FusionOnly { levels: 1 },
            Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::Multi },
            Strategy::RegroupOnly,
        ]
        .iter()
        .map(|s| s.label())
        .collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels, dedup);
    }

    #[test]
    fn fusion_strategy_reduces_nests() {
        let orig = parse(SRC).unwrap();
        let opt = apply_strategy(&orig, Strategy::FusionOnly { levels: 3 });
        assert_eq!(opt.program.count_nests(), 1, "{}", gcr_ir::print::print_program(&opt.program));
    }

    #[test]
    fn regroup_strategy_produces_interleaved_layout() {
        let orig = parse(SRC).unwrap();
        let opt = apply_strategy(
            &orig,
            Strategy::FusionRegroup { levels: 3, regroup: RegroupLevel::Multi },
        );
        let bind = ParamBinding::new(vec![8]);
        let layout = opt.layout(&bind);
        // Multi-variable guards let every inner loop fuse despite differing
        // outer alignments, so all three arrays share the single innermost
        // loop and interleave at the element level.
        let a = &layout.arrays[orig.array_by_name("A").unwrap().index()];
        let b = &layout.arrays[orig.array_by_name("B").unwrap().index()];
        let c = &layout.arrays[orig.array_by_name("C").unwrap().index()];
        assert_eq!(a.strides[0], 24, "{layout:?}");
        assert_eq!(b.base, a.base + 8);
        assert_eq!(c.base, a.base + 16);
        assert_eq!(c.strides[1], a.strides[1]);
    }

    #[test]
    fn sgi_baseline_pads() {
        let orig = parse(SRC).unwrap();
        let opt = apply_strategy(&orig, Strategy::Sgi);
        let bind = ParamBinding::new(vec![8]);
        let layout = opt.layout(&bind);
        let a = &layout.arrays[0];
        let b = &layout.arrays[1];
        assert_eq!(b.base - (a.base + 8 * 8 * 8), BASELINE_PAD_BYTES);
    }
}
