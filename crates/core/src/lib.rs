#![warn(missing_docs)]

//! `gcr-core` — the paper's contribution: reuse-based loop fusion and
//! multi-level data regrouping, plus the preliminary transformations and the
//! SGI-like local-optimization baseline.
//!
//! The two-step global strategy (Ding & Kennedy, IPPS 2001):
//!
//! 1. **Fuse computations on the same data** ([`fusion`]) — greedy,
//!    incremental loop fusion enabled by statement embedding, loop
//!    alignment and boundary splitting, applied level by level. After
//!    fusion, the reuse distances of fused accesses are bounded by a
//!    constant independent of the input size.
//! 2. **Group data used by the same computation** ([`mod@regroup`]) —
//!    partition the program into computation phases and regroup arrays that
//!    are always accessed together, dimension by dimension from the
//!    outermost, emitting an interleaved [`gcr_exec::DataLayout`].
//!
//! [`prelim`] holds the Section 4.1 preliminary passes (loop distribution,
//! array splitting + loop unrolling, constant folding);
//! [`baseline`] the conservative fusion + padding stand-in for the SGI
//! MIPSpro compiler; [`pipeline`] the strategies of the evaluation and
//! [`checked`] the one ladder that runs their passes.
//!
//! The fail-safe entry point is [`optimize_checked`] (and its
//! [`Tracer`]-carrying variant [`optimize_checked_traced`], which records a
//! [`PassEvent`] per attempted pass):
//!
//! ```
//! use gcr_core::checked::{optimize_checked_traced, SafetyOptions};
//! use gcr_core::{OptimizeOptions, Tracer};
//!
//! let prog = gcr_frontend::parse("
//! program demo
//! param N
//! array A[N], B[N]
//! for i = 1, N {
//!   A[i] = f(A[i])
//! }
//! for i = 1, N {
//!   B[i] = g(A[i], B[i])
//! }
//! ").unwrap();
//! let mut tracer = Tracer::enabled();
//! let opt = optimize_checked_traced(&prog, &OptimizeOptions::default(),
//!                                   &SafetyOptions::default(), &mut tracer)
//!     .unwrap();
//! assert!(!opt.robustness.degraded());
//! assert_eq!(opt.program.count_nests(), 1); // the two loops fused
//! let events = tracer.into_events();
//! assert_eq!(events[0].pass, "prelim");
//! assert!(events.iter().any(|e| e.pass == "fusion@1" && e.ok));
//! ```

pub mod baseline;
pub mod checked;
pub mod fusion;
pub mod pipeline;
pub mod prelim;
pub mod regroup;
pub mod trace;

pub use checked::{
    apply_strategy_checked, apply_strategy_checked_traced, optimize_checked,
    optimize_checked_traced, Fallback, Pass, RobustnessReport, SafetyOptions,
};
pub use fusion::{fuse_program, FusionOptions, FusionReport};
pub use pipeline::{OptimizeOptions, OptimizedProgram};
pub use regroup::{regroup, RegroupOptions, RegroupReport};
pub use trace::{IrSize, PassEvent, Tracer};
