#![warn(missing_docs)]

//! `gcr-exec` — program execution and memory-trace generation.
//!
//! The paper's experiments all measure functions of the memory-address
//! stream (cache misses, TLB misses, reuse distances) or a cycle count.
//! Instead of generating Fortran through Omega as the authors did, we
//! execute the transformed IR directly: the [`machine::Machine`]
//! interpreter walks the (guarded) loop nests in exact iteration order and
//! reports every array access — mapped to a byte address through a
//! [`layout::DataLayout`] — to a [`machine::TraceSink`]. This produces the
//! identical address trace compiled code would produce under the same
//! layout, which is what every downstream measurement consumes.
//!
//! The layout is the regrouping transformation's output format: an affine
//! `base + Σ stride·(idx−1)` address function per array. The default layout
//! places arrays sequentially in column-major (Fortran) order; regrouped
//! layouts interleave strides (see `gcr-core::regroup`).
//!
//! Two engines produce that trace: the tree-walking interpreter (the
//! reference semantics) and the register bytecode VM of [`mod@vm`]. The VM
//! runs over the tape of [`mod@compile`]/[`tape`] — an intermediate form
//! that lowers a `(Program, ParamBinding, DataLayout)` triple once into
//! register op tapes with affine address walkers and guard-resolved
//! iteration segments — selecting superinstructions over it and executing
//! guard-free inner segments in whole iteration strips, emitting access
//! events in batches through [`machine::TraceSink::record_batch`]. The two
//! are observationally identical; the engine is selected per
//! [`machine::Machine`] (explicitly, or via `GCR_EXEC`), and the VM is the
//! default for all measurement runs.

pub mod compile;
pub mod layout;
pub mod machine;
pub mod tape;
pub mod vm;

pub use compile::{compile, try_compile, Refusal};
pub use layout::{ArrayLayout, DataLayout};
pub use machine::{
    AccessEvent, BatchSlot, CountingSink, ExecEngine, ExecEstimate, ExecStats, Machine, NullSink,
    Tee, TraceBatch, TraceSink, DEFAULT_MAX_BYTES,
};
pub use tape::CompiledProgram;
pub use vm::VmPlan;
