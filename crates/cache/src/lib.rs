#![warn(missing_docs)]

//! `gcr-cache` — cache, TLB and cycle-time simulation.
//!
//! Stands in for the R10K/R12K hardware counters of the paper's evaluation
//! (Section 4.2): set-associative LRU caches (L1 32 KB/32 B lines/2-way,
//! L2 1–4 MB/128 B lines/2-way on the paper's machines), a fully
//! associative LRU TLB, and a simple in-order cycle model that converts
//! instruction, flop and miss counts into an "execution time".
//!
//! The experiment binaries scale problem sizes down from the paper's
//! (513², 2K², class B) to keep simulated traces tractable, and scale the
//! simulated caches with them so that the problem-size : cache-size
//! geometry is preserved; [`CacheConfig::scaled`] produces those configs.
//!
//! A [`Cache`] simulates one set-associative LRU level; misses and
//! write-backs drive the memory-traffic accounting:
//!
//! ```
//! use gcr_cache::{Cache, CacheConfig};
//!
//! // 2 sets x 2 ways of 32-byte lines = 128 bytes.
//! let mut c = Cache::new(CacheConfig { size: 128, line: 32, assoc: 2 });
//! assert!(!c.access(0));       // cold miss
//! assert!(c.access(8));        // same line: hit
//! assert!(!c.access(64));      // different set: miss
//! assert_eq!((c.hits, c.misses), (1, 2));
//! ```
//!
//! [`MemoryHierarchy`] stacks L1/L2 beside a TLB that shares no state
//! with them, so its batch path replays the TLB per page and the L1→L2
//! pair per L1 line; [`HierarchySink`] feeds it from the interpreter's
//! address trace, and [`PhasedHierarchySink`] splits the same totals per
//! computation phase for the JSON reports.
//!
//! This crate also owns "simulate one program version": [`simulate`] is the
//! paper's measurement (scaled Origin2000 counters plus the cycle model)
//! and [`HierarchyRunSink`] a descriptor's, both over one
//! [`gcr_exec::Machine::capped`] run that `gcrc`, the sweep harness, the
//! gallery and `gcr-serve` share.

pub mod assoc;
pub mod cost;
pub mod hierarchy;
pub mod levels;
mod lru;
pub mod multicap;
mod replay;
pub mod sim;
pub mod spec;

pub use assoc::{AssocResult, AssocSweepSink};
pub use cost::CostModel;
pub use hierarchy::{
    simulate, HierarchySink, MemoryHierarchy, MissCounts, PhasedHierarchySink, SimRun,
};
pub use levels::{
    Inclusion, LevelCounts, MultiLevelCache, MultiLevelCounts, MultiLevelSink, MultiLevelSweepSink,
    Prefetch,
};
pub use multicap::CapacitySweepSink;
pub use sim::{Cache, CacheConfig, Tlb, Victim};
pub use spec::{measure_hierarchy, HierarchyRun, HierarchyRunSink, HierarchySpec, SweepBin};
