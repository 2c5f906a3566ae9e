#![warn(missing_docs)]

//! `gcr-reuse` — reuse-distance measurement and the reuse-driven execution
//! limit study (Sections 2.1–2.2 of the paper).
//!
//! * [`distance`] — online reuse-distance analysis: the number of distinct
//!   data items touched between consecutive accesses to the same datum
//!   (Figure 1), in `O(log M)` per access, with log₂ histograms (Figure 3);
//! * [`trace`] — capture of statement-instance traces (instruction, reads,
//!   write) from the interpreter;
//! * [`driven`] — the reuse-driven execution algorithm of Figure 2: replay
//!   on an ideal dataflow machine, then reorder so the instruction with the
//!   closest reuse runs next (the "inverse of Belady");
//! * [`evadable`] — classification of *evadable reuses*: reuses whose
//!   distance grows with the input size (the paper's main §2.2 metric);
//! * [`predict`] — miss-ratio curves from reuse-distance histograms (the
//!   §2.1 perfect-cache equivalence, made executable);
//! * [`profile`] — per-array and per-phase histogram profiling, the
//!   observability layer behind `gcrc --profile` and the JSON reports.
//!
//! The core primitive is [`ReuseDistanceAnalyzer`] — feed it an address
//! stream, get back per-access distances and a log₂ [`Histogram`]:
//!
//! ```
//! let mut a = gcr_reuse::ReuseDistanceAnalyzer::new(8); // element granularity
//! assert_eq!(a.access(0), None);     // cold
//! assert_eq!(a.access(8), None);     // cold
//! assert_eq!(a.access(0), Some(1));  // one distinct datum in between
//! assert_eq!(a.distinct(), 2);
//! assert_eq!(a.hist.cold, 2);
//! ```

pub mod distance;
pub mod driven;
pub mod evadable;
pub mod hash;
pub mod predict;
pub mod profile;
pub mod trace;

pub use distance::{CapacityCounter, DistanceSink, Histogram, ReuseDistanceAnalyzer};
pub use driven::reuse_driven_order;
pub use evadable::{evadable_fraction, EvadableReport, RefStats};
pub use hash::{FnvBuildHasher, FnvHashMap, FnvHasher};
pub use predict::{miss_ratio_curve, predicted_miss_ratio, predicted_misses};
pub use profile::{ProfileSink, ReuseProfile};
pub use trace::{Access, InstrTrace, TraceCapture};
