//! `gcr-serve` — the optimization service daemon and its chaos harness.
//!
//! The workspace's experiment binaries are batch programs: they run a
//! sweep, write a report, exit. This crate wraps the same checked
//! optimizer and measurement engine in a long-running daemon speaking the
//! versioned, length-prefixed [`proto`] protocol over stdio or a unix
//! socket, built so that *requests* fail — never the process:
//!
//! * a panicking request is caught on its pool worker and answered with
//!   `err panic` ([`server`]);
//! * a request that blows its deadline or interpreter-fuel budget gets a
//!   structured `err timeout` diagnostic;
//! * when the bounded admission queue is full, requests are shed
//!   immediately with `err overloaded` instead of queueing without bound;
//! * `shutdown` drains in-flight work and flushes the crash-safe
//!   measurement store ([`gcr_bench::sweep::MeasureCache`]).
//!
//! The [`chaos`] module drives randomized client workloads against a
//! live server — usually one with `GCR_FAULT` injections armed — and
//! checks the properties above from the outside: the process stays up,
//! no request outlives its deadline unanswered, non-faulted requests are
//! byte-deterministic, and a corrupted cache self-heals on reload.
//!
//! Binaries: `gcr-serve` (the daemon) and `gcr-chaos` (the
//! fault-injection campaign driver). Latency and throughput are recorded
//! by the `serve-mix` workload of `benchmark/`.

pub mod chaos;
pub mod proto;
pub mod server;

pub use proto::{ErrCode, Request, Response};
pub use server::{Server, ServerConfig};
