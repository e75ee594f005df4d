//! The repo benchmark.
//!
//! Four fixed-work workloads (`query-hot`, `query-cold`, `ingest`,
//! `mixed-rw`) drive the engine through its public API only, from one
//! client thread, with seeded op streams and count-triggered checkpoints,
//! so every count of a run repeats exactly.  Every timed number is taken
//! per *round* (a fixed batch of ops) and reported at the fast quartile of
//! the round times.  A second, traced run wraps the same calls in spans and
//! the pager in a timing decorator to give per-layer numbers.
//!
//! See `README.md` for the method, the frozen sizes and the metric
//! definitions.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compare;
pub mod config;
pub mod data;
pub mod json;
pub mod metrics;
pub mod ops;
pub mod oracle;
pub mod pager;
pub mod probes;
pub mod report;
pub mod run;
pub mod setup;
pub mod stats;
pub mod trace;
