//! # msweb-emu
//!
//! Live cluster emulation — the workspace's stand-in for the paper's
//! six-node Sun Ultra-1 prototype (§5.2.2). Node workers are real OS
//! threads that time-slice their queued requests in real wall-clock time;
//! the dispatcher, RSRC predictor, reservation controller, metrics and
//! the per-run protocol (`msweb_cluster::RunCore`) are *the same code*
//! the simulator runs, and a live run returns the simulator's
//! `RunOutcome` — so the Table 3 validation compares identical
//! scheduling logic against two execution substrates.
//!
//! Timing is implemented by precise waiting (sleep + short spin-trim)
//! rather than busy-burning CPU, so the emulation behaves identically on
//! single-core containers — see [`timing`] for the rationale and
//! calibration helpers.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod job;
pub mod metrics_http;
pub mod node;
pub mod timing;

pub use cluster::{
    emulate, emulate_source, emulate_with, live_priors, live_scheduler, live_stats, LiveConfig,
    LiveRunOptions,
};
pub use job::{Done, Job, NodeMsg};
pub use metrics_http::MetricsServer;
pub use node::{node_worker, NodeParams, NodeStats};
pub use timing::{calibrate, wait_for, wait_until, Calibration};
