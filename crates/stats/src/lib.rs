//! Statistics substrate for the Minos key-value store reproduction.
//!
//! The paper's control loop (Section 3, *"How to find the threshold between
//! large and small"*) is built on three statistical primitives, all provided
//! by this crate:
//!
//! 1. **Per-core request-size histograms** ([`SizeHistogram`]) that every
//!    core updates on each request it serves. They are cheap to record into
//!    (a handful of integer operations), mergeable, and support percentile
//!    queries with bounded relative error.
//! 2. **Epoch smoothing** ([`SmoothedHistogram`]): core 0 periodically
//!    aggregates the per-core histograms and folds them into a moving
//!    average `H_curr = (1 - alpha) * H_curr + alpha * H` with
//!    `alpha = 0.9`, making the size threshold resilient to transient
//!    workload oscillations.
//! 3. **Latency histograms** ([`LatencyHistogram`]) used by the measurement
//!    harness to report the 99th percentile of end-to-end response times,
//!    the paper's headline metric.
//!
//! The histograms are HDR-style log-linear histograms implemented from
//! scratch (no external dependencies): values are bucketed by octave
//! (power of two) and linearly within each octave, giving a configurable
//! worst-case relative error per recorded value.

#![warn(missing_docs)]

pub mod counters;
pub mod hist;
pub mod percentile;

pub use counters::{CoreStats, SharedCoreStats};
pub use hist::{
    AtomicLogHistogram, AtomicSizeHistogram, LatencyHistogram, LogHistogram, SizeHistogram,
    SmoothedHistogram,
};
pub use percentile::{exact_percentile, exact_percentile_f64, Quantiles};
