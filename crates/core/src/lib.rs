//! Minos: size-aware sharding for in-memory key-value stores.
//!
//! This crate is the reproduction of the paper's contribution (Sections 3
//! and 4): requests for small and large items are served by **disjoint
//! sets of cores**, eliminating head-of-line blocking of small requests
//! behind large ones; small requests keep pure *hardware* dispatch
//! (clients address RX queues directly), while the rare large requests
//! are handed off through lock-free software queues.
//!
//! The crate is split into pure policy logic — shared verbatim by the
//! threaded runtime here and the discrete-event simulator in
//! `minos-sim`, so the two can never drift — and the runtime itself:
//!
//! **Policy (pure, deterministic):**
//! * [`cost`] — the per-request cost function (packets by default).
//! * [`threshold`] — per-epoch aggregation of size histograms, EWMA
//!   smoothing, and the 99th-percentile size threshold.
//! * [`allocation`] — how many cores serve small vs large requests
//!   (`n_small = ceil(small cost share × n)`), including the standby
//!   large core when every core is deemed small.
//! * [`ranges`] — equal-cost contiguous size ranges over the large
//!   cores (size-aware sharding *within* the large class).
//! * [`plan`] — the combined, atomically-published [`plan::ShardingPlan`].
//! * [`dispatch`] — batch-draining quotas and the queue disciplines:
//!   size-aware sharding, the paper's HKH/HKH+WS/SHO baselines, and
//!   its cFCFS/dFCFS queueing models, each one placement-and-drain
//!   rule.
//!
//! **Runtime (threads, rings, the real store):**
//! * [`server`] — one busy-polling thread per simulated core; small
//!   cores drain their own RX queue plus their share of the large
//!   cores' RX queues; large cores drain only their software queues
//!   (or whatever the configured discipline says instead).
//! * [`ingest`] — the one-copy large-PUT ingest sink: fragments stream
//!   straight into their value's final store-mempool block.
//! * [`client`] — a load-generating client with the paper's measurement
//!   methodology (timestamps echoed by the server, zero-loss checks).

#![warn(missing_docs)]

pub mod allocation;
pub mod client;
pub mod config;
pub mod cost;
pub mod dispatch;
pub mod ingest;
pub mod plan;
pub mod ranges;
pub mod server;
pub mod threshold;

pub use allocation::{allocate, CoreAllocation};
pub use config::{AllocationPolicy, MinosConfig, ThresholdMode};
pub use cost::CostFn;
pub use plan::ShardingPlan;
pub use ranges::LargeRanges;
pub use threshold::{ThresholdController, ThresholdDecision};
