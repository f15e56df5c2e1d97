//! Unified telemetry for the Minos reproduction.
//!
//! The paper's headline claim (Didona & Zwaenepoel, NSDI'19, Figures 5
//! and 6) is a *decomposition*: size-aware sharding keeps the **queue
//! wait** of small requests flat while large requests rise, because
//! large requests are executed on disjoint cores. Demonstrating that
//! requires the server itself to report time-in-queue vs. service time,
//! split by core and by request class — not just end-to-end client
//! percentiles.
//!
//! This crate provides the substrate:
//!
//! * [`MetricsRegistry`] — a process-wide registry of named metrics.
//!   Hot-path writers hold cloned [`Counter`] / [`Gauge`] / [`Histogram`]
//!   handles (one relaxed atomic op to record, no locks, no allocation);
//!   subsystems with existing stats structs register a [`Collector`]
//!   that is only invoked at snapshot time.
//! * [`CoreTelemetry`] — per-core, per-class (small/large) queue-wait
//!   and service-time histograms under stable dotted names
//!   (`core.3.small.queue_wait_ns`, …).
//! * [`Clock`] — the engine's one time source ([`WallClock`], or a test's
//!   [`ManualClock`]) for lifecycle timestamps and timers.
//! * [`Snapshot`] — a point-in-time copy of every metric, serializable
//!   as a single JSON line ([`Snapshot::to_json_line`]) and parseable
//!   back ([`Snapshot::parse_json_line`]) without any serde dependency.
//!
//! Metric names are dotted ASCII paths (`transport.tx_copied_bytes`).
//! The full table of names lives in the repository README under
//! "Observability".

#![warn(missing_docs)]

pub mod clock;
pub mod json;
pub mod registry;
pub mod snapshot;
pub mod telemetry;
pub mod value;

pub use clock::{Clock, ManualClock, WallClock};
pub use json::{JsonValue, Number};
pub use registry::{Collector, Counter, Gauge, Histogram, MetricsRegistry};
pub use snapshot::Snapshot;
pub use telemetry::{ClassTelemetry, CoreTelemetry, ReqClass};
pub use value::{HistSummary, MetricValue};
