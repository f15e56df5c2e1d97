//! # Minos: size-aware sharding for in-memory key-value stores
//!
//! A from-scratch Rust reproduction of *"Size-aware Sharding For
//! Improving Tail Latencies in In-memory Key-value Stores"* (Didona &
//! Zwaenepoel, NSDI 2019).
//!
//! Variable item sizes wreck tail latency: a request for a tiny item
//! queued behind a megabyte item waits orders of magnitude longer than
//! its own service time. Minos fixes this by serving small and large
//! items on **disjoint sets of cores** — small requests keep pure
//! hardware dispatch (the NIC steers them straight to a core), while the
//! rare large requests are handed off through lock-free software queues
//! to dedicated large cores, partitioned by size range. A control loop
//! re-derives the small/large threshold (the 99th percentile of request
//! sizes) and the core split every second.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Crate | What it provides |
//! |---|---|
//! | [`core`] (`minos-core`) | the size-aware sharding engine: controller, allocation, size ranges, threaded server, client; the paper's baselines (HKH, HKH+WS, SHO) are queue disciplines of the same server |
//! | [`driver`] | the one open-loop client run (§5.4) behind `minos-loadgen` and `minos-figures`: client builder, Poisson schedule, preload, drain, merged report |
//! | [`kv`] | MICA-style partitioned store (optimistic reads, CREW writes, mempool) |
//! | [`nic`] | virtual multi-queue NIC: destination-port steering onto lock-free rings |
//! | [`wire`] | Ethernet/IP/UDP framing, KV message protocol, fragmentation |
//! | [`workload`] | the paper's workloads: zipfian keys, trimodal ETC sizes, Poisson arrivals |
//! | [`queue_sim`] | the Section 2.2 queueing models (Figure 2) |
//! | [`sim`] | full-system discrete-event simulator (Figures 3–10) |
//! | [`stats`] | histograms, percentiles, EWMA smoothing |
//!
//! ## Quickstart
//!
//! ```
//! use minos::core::client::Client;
//! use minos::core::server::{MinosServer, ServerConfig};
//! use std::time::Duration;
//!
//! // An 8-queue Minos server with room for 10k items.
//! let mut server = MinosServer::start(ServerConfig::for_test(2, 10_000));
//! let mut client = Client::new(&server, 1, 42);
//!
//! client.send_put(7, b"hello, sharded world", false);
//! assert!(client.drain(Duration::from_secs(10)));
//! client.send_get(7, false);
//! assert!(client.drain(Duration::from_secs(10)));
//!
//! assert_eq!(client.totals().completed, 2);
//! server.shutdown();
//! ```
//!
//! See `examples/` for the paper's scenarios and `crates/bench` for the
//! harnesses that regenerate every table and figure of the evaluation.

pub mod figures;

pub use minos_core as core;
pub use minos_driver as driver;
pub use minos_kv as kv;
pub use minos_net as net;
pub use minos_nic as nic;
pub use minos_obs as obs;
pub use minos_queue_sim as queue_sim;
pub use minos_sim as sim;
pub use minos_stats as stats;
pub use minos_wire as wire;
pub use minos_workload as workload;

/// Parses the command-line value that follows `flag` (the binaries'
/// shared `--flag VALUE` rule): "missing value for --flag" when there is
/// none, "--flag: " and the parse error when it does not parse.
pub fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let value = value.ok_or_else(|| format!("missing value for {flag}"))?;
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Routes human-readable binary output: stdout normally, stderr when
/// the passed args value has `json == true` (JSON mode reserves stdout
/// for the machine-readable report). Shared by `minos-server` and
/// `minos-loadgen` so their `--json` contracts cannot drift.
#[macro_export]
macro_rules! human {
    ($args:expr, $($fmt:tt)*) => {
        if $args.json {
            eprintln!($($fmt)*);
        } else {
            println!($($fmt)*);
        }
    };
}
