//! Full-system discrete-event simulator of the Minos evaluation testbed.
//!
//! The paper's performance experiments ran on 8 machines with 8-core
//! Xeons and 40 GbE NICs. This container has one CPU core, so wall-clock
//! tail latencies of eight busy-polling threads would measure the host
//! scheduler, not the paper's subject. Instead, this crate models the
//! testbed as a deterministic discrete-event simulation:
//!
//! * **Cores** are servers whose per-request occupancy comes from a
//!   [`cost_model`] calibrated to the paper's operating points (a small
//!   GET costs ~1 µs of core time; the default workload saturates the
//!   40 GbE NIC at ≈ 6.2 Mops, the paper's Figure 3 peak).
//! * **The NIC** is a pair of 40 Gbit/s packet-interleaving wires with
//!   per-packet framing overhead — the same wire arithmetic as
//!   `minos-wire`.
//! * **The server** is one model ([`engine`]) that runs the server's
//!   disciplines: where a request runs and what a core polls come from
//!   `minos-core`'s `Discipline`, the same calls the threaded server
//!   makes. Crucially, the size-aware model does not re-implement the
//!   controller either: it *runs the real one* — `minos-core`'s
//!   `ThresholdController`, `allocate` and `LargeRanges` drive the
//!   simulated plan exactly as they drive the threaded server.
//! * **The workload** is the real `minos-workload` generator (zipfian
//!   keys over the 16 M-key paper dataset, trimodal sizes, open-loop
//!   Poisson arrivals).
//!
//! [`runner`] adds the paper's measurement methodology (warm-up/
//! cool-down discard, 1 s windows for the dynamic experiment);
//! [`sweep`] searches the maximum throughput under an SLO (Figures
//! 6/7).

#![warn(missing_docs)]

pub mod cost_model;
pub mod engine;
pub mod runner;
pub mod sweep;

pub use cost_model::CostModel;
pub use engine::SystemConfig;
pub use minos_core::dispatch::DisciplineKind;
pub use runner::{RunConfig, RunResult, WindowStat};
pub use sweep::{max_throughput_under_slo, SloSearch};
