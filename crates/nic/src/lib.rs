//! A virtual multi-queue NIC.
//!
//! Minos "relies on the availability of a multi-queue NIC with support for
//! redirecting, in hardware, a packet to a specific queue" (paper §4.1).
//! The paper's testbed used a 40 GbE Mellanox ConnectX-3 with RSS; this
//! crate provides the in-process equivalent so the rest of the system can
//! be built and tested on any machine:
//!
//! * [`rss`] — a real **Toeplitz hash** over the 5-tuple with an
//!   indirection table, exactly the algorithm hardware RSS implements.
//! * [`flow_director`] — exact-match steering on the UDP destination
//!   port (Intel Flow Director style). Rules take priority over RSS, and
//!   the default configuration maps port `9000 + q` to queue `q`, which is
//!   how Minos clients address a specific RX queue.
//! * [`queue`] — lock-free bounded RX/TX queues with DPDK-style
//!   `push`/`rx_burst` ring access.
//! * [`device`] — the [`VirtualNic`] combining the above, with per-queue
//!   statistics and link-level byte accounting.
//!
//! The crucial property preserved from real hardware: **once configured,
//! packet steering costs no server CPU** — `deliver` runs on the sender's
//! (client's) context, and a server core only ever touches packets that
//! are already in its RX ring. That is what "hardware dispatch" means for
//! Minos small requests.

#![warn(missing_docs)]

pub mod device;
pub mod flow_director;
pub mod queue;
pub mod rss;

pub use device::{Delivery, NicConfig, NicStats, VirtualNic};
pub use flow_director::FlowDirector;
pub use queue::{PacketQueue, QueueStats};
pub use rss::RssHasher;
