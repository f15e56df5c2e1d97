//! # minos-net: packet I/O behind a multi-queue [`Transport`] trait
//!
//! The Minos datapath (paper §3) is built around *hardware dispatch*: a
//! multi-queue NIC steers each request packet to the RX queue named by
//! its UDP destination port, and each core owns one RX/TX queue pair.
//! The seed reproduction hard-coded that contract to the in-process
//! [`minos_nic::VirtualNic`]; this crate abstracts it so the same engine
//! code drives either simulated or real packets:
//!
//! * [`Transport`] — the queue-pair contract: batch [`Transport::rx_burst`]
//!   / [`Transport::tx_frames`], one primary consumer per RX queue,
//!   mirroring the DPDK-style ring API of the virtual NIC.
//! * [`VirtualTransport`] / [`VirtualClientTransport`] — the server's and
//!   the client's side of the in-process [`minos_nic::VirtualNic`]; the
//!   server runs on [`VirtualTransport`] by default.
//! * [`UdpTransport`] — real `SO_REUSEPORT` UDP sockets, one per RX
//!   queue: queue `q` listens on `base_port + q`, so the kernel's port
//!   demultiplexing plays the role of the NIC's Flow Director and
//!   clients still address a specific RX queue by destination port,
//!   preserving the paper's client-addresses-queue model. Bursts move
//!   through batched `recvmmsg`/`sendmmsg` syscalls ([`batch`]) — the
//!   kernel-sockets analog of the paper's §4.1 DPDK bursts — and runs
//!   of equal-length fragments cross the stack as single
//!   `UDP_SEGMENT`/`UDP_GRO` trains, with a runtime-detected fallback
//!   to one datagram per message. Batched syscalls are the only UDP
//!   path, of [`BATCH`] messages each, and Linux the only target.
//! * [`pool`] — the slab-backed RX buffer pool: `recvmmsg` lands
//!   datagrams directly in pooled, refcounted buffers that return
//!   to the slab when the engine drops the payload, making the
//!   steady-state receive path allocation-free end to end.
//! * [`PollSet`] — one `ppoll` over a core's RX readiness fds
//!   ([`Transport::rx_readiness`]: the socket, or the virtual NIC
//!   ring's doorbell) and its wake [`EventFd`], so an idle core blocks
//!   until an arrival, a wake or a timeout instead of yielding.
//! * [`affinity`] — thread→core pinning (`sched_setaffinity`), used by
//!   the `minos-server` polling threads and `minos-loadgen` clients.
//! * [`testport`] — PID-salted port-range allocation for test suites
//!   binding `SO_REUSEPORT` sockets, so concurrent test processes on
//!   one machine cannot cross-deliver through shared ports.
//! * [`FaultTransport`] — a chaos wrapper over any backend injecting
//!   deterministic, seeded faults (drop, burst loss, duplication,
//!   reordering, delay, queue blackhole) per [`FaultProfile`], with
//!   `fault.*` metrics; drives the chaos e2e suite and the
//!   `--fault-profile` flag of every binary.
//!
//! The primary send method is [`Transport::tx_frames`]: scatter-gather
//! [`minos_wire::TxPacket`]s whose header regions and refcounted value
//! segments reach the kernel as iovecs (`sendmmsg`), so value
//! bytes are never copied between the store and the wire — the
//! `tx_copied_bytes` gauges ([`TransportStats`], [`UdpIoStats`]) assert
//! the invariant at runtime.

#![warn(missing_docs)]

pub mod affinity;
pub mod batch;
mod fault;
pub mod metrics;
pub mod pool;
mod sys;
pub mod testport;
mod transport;
mod udp;
mod virt;
mod wait;

pub use fault::{DirectionFaults, FaultProfile, FaultStats, FaultTransport};
pub use pool::{BufferPool, PoolStats, PooledBuf};
#[doc(hidden)]
pub use sys::set_offload_available;
pub use transport::{RxReadiness, Transport, TransportStats};
pub use udp::{endpoint_for, UdpConfig, UdpIoStats, UdpTransport, BATCH};
pub use virt::{VirtualClientTransport, VirtualTransport};
pub use wait::{EventFd, PollSet};
