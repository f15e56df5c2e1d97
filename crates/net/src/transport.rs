//! The [`Transport`] trait: the multi-queue packet I/O contract.

use minos_wire::packet::{Endpoint, Packet, TxPacket};
use std::os::fd::RawFd;

/// Aggregate transport statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Packets received across all queues.
    pub rx_packets: u64,
    /// Payload + header bytes received.
    pub rx_bytes: u64,
    /// Packets transmitted across all queues.
    pub tx_packets: u64,
    /// Payload + header bytes transmitted.
    pub tx_bytes: u64,
    /// Packets dropped on transmit (full ring / full socket buffer).
    pub tx_dropped: u64,
    /// Payload *segment* bytes the transport had to copy to put frames
    /// on the wire. The UDP backend hands segment iovecs straight to
    /// the kernel, so this stays 0 there — the asserted "zero value-byte
    /// copies on the send path" invariant. The in-process virtual wire
    /// must materialize contiguous frames (its stand-in for DMA) and
    /// counts every gathered segment byte here honestly.
    pub tx_copied_bytes: u64,
}

/// How a poller that found an RX queue empty learns that it holds
/// packets again, without polling it ([`Transport::rx_readiness`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RxReadiness {
    /// An fd that polls readable (`POLLIN`) while the queue holds
    /// packets: the UDP socket, or the virtual NIC ring's doorbell. It
    /// may read readable once with nothing left to take. `None`: the
    /// backend has no such fd, and a blocked poller notices an arrival
    /// only when its own timeout ends the block.
    pub fd: Option<RawFd>,
    /// The queue yields packets within this many nanoseconds even if
    /// nothing arrives: packets the backend already holds, such as a
    /// fault layer's delayed ones. `Some(0)` means now. `None`: not
    /// before the next arrival.
    pub due_in_ns: Option<u64>,
}

/// Multi-queue packet I/O.
///
/// The contract mirrors the paper's NIC model and the DPDK ring API the
/// virtual NIC exposes:
///
/// * A transport owns `num_queues` RX/TX queue pairs. Queue `q` is the
///   target clients select by sending to destination port
///   `base_port + q`.
/// * Each RX queue has one *primary* consumer (its owning core), but
///   concurrent readers must be safe — Minos small cores also drain the
///   RX queues of large cores (§3).
/// * Packets move in batches ([`Transport::rx_burst`] /
///   [`Transport::tx_frames`], §4.1: "Requests are moved in batches to
///   further limit overhead").
/// * The one send path is [`Transport::tx_frames`]: scatter-gather
///   [`TxPacket`]s whose value segments the backend forwards without
///   copying wherever the underlying I/O allows (`sendmmsg` iovecs on
///   the UDP backend). A contiguous [`Packet`] rides as a
///   single-segment frame ([`TxPacket::from_packet`], an `O(1)`
///   refcount bump, no copy).
/// * Sends route by each packet's *destination* metadata
///   ([`TxPacket::meta`]); `queue` names the local TX queue the send is
///   charged to.
///
/// The trait is object-safe: engines that don't want a generic
/// parameter can hold an `Arc<dyn Transport>`.
pub trait Transport: Send + Sync {
    /// Number of RX/TX queue pairs.
    fn num_queues(&self) -> u16;

    /// Dequeues up to `max` packets from RX queue `queue` into `out`,
    /// returning how many were moved.
    fn rx_burst(&self, queue: u16, out: &mut Vec<Packet>, max: usize) -> usize;

    /// Transmits a batch of scatter-gather frames on TX queue `queue`,
    /// draining `frames`; returns how many were accepted. Each
    /// [`TxPacket`] is addressed by its own destination metadata, its
    /// inline header region and refcounted value segments reach the
    /// wire without the transport copying segment bytes wherever the
    /// backend supports gather I/O (see
    /// [`TransportStats::tx_copied_bytes`]). Stops at the first tail
    /// drop (full ring, full socket buffer, as NIC hardware drops on a
    /// full TX ring); the remaining frames are dropped too, preserving
    /// per-queue FIFO order on the wire.
    fn tx_frames(&self, queue: u16, frames: &mut Vec<TxPacket>) -> usize;

    /// The endpoint identity of local queue `queue` — what the transport
    /// writes as the source of packets it synthesizes, and what peers
    /// should address to reach this queue.
    fn local_endpoint(&self, queue: u16) -> Endpoint;

    /// How a poller can wait for RX queue `queue` to hold packets
    /// instead of polling it. The default offers nothing to wait on, so
    /// a blocked poller finds that queue's packets only when its
    /// timeout ends the block.
    fn rx_readiness(&self, _queue: u16) -> RxReadiness {
        RxReadiness::default()
    }

    /// Statistics snapshot.
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }

    /// Contributes this backend's metrics under canonical dotted names
    /// (`transport.*`, plus backend-specific families like `pool.*`) —
    /// the [`minos_obs::Collector`] hook every backend shares, so the
    /// server registers whatever transport it was started with without
    /// knowing the concrete type. The default renders
    /// [`Transport::stats`]; backends with richer counters override and
    /// extend.
    fn collect_metrics(&self, out: &mut Vec<(String, minos_obs::MetricValue)>) {
        crate::metrics::push_transport_stats(out, &self.stats());
    }
}
