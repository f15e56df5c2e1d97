//! The virtual NIC device: steering + queues + statistics.

use crate::flow_director::FlowDirector;
use crate::queue::{PacketQueue, QueueStats};
use crate::rss::RssHasher;
use bytes::Bytes;
use minos_wire::packet::{parse_frame, Packet, PacketMeta};
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration of a [`VirtualNic`].
#[derive(Clone, Debug)]
pub struct NicConfig {
    /// Number of RX (and TX) queues; the paper configures one per core.
    pub num_queues: u16,
    /// Per-queue ring capacity in packets.
    pub queue_capacity: usize,
    /// Install Flow-Director rules mapping port `9000 + q` to queue `q`.
    /// When `false` every packet is steered by RSS, as on the paper's
    /// testbed NIC ("Our NIC supports only RSS", §5.1).
    pub flow_director: bool,
}

impl NicConfig {
    /// A NIC with `num_queues` queues and defaults matching the paper's
    /// setup (Flow-Director steering, 4096-packet rings).
    pub fn new(num_queues: u16) -> Self {
        Self {
            num_queues,
            queue_capacity: 4096,
            flow_director: true,
        }
    }

    /// Overrides the ring capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Disables Flow Director, forcing RSS-only steering.
    pub fn rss_only(mut self) -> Self {
        self.flow_director = false;
        self
    }
}

/// Outcome of delivering one frame to the NIC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// Enqueued on the given RX queue.
    Queued(u16),
    /// Dropped: frame failed parsing or checksum verification.
    DroppedMalformed,
    /// Dropped: the target RX ring was full.
    DroppedFull(u16),
}

/// Device-level statistics (per-queue stats live on the queues).
#[derive(Clone, Copy, Debug, Default)]
pub struct NicStats {
    /// Frames delivered to an RX ring.
    pub rx_delivered: u64,
    /// Frames dropped as malformed.
    pub rx_malformed: u64,
    /// Frames dropped on full rings.
    pub rx_ring_full: u64,
    /// Frames transmitted (drained from TX rings).
    pub tx_sent: u64,
    /// Bytes received (wire bytes of delivered frames).
    pub rx_bytes: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Payload segment bytes gathered (copied) to materialize
    /// contiguous frames on the transmit path. The virtual wire is the
    /// one backend that *must* serialize frames — its stand-in for DMA
    /// — so honest accounting lives here; the real-UDP backend keeps
    /// its analogous gauge at zero via scatter-gather syscalls.
    pub tx_gathered_bytes: u64,
}

/// An in-process multi-queue NIC.
///
/// `deliver_frame` runs on the *sender's* context — steering costs the
/// receiving cores nothing, the defining property of hardware dispatch.
#[derive(Debug)]
pub struct VirtualNic {
    num_queues: u16,
    rss: RssHasher,
    fd: Option<FlowDirector>,
    rx: Vec<PacketQueue>,
    tx: Vec<PacketQueue>,
    rx_delivered: AtomicU64,
    rx_malformed: AtomicU64,
    rx_ring_full: AtomicU64,
    tx_sent: AtomicU64,
    rx_bytes: AtomicU64,
    tx_bytes: AtomicU64,
    tx_gathered_bytes: AtomicU64,
}

impl VirtualNic {
    /// Creates a NIC from `config`.
    pub fn new(config: NicConfig) -> Self {
        assert!(config.num_queues > 0);
        let mk = |_| PacketQueue::new(config.queue_capacity);
        Self {
            num_queues: config.num_queues,
            rss: RssHasher::new(config.num_queues),
            fd: config
                .flow_director
                .then(|| FlowDirector::with_queue_ports(config.num_queues)),
            rx: (0..config.num_queues).map(mk).collect(),
            tx: (0..config.num_queues).map(mk).collect(),
            rx_delivered: AtomicU64::new(0),
            rx_malformed: AtomicU64::new(0),
            rx_ring_full: AtomicU64::new(0),
            tx_sent: AtomicU64::new(0),
            rx_bytes: AtomicU64::new(0),
            tx_bytes: AtomicU64::new(0),
            tx_gathered_bytes: AtomicU64::new(0),
        }
    }

    /// Number of RX/TX queue pairs.
    pub fn num_queues(&self) -> u16 {
        self.num_queues
    }

    /// The RX queue the steering logic selects for `meta`:
    /// Flow Director first (if enabled and a rule matches), then RSS.
    pub fn steer(&self, meta: &PacketMeta) -> u16 {
        if let Some(fd) = &self.fd {
            if let Some(q) = fd.lookup(meta.udp.dst_port) {
                return q;
            }
        }
        self.rss.queue_for(&meta.five_tuple())
    }

    /// Delivers one raw frame: parse + checksum verification, steering,
    /// RX enqueue.
    pub fn deliver_frame(&self, frame: Bytes) -> Delivery {
        match parse_frame(frame) {
            None => {
                self.rx_malformed.fetch_add(1, Ordering::Relaxed);
                Delivery::DroppedMalformed
            }
            Some(packet) => self.deliver_packet(packet),
        }
    }

    /// Delivers an already-parsed packet (checksums assumed verified).
    pub fn deliver_packet(&self, packet: Packet) -> Delivery {
        let q = self.steer(&packet.meta);
        let bytes = packet.wire_len() as u64;
        if self.rx[q as usize].push(packet) {
            self.rx_delivered.fetch_add(1, Ordering::Relaxed);
            self.rx_bytes.fetch_add(bytes, Ordering::Relaxed);
            Delivery::Queued(q)
        } else {
            self.rx_ring_full.fetch_add(1, Ordering::Relaxed);
            Delivery::DroppedFull(q)
        }
    }

    /// Burst-dequeues up to `max` packets from RX queue `queue`.
    pub fn rx_burst(&self, queue: u16, out: &mut Vec<Packet>, max: usize) -> usize {
        self.rx[queue as usize].rx_burst(out, max)
    }

    /// Dequeues one packet from RX queue `queue` (steal path).
    pub fn rx_pop_one(&self, queue: u16) -> Option<Packet> {
        self.rx[queue as usize].pop_one()
    }

    /// Current depth of RX queue `queue`.
    pub fn rx_len(&self, queue: u16) -> usize {
        self.rx[queue as usize].len()
    }

    /// Enqueues a packet for transmission on TX queue `queue`.
    pub fn tx_push(&self, queue: u16, packet: Packet) -> bool {
        self.tx[queue as usize].push(packet)
    }

    /// Records `bytes` of payload segments gathered (copied) by a
    /// transmit adapter to materialize a contiguous frame for this NIC;
    /// see [`NicStats::tx_gathered_bytes`].
    pub fn record_tx_gather(&self, bytes: u64) {
        if bytes > 0 {
            self.tx_gathered_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Drains up to `max` packets from TX queue `queue` (the "wire" side;
    /// in tests and examples this is what carries replies back to the
    /// client).
    pub fn tx_drain(&self, queue: u16, out: &mut Vec<Packet>, max: usize) -> usize {
        let n = self.tx[queue as usize].rx_burst(out, max);
        if n > 0 {
            self.tx_sent.fetch_add(n as u64, Ordering::Relaxed);
            let bytes: u64 = out[out.len() - n..]
                .iter()
                .map(|p| p.wire_len() as u64)
                .sum();
            self.tx_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        n
    }

    /// Per-queue RX statistics.
    pub fn rx_queue_stats(&self, queue: u16) -> QueueStats {
        self.rx[queue as usize].stats()
    }

    /// Per-queue TX statistics.
    pub fn tx_queue_stats(&self, queue: u16) -> QueueStats {
        self.tx[queue as usize].stats()
    }

    /// Device-level statistics snapshot.
    pub fn stats(&self) -> NicStats {
        NicStats {
            rx_delivered: self.rx_delivered.load(Ordering::Relaxed),
            rx_malformed: self.rx_malformed.load(Ordering::Relaxed),
            rx_ring_full: self.rx_ring_full.load(Ordering::Relaxed),
            tx_sent: self.tx_sent.load(Ordering::Relaxed),
            rx_bytes: self.rx_bytes.load(Ordering::Relaxed),
            tx_bytes: self.tx_bytes.load(Ordering::Relaxed),
            tx_gathered_bytes: self.tx_gathered_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_wire::packet::{build_frame, Endpoint};
    use minos_wire::udp::UdpHeader;

    fn frame_to_queue(q: u16) -> Bytes {
        build_frame(
            Endpoint::host(1, 1000),
            Endpoint::host(2, UdpHeader::port_for_queue(q)),
            b"hello",
        )
    }

    #[test]
    fn flow_director_steers_to_requested_queue() {
        let nic = VirtualNic::new(NicConfig::new(8));
        for q in 0..8u16 {
            assert_eq!(nic.deliver_frame(frame_to_queue(q)), Delivery::Queued(q));
            assert_eq!(nic.rx_len(q), 1);
        }
        assert_eq!(nic.stats().rx_delivered, 8);
    }

    #[test]
    fn rss_fallback_for_unmapped_port() {
        let nic = VirtualNic::new(NicConfig::new(8));
        let frame = build_frame(Endpoint::host(1, 1234), Endpoint::host(2, 80), b"x");
        match nic.deliver_frame(frame) {
            Delivery::Queued(q) => assert!(q < 8),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rss_only_mode_ignores_port_convention() {
        let nic = VirtualNic::new(NicConfig::new(8).rss_only());
        // With RSS-only steering, the port->queue identity no longer
        // holds for every queue (it may coincide for some).
        let mut mismatch = false;
        for q in 0..8u16 {
            if let Delivery::Queued(actual) = nic.deliver_frame(frame_to_queue(q)) {
                if actual != q {
                    mismatch = true;
                }
            }
        }
        assert!(mismatch, "RSS should not replicate the identity mapping");
    }

    #[test]
    fn malformed_frame_dropped() {
        let nic = VirtualNic::new(NicConfig::new(2));
        assert_eq!(
            nic.deliver_frame(Bytes::from_static(&[0u8; 30])),
            Delivery::DroppedMalformed
        );
        assert_eq!(nic.stats().rx_malformed, 1);
    }

    #[test]
    fn corruption_is_caught_by_checksums() {
        let nic = VirtualNic::new(NicConfig::new(2));
        // One byte flipped per frame, at every offset in turn: every
        // frame must fail parsing, never silently deliver wrong bytes.
        for i in 0..100 {
            let mut raw = frame_to_queue(0).to_vec();
            let offset = i % raw.len();
            raw[offset] ^= 1 << (i % 8);
            let d = nic.deliver_frame(Bytes::from(raw));
            assert_eq!(d, Delivery::DroppedMalformed);
        }
        assert_eq!(nic.stats().rx_malformed, 100);
        assert_eq!(nic.stats().rx_delivered, 0);
    }

    #[test]
    fn ring_full_tail_drops() {
        let nic = VirtualNic::new(NicConfig::new(1).with_queue_capacity(2));
        assert_eq!(nic.deliver_frame(frame_to_queue(0)), Delivery::Queued(0));
        assert_eq!(nic.deliver_frame(frame_to_queue(0)), Delivery::Queued(0));
        assert_eq!(
            nic.deliver_frame(frame_to_queue(0)),
            Delivery::DroppedFull(0)
        );
        assert_eq!(nic.stats().rx_ring_full, 1);
    }

    #[test]
    fn tx_roundtrip() {
        let nic = VirtualNic::new(NicConfig::new(2));
        let pkt = minos_wire::packet::parse_frame(frame_to_queue(1)).unwrap();
        assert!(nic.tx_push(1, pkt));
        let mut out = Vec::new();
        assert_eq!(nic.tx_drain(1, &mut out, 32), 1);
        assert_eq!(nic.stats().tx_sent, 1);
        assert!(nic.stats().tx_bytes > 0);
    }

    #[test]
    fn rx_burst_respects_batch_size() {
        let nic = VirtualNic::new(NicConfig::new(1));
        for _ in 0..50 {
            nic.deliver_frame(frame_to_queue(0));
        }
        let mut out = Vec::new();
        assert_eq!(nic.rx_burst(0, &mut out, 32), 32);
        assert_eq!(nic.rx_burst(0, &mut out, 32), 18);
    }
}
