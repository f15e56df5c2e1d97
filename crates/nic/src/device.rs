//! The virtual NIC device: destination-port steering, rings and statistics.

use crate::eventfd::EventFd;
use crossbeam::queue::ArrayQueue;
use minos_wire::packet::Packet;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};

/// Configuration of a [`VirtualNic`].
#[derive(Clone, Debug)]
pub struct NicConfig {
    /// Number of RX (and TX) queues; the paper configures one per core.
    pub num_queues: u16,
    /// Per-queue ring capacity in packets.
    pub queue_capacity: usize,
}

impl NicConfig {
    /// A NIC with `num_queues` queues of 4096 packets each.
    pub fn new(num_queues: u16) -> Self {
        Self {
            num_queues,
            queue_capacity: 4096,
        }
    }

    /// Overrides the ring capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }
}

/// Outcome of delivering one packet to the NIC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// Enqueued on the given RX queue.
    Queued(u16),
    /// Dropped: the packet's destination port names no queue.
    DroppedMalformed,
    /// Dropped: the target RX ring was full.
    DroppedFull(u16),
}

/// Device-level statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct NicStats {
    /// Packets delivered to an RX ring.
    pub rx_delivered: u64,
    /// Packets dropped because their destination port names no queue.
    pub rx_malformed: u64,
    /// Packets dropped on full rings.
    pub rx_ring_full: u64,
    /// Packets transmitted (drained from TX rings).
    pub tx_sent: u64,
    /// Bytes received (wire bytes of delivered packets).
    pub rx_bytes: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
}

/// An RX ring's interrupt line: an [`EventFd`] that reads readable
/// whenever the ring holds packets, as a socket does, so a consumer
/// can block in `poll(2)` on an idle ring.
///
/// A delivery rings it unless `rung` says it already is. A consumer
/// that finds the ring empty while `rung` is set clears it: it lowers
/// `rung`, fences, drains the counter and looks at the ring again,
/// ringing once more if a packet landed meanwhile. With the fences,
/// either that look sees a racing delivery or the delivery sees `rung`
/// lowered and rings, so a non-empty ring is never left silent. Both
/// sides touch the fd once per busy-to-idle cycle, not per packet.
#[derive(Debug)]
struct Doorbell {
    efd: EventFd,
    rung: AtomicBool,
}

impl Doorbell {
    fn new() -> Self {
        Doorbell {
            efd: EventFd::new().expect("an eventfd per RX queue"),
            rung: AtomicBool::new(false),
        }
    }

    /// After a packet was pushed onto the ring.
    fn ring(&self) {
        fence(Ordering::SeqCst);
        if !self.rung.load(Ordering::Relaxed) {
            self.efd.notify();
            self.rung.store(true, Ordering::Relaxed);
        }
    }

    /// After a burst found `ring` empty.
    fn quiet(&self, ring: &ArrayQueue<Packet>) {
        if !self.rung.load(Ordering::Relaxed) {
            return;
        }
        self.rung.store(false, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        self.efd.drain();
        if !ring.is_empty() {
            self.efd.notify();
            self.rung.store(true, Ordering::Relaxed);
        }
    }
}

/// An in-process multi-queue NIC.
///
/// `deliver_packet` runs on the *sender's* context — steering costs the
/// receiving cores nothing, the defining property of hardware dispatch.
/// The rings are multi-producer/multi-consumer: each RX ring has one
/// primary consumer (its owning core), but other cores may steal from
/// it (paper §3).
#[derive(Debug)]
pub struct VirtualNic {
    num_queues: u16,
    rx: Vec<ArrayQueue<Packet>>,
    /// One per RX ring ([`VirtualNic::rx_doorbell`]).
    doorbells: Vec<Doorbell>,
    tx: Vec<ArrayQueue<Packet>>,
    rx_delivered: AtomicU64,
    rx_malformed: AtomicU64,
    rx_ring_full: AtomicU64,
    tx_sent: AtomicU64,
    rx_bytes: AtomicU64,
    tx_bytes: AtomicU64,
}

/// Moves up to `max` packets from `ring` into `out`, returning how many
/// moved: the DPDK burst idiom ("Requests are moved in batches to
/// further limit overhead", paper §4.1).
fn burst(ring: &ArrayQueue<Packet>, out: &mut Vec<Packet>, max: usize) -> usize {
    let before = out.len();
    out.extend(std::iter::from_fn(|| ring.pop()).take(max));
    out.len() - before
}

impl VirtualNic {
    /// Creates a NIC from `config`.
    pub fn new(config: NicConfig) -> Self {
        assert!(config.num_queues > 0);
        let mk = |_| ArrayQueue::new(config.queue_capacity);
        Self {
            num_queues: config.num_queues,
            rx: (0..config.num_queues).map(mk).collect(),
            doorbells: (0..config.num_queues).map(|_| Doorbell::new()).collect(),
            tx: (0..config.num_queues).map(mk).collect(),
            rx_delivered: AtomicU64::new(0),
            rx_malformed: AtomicU64::new(0),
            rx_ring_full: AtomicU64::new(0),
            tx_sent: AtomicU64::new(0),
            rx_bytes: AtomicU64::new(0),
            tx_bytes: AtomicU64::new(0),
        }
    }

    /// Number of RX/TX queue pairs.
    pub fn num_queues(&self) -> u16 {
        self.num_queues
    }

    /// Delivers one packet to the RX queue its destination port names.
    pub fn deliver_packet(&self, packet: Packet) -> Delivery {
        let Some(q) = packet.meta.udp.target_queue(self.num_queues) else {
            self.rx_malformed.fetch_add(1, Ordering::Relaxed);
            return Delivery::DroppedMalformed;
        };
        let bytes = packet.wire_len() as u64;
        if self.rx[q as usize].push(packet).is_ok() {
            self.doorbells[q as usize].ring();
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
        let ring = &self.rx[queue as usize];
        let moved = burst(ring, out, max);
        if moved == 0 {
            self.doorbells[queue as usize].quiet(ring);
        }
        moved
    }

    /// The fd of RX queue `queue`'s doorbell: it polls readable while
    /// the ring holds packets, like a socket with datagrams queued. It
    /// stays readable after the last packet leaves until a burst finds
    /// the ring empty, so a poller may wake once for nothing.
    pub fn rx_doorbell(&self, queue: u16) -> RawFd {
        self.doorbells[queue as usize].efd.as_raw_fd()
    }

    /// Enqueues a packet for transmission on TX queue `queue`; `false`
    /// if the ring is full.
    pub fn tx_push(&self, queue: u16, packet: Packet) -> bool {
        self.tx[queue as usize].push(packet).is_ok()
    }

    /// Drains up to `max` packets from TX queue `queue` (the "wire" side;
    /// in tests and examples this is what carries replies back to the
    /// client).
    pub fn tx_drain(&self, queue: u16, out: &mut Vec<Packet>, max: usize) -> usize {
        let n = burst(&self.tx[queue as usize], out, max);
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

    /// Device-level statistics snapshot.
    pub fn stats(&self) -> NicStats {
        NicStats {
            rx_delivered: self.rx_delivered.load(Ordering::Relaxed),
            rx_malformed: self.rx_malformed.load(Ordering::Relaxed),
            rx_ring_full: self.rx_ring_full.load(Ordering::Relaxed),
            tx_sent: self.tx_sent.load(Ordering::Relaxed),
            rx_bytes: self.rx_bytes.load(Ordering::Relaxed),
            tx_bytes: self.tx_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use minos_wire::packet::{synthesize, Endpoint};
    use minos_wire::udp::UdpHeader;

    fn packet_to_port(port: u16, payload: &[u8]) -> Packet {
        synthesize(
            Endpoint::host(1, 1000),
            Endpoint::host(2, port),
            Bytes::copy_from_slice(payload),
        )
    }

    fn packet_to_queue(q: u16) -> Packet {
        packet_to_port(UdpHeader::port_for_queue(q), b"hello")
    }

    #[test]
    fn destination_port_names_the_queue() {
        let nic = VirtualNic::new(NicConfig::new(8));
        for q in 0..8u16 {
            assert_eq!(nic.deliver_packet(packet_to_queue(q)), Delivery::Queued(q));
        }
        for q in 0..8u16 {
            let mut out = Vec::new();
            assert_eq!(nic.rx_burst(q, &mut out, 32), 1);
            assert_eq!(out[0].meta.udp.dst_port, UdpHeader::port_for_queue(q));
        }
        assert_eq!(nic.stats().rx_delivered, 8);
    }

    #[test]
    fn port_naming_no_queue_is_dropped_and_counted() {
        let nic = VirtualNic::new(NicConfig::new(8));
        for port in [
            80,
            UdpHeader::port_for_queue(0) - 1,
            UdpHeader::port_for_queue(8),
        ] {
            let packet = packet_to_port(port, b"x");
            assert_eq!(nic.deliver_packet(packet), Delivery::DroppedMalformed);
        }
        assert_eq!(nic.stats().rx_malformed, 3);
        assert_eq!(nic.stats().rx_delivered, 0);
    }

    #[test]
    fn ring_full_tail_drops() {
        let nic = VirtualNic::new(NicConfig::new(1).with_queue_capacity(2));
        assert_eq!(nic.deliver_packet(packet_to_queue(0)), Delivery::Queued(0));
        assert_eq!(nic.deliver_packet(packet_to_queue(0)), Delivery::Queued(0));
        assert_eq!(
            nic.deliver_packet(packet_to_queue(0)),
            Delivery::DroppedFull(0)
        );
        assert_eq!(nic.stats().rx_ring_full, 1);
    }

    /// Whether `fd` polls readable right now.
    fn readable(fd: RawFd) -> bool {
        #[repr(C)]
        struct PollFd {
            fd: i32,
            events: i16,
            revents: i16,
        }
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
        }
        let mut p = PollFd {
            fd,
            events: 1, // POLLIN
            revents: 0,
        };
        // SAFETY: one live pollfd, no wait.
        unsafe { poll(&mut p, 1, 0) == 1 }
    }

    #[test]
    fn the_doorbell_reads_readable_while_the_ring_holds_packets() {
        let nic = VirtualNic::new(NicConfig::new(2));
        let (bell, other) = (nic.rx_doorbell(1), nic.rx_doorbell(0));
        let mut out = Vec::new();
        assert!(!readable(bell), "an idle ring");
        for _ in 0..3 {
            nic.deliver_packet(packet_to_queue(1));
            assert!(readable(bell), "a packet waits");
            assert!(!readable(other), "another queue's doorbell");
        }
        assert_eq!(nic.rx_burst(1, &mut out, 2), 2);
        assert!(readable(bell), "one packet left");
        assert_eq!(nic.rx_burst(1, &mut out, 2), 1);
        // Until a burst finds the ring empty, the bell may still ring.
        assert_eq!(nic.rx_burst(1, &mut out, 2), 0);
        assert!(!readable(bell), "drained and found empty");
        nic.deliver_packet(packet_to_queue(1));
        assert!(readable(bell), "the next delivery rings again");
    }

    #[test]
    fn tx_ring_full_tail_drops() {
        let nic = VirtualNic::new(NicConfig::new(1).with_queue_capacity(2));
        assert!(nic.tx_push(0, packet_to_queue(0)));
        assert!(nic.tx_push(0, packet_to_queue(0)));
        assert!(!nic.tx_push(0, packet_to_queue(0)));
        let mut out = Vec::new();
        assert_eq!(nic.tx_drain(0, &mut out, 32), 2);
        assert_eq!(nic.stats().tx_sent, 2);
    }

    #[test]
    fn tx_roundtrip() {
        let nic = VirtualNic::new(NicConfig::new(2));
        assert!(nic.tx_push(1, packet_to_queue(1)));
        let mut out = Vec::new();
        assert_eq!(nic.tx_drain(1, &mut out, 32), 1);
        assert_eq!(nic.stats().tx_sent, 1);
        assert!(nic.stats().tx_bytes > 0);
    }

    #[test]
    fn rx_burst_respects_batch_size() {
        let nic = VirtualNic::new(NicConfig::new(1));
        for _ in 0..50 {
            nic.deliver_packet(packet_to_queue(0));
        }
        let mut out = Vec::new();
        assert_eq!(nic.rx_burst(0, &mut out, 32), 32);
        assert_eq!(nic.rx_burst(0, &mut out, 32), 18);
    }

    #[test]
    fn rx_ring_is_fifo_across_bursts() {
        let nic = VirtualNic::new(NicConfig::new(1).with_queue_capacity(16));
        for tag in 0..10u8 {
            let packet = packet_to_port(UdpHeader::port_for_queue(0), &[tag; 8]);
            assert_eq!(nic.deliver_packet(packet), Delivery::Queued(0));
        }
        let mut out = Vec::new();
        assert_eq!(nic.rx_burst(0, &mut out, 4), 4);
        assert_eq!(nic.rx_burst(0, &mut out, 100), 6);
        assert_eq!(nic.rx_burst(0, &mut out, 100), 0);
        for (i, p) in out.iter().enumerate() {
            assert_eq!(p.payload[0], i as u8, "FIFO order");
        }
    }
}
