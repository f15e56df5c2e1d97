//! The two [`Transport`]s over the in-process [`VirtualNic`]: the
//! server's [`VirtualTransport`] and the client's
//! [`VirtualClientTransport`].
//!
//! The NIC's rings carry [`Packet`]s with contiguous payloads, as
//! hardware DMA engines consume contiguous descriptors. Scatter-gather
//! [`TxPacket`]s are therefore *gathered* here, in both directions —
//! into pooled slots, so the gather allocates nothing in steady state
//! — and each transport counts the segment bytes it gathered in its
//! own [`TransportStats::tx_copied_bytes`], keeping the zero-copy
//! accounting honest across backends.

use crate::pool::{BufferPool, PoolStats};
use crate::transport::{RxReadiness, Transport, TransportStats};
use minos_nic::{Delivery, VirtualNic};
use minos_wire::packet::{Endpoint, Packet, TxPacket};
use minos_wire::udp::UdpHeader;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bytes per pooled gather slot: the largest UDP payload under the MTU.
const GATHER_SLOT_LEN: usize = minos_wire::MAX_UDP_PAYLOAD;

/// Payload-gather slots in a [`VirtualClientTransport`]'s pool — sized
/// like a client-side UDP transport's RX pool.
const CLIENT_GATHER_SLOTS: usize = 512;

/// Payload-gather slots per queue in a [`VirtualTransport`]'s pool.
const SERVER_GATHER_SLOTS_PER_QUEUE: usize = 64;

/// Host id servers use in the virtual world (clients must differ).
const VIRTUAL_SERVER_HOST: u32 = 1;

/// Gathers one packet's frame into a contiguous payload, preferring a
/// pooled slot from `shard` (the sending queue, so concurrent queues
/// use their own freelists; allocation-free in steady state, an
/// exhausted pool falls back to the allocating gather), and adds the
/// segment bytes it copied to `copied`.
fn gather(pool: &BufferPool, shard: usize, pkt: TxPacket, copied: &AtomicU64) -> Packet {
    let mut regions = pkt.frame.regions();
    let payload = match (regions.next(), regions.next()) {
        // A frame that is already one contiguous segment (a packet
        // wrapped by `TxPacket::from_packet`) needs no gather at all.
        (Some(minos_wire::Region::Segment(only)), None) => only.clone(),
        _ => {
            let mut slot = pool.take_on(shard);
            match pkt.frame.gather_into(slot.as_mut_slice()) {
                Some(len) => {
                    copied.fetch_add(pkt.frame.segment_len() as u64, Ordering::Relaxed);
                    slot.freeze(len)
                }
                None => {
                    let (payload, n) = pkt.frame.to_contiguous();
                    copied.fetch_add(n as u64, Ordering::Relaxed);
                    payload
                }
            }
        }
    };
    Packet {
        meta: pkt.meta,
        payload,
    }
}

/// The server-side adapter over a shared [`VirtualNic`]: RX queues are
/// the NIC's RX rings, TX gathers scatter-gather frames into pooled
/// slots and pushes them onto the NIC's TX rings (from which an
/// in-process client drains replies).
#[derive(Debug)]
pub struct VirtualTransport {
    nic: Arc<VirtualNic>,
    /// Pooled payload buffers for TX gathers, so gathering a reply
    /// burst recycles slots instead of allocating.
    pool: BufferPool,
    /// Segment bytes this transport gathered.
    tx_copied_bytes: AtomicU64,
}

impl VirtualTransport {
    /// Wraps `nic`.
    pub fn new(nic: Arc<VirtualNic>) -> Self {
        let queues = nic.num_queues() as usize;
        let slots = queues * SERVER_GATHER_SLOTS_PER_QUEUE;
        VirtualTransport {
            pool: BufferPool::sharded(slots, GATHER_SLOT_LEN, queues),
            nic,
            tx_copied_bytes: AtomicU64::new(0),
        }
    }

    /// The underlying NIC.
    pub fn nic(&self) -> &Arc<VirtualNic> {
        &self.nic
    }

    /// TX gather-pool counters (mirrors `UdpTransport::pool_stats`).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }
}

impl Transport for VirtualTransport {
    fn num_queues(&self) -> u16 {
        self.nic.num_queues()
    }

    fn rx_burst(&self, queue: u16, out: &mut Vec<Packet>, max: usize) -> usize {
        self.nic.rx_burst(queue, out, max)
    }

    fn tx_frames(&self, queue: u16, frames: &mut Vec<TxPacket>) -> usize {
        let mut sent = 0;
        for pkt in frames.drain(..) {
            let packet = gather(&self.pool, queue as usize, pkt, &self.tx_copied_bytes);
            if !self.nic.tx_push(queue, packet) {
                break;
            }
            sent += 1;
        }
        sent
    }

    fn local_endpoint(&self, queue: u16) -> Endpoint {
        Endpoint::host(VIRTUAL_SERVER_HOST, UdpHeader::port_for_queue(queue))
    }

    /// The ring's doorbell, which the client side rings when it
    /// delivers onto an idle ring.
    fn rx_readiness(&self, queue: u16) -> RxReadiness {
        RxReadiness {
            fd: Some(self.nic.rx_doorbell(queue)),
            due_in_ns: None,
        }
    }

    fn stats(&self) -> TransportStats {
        let s = self.nic.stats();
        TransportStats {
            rx_packets: s.rx_delivered,
            rx_bytes: s.rx_bytes,
            tx_packets: s.tx_sent,
            tx_bytes: s.tx_bytes,
            tx_dropped: 0,
            tx_copied_bytes: self.tx_copied_bytes.load(Ordering::Relaxed),
        }
    }

    fn collect_metrics(&self, out: &mut Vec<(String, minos_obs::MetricValue)>) {
        crate::metrics::push_transport_stats(out, &self.stats());
        crate::metrics::push_pool_stats(out, &self.pool.stats());
        let nic = self.nic.stats();
        let c = |name: &str, v: u64| (format!("nic.{name}"), minos_obs::MetricValue::Counter(v));
        out.push(c("rx_malformed", nic.rx_malformed));
        out.push(c("rx_ring_full", nic.rx_ring_full));
    }
}

/// The client-side adapter over a server's [`VirtualNic`]: a
/// single-queue transport whose TX gathers each packet and delivers it
/// through the NIC's receive path (steering onto an RX ring), and
/// whose RX drains the server's TX rings, which is where replies
/// appear in the in-process world.
#[derive(Debug)]
pub struct VirtualClientTransport {
    nic: Arc<VirtualNic>,
    /// The endpoint this client claims (replies are addressed to it).
    endpoint: Endpoint,
    /// Pooled payload buffers for TX gathers: the virtual wire's analog
    /// of the UDP backend's RX pool, so gathering a request recycles
    /// slots instead of allocating.
    pool: BufferPool,
    /// Segment bytes this transport gathered.
    tx_copied_bytes: AtomicU64,
}

impl VirtualClientTransport {
    /// Creates a client transport speaking to `nic` as `endpoint`.
    pub fn new(nic: Arc<VirtualNic>, endpoint: Endpoint) -> Self {
        VirtualClientTransport {
            nic,
            endpoint,
            pool: BufferPool::new(CLIENT_GATHER_SLOTS, GATHER_SLOT_LEN),
            tx_copied_bytes: AtomicU64::new(0),
        }
    }
}

impl Transport for VirtualClientTransport {
    fn num_queues(&self) -> u16 {
        1
    }

    fn rx_burst(&self, _queue: u16, out: &mut Vec<Packet>, max: usize) -> usize {
        let mut moved = 0;
        for q in 0..self.nic.num_queues() {
            moved += self.nic.tx_drain(q, out, max.saturating_sub(moved));
        }
        moved
    }

    fn tx_frames(&self, _queue: u16, frames: &mut Vec<TxPacket>) -> usize {
        let mut sent = 0;
        for pkt in frames.drain(..) {
            let packet = gather(&self.pool, 0, pkt, &self.tx_copied_bytes);
            if !matches!(self.nic.deliver_packet(packet), Delivery::Queued(_)) {
                break;
            }
            sent += 1;
        }
        sent
    }

    fn local_endpoint(&self, _queue: u16) -> Endpoint {
        self.endpoint
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            tx_copied_bytes: self.tx_copied_bytes.load(Ordering::Relaxed),
            ..TransportStats::default()
        }
    }

    fn collect_metrics(&self, out: &mut Vec<(String, minos_obs::MetricValue)>) {
        crate::metrics::push_transport_stats(out, &self.stats());
        crate::metrics::push_pool_stats(out, &self.pool.stats());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use minos_nic::NicConfig;
    use minos_wire::packet::{synthesize, synthesize_frame};
    use minos_wire::TxFrame;

    #[test]
    fn client_tx_lands_in_server_rx() {
        let nic = Arc::new(VirtualNic::new(NicConfig::new(4)));
        let client_ep = Endpoint::host(100, 20_000);
        let client = VirtualClientTransport::new(Arc::clone(&nic), client_ep);
        let server = VirtualTransport::new(Arc::clone(&nic));

        let dst = Transport::local_endpoint(&server, 2);
        let pkt = TxPacket::from_packet(synthesize(client_ep, dst, Bytes::from_static(b"ping")));
        assert_eq!(Transport::tx_frames(&client, 0, &mut vec![pkt]), 1);

        let mut out = Vec::new();
        assert_eq!(Transport::rx_burst(&server, 2, &mut out, 32), 1);
        assert_eq!(&out[0].payload[..], b"ping");
        assert_eq!(out[0].meta.udp.src_port, 20_000);
    }

    #[test]
    fn server_tx_drains_to_client() {
        let nic = Arc::new(VirtualNic::new(NicConfig::new(2)));
        let client_ep = Endpoint::host(101, 21_000);
        let client = VirtualClientTransport::new(Arc::clone(&nic), client_ep);
        let server = VirtualTransport::new(Arc::clone(&nic));

        let reply = TxPacket::from_packet(synthesize(
            Transport::local_endpoint(&server, 1),
            client_ep,
            Bytes::from_static(b"pong"),
        ));
        assert_eq!(Transport::tx_frames(&server, 1, &mut vec![reply]), 1);

        let mut out = Vec::new();
        assert_eq!(Transport::rx_burst(&client, 0, &mut out, 32), 1);
        assert_eq!(&out[0].payload[..], b"pong");
        assert_eq!(out[0].meta.udp.dst_port, client_ep.port);
    }

    #[test]
    fn multi_segment_frames_gather_and_are_counted() {
        let nic = Arc::new(VirtualNic::new(NicConfig::new(1)));
        let client_ep = Endpoint::host(102, 22_000);
        let client = VirtualClientTransport::new(Arc::clone(&nic), client_ep);
        let server = VirtualTransport::new(Arc::clone(&nic));

        // A header + value scatter-gather reply from the server side.
        let mut frame = TxFrame::new();
        bytes::BufMut::put_slice(&mut frame, b"hdr:");
        frame.push_segment(Bytes::from_static(b"segmented value"));
        let reply = synthesize_frame(Transport::local_endpoint(&server, 0), client_ep, frame);
        let mut burst = vec![reply];
        assert_eq!(Transport::tx_frames(&server, 0, &mut burst), 1);

        let mut out = Vec::new();
        assert_eq!(Transport::rx_burst(&client, 0, &mut out, 32), 1);
        assert_eq!(&out[0].payload[..], b"hdr:segmented value");
        // The gather was honest: segment bytes counted, pooled slot used.
        let stats = Transport::stats(&server);
        assert_eq!(stats.tx_copied_bytes, b"segmented value".len() as u64);
        assert!(server.pool_stats().hits >= 1);
    }

    #[test]
    fn client_tx_gathers_multi_segment_requests_and_counts_them() {
        let nic = Arc::new(VirtualNic::new(NicConfig::new(1)));
        let client_ep = Endpoint::host(103, 23_000);
        let client = VirtualClientTransport::new(Arc::clone(&nic), client_ep);
        let server = VirtualTransport::new(Arc::clone(&nic));

        let mut frame = TxFrame::new();
        bytes::BufMut::put_slice(&mut frame, b"hdr:");
        frame.push_segment(Bytes::from_static(b"gathered where it is sent"));
        let request = synthesize_frame(client_ep, Transport::local_endpoint(&server, 0), frame);
        assert_eq!(Transport::tx_frames(&client, 0, &mut vec![request]), 1);

        let mut out = Vec::new();
        assert_eq!(Transport::rx_burst(&server, 0, &mut out, 32), 1);
        assert_eq!(&out[0].payload[..], b"hdr:gathered where it is sent");
        assert_eq!(out[0].meta.udp.src_port, client_ep.port);
        assert_eq!(nic.stats().rx_malformed, 0);
        // The gather is the client's, and counted there only.
        let gathered = b"gathered where it is sent".len() as u64;
        assert_eq!(Transport::stats(&client).tx_copied_bytes, gathered);
        assert_eq!(Transport::stats(&server).tx_copied_bytes, 0);
    }

    #[test]
    fn single_segment_shim_frames_gather_nothing() {
        let nic = Arc::new(VirtualNic::new(NicConfig::new(1)));
        let server = VirtualTransport::new(Arc::clone(&nic));
        let dst = Endpoint::host(100, 20_000);
        let pkt = TxPacket::from_packet(synthesize(
            Transport::local_endpoint(&server, 0),
            dst,
            Bytes::from_static(b"contiguous already"),
        ));
        assert_eq!(Transport::tx_frames(&server, 0, &mut vec![pkt]), 1);
        assert_eq!(
            Transport::stats(&server).tx_copied_bytes,
            0,
            "a single-segment frame must ride the pool-free fast path"
        );
    }
}
