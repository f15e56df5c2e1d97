//! Property tests on the NIC: steering follows the destination port
//! alone; fault-free delivery must conserve packets.

use bytes::Bytes;
use minos_nic::{Delivery, NicConfig, VirtualNic};
use minos_wire::packet::{synthesize, Endpoint};
use minos_wire::udp::{UdpHeader, QUEUE_PORT_BASE};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A packet to port `QUEUE_PORT_BASE + q` with `q` in range always
    /// lands on exactly queue `q`; any other port is dropped and
    /// counted in `rx_malformed`.
    #[test]
    fn steering_follows_the_destination_port(
        n_queues in 1u16..16,
        host in 1u32..1000,
        src_port in 1u16..u16::MAX,
        dst_port in prop_oneof![QUEUE_PORT_BASE..QUEUE_PORT_BASE + 16, any::<u16>()],
        payload in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let nic = VirtualNic::new(NicConfig::new(n_queues));
        let src = Endpoint::host(100 + host, src_port);
        let dst = Endpoint::host(1, dst_port);
        let packet = synthesize(src, dst, Bytes::from(payload));
        let named = dst_port
            .checked_sub(QUEUE_PORT_BASE)
            .filter(|&q| q < n_queues);
        for _ in 0..2 {
            let want = named.map_or(Delivery::DroppedMalformed, Delivery::Queued);
            prop_assert_eq!(nic.deliver_packet(packet.clone()), want);
        }
        for q in 0..n_queues {
            let mut out = Vec::new();
            let want = if named == Some(q) { 2 } else { 0 };
            prop_assert_eq!(nic.rx_burst(q, &mut out, 8), want);
            for pkt in &out {
                prop_assert_eq!(pkt.meta.udp.dst_port, UdpHeader::port_for_queue(q));
            }
        }
        let stats = nic.stats();
        let delivered = if named.is_some() { 2 } else { 0 };
        prop_assert_eq!(stats.rx_delivered, delivered);
        prop_assert_eq!(stats.rx_malformed, 2 - delivered);
    }

    /// Fault-free delivery conserves packets: delivered + ring-full
    /// drops == sent; bursts drain exactly what was queued, in order
    /// per queue.
    #[test]
    fn conservation_under_bursts(
        frames in prop::collection::vec((0u16..4, 0u8..255), 1..100),
    ) {
        let nic = VirtualNic::new(NicConfig::new(4).with_queue_capacity(64));
        let mut sent_per_queue = [0usize; 4];
        for &(q, tag) in &frames {
            let src = Endpoint::host(100, 5000 + tag as u16);
            let dst = Endpoint::host(1, UdpHeader::port_for_queue(q));
            match nic.deliver_packet(synthesize(src, dst, Bytes::from(vec![tag]))) {
                Delivery::Queued(qq) => {
                    prop_assert_eq!(qq, q);
                    sent_per_queue[q as usize] += 1;
                }
                Delivery::DroppedFull(_) => {}
                other => prop_assert!(false, "{:?}", other),
            }
        }
        let stats = nic.stats();
        prop_assert_eq!(
            stats.rx_delivered + stats.rx_ring_full,
            frames.len() as u64
        );
        for q in 0..4u16 {
            let mut out = Vec::new();
            let n = nic.rx_burst(q, &mut out, 1000);
            prop_assert_eq!(n, sent_per_queue[q as usize]);
        }
    }
}
