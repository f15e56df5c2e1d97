//! Property tests for the `sendmmsg` → `recvmmsg` path:
//! arbitrary payload sizes and counts move through [`UdpTransport`]
//! bursts with bytes preserved, per-queue FIFO order intact, and no
//! cross-queue leakage — whether or not runs of equal-length frames
//! travel as segmentation-offload trains.

use bytes::Bytes;
use minos_net::{Transport, UdpConfig, UdpTransport};
use minos_wire::packet::{synthesize, TxPacket};
use minos_wire::MAX_UDP_PAYLOAD;
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

const QUEUES: u16 = 2;

/// Disjoint, PID-salted port ranges per bound server: these are
/// `SO_REUSEPORT` sockets, so a bind over another live test server —
/// in this process or a concurrently running suite — would *succeed*
/// and split its traffic instead of failing the probe.
static PORTS: minos_net::testport::TestPorts = minos_net::testport::TestPorts::new(25_000, 32_000);

fn bind_pair() -> (UdpTransport, UdpTransport) {
    loop {
        let base = PORTS.alloc(8);
        if let Ok(server) = UdpTransport::bind(UdpConfig::loopback(base, QUEUES)) {
            let client = UdpTransport::bind_client(Ipv4Addr::LOCALHOST).expect("bind client");
            return (server, client);
        }
    }
}

/// Deterministic payload for message `i`: sized `size`, content derived
/// from `i` so both truncation and reordering are detectable.
fn payload(i: usize, size: usize) -> Bytes {
    let mut v = vec![(i % 251) as u8; size.max(4)];
    v[..4].copy_from_slice(&(i as u32).to_be_bytes());
    Bytes::from(v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random (size, queue) schedules pushed as one client burst arrive
    /// byte-identical, in per-queue FIFO order, on exactly the queue
    /// they addressed.
    #[test]
    fn batched_bursts_preserve_bytes_order_and_isolation(
        schedule in prop::collection::vec(
            (4usize..MAX_UDP_PAYLOAD, 0u16..QUEUES),
            1..48,
        ),
    ) {
        let (server, client) = bind_pair();
        let src = client.local_endpoint(0);
        let mut burst: Vec<TxPacket> = schedule
            .iter()
            .enumerate()
            .map(|(i, &(size, q))| {
                synthesize(src, server.local_endpoint(q), payload(i, size))
            })
            .map(TxPacket::from_packet)
            .collect();
        let n = burst.len();
        prop_assert_eq!(client.tx_frames(0, &mut burst), n);

        // Collect each queue until its share arrived.
        let deadline = Instant::now() + Duration::from_secs(10);
        for q in 0..QUEUES {
            let expected: Vec<usize> = schedule
                .iter()
                .enumerate()
                .filter(|(_, &(_, sq))| sq == q)
                .map(|(i, _)| i)
                .collect();
            let mut got = Vec::new();
            while got.len() < expected.len() {
                prop_assert!(
                    Instant::now() < deadline,
                    "queue {} got {} of {}", q, got.len(), expected.len()
                );
                server.rx_burst(q, &mut got, 64);
            }
            prop_assert_eq!(got.len(), expected.len(), "no cross-queue leakage");
            for (pkt, &i) in got.iter().zip(&expected) {
                let (size, _) = schedule[i];
                prop_assert_eq!(
                    pkt.payload.clone(),
                    payload(i, size),
                    "queue {} message {} must arrive intact and in order", q, i
                );
            }
        }
    }

    /// Bursts made of runs — the shape that coalesces into trains —
    /// deliver each destination exactly the sequence it was sent, with
    /// segmentation offload and with it latched off, through receive
    /// bursts small enough to cut every train.
    #[test]
    fn runs_arrive_as_sent_with_and_without_offload(
        runs in prop::collection::vec(
            (prop::sample::select(vec![1usize, 60, 700, 1471, 1472]), 0u16..QUEUES, 1usize..50),
            1..10,
        ),
    ) {
        static LATCH: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _latch = LATCH.lock().unwrap_or_else(|e| e.into_inner());
        let frames: Vec<(usize, u16)> = runs
            .iter()
            .flat_map(|&(size, q, n)| std::iter::repeat_n((size, q), n))
            .collect();
        let body = |i: usize, size: usize| Bytes::from(vec![(i % 251) as u8; size]);
        // One pair for both legs (the port range is finite). Offload
        // first, so the receive sockets coalesce: that is decided at bind.
        minos_net::set_offload_available(true);
        let (server, client) = bind_pair();
        let src = client.local_endpoint(0);
        for offload in [true, false] {
            minos_net::set_offload_available(offload);
            let (tx0, rx0) = (client.io_stats(), server.io_stats());
            let mut burst: Vec<TxPacket> = frames
                .iter()
                .enumerate()
                .map(|(i, &(size, q))| synthesize(src, server.local_endpoint(q), body(i, size)))
                .map(TxPacket::from_packet)
                .collect();
            prop_assert_eq!(client.tx_frames(0, &mut burst), frames.len());

            let deadline = Instant::now() + Duration::from_secs(10);
            for q in 0..QUEUES {
                let expected: Vec<Bytes> = frames
                    .iter()
                    .enumerate()
                    .filter(|(_, &(_, fq))| fq == q)
                    .map(|(i, &(size, _))| body(i, size))
                    .collect();
                let mut got = Vec::new();
                while got.len() < expected.len() {
                    prop_assert!(
                        Instant::now() < deadline,
                        "offload {}: queue {} got {} of {}", offload, q, got.len(), expected.len()
                    );
                    prop_assert!(server.rx_burst(q, &mut got, 5) <= 5);
                }
                let got: Vec<Bytes> = got.into_iter().map(|p| p.payload).collect();
                prop_assert_eq!(got, expected, "offload {}: queue {}", offload, q);
            }
            let (tx, rx) = (client.io_stats(), server.io_stats());
            prop_assert_eq!(tx.tx_packets - tx0.tx_packets, frames.len() as u64);
            prop_assert_eq!(rx.rx_packets - rx0.rx_packets, frames.len() as u64);
            // What left in trains arrived in trains, datagram for
            // datagram (loopback neither splits nor merges them) — and
            // with the latch off nothing did.
            prop_assert_eq!(tx.tx_trains - tx0.tx_trains, rx.rx_trains - rx0.rx_trains);
            prop_assert_eq!(
                tx.tx_train_packets - tx0.tx_train_packets,
                rx.rx_train_packets - rx0.rx_train_packets
            );
            if !offload {
                prop_assert_eq!(tx.tx_trains, tx0.tx_trains);
            }
            prop_assert_eq!(rx.pool_outstanding, 0);
        }
        minos_net::set_offload_available(true);
    }
}
