//! Backend-parametrized conformance suite for the [`Transport`]
//! contract: one generic harness run against the in-process
//! [`VirtualNic`] adapters and against real-UDP [`UdpTransport`]
//! (`recvmmsg`/`sendmmsg`), so the two backends can never drift apart
//! behaviorally.
//!
//! Covered: rx/tx burst semantics, `max` truncation, empty-burst
//! behavior, per-queue isolation and FIFO order, stats monotonicity,
//! and large-message fragmentation round-trips — the last also with
//! segmentation offload on and latched off, which must be invisible
//! above the transport.

use bytes::Bytes;
use minos_net::{
    Transport, TransportStats, UdpConfig, UdpTransport, VirtualClientTransport, VirtualTransport,
};
use minos_nic::{NicConfig, VirtualNic};
use minos_wire::frag::{
    fragment_frame_with_id, fragment_with_id, FragHeader, Streamed, StreamingReassembler,
};
use minos_wire::message::{Body, Message, ReplyStatus};
use minos_wire::packet::{synthesize, synthesize_frame, Endpoint, Packet, TxPacket};
use minos_wire::MAX_FRAG_CHUNK;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One backend under test: a server-side transport plus a single-queue
/// client transport whose TX reaches the server's RX queues and whose RX
/// drains the server's replies.
struct Backend {
    name: &'static str,
    server: Arc<dyn Transport>,
    client: Arc<dyn Transport>,
    /// Real sockets deliver asynchronously; the harness then polls
    /// with a deadline instead of expecting synchronous delivery.
    asynchronous: bool,
}

/// Allocates disjoint, PID-salted port ranges for every UDP server
/// this binary binds. A "walk until bind fails" probe cannot work
/// here: these are `SO_REUSEPORT` sockets, so binding over another
/// test's live server — in this process or a concurrently running
/// suite — *succeeds* and the kernel then load-balances datagrams
/// between the two, silently stealing traffic.
static PORTS: minos_net::testport::TestPorts = minos_net::testport::TestPorts::new(45_000, 59_000);

fn bind_udp_server(num_queues: u16) -> UdpTransport {
    loop {
        let base = PORTS.alloc(num_queues.max(8));
        // A bind can still fail if an ephemeral client socket landed on
        // the range; the allocator just moves on.
        if let Ok(t) = UdpTransport::bind(UdpConfig::loopback(base, num_queues)) {
            return t;
        }
    }
}

fn virtual_backend(num_queues: u16) -> Backend {
    let nic = Arc::new(VirtualNic::new(NicConfig::new(num_queues)));
    let client_ep = Endpoint::host(100, 20_000);
    Backend {
        name: "virtual",
        server: Arc::new(VirtualTransport::new(Arc::clone(&nic))),
        client: Arc::new(VirtualClientTransport::new(nic, client_ep)),
        asynchronous: false,
    }
}

fn udp_backend(name: &'static str, num_queues: u16) -> Backend {
    let client = UdpTransport::bind_client(Ipv4Addr::LOCALHOST).expect("bind client");
    Backend {
        name,
        server: Arc::new(bind_udp_server(num_queues)),
        client: Arc::new(client),
        asynchronous: true,
    }
}

fn backends(num_queues: u16) -> Vec<Backend> {
    vec![virtual_backend(num_queues), udp_backend("udp", num_queues)]
}

/// Opens a plain `Vec` writer of the message's length.
fn vec_open(h: &FragHeader) -> Option<Vec<u8>> {
    Some(vec![0; h.msg_len as usize])
}

/// Reassembles the fragments of one message; `None` if they never
/// complete it. Every fragment must be well-formed and fresh.
#[track_caller]
fn reassemble(pkts: Vec<Packet>) -> Option<Vec<u8>> {
    let mut reassembler = StreamingReassembler::new(4);
    for pkt in pkts {
        match reassembler.push(pkt.source_endpoint(), pkt.payload, vec_open) {
            Streamed::Complete(message) => return Some(message),
            Streamed::Incomplete => {}
            other => panic!("reassembly failed: {other:?}"),
        }
    }
    None
}

/// Receives until `want` packets arrived (or a deadline), asserting the
/// per-call contract: at most `max` per burst, return value equal to
/// the number of packets appended.
fn rx_collect(
    t: &dyn Transport,
    queue: u16,
    want: usize,
    max_per_burst: usize,
    what: &str,
) -> Vec<Packet> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut out = Vec::new();
    while out.len() < want {
        assert!(
            Instant::now() < deadline,
            "{what}: got {} of {want}",
            out.len()
        );
        let before = out.len();
        let moved = t.rx_burst(queue, &mut out, max_per_burst);
        assert!(
            moved <= max_per_burst,
            "{what}: burst of {moved} exceeds max {max_per_burst}"
        );
        assert_eq!(
            out.len(),
            before + moved,
            "{what}: return value must match appended packets"
        );
    }
    out
}

/// Waits until the backend has `n` datagrams queued on `queue` (real
/// sockets deliver asynchronously), by the only portable signal there
/// is: time.
fn settle(backend: &Backend) {
    if backend.asynchronous {
        std::thread::sleep(Duration::from_millis(200));
    }
}

fn send_to_queue(backend: &Backend, queue: u16, payload: Bytes) -> Packet {
    let pkt = synthesize(
        backend.client.local_endpoint(0),
        backend.server.local_endpoint(queue),
        payload,
    );
    let sent = backend
        .client
        .tx_frames(0, &mut vec![TxPacket::from_packet(pkt.clone())]);
    assert_eq!(sent, 1, "{}: client send failed", backend.name);
    pkt
}

#[test]
fn empty_burst_returns_zero_and_leaves_out_untouched() {
    for backend in backends(2) {
        let mut out = Vec::new();
        for q in 0..2 {
            assert_eq!(
                backend.server.rx_burst(q, &mut out, 32),
                0,
                "{}: idle queue {q} must be empty",
                backend.name
            );
        }
        assert!(out.is_empty(), "{}: out must be untouched", backend.name);
        // max = 0 moves nothing even with traffic queued.
        send_to_queue(&backend, 0, Bytes::from_static(b"queued"));
        settle(&backend);
        assert_eq!(
            backend.server.rx_burst(0, &mut out, 0),
            0,
            "{}",
            backend.name
        );
        assert!(out.is_empty(), "{}: max=0 must not move", backend.name);
    }
}

#[test]
fn rx_burst_truncates_at_max_and_preserves_fifo_order() {
    const K: usize = 48;
    for backend in backends(1) {
        for i in 0..K {
            send_to_queue(&backend, 0, Bytes::from(vec![i as u8; 33]));
        }
        settle(&backend);

        // With K datagrams queued, a smaller max must truncate exactly.
        let mut out = Vec::new();
        let moved = backend.server.rx_burst(0, &mut out, K / 2);
        assert_eq!(moved, K / 2, "{}: exact truncation at max", backend.name);

        // The rest drains in order; bursts never exceed max.
        let rest = rx_collect(&*backend.server, 0, K - K / 2, 7, backend.name);
        out.extend(rest);
        assert_eq!(out.len(), K);
        for (i, pkt) in out.iter().enumerate() {
            assert_eq!(
                &pkt.payload[..],
                &[i as u8; 33][..],
                "{}: FIFO order within a queue",
                backend.name
            );
        }
    }
}

#[test]
fn queues_are_isolated() {
    const QUEUES: u16 = 4;
    for backend in backends(QUEUES) {
        for q in 0..QUEUES {
            for i in 0..3u8 {
                send_to_queue(&backend, q, Bytes::from(vec![q as u8 * 16 + i; 21]));
            }
        }
        settle(&backend);
        for q in 0..QUEUES {
            let got = rx_collect(&*backend.server, q, 3, 32, backend.name);
            for (i, pkt) in got.iter().enumerate() {
                assert_eq!(
                    &pkt.payload[..],
                    &[q as u8 * 16 + i as u8; 21][..],
                    "{}: queue {q} must only see its own traffic, in order",
                    backend.name
                );
                assert_eq!(
                    pkt.meta.udp.dst_port,
                    backend.server.local_endpoint(q).port,
                    "{}: destination port names the queue",
                    backend.name
                );
            }
            // And nothing further is left on the queue.
            let mut extra = Vec::new();
            assert_eq!(
                backend.server.rx_burst(q, &mut extra, 32),
                0,
                "{}",
                backend.name
            );
        }
    }
}

fn assert_monotonic(before: &TransportStats, after: &TransportStats, what: &str) {
    assert!(after.rx_packets >= before.rx_packets, "{what}: rx_packets");
    assert!(after.rx_bytes >= before.rx_bytes, "{what}: rx_bytes");
    assert!(after.tx_packets >= before.tx_packets, "{what}: tx_packets");
    assert!(after.tx_bytes >= before.tx_bytes, "{what}: tx_bytes");
    assert!(after.tx_dropped >= before.tx_dropped, "{what}: tx_dropped");
}

#[test]
fn stats_are_monotonic_and_count_traffic() {
    for backend in backends(2) {
        let s0 = backend.server.stats();
        let mut snapshots = vec![s0];
        for round in 0..3 {
            for q in 0..2 {
                send_to_queue(&backend, q, Bytes::from(vec![round as u8; 100]));
            }
            settle(&backend);
            let _ = rx_collect(&*backend.server, 0, 1, 32, backend.name);
            let _ = rx_collect(&*backend.server, 1, 1, 32, backend.name);
            snapshots.push(backend.server.stats());
        }
        for pair in snapshots.windows(2) {
            assert_monotonic(&pair[0], &pair[1], backend.name);
        }
        let last = snapshots.last().unwrap();
        assert_eq!(
            last.rx_packets - snapshots[0].rx_packets,
            6,
            "{}",
            backend.name
        );
        assert!(last.rx_bytes > snapshots[0].rx_bytes, "{}", backend.name);

        // TX side: replies from the server count on its stats once they
        // are on the wire. (The virtual NIC charges tx at drain time,
        // UDP at send time, so assert after the client received it.)
        let t0 = backend.server.stats();
        let reply = TxPacket::from_packet(synthesize(
            backend.server.local_endpoint(0),
            backend.client.local_endpoint(0),
            Bytes::from_static(b"pong"),
        ));
        let sent = backend.server.tx_frames(0, &mut vec![reply]);
        assert_eq!(sent, 1, "{}", backend.name);
        let _ = rx_collect(&*backend.client, 0, 1, 32, backend.name);
        let t1 = backend.server.stats();
        assert_monotonic(&t0, &t1, backend.name);
        assert_eq!(t1.tx_packets - t0.tx_packets, 1, "{}", backend.name);
    }
}

#[test]
fn large_message_fragmentation_roundtrips_both_directions() {
    for backend in backends(2) {
        // Request direction: client fragments a large message, the
        // server reassembles it from RX bursts.
        let message: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let dst = backend.server.local_endpoint(1);
        let src = backend.client.local_endpoint(0);
        let mut burst: Vec<TxPacket> = fragment_with_id(7, &message)
            .into_iter()
            .map(|frag| synthesize(src, dst, frag))
            .map(TxPacket::from_packet)
            .collect();
        let n_frags = burst.len();
        assert!(n_frags > 100, "200 KB must fragment into many datagrams");
        assert_eq!(
            backend.client.tx_frames(0, &mut burst),
            n_frags,
            "{}: the whole fragment burst must be accepted",
            backend.name
        );
        assert!(burst.is_empty(), "{}: tx_frames drains", backend.name);

        let frags = rx_collect(&*backend.server, 1, n_frags, 32, backend.name);
        let complete =
            reassemble(frags).unwrap_or_else(|| panic!("{}: never completed", backend.name));
        assert_eq!(
            &complete[..],
            &message[..],
            "{}: bytes survive",
            backend.name
        );

        // Reply direction: the server fragments back to the client.
        let reply_msg: Vec<u8> = (0..64_000u32).map(|i| (i % 13) as u8).collect();
        let mut burst: Vec<TxPacket> = fragment_with_id(8, &reply_msg)
            .into_iter()
            .map(|frag| synthesize(dst, src, frag))
            .map(TxPacket::from_packet)
            .collect();
        let n_frags = burst.len();
        assert_eq!(
            backend.server.tx_frames(1, &mut burst),
            n_frags,
            "{}",
            backend.name
        );
        assert!(burst.is_empty(), "{}: tx_frames drains", backend.name);
        let frags = rx_collect(&*backend.client, 0, n_frags, 32, backend.name);
        assert_eq!(
            &reassemble(frags).expect("reply completes")[..],
            &reply_msg[..],
            "{}: reply bytes survive",
            backend.name
        );
    }
}

#[test]
fn held_payloads_survive_buffer_recycling() {
    // Received payloads are (on the UDP backends) windows into pooled
    // slots that recycle once dropped. A payload the application still
    // holds must never be clobbered by later receives — this is the
    // aliasing-safety contract of the zero-copy RX path, checked across
    // every backend so the pooled and unpooled worlds cannot drift.
    const WAVES: usize = 24;
    const PER_WAVE: usize = 32;
    for backend in backends(1) {
        for i in 0..PER_WAVE {
            send_to_queue(&backend, 0, Bytes::from(vec![i as u8; 64]));
        }
        settle(&backend);
        let held = rx_collect(&*backend.server, 0, PER_WAVE, 32, backend.name);

        // Churn far more traffic than any pool/arena holds slots,
        // dropping each wave immediately so slots recycle aggressively.
        for wave in 0..WAVES {
            for i in 0..PER_WAVE {
                send_to_queue(&backend, 0, Bytes::from(vec![(128 + wave + i) as u8; 64]));
            }
            settle(&backend);
            let churn = rx_collect(&*backend.server, 0, PER_WAVE, 32, backend.name);
            drop(churn);
        }

        for (i, pkt) in held.iter().enumerate() {
            assert_eq!(
                &pkt.payload[..],
                &[i as u8; 64][..],
                "{}: a held payload was clobbered by buffer recycling",
                backend.name
            );
        }
    }
}

#[test]
fn tx_frames_wire_equal_to_contiguous_encode_on_every_backend() {
    // The scatter-gather reply path must be invisible on the wire: for
    // every backend (virtual + both UDP syscall paths) and every reply
    // size class — empty, small, exactly one full chunk, barely two
    // fragments, many fragments — sending the reply as encode_frame →
    // fragment_frame → tx_frames must deliver byte-for-byte the
    // datagram payloads of the old contiguous encode → fragment path.
    let header_room = minos_wire::message::MSG_HEADER_LEN;
    let sizes = [
        0usize,
        17,
        MAX_FRAG_CHUNK - header_room, // largest single-fragment reply
        MAX_FRAG_CHUNK - header_room + 1, // smallest two-fragment reply
        3 * MAX_FRAG_CHUNK + 123,
    ];
    for backend in backends(1) {
        let src = backend.server.local_endpoint(0);
        let dst = backend.client.local_endpoint(0);
        for (i, &size) in sizes.iter().enumerate() {
            let msg = Message {
                client_id: 9,
                request_id: 1000 + i as u64,
                client_ts_ns: 424_242,
                body: Body::GetReply {
                    status: ReplyStatus::Ok,
                    key: i as u64,
                    value: Bytes::from((0..size).map(|b| (b % 251) as u8).collect::<Vec<u8>>()),
                },
            };
            let msg_id = 77_000 + i as u64;
            // Reference: the contiguous path's datagram payloads.
            let expected = fragment_with_id(msg_id, &msg.encode());
            // Under test: the scatter-gather path through the backend.
            let mut burst: Vec<TxPacket> = fragment_frame_with_id(msg_id, &msg.encode_frame())
                .into_iter()
                .map(|frag| synthesize_frame(src, dst, frag))
                .collect();
            assert_eq!(burst.len(), expected.len(), "{}", backend.name);
            assert_eq!(
                backend.server.tx_frames(0, &mut burst),
                expected.len(),
                "{}: the whole frame burst must be accepted",
                backend.name
            );
            let got = rx_collect(&*backend.client, 0, expected.len(), 32, backend.name);
            for (pkt, want) in got.iter().zip(&expected) {
                assert_eq!(
                    &pkt.payload[..],
                    &want[..],
                    "{}: size {size} must be wire-identical to the contiguous encode",
                    backend.name
                );
            }
            // And the payloads survive intact end to end: reassemble +
            // decode recovers the original reply.
            let complete = reassemble(got).expect("reply reassembles");
            let decoded = Message::decode(complete.into()).expect("reply decodes");
            assert_eq!(decoded, msg, "{}: payload integrity", backend.name);
        }
    }
}

#[test]
fn coalesced_multi_request_burst_fans_out_across_queues() {
    // The loadgen's coalesced send path pushes many *independent*
    // requests — addressed to different RX queues — through a single
    // tx_frames call. Every backend must route each datagram by its own
    // destination metadata and deliver all of them, in per-queue order.
    const QUEUES: u16 = 4;
    const PER_QUEUE: usize = 8;
    for backend in backends(QUEUES) {
        let src = backend.client.local_endpoint(0);
        let mut burst: Vec<TxPacket> = (0..PER_QUEUE)
            .flat_map(|i| (0..QUEUES).map(move |q| (i, q)))
            .map(|(i, q)| {
                synthesize(
                    src,
                    backend.server.local_endpoint(q),
                    Bytes::from(vec![q as u8 * 32 + i as u8; 40]),
                )
            })
            .map(TxPacket::from_packet)
            .collect();
        let total = burst.len();
        assert_eq!(
            backend.client.tx_frames(0, &mut burst),
            total,
            "{}: the whole coalesced burst must be accepted",
            backend.name
        );
        settle(&backend);
        for q in 0..QUEUES {
            let got = rx_collect(&*backend.server, q, PER_QUEUE, 32, backend.name);
            for (i, pkt) in got.iter().enumerate() {
                assert_eq!(
                    &pkt.payload[..],
                    &[q as u8 * 32 + i as u8; 40][..],
                    "{}: queue {q} must receive its requests in order",
                    backend.name
                );
            }
        }
    }
}

/// The three send/receive paths a fragment burst can take. Built one at
/// a time by [`for_each_path`], because the second needs the
/// process-wide offload latch off while it runs.
const PATHS: [&str; 3] = ["virtual", "udp-mmsg", "udp-offload"];

/// Serializes the tests that move the offload latch (the others pass
/// whichever way it points).
static OFFLOAD_LATCH: Mutex<()> = Mutex::new(());

/// Runs `scenario` once per entry of [`PATHS`]: the virtual NIC, UDP
/// `sendmmsg`/`recvmmsg` with segmentation offload latched off (one
/// datagram per message), and UDP with offload.
fn for_each_path(num_queues: u16, scenario: impl Fn(&Backend)) {
    let _latch = OFFLOAD_LATCH.lock().unwrap_or_else(|e| e.into_inner());
    for path in PATHS {
        minos_net::set_offload_available(path != "udp-mmsg");
        scenario(&match path {
            "virtual" => virtual_backend(num_queues),
            _ => udp_backend(path, num_queues),
        });
    }
    minos_net::set_offload_available(true);
}

/// A `transport.*` counter or gauge of `t`, 0 where the backend has no
/// such metric.
fn transport_metric(t: &dyn Transport, name: &str) -> u64 {
    let mut metrics = Vec::new();
    t.collect_metrics(&mut metrics);
    metrics
        .iter()
        .find(|(n, _)| n == &format!("transport.{name}"))
        .map_or(0, |(_, v)| match v {
            minos_obs::MetricValue::Counter(c) => *c,
            minos_obs::MetricValue::Gauge(g) => *g as u64,
            minos_obs::MetricValue::Hist(_) => 0,
        })
}

/// What `sender` must have counted after one `tx_frames` of `frames`
/// frames that form `trains` trains holding `train_packets` of them:
/// with offload exactly those trains, without it (any other path, or a
/// kernel that refused) none.
fn assert_train_counters(backend: &Backend, sender: &dyn Transport, trains: u64, packets: u64) {
    let offload = transport_metric(sender, "offload") == 1;
    assert_eq!(
        offload,
        backend.name == "udp-offload",
        "{}: the offload gauge follows the latch",
        backend.name
    );
    let (trains, packets) = if offload { (trains, packets) } else { (0, 0) };
    assert_eq!(
        transport_metric(sender, "tx_trains"),
        trains,
        "{}: trains sent",
        backend.name
    );
    assert_eq!(
        transport_metric(sender, "tx_train_packets"),
        packets,
        "{}: datagrams sent inside trains",
        backend.name
    );
}

#[test]
fn a_344_fragment_message_arrives_intact_on_every_path() {
    let msg = Message {
        client_id: 3,
        request_id: 99,
        client_ts_ns: 7,
        body: Body::GetReply {
            status: ReplyStatus::Ok,
            key: 1,
            value: Bytes::from(
                (0..500_000u32)
                    .map(|b| (b % 251) as u8)
                    .collect::<Vec<u8>>(),
            ),
        },
    };
    let expected = fragment_with_id(0xB16, &msg.encode());
    assert_eq!(expected.len(), 344);
    for_each_path(1, |backend| {
        let src = backend.server.local_endpoint(0);
        let dst = backend.client.local_endpoint(0);
        let mut burst: Vec<TxPacket> = fragment_frame_with_id(0xB16, &msg.encode_frame())
            .into_iter()
            .map(|frag| synthesize_frame(src, dst, frag))
            .collect();
        // One idle poll first, as a polling engine would have made: a
        // socket starts coalescing once recvmmsg has worked on it.
        assert_eq!(backend.client.rx_burst(0, &mut Vec::new(), 32), 0);
        // Drained while it is being sent: 500 KB need not fit the
        // receive buffer this host grants.
        let got = std::thread::scope(|scope| {
            let rx = scope.spawn(|| rx_collect(&*backend.client, 0, 344, 32, backend.name));
            assert_eq!(
                backend.server.tx_frames(0, &mut burst),
                344,
                "{}: the whole reply must be accepted",
                backend.name
            );
            rx.join().expect("receiver")
        });
        for (i, (pkt, want)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(
                &pkt.payload[..],
                &want[..],
                "{}: fragment {i} must arrive in place and byte-identical",
                backend.name
            );
        }
        // 343 full fragments and a short last one: 7 trains of 44 and
        // one of 36, all in the one sendmmsg.
        assert_train_counters(backend, &*backend.server, 8, 344);
        if transport_metric(&*backend.server, "offload") == 1 {
            assert_eq!(
                transport_metric(&*backend.server, "tx_syscalls"),
                1,
                "{}: 8 trains fit one sendmmsg",
                backend.name
            );
            assert_eq!(transport_metric(&*backend.client, "rx_train_packets"), 344);
        }
        if backend.name != "virtual" {
            // Datagrams on the wire, however they were packed; and no
            // gathering (the virtual wire does gather: its stand-in
            // for DMA).
            assert_eq!(transport_metric(&*backend.server, "tx_packets"), 344);
            assert_eq!(transport_metric(&*backend.client, "rx_packets"), 344);
            assert_eq!(transport_metric(&*backend.server, "tx_copied_bytes"), 0);
        }
        let complete = reassemble(got).expect("reply reassembles");
        assert_eq!(Message::decode(complete.into()).expect("decodes"), msg);
    });
}

#[test]
fn mixed_bursts_of_singles_and_trains_keep_per_queue_order() {
    // One client burst: singles to three queues around three trains
    // (five full-size fragments; a full one and its short tail; two
    // 60-byte datagrams and a last one of 1 byte), and at the end eight
    // equal 60-byte datagrams — a train whose segment size is not a
    // fragment's.
    const QUEUES: u16 = 3;
    let plan: Vec<(u16, usize)> = [
        vec![(0, 40), (2, 40)],
        vec![(1, 1472); 5],
        vec![(0, 41), (2, 1472), (2, 900)],
        vec![(1, 60), (1, 60), (1, 1)],
        vec![(0, 42), (1, 33)],
        vec![(2, 60); 8],
    ]
    .concat();
    let payload = |i: usize, len: usize| Bytes::from(vec![i as u8; len]);
    for_each_path(QUEUES, |backend| {
        let src = backend.client.local_endpoint(0);
        let mut burst: Vec<TxPacket> = plan
            .iter()
            .enumerate()
            .map(|(i, &(q, len))| {
                synthesize(src, backend.server.local_endpoint(q), payload(i, len))
            })
            .map(TxPacket::from_packet)
            .collect();
        assert_eq!(
            backend.client.tx_frames(0, &mut burst),
            plan.len(),
            "{}",
            backend.name
        );
        for q in 0..QUEUES {
            let want: Vec<Bytes> = plan
                .iter()
                .enumerate()
                .filter(|(_, &(pq, _))| pq == q)
                .map(|(i, &(_, len))| payload(i, len))
                .collect();
            // A max of 3 cuts every train: the rest must wait its turn.
            let got = rx_collect(&*backend.server, q, want.len(), 3, backend.name);
            let got: Vec<Bytes> = got.into_iter().map(|p| p.payload).collect();
            assert_eq!(
                got, want,
                "{}: queue {q} sees its datagrams, whole and in order",
                backend.name
            );
            let mut extra = Vec::new();
            assert_eq!(
                backend.server.rx_burst(q, &mut extra, 32),
                0,
                "{}",
                backend.name
            );
        }
        // Trains: 5 x 1472 to q1; (1472, 900) to q2; (60, 60, 1) to q1;
        // 8 x 60 to q2. Everything else travels alone.
        assert_train_counters(backend, &*backend.client, 4, 5 + 2 + 3 + 8);
        if backend.name != "virtual" {
            assert_eq!(
                transport_metric(&*backend.client, "tx_packets"),
                plan.len() as u64
            );
            assert_eq!(
                transport_metric(&*backend.server, "rx_packets"),
                plan.len() as u64,
                "{}: rx_packets counts datagrams, not trains",
                backend.name
            );
        }
    });
}

#[test]
fn a_mixed_destination_burst_of_unequal_singles_arrives_intact() {
    // The shape of a server core's reply burst: single datagrams of
    // whatever lengths the values have, to whichever peers asked. A
    // destination is an (address, port) pair, so three server queues
    // stand in for three peers. With offload, every run of neighbours
    // bound for one destination where none is longer than the one
    // before, up to the first that is shorter, shares a train:
    // (120, 90) to q0; (90, 90, 33) to q0; (50, 50) to q1. A longer
    // neighbour (200 then 201; 50 then 70) or another destination
    // starts anew.
    const QUEUES: u16 = 3;
    let plan: [(u16, usize); 12] = [
        (0, 120),
        (0, 90),
        (1, 64),
        (0, 90),
        (0, 90),
        (0, 33),
        (2, 200),
        (2, 201),
        (1, 50),
        (1, 50),
        (1, 70),
        (2, 1),
    ];
    let payload = |i: usize, len: usize| Bytes::from(vec![0x40 + i as u8; len]);
    for_each_path(QUEUES, |backend| {
        let src = backend.client.local_endpoint(0);
        let mut burst: Vec<TxPacket> = plan
            .iter()
            .enumerate()
            .map(|(i, &(q, len))| {
                synthesize(src, backend.server.local_endpoint(q), payload(i, len))
            })
            .map(TxPacket::from_packet)
            .collect();
        assert_eq!(
            backend.client.tx_frames(0, &mut burst),
            plan.len(),
            "{}",
            backend.name
        );
        for q in 0..QUEUES {
            let want: Vec<Bytes> = plan
                .iter()
                .enumerate()
                .filter(|(_, &(pq, _))| pq == q)
                .map(|(i, &(_, len))| payload(i, len))
                .collect();
            let got = rx_collect(&*backend.server, q, want.len(), 32, backend.name);
            let got: Vec<Bytes> = got.into_iter().map(|p| p.payload).collect();
            assert_eq!(
                got, want,
                "{}: queue {q} sees its datagrams, whole and in order",
                backend.name
            );
            assert_eq!(
                backend.server.rx_burst(q, &mut Vec::new(), 32),
                0,
                "{}: and nothing else",
                backend.name
            );
        }
        // `tx_trains == 0` everywhere but on the offload path.
        assert_train_counters(backend, &*backend.client, 3, 2 + 3 + 2);
        if backend.name != "virtual" {
            assert_eq!(
                transport_metric(&*backend.client, "tx_packets"),
                plan.len() as u64
            );
            assert_eq!(transport_metric(&*backend.client, "tx_copied_bytes"), 0);
            assert_eq!(
                transport_metric(&*backend.client, "tx_syscalls"),
                1,
                "{}: the whole burst is one sendmmsg",
                backend.name
            );
        }
    });
}

#[test]
fn trains_reach_receivers_that_never_asked_for_them() {
    // Offload is the sender's business: a peer that never enabled
    // UDP_GRO — a plain std socket — still gets every fragment as its
    // own datagram.
    let _latch = OFFLOAD_LATCH.lock().unwrap_or_else(|e| e.into_inner());
    minos_net::set_offload_available(true);
    let message: Vec<u8> = (0..100_000u32).map(|i| (i % 241) as u8).collect();
    let frags = fragment_with_id(5, &message);
    let sender = UdpTransport::bind_client(Ipv4Addr::LOCALHOST).expect("bind sender");
    let src = sender.local_endpoint(0);

    let plain = std::net::UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind std socket");
    plain
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let plain_ep = minos_net::endpoint_for(Ipv4Addr::LOCALHOST, plain.local_addr().unwrap().port());

    let burst_to = |dst: Endpoint| -> Vec<TxPacket> {
        frags
            .iter()
            .map(|f| TxPacket::from_packet(synthesize(src, dst, f.clone())))
            .collect()
    };
    std::thread::scope(|scope| {
        let rx = scope.spawn(|| {
            let mut buf = vec![0u8; 65_536];
            let mut reassembler = StreamingReassembler::new(4);
            loop {
                let (len, _) = plain.recv_from(&mut buf).expect("std socket receives");
                assert!(
                    len <= minos_wire::MAX_UDP_PAYLOAD,
                    "one fragment per datagram"
                );
                if let Streamed::Complete(bytes) =
                    reassembler.push(1, Bytes::copy_from_slice(&buf[..len]), vec_open)
                {
                    break bytes;
                }
            }
        });
        assert_eq!(sender.tx_frames(0, &mut burst_to(plain_ep)), frags.len());
        assert_eq!(&rx.join().expect("std receiver")[..], &message[..]);
    });

    if sender.io_stats().offload {
        assert!(sender.io_stats().tx_trains >= 2, "the burst left as trains");
    }
}

extern "C" {
    fn getsockopt(fd: i32, level: i32, optname: i32, optval: *mut i32, optlen: *mut u32) -> i32;
}

/// The value of the `SOL_SOCKET` option `opt` on queue 0's socket.
fn socket_option(transport: &UdpTransport, opt: i32) -> i32 {
    const SOL_SOCKET: i32 = 1;
    let fd = transport
        .rx_readiness(0)
        .fd
        .expect("a UDP queue has its socket");
    let (mut value, mut len) = (-1i32, std::mem::size_of::<i32>() as u32);
    // SAFETY: `fd` is a live socket the transport owns, and both out
    // pointers address locals of the sizes passed.
    let rc = unsafe { getsockopt(fd, SOL_SOCKET, opt, &mut value, &mut len) };
    assert_eq!(rc, 0, "getsockopt: {}", std::io::Error::last_os_error());
    value
}

#[test]
fn client_sockets_own_their_ports_and_server_sockets_share_theirs() {
    const SO_REUSEADDR: i32 = 2;
    const SO_REUSEPORT: i32 = 15;
    let server = bind_udp_server(1);
    let clients: Vec<UdpTransport> = (0..64)
        .map(|_| UdpTransport::bind_client(Ipv4Addr::LOCALHOST).expect("bind client"))
        .collect();
    for opt in [SO_REUSEADDR, SO_REUSEPORT] {
        assert_eq!(socket_option(&server, opt), 1, "server option {opt}");
        assert_eq!(socket_option(&clients[0], opt), 0, "client option {opt}");
    }
    // No two live clients share a port, so none receives another's
    // replies.
    let ports: std::collections::HashSet<u16> = clients.iter().map(|c| c.base_port()).collect();
    assert_eq!(ports.len(), clients.len(), "distinct client ports");
}
