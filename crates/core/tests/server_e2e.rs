//! End-to-end tests of the threaded Minos server: real threads, real
//! NIC rings, real wire encoding, real store.

use minos_core::client::Client;
use minos_core::ingest::DISCARD_QUOTA_PER_SOURCE;
use minos_core::plan::Destination;
use minos_core::server::{MinosServer, ServerConfig};
use minos_net::VirtualTransport;
use minos_wire::message::{OpKind, ReplyStatus};
use std::time::Duration;

/// A lost fragment must not strand the partial reassembly: the stale
/// partial is evicted after two reassembly rounds and its mempool
/// reservation released — the large-PUT ingest analog of the RX-pool
/// leak the ROADMAP tracked.
#[test]
fn lost_fragment_reservation_is_evicted_and_released() {
    use minos_wire::frag::fragment_with_id;
    use minos_wire::message::{Body, Message};
    use minos_wire::packet::{synthesize, Endpoint};
    use minos_wire::udp::UdpHeader;

    let mut config = ServerConfig::for_test(2, 10_000);
    config.minos.reassembly_round_ns = 20_000_000; // 20 ms rounds
    let mut server = MinosServer::start(config);
    let nic = server.nic();

    // A 100 KB PUT, missing its last fragment.
    let msg = Message {
        client_id: 1,
        request_id: 1,
        client_ts_ns: 0,
        body: Body::Put {
            key: 77,
            value: bytes::Bytes::from(vec![7u8; 100_000]),
            ttl_ms: 0,
        },
    };
    let frags = fragment_with_id(0x1234, &msg.encode());
    let src = Endpoint::host(100, 20_000);
    for frag in &frags[..frags.len() - 1] {
        let dst = Endpoint::host(1, UdpHeader::port_for_queue(0));
        nic.deliver_packet(synthesize(src, dst, frag.clone()));
    }

    // The partial's reservation charges the mempool now...
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.store().mempool().used_bytes() == 0 {
        assert!(std::time::Instant::now() < deadline, "reservation opened");
        std::thread::sleep(Duration::from_micros(100));
    }

    // ...and two 20 ms rounds later the eviction must have released it.
    while server
        .registry()
        .counter("ingest.reassembly_evictions")
        .get()
        == 0
    {
        assert!(
            std::time::Instant::now() < deadline,
            "stale partial evicted within the deadline"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let freed_by = std::time::Instant::now() + Duration::from_secs(10);
    while server.store().mempool().used_bytes() > 0 {
        assert!(
            std::time::Instant::now() < freed_by,
            "evicted reservation returns its mempool block"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.store().len(), 0, "nothing was committed");
    server.shutdown();
}

/// A handoff core that parked is woken by the handoff: rounds of one
/// large PUT and a GET of the same key, each sent to core 0's RX queue
/// once core 1 has parked again, are answered exactly once with the
/// bytes written, at least one park ends in a wake (no epoch runs, so
/// nothing else wakes it), and shutdown joins the parked core. Core 1
/// is sho's one worker: it drains no RX queue, so it parks whenever it
/// finds nothing to do, and both wake paths run — the PUT's fragments
/// are pinned to its software queue, the GET goes through the shared
/// queue.
#[test]
fn a_parked_handoff_core_is_woken_by_its_handoffs_and_joined_at_shutdown() {
    use minos_core::dispatch::DisciplineKind;
    use minos_net::{Transport, VirtualClientTransport};
    use minos_wire::frag::{fragment_frame_each, frames};
    use minos_wire::message::{Body, Message};
    use minos_wire::packet::{synthesize_frame, Endpoint, Packet};
    use minos_wire::udp::UdpHeader;
    use std::collections::HashMap;

    const ROUNDS: u64 = 12;
    let mut config = ServerConfig::for_test(2, 10_000);
    config.minos.discipline = DisciplineKind::Sho { handoff: 1 };
    // No epoch publishes a plan, so only a handoff wakes core 1.
    config.minos.epoch_ns = u64::MAX;
    let server = MinosServer::start(config);
    let registry = server.registry();
    let counter = |name: &str| registry.snapshot().counter(name).unwrap_or(0);
    let peer_at = Endpoint::host(100, 20_000);
    let peer = VirtualClientTransport::new(server.nic(), peer_at);
    let queue_0 = Endpoint::host(1, UdpHeader::port_for_queue(0));

    // Every reply by request id, multi-fragment ones reassembled (keyed
    // by the reply's message id); returns the datagrams it drained.
    let mut replies: HashMap<u64, Vec<Message>> = HashMap::new();
    let mut partials: HashMap<u64, Vec<(u16, bytes::Bytes)>> = HashMap::new();
    let mut pkts: Vec<Packet> = Vec::new();
    let mut receive = |replies: &mut HashMap<u64, Vec<Message>>| {
        let received = peer.rx_burst(0, &mut pkts, 64);
        for pkt in pkts.drain(..) {
            for frame in frames(pkt.payload) {
                let frame = frame.expect("a well-formed reply datagram");
                let fh = frame.header;
                let whole = if fh.count == 1 {
                    frame.into_chunk()
                } else {
                    let parts = partials.entry(fh.msg_id).or_default();
                    parts.push((fh.index, frame.into_chunk()));
                    if parts.len() < usize::from(fh.count) {
                        continue;
                    }
                    let mut parts = partials.remove(&fh.msg_id).unwrap();
                    parts.sort_by_key(|&(index, _)| index);
                    let bytes: Vec<u8> = parts.iter().flat_map(|(_, c)| c.to_vec()).collect();
                    bytes::Bytes::from(bytes)
                };
                let reply = Message::decode(whole).expect("a reply");
                replies.entry(reply.request_id).or_default().push(reply);
            }
        }
        received
    };
    let send = |request_id: u64, body: Body| {
        let msg = Message {
            client_id: 1,
            request_id,
            client_ts_ns: 0,
            body,
        };
        let mut datagrams = Vec::new();
        fragment_frame_each(request_id, false, &msg.encode_frame(), |frame| {
            datagrams.push(synthesize_frame(peer_at, queue_0, frame))
        });
        let n = datagrams.len();
        assert_eq!(peer.tx_frames(0, &mut datagrams), n);
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let parked_since = |parks: u64| {
        while counter("core.1.parks") <= parks {
            assert!(std::time::Instant::now() < deadline, "core 1 parks");
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    // Sends one request once core 1 has parked again, and waits for its
    // reply.
    let mut ask = |request_id: u64, body: Body, replies: &mut HashMap<u64, Vec<Message>>| {
        parked_since(counter("core.1.parks"));
        send(request_id, body);
        while !replies.contains_key(&request_id) {
            assert!(
                std::time::Instant::now() < deadline,
                "{request_id} answered"
            );
            receive(replies);
        }
    };
    for round in 0..ROUNDS {
        let key = 1_000 + round;
        let value: Vec<u8> = (0..6_000u64).map(|b| (b * 7 + round) as u8).collect();
        let put = Body::Put {
            key,
            value: bytes::Bytes::from(value.clone()),
            ttl_ms: 0,
        };
        ask(2 * round, put, &mut replies);
        ask(2 * round + 1, Body::Get { key }, &mut replies);
        match &replies[&(2 * round + 1)][0].body {
            Body::GetReply {
                status: ReplyStatus::Ok,
                value: got,
                ..
            } => assert_eq!(&got[..], &value[..], "round {round}"),
            other => panic!("round {round}: {other:?}"),
        }
    }
    let (parks, wakes) = (counter("core.1.parks"), counter("core.1.wakes"));
    assert!(
        wakes >= 1,
        "a handoff woke the parked core: {wakes} of {parks} parks"
    );
    assert!(wakes <= parks);

    // Shutdown joins the cores, the parked one included; the timeout
    // only turns a hang into a failure.
    let (joined, done) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        let mut server = server;
        server.shutdown();
        joined.send(()).unwrap();
        server
    });
    done.recv_timeout(Duration::from_secs(60))
        .expect("shutdown returns");
    let server = stopper.join().unwrap();

    // Nothing is left in flight: every request was answered once.
    while receive(&mut replies) > 0 {}
    assert!(partials.is_empty());
    assert_eq!(replies.len() as u64, 2 * ROUNDS);
    for (id, answers) in &replies {
        assert_eq!(answers.len(), 1, "request {id} answered once");
        let kind = if id % 2 == 0 {
            OpKind::PutReply
        } else {
            OpKind::GetReply
        };
        assert_eq!(answers[0].body.kind(), kind);
    }
    assert!(
        server.core_stats()[1].large_ops >= 2 * ROUNDS,
        "core 1 executed the rounds"
    );
}

fn start_server(cores: usize) -> MinosServer<VirtualTransport> {
    MinosServer::start(ServerConfig::for_test(cores, 10_000))
}

/// Under memory pressure, discard-mode ingests are rationed per source:
/// a source already at its quota gets over-quota PUTs answered
/// `OutOfMemory` immediately without opening any ingest state (counted
/// in `ingest.discard_quota_rejects`), and once a slot frees up the
/// same source's PUTs flow through discard mode again — still
/// `OutOfMemory`, but via a real (bounded) ingest.
#[test]
fn over_quota_discard_puts_still_get_oom_replies() {
    let mut config = ServerConfig::for_test(2, 10_000);
    // A mempool too small for any large value: every large PUT wants
    // discard mode.
    config.store.mempool_bytes = 1024;
    let mut server = MinosServer::start(config);
    let mut client = Client::new(&server, 1, 45);

    // Pin every one of the client's discard slots, exactly as
    // still-draining discard ingests from the same source would hold
    // them. (Racing real concurrent PUTs cannot guarantee overlap on a
    // small machine: the cores may serialize them, closing each ingest
    // before the next opens.)
    let quota = server.discard_quota();
    let mut tokens: Vec<_> = (0..DISCARD_QUOTA_PER_SOURCE)
        .map(|_| {
            quota
                .try_acquire(client.source_key())
                .expect("slot initially free")
        })
        .collect();

    let value = vec![3u8; 60_000];
    client.send_put(0, &value, true);
    assert!(
        client.drain(Duration::from_secs(20)),
        "over-quota PUT still gets a reply"
    );
    let snap = server.registry().snapshot();
    let rejects = snap.counter("ingest.discard_quota_rejects").unwrap_or(0);
    assert!(
        rejects >= 1,
        "over-quota opens must be counted, got {rejects}"
    );

    // One slot released: the next PUT drains through a discard-mode
    // ingest.
    drop(tokens.pop());
    client.send_put(1, &value, true);
    assert!(
        client.drain(Duration::from_secs(20)),
        "in-quota PUT answered through discard mode"
    );

    let totals = client.totals();
    assert_eq!(totals.completed, 2);
    assert_eq!(totals.errors, 2, "all OutOfMemory");
    assert_eq!(server.store().len(), 0, "nothing was committed");
    server.shutdown();
}

#[test]
fn put_get_roundtrip_small() {
    let mut server = start_server(2);
    let mut client = Client::new(&server, 1, 42);

    client.send_put(7, b"small value", false);
    assert!(client.drain(Duration::from_secs(10)), "put reply");

    client.send_get(7, false);
    assert!(client.drain(Duration::from_secs(10)), "get reply");

    let totals = client.totals();
    assert_eq!(totals.completed, 2);
    assert_eq!(totals.errors, 0);
    assert_eq!(&server.store().get(7).unwrap()[..], b"small value");
    server.shutdown();
}

#[test]
fn large_put_fragments_and_reassembles() {
    let mut server = start_server(2);
    let mut client = Client::new(&server, 1, 43);

    // 100 KB value: ~69 fragments, classified large at the bootstrap
    // threshold, handed off to the standby/large core.
    let value: Vec<u8> = (0..100_000).map(|i| (i % 253) as u8).collect();
    client.send_put(99, &value, true);
    assert!(client.drain(Duration::from_secs(20)), "large put reply");

    let stored = server.store().get(99).expect("stored");
    assert_eq!(stored.len(), value.len());
    assert_eq!(&stored[..], &value[..]);

    // And read it back through the engine (large GET reply fragments).
    client.send_get(99, true);
    assert!(client.drain(Duration::from_secs(20)), "large get reply");
    let totals = client.totals();
    assert_eq!(totals.completed, 2);
    assert_eq!(totals.errors, 0);

    // The reassembled reply streamed straight into its value buffer:
    // exactly one copy per value byte, no header+value concatenation.
    assert_eq!(
        client.reply_copied_bytes(),
        value.len() as u64,
        "large-GET reply value bytes must be copied exactly once"
    );

    // The large work was handed off at least once.
    let stats = server.core_stats();
    let handoffs: u64 = stats.iter().map(|s| s.handoffs).sum();
    assert!(handoffs >= 1, "large requests handed off: {handoffs}");
    server.shutdown();
}

#[test]
fn get_missing_returns_not_found() {
    let mut server = start_server(2);
    let mut client = Client::new(&server, 1, 44);
    client.send_get(123456, false);
    assert!(client.drain(Duration::from_secs(10)));
    let c = client.poll();
    assert!(c.is_empty());
    let totals = client.totals();
    assert_eq!(totals.completed, 1);
    assert_eq!(totals.errors, 1, "NotFound counts as an error reply");
    server.shutdown();
}

#[test]
fn delete_roundtrip() {
    let mut server = start_server(2);
    let mut client = Client::new(&server, 1, 45);
    client.send_put(5, b"to be deleted", false);
    assert!(client.drain(Duration::from_secs(10)));
    client.send_delete(5);
    assert!(client.drain(Duration::from_secs(10)));
    assert!(server.store().get(5).is_none());
    server.shutdown();
}

#[test]
fn mixed_workload_completes_without_loss() {
    let mut server = start_server(4);
    let mut client = Client::new(&server, 1, 46);

    // Mix of sizes crossing the small/large boundary.
    let sizes = [1usize, 13, 100, 1_400, 1_456, 2_000, 10_000, 50_000];
    for (i, &sz) in sizes.iter().enumerate() {
        let value = vec![i as u8; sz];
        client.send_put(1000 + i as u64, &value, sz > 1_456);
    }
    assert!(client.drain(Duration::from_secs(30)), "puts complete");

    for (i, &sz) in sizes.iter().enumerate() {
        client.send_get(1000 + i as u64, sz > 1_456);
    }
    assert!(client.drain(Duration::from_secs(30)), "gets complete");

    let totals = client.totals();
    assert_eq!(totals.completed, 2 * sizes.len() as u64);
    assert_eq!(totals.errors, 0);
    assert_eq!(totals.outstanding(), 0, "zero loss");

    for (i, &sz) in sizes.iter().enumerate() {
        assert_eq!(server.store().get(1000 + i as u64).unwrap().len(), sz);
    }
    server.shutdown();
}

#[test]
fn epoch_adapts_plan_to_workload() {
    // Suppress the 50 ms auto-epochs for this test: the EWMA gives the
    // newest epoch weight alpha = 0.9, so if a timer epoch happens to
    // bisect a batch (e.g. sees only its one large PUT), the final
    // forced epoch inherits a skewed distribution and the asserted
    // threshold bounds get flaky. With one forced epoch over the whole
    // run, the observed mix is exactly the workload's 0.5 % large.
    let mut config = ServerConfig::for_test(4, 10_000);
    config.minos.epoch_ns = u64::MAX;
    let mut server = MinosServer::start(config);
    let mut client = Client::new(&server, 1, 47);

    // Bootstrap: standby mode (all cores small).
    let plan0 = server.plan();
    assert!(plan0.allocation.standby);

    // A paper-like mix: 0.5 % of requests are large, interleaved so
    // every 50 ms epoch observes the same blend (the controller tracks
    // per-epoch distributions with alpha = 0.9 — a phase of large-only
    // traffic would legitimately pull the p99 into the large class).
    // The size p99 stays in the small class while large requests still
    // dominate the packet cost (10 x ~70 packets vs 2000 x 1).
    for batch in 0..10u64 {
        for i in 0..200u64 {
            client.send_put(batch * 200 + i, &[1u8; 100], false);
        }
        client.send_put(10_000 + batch, &vec![2u8; 100_000], true);
        assert!(client.drain(Duration::from_secs(60)), "batch {batch}");
    }

    server.force_epoch();
    let plan = server.plan();
    assert!(plan.epoch_id >= 1);
    assert!(
        plan.decision.threshold < 100_000,
        "threshold {} below the large size",
        plan.decision.threshold
    );
    assert!(
        plan.decision.threshold >= 100,
        "threshold {} above the small size",
        plan.decision.threshold
    );
    // With ~40/340 requests at 138 packets each, the large cost share is
    // ~94 %: most cores must now serve large requests.
    assert!(
        plan.allocation.n_large >= 1 || plan.allocation.standby,
        "allocation: {:?}",
        plan.allocation
    );
    assert_eq!(plan.classify(100), Destination::Local);
    match plan.classify(100_000) {
        Destination::Handoff(c) => assert!(c < 4),
        other => panic!("large must hand off, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn replies_echo_request_kind() {
    let mut server = start_server(2);
    let mut client = Client::new(&server, 1, 48);
    // PUT and GET target different RX queues, so there is no ordering
    // guarantee between them — complete the PUT before issuing the GET.
    client.send_put(1, b"x", false);
    assert!(client.drain(Duration::from_secs(20)));
    client.send_get(1, false);

    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let mut kinds = vec![(OpKind::PutReply, ReplyStatus::Ok)];
    while kinds.len() < 2 && std::time::Instant::now() < deadline {
        for c in client.poll() {
            kinds.push((c.kind, c.status));
        }
    }
    kinds.sort_by_key(|(k, _)| *k as u8);
    assert_eq!(
        kinds,
        vec![
            (OpKind::GetReply, ReplyStatus::Ok),
            (OpKind::PutReply, ReplyStatus::Ok)
        ]
    );
    server.shutdown();
}

#[test]
fn latency_is_recorded() {
    let mut server = start_server(2);
    let mut client = Client::new(&server, 1, 49);
    for i in 0..50u64 {
        client.send_put(i, b"v", false);
    }
    assert!(client.drain(Duration::from_secs(30)));
    let q = client.latency().quantiles().unwrap();
    assert_eq!(q.count, 50);
    assert!(q.p99_us > 0.0);
    assert!(q.mean_us <= q.p99_us * 1.001);
    server.shutdown();
}

/// The bytes an in-process client gathers to put its PUT on the wire
/// are the client's copies: the server's transport, whose PUT replies
/// carry no value segment, reports none.
#[test]
fn client_gathers_are_not_charged_to_the_server() {
    use minos_net::Transport;

    let mut server = start_server(1);
    let mut client = Client::new(&server, 1, 50);
    client.send_put(1, &[7u8; 1_000], false);
    assert!(client.drain(Duration::from_secs(30)));
    assert_eq!(server.transport().stats().tx_copied_bytes, 0);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Reply bursts: everything one poll round's requests stage leaves in one
// `tx_frames` call, and replies to a peer that accepts bundles share
// datagrams. Properties and counts only — no wall-clock claims.
// ---------------------------------------------------------------------

mod burst {
    use super::*;
    use minos_core::config::ThresholdMode;
    use minos_core::dispatch::DisciplineKind;
    use minos_core::server::SERVER_HOST_ID;
    use minos_net::{
        FaultProfile, FaultTransport, Transport, TransportStats, UdpConfig, UdpTransport,
        VirtualClientTransport, VirtualTransport,
    };
    use minos_nic::{NicConfig, VirtualNic};
    use minos_wire::frag::{fragment_frame_each, frames, FragHeader};
    use minos_wire::message::{Body, Message};
    use minos_wire::packet::{synthesize_frame, Endpoint, Packet, TxPacket};
    use minos_wire::udp::UdpHeader;
    use minos_wire::TxFrame;
    use std::net::Ipv4Addr;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    static PORTS: minos_net::testport::TestPorts =
        minos_net::testport::TestPorts::new(32_000, 32_900);

    /// One frame of a datagram on the wire.
    #[derive(Clone, Debug)]
    struct SentFrame {
        frag: FragHeader,
        /// The frame behind its fragment header.
        chunk: bytes::Bytes,
    }

    impl SentFrame {
        /// The message this single-fragment frame carries.
        fn reply(&self) -> Message {
            assert_eq!(self.frag.count, 1);
            Message::decode(self.chunk.clone()).expect("a reply")
        }
    }

    /// One datagram: the frames it carried, in order.
    type SentDatagram = Vec<SentFrame>;

    fn walk(payload: bytes::Bytes) -> SentDatagram {
        frames(payload)
            .map(|frame| {
                let frame = frame.expect("a well-formed datagram");
                SentFrame {
                    frag: frame.header,
                    chunk: frame.into_chunk(),
                }
            })
            .collect()
    }

    /// The keys of the single-fragment replies in `datagrams`, in order.
    fn reply_keys(datagrams: &[SentDatagram]) -> Vec<u64> {
        datagrams
            .iter()
            .flatten()
            .map(|f| f.reply().body.key())
            .collect()
    }

    fn frames_per_datagram(datagrams: &[SentDatagram]) -> Vec<usize> {
        datagrams.iter().map(Vec::len).collect()
    }

    /// A server-side transport that makes poll rounds deterministic and
    /// observable: [`Scripted::hold`] withholds arriving requests until
    /// `n` are queued and then delivers them in *one* `rx_burst`, and
    /// every `tx_frames` call is logged, datagram by datagram, frame by
    /// frame.
    struct Scripted<T> {
        inner: Arc<T>,
        hold: AtomicUsize,
        held: Mutex<Vec<Packet>>,
        tx_calls: Mutex<Vec<Vec<SentDatagram>>>,
    }

    impl<T: Transport> Scripted<T> {
        fn new(inner: T) -> Arc<Self> {
            Arc::new(Scripted {
                inner: Arc::new(inner),
                hold: AtomicUsize::new(0),
                held: Mutex::new(Vec::new()),
                tx_calls: Mutex::new(Vec::new()),
            })
        }

        /// The next `n` datagrams to arrive are delivered together.
        fn hold(&self, n: usize) {
            self.hold.store(n, Ordering::SeqCst);
        }

        fn tx_calls(&self) -> Vec<Vec<SentDatagram>> {
            self.tx_calls.lock().unwrap().clone()
        }

        fn datagrams_sent(&self) -> usize {
            self.tx_calls.lock().unwrap().iter().map(Vec::len).sum()
        }

        /// Frames inside those datagrams: one per reply or fragment.
        fn frames_sent(&self) -> usize {
            let calls = self.tx_calls.lock().unwrap();
            calls.iter().flatten().map(Vec::len).sum()
        }

        /// Waits until the server has handed `n` frames to the
        /// transport in total.
        fn await_frames_sent(&self, n: usize) {
            let deadline = Instant::now() + Duration::from_secs(20);
            while self.frames_sent() < n {
                assert!(
                    Instant::now() < deadline,
                    "server sent {} of {n} frames",
                    self.frames_sent()
                );
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }

    impl<T: Transport> Transport for Scripted<T> {
        fn num_queues(&self) -> u16 {
            self.inner.num_queues()
        }

        fn rx_burst(&self, queue: u16, out: &mut Vec<Packet>, max: usize) -> usize {
            let want = self.hold.load(Ordering::SeqCst);
            if want == 0 {
                return self.inner.rx_burst(queue, out, max);
            }
            assert!(want <= max, "a held burst must fit one rx_burst");
            let mut held = self.held.lock().unwrap();
            let room = want - held.len();
            self.inner.rx_burst(queue, &mut held, room);
            if held.len() < want {
                return 0;
            }
            self.hold.store(0, Ordering::SeqCst);
            out.append(&mut held);
            want
        }

        fn tx_frames(&self, queue: u16, frames: &mut Vec<TxPacket>) -> usize {
            let call = frames
                .iter()
                .map(|pkt| walk(pkt.frame.to_contiguous().0))
                .collect();
            self.tx_calls.lock().unwrap().push(call);
            self.inner.tx_frames(queue, frames)
        }

        fn local_endpoint(&self, queue: u16) -> Endpoint {
            self.inner.local_endpoint(queue)
        }

        fn stats(&self) -> TransportStats {
            self.inner.stats()
        }

        fn collect_metrics(&self, out: &mut Vec<(String, minos_obs::MetricValue)>) {
            self.inner.collect_metrics(out);
        }
    }

    /// A server with one core per queue of `transport`.
    fn start_cores<T: Transport + 'static>(
        transport: &Arc<Scripted<T>>,
        edit: impl FnOnce(&mut ServerConfig),
    ) -> MinosServer<Scripted<T>> {
        let mut config = ServerConfig::for_test(usize::from(transport.num_queues()), 10_000);
        // No epoch may move the threshold under a test's feet.
        config.minos.epoch_ns = u64::MAX;
        edit(&mut config);
        MinosServer::start_with_transport(config, Arc::clone(transport))
    }

    /// A one-core server (one RX queue, so one poll round sees every
    /// request) over `transport`.
    fn start_one_core<T: Transport + 'static>(
        transport: &Arc<Scripted<T>>,
        edit: impl FnOnce(&mut ServerConfig),
    ) -> MinosServer<Scripted<T>> {
        assert_eq!(transport.num_queues(), 1);
        start_cores(transport, edit)
    }

    fn virtual_server_with(queues: u16) -> (Arc<VirtualNic>, Arc<Scripted<VirtualTransport>>) {
        let nic = Arc::new(VirtualNic::new(
            NicConfig::new(queues).with_queue_capacity(65_536),
        ));
        let transport = Scripted::new(VirtualTransport::new(Arc::clone(&nic)));
        (nic, transport)
    }

    fn virtual_server() -> (Arc<VirtualNic>, Arc<Scripted<VirtualTransport>>) {
        virtual_server_with(1)
    }

    /// Where a peer of a virtual server addresses RX queue 0.
    fn virtual_queue_0() -> Endpoint {
        Endpoint::host(SERVER_HOST_ID, UdpHeader::port_for_queue(0))
    }

    fn virtual_client(nic: &Arc<VirtualNic>, id: u16) -> Client {
        let endpoint = Endpoint::host(100 + u32::from(id), 20_000 + id);
        let transport = Arc::new(VirtualClientTransport::new(Arc::clone(nic), endpoint));
        Client::with_transport(transport, endpoint, virtual_queue_0(), 1, id, 7)
    }

    fn udp_server() -> Arc<Scripted<UdpTransport>> {
        loop {
            if let Ok(t) = UdpTransport::bind(UdpConfig::loopback(PORTS.alloc(1), 1)) {
                return Scripted::new(t);
            }
        }
    }

    fn udp_client(server: &dyn Transport, id: u16) -> Client {
        let transport =
            Arc::new(UdpTransport::bind_client(Ipv4Addr::LOCALHOST).expect("bind client"));
        let endpoint = transport.local_endpoint(0);
        Client::with_transport(transport, endpoint, server.local_endpoint(0), 1, id, 7)
    }

    /// Polls `client` until `n` requests completed; the completions, in
    /// arrival order.
    fn collect(client: &mut Client, n: usize) -> Vec<minos_core::client::Completion> {
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut done = Vec::new();
        while done.len() < n {
            assert!(
                Instant::now() < deadline,
                "{} of {n} replies arrived",
                done.len()
            );
            done.extend(client.poll());
        }
        done
    }

    /// The clients take turns sending `K` GETs of unequal-length values,
    /// all delivered to the server in one RX burst. Checks that every
    /// request is executed and answered exactly once, and that each
    /// client sees its replies in request order.
    fn interleaved_burst<T: Transport + 'static>(
        transport: &Arc<Scripted<T>>,
        clients: &mut [Client],
    ) {
        let mut server = start_one_core(transport, |_| {});
        for key in 0..K as u64 {
            // Lengths fall and rise, so some neighbours may share a
            // train and some may not.
            let len = 20 + 37 * ((key * 5) % 7) as usize;
            server.store().put(key, &vec![key as u8; len]).unwrap();
        }
        let n = clients.len();
        transport.hold(K);
        for key in 0..K {
            clients[key % n].send_get(key as u64, false);
        }
        for (c, client) in clients.iter_mut().enumerate() {
            let want: Vec<u64> = (0..K)
                .filter(|key| key % n == c)
                .map(|k| k as u64)
                .collect();
            let done = collect(client, want.len());
            assert!(done.iter().all(|d| d.status == ReplyStatus::Ok));
            let got: Vec<u64> = done.iter().map(|d| d.key).collect();
            assert_eq!(got, want, "client {c} sees its replies in request order");
        }
        // Nothing more is on its way: every request was answered once.
        std::thread::sleep(Duration::from_millis(20));
        for client in clients.iter_mut() {
            assert!(client.poll().is_empty());
            let totals = client.totals();
            assert_eq!(totals.outstanding(), 0);
            assert_eq!(totals.unmatched + totals.wasted_replies, 0, "no duplicates");
        }
        server.shutdown();
        let ops: u64 = server.core_stats().iter().map(|s| s.ops).sum();
        assert_eq!(ops, K as u64, "each request executed once");
        let calls = transport.tx_calls();
        assert_eq!(calls.len(), 1, "K replies, one tx_frames call");
        let keys = reply_keys(&calls[0]);
        assert_eq!(keys, (0..K as u64).collect::<Vec<_>>(), "staged in order");
        // `Client` says it accepts bundles: replies staged back to back
        // for one client share datagrams, four at most; the other
        // client's reply in between ends a bundle.
        let want = if n == 1 { vec![4, 4, 1] } else { vec![1; K] };
        assert_eq!(frames_per_datagram(&calls[0]), want);
    }

    const K: usize = 9;

    #[test]
    fn one_rx_burst_is_answered_in_one_tx_burst_on_the_virtual_nic() {
        // One client: the in-process wire hands a client whatever it
        // drains, whoever it was addressed to.
        let (nic, transport) = virtual_server();
        interleaved_burst(&transport, &mut [virtual_client(&nic, 1)]);
    }

    #[test]
    fn one_rx_burst_is_answered_in_one_sendmmsg_over_udp() {
        let transport = udp_server();
        let mut clients = [udp_client(&*transport, 1), udp_client(&*transport, 2)];
        let before = transport.inner.io_stats();
        interleaved_burst(&transport, &mut clients);
        let after = transport.inner.io_stats();
        assert_eq!(after.tx_packets - before.tx_packets, K as u64);
        assert_eq!(
            after.tx_syscalls - before.tx_syscalls,
            1,
            "K replies to two clients leave in one sendmmsg"
        );
        assert_eq!(after.tx_copied_bytes, 0);
    }

    /// One GET for `key` as a wire frame, the way a sender that does
    /// (or does not) accept bundles writes it.
    fn get_frame(key: u64, accepts_bundles: bool) -> TxFrame {
        let msg = Message {
            client_id: 9,
            request_id: key,
            client_ts_ns: 0,
            body: Body::Get { key },
        };
        let mut frame = None;
        fragment_frame_each(key, accepts_bundles, &msg.encode_frame(), |f| {
            frame = Some(f)
        });
        frame.expect("a GET is one fragment")
    }

    /// A peer that writes datagrams by hand and reads whatever comes
    /// back, over the client half of either wire.
    struct RawPeer {
        transport: Arc<dyn Transport>,
        server: Endpoint,
    }

    impl RawPeer {
        fn on_virtual_nic(nic: &Arc<VirtualNic>) -> RawPeer {
            let endpoint = Endpoint::host(109, 20_009);
            RawPeer {
                transport: Arc::new(VirtualClientTransport::new(Arc::clone(nic), endpoint)),
                server: virtual_queue_0(),
            }
        }

        fn over_udp(server: &dyn Transport) -> RawPeer {
            RawPeer {
                transport: Arc::new(
                    UdpTransport::bind_client(Ipv4Addr::LOCALHOST).expect("bind client"),
                ),
                server: server.local_endpoint(0),
            }
        }

        /// Sends `frames` to RX queue 0 as one datagram.
        fn send(&self, frames: &[TxFrame]) {
            let payload: Vec<u8> = frames
                .iter()
                .flat_map(|f| f.to_contiguous().0.to_vec())
                .collect();
            let datagram = synthesize_frame(
                self.transport.local_endpoint(0),
                self.server,
                TxFrame::from_payload(payload.into()),
            );
            assert_eq!(self.transport.tx_frames(0, &mut vec![datagram]), 1);
        }

        /// The datagrams that arrive until they hold `want` frames.
        fn recv(&self, want: usize) -> Vec<SentDatagram> {
            let deadline = Instant::now() + Duration::from_secs(20);
            let mut datagrams: Vec<SentDatagram> = Vec::new();
            let mut pkts = Vec::new();
            while datagrams.iter().map(Vec::len).sum::<usize>() < want {
                assert!(Instant::now() < deadline, "{datagrams:?} of {want} frames");
                self.transport.rx_burst(0, &mut pkts, 64);
                datagrams.extend(pkts.drain(..).map(|pkt| walk(pkt.payload)));
            }
            datagrams
        }
    }

    /// `K` GETs in *one* datagram: the server walks it frame by frame,
    /// executes each once, and answers a sender that accepts bundles in
    /// bundles — one that never said so with a datagram per reply.
    fn one_datagram_of_gets<T: Transport + 'static>(transport: &Arc<Scripted<T>>, peer: RawPeer) {
        let mut server = start_one_core(transport, |_| {});
        for key in 0..K as u64 {
            let len = 20 + 37 * ((key * 5) % 7) as usize;
            server.store().put(key, &vec![key as u8; len]).unwrap();
        }
        let ask = |accepts_bundles: bool| -> Vec<SentDatagram> {
            let gets: Vec<TxFrame> = (0..K as u64)
                .map(|key| get_frame(key, accepts_bundles))
                .collect();
            peer.send(&gets);
            let replies = peer.recv(K);
            assert_eq!(reply_keys(&replies), (0..K as u64).collect::<Vec<_>>());
            for frame in replies.iter().flatten() {
                assert_eq!(frame.frag.accepts_bundles, accepts_bundles, "echoed");
                assert!(matches!(
                    frame.reply().body,
                    Body::GetReply {
                        status: ReplyStatus::Ok,
                        ..
                    }
                ));
            }
            replies
        };
        assert_eq!(frames_per_datagram(&ask(true)), vec![4, 4, 1]);
        assert_eq!(frames_per_datagram(&ask(false)), vec![1; K]);
        server.shutdown();

        let stats = server.core_stats();
        assert_eq!(stats[0].ops, 2 * K as u64, "each request executed once");
        assert_eq!((stats[0].packets_rx, stats[0].frames_rx), (2, 2 * K as u64));
        assert_eq!(
            (stats[0].packets_tx, stats[0].frames_tx),
            (3 + K as u64, 2 * K as u64)
        );
        let calls = transport.tx_calls();
        assert_eq!(calls.len(), 2, "a datagram of requests, a burst of replies");
        let snap = server.registry().snapshot();
        assert_eq!(snap.counter("engine.malformed"), Some(0));
        assert_eq!(snap.counter("core.0.frames_tx"), Some(2 * K as u64));
        assert_eq!(snap.counter("core.0.frames_rx"), Some(2 * K as u64));
    }

    #[test]
    fn a_datagram_of_gets_is_answered_in_bundles_on_the_virtual_nic() {
        let (nic, transport) = virtual_server();
        one_datagram_of_gets(&transport, RawPeer::on_virtual_nic(&nic));
    }

    #[test]
    fn a_datagram_of_gets_is_answered_in_bundles_over_udp() {
        let transport = udp_server();
        let peer = RawPeer::over_udp(&*transport);
        let before = transport.inner.io_stats();
        one_datagram_of_gets(&transport, peer);
        let after = transport.inner.io_stats();
        assert_eq!(after.rx_packets - before.rx_packets, 2);
        assert_eq!(after.tx_packets - before.tx_packets, 3 + K as u64);
        assert_eq!(after.tx_copied_bytes, 0, "bundled values stay uncopied");
    }

    /// The probe's contract (`benchmark/src/probe.rs`), pinned here: a
    /// plain socket that pipelines two GETs without the flag and
    /// decodes "header, then the rest is the message" gets a datagram
    /// per reply, even when both replies are staged back to back.
    #[test]
    fn a_flagless_socket_pipelining_two_gets_receives_two_datagrams() {
        let transport = udp_server();
        let mut server = start_one_core(&transport, |_| {});
        server.store().put(1, b"one").unwrap();
        server.store().put(2, b"two!").unwrap();
        let socket = std::net::UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let to = transport.local_endpoint(0);
        transport.hold(2);
        for key in [1u64, 2] {
            let request = get_frame(key, false).to_contiguous().0;
            socket
                .send_to(&request, (Ipv4Addr::LOCALHOST, to.port))
                .unwrap();
        }
        let mut values = Vec::new();
        for _ in 0..2 {
            let mut buf = [0u8; 2048];
            let (len, _) = socket.recv_from(&mut buf).expect("a datagram per reply");
            let mut rest = bytes::Bytes::copy_from_slice(&buf[..len]);
            let fh = FragHeader::decode(&mut rest).expect("header");
            assert_eq!((fh.count, fh.accepts_bundles), (1, false));
            match Message::decode(rest).expect("the rest is the message").body {
                Body::GetReply { key, value, .. } => values.push((key, value.to_vec())),
                other => panic!("not a GET reply: {other:?}"),
            }
        }
        assert_eq!(values, vec![(1, b"one".to_vec()), (2, b"two!".to_vec())]);
        server.shutdown();
        let calls = transport.tx_calls();
        assert_eq!(calls.len(), 1, "both replies rode one burst");
        assert_eq!(frames_per_datagram(&calls[0]), vec![1, 1]);
    }

    /// What a request said of its sender travels with it across a
    /// hand-off: under dFCFS a core that does not own a key pushes the
    /// request to the owner's software queue, and the owner's replies
    /// still echo the flag (and so may share datagrams).
    #[test]
    fn a_hand_off_keeps_the_bundle_flag() {
        use minos_core::dispatch::Dfcfs;
        let (nic, transport) = virtual_server_with(2);
        let mut server = start_cores(&transport, |c| c.minos.discipline = DisciplineKind::Dfcfs);
        // Keys core 1 owns, sent to core 0's RX queue.
        let keys: Vec<u64> = (0..64)
            .filter(|&k| Dfcfs::owner(k, 2) == 1)
            .take(4)
            .collect();
        for &key in &keys {
            server.store().put(key, &[key as u8; 40]).unwrap();
        }
        let peer = RawPeer::on_virtual_nic(&nic);
        for accepts_bundles in [true, false] {
            let gets: Vec<TxFrame> = keys
                .iter()
                .map(|&key| get_frame(key, accepts_bundles))
                .collect();
            peer.send(&gets);
            let replies = peer.recv(keys.len());
            assert_eq!(reply_keys(&replies), keys);
            for frame in replies.iter().flatten() {
                assert_eq!(frame.frag.accepts_bundles, accepts_bundles);
            }
            if !accepts_bundles {
                assert_eq!(frames_per_datagram(&replies), vec![1; keys.len()]);
            }
        }
        server.shutdown();
        let stats = server.core_stats();
        assert_eq!(stats[0].handoffs, 2 * keys.len() as u64);
        assert_eq!((stats[0].ops, stats[1].ops), (0, 2 * keys.len() as u64));
        assert_eq!(stats[1].frames_tx, 2 * keys.len() as u64);
    }

    /// A bundle is one datagram: losing it loses every request inside,
    /// each times out on its own, and the retries complete each exactly
    /// once.
    #[test]
    fn a_dropped_bundle_times_out_every_request_in_it_and_retries_complete_each_once() {
        use minos_core::client::RetryPolicy;
        // The one tx datagram this seed drops out of the first eight.
        const DROPPED: usize = 1;
        let lossy = |nic: &Arc<VirtualNic>, endpoint: Endpoint, seed: u64| {
            let profile = FaultProfile::parse(&format!("tx.drop=0.5,seed={seed}")).unwrap();
            FaultTransport::new(
                Arc::new(VirtualClientTransport::new(Arc::clone(nic), endpoint)),
                profile,
            )
        };
        let endpoint = Endpoint::host(101, 20_001);
        // Fault decisions are a function of (seed, lane, sequence
        // number): probe seeds on a scratch wire for one that drops
        // exactly the second datagram.
        let seed = (0..100_000u64)
            .find(|&seed| {
                let nic = Arc::new(VirtualNic::new(NicConfig::new(1)));
                let t = lossy(&nic, endpoint, seed);
                let to = virtual_queue_0();
                (0..8).all(|i| {
                    let before = VirtualNic::stats(&nic).rx_delivered;
                    let pkt = synthesize_frame(endpoint, to, get_frame(0, true));
                    t.tx_frames(0, &mut vec![pkt]);
                    (VirtualNic::stats(&nic).rx_delivered > before) == (i != DROPPED)
                })
            })
            .expect("a seed that drops only that datagram");

        let (nic, transport) = virtual_server();
        let mut server = start_one_core(&transport, |_| {});
        let faulty = Arc::new(lossy(&nic, endpoint, seed));
        let server_ep = transport.local_endpoint(0);
        let mut client =
            Client::with_transport(Arc::clone(&faulty) as _, endpoint, server_ep, 1, 1, 7)
                // Long enough that only the drop ever times a request
                // out, however busy the host.
                .with_retry(RetryPolicy::new(Duration::from_millis(250), 8));
        // Datagram 0: the first reply tells the client the server
        // walks bundles.
        client.send_get(100, false);
        assert_eq!(collect(&mut client, 1).len(), 1);
        // Datagram 1: four requests, one bundle, dropped.
        for key in 0..4u64 {
            client.send(&minos_workload::OpSpec {
                op: minos_workload::Operation::Get,
                key,
                item_size: 0,
                is_large: false,
                ttl_ms: 0,
            });
        }
        let mut done: Vec<u64> = collect(&mut client, 4).iter().map(|d| d.key).collect();
        done.sort_unstable();
        assert_eq!(done, vec![0, 1, 2, 3]);
        assert_eq!(faulty.fault_stats().tx_dropped, 1);
        let totals = client.totals();
        assert_eq!(
            totals.retransmits, 4,
            "every request in the bundle timed out"
        );
        assert_eq!((totals.completed, totals.timed_out), (5, 0));
        assert_eq!(totals.unmatched + totals.wasted_replies, 0);
        server.shutdown();
        let stats = server.core_stats();
        assert_eq!(stats[0].ops, 5, "nothing executed twice");
        assert_eq!(stats[0].frames_rx, 5);
        assert!(
            stats[0].packets_rx < 5,
            "the retries left bundled again or alone"
        );
    }

    /// The unloaded path: a reply never waits for the next burst to
    /// push it out.
    #[test]
    fn a_lone_request_is_answered_without_further_traffic() {
        let (nic, transport) = virtual_server();
        let mut server = start_one_core(&transport, |_| {});
        let mut client = virtual_client(&nic, 1);
        client.send_get(404, false);
        let done = collect(&mut client, 1);
        assert_eq!(done[0].status, ReplyStatus::NotFound);
        let calls = transport.tx_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].len(), 1, "a burst of one flushes at once");
        server.shutdown();
        let snap = server.registry().snapshot();
        assert_eq!(snap.counter("core.0.tx_flushes"), Some(1));
        assert_eq!(snap.hist("core.0.tx_flush_ns").unwrap().count, 1);
        assert_eq!(snap.counter("core.0.packets_tx"), Some(1));
    }

    /// A 500 KB value amid small GETs, under the paper's discipline
    /// (the large GET goes through the software queue, after the RX
    /// burst's replies left) and under dFCFS (it executes inline, so
    /// its fragments flush at once behind the singles already staged).
    #[test]
    fn a_large_reply_follows_the_singles_staged_before_it_fragmented_once() {
        const LARGE: u64 = 1_000;
        let value: Vec<u8> = (0..500_000u32).map(|b| (b % 251) as u8).collect();
        // Datagrams per `tx_frames` call: the singles staged back to
        // back share one (the client accepts bundles), the fragments
        // never share.
        for (discipline, want_calls) in [
            (DisciplineKind::SizeAware, vec![1, 344]),
            (DisciplineKind::Dfcfs, vec![1 + 344, 1]),
        ] {
            let (nic, transport) = virtual_server();
            let mut server = start_one_core(&transport, |c| c.minos.discipline = discipline);
            let mut client = virtual_client(&nic, 1);
            for key in 0..3u64 {
                let small = vec![key as u8; 50 + 100 * key as usize];
                server.store().put(key, &small).unwrap();
            }
            server.store().put(LARGE, &value).unwrap();

            transport.hold(4);
            client.send_get(0, false);
            client.send_get(1, false);
            client.send_get(LARGE, true);
            client.send_get(2, false);
            let done = collect(&mut client, 4);
            assert!(done.iter().all(|d| d.status == ReplyStatus::Ok));
            assert_eq!(client.reply_copied_bytes(), value.len() as u64);

            let calls = transport.tx_calls();
            let sizes: Vec<usize> = calls.iter().map(Vec::len).collect();
            assert_eq!(
                sizes, want_calls,
                "{discipline:?}: datagrams per tx_frames call"
            );
            let datagrams: Vec<SentDatagram> = calls.concat();
            assert!(
                datagrams
                    .iter()
                    .all(|d| d.len() == 1 || d.iter().all(|f| f.frag.count == 1)),
                "{discipline:?}: a fragment shares its datagram with nothing"
            );
            let sent: Vec<SentFrame> = datagrams.concat();
            assert!(
                sent.iter().all(|f| f.frag.accepts_bundles),
                "echoed on every frame"
            );
            let first = sent.iter().position(|f| f.frag.count > 1).unwrap();
            // Fragmented once: 344 datagrams, back to back, in index
            // order, one message id.
            let large = &sent[first..first + 344];
            for (i, f) in large.iter().enumerate() {
                assert_eq!((f.frag.index, f.frag.count), (i as u16, 344));
                assert_eq!(f.frag.msg_id, large[0].frag.msg_id);
            }
            assert_eq!(sent.iter().filter(|f| f.frag.count > 1).count(), 344);
            // The singles requested ahead of it left ahead of it.
            let before: Vec<u64> = sent[..first].iter().map(|f| f.reply().body.key()).collect();
            assert!(before.starts_with(&[0, 1]), "{discipline:?}: {before:?}");
            // Byte-identical.
            let whole: Vec<u8> = large.iter().flat_map(|f| f.chunk.to_vec()).collect();
            let reply = Message::decode(bytes::Bytes::from(whole)).expect("reassembles");
            match reply.body {
                Body::GetReply {
                    key, value: got, ..
                } => {
                    assert_eq!(key, LARGE);
                    assert_eq!(&got[..], &value[..]);
                }
                other => panic!("expected the large GET's reply, got {other:?}"),
            }
            server.shutdown();
            let stats = server.core_stats();
            assert_eq!(stats[0].frames_tx, 3 + 344);
            assert_eq!(stats[0].packets_tx, want_calls.iter().sum::<usize>() as u64);
            let snap = server.registry().snapshot();
            assert_eq!(snap.counter("core.0.tx_flushes"), Some(2));
        }
    }

    /// Error replies are replies: `NotFound`, `OutOfMemory` and the
    /// overload valve's `Overloaded` ride the RX burst's flush.
    #[test]
    fn shed_not_found_and_out_of_memory_replies_ride_the_burst() {
        const LARGE_A: u64 = 500;
        const LARGE_B: u64 = 501;
        let (nic, transport) = virtual_server();
        let mut server = start_one_core(&transport, |c| {
            c.minos.threshold_mode = ThresholdMode::Static(1_000);
            c.minos.shed_watermark = 1;
            c.store.mempool_bytes = 1 << 20;
        });
        let mut client = virtual_client(&nic, 1);
        for key in [LARGE_A, LARGE_B] {
            server.store().put(key, &[9u8; 1_200]).unwrap();
        }
        // Exhaust the value pool, so the small PUT below cannot be stored.
        let store = server.store();
        let mut hog = Vec::new();
        for size in [64 << 10, 1 << 10, 64] {
            while let Some(block) = store.mempool().reserve(size) {
                hog.push(block);
            }
        }

        transport.hold(5);
        client.send_get(1, false); // NotFound
        client.send_put(2, &[1u8; 100], false); // OutOfMemory
        client.send_get(LARGE_A, true); // queued (the queue was empty)
        client.send_get(LARGE_B, true); // shed: the queue holds one
        client.send_get(3, false); // NotFound
        let done = collect(&mut client, 5);
        assert_eq!(
            done.iter().filter(|d| d.status == ReplyStatus::Ok).count(),
            1
        );

        let calls = transport.tx_calls();
        assert_eq!(
            frames_per_datagram(&calls[0]),
            vec![4],
            "error replies bundle like any other"
        );
        let statuses: Vec<(u64, ReplyStatus)> = calls[0][0]
            .iter()
            .map(|f| match f.reply().body {
                Body::GetReply { key, status, .. } | Body::PutReply { key, status } => {
                    (key, status)
                }
                other => panic!("not a reply: {other:?}"),
            })
            .collect();
        assert_eq!(
            statuses,
            vec![
                (1, ReplyStatus::NotFound),
                (2, ReplyStatus::OutOfMemory),
                (LARGE_B, ReplyStatus::Overloaded),
                (3, ReplyStatus::NotFound),
            ],
            "the RX burst's four error replies leave together, in order"
        );
        assert_eq!(calls.len(), 2, "then the queued large GET's reply");
        assert_eq!(reply_keys(&calls[1]), vec![LARGE_A]);
        drop(hog);
        server.shutdown();
        assert_eq!(
            server.registry().snapshot().counter("dispatch.sheds"),
            Some(1)
        );
    }

    /// Shutdown is observed between poll rounds, and every round ends
    /// flushed: a request that was executed was also answered.
    #[test]
    fn shutdown_strands_no_staged_reply() {
        let (nic, transport) = virtual_server();
        let mut server = start_one_core(&transport, |_| {});
        let mut client = virtual_client(&nic, 1);
        for key in 0..200u64 {
            client.send_get(key, false);
        }
        server.shutdown();
        let stats = server.core_stats();
        assert_eq!(transport.frames_sent() as u64, stats[0].ops);
        assert_eq!(stats[0].frames_tx, stats[0].ops);
        assert_eq!(stats[0].packets_tx, transport.datagrams_sent() as u64);
        let answered = client.poll().len() as u64;
        assert_eq!(
            answered, stats[0].ops,
            "every executed request was answered"
        );
    }

    /// A seeded fault schedule is a function of the datagram sequence,
    /// not of how the datagrams were batched: the same requests lose
    /// the same replies whether they arrive as one burst or one by one.
    /// (From a sender that takes a datagram per reply: bundles *are*
    /// the datagram sequence, and follow the burst shape.)
    #[test]
    fn fault_seeds_reproduce_across_burst_shapes() {
        const N: usize = 24;
        let run = |burst: bool| -> Vec<u64> {
            let nic = Arc::new(VirtualNic::new(NicConfig::new(1)));
            let profile = FaultProfile::parse("tx.drop=0.3,seed=1234").unwrap();
            let transport = Scripted::new(FaultTransport::new(
                Arc::new(VirtualTransport::new(Arc::clone(&nic))),
                profile,
            ));
            let mut server = start_one_core(&transport, |_| {});
            let peer = RawPeer::on_virtual_nic(&nic);
            if burst {
                transport.hold(N);
            }
            for key in 0..N as u64 {
                peer.send(&[get_frame(key, false)]);
                if !burst {
                    transport.await_frames_sent(key as usize + 1);
                }
            }
            transport.await_frames_sent(N);
            server.shutdown();
            let calls = transport.tx_calls().len();
            assert_eq!(calls, if burst { 1 } else { N });
            let mut arrived = Vec::new();
            peer.transport.rx_burst(0, &mut arrived, 4096);
            let mut survivors = reply_keys(
                &arrived
                    .into_iter()
                    .map(|pkt| walk(pkt.payload))
                    .collect::<Vec<_>>(),
            );
            survivors.sort_unstable();
            survivors
        };
        let as_burst = run(true);
        assert!(
            !as_burst.is_empty() && as_burst.len() < N,
            "the profile must bite: {as_burst:?}"
        );
        assert_eq!(run(true), as_burst, "same seed, same schedule");
        assert_eq!(run(false), as_burst, "whatever the burst shape");
    }
}
