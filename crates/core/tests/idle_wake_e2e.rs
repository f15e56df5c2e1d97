//! An idle core blocks and an arrival wakes it, over both transports.
//! A 2-core `hkh` server has each core drain its own RX queue alone, so
//! with no traffic and no epoch both cores block; a GET on each RX queue
//! must then wake its core (`core.N.wakes`), be answered exactly once
//! with the stored bytes, and shutdown must still join both cores.

use minos_core::dispatch::DisciplineKind;
use minos_core::server::{MinosServer, ServerConfig};
use minos_net::{endpoint_for, Transport, UdpConfig, UdpTransport, VirtualClientTransport};
use minos_wire::frag::{fragment_frame_with_id, frames};
use minos_wire::message::{Body, Message, ReplyStatus};
use minos_wire::packet::{synthesize_frame, Endpoint, Packet};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

static PORTS: minos_net::testport::TestPorts = minos_net::testport::TestPorts::new(11_000, 12_600);

const KEY: u64 = 42;

/// Rounds of one GET per queue before both cores must have been woken:
/// a GET that lands while its core runs the round between two blocks
/// is served without a wake.
const ROUNDS: u64 = 20;

/// The config both tests start: 2 `hkh` cores, no epoch (so only an
/// arrival wakes a core), and `KEY` stored.
fn config() -> ServerConfig {
    let mut config = ServerConfig::for_test(2, 1_000);
    config.minos.discipline = DisciplineKind::Hkh;
    config.minos.epoch_ns = u64::MAX;
    config
}

fn value() -> Vec<u8> {
    (0..300u32).map(|i| (i * 7) as u8).collect()
}

/// Drives `server` through the test over `client`, which speaks from
/// `local` to the server queues `queue_0 + q`.
fn blocked_cores_wake_on_arrivals<T: Transport + 'static>(
    mut server: MinosServer<T>,
    client: &dyn Transport,
    local: Endpoint,
    queue_0: Endpoint,
) {
    server.store().put(KEY, &value()).unwrap();
    let registry = server.registry();
    let counter = |name: &str| registry.snapshot().counter(name).unwrap_or(0);
    let deadline = Instant::now() + Duration::from_secs(60);
    let blocked_since = |parks: [u64; 2]| {
        while (0..2).any(|n| counter(&format!("core.{n}.parks")) <= parks[n]) {
            assert!(Instant::now() < deadline, "both cores block");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let mut replies: HashMap<u64, Vec<Message>> = HashMap::new();
    let mut pkts: Vec<Packet> = Vec::new();
    let mut request_id = 0;
    for round in 0..ROUNDS {
        blocked_since([0, 1].map(|n| counter(&format!("core.{n}.parks"))));
        let sent: Vec<u64> = (0..2u16)
            .map(|queue| {
                request_id += 1;
                let msg = Message {
                    client_id: 1,
                    request_id,
                    client_ts_ns: 0,
                    body: Body::Get { key: KEY },
                };
                let dst = Endpoint {
                    port: queue_0.port + queue,
                    ..queue_0
                };
                let mut burst: Vec<_> = fragment_frame_with_id(request_id, &msg.encode_frame())
                    .into_iter()
                    .map(|frame| synthesize_frame(local, dst, frame))
                    .collect();
                assert_eq!(client.tx_frames(0, &mut burst), 1);
                request_id
            })
            .collect();
        // Every reply, and a while longer for any duplicate.
        let mut quiet_until = None;
        while quiet_until.is_none_or(|t| Instant::now() < t) {
            assert!(Instant::now() < deadline, "round {round} answered");
            client.rx_burst(0, &mut pkts, 64);
            for pkt in pkts.drain(..) {
                for frame in frames(pkt.payload) {
                    let frame = frame.expect("a well-formed reply datagram");
                    assert_eq!(frame.header.count, 1, "a one-frame reply");
                    let reply = Message::decode(frame.into_chunk()).expect("a reply");
                    replies.entry(reply.request_id).or_default().push(reply);
                }
            }
            if quiet_until.is_none() && sent.iter().all(|id| replies.contains_key(id)) {
                quiet_until = Some(Instant::now() + Duration::from_millis(50));
            }
        }
        for id in sent {
            let answers = &replies[&id];
            assert_eq!(answers.len(), 1, "request {id} answered once");
            match &answers[0].body {
                Body::GetReply {
                    status, value: v, ..
                } => {
                    assert_eq!(*status, ReplyStatus::Ok);
                    assert_eq!(v[..], value()[..], "request {id}: the stored bytes");
                }
                other => panic!("request {id}: not a GET reply: {other:?}"),
            }
        }
        if (0..2).all(|n| counter(&format!("core.{n}.wakes")) >= 1) {
            break;
        }
    }
    for n in 0..2 {
        let (parks, wakes) = (
            counter(&format!("core.{n}.parks")),
            counter(&format!("core.{n}.wakes")),
        );
        assert!(wakes >= 1, "core {n}: an arrival woke it ({wakes} wakes)");
        assert!(
            wakes <= parks,
            "core {n}: {wakes} wakes within {parks} parks"
        );
    }
    server.shutdown();
}

#[test]
fn blocked_cores_wake_on_udp_arrivals() {
    let transport = loop {
        if let Ok(t) = UdpTransport::bind(UdpConfig::loopback(PORTS.alloc(2), 2)) {
            break Arc::new(t);
        }
    };
    let queue_0 = endpoint_for(Ipv4Addr::LOCALHOST, transport.base_port());
    let server = MinosServer::start_with_transport(config(), transport);
    let client = UdpTransport::bind_client(Ipv4Addr::LOCALHOST).unwrap();
    let local = client.local_endpoint(0);
    blocked_cores_wake_on_arrivals(server, &client, local, queue_0);
}

#[test]
fn blocked_cores_wake_on_virtual_arrivals() {
    let server = MinosServer::start(config());
    let local = Endpoint::host(100, 20_000);
    let client = VirtualClientTransport::new(server.nic(), local);
    let queue_0 = server.transport().local_endpoint(0);
    blocked_cores_wake_on_arrivals(server, &client, local, queue_0);
}
