//! Integration tests of the unhappy paths: fault injection, memory
//! exhaustion, and loss accounting.

use minos::core::client::{Client, RetryPolicy};
use minos::core::server::{MinosServer, ServerConfig};
use minos::driver::{DriverClient, RunConfig};
use minos::kv::{Store, StoreConfig};
use minos::net::testport::TestPorts;
use minos::net::{
    FaultProfile, FaultTransport, Transport, UdpConfig, UdpTransport, VirtualClientTransport,
};
use minos::wire::frag::FragHeader;
use minos::wire::packet::Endpoint;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;
use std::time::Duration;

// Disjoint from every other suite's range (chaos.rs ends at 29_900).
static PORTS: TestPorts = TestPorts::new(30_000, 31_900);

fn bind_udp_server(num_queues: u16) -> Arc<UdpTransport> {
    loop {
        let base = PORTS.alloc(num_queues);
        if let Ok(t) = UdpTransport::bind(UdpConfig::loopback(base, num_queues)) {
            return Arc::new(t);
        }
    }
}

/// Client `id` of a 2-queue `server`, retrying every 50 ms up to 16
/// times, behind the fault injector when `fault` is set.
fn udp_client(server: &UdpTransport, id: u16, fault: Option<FaultProfile>) -> DriverClient {
    let target = SocketAddrV4::new(Ipv4Addr::LOCALHOST, server.base_port());
    let run = RunConfig {
        retry: Some(RetryPolicy::new(Duration::from_millis(50), 16)),
        fault,
        ..RunConfig::new(target, 2)
    };
    run.client(id, true).unwrap()
}

#[test]
fn client_loss_accounting_sees_drops() {
    // The client's transport drops 30% of its outbound datagrams and
    // the client never retries: every lost request must stay visible as
    // outstanding (the paper discards such runs; the accounting is what
    // makes that possible).
    let mut config = ServerConfig::for_test(2, 1_000);
    config.minos.epoch_ns = 1_000_000_000;
    let mut server = MinosServer::start(config);
    let server_transport = server.transport();
    let endpoint = Endpoint::host(101, 20_001);
    let wire = VirtualClientTransport::new(server.nic(), endpoint);
    let faults = FaultProfile::parse("tx.drop=0.3,seed=5").unwrap();
    let lossy = Arc::new(FaultTransport::new(Arc::new(wire), faults));
    let mut client = Client::with_transport(
        Arc::clone(&lossy) as Arc<dyn Transport>,
        endpoint,
        server_transport.local_endpoint(0),
        server_transport.num_queues(),
        1,
        5,
    );
    for i in 0..100u64 {
        client.send_put(i, b"value", false);
    }
    assert!(
        !client.drain(Duration::from_secs(2)),
        "dropped requests never complete"
    );

    let dropped = lossy.fault_stats().tx_dropped;
    assert!(dropped > 0, "the injector dropped something");
    let totals = client.totals();
    assert!(totals.outstanding() > 0);
    assert!(
        totals.outstanding() >= dropped,
        "a dropped datagram carries at least one request"
    );
    assert_eq!(totals.outstanding(), client.pending_len());
    assert_eq!(
        totals.sent,
        totals.completed + totals.outstanding() + totals.timed_out
    );
    server.shutdown();
}

#[test]
fn store_out_of_memory_is_reported_not_fatal() {
    let store = Store::new(StoreConfig {
        partitions: 2,
        buckets_per_partition: 16,
        overflow_per_partition: 8,
        items_per_partition: 64,
        mempool_bytes: 64 << 10, // 64 KiB budget
        max_value_bytes: 1 << 20,
        capacity: Default::default(),
    });
    // Fill the pool.
    let mut stored = 0u64;
    for k in 0..100u64 {
        if store.put(k, &[0u8; 4096]).is_ok() {
            stored += 1;
        }
    }
    assert!(
        (10..20).contains(&stored),
        "64KiB / 4KiB-class = ~16: {stored}"
    );
    // Delete one, then a put fits again.
    assert!(store.delete(0));
    assert!(store.put(500, &[0u8; 4096]).is_ok());
}

/// Runs the multi-fragment PUT workload over real UDP, optionally
/// through the fault injector, and returns (fault stats, settled
/// mempool `used_bytes`, store items) once the server's round sweep
/// has reclaimed any orphan partials. `settle_to` short-circuits the
/// wait as soon as occupancy matches the clean run's figure.
fn dup_workload(
    profile: Option<FaultProfile>,
    settle_to: Option<usize>,
) -> (minos::net::FaultStats, usize, u64) {
    const KEYS: u64 = 24;
    const LEN: usize = 4_000; // > MAX_FRAG_CHUNK: three fragments on the wire

    let transport = bind_udp_server(2);
    let mut config = ServerConfig::for_test(2, 10_000);
    // Fast round sweep so orphan partials (re-opened by post-completion
    // duplicate fragments) release their reservations within the test.
    config.minos.reassembly_round_ns = 50_000_000;
    let mut server = MinosServer::start_with_transport(config, Arc::clone(&transport));

    let DriverClient {
        mut client, fault, ..
    } = udp_client(&transport, 7, profile);

    for key in 0..KEYS {
        client.send_put(key, &vec![(key as u8) ^ 0x5A; LEN], true);
        while client.totals().outstanding() > 4 {
            client.poll();
        }
    }
    assert!(client.drain(Duration::from_secs(15)));
    let totals = client.totals();
    assert_eq!(totals.errors, 0);
    assert_eq!(totals.completed, KEYS);

    // Every value committed exactly once, intact.
    let store = server.store();
    for key in 0..KEYS {
        let v = store.get(key).expect("acked PUT readable");
        assert_eq!(v.len(), LEN, "key {key}");
        assert!(v.iter().all(|&b| b == (key as u8) ^ 0x5A), "key {key}");
    }
    let stats = store.stats();
    assert_eq!(stats.items, KEYS);
    assert_eq!(stats.put_failures, 0);

    // Let the round sweep reclaim orphan partials, then read occupancy.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let used = loop {
        let used = store.mempool().stats().used_bytes;
        if settle_to == Some(used) || std::time::Instant::now() > deadline {
            break used;
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    let injected = fault.map(|f| f.fault_stats()).unwrap_or_default();
    server.shutdown();
    (injected, used, stats.items)
}

#[test]
fn duplicated_put_fragments_do_not_double_charge() {
    // Twin runs of the same multi-fragment workload: one clean, one
    // with every other request fragment duplicated in flight
    // (`tx.dup=0.5`). The reassembler must ignore duplicate fragments
    // of in-flight messages (`Streamed::Duplicate`), and any partial a
    // post-completion duplicate re-opens must be swept — so the chaos
    // run ends with byte-identical mempool occupancy: no double-commit,
    // no double-charge, no leaked reservation.
    let (clean_stats, clean_used, clean_items) = dup_workload(None, None);
    assert_eq!(clean_stats.total(), 0, "clean run injects nothing");

    let profile = FaultProfile::parse("tx.dup=0.5,seed=11").unwrap();
    let (injected, dup_used, dup_items) = dup_workload(Some(profile), Some(clean_used));
    assert!(injected.tx_duplicated > 0, "{injected:?}");
    assert_eq!(dup_items, clean_items);
    assert_eq!(
        dup_used, clean_used,
        "duplicated fragments must not change mempool occupancy"
    );
}

#[test]
fn forged_fragments_are_rejected_and_server_stays_up() {
    // Hand-forged datagrams straight at the server's UDP port: headers
    // a real peer can never produce (truncated, index out of range,
    // count inconsistent with msg_len, chunk length mismatch) plus raw
    // garbage. All must be rejected at the reassembly layer without
    // disturbing service.
    let transport = bind_udp_server(2);
    let mut server = MinosServer::start_with_transport(
        ServerConfig::for_test(2, 10_000),
        Arc::clone(&transport),
    );
    let port = transport.local_endpoint(0).port;
    let sock = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    let dst = format!("127.0.0.1:{port}");

    let forged = |header: FragHeader, payload_len: usize| {
        let mut buf = bytes::BytesMut::new();
        header.encode(&mut buf);
        buf.extend_from_slice(&vec![0xEEu8; payload_len]);
        buf.freeze()
    };
    for i in 0..50u64 {
        // Truncated: fewer bytes than a fragment header.
        sock.send_to(&[0xAB; 7], &dst).unwrap();
        // index >= count: rejected at header decode.
        sock.send_to(
            &forged(
                FragHeader {
                    msg_id: i,
                    index: 9,
                    count: 3,
                    msg_len: 4_000,
                    accepts_bundles: false,
                },
                100,
            ),
            &dst,
        )
        .unwrap();
        // count disagrees with msg_len's fragment arithmetic.
        sock.send_to(
            &forged(
                FragHeader {
                    msg_id: 1_000 + i,
                    index: 0,
                    count: 7,
                    msg_len: 64,
                    accepts_bundles: false,
                },
                64,
            ),
            &dst,
        )
        .unwrap();
        // Plausible header, wrong chunk length for that index.
        sock.send_to(
            &forged(
                FragHeader {
                    msg_id: 2_000 + i,
                    index: 0,
                    count: 3,
                    msg_len: 4_000,
                    accepts_bundles: false,
                },
                32,
            ),
            &dst,
        )
        .unwrap();
        // Raw garbage past header length.
        sock.send_to(&[i as u8; 80], &dst).unwrap();
    }

    // The store never saw a commit, and a real client still gets
    // ordinary service on the same socket set.
    let mut client = udp_client(&transport, 8, None).client;
    client.send_put(42, b"still serving", false);
    assert!(client.drain(Duration::from_secs(10)));
    let store = server.store();
    assert_eq!(&store.get(42).unwrap()[..], b"still serving");
    assert_eq!(store.stats().items, 1, "no forged fragment ever committed");
    server.shutdown();
}
