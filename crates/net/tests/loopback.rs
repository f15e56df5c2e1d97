//! Loopback integration: the full Minos engine serving *real* UDP
//! traffic over 127.0.0.1 through [`UdpTransport`], driven by a
//! `minos-loadgen`-style client. Asserts the paper's zero-loss contract
//! plus GET/PUT round-trips for both small items and fragmented large
//! items.

use minos_core::client::Client;
use minos_core::server::{MinosServer, ServerConfig};
use minos_driver::RunConfig;
use minos_net::{Transport, UdpConfig, UdpTransport};
use minos_wire::message::{OpKind, ReplyStatus};
use minos_wire::MAX_FRAG_CHUNK;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;
use std::time::Duration;

/// Binds a server transport on a disjoint, PID-salted port range.
/// Ranges are handed out by an allocator rather than probed: these are
/// `SO_REUSEPORT` sockets, so binding over another live test server —
/// in this process or a concurrently running suite — would *succeed*
/// and split its traffic instead of failing.
fn bind_server(num_queues: u16) -> Arc<UdpTransport> {
    static PORTS: minos_net::testport::TestPorts =
        minos_net::testport::TestPorts::new(42_000, 44_900);
    loop {
        let base = PORTS.alloc(num_queues.max(8));
        if let Ok(t) = UdpTransport::bind(UdpConfig::loopback(base, num_queues)) {
            return Arc::new(t);
        }
    }
}

fn udp_client(server: &UdpTransport, queues: u16, id: u16, seed: u64) -> Client {
    let target = SocketAddrV4::new(Ipv4Addr::LOCALHOST, server.base_port());
    let run = RunConfig {
        seed,
        ..RunConfig::new(target, queues)
    };
    run.client(id, false).unwrap().client
}

#[test]
fn small_item_roundtrip_over_real_udp() {
    const CORES: u16 = 2;
    let transport = bind_server(CORES);
    let mut server = MinosServer::start_with_transport(
        ServerConfig::for_test(CORES as usize, 10_000),
        Arc::clone(&transport),
    );
    let mut client = udp_client(&transport, CORES, 1, 7);

    client.send_put(42, b"hello over the real wire", false);
    assert!(client.drain(Duration::from_secs(10)), "PUT reply lost");

    client.send_get(42, false);
    let completions = {
        assert!(client.drain(Duration::from_secs(10)), "GET reply lost");
        client.poll(); // flush any stragglers (there must be none)
        client.totals()
    };
    assert_eq!(completions.completed, 2);
    assert_eq!(completions.errors, 0, "both replies must be Ok");
    assert_eq!(completions.outstanding(), 0, "zero loss");

    // The value really is in the store at full fidelity.
    let stored = server.store().get(42).expect("item stored");
    assert_eq!(&stored[..], b"hello over the real wire");
    server.shutdown();
}

#[test]
fn fragmented_large_items_roundtrip_over_real_udp() {
    const CORES: u16 = 4;
    let transport = bind_server(CORES);
    let mut server = MinosServer::start_with_transport(
        ServerConfig::for_test(CORES as usize, 10_000),
        Arc::clone(&transport),
    );
    let mut client = udp_client(&transport, CORES, 2, 11);

    // Large enough to fragment into dozens of real datagrams each.
    let sizes = [MAX_FRAG_CHUNK + 1, 50_000, 200_000];
    for (i, &size) in sizes.iter().enumerate() {
        let value = vec![(i as u8).wrapping_add(7); size];
        client.send_put(1000 + i as u64, &value, true);
    }
    assert!(
        client.drain(Duration::from_secs(30)),
        "large PUT replies lost ({} outstanding)",
        client.totals().outstanding()
    );

    for (i, _) in sizes.iter().enumerate() {
        client.send_get(1000 + i as u64, true);
    }
    let mut ok_get_replies = 0;
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while ok_get_replies < sizes.len() {
        assert!(
            std::time::Instant::now() < deadline,
            "large GET replies lost ({} outstanding)",
            client.totals().outstanding()
        );
        for c in client.poll() {
            assert_eq!(c.kind, OpKind::GetReply);
            assert_eq!(c.status, ReplyStatus::Ok);
            assert!(c.large);
            ok_get_replies += 1;
        }
    }

    let totals = client.totals();
    assert_eq!(totals.completed, 2 * sizes.len() as u64);
    assert_eq!(totals.errors, 0);
    assert_eq!(totals.outstanding(), 0, "zero loss");

    // Byte-for-byte fidelity through fragmentation + reassembly, twice
    // (request path into the store, reply path back out was length- and
    // status-checked above).
    for (i, &size) in sizes.iter().enumerate() {
        let stored = server.store().get(1000 + i as u64).expect("stored");
        assert_eq!(stored.len(), size);
        assert!(stored.iter().all(|&b| b == (i as u8).wrapping_add(7)));
    }
    server.shutdown();
}

#[test]
fn mixed_burst_completes_with_zero_loss() {
    const CORES: u16 = 4;
    let transport = bind_server(CORES);
    let mut server = MinosServer::start_with_transport(
        ServerConfig::for_test(CORES as usize, 50_000),
        Arc::clone(&transport),
    );
    let mut client = udp_client(&transport, CORES, 3, 23);

    // A loadgen-style mixed phase: mostly-small PUT/GET traffic with
    // periodic large items sprinkled in, paced by periodic polls.
    let n_keys = 400u64;
    for key in 0..n_keys {
        let size = if key % 50 == 0 {
            20_000
        } else {
            64 + (key as usize % 900)
        };
        let value = vec![(key % 251) as u8; size];
        client.send_put(key, &value, size > MAX_FRAG_CHUNK);
        if key % 16 == 0 {
            while client.totals().outstanding() > 64 {
                client.poll();
            }
        }
    }
    assert!(
        client.drain(Duration::from_secs(30)),
        "PUT phase lost replies"
    );

    for key in 0..n_keys {
        client.send_get(key, false);
        if key % 16 == 0 {
            while client.totals().outstanding() > 64 {
                client.poll();
            }
        }
    }
    assert!(
        client.drain(Duration::from_secs(30)),
        "GET phase lost replies"
    );

    let totals = client.totals();
    assert_eq!(totals.sent, 2 * n_keys);
    assert_eq!(totals.completed, 2 * n_keys);
    assert_eq!(totals.errors, 0);
    assert_eq!(totals.outstanding(), 0, "zero loss across the whole run");
    assert!(client.latency().quantiles().is_some());

    // The server observed real datagrams, not virtual ones: one per
    // request at least, and — replies to this client may share them —
    // a frame per reply at least.
    let stats = transport.stats();
    assert!(stats.rx_packets >= 2 * n_keys);
    server.shutdown();
    let cores = server.core_stats();
    assert!(cores.iter().map(|c| c.frames_tx).sum::<u64>() >= 2 * n_keys);
    assert_eq!(
        cores.iter().map(|c| c.packets_tx).sum::<u64>(),
        transport.stats().tx_packets
    );
}
