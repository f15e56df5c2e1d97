//! Quickstart: start a Minos server, store and fetch items of wildly
//! different sizes, and watch size-aware sharding do its job — first
//! over the in-process virtual NIC, then over *real* UDP sockets on
//! loopback. Both halves run the identical engine through the
//! `minos_net::Transport` abstraction.
//!
//! Run with: `cargo run --release --example quickstart`

use minos::core::client::Client;
use minos::core::server::{MinosServer, ServerConfig, NIC_QUEUE_CAPACITY};
use minos::driver::RunConfig;
use minos::net::{Transport, UdpConfig, UdpTransport, VirtualClientTransport, VirtualTransport};
use minos::nic::{NicConfig, VirtualNic};
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    println!("== Minos quickstart ==\n");

    // ---- Part 1: the virtual-NIC transport (simulation substrate) ----
    //
    // A 4-core server: every core gets an RX/TX queue pair. Clients
    // steer packets to queues through UDP destination ports, exactly
    // like Flow Director steering on real hardware. The transport is
    // constructed explicitly here; `MinosServer::start` does the same
    // wiring for you.
    let config = ServerConfig::for_test(4, 10_000);
    let nic = Arc::new(VirtualNic::new(
        NicConfig::new(4).with_queue_capacity(NIC_QUEUE_CAPACITY),
    ));
    let transport = Arc::new(VirtualTransport::new(Arc::clone(&nic)));
    let mut server = MinosServer::start_with_transport(config, Arc::clone(&transport));

    // The client rides the same Transport trait: its adapter delivers
    // packets to the NIC, which steers each by its destination port,
    // and drains replies from the server's TX rings.
    let client_endpoint = minos::wire::packet::Endpoint::host(101, 20_001);
    let client_transport: Arc<dyn Transport> = Arc::new(VirtualClientTransport::new(
        Arc::clone(&nic),
        client_endpoint,
    ));
    let mut client = Client::with_transport(
        client_transport,
        client_endpoint,
        transport.local_endpoint(0),
        transport.num_queues(),
        1,
        42,
    );

    // Store a tiny, a small and a large item. The large PUT fragments
    // into ~35 packets on the wire and is reassembled by a large core.
    let tiny = b"42".to_vec();
    let small = vec![b's'; 1_000];
    let large = vec![b'L'; 50_000];

    client.send_put(1, &tiny, false);
    client.send_put(2, &small, false);
    client.send_put(3, &large, true);
    assert!(client.drain(Duration::from_secs(30)), "puts complete");
    println!(
        "stored: tiny={}B small={}B large={}B",
        tiny.len(),
        small.len(),
        large.len()
    );

    // Read them back. GETs go to uniformly random RX queues; the server
    // classifies each by *stored item size* and either answers on the
    // receiving small core or hands off to a large core.
    for key in [1u64, 2, 3] {
        client.send_get(key, key == 3);
    }
    assert!(client.drain(Duration::from_secs(30)), "gets complete");

    let totals = client.totals();
    println!(
        "completed {} ops, {} errors, {} outstanding (zero loss)",
        totals.completed,
        totals.errors,
        totals.outstanding()
    );

    // Inspect the sharding plan the control loop derived.
    server.force_epoch();
    let plan = server.plan();
    println!("\nsharding plan after one epoch:");
    println!("  size threshold : {} bytes", plan.decision.threshold);
    println!(
        "  small cores    : {:?} (handle everything <= threshold)",
        plan.allocation.small_cores()
    );
    println!(
        "  handoff cores  : {:?} (standby: {})",
        plan.allocation.handoff_cores(),
        plan.allocation.standby
    );

    let stats = server.core_stats();
    let handoffs: u64 = stats.iter().map(|s| s.handoffs).sum();
    println!("  handoffs so far: {handoffs} (the large GET/PUT went through a software queue)");

    let q = client.latency().quantiles().expect("latencies recorded");
    println!("\nclient latency (virtual): {q}");
    server.shutdown();

    // ---- Part 2: the same engine over real UDP sockets ----
    //
    // One SO_REUSEPORT socket per core on consecutive loopback ports;
    // the kernel's port demux now plays the NIC's dispatch role. This
    // is exactly what the `minos-server` / `minos-loadgen` binaries do.
    println!("\n== and now over real UDP on 127.0.0.1 ==\n");
    let udp = (9400..9900)
        .step_by(16)
        .find_map(|base| UdpTransport::bind(UdpConfig::loopback(base, 2)).ok())
        .map(Arc::new)
        .expect("a free loopback port range");
    println!(
        "server listening on 127.0.0.1:{}..{}",
        udp.base_port(),
        udp.base_port() + 1
    );
    let mut udp_server =
        MinosServer::start_with_transport(ServerConfig::for_test(2, 10_000), Arc::clone(&udp));

    // The client side of `minos-loadgen`, from the driver's builder.
    let target = SocketAddrV4::new(Ipv4Addr::LOCALHOST, udp.base_port());
    let mut udp_client = RunConfig::new(target, 2).client(7, false).unwrap().client;

    udp_client.send_put(10, &large, true);
    assert!(
        udp_client.drain(Duration::from_secs(10)),
        "UDP PUT completes"
    );
    udp_client.send_get(10, true);
    assert!(
        udp_client.drain(Duration::from_secs(10)),
        "UDP GET completes"
    );
    let t = udp_client.totals();
    println!(
        "real-UDP roundtrip: {} ops completed, {} errors, {} outstanding",
        t.completed,
        t.errors,
        t.outstanding()
    );
    let s = Transport::stats(&*udp);
    println!(
        "server transport saw {} rx / {} tx real datagrams (the 50 KB item fragmented)",
        s.rx_packets, s.tx_packets
    );
    udp_server.shutdown();

    println!("\ndone.");
}
