//! The driver's preload against a real UDP server: every PUT of the
//! ETC dataset is answered. The dataset's large keys are its last ids —
//! 100 values of up to 500 KB back to back — and a preload that bounds
//! only its request count queues that 25 MB into 4 MiB socket buffers
//! and loses the overflow ("preload lost 320 replies" at the loadgen's
//! defaults on a 2-vCPU host).

use minos::core::server::{MinosServer, ServerConfig};
use minos::driver::{preload, RunConfig};
use minos::net::testport::TestPorts;
use minos::net::{UdpConfig, UdpTransport};
use minos::workload::Dataset;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;

// Disjoint from chaos (28100–29900) and figures_e2e (26000–28000).
static PORTS: TestPorts = TestPorts::new(30_000, 30_900);

const QUEUES: u16 = 2;
/// The loadgen's defaults, with fewer of the small keys.
const KEYS: u64 = 20_000;
const LARGE_KEYS: u64 = 100;
const S_LARGE: u64 = 500_000;
/// A quarter of the server's default receive buffers: twice what the
/// preload may have in flight, so a bounded preload fits whatever the
/// scheduler does, while the request-count bound alone overruns it on
/// every run rather than on most.
const SERVER_SOCKET_BYTES: usize = 1 << 20;

#[test]
fn etc_preload_loses_no_reply() {
    let (base, server_transport) = loop {
        let base = PORTS.alloc(QUEUES);
        let config = UdpConfig {
            socket_buffer_bytes: SERVER_SOCKET_BYTES,
            ..UdpConfig::loopback(base, QUEUES)
        };
        if let Ok(t) = UdpTransport::bind(config) {
            break (base, Arc::new(t));
        }
    };
    let mut server = MinosServer::start_with_transport(
        ServerConfig::for_test(QUEUES as usize, KEYS as usize),
        server_transport,
    );
    let run = RunConfig::new(SocketAddrV4::new(Ipv4Addr::LOCALHOST, base), QUEUES);
    let mut client = run.preloader().unwrap().client;

    let dataset = Dataset::new(KEYS, LARGE_KEYS, 0.4, S_LARGE, 42);
    let large_bytes: u64 = (0..KEYS)
        .filter(|&k| dataset.is_large_key(k))
        .map(|k| dataset.size_of(k))
        .sum();
    assert!(
        large_bytes > 4 * (4 << 20),
        "the large keys ({large_bytes} B) dwarf the socket buffers"
    );

    assert_eq!(preload(&mut client, &dataset), Ok(()));
    let totals = client.totals();
    assert_eq!(totals.completed, KEYS, "one reply per key");
    assert_eq!(totals.outstanding(), 0);
    assert_eq!(totals.errors, 0, "every value fits the store");
    server.shutdown();
}
