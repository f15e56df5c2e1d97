//! End-to-end tests of the paper's baseline designs as disciplines of the
//! one server: HKH+WS serves the same workload the Minos server does,
//! through the same client, and SHO refuses a configuration with no
//! worker core.

use minos_core::client::Client;
use minos_core::dispatch::DisciplineKind;
use minos_core::server::{MinosServer, ServerConfig};
use std::time::Duration;

#[test]
fn hkh_ws_serves_the_workload() {
    let mut config = ServerConfig::for_test(2, 10_000);
    config.minos.discipline = DisciplineKind::Hkh;
    config.minos.steal = true;
    let mut server = MinosServer::start(config);
    let mut client = Client::new(&server, 1, 3);

    // Small PUT/GET.
    client.send_put(7, b"small value", false);
    assert!(client.drain(Duration::from_secs(20)), "put");
    client.send_get(7, false);
    assert!(client.drain(Duration::from_secs(20)), "get");

    // Large (fragmented) PUT/GET.
    let value: Vec<u8> = (0..60_000).map(|i| (i % 251) as u8).collect();
    client.send_put(42, &value, true);
    assert!(client.drain(Duration::from_secs(30)), "large put");
    assert_eq!(server.store().get(42).unwrap().len(), value.len());
    client.send_get(42, true);
    assert!(client.drain(Duration::from_secs(30)), "large get");

    // A burst of mixed operations.
    for i in 0..100u64 {
        let value = vec![(i % 256) as u8; (i as usize % 1_000) + 1];
        client.send_put(100 + i, &value, false);
    }
    assert!(client.drain(Duration::from_secs(30)), "burst");

    let totals = client.totals();
    assert_eq!(totals.errors, 0);
    assert_eq!(totals.outstanding(), 0, "zero loss");
    assert_eq!(totals.completed, 104);
    server.shutdown();
}

#[test]
#[should_panic(expected = "handoff")]
fn sho_rejects_all_handoff_configuration() {
    let mut config = ServerConfig::for_test(2, 100);
    config.minos.discipline = DisciplineKind::Sho { handoff: 2 };
    let _ = MinosServer::start(config);
}
