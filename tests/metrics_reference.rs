//! `docs/METRICS.md` is the metric reference: every name a UDP server
//! registers behind the fault layer (the stack `minos-server` runs), and
//! every client counter the load driver reports under `metrics`, is
//! documented there; so is every name an in-process server registers,
//! and every `nic.*` name documented there is one it registers.
//! Per-core names match as `core.N.*`.

use minos::core::client::Client;
use minos::core::server::{MinosServer, ServerConfig};
use minos::driver::{preload, RunConfig, Workload};
use minos::net::testport::TestPorts;
use minos::net::{FaultProfile, FaultTransport, UdpConfig, UdpTransport};
use minos::workload::{Profile, DEFAULT_PROFILE};
use std::collections::BTreeSet;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;
use std::time::Duration;

// Between the transport conformance (45000–59000) and UDP unit-test
// (60000–65000) ranges.
static PORTS: TestPorts = TestPorts::new(59_000, 60_000);

const QUEUES: u16 = 2;

/// The names the page spells in backticks, as `tools/gate.py docs`
/// reads them: the page spells every name in full.
fn documented(text: &str) -> BTreeSet<&str> {
    text.split('`').skip(1).step_by(2).collect()
}

/// `core.3.ops` → `core.N.ops`.
fn per_core(name: &str) -> String {
    match name
        .strip_prefix("core.")
        .and_then(|rest| rest.split_once('.'))
    {
        Some((n, leaf)) if n.bytes().all(|b| b.is_ascii_digit()) => format!("core.N.{leaf}"),
        _ => name.to_string(),
    }
}

#[test]
fn every_metric_is_documented() {
    let (base, udp) = loop {
        let base = PORTS.alloc(QUEUES);
        if let Ok(t) = UdpTransport::bind(UdpConfig::loopback(base, QUEUES)) {
            break (base, Arc::new(t));
        }
    };
    let transport = Arc::new(FaultTransport::new(udp, FaultProfile::default()));
    let mut server = MinosServer::start_with_transport(
        ServerConfig::for_test(QUEUES as usize, 4_096),
        transport,
    );

    // A small mixed load: GETs and PUTs, small values and fragmented ones.
    let run = RunConfig {
        rate: 2_000.0,
        duration: Duration::from_millis(500),
        ..RunConfig::new(SocketAddrV4::new(Ipv4Addr::LOCALHOST, base), QUEUES)
    };
    let profile = Profile {
        p_large: 0.05,
        large_max: 20_000,
        ..DEFAULT_PROFILE
    };
    let workload = Workload::etc(500, 8, profile, 42);
    let dataset = workload.dataset().expect("the ETC workload has a dataset");
    let mut preloader = run.preloader().expect("bind the preloader");
    assert_eq!(preload(&mut preloader.client, dataset), Ok(()));
    let report = minos::driver::run(&run, &workload).expect("bind the clients");
    server.shutdown();
    assert!(report.zero_loss(), "the run lost requests");

    let documented = documented(include_str!("../docs/METRICS.md"));
    let server_names = server.registry().snapshot().entries;
    let client_names = report.snapshot().entries;
    let missing: BTreeSet<String> = server_names
        .iter()
        .chain(&client_names)
        .map(|(name, _)| per_core(name))
        .filter(|name| !documented.contains(name.as_str()))
        .collect();
    assert!(
        missing.is_empty(),
        "metrics missing from docs/METRICS.md: {missing:?}"
    );
}

#[test]
fn every_virtual_backend_metric_is_documented_and_every_nic_row_registered() {
    let mut server = MinosServer::start(ServerConfig::for_test(QUEUES as usize, 4_096));
    let mut client = Client::new(&server, 1, 42);
    for key in 0..16u64 {
        let large = key % 4 == 0;
        client.send_put(key, &vec![7; if large { 5_000 } else { 100 }], large);
        client.send_get(key, large);
    }
    assert!(client.drain(Duration::from_secs(30)));
    server.shutdown();

    let documented = documented(include_str!("../docs/METRICS.md"));
    let registered: BTreeSet<String> = server
        .registry()
        .snapshot()
        .entries
        .iter()
        .map(|(name, _)| per_core(name))
        .collect();
    let missing: Vec<&String> = registered
        .iter()
        .filter(|name| !documented.contains(name.as_str()))
        .collect();
    assert!(
        missing.is_empty(),
        "metrics missing from docs/METRICS.md: {missing:?}"
    );
    let stale: Vec<&&str> = documented
        .iter()
        .filter(|name| {
            name.starts_with("nic.") && **name != "nic.*" && !registered.contains(**name)
        })
        .collect();
    assert!(
        stale.is_empty(),
        "documented nic.* names nobody registers: {stale:?}"
    );
}
